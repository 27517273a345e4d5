//! The eval tail's head-slot kernels against node-space references
//! written straight from the paper's definitions.
//!
//! `run_all_equivalence` and `scoped_equivalence` compare entry points
//! that share the flat A-NCR pass, the slot-indexed LMSTGA and the
//! head-slot G-MST, so a bug in one of those kernels would cancel out
//! there. This proptest compares each kernel with an independent
//! reference on random geometric graphs (k 1..=4, D 6 or 10):
//!
//! * the A-NCR relation, full and patched, against a `BTreeSet` scan of
//!   Definition 2, on clusterings where some nodes carry the
//!   unaffiliated sentinel (as churn leaves departed nodes);
//! * every head's LMSTGA row, on the NC and the AC graph, against the
//!   heap-based [`lmst::on_tree_neighbors`] with a `vg.weight` closure,
//!   and the realized links and gateways against their definition;
//! * [`gateway::gmst_via_nc`] against the complete [`gateway::gmst`],
//!   also on a disconnected graph (the per-component forest) with a
//!   head stranded beyond `2k+1` hops (the complete-links fallback).

use crate::adjacency::{self, AncrScratch, NeighborRule, NeighborSets};
use crate::clustering::{cluster, Clustering, MemberPolicy};
use crate::gateway::{self, LmstgaScratch};
use crate::priority::LowestId;
use crate::virtual_graph::{SlotIndex, VirtualGraph};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::lmst;
use adhoc_graph::paths;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;

/// The affiliation churn gives a departed node: in no cluster.
const UNAFFILIATED: NodeId = NodeId(u32::MAX);

/// Definition 2 in node space: per head, the heads of the clusters that
/// an edge of `g` joins to its own.
fn ancr_reference(g: &Graph, c: &Clustering) -> Vec<Vec<NodeId>> {
    let n = g.len();
    let mut rows = vec![BTreeSet::new(); c.heads.len()];
    let slot = |h: NodeId| c.heads.binary_search(&h).expect("affiliations name heads");
    for (u, v) in g.edges() {
        let (hu, hv) = (c.head_of(u), c.head_of(v));
        if hu.index() < n && hv.index() < n && hu != hv {
            rows[slot(hu)].insert(hv);
            rows[slot(hv)].insert(hu);
        }
    }
    rows.into_iter().map(|r| r.into_iter().collect()).collect()
}

fn assert_ancr(sets: &NeighborSets, reference: &[Vec<NodeId>], ctx: &str) {
    assert_eq!(sets.iter().count(), reference.len(), "{ctx}: heads");
    for ((h, row), want) in sets.iter().zip(reference) {
        assert_eq!(row, &want[..], "{ctx}: A-NCR row of {h:?}");
    }
}

/// Every head's on-tree row against the heap-based LMST rule, and the
/// selection against "realize a link either endpoint keeps; mark its
/// non-head interior nodes".
fn assert_lmstga(vg: &VirtualGraph, c: &Clustering, ctx: &str) {
    let mut index = SlotIndex::default();
    index.build(vg);
    let (selection, rows, _) = gateway::lmstga_rows(&mut LmstgaScratch::default(), vg, &index, c);
    let mut links = BTreeSet::new();
    for (slot, (h, partners)) in vg.neighbor_sets.iter().enumerate() {
        let want = lmst::on_tree_neighbors(h, partners, |a, b| vg.weight(a, b));
        assert_eq!(rows.row(slot), want, "{ctx}: LMST row of {h:?}");
        links.extend(want.iter().map(|&o| (h.min(o), h.max(o))));
    }
    let gateways: BTreeSet<NodeId> = links
        .iter()
        .flat_map(|&(a, b)| paths::interior(vg.link(a, b).expect("kept links exist").path))
        .copied()
        .filter(|&w| !c.is_head(w))
        .collect();
    assert_eq!(
        selection.links_used,
        links.into_iter().collect::<Vec<_>>(),
        "{ctx}: realized links"
    );
    assert_eq!(
        selection.gateways,
        gateways.into_iter().collect::<Vec<_>>(),
        "{ctx}: gateways"
    );
}

/// `a` and `b` side by side as one graph (`b`'s IDs shifted past `a`'s).
fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let shift = a.len() as u32;
    let mut g = Graph::new(a.len() + b.len());
    for (u, v) in a.edges() {
        g.add_edge(u, v);
    }
    for (u, v) in b.edges() {
        g.add_edge(NodeId(u.0 + shift), NodeId(v.0 + shift));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn head_slot_kernels_match_node_space_references(
        seed in 0u64..100_000,
        k in 1u32..=4,
        dense in 0usize..2,
        n in 40usize..=120,
    ) {
        let d = [6.0, 10.0][dense];
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = format!("seed={seed} k={k} D={d} n={n}");
        let g = gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng).graph;
        let c = cluster(&g, k, &LowestId, MemberPolicy::IdBased);

        // A-NCR, full scan.
        let full = adjacency::neighbor_clusterheads(&g, &c, NeighborRule::Adjacent);
        assert_ancr(&full, &ancr_reference(&g, &c), &ctx);

        // A-NCR with unaffiliated members, scanned in full and patched
        // from the fully affiliated relation.
        let mut stranded = c.clone();
        for _ in 0..rng.gen_range(1..=n / 8) {
            let v = NodeId(rng.gen_range(0..n as u32));
            if !stranded.is_head(v) {
                stranded.head_of[v.index()] = UNAFFILIATED;
            }
        }
        let reference = ancr_reference(&g, &stranded);
        let scanned = adjacency::neighbor_clusterheads(&g, &stranded, NeighborRule::Adjacent);
        assert_ancr(&scanned, &reference, &format!("{ctx} stranded"));
        let moved: Vec<(NodeId, NodeId)> = g
            .nodes()
            .filter(|v| c.head_of(*v) != stranded.head_of(*v))
            .map(|v| (v, c.head_of(v)))
            .collect();
        let mut patched = full.clone();
        adjacency::patch_adjacent(
            &g,
            &stranded,
            |h| stranded.heads.binary_search(&h).ok(),
            &mut patched,
            &mut Vec::new(),
            &moved,
            &TopologyDelta::new(),
            &mut AncrScratch::default(),
        );
        assert_ancr(&patched, &reference, &format!("{ctx} patched"));

        // LMSTGA rows on both virtual graphs.
        for rule in [NeighborRule::All2kPlus1, NeighborRule::Adjacent] {
            let vg = VirtualGraph::build(&g, &c, rule);
            assert_lmstga(&vg, &c, &format!("{ctx} {rule:?}"));
        }

        // G-MST: connected, then a disconnected union (a forest), then
        // the union with a head stranded 3k+2 hops out on a path (NC
        // cannot span its component: the complete fallback).
        let nc = VirtualGraph::build(&g, &c, NeighborRule::All2kPlus1);
        prop_assert_eq!(gateway::gmst_via_nc(&g, &nc, &c), gateway::gmst(&g, &c), "{}", ctx);
        let other = gen::geometric(&GeometricConfig::new(n / 2, 100.0, d), &mut rng).graph;
        let mut split = disjoint_union(&g, &other);
        let cs = cluster(&split, k, &LowestId, MemberPolicy::IdBased);
        let nc = VirtualGraph::build(&split, &cs, NeighborRule::All2kPlus1);
        prop_assert_eq!(
            gateway::gmst_via_nc(&split, &nc, &cs),
            gateway::gmst(&split, &cs),
            "{} split",
            ctx
        );

        let tail = 3 * k + 2;
        let first = split.len();
        let mut grown = Graph::new(first + tail as usize);
        for (u, v) in split.edges() {
            grown.add_edge(u, v);
        }
        split = grown;
        let mut prev = NodeId(0);
        for i in 0..tail {
            let v = NodeId(first as u32 + i);
            split.add_edge(prev, v);
            prev = v;
        }
        let mut degraded = cs.clone();
        degraded.head_of.resize(split.len(), UNAFFILIATED);
        degraded.dist_to_head.resize(split.len(), 0);
        degraded.head_of[prev.index()] = prev;
        degraded.heads.push(prev);
        let nc = VirtualGraph::build(&split, &degraded, NeighborRule::All2kPlus1);
        let fast = gateway::gmst_via_nc(&split, &nc, &degraded);
        prop_assert_eq!(&fast, &gateway::gmst(&split, &degraded), "{} degraded", ctx);
        prop_assert!(
            fast.links_used.iter().any(|&(_, b)| b == prev),
            "{}: the stranded head is joined", ctx
        );
    }
}
