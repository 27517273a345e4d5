//! Algorithm-scoped evaluation must be **bit-for-bit** the matching
//! entry of an all-five `run_all`.
//!
//! A scratch narrowed to one algorithm skips every eval-tail stage that
//! algorithm does not read, patches the A-NCR relation from the delta
//! and the re-affiliated members, and re-runs the local MST only at
//! heads within one virtual hop of a changed row or link. These
//! proptests drive such a scratch through `advance_labels` +
//! `update_all_after` chains — edge deltas plus member re-affiliations,
//! and head-set splices that promote or demote a head in the same
//! advance as an edge delta — at worker counts 1 and 2, and after every
//! step check:
//!
//! * the scoped output holds exactly the requested algorithm;
//! * its selection and CDS equal `run_all`'s entry;
//! * the NC graph, and the AC graph for an AC algorithm, equal
//!   `run_all`'s (relation, link pairs, canonical paths);
//! * for an LMST algorithm, the dirty-local selection equals a full
//!   `lmstga_with` over the same graph.

use adhoc_cluster::adjacency::NeighborRule;
use adhoc_cluster::clustering::{self, Clustering, MemberPolicy};
use adhoc_cluster::gateway;
use adhoc_cluster::pipeline::{
    self, Algorithm, AlgorithmSet, EvalScratch, EvaluationOutput, Parallelism,
};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::virtual_graph::VirtualGraph;
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::labels::HeadLabels;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn assert_graphs_equal(a: &VirtualGraph, b: &VirtualGraph, ctx: &str) {
    assert_eq!(a.neighbor_sets, b.neighbor_sets, "{ctx}: relation");
    assert_eq!(a.link_count(), b.link_count(), "{ctx}: link count");
    for (l, r) in a.links().zip(b.links()) {
        assert_eq!((l.a, l.b), (r.a, r.b), "{ctx}: pair");
        assert_eq!(l.path, r.path, "{ctx}: path {:?}-{:?}", l.a, l.b);
    }
}

/// The scoped evaluation against a cold all-five `run_all` on the same
/// graph and clustering, plus the local-vs-full LMSTGA check.
fn assert_scoped_matches(
    g: &Graph,
    c: &Clustering,
    alg: Algorithm,
    eval: &EvaluationOutput,
    ctx: &str,
) {
    let cold = pipeline::run_all(g, c);
    assert_eq!(eval.algorithms(), AlgorithmSet::only(alg), "{ctx}: scope");
    assert_graphs_equal(&eval.nc_graph, &cold.nc_graph, &format!("{ctx}: NC"));
    let ac = alg.neighbor_rule() == Some(NeighborRule::Adjacent);
    if ac {
        assert_graphs_equal(&eval.ac_graph, &cold.ac_graph, &format!("{ctx}: AC"));
    } else {
        assert_eq!(eval.ac_graph.link_count(), 0, "{ctx}: unrequested AC graph");
    }
    assert_eq!(
        eval.of(alg).selection,
        cold.of(alg).selection,
        "{ctx}: {alg} selection"
    );
    assert_eq!(eval.of(alg).cds, cold.of(alg).cds, "{ctx}: {alg} CDS");
    if matches!(alg, Algorithm::NcLmst | Algorithm::AcLmst) {
        let graph = if ac { &eval.ac_graph } else { &eval.nc_graph };
        let full = gateway::lmstga_with(&mut gateway::LmstgaScratch::default(), graph, c);
        assert_eq!(eval.of(alg).selection, full, "{ctx}: local LMSTGA != full");
    }
}

/// Re-homes up to `count` members to another base head within `k` hops
/// of them in `g0`. Every graph of the chain is a supergraph of `g0`,
/// so the new affiliation stays within `k` hops throughout.
fn reaffiliate(
    c: &mut Clustering,
    g0_labels: &HeadLabels,
    base: &[NodeId],
    count: usize,
    rng: &mut StdRng,
) {
    let k = c.k;
    for _ in 0..count {
        let v = NodeId(rng.gen_range(0..c.head_of.len() as u32));
        if c.is_head(v) {
            continue;
        }
        let options: Vec<(NodeId, u32)> = base
            .iter()
            .filter(|&&h| h != c.head_of(v))
            .filter_map(|&h| {
                let d = g0_labels.dist(g0_labels.slot(h)?, v);
                (d <= k).then_some((h, d))
            })
            .collect();
        if let Some(&(h, d)) = options.get(rng.gen_range(0..options.len().max(1))) {
            c.head_of[v.index()] = h;
            c.dist_to_head[v.index()] = d;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Edge deltas, re-affiliations and head-set splices through a
    /// one-algorithm scratch, at 1 and 2 workers.
    #[test]
    fn scoped_tail_matches_run_all_entry(
        seed in 0u64..10_000,
        k in 1u32..=3,
        alg in 0usize..5,
        workers in 1usize..=2,
    ) {
        let alg = Algorithm::ALL[alg];
        let n = 60u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n as usize, 100.0, 6.0), &mut rng);
        let g0 = net.graph.clone();
        let mut g = g0.clone();
        let base = clustering::cluster(&g0, k, &LowestId, MemberPolicy::IdBased);
        let g0_labels = HeadLabels::build(&g0, &base.heads, k);
        let mut c = base.clone();
        let mut scratch = EvalScratch::new();
        scratch.set_algorithms(AlgorithmSet::only(alg));
        scratch.set_workers(Parallelism::new(workers));
        let mut prev = pipeline::run_all_with(&g, &c, &mut scratch);
        assert_scoped_matches(&g, &c, alg, &prev, &format!("{alg} k={k} build"));
        let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
        let mut promoted: Vec<NodeId> = Vec::new();
        for step in 0..10 {
            let ctx = format!("{alg} k={k} w={workers} step {step}");
            // The edge delta: add a few extra edges, or take some back
            // (the chain never drops below g0, so `base` keeps
            // covering it).
            let mut delta = TopologyDelta::new();
            if step % 3 == 2 && !extras.is_empty() {
                for _ in 0..rng.gen_range(1..=extras.len()) {
                    let (a, b) = extras.swap_remove(rng.gen_range(0..extras.len()));
                    g.remove_edge(a, b);
                    delta.push_removed(a, b);
                }
            } else {
                for _ in 0..rng.gen_range(1..4) {
                    let (a, b) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                    if a != b && !g.has_edge(a, b) {
                        g.add_edge(a, b);
                        delta.push_added(a, b);
                        extras.push(if a < b { (a, b) } else { (b, a) });
                    }
                }
            }
            delta.normalize();
            let splice = step % 4 == 3;
            if splice {
                // Head-set splice: promote a member (it keeps no
                // members), or demote the last promoted head.
                match promoted.pop() {
                    Some(v) if step % 8 == 7 => {
                        let pos = c.heads.binary_search(&v).expect("promoted head");
                        c.heads.remove(pos);
                        c.head_of[v.index()] = base.head_of[v.index()];
                        c.dist_to_head[v.index()] = base.dist_to_head[v.index()];
                    }
                    other => {
                        promoted.extend(other);
                        if let Some(v) = g.nodes().find(|&v| !c.is_head(v) && c.head_of(v) == base.head_of(v)) {
                            let pos = c.heads.binary_search(&v).unwrap_err();
                            c.heads.insert(pos, v);
                            c.head_of[v.index()] = v;
                            c.dist_to_head[v.index()] = 0;
                            promoted.push(v);
                        }
                    }
                }
            }
            let swept = pipeline::advance_labels(&g, &c, &delta, &mut scratch);
            if !splice {
                reaffiliate(&mut c, &g0_labels, &base.heads, rng.gen_range(0..4), &mut rng);
            }
            pipeline::update_all_after(&g, &c, &delta, &swept, &mut prev, &mut scratch);
            assert_scoped_matches(&g, &c, alg, &prev, &ctx);
        }
    }
}
