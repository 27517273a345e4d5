//! LMSTGA — the paper's LMST-based gateway algorithm.

use super::GatewaySelection;
use crate::clustering::Clustering;
use crate::virtual_graph::VirtualGraph;
use adhoc_graph::graph::NodeId;
use adhoc_graph::lmst::{self, TieWeight};

/// LMST-based gateway selection (Algorithm `AC-LMST`, lines 7–11, also
/// applicable to the NC relation for `NC-LMST`).
///
/// Each clusterhead `u` treats its neighbor clusterheads as a virtual
/// 1-hop neighborhood, builds a local minimum spanning tree over the
/// virtual links among them (weights = `(hop count, max id, min id)`,
/// mirroring Li/Hou/Sha so all weights are distinct), and keeps only
/// the links to its on-tree neighbors. A link is realized when *either*
/// endpoint keeps it; all interior nodes of realized links become
/// gateways. Theorem 2 proves the result connects all clusterheads.
pub fn lmstga(vg: &VirtualGraph, clustering: &Clustering) -> GatewaySelection {
    lmstga_with(&mut LmstgaScratch::default(), vg, clustering)
}

/// Reusable buffers for [`lmstga_with`]: the Monte-Carlo engine calls
/// the LMST rule twice per replicate (NC and AC graphs), so the local
/// MST scratch persists per worker.
#[derive(Clone, Debug, Default)]
pub struct LmstgaScratch {
    lmst: lmst::LmstScratch<TieWeight<u32>>,
    on_tree: Vec<NodeId>,
}

/// As [`lmstga`], reusing `scratch` across calls.
pub fn lmstga_with(
    scratch: &mut LmstgaScratch,
    vg: &VirtualGraph,
    clustering: &Clustering,
) -> GatewaySelection {
    lmstga_rows(scratch, vg, clustering, None).0
}

/// Every head's on-tree neighbors from one LMSTGA run, in head-slot
/// order: head slot `i` kept the links to `row(i)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct LmstRows {
    off: Vec<u32>,
    nbrs: Vec<NodeId>,
}

impl LmstRows {
    /// Number of heads covered.
    fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// The on-tree neighbors head slot `slot` kept, ascending.
    fn row(&self, slot: usize) -> &[NodeId] {
        &self.nbrs[self.off[slot] as usize..self.off[slot + 1] as usize]
    }
}

/// LMSTGA that also returns every head's on-tree list, and may reuse a
/// previous run's lists: with `reuse = Some((prev, rerun))` only heads
/// whose slot is flagged in `rerun` run the local MST, and every other
/// head copies `prev`'s row. That is exact whenever an unflagged head's
/// closed one-hop neighborhood in `vg` — its neighbor set, its
/// neighbors' sets, and the hop counts of their links — is what it was
/// when `prev` was computed: the Li/Hou/Sha rule is a function of that
/// neighborhood alone.
///
/// Returns the selection, the rows, and how many heads ran the local
/// MST.
///
/// # Panics
/// Panics if `prev` or `rerun` covers a different number of heads than
/// `vg`.
pub(crate) fn lmstga_rows(
    scratch: &mut LmstgaScratch,
    vg: &VirtualGraph,
    clustering: &Clustering,
    reuse: Option<(&LmstRows, &[bool])>,
) -> (GatewaySelection, LmstRows, usize) {
    let heads = vg.heads.len();
    if let Some((prev, rerun)) = reuse {
        assert_eq!(prev.len(), heads, "previous rows cover another head set");
        assert_eq!(rerun.len(), heads, "rerun mask covers another head set");
    }
    let mut rows = LmstRows {
        off: Vec::with_capacity(heads + 1),
        nbrs: Vec::new(),
    };
    rows.off.push(0);
    let mut reruns = 0usize;
    for (slot, (u, partners)) in vg.neighbor_sets.iter().enumerate() {
        match reuse {
            Some((prev, rerun)) if !rerun[slot] => rows.nbrs.extend_from_slice(prev.row(slot)),
            _ if partners.is_empty() => {}
            _ => {
                reruns += 1;
                lmst::on_tree_neighbors_into(
                    &mut scratch.lmst,
                    u,
                    partners,
                    |a, b| vg.weight(a, b),
                    &mut scratch.on_tree,
                );
                rows.nbrs.extend_from_slice(&scratch.on_tree);
            }
        }
        rows.off.push(rows.nbrs.len() as u32);
    }
    // A link is realized when either endpoint keeps it. Walking the
    // relation's links in their ascending `(a, b)` order yields the
    // realized ones sorted, unique, and with their paths at hand.
    let slot = |h: NodeId| vg.heads.binary_search(&h).expect("link endpoints are heads");
    let kept = |a: NodeId, b: NodeId| rows.row(slot(a)).binary_search(&b).is_ok();
    let selection = GatewaySelection::from_links(
        vg.links().filter(|l| kept(l.a, l.b) || kept(l.b, l.a)),
        clustering,
    );
    (selection, rows, reruns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::NeighborRule;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::gateway::mesh;
    use crate::priority::LowestId;
    use adhoc_graph::gen;
    use adhoc_graph::graph::NodeId;

    #[test]
    fn lmst_on_path_keeps_chain() {
        // On a path the virtual graph is itself a chain; LMST keeps
        // everything (no redundancy to prune).
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        let sel = lmstga(&vg, &c);
        assert_eq!(sel.links_used.len(), 4);
        assert_eq!(
            sel.gateways,
            vec![NodeId(1), NodeId(3), NodeId(5), NodeId(7)]
        );
    }

    #[test]
    fn lmst_prunes_redundant_triangle_link() {
        // Three mutually-adjacent clusters where one inter-head
        // distance is longer: the LMST drops the longest link.
        // Build: heads will be 0, 1, 2 after clustering a triangle of
        // clusters. Topology (k=1):
        //   0-3, 3-4, 4-1   (0..1 via two gateways: 3 hops)
        //   0-5, 5-2        (0..2: 2 hops)
        //   1-6, 6-2        (1..2: 2 hops)
        //   3-5? no. Make clusters adjacent: members 3,4 in cluster 0/1
        //   sides... ensure adjacency pairs exist:
        //   cluster(0) = {0,3,5}, cluster(1) = {1,4,6}, cluster(2)={2,...}
        // Edges: (0,3),(3,4),(4,1) -> clusters 0,1 adjacent via 3-4.
        //        (0,5),(5,2)      -> clusters 0,2 adjacent via 5-2? 5
        //         is member of 0, 2 is head of 2: w1=5,w2=2 neighbors.
        //        (1,6),(6,2)      -> clusters 1,2 adjacent via 6-2.
        let g = adhoc_graph::graph::Graph::from_edges(
            7,
            &[(0, 3), (3, 4), (4, 1), (0, 5), (5, 2), (1, 6), (6, 2)],
        );
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        assert_eq!(c.heads, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        assert_eq!(vg.link_count(), 3);
        assert_eq!(vg.link(NodeId(0), NodeId(1)).unwrap().hops(), 3);
        assert_eq!(vg.link(NodeId(0), NodeId(2)).unwrap().hops(), 2);
        assert_eq!(vg.link(NodeId(1), NodeId(2)).unwrap().hops(), 2);

        let sel = lmstga(&vg, &c);
        // Every head's local view is the full triangle, whose MST is
        // {0-2, 1-2}; the 3-hop 0-1 link is pruned by both endpoints.
        assert_eq!(
            sel.links_used,
            vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        );
        assert_eq!(sel.gateways, vec![NodeId(5), NodeId(6)]);

        // Mesh keeps all three links and pays for it.
        let m = mesh(&vg, &c);
        assert_eq!(m.gateway_count(), 4);
    }

    #[test]
    fn lmst_never_beats_mesh_in_links() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(110, 100.0, 6.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            for rule in [NeighborRule::Adjacent, NeighborRule::All2kPlus1] {
                let vg = VirtualGraph::build(&net.graph, &c, rule);
                let l = lmstga(&vg, &c);
                let m = mesh(&vg, &c);
                assert!(l.links_used.len() <= m.links_used.len());
                assert!(l.gateway_count() <= m.gateway_count());
                // LMST links are a subset of the relation.
                for link in &l.links_used {
                    assert!(m.links_used.contains(link));
                }
            }
        }
    }

    #[test]
    fn single_cluster_selects_nothing() {
        let g = gen::star(6);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        let sel = lmstga(&vg, &c);
        assert!(sel.gateways.is_empty());
        assert!(sel.links_used.is_empty());
    }
}
