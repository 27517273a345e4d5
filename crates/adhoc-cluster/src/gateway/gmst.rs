//! G-MST — the centralized global minimum spanning tree baseline.

use super::{GatewaySelection, NodeMarks};
use crate::clustering::Clustering;
use crate::virtual_graph::{self, SlotIndex, VirtualGraph};
use adhoc_graph::bfs::Adjacency;
use adhoc_graph::labels::HeadLabels;
use adhoc_graph::lmst::TieWeight;
use adhoc_graph::mst::{self, WeightedEdge};
use adhoc_graph::unionfind::UnionFind;

/// Global-MST gateway selection: build the complete virtual graph over
/// all clusterheads (pairwise hop distances, no locality bound), take
/// its minimum spanning tree, and mark the interiors of the chosen
/// shortest paths as gateways.
///
/// The paper uses this centralized construction as the lower-bound
/// comparator ("G-MST has a constant approximation ratio to the optimal
/// k-hop CDS for a constant k"). It is *not* localized: it needs global
/// topology knowledge.
pub fn gmst<G: Adjacency>(g: &G, clustering: &Clustering) -> GatewaySelection {
    // Only head-to-head distances and inter-head path walks are
    // consumed, so each BFS can stop as soon as the farthest head is
    // labeled instead of sweeping its whole component.
    let mut labels = HeadLabels::default();
    labels.rebuild_reaching_heads(g, &clustering.heads);
    gmst_from_labels(g, clustering, &labels)
}

/// As [`gmst`], but reading precomputed **unbounded** head labels (the
/// evaluation engine shares one label build across all algorithms).
///
/// # Panics
/// Panics if `labels` is hop-bounded or lacks a head of `clustering`.
pub fn gmst_from_labels<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    labels: &HeadLabels,
) -> GatewaySelection {
    assert_eq!(labels.bound(), u32::MAX, "G-MST needs unbounded labels");
    // All pairwise head distances are already in the labels; the MST
    // over them is unique (TieWeight makes all weights distinct), so
    // canonical paths need to be walked only for the h-1 edges Kruskal
    // keeps, not for all h(h-1)/2 pairs.
    let heads = &clustering.heads;
    let mut edges: Vec<WeightedEdge<TieWeight<u32>>> =
        Vec::with_capacity(heads.len().saturating_sub(1) * heads.len() / 2);
    for (i, &b) in heads.iter().enumerate() {
        let slot = labels.slot(b).expect("every head is labeled");
        for &a in &heads[..i] {
            let d = labels.dist(slot, a);
            if d != adhoc_graph::bfs::UNREACHED {
                edges.push(WeightedEdge::new(a, b, TieWeight::new(d, a, b)));
            }
        }
    }
    // Kruskal over node-ID space: only head IDs appear as endpoints,
    // the remaining singletons are inert.
    let tree = mst::kruskal(g.node_count(), &edges);
    let mut store = virtual_graph::LinkStore::default();
    for e in &tree {
        let (a, b) = if e.a < e.b { (e.a, e.b) } else { (e.b, e.a) };
        let slot = labels.slot(b).expect("every head is labeled");
        let ok = store.push_walk(g, a, b, &labels.row(slot));
        debug_assert!(ok, "tree edges connect");
    }
    store.finish();
    GatewaySelection::from_links(store.iter(), clustering)
}

/// G-MST read off the **NC virtual graph**, with no unbounded
/// traversal at all — the single-sweep engine's route.
///
/// Why this is exact and not an approximation: on a clustering that
/// covers a connected component of `G`, Theorem 1 makes that
/// component's adjacent cluster graph connected, and A-NCR ⊆ NC, so
/// the NC graph (all head pairs within `2k+1` hops) connects the
/// component's heads too. By the MST cycle property any head pair
/// farther than `2k+1` hops is then the strict maximum of some cycle
/// (close it through NC edges, all strictly cheaper) and can never be
/// an MST edge — the MST *forest* of the complete head-distance graph
/// (one tree per component, which is what [`gmst`] produces on
/// disconnected `G`: cross-component pairs have no path and are
/// omitted) uses only NC pairs, whose distances and canonical paths
/// `nc` already holds. The spanning test is therefore per component:
/// the Kruskal forest over NC links must hold `h − c` edges, where `c`
/// is the number of components of `G` that contain a head (an `O(E α)`
/// union-find sweep). Only if the NC relation fails *that* — a
/// degraded clustering whose coverage churn has broken — does this
/// fall back to the complete construction of [`gmst`], so the result
/// is identical to it in every case.
pub fn gmst_via_nc<G: Adjacency>(
    g: &G,
    nc: &VirtualGraph,
    clustering: &Clustering,
) -> GatewaySelection {
    let mut index = SlotIndex::default();
    index.build(nc);
    gmst_via_index(g, nc, &index, clustering, &mut NodeMarks::default())
}

/// [`gmst_via_nc`] over `index` (built from `nc`): Kruskal walks the NC
/// links in the index's weight order with a union-find over head slots,
/// and the tree links are read straight off the graph.
pub(crate) fn gmst_via_index<G: Adjacency>(
    g: &G,
    nc: &VirtualGraph,
    index: &SlotIndex,
    clustering: &Clustering,
    marks: &mut NodeMarks,
) -> GatewaySelection {
    let h = clustering.heads.len();
    let mut uf = UnionFind::new(h);
    let mut tree = Vec::with_capacity(h.saturating_sub(1));
    for &e in index.order() {
        if tree.len() + 1 >= h {
            break;
        }
        let (a, b) = index.ends(e);
        if uf.union(a as usize, b as usize) {
            tree.push(e);
        }
    }
    // Common case first: one tree spanning every head (connected `G`),
    // decided without touching `g`. The component sweep only runs for
    // genuine forests.
    let spans = tree.len() + 1 == h || tree.len() + head_components(g, clustering) == h;
    if !spans {
        return gmst(g, clustering);
    }
    tree.sort_unstable();
    GatewaySelection::from_links_with(
        marks,
        tree.iter().map(|&e| nc.link_at(e as usize)),
        clustering,
    )
}

/// Number of connected components of `g` containing at least one
/// clusterhead.
fn head_components<G: Adjacency>(g: &G, clustering: &Clustering) -> usize {
    let label = adhoc_graph::connectivity::components(g);
    let mut labels: Vec<u32> = clustering.heads.iter().map(|h| label[h.index()]).collect();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::priority::LowestId;
    use adhoc_graph::gen;
    use adhoc_graph::graph::NodeId;

    #[test]
    fn gmst_on_path_uses_chain_links() {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let sel = gmst(&g, &c);
        // MST over heads 0,2,4,6,8 with hop metric picks the four
        // 2-hop consecutive links.
        assert_eq!(sel.links_used.len(), 4);
        assert_eq!(
            sel.gateways,
            vec![NodeId(1), NodeId(3), NodeId(5), NodeId(7)]
        );
    }

    #[test]
    fn gmst_spans_all_heads() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(100, 100.0, 6.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let sel = gmst(&net.graph, &c);
            assert_eq!(
                sel.links_used.len(),
                c.head_count().saturating_sub(1),
                "an MST over h heads has h-1 links"
            );
        }
    }

    #[test]
    fn via_nc_matches_complete_construction() {
        use crate::adjacency::NeighborRule;
        use crate::virtual_graph::VirtualGraph;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 6.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let nc = VirtualGraph::build(&net.graph, &c, NeighborRule::All2kPlus1);
            let fast = gmst_via_nc(&net.graph, &nc, &c);
            let full = gmst(&net.graph, &c);
            assert_eq!(fast, full, "k={k}");
        }
    }

    #[test]
    fn via_nc_accepts_per_component_forests() {
        use crate::adjacency::NeighborRule;
        use crate::virtual_graph::VirtualGraph;
        // Two far-apart components: the NC Kruskal result is a forest,
        // one tree per head-bearing component, which the per-component
        // spanning test must accept without the complete-links
        // fallback — and the result still equals the complete
        // construction.
        let g = adhoc_graph::graph::Graph::from_edges(8, &[(0, 1), (1, 2), (5, 6), (6, 7)]);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let nc = VirtualGraph::build(&g, &c, NeighborRule::All2kPlus1);
        let fast = gmst_via_nc(&g, &nc, &c);
        let full = gmst(&g, &c);
        assert_eq!(fast, full);
    }

    #[test]
    fn via_nc_falls_back_when_nc_cannot_span_a_component() {
        use crate::adjacency::NeighborRule;
        use crate::clustering::Clustering;
        use crate::virtual_graph::VirtualGraph;
        // A *degraded* clustering (churn can produce these between
        // repairs): two heads in one component but farther apart than
        // 2k+1 hops, so the NC relation is empty and the shortcut must
        // defer to the complete construction.
        let g = gen::path(12);
        let mut head_of = vec![NodeId(0); 12];
        head_of[11] = NodeId(11);
        let c = Clustering {
            k: 1,
            heads: vec![NodeId(0), NodeId(11)],
            head_of,
            dist_to_head: (0..12).map(|i| (i as u32).min(1)).collect(),
            rounds: 0,
        };
        let nc = VirtualGraph::build(&g, &c, NeighborRule::All2kPlus1);
        assert_eq!(nc.link_count(), 0, "heads beyond 2k+1: no NC links");
        let fast = gmst_via_nc(&g, &nc, &c);
        let full = gmst(&g, &c);
        assert_eq!(fast, full);
        // The fallback really connected them: one 11-hop link.
        assert_eq!(fast.links_used, vec![(NodeId(0), NodeId(11))]);
    }

    #[test]
    fn gmst_single_cluster() {
        let g = gen::star(4);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let sel = gmst(&g, &c);
        assert!(sel.gateways.is_empty());
        assert!(sel.links_used.is_empty());
    }
}
