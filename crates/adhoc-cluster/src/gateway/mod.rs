//! Gateway selection algorithms (§3.2).
//!
//! All three algorithms consume virtual links and mark the interior
//! nodes of the links they keep as gateways:
//!
//! * [`mesh`] — keeps *every* virtual link of the relation, i.e. each
//!   clusterhead connects directly to each of its selected neighbor
//!   clusterheads (the mesh-based scheme of Sinha et al., generalized
//!   to k hops).
//! * [`lmstga`] — the paper's LMST-based gateway algorithm: each
//!   clusterhead runs the local-MST rule over its neighbor clusterheads
//!   using virtual distances and keeps only links to its on-tree
//!   neighbors (Theorem 2 proves the union stays connected).
//! * [`gmst`] — the centralized global-MST lower bound: a minimum
//!   spanning tree over all clusterheads with pairwise hop distances.

mod gmst;
mod lmstga;
mod mesh;
mod weighted;

pub(crate) use gmst::gmst_via_index;
pub use gmst::{gmst, gmst_from_labels, gmst_via_nc};
pub use lmstga::{lmstga, lmstga_with, LmstgaScratch};
pub(crate) use lmstga::{lmstga_patch, lmstga_rows, LmstRows};
pub use mesh::mesh;
pub use weighted::{lmstga_weighted, selection_relay_cost};

use crate::clustering::Clustering;
use crate::virtual_graph::LinkRef;
use adhoc_graph::graph::NodeId;

/// The outcome of a gateway selection algorithm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewaySelection {
    /// Marked gateway nodes: sorted, de-duplicated, never clusterheads.
    pub gateways: Vec<NodeId>,
    /// The virtual links that were realized, as `(a, b)` with `a < b`.
    pub links_used: Vec<(NodeId, NodeId)>,
}

impl GatewaySelection {
    /// Builds a selection by marking the interiors of `links`.
    ///
    /// Interior nodes that happen to be clusterheads (possible only for
    /// unbounded G-MST links) are not re-marked: they already belong to
    /// the CDS.
    pub(crate) fn from_links<'a>(
        links: impl IntoIterator<Item = LinkRef<'a>>,
        clustering: &Clustering,
    ) -> Self {
        GatewaySelection::from_links_with(&mut NodeMarks::default(), links, clustering)
    }

    /// As [`Self::from_links`], collecting the gateways in `marks`.
    pub(crate) fn from_links_with<'a>(
        marks: &mut NodeMarks,
        links: impl IntoIterator<Item = LinkRef<'a>>,
        clustering: &Clustering,
    ) -> Self {
        marks.reset(clustering.head_of.len());
        let mut links_used = Vec::new();
        for l in links {
            links_used.push((l.a, l.b));
            for &w in l.interior() {
                if !clustering.is_head(w) {
                    marks.mark(w);
                }
            }
        }
        if !links_used.is_sorted() {
            links_used.sort_unstable();
        }
        links_used.dedup();
        GatewaySelection {
            gateways: marks.drain(),
            links_used,
        }
    }

    /// Number of gateway nodes.
    pub fn gateway_count(&self) -> usize {
        self.gateways.len()
    }
}

/// A node-indexed bitset: gateways are marked while links are walked
/// and drained in ascending order, with no sort and no dedup.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeMarks {
    words: Vec<u64>,
}

impl NodeMarks {
    /// Sizes the set for nodes `0..n` (every mark is already clear).
    fn reset(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
    }

    fn mark(&mut self, v: NodeId) {
        self.words[v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// The marked nodes, ascending; clears every mark.
    fn drain(&mut self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(NodeId(64 * i as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::NeighborRule;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::priority::LowestId;
    use crate::virtual_graph::VirtualGraph;
    use adhoc_graph::gen;

    #[test]
    fn from_links_dedups_shared_gateways() {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        let all: Vec<_> = vg.links().collect();
        // Feed every link twice; gateways and links must still be
        // unique.
        let doubled = all.iter().chain(all.iter()).copied();
        let sel = GatewaySelection::from_links(doubled, &c);
        assert_eq!(sel.links_used.len(), vg.link_count());
        assert_eq!(
            sel.gateways,
            vec![NodeId(1), NodeId(3), NodeId(5), NodeId(7)]
        );
        assert_eq!(sel.gateway_count(), 4);
    }
}
