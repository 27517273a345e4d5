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

pub use gmst::{gmst, gmst_from_labels, gmst_via_nc};
pub(crate) use lmstga::{lmstga_rows, LmstRows};
pub use lmstga::{lmstga, lmstga_with, LmstgaScratch};
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
        let mut gateways = Vec::new();
        let mut links_used = Vec::new();
        for l in links {
            links_used.push((l.a, l.b));
            for &w in l.interior() {
                if !clustering.is_head(w) {
                    gateways.push(w);
                }
            }
        }
        gateways.sort_unstable();
        gateways.dedup();
        links_used.sort_unstable();
        links_used.dedup();
        GatewaySelection {
            gateways,
            links_used,
        }
    }

    /// Number of gateway nodes.
    pub fn gateway_count(&self) -> usize {
        self.gateways.len()
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
