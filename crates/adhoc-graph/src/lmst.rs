//! The Li/Hou/Sha Local Minimum Spanning Tree (LMST) rule.
//!
//! LMST is the topology-control algorithm of reference \[9\] of the paper
//! ("Design and analysis of an MST-based topology control algorithm",
//! INFOCOM 2003). Each node `u` independently computes a minimum
//! spanning tree of its *local* graph — its 1-hop neighborhood plus all
//! known edges among those nodes — and keeps only the links to its
//! on-tree neighbors. With pairwise-distinct edge weights both the
//! union (`G0+`) and the intersection (`G0-`) of the per-node
//! selections preserve connectivity; individual selections may be
//! unidirectional (two nodes see different local graphs), which is why
//! Li/Hou/Sha include an optional phase that removes or mirrors
//! asymmetric links.
//!
//! Two layers are provided:
//!
//! * [`on_tree_neighbors`] — the abstract rule: given a center, its
//!   local vertex set and a weight oracle, return the center's on-tree
//!   neighbors. The paper's LMSTGA gateway algorithm instantiates this
//!   with clusterheads as vertices and "virtual links" (shortest-path
//!   hop counts) as weights.
//! * [`topology`] — the original geometric topology control, used here
//!   both as a substrate self-check and as a baseline in ablation
//!   benches.

use crate::geom::Point;
use crate::graph::{Graph, NodeId};
use crate::mst::prim;

/// A totally ordered weight triple `(w, max(id), min(id))`.
///
/// Appending the sorted endpoint IDs makes all edge weights pairwise
/// distinct, which is the precondition of the LMST connectivity and
/// symmetry theorems. This mirrors Li/Hou/Sha's weight function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TieWeight<W> {
    /// Primary weight (hop count for virtual links, scaled distance for
    /// geometric links).
    pub w: W,
    /// Larger endpoint ID.
    pub hi: NodeId,
    /// Smaller endpoint ID.
    pub lo: NodeId,
}

impl<W> TieWeight<W> {
    /// Builds the canonical triple for the edge `(a, b)`.
    pub fn new(w: W, a: NodeId, b: NodeId) -> Self {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        TieWeight { w, hi, lo }
    }
}

/// Computes the LMST rule at `center`.
///
/// `local` is the center's neighborhood (must not contain `center`);
/// `weight(a, b)` returns the weight of the local edge `a—b`, or `None`
/// if `a` and `b` are not adjacent in the local structure. The oracle
/// must be symmetric. Every vertex of `local` must be adjacent to
/// `center` (that is what "neighborhood" means), so the local graph is
/// connected and a spanning tree exists.
///
/// Returns the IDs of `center`'s neighbors **on the local MST**, sorted
/// ascending. These are the links the LMST rule keeps.
///
/// # Panics
/// Panics if `local` contains `center` or if some local vertex has no
/// edge to `center`.
pub fn on_tree_neighbors<W, F>(center: NodeId, local: &[NodeId], weight: F) -> Vec<NodeId>
where
    W: Ord + Copy,
    F: Fn(NodeId, NodeId) -> Option<W>,
{
    assert!(
        !local.contains(&center),
        "local set must exclude the center"
    );
    if local.is_empty() {
        return Vec::new();
    }
    // Local index 0 = center, 1.. = neighbors.
    let verts: Vec<NodeId> = std::iter::once(center)
        .chain(local.iter().copied())
        .collect();
    let n = verts.len();
    let mut adj: Vec<Vec<(u32, W)>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(w) = weight(verts[i], verts[j]) {
                adj[i].push((j as u32, w));
                adj[j].push((i as u32, w));
            }
        }
    }
    for (j, v) in verts.iter().enumerate().skip(1) {
        assert!(
            adj[0].iter().any(|&(t, _)| t as usize == j),
            "local vertex {v:?} has no edge to center {center:?}"
        );
    }
    let tree = prim(n, &adj, 0);
    let mut out: Vec<NodeId> = tree
        .iter()
        .filter_map(|&(p, c)| {
            if p == 0 {
                Some(verts[c as usize])
            } else if c == 0 {
                Some(verts[p as usize])
            } else {
                None
            }
        })
        .collect();
    out.sort_unstable();
    out
}

/// How asymmetric selections are reconciled in [`topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymmetryMode {
    /// Keep the link if *either* endpoint selected it (`G0+` in the
    /// LMST paper).
    Union,
    /// Keep the link only if *both* endpoints selected it (`G0-`).
    Intersection,
}

/// Runs geometric LMST topology control.
///
/// Every node computes its local MST over its 1-hop neighbors using
/// squared-Euclidean-distance weights with ID tie-breaking and keeps
/// links to its on-tree neighbors; `mode` reconciles the directed
/// selections (selections can be unidirectional because two nodes see
/// different local graphs). Both modes preserve connectivity of a
/// connected input — the tests assert this.
///
/// # Panics
/// Panics if `positions.len() != g.len()`.
pub fn topology(g: &Graph, positions: &[Point], mode: SymmetryMode) -> Graph {
    assert_eq!(positions.len(), g.len(), "one position per node");
    let mut selected: Vec<Vec<NodeId>> = Vec::with_capacity(g.len());
    for u in g.nodes() {
        let local = g.neighbors(u);
        let keep = on_tree_neighbors(u, local, |a, b| {
            if a == b || !g.has_edge(a, b) {
                return None;
            }
            let d2 = positions[a.index()].distance_sq(&positions[b.index()]);
            // Scale to integer to get a total order without a float
            // wrapper; resolution 1e-9 of the squared distance is far
            // below any realistic coordinate noise, and the ID
            // tie-break handles exact collisions.
            Some(TieWeight::new((d2 * 1e9) as u128, a, b))
        });
        selected.push(keep);
    }
    let mut out = Graph::new(g.len());
    for u in g.nodes() {
        for &v in &selected[u.index()] {
            if out.has_edge(u, v) {
                continue;
            }
            let reciprocal = selected[v.index()].contains(&u);
            let keep = match mode {
                SymmetryMode::Union => true,
                SymmetryMode::Intersection => reciprocal,
            };
            if keep {
                out.add_edge(u, v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity;

    #[test]
    fn tie_weight_orders_endpoints() {
        let w = TieWeight::new(5u32, NodeId(9), NodeId(2));
        assert_eq!(w.lo, NodeId(2));
        assert_eq!(w.hi, NodeId(9));
        let a = TieWeight::new(5u32, NodeId(1), NodeId(2));
        let b = TieWeight::new(5u32, NodeId(1), NodeId(3));
        assert!(a < b);
        let c = TieWeight::new(4u32, NodeId(8), NodeId(9));
        assert!(c < a);
    }

    #[test]
    fn on_tree_neighbors_star_keeps_all() {
        // Center 0, leaves 1..=3, no leaf-leaf edges: local MST is the
        // star itself, every leaf is on-tree.
        let leaves = [NodeId(1), NodeId(2), NodeId(3)];
        let keep = on_tree_neighbors(NodeId(0), &leaves, |a, b| {
            (a == NodeId(0) || b == NodeId(0)).then(|| TieWeight::new(1u32, a, b))
        });
        assert_eq!(keep, leaves);
    }

    #[test]
    fn on_tree_neighbors_drops_redundant_long_link() {
        // Triangle 0-1 (w1), 1-2 (w2), 0-2 (w10): the MST drops 0-2, so
        // the center keeps only node 1.
        let local = [NodeId(1), NodeId(2)];
        let keep = on_tree_neighbors(NodeId(0), &local, |a, b| {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            let w = match (a.0, b.0) {
                (0, 1) => 1u32,
                (1, 2) => 2,
                (0, 2) => 10,
                _ => return None,
            };
            Some(TieWeight::new(w, a, b))
        });
        assert_eq!(keep, vec![NodeId(1)]);
    }

    #[test]
    fn on_tree_neighbors_empty_local() {
        let keep = on_tree_neighbors(NodeId(0), &[], |_, _| -> Option<u32> { unreachable!() });
        assert!(keep.is_empty());
    }

    #[test]
    #[should_panic(expected = "exclude the center")]
    fn center_in_local_panics() {
        on_tree_neighbors(NodeId(0), &[NodeId(0)], |_, _| Some(1u32));
    }

    #[test]
    #[should_panic(expected = "no edge to center")]
    fn missing_center_edge_panics() {
        on_tree_neighbors(NodeId(0), &[NodeId(1)], |_, _| -> Option<u32> { None });
    }

    fn square_topology() -> (Graph, Vec<Point>) {
        // Unit square + both diagonals reachable: LMST should drop the
        // diagonals (longest links).
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]);
        (g, positions)
    }

    #[test]
    fn geometric_lmst_drops_diagonals() {
        let (g, pos) = square_topology();
        let t = topology(&g, &pos, SymmetryMode::Intersection);
        assert!(connectivity::is_connected(&t));
        assert!(!t.has_edge(NodeId(0), NodeId(2)));
        assert!(!t.has_edge(NodeId(1), NodeId(3)));
        assert_eq!(t.edge_count(), 3); // spanning tree of the square rim
    }

    #[test]
    fn intersection_is_subset_of_union() {
        let (g, pos) = square_topology();
        let a = topology(&g, &pos, SymmetryMode::Union);
        let b = topology(&g, &pos, SymmetryMode::Intersection);
        for (u, v) in b.edges() {
            assert!(a.has_edge(u, v));
        }
        assert!(connectivity::is_connected(&a));
        assert!(connectivity::is_connected(&b));
    }

    #[test]
    fn lmst_preserves_connectivity_on_random_geometric_graphs() {
        use crate::gen::{self, GeometricConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..5 {
            let _ = seed;
            let net = gen::geometric(&GeometricConfig::new(60, 100.0, 8.0), &mut rng);
            let t = topology(&net.graph, &net.positions, SymmetryMode::Intersection);
            assert!(connectivity::is_connected(&t), "LMST broke connectivity");
            assert!(t.edge_count() <= net.graph.edge_count());
            // Li/Hou/Sha Lemma: LMST node degree is at most 6.
            for u in t.nodes() {
                assert!(t.degree(u) <= 6, "degree bound violated at {u:?}");
            }
        }
    }
}
