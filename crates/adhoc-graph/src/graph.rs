//! Undirected graph with sorted adjacency lists.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node, a dense index in `0..Graph::len()`.
///
/// The paper's algorithms use node IDs both as identity and as priority
/// (lowest-ID clustering, ID-based tie-breaking of shortest paths and
/// LMST weights), so `NodeId` derives a total order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The adjacency-array index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// An undirected simple graph over nodes `0..n`.
///
/// Neighbor lists are kept sorted in ascending ID order. This makes all
/// traversals of the graph deterministic: BFS discovers equal-distance
/// nodes in ID order, which is exactly the tie-breaking rule the
/// clustering pipeline documents ("lexicographic shortest paths").
///
/// Self-loops and parallel edges are rejected.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    edges: usize,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            adj: self.adj.clone(),
            edges: self.edges,
        }
    }

    /// `clone_from` reuses both the outer adjacency vector and every
    /// per-node neighbor list already allocated in `self` — long-lived
    /// consumers that re-sync with snapshots every step (the churn
    /// engine) copy without reallocating.
    fn clone_from(&mut self, source: &Self) {
        self.adj.clone_from(&source.adj);
        self.edges = source.edges;
    }
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// [`Self::new`] that reports a node table too large to allocate
    /// instead of aborting — for counts read from untrusted input.
    pub fn try_new(n: usize) -> Result<Self, std::collections::TryReserveError> {
        let mut adj = Vec::new();
        adj.try_reserve_exact(n)?;
        adj.resize_with(n, Vec::new);
        Ok(Graph { adj, edges: 0 })
    }

    /// Builds a graph from an edge list. Duplicate edges are ignored.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Graph::new(n);
        for &(a, b) in edges {
            let (a, b) = (NodeId(a), NodeId(b));
            if !g.has_edge(a, b) {
                g.add_edge(a, b);
            }
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Iterator over all node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// The sorted neighbor list of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u.index()]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Mean degree over all nodes (`0.0` for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edges as f64 / self.adj.len() as f64
        }
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// Inserts the undirected edge `(u, v)`, keeping adjacency sorted.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or duplicates.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "self-loop {u:?}");
        assert!(u.index() < self.adj.len(), "node {u:?} out of range");
        assert!(v.index() < self.adj.len(), "node {v:?} out of range");
        let pos_v = self.adj[u.index()]
            .binary_search(&v)
            .expect_err("duplicate edge");
        self.adj[u.index()].insert(pos_v, v);
        let pos_u = self.adj[v.index()]
            .binary_search(&u)
            .expect_err("duplicate edge");
        self.adj[v.index()].insert(pos_u, u);
        self.edges += 1;
    }

    /// Removes the undirected edge `(u, v)` if present; returns whether
    /// an edge was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Ok(pos_v) = self.adj[u.index()].binary_search(&v) else {
            return false;
        };
        self.adj[u.index()].remove(pos_v);
        let pos_u = self.adj[v.index()]
            .binary_search(&u)
            .expect("asymmetric adjacency");
        self.adj[v.index()].remove(pos_u);
        self.edges -= 1;
        true
    }

    /// Detaches `u` from all of its neighbors (models a node switching
    /// off; the node keeps its ID so indices stay stable).
    ///
    /// Returns the neighbors it had.
    pub fn isolate(&mut self, u: NodeId) -> Vec<NodeId> {
        let former = std::mem::take(&mut self.adj[u.index()]);
        for &v in &former {
            let pos = self.adj[v.index()]
                .binary_search(&u)
                .expect("asymmetric adjacency");
            self.adj[v.index()].remove(pos);
        }
        self.edges -= former.len();
        former
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, ns)| {
            let u = NodeId(u as u32);
            ns.iter()
                .copied()
                .filter_map(move |v| (u < v).then_some((u, v)))
        })
    }

    /// Appends a new isolated node and returns its ID.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        NodeId(self.adj.len() as u32 - 1)
    }

    /// Checks internal invariants (sorted, symmetric, loop-free
    /// adjacency; consistent edge count). Used by tests and debug
    /// assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        for (u, ns) in self.adj.iter().enumerate() {
            let u = NodeId(u as u32);
            if !ns.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {u:?} not strictly sorted"));
            }
            for &v in ns {
                if v == u {
                    return Err(format!("self-loop at {u:?}"));
                }
                if v.index() >= self.adj.len() {
                    return Err(format!("neighbor {v:?} of {u:?} out of range"));
                }
                if self.adj[v.index()].binary_search(&u).is_err() {
                    return Err(format!("edge ({u:?},{v:?}) not symmetric"));
                }
                count += 1;
            }
        }
        if count != 2 * self.edges {
            return Err(format!(
                "edge count {} inconsistent with adjacency ({})",
                self.edges,
                count / 2
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_empty());
        for u in g.nodes() {
            assert_eq!(g.degree(u), 0);
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn add_edge_keeps_sorted_adjacency() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(2), NodeId(0));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(2), NodeId(1));
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(g.edge_count(), 3);
        g.check_invariants().unwrap();
    }

    #[test]
    fn has_edge_is_symmetric() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(2));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn remove_edge() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        assert!(g.remove_edge(NodeId(1), NodeId(0)));
        assert!(!g.remove_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(2)));
        g.check_invariants().unwrap();
    }

    #[test]
    fn isolate_detaches_node() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        let former = g.isolate(NodeId(0));
        assert_eq!(former, vec![NodeId(1), NodeId(2)]);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(g.edge_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(3), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(0), NodeId(1));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(3)),
            ]
        );
    }

    #[test]
    fn from_edges_ignores_duplicates() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn average_degree_path() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = Graph::new(1);
        let v = g.add_node();
        assert_eq!(v, NodeId(1));
        g.add_edge(NodeId(0), v);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn node_id_ordering_and_display() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(format!("{}", NodeId(7)), "7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }
}
