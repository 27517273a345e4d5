//! Topology deltas — the currency of the incremental update engine.
//!
//! Under churn (mobility, departures, arrivals) the topology changes a
//! few edges per beacon period while everything else stays put. A
//! [`TopologyDelta`] records exactly those changes as explicit edge
//! lists, so every layer above the graph can pay costs proportional to
//! *what changed* instead of to the whole network:
//!
//! * [`gen::SpatialGrid`](crate::gen::SpatialGrid) produces deltas from
//!   moved node positions;
//! * [`HeadLabels::dirty_slots`](crate::labels::HeadLabels::dirty_slots)
//!   consumes them to find the clusterheads whose `2k+1` balls a change
//!   touched;
//! * `adhoc-cluster::pipeline::update_all_after` refreshes only the virtual
//!   links and selections those dirty heads own.
//!
//! Edges are always normalized `(a, b)` with `a < b`, each list sorted
//! ascending and duplicate-free, so two deltas describing the same
//! change compare equal.

use crate::graph::{Graph, NodeId};

/// An edge-level difference between two topologies over the same node
/// set: the edges that appeared and the edges that vanished.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologyDelta {
    /// Edges present after but not before, `(a, b)` with `a < b`,
    /// ascending and duplicate-free.
    pub added: Vec<(NodeId, NodeId)>,
    /// Edges present before but not after, same normalization.
    pub removed: Vec<(NodeId, NodeId)>,
}

impl TopologyDelta {
    /// An empty delta (no change).
    pub fn new() -> Self {
        TopologyDelta::default()
    }

    /// Diffs two snapshots edge by edge. `before` and `after` must have
    /// the same node count (nodes never change identity; departures are
    /// modeled by isolation).
    ///
    /// # Panics
    /// Panics if the node counts differ.
    pub fn between(before: &Graph, after: &Graph) -> Self {
        assert_eq!(
            before.len(),
            after.len(),
            "deltas are over a fixed node set"
        );
        let mut delta = TopologyDelta::default();
        for (u, v) in before.edges() {
            if !after.has_edge(u, v) {
                delta.removed.push((u, v));
            }
        }
        for (u, v) in after.edges() {
            if !before.has_edge(u, v) {
                delta.added.push((u, v));
            }
        }
        // `Graph::edges` yields ascending normalized pairs already.
        delta
    }

    /// The delta of node `u` switching off: all its incident edges
    /// removed, nothing added (`g` is the topology *before* departure).
    pub fn isolating(g: &Graph, u: NodeId) -> Self {
        let removed = g
            .neighbors(u)
            .iter()
            .map(|&v| if u < v { (u, v) } else { (v, u) })
            .collect::<Vec<_>>();
        let mut delta = TopologyDelta {
            added: Vec::new(),
            removed,
        };
        delta.normalize();
        delta
    }

    /// Records an added edge (any endpoint order).
    pub fn push_added(&mut self, u: NodeId, v: NodeId) {
        self.added.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Records a removed edge (any endpoint order).
    pub fn push_removed(&mut self, u: NodeId, v: NodeId) {
        self.removed.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Sorts both lists ascending and drops duplicates (producers that
    /// may visit an edge from both endpoints call this once at the end).
    pub fn normalize(&mut self) {
        self.added.sort_unstable();
        self.added.dedup();
        self.removed.sort_unstable();
        self.removed.dedup();
    }

    /// Total churn: number of edge changes.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Every endpoint of every changed edge (with repetitions) — the
    /// nodes whose neighborhoods the delta touched.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.added
            .iter()
            .chain(self.removed.iter())
            .flat_map(|&(a, b)| [a, b])
    }

    /// Applies the delta to `g` in place (removals first; the two
    /// lists are disjoint for any real diff).
    ///
    /// # Panics
    /// Panics if an added edge already exists or a removed edge is
    /// absent — a delta must match the graph it is applied to.
    pub fn apply_to(&self, g: &mut Graph) {
        for &(a, b) in &self.removed {
            assert!(g.remove_edge(a, b), "removed edge ({a:?},{b:?}) absent");
        }
        for &(a, b) in &self.added {
            g.add_edge(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn between_and_apply_round_trip() {
        let before = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let after = Graph::from_edges(5, &[(1, 2), (2, 3), (3, 4), (0, 4)]);
        let delta = TopologyDelta::between(&before, &after);
        assert_eq!(
            delta.added,
            vec![(NodeId(0), NodeId(4)), (NodeId(2), NodeId(3))]
        );
        assert_eq!(delta.removed, vec![(NodeId(0), NodeId(1))]);
        assert_eq!(delta.churn(), 3);
        assert!(!delta.is_empty());
        let mut g = before.clone();
        delta.apply_to(&mut g);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            after.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn identical_graphs_give_empty_delta() {
        let g = gen::grid(3, 3);
        let d = TopologyDelta::between(&g, &g);
        assert!(d.is_empty());
        assert_eq!(d.churn(), 0);
        assert_eq!(d.endpoints().count(), 0);
    }

    #[test]
    fn isolating_lists_incident_edges() {
        let g = gen::star(5);
        let d = TopologyDelta::isolating(&g, NodeId(0));
        assert!(d.added.is_empty());
        assert_eq!(d.removed.len(), 4);
        let mut g2 = g.clone();
        d.apply_to(&mut g2);
        assert_eq!(g2.degree(NodeId(0)), 0);
        assert_eq!(g2.edge_count(), 0);
        // A leaf's isolation removes exactly its one edge.
        let d3 = TopologyDelta::isolating(&g, NodeId(3));
        assert_eq!(d3.removed, vec![(NodeId(0), NodeId(3))]);
    }

    #[test]
    fn normalization_dedups_and_orients() {
        let mut d = TopologyDelta::new();
        d.push_added(NodeId(4), NodeId(1));
        d.push_added(NodeId(1), NodeId(4));
        d.push_removed(NodeId(3), NodeId(0));
        d.normalize();
        assert_eq!(d.added, vec![(NodeId(1), NodeId(4))]);
        assert_eq!(d.removed, vec![(NodeId(0), NodeId(3))]);
        let ends: Vec<NodeId> = d.endpoints().collect();
        assert_eq!(ends, vec![NodeId(1), NodeId(4), NodeId(0), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "fixed node set")]
    fn between_rejects_mismatched_sizes() {
        TopologyDelta::between(&Graph::new(3), &Graph::new(4));
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn apply_rejects_stale_removal() {
        let mut g = Graph::new(3);
        let mut d = TopologyDelta::new();
        d.push_removed(NodeId(0), NodeId(1));
        d.apply_to(&mut g);
    }
}
