//! Neighbor clusterhead selection (§3.1): the naive `NC` rule and the
//! paper's A-NCR (`AC`) rule.
//!
//! * **NC** — each clusterhead selects *all* clusterheads within
//!   `2k+1` hops. This is the traditional rule; connecting to all of
//!   them trivially preserves global connectivity but marks many
//!   gateways.
//! * **AC (A-NCR)** — each clusterhead selects only its *adjacent*
//!   clusterheads: heads of clusters that touch its own cluster along
//!   an edge of `G` (Definition 2). Theorem 1 shows the adjacent
//!   cluster graph `G''` is connected, so connecting only to adjacent
//!   clusterheads suffices; Theorem 1's proof also implies every pair
//!   of adjacent clusterheads is between `k+1` and `2k+1` hops apart,
//!   keeping the rule localized.

use crate::clustering::Clustering;
use adhoc_graph::bfs::Adjacency;
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::graph::NodeId;
use adhoc_graph::labels::HeadLabels;

/// Which neighbor clusterhead selection rule to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NeighborRule {
    /// All clusterheads within `2k+1` hops ("NC" prefix in the paper's
    /// algorithm names).
    All2kPlus1,
    /// Only adjacent clusterheads, per A-NCR ("AC" prefix).
    Adjacent,
}

/// The per-clusterhead neighbor sets produced by a [`NeighborRule`].
///
/// The relation is symmetric for both rules: `v ∈ set(u)` iff
/// `u ∈ set(v)` (A-NCR "all the remaining connections between
/// clusterheads are symmetric", and hop distance is symmetric for NC).
///
/// Stored as one sorted row per head slot, so an incremental
/// evaluation patches the rows a step reached in place and moves the
/// others across a head-set change by head ID.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NeighborSets {
    heads: Vec<NodeId>,
    rows: Vec<Vec<NodeId>>,
}

impl NeighborSets {
    /// The sets over `heads` (ascending) whose slot-`i` row is `row(i)`
    /// (sorted, duplicate-free).
    fn from_rows(heads: &[NodeId], row: impl FnMut(usize) -> Vec<NodeId>) -> Self {
        NeighborSets {
            heads: heads.to_vec(),
            rows: (0..heads.len()).map(row).collect(),
        }
    }

    /// The row of head slot `slot`.
    pub(crate) fn row(&self, slot: usize) -> &[NodeId] {
        &self.rows[slot]
    }

    /// The row of head slot `slot`, for an in-place patch that keeps it
    /// sorted and duplicate-free.
    pub(crate) fn row_mut(&mut self, slot: usize) -> &mut Vec<NodeId> {
        &mut self.rows[slot]
    }

    /// Moves the rows to the head list `diff` leads to: a kept head
    /// keeps its row, a lost head's row is dropped and a new head gets
    /// an empty one.
    pub(crate) fn rehead(&mut self, diff: &HeadDiff) {
        if !diff.is_empty() {
            self.heads.clone_from(&diff.heads);
            diff.rehead(&mut self.rows);
        }
    }

    /// Builds the symmetric relation holding exactly `pairs` over the
    /// given head set (heads with no selected partner get an empty
    /// row). This is how a *selection*'s realized links — e.g. one
    /// algorithm's `links_used` — are turned back into a relation, so
    /// a backbone-restricted virtual graph can be built for routing.
    ///
    /// # Panics
    /// Panics if a pair endpoint is not in `heads`.
    pub fn from_pairs(
        heads: &[NodeId],
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> NeighborSets {
        let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); heads.len()];
        for (a, b) in pairs {
            for (x, y) in [(a, b), (b, a)] {
                let slot = heads
                    .binary_search(&x)
                    .unwrap_or_else(|_| panic!("{x:?} is not a head"));
                rows[slot].push(y);
            }
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        NeighborSets {
            heads: heads.to_vec(),
            rows,
        }
    }

    /// The sorted neighbor clusterheads of `head`.
    ///
    /// # Panics
    /// Panics if `head` is not a clusterhead of the clustering the sets
    /// were built from.
    pub fn of(&self, head: NodeId) -> &[NodeId] {
        let slot = self
            .heads
            .binary_search(&head)
            .unwrap_or_else(|_| panic!("{head:?} is not a clusterhead"));
        self.row(slot)
    }

    /// Iterates `(head, neighbor heads)` in ascending head order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> {
        self.heads
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, self.row(i)))
    }

    /// All unordered selected pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (u, vs) in self.iter() {
            out.extend(vs.iter().filter(|&&v| u < v).map(|&v| (u, v)));
        }
        out
    }

    /// Total number of unordered pairs.
    pub fn pair_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Verifies symmetry of the relation (used by tests).
    pub fn check_symmetric(&self) -> Result<(), String> {
        for (u, vs) in self.iter() {
            for &v in vs {
                let back = self
                    .heads
                    .binary_search(&v)
                    .map(|slot| self.row(slot))
                    .map_err(|_| format!("{v:?} missing from sets"))?;
                if back.binary_search(&u).is_err() {
                    return Err(format!("{u:?} -> {v:?} not mirrored"));
                }
            }
        }
        Ok(())
    }
}

/// Computes the neighbor clusterhead sets of every head under `rule`.
pub fn neighbor_clusterheads<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    rule: NeighborRule,
) -> NeighborSets {
    match rule {
        NeighborRule::All2kPlus1 => {
            let bound = 2 * clustering.k + 1;
            let labels = HeadLabels::build(g, &clustering.heads, bound);
            nc_from_labels(clustering, &labels)
        }
        NeighborRule::Adjacent => adjacent_rows(g, clustering, &mut AncrScratch::default()),
    }
}

/// NC rule read off precomputed head labels: head `o` is selected by
/// `h` iff `dist(h, o) <= 2k+1`. No graph traversal happens here — the
/// evaluation engine shares one [`HeadLabels`] build across the NC
/// relation, both virtual graphs, and G-MST. Each row comes from
/// [`HeadLabels::heads_within`], a scan of the head's ball (`O(ball)`
/// per row).
///
/// # Panics
/// Panics if `labels` was built from a different head set or with a
/// bound below `2k+1`.
pub fn nc_from_labels(clustering: &Clustering, labels: &HeadLabels) -> NeighborSets {
    let bound = 2 * clustering.k + 1;
    assert!(
        labels.bound() >= bound,
        "labels bound {} below 2k+1 = {bound}",
        labels.bound()
    );
    assert_eq!(labels.heads(), &clustering.heads[..], "head set mismatch");
    NeighborSets::from_rows(&clustering.heads, |slot| labels.heads_within(slot, bound))
}

/// How a head list changed between two evaluations, by head ID: each
/// new slot's old slot, and the heads lost and gained. Slot-indexed
/// state moves across the change with [`Self::rehead`], as the route
/// plan's head union does.
#[derive(Clone, Debug, Default)]
pub(crate) struct HeadDiff {
    /// The old head list, ascending.
    pub(crate) old: Vec<NodeId>,
    /// The new head list, ascending.
    pub(crate) heads: Vec<NodeId>,
    /// Per new slot: its slot in the old list (`u32::MAX` if new).
    pub(crate) from: Vec<u32>,
    /// Heads of the old list missing from the new one, ascending.
    pub(crate) lost: Vec<NodeId>,
    /// Heads of the new list missing from the old one, ascending.
    pub(crate) gained: Vec<NodeId>,
}

impl HeadDiff {
    /// The change from `old` to `new` (both ascending), in one merge.
    pub(crate) fn new(old: &[NodeId], new: &[NodeId]) -> Self {
        let mut diff = HeadDiff {
            old: old.to_vec(),
            heads: new.to_vec(),
            from: Vec::with_capacity(new.len()),
            ..HeadDiff::default()
        };
        let mut at = 0;
        for &h in new {
            while at < old.len() && old[at] < h {
                diff.lost.push(old[at]);
                at += 1;
            }
            if at < old.len() && old[at] == h {
                diff.from.push(at as u32);
                at += 1;
            } else {
                diff.from.push(u32::MAX);
                diff.gained.push(h);
            }
        }
        diff.lost.extend_from_slice(&old[at..]);
        diff
    }

    /// Whether the head list is unchanged.
    pub(crate) fn is_empty(&self) -> bool {
        self.lost.is_empty() && self.gained.is_empty()
    }

    /// Moves slot-indexed `rows` from the old numbering to the new one:
    /// a kept head's row moves to its new slot, a lost head's row is
    /// dropped and a gained head gets `T::default()`.
    pub(crate) fn rehead<T: Default>(&self, rows: &mut Vec<T>) {
        if self.is_empty() {
            return;
        }
        let mut old = std::mem::take(rows).into_iter().enumerate();
        *rows = self
            .from
            .iter()
            .map(|&o| match o {
                u32::MAX => T::default(),
                o => old
                    .by_ref()
                    .find_map(|(i, row)| (i == o as usize).then_some(row))
                    .expect("old slots ascend with new ones"),
            })
            .collect();
    }
}

/// Reusable node- and slot-indexed buffers of the A-NCR scan, so a warm
/// scan allocates only the rows it returns.
#[derive(Clone, Debug, Default)]
pub(crate) struct AncrScratch {
    /// Node-indexed head slots (`u32::MAX` for non-heads).
    slot_of: Vec<u32>,
    /// Every node's cluster slot; `h` (one past the last slot) for an
    /// unaffiliated node.
    cluster_of: Vec<u32>,
    /// Members grouped by cluster slot: slot `s` owns
    /// `members[off[s]..off[s + 1]]`; `next` is the fill cursor.
    off: Vec<u32>,
    next: Vec<u32>,
    members: Vec<NodeId>,
    /// Per slot (plus the unaffiliated slot `h`): the cluster whose scan
    /// last met it.
    seen: Vec<u32>,
}

/// A-NCR: two clusters are adjacent iff some edge of `G` crosses them
/// (Definition 2); each head selects the heads of its adjacent
/// clusters. Computed in one flat pass: a counting sort groups the
/// members by cluster slot, then each cluster scans its members' edges,
/// emitting each adjacent head the first time its slot's "last seen"
/// stamp is not this cluster, and sorts only that row. Nodes whose
/// affiliation is the unaffiliated sentinel (any ID `>= n`, as churn
/// leaves departed nodes) belong to no cluster.
///
/// # Panics
/// Panics if an affiliation names a node that is not a head.
pub(crate) fn adjacent_rows<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    scratch: &mut AncrScratch,
) -> NeighborSets {
    let heads = &clustering.heads;
    let (n, h) = (g.node_count(), heads.len());
    let AncrScratch {
        slot_of,
        cluster_of,
        off,
        next,
        members,
        seen,
    } = scratch;
    slot_of.clear();
    slot_of.resize(n, u32::MAX);
    for (i, x) in heads.iter().enumerate() {
        slot_of[x.index()] = i as u32;
    }
    cluster_of.clear();
    off.clear();
    off.resize(h + 2, 0);
    for &x in &clustering.head_of[..n] {
        let s = match slot_of.get(x.index()) {
            Some(&s) => {
                assert_ne!(s, u32::MAX, "{x:?} is not a head");
                s
            }
            None => h as u32,
        };
        cluster_of.push(s);
        off[s as usize + 1] += 1;
    }
    for s in 0..=h {
        off[s + 1] += off[s];
    }
    next.clear();
    next.extend_from_slice(&off[..=h]);
    members.resize(n, NodeId(0));
    for (u, &s) in cluster_of.iter().enumerate() {
        members[next[s as usize] as usize] = NodeId(u as u32);
        next[s as usize] += 1;
    }

    seen.clear();
    seen.resize(h + 1, u32::MAX);
    let mut rows = Vec::with_capacity(h);
    for s in 0..h {
        let stamp = s as u32;
        seen[s] = stamp;
        seen[h] = stamp;
        let mut row = Vec::new();
        for &u in &members[off[s] as usize..off[s + 1] as usize] {
            for &v in g.adj(u) {
                let t = cluster_of[v.index()] as usize;
                if seen[t] != stamp {
                    seen[t] = stamp;
                    row.push(heads[t]);
                }
            }
        }
        row.sort_unstable();
        rows.push(row);
    }
    NeighborSets {
        heads: heads.clone(),
        rows,
    }
}

/// A-NCR relation *patched* in place after a step: an edge `delta`,
/// member re-affiliations, and head-set changes. `g` and `clustering`
/// are the post-step graph and clustering, and `slot_of` maps a node to
/// its head slot in it (`None` for a non-head or the unaffiliated
/// sentinel). `sets` holds the relation before the step, moved to the
/// new head list by [`NeighborSets::rehead`]; `members` holds each
/// cluster's members before the step, moved the same way (or nothing,
/// to be listed afresh); `moved` lists every node whose affiliation
/// changed, with its previous head.
///
/// A head's row changes only when a crossing edge of its cluster
/// appears or disappears: the edge itself changed (it is in `delta`),
/// or one endpoint changed cluster. A lost head's members all changed
/// cluster and a gained head changed its own, so the rows that can
/// change are those of the heads of `delta`'s endpoints, of both the
/// old and the new head of every re-affiliated node, and of the heads
/// of its neighbors. Only those rows are rescanned from their members'
/// edges, as [`adjacent_rows`] scans them; every other row stays.
/// Produces exactly what that full scan would (pinned by tests), in
/// `O(moved + touched clusters' edges)` once the member lists exist.
///
/// Returns the slots whose row changed, ascending, each with its row
/// before the step.
///
/// # Panics
/// Panics if `sets` covers another head list, or an affiliation names
/// a node that is not a head.
#[allow(clippy::too_many_arguments)]
pub(crate) fn patch_adjacent<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    slot_of: impl Fn(NodeId) -> Option<usize>,
    sets: &mut NeighborSets,
    members: &mut Vec<Vec<NodeId>>,
    moved: &[(NodeId, NodeId)],
    delta: &TopologyDelta,
    scratch: &mut AncrScratch,
) -> Vec<(usize, Vec<NodeId>)> {
    let heads = &clustering.heads;
    assert_eq!(&sets.heads, heads, "the relation covers another head list");
    if members.len() != heads.len() {
        members.clear();
        members.resize(heads.len(), Vec::new());
        for (v, &h) in clustering.head_of.iter().enumerate() {
            if let Some(s) = slot_of(h) {
                members[s].push(NodeId(v as u32));
            }
        }
    } else {
        for &(v, old) in moved {
            if let Some(s) = slot_of(old) {
                let at = members[s].iter().position(|&x| x == v);
                members[s].swap_remove(at.expect("a member of its previous cluster"));
            }
            if let Some(s) = slot_of(clustering.head_of(v)) {
                members[s].push(v);
            }
        }
    }
    let mut touched = vec![false; heads.len()];
    let mut touch = |h: NodeId| {
        if let Some(s) = slot_of(h) {
            touched[s] = true;
        }
    };
    for v in delta.endpoints() {
        touch(clustering.head_of(v));
    }
    for &(v, old) in moved {
        touch(old);
        touch(clustering.head_of(v));
        for &w in g.adj(v) {
            touch(clustering.head_of(w));
        }
    }
    // Per slot (plus the unaffiliated slot `h`): the cluster whose scan
    // last met it.
    let h = heads.len();
    let seen = &mut scratch.seen;
    seen.clear();
    seen.resize(h + 1, u32::MAX);
    let mut changed = Vec::new();
    for s in (0..h).filter(|&s| touched[s]) {
        let stamp = s as u32;
        seen[s] = stamp;
        seen[h] = stamp;
        let mut row = Vec::new();
        for &u in &members[s] {
            for &v in g.adj(u) {
                let x = clustering.head_of(v);
                let t = match slot_of(x) {
                    Some(t) => t,
                    None => {
                        assert!(x.index() >= g.node_count(), "{x:?} is not a head");
                        h
                    }
                };
                if seen[t] != stamp {
                    seen[t] = stamp;
                    row.push(heads[t]);
                }
            }
        }
        row.sort_unstable();
        if row != sets.rows[s] {
            changed.push((s, std::mem::replace(&mut sets.rows[s], row)));
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::priority::LowestId;
    use adhoc_graph::gen;
    use adhoc_graph::graph::Graph;

    fn cluster_path9_k1() -> (Graph, Clustering) {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        assert_eq!(
            c.heads,
            vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6), NodeId(8)]
        );
        (g, c)
    }

    #[test]
    fn nc_collects_heads_within_3_hops_for_k1() {
        let (g, c) = cluster_path9_k1();
        let nc = neighbor_clusterheads(&g, &c, NeighborRule::All2kPlus1);
        // d(0,2)=2, d(0,4)=4 > 3.
        assert_eq!(nc.of(NodeId(0)), &[NodeId(2)]);
        assert_eq!(nc.of(NodeId(4)), &[NodeId(2), NodeId(6)]);
        nc.check_symmetric().unwrap();
    }

    #[test]
    fn ac_on_path_matches_nc_when_all_clusters_touch() {
        let (g, c) = cluster_path9_k1();
        let ac = neighbor_clusterheads(&g, &c, NeighborRule::Adjacent);
        let nc = neighbor_clusterheads(&g, &c, NeighborRule::All2kPlus1);
        for (h, row) in ac.iter() {
            assert_eq!(row, nc.of(h));
        }
    }

    #[test]
    fn ac_is_strict_subset_when_clusters_are_separated() {
        // Figure 2-style situation, k=1:
        // Cluster A: head 0 with member 4; cluster B: head 1 with
        // member 5; cluster C: head 2 with members 6,7 bridging A and
        // B. If A and B only touch through C's members, heads 0 and 1
        // are within 3 hops but NOT adjacent.
        //   0-4, 4-6, 6-2, 2-7, 7-5, 5-1  and make 6,7 adjacent.
        let g = Graph::from_edges(
            8,
            &[
                (0, 4),
                (4, 6),
                (6, 2),
                (2, 7),
                (7, 5),
                (5, 1),
                (6, 7),
                (2, 3),
            ],
        );
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        // Contest k=1: 0 wins {4}; 1 wins {5}; 2 wins {3,6,7};
        // 3: nbr {2}: 2 wins. 4: nbrs {0,6}: 0 wins. 5: nbrs {7,1}:
        // 1 wins. 6: nbrs {4,2,7}: 2 wins. 7: {2,5,6}: 2 wins.
        assert_eq!(c.heads, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c.head_of(NodeId(4)), NodeId(0));
        assert_eq!(c.head_of(NodeId(5)), NodeId(1));
        assert_eq!(c.head_of(NodeId(6)), NodeId(2));
        assert_eq!(c.head_of(NodeId(7)), NodeId(2));

        let ac = neighbor_clusterheads(&g, &c, NeighborRule::Adjacent);
        let nc = neighbor_clusterheads(&g, &c, NeighborRule::All2kPlus1);
        // d(0,1) = 6 hops? 0-4-6-7-5-1 = 5 hops > 3, so even NC
        // excludes it here; instead check A<->C adjacency.
        assert_eq!(ac.of(NodeId(0)), &[NodeId(2)]);
        assert_eq!(ac.of(NodeId(1)), &[NodeId(2)]);
        assert_eq!(ac.of(NodeId(2)), &[NodeId(0), NodeId(1)]);
        ac.check_symmetric().unwrap();
        nc.check_symmetric().unwrap();
    }

    #[test]
    fn ac_subset_of_nc_randomized() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 6.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let ac = neighbor_clusterheads(&net.graph, &c, NeighborRule::Adjacent);
            let nc = neighbor_clusterheads(&net.graph, &c, NeighborRule::All2kPlus1);
            for (h, adj) in ac.iter() {
                let sup = nc.of(h);
                for v in adj {
                    assert!(
                        sup.contains(v),
                        "adjacent head {v:?} of {h:?} not within 2k+1 hops"
                    );
                }
            }
            assert!(ac.pair_count() <= nc.pair_count());
        }
    }

    #[test]
    fn adjacent_cluster_graph_is_connected_theorem1() {
        use adhoc_graph::connectivity;
        use adhoc_graph::graph::Graph as G2;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for k in 1..=4u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(100, 100.0, 6.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let ac = neighbor_clusterheads(&net.graph, &c, NeighborRule::Adjacent);
            // Build G'' as an index graph over heads.
            let idx: std::collections::BTreeMap<NodeId, u32> = c
                .heads
                .iter()
                .enumerate()
                .map(|(i, &h)| (h, i as u32))
                .collect();
            let mut gpp = G2::new(c.heads.len());
            for (u, v) in ac.pairs() {
                gpp.add_edge(NodeId(idx[&u]), NodeId(idx[&v]));
            }
            assert!(
                connectivity::is_connected(&gpp),
                "Theorem 1 violated for k={k}"
            );
        }
    }

    #[test]
    fn adjacent_heads_distance_between_k1_and_2k1() {
        use adhoc_graph::bfs;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 8.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let ac = neighbor_clusterheads(&net.graph, &c, NeighborRule::Adjacent);
            for (u, v) in ac.pairs() {
                let d = bfs::distances(&net.graph, u)[v.index()];
                assert!(
                    d > k && d <= 2 * k + 1,
                    "adjacent heads {u:?},{v:?} at distance {d}, k={k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a clusterhead")]
    fn of_non_head_panics() {
        let (g, c) = cluster_path9_k1();
        let nc = neighbor_clusterheads(&g, &c, NeighborRule::All2kPlus1);
        nc.of(NodeId(1));
    }

    #[test]
    fn single_cluster_has_empty_sets() {
        let g = gen::star(5);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let ac = neighbor_clusterheads(&g, &c, NeighborRule::Adjacent);
        assert!(ac.of(NodeId(0)).is_empty());
        assert_eq!(ac.pair_count(), 0);
    }
}
