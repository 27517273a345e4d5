//! Connected components and connectivity predicates, plus
//! [`ComponentLabels`]: component labels of a masked subgraph kept
//! current under edge and mask changes.

use crate::bfs::{Adjacency, BfsScratch, UNREACHED};
use crate::delta::TopologyDelta;
use crate::graph::NodeId;

/// Whether the whole graph is connected (the empty graph and the
/// single-node graph count as connected).
pub fn is_connected<G: Adjacency>(g: &G) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    let mut scratch = BfsScratch::new(n);
    scratch.run(g, NodeId(0), u32::MAX);
    scratch.visited().len() == n
}

/// Component label of every node (labels are dense, in order of the
/// smallest node ID of each component).
pub fn components<G: Adjacency>(g: &G) -> Vec<u32> {
    let n = g.node_count();
    let mut label = vec![u32::MAX; n];
    let mut scratch = BfsScratch::new(n);
    let mut next = 0;
    for u in 0..n as u32 {
        if label[u as usize] != u32::MAX {
            continue;
        }
        scratch.run(g, NodeId(u), u32::MAX);
        for &v in scratch.visited() {
            label[v.index()] = next;
        }
        next += 1;
    }
    label
}

/// Number of connected components.
pub fn component_count<G: Adjacency>(g: &G) -> usize {
    components(g).iter().map(|&l| l + 1).max().unwrap_or(0) as usize
}

/// Whether a *subset* of nodes induces a connected subgraph of `g`.
///
/// This is the check behind the paper's Theorems 1 and 2: the
/// clusterheads plus the selected gateways, with the links among them
/// in the original network `G`, must form a connected graph. The empty
/// set and singletons are connected.
pub fn is_subset_connected<G: Adjacency>(g: &G, subset: &[NodeId]) -> bool {
    if subset.len() <= 1 {
        return true;
    }
    let n = g.node_count();
    let mut in_set = vec![false; n];
    for &v in subset {
        in_set[v.index()] = true;
    }
    // BFS restricted to subset members.
    let mut seen = vec![false; n];
    let mut stack = vec![subset[0]];
    seen[subset[0].index()] = true;
    let mut reached = 0usize;
    while let Some(u) = stack.pop() {
        reached += 1;
        for &v in g.adj(u) {
            if in_set[v.index()] && !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    reached == subset.len()
}

/// Label of a node outside the mask.
const OUTSIDE: u32 = u32::MAX;
/// Label of a mask node a full relabel has not reached yet.
const UNSEEN: u32 = u32::MAX - 1;
/// Update flag: the node leaves the mask.
const LEAVING: u8 = 1;
/// Update flag: the node is an endpoint of an edge on the cut list.
const CUT_END: u8 = 2;

/// Connected-component labels of the subgraph a node mask induces,
/// with a live component count, kept current under edge and mask
/// changes at a cost that follows the change:
///
/// * an added edge between two components relabels the smaller one;
/// * a removed edge runs a lock-step BFS from both endpoints: if the
///   two searches meet nothing changes, and otherwise the side
///   exhausted first is a whole component and gets a fresh label — the
///   larger side is never walked in full;
/// * a node entering or leaving the mask is handled as its edges being
///   added or removed.
///
/// Edges with an endpoint outside the mask are ignored, exactly as
/// [`is_subset_connected`] ignores them, so `count() <= 1` is
/// `is_subset_connected` over the mask. Only the partition is
/// maintained; label values are arbitrary.
#[derive(Clone, Debug, Default)]
pub struct ComponentLabels {
    /// Per node: its component label, [`OUTSIDE`] off the mask.
    label: Vec<u32>,
    /// Per label: member count (0 for a free label).
    size: Vec<u32>,
    /// Labels with no members, reused before new ones are minted.
    free: Vec<u32>,
    /// Live components.
    count: usize,
    /// Per node: [`LEAVING`] / [`CUT_END`], set only during an update.
    flags: Vec<u8>,
    /// Search scratch: `side[v]` is valid while `mark[v] == stamp`.
    mark: Vec<u32>,
    side: Vec<u8>,
    stamp: u32,
    /// The running update's edges still to cut (normalized, ascending)
    /// and their endpoints' `(node, cut index)` incidence, ascending.
    cuts: Vec<(NodeId, NodeId)>,
    incidence: Vec<(NodeId, u32)>,
    /// Traversal scratch: the flood stack and the two search fronts,
    /// kept for their allocations.
    stack: Vec<NodeId>,
    fronts: [Vec<NodeId>; 2],
}

impl ComponentLabels {
    /// Labels the components of the subgraph of `g` induced by the
    /// nodes `in_mask` accepts.
    pub fn new<G: Adjacency>(g: &G, in_mask: impl Fn(NodeId) -> bool) -> Self {
        let mut labels = ComponentLabels::default();
        labels.relabel(g, in_mask);
        labels
    }

    /// Relabels from scratch (one flood per component), keeping the
    /// allocations.
    pub fn relabel<G: Adjacency>(&mut self, g: &G, in_mask: impl Fn(NodeId) -> bool) {
        let n = g.node_count();
        self.label.clear();
        self.label
            .extend((0..n as u32).map(|v| if in_mask(NodeId(v)) { UNSEEN } else { OUTSIDE }));
        self.size.clear();
        self.free.clear();
        self.count = 0;
        self.flags.clear();
        self.flags.resize(n, 0);
        self.mark.clear();
        self.mark.resize(n, 0);
        self.side.clear();
        self.side.resize(n, 0);
        self.stamp = 0;
        for v in 0..n {
            if self.label[v] == UNSEEN {
                let l = self.mint();
                self.size[l as usize] = self.flood(g, NodeId(v as u32), UNSEEN, l);
            }
        }
    }

    /// Number of components (0 for an empty mask).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the masked subgraph is connected (an empty mask and a
    /// single node count as connected, as in [`is_subset_connected`]).
    pub fn is_connected(&self) -> bool {
        self.count <= 1
    }

    /// Number of distinct components holding at least one of `nodes`
    /// (nodes off the mask are skipped).
    pub fn components_among(&self, nodes: impl IntoIterator<Item = NodeId>) -> usize {
        let mut seen = vec![false; self.size.len()];
        nodes
            .into_iter()
            .filter(|&v| match self.label[v.index()] {
                OUTSIDE => false,
                l => !std::mem::replace(&mut seen[l as usize], true),
            })
            .count()
    }

    /// Whether `v` is in the mask.
    pub fn contains(&self, v: NodeId) -> bool {
        self.label[v.index()] != OUTSIDE
    }

    /// Whether `a` and `b` are both in the mask and in one component.
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.contains(a) && self.label[a.index()] == self.label[b.index()]
    }

    /// Brings the labels up to date with `g`, the graph **after**
    /// `delta`, and with the mask after `leaving` left it and
    /// `entering` joined it. `delta` may name edges at nodes outside
    /// the mask (they are ignored), and an edge both removed and added
    /// (a self-inverse delta) is a no-op.
    ///
    /// The update first grows, then shrinks. The cut list holds the
    /// removed edges and every edge of a leaving node; the labels first
    /// absorb every added edge, every edge of an entering node and
    /// every cut edge, so they label the components of the post-change
    /// graph plus the cut list. The cuts then go one at a time, each
    /// search running on the post-change graph plus the cuts not yet
    /// made, so every step removes one edge from a graph the labels
    /// describe exactly. A leaving node ends isolated and drops out.
    pub fn update<G: Adjacency>(
        &mut self,
        g: &G,
        delta: &TopologyDelta,
        leaving: &[NodeId],
        entering: &[NodeId],
    ) {
        for &u in entering {
            if self.label[u.index()] == OUTSIDE {
                let l = self.mint();
                self.label[u.index()] = l;
                self.size[l as usize] = 1;
            }
        }
        let mut cuts = std::mem::take(&mut self.cuts);
        let inside = |v: NodeId| self.label[v.index()] != OUTSIDE;
        cuts.extend(
            delta
                .removed
                .iter()
                .copied()
                .filter(|&(a, b)| inside(a) && inside(b)),
        );
        for &u in leaving.iter().filter(|&&u| inside(u)) {
            for &w in g.adj(u).iter().filter(|&&w| inside(w)) {
                cuts.push(if u < w { (u, w) } else { (w, u) });
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for &u in leaving.iter().filter(|&&u| inside(u)) {
            self.flags[u.index()] |= LEAVING;
        }
        for (i, &(a, b)) in cuts.iter().enumerate() {
            self.incidence.push((a, i as u32));
            self.incidence.push((b, i as u32));
            self.flags[a.index()] |= CUT_END;
            self.flags[b.index()] |= CUT_END;
        }
        self.incidence.sort_unstable();
        self.cuts = cuts;

        // Grow.
        for &(a, b) in &delta.added {
            self.join(g, a, b);
        }
        for &u in entering {
            for &w in g.adj(u) {
                self.join(g, u, w);
            }
        }
        for i in 0..self.cuts.len() {
            let (a, b) = self.cuts[i];
            self.join(g, a, b);
        }
        // Shrink.
        for i in 0..self.cuts.len() {
            self.cut(g, i);
        }
        for &u in leaving {
            let l = self.label[u.index()];
            if l != OUTSIDE {
                self.label[u.index()] = OUTSIDE;
                self.shrink(l, 1);
            }
            self.flags[u.index()] = 0;
        }
        for &(v, _) in &self.incidence {
            self.flags[v.index()] = 0;
        }
        self.incidence.clear();
        self.cuts.clear();
    }

    /// A fresh (or recycled) label with no members yet.
    fn mint(&mut self) -> u32 {
        self.count += 1;
        match self.free.pop() {
            Some(l) => l,
            None => {
                self.size.push(0);
                (self.size.len() - 1) as u32
            }
        }
    }

    /// Takes `by` members off label `l`, freeing it when none are left.
    fn shrink(&mut self, l: u32, by: u32) {
        self.size[l as usize] -= by;
        if self.size[l as usize] == 0 {
            self.free.push(l);
            self.count -= 1;
        }
    }

    /// The cut-list neighbors of `x` through cuts after index `after`
    /// (all of them for `None`).
    fn cut_neighbors(&self, x: NodeId, after: Option<usize>) -> impl Iterator<Item = NodeId> + '_ {
        let lo = self.incidence.partition_point(|&(v, _)| v < x);
        self.incidence[lo..]
            .iter()
            .take_while(move |&&(v, _)| v == x)
            .filter(move |&&(_, i)| after.is_none_or(|a| i as usize > a))
            .map(move |&(_, i)| {
                let (a, b) = self.cuts[i as usize];
                if a == x {
                    b
                } else {
                    a
                }
            })
    }

    /// Relabels `from` to `to` over the nodes labelled `from` that are
    /// reachable from `start` through such nodes (`start` included),
    /// along the edges of `g` and of the cut list; returns how many
    /// moved. Sizes are the caller's business.
    fn flood<G: Adjacency>(&mut self, g: &G, start: NodeId, from: u32, to: u32) -> u32 {
        let mut stack = std::mem::take(&mut self.stack);
        self.label[start.index()] = to;
        stack.push(start);
        let mut moved = 1;
        while let Some(u) = stack.pop() {
            let cut_end = self.flags[u.index()] & CUT_END != 0;
            let extra: Vec<NodeId> = if cut_end {
                self.cut_neighbors(u, None).collect()
            } else {
                Vec::new()
            };
            for &w in g.adj(u).iter().chain(&extra) {
                if self.label[w.index()] == from {
                    self.label[w.index()] = to;
                    moved += 1;
                    stack.push(w);
                }
            }
        }
        self.stack = stack;
        moved
    }

    /// Merges the components of `a` and `b` by relabelling the smaller;
    /// a no-op when either is off the mask or both share a label.
    fn join<G: Adjacency>(&mut self, g: &G, a: NodeId, b: NodeId) {
        let (mut keep, mut gone) = (self.label[a.index()], self.label[b.index()]);
        let mut start = b;
        if keep == OUTSIDE || gone == OUTSIDE || keep == gone {
            return;
        }
        if self.size[keep as usize] < self.size[gone as usize] {
            std::mem::swap(&mut keep, &mut gone);
            start = a;
        }
        let moved = self.flood(g, start, gone, keep);
        self.size[keep as usize] += moved;
        self.shrink(gone, moved);
    }

    /// Removes cut `i` from the graph the labels describe — `g`'s edges
    /// among staying nodes plus the cuts after `i` — by a lock-step
    /// BFS from both endpoints, each side expanding one node per turn.
    /// If the searches meet nothing changes; a side that runs dry
    /// first has walked its whole component, which gets a fresh label.
    fn cut<G: Adjacency>(&mut self, g: &G, i: usize) {
        let (a, b) = self.cuts[i];
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        let mut fronts = std::mem::take(&mut self.fronts);
        let mut head = [0usize; 2];
        for (s, v) in [a, b].into_iter().enumerate() {
            fronts[s].clear();
            fronts[s].push(v);
            self.mark[v.index()] = self.stamp;
            self.side[v.index()] = s as u8;
        }
        let dry = 'search: loop {
            for s in 0..2 {
                let Some(&x) = fronts[s].get(head[s]) else {
                    break 'search Some(s);
                };
                head[s] += 1;
                let staying = |v: NodeId| {
                    self.label[v.index()] != OUTSIDE && self.flags[v.index()] & LEAVING == 0
                };
                let own: &[NodeId] = if staying(x) { g.adj(x) } else { &[] };
                let extra: Vec<NodeId> = if self.flags[x.index()] & CUT_END != 0 {
                    self.cut_neighbors(x, Some(i)).collect()
                } else {
                    Vec::new()
                };
                for &w in own.iter().filter(|&&w| staying(w)).chain(&extra) {
                    if self.mark[w.index()] != self.stamp {
                        self.mark[w.index()] = self.stamp;
                        self.side[w.index()] = s as u8;
                        fronts[s].push(w);
                    } else if self.side[w.index()] != s as u8 {
                        break 'search None;
                    }
                }
            }
        };
        if let Some(s) = dry {
            let l = self.label[a.index()];
            let fresh = self.mint();
            for &v in &fronts[s] {
                self.label[v.index()] = fresh;
            }
            self.size[fresh as usize] = fronts[s].len() as u32;
            self.shrink(l, fronts[s].len() as u32);
        }
        self.fronts = fronts;
    }
}

/// Hop distance from every node to the nearest member of `set`
/// (multi-source BFS). `UNREACHED` where no member is reachable.
///
/// Used to verify k-hop domination: `set` k-hop-dominates the graph iff
/// every entry is `<= k`.
pub fn distance_to_set<G: Adjacency>(g: &G, set: &[NodeId]) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in set {
        if dist[s.index()] != 0 {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.adj(u) {
            if dist[v.index()] == UNREACHED {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
    }

    #[test]
    fn path_is_connected_until_cut() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_connected(&g));
        g.remove_edge(NodeId(1), NodeId(2));
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_labeling() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let labels = components(&g);
        assert_eq!(labels, vec![0, 0, 1, 1, 1, 2]);
        assert_eq!(component_count(&g), 3);
    }

    #[test]
    fn component_count_empty() {
        assert_eq!(component_count(&Graph::new(0)), 0);
    }

    #[test]
    fn subset_connectivity() {
        // 0-1-2-3-4 path.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(is_subset_connected(&g, &[NodeId(1), NodeId(2), NodeId(3)]));
        // 1 and 3 are not adjacent: the induced subgraph {1,3} is
        // disconnected even though a path exists through 2.
        assert!(!is_subset_connected(&g, &[NodeId(1), NodeId(3)]));
        assert!(is_subset_connected(&g, &[]));
        assert!(is_subset_connected(&g, &[NodeId(4)]));
    }

    #[test]
    fn distance_to_set_multi_source() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let d = distance_to_set(&g, &[NodeId(0), NodeId(5)]);
        assert_eq!(d, vec![0, 1, 2, 2, 1, 0]);
    }

    #[test]
    fn distance_to_set_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = distance_to_set(&g, &[NodeId(0)]);
        assert_eq!(d[2], UNREACHED);
    }

    /// From-scratch partition check: the maintained labels put two
    /// mask nodes in one component exactly when a BFS restricted to
    /// the mask joins them, and the count matches.
    fn assert_matches_scratch(labels: &ComponentLabels, g: &Graph, mask: &[bool], ctx: &str) {
        let inside = |v: NodeId| mask[v.index()];
        let fresh = components_within(g, &inside);
        let n = g.len() as u32;
        let count = fresh
            .iter()
            .filter(|&&l| l != u32::MAX)
            .max()
            .map_or(0, |&l| l + 1);
        assert_eq!(labels.count(), count as usize, "{ctx}: component count");
        for a in (0..n).map(NodeId) {
            assert_eq!(labels.contains(a), inside(a), "{ctx}: mask of {a:?}");
            for b in (0..n).map(NodeId) {
                let same = inside(a) && fresh[a.index()] == fresh[b.index()];
                assert_eq!(labels.same_component(a, b), same, "{ctx}: {a:?} ~ {b:?}");
            }
        }
        let set: Vec<NodeId> = (0..n).map(NodeId).filter(|&v| inside(v)).collect();
        assert_eq!(
            labels.is_connected(),
            is_subset_connected(g, &set),
            "{ctx}: is_subset_connected"
        );
    }

    /// Dense labels of the mask-induced subgraph by plain BFS
    /// (`u32::MAX` off the mask).
    fn components_within(g: &Graph, inside: &dyn Fn(NodeId) -> bool) -> Vec<u32> {
        let mut label = vec![u32::MAX; g.len()];
        let mut next = 0;
        for s in g.nodes() {
            if !inside(s) || label[s.index()] != u32::MAX {
                continue;
            }
            label[s.index()] = next;
            let mut queue = vec![s];
            while let Some(u) = queue.pop() {
                for &w in g.neighbors(u) {
                    if inside(w) && label[w.index()] == u32::MAX {
                        label[w.index()] = next;
                        queue.push(w);
                    }
                }
            }
            next += 1;
        }
        label
    }

    #[test]
    fn bridge_removal_splits_a_component() {
        let mut g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mask = vec![true; 6];
        let mut labels = ComponentLabels::new(&g, |_| true);
        assert_eq!(labels.count(), 1);
        let mut delta = TopologyDelta::new();
        delta.push_removed(NodeId(1), NodeId(2));
        delta.apply_to(&mut g);
        labels.update(&g, &delta, &[], &[]);
        assert_eq!(labels.count(), 2);
        assert!(labels.same_component(NodeId(2), NodeId(5)));
        assert!(!labels.same_component(NodeId(1), NodeId(2)));
        assert_matches_scratch(&labels, &g, &mask, "bridge");
    }

    #[test]
    fn removal_bypassed_by_an_edge_added_in_the_same_delta() {
        // 0-1-2-3; one delta cuts 1-2 and adds 0-3, so 1 and 2 stay
        // connected the long way round.
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mask = vec![true; 4];
        let mut labels = ComponentLabels::new(&g, |_| true);
        let mut delta = TopologyDelta::new();
        delta.push_removed(NodeId(1), NodeId(2));
        delta.push_added(NodeId(0), NodeId(3));
        delta.apply_to(&mut g);
        labels.update(&g, &delta, &[], &[]);
        assert_eq!(labels.count(), 1);
        assert_matches_scratch(&labels, &g, &mask, "bypass");
        // Two cuts in one delta that leave three pieces, one of them
        // between the other two in the old path.
        let mut delta = TopologyDelta::new();
        delta.push_removed(NodeId(0), NodeId(1));
        delta.push_removed(NodeId(0), NodeId(3));
        delta.apply_to(&mut g);
        labels.update(&g, &delta, &[], &[]);
        assert_eq!(labels.count(), 3);
        assert_matches_scratch(&labels, &g, &mask, "two cuts");
    }

    #[test]
    fn node_leaves_and_rejoins_the_mask() {
        // Star centre 0 with leaves 1..=4, plus an edge 3-4.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]);
        let mut mask = vec![true; 5];
        let mut labels = ComponentLabels::new(&g, |_| true);
        mask[0] = false;
        labels.update(&g, &TopologyDelta::new(), &[NodeId(0)], &[]);
        assert_eq!(labels.count(), 3);
        assert_matches_scratch(&labels, &g, &mask, "centre left");
        mask[0] = true;
        labels.update(&g, &TopologyDelta::new(), &[], &[NodeId(0)]);
        assert_eq!(labels.count(), 1);
        assert_matches_scratch(&labels, &g, &mask, "centre back");
        // Leaving and rejoining with no edges at all.
        let mut g = g;
        let delta = TopologyDelta::isolating(&g, NodeId(2));
        delta.apply_to(&mut g);
        mask[2] = false;
        labels.update(&g, &delta, &[NodeId(2)], &[]);
        assert_matches_scratch(&labels, &g, &mask, "isolated leaf left");
        mask[2] = true;
        labels.update(&g, &TopologyDelta::new(), &[], &[NodeId(2)]);
        assert_eq!(labels.count(), 2);
        assert_matches_scratch(&labels, &g, &mask, "isolated leaf back");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random chains of edge inserts and removals (alone, batched,
        /// and self-inverse) and of nodes leaving and entering the
        /// mask, alone or with a batch of flips in the same update:
        /// after every change the maintained labels equal a
        /// from-scratch labelling.
        #[test]
        fn maintained_labels_match_scratch(
            n in 2u32..24,
            density in 1u32..4,
            seed in 0u64..1_000_000,
            ops in proptest::collection::vec((0u32..9, 0u32..24, 0u32..24), 1..40),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = Graph::new(n as usize);
            for _ in 0..n * density / 2 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b && !g.has_edge(NodeId(a), NodeId(b)) {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            let mut mask: Vec<bool> = (0..n).map(|_| rng.gen_range(0..4) != 0).collect();
            let mut labels = ComponentLabels::new(&g, |v| mask[v.index()]);
            assert_matches_scratch(&labels, &g, &mask, "initial");
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                let (a, b) = (NodeId(a % n), NodeId(b % n));
                let mut delta = TopologyDelta::new();
                let (mut leaving, mut entering) = (Vec::new(), Vec::new());
                match kind {
                    // One edge flips.
                    0 | 1 if a != b => {
                        if g.has_edge(a, b) {
                            delta.push_removed(a, b);
                        } else {
                            delta.push_added(a, b);
                        }
                    }
                    // A node leaves or enters the mask.
                    2 if mask[a.index()] => leaving.push(a),
                    3 if !mask[a.index()] => entering.push(a),
                    // A node leaves with all its edges (a departure).
                    4 if mask[a.index()] => {
                        delta = TopologyDelta::isolating(&g, a);
                        leaving.push(a);
                    }
                    // A batch of flips around `a` and `b`, alone or
                    // while `a` enters (7) or leaves (8) the mask.
                    5 | 7 | 8 => {
                        if kind == 7 && !mask[a.index()] {
                            entering.push(a);
                        } else if kind == 8 && mask[a.index()] {
                            leaving.push(a);
                        }
                        for _ in 0..rng.gen_range(1..6) {
                            let x = if rng.gen() { a } else { NodeId(rng.gen_range(0..n)) };
                            let y = if rng.gen() { b } else { NodeId(rng.gen_range(0..n)) };
                            if x == y {
                                continue;
                            }
                            if g.has_edge(x, y) {
                                delta.push_removed(x, y);
                            } else {
                                delta.push_added(x, y);
                            }
                        }
                        delta.normalize();
                    }
                    // Self-inverse: an edge removed and re-added.
                    6 if g.has_edge(a, b) => {
                        delta.push_removed(a, b);
                        delta.push_added(a, b);
                    }
                    _ => continue,
                }
                delta.apply_to(&mut g);
                for &v in &leaving {
                    mask[v.index()] = false;
                }
                for &v in &entering {
                    mask[v.index()] = true;
                }
                labels.update(&g, &delta, &leaving, &entering);
                assert_matches_scratch(&labels, &g, &mask, &format!("op {i} kind {kind}"));
            }
        }
    }

    #[test]
    fn distance_to_empty_set() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let d = distance_to_set(&g, &[]);
        assert!(d.iter().all(|&x| x == UNREACHED));
    }
}
