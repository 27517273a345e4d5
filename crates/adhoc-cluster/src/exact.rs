//! Exact minimum k-hop (connected) dominating sets by branch-and-bound.
//!
//! §4 of the paper notes that finding a minimum k-hop CDS is
//! NP-complete (via \[11\]) and therefore evaluates against the G-MST
//! heuristic as a *lower-bound stand-in*. This module provides the real
//! optimum for small instances so the quality of G-MST — and of the
//! paper's localized algorithms — can be measured as an approximation
//! ratio instead of only relative to each other.
//!
//! Two solvers are provided:
//!
//! * [`min_khop_ds`] — minimum k-hop *dominating set* (no connectivity
//!   requirement), a classic set-cover branch-and-bound. Its optimum is
//!   a lower bound on the CDS optimum.
//! * [`min_khop_cds`] — minimum k-hop *connected* dominating set. The
//!   search enumerates connected vertex subsets exactly once each
//!   (root-canonical include/exclude branching on the frontier) with
//!   coverage-based pruning.
//!
//! Both searches carry a step budget so callers can bound worst-case
//! time; the result records whether optimality was proven within the
//! budget. Intended for `n ≲ 40` (sparse) — large enough to compare
//! against every algorithm of the paper's evaluation at small scale.
//!
//! ```
//! use adhoc_cluster::exact::{min_khop_cds, verify_khop_cds, ExactConfig};
//! use adhoc_graph::gen;
//!
//! let g = gen::path(9);
//! let opt = min_khop_cds(&g, 2, &ExactConfig::default());
//! assert!(opt.optimal);
//! assert_eq!(opt.size(), 5); // a path needs the n - 2k interior nodes
//! verify_khop_cds(&g, &opt.set, 2).unwrap();
//! ```

use adhoc_graph::bfs::{Adjacency, BfsScratch};
use adhoc_graph::graph::NodeId;

/// Search limits for the exact solvers.
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Maximum number of branch-and-bound expansions before the search
    /// gives up and returns the incumbent (marked non-optimal).
    pub max_steps: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        // Enough to prove optimality on every instance the bundled
        // ratio study generates (n ≤ 32, D ≤ 6) with a wide margin.
        ExactConfig {
            max_steps: 50_000_000,
        }
    }
}

/// Outcome of an exact search.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The best set found, ascending by ID.
    pub set: Vec<NodeId>,
    /// Whether the search space was exhausted (the set is a proven
    /// optimum) rather than truncated by the step budget.
    pub optimal: bool,
    /// Branch-and-bound nodes expanded.
    pub explored: u64,
}

impl ExactResult {
    /// Size of the best set found.
    pub fn size(&self) -> usize {
        self.set.len()
    }
}

/// Fixed-capacity bitset over node IDs (words of 64).
#[derive(Clone, Debug, PartialEq, Eq)]
struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self &= !other`.
    fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `|self & other|`.
    fn intersection_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.contains(i))
    }
}

/// The k-hop ball of every node as bitsets (`ball[v]` = nodes within
/// `k` hops of `v`, including `v` itself).
fn khop_balls<G: Adjacency>(g: &G, k: u32) -> Vec<BitSet> {
    let n = g.node_count();
    let mut scratch = BfsScratch::new(n);
    (0..n)
        .map(|v| {
            scratch.run(g, NodeId(v as u32), k);
            let mut ball = BitSet::new(n);
            for &u in scratch.visited() {
                ball.insert(u.index());
            }
            ball
        })
        .collect()
}

/// Greedy k-hop dominating set (max-coverage), used as the initial
/// incumbent for [`min_khop_ds`].
fn greedy_ds(n: usize, balls: &[BitSet]) -> Vec<usize> {
    let mut uncovered = BitSet::full(n);
    let mut picked = Vec::new();
    while !uncovered.is_empty() {
        let best = (0..n)
            .max_by_key(|&v| balls[v].intersection_count(&uncovered))
            .expect("nonempty universe");
        picked.push(best);
        uncovered.subtract(&balls[best]);
    }
    picked.sort_unstable();
    picked
}

/// Greedy *connected* k-hop dominating set: grow from the best-covering
/// seed, always adding the frontier node that covers the most uncovered
/// nodes (ties to lowest ID). Used as the initial incumbent for
/// [`min_khop_cds`]. Requires `g` connected; if the greedy stalls with
/// coverage incomplete (disconnected graph), returns all nodes.
fn greedy_cds<G: Adjacency>(g: &G, balls: &[BitSet]) -> Vec<usize> {
    let n = g.node_count();
    let mut uncovered = BitSet::full(n);
    let mut in_set = BitSet::new(n);
    let mut frontier = BitSet::new(n);
    let seed = (0..n)
        .max_by_key(|&v| balls[v].count())
        .expect("nonempty graph");
    let mut set = vec![seed];
    in_set.insert(seed);
    uncovered.subtract(&balls[seed]);
    for &w in g.adj(NodeId(seed as u32)) {
        frontier.insert(w.index());
    }
    while !uncovered.is_empty() {
        // Prefer coverage; a zero-coverage frontier node can still be
        // needed to walk toward a distant uncovered region, so pick the
        // one closest (by ball overlap with the uncovered set's own
        // balls) — approximated by max coverage with ID tie-break, and
        // any frontier node when all cover zero.
        let Some(best) = frontier
            .iter()
            .max_by_key(|&v| (balls[v].intersection_count(&uncovered), usize::MAX - v))
        else {
            // Disconnected graph: no connected dominating set exists;
            // fall back to "everything" so callers get a defined value.
            return (0..n).collect();
        };
        set.push(best);
        in_set.insert(best);
        frontier.remove(best);
        uncovered.subtract(&balls[best]);
        for &w in g.adj(NodeId(best as u32)) {
            if !in_set.contains(w.index()) {
                frontier.insert(w.index());
            }
        }
    }
    set.sort_unstable();
    set
}

/// Exact minimum k-hop dominating set (no connectivity constraint).
///
/// Branch-and-bound over the set-cover formulation: repeatedly pick the
/// uncovered node with the fewest candidate coverers and branch on which
/// ball covers it. The bound `|S| + ceil(|uncovered| / max_ball)`
/// prunes; the greedy solution seeds the incumbent.
pub fn min_khop_ds<G: Adjacency>(g: &G, k: u32, cfg: &ExactConfig) -> ExactResult {
    let n = g.node_count();
    assert!(n > 0, "empty graph has no dominating set");
    let balls = khop_balls(g, k);
    let max_ball = balls.iter().map(BitSet::count).max().unwrap_or(1).max(1);
    let mut best: Vec<usize> = greedy_ds(n, &balls);
    let mut explored = 0u64;
    let mut truncated = false;

    // Depth-first stack of (chosen set, uncovered).
    let mut chosen: Vec<usize> = Vec::new();
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        n: usize,
        balls: &[BitSet],
        max_ball: usize,
        uncovered: &BitSet,
        chosen: &mut Vec<usize>,
        best: &mut Vec<usize>,
        explored: &mut u64,
        truncated: &mut bool,
        max_steps: u64,
    ) {
        if *truncated {
            return;
        }
        *explored += 1;
        if *explored > max_steps {
            *truncated = true;
            return;
        }
        if uncovered.is_empty() {
            if chosen.len() < best.len() {
                *best = chosen.clone();
                best.sort_unstable();
            }
            return;
        }
        let lb = chosen.len() + uncovered.count().div_ceil(max_ball);
        if lb >= best.len() {
            return;
        }
        // Branch on the hardest uncovered node: fewest candidate balls.
        let target = uncovered
            .iter()
            .min_by_key(|&u| (0..n).filter(|&v| balls[v].contains(u)).count())
            .expect("uncovered nonempty");
        let mut candidates: Vec<usize> = (0..n).filter(|&v| balls[v].contains(target)).collect();
        // Most-covering candidates first for early tight incumbents.
        candidates.sort_by_key(|&v| usize::MAX - balls[v].intersection_count(uncovered));
        for v in candidates {
            let mut next = uncovered.clone();
            next.subtract(&balls[v]);
            chosen.push(v);
            recurse(
                n, balls, max_ball, &next, chosen, best, explored, truncated, max_steps,
            );
            chosen.pop();
            if *truncated {
                return;
            }
        }
    }
    recurse(
        n,
        &balls,
        max_ball,
        &BitSet::full(n),
        &mut chosen,
        &mut best,
        &mut explored,
        &mut truncated,
        cfg.max_steps,
    );
    ExactResult {
        set: best.into_iter().map(|v| NodeId(v as u32)).collect(),
        optimal: !truncated,
        explored,
    }
}

/// State of the connected-subset enumeration in [`min_khop_cds`].
struct CdsSearch<'a, G: Adjacency> {
    g: &'a G,
    n: usize,
    balls: &'a [BitSet],
    max_ball: usize,
    best: Vec<usize>,
    explored: u64,
    truncated: bool,
    max_steps: u64,
}

impl<G: Adjacency> CdsSearch<'_, G> {
    /// Expands one search node: `set` is connected, `frontier` are the
    /// allowed extension vertices adjacent to `set`, `forbidden` are
    /// vertices excluded on this branch, `uncovered` the nodes not yet
    /// k-dominated.
    fn expand(
        &mut self,
        set: &mut Vec<usize>,
        frontier: &BitSet,
        forbidden: &BitSet,
        uncovered: &BitSet,
    ) {
        if self.truncated {
            return;
        }
        self.explored += 1;
        if self.explored > self.max_steps {
            self.truncated = true;
            return;
        }
        if uncovered.is_empty() {
            if set.len() < self.best.len() {
                self.best = set.clone();
                self.best.sort_unstable();
            }
            return;
        }
        // Coverage bound: every added node covers at most max_ball.
        let lb = set.len() + uncovered.count().div_ceil(self.max_ball);
        if lb >= self.best.len() {
            return;
        }
        // Feasibility: every uncovered node needs a non-forbidden
        // coverer (it must also be reachable through non-forbidden
        // territory, but this cheaper relaxation already prunes the
        // bulk of dead branches).
        for u in uncovered.iter() {
            let coverable =
                (0..self.n).any(|v| !forbidden.contains(v) && self.balls[v].contains(u));
            if !coverable {
                return;
            }
        }
        // Branch vertex: frontier node covering the most uncovered.
        let Some(v) = frontier
            .iter()
            .max_by_key(|&v| (self.balls[v].intersection_count(uncovered), usize::MAX - v))
        else {
            return; // frontier exhausted, coverage incomplete
        };
        // Include v.
        {
            let mut f2 = frontier.clone();
            f2.remove(v);
            for &w in self.g.adj(NodeId(v as u32)) {
                let wi = w.index();
                if !forbidden.contains(wi) && !set.contains(&wi) {
                    f2.insert(wi);
                }
            }
            let mut u2 = uncovered.clone();
            u2.subtract(&self.balls[v]);
            set.push(v);
            self.expand(set, &f2, forbidden, &u2);
            set.pop();
        }
        // Exclude v (forbid it in this subtree).
        {
            let mut f2 = frontier.clone();
            f2.remove(v);
            let mut forb2 = forbidden.clone();
            forb2.insert(v);
            self.expand(set, &f2, &forb2, uncovered);
        }
    }
}

/// Exact minimum k-hop connected dominating set.
///
/// Enumerates connected subsets once each: the subset's lowest-ID
/// vertex is fixed as the root (all smaller IDs are forbidden), and
/// extensions branch include/exclude on a frontier vertex. Pruned by
/// the coverage bound and by coverability of every uncovered node.
///
/// # Panics
/// Panics on an empty graph.
pub fn min_khop_cds<G: Adjacency>(g: &G, k: u32, cfg: &ExactConfig) -> ExactResult {
    let n = g.node_count();
    assert!(n > 0, "empty graph has no dominating set");
    let balls = khop_balls(g, k);
    let max_ball = balls.iter().map(BitSet::count).max().unwrap_or(1).max(1);
    let best = greedy_cds(g, &balls);
    let mut search = CdsSearch {
        g,
        n,
        balls: &balls,
        max_ball,
        best,
        explored: 0,
        truncated: false,
        max_steps: cfg.max_steps,
    };
    let full = BitSet::full(n);
    #[allow(clippy::needless_range_loop)]
    for root in 0..n {
        if search.truncated || search.best.len() == 1 {
            break;
        }
        // Canonical form: root is the minimum ID in the set.
        let mut forbidden = BitSet::new(n);
        for v in 0..root {
            forbidden.insert(v);
        }
        let mut frontier = BitSet::new(n);
        for &w in g.adj(NodeId(root as u32)) {
            if w.index() > root {
                frontier.insert(w.index());
            }
        }
        let mut uncovered = full.clone();
        uncovered.subtract(&balls[root]);
        let mut set = vec![root];
        search.expand(&mut set, &frontier, &forbidden, &uncovered);
    }
    ExactResult {
        set: search.best.into_iter().map(|v| NodeId(v as u32)).collect(),
        optimal: !search.truncated,
        explored: search.explored,
    }
}

/// Verifies that `set` is a k-hop CDS of `g` (connected + k-dominating).
/// Convenience for tests and the ratio study; returns `Ok(())` or a
/// description of the violation.
pub fn verify_khop_cds<G: Adjacency>(g: &G, set: &[NodeId], k: u32) -> Result<(), String> {
    use adhoc_graph::connectivity;
    if set.is_empty() {
        return Err("empty set".into());
    }
    let mut sorted: Vec<NodeId> = set.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != set.len() {
        return Err("duplicate nodes in set".into());
    }
    if !connectivity::is_subset_connected(g, &sorted) {
        return Err("set induces a disconnected subgraph".into());
    }
    let dist = connectivity::distance_to_set(g, &sorted);
    for (i, &d) in dist.iter().enumerate() {
        if d > k {
            return Err(format!("node {i} is {d} hops from the set (> {k})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_graph::gen;
    use adhoc_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ids(vs: &[u32]) -> Vec<NodeId> {
        vs.iter().copied().map(NodeId).collect()
    }

    /// Brute force over all non-empty subsets (n ≤ ~16).
    fn brute_min_cds(g: &Graph, k: u32, connected: bool) -> usize {
        use adhoc_graph::connectivity;
        let n = g.len();
        let mut best = usize::MAX;
        for mask in 1u32..(1 << n) {
            let size = mask.count_ones() as usize;
            if size >= best {
                continue;
            }
            let set: Vec<NodeId> = (0..n)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| NodeId(i as u32))
                .collect();
            if connected && !connectivity::is_subset_connected(g, &set) {
                continue;
            }
            let dist = connectivity::distance_to_set(g, &set);
            if dist.iter().all(|&d| d <= k) {
                best = size;
            }
        }
        best
    }

    #[test]
    fn path_cds_is_interior_interval() {
        // On a path of n nodes, a connected k-dominating set is a
        // contiguous interval [a, b] covering both ends, so the optimum
        // size is max(1, n - 2k).
        for (n, k) in [(5usize, 1u32), (7, 1), (9, 2), (10, 2), (12, 3)] {
            let g = gen::path(n);
            let r = min_khop_cds(&g, k, &ExactConfig::default());
            assert!(r.optimal);
            assert_eq!(
                r.size(),
                n.saturating_sub(2 * k as usize).max(1),
                "path n={n} k={k}"
            );
            verify_khop_cds(&g, &r.set, k).unwrap();
        }
    }

    #[test]
    fn cycle_cds_matches_interval_bound() {
        // On a cycle, a connected subset is an arc; an arc of L nodes
        // covers L + 2k, so the optimum is max(1, n - 2k).
        for (n, k) in [(6usize, 1u32), (8, 1), (10, 2), (11, 2)] {
            let g = gen::cycle(n);
            let r = min_khop_cds(&g, k, &ExactConfig::default());
            assert!(r.optimal);
            assert_eq!(r.size(), n.saturating_sub(2 * k as usize).max(1));
            verify_khop_cds(&g, &r.set, k).unwrap();
        }
    }

    #[test]
    fn star_and_complete_need_one_node() {
        let star = gen::star(9);
        let r = min_khop_cds(&star, 1, &ExactConfig::default());
        assert_eq!(r.set, ids(&[0]));
        let complete = gen::complete(6);
        let r = min_khop_cds(&complete, 1, &ExactConfig::default());
        assert_eq!(r.size(), 1);
    }

    #[test]
    fn ds_lower_bounds_cds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let net = gen::geometric(&gen::GeometricConfig::new(20, 100.0, 5.0), &mut rng);
            for k in 1..=2u32 {
                let ds = min_khop_ds(&net.graph, k, &ExactConfig::default());
                let cds = min_khop_cds(&net.graph, k, &ExactConfig::default());
                assert!(ds.optimal && cds.optimal);
                assert!(ds.size() <= cds.size());
                verify_khop_cds(&net.graph, &cds.set, k).unwrap();
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_small_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            // Random connected graph on n ≤ 9 nodes: random tree plus
            // extra edges.
            let n = rng.gen_range(3..=9usize);
            let mut g = Graph::new(n);
            for v in 1..n {
                let p = rng.gen_range(0..v);
                g.add_edge(NodeId(v as u32), NodeId(p as u32));
            }
            for _ in 0..n / 2 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && !g.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32));
                }
            }
            for k in 1..=2u32 {
                let cds = min_khop_cds(&g, k, &ExactConfig::default());
                assert!(cds.optimal);
                assert_eq!(
                    cds.size(),
                    brute_min_cds(&g, k, true),
                    "trial {trial} k={k} cds"
                );
                let ds = min_khop_ds(&g, k, &ExactConfig::default());
                assert!(ds.optimal);
                assert_eq!(
                    ds.size(),
                    brute_min_cds(&g, k, false),
                    "trial {trial} k={k} ds"
                );
            }
        }
    }

    #[test]
    fn heuristics_never_beat_the_optimum() {
        use crate::pipeline::{self, Algorithm, PipelineConfig};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let net = gen::geometric(&gen::GeometricConfig::new(24, 100.0, 5.0), &mut rng);
            for k in 1..=2u32 {
                let opt = min_khop_cds(&net.graph, k, &ExactConfig::default());
                assert!(opt.optimal);
                for alg in Algorithm::ALL {
                    let out = pipeline::run(&net.graph, alg, &PipelineConfig::new(k));
                    assert!(
                        out.cds.size() >= opt.size(),
                        "{alg} produced {} < optimum {}",
                        out.cds.size(),
                        opt.size()
                    );
                }
            }
        }
    }

    #[test]
    fn budget_truncation_reports_nonoptimal() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = gen::geometric(&gen::GeometricConfig::new(30, 100.0, 6.0), &mut rng);
        let r = min_khop_cds(&net.graph, 1, &ExactConfig { max_steps: 10 });
        assert!(!r.optimal);
        // Even truncated, the incumbent (greedy seed) must be valid.
        verify_khop_cds(&net.graph, &r.set, 1).unwrap();
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::new(1);
        let r = min_khop_cds(&g, 1, &ExactConfig::default());
        assert_eq!(r.set, ids(&[0]));
        assert!(r.optimal);
        let r = min_khop_ds(&g, 3, &ExactConfig::default());
        assert_eq!(r.size(), 1);
    }

    #[test]
    fn verify_rejects_bad_sets() {
        let g = gen::path(5);
        assert!(verify_khop_cds(&g, &[], 1).is_err());
        assert!(verify_khop_cds(&g, &ids(&[0, 0]), 1).is_err());
        assert!(verify_khop_cds(&g, &ids(&[0, 4]), 2).is_err()); // disconnected
        assert!(verify_khop_cds(&g, &ids(&[0]), 1).is_err()); // undominated
        assert!(verify_khop_cds(&g, &ids(&[1, 2, 3]), 1).is_ok());
    }

    #[test]
    fn grid_cds_known_small_case() {
        // 3×3 grid, k=1: the center row {3,4,5} dominates and is
        // connected; nothing smaller works (brute force cross-check).
        let g = gen::grid(3, 3);
        let r = min_khop_cds(&g, 1, &ExactConfig::default());
        assert!(r.optimal);
        assert_eq!(r.size(), brute_min_cds(&g, 1, true));
        assert_eq!(r.size(), 3);
    }

    #[test]
    fn larger_k_never_increases_optimum() {
        let mut rng = StdRng::seed_from_u64(19);
        let net = gen::geometric(&gen::GeometricConfig::new(18, 100.0, 5.0), &mut rng);
        let mut prev = usize::MAX;
        for k in 1..=4u32 {
            let r = min_khop_cds(&net.graph, k, &ExactConfig::default());
            assert!(r.optimal);
            assert!(r.size() <= prev, "k={k}: {} > {prev}", r.size());
            prev = r.size();
        }
    }
}
