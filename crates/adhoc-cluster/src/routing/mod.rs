//! The route-serving subsystem — the paper's §1 routing motivation
//! ("smaller routing tables and fewer route updates") built out into a
//! serving layer over the clustering stack.
//!
//! Cluster-based hierarchical routing routes `u ⇝ v` as the walk
//! `u ⇝ head(u) ⇝ … virtual links … ⇝ head(v) ⇝ v`, with the standard
//! shortcut that the walk stops the first time it passes through `v`.
//! The price is *stretch* (walk length over true shortest distance);
//! the payoff is table size — a member keeps one entry per 1-hop
//! neighbor plus its head, a head one entry per other head.
//!
//! The module family:
//!
//! * [`plan`] — the compiled [`RoutePlan`]: per-node canonical ascent
//!   paths in one arena, a per-node head-affiliation index, and an
//!   inter-head first-hop table behind one facade with two layouts —
//!   the dense `h × h` distance matrix, or the [`hub`] hub-label
//!   index once the projected matrix crosses the auto threshold (both
//!   serve the same canonical rule bit-for-bit). Built once from the
//!   evaluation engine's head labels (`pipeline::EvalScratch`) and a
//!   backbone link set; queries are pure pointer chasing — **zero per-query
//!   BFS, `O(route length)` per query** — and need neither the graph
//!   nor the labels at serve time. [`RoutePlan::apply_delta`] repairs
//!   the plan after topology churn from the pipeline's dirty-slot
//!   information instead of rebuilding it, also across a head-set
//!   change; under the dense layout a backbone change settles only the
//!   matrix cells a removed link or lost head can lengthen instead of
//!   recomputing all pairs, and the hub layout builds a fresh index.
//! * [`hub`] — the hub-labeling (2-level landmark) index over `G''`:
//!   rank-restricted pruned sweeps and a flat CSR label arena, built
//!   fresh whenever the backbone changes ([`InterMode`] picks the
//!   layout per compile).
//! * [`engine`] — the concurrent [`QueryEngine`]: batched
//!   [`route_many`](QueryEngine::route_many) over `std::thread::scope`
//!   workers with per-worker scratch, deterministic (bit-identical
//!   results and checksums for any worker count).
//! * [`workload`] — query-mix generators (uniform, hotspot,
//!   locality-biased) for the serving benchmarks.
//! * [`legacy`] — the original per-query-BFS [`ClusterRouter`], kept
//!   as the measured baseline the compiled plan is benchmarked
//!   against (`routing_serve`), now with scratch threaded through
//!   instead of allocating a fresh BFS per query.
//!
//! All routers produce **identical walks** on the same backbone
//! (pinned by the `route_equivalence` proptests), so throughput
//! comparisons are apples-to-apples: the arms checksum their walks and
//! the benches assert the checksums collide.

pub mod engine;
pub mod hub;
pub mod legacy;
pub mod plan;
pub mod workload;

mod inter;

pub use engine::{fold_checksums, walk_checksum, BatchResult, QueryEngine, UNROUTABLE};
pub use hub::HubIndex;
pub use inter::{InterMode, InterRepair, AUTO_HUB_THRESHOLD_BYTES};
pub use legacy::{ClusterRouter, LegacyScratch};
pub use plan::{PlanUpdate, RoutePlan};
pub use workload::{Mix, Workload};

use adhoc_graph::bfs::Adjacency;
use adhoc_graph::graph::NodeId;

use crate::clustering::Clustering;

/// Routing-table size statistics (the paper's "smaller routing
/// tables" claim, quantified) — **measured**, not modeled: member
/// entries are the actual per-node neighbor-label counts of the
/// clustering's graph, not a mean degree rounded to an integer.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableStats {
    /// Fewest entries any member keeps (its clusterhead plus its 1-hop
    /// neighbor labels).
    pub member_min: usize,
    /// Mean entries over all members.
    pub member_mean: f64,
    /// Most entries any member keeps.
    pub member_max: usize,
    /// Entries a clusterhead keeps: one per other clusterhead.
    pub head_entries: usize,
    /// Entries per node under flat shortest-path routing: `N - 1`.
    pub flat_entries: usize,
}

impl TableStats {
    /// Measures the table sizes of `clustering` on `g`: every
    /// non-head node keeps `1 + deg(v)` entries (its head plus one
    /// distance label per radio neighbor), every head keeps one entry
    /// per other head. Nodes without a cluster (departed) are skipped.
    pub fn measure<G: Adjacency>(g: &G, clustering: &Clustering) -> TableStats {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        let mut members = 0usize;
        for u in (0..g.node_count() as u32).map(NodeId) {
            let h = clustering.head_of(u);
            if h == u || h.index() >= g.node_count() {
                continue; // a head, or departed (sentinel affiliation)
            }
            let entries = 1 + g.adj(u).len();
            min = min.min(entries);
            max = max.max(entries);
            sum += entries;
            members += 1;
        }
        TableStats {
            member_min: if members == 0 { 0 } else { min },
            member_mean: if members == 0 {
                0.0
            } else {
                sum as f64 / members as f64
            },
            member_max: max,
            head_entries: clustering.head_count().saturating_sub(1),
            flat_entries: g.node_count().saturating_sub(1),
        }
    }
}

/// Walk validity + length helpers for experiments.
pub fn walk_hops(walk: &[NodeId]) -> u32 {
    walk.len().saturating_sub(1) as u32
}

/// Whether `walk` follows existing edges (repeated nodes allowed —
/// hierarchical routes are walks, not simple paths).
pub fn is_valid_walk<G: Adjacency>(g: &G, walk: &[NodeId]) -> bool {
    !walk.is_empty()
        && walk
            .windows(2)
            .all(|w| g.adj(w[0]).binary_search(&w[1]).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::priority::LowestId;
    use adhoc_graph::gen;

    #[test]
    fn table_stats_are_measured_not_modeled() {
        // star(6): head 0, five leaves of degree 1 — every member
        // keeps exactly 2 entries (hub + its one neighbor... the hub).
        let g = gen::star(6);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let s = TableStats::measure(&g, &c);
        assert_eq!((s.member_min, s.member_max), (2, 2));
        assert!((s.member_mean - 2.0).abs() < 1e-12);
        assert_eq!(s.head_entries, 0);
        assert_eq!(s.flat_entries, 5);
    }

    #[test]
    fn table_stats_spread_on_irregular_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let net = gen::geometric(&gen::GeometricConfig::new(150, 100.0, 6.0), &mut rng);
        let c = cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let s = TableStats::measure(&net.graph, &c);
        assert!(s.member_min <= s.member_max);
        assert!(s.member_mean >= s.member_min as f64);
        assert!(s.member_mean <= s.member_max as f64);
        assert!(s.head_entries < s.flat_entries / 2);
        assert!((s.member_mean as usize) < s.flat_entries / 4);
        // The mean is the true mean of 1 + deg over members.
        let (mut sum, mut cnt) = (0usize, 0usize);
        for u in net.graph.nodes() {
            if !c.is_head(u) {
                sum += 1 + net.graph.neighbors(u).len();
                cnt += 1;
            }
        }
        assert!((s.member_mean - sum as f64 / cnt as f64).abs() < 1e-12);
    }

    #[test]
    fn walk_helpers() {
        let g = gen::path(4);
        assert!(is_valid_walk(&g, &[NodeId(0), NodeId(1), NodeId(2)]));
        assert!(is_valid_walk(&g, &[NodeId(1), NodeId(2), NodeId(1)]));
        assert!(!is_valid_walk(&g, &[NodeId(0), NodeId(2)]));
        assert!(!is_valid_walk(&g, &[]));
        assert_eq!(walk_hops(&[NodeId(0), NodeId(1)]), 1);
        assert_eq!(walk_hops(&[NodeId(0)]), 0);
    }
}
