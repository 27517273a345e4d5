//! The concurrent route-serving engine: batched queries over a shared
//! compiled [`RoutePlan`].
//!
//! A [`RoutePlan`] is immutable at serve time, so any number of
//! workers can read it concurrently; each worker reuses one walk
//! buffer (its scratch) and writes into a disjoint slice of the batch
//! output. Results are **deterministic and bit-identical for every
//! worker count** — the batch is split into contiguous chunks, each
//! pair's answer lands at its own index, and the batch checksum folds
//! the per-pair walk checksums in pair order after the join.

use crate::routing::plan::RoutePlan;
use adhoc_graph::graph::NodeId;
use adhoc_graph::obs::{Counter, Hist, Metrics};
use adhoc_graph::par::{self, Parallelism};
use std::time::Instant;

/// Hop marker for pairs the backbone cannot connect.
pub const UNROUTABLE: u32 = u32::MAX;

/// One batch's answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchResult {
    /// Per pair: hop count of the served walk ([`UNROUTABLE`] when no
    /// route exists).
    pub hops: Vec<u32>,
    /// Per pair: checksum of the full walk node sequence (0 for
    /// unroutable pairs).
    pub checksums: Vec<u64>,
    /// Order-sensitive fold of `checksums` — the cross-arm equality
    /// witness the benches compare.
    pub checksum: u64,
    /// Number of unroutable pairs.
    pub unreachable: usize,
    /// Sum of all hop counts (routable pairs only).
    pub total_hops: u64,
}

/// FNV-1a over a walk's node IDs plus its length — the per-route
/// fingerprint all serving arms (compiled single- and multi-worker,
/// legacy per-query BFS) must agree on.
pub fn walk_checksum(walk: &[NodeId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for &v in walk {
        mix(u64::from(v.0));
    }
    mix(walk.len() as u64);
    h
}

/// Order-sensitive fold of per-pair walk checksums into one batch
/// checksum — shared by [`QueryEngine::route_many`] and the serving
/// bench's per-query-BFS arm so cross-arm equality is one `u64`
/// compare.
pub fn fold_checksums(sums: &[u64]) -> u64 {
    let mut checksum = 0u64;
    for (i, &c) in sums.iter().enumerate() {
        checksum = checksum
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(c ^ (i as u64));
    }
    checksum
}

/// A batched query front end over a compiled plan.
///
/// With [`QueryEngine::with_metrics`] the engine reports per-batch
/// serving metrics: the `query.count` / `query.unroutable` counters,
/// the per-query `query.hops` histogram (all deterministic for any
/// worker count — they are commutative sums over per-pair facts), and
/// the per-batch `query.latency_ns` wall-clock histogram (timing, so
/// exempt from the determinism contract). The metric handles are
/// resolved once at construction, so the serve path never touches the
/// registry lock; without metrics every report is a one-branch no-op.
#[derive(Clone, Debug)]
pub struct QueryEngine<'p> {
    plan: &'p RoutePlan,
    workers: usize,
    queries: Counter,
    unroutable: Counter,
    hops: Hist,
    latency_ns: Hist,
}

impl<'p> QueryEngine<'p> {
    /// Single-worker engine (queries run inline on the caller's
    /// thread).
    pub fn new(plan: &'p RoutePlan) -> Self {
        QueryEngine::with_metrics(plan, 1, &Metrics::disabled())
    }

    /// Engine with up to `workers` scoped threads (clamped to at least
    /// 1); batches too small to repay a spawn run inline (see
    /// [`Self::route_many`]).
    pub fn with_workers(plan: &'p RoutePlan, workers: usize) -> Self {
        QueryEngine::with_metrics(plan, workers, &Metrics::disabled())
    }

    /// Engine reporting into an observability handle (see the type
    /// docs for the metric family it emits).
    pub fn with_metrics(plan: &'p RoutePlan, workers: usize, metrics: &Metrics) -> Self {
        QueryEngine {
            plan,
            workers: workers.max(1),
            queries: metrics.counter("query.count"),
            unroutable: metrics.counter("query.unroutable"),
            hops: metrics.histogram("query.hops"),
            latency_ns: metrics.histogram("query.latency_ns"),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Serves a batch of `(source, target)` pairs, returning per-pair
    /// hop counts and walk checksums. A batch below one thread spawn's
    /// worth of work ([`par::work::routes`] over the plan's
    /// [`RoutePlan::query_work`], gated by [`Parallelism::for_work`])
    /// is served inline on the caller's thread. A larger one with more
    /// than one worker is split into contiguous chunks served by the
    /// shared worker pool ([`adhoc_graph::par::scoped_chunks`]), each
    /// chunk with its own scratch. The result is identical to the
    /// single-worker answer either way.
    pub fn route_many(&self, pairs: &[(NodeId, NodeId)]) -> BatchResult {
        let mut hops = vec![0u32; pairs.len()];
        let mut checksums = vec![0u64; pairs.len()];
        let plan = self.plan;
        let hop_hist = &self.hops;
        let latency_ns = &self.latency_ns;
        let workers = Parallelism::new(self.workers)
            .for_work(par::work::routes(pairs.len(), plan.query_work()))
            .workers();
        par::scoped_chunks(
            workers,
            pairs.len(),
            (pairs, &mut hops[..], &mut checksums[..]),
            |_, _, (p, h, c): (&[(NodeId, NodeId)], &mut [u32], &mut [u64])| {
                serve_chunk(plan, p, h, c, hop_hist, latency_ns)
            },
        );
        let checksum = fold_checksums(&checksums);
        let mut unreachable = 0usize;
        let mut total_hops = 0u64;
        for &h in &hops {
            if h == UNROUTABLE {
                unreachable += 1;
            } else {
                total_hops += u64::from(h);
            }
        }
        self.queries.add(pairs.len() as u64);
        self.unroutable.add(unreachable as u64);
        BatchResult {
            hops,
            checksums,
            checksum,
            unreachable,
            total_hops,
        }
    }
}

/// One worker's share: serve `pairs[i]` into `hops[i]` / `sums[i]`,
/// recording per-query hop counts (commutative, so deterministic
/// across worker counts) and — only when the handle is live, so the
/// metrics-off path never reads the clock — per-query latencies.
fn serve_chunk(
    plan: &RoutePlan,
    pairs: &[(NodeId, NodeId)],
    hops: &mut [u32],
    sums: &mut [u64],
    hop_hist: &Hist,
    latency_ns: &Hist,
) {
    let timed = !latency_ns.is_noop();
    let mut walk = Vec::new();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let start = timed.then(Instant::now);
        match plan.route_into(u, v, &mut walk) {
            Some(h) => {
                hops[i] = h;
                sums[i] = walk_checksum(&walk);
                hop_hist.record(u64::from(h));
            }
            None => {
                hops[i] = UNROUTABLE;
                sums[i] = 0;
            }
        }
        if let Some(start) = start {
            latency_ns.record(start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::pipeline::{self, EvalScratch};
    use crate::priority::LowestId;
    use adhoc_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn plan_for(n: usize, k: u32, seed: u64) -> RoutePlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&gen::GeometricConfig::new(n, 100.0, 7.0), &mut rng);
        let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        RoutePlan::compile(&net.graph, &c, scratch.labels(), eval.ac_graph.links())
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let plan = plan_for(80, 2, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let pairs: Vec<(NodeId, NodeId)> = (0..300)
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..80u32)),
                    NodeId(rng.gen_range(0..80u32)),
                )
            })
            .collect();
        let one = QueryEngine::new(&plan).route_many(&pairs);
        for w in [2usize, 3, 7] {
            let many = QueryEngine::with_workers(&plan, w).route_many(&pairs);
            assert_eq!(one, many, "{w} workers diverged");
        }
        assert_eq!(one.unreachable, 0, "connected network routes everything");
        assert!(one.total_hops > 0);
    }

    #[test]
    fn batch_checksum_matches_per_route_checksums() {
        let plan = plan_for(50, 1, 9);
        let pairs = vec![(NodeId(0), NodeId(49)), (NodeId(3), NodeId(3))];
        let r = QueryEngine::new(&plan).route_many(&pairs);
        let w0 = plan.route(NodeId(0), NodeId(49)).unwrap();
        assert_eq!(r.checksums[0], walk_checksum(&w0));
        assert_eq!(r.hops[1], 0);
        assert_eq!(r.checksums[1], walk_checksum(&[NodeId(3)]));
    }

    #[test]
    fn unroutable_pairs_are_counted() {
        use adhoc_graph::graph::Graph;
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let plan = RoutePlan::compile(&g, &c, scratch.labels(), eval.ac_graph.links());
        let r = QueryEngine::with_workers(&plan, 2)
            .route_many(&[(NodeId(0), NodeId(3)), (NodeId(0), NodeId(1))]);
        assert_eq!(r.hops[0], UNROUTABLE);
        assert_eq!(r.unreachable, 1);
        assert_eq!(r.hops[1], 1);
    }

    #[test]
    fn empty_and_tiny_batches() {
        let plan = plan_for(30, 1, 11);
        let none = QueryEngine::with_workers(&plan, 4).route_many(&[]);
        assert!(none.hops.is_empty());
        assert_eq!(none.unreachable, 0);
        assert_eq!(none.checksum, 0);
        let single = QueryEngine::with_workers(&plan, 4).route_many(&[(NodeId(1), NodeId(2))]);
        assert_eq!(single.hops.len(), 1);
    }

    /// The metered engine's count metrics are exact batch facts — and
    /// identical whatever the worker count.
    #[test]
    fn metered_engine_records_query_metrics() {
        let plan = plan_for(60, 2, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let pairs: Vec<(NodeId, NodeId)> = (0..200)
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..60u32)),
                    NodeId(rng.gen_range(0..60u32)),
                )
            })
            .collect();
        let mut fingerprints = Vec::new();
        for w in [1usize, 2, 5] {
            let m = Metrics::enabled();
            let r = QueryEngine::with_metrics(&plan, w, &m).route_many(&pairs);
            let snap = m.snapshot();
            assert_eq!(snap.counter("query.count"), Some(pairs.len() as u64));
            assert_eq!(snap.counter("query.unroutable"), Some(r.unreachable as u64));
            let hops = snap.histogram("query.hops").expect("hops histogram");
            assert_eq!(hops.count, (pairs.len() - r.unreachable) as u64);
            assert_eq!(hops.sum, r.total_hops);
            let lat = snap
                .histogram("query.latency_ns")
                .expect("latency histogram");
            assert_eq!(lat.count, pairs.len() as u64);
            fingerprints.push(snap.deterministic_fingerprint());
        }
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "count metrics must not depend on the worker count"
        );
    }

    /// More workers than pairs: the chunking must clamp, serve every
    /// pair exactly once, and agree with the single-threaded engine.
    #[test]
    fn more_workers_than_pairs_matches_single_threaded() {
        let plan = plan_for(30, 1, 11);
        let pairs = [
            (NodeId(0), NodeId(29)),
            (NodeId(5), NodeId(17)),
            (NodeId(3), NodeId(3)),
        ];
        let wide = QueryEngine::with_workers(&plan, 16).route_many(&pairs);
        let serial = QueryEngine::new(&plan).route_many(&pairs);
        assert_eq!(wide.hops, serial.hops);
        assert_eq!(wide.unreachable, serial.unreachable);
        assert_eq!(wide.checksum, serial.checksum);
        assert_eq!(wide.hops.len(), pairs.len());
    }
}
