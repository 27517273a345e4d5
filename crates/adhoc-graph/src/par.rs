//! Deterministic scoped worker pool — the one chunking loop every
//! parallel build/repair/serve path in the workspace shares.
//!
//! The pattern (proven bit-identical in the route-serving engine and
//! the Monte-Carlo harness before it was extracted here) is:
//!
//! 1. split a unit range `0..units` into at most `workers` contiguous
//!    chunks;
//! 2. split the payload ([`Split`]) along the same boundaries, so each
//!    worker owns a **disjoint** slice of every input and output;
//! 3. run chunk 0 on the caller's thread and one scoped thread per
//!    further chunk, each with its own scratch;
//! 4. join in chunk order and hand the per-chunk results back as a
//!    `Vec` in that same order.
//!
//! Because each worker writes only its own pre-partitioned slice and
//! per-chunk results are merged in chunk order, the output of
//! [`scoped_chunks`] is **bit-identical for every worker count** —
//! there is no reduction whose order could float. That determinism is
//! the contract the `parallel_equivalence` proptests pin across the
//! label, hub, plan, and serving layers.
//!
//! Worker counts come from [`Parallelism`]: explicit (`--workers` on
//! the CLIs), the `KHOP_WORKERS` environment variable, or the
//! machine's available cores. Every build, repair and batch-serving
//! call site also gates on its job's size ([`Parallelism::for_work`], estimated with
//! [`work`]): below one thread spawn's worth of work it runs inline on
//! the caller's thread and warm scratch, whatever the worker count.

/// A worker-count policy. `workers == 1` means "run inline on the
/// caller's thread" — every parallel path in the workspace degrades to
/// its original serial loop at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
}

impl Parallelism {
    /// Exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Parallelism {
            workers: workers.max(1),
        }
    }

    /// Single-threaded.
    pub const fn serial() -> Self {
        Parallelism { workers: 1 }
    }

    /// One worker per available core.
    pub fn available() -> Self {
        Parallelism::new(
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
        )
    }

    /// The `KHOP_WORKERS` environment variable if set and parseable,
    /// otherwise [`Parallelism::available`]. This is the default that
    /// flows from the CLIs into `EvalScratch`, `ChurnEngine`, and plan
    /// compilation.
    pub fn from_env() -> Self {
        std::env::var("KHOP_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(Parallelism::new)
            .unwrap_or_else(Parallelism::available)
    }

    /// The configured worker count (always ≥ 1).
    pub fn workers(self) -> usize {
        self.workers
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

/// Payload that can be cut at a unit boundary. [`scoped_chunks`] splits
/// its data along the same chunk boundaries as the unit range, so each
/// worker receives exactly its chunk's share of every input and output
/// buffer.
pub trait Split: Sized + Send {
    /// Splits `self` at unit index `at`, returning the `[0, at)` and
    /// `[at, len)` parts.
    fn split(self, at: usize) -> (Self, Self);
}

impl Split for () {
    fn split(self, _at: usize) -> (Self, Self) {
        ((), ())
    }
}

impl<T: Sync> Split for &[T] {
    fn split(self, at: usize) -> (Self, Self) {
        self.split_at(at)
    }
}

impl<T: Send> Split for &mut [T] {
    fn split(self, at: usize) -> (Self, Self) {
        self.split_at_mut(at)
    }
}

impl<T: Send> Split for Vec<T> {
    fn split(mut self, at: usize) -> (Self, Self) {
        let tail = self.split_off(at);
        (self, tail)
    }
}

/// A payload whose backing buffer holds `stride` elements per unit —
/// e.g. the dense inter-head table's row-major `h × h` matrix, where
/// one unit (a head row) spans `h` entries.
pub struct Strided<S> {
    /// The backing payload.
    pub data: S,
    /// Buffer elements per unit.
    pub stride: usize,
}

impl<S> Strided<S> {
    /// Wraps `data` with `stride` elements per unit.
    pub fn new(data: S, stride: usize) -> Self {
        Strided { data, stride }
    }
}

impl<S: Split> Split for Strided<S> {
    fn split(self, at: usize) -> (Self, Self) {
        let (head, tail) = self.data.split(at * self.stride);
        (
            Strided {
                data: head,
                stride: self.stride,
            },
            Strided {
                data: tail,
                stride: self.stride,
            },
        )
    }
}

impl<A: Split, B: Split> Split for (A, B) {
    fn split(self, at: usize) -> (Self, Self) {
        let (a0, a1) = self.0.split(at);
        let (b0, b1) = self.1.split(at);
        ((a0, b0), (a1, b1))
    }
}

impl<A: Split, B: Split, C: Split> Split for (A, B, C) {
    fn split(self, at: usize) -> (Self, Self) {
        let (a0, a1) = self.0.split(at);
        let (b0, b1) = self.1.split(at);
        let (c0, c1) = self.2.split(at);
        ((a0, b0, c0), (a1, b1, c1))
    }
}

/// Runs `f` over at most `workers` contiguous chunks of the unit range
/// `0..units`, splitting `data` along the same boundaries, and returns
/// the per-chunk results **in chunk order**.
///
/// `f(offset, take, chunk)` processes units `offset..offset + take`
/// with `chunk` holding exactly that range's share of the payload.
/// The caller's thread runs chunk 0 itself and only chunks `1..` are
/// spawned, so `w` effective workers cost `w - 1` spawns; with an
/// effective worker count of 1 (one worker, zero or one units) the
/// call is exactly the serial loop. A panic in any chunk, the
/// caller's included, propagates to the caller once every spawned
/// chunk has finished.
///
/// Determinism: chunk boundaries depend only on `(workers, units)`,
/// each worker writes only its own disjoint payload share, and results
/// come back in chunk order — so any *output written through the
/// payload* is bit-identical for every worker count, and any
/// order-sensitive merge of the returned fragments sees them in the
/// same order a serial loop would produce them.
pub fn scoped_chunks<D, R, F>(workers: usize, units: usize, data: D, f: F) -> Vec<R>
where
    D: Split,
    R: Send,
    F: Fn(usize, usize, D) -> R + Sync,
{
    let workers = workers.min(units).max(1);
    if workers <= 1 {
        return vec![f(0, units, data)];
    }
    let chunk = units.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let (first, mut rest) = data.split(chunk);
        let mut handles = Vec::with_capacity(workers - 1);
        let mut offset = chunk;
        while offset < units {
            let take = chunk.min(units - offset);
            let (head, tail) = rest.split(take);
            rest = tail;
            let off = offset;
            handles.push(scope.spawn(move || f(off, take, head)));
            offset += take;
        }
        // Chunk 0 runs on the caller's thread while the spawned chunks
        // run. If it panics, the scope still joins every spawned thread
        // before the panic continues.
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(0, chunk, first));
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

/// Work (in [`work`] units) below which a pool call site runs its job
/// inline on the caller's thread, with the caller's warm scratch,
/// instead of fanning out. One constant and one rule
/// ([`Parallelism::for_work`]) for every build, repair and batch-serving
/// site.
///
/// Measured on a 2-vCPU x86-64 host (`available_parallelism` = 2;
/// fat-LTO release; geometric graphs at mean degree 6 (N = 2000, 250
/// heads) and 8 (N = 20000, 1800 heads), lowest-ID heads at `k = 2`,
/// label bound `2k + 1`; medians of 7–41 repetitions):
///
/// * one spawn plus join (an empty 2-worker [`scoped_chunks`] call,
///   3 × 2000 calls): 50–51 µs at p50, 57–58 µs at p90 and 156–258 µs
///   at p99 on a quiet host; 53–76 µs, 0.1–0.25 ms and 0.9–5.3 ms
///   under load from other tenants;
/// * jobs, 1 worker → 2 workers:
///
/// | job                                  | units   | 1 worker | 2 workers |
/// |--------------------------------------|--------:|---------:|----------:|
/// | label repair, 22 rows, N = 2000      |   1 242 |    36 µs |    118 µs |
/// | label repair, 250 rows, N = 2000     |  13 082 |   470 µs |    398 µs |
/// | label repair, 128 rows, N = 20000    |  11 951 |   792 µs |    891 µs |
/// | label repair, 1800 rows, N = 20000   | 163 598 |   8.5 ms |    7.7 ms |
/// | ascent repair, 200 walks, N = 2000   |     600 |    41 µs |     95 µs |
/// | ascent compile, N = 2000             |   6 000 |   227 µs |    560 µs |
/// | ascent compile, N = 20000            |  60 000 |   4.0 ms |    3.6 ms |
/// | dense table, h = 250, 300 links      | 212 500 |   2.7 ms |    1.5 ms |
///
/// A unit costs 10–70 ns there, so an ideal 2-way split would repay
/// one spawn from a few thousand units up; but each fanned-out chunk
/// also starts cold (a fresh `n`-sized scratch, cold caches), and the
/// measured crossovers lie between ~10k units (label repairs) and
/// ~60k (ascents). 2¹⁵ sits in that band and is also the point where
/// the cold label rebuild's `heads × n` bound first repays a spawn
/// (~2 ns per unit there). The paper's grid (N ≤ 200, at most ~12k)
/// and a localized churn reconcile at N = 2000 stay inline; the dense
/// build of a ~250-head backbone, cold label rebuilds from
/// N = 2000 up and every N = 20000 build fan out.
const FAN_OUT_MIN_WORK: usize = 32_768;

impl Parallelism {
    /// The worker count worth using for a job of `work` units (see
    /// [`work`]): `self` from 2¹⁵ units up, one worker below, where a
    /// spawned thread costs more than it saves. Output never depends
    /// on the choice (see [`scoped_chunks`]).
    pub fn for_work(self, work: usize) -> Parallelism {
        if work < FAN_OUT_MIN_WORK {
            Parallelism::serial()
        } else {
            self
        }
    }
}

/// Work estimates for the fan-out gate ([`Parallelism::for_work`]), one
/// per pool call site on the build, repair and serving paths, all in
/// one unit: **one node settled or one link relaxed by a sweep** (or
/// one node written to a walked path, or one label entry a walk reads).
/// Each is an estimate a site can compute before it starts, in
/// `O(job size)` or better; the build and repair ones are upper
/// bounds.
pub mod work {
    /// A cold label rebuild of `heads` rows over `n` nodes: a row's
    /// ball holds at most `n` nodes, so `heads × n` bounds the nodes
    /// the sweeps settle.
    pub fn label_rebuild(heads: usize, n: usize) -> usize {
        heads.saturating_mul(n)
    }

    /// A label repair that re-sweeps rows whose **old** balls have the
    /// given sizes: the sum (a bounded delta moves a ball's size by a
    /// few boundary nodes).
    pub fn label_repair(old_ball_sizes: impl IntoIterator<Item = usize>) -> usize {
        old_ball_sizes
            .into_iter()
            .fold(0, |acc, b| acc.saturating_add(b))
    }

    /// `walked` nodes re-walking their ascent to a head at most `k`
    /// hops away: each walk writes at most `k + 1` path nodes.
    pub fn ascents(walked: usize, k: u32) -> usize {
        walked.saturating_mul(k as usize + 1)
    }

    /// `rows` dense distance rows of an `h`-head backbone with
    /// `directed_links` CSR entries (`rows = h`: a build, or a repair
    /// that fell back to one): each sweep relaxes every directed link
    /// and fills one `h`-cell row.
    pub fn dense_rows(rows: usize, h: usize, directed_links: usize) -> usize {
        rows.saturating_mul(directed_links.saturating_add(h))
    }

    /// A hub-label build over an `h`-head backbone: one rank-restricted
    /// sweep per head, each settling at most `h` heads.
    pub fn hub_build(h: usize) -> usize {
        h.saturating_mul(h)
    }

    /// A batch of `queries` served walks, each costing about
    /// `per_query` units: the nodes it writes to its walked path, plus
    /// the label entries a hub-labeled inter-head walk reads (see
    /// `RoutePlan::query_work` in `adhoc-cluster`).
    pub fn routes(queries: usize, per_query: usize) -> usize {
        queries.saturating_mul(per_query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_clamps_and_reads_env() {
        assert_eq!(Parallelism::new(0).workers(), 1);
        assert_eq!(Parallelism::new(7).workers(), 7);
        assert_eq!(Parallelism::serial().workers(), 1);
        assert!(Parallelism::available().workers() >= 1);
    }

    #[test]
    fn chunks_cover_the_range_disjointly_in_order() {
        for units in [0usize, 1, 2, 3, 7, 8, 100] {
            for workers in [1usize, 2, 3, 8, 16] {
                let spans = scoped_chunks(workers, units, (), |off, take, ()| (off, take));
                // In order, contiguous, covering exactly 0..units.
                let mut expect = 0usize;
                for &(off, take) in &spans {
                    assert_eq!(off, expect, "workers={workers} units={units}");
                    expect += take;
                }
                assert_eq!(expect, units);
                assert!(spans.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn mut_slices_are_written_disjointly() {
        let mut out = vec![0usize; 37];
        scoped_chunks(4, 37, &mut out[..], |off, take, chunk: &mut [usize]| {
            assert_eq!(chunk.len(), take);
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = off + i + 1;
            }
        });
        let expect: Vec<usize> = (1..=37).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn strided_and_tuple_payloads_split_on_unit_boundaries() {
        let stride = 3usize;
        let units = 5usize;
        let mut rows = vec![0u32; units * stride];
        let ids: Vec<u32> = (0..units as u32).collect();
        let frags = scoped_chunks(
            2,
            units,
            (Strided::new(&mut rows[..], stride), &ids[..]),
            |off, take, (rows, ids): (Strided<&mut [u32]>, &[u32])| {
                assert_eq!(rows.data.len(), take * stride);
                assert_eq!(ids.len(), take);
                for (i, &id) in ids.iter().enumerate() {
                    assert_eq!(id as usize, off + i);
                    rows.data[i * stride..(i + 1) * stride].fill(id + 1);
                }
                take
            },
        );
        assert_eq!(frags.iter().sum::<usize>(), units);
        for u in 0..units {
            assert!(rows[u * stride..(u + 1) * stride]
                .iter()
                .all(|&v| v == u as u32 + 1));
        }
    }

    #[test]
    fn results_merge_identically_for_any_worker_count() {
        let data: Vec<u64> = (0..1000u64).map(|x| x.wrapping_mul(0x9E3779B9)).collect();
        let serial: Vec<u64> =
            scoped_chunks(1, data.len(), &data[..], |_, _, c: &[u64]| c.to_vec())
                .into_iter()
                .flatten()
                .collect();
        for workers in [2usize, 3, 8] {
            let par: Vec<u64> =
                scoped_chunks(workers, data.len(), &data[..], |_, _, c: &[u64]| c.to_vec())
                    .into_iter()
                    .flatten()
                    .collect();
            assert_eq!(par, serial, "{workers} workers");
        }
    }

    /// Runs a 3-worker, 9-unit pool whose chunk at offset `bad` panics
    /// and returns the propagated panic message.
    fn panic_message(bad: usize) -> String {
        let err = std::panic::catch_unwind(|| {
            scoped_chunks(3, 9, (), |off, _, ()| {
                if off == bad {
                    panic!("chunk at {off} failed");
                }
                off
            })
        })
        .expect_err("the chunk's panic must reach the caller");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn panic_in_callers_chunk_propagates() {
        assert_eq!(panic_message(0), "chunk at 0 failed");
    }

    #[test]
    fn panic_in_spawned_chunk_propagates() {
        assert_eq!(panic_message(3), "chunk at 3 failed");
        assert_eq!(panic_message(6), "chunk at 6 failed");
    }

    #[test]
    fn results_come_back_in_chunk_order() {
        // Chunk 0 (the caller's) finishes only after every spawned chunk
        // has, yet stays first.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = std::sync::Mutex::new(rx);
        let offsets = scoped_chunks(4, 8, (), |off, _, ()| {
            if off == 0 {
                let rx = rx.lock().expect("no chunk panics");
                for _ in 0..3 {
                    rx.recv().expect("every spawned chunk reports");
                }
            } else {
                tx.send(off).expect("the caller's chunk is listening");
            }
            off
        });
        assert_eq!(offsets, vec![0, 2, 4, 6]);
    }

    #[test]
    fn fan_out_gate_keeps_small_jobs_inline() {
        let par = Parallelism::new(4);
        assert_eq!(par.for_work(0).workers(), 1);
        assert_eq!(par.for_work(FAN_OUT_MIN_WORK - 1).workers(), 1);
        assert_eq!(par.for_work(FAN_OUT_MIN_WORK).workers(), 4);
        assert_eq!(Parallelism::serial().for_work(usize::MAX).workers(), 1);
    }

    #[test]
    fn work_estimates_straddle_the_gate() {
        let gated = |work: usize| Parallelism::new(2).for_work(work).workers();
        // A localized reconcile at N = 2000 (k = 2, ~250 heads): 22
        // dirty rows of ~60 nodes, ~200 re-walked ascents; and the hub
        // build of a 150-head backbone — inline.
        assert_eq!(gated(work::label_repair([60; 22])), 1);
        assert_eq!(gated(work::ascents(200, 2)), 1);
        assert_eq!(gated(work::ascents(2000, 2)), 1);
        assert_eq!(gated(work::hub_build(150)), 1);
        // The paper's grid: at most ~12k label units per build.
        assert_eq!(gated(work::label_rebuild(60, 200)), 1);
        assert_eq!(gated(work::dense_rows(40, 40, 120)), 1);
        // 28 dense rows of a ~260-head backbone.
        assert_eq!(gated(work::dense_rows(28, 261, 600)), 1);
        // Cold builds, full sweeps and the dense build of a ~250-head
        // backbone — fanned out.
        assert_eq!(gated(work::label_rebuild(250, 2000)), 2);
        assert_eq!(gated(work::label_repair([90; 1800])), 2);
        assert_eq!(gated(work::ascents(20_000, 2)), 2);
        assert_eq!(gated(work::dense_rows(250, 250, 600)), 2);
        assert_eq!(gated(work::hub_build(1800)), 2);
        // Exactly at the threshold, and saturating instead of wrapping.
        assert_eq!(gated(work::label_repair([FAN_OUT_MIN_WORK - 1])), 1);
        assert_eq!(gated(work::label_repair([FAN_OUT_MIN_WORK])), 2);
        assert_eq!(gated(work::label_repair([usize::MAX, 1])), 2);
        assert_eq!(gated(work::ascents(usize::MAX, 2)), 2);
        assert_eq!(gated(work::dense_rows(usize::MAX, 1, usize::MAX)), 2);
    }

    #[test]
    fn vec_payload_moves_ownership_per_chunk() {
        let payload: Vec<String> = (0..10).map(|i| format!("item{i}")).collect();
        let got: Vec<String> =
            scoped_chunks(3, 10, payload, |_, _, chunk: Vec<String>| chunk.join(","))
                .join(",")
                .split(',')
                .map(str::to_string)
                .collect();
        let expect: Vec<String> = (0..10).map(|i| format!("item{i}")).collect();
        assert_eq!(got, expect);
    }
}
