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
//! machine's available cores. Label rebuilds additionally gate on their
//! input size ([`Parallelism::for_work`]): below one thread spawn's
//! worth of work they run the same chunked code on one worker, inline.

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

/// `heads × n` below which a label rebuild runs its chunked sweep on
/// one worker, inline, instead of fanning out.
///
/// Measured on a 2-vCPU x86-64 host (fat-LTO release; geometric graphs
/// at D = 6, lowest-ID heads at `k = 2`, label bound `2k + 1`):
///
/// * a 2-worker [`scoped_chunks`] call with an empty body (one spawn)
///   costs 19–52 µs;
/// * the inline dense rebuild costs ~2 ns per unit of `heads × n`:
///   5 µs at 1.3k, 12 µs at 5.2k, 19 µs at 11k, 42 µs at 19k, 55 µs at
///   29k, 142 µs at 64k (sparse: 1.2–1.6× that);
/// * an ideal 2-way split therefore first repays one spawn (half the
///   sweep ≥ ~30 µs) at `heads × n` ≈ 30k, hence 2¹⁵.
///
/// Below it the measured 2-worker rebuild ran at 0.12–0.54× of inline.
/// Above it that host showed no gain either (0.8–1.2× up to 51M, since
/// its second vCPU did not speed up even 4 ms compute-only chunks), so
/// the constant rests on the spawn cost, not on that host's scaling.
/// The paper's grid (N ≤ 200) needs at most ~12k and stays inline; a
/// full rebuild at N = 2000 (~520k) fans out.
const FAN_OUT_MIN_WORK: usize = 32_768;

impl Parallelism {
    /// The worker count worth using for a job of `work` units of
    /// `heads × n` label work: `self` from 2¹⁵ units up, one worker
    /// below, where a spawned thread costs more than it saves. Output
    /// never depends on the choice (see [`scoped_chunks`]).
    pub fn for_work(self, work: usize) -> Parallelism {
        if work < FAN_OUT_MIN_WORK {
            Parallelism::serial()
        } else {
            self
        }
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
        let serial: Vec<u64> = scoped_chunks(1, data.len(), &data[..], |_, _, c: &[u64]| c.to_vec())
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
