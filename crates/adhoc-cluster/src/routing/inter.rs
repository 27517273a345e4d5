//! Shared inter-head first-hop machinery over the backbone graph `G''`
//! (heads as vertices, selected virtual links as weighted edges): the
//! canonical next-hop **rule**, the exact all-pairs distance matrix
//! that serves it densely, and the [`InterTable`] facade that lets a
//! compiled [`RoutePlan`] serve the same rule from either the dense
//! `h × h` matrix or the sub-quadratic hub-label index ([`HubIndex`]).
//!
//! [`RoutePlan`]: super::plan::RoutePlan
//! [`HubIndex`]: super::hub::HubIndex
//!
//! # The canonical rule
//!
//! `next_hop(s, t)` is the **smallest-slot neighbor of `s` that begins
//! a shortest `s ⇝ t` backbone route**:
//!
//! ```text
//! next_hop(s, t) = min { u ∈ N(s) : w(s, u) + dist(u, t) = dist(s, t) }
//! ```
//!
//! The rule is a pure function of exact backbone distances, which is
//! precisely what lets two very different representations serve it
//! bit-identically. Both walks have one shape: fix `t`, carry
//! `dt = dist(s, t)` hop by hop, skip the predecessor, and take from
//! `s`'s CSR row — stored in ascending slot order — the first neighbor
//! `u` with `w(s, u) + dist(u, t) = dt`. They differ only in how they
//! learn `dist(u, t)`: the dense matrix reads it off `t`'s row (by
//! symmetry `D[t][u] = dist(u, t)`), the hub index proves it from label
//! rows. The legacy per-query router's next-hop table
//! ([`next_hop_row`]) folds the same rule into relaxation. Every
//! consumer (the compiled plan, the legacy router, incremental repairs
//! versus full recompiles) therefore agrees on every route by
//! construction.
//!
//! Queries that *walk* (`s ← next_hop(s, t)` until `s = t`) terminate
//! and realize a shortest backbone route for any mix of sources: each
//! step moves to a node strictly closer to `t`.
//!
//! # One advance
//!
//! [`InterTable::advance`] carries a table from the backbone it was
//! built for to a new one; nothing else builds or repairs it. An empty
//! table has nothing to keep, so it builds: a plan's compile is the
//! advance from the empty table. It also builds when the layout policy
//! picks the other layout. Otherwise each layout has one rule. A hub
//! table is kept when no CSR row changed over one head set and built
//! fresh otherwise ([`HubIndex`]). A dense table is repaired cell by
//! cell, as below.
//!
//! # Dense repair: a local change repairs the cells it can change
//!
//! The matrix holds exact distances, so a backbone change is repaired
//! from the diff of the old and new link lists, in this order:
//!
//! 1. **Insertions, on the exact old matrix.** For every added or
//!    re-weighted link `(x, y, w)` of the new backbone, a route can only
//!    shorten by crossing it once, so `dist'(s, t) = min(dist(s, t),
//!    dist(s, x) + w + dist(y, t))` or the mirror. Only a row with
//!    `dist(s, x) + w < dist(s, y)` can shorten across `x → y`, and in
//!    it only the columns `T_y = {t : w + dist(y, t) < dist(x, t)}`: an
//!    improved cell has `dist(s, x) + w + dist(y, t) < dist(s, t) ≤
//!    dist(s, x) + dist(x, t)`. By symmetry those rows are `T_x`, so the
//!    min-pass covers `T_x × T_y` and its mirror `T_y × T_x` alone. The
//!    first link of a new, isolated head `z` has `T_z = {z}`, so it
//!    touches `z`'s row and `z`'s column, `O(h)` cells.
//! 2. **Removals, one at a time, at cell grain.** Every removed link or
//!    superseded weight is taken out of a matrix that is exact for the
//!    backbone still holding it (the new one plus the removals still
//!    **pending**). For a removal with **centre** `c`, only cells with
//!    `dist(s, c) + dist(c, t) = dist(s, t)` can grow: the **marked**
//!    cells. Each kept source `s` (below) is repaired on its marked
//!    targets alone. A marked `t` is **seeded** with `min dist(s, x) +
//!    w(x, t)` over its unmarked neighbours `x` in the new backbone plus
//!    the pending removals, and the marked set is **settled** by the
//!    bucket-queue Dijkstra the build uses. The new cells are written to
//!    row `s` and, by symmetry, column `s`. Every source of one removal
//!    is computed against the pre-removal matrix and buffered, then
//!    written, so no source reads a cell this removal rewrote.
//!
//! Why an unmarked cell keeps its value: none of its shortest routes
//! crosses the removal, so one of them survives it, and no route got
//! shorter. Why the settle is exact: the unmarked cells are exact, and a
//! shortest new `s ⇝ t` route to a marked `t` leaves the unmarked cells
//! for good at some last unmarked `x`, whose link into the marked set
//! seeds the settle.
//!
//! **A removed link** `(u, v, w)` is one removal. A pair whose distance
//! grows had every shortest route through the link; with `u` before `v`
//! on it, the source lies in `S_u = {s : dist(u, s) + w = dist(v, s)}`
//! and the target in `S_v` (its mirror), both read off two contiguous
//! rows. A **witness** then thins both sides: `s` leaves `S_u` when some
//! other link `(x, v, w_x)` — of the new backbone or a pending removal —
//! has `dist(s, x) + w_x = dist(s, v)`, and `S_v` loses its sources by
//! the mirror rule. The sources are the **smaller** thinned side, say
//! `S_u`; the centre is `v`, and every marked target lies in `S_v`
//! before thinning, so only that side is scanned.
//!
//! Why a witnessed source keeps its row. `dist(s, x) < dist(s, v)`,
//! and every `s ⇝ x` route through `v` is at least `dist(s, v)` long,
//! so no shortest `s ⇝ x` route touches `v` or the removed link; with
//! `x → v` appended it is a shortest `s ⇝ v` route that survives the
//! removal. Now take any `t` and a shortest `s ⇝ t` route across the
//! link. It cannot cross `v → u`: its prefix would give `dist(s, u) =
//! dist(s, v) + w`, while `s ∈ S_u` says `dist(s, v) = dist(s, u) + w`.
//! So it crosses `u → v`, its suffix from `v` avoids the link (shortest
//! routes are simple), and swapping its prefix for the witnessed route
//! gives an `s ⇝ t` route of the same length without the link. No
//! distance from `s` grows, so row `s` — and by symmetry column `s` —
//! is unchanged. A changed pair's endpoint in `S_u` therefore is never
//! a witnessed one, and every changed pair keeps one endpoint in each
//! thinned side.
//!
//! **A lost head** `ℓ` (across a head-set change) is one **vertex
//! removal**: all its remaining links go at once, with centre `ℓ`.
//! Each head `s` of `ℓ`'s component enters `ℓ` over some of its links,
//! the ones `(y, w_y)` with `dist(s, y) + w_y = dist(s, ℓ)`. Two heads
//! that share an entry link `y` have `dist(s, t) ≤ dist(s, y) + dist(y,
//! t) < dist(s, ℓ) + dist(ℓ, t)`, so only heads with disjoint entry sets
//! can be marked. The heads are grouped by entry set; the groups kept
//! out of the sources pairwise share an entry (the largest groups
//! first), so every marked pair has a source end. A lost leaf has one
//! link and settles nothing; a transit head of degree two settles its
//! smaller side. `ℓ`'s own row and column are never repaired: `ℓ` ends
//! isolated, and its row and column are simply cleared to [`FAR`].
//!
//! Each step needs the matrix exact for the backbone it starts from.
//! Insertions come first because the removals' settles run on the new
//! backbone, which already holds the inserted links: the other way
//! round, a removal would mark cells off a matrix that lacks links its
//! settles use. A repair never settles more cells than a build fills:
//! once the next removal's marked cells would take it past `h²`, it
//! builds the matrix fresh, fanned out as a build is.
//!
//! # Dense repair across a head-set change
//!
//! A head gain or loss renumbers the slots, so the repair runs in the
//! **union** of the old and new head sets, both numbered by head ID:
//!
//! 1. **Lift.** The old matrix is copied into the union's slots. A
//!    lost head stays a vertex, so the old matrix is exact for the old
//!    backbone lifted into the union; a new head starts isolated
//!    (distance 0 to itself, [`FAR`] to the rest), which a backbone
//!    without its links has exactly.
//! 2. **Repair.** The old and new backbones, both lifted into the
//!    union, differ by every link of a lost head (all removed), every
//!    link of a new head (all inserted), and whatever changed among the
//!    survivors. The dense repair above takes them in its usual order:
//!    the insertions, then each lost head as one vertex removal, then
//!    the survivors' removed links.
//! 3. **Compact.** The new heads' rows and columns are copied out of
//!    the union matrix into a fresh allocation of exactly `h²` cells,
//!    so the table's bytes equal a fresh build's.
//!
//! A lost head ends isolated in the union and a new head's distances
//! are exact, so the compacted matrix equals a fresh build on the new
//! backbone cell for cell.

use super::hub::HubIndex;
use adhoc_graph::obs::Metrics;
use adhoc_graph::par::{self, Parallelism, Strided};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// "No next hop" marker (unreachable target, or an unfilled row).
pub(crate) const NO_HOP: u32 = u32::MAX;

/// "Not reached" backbone distance.
pub(crate) const FAR: u32 = u32::MAX;

/// "No offer yet" in [`next_hop_row`]'s packed `dist << 32 | hop` keys.
const UNSEEN: u64 = u64::MAX;

/// A borrowed CSR view of the backbone: `off` has `h + 1` entries,
/// `to`/`hops` hold each head's neighbors in **ascending slot order**
/// (both orientations of every undirected link). The plan and the
/// legacy router own these arrays; the inter-head machinery only ever
/// borrows them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CsrView<'a> {
    pub off: &'a [u32],
    pub to: &'a [u32],
    pub hops: &'a [u32],
}

impl<'a> CsrView<'a> {
    /// Number of heads (vertices of `G''`).
    pub fn head_count(&self) -> usize {
        self.off.len() - 1
    }

    /// `s`'s neighbor row as `(neighbor slot, weight)` pairs, ascending
    /// by slot.
    pub fn row(&self, s: usize) -> impl Iterator<Item = (u32, u32)> + 'a {
        let (lo, hi) = (self.off[s] as usize, self.off[s + 1] as usize);
        self.to[lo..hi]
            .iter()
            .zip(&self.hops[lo..hi])
            .map(|(&t, &w)| (t, w))
    }

    /// `s`'s backbone degree.
    pub fn degree(&self, s: usize) -> usize {
        (self.off[s + 1] - self.off[s]) as usize
    }

    /// The largest link weight (0 for a backbone without links).
    pub fn max_weight(&self) -> u32 {
        self.hops.iter().copied().max().unwrap_or(0)
    }
}

/// A directed backbone link `(from, to, weight)`.
type Link = (u32, u32, u32);

/// Reusable sweep and repair state shared by the dense build and
/// repair, the legacy next-hop table and the hub index's pruned sweeps —
/// hoisted out of the per-source loop so none of them allocates a
/// queue, a distance array, or a settled list per source. A plan's
/// compiles and repairs reuse one per thread ([`Self::with_local`]),
/// so a reconcile allocates none of it either.
#[derive(Clone, Debug, Default)]
pub(crate) struct InterScratch {
    dist: Vec<u32>,
    /// Nodes whose `dist` entry was written this sweep (superset of
    /// `settled`: includes heap-inserted-but-unsettled nodes), for
    /// touched-entry reset.
    touched: Vec<u32>,
    /// Settled nodes in nondecreasing-distance order.
    settled: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// [`next_hop_row`]'s best offer per node, `dist << 32 | first hop`.
    best: Vec<u64>,
    /// The bucket ring of [`next_hop_row`]'s and [`dist_row`]'s queue;
    /// every bucket is empty between sweeps.
    buckets: Vec<Vec<u32>>,
    /// Dense repair: links of the new backbone missing from the old
    /// (added, or carrying a new weight), one orientation each.
    inserted: Vec<Link>,
    /// Dense repair: links of the old backbone missing from the new
    /// (removed, or carrying a superseded weight), one orientation
    /// each, in repair order: each lost head's links, then the rest.
    removed: Vec<Link>,
    /// Dense repair: the removed links not yet taken out, both
    /// orientations, sorted — the extra links a removal's settles run
    /// over.
    pending: Vec<Link>,
    /// Dense repair: the two sides `S_u`, `S_v` of the removed link,
    /// each thinned by its witnesses to the prefix `kept` counts.
    sides: [Vec<u32>; 2],
    /// Dense repair: the other links `(x, w_x)` at `v` and at `u` that
    /// can witness a source off `S_u` and `S_v`, or a lost head's links.
    witnesses: [Vec<(u32, u32)>; 2],
    /// Dense repair: a lost head's component as `(entry set, head)`,
    /// sorted, and its entry groups `(entry set, start, end, source)`.
    entries: Vec<(u64, u32)>,
    groups: Vec<(u64, usize, usize, bool)>,
    /// Dense repair: the marked targets of one removal, source by
    /// source, and each source with the end of its targets.
    marked: Vec<u32>,
    marked_rows: Vec<(u32, u32)>,
    /// Dense repair: a source's settle — the marked flags and tentative
    /// distances by head, and the seeded targets with a marked neighbour.
    in_set: Vec<bool>,
    tent: Vec<u32>,
    queue: Vec<u32>,
    /// Dense repair: the new cells `(s, t, dist)` of one removal,
    /// buffered until every source is settled.
    cells: Vec<(u32, u32, u32)>,
    /// Dense repair: snapshots of the rows an insertion reads, and the
    /// columns `T_y`, `T_x` it can shorten.
    rows: Vec<u32>,
    cols: [Vec<u32>; 2],
}

thread_local! {
    /// The scratch [`InterScratch::with_local`] lends out, one per
    /// thread.
    static SCRATCH: Cell<InterScratch> = Cell::new(InterScratch::new());
}

impl InterScratch {
    pub fn new() -> Self {
        InterScratch::default()
    }

    /// Runs `f` on this thread's reusable scratch. Every buffer is
    /// reset or overwritten before it is read, so the scratch carries
    /// nothing but capacity from one use to the next.
    pub(crate) fn with_local<R>(f: impl FnOnce(&mut InterScratch) -> R) -> R {
        let mut scratch = SCRATCH.take();
        let out = f(&mut scratch);
        SCRATCH.set(scratch);
        out
    }

    /// Runs a Dijkstra sweep from `s` over `csr`, leaving `dist` and
    /// `settled` valid until the next sweep. With `restrict =
    /// Some((rank, r))` the sweep is **rank-restricted**: nodes whose
    /// rank is below `r` (more important than the source) are settled
    /// but never expanded, so computed distances are minima over paths
    /// whose *interior* stays less important than the source — the hub
    /// index's pruning rule (see [`HubIndex`]).
    pub(crate) fn sweep(&mut self, csr: CsrView<'_>, s: usize, restrict: Option<(&[u32], u32)>) {
        let h = csr.head_count();
        if self.dist.len() < h {
            self.dist.resize(h, FAR);
        }
        for &v in &self.touched {
            self.dist[v as usize] = FAR;
        }
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
        self.dist[s] = 0;
        self.touched.push(s as u32);
        self.heap.push(Reverse((0, s as u32)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let ui = u as usize;
            if d > self.dist[ui] {
                continue; // stale heap entry
            }
            self.settled.push(u);
            if let Some((rank, r)) = restrict {
                if ui != s && rank[ui] < r {
                    continue; // settled, not expanded: pruned frontier
                }
            }
            for (to, w) in csr.row(ui) {
                let ti = to as usize;
                debug_assert!(w >= 1, "virtual links span at least one hop");
                let nd = d + w;
                if nd < self.dist[ti] {
                    if self.dist[ti] == FAR {
                        self.touched.push(to);
                    }
                    self.dist[ti] = nd;
                    self.heap.push(Reverse((nd, to)));
                }
            }
        }
    }

    /// Distance of the last sweep (valid until the next one).
    pub(crate) fn dist(&self, v: usize) -> u32 {
        self.dist[v]
    }

    /// Settled order of the last sweep.
    pub(crate) fn settled(&self) -> &[u32] {
        &self.settled
    }
}

/// Computes `s`'s next-hop row under the canonical rule: `row[t]` is
/// the smallest-slot first hop of a shortest `s ⇝ t` backbone route
/// (`s` itself for `t == s`, [`NO_HOP`] if `t` is unreachable).
/// `max_w` must be at least the CSR's largest weight
/// ([`CsrView::max_weight`]).
///
/// Weights are integer hop counts, so the sweep runs on a bucket queue:
/// every queued distance lies within `max_w` of the one being settled,
/// so a ring of `max_w + 1` buckets holds them all. The first-hop rule
/// is folded into relaxation — the first hops of `s ⇝ t` are the union
/// over shortest predecessors `p` of `t` of the first hops of `s ⇝ p`
/// (or `t` itself when `p = s`); each such `p` settles strictly before
/// `t` (weights are ≥ 1) with its first hop final, and relaxing
/// `p → t` offers `(dist(p) + w, first hop of p)`. Each node keeps the
/// lexicographically smallest offer, packed as `dist << 32 | hop` so
/// one comparison decides both: the shortest distance and, among its
/// offers, the smallest first hop. `O(m + h + D)` per source with `m`
/// directed links and `D` the largest distance.
pub(crate) fn next_hop_row(
    csr: CsrView<'_>,
    s: usize,
    max_w: u32,
    row: &mut [u32],
    scratch: &mut InterScratch,
) {
    let h = csr.head_count();
    debug_assert_eq!(row.len(), h);
    let ring = max_w as usize + 1;
    if scratch.buckets.len() < ring {
        scratch.buckets.resize_with(ring, Vec::new);
    }
    let InterScratch { best, buckets, .. } = scratch;
    best.clear();
    best.resize(h, UNSEEN);
    best[s] = s as u64;
    let mut queued = 0usize;
    // Offers `(d + w, hop)` to `t`, where `b` is the bucket of
    // distance `d`; queues `t` (and says so) when its distance fell.
    let relax =
        |best: &mut [u64], buckets: &mut [Vec<u32>], d: u32, b: usize, t: u32, w: u32, hop: u64| {
            debug_assert!((1..=max_w).contains(&w), "weight {w} outside 1..={max_w}");
            let nd = d + w;
            let offer = u64::from(nd) << 32 | hop;
            let old = best[t as usize];
            if offer >= old {
                return false;
            }
            best[t as usize] = offer;
            let fell = old >> 32 > u64::from(nd);
            if fell {
                let slot = b + w as usize;
                buckets[if slot >= ring { slot - ring } else { slot }].push(t);
            }
            fell
        };
    // The source offers every neighbor itself as the first hop.
    for (t, w) in csr.row(s) {
        queued += usize::from(relax(best, buckets, 0, 0, t, w, u64::from(t)));
    }
    let (mut d, mut b) = (1u32, 1 % ring);
    while queued > 0 {
        // Relaxations from distance `d` land `1..=max_w` buckets ahead,
        // never in this one, so it can be taken out while it drains.
        let mut bucket = std::mem::take(&mut buckets[b]);
        queued -= bucket.len();
        for &u in &bucket {
            let key = best[u as usize];
            if key >> 32 != u64::from(d) {
                continue; // superseded by a shorter distance
            }
            for (t, w) in csr.row(u as usize) {
                queued += usize::from(relax(best, buckets, d, b, t, w, key & u64::from(u32::MAX)));
            }
        }
        bucket.clear();
        buckets[b] = bucket;
        d += 1;
        b = if b + 1 == ring { 0 } else { b + 1 };
    }
    for (r, &key) in row.iter_mut().zip(best.iter()) {
        *r = if key == UNSEEN { NO_HOP } else { key as u32 };
    }
}

/// All-pairs next-hop table, row-major `h × h` (`table[s * h + t]`):
/// the legacy router's table and the tests' oracle for the walks.
pub(crate) fn all_pairs_next_hops(csr: CsrView<'_>, scratch: &mut InterScratch) -> Vec<u32> {
    let h = csr.head_count();
    let max_w = csr.max_weight();
    let mut table = vec![NO_HOP; h * h];
    for s in 0..h {
        next_hop_row(csr, s, max_w, &mut table[s * h..(s + 1) * h], scratch);
    }
    table
}

/// Writes `s`'s exact distance row into `row` ([`FAR`] for heads `s`
/// cannot reach): a bucket-queue Dijkstra over `csr`. `max_w` must be
/// at least every link's weight. As in [`next_hop_row`], every queued
/// distance lies within `max_w` of the one being settled, so a ring of
/// `max_w + 1` buckets holds them all; `row` doubles as the distance
/// array, so a bucket entry whose distance has since fallen is skipped
/// when its bucket drains.
fn dist_row(csr: CsrView<'_>, s: usize, max_w: u32, row: &mut [u32], buckets: &mut Vec<Vec<u32>>) {
    let ring = max_w as usize + 1;
    if buckets.len() < ring {
        buckets.resize_with(ring, Vec::new);
    }
    row.fill(FAR);
    row[s] = 0;
    buckets[0].push(s as u32);
    let (mut queued, mut d, mut b) = (1usize, 0u32, 0usize);
    while queued > 0 {
        // Relaxations from distance `d` land `1..=max_w` buckets ahead,
        // never in this one, so it can be taken out while it drains.
        let mut bucket = std::mem::take(&mut buckets[b]);
        queued -= bucket.len();
        for &u in &bucket {
            if row[u as usize] != d {
                continue; // settled at a shorter distance
            }
            for (t, w) in csr.row(u as usize) {
                debug_assert!((1..=max_w).contains(&w), "weight {w} outside 1..={max_w}");
                let nd = d + w;
                if nd < row[t as usize] {
                    row[t as usize] = nd;
                    let slot = b + w as usize;
                    buckets[if slot >= ring { slot - ring } else { slot }].push(t);
                    queued += 1;
                }
            }
        }
        bucket.clear();
        buckets[b] = bucket;
        d += 1;
        b = if b + 1 == ring { 0 } else { b + 1 };
    }
}

/// Builds the whole matrix: one distance row per source over `csr`
/// into `out`, row `s` at `out[s * h..]`. Every row is a pure function
/// of its source and the links, so the rows are bit-identical for any
/// worker count: below one thread spawn's worth of work
/// ([`par::work::dense_rows`], gated by [`Parallelism::for_work`]) they
/// are swept inline on the caller's warm buckets; above it the sources
/// are chunked across workers, each writing its own contiguous rows.
fn sweep_rows(csr: CsrView<'_>, out: &mut [u32], buckets: &mut Vec<Vec<u32>>, par: Parallelism) {
    let h = csr.head_count();
    debug_assert_eq!(out.len(), h * h);
    let max_w = csr.max_weight();
    let workers = par
        .for_work(par::work::dense_rows(h, h, csr.to.len()))
        .workers();
    if workers == 1 {
        for (s, row) in out.chunks_exact_mut(h.max(1)).enumerate() {
            dist_row(csr, s, max_w, row, buckets);
        }
    } else {
        par::scoped_chunks(
            workers,
            h,
            Strided::new(out, h),
            |off, take, chunk: Strided<&mut [u32]>| {
                let mut local = Vec::new();
                for i in 0..take {
                    let row = &mut chunk.data[i * h..(i + 1) * h];
                    dist_row(csr, off + i, max_w, row, &mut local);
                }
            },
        );
    }
}

/// `u`'s links `(neighbor, weight)` in the backbone a removal runs on:
/// its row of `csr`, then its `pending` links (sorted by source).
fn links_at<'a>(
    csr: CsrView<'a>,
    pending: &'a [Link],
    u: usize,
) -> impl Iterator<Item = (u32, u32)> + 'a {
    let first = pending.partition_point(|l| (l.0 as usize) < u);
    csr.row(u).chain(
        pending[first..]
            .iter()
            .take_while(move |l| l.0 as usize == u)
            .map(|&(_, t, w)| (t, w)),
    )
}

/// Repairs the exact distance matrix `dist` of the `old` backbone into
/// the matrix of `new`, as the module docs' "Dense repair" describes;
/// `changed` holds every slot whose CSR row differs, and `lost` the
/// slots (ascending) of heads that leave, each taken out as one vertex
/// removal. Returns the rows with at least one settled cell and the
/// cells settled (`h` and `h²` more when it fell back to a fresh
/// build). Bit-identical to a fresh build on `new` for any worker
/// count: every step leaves the matrix exact.
fn repair_dense(
    dist: &mut [u32],
    changed: &[u32],
    lost: &[u32],
    old: CsrView<'_>,
    new: CsrView<'_>,
    scratch: &mut InterScratch,
    par: Parallelism,
) -> (usize, usize) {
    let h = new.head_count();
    let InterScratch {
        buckets,
        inserted,
        removed,
        pending,
        sides,
        witnesses,
        entries,
        groups,
        marked,
        marked_rows,
        in_set,
        tent,
        queue,
        cells,
        rows,
        cols,
        ..
    } = scratch;
    link_diff(changed, old, new, inserted, removed);
    for &(x, y, w) in inserted.iter() {
        insert_link(dist, h, x as usize, y as usize, w, rows, cols);
    }
    // A lost head's links go with the first lost head they touch; the
    // rest one by one.
    let lost_end = |&(a, b, _): &Link| {
        [a, b]
            .into_iter()
            .find(|x| lost.binary_search(x).is_ok())
            .unwrap_or(u32::MAX)
    };
    removed.sort_unstable_by_key(|l| (lost_end(l), *l));
    in_set.clear();
    in_set.resize(h, false);
    tent.resize(h, FAR);
    let (mut swept, mut settled) = (0usize, 0usize);
    let mut j = 0;
    while j < removed.len() {
        let vertex = lost_end(&removed[j]);
        let end = if vertex == u32::MAX {
            j + 1
        } else {
            j + removed[j..]
                .iter()
                .take_while(|l| lost_end(l) == vertex)
                .count()
        };
        pending.clear();
        for &(a, b, w) in &removed[end..] {
            pending.extend([(a, b, w), (b, a, w)]);
        }
        pending.sort_unstable();
        marked.clear();
        marked_rows.clear();
        if vertex == u32::MAX {
            mark_link(
                dist,
                h,
                removed[j],
                new,
                pending,
                sides,
                witnesses,
                marked,
                marked_rows,
            );
        } else {
            let [ends, _] = &mut *witnesses;
            ends.clear();
            ends.extend(
                removed[j..end]
                    .iter()
                    .map(|&(a, b, w)| (if a == vertex { b } else { a }, w)),
            );
            mark_vertex(
                dist,
                h,
                vertex as usize,
                ends,
                entries,
                groups,
                marked,
                marked_rows,
            );
        }
        if settled + marked.len() > h * h {
            sweep_rows(new, dist, buckets, par);
            return (swept + h, settled + h * h);
        }
        cells.clear();
        let mut from = 0;
        for &(s, to) in marked_rows.iter() {
            let targets = &marked[from..to as usize];
            settle_row(
                dist, h, s as usize, targets, new, pending, in_set, tent, queue, buckets, cells,
            );
            from = to as usize;
        }
        for &(s, t, d) in cells.iter() {
            let (s, t) = (s as usize, t as usize);
            dist[s * h + t] = d;
            dist[t * h + s] = d;
        }
        if vertex != u32::MAX {
            // The lost head ends isolated.
            let l = vertex as usize;
            dist[l * h..(l + 1) * h].fill(FAR);
            for t in 0..h {
                dist[t * h + l] = FAR;
            }
            dist[l * h + l] = 0;
        }
        swept += marked_rows.len();
        settled += marked.len();
        j = end;
    }
    (swept, settled)
}

/// Marks, for the removed link `(u, v, w)`, the cells it may lengthen:
/// for each source of the smaller witness-thinned side ([`link_sides`]),
/// the targets `t` of the other side, before thinning, with
/// `dist(s, c) + dist(c, t) = dist(s, t)` for the side's far end `c`.
/// Appends the targets to `marked` and `(source, end)` to
/// `marked_rows`, for each source with a marked target.
#[allow(clippy::too_many_arguments)]
fn mark_link(
    dist: &[u32],
    h: usize,
    link: Link,
    new: CsrView<'_>,
    pending: &[Link],
    sides: &mut [Vec<u32>; 2],
    witnesses: &mut [Vec<(u32, u32)>; 2],
    marked: &mut Vec<u32>,
    marked_rows: &mut Vec<(u32, u32)>,
) {
    let (sources, targets, c) = link_sides(dist, h, link, new, pending, sides, witnesses);
    for &s in sources {
        mark_row(
            dist,
            h,
            s as usize,
            c,
            targets.iter().copied(),
            marked,
            marked_rows,
        );
    }
}

/// Marks, for the vertex removal of lost head `l` whose remaining links
/// go to `ends` as `(y, w_y)`, the cells it may lengthen (module docs,
/// "Dense repair"): `s` and `t` of `l`'s component with disjoint entry
/// sets and `dist(s, l) + dist(l, t) = dist(s, t)`, for each source of
/// the groups that the pairwise-sharing ones leave. Fewer than two
/// links lie on no shortest route through `l`, so mark nothing.
#[allow(clippy::too_many_arguments)]
fn mark_vertex(
    dist: &[u32],
    h: usize,
    l: usize,
    ends: &[(u32, u32)],
    entries: &mut Vec<(u64, u32)>,
    groups: &mut Vec<(u64, usize, usize, bool)>,
    marked: &mut Vec<u32>,
    marked_rows: &mut Vec<(u32, u32)>,
) {
    if ends.len() < 2 {
        return;
    }
    // Entry sets as bit masks; past 64 links every head gets the empty
    // set, which shares nothing and so filters nothing.
    let from_l = &dist[l * h..(l + 1) * h];
    entries.clear();
    for (t, &dl) in from_l.iter().enumerate() {
        if t == l || dl == FAR {
            continue;
        }
        let mut set = 0u64;
        if ends.len() <= 64 {
            for (i, &(y, w)) in ends.iter().enumerate() {
                if dist[y as usize * h + t] + w == dl {
                    set |= 1 << i;
                }
            }
        }
        entries.push((set, t as u32));
    }
    entries.sort_unstable();
    groups.clear();
    for (i, &(set, _)) in entries.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if g.0 == set => g.2 = i + 1,
            _ => groups.push((set, i, i + 1, true)),
        }
    }
    // The largest groups first, each kept out of the sources when it
    // shares an entry with itself and with every group already kept out.
    groups.sort_unstable_by_key(|&(set, lo, hi, _)| (Reverse(hi - lo), set));
    for g in 0..groups.len() {
        let set = groups[g].0;
        let shares = set != 0 && groups[..g].iter().all(|o| o.3 || o.0 & set != 0);
        groups[g].3 = !shares;
    }
    for &(set, lo, hi, source) in groups.iter() {
        if !source {
            continue;
        }
        for &(_, s) in &entries[lo..hi] {
            let targets = groups
                .iter()
                .filter(|g| g.0 & set == 0)
                .flat_map(|g| entries[g.1..g.2].iter().map(|&(_, t)| t));
            mark_row(dist, h, s as usize, l, targets, marked, marked_rows);
        }
    }
}

/// Appends to `marked` the `targets` with `dist(s, c) + dist(c, t) =
/// dist(s, t)` — every one reaches `c` — and `(s, end)` to
/// `marked_rows` if there was one.
fn mark_row(
    dist: &[u32],
    h: usize,
    s: usize,
    c: usize,
    targets: impl Iterator<Item = u32>,
    marked: &mut Vec<u32>,
    marked_rows: &mut Vec<(u32, u32)>,
) {
    let (from_s, from_c) = (&dist[s * h..(s + 1) * h], &dist[c * h..(c + 1) * h]);
    let via = from_s[c];
    let start = marked.len();
    marked.extend(targets.filter(|&t| via + from_c[t as usize] == from_s[t as usize]));
    if marked.len() > start {
        marked_rows.push((s as u32, marked.len() as u32));
    }
}

/// Settles source `s`'s marked `targets` on the backbone `new` plus
/// `pending` (module docs, "Dense repair"), reading the pre-removal
/// matrix `dist`, and appends the new cells `(s, t, dist)` to `cells`.
/// Each target is seeded from its unmarked neighbours, then the marked
/// set alone runs a bucket-queue Dijkstra whose bucket `i` holds
/// distance `lo + i`, `lo` the smallest seed: the seeds go straight
/// into their buckets, unsorted. `in_set` is all `false` and every
/// bucket empty between calls.
#[allow(clippy::too_many_arguments)]
fn settle_row(
    dist: &[u32],
    h: usize,
    s: usize,
    targets: &[u32],
    new: CsrView<'_>,
    pending: &[Link],
    in_set: &mut [bool],
    tent: &mut [u32],
    queue: &mut Vec<u32>,
    buckets: &mut Vec<Vec<u32>>,
    cells: &mut Vec<(u32, u32, u32)>,
) {
    let from_s = &dist[s * h..(s + 1) * h];
    for &t in targets {
        in_set[t as usize] = true;
    }
    // A target with no marked neighbour is final at its seed: no
    // relaxation reaches it and it relaxes none, so it is not queued.
    let mut lo = FAR;
    queue.clear();
    for &t in targets {
        let (mut seed, mut inner) = (FAR, false);
        links_at(new, pending, t as usize).for_each(|(x, w)| {
            if in_set[x as usize] {
                inner = true;
            } else {
                seed = seed.min(from_s[x as usize].saturating_add(w));
            }
        });
        tent[t as usize] = seed;
        if inner && seed != FAR {
            queue.push(t);
            lo = lo.min(seed);
        }
    }
    let push = |buckets: &mut Vec<Vec<u32>>, d: u32, t: u32| {
        let i = (d - lo) as usize;
        if i >= buckets.len() {
            buckets.resize_with(i + 1, Vec::new);
        }
        buckets[i].push(t);
    };
    let mut queued = queue.len();
    for &t in queue.iter() {
        push(buckets, tent[t as usize], t);
    }
    let mut i = 0;
    while queued > 0 {
        // Relaxations from bucket `i` land in later buckets, so it can
        // be taken out while it drains.
        let mut bucket = std::mem::take(&mut buckets[i]);
        queued -= bucket.len();
        let d = lo + i as u32;
        for &u in &bucket {
            if tent[u as usize] != d {
                continue; // settled at a shorter distance
            }
            links_at(new, pending, u as usize).for_each(|(x, w)| {
                let nd = d + w;
                if in_set[x as usize] && nd < tent[x as usize] {
                    tent[x as usize] = nd;
                    push(buckets, nd, x);
                    queued += 1;
                }
            });
        }
        bucket.clear();
        buckets[i] = bucket;
        i += 1;
    }
    for &t in targets {
        in_set[t as usize] = false;
        cells.push((s as u32, t, tent[t as usize]));
    }
}

/// The weighted link diff between two backbones over the same heads:
/// each `(s, t, w)` with `s < t` present in `new` but not `old` goes to
/// `inserted`, present in `old` but not `new` to `removed` (a
/// re-weighted link lands in both). Only the `changed` rows can differ,
/// and a changed link flags both its endpoints, so reading each changed
/// row's links to higher slots finds every link once.
fn link_diff(
    changed: &[u32],
    old: CsrView<'_>,
    new: CsrView<'_>,
    inserted: &mut Vec<Link>,
    removed: &mut Vec<Link>,
) {
    use std::cmp::Ordering;
    inserted.clear();
    removed.clear();
    for &s in changed {
        let higher = |&(t, _): &(u32, u32)| t > s;
        let mut a = old.row(s as usize).filter(higher).peekable();
        let mut b = new.row(s as usize).filter(higher).peekable();
        // Rows are slot-ascending with one link per neighbor, so a
        // merge on `(slot, weight)` walks the symmetric difference.
        loop {
            let order = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            match order {
                Ordering::Less => {
                    let (t, w) = a.next().expect("peeked");
                    removed.push((s, t, w));
                }
                Ordering::Greater => {
                    let (t, w) = b.next().expect("peeked");
                    inserted.push((s, t, w));
                }
                Ordering::Equal => {
                    a.next();
                    b.next();
                }
            }
        }
    }
}

/// The slots (ascending) whose rows differ between two backbones over the
/// same heads: both endpoints of every added, removed, or re-weighted
/// link.
fn changed_rows(old: CsrView<'_>, new: CsrView<'_>) -> Vec<u32> {
    let span = |csr: CsrView<'_>, s: usize| csr.off[s] as usize..csr.off[s + 1] as usize;
    (0..new.head_count())
        .filter(|&s| {
            let (a, b) = (span(old, s), span(new, s));
            old.to[a.clone()] != new.to[b.clone()] || old.hops[a] != new.hops[b]
        })
        .map(|s| s as u32)
        .collect()
}

/// The maximal runs `(i, slots[i], len)` of consecutive slots in the
/// increasing slot map `slots`: `slots[i + j] = slots[i] + j` for `j <
/// len`. A head-set change gains or loses a few heads, so a few runs
/// copy a whole matrix row.
fn slot_runs(slots: &[u32]) -> Vec<(usize, usize, usize)> {
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    for (i, &y) in slots.iter().enumerate() {
        match runs.last_mut() {
            Some((_, start, len)) if *start + *len == y as usize => *len += 1,
            _ => runs.push((i, y as usize, 1)),
        }
    }
    runs
}

/// `csr` relabelled into a slot space of `union` slots, slot `s`
/// becoming `to_union[s]` (increasing, so rows stay slot-ascending);
/// union slots no `csr` slot maps to get empty rows. Returns the owned
/// `(off, to, hops)` arrays.
fn lift_csr(csr: CsrView<'_>, to_union: &[u32], union: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut off = Vec::with_capacity(union + 1);
    let mut to = Vec::with_capacity(csr.to.len());
    let mut hops = Vec::with_capacity(csr.hops.len());
    off.push(0);
    let mut next = 0usize;
    for x in 0..union {
        if to_union.get(next) == Some(&(x as u32)) {
            for (t, w) in csr.row(next) {
                to.push(to_union[t as usize]);
                hops.push(w);
            }
            next += 1;
        }
        off.push(to.len() as u32);
    }
    debug_assert_eq!(next, to_union.len(), "slot map must be increasing");
    (off, to, hops)
}

/// Adds link `(x, y, w)` to the exact matrix `dist`: each row that the
/// link shortens across `x → y` takes the minimum with the route across
/// it, on the columns `T_y = {t : w + dist(y, t) < dist(x, t)}` alone,
/// and the mirror. By symmetry the rows shortened across `x → y`, those
/// with `dist(s, x) + w < dist(s, y)`, are `T_x` itself, so only the
/// cells of `T_x × T_y` and `T_y × T_x` are read, off snapshots of rows
/// `x` and `y` (`snap` holds them, `cols` the two sets). Returns the
/// cells it min-passed.
fn insert_link(
    dist: &mut [u32],
    h: usize,
    x: usize,
    y: usize,
    w: u32,
    snap: &mut Vec<u32>,
    cols: &mut [Vec<u32>; 2],
) -> usize {
    snap.clear();
    snap.extend_from_slice(&dist[x * h..(x + 1) * h]);
    snap.extend_from_slice(&dist[y * h..(y + 1) * h]);
    let (from_x, from_y) = snap.split_at(h);
    let [to_y, to_x] = cols;
    to_y.clear();
    to_x.clear();
    for (t, (&a, &b)) in from_x.iter().zip(from_y).enumerate() {
        if b.saturating_add(w) < a {
            to_y.push(t as u32);
        } else if a.saturating_add(w) < b {
            to_x.push(t as u32);
        }
    }
    for (rows, near, far, cols) in [
        (&*to_x, from_x, from_y, &*to_y),
        (to_y, from_y, from_x, to_x),
    ] {
        for &s in rows {
            let (s, via) = (s as usize, near[s as usize] + w);
            let row = &mut dist[s * h..(s + 1) * h];
            for &t in cols {
                let t = t as usize;
                row[t] = row[t].min(via + far[t]);
            }
        }
    }
    2 * to_x.len() * to_y.len()
}

/// The sources, the targets to scan and the centre of removed link
/// `(u, v, w)` in the exact matrix `dist` (module docs, "Dense
/// repair"). `S_u = {s : dist(u, s) + w = dist(v, s)}` (sources whose
/// shortest routes to `v` may end across the link) less the sources a
/// witness clears, or its mirror `S_v`, `S_u` on a tie, are the
/// sources; the other side before thinning holds every target, and the
/// centre is the sources' far end. A witness of `s ∈ S_u` is another
/// link `(x, v, w_x)` of `new` or of the removals still `pending` with
/// `dist(x, s) + w_x = dist(v, s)`. Both sides are empty when the link
/// lies on no shortest route.
fn link_sides<'s>(
    dist: &[u32],
    h: usize,
    (u, v, w): Link,
    new: CsrView<'_>,
    pending: &[Link],
    sides: &'s mut [Vec<u32>; 2],
    witnesses: &mut [Vec<(u32, u32)>; 2],
) -> (&'s [u32], &'s [u32], usize) {
    let (u, v) = (u as usize, v as usize);
    let [side_u, side_v] = sides;
    side_u.clear();
    side_v.clear();
    let (from_u, from_v) = (&dist[u * h..(u + 1) * h], &dist[v * h..(v + 1) * h]);
    for (s, (&a, &b)) in from_u.iter().zip(from_v).enumerate() {
        debug_assert_eq!(a == FAR, b == FAR, "the link joins u and v");
        if a == FAR {
            continue; // `s` reaches neither end
        }
        if a + w == b {
            side_u.push(s as u32);
        } else if b + w == a {
            side_v.push(s as u32);
        }
    }
    // The links still at `end` once `(u, v)` is out: its row of the new
    // backbone and its pending removals. The removed link is in neither.
    let [at_v, at_u] = witnesses;
    at_v.clear();
    at_v.extend(links_at(new, pending, v));
    at_u.clear();
    at_u.extend(links_at(new, pending, u));
    // `s` is kept unless some link `(x, w_x)` at the side's far end `e`
    // has `dist(x, s) + w_x = dist(e, s)`: the kept sources move to the
    // front, and their count is returned.
    let thin = |side: &mut Vec<u32>, links: &[(u32, u32)], far_end: &[u32]| {
        let mut kept = 0;
        for i in 0..side.len() {
            let s = side[i] as usize;
            let witnessed = links.iter().any(|&(x, wx)| {
                let d = dist[x as usize * h + s];
                d != FAR && d + wx == far_end[s]
            });
            if !witnessed {
                side.swap(kept, i);
                kept += 1;
            }
        }
        kept
    };
    let kept_u = thin(side_u, at_v, from_v);
    let kept_v = thin(side_v, at_u, from_u);
    if kept_u <= kept_v {
        (&side_u[..kept_u], &side_v[..], v)
    } else {
        (&side_v[..kept_v], &side_u[..], u)
    }
}

/// Projected bytes of the dense `h × h` distance matrix — what
/// [`InterMode::Auto`] weighs against, and what the benches report as
/// the cost the hub layout avoids.
pub fn projected_dense_bytes(h: usize) -> usize {
    h.saturating_mul(h)
        .saturating_mul(std::mem::size_of::<u32>())
}

/// Projected dense-table size above which [`InterMode::Auto`] compiles
/// the hub-label index instead of the `h × h` matrix. 4 MiB keeps the
/// paper-scale backbones (`h` up to ~1000, where the table is small
/// and its `O(1)` lookups win) dense, while the `N ≥ 10⁴`-node cells'
/// multi-thousand-head backbones land on hub labels.
pub const AUTO_HUB_THRESHOLD_BYTES: usize = 4 << 20;

/// Which inter-head representation a route plan should compile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InterMode {
    /// Always the dense `h × h` distance matrix.
    Dense,
    /// Always the hub-label index.
    Hub,
    /// Decide per compile: hub once the projected dense table exceeds
    /// [`AUTO_HUB_THRESHOLD_BYTES`].
    #[default]
    Auto,
}

impl InterMode {
    /// Whether a compile over an `h`-head backbone should use the hub
    /// layout under this mode.
    pub fn wants_hub(self, h: usize) -> bool {
        match self {
            InterMode::Dense => false,
            InterMode::Hub => true,
            InterMode::Auto => projected_dense_bytes(h) > AUTO_HUB_THRESHOLD_BYTES,
        }
    }

    /// Display name (`dense` / `hub` / `auto`).
    pub fn name(self) -> &'static str {
        match self {
            InterMode::Dense => "dense",
            InterMode::Hub => "hub",
            InterMode::Auto => "auto",
        }
    }
}

impl std::str::FromStr for InterMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "dense" => Ok(InterMode::Dense),
            "hub" => Ok(InterMode::Hub),
            "auto" => Ok(InterMode::Auto),
            other => Err(format!(
                "unknown inter-table layout {other} (dense|hub|auto)"
            )),
        }
    }
}

/// What an inter-head table advance did — surfaced through
/// [`PlanUpdate`](super::plan::PlanUpdate) so benches and tests can
/// pin how much of the table a backbone change touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterRepair {
    /// The backbone's weighted link set did not change; nothing to do.
    Unchanged,
    /// Dense layout: the distance matrix was repaired cell by cell (see
    /// the `inter` module's "Dense repair"), across a head-set change
    /// in the union of the old and new head sets.
    DenseRepaired {
        /// Sources with at least one settled cell, summed over the
        /// removals (out of `h` each, or out of the union's size across
        /// a head-set change; `h` more when the repair fell back to a
        /// fresh build).
        rows_swept: usize,
        /// Cells the removals settled: marked cells, each re-derived
        /// from its unmarked neighbours (`h²` more when the repair fell
        /// back to a fresh build, which it does before passing `h²`).
        cells_settled: usize,
    },
    /// Dense layout: the matrix was built fresh, because the table was
    /// empty or a head-set change turned a hub table dense under
    /// [`InterMode::Auto`].
    DenseRebuilt,
    /// Hub layout: the index was built fresh, because the table was
    /// empty, was dense, or its backbone changed (a hub table is never
    /// repaired in place).
    HubRebuilt,
}

/// One API over both inter-head representations, mirroring the label
/// store's `Dense`/`Sparse` facade: the compiled plan queries first
/// hops through this enum and never branches on layout anywhere else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterTable {
    /// The exact, symmetric all-pairs backbone distance matrix,
    /// row-major `h × h` ([`FAR`] when unreachable) — one row read per
    /// walk, `O(h²)` memory, repaired cell by cell on a backbone change.
    Dense { h: usize, dist: Vec<u32> },
    /// Hub-label (2-level landmark) index — one target-row expansion
    /// per walk, then each hop proved by exact checks (mostly one
    /// binary search, a full row scan only when no check settles a
    /// neighbor), empirically sub-quadratic memory, built fresh on a
    /// backbone change.
    Hub(HubIndex),
}

impl InterTable {
    /// The table with no heads: what a plan starts from before its
    /// compile advances it.
    pub(crate) const EMPTY: InterTable = InterTable::Dense {
        h: 0,
        dist: Vec::new(),
    };

    /// A fresh table for `csr` under `mode`: the advance from the empty
    /// table (test convenience).
    #[cfg(test)]
    pub(crate) fn build(mode: InterMode, csr: CsrView<'_>) -> InterTable {
        let mut table = Arc::new(InterTable::EMPTY);
        let empty = CsrView {
            off: &[0],
            to: &[],
            hops: &[],
        };
        let heads = (0..csr.head_count() as u32).collect::<Vec<_>>();
        InterTable::advance(
            &mut table,
            mode,
            Some((&[], &heads, heads.len())),
            empty,
            csr,
            Parallelism::serial(),
            &Metrics::disabled(),
        );
        Arc::unwrap_or_clone(table)
    }

    /// Walks the canonical route `s ⇝ t`, calling `hop(i)` with the CSR
    /// position `i` of every link taken, in walk order (`csr.to[i]` is
    /// the head the hop lands on). Returns `false`, without calling
    /// `hop`, when the backbone does not connect `s` and `t`; `s == t`
    /// is the empty walk.
    ///
    /// Dense: `t`'s row holds every `dist(u, t)`, so each hop takes the
    /// first neighbor `u` of `s`, in ascending slot order and past the
    /// predecessor, with `w(s, u) + dist(u, t) = dt`, and carries
    /// `dt −= w`. Hub: one target-row expansion per walk; then each
    /// probed neighbor is skipped as the predecessor, rejected by a
    /// landmark bound, accepted by one binary search for the carried
    /// witness hub, or only failing those settled by a label row scan
    /// (see [`HubIndex::walk`]).
    #[inline]
    pub(crate) fn walk(
        &self,
        s: usize,
        t: usize,
        csr: CsrView<'_>,
        mut hop: impl FnMut(usize),
    ) -> bool {
        match self {
            InterTable::Dense { h, dist } => {
                let to_t = &dist[t * h..(t + 1) * h];
                let mut dt = to_t[s];
                if dt == FAR {
                    return false;
                }
                let (mut prev, mut s) = (usize::MAX, s);
                while s != t {
                    let (lo, hi) = (csr.off[s] as usize, csr.off[s + 1] as usize);
                    let i = (lo..hi)
                        .find(|&i| {
                            let (u, w) = (csr.to[i] as usize, csr.hops[i]);
                            u != prev && w <= dt && to_t[u] == dt - w
                        })
                        .expect("exact distances name a first hop");
                    hop(i);
                    dt -= csr.hops[i];
                    prev = s;
                    s = csr.to[i] as usize;
                }
                true
            }
            InterTable::Hub(hub) => hub.walk(s, t, csr, hop),
        }
    }

    /// Advances a shared table from the backbone `old` it was built
    /// for to `csr` under `mode`, building or repairing as the module
    /// docs' "One advance" says. `heads` is `None` over one head set;
    /// across a head-set change it maps each old and each new slot to
    /// its place in the union of the two head sets (ascending, so both
    /// maps are increasing), which has `union` slots. When no CSR row
    /// changed over one head set it returns [`InterRepair::Unchanged`]
    /// and keeps the table shared; a dense repair in place copies it on
    /// write first, so a plan cloned to be patched never touches the one
    /// it shares. A build opens `hub.build_ns` or `inter.dense_build_ns`,
    /// by the layout it builds; a dense repair `inter.dense_repair_ns`.
    /// The table ends equal to a fresh build on `csr` under `mode`,
    /// bytes included, for any worker count.
    pub(crate) fn advance(
        table: &mut Arc<InterTable>,
        mode: InterMode,
        heads: Option<(&[u32], &[u32], usize)>,
        old: CsrView<'_>,
        csr: CsrView<'_>,
        par: Parallelism,
        metrics: &Metrics,
    ) -> InterRepair {
        let h = csr.head_count();
        let hub = mode.wants_hub(h);
        let holds_hub = matches!(**table, InterTable::Hub(_));
        let fresh = old.head_count() == 0 || hub != holds_hub;
        if holds_hub && !fresh && heads.is_none() && old == csr {
            return InterRepair::Unchanged;
        }
        // Only a dense table is repaired: a hub table that was not kept
        // builds.
        let build = fresh || hub;
        let _span = metrics.span(match (build, hub) {
            (true, true) => "hub.build_ns",
            (true, false) => "inter.dense_build_ns",
            (false, _) => "inter.dense_repair_ns",
        });
        InterScratch::with_local(|scratch| {
            if build {
                let (fresh, repair) = if hub {
                    let index = HubIndex::build_with(csr, scratch, par);
                    (InterTable::Hub(index), InterRepair::HubRebuilt)
                } else {
                    // One distance row per source, fanned out as
                    // `sweep_rows` says.
                    let mut dist = vec![FAR; h * h];
                    sweep_rows(csr, &mut dist, &mut scratch.buckets, par);
                    (InterTable::Dense { h, dist }, InterRepair::DenseRebuilt)
                };
                *table = Arc::new(fresh);
                return repair;
            }
            fn view((off, to, hops): &(Vec<u32>, Vec<u32>, Vec<u32>)) -> CsrView<'_> {
                CsrView { off, to, hops }
            }
            let lifted = heads.map(|(old_slots, new_slots, union)| {
                (
                    lift_csr(old, old_slots, union),
                    lift_csr(csr, new_slots, union),
                )
            });
            let (old_u, new_u) = match &lifted {
                Some((old_u, new_u)) => (view(old_u), view(new_u)),
                None => (old, csr),
            };
            let changed = changed_rows(old_u, new_u);
            if changed.is_empty() && heads.is_none() {
                return InterRepair::Unchanged;
            }
            let mut union_dist = Vec::new();
            let dist = match heads {
                None => {
                    let InterTable::Dense { dist, .. } = Arc::make_mut(table) else {
                        unreachable!("a hub table is never repaired")
                    };
                    dist
                }
                // Lift: the old matrix in the union's slots, a new head
                // isolated.
                Some((old_slots, _, union)) => {
                    let InterTable::Dense { h: old_h, dist } = &**table else {
                        unreachable!("a hub table is never repaired")
                    };
                    let runs = slot_runs(old_slots);
                    let mut rows = dist.chunks_exact((*old_h).max(1));
                    union_dist.reserve_exact(union * union);
                    let mut next = old_slots.iter().peekable();
                    for x in 0..union {
                        if next.next_if_eq(&&(x as u32)).is_none() {
                            let row = union_dist.len();
                            union_dist.resize(row + union, FAR);
                            union_dist[row + x] = 0;
                            continue;
                        }
                        let row = rows.next().expect("one row per old slot");
                        for &(i, y, len) in &runs {
                            union_dist.resize(x * union + y, FAR);
                            union_dist.extend_from_slice(&row[i..i + len]);
                        }
                        union_dist.resize((x + 1) * union, FAR);
                    }
                    &mut union_dist
                }
            };
            let lost: Vec<u32> = heads.map_or(Vec::new(), |(old_slots, new_slots, _)| {
                old_slots
                    .iter()
                    .copied()
                    .filter(|x| new_slots.binary_search(x).is_err())
                    .collect()
            });
            let (rows_swept, cells_settled) =
                repair_dense(dist, &changed, &lost, old_u, new_u, scratch, par);
            // Compact: the new heads' rows and columns, in exactly `h²`
            // cells. With no head lost the union is the new head set.
            if let Some((_, new_slots, union)) = heads {
                let dist = if lost.is_empty() {
                    union_dist
                } else {
                    let runs = slot_runs(new_slots);
                    let mut dist = Vec::with_capacity(h * h);
                    for &x in new_slots {
                        let from = &union_dist[x as usize * union..(x as usize + 1) * union];
                        for &(_, y, len) in &runs {
                            dist.extend_from_slice(&from[y..y + len]);
                        }
                    }
                    dist
                };
                *table = Arc::new(InterTable::Dense { h, dist });
            }
            InterRepair::DenseRepaired {
                rows_swept,
                cells_settled,
            }
        })
    }

    /// Estimated label entries a walk of `head_hops` hops reads, in
    /// `par::work` units (see `RoutePlan::query_work`): none for the
    /// dense table (a lookup per hop); for the hub index the mean label
    /// row per hop plus two for the target-row expansion and the
    /// source row's scan, an upper estimate (most hops are proved by
    /// one binary search).
    pub(crate) fn walk_work(&self, head_hops: usize) -> usize {
        match self {
            InterTable::Dense { .. } => 0,
            InterTable::Hub(hub) => {
                let row = hub.label_entries() / hub.head_count().max(1);
                (head_hops + 2).saturating_mul(row)
            }
        }
    }

    /// Display name of the active layout (`dense` / `hub`).
    pub fn layout_name(&self) -> &'static str {
        match self {
            InterTable::Dense { .. } => "dense",
            InterTable::Hub(_) => "hub",
        }
    }

    /// Heap bytes of the inter-head structure alone.
    pub fn memory_bytes(&self) -> usize {
        match self {
            InterTable::Dense { dist, .. } => dist.capacity() * std::mem::size_of::<u32>(),
            InterTable::Hub(hub) => hub.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle for the canonical rule: Floyd–Warshall
    /// distances, then `min { u ∈ N(s) : w(s,u) + dist(u,t) =
    /// dist(s,t) }` read straight off the definition.
    fn reference_row(adj: &[Vec<(u32, u32)>], s: usize) -> Vec<u32> {
        let h = adj.len();
        let mut dist = vec![vec![u64::MAX / 4; h]; h];
        for (i, row) in dist.iter_mut().enumerate() {
            row[i] = 0;
        }
        for (a, nbrs) in adj.iter().enumerate() {
            for &(b, w) in nbrs {
                dist[a][b as usize] = dist[a][b as usize].min(u64::from(w));
            }
        }
        for m in 0..h {
            for a in 0..h {
                for b in 0..h {
                    let via = dist[a][m] + dist[m][b];
                    if via < dist[a][b] {
                        dist[a][b] = via;
                    }
                }
            }
        }
        let mut row = vec![NO_HOP; h];
        for t in 0..h {
            if t == s {
                row[t] = s as u32;
                continue;
            }
            if dist[s][t] >= u64::MAX / 4 {
                continue;
            }
            row[t] = adj[s]
                .iter()
                .filter(|&&(u, w)| u64::from(w) + dist[u as usize][t] == dist[s][t])
                .map(|&(u, _)| u)
                .min()
                .expect("reachable target has a first hop");
        }
        row
    }

    fn to_csr(adj: &[Vec<(u32, u32)>]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut off = vec![0u32];
        let mut to = Vec::new();
        let mut hops = Vec::new();
        for nbrs in adj {
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            for (t, w) in sorted {
                to.push(t);
                hops.push(w);
            }
            off.push(to.len() as u32);
        }
        (off, to, hops)
    }

    /// Random backbone with link weights in `1..=max_w`: small weights
    /// make equal-length routes (ties) common, small `p` leaves
    /// disconnected pairs.
    fn random_adj(rng: &mut impl rand::Rng, h: usize, p: f64, max_w: u32) -> Vec<Vec<(u32, u32)>> {
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for a in 0..h {
            for b in a + 1..h {
                if rng.gen_bool(p) {
                    let w = rng.gen_range(1..=max_w);
                    adj[a].push((b as u32, w));
                    adj[b].push((a as u32, w));
                }
            }
        }
        adj
    }

    #[test]
    fn matches_reference_on_random_backbones() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut scratch = InterScratch::new();
        for _ in 0..30 {
            let h = rng.gen_range(2..14usize);
            let adj = random_adj(&mut rng, h, 0.4, 5);
            let (off, to, hops) = to_csr(&adj);
            let csr = CsrView {
                off: &off,
                to: &to,
                hops: &hops,
            };
            for s in 0..h {
                let mut row = vec![0u32; h];
                next_hop_row(csr, s, csr.max_weight(), &mut row, &mut scratch);
                assert_eq!(row, reference_row(&adj, s), "source {s}");
            }
        }
    }

    /// The heads visited after `s` by following the raw dense table
    /// from [`all_pairs_next_hops`], or `None` when `t` is unreachable.
    fn table_walk(table: &[u32], h: usize, s: usize, t: usize) -> Option<Vec<u32>> {
        let mut heads = Vec::new();
        let mut at = s;
        while at != t {
            let nh = table[at * h + t];
            if nh == NO_HOP {
                return None;
            }
            heads.push(nh);
            at = nh as usize;
        }
        Some(heads)
    }

    /// The heads [`InterTable::walk`] visits after `s`, or `None` when
    /// it reports `t` unreachable (having taken no hop).
    fn facade_walk(inter: &InterTable, s: usize, t: usize, csr: CsrView<'_>) -> Option<Vec<u32>> {
        let mut heads = Vec::new();
        let reached = inter.walk(s, t, csr, |i| heads.push(csr.to[i]));
        assert!(
            reached || heads.is_empty(),
            "unreachable walk {s} -> {t} took hops"
        );
        reached.then_some(heads)
    }

    /// Both layouts must walk **exactly** the dense table's routes —
    /// the bit-identity the route-equivalence suites rest on — for
    /// every `(s, t)`, including `s == t`, disconnected pairs, and
    /// tie-heavy unit/two-weight backbones, across reused scratch.
    #[test]
    fn hub_table_matches_dense_table() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut scratch = InterScratch::new();
        let mut unreachable = 0usize;
        for round in 0..40 {
            let h = rng.gen_range(2..24usize);
            let p = [0.08, 0.15, 0.3][round % 3];
            let max_w = [1, 2, 5][round % 3];
            let adj = random_adj(&mut rng, h, p, max_w);
            let (off, to, hops) = to_csr(&adj);
            let csr = CsrView {
                off: &off,
                to: &to,
                hops: &hops,
            };
            let table = all_pairs_next_hops(csr, &mut scratch);
            let dense = InterTable::build(InterMode::Dense, csr);
            let hub = InterTable::build(InterMode::Hub, csr);
            for s in 0..h {
                for t in 0..h {
                    let want = table_walk(&table, h, s, t);
                    unreachable += usize::from(want.is_none());
                    assert_eq!(
                        facade_walk(&dense, s, t, csr),
                        want,
                        "round {round}: dense {s} -> {t}"
                    );
                    assert_eq!(
                        facade_walk(&hub, s, t, csr),
                        want,
                        "round {round}: hub {s} -> {t}"
                    );
                }
            }
        }
        assert!(unreachable > 0, "the sweep must cover disconnected pairs");
    }

    /// Hub walks share one per-thread target buffer across plans.
    /// Interleaving walks on one thread over a small and a larger hub
    /// plan — with an unreachable pair between them — must still match
    /// the dense table every time: no walk sees another's entries.
    #[test]
    fn interleaved_hub_plans_share_no_walk_state() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut scratch = InterScratch::new();
        let small = random_adj(&mut rng, 9, 0.3, 2);
        let mut large = random_adj(&mut rng, 40, 0.12, 3);
        // Head 39 is isolated in the large plan: every pair into it is
        // unreachable.
        for nbrs in &mut large {
            nbrs.retain(|&(b, _)| b != 39);
        }
        large[39].clear();
        let csrs = [to_csr(&small), to_csr(&large)];
        let plans: Vec<_> = csrs
            .iter()
            .map(|(off, to, hops)| {
                let csr = CsrView { off, to, hops };
                let table = all_pairs_next_hops(csr, &mut scratch);
                let hub = InterTable::build(InterMode::Hub, csr);
                (csr, table, hub)
            })
            .collect();
        for round in 0..200usize {
            let (csr, table, hub) = &plans[round % 2];
            let h = csr.head_count();
            let (s, t) = if round % 6 == 3 {
                (round % (h - 1), h - 1)
            } else {
                (round * 7 % h, round * 13 % h)
            };
            let want = table_walk(table, h, s, t);
            if round % 6 == 3 {
                assert_eq!(want, None, "head {t} is isolated");
            }
            assert_eq!(
                facade_walk(hub, s, t, *csr),
                want,
                "round {round}: {s} -> {t} (h = {h})"
            );
        }
    }

    #[test]
    fn disconnected_targets_have_no_hop() {
        let adj: Vec<Vec<(u32, u32)>> = vec![vec![(1, 2)], vec![(0, 2)], vec![]];
        let (off, to, hops) = to_csr(&adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut scratch = InterScratch::new();
        let table = all_pairs_next_hops(csr, &mut scratch);
        assert_eq!(table[1], 1); // 0 -> 1
        assert_eq!(table[2], NO_HOP); // 0 -> 2
        assert_eq!(table[6], NO_HOP); // 2 -> 0
        assert_eq!(table[4], 1); // 1 -> 1 (self)
    }

    #[test]
    fn equal_length_ties_pick_smallest_first_hop() {
        // 0-1-3 and 0-2-3 both cost 2: the canonical route leaves via 1.
        let adj: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 1), (2, 1)],
            vec![(0, 1), (3, 1)],
            vec![(0, 1), (3, 1)],
            vec![(1, 1), (2, 1)],
        ];
        let (off, to, hops) = to_csr(&adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut row = vec![0u32; 4];
        next_hop_row(csr, 0, csr.max_weight(), &mut row, &mut InterScratch::new());
        assert_eq!(row[3], 1);
    }

    /// The rule prefers the smallest *first hop*, even when a larger
    /// first hop leads to a smaller-slot interior (where the old
    /// backward-parent-chain rule would have flipped).
    #[test]
    fn smallest_first_hop_beats_smallest_interior() {
        // 0-1-5-4 and 0-2-3-4, unit weights: first hops 1 < 2 even
        // though interior 3 < 5.
        let adj: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 1), (2, 1)],
            vec![(0, 1), (5, 1)],
            vec![(0, 1), (3, 1)],
            vec![(2, 1), (4, 1)],
            vec![(3, 1), (5, 1)],
            vec![(1, 1), (4, 1)],
        ];
        let (off, to, hops) = to_csr(&adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut row = vec![0u32; 6];
        next_hop_row(csr, 0, csr.max_weight(), &mut row, &mut InterScratch::new());
        assert_eq!(row[4], 1);
    }

    #[test]
    fn auto_mode_switches_on_projected_bytes() {
        // 4 MiB / 4 bytes = 1M entries: h = 1024 is the last dense size.
        assert!(!InterMode::Auto.wants_hub(1024));
        assert!(InterMode::Auto.wants_hub(1025));
        assert!(!InterMode::Dense.wants_hub(1_000_000));
        assert!(InterMode::Hub.wants_hub(2));
        assert_eq!("hub".parse::<InterMode>().unwrap(), InterMode::Hub);
        assert!("matrix".parse::<InterMode>().is_err());
    }

    /// Under [`InterMode::Auto`] a head-set change can flip the layout:
    /// at 1024 heads the projected table is exactly 4 MiB, so it stays
    /// dense; one more head turns it hub, and losing that head turns it
    /// dense again. Each advance equals a fresh build, bytes included.
    #[test]
    fn auto_layout_flips_across_a_head_set_change() {
        let side = 32usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); side * side];
        for a in 0..side * side {
            if a % side + 1 < side {
                set_link(&mut adj, a, a + 1, Some(1 + (a % 3) as u32));
            }
            if a + side < side * side {
                set_link(&mut adj, a, a + side, Some(1 + (a / side % 2) as u32));
            }
        }
        assert_eq!(projected_dense_bytes(adj.len()), AUTO_HUB_THRESHOLD_BYTES);
        let ids: Vec<u32> = (0..adj.len() as u32).map(|i| 2 * i).collect();
        // Head 1001 lands at slot 501, between heads 1000 and 1002.
        let mut gained_ids = ids.clone();
        gained_ids.insert(501, 1001);
        let mut gained: Vec<Vec<(u32, u32)>> = adj
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(t, w)| (t + u32::from(t >= 501), w))
                    .collect()
            })
            .collect();
        gained.insert(501, Vec::new());
        set_link(&mut gained, 501, 500, Some(2));
        set_link(&mut gained, 501, 502, Some(1));
        let (off, to, hops) = to_csr(&adj);
        let grid = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let (off, to, hops) = to_csr(&gained);
        let plus_one = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut table = Arc::new(InterTable::build(InterMode::Auto, grid));
        assert_eq!(table.layout_name(), "dense");
        for (from, to, from_ids, to_ids, want) in [
            (grid, plus_one, &ids, &gained_ids, InterRepair::HubRebuilt),
            (plus_one, grid, &gained_ids, &ids, InterRepair::DenseRebuilt),
        ] {
            let (old_slots, new_slots, union) = union_slots(from_ids, to_ids);
            let repair = InterTable::advance(
                &mut table,
                InterMode::Auto,
                Some((&old_slots, &new_slots, union)),
                from,
                to,
                Parallelism::serial(),
                &Metrics::disabled(),
            );
            assert_eq!(repair, want);
            let fresh = InterTable::build(InterMode::Auto, to);
            assert_eq!(&*table, &fresh, "{want:?}: advanced table diverged");
            assert_eq!(table.memory_bytes(), fresh.memory_bytes(), "{want:?}");
        }
        assert_eq!(table.layout_name(), "dense");
    }

    /// Sets (`Some(w)`) or removes (`None`) the link `a`–`b` in both
    /// rows of `adj`.
    fn set_link(adj: &mut [Vec<(u32, u32)>], a: usize, b: usize, w: Option<u32>) {
        for (x, y) in [(a, b), (b, a)] {
            adj[x].retain(|&(t, _)| t as usize != y);
            if let Some(w) = w {
                adj[x].push((y as u32, w));
            }
        }
    }

    /// Every link `(a, b, w)` with `a < b`.
    fn links(adj: &[Vec<(u32, u32)>]) -> Vec<(usize, usize, u32)> {
        let mut out = Vec::new();
        for (a, row) in adj.iter().enumerate() {
            out.extend(
                row.iter()
                    .filter(|&&(b, _)| b as usize > a)
                    .map(|&(b, w)| (a, b as usize, w)),
            );
        }
        out.sort_unstable();
        out
    }

    /// Component id per head.
    fn components(adj: &[Vec<(u32, u32)>]) -> Vec<usize> {
        let mut comp = vec![usize::MAX; adj.len()];
        for root in 0..adj.len() {
            if comp[root] != usize::MAX {
                continue;
            }
            comp[root] = root;
            let mut stack = vec![root];
            while let Some(u) = stack.pop() {
                for &(v, _) in &adj[u] {
                    if comp[v as usize] == usize::MAX {
                        comp[v as usize] = root;
                        stack.push(v as usize);
                    }
                }
            }
        }
        comp
    }

    /// Applies one random backbone edit of the seven kinds the dense
    /// repair must handle: add, remove, raise, lower, isolate a head,
    /// split a component (drop every link between the first and second
    /// half of its BFS order), merge two components (one to three new
    /// links). An edit that does not apply falls through to adding a
    /// link.
    fn random_edit(rng: &mut impl rand::Rng, adj: &mut [Vec<(u32, u32)>], max_w: u32) {
        let h = adj.len();
        let all = links(adj);
        fn pick<R: rand::Rng>(rng: &mut R, of: &[(usize, usize, u32)]) -> (usize, usize, u32) {
            of[rng.gen_range(0..of.len())]
        }
        match rng.gen_range(0..7) {
            1 if !all.is_empty() => {
                let (a, b, _) = pick(rng, &all);
                set_link(adj, a, b, None);
                return;
            }
            2 => {
                let raisable: Vec<_> = all.iter().copied().filter(|l| l.2 < max_w).collect();
                if !raisable.is_empty() {
                    let (a, b, w) = pick(rng, &raisable);
                    set_link(adj, a, b, Some(rng.gen_range(w + 1..=max_w)));
                    return;
                }
            }
            3 => {
                let lowerable: Vec<_> = all.iter().copied().filter(|l| l.2 > 1).collect();
                if !lowerable.is_empty() {
                    let (a, b, w) = pick(rng, &lowerable);
                    set_link(adj, a, b, Some(rng.gen_range(1..w)));
                    return;
                }
            }
            4 if !all.is_empty() => {
                let (a, _, _) = pick(rng, &all);
                for (b, _) in adj[a].clone() {
                    set_link(adj, a, b as usize, None);
                }
                return;
            }
            5 if !all.is_empty() => {
                let (root, _, _) = pick(rng, &all);
                let mut order = vec![root];
                let mut seen = vec![false; h];
                seen[root] = true;
                let mut i = 0;
                while i < order.len() {
                    for &(v, _) in &adj[order[i]] {
                        if !std::mem::replace(&mut seen[v as usize], true) {
                            order.push(v as usize);
                        }
                    }
                    i += 1;
                }
                let mut first = vec![false; h];
                for &u in &order[..order.len() / 2] {
                    first[u] = true;
                }
                for (a, b, _) in all {
                    if seen[a] && first[a] != first[b] {
                        set_link(adj, a, b, None);
                    }
                }
                return;
            }
            6 => {
                let comp = components(adj);
                let mut roots: Vec<usize> = comp.clone();
                roots.sort_unstable();
                roots.dedup();
                if roots.len() >= 2 {
                    let (ra, rb) = (roots[0], roots[rng.gen_range(1..roots.len())]);
                    let side = |r: usize| (0..h).filter(|&v| comp[v] == r).collect::<Vec<_>>();
                    let (sa, sb) = (side(ra), side(rb));
                    for _ in 0..rng.gen_range(1..=3) {
                        let a = sa[rng.gen_range(0..sa.len())];
                        let b = sb[rng.gen_range(0..sb.len())];
                        set_link(adj, a, b, Some(rng.gen_range(1..=max_w)));
                    }
                    return;
                }
            }
            _ => {}
        }
        let a = rng.gen_range(0..h);
        let b = rng.gen_range(0..h);
        if a != b {
            set_link(adj, a, b, Some(rng.gen_range(1..=max_w)));
        }
    }

    /// Adds a head (a fresh ID not in `ids`, at its sorted place) with
    /// zero to three links, or removes a random head with its links —
    /// the head-set edits, applied to `ids` and `adj` in step.
    fn random_head_edit(
        rng: &mut impl rand::Rng,
        ids: &mut Vec<u32>,
        adj: &mut Vec<Vec<(u32, u32)>>,
        max_w: u32,
    ) {
        let h = ids.len();
        if h > 1 && rng.gen_bool(0.5) {
            remove_head(ids, adj, rng.gen_range(0..h));
            return;
        }
        let id = loop {
            let id = rng.gen_range(0..4 * (h as u32 + 4));
            if ids.binary_search(&id).is_err() {
                break id;
            }
        };
        let at = ids.binary_search(&id).unwrap_err();
        ids.insert(at, id);
        for row in adj.iter_mut() {
            for (t, _) in row.iter_mut() {
                *t += u32::from(*t as usize >= at);
            }
        }
        adj.insert(at, Vec::new());
        for _ in 0..rng.gen_range(0..=3usize.min(h)) {
            let b = rng.gen_range(0..h + 1);
            if b != at {
                set_link(adj, at, b, Some(rng.gen_range(1..=max_w)));
            }
        }
    }

    /// Removes the head at slot `gone` with its links from `ids` and
    /// `adj`, renumbering the slots above it.
    fn remove_head(ids: &mut Vec<u32>, adj: &mut Vec<Vec<(u32, u32)>>, gone: usize) {
        ids.remove(gone);
        adj.remove(gone);
        for row in adj.iter_mut() {
            row.retain(|&(t, _)| t as usize != gone);
            for (t, _) in row.iter_mut() {
                *t -= u32::from(*t as usize > gone);
            }
        }
    }

    /// Each slot's place in the union of two ascending ID lists, and the
    /// union's size.
    fn union_slots(old: &[u32], new: &[u32]) -> (Vec<u32>, Vec<u32>, usize) {
        let mut union: Vec<u32> = old.iter().chain(new).copied().collect();
        union.sort_unstable();
        union.dedup();
        let place = |ids: &[u32]| {
            ids.iter()
                .map(|id| union.binary_search(id).expect("in the union") as u32)
                .collect()
        };
        (place(old), place(new), union.len())
    }

    /// `adj` relabelled into a slot space of `union` slots.
    fn lift_adj(adj: &[Vec<(u32, u32)>], slots: &[u32], union: usize) -> Vec<Vec<(u32, u32)>> {
        let mut out = vec![Vec::new(); union];
        for (row, &x) in adj.iter().zip(slots) {
            out[x as usize] = row.iter().map(|&(t, w)| (slots[t as usize], w)).collect();
        }
        out
    }

    /// The exact distance matrix of `adj`, by a fresh build.
    fn fresh_dist(adj: &[Vec<(u32, u32)>]) -> Vec<u32> {
        let (off, to, hops) = to_csr(adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let InterTable::Dense { dist, .. } = InterTable::build(InterMode::Dense, csr) else {
            unreachable!("dense mode builds the matrix")
        };
        dist
    }

    /// The `(rows_swept, cells_settled)` a dense repair from `before` to
    /// `after` must report, worked out independently, each removal on a
    /// fresh matrix of the backbone that still holds it and every later
    /// one. Removals go in repair order: the links of each `lost` head
    /// (ascending), taken out at once, then every other removed link
    /// (ascending). Every target `t` is scanned, so the model also
    /// checks that the repair's scan filters drop no marked cell.
    ///
    /// - A link `(u, v, w)`: the sources are the smaller witness-thinned
    ///   side — `s` with `dist(u, s) + w = dist(v, s)` and no other link
    ///   `(x, v, w_x)` of `after` or a later removal with `dist(x, s) +
    ///   w_x = dist(v, s)`, or the mirror, `S_u` on a tie — and the
    ///   centre `c` is the sources' far end.
    /// - A lost head `ℓ` with two or more links: the centre is `ℓ`. Each
    ///   head of its component has the set of links `(y, w_y)` with
    ///   `dist(s, y) + w_y = dist(s, ℓ)`; the groups of equal sets,
    ///   largest first (then by set), are kept out of the sources while
    ///   each shares a link with itself and with every group kept out.
    ///
    /// Each source counts its targets `t` with `dist(s, c) + dist(c, t)
    /// = dist(s, t)`, and is a row when it has one; once the next
    /// removal would take the cells past `h²`, a build's `h` rows and
    /// `h²` cells more.
    fn expected_repair(
        before: &[Vec<(u32, u32)>],
        after: &[Vec<(u32, u32)>],
        lost: &[usize],
    ) -> InterRepair {
        let h = after.len();
        let new = links(after);
        let lost_end = |&(a, b, _): &(usize, usize, u32)| {
            [a, b]
                .into_iter()
                .find(|x| lost.contains(x))
                .unwrap_or(usize::MAX)
        };
        let mut removed: Vec<_> = links(before)
            .into_iter()
            .filter(|l| !new.contains(l))
            .collect();
        removed.sort_by_key(|l| (lost_end(l), *l));
        let (mut rows, mut cells) = (0, 0);
        let mut j = 0;
        while j < removed.len() {
            let vertex = lost_end(&removed[j]);
            let end = if vertex == usize::MAX {
                j + 1
            } else {
                j + removed[j..]
                    .iter()
                    .take_while(|l| lost_end(l) == vertex)
                    .count()
            };
            let mut adj = after.to_vec();
            for &(a, b, x) in &removed[j..] {
                adj[a].push((b as u32, x));
                adj[b].push((a as u32, x));
            }
            let dist = fresh_dist(&adj);
            let d = |a: usize, b: usize| dist[a * h + b];
            let (sources, c): (Vec<usize>, usize) = if vertex == usize::MAX {
                let (u, v, w) = removed[j];
                // The links at `end` once `(u, v, w)` is out.
                let links_at = |end: usize| {
                    let mut at: Vec<(usize, u32)> =
                        after[end].iter().map(|&(x, wx)| (x as usize, wx)).collect();
                    for &(a, b, x) in &removed[j + 1..] {
                        if a == end {
                            at.push((b, x));
                        } else if b == end {
                            at.push((a, x));
                        }
                    }
                    at
                };
                let side = |near: usize, far: usize| {
                    let witnesses = links_at(far);
                    (0..h)
                        .filter(|&s| d(near, s) != FAR && d(near, s) + w == d(far, s))
                        .filter(|&s| {
                            !witnesses
                                .iter()
                                .any(|&(x, wx)| d(x, s) != FAR && d(x, s) + wx == d(far, s))
                        })
                        .collect::<Vec<_>>()
                };
                let (side_u, side_v) = (side(u, v), side(v, u));
                if side_u.len() <= side_v.len() {
                    (side_u, v)
                } else {
                    (side_v, u)
                }
            } else if end - j < 2 {
                (Vec::new(), vertex)
            } else {
                let l = vertex;
                let ends: Vec<(usize, u32)> = removed[j..end]
                    .iter()
                    .map(|&(a, b, w)| (if a == l { b } else { a }, w))
                    .collect();
                let mut groups = std::collections::BTreeMap::<u64, Vec<usize>>::new();
                for t in (0..h).filter(|&t| t != l && d(l, t) != FAR) {
                    let set = (0..ends.len())
                        .filter(|&i| ends.len() <= 64 && d(ends[i].0, t) + ends[i].1 == d(l, t))
                        .fold(0u64, |set, i| set | 1 << i);
                    groups.entry(set).or_default().push(t);
                }
                let mut order: Vec<(u64, Vec<usize>)> = groups.into_iter().collect();
                order.sort_by_key(|(set, heads)| (std::cmp::Reverse(heads.len()), *set));
                let mut kept_out: Vec<u64> = Vec::new();
                let mut sources = Vec::new();
                for (set, heads) in order {
                    if set != 0 && kept_out.iter().all(|o| o & set != 0) {
                        kept_out.push(set);
                    } else {
                        sources.extend(heads);
                    }
                }
                (sources, l)
            };
            let marked: Vec<usize> = sources
                .iter()
                .map(|&s| {
                    (0..h)
                        .filter(|&t| vertex == usize::MAX || t != vertex)
                        .filter(|&t| {
                            d(s, c) != FAR && d(c, t) != FAR && d(s, c) + d(c, t) == d(s, t)
                        })
                        .count()
                })
                .collect();
            let settled: usize = marked.iter().sum();
            if cells + settled > h * h {
                rows += h;
                cells += h * h;
                break;
            }
            rows += marked.iter().filter(|&&m| m > 0).count();
            cells += settled;
            j = end;
        }
        InterRepair::DenseRepaired {
            rows_swept: rows,
            cells_settled: cells,
        }
    }

    /// The body of the edit-chain proptest: a random backbone of `h`
    /// heads, then `edits` edits of every kind — the seven link edits
    /// of [`random_edit`] and, one time in four, a head gained or lost
    /// ([`random_head_edit`]) — each repaired in place and checked
    /// against a fresh build, the walk oracle and the rows and cells model.
    fn check_edit_chain(seed: u64, h: usize, k: u32, edits: usize) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let max_w = 2 * k + 1;
        let p = (2.5 / h as f64).min(1.0);
        let mut adj = random_adj(&mut rng, h, p, max_w);
        let mut ids: Vec<u32> = (0..h as u32).map(|i| 2 * i).collect();
        let mut scratch = InterScratch::new();
        let (off, to, hops) = to_csr(&adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut table = Arc::new(InterTable::build(InterMode::Dense, csr));
        for edit in 0..edits {
            let (before, before_ids) = (adj.clone(), ids.clone());
            if rng.gen_range(0..4) == 0 {
                random_head_edit(&mut rng, &mut ids, &mut adj, max_w);
            } else {
                random_edit(&mut rng, &mut adj, max_w);
            }
            let h = adj.len();
            let (old_off, old_to, old_hops) = to_csr(&before);
            let (off, to, hops) = to_csr(&adj);
            let old = CsrView {
                off: &old_off,
                to: &old_to,
                hops: &old_hops,
            };
            let csr = CsrView {
                off: &off,
                to: &to,
                hops: &hops,
            };
            let heads = (ids != before_ids).then(|| union_slots(&before_ids, &ids));
            let repair = InterTable::advance(
                &mut table,
                InterMode::Dense,
                heads.as_ref().map(|(o, n, union)| (&o[..], &n[..], *union)),
                old,
                csr,
                Parallelism::serial(),
                &Metrics::disabled(),
            );
            let expected = match &heads {
                None if links(&before) == links(&adj) => InterRepair::Unchanged,
                None => expected_repair(&before, &adj, &[]),
                Some((old_slots, new_slots, union)) => {
                    let lost: Vec<usize> = old_slots
                        .iter()
                        .filter(|x| !new_slots.contains(x))
                        .map(|&x| x as usize)
                        .collect();
                    expected_repair(
                        &lift_adj(&before, old_slots, *union),
                        &lift_adj(&adj, new_slots, *union),
                        &lost,
                    )
                }
            };
            let fresh = InterTable::build(InterMode::Dense, csr);
            assert_eq!(&*table, &fresh, "edit {edit}: repaired matrix diverged");
            assert_eq!(
                table.memory_bytes(),
                fresh.memory_bytes(),
                "edit {edit}: table bytes"
            );
            let oracle = all_pairs_next_hops(csr, &mut scratch);
            for s in 0..h {
                for t in 0..h {
                    assert_eq!(
                        facade_walk(&table, s, t, csr),
                        table_walk(&oracle, h, s, t),
                        "edit {edit}: walk {s} -> {t}"
                    );
                }
            }
            assert_eq!(
                repair, expected,
                "edit {edit}: rows swept and cells settled"
            );
        }
    }

    /// A backbone of `h` heads with the links `(a, b, w)`.
    fn backbone(h: usize, with: &[(usize, usize, u32)]) -> Vec<Vec<(u32, u32)>> {
        let mut adj = vec![Vec::new(); h];
        for &(a, b, w) in with {
            set_link(&mut adj, a, b, Some(w));
        }
        adj
    }

    /// Advances a dense table built on `before` (heads `ids`) to `after`
    /// (heads `new_ids`), checks it against a fresh build, bytes
    /// included, and returns it with what the repair reports.
    fn advance_dense(
        before: &[Vec<(u32, u32)>],
        ids: &[u32],
        after: &[Vec<(u32, u32)>],
        new_ids: &[u32],
    ) -> (InterTable, InterRepair) {
        let (old_off, old_to, old_hops) = to_csr(before);
        let (off, to, hops) = to_csr(after);
        let old = CsrView {
            off: &old_off,
            to: &old_to,
            hops: &old_hops,
        };
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut table = Arc::new(InterTable::build(InterMode::Dense, old));
        let heads = (ids != new_ids).then(|| union_slots(ids, new_ids));
        let repair = InterTable::advance(
            &mut table,
            InterMode::Dense,
            heads.as_ref().map(|(o, n, union)| (&o[..], &n[..], *union)),
            old,
            csr,
            Parallelism::serial(),
            &Metrics::disabled(),
        );
        let fresh = InterTable::build(InterMode::Dense, csr);
        assert_eq!(*table, fresh, "repaired matrix diverged");
        assert_eq!(table.memory_bytes(), fresh.memory_bytes());
        (Arc::unwrap_or_clone(table), repair)
    }

    fn repaired(rows_swept: usize, cells_settled: usize) -> InterRepair {
        InterRepair::DenseRepaired {
            rows_swept,
            cells_settled,
        }
    }

    /// `0 – 2` (weight 2) ties with `0 – 1 – 2`: each side of the link
    /// is witnessed by the other route, so taking it out settles no cell.
    #[test]
    fn tied_link_removal_settles_no_cell() {
        let before = backbone(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 2)]);
        let after = backbone(3, &[(0, 1, 1), (1, 2, 1)]);
        let ids = [0, 1, 2];
        let (_, repair) = advance_dense(&before, &ids, &after, &ids);
        assert_eq!(repair, repaired(0, 0));
    }

    /// Cutting the bridge of `0 – 1 – 2 – 3` settles the two sources of
    /// the `{0, 1}` side against both targets of `{2, 3}`, and every
    /// cell across the cut, in both orientations, ends [`FAR`].
    #[test]
    fn bridge_removal_sends_both_sides_far() {
        let before = backbone(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 1)]);
        let after = backbone(4, &[(0, 1, 1), (2, 3, 1)]);
        let ids = [0, 1, 2, 3];
        let (table, repair) = advance_dense(&before, &ids, &after, &ids);
        assert_eq!(repair, repaired(2, 4));
        let InterTable::Dense { h, dist } = table else {
            unreachable!("a dense repair keeps the dense layout")
        };
        for (s, t) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            assert_eq!(dist[s * h + t], FAR, "{s} -> {t}");
            assert_eq!(dist[t * h + s], FAR, "{t} -> {s}");
        }
        assert_eq!(
            (dist[1], dist[2 * h + 3]),
            (1, 1),
            "each side keeps its link"
        );
    }

    /// A lost leaf head lies inside no shortest route: its vertex
    /// removal settles nothing, and its row is never repaired.
    #[test]
    fn lost_leaf_head_settles_nothing() {
        let ids = vec![0, 2, 4, 6];
        let before = backbone(4, &[(0, 1, 1), (1, 2, 2), (1, 3, 3)]);
        let (mut new_ids, mut after) = (ids.clone(), before.clone());
        remove_head(&mut new_ids, &mut after, 3);
        let (_, repair) = advance_dense(&before, &ids, &after, &new_ids);
        assert_eq!(repair, repaired(0, 0));
    }

    /// Losing the transit head 1 of `0 – 1 – 2` beside the detour
    /// `0 – 3 – 4 – 2`: the component splits into the heads entering 1
    /// from 0 (`{0, 3}`) and from 2 (`{2, 4}`); ties go to the lower
    /// entry set, so `{2, 4}` are the sources, and only `(2, 0)` routed
    /// across 1. One cell is settled, to the detour's 3 hops.
    #[test]
    fn lost_transit_head_settles_its_smaller_side() {
        let ids = vec![0, 2, 4, 6, 8];
        let before = backbone(5, &[(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (4, 2, 1)]);
        let (mut new_ids, mut after) = (ids.clone(), before.clone());
        remove_head(&mut new_ids, &mut after, 1);
        let (table, repair) = advance_dense(&before, &ids, &after, &new_ids);
        assert_eq!(repair, repaired(1, 1));
        let InterTable::Dense { h, dist } = table else {
            unreachable!("a dense repair keeps the dense layout")
        };
        // Old heads 0 and 2 are new slots 0 and 1.
        assert_eq!((dist[1], dist[h]), (3, 3));
    }

    /// A new head starts isolated, so its first link shortens only its
    /// own row (across the link) and its own column (from the other
    /// side): `O(h)` cells, not `h²`. A second, shorter link to the
    /// next head again shortens only the new head's row and column.
    /// Each insertion leaves the matrix exact.
    #[test]
    fn new_isolated_head_insertions_touch_linear_cells() {
        let h = 41;
        let path: Vec<_> = (0..h - 2).map(|a| (a, a + 1, 1)).collect();
        let mut adj = backbone(h, &path);
        let mut dist = fresh_dist(&adj);
        let (mut snap, mut cols) = (Vec::new(), [Vec::new(), Vec::new()]);
        let z = h - 1;
        for (y, w) in [(0, 2), (1, 1)] {
            let touched = insert_link(&mut dist, h, z, y, w, &mut snap, &mut cols);
            set_link(&mut adj, z, y, Some(w));
            assert_eq!(dist, fresh_dist(&adj), "link {z} - {y}");
            assert!(touched <= 2 * h, "link {z} - {y} touched {touched} cells");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The dense repair is a pure optimization of a fresh build:
        /// through chains of one to eight edits of every kind, on
        /// random backbones of 2–120 heads with link weights `1..=2k+1`
        /// (small weights tie often), the repaired matrix equals a
        /// fresh build's (`PartialEq`, and its bytes) after every edit,
        /// every `(s, t)` walk over it equals the next-hop table
        /// oracle's, and it settled exactly the rows and cells
        /// [`expected_repair`] names — in the union of both head sets
        /// after a head gain or loss.
        #[test]
        fn dense_repair_matches_fresh_build_through_edit_chains(
            seed in 0u64..1_000_000,
            h in 2usize..=120,
            k in 1u32..=4,
            edits in 1usize..=8,
        ) {
            check_edit_chain(seed, h, k, edits);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The long tier of the edit-chain proptest (run with
        /// `--ignored`, in release).
        #[test]
        #[ignore = "long tier: cargo test --release -- --ignored"]
        fn dense_repair_matches_fresh_build_through_edit_chains_long(
            seed in 0u64..1_000_000,
            h in 2usize..=120,
            k in 1u32..=4,
            edits in 1usize..=8,
        ) {
            check_edit_chain(seed, h, k, edits);
        }
    }
}
