//! Hub-labeling (2-level landmark) index over the backbone `G''` — the
//! sub-quadratic alternative to the dense `h × h` next-hop matrix
//! behind the crate-private `InterTable` facade.
//!
//! # Construction: rank-restricted pruned sweeps
//!
//! Heads are ordered by importance — a recursive BFS-level separator
//! decomposition of the unweighted link adjacency (see `hub_order`:
//! coarse separators rank highest, degree and a deterministic slot
//! scramble break ties within a band) — and every head becomes a hub.
//! The sweep from hub `c` is a Dijkstra whose **interior** is
//! restricted to heads strictly less important than `c`:
//! more-important heads are settled (so the frontier stays bounded)
//! but never expanded. The sweep therefore computes
//!
//! ```text
//! d_c(v) = min { len(P) : P is a c ⇝ v path whose interior heads all
//!                rank below c }
//! ```
//!
//! and records the entry `(hub = c, dist = d_c(v))` at every reached
//! `v` that ranks below `c` (plus `c`'s own zero self-entry). Entries
//! at more-important heads are skipped: they can never be the witness
//! of any query (see below), so storing them would be pure bloat.
//!
//! # Exactness
//!
//! For any connected pair `(u, v)` let `c*` be the most important head
//! on some shortest `u ⇝ v` route. Both legs `c* ⇝ u` and `c* ⇝ v` are
//! shortest subpaths whose interiors rank below `c*`, so the sweep
//! from `c*` records exact leg distances at `u` and `v` (or a
//! self-entry when one endpoint *is* `c*`). Hence
//!
//! ```text
//! dist(u, v) = min over common hubs c of d_c(u) + d_c(v)
//! ```
//!
//! meets `len(shortest route)` at `c*`, and never dips below it
//! because every `d_c` is a real walk length (`d_c ≥ true distance`,
//! then the triangle inequality). Disconnected pairs share no hub.
//! Exact distances are what let `HubIndex::walk` reproduce the
//! canonical dense rule bit-for-bit: at every hop, scan `s`'s CSR row
//! (ascending slot order) and take the first neighbor `u` with
//! `w(s, u) + dist(u, t) = dist(s, t)`.
//!
//! # Serving: one target-row expansion per walk
//!
//! A walk toward `t` writes `row(t)` once into a hub-indexed buffer
//! (`buf[c] = d_c(t)`, FAR elsewhere), reads `dt = dist(s, t)` off one
//! scan of `row(s)`, and from then on carries `dt −= w` hop by hop
//! instead of re-merging. Testing a neighbor `u` is one scan of
//! `row(u)` for an entry `(c, d)` with `d + buf[c] = dt − w`, and the
//! scan may **stop at the first match**: every sum `d + buf[c]` is a
//! real `u ⇝ t` walk length, so each is `≥ dist(u, t) ≥ dt − w` (the
//! triangle inequality through `s`), and a sum equal to `dt − w` pins
//! `dist(u, t) = dt − w` exactly. No sum can undershoot, so no later
//! entry can change the verdict.
//!
//! The buffer is a per-thread `thread_local!` that grows to the
//! largest `h` served on the thread. **Invariant: it is all-FAR
//! between walks.** Only `row(t)`'s hubs are ever written, and a drop
//! guard resets exactly those on every exit path (reached, unreachable,
//! unwinding), so walks over different plans — of any `h` — on one
//! thread never see each other's entries.
//!
//! # Why repair is possible at all
//!
//! Pruning depends only on the **static rank order** — never on other
//! hubs' labels — so each hub's entry set is a pure function of
//! `(backbone, order)` and hubs can be re-swept independently without
//! the cascades query-pruned labelings (PLL) suffer. A hub `c` can
//! only be affected by a changed edge `(x, y)` if some affected
//! restricted path crosses that edge, which forces `x` (or `y`) to be
//! `c` itself or an interior/terminal head ranking below `c` — and in
//! either case `x` holds an entry for `c` in the **old** labels (for
//! additions, apply the argument to the first changed edge along the
//! new path: its near endpoint is reached via old edges only). That
//! yields the sound dirty test mirroring `HeadLabels::dirty_slots`:
//!
//! > hub `c` is dirty ⟺ some changed-edge endpoint's old label row
//! > contains `c`.
//!
//! Clean hubs' entry sets are untouched, so re-sweeping exactly the
//! dirty hubs and splicing rows segment-wise reproduces a fresh build
//! **structurally** (`PartialEq`) — provided the importance order
//! itself survived, which `HubIndex::repair` verifies by
//! recomputing it (the order reads only the link *adjacency*, so
//! weight-only churn always takes the cheap path).

use super::inter::{CsrView, InterScratch, FAR};
use adhoc_graph::par::{self, Parallelism};
use std::cell::Cell;

/// Dirty-hub fraction above which `HubIndex::repair` declines and
/// the caller rebuilds from scratch — same 50% knee as the label
/// pipeline's `DIRTY_FRACTION_FALLBACK`.
pub const HUB_DIRTY_FRACTION_FALLBACK: f64 = 0.5;

/// Flat-arena hub-label index: per-head rows of `(hub, dist)` entries,
/// CSR-packed and sorted by hub slot so queries are two-pointer
/// merges. Structural equality (`PartialEq`) is meaningful: a repaired
/// index equals a freshly built one entry-for-entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubIndex {
    h: usize,
    /// Head slots in importance order (separator decomposition,
    /// coarsest band first — see [`hub_order`]).
    order: Vec<u32>,
    /// `rank[slot]` = position of `slot` in `order` (0 = most important).
    rank: Vec<u32>,
    /// Row offsets, `h + 1` entries.
    label_off: Vec<u32>,
    /// Hub slots per row, ascending.
    label_hub: Vec<u32>,
    /// Restricted distance to the matching hub.
    label_dist: Vec<u32>,
}

/// Fixed bijective scramble (splitmix64 finalizer) used as the
/// importance tie break within a separator group. Backbone degrees are
/// near-uniform on geometric graphs and head slots correlate with
/// spatial position, so breaking ties by raw slot would rank heads
/// along a spatial axis; scrambled ties behave like random ranks
/// instead.
fn mix(slot: u32) -> u64 {
    let mut z = u64::from(slot).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parts at or below this size skip the separator machinery and are
/// emitted whole (degree desc, scrambled slot).
const SEPARATOR_LEAF: usize = 8;

/// Importance order over the backbone: a recursive **BFS-level
/// separator decomposition** (centroid style — coarse separators are
/// the most important hubs, leaves the least).
///
/// Backbone graphs here are geometric meshes — grid-like metrics with
/// `Θ(√h)`-wide balanced separators and *no* degree hierarchy for a
/// degree ordering to exploit (degree ordering degenerates to a random
/// order, whose restricted trees overlap massively and blow labels up
/// ~10×). Separator ranks instead bound every label row by the
/// separator widths of the enclosing cells, `Σᵢ √(h/2ⁱ) = O(√h)`:
///
/// 1. a part's BFS (from the far end of a double sweep, within the
///    part) is cut at the **median visit level**; that level's nodes
///    are the next most important hubs (ordered degree desc, scrambled
///    slot within the group);
/// 2. removing them splits the part; the remainders recurse,
///    breadth-first so sibling separators share a coarseness tier.
///
/// The decomposition reads only the **link adjacency**, never the
/// weights, so weight-only churn recomputes the identical order and
/// [`HubIndex::repair`] keeps its cheap path (the order check mirrors
/// how degree-based ranks survived weight changes).
fn hub_order(csr: CsrView<'_>) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX;
    const DONE: u32 = u32::MAX - 1;
    let h = csr.head_count();
    let mut order: Vec<u32> = Vec::with_capacity(h);
    if h == 0 {
        return order;
    }
    // Part membership by token; `level`/`seen` are per-BFS scratch.
    let mut token = vec![UNSEEN; h];
    let mut level = vec![0u32; h];
    let mut seen = vec![0u32; h];
    let mut epoch = 0u32;
    let mut bfs = std::collections::VecDeque::new();
    let mut vis: Vec<u32> = Vec::with_capacity(h);
    // One unweighted BFS from `s` over nodes with `token == t`, filling
    // `vis` (visit order) and `level`.
    let mut sweep = |s: u32,
                     t: u32,
                     epoch: u32,
                     token: &[u32],
                     level: &mut [u32],
                     seen: &mut [u32],
                     vis: &mut Vec<u32>| {
        vis.clear();
        bfs.clear();
        seen[s as usize] = epoch;
        level[s as usize] = 0;
        bfs.push_back(s);
        while let Some(u) = bfs.pop_front() {
            vis.push(u);
            for (v, _) in csr.row(u as usize) {
                if token[v as usize] == t && seen[v as usize] != epoch {
                    seen[v as usize] = epoch;
                    level[v as usize] = level[u as usize] + 1;
                    bfs.push_back(v);
                }
            }
        }
    };
    let emit = |part: &mut Vec<u32>, order: &mut Vec<u32>| {
        part.sort_unstable_by_key(|&s| (std::cmp::Reverse(csr.degree(s as usize)), mix(s)));
        order.append(part);
    };
    // Seed the worklist with the connected components, smallest slot
    // first; FIFO processing keeps coarse separators ahead of fine.
    let mut parts: std::collections::VecDeque<(Vec<u32>, u32)> = std::collections::VecDeque::new();
    let mut next_token = 0u32;
    for s in 0..h as u32 {
        if token[s as usize] != UNSEEN {
            continue;
        }
        let t = next_token;
        next_token += 1;
        let mut comp = vec![s];
        token[s as usize] = t;
        let mut i = 0usize;
        while i < comp.len() {
            let u = comp[i];
            i += 1;
            for (v, _) in csr.row(u as usize) {
                if token[v as usize] == UNSEEN {
                    token[v as usize] = t;
                    comp.push(v);
                }
            }
        }
        parts.push_back((comp, t));
    }
    while let Some((mut part, t)) = parts.pop_front() {
        if part.len() <= SEPARATOR_LEAF {
            for &v in &part {
                token[v as usize] = DONE;
            }
            emit(&mut part, &mut order);
            continue;
        }
        // Double sweep: BFS from the smallest slot, restart from the
        // farthest node found (deterministic ties: smallest scramble).
        let s0 = *part.iter().min().expect("part is non-empty");
        epoch += 1;
        sweep(s0, t, epoch, &token, &mut level, &mut seen, &mut vis);
        let far = *vis
            .iter()
            .max_by_key(|&&v| (level[v as usize], std::cmp::Reverse(mix(v))))
            .expect("part is non-empty");
        epoch += 1;
        sweep(far, t, epoch, &token, &mut level, &mut seen, &mut vis);
        debug_assert_eq!(vis.len(), part.len(), "part must be connected");
        // Cut at the median visit level; that band separates the
        // closer half from the farther.
        let cut = level[vis[vis.len() / 2] as usize];
        let mut sep: Vec<u32> = part
            .iter()
            .copied()
            .filter(|&v| level[v as usize] == cut)
            .collect();
        if sep.len() == part.len() {
            for &v in &part {
                token[v as usize] = DONE;
            }
            emit(&mut part, &mut order);
            continue;
        }
        for &v in &sep {
            token[v as usize] = DONE;
        }
        emit(&mut sep, &mut order);
        // Flood-fill the remainders (still tokened `t`) into new
        // parts, scanning in part order for determinism.
        for &v in &part {
            if token[v as usize] != t {
                continue; // separator, or claimed by a sibling below
            }
            let nt = next_token;
            next_token += 1;
            let mut comp = vec![v];
            token[v as usize] = nt;
            let mut i = 0usize;
            while i < comp.len() {
                let u = comp[i];
                i += 1;
                for (w, _) in csr.row(u as usize) {
                    if token[w as usize] == t {
                        token[w as usize] = nt;
                        comp.push(w);
                    }
                }
            }
            parts.push_back((comp, nt));
        }
    }
    debug_assert_eq!(order.len(), h);
    order
}

impl HubIndex {
    /// Serial [`Self::build_with`] (test convenience).
    #[cfg(test)]
    pub(crate) fn build(csr: CsrView<'_>, scratch: &mut InterScratch) -> HubIndex {
        HubIndex::build_with(csr, scratch, Parallelism::serial())
    }

    /// Builds the index for `csr`: one rank-restricted sweep per head,
    /// most important first, entries packed into the CSR arena.
    ///
    /// Over a worker pool: hubs are chunked in rank
    /// order and swept with per-worker scratch. Each hub's entry set is
    /// a pure function of `(backbone, order)` — the same independence
    /// that makes repair possible — and the entry sort key `(node, hub)`
    /// is unique per entry, so the normalizing `sort_unstable` makes
    /// the packed arena bit-identical for any worker count.
    pub(crate) fn build_with(
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        par: Parallelism,
    ) -> HubIndex {
        let h = csr.head_count();
        let order = hub_order(csr);
        let mut rank = vec![0u32; h];
        for (r, &slot) in order.iter().enumerate() {
            rank[slot as usize] = r as u32;
        }
        let entries = sweep_hubs(csr, &order, &rank, scratch, par);
        let mut index = HubIndex {
            h,
            order,
            rank,
            label_off: Vec::new(),
            label_hub: Vec::new(),
            label_dist: Vec::new(),
        };
        index.fill_arena(&entries);
        index
    }

    fn fill_arena(&mut self, entries: &[(u32, u32, u32)]) {
        self.label_off.clear();
        self.label_off.reserve(self.h + 1);
        self.label_hub.clear();
        self.label_hub.reserve(entries.len());
        self.label_dist.clear();
        self.label_dist.reserve(entries.len());
        self.label_off.push(0);
        let mut i = 0usize;
        for v in 0..self.h as u32 {
            while i < entries.len() && entries[i].0 == v {
                self.label_hub.push(entries[i].1);
                self.label_dist.push(entries[i].2);
                i += 1;
            }
            self.label_off.push(self.label_hub.len() as u32);
        }
        debug_assert_eq!(i, entries.len());
    }

    fn row(&self, v: usize) -> (usize, usize) {
        (self.label_off[v] as usize, self.label_off[v + 1] as usize)
    }

    /// Exact backbone distance between heads `u` and `v` ([`FAR`] when
    /// the backbone does not connect them): a two-pointer merge of the
    /// two label rows over their common hubs. The distance oracle the
    /// tests check the labels against; serving goes through
    /// [`Self::walk`].
    #[cfg(test)]
    pub(crate) fn dist(&self, u: usize, v: usize) -> u32 {
        if u == v {
            return 0;
        }
        let (mut i, iend) = self.row(u);
        let (mut j, jend) = self.row(v);
        let mut best = FAR;
        while i < iend && j < jend {
            match self.label_hub[i].cmp(&self.label_hub[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = self.label_dist[i] + self.label_dist[j];
                    best = best.min(d);
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Walks the canonical route `s ⇝ t`, calling `hop(i)` with the CSR
    /// position of every link taken; `false` (no hop taken) when the
    /// backbone does not connect them.
    ///
    /// `row(t)` is expanded once into the thread's [`TargetRow`] buffer
    /// and `dt = dist(s, t)` read off one scan of `row(s)`. Each hop
    /// then scans `s`'s CSR row in ascending slot order and takes the
    /// first neighbor `u` (with `w(s, u) ≤ dt`) whose label row holds
    /// an entry meeting the buffer at exactly `dt − w`, and carries
    /// `dt −= w`. Because label distances are exact and the CSR row is
    /// slot-ascending, every hop is the dense table's, bit for bit.
    pub(crate) fn walk(
        &self,
        s: usize,
        t: usize,
        csr: CsrView<'_>,
        mut hop: impl FnMut(usize),
    ) -> bool {
        if s == t {
            return true;
        }
        let target = TargetRow::expand(self, t);
        let mut dt = target.dist(s);
        if dt == FAR {
            return false;
        }
        let mut s = s;
        while s != t {
            let (lo, hi) = (csr.off[s] as usize, csr.off[s + 1] as usize);
            let next = (lo..hi).find(|&i| {
                let w = csr.hops[i];
                w <= dt && target.meets(csr.to[i] as usize, dt - w)
            });
            let Some(i) = next else {
                debug_assert!(false, "reachable target must have a first-hop witness");
                return false;
            };
            hop(i);
            dt -= csr.hops[i];
            s = csr.to[i] as usize;
        }
        true
    }

    /// Incremental repair after the backbone changed: `changed` holds
    /// the head slots whose CSR rows differ (both endpoints of every
    /// added/removed/re-weighted link) and `csr` is the new backbone.
    ///
    /// Returns `Some(dirty hubs re-swept)` on success. Returns `None`
    /// — caller must rebuild — when the importance order itself
    /// changed (repair could no longer equal a fresh build) or the
    /// dirty fraction crosses [`HUB_DIRTY_FRACTION_FALLBACK`].
    #[cfg(test)]
    pub(crate) fn repair(
        &mut self,
        changed: &[u32],
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
    ) -> Option<usize> {
        self.repair_with(changed, csr, scratch, Parallelism::serial())
    }

    /// As the serial repair, but the dirty-hub re-sweeps fan out across
    /// `par` (see [`Self::build_with`] for why the result is
    /// bit-identical); the dirty test, order check, and segment-wise
    /// splice stay serial.
    pub(crate) fn repair_with(
        &mut self,
        changed: &[u32],
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        par: Parallelism,
    ) -> Option<usize> {
        debug_assert_eq!(self.h, csr.head_count());
        if hub_order(csr) != self.order {
            return None;
        }
        let mut dirty = vec![false; self.h];
        let mut dirty_count = 0usize;
        for &x in changed {
            let (lo, hi) = self.row(x as usize);
            for &c in &self.label_hub[lo..hi] {
                if !dirty[c as usize] {
                    dirty[c as usize] = true;
                    dirty_count += 1;
                }
            }
        }
        if dirty_count == 0 {
            return Some(0);
        }
        if dirty_count as f64 >= HUB_DIRTY_FRACTION_FALLBACK * self.h as f64 {
            return None;
        }
        // Re-sweep exactly the dirty hubs against the new backbone.
        let dirty_hubs: Vec<u32> = self
            .order
            .iter()
            .copied()
            .filter(|&c| dirty[c as usize])
            .collect();
        let fresh = sweep_hubs(csr, &dirty_hubs, &self.rank, scratch, par);
        // Segment-wise splice: per row, drop old dirty-hub entries and
        // merge in the fresh ones (both sides hub-ascending), leaving
        // clean entries byte-identical — the labels.rs clean-row-copy
        // idiom.
        let mut off = Vec::with_capacity(self.h + 1);
        let mut hubs = Vec::with_capacity(self.label_hub.len());
        let mut dists = Vec::with_capacity(self.label_dist.len());
        off.push(0u32);
        let mut fi = 0usize;
        for v in 0..self.h {
            let (lo, hi) = self.row(v);
            let mut oi = lo;
            let fstart = fi;
            while fi < fresh.len() && fresh[fi].0 as usize == v {
                fi += 1;
            }
            let mut fj = fstart;
            loop {
                while oi < hi && dirty[self.label_hub[oi] as usize] {
                    oi += 1;
                }
                let take_old = match (oi < hi, fj < fi) {
                    (false, false) => break,
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => self.label_hub[oi] < fresh[fj].1,
                };
                if take_old {
                    hubs.push(self.label_hub[oi]);
                    dists.push(self.label_dist[oi]);
                    oi += 1;
                } else {
                    hubs.push(fresh[fj].1);
                    dists.push(fresh[fj].2);
                    fj += 1;
                }
            }
            off.push(hubs.len() as u32);
        }
        debug_assert_eq!(fi, fresh.len());
        self.label_off = off;
        self.label_hub = hubs;
        self.label_dist = dists;
        Some(dirty_count)
    }

    /// Number of heads the index covers.
    pub fn head_count(&self) -> usize {
        self.h
    }

    /// Total label entries across all rows (the sub-quadratic quantity
    /// the benches report against `h²`).
    pub fn label_entries(&self) -> usize {
        self.label_hub.len()
    }

    /// Heap bytes of the arenas.
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.order.capacity()
            + self.rank.capacity()
            + self.label_off.capacity()
            + self.label_hub.capacity()
            + self.label_dist.capacity();
        u32s * std::mem::size_of::<u32>()
    }
}

thread_local! {
    /// Hub-indexed `d_c(t)` buffer behind [`TargetRow`], one per
    /// thread: all-[`FAR`] between walks, grown on demand to the
    /// largest `h` served on the thread.
    static TARGET_ROW: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// The walk target's label row expanded into the thread's buffer:
/// `buf[c] = d_c(t)` for every hub `c` in `row(t)`, [`FAR`] elsewhere.
/// Dropping it resets exactly those hubs and hands the buffer back, so
/// the buffer is all-FAR again on every exit path, unwinding included.
/// It is per-query scratch, not index memory.
struct TargetRow<'a> {
    index: &'a HubIndex,
    hubs: &'a [u32],
    buf: Vec<u32>,
}

impl<'a> TargetRow<'a> {
    fn expand(index: &'a HubIndex, t: usize) -> Self {
        let mut buf = TARGET_ROW.take();
        if buf.len() < index.h {
            buf.resize(index.h, FAR);
        }
        let (lo, hi) = index.row(t);
        let hubs = &index.label_hub[lo..hi];
        for (&c, &d) in hubs.iter().zip(&index.label_dist[lo..hi]) {
            buf[c as usize] = d;
        }
        TargetRow { index, hubs, buf }
    }

    /// `v`'s label entries summed against the target's (`FAR` for hubs
    /// the target row lacks): each sum is a real `v ⇝ t` walk length.
    fn sums(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        let (lo, hi) = self.index.row(v);
        self.index.label_hub[lo..hi]
            .iter()
            .zip(&self.index.label_dist[lo..hi])
            .map(|(&c, &d)| d.saturating_add(self.buf[c as usize]))
    }

    /// Exact `dist(v, t)` ([`FAR`] when disconnected).
    fn dist(&self, v: usize) -> u32 {
        self.sums(v).min().unwrap_or(FAR)
    }

    /// Whether `dist(v, t) == want`, given `dist(v, t) ≥ want`: every
    /// sum is at least `dist(v, t)`, so the first sum equal to `want`
    /// settles it and the scan stops there.
    fn meets(&self, v: usize, want: u32) -> bool {
        self.sums(v).any(|d| d == want)
    }
}

impl Drop for TargetRow<'_> {
    fn drop(&mut self) {
        for &c in self.hubs {
            self.buf[c as usize] = FAR;
        }
        TARGET_ROW.set(std::mem::take(&mut self.buf));
    }
}

/// Sweeps every hub in `hubs` and returns the combined entry list,
/// sorted by `(node, hub)` — ready for [`HubIndex::fill_arena`] or the
/// repair splice. Below one thread spawn's worth of work
/// ([`par::work::hub_sweeps`], gated by [`Parallelism::for_work`]) the
/// caller's warm scratch is reused inline; otherwise `hubs` is chunked
/// across scoped workers, each with a fresh [`InterScratch`], and the
/// fragments are concatenated in chunk order before the normalizing
/// sort. Entry keys are unique per `(node, hub)` pair, so the sorted
/// list — and the arena packed from it — is bit-identical for any
/// worker count.
fn sweep_hubs(
    csr: CsrView<'_>,
    hubs: &[u32],
    rank: &[u32],
    scratch: &mut InterScratch,
    par: Parallelism,
) -> Vec<(u32, u32, u32)> {
    let workers = par
        .for_work(par::work::hub_sweeps(hubs.len(), csr.head_count()))
        .workers();
    let mut entries: Vec<(u32, u32, u32)> = if workers == 1 {
        let mut entries = Vec::new();
        for &c in hubs {
            sweep_hub(csr, c, rank, scratch, &mut entries);
        }
        entries
    } else {
        par::scoped_chunks(workers, hubs.len(), hubs, |_, _, chunk: &[u32]| {
            let mut local = InterScratch::new();
            let mut entries = Vec::new();
            for &c in chunk {
                sweep_hub(csr, c, rank, &mut local, &mut entries);
            }
            entries
        })
        .into_iter()
        .flatten()
        .collect()
    };
    entries.sort_unstable();
    entries
}

/// One rank-restricted sweep from hub `c`, appending its `(node, hub,
/// dist)` entries: every reached head ranking below `c`, plus the zero
/// self-entry.
fn sweep_hub(
    csr: CsrView<'_>,
    c: u32,
    rank: &[u32],
    scratch: &mut InterScratch,
    entries: &mut Vec<(u32, u32, u32)>,
) {
    let r = rank[c as usize];
    scratch.sweep(csr, c as usize, Some((rank, r)));
    for &v in scratch.settled() {
        if v == c || rank[v as usize] > r {
            entries.push((v, c, scratch.dist(v as usize)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    struct Backbone {
        off: Vec<u32>,
        to: Vec<u32>,
        hops: Vec<u32>,
        adj: Vec<Vec<(u32, u32)>>,
    }

    impl Backbone {
        fn csr(&self) -> CsrView<'_> {
            CsrView {
                off: &self.off,
                to: &self.to,
                hops: &self.hops,
            }
        }

        fn from_adj(adj: Vec<Vec<(u32, u32)>>) -> Backbone {
            let mut off = vec![0u32];
            let mut to = Vec::new();
            let mut hops = Vec::new();
            for nbrs in &adj {
                let mut sorted = nbrs.clone();
                sorted.sort_unstable();
                for &(t, w) in &sorted {
                    to.push(t);
                    hops.push(w);
                }
                off.push(to.len() as u32);
            }
            Backbone { off, to, hops, adj }
        }

        fn random(rng: &mut StdRng, h: usize, p: f64) -> Backbone {
            let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
            for a in 0..h {
                for b in a + 1..h {
                    if rng.gen_bool(p) {
                        let w = rng.gen_range(1..6u32);
                        adj[a].push((b as u32, w));
                        adj[b].push((a as u32, w));
                    }
                }
            }
            Backbone::from_adj(adj)
        }

        /// Changes one existing undirected edge's weight; returns the
        /// flagged endpoints, or `None` if the graph has no edges.
        fn perturb(&mut self, rng: &mut StdRng) -> Option<Vec<u32>> {
            let edges: Vec<(usize, usize)> = self
                .adj
                .iter()
                .enumerate()
                .flat_map(|(a, nbrs)| {
                    nbrs.iter()
                        .filter(move |&&(b, _)| (b as usize) > a)
                        .map(move |&(b, _)| (a, b as usize))
                })
                .collect();
            if edges.is_empty() {
                return None;
            }
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            let w = rng.gen_range(1..9u32);
            for &(x, y) in &[(a, b), (b, a)] {
                for e in &mut self.adj[x] {
                    if e.0 as usize == y {
                        e.1 = w;
                    }
                }
            }
            let rebuilt = Backbone::from_adj(std::mem::take(&mut self.adj));
            *self = rebuilt;
            Some(vec![a as u32, b as u32])
        }
    }

    /// Plain Dijkstra oracle.
    fn oracle_dist(bb: &Backbone, s: usize) -> Vec<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let h = bb.adj.len();
        let mut dist = vec![FAR; h];
        let mut heap = BinaryHeap::new();
        dist[s] = 0;
        heap.push(Reverse((0u32, s as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &bb.adj[u as usize] {
                if d + w < dist[v as usize] {
                    dist[v as usize] = d + w;
                    heap.push(Reverse((d + w, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn distances_are_exact() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = InterScratch::new();
        for _ in 0..20 {
            let h = rng.gen_range(2..18usize);
            let bb = Backbone::random(&mut rng, h, 0.35);
            let hub = HubIndex::build(bb.csr(), &mut scratch);
            for s in 0..h {
                let want = oracle_dist(&bb, s);
                for (t, &w) in want.iter().enumerate() {
                    assert_eq!(hub.dist(s, t), w, "{s} -> {t}");
                }
            }
        }
    }

    /// Whether a job of `work` units fans out at 2 workers.
    fn fans_out(work: usize) -> bool {
        Parallelism::new(2).for_work(work).workers() == 2
    }

    /// 200 heads put the full build's sweeps above the fan-out gate,
    /// so the multi-worker arms really fan out.
    #[test]
    fn build_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(12);
        let h = 200;
        let bb = Backbone::random(&mut rng, h, 0.02);
        assert!(fans_out(par::work::hub_sweeps(h, h)));
        let a = HubIndex::build(bb.csr(), &mut InterScratch::new());
        let b = HubIndex::build(bb.csr(), &mut InterScratch::new());
        assert_eq!(a, b);
        for workers in [2usize, 3, 8] {
            let par = HubIndex::build_with(
                bb.csr(),
                &mut InterScratch::new(),
                Parallelism::new(workers),
            );
            assert_eq!(a, par, "{workers}-worker build diverged from serial");
        }
    }

    /// Weight changes on a 300-head backbone, accumulated until the
    /// dirty hubs' re-sweeps sit above the fan-out gate; every round
    /// on the way is checked too.
    #[test]
    fn parallel_repair_matches_serial() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = InterScratch::new();
        let h = 300;
        let mut bb = Backbone::random(&mut rng, h, 0.015);
        let baseline = HubIndex::build(bb.csr(), &mut scratch);
        let mut changed = Vec::new();
        let mut fanned_out = false;
        for round in 0..40 {
            changed.extend(bb.perturb(&mut rng).expect("the backbone has links"));
            changed.sort_unstable();
            changed.dedup();
            let mut serial = baseline.clone();
            let want = serial.repair(&changed, bb.csr(), &mut scratch);
            for workers in [2usize, 3, 8] {
                let mut par = baseline.clone();
                let got =
                    par.repair_with(&changed, bb.csr(), &mut scratch, Parallelism::new(workers));
                assert_eq!(got, want, "round {round}: {workers}-worker repair verdict");
                if want.is_some() {
                    assert_eq!(par, serial, "round {round}: {workers}-worker repair arena");
                }
            }
            match want {
                Some(dirty) if fans_out(par::work::hub_sweeps(dirty, h)) => {
                    fanned_out = true;
                    break;
                }
                Some(_) => {}
                None => break,
            }
        }
        assert!(fanned_out, "no repair reached the fan-out gate");
    }

    #[test]
    fn repair_equals_rebuild_after_weight_changes() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = InterScratch::new();
        for round in 0..25 {
            let h = rng.gen_range(3..16usize);
            let mut bb = Backbone::random(&mut rng, h, 0.35);
            let mut hub = HubIndex::build(bb.csr(), &mut scratch);
            for step in 0..4 {
                let Some(changed) = bb.perturb(&mut rng) else {
                    break;
                };
                match hub.repair(&changed, bb.csr(), &mut scratch) {
                    Some(_) => {}
                    None => hub = HubIndex::build(bb.csr(), &mut scratch),
                }
                let fresh = HubIndex::build(bb.csr(), &mut scratch);
                assert_eq!(hub, fresh, "round {round} step {step}");
            }
        }
    }

    #[test]
    fn repair_declines_when_order_changes() {
        // Removing an edge reshapes the link adjacency — here it even
        // splits the backbone — so the separator decomposition moves
        // and repair must hand back a rebuild rather than splice
        // against a stale order.
        let h = 10usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for a in 0..h - 1 {
            adj[a].push((a as u32 + 1, 1));
            adj[a + 1].push((a as u32, 1));
        }
        let bb = Backbone::from_adj(adj.clone());
        let mut scratch = InterScratch::new();
        let mut hub = HubIndex::build(bb.csr(), &mut scratch);
        adj[0].retain(|e| e.0 != 1);
        adj[1].retain(|e| e.0 != 0);
        let split = Backbone::from_adj(adj);
        assert_eq!(hub.repair(&[0, 1], split.csr(), &mut scratch), None);
    }

    #[test]
    fn empty_change_set_is_noop() {
        let mut rng = StdRng::seed_from_u64(15);
        let bb = Backbone::random(&mut rng, 8, 0.4);
        let mut scratch = InterScratch::new();
        let mut hub = HubIndex::build(bb.csr(), &mut scratch);
        let before = hub.clone();
        assert_eq!(hub.repair(&[], bb.csr(), &mut scratch), Some(0));
        assert_eq!(hub, before);
    }

    /// The heads a hub walk visits after `s`, or `None` when it
    /// reports `s ⇝ t` unreachable (which must take no hop).
    fn walk_heads(hub: &HubIndex, s: usize, t: usize, csr: CsrView<'_>) -> Option<Vec<u32>> {
        let mut heads = Vec::new();
        let reached = hub.walk(s, t, csr, |i| heads.push(csr.to[i]));
        if reached {
            Some(heads)
        } else {
            assert!(heads.is_empty(), "unreachable walk {s} -> {t} took hops");
            None
        }
    }

    fn target_row_is_all_far() -> bool {
        let buf = TARGET_ROW.take();
        let clean = buf.iter().all(|&d| d == FAR);
        TARGET_ROW.set(buf);
        clean
    }

    #[test]
    fn disconnected_pairs_share_no_hub() {
        // Two components: {0, 1} and {2}.
        let bb = Backbone::from_adj(vec![vec![(1, 3)], vec![(0, 3)], vec![]]);
        let hub = HubIndex::build(bb.csr(), &mut InterScratch::new());
        assert_eq!(hub.dist(0, 1), 3);
        assert_eq!(hub.dist(0, 2), FAR);
        assert_eq!(walk_heads(&hub, 0, 2, bb.csr()), None);
        assert_eq!(walk_heads(&hub, 2, 2, bb.csr()), Some(vec![]));
        assert_eq!(walk_heads(&hub, 0, 1, bb.csr()), Some(vec![1]));
    }

    /// The thread's target buffer is all-FAR after every exit path:
    /// reached, unreachable, `s == t`, and a hop callback that panics
    /// mid-walk.
    #[test]
    fn target_row_resets_on_every_exit() {
        // Path 0-1-2-3 plus an isolated head 4.
        let bb = Backbone::from_adj(vec![
            vec![(1, 1)],
            vec![(0, 1), (2, 2)],
            vec![(1, 2), (3, 1)],
            vec![(2, 1)],
            vec![],
        ]);
        let hub = HubIndex::build(bb.csr(), &mut InterScratch::new());
        assert_eq!(walk_heads(&hub, 0, 3, bb.csr()), Some(vec![1, 2, 3]));
        assert!(target_row_is_all_far());
        assert_eq!(walk_heads(&hub, 0, 4, bb.csr()), None);
        assert!(target_row_is_all_far());
        assert_eq!(walk_heads(&hub, 3, 3, bb.csr()), Some(vec![]));
        assert!(target_row_is_all_far());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hub.walk(0, 3, bb.csr(), |_| panic!("hop callback fails"));
        }));
        assert!(unwound.is_err());
        assert!(target_row_is_all_far());
        assert_eq!(walk_heads(&hub, 3, 0, bb.csr()), Some(vec![2, 1, 0]));
    }

    #[test]
    fn localized_change_dirties_few_hubs() {
        // A long path graph: a weight change at one end must not
        // re-sweep hubs whose restricted trees never cross it.
        let h = 40usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for a in 0..h - 1 {
            adj[a].push((a as u32 + 1, 1));
            adj[a + 1].push((a as u32, 1));
        }
        let mut bb = Backbone::from_adj(adj);
        let mut scratch = InterScratch::new();
        let mut hub = HubIndex::build(bb.csr(), &mut scratch);
        // Re-weight the last edge (degrees unchanged).
        for e in &mut bb.adj[h - 2] {
            if e.0 as usize == h - 1 {
                e.1 = 3;
            }
        }
        for e in &mut bb.adj[h - 1] {
            if e.0 as usize == h - 2 {
                e.1 = 3;
            }
        }
        let rebuilt = Backbone::from_adj(std::mem::take(&mut bb.adj));
        bb = rebuilt;
        let dirty = hub
            .repair(&[h as u32 - 2, h as u32 - 1], bb.csr(), &mut scratch)
            .expect("weight-only change repairs in place");
        assert!(dirty > 0);
        assert!(dirty < h / 2, "only a tail of hubs re-swept, got {dirty}");
        assert_eq!(hub, HubIndex::build(bb.csr(), &mut scratch));
    }
}
