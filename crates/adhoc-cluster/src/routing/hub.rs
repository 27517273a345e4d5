//! Hub-labeling (2-level landmark) index over the backbone `G''` — the
//! sub-quadratic alternative to the dense `h × h` distance matrix
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
//! # Serving: prove each hop, scan only when nothing else settles it
//!
//! A walk toward `t` writes `row(t)` once into a hub-indexed buffer
//! (`buf[c] = d_c(t)`, FAR elsewhere), reads `dt = dist(s, t)` off one
//! scan of `row(s)`, and from then on carries `dt −= w` hop by hop
//! instead of re-merging. At each hop it visits `s`'s CSR neighbors in
//! ascending slot order and must decide, for each neighbor `u` behind
//! a link of weight `w ≤ dt`, whether `dist(u, t) = dt − w`; the first
//! `u` that passes is the dense table's next hop. Every sum
//! `d_c(u) + buf[c]` is a real `u ⇝ t` walk length, so each is
//! `≥ dist(u, t) ≥ dt − w` (the triangle inequality through `s`): no
//! sum can undershoot, and **any** sum equal to `dt − w` proves `u`.
//! Four exact checks decide `u`, cheapest first:
//!
//! 1. **Predecessor skip.** The head `p` the walk just came from
//!    (over a link of weight `w'`) sits at `dist(p, t) = dt + w'`, so
//!    `w + dist(p, t) = dt + 2w' > dt`: it can never pass and is not
//!    tested.
//! 2. **Landmark reject.** The index also stores exact, unrestricted
//!    distances `D_k(·)` from `LANDMARKS` heads picked farthest-point
//!    (ALT lower bounds, Goldberg & Harrelson). By the triangle
//!    inequality `dist(u, t) ≥ |D_k(u) − D_k(t)|`, so a landmark with
//!    `|D_k(u) − D_k(t)| > dt − w` rules `u` out. `u` and `t` lie in
//!    `s`'s component, so a landmark holds either finite distances at
//!    both or `FAR` at both; FAR pairs differ by 0 and never bound.
//! 3. **Witness accept.** The walk carries the hub `c` whose sum
//!    proved the last hop (at the start, the hub that realized
//!    `dist(s, t)`). One binary search for `c` in `row(u)` (rows are
//!    hub-ascending) proves `u` when `d_c(u) + d_c(t) = dt − w` — the
//!    "any sum proves" argument above. Along a shortest route the same
//!    hub usually proves hop after hop.
//! 4. **Full scan.** Otherwise one scan of `row(u)` for an entry with
//!    `d + buf[c] = dt − w` settles `u` exactly, stopping at the first
//!    match; a match becomes the new witness.
//!
//! Checks 1 and 2 only reject and check 3 only accepts, each soundly,
//! and every neighbor is fully decided before the next one is looked
//! at, so the walk takes exactly the first slot-ascending neighbor the
//! canonical rule names: every hop is the dense table's, bit for bit.
//! The order is a cost choice, not a correctness one: the landmark
//! check reads one 16-byte row and settles most wrong neighbors, so
//! it runs before the witness's binary search.
//!
//! On the `N = 20000` serving network (1811 heads, 25.3 head hops per
//! walk, label rows of ~100 entries) a walk probes 40.8 neighbors past
//! its predecessors: the witness accepts 22.3, the landmarks reject
//! 9.3 and 9.2 fall through to a full scan, so a walk reads ~750
//! scanned entries instead of ~3760.
//!
//! The buffer is a per-thread `thread_local!` that grows to the
//! largest `h` served on the thread. **Invariant: it is all-FAR
//! between walks.** Only `row(t)`'s hubs are ever written, and a drop
//! guard resets exactly those on every exit path (reached, unreachable,
//! unwinding), so walks over different plans — of any `h` — on one
//! thread never see each other's entries.
//!
//! # A changed backbone builds a fresh index
//!
//! The index has one construction path: `InterTable::advance` keeps it
//! while the backbone's links are unchanged and builds it anew
//! otherwise. A repair that re-swept only the hubs a change touched
//! would need the importance order to survive the change, but the order
//! reads the link adjacency, and under churn the backbone changes
//! structurally — or its head set changes — on almost every reconcile
//! that touches it: at N = 20000 (h ≈ 1400, 10 movers) such a repair
//! applied in at most 1 of ~130 same-head-set changes per 500
//! reconciles, and every other reconcile changed the head set.

use super::inter::{CsrView, InterScratch, FAR};
use adhoc_graph::par::{self, Parallelism};
use std::cell::Cell;

/// Landmarks whose exact distances bound the walk's full scans from
/// below. On the `N = 20000`, ~1800-head serving network four cut a
/// walk's full rejecting scans from 15.5 to 4.7; eight measured the
/// same and sixteen were slower (each check reads more bytes).
const LANDMARKS: usize = 4;

/// Flat-arena hub-label index: per-head rows of `(hub, dist)` entries,
/// CSR-packed and sorted by hub slot so queries are two-pointer
/// merges. Structural equality (`PartialEq`) compares the arenas
/// entry for entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubIndex {
    h: usize,
    /// Row offsets, `h + 1` entries.
    label_off: Vec<u32>,
    /// Hub slots per row, ascending.
    label_hub: Vec<u32>,
    /// Restricted distance to the matching hub.
    label_dist: Vec<u32>,
    /// `landmark[v * LANDMARKS + k] = dist(a_k, v)`: exact, unrestricted
    /// backbone distances from the landmark heads `a_k` (see
    /// [`landmark_table`]); [`FAR`] outside a landmark's component and
    /// in the columns of landmarks a small backbone does not have.
    landmark: Vec<u32>,
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
    /// order and swept with per-worker scratch. Pruning reads only the
    /// rank order, never other hubs' labels, so each hub's entry set is
    /// a pure function of `(backbone, order)`; the entry sort key
    /// `(node, hub)` is unique per entry, so the normalizing
    /// `sort_unstable` makes the packed arena bit-identical for any
    /// worker count.
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
            label_off: Vec::new(),
            label_hub: Vec::new(),
            label_dist: Vec::new(),
            landmark: landmark_table(csr, scratch),
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
    /// then takes the first neighbor `u` of `s`, in ascending slot
    /// order, with `w(s, u) + dist(u, t) = dt`, deciding each neighbor
    /// by the module docs' four checks (predecessor skip, landmark
    /// reject, witness accept, full scan), and carries `dt −= w`.
    /// Every check is exact and the CSR row is slot-ascending, so every
    /// hop is the dense table's, bit for bit.
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
        let Some((mut dt, mut witness)) = target.nearest(s) else {
            return false;
        };
        let bounds = self.landmarks(t);
        let mut prev = usize::MAX;
        let mut s = s;
        while s != t {
            let (lo, hi) = (csr.off[s] as usize, csr.off[s + 1] as usize);
            let next = (lo..hi).find_map(|i| {
                let u = csr.to[i] as usize;
                let w = csr.hops[i];
                if u == prev {
                    tally(Check::PredecessorSkip);
                    return None;
                }
                if w > dt {
                    return None;
                }
                let want = dt - w;
                if self.ruled_out(u, &bounds, want) {
                    tally(Check::LandmarkReject);
                    return None;
                }
                if target.meets_via(u, witness, want) {
                    tally(Check::WitnessAccept);
                    return Some((i, witness));
                }
                tally(Check::FullScan);
                target.meeting_hub(u, want).map(|c| (i, c))
            });
            let Some((i, c)) = next else {
                debug_assert!(false, "reachable target must have a first-hop witness");
                return false;
            };
            hop(i);
            dt -= csr.hops[i];
            witness = c;
            prev = s;
            s = csr.to[i] as usize;
        }
        true
    }

    /// `v`'s landmark distances (see [`Self::ruled_out`]).
    fn landmarks(&self, v: usize) -> [u32; LANDMARKS] {
        let mut out = [FAR; LANDMARKS];
        out.copy_from_slice(&self.landmark[v * LANDMARKS..(v + 1) * LANDMARKS]);
        out
    }

    /// Whether some landmark proves `dist(u, t) > want`, given `t`'s
    /// landmark distances `bounds` and that `u` and `t` share a
    /// component: `|D_k(u) − D_k(t)| ≤ dist(u, t)` for every landmark,
    /// and a landmark outside the component holds [`FAR`] at both ends,
    /// whose difference (0) bounds nothing.
    fn ruled_out(&self, u: usize, bounds: &[u32; LANDMARKS], want: u32) -> bool {
        let at = &self.landmark[u * LANDMARKS..(u + 1) * LANDMARKS];
        at.iter().zip(bounds).any(|(&a, &b)| {
            debug_assert_eq!(a == FAR, b == FAR, "u and t share a component");
            a.abs_diff(b) > want
        })
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

    /// Heap bytes of the arenas and the landmark distances.
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.label_off.capacity()
            + self.label_hub.capacity()
            + self.label_dist.capacity()
            + self.landmark.capacity();
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

    /// `v`'s label entries as `(hub, sum)`, each sum the entry's
    /// distance plus the target's (`FAR` for hubs the target row
    /// lacks): each sum is a real `v ⇝ t` walk length.
    fn sums(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = self.index.row(v);
        self.index.label_hub[lo..hi]
            .iter()
            .zip(&self.index.label_dist[lo..hi])
            .map(|(&c, &d)| (c, d.saturating_add(self.buf[c as usize])))
    }

    /// Exact `dist(v, t)` and the first hub that realizes it, or `None`
    /// when the backbone does not connect `v` and `t`.
    fn nearest(&self, v: usize) -> Option<(u32, u32)> {
        let (c, d) = self.sums(v).fold(
            (0, FAR),
            |best, (c, d)| if d < best.1 { (c, d) } else { best },
        );
        (d != FAR).then_some((d, c))
    }

    /// Whether hub `c`'s sum at `v` equals `want`, given
    /// `dist(v, t) ≥ want`: then it proves `dist(v, t) == want`. One
    /// binary search of `v`'s hub-ascending row.
    fn meets_via(&self, v: usize, c: u32, want: u32) -> bool {
        let (lo, hi) = self.index.row(v);
        self.index.label_hub[lo..hi]
            .binary_search(&c)
            .is_ok_and(|j| {
                self.index.label_dist[lo + j].saturating_add(self.buf[c as usize]) == want
            })
    }

    /// The first hub whose sum at `v` equals `want`, if any — so
    /// whether `dist(v, t) == want`, given `dist(v, t) ≥ want`: every
    /// sum is at least `dist(v, t)`, so the first sum equal to `want`
    /// settles it and the scan stops there.
    fn meeting_hub(&self, v: usize, want: u32) -> Option<u32> {
        self.sums(v).find(|&(_, d)| d == want).map(|(c, _)| c)
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
/// sorted by `(node, hub)` — ready for [`HubIndex::fill_arena`]. Below
/// one thread spawn's worth of work ([`par::work::hub_build`], gated
/// by [`Parallelism::for_work`]) the caller's warm scratch is reused
/// inline; otherwise `hubs` is chunked across scoped workers, each with
/// a fresh [`InterScratch`], and the fragments are concatenated in
/// chunk order before the normalizing sort. Entry keys are unique per
/// `(node, hub)` pair, so the sorted list — and the arena packed from
/// it — is bit-identical for any worker count.
fn sweep_hubs(
    csr: CsrView<'_>,
    hubs: &[u32],
    rank: &[u32],
    scratch: &mut InterScratch,
    par: Parallelism,
) -> Vec<(u32, u32, u32)> {
    let workers = par
        .for_work(par::work::hub_build(csr.head_count()))
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

/// Exact, unrestricted distances from [`LANDMARKS`] heads picked
/// farthest-point, laid out `table[v * LANDMARKS + k]`. The first
/// landmark is the head farthest from the highest-degree head (smallest
/// slot on ties, here and below), which lands the landmarks in that
/// head's component, normally the giant one; each next landmark is the
/// head of that component farthest from every landmark so far. A
/// component with fewer heads than [`LANDMARKS`] leaves the remaining
/// columns [`FAR`], as does every head outside the component. A pure
/// function of the backbone.
fn landmark_table(csr: CsrView<'_>, scratch: &mut InterScratch) -> Vec<u32> {
    let h = csr.head_count();
    let mut table = vec![FAR; h * LANDMARKS];
    let Some(seed) = (0..h).max_by_key(|&v| (csr.degree(v), std::cmp::Reverse(v))) else {
        return table;
    };
    scratch.sweep(csr, seed, None);
    // Distance from the nearest landmark so far (the seed stands in
    // before the first); FAR outside the seed's component.
    let mut nearest: Vec<u32> = (0..h).map(|v| scratch.dist(v)).collect();
    for k in 0..LANDMARKS {
        let far = (0..h)
            .filter(|&v| nearest[v] != FAR && nearest[v] > 0)
            .max_by_key(|&v| (nearest[v], std::cmp::Reverse(v)));
        let Some(a) = far else {
            break; // every head of the component is a landmark
        };
        scratch.sweep(csr, a, None);
        for &v in scratch.settled() {
            let d = scratch.dist(v as usize);
            table[v as usize * LANDMARKS + k] = d;
            let n = &mut nearest[v as usize];
            *n = if k == 0 { d } else { (*n).min(d) };
        }
    }
    table
}

/// The walk's four ways to decide a neighbor (see the module docs).
#[derive(Clone, Copy)]
enum Check {
    PredecessorSkip,
    LandmarkReject,
    WitnessAccept,
    FullScan,
}

#[cfg(test)]
thread_local! {
    /// Per-thread tallies of each [`Check`], so tests can pin that every
    /// path of the walk runs.
    static CHECKS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
}

/// Counts one decision in test builds; compiles to nothing otherwise.
#[inline(always)]
fn tally(_check: Check) {
    #[cfg(test)]
    CHECKS.with(|c| {
        let mut counts = c.get();
        counts[_check as usize] += 1;
        c.set(counts);
    });
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

        /// `h` heads uniform in the unit square, linked within
        /// `radius`, weights in `1..=max_w`: a geometric backbone like
        /// the pipeline's. A small radius leaves several components;
        /// unit weights make equal-length routes (ties) everywhere.
        fn geometric(rng: &mut StdRng, h: usize, radius: f64, max_w: u32) -> Backbone {
            let pts: Vec<(f64, f64)> = (0..h).map(|_| (rng.gen(), rng.gen())).collect();
            let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
            for a in 0..h {
                for b in a + 1..h {
                    let (dx, dy) = (pts[a].0 - pts[b].0, pts[a].1 - pts[b].1);
                    if dx * dx + dy * dy <= radius * radius {
                        let w = rng.gen_range(1..=max_w);
                        adj[a].push((b as u32, w));
                        adj[b].push((a as u32, w));
                    }
                }
            }
            Backbone::from_adj(adj)
        }

        /// Changes one existing undirected edge's weight.
        fn perturb(&mut self, rng: &mut StdRng) {
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
            assert!(!edges.is_empty(), "the backbone has links");
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            let w = rng.gen_range(1..9u32);
            for &(x, y) in &[(a, b), (b, a)] {
                for e in &mut self.adj[x] {
                    if e.0 as usize == y {
                        e.1 = w;
                    }
                }
            }
            *self = Backbone::from_adj(std::mem::take(&mut self.adj));
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
        assert!(fans_out(par::work::hub_build(h)));
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

    /// The thread's walk-check tallies since the last call.
    fn take_checks() -> [u64; 4] {
        CHECKS.with(|c| c.replace([0; 4]))
    }

    /// Every walk over every `(s, t)` pair must take exactly the dense
    /// table's hops — the table being [`all_pairs_next_hops`], the
    /// canonical rule's reference — and report unreachable pairs
    /// without a hop.
    fn assert_walks_match_table(hub: &HubIndex, bb: &Backbone, ctx: &str) -> usize {
        use crate::routing::inter::{all_pairs_next_hops, NO_HOP};
        let csr = bb.csr();
        let h = csr.head_count();
        let table = all_pairs_next_hops(csr, &mut InterScratch::new());
        let mut unreachable = 0usize;
        for s in 0..h {
            for t in 0..h {
                let mut want = Vec::new();
                let mut at = s;
                while at != t && table[at * h + t] != NO_HOP {
                    at = table[at * h + t] as usize;
                    want.push(at as u32);
                }
                let want = (at == t).then_some(want);
                unreachable += usize::from(want.is_none());
                assert_eq!(walk_heads(hub, s, t, csr), want, "{ctx}: {s} -> {t}");
            }
        }
        unreachable
    }

    /// The landmark columns hold exact, unrestricted distances from
    /// their landmark heads (FAR outside the landmark's component), and
    /// the landmarks are distinct.
    fn assert_landmarks_exact(hub: &HubIndex, bb: &Backbone, ctx: &str) {
        let h = bb.adj.len();
        let mut seen = Vec::new();
        for k in 0..LANDMARKS {
            let column: Vec<u32> = (0..h).map(|v| hub.landmark[v * LANDMARKS + k]).collect();
            let Some(a) = column.iter().position(|&d| d == 0) else {
                assert!(column.iter().all(|&d| d == FAR), "{ctx}: column {k}");
                continue;
            };
            assert!(!seen.contains(&a), "{ctx}: landmark {a} picked twice");
            seen.push(a);
            assert_eq!(column, oracle_dist(bb, a), "{ctx}: landmark {a}");
        }
        assert!(!seen.is_empty(), "{ctx}: no landmark");
    }

    /// The proving walk against the canonical rule's dense table on
    /// geometric backbones of 150–400 heads — 150 well-linked heads with
    /// unit weights (ties everywhere), 250 with weights 1–3, and 400
    /// sparse unit-weight heads in many components — for every
    /// `(s, t)`, also on the index built after a chain of weight
    /// changes. Every one of the walk's four checks must fire.
    #[test]
    fn proving_walk_matches_dense_table_on_every_pair() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch = InterScratch::new();
        take_checks();
        let mut unreachable = 0usize;
        for (h, radius, max_w) in [(150, 0.15, 1), (250, 0.1, 3), (400, 0.055, 1)] {
            let mut bb = Backbone::geometric(&mut rng, h, radius, max_w);
            let hub = HubIndex::build(bb.csr(), &mut scratch);
            let ctx = format!("h = {h}, r = {radius}");
            assert_landmarks_exact(&hub, &bb, &ctx);
            unreachable += assert_walks_match_table(&hub, &bb, &ctx);
            for _ in 0..6 {
                bb.perturb(&mut rng);
            }
            let hub = HubIndex::build(bb.csr(), &mut scratch);
            assert_landmarks_exact(&hub, &bb, &ctx);
            unreachable += assert_walks_match_table(&hub, &bb, &format!("{ctx}, perturbed"));
        }
        assert!(unreachable > 0, "some backbone must be disconnected");
        let [skip, reject, accept, scan] = take_checks();
        assert!(skip > 0, "no predecessor skip");
        assert!(reject > 0, "no landmark reject");
        assert!(accept > 0, "no witness accept");
        assert!(scan > 0, "no full scan");
    }
}
