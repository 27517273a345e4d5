//! Shared inter-head first-hop machinery over the backbone graph `G''`
//! (heads as vertices, selected virtual links as weighted edges): the
//! canonical next-hop **rule**, the dense all-pairs table that
//! materializes it, and the [`InterTable`] facade that lets a compiled
//! [`RoutePlan`] serve the same rule from either the dense `h × h`
//! matrix or the sub-quadratic hub-label index ([`HubIndex`]).
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
//! bit-identically: the dense table derives it per source with one
//! bucket-queue Dijkstra that folds the rule into relaxation (the first
//! hops of `s ⇝ t` are the union over shortest predecessors `p` of `t`
//! of the first hops of `s ⇝ p`, so the minimum propagates), while the
//! hub index expands `t`'s label row once per walk and takes, from
//! `s`'s CSR row — which is stored in ascending slot order — the first
//! neighbor proved to lie at the remaining distance. Every
//! consumer (the compiled plan, the legacy per-query router,
//! incremental repairs versus full recompiles) therefore agrees on
//! every route by construction.
//!
//! Queries that *walk* (`s ← next_hop(s, t)` until `s = t`) terminate
//! and realize a shortest backbone route for any mix of sources: each
//! step moves to a node strictly closer to `t`.

use super::hub::HubIndex;
use adhoc_graph::par::{self, Parallelism, Strided};
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
#[derive(Clone, Copy, Debug)]
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

/// Reusable per-source sweep state shared by the dense all-pairs build
/// and the hub index's pruned sweeps — hoisted out of the per-source
/// loop so neither allocates a queue, a distance array, or a settled
/// list per source.
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
    /// The bucket ring of [`next_hop_row`]'s queue; every bucket is
    /// empty between sweeps.
    buckets: Vec<Vec<u32>>,
}

impl InterScratch {
    pub fn new() -> Self {
        InterScratch::default()
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

/// All-pairs next-hop table, row-major `h × h` (`table[s * h + t]`).
pub(crate) fn all_pairs_next_hops(csr: CsrView<'_>, scratch: &mut InterScratch) -> Vec<u32> {
    all_pairs_next_hops_with(csr, scratch, Parallelism::serial())
}

/// [`all_pairs_next_hops`] over a worker pool: sources are chunked and
/// each worker writes its own contiguous row range with its own
/// [`InterScratch`]. Every row is a pure function of `(csr, s)`, so the
/// table is bit-identical for any worker count. Tables below one
/// thread spawn's worth of work ([`par::work::dense_rows`], gated by
/// [`Parallelism::for_work`]) are swept inline on the caller's warm
/// scratch.
pub(crate) fn all_pairs_next_hops_with(
    csr: CsrView<'_>,
    scratch: &mut InterScratch,
    par: Parallelism,
) -> Vec<u32> {
    let h = csr.head_count();
    let max_w = csr.max_weight();
    let mut table = vec![NO_HOP; h * h];
    let workers = par
        .for_work(par::work::dense_rows(h, csr.to.len()))
        .workers();
    if workers == 1 {
        for s in 0..h {
            next_hop_row(csr, s, max_w, &mut table[s * h..(s + 1) * h], scratch);
        }
    } else {
        par::scoped_chunks(
            workers,
            h,
            Strided::new(&mut table[..], h),
            |off, take, chunk: Strided<&mut [u32]>| {
                let mut local = InterScratch::new();
                for i in 0..take {
                    next_hop_row(
                        csr,
                        off + i,
                        max_w,
                        &mut chunk.data[i * h..(i + 1) * h],
                        &mut local,
                    );
                }
            },
        );
    }
    table
}

/// Projected bytes of the dense `h × h` next-hop table — what
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
    /// Always the dense `h × h` next-hop matrix.
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

/// What an `InterTable::repair` did — surfaced through
/// [`PlanUpdate`](super::plan::PlanUpdate) so benches and tests can
/// pin that a weight change no longer recomputes all pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterRepair {
    /// The backbone's weighted link set did not change; nothing to do.
    Unchanged,
    /// Dense layout: the full `h × h` table was recomputed (the dense
    /// table has no cheaper sound repair).
    DenseRecomputed,
    /// Hub layout: only the labels of hubs whose trees touched a
    /// changed edge were re-swept.
    HubRepaired {
        /// Hubs re-swept (out of `h`).
        dirty_hubs: usize,
    },
    /// Hub layout: the importance order itself changed, so the index
    /// was rebuilt.
    HubRebuilt,
}

/// One API over both inter-head representations, mirroring the label
/// store's `Dense`/`Sparse` facade: the compiled plan queries first
/// hops through this enum and never branches on layout anywhere else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterTable {
    /// Row-major `h × h` first-hop matrix — `O(1)` lookups, `O(h²)`
    /// memory, full recompute on any backbone weight change.
    Dense { h: usize, next_hop: Vec<u32> },
    /// Hub-label (2-level landmark) index — one target-row expansion
    /// per walk, then each hop proved by exact checks (mostly one
    /// binary search, a full row scan only when no check settles a
    /// neighbor), empirically sub-quadratic memory, dirty-hub repair.
    Hub(HubIndex),
}

impl InterTable {
    /// Serial [`Self::build_with`] (test convenience).
    #[cfg(test)]
    pub(crate) fn build(
        mode: InterMode,
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
    ) -> InterTable {
        InterTable::build_with(mode, csr, scratch, Parallelism::serial())
    }

    /// Builds the representation `mode` selects for this backbone over
    /// a worker pool — parallel all-pairs rows for the dense layout,
    /// parallel pruned hub sweeps for the hub layout. Bit-identical
    /// for any worker count; jobs below the fan-out gate run inline.
    pub(crate) fn build_with(
        mode: InterMode,
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        par: Parallelism,
    ) -> InterTable {
        let h = csr.head_count();
        if mode.wants_hub(h) {
            InterTable::Hub(HubIndex::build_with(csr, scratch, par))
        } else {
            InterTable::Dense {
                h,
                next_hop: all_pairs_next_hops_with(csr, scratch, par),
            }
        }
    }

    /// Walks the canonical route `s ⇝ t`, calling `hop(i)` with the CSR
    /// position `i` of every link taken, in walk order (`csr.to[i]` is
    /// the head the hop lands on). Returns `false`, without calling
    /// `hop`, when the backbone does not connect `s` and `t`; `s == t`
    /// is the empty walk.
    ///
    /// Dense: one table lookup plus one binary search of `s`'s CSR row
    /// per hop. Hub: one target-row expansion per walk; then each
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
            InterTable::Dense { h, next_hop } => {
                let mut s = s;
                while s != t {
                    let nh = next_hop[s * h + t];
                    if nh == NO_HOP {
                        return false;
                    }
                    let (lo, hi) = (csr.off[s] as usize, csr.off[s + 1] as usize);
                    let i = lo
                        + csr.to[lo..hi]
                            .binary_search(&nh)
                            .expect("next hop uses existing links");
                    hop(i);
                    s = nh as usize;
                }
                true
            }
            InterTable::Hub(hub) => hub.walk(s, t, csr, hop),
        }
    }

    /// Repairs a shared table after the backbone changed: `changed`
    /// holds the ascending slots whose CSR rows differ between the old
    /// and new backbone (every added, removed, or re-weighted link
    /// flags both endpoints), and `csr` is the **new** backbone. An
    /// empty `changed` is a no-op and keeps the table shared. The dense
    /// recompute installs a fresh table, so a plan cloned to be patched
    /// never copies the one it replaces; the dirty-hub repair splices
    /// copy-on-write (a shared index is copied first). The dense
    /// recompute and the dirty-hub re-sweeps fan out across `par`,
    /// bit-identical to serial for any worker count (jobs below the
    /// fan-out gate run inline).
    pub(crate) fn repair_with(
        table: &mut Arc<InterTable>,
        changed: &[u32],
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        par: Parallelism,
    ) -> InterRepair {
        if changed.is_empty() {
            return InterRepair::Unchanged;
        }
        if let InterTable::Dense { h, .. } = **table {
            debug_assert_eq!(h, csr.head_count());
            *table = Arc::new(InterTable::Dense {
                h,
                next_hop: all_pairs_next_hops_with(csr, scratch, par),
            });
            return InterRepair::DenseRecomputed;
        }
        let InterTable::Hub(hub) = Arc::make_mut(table) else {
            unreachable!("the dense layout returned above")
        };
        match hub.repair_with(changed, csr, scratch, par) {
            Some(dirty_hubs) => InterRepair::HubRepaired { dirty_hubs },
            None => {
                *hub = HubIndex::build_with(csr, scratch, par);
                InterRepair::HubRebuilt
            }
        }
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
            InterTable::Dense { next_hop, .. } => next_hop.capacity() * std::mem::size_of::<u32>(),
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
            let dense = InterTable::build(InterMode::Dense, csr, &mut scratch);
            let hub = InterTable::build(InterMode::Hub, csr, &mut scratch);
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
                let hub = InterTable::build(InterMode::Hub, csr, &mut scratch);
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
}
