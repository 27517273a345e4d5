//! Shared per-head BFS labels — the single-sweep substrate of the
//! evaluation engine.
//!
//! The paper's locality argument (§3.2) is that every clusterhead only
//! needs its `2k+1`-hop ball to select neighbor clusterheads and
//! realize virtual links. The Monte-Carlo harness previously re-ran
//! that ball exploration once per algorithm (~5× per replicate);
//! [`HeadLabels`] runs **one** hop-bounded BFS per head and stores the
//! distance labels in a flat arena (row-major, one row of `n` distances
//! per head) that every downstream consumer — the NC relation, both
//! virtual graphs, G-MST's complete link set — reads without further
//! traversal.
//!
//! Only distance labels are stored: the canonical (lexicographically
//! smallest) shortest paths all shortest-path consumers share are
//! derived by the greedy label walk of
//! [`lexico_path_from_labels`](crate::bfs::lexico_path_from_labels),
//! which needs distances alone. BFS-tree parent pointers are
//! deliberately *not* kept — the first-discoverer parent is not the
//! canonical-path predecessor, so storing it would invite misuse.
//!
//! The struct is designed for reuse across Monte-Carlo replicates:
//! [`HeadLabels::rebuild`] resets only the entries the previous build
//! dirtied (touched-list reset via the per-head ball lists) and grows
//! its buffers monotonically, so a worker thread pays no per-replicate
//! allocation once warm.

use crate::bfs::{Adjacency, DistLabels, UNREACHED};
use crate::delta::TopologyDelta;
use crate::graph::NodeId;
use crate::par::{self, Parallelism, Strided};

/// Sentinel slot for "this node is not a head".
const NO_SLOT: u32 = u32::MAX;

/// Hop-distance labels from every clusterhead, in one flat arena.
///
/// Rows are indexed by *slot* — the position of the head in the sorted
/// head list the labels were built from ([`HeadLabels::heads`]).
#[derive(Clone, Debug, Default)]
pub struct HeadLabels {
    /// Node count of the graph of the last build (row stride).
    n: usize,
    /// Hop bound of the last build (`u32::MAX` = unbounded).
    bound: u32,
    /// The sources, in the order given to the last build.
    heads: Vec<NodeId>,
    /// Node-indexed inverse of `heads` (`NO_SLOT` for non-heads).
    slot_of: Vec<u32>,
    /// Row-major `heads.len() × n` distances; `UNREACHED` outside each
    /// head's ball. Entries beyond the current logical size are kept
    /// `UNREACHED` so the arena can shrink logically without a sweep.
    dist: Vec<u32>,
    /// Concatenated per-head balls (visited nodes in discovery order;
    /// doubles as the BFS queue during a build).
    balls: Vec<NodeId>,
    /// `heads.len() + 1` offsets into `balls`.
    ball_offsets: Vec<u32>,
    /// Whether the last build stopped each BFS at the farthest head
    /// ([`Self::rebuild_reaching_heads`]), leaving balls *partial* —
    /// such labels cannot drive delta-based dirtiness reasoning.
    stopped_at_heads: bool,
    /// Previous balls/offsets while [`Self::apply_delta`] writes the
    /// new concatenated list (kept so incremental steps allocate
    /// nothing once warm).
    prev_balls: Vec<NodeId>,
    prev_offsets: Vec<u32>,
    /// Full-arena rebuilds performed so far (every [`Self::rebuild`]
    /// and [`Self::rebuild_reaching_heads`]; incremental paths —
    /// [`Self::apply_delta`], [`Self::add_head_row`],
    /// [`Self::remove_head_row`] — never bump it). Tests pin that
    /// head-set changes stay off the rebuild path by watching this.
    rebuilds: u64,
}

impl HeadLabels {
    /// Builds labels from scratch: one BFS per head, exploring to
    /// `bound` hops (`u32::MAX` = whole component).
    pub fn build<G: Adjacency>(g: &G, heads: &[NodeId], bound: u32) -> Self {
        let mut labels = HeadLabels::default();
        labels.rebuild(g, heads, bound);
        labels
    }

    /// Rebuilds the labels for a (possibly different) graph and head
    /// set, reusing every allocation. Reset cost is proportional to
    /// what the previous build actually touched, not to `heads × n`.
    pub fn rebuild<G: Adjacency>(&mut self, g: &G, heads: &[NodeId], bound: u32) {
        self.rebuild_inner(g, heads, bound, false);
    }

    /// Unbounded rebuild that stops each head's BFS as soon as every
    /// other head has been labeled — the cheapest build that still
    /// supports all head-to-head queries (NC relation, G-MST edges)
    /// and every canonical inter-head path walk.
    ///
    /// Every labeled distance is exact, and all nodes at distance
    /// *strictly below* the farthest head are guaranteed labeled (BFS
    /// completes a level before the next one starts), which is exactly
    /// what the decreasing-label path walk needs. [`Self::ball`] may
    /// however omit nodes at or beyond the farthest head's level, so
    /// callers that need full balls must use [`Self::rebuild`].
    pub fn rebuild_reaching_heads<G: Adjacency>(&mut self, g: &G, heads: &[NodeId]) {
        self.rebuild_inner(g, heads, u32::MAX, true);
    }

    fn rebuild_inner<G: Adjacency>(
        &mut self,
        g: &G,
        heads: &[NodeId],
        bound: u32,
        stop_at_heads: bool,
    ) {
        self.prepare_rebuild(g.node_count(), heads, bound, stop_at_heads);

        // One bounded BFS per head. The concatenated ball list is the
        // BFS queue itself (discovery order == FIFO order), so no
        // auxiliary queue allocation exists at all.
        self.ball_offsets.push(0);
        for slot in 0..self.heads.len() {
            self.sweep_head(g, slot, stop_at_heads);
            self.ball_offsets.push(self.balls.len() as u32);
        }
    }

    /// Shared rebuild preamble: undoes the previous build
    /// (touched-entry reset), adopts the new graph size / head set /
    /// bound, and leaves every adopted row all-`UNREACHED` with the
    /// ball arenas cleared — ready for the sweeps, serial or chunked.
    fn prepare_rebuild(&mut self, n: usize, heads: &[NodeId], bound: u32, stop_at_heads: bool) {
        self.rebuilds += 1;
        // Undo the previous build while its row stride is still valid.
        for slot in 0..self.heads.len() {
            let base = slot * self.n;
            let (lo, hi) = (
                self.ball_offsets[slot] as usize,
                self.ball_offsets[slot + 1] as usize,
            );
            for &v in &self.balls[lo..hi] {
                self.dist[base + v.index()] = UNREACHED;
            }
        }
        for &h in &self.heads {
            if h.index() < self.slot_of.len() {
                self.slot_of[h.index()] = NO_SLOT;
            }
        }
        self.balls.clear();
        self.ball_offsets.clear();

        self.n = n;
        self.bound = bound;
        self.heads.clear();
        self.heads.extend_from_slice(heads);
        if self.slot_of.len() < self.n {
            self.slot_of.resize(self.n, NO_SLOT);
        }
        let rows = self.heads.len() * self.n;
        if self.dist.len() < rows {
            self.dist.resize(rows, UNREACHED);
        }
        for (slot, &h) in self.heads.iter().enumerate() {
            debug_assert_eq!(self.slot_of[h.index()], NO_SLOT, "duplicate head {h:?}");
            self.slot_of[h.index()] = slot as u32;
        }
        self.stopped_at_heads = stop_at_heads;
    }

    /// [`Self::rebuild`] with an explicit worker count: the per-head
    /// bounded-BFS sweeps fan out over `par` workers, each writing its
    /// own disjoint row range of the dense arena and collecting a
    /// per-worker ball fragment that is merged in slot order — the
    /// resulting arenas are **bit-identical** to a serial rebuild for
    /// every worker count (pinned by tests). At one worker this *is*
    /// the serial rebuild (same code path, warm allocations intact).
    /// Builds below one thread spawn's worth of `heads × n` work
    /// ([`Parallelism::for_work`]) run the chunked sweep on one worker,
    /// inline.
    pub fn rebuild_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        heads: &[NodeId],
        bound: u32,
        par: Parallelism,
    ) {
        if par.workers() <= 1 || heads.len() < 2 {
            self.rebuild_inner(g, heads, bound, false);
            return;
        }
        let workers = par.for_work(heads.len() * g.node_count()).workers();
        self.prepare_rebuild(g.node_count(), heads, bound, false);
        let n = self.n;
        let rows = self.heads.len();
        let heads_list: &[NodeId] = &self.heads;
        let frags = par::scoped_chunks(
            workers,
            rows,
            Strided::new(&mut self.dist[..rows * n], n),
            |off, take, chunk: Strided<&mut [u32]>| {
                let mut balls = Vec::new();
                let mut offsets = Vec::with_capacity(take + 1);
                offsets.push(0u32);
                for i in 0..take {
                    let row = &mut chunk.data[i * n..(i + 1) * n];
                    sweep_row(g, heads_list[off + i], bound, row, &mut balls);
                    offsets.push(balls.len() as u32);
                }
                (balls, offsets)
            },
        );
        self.ball_offsets.push(0);
        for (balls, offsets) in frags {
            let base = self.balls.len() as u32;
            self.balls.extend_from_slice(&balls);
            self.ball_offsets
                .extend(offsets[1..].iter().map(|&w| base + w));
        }
    }

    /// Runs one head's bounded BFS, appending its ball to `self.balls`
    /// (the tail of which doubles as the queue). The head's distance
    /// row must be all-`UNREACHED` on entry.
    fn sweep_head<G: Adjacency>(&mut self, g: &G, slot: usize, stop_at_heads: bool) {
        if !stop_at_heads {
            // The common full-ball sweep is the shared free function the
            // chunked rebuild/repair paths also run — one code path, so
            // serial and parallel builds are bit-identical by
            // construction.
            let base = slot * self.n;
            let row = &mut self.dist[base..base + self.n];
            sweep_row(g, self.heads[slot], self.bound, row, &mut self.balls);
            return;
        }
        let h = self.heads[slot];
        let base = slot * self.n;
        let start = self.balls.len();
        self.dist[base + h.index()] = 0;
        self.balls.push(h);
        // Other heads this BFS still has to label before it may
        // stop early (`usize::MAX` disables early stopping).
        let mut heads_left = if stop_at_heads {
            self.heads.len() - 1
        } else {
            usize::MAX
        };
        let mut qi = start;
        'bfs: while qi < self.balls.len() && heads_left > 0 {
            let u = self.balls[qi];
            qi += 1;
            let du = self.dist[base + u.index()];
            if du == self.bound {
                continue;
            }
            for &v in g.adj(u) {
                if self.dist[base + v.index()] == UNREACHED {
                    self.dist[base + v.index()] = du + 1;
                    self.balls.push(v);
                    if stop_at_heads && self.slot_of[v.index()] != NO_SLOT {
                        heads_left -= 1;
                        if heads_left == 0 {
                            break 'bfs;
                        }
                    }
                }
            }
        }
    }

    /// The slots (ascending) whose labels a topology delta can have
    /// changed: head `h` is *dirty* iff some changed edge has an
    /// endpoint inside `h`'s current ball.
    ///
    /// Why that test is sound for a whole batch of changes: a label of
    /// `h` changes only if some node's distance to `h` crosses or moves
    /// within the bound. A distance that *decreased* did so along a new
    /// path whose first added edge `(u, v)` is reached from `h` by
    /// surviving old edges — so `u` was already in the old ball. A
    /// distance that *increased* had every old shortest path broken, and
    /// any such path lies entirely inside the old ball, so the removed
    /// edge's endpoints are labeled. Either way the dirtiness shows up
    /// against the **old** labels, which is what this reads.
    ///
    /// # Panics
    /// Panics on labels built by [`Self::rebuild_reaching_heads`]
    /// (partial balls cannot certify cleanliness) and on deltas whose
    /// endpoints exceed the labeled node count.
    pub fn dirty_slots(&self, delta: &TopologyDelta) -> Vec<usize> {
        assert!(
            !self.stopped_at_heads,
            "delta updates need full-ball labels (use `rebuild`, not \
             `rebuild_reaching_heads`)"
        );
        let mut dirty = Vec::new();
        for slot in 0..self.heads.len() {
            let base = slot * self.n;
            if delta
                .endpoints()
                .any(|v| self.dist[base + v.index()] != UNREACHED)
            {
                dirty.push(slot);
            }
        }
        dirty
    }

    /// Re-labels exactly the `dirty` slots (from [`Self::dirty_slots`])
    /// against the post-delta graph `g`, leaving clean rows untouched —
    /// the labels end up identical to a full [`Self::rebuild`] on `g`
    /// (pinned by tests) at the cost of one bounded BFS per *dirty*
    /// head instead of one per head.
    ///
    /// Call sequence: `let dirty = labels.dirty_slots(&delta);` against
    /// the old graph's labels, apply the delta to the graph, then
    /// `labels.apply_delta(&g, &dirty)`.
    ///
    /// # Panics
    /// Panics if `g`'s node count differs from the labeled one (node
    /// sets never change under a delta; departures isolate), or if
    /// `dirty` is not ascending and in range.
    pub fn apply_delta<G: Adjacency>(&mut self, g: &G, dirty: &[usize]) {
        assert_eq!(g.node_count(), self.n, "deltas keep the node set");
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty slots must be ascending and unique"
        );
        if dirty.is_empty() {
            return;
        }
        // Touched-entry reset of the dirty rows only.
        for &slot in dirty {
            assert!(slot < self.heads.len(), "dirty slot out of range");
            let base = slot * self.n;
            let (lo, hi) = (
                self.ball_offsets[slot] as usize,
                self.ball_offsets[slot + 1] as usize,
            );
            for &v in &self.balls[lo..hi] {
                self.dist[base + v.index()] = UNREACHED;
            }
        }
        // Rebuild the concatenated ball list: clean rows are copied
        // byte-for-byte, dirty rows re-run their bounded BFS.
        std::mem::swap(&mut self.balls, &mut self.prev_balls);
        std::mem::swap(&mut self.ball_offsets, &mut self.prev_offsets);
        self.balls.clear();
        self.ball_offsets.clear();
        self.ball_offsets.push(0);
        let mut next_dirty = 0usize;
        for slot in 0..self.heads.len() {
            if next_dirty < dirty.len() && dirty[next_dirty] == slot {
                next_dirty += 1;
                self.sweep_head(g, slot, false);
            } else {
                let (lo, hi) = (
                    self.prev_offsets[slot] as usize,
                    self.prev_offsets[slot + 1] as usize,
                );
                let seg = &self.prev_balls[lo..hi];
                self.balls.extend_from_slice(seg);
            }
            self.ball_offsets.push(self.balls.len() as u32);
        }
    }

    /// [`Self::apply_delta`] with an explicit worker count: the dirty
    /// rows' bounded-BFS re-sweeps fan out over `par` workers, each
    /// owning a disjoint set of row slices gathered from the dense
    /// arena, then the ball list is spliced in slot order —
    /// bit-identical to the serial repair for every worker count
    /// (pinned by tests).
    pub fn apply_delta_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        dirty: &[usize],
        par: Parallelism,
    ) {
        if par.workers() <= 1 || dirty.len() < 2 {
            self.apply_delta(g, dirty);
            return;
        }
        assert_eq!(g.node_count(), self.n, "deltas keep the node set");
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty slots must be ascending and unique"
        );
        // Touched-entry reset of the dirty rows only.
        for &slot in dirty {
            assert!(slot < self.heads.len(), "dirty slot out of range");
            let base = slot * self.n;
            let (lo, hi) = (
                self.ball_offsets[slot] as usize,
                self.ball_offsets[slot + 1] as usize,
            );
            for &v in &self.balls[lo..hi] {
                self.dist[base + v.index()] = UNREACHED;
            }
        }
        // Gather each dirty row as its own disjoint `&mut` slice (a
        // sequential `split_at_mut` walk — safe code only), then fan
        // the re-sweeps out.
        let n = self.n;
        let bound = self.bound;
        let dirty_heads: Vec<NodeId> = dirty.iter().map(|&s| self.heads[s]).collect();
        let mut rows: Vec<&mut [u32]> = Vec::with_capacity(dirty.len());
        let mut rest: &mut [u32] = &mut self.dist;
        let mut consumed = 0usize;
        for &slot in dirty {
            let (_, tail) = rest.split_at_mut(slot * n - consumed);
            let (row, tail) = tail.split_at_mut(n);
            rows.push(row);
            rest = tail;
            consumed = (slot + 1) * n;
        }
        let frags = par::scoped_chunks(
            par.workers(),
            dirty.len(),
            rows,
            |off, _take, mut chunk: Vec<&mut [u32]>| {
                let mut balls = Vec::new();
                let mut offsets = Vec::with_capacity(chunk.len() + 1);
                offsets.push(0u32);
                for (i, row) in chunk.iter_mut().enumerate() {
                    sweep_row(g, dirty_heads[off + i], bound, row, &mut balls);
                    offsets.push(balls.len() as u32);
                }
                (balls, offsets)
            },
        );
        // Flatten the fragments into one dirty-indexed ball list ...
        let mut dirty_balls: Vec<NodeId> = Vec::new();
        let mut dirty_bo: Vec<u32> = Vec::with_capacity(dirty.len() + 1);
        dirty_bo.push(0);
        for (balls, offsets) in &frags {
            let base = dirty_balls.len() as u32;
            dirty_balls.extend_from_slice(balls);
            dirty_bo.extend(offsets[1..].iter().map(|&w| base + w));
        }
        // ... and splice: clean rows are copied byte-for-byte, dirty
        // rows come from their freshly swept fragments, in slot order.
        std::mem::swap(&mut self.balls, &mut self.prev_balls);
        std::mem::swap(&mut self.ball_offsets, &mut self.prev_offsets);
        self.balls.clear();
        self.ball_offsets.clear();
        self.ball_offsets.push(0);
        let mut next_dirty = 0usize;
        for slot in 0..self.heads.len() {
            if next_dirty < dirty.len() && dirty[next_dirty] == slot {
                let (lo, hi) = (
                    dirty_bo[next_dirty] as usize,
                    dirty_bo[next_dirty + 1] as usize,
                );
                self.balls.extend_from_slice(&dirty_balls[lo..hi]);
                next_dirty += 1;
            } else {
                let (lo, hi) = (
                    self.prev_offsets[slot] as usize,
                    self.prev_offsets[slot + 1] as usize,
                );
                self.balls.extend_from_slice(&self.prev_balls[lo..hi]);
            }
            self.ball_offsets.push(self.balls.len() as u32);
        }
    }

    /// Incrementally inserts a label row for a **new** head `h`,
    /// keeping the head list ascending. Costs one bounded BFS (the new
    /// row) plus an arena splice; no existing row is re-swept, because
    /// full-ball sweeps never stop at heads — the label of every other
    /// head is independent of the head set. The result is identical to
    /// a full [`Self::rebuild`] with `h` in the head list (pinned by
    /// tests). Returns the new head's slot.
    ///
    /// # Panics
    /// Panics if `h` is already a head or beyond the labeled nodes, if
    /// the labels were built by [`Self::rebuild_reaching_heads`]
    /// (partial balls), if no build ran yet, or if `g`'s node count
    /// differs from the labeled one.
    pub fn add_head_row<G: Adjacency>(&mut self, g: &G, h: NodeId) -> usize {
        assert!(
            !self.stopped_at_heads,
            "incremental head rows need full-ball labels (use `rebuild`, \
             not `rebuild_reaching_heads`)"
        );
        assert_eq!(g.node_count(), self.n, "head-set changes keep the node set");
        assert!(h.index() < self.n, "head {h:?} beyond labeled nodes");
        assert_eq!(
            self.ball_offsets.len(),
            self.heads.len() + 1,
            "add_head_row needs built labels"
        );
        let slot = match self.heads.binary_search(&h) {
            Ok(_) => panic!("{h:?} is already a head"),
            Err(s) => s,
        };
        let old_rows = self.heads.len();
        for &hd in &self.heads[slot..] {
            self.slot_of[hd.index()] += 1;
        }
        self.heads.insert(slot, h);
        self.slot_of[h.index()] = slot as u32;

        // Open an all-`UNREACHED` row at `slot` in the dense arena.
        let rows = self.heads.len() * self.n;
        if self.dist.len() < rows {
            self.dist.resize(rows, UNREACHED);
        }
        self.dist
            .copy_within(slot * self.n..old_rows * self.n, (slot + 1) * self.n);
        self.dist[slot * self.n..(slot + 1) * self.n].fill(UNREACHED);

        // Splice the ball list: clean segments are copied, the new row
        // runs its one bounded BFS (same warm-buffer pattern as
        // `apply_delta`).
        std::mem::swap(&mut self.balls, &mut self.prev_balls);
        std::mem::swap(&mut self.ball_offsets, &mut self.prev_offsets);
        self.balls.clear();
        self.ball_offsets.clear();
        self.ball_offsets.push(0);
        for s in 0..self.heads.len() {
            if s == slot {
                self.sweep_head(g, s, false);
            } else {
                let old = if s < slot { s } else { s - 1 };
                let (lo, hi) = (
                    self.prev_offsets[old] as usize,
                    self.prev_offsets[old + 1] as usize,
                );
                self.balls.extend_from_slice(&self.prev_balls[lo..hi]);
            }
            self.ball_offsets.push(self.balls.len() as u32);
        }
        slot
    }

    /// Incrementally removes the label row of head `h`: a
    /// touched-entry reset of the departing row plus an arena splice —
    /// no BFS at all, and no other row changes (same independence
    /// argument as [`Self::add_head_row`]). Identical to a full
    /// [`Self::rebuild`] without `h` (pinned by tests). Returns the
    /// removed head's former slot.
    ///
    /// # Panics
    /// Panics if `h` is not a head or if the labels were built by
    /// [`Self::rebuild_reaching_heads`].
    pub fn remove_head_row(&mut self, h: NodeId) -> usize {
        assert!(
            !self.stopped_at_heads,
            "incremental head rows need full-ball labels (use `rebuild`, \
             not `rebuild_reaching_heads`)"
        );
        let slot = self
            .heads
            .binary_search(&h)
            .unwrap_or_else(|_| panic!("{h:?} is not a head"));
        let old_rows = self.heads.len();
        // Touched-entry reset of the departing row, then close the
        // row gap.
        let base = slot * self.n;
        let (lo, hi) = (
            self.ball_offsets[slot] as usize,
            self.ball_offsets[slot + 1] as usize,
        );
        for i in lo..hi {
            let v = self.balls[i];
            self.dist[base + v.index()] = UNREACHED;
        }
        if slot + 1 < old_rows {
            self.dist
                .copy_within((slot + 1) * self.n..old_rows * self.n, slot * self.n);
            // The move leaves a stale copy of the old last row beyond
            // the new logical size; restore the beyond-logical
            // all-`UNREACHED` invariant via that head's ball.
            let stale_base = (old_rows - 1) * self.n;
            let (slo, shi) = (
                self.ball_offsets[old_rows - 1] as usize,
                self.ball_offsets[old_rows] as usize,
            );
            for i in slo..shi {
                let v = self.balls[i];
                self.dist[stale_base + v.index()] = UNREACHED;
            }
        }
        self.slot_of[h.index()] = NO_SLOT;
        for &hd in &self.heads[slot + 1..] {
            self.slot_of[hd.index()] -= 1;
        }
        self.heads.remove(slot);

        std::mem::swap(&mut self.balls, &mut self.prev_balls);
        std::mem::swap(&mut self.ball_offsets, &mut self.prev_offsets);
        self.balls.clear();
        self.ball_offsets.clear();
        self.ball_offsets.push(0);
        for s in 0..self.heads.len() {
            let old = if s < slot { s } else { s + 1 };
            let (lo, hi) = (
                self.prev_offsets[old] as usize,
                self.prev_offsets[old + 1] as usize,
            );
            self.balls.extend_from_slice(&self.prev_balls[lo..hi]);
            self.ball_offsets.push(self.balls.len() as u32);
        }
        slot
    }

    /// Full-arena rebuilds performed over this value's lifetime.
    /// Incremental paths (`apply_delta`, `add_head_row`,
    /// `remove_head_row`) never bump it — the churn engine's
    /// no-rebuild-on-head-set-change contract is pinned against this.
    #[inline]
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Bytes of heap memory the label arenas currently hold (capacity,
    /// not logical size). This is the footprint the ROADMAP's
    /// dense-vs-sparse layout decision needs data on: the dominant term
    /// is the `heads × n × 4`-byte distance arena.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dist.capacity() * size_of::<u32>()
            + (self.balls.capacity() + self.prev_balls.capacity() + self.heads.capacity())
                * size_of::<NodeId>()
            + (self.ball_offsets.capacity() + self.prev_offsets.capacity()) * size_of::<u32>()
            + self.slot_of.capacity() * size_of::<u32>()
    }

    /// The heads the labels were built from, in slot order.
    #[inline]
    pub fn heads(&self) -> &[NodeId] {
        &self.heads
    }

    /// The hop bound of the last build (`u32::MAX` = unbounded).
    #[inline]
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Node count of the graph of the last build.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The slot of `head`, or `None` if it is not a labeled source.
    #[inline]
    pub fn slot(&self, head: NodeId) -> Option<usize> {
        match self.slot_of.get(head.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Hop distance from the head in `slot` to `v` (`UNREACHED` if `v`
    /// is outside the head's ball).
    #[inline]
    pub fn dist(&self, slot: usize, v: NodeId) -> u32 {
        self.dist[slot * self.n + v.index()]
    }

    /// Hop distance between two labeled heads (`UNREACHED` if beyond
    /// the bound or disconnected).
    ///
    /// # Panics
    /// Panics if `a` is not a labeled head.
    pub fn head_dist(&self, a: NodeId, b: NodeId) -> u32 {
        let slot = self
            .slot(a)
            .unwrap_or_else(|| panic!("{a:?} is not a labeled head"));
        self.dist(slot, b)
    }

    /// The *other* labeled heads within `bound` hops of the head in
    /// `slot`, in head-list order (ascending when the labels were built
    /// from a sorted head list, as the pipeline always does). This is
    /// the NC-relation row the adjacency layer reads; the sparse layout
    /// answers it from the ball instead of probing every head, so the
    /// shared derivation goes through [`LabelStore::heads_within`].
    pub fn heads_within(&self, slot: usize, bound: u32) -> Vec<NodeId> {
        let h = self.heads[slot];
        self.heads
            .iter()
            .copied()
            .filter(|&o| o != h && self.dist(slot, o) <= bound)
            .collect()
    }

    /// The ball of the head in `slot`: every node within the bound, in
    /// BFS discovery order (the head itself first).
    pub fn ball(&self, slot: usize) -> &[NodeId] {
        let (lo, hi) = (
            self.ball_offsets[slot] as usize,
            self.ball_offsets[slot + 1] as usize,
        );
        &self.balls[lo..hi]
    }

    /// The distance row of `slot` as a [`DistLabels`] view, usable with
    /// [`crate::bfs::lexico_path_from_labels`].
    #[inline]
    pub fn row(&self, slot: usize) -> HeadRow<'_> {
        HeadRow {
            dist: &self.dist[slot * self.n..(slot + 1) * self.n],
        }
    }
}

/// One head's distance row (a borrowed [`DistLabels`] view).
#[derive(Clone, Copy, Debug)]
pub struct HeadRow<'a> {
    dist: &'a [u32],
}

impl DistLabels for HeadRow<'_> {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }
}

/// One full-ball bounded BFS from `h` into an all-`UNREACHED` dense
/// `row`, appending the ball (discovery order) to `balls` — whose tail
/// doubles as the queue. This is the single sweep implementation the
/// serial and chunked dense paths share, so a parallel rebuild is
/// bit-identical to a serial one by construction.
fn sweep_row<G: Adjacency>(
    g: &G,
    h: NodeId,
    bound: u32,
    row: &mut [u32],
    balls: &mut Vec<NodeId>,
) {
    let start = balls.len();
    row[h.index()] = 0;
    balls.push(h);
    let mut qi = start;
    while qi < balls.len() {
        let u = balls[qi];
        qi += 1;
        let du = row[u.index()];
        if du == bound {
            continue;
        }
        for &v in g.adj(u) {
            if row[v.index()] == UNREACHED {
                row[v.index()] = du + 1;
                balls.push(v);
            }
        }
    }
}

/// Empty bucket marker of the per-row open-addressed tables
/// (`u32::MAX` is never a real node ID — it is the crate-wide
/// sentinel).
const EMPTY: u32 = u32::MAX;

/// Fibonacci-hash bucket of `v` in a power-of-two table of `mask + 1`
/// slots.
#[inline]
fn bucket(v: NodeId, mask: usize) -> usize {
    (((u64::from(v.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask
}

/// One sparse row's bounded BFS from `h` through an all-`UNREACHED`
/// `scratch` (touched-entry reset on exit), appending the ball
/// (discovery order, tail doubles as the queue) and the row's
/// open-addressed lookup table. The single sweep implementation the
/// serial and chunked sparse paths share: the table depends only on
/// the ball and its distances, so any chunk-ordered concatenation of
/// rows is bit-identical to a serial build.
fn sweep_sparse_row<G: Adjacency>(
    g: &G,
    h: NodeId,
    bound: u32,
    scratch: &mut [u32],
    balls: &mut Vec<NodeId>,
    hash_keys: &mut Vec<u32>,
    hash_dist: &mut Vec<u32>,
) {
    let start = balls.len();
    scratch[h.index()] = 0;
    balls.push(h);
    let mut qi = start;
    while qi < balls.len() {
        let u = balls[qi];
        qi += 1;
        let du = scratch[u.index()];
        if du == bound {
            continue;
        }
        for &v in g.adj(u) {
            if scratch[v.index()] == UNREACHED {
                scratch[v.index()] = du + 1;
                balls.push(v);
            }
        }
    }
    // The row's lookup table: ≤ 50% load, power-of-two capacity,
    // linear probing. Insertion order is irrelevant to lookups, so
    // the ball goes in as discovered — no sort anywhere.
    let ball_len = balls.len() - start;
    let cap = (ball_len * 2).next_power_of_two();
    let mask = cap - 1;
    let base = hash_keys.len();
    hash_keys.resize(base + cap, EMPTY);
    hash_dist.resize(base + cap, UNREACHED);
    for &v in &balls[start..] {
        let mut b = bucket(v, mask);
        while hash_keys[base + b] != EMPTY {
            b = (b + 1) & mask;
        }
        hash_keys[base + b] = v.0;
        hash_dist[base + b] = scratch[v.index()];
    }
    // Touched-entry reset: the scratch is clean for the next head.
    for &v in &balls[start..] {
        scratch[v.index()] = UNREACHED;
    }
}

/// Hop-distance labels in the **sparse ball-indexed** layout: instead
/// of a dense `heads × n` arena, each head's row stores only its
/// bounded ball — the nodes the BFS actually reached — paired with a
/// per-row open-addressed `(node, dist)` table. Lookups cost `O(1)`
/// expected (one multiply plus a short linear probe at ≤ 50% load),
/// and total memory is `O(Σ ball sizes)` instead of `O(h · n)`, which
/// is what makes `N ≫ 10⁴` feasible (the ROADMAP's dense-layout probe
/// extrapolates the flat arena to ~10 GB/thread at `N = 10⁵`).
///
/// Per row, two structures share slot boundaries:
///
/// ```text
/// balls:      [ head0 ball, discovery order | head1 ball | ...   ]
/// hash_keys:  [ head0 table (2·ball rounded | head1 table | ...  ]
/// hash_dist:  [   up to a power of two)     |             | ...  ]
/// ```
///
/// The discovery-order `balls` list is kept verbatim (it is the BFS
/// queue during a build, and [`Self::ball`] must agree bit-for-bit
/// with [`HeadLabels::ball`] for the incremental engine's equivalence
/// contract); the hash table answers random [`Self::dist`] queries.
/// One `n`-sized scratch row (touched-entry reset) is shared by every
/// head's BFS, so the only per-head state is the ball itself.
///
/// Supported operations mirror [`HeadLabels`] except the
/// `rebuild_reaching_heads` early-stop variant, which only the
/// centralized G-MST fallback uses (and that path keeps the dense
/// layout — it is off the hot path by construction).
#[derive(Clone, Debug, Default)]
pub struct SparseHeadLabels {
    /// Node count of the graph of the last build.
    n: usize,
    /// Hop bound of the last build (`u32::MAX` = unbounded).
    bound: u32,
    /// The sources, in the order given to the last build.
    heads: Vec<NodeId>,
    /// Node-indexed inverse of `heads` (`NO_SLOT` for non-heads).
    slot_of: Vec<u32>,
    /// Concatenated per-head balls in BFS discovery order (doubles as
    /// the BFS queue during a build).
    balls: Vec<NodeId>,
    /// `heads.len() + 1` offsets into `balls`.
    ball_offsets: Vec<u32>,
    /// Concatenated per-row open-addressed tables: node keys
    /// ([`EMPTY`] marks a free bucket) ...
    hash_keys: Vec<u32>,
    /// ... and the distance stored under each key.
    hash_dist: Vec<u32>,
    /// `heads.len() + 1` offsets into `hash_keys` / `hash_dist`; each
    /// row's table capacity is a power of two.
    hash_offsets: Vec<u32>,
    /// Shared BFS distance scratch (`n`-sized, all-`UNREACHED` between
    /// sweeps; touched-entry reset via the ball just built).
    scratch_dist: Vec<u32>,
    /// Previous arenas while [`Self::apply_delta`] writes the new
    /// concatenated lists (kept so incremental steps allocate nothing
    /// once warm).
    prev_balls: Vec<NodeId>,
    prev_offsets: Vec<u32>,
    prev_hash_keys: Vec<u32>,
    prev_hash_dist: Vec<u32>,
    prev_hash_offsets: Vec<u32>,
    /// Full-arena rebuilds performed so far (incremental paths never
    /// bump it — see [`HeadLabels::rebuild_count`]).
    rebuilds: u64,
}

impl SparseHeadLabels {
    /// Builds labels from scratch: one BFS per head, exploring to
    /// `bound` hops (`u32::MAX` = whole component).
    pub fn build<G: Adjacency>(g: &G, heads: &[NodeId], bound: u32) -> Self {
        let mut labels = SparseHeadLabels::default();
        labels.rebuild(g, heads, bound);
        labels
    }

    /// Rebuilds the labels for a (possibly different) graph and head
    /// set, reusing every allocation.
    pub fn rebuild<G: Adjacency>(&mut self, g: &G, heads: &[NodeId], bound: u32) {
        self.prepare_rebuild(g.node_count(), heads, bound);
        self.ball_offsets.push(0);
        self.hash_offsets.push(0);
        for slot in 0..self.heads.len() {
            self.sweep_head(g, slot);
            self.ball_offsets.push(self.balls.len() as u32);
            self.hash_offsets.push(self.hash_keys.len() as u32);
        }
    }

    /// Shared rebuild preamble: clears the row arenas and adopts the
    /// new graph size / head set / bound, leaving the shared scratch
    /// all-`UNREACHED` — ready for the sweeps, serial or chunked.
    fn prepare_rebuild(&mut self, n: usize, heads: &[NodeId], bound: u32) {
        self.rebuilds += 1;
        for &h in &self.heads {
            if h.index() < self.slot_of.len() {
                self.slot_of[h.index()] = NO_SLOT;
            }
        }
        self.balls.clear();
        self.ball_offsets.clear();
        self.hash_keys.clear();
        self.hash_dist.clear();
        self.hash_offsets.clear();

        self.n = n;
        self.bound = bound;
        self.heads.clear();
        self.heads.extend_from_slice(heads);
        if self.slot_of.len() < self.n {
            self.slot_of.resize(self.n, NO_SLOT);
        }
        if self.scratch_dist.len() < self.n {
            self.scratch_dist.resize(self.n, UNREACHED);
        }
        for (slot, &h) in self.heads.iter().enumerate() {
            debug_assert_eq!(self.slot_of[h.index()], NO_SLOT, "duplicate head {h:?}");
            self.slot_of[h.index()] = slot as u32;
        }
    }

    /// [`Self::rebuild`] with an explicit worker count: the per-head
    /// sweeps fan out over `par` workers, each with its **own**
    /// `n`-sized distance scratch and local ball / lookup-table
    /// fragments, concatenated in slot order. Each row's open-addressed
    /// table depends only on the row's ball and distances (insertion in
    /// discovery order), so the merged arenas are **bit-identical** to
    /// a serial rebuild for every worker count (pinned by tests). Builds
    /// below one thread spawn's worth of `heads × n` work
    /// ([`Parallelism::for_work`]) run the chunked sweep on one worker,
    /// inline.
    pub fn rebuild_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        heads: &[NodeId],
        bound: u32,
        par: Parallelism,
    ) {
        if par.workers() <= 1 || heads.len() < 2 {
            self.rebuild(g, heads, bound);
            return;
        }
        let workers = par.for_work(heads.len() * g.node_count()).workers();
        self.prepare_rebuild(g.node_count(), heads, bound);
        let n = self.n;
        let rows = self.heads.len();
        let heads_list: &[NodeId] = &self.heads;
        let frags = par::scoped_chunks(workers, rows, (), |off, take, ()| {
            let mut scratch = vec![UNREACHED; n];
            let mut balls = Vec::new();
            let mut bo = Vec::with_capacity(take + 1);
            bo.push(0u32);
            let mut keys = Vec::new();
            let mut dist = Vec::new();
            let mut ho = Vec::with_capacity(take + 1);
            ho.push(0u32);
            for i in 0..take {
                sweep_sparse_row(
                    g,
                    heads_list[off + i],
                    bound,
                    &mut scratch,
                    &mut balls,
                    &mut keys,
                    &mut dist,
                );
                bo.push(balls.len() as u32);
                ho.push(keys.len() as u32);
            }
            (balls, bo, keys, dist, ho)
        });
        self.ball_offsets.push(0);
        self.hash_offsets.push(0);
        for (balls, bo, keys, dist, ho) in frags {
            let bb = self.balls.len() as u32;
            let hb = self.hash_keys.len() as u32;
            self.balls.extend_from_slice(&balls);
            self.hash_keys.extend_from_slice(&keys);
            self.hash_dist.extend_from_slice(&dist);
            self.ball_offsets.extend(bo[1..].iter().map(|&w| bb + w));
            self.hash_offsets.extend(ho[1..].iter().map(|&w| hb + w));
        }
    }

    /// Runs one head's bounded BFS through the shared scratch row,
    /// appends its ball (discovery order) and open-addressed lookup
    /// table, and leaves the scratch all-`UNREACHED` again. Delegates
    /// to the free function the chunked paths also run — one code
    /// path, so serial and parallel builds are bit-identical by
    /// construction.
    fn sweep_head<G: Adjacency>(&mut self, g: &G, slot: usize) {
        sweep_sparse_row(
            g,
            self.heads[slot],
            self.bound,
            &mut self.scratch_dist,
            &mut self.balls,
            &mut self.hash_keys,
            &mut self.hash_dist,
        );
    }

    /// The slots (ascending) whose labels a topology delta can have
    /// changed — same soundness argument as
    /// [`HeadLabels::dirty_slots`]: a row changes only if a changed
    /// edge has an endpoint inside that head's **old** ball.
    ///
    /// # Panics
    /// Panics on deltas whose endpoints exceed the labeled node count.
    pub fn dirty_slots(&self, delta: &TopologyDelta) -> Vec<usize> {
        for v in delta.endpoints() {
            assert!(v.index() < self.n, "delta endpoint {v:?} beyond labeled nodes");
        }
        let mut dirty = Vec::new();
        for slot in 0..self.heads.len() {
            let row = self.row(slot);
            if delta.endpoints().any(|v| row.dist(v) != UNREACHED) {
                dirty.push(slot);
            }
        }
        dirty
    }

    /// Re-labels exactly the `dirty` slots (from [`Self::dirty_slots`])
    /// against the post-delta graph `g`: clean rows are copied
    /// byte-for-byte (ball, index, distances), dirty rows re-run their
    /// bounded BFS. The result is identical to a full [`Self::rebuild`]
    /// on `g` (pinned by tests).
    ///
    /// # Panics
    /// Panics if `g`'s node count differs from the labeled one, or if
    /// `dirty` is not ascending and in range.
    pub fn apply_delta<G: Adjacency>(&mut self, g: &G, dirty: &[usize]) {
        assert_eq!(g.node_count(), self.n, "deltas keep the node set");
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty slots must be ascending and unique"
        );
        if dirty.is_empty() {
            return;
        }
        for &slot in dirty {
            assert!(slot < self.heads.len(), "dirty slot out of range");
        }
        self.begin_splice();
        let mut next_dirty = 0usize;
        for slot in 0..self.heads.len() {
            if next_dirty < dirty.len() && dirty[next_dirty] == slot {
                next_dirty += 1;
                self.sweep_head(g, slot);
            } else {
                self.copy_prev_row(slot);
            }
            self.ball_offsets.push(self.balls.len() as u32);
            self.hash_offsets.push(self.hash_keys.len() as u32);
        }
    }

    /// [`Self::apply_delta`] with an explicit worker count: the dirty
    /// rows' re-sweeps fan out over `par` workers (each with its own
    /// `n`-sized scratch and local row fragments), then the arenas are
    /// spliced in slot order — bit-identical to the serial repair for
    /// every worker count (pinned by tests).
    pub fn apply_delta_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        dirty: &[usize],
        par: Parallelism,
    ) {
        if par.workers() <= 1 || dirty.len() < 2 {
            self.apply_delta(g, dirty);
            return;
        }
        assert_eq!(g.node_count(), self.n, "deltas keep the node set");
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty slots must be ascending and unique"
        );
        for &slot in dirty {
            assert!(slot < self.heads.len(), "dirty slot out of range");
        }
        let n = self.n;
        let bound = self.bound;
        let dirty_heads: Vec<NodeId> = dirty.iter().map(|&s| self.heads[s]).collect();
        let frags = par::scoped_chunks(par.workers(), dirty.len(), (), |off, take, ()| {
            let mut scratch = vec![UNREACHED; n];
            let mut balls = Vec::new();
            let mut bo = Vec::with_capacity(take + 1);
            bo.push(0u32);
            let mut keys = Vec::new();
            let mut dist = Vec::new();
            let mut ho = Vec::with_capacity(take + 1);
            ho.push(0u32);
            for i in 0..take {
                sweep_sparse_row(
                    g,
                    dirty_heads[off + i],
                    bound,
                    &mut scratch,
                    &mut balls,
                    &mut keys,
                    &mut dist,
                );
                bo.push(balls.len() as u32);
                ho.push(keys.len() as u32);
            }
            (balls, bo, keys, dist, ho)
        });
        // Flatten the fragments into dirty-indexed arenas ...
        let mut db: Vec<NodeId> = Vec::new();
        let mut dbo = vec![0u32];
        let mut dk: Vec<u32> = Vec::new();
        let mut dd: Vec<u32> = Vec::new();
        let mut dho = vec![0u32];
        for (balls, bo, keys, dist, ho) in &frags {
            let bb = db.len() as u32;
            let hb = dk.len() as u32;
            db.extend_from_slice(balls);
            dk.extend_from_slice(keys);
            dd.extend_from_slice(dist);
            dbo.extend(bo[1..].iter().map(|&w| bb + w));
            dho.extend(ho[1..].iter().map(|&w| hb + w));
        }
        // ... and splice: clean rows copied byte-for-byte, dirty rows
        // from their freshly swept fragments, in slot order.
        self.begin_splice();
        let mut next_dirty = 0usize;
        for slot in 0..self.heads.len() {
            if next_dirty < dirty.len() && dirty[next_dirty] == slot {
                let (lo, hi) = (
                    dbo[next_dirty] as usize,
                    dbo[next_dirty + 1] as usize,
                );
                self.balls.extend_from_slice(&db[lo..hi]);
                let (hlo, hhi) = (
                    dho[next_dirty] as usize,
                    dho[next_dirty + 1] as usize,
                );
                self.hash_keys.extend_from_slice(&dk[hlo..hhi]);
                self.hash_dist.extend_from_slice(&dd[hlo..hhi]);
                next_dirty += 1;
            } else {
                self.copy_prev_row(slot);
            }
            self.ball_offsets.push(self.balls.len() as u32);
            self.hash_offsets.push(self.hash_keys.len() as u32);
        }
    }

    /// Swaps every row arena with its `prev_` twin and clears the live
    /// side for a slot-by-slot rewrite (the shared splice preamble of
    /// `apply_delta` / `add_head_row` / `remove_head_row`).
    fn begin_splice(&mut self) {
        std::mem::swap(&mut self.balls, &mut self.prev_balls);
        std::mem::swap(&mut self.ball_offsets, &mut self.prev_offsets);
        std::mem::swap(&mut self.hash_keys, &mut self.prev_hash_keys);
        std::mem::swap(&mut self.hash_dist, &mut self.prev_hash_dist);
        std::mem::swap(&mut self.hash_offsets, &mut self.prev_hash_offsets);
        self.balls.clear();
        self.ball_offsets.clear();
        self.hash_keys.clear();
        self.hash_dist.clear();
        self.hash_offsets.clear();
        self.ball_offsets.push(0);
        self.hash_offsets.push(0);
    }

    /// Copies one pre-splice row (ball + lookup table) byte-for-byte
    /// into the live arenas.
    fn copy_prev_row(&mut self, old: usize) {
        let (lo, hi) = (
            self.prev_offsets[old] as usize,
            self.prev_offsets[old + 1] as usize,
        );
        self.balls.extend_from_slice(&self.prev_balls[lo..hi]);
        let (hlo, hhi) = (
            self.prev_hash_offsets[old] as usize,
            self.prev_hash_offsets[old + 1] as usize,
        );
        self.hash_keys
            .extend_from_slice(&self.prev_hash_keys[hlo..hhi]);
        self.hash_dist
            .extend_from_slice(&self.prev_hash_dist[hlo..hhi]);
    }

    /// Incrementally inserts a label row for a **new** head `h`: one
    /// bounded BFS plus an arena splice, no other row re-swept —
    /// identical to a full [`Self::rebuild`] with `h` in the head list
    /// (pinned by tests; see [`HeadLabels::add_head_row`] for the
    /// independence argument). Returns the new head's slot.
    ///
    /// # Panics
    /// Panics if `h` is already a head or beyond the labeled nodes, if
    /// no build ran yet, or if `g`'s node count differs.
    pub fn add_head_row<G: Adjacency>(&mut self, g: &G, h: NodeId) -> usize {
        assert_eq!(g.node_count(), self.n, "head-set changes keep the node set");
        assert!(h.index() < self.n, "head {h:?} beyond labeled nodes");
        assert_eq!(
            self.ball_offsets.len(),
            self.heads.len() + 1,
            "add_head_row needs built labels"
        );
        let slot = match self.heads.binary_search(&h) {
            Ok(_) => panic!("{h:?} is already a head"),
            Err(s) => s,
        };
        for &hd in &self.heads[slot..] {
            self.slot_of[hd.index()] += 1;
        }
        self.heads.insert(slot, h);
        self.slot_of[h.index()] = slot as u32;
        self.begin_splice();
        for s in 0..self.heads.len() {
            if s == slot {
                self.sweep_head(g, s);
            } else {
                let old = if s < slot { s } else { s - 1 };
                self.copy_prev_row(old);
            }
            self.ball_offsets.push(self.balls.len() as u32);
            self.hash_offsets.push(self.hash_keys.len() as u32);
        }
        slot
    }

    /// Incrementally removes the label row of head `h`: an arena
    /// splice with no BFS at all — identical to a full
    /// [`Self::rebuild`] without `h` (pinned by tests). Returns the
    /// removed head's former slot.
    ///
    /// # Panics
    /// Panics if `h` is not a head.
    pub fn remove_head_row(&mut self, h: NodeId) -> usize {
        let slot = self
            .heads
            .binary_search(&h)
            .unwrap_or_else(|_| panic!("{h:?} is not a head"));
        self.slot_of[h.index()] = NO_SLOT;
        for &hd in &self.heads[slot + 1..] {
            self.slot_of[hd.index()] -= 1;
        }
        self.heads.remove(slot);
        self.begin_splice();
        for s in 0..self.heads.len() {
            let old = if s < slot { s } else { s + 1 };
            self.copy_prev_row(old);
            self.ball_offsets.push(self.balls.len() as u32);
            self.hash_offsets.push(self.hash_keys.len() as u32);
        }
        slot
    }

    /// Full-arena rebuilds performed over this value's lifetime (see
    /// [`HeadLabels::rebuild_count`]).
    #[inline]
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Bytes of heap memory the label arenas currently hold (capacity,
    /// not logical size). The dominant terms are the ball list and the
    /// per-row tables (4 + ~16–32 bytes per ball entry at ≤ 50% load,
    /// plus their warm `prev` copies) and the two `n`-sized node maps
    /// — `O(Σ ball sizes + n)`, versus the dense layout's `O(h · n)`.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.balls.capacity() + self.prev_balls.capacity() + self.heads.capacity())
            * size_of::<NodeId>()
            + (self.hash_keys.capacity()
                + self.prev_hash_keys.capacity()
                + self.hash_dist.capacity()
                + self.prev_hash_dist.capacity()
                + self.hash_offsets.capacity()
                + self.prev_hash_offsets.capacity()
                + self.ball_offsets.capacity()
                + self.prev_offsets.capacity()
                + self.scratch_dist.capacity()
                + self.slot_of.capacity())
                * size_of::<u32>()
    }

    /// The heads the labels were built from, in slot order.
    #[inline]
    pub fn heads(&self) -> &[NodeId] {
        &self.heads
    }

    /// The hop bound of the last build (`u32::MAX` = unbounded).
    #[inline]
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Node count of the graph of the last build.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The slot of `head`, or `None` if it is not a labeled source.
    #[inline]
    pub fn slot(&self, head: NodeId) -> Option<usize> {
        match self.slot_of.get(head.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Hop distance from the head in `slot` to `v` (`UNREACHED` if `v`
    /// is outside the head's ball). One multiply plus a short linear
    /// probe of the row's table — `O(1)` expected, like the dense
    /// layout, just through one more indirection.
    #[inline]
    pub fn dist(&self, slot: usize, v: NodeId) -> u32 {
        self.row(slot).dist(v)
    }

    /// Hop distance between two labeled heads (`UNREACHED` if beyond
    /// the bound or disconnected).
    ///
    /// # Panics
    /// Panics if `a` is not a labeled head.
    pub fn head_dist(&self, a: NodeId, b: NodeId) -> u32 {
        let slot = self
            .slot(a)
            .unwrap_or_else(|| panic!("{a:?} is not a labeled head"));
        self.dist(slot, b)
    }

    /// The *other* labeled heads within `bound` hops of the head in
    /// `slot`, ascending by ID (requires an ascending head list, which
    /// the pipeline always supplies). Scans whichever side is smaller:
    /// the head list (like the dense layout, already sorted) or the
    /// head's ball (`O(ball)` — the reason the NC relation gets
    /// *cheaper* under this layout once `h ≫ ball`, which is exactly
    /// the large-`N` regime).
    pub fn heads_within(&self, slot: usize, bound: u32) -> Vec<NodeId> {
        let h = self.heads[slot];
        let row = self.row(slot);
        let ball = {
            let (lo, hi) = (
                self.ball_offsets[slot] as usize,
                self.ball_offsets[slot + 1] as usize,
            );
            &self.balls[lo..hi]
        };
        if self.heads.len() <= ball.len() {
            self.heads
                .iter()
                .copied()
                .filter(|&o| o != h && row.dist(o) <= bound)
                .collect()
        } else {
            let mut near: Vec<NodeId> = ball
                .iter()
                .copied()
                .filter(|&v| v != h && self.slot_of[v.index()] != NO_SLOT && row.dist(v) <= bound)
                .collect();
            near.sort_unstable();
            near
        }
    }

    /// The ball of the head in `slot`: every node within the bound, in
    /// BFS discovery order (the head itself first) — bit-identical to
    /// what [`HeadLabels::ball`] yields for the same build.
    pub fn ball(&self, slot: usize) -> &[NodeId] {
        let (lo, hi) = (
            self.ball_offsets[slot] as usize,
            self.ball_offsets[slot + 1] as usize,
        );
        &self.balls[lo..hi]
    }

    /// The distance row of `slot` as a [`DistLabels`] view, usable with
    /// [`crate::bfs::lexico_path_from_labels`].
    #[inline]
    pub fn row(&self, slot: usize) -> SparseRow<'_> {
        let lo = self.hash_offsets[slot] as usize;
        let hi = self.hash_offsets[slot + 1] as usize;
        SparseRow {
            keys: &self.hash_keys[lo..hi],
            dist: &self.hash_dist[lo..hi],
        }
    }
}

/// One sparse head's distance row (a borrowed [`DistLabels`] view over
/// the row's open-addressed table).
#[derive(Clone, Copy, Debug)]
pub struct SparseRow<'a> {
    keys: &'a [u32],
    dist: &'a [u32],
}

impl DistLabels for SparseRow<'_> {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        let mask = self.keys.len() - 1;
        let mut b = bucket(v, mask);
        loop {
            let k = self.keys[b];
            if k == v.0 {
                return self.dist[b];
            }
            if k == EMPTY {
                return UNREACHED;
            }
            b = (b + 1) & mask;
        }
    }
}

/// Projected dense-arena size (`heads × n × 4` bytes) above which
/// [`LabelMode::Auto`] switches a build to the sparse layout. 16 MiB
/// keeps the paper-scale grids (`N ≤ 2000`, where the flat arena is at
/// most a few MB and its `O(1)` lookups win) on the dense layout while
/// every `N ≥ 10⁴` cell at default density lands on sparse.
pub const AUTO_SPARSE_THRESHOLD_BYTES: usize = 16 << 20;

/// Which label layout an evaluation scratch should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LabelMode {
    /// Always the flat `heads × n` arena ([`HeadLabels`]).
    Dense,
    /// Always the ball-indexed layout ([`SparseHeadLabels`]).
    Sparse,
    /// Decide per build: sparse once the projected dense arena
    /// (`heads · n · 4` bytes) exceeds
    /// [`AUTO_SPARSE_THRESHOLD_BYTES`].
    #[default]
    Auto,
}

impl LabelMode {
    /// Whether a build over `heads` sources on an `n`-node graph
    /// should use the sparse layout under this mode.
    pub fn wants_sparse(self, n: usize, heads: usize) -> bool {
        match self {
            LabelMode::Dense => false,
            LabelMode::Sparse => true,
            LabelMode::Auto => {
                heads.saturating_mul(n).saturating_mul(4) > AUTO_SPARSE_THRESHOLD_BYTES
            }
        }
    }

    /// Display name (`dense` / `sparse` / `auto`).
    pub fn name(self) -> &'static str {
        match self {
            LabelMode::Dense => "dense",
            LabelMode::Sparse => "sparse",
            LabelMode::Auto => "auto",
        }
    }
}

impl std::str::FromStr for LabelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "dense" => Ok(LabelMode::Dense),
            "sparse" => Ok(LabelMode::Sparse),
            "auto" => Ok(LabelMode::Auto),
            other => Err(format!("unknown label layout {other} (dense|sparse|auto)")),
        }
    }
}

/// A head-label arena in either layout, presenting one API so every
/// consumer — the NC relation, the virtual-graph builders, the
/// incremental churn engine — runs unmodified off dense or sparse
/// storage. The evaluation scratch owns one of these and picks the
/// variant per [`LabelMode`].
#[derive(Clone, Debug)]
pub enum LabelStore {
    /// Flat `heads × n` distance arena — direct-indexed lookups,
    /// `O(h · n)` memory.
    Dense(HeadLabels),
    /// Ball-indexed rows — `O(1)` expected hash lookups, `O(Σ ball
    /// sizes)` memory.
    Sparse(SparseHeadLabels),
}

impl Default for LabelStore {
    fn default() -> Self {
        LabelStore::Dense(HeadLabels::default())
    }
}

impl LabelStore {
    /// An empty dense store.
    pub fn dense() -> Self {
        LabelStore::Dense(HeadLabels::default())
    }

    /// An empty sparse store.
    pub fn sparse() -> Self {
        LabelStore::Sparse(SparseHeadLabels::default())
    }

    /// An empty store in the layout `mode` selects for an `n`-node
    /// graph with `heads` sources.
    pub fn for_mode(mode: LabelMode, n: usize, heads: usize) -> Self {
        if mode.wants_sparse(n, heads) {
            LabelStore::sparse()
        } else {
            LabelStore::dense()
        }
    }

    /// Whether this store uses the sparse layout.
    pub fn is_sparse(&self) -> bool {
        matches!(self, LabelStore::Sparse(_))
    }

    /// Display name of the active layout (`dense` / `sparse`).
    pub fn layout_name(&self) -> &'static str {
        match self {
            LabelStore::Dense(_) => "dense",
            LabelStore::Sparse(_) => "sparse",
        }
    }

    /// Rebuilds the labels for a (possibly different) graph and head
    /// set, reusing every allocation of the active layout.
    pub fn rebuild<G: Adjacency>(&mut self, g: &G, heads: &[NodeId], bound: u32) {
        match self {
            LabelStore::Dense(l) => l.rebuild(g, heads, bound),
            LabelStore::Sparse(l) => l.rebuild(g, heads, bound),
        }
    }

    /// [`Self::rebuild`] with an explicit worker count — bit-identical
    /// output for every worker count in either layout. See
    /// [`HeadLabels::rebuild_with`] / [`SparseHeadLabels::rebuild_with`].
    pub fn rebuild_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        heads: &[NodeId],
        bound: u32,
        par: Parallelism,
    ) {
        match self {
            LabelStore::Dense(l) => l.rebuild_with(g, heads, bound, par),
            LabelStore::Sparse(l) => l.rebuild_with(g, heads, bound, par),
        }
    }

    /// See [`HeadLabels::dirty_slots`] / [`SparseHeadLabels::dirty_slots`].
    pub fn dirty_slots(&self, delta: &TopologyDelta) -> Vec<usize> {
        match self {
            LabelStore::Dense(l) => l.dirty_slots(delta),
            LabelStore::Sparse(l) => l.dirty_slots(delta),
        }
    }

    /// See [`HeadLabels::apply_delta`] / [`SparseHeadLabels::apply_delta`].
    pub fn apply_delta<G: Adjacency>(&mut self, g: &G, dirty: &[usize]) {
        match self {
            LabelStore::Dense(l) => l.apply_delta(g, dirty),
            LabelStore::Sparse(l) => l.apply_delta(g, dirty),
        }
    }

    /// [`Self::apply_delta`] with an explicit worker count —
    /// bit-identical output for every worker count in either layout.
    /// See [`HeadLabels::apply_delta_with`] /
    /// [`SparseHeadLabels::apply_delta_with`].
    pub fn apply_delta_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        dirty: &[usize],
        par: Parallelism,
    ) {
        match self {
            LabelStore::Dense(l) => l.apply_delta_with(g, dirty, par),
            LabelStore::Sparse(l) => l.apply_delta_with(g, dirty, par),
        }
    }

    /// Incrementally inserts a label row for a new head — one bounded
    /// BFS plus an arena splice in either layout, never a full
    /// rebuild. See [`HeadLabels::add_head_row`] /
    /// [`SparseHeadLabels::add_head_row`]. Returns the new slot.
    pub fn add_head_row<G: Adjacency>(&mut self, g: &G, h: NodeId) -> usize {
        match self {
            LabelStore::Dense(l) => l.add_head_row(g, h),
            LabelStore::Sparse(l) => l.add_head_row(g, h),
        }
    }

    /// Incrementally removes a head's label row — an arena splice with
    /// no BFS in either layout. See [`HeadLabels::remove_head_row`] /
    /// [`SparseHeadLabels::remove_head_row`]. Returns the former slot.
    pub fn remove_head_row(&mut self, h: NodeId) -> usize {
        match self {
            LabelStore::Dense(l) => l.remove_head_row(h),
            LabelStore::Sparse(l) => l.remove_head_row(h),
        }
    }

    /// Full-arena rebuilds of the active layout over its lifetime (the
    /// incremental paths never bump it; see
    /// [`HeadLabels::rebuild_count`]).
    #[inline]
    pub fn rebuild_count(&self) -> u64 {
        match self {
            LabelStore::Dense(l) => l.rebuild_count(),
            LabelStore::Sparse(l) => l.rebuild_count(),
        }
    }

    /// Bytes of heap memory the active layout currently holds.
    pub fn memory_bytes(&self) -> usize {
        match self {
            LabelStore::Dense(l) => l.memory_bytes(),
            LabelStore::Sparse(l) => l.memory_bytes(),
        }
    }

    /// The heads the labels were built from, in slot order.
    #[inline]
    pub fn heads(&self) -> &[NodeId] {
        match self {
            LabelStore::Dense(l) => l.heads(),
            LabelStore::Sparse(l) => l.heads(),
        }
    }

    /// The hop bound of the last build (`u32::MAX` = unbounded).
    #[inline]
    pub fn bound(&self) -> u32 {
        match self {
            LabelStore::Dense(l) => l.bound(),
            LabelStore::Sparse(l) => l.bound(),
        }
    }

    /// Node count of the graph of the last build.
    #[inline]
    pub fn node_count(&self) -> usize {
        match self {
            LabelStore::Dense(l) => l.node_count(),
            LabelStore::Sparse(l) => l.node_count(),
        }
    }

    /// The slot of `head`, or `None` if it is not a labeled source.
    #[inline]
    pub fn slot(&self, head: NodeId) -> Option<usize> {
        match self {
            LabelStore::Dense(l) => l.slot(head),
            LabelStore::Sparse(l) => l.slot(head),
        }
    }

    /// Hop distance from the head in `slot` to `v` (`UNREACHED` if `v`
    /// is outside the head's ball).
    #[inline]
    pub fn dist(&self, slot: usize, v: NodeId) -> u32 {
        match self {
            LabelStore::Dense(l) => l.dist(slot, v),
            LabelStore::Sparse(l) => l.dist(slot, v),
        }
    }

    /// Hop distance between two labeled heads.
    ///
    /// # Panics
    /// Panics if `a` is not a labeled head.
    pub fn head_dist(&self, a: NodeId, b: NodeId) -> u32 {
        match self {
            LabelStore::Dense(l) => l.head_dist(a, b),
            LabelStore::Sparse(l) => l.head_dist(a, b),
        }
    }

    /// The *other* labeled heads within `bound` hops of the head in
    /// `slot`, ascending (both layouts agree when the labels were
    /// built from an ascending head list, as the pipeline always
    /// does).
    pub fn heads_within(&self, slot: usize, bound: u32) -> Vec<NodeId> {
        match self {
            LabelStore::Dense(l) => l.heads_within(slot, bound),
            LabelStore::Sparse(l) => l.heads_within(slot, bound),
        }
    }

    /// The ball of the head in `slot`, in BFS discovery order —
    /// bit-identical across layouts for the same build.
    pub fn ball(&self, slot: usize) -> &[NodeId] {
        match self {
            LabelStore::Dense(l) => l.ball(slot),
            LabelStore::Sparse(l) => l.ball(slot),
        }
    }

    /// The distance row of `slot` as a [`DistLabels`] view.
    #[inline]
    pub fn row(&self, slot: usize) -> LabelRow<'_> {
        match self {
            LabelStore::Dense(l) => LabelRow::Dense(l.row(slot)),
            LabelStore::Sparse(l) => LabelRow::Sparse(l.row(slot)),
        }
    }
}

/// One head's distance row from a [`LabelStore`], in either layout.
#[derive(Clone, Copy, Debug)]
pub enum LabelRow<'a> {
    /// Borrowed dense row (direct-indexed lookups).
    Dense(HeadRow<'a>),
    /// Borrowed sparse row (`O(1)` expected hash lookups).
    Sparse(SparseRow<'a>),
}

impl DistLabels for LabelRow<'_> {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        match self {
            LabelRow::Dense(r) => r.dist(v),
            LabelRow::Sparse(r) => r.dist(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{self, BfsScratch};
    use crate::gen;
    use crate::graph::Graph;

    fn assert_matches_scratch(g: &Graph, heads: &[NodeId], bound: u32, labels: &HeadLabels) {
        let mut scratch = BfsScratch::new(g.len());
        for (slot, &h) in heads.iter().enumerate() {
            scratch.run(g, h, bound);
            for v in g.nodes() {
                assert_eq!(
                    labels.dist(slot, v),
                    scratch.dist(v),
                    "head {h:?} node {v:?}"
                );
            }
            assert_eq!(labels.ball(slot), scratch.visited());
        }
    }

    #[test]
    fn labels_match_per_head_bfs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(7), NodeId(33)];
        for bound in [1, 3, u32::MAX] {
            let labels = HeadLabels::build(&net.graph, &heads, bound);
            assert_matches_scratch(&net.graph, &heads, bound, &labels);
        }
    }

    #[test]
    fn slots_and_head_dist() {
        let g = gen::path(6);
        let heads = vec![NodeId(0), NodeId(4)];
        let labels = HeadLabels::build(&g, &heads, u32::MAX);
        assert_eq!(labels.slot(NodeId(0)), Some(0));
        assert_eq!(labels.slot(NodeId(4)), Some(1));
        assert_eq!(labels.slot(NodeId(2)), None);
        assert_eq!(labels.head_dist(NodeId(0), NodeId(4)), 4);
        assert_eq!(labels.head_dist(NodeId(4), NodeId(0)), 4);
        assert_eq!(labels.heads(), &heads[..]);
        assert_eq!(labels.bound(), u32::MAX);
        assert_eq!(labels.node_count(), 6);
    }

    #[test]
    fn bounded_ball_excludes_far_nodes() {
        let g = gen::path(8);
        let labels = HeadLabels::build(&g, &[NodeId(0)], 2);
        assert_eq!(labels.dist(0, NodeId(2)), 2);
        assert_eq!(labels.dist(0, NodeId(3)), UNREACHED);
        assert_eq!(labels.ball(0), &[NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn rebuild_resets_across_graphs_of_different_size() {
        let big = gen::path(12);
        let small = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut labels = HeadLabels::build(&big, &[NodeId(0), NodeId(6), NodeId(11)], u32::MAX);
        labels.rebuild(&small, &[NodeId(2)], 1);
        assert_eq!(labels.heads(), &[NodeId(2)]);
        assert_eq!(labels.slot(NodeId(0)), None, "old head slots reset");
        assert_eq!(labels.dist(0, NodeId(3)), 1);
        assert_eq!(labels.dist(0, NodeId(0)), UNREACHED);
        assert_matches_scratch(&small, &[NodeId(2)], 1, &labels);
        // And back up to the larger graph again.
        labels.rebuild(&big, &[NodeId(3), NodeId(9)], 3);
        assert_matches_scratch(&big, &[NodeId(3), NodeId(9)], 3, &labels);
    }

    #[test]
    fn row_drives_lexico_paths() {
        // Two shortest 0->3 paths; the label walk must pick the one
        // through 1, identical to the scratch-based construction.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let labels = HeadLabels::build(&g, &[NodeId(3)], u32::MAX);
        let p = bfs::lexico_path_from_labels(&g, NodeId(0), NodeId(3), &labels.row(0)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn reaching_heads_labels_support_head_queries_and_walks() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(5), NodeId(41), NodeId(77)];
        let full = HeadLabels::build(&net.graph, &heads, u32::MAX);
        let mut lazy = HeadLabels::default();
        lazy.rebuild_reaching_heads(&net.graph, &heads);
        for (slot, &h) in heads.iter().enumerate() {
            // Head-to-head distances agree with the full build.
            for &o in &heads {
                assert_eq!(lazy.dist(slot, o), full.dist(slot, o), "{h:?} -> {o:?}");
            }
            // Every labeled node is labeled with its exact distance.
            for &v in lazy.ball(slot) {
                assert_eq!(lazy.dist(slot, v), full.dist(slot, v));
            }
            // Canonical inter-head walks agree with the full build.
            for &a in &heads {
                if a == h {
                    continue;
                }
                let p1 =
                    bfs::lexico_path_from_labels(&net.graph, a, h, &lazy.row(slot)).unwrap();
                let p2 =
                    bfs::lexico_path_from_labels(&net.graph, a, h, &full.row(slot)).unwrap();
                assert_eq!(p1, p2, "walk {a:?} -> {h:?}");
            }
        }
    }

    #[test]
    fn reaching_heads_single_head_skips_exploration() {
        let g = gen::path(9);
        let mut labels = HeadLabels::default();
        labels.rebuild_reaching_heads(&g, &[NodeId(4)]);
        assert_eq!(labels.ball(0), &[NodeId(4)]);
        assert_eq!(labels.dist(0, NodeId(4)), 0);
    }

    /// Drives a random delta sequence and checks after every step that
    /// dirty-slot detection plus per-row repair reproduces a full
    /// rebuild bit-for-bit (dist rows *and* ball lists).
    #[test]
    fn apply_delta_matches_full_rebuild() {
        use crate::delta::TopologyDelta;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for bound in [2u32, 5, u32::MAX] {
            let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 6.0), &mut rng);
            let mut g = net.graph.clone();
            let heads = vec![NodeId(0), NodeId(9), NodeId(25), NodeId(48), NodeId(69)];
            let mut labels = HeadLabels::build(&g, &heads, bound);
            for _ in 0..15 {
                // Random flips: toggle a few node pairs.
                let mut delta = TopologyDelta::new();
                for _ in 0..rng.gen_range(1..6) {
                    let a = NodeId(rng.gen_range(0..70u32));
                    let b = NodeId(rng.gen_range(0..70u32));
                    if a == b {
                        continue;
                    }
                    if g.has_edge(a, b) {
                        g.remove_edge(a, b);
                        delta.push_removed(a, b);
                    } else {
                        g.add_edge(a, b);
                        delta.push_added(a, b);
                    }
                }
                delta.normalize();
                let dirty = labels.dirty_slots(&delta);
                labels.apply_delta(&g, &dirty);
                let fresh = HeadLabels::build(&g, &heads, bound);
                for (slot, &h) in heads.iter().enumerate() {
                    for v in g.nodes() {
                        assert_eq!(
                            labels.dist(slot, v),
                            fresh.dist(slot, v),
                            "bound {bound} head {h:?} node {v:?}"
                        );
                    }
                    assert_eq!(labels.ball(slot), fresh.ball(slot), "head {h:?}");
                }
            }
        }
    }

    #[test]
    fn empty_delta_dirties_nothing() {
        use crate::delta::TopologyDelta;
        let g = gen::path(9);
        let mut labels = HeadLabels::build(&g, &[NodeId(0), NodeId(4), NodeId(8)], 3);
        let dirty = labels.dirty_slots(&TopologyDelta::new());
        assert!(dirty.is_empty());
        let before = labels.clone();
        labels.apply_delta(&g, &dirty);
        assert_eq!(labels.ball(1), before.ball(1));
    }

    #[test]
    fn faraway_change_leaves_bounded_ball_clean() {
        use crate::delta::TopologyDelta;
        // Heads 0 and 11 with bound 2 on a path: a flip at the far end
        // must dirty only the nearby head.
        let mut g = gen::path(12);
        let labels = HeadLabels::build(&g, &[NodeId(0), NodeId(11)], 2);
        let mut delta = TopologyDelta::new();
        g.remove_edge(NodeId(10), NodeId(11));
        delta.push_removed(NodeId(10), NodeId(11));
        assert_eq!(labels.dirty_slots(&delta), vec![1]);
        let mut inc = labels.clone();
        inc.apply_delta(&g, &[1]);
        assert_eq!(inc.dist(1, NodeId(10)), UNREACHED);
        assert_eq!(inc.ball(1), &[NodeId(11)]);
        assert_eq!(inc.ball(0), labels.ball(0), "clean row untouched");
    }

    #[test]
    #[should_panic(expected = "full-ball labels")]
    fn reaching_heads_labels_reject_deltas() {
        use crate::delta::TopologyDelta;
        let g = gen::path(9);
        let mut labels = HeadLabels::default();
        labels.rebuild_reaching_heads(&g, &[NodeId(0), NodeId(8)]);
        let mut d = TopologyDelta::new();
        d.push_added(NodeId(0), NodeId(5));
        labels.dirty_slots(&d);
    }

    #[test]
    fn memory_bytes_tracks_arena_growth() {
        let small = HeadLabels::build(&gen::path(4), &[NodeId(0)], 1);
        let big = HeadLabels::build(
            &gen::grid(10, 10),
            &[NodeId(0), NodeId(34), NodeId(67), NodeId(99)],
            u32::MAX,
        );
        assert!(small.memory_bytes() > 0);
        assert!(
            big.memory_bytes() >= 4 * 100 * 4,
            "dense arena dominates: {} bytes",
            big.memory_bytes()
        );
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn disconnected_pairs_are_unreached() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let labels = HeadLabels::build(&g, &[NodeId(0), NodeId(2)], u32::MAX);
        assert_eq!(labels.head_dist(NodeId(0), NodeId(2)), UNREACHED);
        assert_eq!(labels.dist(0, NodeId(1)), 1);
    }

    /// Every queryable surface of the two layouts must agree
    /// bit-for-bit on the same build.
    fn assert_layouts_agree(g: &Graph, heads: &[NodeId], bound: u32) {
        let dense = HeadLabels::build(g, heads, bound);
        let sparse = SparseHeadLabels::build(g, heads, bound);
        assert_eq!(dense.heads(), sparse.heads());
        assert_eq!(dense.bound(), sparse.bound());
        assert_eq!(dense.node_count(), sparse.node_count());
        for (slot, &h) in heads.iter().enumerate() {
            assert_eq!(dense.slot(h), sparse.slot(h));
            assert_eq!(dense.ball(slot), sparse.ball(slot), "ball of {h:?}");
            for v in g.nodes() {
                assert_eq!(
                    dense.dist(slot, v),
                    sparse.dist(slot, v),
                    "dist {h:?} -> {v:?}"
                );
            }
            for b in [1, bound.min(7), bound] {
                assert_eq!(
                    dense.heads_within(slot, b),
                    sparse.heads_within(slot, b),
                    "heads_within({h:?}, {b})"
                );
            }
        }
    }

    #[test]
    fn sparse_matches_dense_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(7), NodeId(33)];
        for bound in [1, 3, u32::MAX] {
            assert_layouts_agree(&net.graph, &heads, bound);
        }
    }

    #[test]
    fn sparse_rebuild_resets_across_graphs_of_different_size() {
        let big = gen::path(12);
        let small = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut labels =
            SparseHeadLabels::build(&big, &[NodeId(0), NodeId(6), NodeId(11)], u32::MAX);
        labels.rebuild(&small, &[NodeId(2)], 1);
        assert_eq!(labels.heads(), &[NodeId(2)]);
        assert_eq!(labels.slot(NodeId(0)), None, "old head slots reset");
        assert_eq!(labels.dist(0, NodeId(3)), 1);
        assert_eq!(labels.dist(0, NodeId(0)), UNREACHED);
        labels.rebuild(&big, &[NodeId(3), NodeId(9)], 3);
        assert_layouts_agree(&big, &[NodeId(3), NodeId(9)], 3);
    }

    #[test]
    fn sparse_row_drives_lexico_paths() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let labels = SparseHeadLabels::build(&g, &[NodeId(3)], u32::MAX);
        let p = bfs::lexico_path_from_labels(&g, NodeId(0), NodeId(3), &labels.row(0)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    /// Sparse delta repair reproduces a full sparse rebuild — and the
    /// dense one — bit-for-bit across a random flip sequence.
    #[test]
    fn sparse_apply_delta_matches_full_rebuild() {
        use crate::delta::TopologyDelta;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for bound in [2u32, 5, u32::MAX] {
            let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 6.0), &mut rng);
            let mut g = net.graph.clone();
            let heads = vec![NodeId(0), NodeId(9), NodeId(25), NodeId(48), NodeId(69)];
            let mut sparse = SparseHeadLabels::build(&g, &heads, bound);
            let mut dense = HeadLabels::build(&g, &heads, bound);
            for _ in 0..15 {
                let mut delta = TopologyDelta::new();
                for _ in 0..rng.gen_range(1..6) {
                    let a = NodeId(rng.gen_range(0..70u32));
                    let b = NodeId(rng.gen_range(0..70u32));
                    if a == b {
                        continue;
                    }
                    if g.has_edge(a, b) {
                        g.remove_edge(a, b);
                        delta.push_removed(a, b);
                    } else {
                        g.add_edge(a, b);
                        delta.push_added(a, b);
                    }
                }
                delta.normalize();
                let dirty = sparse.dirty_slots(&delta);
                assert_eq!(dirty, dense.dirty_slots(&delta), "dirty sets differ");
                sparse.apply_delta(&g, &dirty);
                dense.apply_delta(&g, &dirty);
                let fresh = SparseHeadLabels::build(&g, &heads, bound);
                for (slot, &h) in heads.iter().enumerate() {
                    assert_eq!(sparse.ball(slot), fresh.ball(slot), "ball {h:?}");
                    for v in g.nodes() {
                        assert_eq!(
                            sparse.dist(slot, v),
                            dense.dist(slot, v),
                            "bound {bound} head {h:?} node {v:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_memory_is_below_dense_at_scale() {
        // A long path with many heads: the dense arena is h·n·4 bytes,
        // the sparse one O(Σ balls) — at n = 4000 with 1000 heads of
        // bound 3 the gap is enormous.
        let g = gen::path(4000);
        let heads: Vec<NodeId> = (0..1000).map(|i| NodeId(i * 4)).collect();
        let dense = HeadLabels::build(&g, &heads, 3);
        let sparse = SparseHeadLabels::build(&g, &heads, 3);
        assert!(
            sparse.memory_bytes() * 4 < dense.memory_bytes(),
            "sparse {} vs dense {}",
            sparse.memory_bytes(),
            dense.memory_bytes()
        );
    }

    #[test]
    fn label_store_dispatches_both_layouts() {
        let g = gen::path(9);
        let heads = vec![NodeId(0), NodeId(4), NodeId(8)];
        for mut store in [LabelStore::dense(), LabelStore::sparse()] {
            store.rebuild(&g, &heads, 3);
            assert_eq!(store.heads(), &heads[..]);
            assert_eq!(store.bound(), 3);
            assert_eq!(store.node_count(), 9);
            assert_eq!(store.slot(NodeId(4)), Some(1));
            assert_eq!(store.dist(0, NodeId(3)), 3);
            assert_eq!(store.dist(0, NodeId(4)), UNREACHED);
            assert_eq!(store.head_dist(NodeId(4), NodeId(8)), UNREACHED);
            assert_eq!(store.heads_within(1, 3), Vec::<NodeId>::new());
            assert_eq!(store.ball(1).first(), Some(&NodeId(4)));
            let p =
                bfs::lexico_path_from_labels(&g, NodeId(2), NodeId(0), &store.row(0)).unwrap();
            assert_eq!(p.len(), 3);
        }
        assert!(!LabelStore::dense().is_sparse());
        assert!(LabelStore::sparse().is_sparse());
        assert_eq!(LabelStore::dense().layout_name(), "dense");
        assert_eq!(LabelStore::sparse().layout_name(), "sparse");
        assert_eq!(LabelStore::default().layout_name(), "dense");
    }

    /// Random head gain/loss chains: incremental row add/remove must
    /// reproduce a full rebuild bit-for-bit in both layouts — and must
    /// never touch the rebuild counter (the churn engine's
    /// no-rebuild-on-head-set-change contract).
    #[test]
    fn head_row_splice_matches_full_rebuild() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(97);
        for bound in [2u32, 5, u32::MAX] {
            let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
            let g = &net.graph;
            let mut heads = vec![NodeId(0), NodeId(9), NodeId(25), NodeId(48)];
            let mut dense = HeadLabels::build(g, &heads, bound);
            let mut sparse = SparseHeadLabels::build(g, &heads, bound);
            let (d0, s0) = (dense.rebuild_count(), sparse.rebuild_count());
            for _ in 0..25 {
                if heads.len() > 1 && rng.gen_bool(0.5) {
                    let h = heads[rng.gen_range(0..heads.len())];
                    let pos = heads.binary_search(&h).unwrap();
                    assert_eq!(dense.remove_head_row(h), pos);
                    assert_eq!(sparse.remove_head_row(h), pos);
                    heads.remove(pos);
                } else {
                    let h = loop {
                        let c = NodeId(rng.gen_range(0..60u32));
                        if heads.binary_search(&c).is_err() {
                            break c;
                        }
                    };
                    let pos = heads.binary_search(&h).unwrap_err();
                    assert_eq!(dense.add_head_row(g, h), pos);
                    assert_eq!(sparse.add_head_row(g, h), pos);
                    heads.insert(pos, h);
                }
                let fresh_d = HeadLabels::build(g, &heads, bound);
                let fresh_s = SparseHeadLabels::build(g, &heads, bound);
                assert_eq!(dense.heads(), &heads[..]);
                assert_eq!(sparse.heads(), &heads[..]);
                for (slot, &h) in heads.iter().enumerate() {
                    assert_eq!(dense.slot(h), Some(slot));
                    assert_eq!(sparse.slot(h), Some(slot));
                    assert_eq!(dense.ball(slot), fresh_d.ball(slot), "ball {h:?}");
                    assert_eq!(sparse.ball(slot), fresh_s.ball(slot), "ball {h:?}");
                    for v in g.nodes() {
                        assert_eq!(dense.dist(slot, v), fresh_d.dist(slot, v), "{h:?}->{v:?}");
                        assert_eq!(sparse.dist(slot, v), fresh_s.dist(slot, v), "{h:?}->{v:?}");
                    }
                }
            }
            assert_eq!(dense.rebuild_count(), d0, "dense splices must not rebuild");
            assert_eq!(sparse.rebuild_count(), s0, "sparse splices must not rebuild");
        }
    }

    /// Row splices compose with edge-delta repair and survive an empty
    /// head set in between.
    #[test]
    fn head_row_splice_handles_empty_and_interleaves_with_deltas() {
        use crate::delta::TopologyDelta;
        let mut g = gen::path(8);
        let mut labels = HeadLabels::build(&g, &[NodeId(3)], 2);
        assert_eq!(labels.remove_head_row(NodeId(3)), 0);
        assert!(labels.heads().is_empty());
        assert_eq!(labels.add_head_row(&g, NodeId(5)), 0);
        assert_eq!(labels.add_head_row(&g, NodeId(1)), 0);
        let mut delta = TopologyDelta::new();
        g.remove_edge(NodeId(4), NodeId(5));
        delta.push_removed(NodeId(4), NodeId(5));
        let dirty = labels.dirty_slots(&delta);
        assert_eq!(dirty, vec![1], "only the nearby head is dirty");
        labels.apply_delta(&g, &dirty);
        let fresh = HeadLabels::build(&g, &[NodeId(1), NodeId(5)], 2);
        for slot in 0..2 {
            assert_eq!(labels.ball(slot), fresh.ball(slot));
            for v in g.nodes() {
                assert_eq!(labels.dist(slot, v), fresh.dist(slot, v));
            }
        }
        assert_eq!(labels.rebuild_count(), 1, "only the initial build");
    }

    #[test]
    fn label_store_dispatches_head_row_splices() {
        let g = gen::path(9);
        for mut store in [LabelStore::dense(), LabelStore::sparse()] {
            store.rebuild(&g, &[NodeId(0), NodeId(4), NodeId(8)], 3);
            assert_eq!(store.rebuild_count(), 1);
            assert_eq!(store.remove_head_row(NodeId(4)), 1);
            assert_eq!(store.heads(), &[NodeId(0), NodeId(8)]);
            assert_eq!(store.add_head_row(&g, NodeId(2)), 1);
            assert_eq!(store.heads(), &[NodeId(0), NodeId(2), NodeId(8)]);
            assert_eq!(store.slot(NodeId(2)), Some(1));
            assert_eq!(store.slot(NodeId(8)), Some(2));
            assert_eq!(store.dist(1, NodeId(5)), 3);
            assert_eq!(store.rebuild_count(), 1, "splices are not rebuilds");
        }
    }

    #[test]
    fn label_mode_heuristic_and_parsing() {
        // 16 MiB threshold: h·n·4 strictly above it wants sparse.
        let just_above = (AUTO_SPARSE_THRESHOLD_BYTES / 4) + 1;
        assert!(LabelMode::Auto.wants_sparse(just_above, 1));
        assert!(!LabelMode::Auto.wants_sparse(AUTO_SPARSE_THRESHOLD_BYTES / 4, 1));
        assert!(!LabelMode::Auto.wants_sparse(2000, 500), "paper scale stays dense");
        assert!(LabelMode::Auto.wants_sparse(10_000, 2000), "N=1e4 goes sparse");
        assert!(LabelMode::Sparse.wants_sparse(4, 1));
        assert!(!LabelMode::Dense.wants_sparse(usize::MAX / 8, 2));
        assert_eq!("dense".parse::<LabelMode>().unwrap(), LabelMode::Dense);
        assert_eq!("Sparse".parse::<LabelMode>().unwrap(), LabelMode::Sparse);
        assert_eq!("AUTO".parse::<LabelMode>().unwrap(), LabelMode::Auto);
        assert!("flat".parse::<LabelMode>().is_err());
        assert_eq!(LabelMode::Auto.name(), "auto");
        assert_eq!(LabelMode::Dense.name(), "dense");
        assert_eq!(LabelMode::Sparse.name(), "sparse");
        assert_eq!(
            LabelStore::for_mode(LabelMode::Auto, 10_000, 2000).layout_name(),
            "sparse"
        );
        assert_eq!(
            LabelStore::for_mode(LabelMode::Auto, 200, 50).layout_name(),
            "dense"
        );
    }

    /// Parallel rebuild and delta repair must be bit-identical to the
    /// serial paths for every worker count, in both layouts (balls,
    /// distances, and — transitively — offsets).
    #[test]
    fn parallel_rebuild_and_repair_match_serial() {
        use crate::delta::TopologyDelta;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(131);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let heads: Vec<NodeId> = (0..16).map(|i| NodeId(i * 5)).collect();
        let bound = 4u32;
        let serial_d = HeadLabels::build(&g, &heads, bound);
        let serial_s = SparseHeadLabels::build(&g, &heads, bound);
        for workers in [2usize, 3, 8] {
            let par = Parallelism::new(workers);
            let mut d = HeadLabels::default();
            d.rebuild_with(&g, &heads, bound, par);
            let mut s = SparseHeadLabels::default();
            s.rebuild_with(&g, &heads, bound, par);
            for slot in 0..heads.len() {
                assert_eq!(d.ball(slot), serial_d.ball(slot), "{workers} workers");
                assert_eq!(s.ball(slot), serial_s.ball(slot), "{workers} workers");
                for v in g.nodes() {
                    assert_eq!(d.dist(slot, v), serial_d.dist(slot, v), "{workers} workers");
                    assert_eq!(s.dist(slot, v), serial_s.dist(slot, v), "{workers} workers");
                }
            }
        }
        // One multi-edge delta, repaired at several worker counts.
        let mut delta = TopologyDelta::new();
        for _ in 0..8 {
            let a = NodeId(rng.gen_range(0..80u32));
            let b = NodeId(rng.gen_range(0..80u32));
            if a == b {
                continue;
            }
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
                delta.push_removed(a, b);
            } else {
                g.add_edge(a, b);
                delta.push_added(a, b);
            }
        }
        delta.normalize();
        let dirty = serial_d.dirty_slots(&delta);
        assert!(dirty.len() >= 2, "need ≥ 2 dirty rows to exercise chunking");
        let mut expect_d = serial_d.clone();
        expect_d.apply_delta(&g, &dirty);
        let mut expect_s = serial_s.clone();
        expect_s.apply_delta(&g, &dirty);
        for workers in [2usize, 3, 8] {
            let par = Parallelism::new(workers);
            let mut d = serial_d.clone();
            d.apply_delta_with(&g, &dirty, par);
            let mut s = serial_s.clone();
            s.apply_delta_with(&g, &dirty, par);
            for slot in 0..heads.len() {
                assert_eq!(d.ball(slot), expect_d.ball(slot), "{workers} workers");
                assert_eq!(s.ball(slot), expect_s.ball(slot), "{workers} workers");
                for v in g.nodes() {
                    assert_eq!(d.dist(slot, v), expect_d.dist(slot, v), "{workers} workers");
                    assert_eq!(s.dist(slot, v), expect_s.dist(slot, v), "{workers} workers");
                }
            }
        }
    }
}
