//! Per-head BFS labels — the single-sweep substrate of the evaluation
//! engine.
//!
//! The paper's locality argument (§3.2) is that every clusterhead only
//! needs its `2k+1`-hop ball to select neighbor clusterheads and
//! realize virtual links. [`HeadLabels`] runs **one** hop-bounded BFS
//! per head and stores exactly that ball, which every downstream
//! consumer — the NC relation, both virtual graphs, G-MST, route-plan
//! ascents, the churn engine — reads without further traversal. A row
//! keeps the ball in discovery order and where each distance level
//! starts; a `(node, distance)` hash table, built on the first random
//! lookup, answers lookups in `O(1)` expected. Memory is
//! `O(Σ ball sizes + n)`, never `O(heads · n)`.
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
//! [`HeadLabels::rebuild`] reuses every allocation, and the one
//! incremental path, [`HeadLabels::advance`], re-sweeps only the rows
//! a change can reach, opens rows for new heads and copies the rest.

use crate::bfs::{Adjacency, DistLabels, UNREACHED};
use crate::delta::TopologyDelta;
use crate::graph::NodeId;
use crate::par::{self, Parallelism};
use std::sync::OnceLock;

/// Sentinel slot for "this node is not a head".
const NO_SLOT: u32 = u32::MAX;

/// Empty bucket of a row's lookup table (its node half is `u32::MAX`,
/// never a node ID).
const EMPTY: u64 = u64::MAX;

/// Bucket of `v` in a table of `cap` buckets: a Fibonacci hash of the
/// node ID, range-reduced by multiply-shift, so `cap` needs no
/// power-of-two rounding.
#[inline]
fn bucket(v: NodeId, cap: usize) -> usize {
    let h = u64::from(v.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    ((h * cap as u64) >> 32) as usize
}

/// Concatenated label rows. Row `s` is the ball
/// `balls[ball_off[s] .. ball_off[s+1]]` in BFS discovery order, the
/// level starts `ends[end_off[s] .. end_off[s+1]]`, and the lookup
/// table `tables[s]`.
///
/// Discovery order is sorted by distance, so the ball and its level
/// starts hold every distance: the head sits at position 0, level 1
/// starts at position 1, and `ends` lists the start of every later
/// level. A table holds `2 · ball` buckets, each a node in its low and
/// its exact `u32` distance in its high half; a lookup of `v` probes
/// from `bucket(v)` until it meets `v` (hit) or an empty bucket (miss),
/// reading one bucket array and nothing else.
///
/// The tables serve only random lookups ([`HeadLabels::row`]); the
/// ball scans and row expansions the evaluation engine runs need none.
/// So a row's table is built by its first lookup, and a splice moves
/// the tables of the rows it keeps.
#[derive(Clone, Debug, Default)]
struct Rows {
    balls: Vec<NodeId>,
    ball_off: Vec<u32>,
    ends: Vec<u32>,
    end_off: Vec<u32>,
    tables: Vec<OnceLock<Box<[u64]>>>,
}

impl Rows {
    /// No rows.
    fn new() -> Rows {
        let mut rows = Rows::default();
        rows.clear();
        rows
    }

    /// Empties the rows, keeping the allocations (but dropping the
    /// tables).
    fn clear(&mut self) {
        self.balls.clear();
        self.ball_off.clear();
        self.ball_off.push(0);
        self.ends.clear();
        self.end_off.clear();
        self.end_off.push(0);
        self.tables.clear();
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.tables.len()
    }

    /// Row `s` with its lookup table (built here if it is not yet).
    fn row(&self, s: usize) -> HeadRow<'_> {
        let row = self.levels(s);
        let table = self.tables[s].get_or_init(|| {
            let mut table = vec![EMPTY; 2 * row.ball.len()].into_boxed_slice();
            fill_table(&mut table, row);
            table
        });
        HeadRow { table, ..row }
    }

    /// Row `s` without its table: for ball scans and expansions only.
    fn levels(&self, s: usize) -> HeadRow<'_> {
        let (lo, hi) = (self.ball_off[s] as usize, self.ball_off[s + 1] as usize);
        HeadRow {
            ball: &self.balls[lo..hi],
            ends: &self.ends[self.end_off[s] as usize..self.end_off[s + 1] as usize],
            table: &[],
        }
    }

    /// Appends a copy of `row`'s ball and level starts, with `table`.
    fn push_row(&mut self, row: HeadRow<'_>, table: OnceLock<Box<[u64]>>) {
        self.balls.extend_from_slice(row.ball);
        self.ends.extend_from_slice(row.ends);
        self.ball_off.push(self.balls.len() as u32);
        self.end_off.push(self.ends.len() as u32);
        self.tables.push(table);
    }

    /// Runs one BFS from `h` to `bound` hops through the all-`UNREACHED`
    /// `scratch` and appends the row; `scratch` is all-`UNREACHED`
    /// again on return. The ball doubles as the BFS queue. With `STOP`,
    /// the BFS ends as soon as it has discovered `heads_left` nodes
    /// whose `slot_of` entry is set (see
    /// [`HeadLabels::rebuild_reaching_heads`]).
    ///
    /// This is the one sweep every build and repair path runs, serial
    /// or chunked, so their rows are bit-identical by construction.
    fn sweep<G: Adjacency, const STOP: bool>(
        &mut self,
        g: &G,
        h: NodeId,
        bound: u32,
        scratch: &mut [u32],
        slot_of: &[u32],
        mut heads_left: usize,
    ) {
        let start = self.balls.len();
        scratch[h.index()] = 0;
        self.balls.push(h);
        let mut qi = start;
        'bfs: while qi < self.balls.len() && !(STOP && heads_left == 0) {
            let u = self.balls[qi];
            qi += 1;
            let du = scratch[u.index()];
            if du == bound {
                continue;
            }
            for &v in g.adj(u) {
                if scratch[v.index()] == UNREACHED {
                    scratch[v.index()] = du + 1;
                    self.balls.push(v);
                    if STOP && slot_of[v.index()] != NO_SLOT {
                        heads_left -= 1;
                        if heads_left == 0 {
                            break 'bfs;
                        }
                    }
                }
            }
        }
        // Level starts, and the touched-entry reset of the scratch.
        let mut level = 1;
        for (i, &v) in self.balls[start..].iter().enumerate() {
            let d = scratch[v.index()];
            scratch[v.index()] = UNREACHED;
            if d > level {
                self.ends.push(i as u32);
                level = d;
            }
        }
        self.ball_off.push(self.balls.len() as u32);
        self.end_off.push(self.ends.len() as u32);
        self.tables.push(OnceLock::new());
    }

    /// Drops spare capacity, so [`Self::memory_bytes`] is the logical
    /// size (a table is always built to size).
    fn fit(&mut self) {
        self.balls.shrink_to_fit();
        self.ball_off.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.end_off.shrink_to_fit();
        self.tables.shrink_to_fit();
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.balls.capacity() * size_of::<NodeId>()
            + (self.ball_off.capacity() + self.ends.capacity() + self.end_off.capacity())
                * size_of::<u32>()
            + self.tables.capacity() * size_of::<OnceLock<Box<[u64]>>>()
            + self
                .tables
                .iter()
                .filter_map(OnceLock::get)
                .map(|t| t.len() * size_of::<u64>())
                .sum::<usize>()
    }
}

/// Fills one row's all-`EMPTY` `table` with the row's entries.
fn fill_table(table: &mut [u64], row: HeadRow<'_>) {
    for (v, d) in row.entries() {
        let mut b = bucket(v, table.len());
        while table[b] != EMPTY {
            b = if b + 1 == table.len() { 0 } else { b + 1 };
        }
        table[b] = u64::from(d) << 32 | u64::from(v.0);
    }
}

/// Sweeps `heads` (full balls to `bound`) on `workers` workers, each
/// with its own `n`-sized scratch, and returns their rows in head
/// order. Chunk fragments are concatenated in chunk order, so the rows
/// are bit-identical to a serial sweep for every worker count.
fn sweep_chunked<G: Adjacency + Sync>(g: &G, heads: &[NodeId], bound: u32, workers: usize) -> Rows {
    let n = g.node_count();
    let frags = par::scoped_chunks(workers, heads.len(), (), |off, take, ()| {
        let mut scratch = vec![UNREACHED; n];
        let mut rows = Rows::new();
        for &h in &heads[off..off + take] {
            rows.sweep::<G, false>(g, h, bound, &mut scratch, &[], usize::MAX);
        }
        rows
    });
    let mut rows = Rows::new();
    for frag in &frags {
        for s in 0..frag.len() {
            rows.push_row(frag.levels(s), OnceLock::new());
        }
    }
    rows
}

/// Hop-distance labels from every clusterhead, ball-indexed: each
/// head's row stores only its bounded ball — the nodes the BFS
/// actually reached, in discovery order — plus where each distance
/// level starts and, once a lookup needed it, an open-addressed
/// `(node, distance)` table (see `Rows` for the encoding). Lookups
/// cost `O(1)` expected, and memory is `O(Σ ball sizes + n)` instead
/// of `O(h · n)`: 4 bytes per ball entry and per level, 16 per entry
/// once the table is built (two 8-byte buckets), and two `n`-sized
/// node maps. Every arena is sized exactly after each build or repair.
///
/// Rows are indexed by *slot* — the position of the head in the head
/// list the labels were built from ([`Self::heads`]).
#[derive(Clone, Debug, Default)]
pub struct HeadLabels {
    /// Node count of the graph of the last build.
    n: usize,
    /// Hop bound of the last build (`u32::MAX` = unbounded).
    bound: u32,
    /// The sources, in the order given to the last build.
    heads: Vec<NodeId>,
    /// Node-indexed inverse of `heads` (`NO_SLOT` for non-heads).
    slot_of: Vec<u32>,
    /// The live rows, one per head slot.
    rows: Rows,
    /// Shared BFS distance scratch (`n`-sized, all-`UNREACHED` between
    /// sweeps).
    scratch: Vec<u32>,
    /// Whether the last build stopped each BFS at the farthest head
    /// ([`Self::rebuild_reaching_heads`]), leaving balls *partial* —
    /// such labels cannot drive delta-based dirtiness reasoning.
    stopped_at_heads: bool,
    /// Full rebuilds performed so far (every [`Self::rebuild`] and
    /// [`Self::rebuild_reaching_heads`]; [`Self::advance`] bumps it only
    /// when it has to rebuild incompatible labels). Tests pin that
    /// deltas and head-set changes stay off the rebuild path by
    /// watching this.
    rebuilds: u64,
    /// Per slot: whether the row's last sweep in an [`Self::advance`]
    /// reproduced the row it replaced byte for byte (see
    /// [`Self::sweep_reproduced`]). Empty after a rebuild, where every
    /// row reports `false`.
    reproduced: Vec<bool>,
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
    /// set, reusing every allocation.
    pub fn rebuild<G: Adjacency>(&mut self, g: &G, heads: &[NodeId], bound: u32) {
        self.prepare_rebuild(g.node_count(), heads, bound, false);
        for &h in heads {
            self.rows
                .sweep::<G, false>(g, h, bound, &mut self.scratch, &[], usize::MAX);
        }
        self.rows.fit();
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
        self.prepare_rebuild(g.node_count(), heads, u32::MAX, true);
        let others = heads.len().saturating_sub(1);
        for &h in heads {
            self.rows
                .sweep::<G, true>(g, h, u32::MAX, &mut self.scratch, &self.slot_of, others);
        }
        self.rows.fit();
    }

    /// Shared rebuild preamble: clears the rows and adopts the new
    /// graph size, head set and bound.
    fn prepare_rebuild(&mut self, n: usize, heads: &[NodeId], bound: u32, stop_at_heads: bool) {
        self.rebuilds += 1;
        self.rows.clear();
        self.reproduced = Vec::new();
        self.n = n;
        self.bound = bound;
        self.stopped_at_heads = stop_at_heads;
        if self.slot_of.len() < n {
            self.slot_of.resize(n, NO_SLOT);
        }
        if self.scratch.len() < n {
            self.scratch.resize(n, UNREACHED);
        }
        self.adopt_heads(heads);
    }

    /// Replaces the head list and its node-indexed inverse (the node
    /// maps already cover every head).
    fn adopt_heads(&mut self, heads: &[NodeId]) {
        for &h in &self.heads {
            self.slot_of[h.index()] = NO_SLOT;
        }
        self.heads.clear();
        self.heads.extend_from_slice(heads);
        for (slot, &h) in self.heads.iter().enumerate() {
            debug_assert_eq!(self.slot_of[h.index()], NO_SLOT, "duplicate head {h:?}");
            self.slot_of[h.index()] = slot as u32;
        }
    }

    /// [`Self::rebuild`] with an explicit worker count: the per-head
    /// sweeps fan out over `par` workers, each with its own `n`-sized
    /// scratch, and the row fragments are concatenated in slot order —
    /// **bit-identical** to a serial rebuild for every worker count
    /// (pinned by tests). Builds below one thread spawn's worth of
    /// work ([`par::work::label_rebuild`], gated by
    /// [`Parallelism::for_work`]) run the serial rebuild, warm
    /// allocations intact.
    pub fn rebuild_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        heads: &[NodeId],
        bound: u32,
        par: Parallelism,
    ) {
        let work = par::work::label_rebuild(heads.len(), g.node_count());
        let workers = par.for_work(work).workers();
        if workers == 1 {
            self.rebuild(g, heads, bound);
            return;
        }
        self.prepare_rebuild(g.node_count(), heads, bound, false);
        self.rows = sweep_chunked(g, heads, bound, workers);
        self.rows.fit();
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
        let mut endpoint = vec![false; self.n];
        for v in delta.endpoints() {
            assert!(
                v.index() < self.n,
                "delta endpoint {v:?} beyond labeled nodes"
            );
            endpoint[v.index()] = true;
        }
        (0..self.heads.len())
            .filter(|&slot| self.ball(slot).iter().any(|v| endpoint[v.index()]))
            .collect()
    }

    /// Advances the labels to graph `g`, the head list `heads` and
    /// `bound` in one slot-ordered pass, given the `dirty` slots of
    /// the **current** head list (ascending, from
    /// [`Self::dirty_slots`] against the pre-delta labels). A head that
    /// kept its row and is not dirty keeps it byte-for-byte, lookup
    /// table included; a dirty surviving head and a head new to the
    /// list re-run their bounded BFS straight into the new arena; a
    /// head missing from `heads` drops its row. Full-ball sweeps never
    /// stop at heads, so a row depends on its own head alone and no
    /// other row can change. The result is identical to a
    /// [`Self::rebuild`] on `g` with `heads` and `bound` (pinned by
    /// tests) at the cost of one bounded BFS per swept row.
    ///
    /// Labels that cannot be advanced — built for another bound or
    /// node count, or with partial balls by
    /// [`Self::rebuild_reaching_heads`] — are rebuilt by
    /// [`Self::rebuild_with`] instead, and every slot counts as swept.
    ///
    /// The sweeps fan out over `par` workers and are placed in slot
    /// order, bit-identical to the serial pass for every worker count
    /// (pinned by tests). Jobs below one thread spawn's worth of work
    /// ([`par::work::label_repair`] over the dirty rows' old balls, a
    /// new head counted at the mean ball, gated by
    /// [`Parallelism::for_work`]) sweep inline on the warm scratch.
    ///
    /// Returns the swept slots, ascending, in `heads`' numbering.
    ///
    /// # Panics
    /// Panics if a `dirty` slot is out of range or a head lies beyond
    /// the labeled nodes.
    pub fn advance<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        heads: &[NodeId],
        bound: u32,
        dirty: &[usize],
        par: Parallelism,
    ) -> Vec<usize> {
        if self.stopped_at_heads || self.bound != bound || self.n != g.node_count() {
            self.rebuild_with(g, heads, bound, par);
            return (0..heads.len()).collect();
        }
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty slots must be ascending and unique"
        );
        let mut stale = vec![false; self.heads.len()];
        for &s in dirty {
            assert!(s < stale.len(), "dirty slot out of range");
            stale[s] = true;
        }
        // Each new slot's old slot (`NO_SLOT`: a new head), and the row
        // it copies (`NO_SLOT`: swept).
        let old_slot: Vec<u32> = heads.iter().map(|h| self.slot_of[h.index()]).collect();
        let from: Vec<u32> = old_slot
            .iter()
            .map(|&old| match old {
                old if old != NO_SLOT && !stale[old as usize] => old,
                _ => NO_SLOT,
            })
            .collect();
        let swept: Vec<usize> = (0..heads.len()).filter(|&s| from[s] == NO_SLOT).collect();
        let mean_ball = self.rows.balls.len() / self.rows.len().max(1);
        let work =
            par::work::label_repair(swept.iter().map(|&s| match self.slot_of[heads[s].index()] {
                NO_SLOT => mean_ball,
                old => self.rows.levels(old as usize).ball.len(),
            }));
        let workers = par.for_work(work).workers();
        self.adopt_heads(heads);

        // The old rows are taken out to copy from only if some row is
        // copied, and dropped once the new arena is built; otherwise the
        // new rows overwrite them in place, as a rebuild does.
        let copies = swept.len() < heads.len();
        let mut old_rows = if copies {
            std::mem::take(&mut self.rows)
        } else {
            Rows::default()
        };
        self.rows.clear();
        let fresh = (workers > 1).then(|| {
            let swept_heads: Vec<NodeId> = swept.iter().map(|&s| heads[s]).collect();
            sweep_chunked(g, &swept_heads, bound, workers)
        });
        match fresh {
            Some(fresh) if !copies => self.rows = fresh,
            fresh => {
                let mut next_fresh = 0;
                for (&h, &old) in heads.iter().zip(&from) {
                    if old != NO_SLOT {
                        let table = std::mem::take(&mut old_rows.tables[old as usize]);
                        self.rows.push_row(old_rows.levels(old as usize), table);
                    } else if let Some(fresh) = &fresh {
                        self.rows
                            .push_row(fresh.levels(next_fresh), OnceLock::new());
                        next_fresh += 1;
                    } else {
                        self.rows.sweep::<G, false>(
                            g,
                            h,
                            bound,
                            &mut self.scratch,
                            &[],
                            usize::MAX,
                        );
                    }
                }
            }
        }
        self.rows.fit();
        // A copied row keeps its flag; a re-swept one is compared with
        // the row it replaced while that is still at hand.
        self.reproduced = (0..heads.len())
            .map(|s| match (from[s], old_slot[s]) {
                (NO_SLOT, NO_SLOT) => false,
                (NO_SLOT, old) => {
                    copies && {
                        let (was, now) = (old_rows.levels(old as usize), self.rows.levels(s));
                        was.ball == now.ball && was.ends == now.ends
                    }
                }
                (kept, _) => self.sweep_reproduced(kept as usize),
            })
            .collect();
        swept
    }

    /// Full rebuilds performed over this value's lifetime. An
    /// [`Self::advance`] of compatible labels never bumps it — the churn
    /// engine's no-rebuild-on-head-set-change contract is pinned
    /// against this.
    #[inline]
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Bytes of heap memory the labels currently hold (capacity, not
    /// logical size; the row arenas are sized exactly after every
    /// build and splice). `O(Σ ball sizes + n)`: the live rows, the
    /// head list, the per-slot sweep flags an advance leaves (see
    /// [`Self::sweep_reproduced`]; none after a rebuild), and the two
    /// `n`-sized node maps.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.memory_bytes()
            + self.heads.capacity() * size_of::<NodeId>()
            + self.reproduced.capacity()
            + (self.slot_of.capacity() + self.scratch.capacity()) * size_of::<u32>()
    }

    /// Whether the last sweep of `slot`'s row, in an [`Self::advance`],
    /// reproduced the row it replaced byte for byte: the same ball in
    /// the same order with the same level bounds, so every distance of
    /// the row is what it was before that sweep. A row the advance
    /// copied keeps its flag; a new head's row and every row of a
    /// rebuild report `false`. A consumer that derived state from the
    /// row before the sweep may keep whatever depends only on its
    /// distances.
    #[inline]
    pub fn sweep_reproduced(&self, slot: usize) -> bool {
        self.reproduced.get(slot).copied().unwrap_or(false)
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
    /// `slot`, ascending by ID — the NC-relation row the adjacency
    /// layer reads. A scan of the ball's first `bound` levels: no
    /// lookup, and `O(ball)` rather than `O(heads)` per row.
    pub fn heads_within(&self, slot: usize, bound: u32) -> Vec<NodeId> {
        let mut near: Vec<NodeId> = self.rows.levels(slot).ball_within(bound)[1..]
            .iter()
            .copied()
            .filter(|v| self.slot_of[v.index()] != NO_SLOT)
            .collect();
        near.sort_unstable();
        near
    }

    /// The ball entries of the head in `slot` within `bound` hops, with
    /// their distances, in discovery order (the head itself first, at
    /// 0): a scan of the row's first levels, no lookup.
    pub fn within(&self, slot: usize, bound: u32) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let row = self.rows.levels(slot);
        row.entries().take(row.ball_within(bound).len())
    }

    /// The ball of the head in `slot`: every node within the bound, in
    /// BFS discovery order (the head itself first).
    pub fn ball(&self, slot: usize) -> &[NodeId] {
        self.rows.levels(slot).ball
    }

    /// The distance row of `slot` as a [`DistLabels`] view, usable with
    /// [`crate::bfs::lexico_path_from_labels`].
    #[inline]
    pub fn row(&self, slot: usize) -> HeadRow<'_> {
        self.rows.row(slot)
    }

    /// A reusable direct-indexed copy of one row at a time, for
    /// callers that probe a row many times (canonical walks to every
    /// partner of a head).
    pub fn expanded(&self) -> ExpandedRow<'_> {
        ExpandedRow {
            labels: self,
            dist: vec![UNREACHED; self.n],
            slot: None,
        }
    }

    /// Always `true`: the ball-indexed rows are the only layout. Kept
    /// for perfbench; a benchmark PR removes it.
    pub fn is_sparse(&self) -> bool {
        true
    }

    /// Always `"sparse"`. Kept for perfbench; a benchmark PR removes
    /// it.
    pub fn layout_name(&self) -> &'static str {
        "sparse"
    }
}

/// One head's distance row: a borrowed [`DistLabels`] view over the
/// row's ball, level starts and lookup table.
#[derive(Clone, Copy, Debug)]
pub struct HeadRow<'a> {
    ball: &'a [NodeId],
    ends: &'a [u32],
    table: &'a [u64],
}

impl<'a> HeadRow<'a> {
    /// The ball entries with their distances, in discovery order.
    fn entries(&self) -> impl Iterator<Item = (NodeId, u32)> + 'a {
        let (ball, mut ends) = (self.ball, self.ends.iter());
        let (mut level, mut level_end) = (0, 1);
        ball.iter().enumerate().map(move |(p, &v)| {
            if p == level_end {
                level += 1;
                level_end = ends.next().map_or(ball.len(), |&e| e as usize);
            }
            (v, level)
        })
    }

    /// The ball prefix within `bound` hops (the head first).
    fn ball_within(&self, bound: u32) -> &'a [NodeId] {
        let end = match bound {
            0 => 1,
            _ => self
                .ends
                .get(bound as usize - 1)
                .map_or(self.ball.len(), |&e| e as usize),
        };
        &self.ball[..end]
    }
}

impl DistLabels for HeadRow<'_> {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        let cap = self.table.len();
        let mut b = bucket(v, cap);
        loop {
            let e = self.table[b];
            if e as u32 == v.0 {
                return (e >> 32) as u32;
            }
            if e == EMPTY {
                return UNREACHED;
            }
            b = if b + 1 == cap { 0 } else { b + 1 };
        }
    }
}

/// A direct-indexed copy of one label row at a time (from
/// [`HeadLabels::expanded`]): [`Self::load`] writes a row's
/// distances into an `n`-sized array, resetting only the previous
/// row's ball, and [`DistLabels::dist`] is then one array read.
#[derive(Clone, Debug)]
pub struct ExpandedRow<'a> {
    labels: &'a HeadLabels,
    dist: Vec<u32>,
    slot: Option<usize>,
}

impl ExpandedRow<'_> {
    /// Loads the row of `slot` (a no-op if it is already loaded).
    pub fn load(&mut self, slot: usize) -> &Self {
        if self.slot != Some(slot) {
            if let Some(old) = self.slot {
                for &v in self.labels.ball(old) {
                    self.dist[v.index()] = UNREACHED;
                }
            }
            for (v, d) in self.labels.rows.levels(slot).entries() {
                self.dist[v.index()] = d;
            }
            self.slot = Some(slot);
        }
        self
    }
}

impl DistLabels for ExpandedRow<'_> {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }
}

/// The label layout an evaluation scratch uses. There is one layout,
/// so this selects nothing. Kept for perfbench; a benchmark PR removes
/// it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LabelMode {
    /// The ball-indexed [`HeadLabels`].
    #[default]
    Auto,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{self, BfsScratch};
    use crate::delta::TopologyDelta;
    use crate::gen;
    use crate::graph::Graph;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Every row equals an independent per-head BFS: each distance
    /// (hashed and expanded), the ball in discovery order, and the
    /// `heads_within` rows at three bounds.
    fn assert_matches_scratch(g: &Graph, heads: &[NodeId], bound: u32, labels: &HeadLabels) {
        assert_eq!(labels.heads(), heads);
        assert_eq!(labels.bound(), bound);
        assert_eq!(labels.node_count(), g.len());
        let mut scratch = BfsScratch::new(g.len());
        let mut expanded = labels.expanded();
        for (slot, &h) in heads.iter().enumerate() {
            assert_eq!(labels.slot(h), Some(slot));
            scratch.run(g, h, bound);
            let row = expanded.load(slot);
            for v in g.nodes() {
                let want = scratch.dist(v);
                assert_eq!(labels.dist(slot, v), want, "head {h:?} node {v:?}");
                assert_eq!(row.dist(v), want, "expanded head {h:?} node {v:?}");
            }
            assert_eq!(labels.ball(slot), scratch.visited(), "ball of {h:?}");
            for b in [0, 1, bound.min(7), bound] {
                let mut want: Vec<NodeId> = heads
                    .iter()
                    .copied()
                    .filter(|&o| o != h && scratch.dist(o) <= b)
                    .collect();
                want.sort_unstable();
                assert_eq!(
                    labels.heads_within(slot, b),
                    want,
                    "heads_within({h:?}, {b})"
                );
            }
        }
    }

    /// Toggles a few random node pairs of `g`, recording the delta.
    fn random_flips(g: &mut Graph, rng: &mut StdRng) -> TopologyDelta {
        let n = g.len() as u32;
        let mut delta = TopologyDelta::new();
        for _ in 0..rng.gen_range(1..6) {
            let (a, b) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
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
        delta
    }

    /// Advances `labels` over `dirty` on its own head list and bound.
    fn repair(labels: &mut HeadLabels, g: &Graph, dirty: &[usize], par: Parallelism) -> Vec<usize> {
        let heads = labels.heads().to_vec();
        labels.advance(g, &heads, labels.bound(), dirty, par)
    }

    #[test]
    fn labels_match_per_head_bfs() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(7), NodeId(33)];
        for bound in [1, 3, u32::MAX] {
            let labels = HeadLabels::build(&net.graph, &heads, bound);
            assert_matches_scratch(&net.graph, &heads, bound, &labels);
        }
    }

    /// The ball-indexed rows equal dense per-head BFS rows on a grid
    /// where every fifth node is a head, from bound 0 (the head alone)
    /// to unbounded.
    #[test]
    fn sparse_matches_dense_on_random_graphs() {
        let g = gen::grid(12, 12);
        let heads: Vec<NodeId> = (0..144).step_by(5).map(NodeId).collect();
        for bound in [0, 2, 5, u32::MAX] {
            let labels = HeadLabels::build(&g, &heads, bound);
            assert_matches_scratch(&g, &heads, bound, &labels);
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

    /// A bounded rebuild after an early-stopped one (on a graph of a
    /// different size) yields full balls again, so one advance takes a
    /// delta and a new head together without rebuilding.
    #[test]
    fn sparse_rebuild_resets_across_graphs_of_different_size() {
        let big = gen::grid(6, 6);
        let mut labels = HeadLabels::default();
        labels.rebuild_reaching_heads(&big, &[NodeId(0), NodeId(35)]);
        let mut small = gen::path(9);
        labels.rebuild(&small, &[NodeId(1), NodeId(7)], 3);
        assert_matches_scratch(&small, &[NodeId(1), NodeId(7)], 3, &labels);
        let mut delta = TopologyDelta::new();
        small.remove_edge(NodeId(6), NodeId(7));
        delta.push_removed(NodeId(6), NodeId(7));
        let dirty = labels.dirty_slots(&delta);
        assert_eq!(dirty, vec![1]);
        let heads = [NodeId(1), NodeId(4), NodeId(7)];
        let swept = labels.advance(&small, &heads, 3, &dirty, Parallelism::serial());
        assert_eq!(swept, vec![1, 2], "the new head and the dirty row");
        assert_matches_scratch(&small, &heads, 3, &labels);
        assert_eq!(labels.rebuild_count(), 2);
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

    /// An expanded row walks exactly the paths its hashed row walks,
    /// and reloading another row resets the first one.
    #[test]
    fn sparse_row_drives_lexico_paths() {
        let mut rng = StdRng::seed_from_u64(29);
        let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 6.0), &mut rng);
        let g = &net.graph;
        let heads = vec![NodeId(3), NodeId(30), NodeId(61)];
        let labels = HeadLabels::build(g, &heads, 4);
        let mut expanded = labels.expanded();
        for slot in [0, 2, 1, 1, 0] {
            let row = expanded.load(slot);
            for &v in labels.ball(slot) {
                assert_eq!(
                    bfs::lexico_path_from_labels(g, v, heads[slot], row),
                    bfs::lexico_path_from_labels(g, v, heads[slot], &labels.row(slot)),
                );
            }
            for v in g.nodes() {
                assert_eq!(row.dist(v), labels.dist(slot, v), "slot {slot} node {v:?}");
            }
        }
    }

    #[test]
    fn reaching_heads_labels_support_head_queries_and_walks() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(5), NodeId(41), NodeId(77)];
        let full = HeadLabels::build(&net.graph, &heads, u32::MAX);
        let mut lazy = HeadLabels::default();
        lazy.rebuild_reaching_heads(&net.graph, &heads);
        for (slot, &h) in heads.iter().enumerate() {
            assert!(lazy.ball(slot).len() <= full.ball(slot).len());
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
                let p1 = bfs::lexico_path_from_labels(&net.graph, a, h, &lazy.row(slot)).unwrap();
                let p2 = bfs::lexico_path_from_labels(&net.graph, a, h, &full.row(slot)).unwrap();
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
    /// dirty-slot detection plus per-row repair reproduces a fresh BFS
    /// bit-for-bit (every distance *and* every ball).
    #[test]
    fn apply_delta_matches_full_rebuild() {
        let mut rng = StdRng::seed_from_u64(41);
        for bound in [2u32, 5, u32::MAX] {
            let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 6.0), &mut rng);
            let mut g = net.graph.clone();
            let heads = vec![NodeId(0), NodeId(9), NodeId(25), NodeId(48), NodeId(69)];
            let mut labels = HeadLabels::build(&g, &heads, bound);
            for _ in 0..15 {
                let delta = random_flips(&mut g, &mut rng);
                let dirty = labels.dirty_slots(&delta);
                assert_eq!(
                    repair(&mut labels, &g, &dirty, Parallelism::serial()),
                    dirty
                );
                assert_matches_scratch(&g, &heads, bound, &labels);
            }
        }
    }

    /// The parallel repair over a chain of deltas stays equal to a
    /// fresh BFS, including when the delta dirties no row.
    #[test]
    fn sparse_apply_delta_matches_full_rebuild() {
        let mut rng = StdRng::seed_from_u64(43);
        let net = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let heads: Vec<NodeId> = (0..90).step_by(6).map(NodeId).collect();
        let mut labels = HeadLabels::build(&g, &heads, 3);
        for _ in 0..12 {
            let delta = random_flips(&mut g, &mut rng);
            let dirty = labels.dirty_slots(&delta);
            repair(&mut labels, &g, &dirty, Parallelism::new(2));
            assert_matches_scratch(&g, &heads, 3, &labels);
        }
    }

    #[test]
    fn empty_delta_dirties_nothing() {
        let g = gen::path(9);
        let mut labels = HeadLabels::build(&g, &[NodeId(0), NodeId(4), NodeId(8)], 3);
        let dirty = labels.dirty_slots(&TopologyDelta::new());
        assert!(dirty.is_empty());
        let before = labels.clone();
        assert!(repair(&mut labels, &g, &dirty, Parallelism::serial()).is_empty());
        assert_eq!(labels.ball(1), before.ball(1));
    }

    #[test]
    fn faraway_change_leaves_bounded_ball_clean() {
        // Heads 0 and 11 with bound 2 on a path: a flip at the far end
        // must dirty only the nearby head.
        let mut g = gen::path(12);
        let labels = HeadLabels::build(&g, &[NodeId(0), NodeId(11)], 2);
        let mut delta = TopologyDelta::new();
        g.remove_edge(NodeId(10), NodeId(11));
        delta.push_removed(NodeId(10), NodeId(11));
        assert_eq!(labels.dirty_slots(&delta), vec![1]);
        let mut inc = labels.clone();
        repair(&mut inc, &g, &[1], Parallelism::serial());
        assert_eq!(inc.dist(1, NodeId(10)), UNREACHED);
        assert_eq!(inc.ball(1), &[NodeId(11)]);
        assert_eq!(inc.ball(0), labels.ball(0), "clean row untouched");
    }

    #[test]
    #[should_panic(expected = "full-ball labels")]
    fn reaching_heads_labels_reject_deltas() {
        let g = gen::path(9);
        let mut labels = HeadLabels::default();
        labels.rebuild_reaching_heads(&g, &[NodeId(0), NodeId(8)]);
        let mut d = TopologyDelta::new();
        d.push_added(NodeId(0), NodeId(5));
        labels.dirty_slots(&d);
    }

    /// Every arena is sized exactly: after a build the memory is the
    /// logical size of the rows (4 bytes per ball entry, per level
    /// start and per offset, one table cell per row) plus the head list
    /// and the two node maps; the first lookups add exactly the tables
    /// (16 bytes per ball entry), and after a splice only the live rows
    /// and the kept rows' tables count (the tables move; the pre-splice
    /// rows are dropped).
    #[test]
    fn memory_bytes_tracks_arena_growth() {
        fn row_bytes(labels: &HeadLabels) -> usize {
            let h = labels.heads().len();
            (0..h)
                .map(|s| {
                    let far = labels.within(s, u32::MAX).last().unwrap().1;
                    4 * labels.ball(s).len() + 4 * far.saturating_sub(1) as usize
                })
                .sum::<usize>()
                + 2 * 4 * (h + 1)
                + h * std::mem::size_of::<OnceLock<Box<[u64]>>>()
        }
        let g = gen::grid(10, 10);
        let heads = [NodeId(0), NodeId(34), NodeId(67), NodeId(99)];
        let mut labels = HeadLabels::build(&g, &heads, 4);
        let fixed = 4 * heads.len() + 2 * 4 * g.len();
        let lean = labels.memory_bytes();
        assert_eq!(lean, row_bytes(&labels) + fixed);
        let tables: usize = (0..heads.len())
            .map(|s| {
                labels.dist(s, NodeId(50));
                16 * labels.ball(s).len()
            })
            .sum();
        assert_eq!(labels.memory_bytes(), lean + tables);
        let kept = [NodeId(0), NodeId(67), NodeId(99)];
        assert!(labels
            .advance(&g, &kept, 4, &[], Parallelism::serial())
            .is_empty());
        let kept_tables: usize = (0..kept.len()).map(|s| 16 * labels.ball(s).len()).sum();
        // The advance also leaves one sweep flag per slot.
        assert_eq!(
            labels.memory_bytes(),
            row_bytes(&labels) + fixed + kept_tables + kept.len()
        );
        let small = HeadLabels::build(&gen::path(4), &[NodeId(0)], 1);
        assert!(small.memory_bytes() < lean);
    }

    #[test]
    fn sparse_memory_is_below_dense_at_scale() {
        // A long path with many heads: a dense arena would hold
        // h·n·4 bytes, the ball-indexed rows O(Σ balls + n) — at
        // n = 4000 with 1000 heads of bound 3 the gap is enormous.
        let g = gen::path(4000);
        let heads: Vec<NodeId> = (0..1000).map(|i| NodeId(i * 4)).collect();
        let labels = HeadLabels::build(&g, &heads, 3);
        let dense = heads.len() * g.len() * 4;
        assert!(
            labels.memory_bytes() * 100 < dense,
            "ball-indexed {} vs dense {dense}",
            labels.memory_bytes()
        );
    }

    #[test]
    fn disconnected_pairs_are_unreached() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let labels = HeadLabels::build(&g, &[NodeId(0), NodeId(2)], u32::MAX);
        assert_eq!(labels.head_dist(NodeId(0), NodeId(2)), UNREACHED);
        assert_eq!(labels.dist(0, NodeId(1)), 1);
    }

    /// Random head gain/loss chains, one or several heads per advance:
    /// the advanced rows must reproduce a fresh BFS bit-for-bit, sweep
    /// exactly the gained heads, and never touch the rebuild counter
    /// (the churn engine's no-rebuild-on-head-set-change contract).
    #[test]
    fn head_row_splice_matches_full_rebuild() {
        let mut rng = StdRng::seed_from_u64(97);
        for bound in [2u32, 5, u32::MAX] {
            let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
            let g = &net.graph;
            let mut heads = vec![NodeId(0), NodeId(9), NodeId(25), NodeId(48)];
            let mut labels = HeadLabels::build(g, &heads, bound);
            let rebuilds = labels.rebuild_count();
            for _ in 0..25 {
                let gained: Vec<NodeId> = (0..rng.gen_range(0..3))
                    .map(|_| NodeId(rng.gen_range(0..60u32)))
                    .filter(|c| heads.binary_search(c).is_err())
                    .collect();
                heads.retain(|_| rng.gen_bool(0.8));
                heads.extend(&gained);
                heads.sort_unstable();
                heads.dedup();
                let swept = labels.advance(g, &heads, bound, &[], Parallelism::serial());
                let want: Vec<usize> = gained
                    .iter()
                    .map(|h| heads.binary_search(h).unwrap())
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                assert_eq!(swept, want, "only gained heads are swept");
                assert_matches_scratch(g, &heads, bound, &labels);
            }
            assert_eq!(labels.rebuild_count(), rebuilds, "splices must not rebuild");
        }
    }

    /// Head-set advances compose with edge-delta repair and survive an
    /// empty head set in between.
    #[test]
    fn head_row_splice_handles_empty_and_interleaves_with_deltas() {
        let mut g = gen::path(8);
        let mut labels = HeadLabels::build(&g, &[NodeId(3)], 2);
        assert!(labels
            .advance(&g, &[], 2, &[], Parallelism::serial())
            .is_empty());
        assert!(labels.heads().is_empty());
        assert_eq!(
            labels.advance(&g, &[NodeId(5)], 2, &[], Parallelism::serial()),
            [0]
        );
        let heads = [NodeId(1), NodeId(5)];
        assert_eq!(
            labels.advance(&g, &heads, 2, &[], Parallelism::serial()),
            [0]
        );
        let mut delta = TopologyDelta::new();
        g.remove_edge(NodeId(4), NodeId(5));
        delta.push_removed(NodeId(4), NodeId(5));
        let dirty = labels.dirty_slots(&delta);
        assert_eq!(dirty, vec![1], "only the nearby head is dirty");
        repair(&mut labels, &g, &dirty, Parallelism::serial());
        assert_matches_scratch(&g, &[NodeId(1), NodeId(5)], 2, &labels);
        assert_eq!(labels.rebuild_count(), 1, "only the initial build");
    }

    /// Parallel rebuild and delta repair must be bit-identical to the
    /// serial paths for every worker count (balls, distances and —
    /// transitively — every arena). Unbounded balls over 400 nodes put
    /// both jobs above the fan-out gate.
    #[test]
    fn parallel_rebuild_and_repair_match_serial() {
        let mut rng = StdRng::seed_from_u64(131);
        let n = 400u32;
        let net = gen::geometric(&gen::GeometricConfig::new(n as usize, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let heads: Vec<NodeId> = (0..n).step_by(4).map(NodeId).collect();
        let bound = u32::MAX;
        let serial = HeadLabels::build(&g, &heads, bound);
        let assert_same = |a: &HeadLabels, b: &HeadLabels, g: &Graph, ctx: &str| {
            for slot in 0..heads.len() {
                assert_eq!(a.ball(slot), b.ball(slot), "{ctx}");
                for v in g.nodes() {
                    assert_eq!(a.dist(slot, v), b.dist(slot, v), "{ctx}");
                }
            }
        };
        let fans_out = |work: usize| Parallelism::new(2).for_work(work).workers() == 2;
        assert!(fans_out(par::work::label_rebuild(heads.len(), g.len())));
        for workers in [2usize, 3, 8] {
            let mut p = HeadLabels::default();
            p.rebuild_with(&g, &heads, bound, Parallelism::new(workers));
            assert_same(&p, &serial, &g, &format!("{workers} workers"));
        }
        // One multi-edge delta, repaired at several worker counts.
        let mut delta = TopologyDelta::new();
        for _ in 0..8 {
            let a = NodeId(rng.gen_range(0..n));
            let b = NodeId(rng.gen_range(0..n));
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
        let dirty = serial.dirty_slots(&delta);
        assert!(fans_out(par::work::label_repair(
            dirty.iter().map(|&s| serial.ball(s).len())
        )));
        let mut expect = serial.clone();
        repair(&mut expect, &g, &dirty, Parallelism::serial());
        for workers in [2usize, 3, 8] {
            let mut p = serial.clone();
            repair(&mut p, &g, &dirty, Parallelism::new(workers));
            assert_same(&p, &expect, &g, &format!("{workers} workers"));
        }
        assert_matches_scratch(&g, &heads, bound, &expect);
    }
}
