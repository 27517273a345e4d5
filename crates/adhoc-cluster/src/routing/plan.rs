//! The compiled route plan: every decision a hierarchical route needs,
//! precomputed into flat arrays so serving is pure pointer chasing.
//!
//! ```text
//! RoutePlan
//! ├─ per node (node-indexed)
//! │    head_slot — affiliation index: slot of the node's head
//! │    dist_head — hops to that head (≤ k)
//! │    up_off ───── up_arena — the node's full canonical ascent path
//! │                            u → … → head(u), inclusive
//! │                            (dist_head + 1 nodes)
//! ├─ per head (CSR over the backbone G'')
//! │    link_off[h+1] ─┬─ link_to   — neighbor head slot
//! │                   ├─ link_hops — virtual-link weight
//! │                   └─ link_path ── path_arena (both orientations
//! │                                   of every backbone path,
//! │                                   link_hops + 1 nodes each)
//! └─ inter — inter-head first hops, one of two layouts
//!      Dense: h × h exact distance matrix (one row read per walk,
//!             O(h²) bytes)
//!      Hub:   hub-label arena — per-head (hub, dist) rows, CSR-packed
//!             (one target-row expansion per walk, empirically
//!             sub-quadratic bytes)
//! ```
//!
//! [`InterMode::Auto`] (the [`RoutePlan::compile`] default) picks the
//! layout per compile: dense while the projected `h × h` table stays
//! under [`AUTO_HUB_THRESHOLD_BYTES`](inter::AUTO_HUB_THRESHOLD_BYTES),
//! hub labels beyond it. Both serve the identical canonical first hop
//! (see the crate-private `inter` module), so the choice never changes a single route.
//!
//! A query `u ⇝ v` copies `u`'s precompiled ascent, crosses the
//! backbone by one inter-table walk (appending precomputed oriented
//! path slices), appends `v`'s ascent reversed, and applies the
//! first-pass-through-`v` shortcut — `O(route length)` work, **zero
//! BFS, zero allocation** (into a caller-reused buffer), and no access
//! to the graph or the label store at serve time. Ascents are stored
//! as whole paths, not per-node parent pointers: a canonical ascent
//! routinely relays through *other clusters'* members (affiliation is
//! ID-based, not distance-based), so chaining per-node "toward my own
//! head" pointers would walk off `u`'s path after the first foreign
//! relay.
//!
//! Compilation reads the evaluation engine's shared head labels
//! ([`HeadLabels`]) — the same one-sweep data
//! every other pipeline consumer uses — plus any backbone link set
//! (one algorithm's selected links, or a full virtual graph).
//!
//! [`RoutePlan::apply_delta`] patches a compiled plan in place after
//! topology churn, in work proportional to what changed:
//!
//! - **Ascents.** Only the nodes whose head changed and the members of
//!   label rows the step swept or opened are candidates; a member of a
//!   row whose sweep reproduced it byte for byte keeps its ascent unless
//!   an endpoint of the edge delta lies on it. A re-walked ascent is
//!   appended to the arena and its old segment counted dead; every
//!   other node keeps its segment, its slot mapped from its head's old
//!   place to its new one across a head-set change.
//! - **Backbone.** The plan merges its own CSR (read as ascending
//!   head-ID pairs) against the new selection in one pass: the links
//!   inserted, removed and re-pathed. An empty diff over one head set
//!   touches nothing; otherwise the new paths are appended, the dropped
//!   ones counted dead and the index arrays rewritten in one merge.
//! - **Inter table.** The weighted part of that diff goes straight to
//!   the inter table: the dense matrix settles only the cells a removed
//!   link or lost head can lengthen and min-passes only the cells an
//!   inserted link can shorten, across a head-set change in the union
//!   of the old and new head sets; the hub layout is kept while the
//!   diff is empty and built fresh when it is not.
//!
//! Both arenas compact by the link store's rule (the crate-private
//! `compact_arena`). A compile is the update from the empty plan (no
//! heads, every node unaffiliated): every node moved, so every one
//! walks its ascent, every selected link is inserted, and the empty
//! inter table has nothing to keep, so it builds. Compiles and repairs
//! share one code path.

use crate::clustering::Clustering;
use crate::routing::inter::{self, CsrView, InterMode, InterRepair, InterTable, LinkDiff};
use crate::virtual_graph::{compact_arena, LinkRef};
use adhoc_graph::bfs::{self, Adjacency, DistLabels, UNREACHED};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::graph::NodeId;
use adhoc_graph::labels::HeadLabels;
use adhoc_graph::obs::Metrics;
use adhoc_graph::par::{self, Parallelism};
use adhoc_graph::paths;
use std::mem::size_of;
use std::sync::Arc;

/// Affiliation marker for nodes outside every cluster (departed).
const NO_SLOT: u32 = u32::MAX;

/// Weight marker of a backbone CSR entry a patch drops.
const DROPPED: u32 = u32::MAX;

/// Nodes in the ascent of a node affiliated to `slot` at `dist` hops:
/// the path `u → … → head(u)`, none for an unrouted node.
fn ascent_len(slot: u32, dist: u32) -> u32 {
    if slot == NO_SLOT {
        0
    } else {
        dist + 1
    }
}

/// A compiled, self-contained route-serving structure (see the module
/// docs for the layout). Queries borrow it immutably, so one plan can
/// serve any number of concurrent workers.
#[derive(Clone, Debug)]
pub struct RoutePlan {
    /// Publication counter: bumped by the maintainer each time it
    /// atomically swaps a new plan in (the churn engine's *publish*
    /// phase). Readers use it to tell plan generations apart without
    /// comparing contents; it is **excluded from equality** — two
    /// plans are `==` iff they serve identical routes.
    epoch: u64,
    k: u32,
    n: usize,
    /// Clusterheads in slot order (ascending, matching the labels).
    heads: Vec<NodeId>,
    /// Per node: slot of its head ([`NO_SLOT`] = unrouted/departed).
    head_slot: Vec<u32>,
    /// Per node: hops to its head (0 for heads).
    dist_head: Vec<u32>,
    /// Per node: where its canonical ascent path `u → … → head(u)`
    /// ([`ascent_len`] nodes) starts in `up_arena`.
    up_off: Vec<u32>,
    up_arena: Vec<NodeId>,
    /// Nodes of `up_arena` no ascent points at any more.
    up_dead: usize,
    /// The backbone `G''` over the head slots, in directed CSR form.
    backbone: Backbone,
    /// Inter-head first hops, dense matrix or hub-label index (see the
    /// module docs). Both answer the identical canonical rule. Shared,
    /// so the clone a maintainer patches into its next plan copies no
    /// table until a repair writes it (copy-on-write).
    inter: Arc<InterTable>,
    /// The layout policy this plan was compiled under — preserved
    /// across [`Self::apply_delta`] repairs so a maintained plan never
    /// silently flips policy. Excluded from equality (a policy knob,
    /// not served content).
    inter_mode: InterMode,
}

/// Content equality: every served decision — each node's affiliation
/// and ascent, each directed backbone link's target, weight and path,
/// and the inter table — **ignoring** the publication
/// [`RoutePlan::epoch`] (a maintained plan bumps its epoch on every
/// publish yet must compare equal to a fresh compile) and where in
/// their arenas the paths happen to lie.
impl PartialEq for RoutePlan {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.n == other.n
            && self.heads == other.heads
            && self.head_slot == other.head_slot
            && self.dist_head == other.dist_head
            && (0..self.n as u32).all(|u| self.ascent(NodeId(u)) == other.ascent(NodeId(u)))
            && self.backbone == other.backbone
            && self.inter == other.inter
    }
}

impl Eq for RoutePlan {}

/// What [`RoutePlan::apply_delta`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanUpdate {
    /// The head set changed: the slots were renumbered, kept nodes'
    /// ascents stayed under their heads' new slots, and the inter-head
    /// table was carried across the renumbering.
    pub heads_changed: bool,
    /// Nodes whose ascents were re-walked.
    pub resweeped_nodes: usize,
    /// Members of swept label rows that kept their ascents: the row's
    /// sweep reproduced it and no delta endpoint lies on the ascent.
    pub ascents_kept_reproduced: usize,
    /// Backbone links the new selection added.
    pub links_inserted: usize,
    /// Backbone links the new selection dropped.
    pub links_removed: usize,
    /// Backbone links kept with a new path.
    pub links_repathed: usize,
    /// Arenas (ascents, backbone paths) this update compacted.
    pub arena_compactions: usize,
    /// What the inter-head advance did: nothing (the backbone's weighted
    /// link set did not change), dense cells settled, or a rebuild.
    pub inter: InterRepair,
}

impl PlanUpdate {
    /// Reports this update's repair scope into `metrics` — the
    /// counters behind the serving layer's `plan.*` / `inter.*` /
    /// `hub.*` metric families. `plan.headset_repairs` counts head-set
    /// changes repaired in place, `plan.resweeped_nodes` the re-walked
    /// ascents, `plan.ascents_kept_reproduced` the members of swept rows
    /// that kept theirs, `plan.links_inserted` / `plan.links_removed` /
    /// `plan.links_repathed` the backbone link diff,
    /// `plan.arena_compactions` the arenas compacted,
    /// `plan.next_recomputed` updates whose inter-head table changed,
    /// `inter.dense_recomputed` updates whose dense matrix changed (a
    /// repair or a rebuild; the name predates the repair),
    /// `inter.dense_rows_swept` the sources with at least one settled
    /// cell, `inter.dense_cells_settled` the cells the repairs settled
    /// and `hub.rebuilt` the updates that built a fresh hub index (a
    /// hub index is never repaired). All values are exact update facts,
    /// so the counts are deterministic for any worker count.
    pub fn record_into(&self, metrics: &Metrics) {
        if self.heads_changed {
            metrics.inc("plan.headset_repairs");
        }
        for (name, value) in [
            ("plan.resweeped_nodes", self.resweeped_nodes),
            ("plan.ascents_kept_reproduced", self.ascents_kept_reproduced),
            ("plan.links_inserted", self.links_inserted),
            ("plan.links_removed", self.links_removed),
            ("plan.links_repathed", self.links_repathed),
            ("plan.arena_compactions", self.arena_compactions),
        ] {
            metrics.add(name, value as u64);
        }
        if self.inter != InterRepair::Unchanged {
            metrics.inc("plan.next_recomputed");
        }
        match self.inter {
            InterRepair::Unchanged => metrics.inc("inter.unchanged"),
            InterRepair::DenseRepaired {
                rows_swept,
                cells_settled,
            } => {
                metrics.inc("inter.dense_recomputed");
                metrics.add("inter.dense_rows_swept", rows_swept as u64);
                metrics.add("inter.dense_cells_settled", cells_settled as u64);
            }
            InterRepair::DenseRebuilt => metrics.inc("inter.dense_recomputed"),
            InterRepair::HubRebuilt => metrics.inc("hub.rebuilt"),
        }
    }
}

/// The directed-CSR backbone arrays.
#[derive(Clone, Debug, Default)]
struct Backbone {
    /// CSR offsets (`heads.len() + 1`) into the three link arrays.
    link_off: Vec<u32>,
    /// Directed backbone links: neighbor head slot...
    link_to: Vec<u32>,
    /// ...virtual-link weight in hops...
    link_hops: Vec<u32>,
    /// ...and where the oriented (source-first) realized path of
    /// `link_hops + 1` nodes starts in `path_arena`.
    link_path: Vec<u32>,
    path_arena: Vec<NodeId>,
    /// Nodes of `path_arena` no link points at any more.
    dead: usize,
}

/// Content equality: the same directed links with the same paths,
/// wherever in the arena the paths lie.
impl PartialEq for Backbone {
    fn eq(&self, other: &Self) -> bool {
        self.link_off == other.link_off
            && self.link_to == other.link_to
            && self.link_hops == other.link_hops
            && (0..self.link_to.len()).all(|i| self.path(i) == other.path(i))
    }
}

/// The backbone link changes one [`Backbone::patch`] made.
#[derive(Clone, Copy, Debug, Default)]
struct LinkCounts {
    inserted: usize,
    removed: usize,
    repathed: usize,
    compacted: bool,
}

impl Backbone {
    /// The oriented path of the directed link at CSR position `i`.
    fn path(&self, i: usize) -> &[NodeId] {
        let off = self.link_path[i] as usize;
        &self.path_arena[off..off + self.link_hops[i] as usize + 1]
    }

    /// Patches the backbone over the head list `old` onto the link set
    /// `links` (ascending by `(a, b)`) over the head list `new`,
    /// renumbered by `renumber` when the two differ. Each undirected
    /// link is both orientations, each with a source-first path (so
    /// queries never branch on direction).
    ///
    /// One merge of the old CSR's upper triangle, read as ascending
    /// head-ID pairs, against `links` finds the inserted, removed and
    /// re-pathed links; with none of them over one head set nothing is
    /// touched. Otherwise the new paths are appended to the arena, the
    /// dropped ones counted dead, and the index arrays rewritten in one
    /// merge of each kept row with the sorted new entries — a compile
    /// (every link inserted) is one sort and one pass. Returns the
    /// weighted diff in the inter table's slot space (the union's
    /// across a head-set change) and the counts.
    fn patch(
        &mut self,
        old: &[NodeId],
        new: &[NodeId],
        renumber: Option<&Renumbering>,
        links: &[LinkRef<'_>],
    ) -> (LinkDiff, LinkCounts) {
        let old_at = |s: usize| renumber.map_or(s as u32, |r| r.old_union[s]);
        let new_at = |s: u32| renumber.map_or(s, |r| r.new_union[s as usize]);
        let mut diff = LinkDiff::default();
        let mut counts = LinkCounts::default();
        // Fresh links, each with whether the inter table sees it
        // inserted (a re-path at the same weight it does not), and the
        // old upper-triangle positions `(s, i)` they replace or drop.
        let mut fresh: Vec<(LinkRef<'_>, bool)> = Vec::new();
        let mut gone: Vec<(usize, usize)> = Vec::new();
        let mut next = links.iter().copied().peekable();
        for s in 0..old.len() {
            for i in self.link_off[s] as usize..self.link_off[s + 1] as usize {
                let t = self.link_to[i] as usize;
                if t < s {
                    continue;
                }
                let pair = (old[s], old[t]);
                while let Some(l) = next.next_if(|l| (l.a, l.b) < pair) {
                    fresh.push((l, true));
                }
                let w = self.link_hops[i];
                match next.next_if(|l| (l.a, l.b) == pair) {
                    Some(l) if l.path == self.path(i) => continue,
                    Some(l) => {
                        counts.repathed += 1;
                        fresh.push((l, l.hops() != w));
                        if l.hops() != w {
                            diff.removed.push((old_at(s), old_at(t), w));
                        }
                    }
                    None => {
                        counts.removed += 1;
                        diff.removed.push((old_at(s), old_at(t), w));
                    }
                }
                gone.push((s, i));
            }
        }
        fresh.extend(next.map(|l| (l, true)));
        counts.inserted = fresh.len() - counts.repathed;
        if fresh.is_empty() && gone.is_empty() && renumber.is_none() {
            return (diff, counts);
        }
        // Drop both orientations of each gone link.
        for &(s, i) in &gone {
            let t = self.link_to[i] as usize;
            let (lo, hi) = (self.link_off[t] as usize, self.link_off[t + 1] as usize);
            let j = lo
                + self.link_to[lo..hi]
                    .binary_search(&(s as u32))
                    .expect("both orientations are stored");
            self.dead += 2 * (self.link_hops[i] as usize + 1);
            self.link_hops[i] = DROPPED;
            self.link_hops[j] = DROPPED;
        }
        // Append the fresh paths, both orientations, as directed entries
        // `(source, target, weight, path)` sorted by source and target.
        let slot = |x: NodeId| {
            new.binary_search(&x)
                .unwrap_or_else(|_| panic!("link endpoint {x:?} is not a head")) as u32
        };
        let mut added = Vec::with_capacity(2 * fresh.len());
        self.path_arena
            .reserve(fresh.iter().map(|(l, _)| 2 * l.path.len()).sum());
        for &(l, inserted) in &fresh {
            let (sa, sb, w) = (slot(l.a), slot(l.b), l.hops());
            if inserted {
                diff.inserted.push((new_at(sa), new_at(sb), w));
            }
            let off = self.path_arena.len() as u32;
            self.path_arena.extend_from_slice(l.path);
            self.path_arena.extend(l.path.iter().rev());
            added.push((sa, sb, w, off));
            added.push((sb, sa, w, off + w + 1));
        }
        added.sort_unstable();
        // Rewrite the index: each new row is its head's kept old row,
        // renumbered, merged with its new entries.
        let len = self.link_to.len() + added.len() - 2 * gone.len();
        let mut off = Vec::with_capacity(new.len() + 1);
        let (mut to, mut hops, mut path) = (
            Vec::with_capacity(len),
            Vec::with_capacity(len),
            Vec::with_capacity(len),
        );
        off.push(0);
        let mut added = added.into_iter().peekable();
        for s in 0..new.len() as u32 {
            let kept = match renumber.map_or(s, |r| r.new_old[s as usize]) {
                NO_SLOT => 0..0,
                o => self.link_off[o as usize] as usize..self.link_off[o as usize + 1] as usize,
            };
            for i in kept.filter(|&i| self.link_hops[i] != DROPPED) {
                let t = renumber.map_or(self.link_to[i], |r| r.old_new[self.link_to[i] as usize]);
                debug_assert_ne!(t, NO_SLOT, "a lost head's links are dropped");
                while let Some((_, u, w, p)) = added.next_if(|a| a.0 == s && a.1 < t) {
                    to.push(u);
                    hops.push(w);
                    path.push(p);
                }
                to.push(t);
                hops.push(self.link_hops[i]);
                path.push(self.link_path[i]);
            }
            while let Some((_, u, w, p)) = added.next_if(|a| a.0 == s) {
                to.push(u);
                hops.push(w);
                path.push(p);
            }
            off.push(to.len() as u32);
        }
        self.link_off = off;
        self.link_to = to;
        self.link_hops = hops;
        self.link_path = path;
        let slices = self.link_path.iter_mut().zip(&self.link_hops);
        counts.compacted = compact_arena(
            &mut self.path_arena,
            &mut self.dead,
            slices.map(|(p, &w)| (p, w + 1)),
        );
        (diff, counts)
    }

    /// Borrowed weighted-CSR view for the inter-head machinery.
    fn csr(&self) -> CsrView<'_> {
        CsrView {
            off: &self.link_off,
            to: &self.link_to,
            hops: &self.link_hops,
        }
    }
}

/// How a head-set change renumbers the slots, from one merge of the
/// two ascending head lists: each old and each new slot's place in
/// their union (ascending, as the inter table's advance takes them),
/// the union's size, and each old slot's new slot and each new slot's
/// old one ([`NO_SLOT`] for a lost or a gained head).
struct Renumbering {
    old_union: Vec<u32>,
    new_union: Vec<u32>,
    union: usize,
    old_new: Vec<u32>,
    new_old: Vec<u32>,
}

impl Renumbering {
    fn new(old: &[NodeId], new: &[NodeId]) -> Renumbering {
        let mut r = Renumbering {
            old_union: Vec::with_capacity(old.len()),
            new_union: Vec::with_capacity(new.len()),
            union: 0,
            old_new: vec![NO_SLOT; old.len()],
            new_old: vec![NO_SLOT; new.len()],
        };
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            let x = r.union as u32;
            match (old.get(i), new.get(j)) {
                (Some(a), Some(b)) if a == b => {
                    r.old_new[i] = j as u32;
                    r.new_old[j] = i as u32;
                    r.old_union.push(x);
                    r.new_union.push(x);
                    (i, j) = (i + 1, j + 1);
                }
                (Some(a), b) if b.is_none_or(|b| a < b) => {
                    r.old_union.push(x);
                    i += 1;
                }
                _ => {
                    r.new_union.push(x);
                    j += 1;
                }
            }
            r.union += 1;
        }
        r
    }
}

impl RoutePlan {
    /// Compiles a plan from the pipeline's shared head labels and a
    /// backbone link set (e.g. one algorithm's selected links via
    /// [`EvaluationOutput::selected_links`], or a whole virtual
    /// graph's [`links`]).
    ///
    /// [`EvaluationOutput::selected_links`]: crate::pipeline::EvaluationOutput::selected_links
    /// [`links`]: crate::virtual_graph::VirtualGraph::links
    ///
    /// # Panics
    /// Panics if `labels` was built for a different head set or node
    /// count, if its bound is below `k` (members' ascents would be
    /// unresolvable), or if a link endpoint is not a head.
    pub fn compile<'a, G: Adjacency + Sync>(
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        links: impl IntoIterator<Item = LinkRef<'a>>,
    ) -> RoutePlan {
        RoutePlan::compile_with(g, clustering, labels, links, InterMode::Auto)
    }

    /// [`Self::compile`] with an explicit inter-head layout policy
    /// instead of the [`InterMode::Auto`] default.
    pub fn compile_with<'a, G: Adjacency + Sync>(
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        links: impl IntoIterator<Item = LinkRef<'a>>,
        mode: InterMode,
    ) -> RoutePlan {
        RoutePlan::compile_tuned(g, clustering, labels, links, mode, Parallelism::serial())
    }

    /// [`Self::compile_with`] over a worker pool: the per-node ascent
    /// walks and the inter-head build (dense distance rows or pruned
    /// hub sweeps) fan out across `par` workers. The compiled plan is
    /// **bit-identical** for any worker count — every per-node and
    /// per-hub unit is a pure function of its inputs, outputs land in
    /// pre-partitioned slices or are merged in chunk order, and the
    /// `parallel_equivalence` proptests pin the equality.
    pub fn compile_tuned<'a, G: Adjacency + Sync>(
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        links: impl IntoIterator<Item = LinkRef<'a>>,
        mode: InterMode,
        par: Parallelism,
    ) -> RoutePlan {
        RoutePlan::compile_metered(
            g,
            clustering,
            labels,
            links,
            mode,
            par,
            &Metrics::disabled(),
        )
    }

    /// [`Self::compile_tuned`] reporting into an observability handle:
    /// an overall `plan.compile_ns` span, an ascent-walk span
    /// (`plan.ascents_ns`), a backbone span (`plan.backbone_ns`) and a
    /// layout-specific inter-head build span (`hub.build_ns` /
    /// `inter.dense_build_ns`). With [`Metrics::disabled`] every report
    /// is a single-branch no-op — which is exactly what
    /// [`Self::compile_tuned`] passes.
    ///
    /// A compile is the update from the empty plan: every node moved
    /// (from no head to its head), so every one walks its ascent, every
    /// link is inserted, and the empty inter table has nothing to keep,
    /// so it builds.
    #[allow(clippy::too_many_arguments)]
    pub fn compile_metered<'a, G: Adjacency + Sync>(
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        links: impl IntoIterator<Item = LinkRef<'a>>,
        mode: InterMode,
        par: Parallelism,
        metrics: &Metrics,
    ) -> RoutePlan {
        let _compile = metrics.span("plan.compile_ns");
        metrics.inc("plan.compiled");
        let n = g.node_count();
        let mut plan = RoutePlan::empty(n, clustering.k, mode);
        let every: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let none = TopologyDelta::new();
        plan.update(
            g,
            clustering,
            labels,
            &none,
            &[],
            &every,
            links,
            par,
            metrics,
        );
        plan
    }

    /// The plan over `n` nodes with no heads: every node unaffiliated
    /// with an empty ascent, no links, and the empty inter table.
    fn empty(n: usize, k: u32, mode: InterMode) -> RoutePlan {
        RoutePlan {
            epoch: 0,
            k,
            n,
            heads: Vec::new(),
            head_slot: vec![NO_SLOT; n],
            dist_head: vec![0; n],
            up_off: vec![0; n],
            up_arena: Vec::new(),
            up_dead: 0,
            backbone: Backbone {
                link_off: vec![0],
                ..Backbone::default()
            },
            inter: Arc::new(InterTable::EMPTY),
            inter_mode: mode,
        }
    }

    /// The nodes whose ascents must be re-walked, ascending, and how
    /// many members of swept rows keep theirs. Candidates are the
    /// `moved` nodes and the members of the `swept` rows (the row's
    /// first `k` levels hold them all). A member keeps its ascent when
    /// it kept its head, the row's sweep reproduced the row
    /// ([`HeadLabels::sweep_reproduced`]) and no endpoint of `delta`
    /// lies on the ascent before the head: the canonical walk reads the
    /// row's distances and the adjacency of each node it leaves, and
    /// neither changed.
    fn rewalks(
        &self,
        clustering: &Clustering,
        labels: &HeadLabels,
        delta: &TopologyDelta,
        swept: &[usize],
        moved: &[NodeId],
    ) -> (Vec<NodeId>, usize) {
        let mut endpoints: Vec<NodeId> = delta.endpoints().collect();
        endpoints.sort_unstable();
        let meets_delta = |ascent: &[NodeId]| {
            ascent[..ascent.len() - 1]
                .iter()
                .any(|v| endpoints.binary_search(v).is_ok())
        };
        let mut walks = moved.to_vec();
        let mut kept = 0;
        for &s in swept {
            let h = clustering.heads[s];
            let reproduced = labels.sweep_reproduced(s);
            for (u, _) in labels.within(s, clustering.k) {
                if clustering.head_of(u) != h {
                    continue;
                }
                let own = self.head_slot[u.index()];
                if reproduced
                    && own != NO_SLOT
                    && self.heads[own as usize] == h
                    && !meets_delta(self.ascent(u))
                {
                    kept += 1;
                } else {
                    walks.push(u);
                }
            }
        }
        walks.sort_unstable();
        walks.dedup();
        (walks, kept)
    }

    /// Re-derives the affiliation and ascent of each node of `walks`
    /// (ascending) off the labels, appending the ascents to the arena,
    /// then compacts the arena ([`compact_arena`], node order). Returns
    /// whether it compacted.
    ///
    /// The walks are chunked across `par` workers: each walks its own
    /// nodes into a local arena fragment; fragments are appended in
    /// chunk (= node) order, so the arena is bit-identical to the
    /// serial walk for any worker count. Walks below one thread
    /// spawn's worth of work ([`par::work::ascents`] over the walked
    /// nodes, gated by [`Parallelism::for_work`]) run inline — a
    /// localized repair re-walks a few percent of the nodes.
    fn walk_ascents<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        walks: &[NodeId],
        par: Parallelism,
    ) -> bool {
        let (n, k) = (self.n, clustering.k);
        let workers = par.for_work(par::work::ascents(walks.len(), k)).workers();
        let frags = par::scoped_chunks(workers, walks.len(), walks, |_, _, walks: &[NodeId]| {
            let mut arena: Vec<NodeId> = Vec::new();
            let placed: Vec<(u32, u32)> = walks
                .iter()
                .map(|&u| {
                    let h = clustering.head_of(u);
                    if h.index() >= n {
                        // Departed / unclustered sentinel affiliation.
                        return (NO_SLOT, 0);
                    }
                    let slot = labels
                        .slot(h)
                        .unwrap_or_else(|| panic!("affiliation head {h:?} is not labeled"));
                    if u == h {
                        arena.push(u);
                        return (slot as u32, 0);
                    }
                    let row = labels.row(slot);
                    let d = row.dist(u);
                    assert!(
                        d != UNREACHED && d <= k,
                        "member {u:?} at label distance {d} from head {h:?} (k = {k})"
                    );
                    let ok = bfs::lexico_path_append(g, u, h, &row, &mut arena);
                    debug_assert!(ok);
                    (slot as u32, d)
                })
                .collect();
            (placed, arena)
        });
        self.up_arena
            .reserve(frags.iter().map(|(_, arena)| arena.len()).sum());
        let mut walks = walks.iter();
        for (placed, arena) in frags {
            let mut at = self.up_arena.len() as u32;
            for ((slot, d), &u) in placed.into_iter().zip(&mut walks) {
                self.head_slot[u.index()] = slot;
                self.dist_head[u.index()] = d;
                self.up_off[u.index()] = at;
                at += ascent_len(slot, d);
            }
            self.up_arena.extend_from_slice(&arena);
        }
        let lens = self.head_slot.iter().zip(&self.dist_head);
        compact_arena(
            &mut self.up_arena,
            &mut self.up_dead,
            self.up_off
                .iter_mut()
                .zip(lens.map(|(&s, &d)| ascent_len(s, d))),
        )
    }

    /// Patches the plan in place after a topology step, given the
    /// post-step graph and clustering, the **already advanced** labels
    /// (see [`pipeline::advance_labels`]), the edge `delta` since the
    /// plan was compiled or last patched, the label slots the advance
    /// swept or opened since then (`swept`, in the new numbering), the
    /// nodes whose head changed since then (`moved`, as
    /// [`pipeline::update_all_after`] returns them), and the post-step
    /// backbone link set.
    ///
    /// [`pipeline::advance_labels`]: crate::pipeline::advance_labels
    /// [`pipeline::update_all_after`]: crate::pipeline::update_all_after
    ///
    /// The head set may differ from the plan's (a head lost, a local
    /// election, a re-election).
    ///
    /// Soundness of the localized repair: a node's ascent is derived
    /// from its head's label row plus the adjacency of the nodes on the
    /// path before the head (all inside the head's ball) — any changed
    /// edge touching either has an endpoint in that ball and therefore
    /// sweeps the head's row. So only the members of swept or opened
    /// rows and the nodes whose head changed can need a new ascent, and
    /// of a reproduced row's members only those whose ascent meets a
    /// delta endpoint; every other node keeps its arena segment, its
    /// slot mapped from its head's old place to its new one (pinned by
    /// the `route_equivalence` proptests). The backbone is patched from
    /// its own one-pass diff against `links`, and the dense inter-head
    /// matrix is repaired only from the weighted links that diff
    /// inserted and removed: it settles the cells each removed link or
    /// lost head can lengthen, from the smaller witness-thinned side of
    /// a link, and min-passes the cells each inserted link can shorten,
    /// across a head-set change in the union of both head sets (pinned
    /// against a fresh build by the `inter` proptests). A hub index is
    /// kept when no weighted link changed over one head set and built
    /// fresh otherwise (pinned against a fresh compile by the
    /// `hub_equivalence` proptests).
    ///
    /// # Panics
    /// Panics if `g`'s node count differs from the plan's (a maintained
    /// node set is fixed: a departure isolates its node), if `labels`
    /// do not carry `clustering`'s head set, or as [`Self::compile`].
    #[allow(clippy::too_many_arguments)]
    pub fn apply_delta<'a, G: Adjacency + Sync>(
        &mut self,
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        delta: &TopologyDelta,
        swept: &[usize],
        moved: &[NodeId],
        links: impl IntoIterator<Item = LinkRef<'a>>,
    ) -> PlanUpdate {
        self.apply_delta_tuned(
            g,
            clustering,
            labels,
            delta,
            swept,
            moved,
            links,
            Parallelism::serial(),
        )
    }

    /// [`Self::apply_delta`] over a worker pool: the ascent re-walks
    /// and the inter-head builds (a hub index, or a dense repair's
    /// fallback build) fan out across `par` workers, bit-identical to
    /// the serial repair for any worker count.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_delta_tuned<'a, G: Adjacency + Sync>(
        &mut self,
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        delta: &TopologyDelta,
        swept: &[usize],
        moved: &[NodeId],
        links: impl IntoIterator<Item = LinkRef<'a>>,
        par: Parallelism,
    ) -> PlanUpdate {
        self.apply_delta_metered(
            g,
            clustering,
            labels,
            delta,
            swept,
            moved,
            links,
            par,
            &Metrics::disabled(),
        )
    }

    /// [`Self::apply_delta_tuned`] reporting into an observability
    /// handle: an overall `plan.apply_delta_ns` span, the ascent and
    /// backbone spans (`plan.ascents_ns`, `plan.backbone_ns`), an
    /// inter-head span (`inter.dense_repair_ns` for a dense repair, the
    /// layout's build span when the table builds, none when it is
    /// kept), and the repair-scope counters of
    /// [`PlanUpdate::record_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn apply_delta_metered<'a, G: Adjacency + Sync>(
        &mut self,
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        delta: &TopologyDelta,
        swept: &[usize],
        moved: &[NodeId],
        links: impl IntoIterator<Item = LinkRef<'a>>,
        par: Parallelism,
        metrics: &Metrics,
    ) -> PlanUpdate {
        let _apply = metrics.span("plan.apply_delta_ns");
        let update = self.update(
            g, clustering, labels, delta, swept, moved, links, par, metrics,
        );
        update.record_into(metrics);
        update
    }

    /// The one way a plan changes: a compile runs it on the empty plan,
    /// a repair on the plan it patches (see [`Self::apply_delta`] for
    /// the arguments and why the localized repair is exact).
    #[allow(clippy::too_many_arguments)]
    fn update<'a, G: Adjacency + Sync>(
        &mut self,
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        delta: &TopologyDelta,
        swept: &[usize],
        moved: &[NodeId],
        links: impl IntoIterator<Item = LinkRef<'a>>,
        par: Parallelism,
        metrics: &Metrics,
    ) -> PlanUpdate {
        assert_eq!(self.n, g.node_count(), "node count changed");
        assert_eq!(labels.heads(), &clustering.heads[..], "head set mismatch");
        assert_eq!(
            labels.node_count(),
            self.n,
            "labels describe a different graph"
        );
        assert!(
            labels.bound() >= clustering.k,
            "labels too shallow for ascents"
        );
        let heads_changed = self.heads != clustering.heads;
        let (walks, kept) = self.rewalks(clustering, labels, delta, swept, moved);
        for &u in &walks {
            self.up_dead += self.ascent(u).len();
        }
        let renumber = heads_changed.then(|| Renumbering::new(&self.heads, &clustering.heads));
        let mut links: Vec<LinkRef<'a>> = links.into_iter().collect();
        if !links.is_sorted_by_key(|l| (l.a, l.b)) {
            links.sort_unstable_by_key(|l| (l.a, l.b));
        }
        let (diff, counts) = {
            let _backbone = metrics.span("plan.backbone_ns");
            let (old, new) = (&self.heads, &clustering.heads);
            self.backbone.patch(old, new, renumber.as_ref(), &links)
        };
        if let Some(r) = &renumber {
            // A kept node's slot moves from its head's old place to its
            // new one (a re-walked node's is rewritten below).
            for slot in self.head_slot.iter_mut().filter(|s| **s != NO_SLOT) {
                *slot = r.old_new[*slot as usize];
            }
            self.heads.clone_from(&clustering.heads);
        }
        let ascents_compacted = {
            let _ascents = metrics.span("plan.ascents_ns");
            self.walk_ascents(g, clustering, labels, &walks, par)
        };
        debug_assert!(
            (0..self.n as u32).map(NodeId).all(|u| {
                let (h, s) = (clustering.head_of(u), self.head_slot[u.index()]);
                (s == NO_SLOT && h.index() >= self.n)
                    || (s != NO_SLOT && self.heads[s as usize] == h)
            }),
            "a node whose head changed was not named as moved"
        );
        let inter = InterTable::advance(
            &mut self.inter,
            self.inter_mode,
            renumber
                .as_ref()
                .map(|r| (&r.old_union[..], &r.new_union[..], r.union)),
            &diff,
            self.backbone.csr(),
            par,
            metrics,
        );
        PlanUpdate {
            heads_changed,
            resweeped_nodes: walks.len(),
            ascents_kept_reproduced: kept,
            links_inserted: counts.inserted,
            links_removed: counts.removed,
            links_repathed: counts.repathed,
            arena_compactions: usize::from(ascents_compacted) + usize::from(counts.compacted),
            inter,
        }
    }

    /// Routes `u ⇝ v` into `out` (cleared first; the caller reuses the
    /// buffer across queries — that is the per-worker scratch),
    /// returning the hop count, or `None` when either endpoint is
    /// unrouted (departed) or the backbone does not connect their
    /// heads (`out` then holds an unspecified prefix). The walk
    /// follows graph edges, stops the first time it passes through
    /// `v`, and carries no consecutive duplicates — node-for-node what
    /// the legacy per-query-BFS router produces on the same backbone.
    pub fn route_into(&self, u: NodeId, v: NodeId, out: &mut Vec<NodeId>) -> Option<u32> {
        out.clear();
        let su = *self.head_slot.get(u.index())?;
        let sv = *self.head_slot.get(v.index())?;
        if su == NO_SLOT || sv == NO_SLOT {
            return None;
        }
        if u == v {
            out.push(u);
            return Some(0);
        }
        // Ascend: u's precompiled canonical path to its head.
        out.extend_from_slice(self.ascent(u));
        // Across: the inter-head walk hands back each link's CSR
        // position; append that link's oriented path.
        let bb = &self.backbone;
        let reached = self.inter.walk(su as usize, sv as usize, bb.csr(), |i| {
            out.extend_from_slice(&bb.path(i)[1..]);
        });
        if !reached {
            return None;
        }
        // Descend: v's ascent, reversed (its head is already at the
        // walk's tail).
        out.extend(self.ascent(v).iter().rev().skip(1));
        paths::shortcut_walk(out, v);
        Some((out.len() - 1) as u32)
    }

    /// One-shot convenience over [`Self::route_into`].
    pub fn route(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        let mut out = Vec::new();
        self.route_into(u, v, &mut out).map(|_| out)
    }

    /// `u`'s stored canonical ascent path (inclusive of `u` and its
    /// head; empty for unrouted nodes).
    fn ascent(&self, u: NodeId) -> &[NodeId] {
        let lo = self.up_off[u.index()] as usize;
        let len = ascent_len(self.head_slot[u.index()], self.dist_head[u.index()]);
        &self.up_arena[lo..lo + len as usize]
    }

    /// The clustering radius the plan was compiled for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of nodes the plan serves.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The clusterheads, in slot order.
    pub fn heads(&self) -> &[NodeId] {
        &self.heads
    }

    /// Number of undirected backbone links.
    pub fn link_count(&self) -> usize {
        self.backbone.link_to.len() / 2
    }

    /// `u`'s affiliation: `(head slot, hops to head)`, or `None` for
    /// unrouted (departed) nodes.
    pub fn affiliation(&self, u: NodeId) -> Option<(usize, u32)> {
        match self.head_slot.get(u.index()) {
            Some(&s) if s != NO_SLOT => Some((s as usize, self.dist_head[u.index()])),
            _ => None,
        }
    }

    /// The backbone neighbor slots of the head in `slot`, ascending.
    pub fn backbone_neighbors(&self, slot: usize) -> &[u32] {
        let bb = &self.backbone;
        let (lo, hi) = (bb.link_off[slot] as usize, bb.link_off[slot + 1] as usize);
        &bb.link_to[lo..hi]
    }

    /// The publication epoch the maintainer stamped this plan with
    /// (0 for a freshly compiled plan).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps the publication epoch. Called by the maintainer's
    /// publish phase when atomically swapping the served plan; has no
    /// effect on [`PartialEq`] content equality.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The layout policy the plan was compiled under.
    pub fn inter_mode(&self) -> InterMode {
        self.inter_mode
    }

    /// The inter-head layout actually in use (`dense` / `hub` —
    /// [`InterMode::Auto`] resolves at compile time).
    pub fn inter_layout(&self) -> &'static str {
        self.inter.layout_name()
    }

    /// Heap bytes of the inter-head table alone (part of
    /// [`Self::memory_bytes`]) — the quantity the hub layout makes
    /// sub-quadratic in `h`.
    pub fn inter_memory_bytes(&self) -> usize {
        self.inter.memory_bytes()
    }

    /// Bytes the dense `h × h` distance matrix would take for this
    /// plan's head count — what [`Self::inter_memory_bytes`] is
    /// measured against.
    pub fn projected_dense_inter_bytes(&self) -> usize {
        inter::projected_dense_bytes(self.heads.len())
    }

    /// Estimated cost of one served query in `par::work` units — the
    /// hop estimate [`QueryEngine::route_many`] multiplies by its batch
    /// size ([`par::work::routes`]) to decide whether to fan out. A
    /// walk writes two ascents and about `√h + 1` backbone links'
    /// paths (a geometric backbone's mean head-to-head hop distance
    /// grows as `√h`), at their mean lengths; a hub-labeled plan adds
    /// the label entries its inter-head walk reads
    /// (`InterTable::walk_work`). The means are over live arena
    /// nodes, so a patched plan estimates what a fresh compile does.
    ///
    /// [`QueryEngine::route_many`]: super::QueryEngine::route_many
    pub fn query_work(&self) -> usize {
        let head_hops = self.heads.len().isqrt() + 1;
        let ascent = (self.up_arena.len() - self.up_dead) / self.n.max(1);
        let bb = &self.backbone;
        let link = (bb.path_arena.len() - bb.dead) / bb.link_to.len().max(1);
        2 * ascent + head_hops * link + self.inter.walk_work(head_hops)
    }

    /// Heap bytes of the plan's live content — the serving-side
    /// footprint (per-node arrays, live ascents, backbone CSR and live
    /// paths, and the inter-head table in whichever layout was
    /// compiled): what a fresh compile of the same content holds. The
    /// dead arena nodes a patch leaves until the next compaction are
    /// [`Self::dead_bytes`].
    pub fn memory_bytes(&self) -> usize {
        let bb = &self.backbone;
        (self.head_slot.len()
            + self.dist_head.len()
            + self.up_off.len()
            + bb.link_off.len()
            + bb.link_to.len()
            + bb.link_hops.len()
            + bb.link_path.len())
            * size_of::<u32>()
            + (self.heads.len() + self.up_arena.len() - self.up_dead + bb.path_arena.len()
                - bb.dead)
                * size_of::<NodeId>()
            + self.inter.memory_bytes()
    }

    /// Heap bytes of the arena nodes no ascent or backbone link points
    /// at any more: what patches appended over the plan's content since
    /// the arenas last compacted, never more than about the live bytes.
    pub fn dead_bytes(&self) -> usize {
        (self.up_dead + self.backbone.dead) * size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::pipeline::{self, EvalScratch};
    use crate::priority::LowestId;
    use crate::routing::{is_valid_walk, walk_hops};
    use adhoc_graph::gen;
    use adhoc_graph::graph::Graph;

    fn compile_ac(g: &adhoc_graph::graph::Graph, k: u32) -> (Clustering, RoutePlan) {
        let c = cluster(g, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(g, &c, &mut scratch);
        let plan = RoutePlan::compile(g, &c, scratch.labels(), eval.ac_graph.links());
        (c, plan)
    }

    #[test]
    fn plan_routes_on_path_graph() {
        let g = gen::path(9);
        let (_, plan) = compile_ac(&g, 1);
        let walk = plan.route(NodeId(0), NodeId(8)).unwrap();
        assert!(is_valid_walk(&g, &walk));
        assert_eq!(walk_hops(&walk), 8, "path routing must be stretch-free");
        assert_eq!(plan.route(NodeId(4), NodeId(4)).unwrap(), vec![NodeId(4)]);
    }

    #[test]
    fn plan_shortcut_stops_at_first_visit() {
        // Same instance as the legacy shortcut test: 2 -> 1 inside
        // head 0's cluster must not detour through the head.
        let g = gen::path(5);
        let (c, plan) = compile_ac(&g, 2);
        assert_eq!(c.heads, vec![NodeId(0), NodeId(3)]);
        assert_eq!(
            plan.route(NodeId(2), NodeId(1)).unwrap(),
            vec![NodeId(2), NodeId(1)]
        );
    }

    #[test]
    fn plan_routes_are_valid_walks_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 7.0), &mut rng);
            let (_, plan) = compile_ac(&net.graph, k);
            let mut out = Vec::new();
            for _ in 0..50 {
                let u = NodeId(rng.gen_range(0..70u32));
                let v = NodeId(rng.gen_range(0..70u32));
                let hops = plan.route_into(u, v, &mut out).unwrap();
                assert!(is_valid_walk(&net.graph, &out), "{u:?}->{v:?}: {out:?}");
                assert_eq!(out[0], u);
                assert_eq!(*out.last().unwrap(), v);
                assert_eq!(hops, walk_hops(&out));
            }
        }
    }

    #[test]
    fn disconnected_backbone_routes_none() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (_, plan) = compile_ac(&g, 1);
        assert!(plan.route(NodeId(0), NodeId(5)).is_none());
        assert!(plan.route(NodeId(0), NodeId(2)).is_some());
    }

    #[test]
    fn accessors_describe_the_plan() {
        let g = gen::path(9);
        let (c, plan) = compile_ac(&g, 1);
        assert_eq!(plan.k(), 1);
        assert_eq!(plan.node_count(), 9);
        assert_eq!(plan.heads(), &c.heads[..]);
        assert_eq!(plan.link_count(), 4); // consecutive heads on path(9)
        assert_eq!(plan.affiliation(NodeId(0)), Some((0, 0)));
        assert_eq!(plan.affiliation(NodeId(1)), Some((0, 1)));
        assert!(plan.memory_bytes() > 0);
        // Head 2 (slot 1) touches heads 0 and 4 on the backbone.
        assert_eq!(plan.backbone_neighbors(1), &[0, 2]);
    }

    /// An ascent that relays through a foreign cluster's member must
    /// still reach the right head — the reason ascents are stored as
    /// whole paths, not chained per-node parent pointers.
    #[test]
    fn foreign_relay_ascents_terminate() {
        // k=2 star-of-paths: head 0; node 5's canonical path to head 0
        // runs through node 1. Make 1 a member of a *different* head
        // (9) by wiring 9 closer to 1's contest... Simpler: verify on
        // random graphs that every stored ascent ends at the node's
        // own head and has the recorded length.
        let g = Graph::from_edges(
            10,
            &[
                (0, 1),
                (1, 5),
                (0, 2),
                (2, 6),
                (5, 6),
                (3, 9),
                (9, 1),
                (0, 3),
            ],
        );
        let (c, plan) = compile_ac(&g, 2);
        for u in g.nodes() {
            if let Some((slot, d)) = plan.affiliation(u) {
                let a = plan.ascent(u);
                assert_eq!(a.first(), Some(&u));
                assert_eq!(a.last(), Some(&c.heads[slot]));
                assert_eq!(a.len() as u32, d + 1);
                assert!(is_valid_walk(&g, a));
            }
        }
    }

    /// Forcing the hub layout must not change a single route, and the
    /// two layouts report themselves correctly (Auto resolves dense at
    /// toy scale).
    #[test]
    fn hub_layout_serves_identical_routes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(78);
        let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 8.0), &mut rng);
        let c = cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        let dense = RoutePlan::compile_with(
            &net.graph,
            &c,
            scratch.labels(),
            eval.ac_graph.links(),
            InterMode::Dense,
        );
        let hub = RoutePlan::compile_with(
            &net.graph,
            &c,
            scratch.labels(),
            eval.ac_graph.links(),
            InterMode::Hub,
        );
        let auto = RoutePlan::compile(&net.graph, &c, scratch.labels(), eval.ac_graph.links());
        assert_eq!(dense.inter_layout(), "dense");
        assert_eq!(hub.inter_layout(), "hub");
        assert_eq!(auto.inter_layout(), "dense", "toy scale stays dense");
        assert_eq!(auto, dense);
        assert!(hub.inter_memory_bytes() > 0);
        for _ in 0..200 {
            let u = NodeId(rng.gen_range(0..60u32));
            let v = NodeId(rng.gen_range(0..60u32));
            assert_eq!(dense.route(u, v), hub.route(u, v), "{u:?} -> {v:?}");
        }
    }

    /// A clone made to be patched shares the inter table; a patch whose
    /// link diff is empty touches neither the table nor the backbone's
    /// arrays, and one that changes the backbone gives the clone its own
    /// table (copied on write, then repaired) without touching the
    /// original's.
    #[test]
    fn patched_clone_shares_the_inter_table_until_the_backbone_changes() {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let mut g2 = g.clone();
        let mut delta = TopologyDelta::new();
        delta.push_added(NodeId(0), NodeId(4));
        delta.apply_to(&mut g2);
        let mut scratch2 = EvalScratch::new();
        let eval2 = pipeline::run_all_with(&g2, &c, &mut scratch2);
        let all: Vec<usize> = (0..c.heads.len()).collect();
        let none = TopologyDelta::new();
        for mode in [InterMode::Dense, InterMode::Hub] {
            let plan =
                RoutePlan::compile_with(&g, &c, scratch.labels(), eval.ac_graph.links(), mode);
            let mut pending = plan.clone();
            let arrays = |p: &RoutePlan| {
                let bb = &p.backbone;
                [
                    bb.link_off.as_ptr(),
                    bb.link_to.as_ptr(),
                    bb.link_hops.as_ptr(),
                    bb.link_path.as_ptr(),
                ]
            };
            let (before, arena) = (arrays(&pending), pending.backbone.path_arena.len());
            let update = pending.apply_delta(
                &g,
                &c,
                scratch.labels(),
                &none,
                &[],
                &[],
                eval.ac_graph.links(),
            );
            assert_eq!(update.inter, InterRepair::Unchanged, "{mode:?}: empty diff");
            assert_eq!(arrays(&pending), before, "{mode:?}: arrays untouched");
            assert_eq!(
                pending.backbone.path_arena.len(),
                arena,
                "{mode:?}: no path"
            );
            assert!(Arc::ptr_eq(&plan.inter, &pending.inter), "{mode:?}: shared");
            let update = pending.apply_delta(
                &g2,
                &c,
                scratch2.labels(),
                &delta,
                &all,
                &[],
                eval2.ac_graph.links(),
            );
            assert_ne!(
                update.inter,
                InterRepair::Unchanged,
                "{mode:?}: the backbone changed"
            );
            assert!(
                !Arc::ptr_eq(&plan.inter, &pending.inter),
                "{mode:?}: own table"
            );
            let before =
                RoutePlan::compile_with(&g, &c, scratch.labels(), eval.ac_graph.links(), mode);
            assert_eq!(plan, before, "{mode:?}: the served plan is untouched");
            let fresh =
                RoutePlan::compile_with(&g2, &c, scratch2.labels(), eval2.ac_graph.links(), mode);
            assert_eq!(pending, fresh, "{mode:?}: patched == compiled");
        }
    }

    #[test]
    #[should_panic(expected = "head set mismatch")]
    fn compile_rejects_foreign_labels() {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let other = cluster(&gen::path(7), 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let _ = pipeline::run_all_with(&gen::path(7), &other, &mut scratch);
        let _ = RoutePlan::compile(&g, &c, scratch.labels(), std::iter::empty());
    }

    /// A repair never changes the node count: a graph of another size
    /// is rejected, not compiled afresh.
    #[test]
    #[should_panic(expected = "node count changed")]
    fn apply_delta_rejects_another_node_count() {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let mut plan = RoutePlan::compile(&g, &c, scratch.labels(), eval.ac_graph.links());
        let g11 = gen::path(11);
        let c11 = cluster(&g11, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch11 = EvalScratch::new();
        let eval11 = pipeline::run_all_with(&g11, &c11, &mut scratch11);
        plan.apply_delta(
            &g11,
            &c11,
            scratch11.labels(),
            &TopologyDelta::new(),
            &[],
            &[],
            eval11.ac_graph.links(),
        );
    }

    /// The per-query estimate reads live arena nodes: a patched plan
    /// carrying dead ones estimates what a fresh compile does.
    #[test]
    fn patched_query_work_matches_a_fresh_compile() {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let mut plan = RoutePlan::compile(&g, &c, scratch.labels(), eval.ac_graph.links());
        let mut g2 = g.clone();
        let mut delta = TopologyDelta::new();
        delta.push_added(NodeId(0), NodeId(4));
        delta.apply_to(&mut g2);
        let mut scratch2 = EvalScratch::new();
        let eval2 = pipeline::run_all_with(&g2, &c, &mut scratch2);
        let all: Vec<usize> = (0..c.heads.len()).collect();
        let labels = scratch2.labels();
        plan.apply_delta(&g2, &c, labels, &delta, &all, &[], eval2.ac_graph.links());
        let fresh = RoutePlan::compile(&g2, &c, labels, eval2.ac_graph.links());
        assert_eq!(plan, fresh);
        assert!(plan.dead_bytes() > 0, "the patch left dead arena nodes");
        assert_eq!(plan.memory_bytes(), fresh.memory_bytes());
        assert_eq!(plan.query_work(), fresh.query_work());
    }

    /// Head 0 with members 1 and 2 at `k = 1`, two unaffiliated nodes
    /// 3 and 4 behind them (`0 – 1 – 3`, `0 – 2 – 4`), plus `extra`; and
    /// an isolated head 5, whose row no delta sweeps (an advance compares
    /// a swept row with its old one only when it copies another).
    /// Returns the graph, the clustering and its labels.
    fn star(extra: &[(u32, u32)]) -> (Graph, Clustering, HeadLabels) {
        let mut edges = vec![(0, 1), (0, 2), (1, 3), (2, 4)];
        edges.extend_from_slice(extra);
        let g = Graph::from_edges(6, &edges);
        let (gone, h) = (NodeId(u32::MAX), NodeId(0));
        let c = Clustering {
            k: 1,
            heads: vec![h, NodeId(5)],
            head_of: vec![h, h, h, gone, gone, NodeId(5)],
            dist_to_head: vec![0, 1, 1, 0, 0, 0],
            rounds: 0,
        };
        let labels = HeadLabels::build(&g, &c.heads, 3);
        (g, c, labels)
    }

    /// Compiles the plan of `star(from)`, patches it by `delta` (which
    /// leaves head 0's label row as it was), checks it against a fresh
    /// compile and returns what the patch did.
    fn patch_star(from: &[(u32, u32)], delta: &TopologyDelta) -> PlanUpdate {
        let (mut g, c, mut labels) = star(from);
        let mut plan = RoutePlan::compile(&g, &c, &labels, std::iter::empty());
        let dirty = labels.dirty_slots(delta);
        delta.apply_to(&mut g);
        let swept = labels.advance(&g, &c.heads, 3, &dirty, Parallelism::serial());
        assert_eq!(swept, [0], "the delta sweeps head 0's row");
        assert!(labels.sweep_reproduced(0), "and the sweep reproduces it");
        let update = plan.apply_delta(&g, &c, &labels, delta, &swept, &[], std::iter::empty());
        assert_eq!(
            plan,
            RoutePlan::compile(&g, &c, &labels, std::iter::empty())
        );
        update
    }

    /// A reproduced row's members keep their ascents when the delta's
    /// endpoints lie on none of them: the edge `3 – 4` joins two nodes
    /// of row 0's second level, off every ascent.
    #[test]
    fn edge_off_every_ascent_rewalks_nothing() {
        let mut delta = TopologyDelta::new();
        delta.push_added(NodeId(3), NodeId(4));
        let update = patch_star(&[], &delta);
        assert_eq!(update.resweeped_nodes, 0);
        assert_eq!(update.ascents_kept_reproduced, 3);
    }

    /// An added or a removed edge whose endpoints lie on ascents
    /// re-walks those ascents, and only those, though the row is
    /// reproduced: `1 – 2` joins the two members.
    #[test]
    fn edge_on_an_ascent_rewalks_it() {
        let mut added = TopologyDelta::new();
        added.push_added(NodeId(1), NodeId(2));
        let mut removed = TopologyDelta::new();
        removed.push_removed(NodeId(1), NodeId(2));
        for update in [patch_star(&[], &added), patch_star(&[(1, 2)], &removed)] {
            assert_eq!(update.resweeped_nodes, 2, "{update:?}");
            assert_eq!(update.ascents_kept_reproduced, 1, "{update:?}");
        }
    }
}
