//! Virtual links and the virtual graph of §3.2, arena-backed.
//!
//! A *virtual link* between two clusterheads is a canonical shortest
//! path between them in the original network `G`; its *virtual
//! distance* is the path's hop count. The virtual graph has the
//! clusterheads as vertices and one virtual link per selected neighbor
//! clusterhead pair — with the A-NCR rule it equals the adjacent
//! cluster graph `G''`.
//!
//! Canonical paths are the lexicographically smallest shortest paths
//! (`adhoc_graph::bfs::lexico_path_from_labels`) oriented from the
//! smaller endpoint ID, so the two endpoints of a link — and the
//! centralized and distributed implementations — always agree on which
//! nodes would become gateways.
//!
//! Storage is a [`LinkStore`]: a flat `(a, b)`-sorted index whose path
//! bytes all live in **one** shared arena (`offset/len` slices), not a
//! `BTreeMap` with a heap `Vec` per link. Borrowed [`LinkRef`] views
//! are handed out; [`VirtualLink`] remains as the owned
//! materialization for callers that need to keep a path around.
//! Construction reads per-head distance labels ([`HeadLabels`]) so one
//! BFS sweep per head serves every consumer.

use crate::adjacency::{self, HeadDiff, NeighborRule, NeighborSets};
use crate::clustering::Clustering;
use adhoc_graph::bfs::{self, Adjacency};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::graph::NodeId;
use adhoc_graph::labels::HeadLabels;
use adhoc_graph::lmst::TieWeight;
use adhoc_graph::paths;

/// An owned virtual link between clusterheads `a < b` (materialized
/// from a [`LinkRef`] when a caller needs ownership, e.g. for
/// rendering snapshots).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtualLink {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
    /// Canonical shortest path from `a` to `b`, inclusive.
    pub path: Vec<NodeId>,
}

impl VirtualLink {
    /// Hop count (the paper's "virtual distance").
    pub fn hops(&self) -> u32 {
        paths::hop_count(&self.path)
    }

    /// The LMST weight triple `(hops, max id, min id)`.
    pub fn weight(&self) -> TieWeight<u32> {
        TieWeight::new(self.hops(), self.a, self.b)
    }

    /// Interior nodes — the nodes marked as gateways when this link is
    /// selected.
    pub fn interior(&self) -> &[NodeId] {
        paths::interior(&self.path)
    }

    /// Borrowed view of this link.
    pub fn as_ref(&self) -> LinkRef<'_> {
        LinkRef {
            a: self.a,
            b: self.b,
            path: &self.path,
        }
    }
}

/// A borrowed virtual link: endpoints plus a path slice into the
/// owning [`LinkStore`]'s arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkRef<'a> {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
    /// Canonical shortest path from `a` to `b`, inclusive.
    pub path: &'a [NodeId],
}

impl<'a> LinkRef<'a> {
    /// Hop count (the paper's "virtual distance").
    pub fn hops(&self) -> u32 {
        paths::hop_count(self.path)
    }

    /// The LMST weight triple `(hops, max id, min id)`.
    pub fn weight(&self) -> TieWeight<u32> {
        TieWeight::new(self.hops(), self.a, self.b)
    }

    /// Interior nodes — the nodes marked as gateways when this link is
    /// selected.
    pub fn interior(&self) -> &'a [NodeId] {
        paths::interior(self.path)
    }

    /// Materializes an owned [`VirtualLink`].
    pub fn to_owned(&self) -> VirtualLink {
        VirtualLink {
            a: self.a,
            b: self.b,
            path: self.path.to_vec(),
        }
    }
}

/// `(a, b, offset, len)` row of a [`LinkStore`].
#[derive(Clone, Copy, Debug)]
struct LinkEntry {
    a: NodeId,
    b: NodeId,
    off: u32,
    len: u32,
}

/// A set of virtual links with all path nodes in one shared arena.
///
/// Entries are sorted by `(a, b)` after construction, so lookups are a
/// binary search and iteration is in ascending pair order — the same
/// order the previous `BTreeMap` representation yielded.
#[derive(Clone, Debug, Default)]
pub struct LinkStore {
    entries: Vec<LinkEntry>,
    arena: Vec<NodeId>,
    /// Arena nodes no entry points at any more (left by patches).
    dead: usize,
}

impl LinkStore {
    /// Appends the canonical path `a ⇝ b` walked from `labels` (which
    /// must be rooted at `b`). Returns whether the pair was connected
    /// within the labels' bound.
    pub(crate) fn push_walk<G: Adjacency, L: bfs::DistLabels>(
        &mut self,
        g: &G,
        a: NodeId,
        b: NodeId,
        labels: &L,
    ) -> bool {
        match self.walk(g, a, b, labels) {
            Some(e) => {
                self.entries.push(e);
                true
            }
            None => false,
        }
    }

    /// Walks the canonical path `a ⇝ b` into the arena, as
    /// [`Self::push_walk`], and returns its entry without indexing it.
    fn walk<G: Adjacency, L: bfs::DistLabels>(
        &mut self,
        g: &G,
        a: NodeId,
        b: NodeId,
        labels: &L,
    ) -> Option<LinkEntry> {
        let off = self.arena.len();
        bfs::lexico_path_append(g, a, b, labels, &mut self.arena).then(|| LinkEntry {
            a,
            b,
            off: off as u32,
            len: (self.arena.len() - off) as u32,
        })
    }

    /// Copies one link's path into the arena and returns its entry
    /// without indexing it.
    fn copy(&mut self, link: LinkRef<'_>) -> LinkEntry {
        let off = self.arena.len() as u32;
        self.arena.extend_from_slice(link.path);
        LinkEntry {
            a: link.a,
            b: link.b,
            off,
            len: link.path.len() as u32,
        }
    }

    /// Copies one link (entry + path bytes) from another store.
    fn push_copy(&mut self, link: LinkRef<'_>) {
        let e = self.copy(link);
        self.entries.push(e);
    }

    /// Splices a patch into the index in one merge pass: each entry
    /// `keep` rejects (given the entry and its path) leaves, and the
    /// `fresh` entries (paths already in the arena) join in `(a, b)`
    /// order. A kept entry is neither looked up, copied nor re-sorted,
    /// and a rejected entry whose fresh walk reproduced its path stays
    /// as it was. Records what changed in `changes`
    /// ([`GraphChanges::repathed`], [`GraphChanges::hops`],
    /// [`GraphChanges::dropped`]).
    fn splice(
        &mut self,
        mut keep: impl FnMut(&LinkEntry, &[NodeId]) -> bool,
        mut fresh: Vec<LinkEntry>,
        changes: &mut GraphChanges,
    ) {
        fresh.sort_unstable_by_key(|e| (e.a, e.b));
        let mut fresh = fresh.into_iter().peekable();
        let old = std::mem::take(&mut self.entries);
        self.entries.reserve(old.len() + fresh.len());
        for e in old {
            while let Some(f) = fresh.next_if(|f| (f.a, f.b) < (e.a, e.b)) {
                self.entries.push(f);
            }
            if keep(&e, self.path(&e)) {
                self.entries.push(e);
                continue;
            }
            let f = fresh.next_if(|f| (f.a, f.b) == (e.a, e.b));
            let stays = f.is_some();
            let kept = self.settle(e, f, changes);
            if stays {
                self.entries.push(kept);
            }
        }
        self.entries.extend(fresh);
        self.compact();
    }

    /// The entry that stands for `old`'s pair once `fresh` (its new
    /// walk, if the pair stays) is in: `old` when the walk reproduced
    /// its path, else `fresh`, recording the change. (With no `fresh`
    /// the returned `old` is a placeholder the caller drops.)
    fn settle(
        &mut self,
        old: LinkEntry,
        fresh: Option<LinkEntry>,
        changes: &mut GraphChanges,
    ) -> LinkEntry {
        match fresh {
            Some(f) if self.path(&f) == self.path(&old) => {
                self.dead += f.len as usize;
                old
            }
            fresh => {
                changes.dropped.push_copy(self.view(&old));
                self.dead += old.len as usize;
                if let Some(f) = fresh {
                    changes.repathed.push((old.a, old.b));
                    if f.len != old.len {
                        changes.hops.push((old.a, old.b));
                    }
                }
                fresh.unwrap_or(old)
            }
        }
    }

    /// The path bytes of `e`.
    fn path(&self, e: &LinkEntry) -> &[NodeId] {
        &self.arena[e.off as usize..(e.off + e.len) as usize]
    }

    /// Rewrites the arena without its dead paths ([`compact_arena`]).
    fn compact(&mut self) {
        let slices = self.entries.iter_mut().map(|e| (&mut e.off, e.len));
        compact_arena(&mut self.arena, &mut self.dead, slices);
    }

    /// Sorts the index by `(a, b)` (paths stay where they are — the
    /// entries carry their slices).
    pub(crate) fn finish(&mut self) {
        self.entries.sort_unstable_by_key(|e| (e.a, e.b));
    }

    fn view(&self, e: &LinkEntry) -> LinkRef<'_> {
        LinkRef {
            a: e.a,
            b: e.b,
            path: &self.arena[e.off as usize..(e.off + e.len) as usize],
        }
    }

    /// The link between `u` and `v` (order-insensitive).
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<LinkRef<'_>> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.entries
            .binary_search_by_key(&key, |e| (e.a, e.b))
            .ok()
            .map(|i| self.view(&self.entries[i]))
    }

    /// All links, ascending by `(a, b)`.
    pub fn iter(&self) -> impl Iterator<Item = LinkRef<'_>> {
        self.entries.iter().map(|e| self.view(e))
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no links.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Rewrites a node arena that patches append to without its `dead`
/// nodes once they make up half of it (past a slack of 1024 nodes):
/// each live slice `(offset, len)` of `slices` is copied, in the order
/// given, into an exactly sized arena and its offset rewritten. The one
/// compaction rule of every patched arena (the link store's paths, the
/// route plan's ascents and backbone paths). Returns whether it
/// compacted.
pub(crate) fn compact_arena<'s>(
    arena: &mut Vec<NodeId>,
    dead: &mut usize,
    slices: impl IntoIterator<Item = (&'s mut u32, u32)>,
) -> bool {
    if 2 * *dead <= arena.len() + 1024 {
        return false;
    }
    let old = std::mem::take(arena);
    arena.reserve(old.len() - *dead);
    for (off, len) in slices {
        let slice = &old[*off as usize..(*off + len) as usize];
        *off = arena.len() as u32;
        arena.extend_from_slice(slice);
    }
    *dead = 0;
    true
}

/// Node-indexed bit flags for one in-place patch: [`LOST`], [`FRESH`],
/// [`REPRODUCED`], [`ENDPOINT`], [`AC_ROW`]. Clearing resets only the
/// nodes marked since the last clear.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeFlags {
    bits: Vec<u8>,
    marked: Vec<NodeId>,
}

/// A head that left the head list.
pub(crate) const LOST: u8 = 1;
/// A head whose label row was re-derived (swept and changed, or new).
pub(crate) const FRESH: u8 = 2;
/// A head whose label row was swept and reproduced byte for byte.
pub(crate) const REPRODUCED: u8 = 4;
/// An endpoint of a changed edge.
pub(crate) const ENDPOINT: u8 = 8;
/// A head whose A-NCR row changed.
pub(crate) const AC_ROW: u8 = 16;

impl NodeFlags {
    /// Sets `bit` on `v`.
    pub(crate) fn mark(&mut self, v: NodeId, bit: u8) {
        if self.bits.len() <= v.index() {
            self.bits.resize(v.index() + 1, 0);
        }
        if self.bits[v.index()] == 0 {
            self.marked.push(v);
        }
        self.bits[v.index()] |= bit;
    }

    /// The bits set on `v`.
    pub(crate) fn get(&self, v: NodeId) -> u8 {
        self.bits.get(v.index()).copied().unwrap_or(0)
    }

    /// Whether `v` carries any of `bits`.
    pub(crate) fn has(&self, v: NodeId, bits: u8) -> bool {
        self.get(v) & bits != 0
    }

    /// Clears every mark.
    pub(crate) fn clear(&mut self) {
        for v in self.marked.drain(..) {
            self.bits[v.index()] = 0;
        }
    }
}

/// What an in-place patch of a [`VirtualGraph`] changed, in the new
/// head numbering, for the selections downstream.
#[derive(Clone, Debug, Default)]
pub(crate) struct GraphChanges {
    /// Slots whose row changed, each with its previous row where the
    /// patch had it at hand (empty where a lost head only left the row
    /// or a gained head only joined it).
    pub(crate) rows: Vec<(usize, Vec<NodeId>)>,
    /// Pairs that kept their link but changed its hop count (a subset
    /// of `repathed`), ascending.
    pub(crate) hops: Vec<(NodeId, NodeId)>,
    /// Pairs that kept their link but changed its path, ascending.
    pub(crate) repathed: Vec<(NodeId, NodeId)>,
    /// Every link the patch dropped or gave a new path, with its
    /// previous path.
    pub(crate) dropped: LinkStore,
    /// How many links were walked afresh.
    pub(crate) walked: usize,
}

/// The virtual graph over clusterheads under a neighbor rule. The
/// default is the empty graph (no heads, no links).
#[derive(Clone, Debug, Default)]
pub struct VirtualGraph {
    /// Clusterheads, ascending.
    pub heads: Vec<NodeId>,
    /// The neighbor clusterhead relation the graph was built from.
    pub neighbor_sets: NeighborSets,
    store: LinkStore,
}

impl VirtualGraph {
    /// Builds the virtual graph of `clustering` under `rule`: one
    /// canonical shortest path per selected pair, each at most `2k+1`
    /// hops (guaranteed by both rules). Runs one bounded BFS per head
    /// ([`HeadLabels`]) and derives everything from the labels.
    pub fn build<G: Adjacency>(g: &G, clustering: &Clustering, rule: NeighborRule) -> Self {
        let bound = 2 * clustering.k + 1;
        let labels = HeadLabels::build(g, &clustering.heads, bound);
        let neighbor_sets = match rule {
            NeighborRule::All2kPlus1 => adjacency::nc_from_labels(clustering, &labels),
            NeighborRule::Adjacent => adjacency::neighbor_clusterheads(g, clustering, rule),
        };
        Self::from_labels(g, clustering, neighbor_sets, &labels)
    }

    /// Builds the virtual graph for an already-computed neighbor
    /// relation from shared head labels (no graph traversal beyond the
    /// canonical label walks). Each head's row is expanded once into a
    /// direct-indexed copy that serves all of its walks.
    ///
    /// # Panics
    /// Panics if `labels` lacks a selected head or was built with a
    /// bound below `2k+1`.
    pub fn from_labels<G: Adjacency>(
        g: &G,
        clustering: &Clustering,
        neighbor_sets: NeighborSets,
        labels: &HeadLabels,
    ) -> Self {
        assert!(
            labels.bound() > 2 * clustering.k,
            "labels too shallow for the 2k+1 link bound"
        );
        let mut store = LinkStore::default();
        let mut row = labels.expanded();
        // Extract paths to all selected partners a < b from b's
        // distance labels.
        for (b, partners) in neighbor_sets.iter() {
            if !partners.iter().any(|&a| a < b) {
                continue;
            }
            let row = row.load(labels.slot(b).expect("selected head is labeled"));
            for &a in partners.iter().filter(|&&a| a < b) {
                let ok = store.push_walk(g, a, b, row);
                assert!(ok, "selected neighbor heads are within 2k+1 hops");
            }
        }
        store.finish();
        VirtualGraph {
            heads: clustering.heads.clone(),
            neighbor_sets,
            store,
        }
    }

    /// Patches this NC graph in place from the graph and clustering of
    /// its last evaluation to `clustering` on `g`, given `labels`
    /// already advanced to `clustering`'s head list, `diff`, the
    /// head-list change, the label slots the advance swept or opened
    /// (`swept`, new numbering) and the edge `delta` since then.
    /// Patches by head ID:
    ///
    /// * a swept row whose sweep did not reproduce it
    ///   ([`HeadLabels::sweep_reproduced`]), and a gained head's row,
    ///   is re-derived from the labels and all its links are re-walked;
    /// * every other row can change only by head-set change, since its
    ///   distances are as before: a lost head leaves it and a gained
    ///   head within `2k+1` hops joins it (the relation is symmetric,
    ///   so the gained head's fresh row names exactly those), and each
    ///   new pair is walked;
    /// * a link owned by a reproduced row is re-walked only if a delta
    ///   endpoint lies on its path before the owner: the canonical walk
    ///   toward the owner reads only the owner's distances and the
    ///   adjacency of those path nodes;
    /// * a link with a lost endpoint is dropped, and every other link
    ///   keeps its entry and path bytes: it is not looked up, copied or
    ///   re-sorted.
    ///
    /// Produces exactly what [`Self::from_labels`] would on the new
    /// labels (pinned by tests). Marks `flags` as it goes ([`LOST`],
    /// [`FRESH`], [`REPRODUCED`], [`ENDPOINT`]); the caller clears them.
    ///
    /// # Panics
    /// As [`Self::from_labels`], plus if `labels` do not carry
    /// `clustering`'s head list.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn patch_nc<G: Adjacency>(
        &mut self,
        g: &G,
        clustering: &Clustering,
        labels: &HeadLabels,
        diff: &HeadDiff,
        swept: &[usize],
        delta: &TopologyDelta,
        flags: &mut NodeFlags,
    ) -> GraphChanges {
        let bound = 2 * clustering.k + 1;
        assert!(
            labels.bound() >= bound,
            "labels too shallow for the 2k+1 link bound"
        );
        let heads = &clustering.heads;
        assert_eq!(labels.heads(), &heads[..], "head set mismatch");
        let slot = |x: NodeId| labels.slot(x).expect("a head");
        for &s in swept {
            let bit = if labels.sweep_reproduced(s) {
                REPRODUCED
            } else {
                FRESH
            };
            flags.mark(heads[s], bit);
        }
        for &y in &diff.gained {
            flags.mark(y, FRESH);
        }
        for &z in &diff.lost {
            flags.mark(z, LOST);
        }
        for v in delta.endpoints() {
            flags.mark(v, ENDPOINT);
        }
        let fresh = |flags: &NodeFlags, x: NodeId| flags.has(x, FRESH);
        let mut changes = GraphChanges::default();
        // The rows of lost heads name the rows they leave.
        let lost_rows: Vec<(NodeId, Vec<NodeId>)> = diff
            .lost
            .iter()
            .map(|&z| {
                let old = self.heads.binary_search(&z).expect("a previous head");
                (z, std::mem::take(self.neighbor_sets.row_mut(old)))
            })
            .collect();
        self.neighbor_sets.rehead(diff);
        self.heads.clone_from(heads);
        let sets = &mut self.neighbor_sets;
        for (z, row) in &lost_rows {
            for &x in row.iter().filter(|&&x| !flags.has(x, LOST | FRESH)) {
                let s = slot(x);
                let row = sets.row_mut(s);
                row.remove(row.binary_search(z).expect("the relation is symmetric"));
                changes.rows.push((s, Vec::new()));
            }
        }
        // Fresh rows are re-derived, and all their links re-walked.
        let mut walks: Vec<(usize, NodeId)> = Vec::new();
        for s in (0..heads.len()).filter(|&s| fresh(flags, heads[s])) {
            let row = labels.heads_within(s, bound);
            if row != sets.row(s) {
                changes
                    .rows
                    .push((s, std::mem::replace(sets.row_mut(s), row)));
            }
            let b = heads[s];
            walks.extend(sets.row(s).iter().take_while(|&&a| a < b).map(|&a| (s, a)));
        }
        // Gained heads join the other rows; each such new pair owned by
        // the other side is walked from its row.
        for &y in &diff.gained {
            for i in 0..sets.row(slot(y)).len() {
                let x = sets.row(slot(y))[i];
                if !fresh(flags, x) {
                    let s = slot(x);
                    let row = sets.row_mut(s);
                    let at = row.binary_search(&y).expect_err("a new pair");
                    row.insert(at, y);
                    changes.rows.push((s, Vec::new()));
                    if y < x {
                        walks.push((s, y));
                    }
                }
            }
        }
        // A reproduced row's link is re-walked when the delta changed
        // the adjacency of a node its walk reads.
        let meets_delta = |flags: &NodeFlags, path: &[NodeId]| {
            path[..path.len() - 1]
                .iter()
                .any(|&v| flags.has(v, ENDPOINT))
        };
        for &s in swept {
            let b = heads[s];
            if flags.has(b, REPRODUCED) && !fresh(flags, b) {
                for &a in sets.row(s).iter().take_while(|&&a| a < b) {
                    if let Some(link) = self.store.get(a, b) {
                        if meets_delta(flags, link.path) {
                            walks.push((s, a));
                        }
                    }
                }
            }
        }
        walks.sort_unstable();

        let mut row = labels.expanded();
        let fresh_links: Vec<LinkEntry> = walks
            .iter()
            .map(|&(s, a)| {
                let e = self.store.walk(g, a, heads[s], row.load(s));
                e.expect("selected neighbor heads are within 2k+1 hops")
            })
            .collect();
        changes.walked = fresh_links.len();
        self.store.splice(
            |e, path| {
                let either = flags.get(e.a) | flags.get(e.b);
                either == 0
                    || (either & LOST == 0
                        && !fresh(flags, e.b)
                        && !(flags.has(e.b, REPRODUCED) && meets_delta(flags, path)))
            },
            fresh_links,
            &mut changes,
        );
        changes
    }

    /// Patches this restriction of the NC graph (see
    /// [`Self::restricted_to`]) in place after `nc` was patched
    /// ([`Self::patch_nc`] returned `nc_changes` and marked `flags`) and
    /// this graph's relation was patched to the new one (`rows` lists
    /// its changed slots with their previous rows, and their heads carry
    /// [`AC_ROW`]). An entry stays unless an endpoint was lost, the pair
    /// left the relation or its NC link took a new path; a pair that
    /// joined the relation or kept it over a new NC path copies that
    /// path. An entry with no flagged endpoint is kept without a lookup.
    /// Produces exactly what [`Self::restricted_to`] would (pinned by
    /// tests).
    ///
    /// # Panics
    /// Panics if the relation selects a pair `nc` lacks.
    pub(crate) fn patch_restriction(
        &mut self,
        nc: &VirtualGraph,
        rows: &[(usize, Vec<NodeId>)],
        nc_changes: &GraphChanges,
        flags: &NodeFlags,
    ) {
        self.heads.clone_from(&nc.heads);
        if rows.is_empty() && nc_changes.repathed.is_empty() {
            return;
        }
        let sets = &self.neighbor_sets;
        let heads = &self.heads;
        let slot = |x: NodeId| heads.binary_search(&x).expect("a head");
        let selects = |(a, b): (NodeId, NodeId)| sets.row(slot(a)).binary_search(&b).is_ok();
        let mut pairs = Vec::new();
        for (s, old) in rows {
            let x = heads[*s];
            for &y in sets.row(*s) {
                if old.binary_search(&y).is_err() {
                    pairs.push((x.min(y), x.max(y)));
                }
            }
        }
        let repathed = &nc_changes.repathed;
        pairs.extend(repathed.iter().copied().filter(|&p| selects(p)));
        pairs.sort_unstable();
        pairs.dedup();
        let fresh = pairs
            .into_iter()
            .map(|(a, b)| {
                let link = nc
                    .link(a, b)
                    .expect("restricted relation is a subset of this graph");
                self.store.copy(link)
            })
            .collect();
        self.store.splice(
            |e, _| {
                let either = flags.get(e.a) | flags.get(e.b);
                either == 0
                    || (either & LOST == 0
                        && repathed.binary_search(&(e.a, e.b)).is_err()
                        && (!flags.has(e.a, AC_ROW) || selects((e.a, e.b))))
            },
            fresh,
            &mut GraphChanges::default(),
        );
    }

    /// Derives the sub-virtual-graph induced by a coarser neighbor
    /// relation, copying canonical paths instead of re-walking them.
    /// Used by the evaluation engine to obtain the AC graph from the
    /// NC graph (A-NCR ⊆ NC: adjacent heads are within `2k+1` hops,
    /// Theorem 1). Both relations and this graph's links ascend by
    /// `(a, b)`, so one merge pass over the links finds every selected
    /// pair, and the copied links come out in order.
    ///
    /// # Panics
    /// Panics if `neighbor_sets` selects a pair this graph lacks.
    pub fn restricted_to(&self, neighbor_sets: NeighborSets) -> Self {
        let mut store = LinkStore {
            entries: Vec::with_capacity(neighbor_sets.pair_count()),
            arena: Vec::with_capacity(self.store.arena.len()),
            dead: 0,
        };
        let mut links = self.store.entries.iter();
        for (a, row) in neighbor_sets.iter() {
            for &b in row.iter().filter(|&&b| a < b) {
                let e = links
                    .find(|e| (e.a, e.b) >= (a, b))
                    .filter(|e| (e.a, e.b) == (a, b))
                    .expect("restricted relation is a subset of this graph");
                store.push_copy(self.store.view(e));
            }
        }
        VirtualGraph {
            heads: self.heads.clone(),
            neighbor_sets,
            store,
        }
    }

    /// Builds a virtual graph directly from a set of realized links
    /// (paths are copied into a fresh arena) — how a gateway
    /// *selection*'s backbone becomes a routable graph. The neighbor
    /// relation is derived from the link endpoints.
    ///
    /// # Panics
    /// Panics if a link endpoint is not in `heads`.
    pub fn from_links<'a>(heads: &[NodeId], links: impl IntoIterator<Item = LinkRef<'a>>) -> Self {
        let mut store = LinkStore::default();
        let mut pairs = Vec::new();
        for l in links {
            pairs.push((l.a, l.b));
            store.push_copy(l);
        }
        store.finish();
        let neighbor_sets = adjacency::NeighborSets::from_pairs(heads, pairs);
        VirtualGraph {
            heads: heads.to_vec(),
            neighbor_sets,
            store,
        }
    }

    /// The virtual link between `u` and `v` (order-insensitive).
    pub fn link(&self, u: NodeId, v: NodeId) -> Option<LinkRef<'_>> {
        self.store.get(u, v)
    }

    /// The link at position `i` of the ascending `(a, b)` order.
    pub(crate) fn link_at(&self, i: usize) -> LinkRef<'_> {
        self.store.view(&self.store.entries[i])
    }

    /// Whether a virtual link between `u` and `v` exists.
    pub fn has_link(&self, u: NodeId, v: NodeId) -> bool {
        self.link(u, v).is_some()
    }

    /// LMST weight of the `u`–`v` link, if present.
    pub fn weight(&self, u: NodeId, v: NodeId) -> Option<TieWeight<u32>> {
        self.link(u, v).map(|l| l.weight())
    }

    /// All links, ascending by `(a, b)`.
    pub fn links(&self) -> impl Iterator<Item = LinkRef<'_>> {
        self.store.iter()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.store.len()
    }
}

/// A head-slot index over one [`VirtualGraph`]'s links, for the
/// selection kernels: a CSR of `(neighbour slot, weight rank)` per head
/// slot, the link behind every entry, and the links in ascending
/// [`TieWeight`] order. Ranks are positions in that order, so comparing
/// two ranks compares the two links' weight triples. Built in
/// `O(h + links + longest link)` with no comparison sort: the links are
/// sorted by `(a, b)`, so walking each row's smaller neighbours yields
/// them in `(b, a)` order, and a counting pass over hop counts
/// completes `(hops, b, a)`. Buffers are reused across builds.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotIndex {
    /// Node-indexed head slots (`u32::MAX` for non-heads) during a build.
    slot_of: Vec<u32>,
    /// Head slot `s` owns entries `off[s]..off[s + 1]`, by ascending
    /// neighbour slot.
    off: Vec<u32>,
    /// Per entry: `(neighbour slot, rank of the link)`.
    adj: Vec<(u32, u32)>,
    /// Per entry: the link's position in the graph's `(a, b)` order.
    link: Vec<u32>,
    /// Per link: its endpoints' slots.
    ends: Vec<(u32, u32)>,
    /// Link positions, ascending by weight.
    order: Vec<u32>,
    /// Per link: its rank; per hop count: the next free rank (build only).
    rank: Vec<u32>,
    next: Vec<u32>,
}

impl SlotIndex {
    /// Indexes `vg`, replacing the previous contents.
    pub(crate) fn build(&mut self, vg: &VirtualGraph) {
        let h = vg.heads.len();
        let entries = &vg.store.entries;
        let max_node = vg.heads.last().map_or(0, |x| x.index() + 1);
        if self.slot_of.len() < max_node {
            self.slot_of.resize(max_node, u32::MAX);
        }
        for (i, x) in vg.heads.iter().enumerate() {
            self.slot_of[x.index()] = i as u32;
        }
        let slot = |x: NodeId| {
            let s = self.slot_of[x.index()];
            assert_ne!(s, u32::MAX, "link endpoint {x:?} is not a head");
            s
        };
        self.ends.clear();
        self.ends
            .extend(entries.iter().map(|e| (slot(e.a), slot(e.b))));
        for x in &vg.heads {
            self.slot_of[x.index()] = u32::MAX;
        }

        // CSR by head slot. Entries arrive sorted by (a, b), so every
        // row fills in ascending neighbour order.
        self.off.clear();
        self.off.resize(h + 1, 0);
        for &(sa, sb) in &self.ends {
            self.off[sa as usize + 1] += 1;
            self.off[sb as usize + 1] += 1;
        }
        for s in 0..h {
            self.off[s + 1] += self.off[s];
        }
        self.next.clear();
        self.next.extend_from_slice(&self.off[..h]);
        self.adj.resize(2 * entries.len(), (0, 0));
        self.link.resize(2 * entries.len(), 0);
        for (e, &(sa, sb)) in self.ends.iter().enumerate() {
            for (from, to) in [(sa, sb), (sb, sa)] {
                let at = self.next[from as usize] as usize;
                self.next[from as usize] += 1;
                self.adj[at] = (to, 0);
                self.link[at] = e as u32;
            }
        }

        // Ranks: count links per hop count, then hand out ranks walking
        // each row's smaller neighbours — the (b, a) order.
        let hops = |e: u32| entries[e as usize].len as usize - 1;
        self.next.clear();
        for e in 0..entries.len() as u32 {
            let k = hops(e);
            if self.next.len() <= k + 1 {
                self.next.resize(k + 2, 0);
            }
            self.next[k + 1] += 1;
        }
        for k in 1..self.next.len() {
            self.next[k] += self.next[k - 1];
        }
        self.rank.resize(entries.len(), 0);
        self.order.resize(entries.len(), 0);
        for b in 0..h {
            let row = self.off[b] as usize..self.off[b + 1] as usize;
            for i in row {
                if self.adj[i].0 as usize > b {
                    break;
                }
                let e = self.link[i];
                let r = &mut self.next[hops(e)];
                self.rank[e as usize] = *r;
                self.order[*r as usize] = e;
                *r += 1;
            }
        }
        for (entry, &e) in self.adj.iter_mut().zip(&self.link) {
            entry.1 = self.rank[e as usize];
        }
    }

    /// Head slot `s`'s entries: `(neighbour slot, rank)` pairs and the
    /// link positions behind them, by ascending neighbour slot.
    pub(crate) fn row(&self, s: usize) -> (&[(u32, u32)], &[u32]) {
        let r = self.off[s] as usize..self.off[s + 1] as usize;
        (&self.adj[r.clone()], &self.link[r])
    }

    /// Link positions, ascending by weight.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// The head slots of link `e`'s endpoints.
    pub(crate) fn ends(&self, e: u32) -> (u32, u32) {
        self.ends[e as usize]
    }
}

/// Virtual links between **all** pairs of clusterheads read off
/// unbounded head labels, for the centralized G-MST baseline.
/// Disconnected pairs are omitted (cannot happen on a connected `G`).
///
/// # Panics
/// Panics if `labels` is bounded or lacks a head of `clustering`.
pub fn complete_link_store<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    labels: &HeadLabels,
) -> LinkStore {
    assert_eq!(labels.bound(), u32::MAX, "G-MST needs unbounded labels");
    let mut store = LinkStore::default();
    let mut row = labels.expanded();
    for (i, &b) in clustering.heads.iter().enumerate() {
        if i == 0 {
            continue;
        }
        let row = row.load(labels.slot(b).expect("every head is labeled"));
        for &a in &clustering.heads[..i] {
            store.push_walk(g, a, b, row);
        }
    }
    store.finish();
    store
}

/// Owned-`Vec` convenience over [`complete_link_store`], building its
/// own labels (one BFS per head, stopping at the farthest head — the
/// complete links only ever walk between heads).
pub fn complete_virtual_links<G: Adjacency>(g: &G, clustering: &Clustering) -> Vec<VirtualLink> {
    let mut labels = HeadLabels::default();
    labels.rebuild_reaching_heads(g, &clustering.heads);
    complete_link_store(g, clustering, &labels)
        .iter()
        .map(|l| l.to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::priority::LowestId;
    use adhoc_graph::gen;
    use adhoc_graph::graph::Graph;

    fn path9() -> (Graph, Clustering) {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        (g, c)
    }

    #[test]
    fn virtual_links_on_path() {
        let (g, c) = path9();
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        // Heads 0,2,4,6,8; consecutive heads adjacent through shared
        // edges, each link 2 hops through the odd member.
        assert_eq!(vg.link_count(), 4);
        let l = vg.link(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(l.path, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(l.hops(), 2);
        assert_eq!(l.interior(), &[NodeId(1)]);
        assert!(vg.has_link(NodeId(4), NodeId(6)));
        assert!(!vg.has_link(NodeId(0), NodeId(8)));
    }

    #[test]
    fn link_weight_embeds_ids() {
        let (g, c) = path9();
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        let w = vg.weight(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(w.w, 2);
        assert_eq!(w.lo, NodeId(0));
        assert_eq!(w.hi, NodeId(2));
        assert!(vg.weight(NodeId(0), NodeId(8)).is_none());
    }

    #[test]
    fn paths_are_valid_and_within_bound() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 6.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            for rule in [NeighborRule::Adjacent, NeighborRule::All2kPlus1] {
                let vg = VirtualGraph::build(&net.graph, &c, rule);
                for l in vg.links() {
                    assert!(paths::is_valid_path(&net.graph, l.path));
                    assert!(l.hops() <= 2 * k + 1);
                    assert!(l.a < l.b);
                    assert_eq!(l.path[0], l.a);
                    assert_eq!(*l.path.last().unwrap(), l.b);
                    // Interior nodes are never clusterheads when the
                    // path is within 2k+1 hops (each interior node is
                    // within k hops of one endpoint head).
                    for w in l.interior() {
                        assert!(!c.is_head(*w), "head {w:?} interior to a link");
                    }
                }
            }
        }
    }

    #[test]
    fn paths_are_canonical_shortest() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 8.0), &mut rng);
        let c = cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let vg = VirtualGraph::build(&net.graph, &c, NeighborRule::Adjacent);
        for l in vg.links() {
            let d = bfs::distances(&net.graph, l.a);
            assert_eq!(l.hops(), d[l.b.index()], "virtual link not shortest");
            let independent = bfs::lexico_shortest_path(&net.graph, l.a, l.b, u32::MAX).unwrap();
            assert_eq!(l.path, &independent[..], "virtual link not canonical");
        }
    }

    #[test]
    fn restriction_matches_direct_build() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let nc = VirtualGraph::build(&net.graph, &c, NeighborRule::All2kPlus1);
            let ac_sets = adjacency::neighbor_clusterheads(&net.graph, &c, NeighborRule::Adjacent);
            let restricted = nc.restricted_to(ac_sets);
            let direct = VirtualGraph::build(&net.graph, &c, NeighborRule::Adjacent);
            assert_eq!(restricted.link_count(), direct.link_count());
            for l in direct.links() {
                let r = restricted.link(l.a, l.b).expect("same relation");
                assert_eq!(l.path, r.path, "paths must be byte-identical");
            }
        }
    }

    #[test]
    fn complete_links_cover_all_pairs() {
        let (g, c) = path9();
        let all = complete_virtual_links(&g, &c);
        let h = c.heads.len();
        assert_eq!(all.len(), h * (h - 1) / 2);
        // Longest pair: 0 to 8, 8 hops.
        let longest = all.iter().map(VirtualLink::hops).max().unwrap();
        assert_eq!(longest, 8);
    }

    #[test]
    fn empty_relation_for_single_cluster() {
        let g = gen::star(4);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        assert_eq!(vg.link_count(), 0);
        assert!(complete_virtual_links(&g, &c).is_empty());
    }

    #[test]
    fn owned_and_borrowed_views_agree() {
        let (g, c) = path9();
        let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
        let l = vg.link(NodeId(0), NodeId(2)).unwrap();
        let owned = l.to_owned();
        assert_eq!(owned.as_ref(), l);
        assert_eq!(owned.hops(), l.hops());
        assert_eq!(owned.weight(), l.weight());
        assert_eq!(owned.interior(), l.interior());
    }
}
