//! End-to-end pipeline: clustering → neighbor selection → gateways →
//! CDS, packaged as the five algorithms of the paper's evaluation.
//!
//! Two entry points exist for the per-algorithm phases:
//!
//! * [`run_on`] — evaluate **one** algorithm on a shared clustering
//!   (the original API, kept as a thin compatible wrapper).
//! * [`run_all`] — the single-sweep evaluation engine: evaluate **all
//!   five** algorithms from one [`HeadLabels`] build (one BFS per
//!   clusterhead) and one NC virtual graph; the AC graph is derived by
//!   filtering NC links against the adjacency relation (A-NCR ⊆ NC,
//!   Theorem 1), and G-MST reads the same unbounded labels. This is
//!   what the Monte-Carlo harness runs — it removes the ~5× redundant
//!   graph traversal per replicate that calling [`run_on`] per
//!   algorithm costs, while producing bit-identical output (enforced
//!   by the `run_all_equivalence` proptest).
//! * [`advance_labels`] then [`update_all_after`] — the **incremental
//!   churn engine** in two phases: given the previous evaluation, its
//!   warm [`EvalScratch`], and a [`TopologyDelta`], advance only the
//!   label rows the changed edges (or a head-set change) reached, then
//!   patch the evaluation in place, by head ID, where those rows and
//!   the delta can have changed it. A maintenance policy reads the
//!   advanced labels and repairs the clustering between the two. Output
//!   is bit-for-bit identical to a from-scratch [`run_all`] on the new
//!   graph (enforced by the edit-chain proptest below and the
//!   `label_equivalence` and `churn_equivalence` proptests).
//!
//! Both engines evaluate the [`EvalScratch`]'s [`AlgorithmSet`]: all
//! five by default, or — for a caller that consumes one algorithm, like
//! the churn engine — only that one, skipping every tail stage it does
//! not read. Each evaluated algorithm's output is bit-identical to its
//! entry in an all-five evaluation (pinned by the `scoped_equivalence`
//! proptest).

use crate::adjacency::{self, AncrScratch, HeadDiff, NeighborRule, NeighborSets};
use crate::cds::Cds;
use crate::clustering::{self, Clustering, MemberPolicy};
use crate::gateway::{self, GatewaySelection, LmstRows, NodeMarks};
use crate::priority::LowestId;
use crate::virtual_graph::{GraphChanges, NodeFlags, SlotIndex, VirtualGraph, AC_ROW};
use adhoc_graph::bfs::Adjacency;
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::graph::NodeId;
use adhoc_graph::obs::Metrics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use adhoc_graph::labels::{HeadLabels, LabelMode};
pub use adhoc_graph::par::Parallelism;

/// The five gateway-construction algorithms compared in §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Mesh over all clusterheads within `2k+1` hops.
    NcMesh,
    /// Mesh over adjacent clusterheads (A-NCR).
    AcMesh,
    /// LMSTGA over all clusterheads within `2k+1` hops.
    NcLmst,
    /// LMSTGA over adjacent clusterheads — the paper's AC-LMST.
    AcLmst,
    /// Centralized global-MST lower bound.
    GMst,
}

impl Algorithm {
    /// All five algorithms, in the paper's legend order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::NcMesh,
        Algorithm::AcMesh,
        Algorithm::AcLmst,
        Algorithm::NcLmst,
        Algorithm::GMst,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::NcMesh => "NC-Mesh",
            Algorithm::AcMesh => "AC-Mesh",
            Algorithm::NcLmst => "NC-LMST",
            Algorithm::AcLmst => "AC-LMST",
            Algorithm::GMst => "G-MST",
        }
    }

    /// The neighbor clusterhead rule the algorithm uses (`None` for
    /// G-MST, which is global).
    pub fn neighbor_rule(self) -> Option<NeighborRule> {
        match self {
            Algorithm::NcMesh | Algorithm::NcLmst => Some(NeighborRule::All2kPlus1),
            Algorithm::AcMesh | Algorithm::AcLmst => Some(NeighborRule::Adjacent),
            Algorithm::GMst => None,
        }
    }

    /// Whether the algorithm is localized (`2k+1`-hop information
    /// only).
    pub fn is_localized(self) -> bool {
        self != Algorithm::GMst
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The algorithms an evaluation computes. Every stage of the eval tail
/// runs only if a member needs it: the A-NCR relation and the AC graph
/// for the AC algorithms, the meshes for the mesh algorithms, the
/// global MST for G-MST. The default is [`AlgorithmSet::ALL`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmSet(u8);

impl AlgorithmSet {
    /// All five algorithms.
    pub const ALL: AlgorithmSet = AlgorithmSet(0b1_1111);

    /// The set holding only `algorithm`.
    pub const fn only(algorithm: Algorithm) -> Self {
        AlgorithmSet(1 << algorithm as u8)
    }

    /// Whether `algorithm` is in the set.
    pub fn contains(self, algorithm: Algorithm) -> bool {
        self.0 & AlgorithmSet::only(algorithm).0 != 0
    }

    /// The members, in the paper's legend order ([`Algorithm::ALL`]).
    pub fn iter(self) -> impl Iterator<Item = Algorithm> {
        Algorithm::ALL
            .into_iter()
            .filter(move |&a| self.contains(a))
    }

    /// Whether a member reads the A-NCR relation.
    fn needs_ac(self) -> bool {
        self.contains(Algorithm::AcMesh) || self.contains(Algorithm::AcLmst)
    }
}

impl Default for AlgorithmSet {
    fn default() -> Self {
        AlgorithmSet::ALL
    }
}

impl FromIterator<Algorithm> for AlgorithmSet {
    fn from_iter<I: IntoIterator<Item = Algorithm>>(iter: I) -> Self {
        AlgorithmSet(
            iter.into_iter()
                .fold(0, |bits, a| bits | AlgorithmSet::only(a).0),
        )
    }
}

impl std::fmt::Debug for AlgorithmSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Pipeline parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// The clustering radius `k` (paper: 1–4).
    pub k: u32,
    /// Member affiliation policy (paper figures use ID-based).
    pub policy: MemberPolicy,
}

impl PipelineConfig {
    /// Config with the paper's defaults (ID-based members).
    pub fn new(k: u32) -> Self {
        PipelineConfig {
            k,
            policy: MemberPolicy::IdBased,
        }
    }
}

/// Everything the pipeline produced.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// The k-hop clustering.
    pub clustering: Clustering,
    /// The virtual graph (absent for G-MST, which skips the localized
    /// relation).
    pub virtual_graph: Option<VirtualGraph>,
    /// The realized links and marked gateways.
    pub selection: GatewaySelection,
    /// The final k-hop CDS.
    pub cds: Cds,
}

/// Runs lowest-ID clustering followed by `algorithm`'s neighbor and
/// gateway phases.
pub fn run<G: Adjacency + Sync>(
    g: &G,
    algorithm: Algorithm,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let clustering = clustering::cluster(g, cfg.k, &LowestId, cfg.policy);
    run_on(g, algorithm, &clustering)
}

/// Runs only the neighbor and gateway phases on an existing clustering
/// (so one clustering can be shared across all five algorithms, as the
/// paper's comparisons require).
pub fn run_on<G: Adjacency + Sync>(
    g: &G,
    algorithm: Algorithm,
    clustering: &Clustering,
) -> PipelineOutput {
    run_on_with(g, algorithm, clustering, &mut EvalScratch::new())
}

/// As [`run_on`], reusing `scratch` (its label arena and worker
/// count). G-MST ignores the scratch: the centralized baseline reads
/// unbounded head-to-head distances, not the localized `2k+1` labels.
pub fn run_on_with<G: Adjacency + Sync>(
    g: &G,
    algorithm: Algorithm,
    clustering: &Clustering,
    scratch: &mut EvalScratch,
) -> PipelineOutput {
    let (virtual_graph, selection) = match algorithm {
        Algorithm::GMst => (None, gateway::gmst(g, clustering)),
        _ => {
            let bound = 2 * clustering.k + 1;
            {
                let _sweep = scratch.metrics.span("labels.sweep_ns");
                scratch
                    .labels
                    .rebuild_with(g, &clustering.heads, bound, scratch.par);
            }
            scratch.metrics.inc("pipeline.run_on");
            scratch
                .metrics
                .add("labels.rows_swept", clustering.heads.len() as u64);
            let rule = algorithm.neighbor_rule().expect("localized algorithm");
            let vg = {
                let _nc = scratch.metrics.span("pipeline.nc_graph_ns");
                let sets = match rule {
                    NeighborRule::All2kPlus1 => {
                        adjacency::nc_from_labels(clustering, &scratch.labels)
                    }
                    NeighborRule::Adjacent => adjacency::neighbor_clusterheads(g, clustering, rule),
                };
                VirtualGraph::from_labels(g, clustering, sets, &scratch.labels)
            };
            let sel = match algorithm {
                Algorithm::NcMesh | Algorithm::AcMesh => gateway::mesh(&vg, clustering),
                Algorithm::NcLmst | Algorithm::AcLmst => {
                    gateway::lmstga_with(&mut scratch.lmstga, &vg, clustering)
                }
                Algorithm::GMst => unreachable!(),
            };
            (Some(vg), sel)
        }
    };
    let cds = Cds::assemble(clustering, &selection);
    PipelineOutput {
        clustering: clustering.clone(),
        virtual_graph,
        selection,
        cds,
    }
}

/// Reusable per-worker state of the evaluation engine: the head-label
/// arena ([`HeadLabels`]) persists across replicates within a thread,
/// so a warm worker pays no per-replicate allocation for the label
/// sweep.
///
/// The scratch also carries the [`AlgorithmSet`] its evaluations
/// compute: all five unless [`set_algorithms`](EvalScratch::set_algorithms)
/// narrowed it (the churn engine maintains one algorithm and asks for
/// that one only).
#[derive(Clone, Debug, Default)]
pub struct EvalScratch {
    labels: HeadLabels,
    par: Parallelism,
    algorithms: AlgorithmSet,
    /// The eval tail's buffers: the A-NCR scan, the head-slot indexes of
    /// the NC and AC graphs, the local-MST arrays and the gateway marks.
    ancr: AncrScratch,
    nc_index: SlotIndex,
    ac_index: SlotIndex,
    lmstga: gateway::LmstgaScratch,
    marks: NodeMarks,
    /// The in-place patch's node marks.
    flags: NodeFlags,
    metrics: Metrics,
}

impl EvalScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    /// The worker count for label builds/repairs defaults to
    /// [`Parallelism::from_env`] (`KHOP_WORKERS`, else available
    /// cores) — output is bit-identical at any count.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// [`Self::new`] with `par` workers for label builds/repairs.
    pub fn with_workers(par: Parallelism) -> Self {
        let mut scratch = EvalScratch::new();
        scratch.set_workers(par);
        scratch
    }

    /// [`Self::with_workers`]; the [`LabelMode`] selects nothing. Kept
    /// for perfbench; a benchmark PR removes it.
    pub fn with_tuning(_mode: LabelMode, par: Parallelism) -> Self {
        EvalScratch::with_workers(par)
    }

    /// The configured worker-count policy for label builds/repairs.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Sets the worker count for subsequent label builds/repairs.
    /// Purely a throughput knob: every output is bit-identical for any
    /// worker count (pinned by the `parallel_equivalence` suite).
    pub fn set_workers(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// Restricts subsequent evaluations — [`run_all_with`] and
    /// [`update_all_after`] — to
    /// `algorithms`: stages no member needs are skipped, and the output
    /// holds only the members' selections. Every member's output stays
    /// bit-identical to its entry in an all-five evaluation.
    pub fn set_algorithms(&mut self, algorithms: AlgorithmSet) {
        self.algorithms = algorithms;
    }

    /// The head-label arena of the last [`run_all_with`] /
    /// [`advance_labels`] call. Maintenance policies read distances off it
    /// (orphan and head-merge detection) instead of re-running BFS.
    pub fn labels(&self) -> &HeadLabels {
        &self.labels
    }

    /// Attaches an observability handle: subsequent sweeps, advances,
    /// and incremental updates report counters and span timings into
    /// it. The default is [`Metrics::disabled`], where every report is
    /// a single-branch no-op.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The attached observability handle (disabled unless
    /// [`set_metrics`](EvalScratch::set_metrics) installed a live one).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Heap bytes currently held by the label arena,
    /// `O(Σ ball sizes + n)`. Recorded per grid cell by
    /// `perf_baseline`.
    pub fn labels_memory_bytes(&self) -> usize {
        self.labels.memory_bytes()
    }
}

/// One algorithm's share of an [`EvaluationOutput`].
#[derive(Clone, Debug)]
pub struct AlgorithmOutput {
    /// The realized links and marked gateways.
    pub selection: GatewaySelection,
    /// The final k-hop CDS.
    pub cds: Cds,
    /// Every head's local-MST choice (the LMST algorithms only), so the
    /// next incremental refresh re-runs only the heads whose
    /// neighborhood changed.
    lmst_rows: Option<LmstRows>,
    /// Per node: how many realized links hold it in their interior (the
    /// LMST algorithms only, from their first incremental refresh on),
    /// so a refresh moves the gateways by the links it re-decided.
    through: Vec<u32>,
}

/// Everything [`run_all`] produced: the algorithms of the scratch's
/// [`AlgorithmSet`] (all five by default) evaluated from one shared
/// label sweep.
#[derive(Clone, Debug)]
pub struct EvaluationOutput {
    /// The shared k-hop clustering.
    pub clustering: Clustering,
    /// The NC (`2k+1`-hop) virtual graph, shared by NC-Mesh / NC-LMST
    /// and G-MST, and the source of the AC graph.
    pub nc_graph: Arc<VirtualGraph>,
    /// The AC (A-NCR) virtual graph — the NC graph restricted to
    /// adjacent pairs — shared by AC-Mesh / AC-LMST. The same allocation
    /// as `nc_graph` when the two relations are equal; empty (no heads,
    /// no links) when no AC algorithm was evaluated.
    pub ac_graph: Arc<VirtualGraph>,
    /// Per-algorithm selections and CDSs, one per evaluated algorithm.
    pub outputs: BTreeMap<Algorithm, AlgorithmOutput>,
    /// Per head slot: its cluster's members, which an incremental
    /// refresh rescans for A-NCR rows (listed on the first refresh that
    /// needs them, then patched).
    members: Vec<Vec<NodeId>>,
}

impl EvaluationOutput {
    /// The output of `algorithm`.
    ///
    /// # Panics
    /// Panics if `algorithm` was not evaluated; [`Self::get`] is the
    /// non-panicking form.
    pub fn of(&self, algorithm: Algorithm) -> &AlgorithmOutput {
        self.get(algorithm).unwrap_or_else(|| {
            panic!(
                "{algorithm} was not evaluated (this evaluation holds {:?})",
                self.algorithms()
            )
        })
    }

    /// The output of `algorithm`, or `None` if it was not evaluated.
    pub fn get(&self, algorithm: Algorithm) -> Option<&AlgorithmOutput> {
        self.outputs.get(&algorithm)
    }

    /// The evaluated algorithms.
    pub fn algorithms(&self) -> AlgorithmSet {
        self.outputs.keys().copied().collect()
    }

    /// The realized backbone of `algorithm` as path-carrying link
    /// views: its selection's `links_used` resolved against the graph
    /// the selection was drawn from (NC for the NC algorithms and
    /// G-MST, AC for the AC ones). This is what the route-serving
    /// subsystem compiles a [`RoutePlan`](crate::routing::RoutePlan)
    /// from — routes then travel only links that algorithm's CDS
    /// actually realizes.
    ///
    /// # Panics
    /// Panics if `algorithm` was not evaluated, or if a selected link
    /// has no path in the evaluation's graphs. The localized algorithms
    /// select subsets of their own graph, so the latter concerns only
    /// G-MST's degraded-clustering fallback, where a link may exceed
    /// the `2k+1` label bound — such backbones are not servable from
    /// localized state.
    pub fn selected_links(&self, algorithm: Algorithm) -> Vec<crate::virtual_graph::LinkRef<'_>> {
        let graph = match algorithm {
            Algorithm::AcMesh | Algorithm::AcLmst => &self.ac_graph,
            Algorithm::NcMesh | Algorithm::NcLmst | Algorithm::GMst => &self.nc_graph,
        };
        self.of(algorithm)
            .selection
            .links_used
            .iter()
            .map(|&(a, b)| {
                graph.link(a, b).unwrap_or_else(|| {
                    panic!("{algorithm} selected {a:?}-{b:?} outside the 2k+1 link bound")
                })
            })
            .collect()
    }
}

/// Evaluates **all five** algorithms on a shared clustering with one
/// head-label sweep (see the module docs for the dataflow). Equivalent
/// to — but much faster than — calling [`run_on`] once per algorithm.
pub fn run_all<G: Adjacency + Sync>(g: &G, clustering: &Clustering) -> EvaluationOutput {
    run_all_with(g, clustering, &mut EvalScratch::new())
}

/// As [`run_all`], reusing `scratch` across calls (the Monte-Carlo
/// harness keeps one per worker thread). Evaluates the scratch's
/// [`AlgorithmSet`]: all five unless
/// [`EvalScratch::set_algorithms`] narrowed it.
pub fn run_all_with<G: Adjacency + Sync>(
    g: &G,
    clustering: &Clustering,
    scratch: &mut EvalScratch,
) -> EvaluationOutput {
    // One BFS per head, bounded to the paper's 2k+1 locality radius.
    // These labels serve the NC relation, both virtual graphs, and —
    // via the Theorem-1 bottleneck argument in
    // [`gateway::gmst_via_nc`] — even the global MST baseline, so no
    // unbounded traversal happens on the hot path at all.
    let bound = 2 * clustering.k + 1;
    {
        let _sweep = scratch.metrics.span("labels.sweep_ns");
        scratch
            .labels
            .rebuild_with(g, &clustering.heads, bound, scratch.par);
    }
    scratch.metrics.inc("pipeline.run_all");
    scratch
        .metrics
        .add("labels.rows_swept", clustering.heads.len() as u64);
    let nc_graph = {
        let _nc = scratch.metrics.span("pipeline.nc_graph_ns");
        let labels = &scratch.labels;
        let nc_sets = adjacency::nc_from_labels(clustering, labels);
        VirtualGraph::from_labels(g, clustering, nc_sets, labels)
    };
    let _tail = scratch.metrics.span("pipeline.eval_tail_ns");
    eval_from_nc(g, clustering, nc_graph, scratch)
}

/// The cold tail of [`run_all_with`]: everything downstream of the NC
/// virtual graph (A-NCR relation, AC restriction, the selections of the
/// scratch's [`AlgorithmSet`], CDS assembly), built from scratch.
/// Stages no requested algorithm needs are skipped.
/// [`update_all_after`] patches this evaluation in place instead.
fn eval_from_nc<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    nc_graph: VirtualGraph,
    scratch: &mut EvalScratch,
) -> EvaluationOutput {
    let nc_graph = Arc::new(nc_graph);
    let (ac_graph, ac_is_nc) = if scratch.algorithms.needs_ac() {
        let _span = scratch.metrics.span("pipeline.ac_relation_ns");
        let ac_sets = adjacency::adjacent_rows(g, clustering, &mut scratch.ancr);
        check_theorem1(&ac_sets, clustering, &scratch.labels);
        restrict(&nc_graph, ac_sets, None)
    } else {
        (Arc::default(), false)
    };
    let outputs = select(g, clustering, &nc_graph, &ac_graph, ac_is_nc, scratch, None);
    EvaluationOutput {
        clustering: clustering.clone(),
        nc_graph,
        ac_graph,
        outputs,
        members: Vec::new(),
    }
}

/// The AC graph of the A-NCR relation `ac_sets`, and whether it is the
/// NC graph. On dense deployments every pair of nearby clusters often
/// touches, making the AC relation literally equal to NC — then the AC
/// graph is the NC graph (shared, not copied) and both AC selections
/// are the NC ones. Otherwise `own` — the previous AC graph with
/// `ac_sets` as its relation, patched by
/// [`VirtualGraph::patch_restriction`] — is used when given, and a
/// fresh restriction of `nc_graph` is built when not.
fn restrict(
    nc_graph: &Arc<VirtualGraph>,
    ac_sets: NeighborSets,
    own: Option<(VirtualGraph, PatchedRelation<'_>)>,
) -> (Arc<VirtualGraph>, bool) {
    if ac_sets == nc_graph.neighbor_sets {
        return (Arc::clone(nc_graph), true);
    }
    let ac_graph = match own {
        Some((mut ac, (rows, nc_changes, flags))) => {
            ac.neighbor_sets = ac_sets;
            ac.patch_restriction(nc_graph, rows, nc_changes, flags);
            ac
        }
        None => nc_graph.restricted_to(ac_sets),
    };
    (Arc::new(ac_graph), false)
}

/// What [`VirtualGraph::patch_restriction`] reads: the A-NCR rows that
/// changed, the NC graph's changes and the patch's node marks.
type PatchedRelation<'a> = (&'a [(usize, Vec<NodeId>)], &'a GraphChanges, &'a NodeFlags);

/// Theorem 1's upper bound on every A-NCR pair, in debug builds. (The
/// k+1 lower bound holds for fresh elections but not for *maintained*
/// clusterings, whose heads may legally drift within k hops between
/// re-elections.)
fn check_theorem1(ac_sets: &NeighborSets, clustering: &Clustering, labels: &HeadLabels) {
    #[cfg(debug_assertions)]
    for (u, v) in ac_sets.pairs() {
        let d = labels.head_dist(u, v);
        debug_assert!(
            d <= 2 * clustering.k + 1,
            "A-NCR pair {u:?},{v:?} at distance {d} contradicts Theorem 1 (k={})",
            clustering.k
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = (ac_sets, clustering, labels);
}

/// What a patched evaluation's selections may reuse: the previous
/// outputs (taken out of the evaluation, patched and put back), the
/// head-list change, and what changed in the NC graph and — when it was
/// patched rather than built afresh — the AC graph.
struct Reuse<'a> {
    prev: BTreeMap<Algorithm, AlgorithmOutput>,
    diff: &'a HeadDiff,
    nc: &'a GraphChanges,
    ac: Option<&'a GraphChanges>,
}

/// The selections and CDSs of the scratch's [`AlgorithmSet`] on the NC
/// and AC graphs. With `reuse`, each LMST selection whose previous
/// output and graph changes are at hand is patched in place
/// ([`gateway::lmstga_patch`]): only the heads of [`rerun_mask`] run
/// the local MST. The meshes and G-MST are derived afresh.
fn select<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    nc_graph: &VirtualGraph,
    ac_graph: &VirtualGraph,
    ac_is_nc: bool,
    scratch: &mut EvalScratch,
    mut reuse: Option<Reuse<'_>>,
) -> BTreeMap<Algorithm, AlgorithmOutput> {
    let EvalScratch {
        algorithms,
        nc_index,
        ac_index,
        lmstga,
        marks,
        metrics,
        ..
    } = scratch;
    let wants = |a: Algorithm| algorithms.contains(a);
    let _select = metrics.span("pipeline.select_ns");
    let mut outputs = BTreeMap::new();
    let mut put =
        |alg: Algorithm, selection: GatewaySelection, lmst: Option<(LmstRows, Vec<u32>)>| {
            let cds = Cds::assemble(clustering, &selection);
            let (lmst_rows, through) =
                lmst.map_or((None, Vec::new()), |(rows, through)| (Some(rows), through));
            outputs.insert(
                alg,
                AlgorithmOutput {
                    selection,
                    cds,
                    lmst_rows,
                    through,
                },
            );
        };
    if wants(Algorithm::NcMesh) || wants(Algorithm::AcMesh) {
        let _mesh = metrics.span("pipeline.mesh_ns");
        // A mesh realizes every link of its graph.
        let mut mesh =
            |vg: &VirtualGraph| GatewaySelection::from_links_with(marks, vg.links(), clustering);
        let nc_mesh = wants(Algorithm::NcMesh).then(|| mesh(nc_graph));
        let ac_mesh = match &nc_mesh {
            Some(nc) if ac_is_nc && wants(Algorithm::AcMesh) => Some(nc.clone()),
            _ => wants(Algorithm::AcMesh).then(|| mesh(ac_graph)),
        };
        for (alg, selection) in [(Algorithm::NcMesh, nc_mesh), (Algorithm::AcMesh, ac_mesh)] {
            if let Some(selection) = selection {
                put(alg, selection, None);
            }
        }
    }

    let nc_changes = reuse.as_ref().map(|r| r.nc);
    let ac_changes = reuse.as_ref().and_then(|r| r.ac);
    // One LMST selection on a fresh index of `graph`: patched from the
    // previous one when it and the graph's changes are at hand, else
    // built from scratch.
    let mut lmst = |alg: Algorithm,
                    graph: &VirtualGraph,
                    index: &mut SlotIndex,
                    changes: Option<&GraphChanges>| {
        index.build(graph);
        let prev = reuse.as_mut().zip(changes).and_then(|(r, changes)| {
            let out = r.prev.remove(&alg).filter(|o| o.lmst_rows.is_some())?;
            Some((out, changes, r.diff, r.nc))
        });
        let (selection, lmst, reruns) = match prev {
            Some((mut out, changes, diff, nc_changes)) => {
                let mut rows = out.lmst_rows.take().expect("an LMST output");
                let rerun = rerun_mask(graph, changes);
                let reruns = gateway::lmstga_patch(
                    lmstga,
                    graph,
                    index,
                    nc_graph,
                    nc_changes,
                    diff,
                    &rerun,
                    clustering,
                    &mut rows,
                    &mut out.selection,
                    &mut out.through,
                );
                (out.selection, (rows, out.through), reruns)
            }
            None => {
                let (selection, rows, reruns) =
                    gateway::lmstga_rows(lmstga, graph, index, clustering);
                (selection, (rows, Vec::new()), reruns)
            }
        };
        metrics.add("pipeline.lmst_heads_rerun", reruns as u64);
        (selection, lmst)
    };
    // NC-LMST and G-MST share one index of the NC graph.
    let nc_indexed = wants(Algorithm::NcLmst);
    if wants(Algorithm::NcLmst) || wants(Algorithm::AcLmst) {
        let _lmst = metrics.span("pipeline.lmst_ns");
        let nc_lmst = wants(Algorithm::NcLmst)
            .then(|| lmst(Algorithm::NcLmst, nc_graph, nc_index, nc_changes));
        let ac_lmst = match &nc_lmst {
            Some(nc) if ac_is_nc && wants(Algorithm::AcLmst) => Some(nc.clone()),
            _ if wants(Algorithm::AcLmst) => {
                Some(lmst(Algorithm::AcLmst, ac_graph, ac_index, ac_changes))
            }
            _ => None,
        };
        for (alg, out) in [(Algorithm::NcLmst, nc_lmst), (Algorithm::AcLmst, ac_lmst)] {
            if let Some((selection, lmst)) = out {
                put(alg, selection, Some(lmst));
            }
        }
    }
    if wants(Algorithm::GMst) {
        let _gmst = metrics.span("pipeline.gmst_ns");
        if !nc_indexed {
            nc_index.build(nc_graph);
        }
        let selection = gateway::gmst_via_index(g, nc_graph, nc_index, clustering, marks);
        put(Algorithm::GMst, selection, None);
    }
    outputs
}

/// Head slots whose local MST can differ after a patch that made
/// `changes` to `vg`, ascending. A head's LMST choice is a function of
/// its closed one-hop neighborhood: its neighbor set, its neighbors'
/// sets, and the hop counts of the links among them. So every head
/// whose row or an incident link's hop count changed must re-run, and
/// so must each of its neighbors. A neighbor the change removed needs
/// no mark of its own: the relation is symmetric, so its row changed
/// too.
fn rerun_mask(vg: &VirtualGraph, changes: &GraphChanges) -> Vec<usize> {
    let heads = &vg.heads;
    let mut mask = vec![false; heads.len()];
    let mut mark = |s: usize| {
        mask[s] = true;
        for y in vg.neighbor_sets.row(s) {
            mask[heads.binary_search(y).expect("neighbors are heads")] = true;
        }
    };
    for &(s, _) in &changes.rows {
        mark(s);
    }
    for &(a, b) in &changes.hops {
        for x in [a, b] {
            mark(heads.binary_search(&x).expect("a head"));
        }
    }
    (0..heads.len()).filter(|&s| mask[s]).collect()
}

/// Brings `prev` up to `next` in place, writing only the affiliations
/// that changed, and returns every node whose head changed with its
/// previous head.
fn sync_clustering(prev: &mut Clustering, next: &Clustering) -> Vec<(NodeId, NodeId)> {
    prev.heads.clone_from(&next.heads);
    prev.rounds = next.rounds;
    prev.dist_to_head.copy_from_slice(&next.dist_to_head);
    let mut moved = Vec::new();
    for (v, (old, &new)) in prev.head_of.iter_mut().zip(&next.head_of).enumerate() {
        if *old != new {
            moved.push((NodeId(v as u32), *old));
            *old = new;
        }
    }
    moved
}

/// Phase 1 of an incremental refresh: advances `scratch`'s label arena
/// from the pre-delta graph and head set to `g` (the **post-delta**
/// graph) and `clustering`'s head set, in one [`HeadLabels::advance`]:
/// rows whose
/// `2k+1` ball a changed edge touched are re-swept, departed heads drop
/// their rows and new heads sweep one new row each, so a §3.3 head loss
/// or local election costs `O(changed rows)` BFS sweeps and one arena
/// splice, not `O(h)` sweeps. Only a scratch built for another bound or
/// node count is rebuilt. The result is bit-identical to a full
/// rebuild on `g` with the new head set (pinned by tests and by the
/// churn-engine equivalence suite).
///
/// Split out so maintenance policies can *read the refreshed labels*
/// (orphan members, head merges) and repair the clustering **before**
/// [`update_all_after`] derives the virtual graphs — a clustering whose
/// coverage churn has broken can place adjacent heads beyond `2k+1`
/// hops, which the virtual-graph builders reject.
///
/// Returns the swept slots **in the new slot numbering** (delta-dirty
/// survivors plus added rows; every slot after a rebuild).
pub fn advance_labels<G: Adjacency + Sync>(
    g: &G,
    clustering: &Clustering,
    delta: &TopologyDelta,
    scratch: &mut EvalScratch,
) -> Vec<usize> {
    let bound = 2 * clustering.k + 1;
    let _advance = scratch.metrics.span("labels.advance_ns");
    let compatible =
        scratch.labels.bound() == bound && scratch.labels.node_count() == g.node_count();
    let dirty = if compatible {
        scratch.labels.dirty_slots(delta)
    } else {
        scratch.metrics.inc("labels.rebuild_fallback");
        Vec::new()
    };
    let swept = scratch
        .labels
        .advance(g, &clustering.heads, bound, &dirty, scratch.par);
    scratch
        .metrics
        .add("labels.rows_repaired", swept.len() as u64);
    swept
}

/// Phase 2 of an incremental refresh: patches `eval`, the evaluation of
/// the pre-step graph and clustering, **in place** into the evaluation
/// of the scratch's [`AlgorithmSet`] on `g` and `clustering`, from
/// labels already advanced by [`advance_labels`] to `clustering`'s head
/// set. `swept` names the label slots swept or opened since `eval` (new
/// numbering), and `delta` is the edge change since then. `clustering`
/// may carry promoted or demoted heads and repaired member
/// affiliations.
///
/// There is one patch path, for an unchanged head set and a changed
/// one alike: every slot-indexed stage moves across a head-set change
/// by head ID (as [`RoutePlan::apply_delta`] does), then patches only
/// what the step reached.
///
/// * A swept label row whose sweep changed it
///   ([`HeadLabels::sweep_reproduced`]) re-derives its NC row and
///   re-walks its links; a reproduced row re-walks only the links whose
///   path the delta met; a lost or gained head leaves or joins its
///   neighbors' rows, and each new pair is walked. Every other link
///   keeps its entry and path bytes.
/// * The A-NCR rows of the clusters the delta and the re-affiliations
///   touched are rescanned, and the AC graph keeps every link whose
///   pair and NC path stayed.
/// * The clustering copy is written only where an affiliation changed.
/// * Each LMST selection re-runs the local MST only at heads within
///   one virtual hop of a changed row or link hop count.
///
/// Meshes and G-MST are re-derived from the patched graphs. An
/// evaluation for another `k` or node count is rebuilt instead. Either
/// way the result is **bit-for-bit identical** to a from-scratch
/// [`run_all`] on `g` (pinned by the delta-chain tests and the
/// `label_equivalence`, `churn_equivalence` and `scoped_equivalence`
/// proptests, across head-set changes too).
///
/// [`RoutePlan::apply_delta`]: crate::routing::RoutePlan::apply_delta
///
/// # Panics
/// Panics if the scratch labels do not match `clustering`'s head set.
pub fn update_all_after<G: Adjacency>(
    g: &G,
    clustering: &Clustering,
    delta: &TopologyDelta,
    swept: &[usize],
    eval: &mut EvaluationOutput,
    scratch: &mut EvalScratch,
) {
    assert_eq!(
        scratch.labels.heads(),
        &clustering.heads[..],
        "labels were advanced for a different head set"
    );
    scratch.metrics.inc("pipeline.update_all");
    let _tail = scratch.metrics.span("pipeline.eval_tail_ns");
    if eval.clustering.k != clustering.k
        || eval.clustering.head_of.len() != clustering.head_of.len()
    {
        let nc_graph = {
            let _nc = scratch.metrics.span("pipeline.nc_graph_ns");
            let nc_sets = adjacency::nc_from_labels(clustering, &scratch.labels);
            VirtualGraph::from_labels(g, clustering, nc_sets, &scratch.labels)
        };
        *eval = eval_from_nc(g, clustering, nc_graph, scratch);
        return;
    }
    let diff = HeadDiff::new(&eval.clustering.heads, &clustering.heads);
    scratch
        .metrics
        .add("pipeline.headset_patches", u64::from(!diff.is_empty()));
    let moved = sync_clustering(&mut eval.clustering, clustering);
    // The member lists stay only if the A-NCR patch below keeps them.
    let mut members = std::mem::take(&mut eval.members);
    // The previous AC graph, taken out before the NC graph is patched
    // so the two never share an allocation then; a previous AC graph
    // that was the NC graph lends only its relation.
    let wants_ac = scratch.algorithms.needs_ac();
    let prev_ac = std::mem::take(&mut eval.ac_graph);
    let prev_ac = (wants_ac && eval.algorithms().needs_ac()).then(|| {
        if Arc::ptr_eq(&prev_ac, &eval.nc_graph) {
            (None, eval.nc_graph.neighbor_sets.clone())
        } else {
            let mut ac = Arc::unwrap_or_clone(prev_ac);
            let sets = std::mem::take(&mut ac.neighbor_sets);
            (Some(ac), sets)
        }
    });
    let nc_changes = {
        let _nc = scratch.metrics.span("pipeline.nc_graph_ns");
        Arc::make_mut(&mut eval.nc_graph).patch_nc(
            g,
            clustering,
            &scratch.labels,
            &diff,
            swept,
            delta,
            &mut scratch.flags,
        )
    };
    scratch
        .metrics
        .add("pipeline.nc_links_rewalked", nc_changes.walked as u64);

    let mut ac_changes = None;
    let ac_is_nc = if wants_ac {
        let _span = scratch.metrics.span("pipeline.ac_relation_ns");
        let (ac_graph, ac_is_nc) = match prev_ac {
            Some((own, mut sets)) => {
                sets.rehead(&diff);
                if !members.is_empty() {
                    diff.rehead(&mut members);
                }
                let labels = &scratch.labels;
                let rows = adjacency::patch_adjacent(
                    g,
                    clustering,
                    |h| labels.slot(h),
                    &mut sets,
                    &mut members,
                    &moved,
                    delta,
                    &mut scratch.ancr,
                );
                eval.members = members;
                check_theorem1(&sets, clustering, &scratch.labels);
                for &(s, _) in &rows {
                    scratch.flags.mark(clustering.heads[s], AC_ROW);
                }
                let (ac_graph, ac_is_nc) = restrict(
                    &eval.nc_graph,
                    sets,
                    own.map(|ac| (ac, (&rows[..], &nc_changes, &scratch.flags))),
                );
                // An AC link is its NC link: its hop count changed iff
                // the NC one did and the pair stayed selected.
                let sets = &ac_graph.neighbor_sets;
                let hops = nc_changes
                    .hops
                    .iter()
                    .copied()
                    .filter(|&(a, b)| {
                        let s = clustering.heads.binary_search(&a).expect("a head");
                        sets.row(s).binary_search(&b).is_ok()
                    })
                    .collect();
                ac_changes = Some(GraphChanges {
                    rows,
                    hops,
                    ..GraphChanges::default()
                });
                (ac_graph, ac_is_nc)
            }
            None => {
                let ac_sets = adjacency::adjacent_rows(g, clustering, &mut scratch.ancr);
                check_theorem1(&ac_sets, clustering, &scratch.labels);
                restrict(&eval.nc_graph, ac_sets, None)
            }
        };
        eval.ac_graph = ac_graph;
        ac_is_nc
    } else {
        false
    };

    scratch.flags.clear();
    let reuse = Reuse {
        prev: std::mem::take(&mut eval.outputs),
        diff: &diff,
        nc: &nc_changes,
        ac: ac_changes.as_ref(),
    };
    eval.outputs = select(
        g,
        clustering,
        &eval.nc_graph,
        &eval.ac_graph,
        ac_is_nc,
        scratch,
        Some(reuse),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_graph::gen;

    /// One incremental refresh, both phases: patches `eval` in place and
    /// returns the slots the label advance swept.
    fn refresh<G: Adjacency + Sync>(
        g: &G,
        clustering: &Clustering,
        delta: &TopologyDelta,
        eval: &mut EvaluationOutput,
        scratch: &mut EvalScratch,
    ) -> Vec<usize> {
        let swept = advance_labels(g, clustering, delta, scratch);
        update_all_after(g, clustering, delta, &swept, eval, scratch);
        swept
    }

    #[test]
    fn all_algorithms_produce_valid_cds() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(100);
        for k in 1..=4u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(100, 100.0, 6.0), &mut rng);
            let cfg = PipelineConfig::new(k);
            for alg in Algorithm::ALL {
                let out = run(&net.graph, alg, &cfg);
                out.clustering.verify(&net.graph).unwrap();
                out.cds
                    .verify(&net.graph, k)
                    .unwrap_or_else(|e| panic!("{alg} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn paper_orderings_hold_in_expectation() {
        // Deterministic orderings that hold instance-by-instance:
        //   AC-Mesh <= NC-Mesh, AC-LMST <= mesh counterparts' links.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(200);
        for k in 2..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(120, 100.0, 6.0), &mut rng);
            let cfg = PipelineConfig::new(k);
            let clustering = crate::clustering::cluster(&net.graph, cfg.k, &LowestId, cfg.policy);
            let nc_mesh = run_on(&net.graph, Algorithm::NcMesh, &clustering);
            let ac_mesh = run_on(&net.graph, Algorithm::AcMesh, &clustering);
            let nc_lmst = run_on(&net.graph, Algorithm::NcLmst, &clustering);
            let ac_lmst = run_on(&net.graph, Algorithm::AcLmst, &clustering);
            let gmst = run_on(&net.graph, Algorithm::GMst, &clustering);
            assert!(ac_mesh.cds.size() <= nc_mesh.cds.size());
            assert!(nc_lmst.cds.size() <= nc_mesh.cds.size());
            assert!(ac_lmst.cds.size() <= ac_mesh.cds.size());
            // G-MST uses h-1 links, the global minimum number.
            assert!(gmst.selection.links_used.len() <= ac_lmst.selection.links_used.len());
        }
    }

    #[test]
    fn shared_clustering_across_algorithms() {
        let g = gen::path(9);
        let cfg = PipelineConfig::new(1);
        let a = run(&g, Algorithm::AcLmst, &cfg);
        let b = run(&g, Algorithm::NcMesh, &cfg);
        assert_eq!(a.clustering.heads, b.clustering.heads);
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::AcLmst.name(), "AC-LMST");
        assert_eq!(format!("{}", Algorithm::GMst), "G-MST");
        assert!(Algorithm::AcLmst.is_localized());
        assert!(!Algorithm::GMst.is_localized());
        assert_eq!(Algorithm::GMst.neighbor_rule(), None);
        assert_eq!(
            Algorithm::NcMesh.neighbor_rule(),
            Some(NeighborRule::All2kPlus1)
        );
        assert_eq!(Algorithm::ALL.len(), 5);
    }

    #[test]
    fn gmst_output_has_no_virtual_graph() {
        let g = gen::path(9);
        let out = run(&g, Algorithm::GMst, &PipelineConfig::new(1));
        assert!(out.virtual_graph.is_none());
        assert!(out.cds.verify(&g, 1).is_ok());
    }

    /// Field-by-field equality of two evaluations (EvaluationOutput
    /// deliberately has no PartialEq — this is the bit-for-bit check
    /// the delta-equivalence tests share).
    pub(crate) fn assert_evals_equal(a: &EvaluationOutput, b: &EvaluationOutput, ctx: &str) {
        assert_eq!(a.clustering.heads, b.clustering.heads, "{ctx}: heads");
        assert_eq!(a.clustering.head_of, b.clustering.head_of, "{ctx}: head_of");
        assert_eq!(
            a.clustering.dist_to_head, b.clustering.dist_to_head,
            "{ctx}: dist_to_head"
        );
        for (x, y, name) in [
            (&a.nc_graph, &b.nc_graph, "nc"),
            (&a.ac_graph, &b.ac_graph, "ac"),
        ] {
            assert_eq!(x.neighbor_sets, y.neighbor_sets, "{ctx}: {name} sets");
            assert_eq!(x.link_count(), y.link_count(), "{ctx}: {name} link count");
            for (l, r) in x.links().zip(y.links()) {
                assert_eq!((l.a, l.b), (r.a, r.b), "{ctx}: {name} pair");
                assert_eq!(l.path, r.path, "{ctx}: {name} path {:?}-{:?}", l.a, l.b);
            }
        }
        assert_eq!(
            Arc::ptr_eq(&a.nc_graph, &a.ac_graph),
            Arc::ptr_eq(&b.nc_graph, &b.ac_graph),
            "{ctx}: AC graph shares the NC one"
        );
        assert_eq!(a.algorithms(), b.algorithms(), "{ctx}: algorithms");
        for alg in a.algorithms().iter() {
            let (x, y) = (a.of(alg), b.of(alg));
            assert_eq!(x.selection, y.selection, "{ctx}: {alg}");
            assert_eq!(x.cds, y.cds, "{ctx}: {alg} cds");
            assert_eq!(x.lmst_rows, y.lmst_rows, "{ctx}: {alg} LMST rows");
        }
    }

    /// Chained deltas through both refresh phases must reproduce a
    /// from-scratch `run_all` exactly — including the label arena.
    /// Extra edges are added and later removed (the edge set always
    /// stays a superset of the original connected graph, so the fixed
    /// clustering keeps covering it, as the maintenance layer
    /// guarantees in production).
    #[test]
    fn update_all_matches_run_all_across_delta_chain() {
        use adhoc_graph::graph::NodeId;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(404);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 6.0), &mut rng);
            let mut g = net.graph.clone();
            let clustering = crate::clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
            let mut scratch = EvalScratch::new();
            let mut prev = run_all_with(&g, &clustering, &mut scratch);
            let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
            for step in 0..12 {
                let mut delta = adhoc_graph::delta::TopologyDelta::new();
                if step % 3 == 2 && !extras.is_empty() {
                    // Take back some previously added edges.
                    for _ in 0..rng.gen_range(1..=extras.len()) {
                        let (a, b) = extras.swap_remove(rng.gen_range(0..extras.len()));
                        g.remove_edge(a, b);
                        delta.push_removed(a, b);
                    }
                } else {
                    for _ in 0..rng.gen_range(1..5) {
                        let a = NodeId(rng.gen_range(0..90u32));
                        let b = NodeId(rng.gen_range(0..90u32));
                        if a != b && !g.has_edge(a, b) {
                            g.add_edge(a, b);
                            delta.push_added(a, b);
                            extras.push(if a < b { (a, b) } else { (b, a) });
                        }
                    }
                }
                delta.normalize();
                let swept = refresh(&g, &clustering, &delta, &mut prev, &mut scratch);
                assert!(swept.len() <= clustering.heads.len());
                let fresh = run_all(&g, &clustering);
                assert_evals_equal(&prev, &fresh, &format!("k={k} step={step}"));
                // The warm labels equal a cold rebuild too.
                let cold = adhoc_graph::labels::HeadLabels::build(&g, &clustering.heads, 2 * k + 1);
                for slot in 0..clustering.heads.len() {
                    assert_eq!(scratch.labels().ball(slot), cold.ball(slot));
                }
            }
        }
    }

    /// A delta that floods every ball stays incremental — every row is
    /// re-swept in place, the arena is not rebuilt — and is still
    /// exact.
    #[test]
    fn update_all_falls_back_on_heavy_deltas() {
        use adhoc_graph::graph::NodeId;
        let g0 = gen::path(20);
        let clustering = crate::clustering::cluster(&g0, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let mut eval = run_all_with(&g0, &clustering, &mut scratch);
        // Add a hub touching everything: every head's 3-ball changes.
        let mut g = g0.clone();
        let mut delta = adhoc_graph::delta::TopologyDelta::new();
        for v in 1..20u32 {
            if !g.has_edge(NodeId(0), NodeId(v)) {
                g.add_edge(NodeId(0), NodeId(v));
                delta.push_added(NodeId(0), NodeId(v));
            }
        }
        delta.normalize();
        let rebuilds = scratch.labels().rebuild_count();
        let swept = refresh(&g, &clustering, &delta, &mut eval, &mut scratch);
        assert_eq!(swept.len(), clustering.heads.len(), "every row swept");
        assert_eq!(scratch.labels().rebuild_count(), rebuilds, "no rebuild");
        assert_evals_equal(&eval, &run_all(&g, &clustering), "every row dirty");
    }

    /// Every evaluation times its NC stage once: the cold build, a
    /// patched update and one with every row dirty.
    #[test]
    fn nc_stage_is_spanned_once_per_evaluation() {
        use adhoc_graph::graph::NodeId;
        let g0 = gen::path(20);
        let clustering = crate::clustering::cluster(&g0, 1, &LowestId, MemberPolicy::IdBased);
        let metrics = Metrics::enabled();
        let mut scratch = EvalScratch::new();
        scratch.set_metrics(metrics.clone());
        let mut eval = run_all_with(&g0, &clustering, &mut scratch);
        let mut g = g0.clone();
        let mut delta = adhoc_graph::delta::TopologyDelta::new();
        g.add_edge(NodeId(1), NodeId(3));
        delta.push_added(NodeId(1), NodeId(3));
        delta.normalize();
        let patched = refresh(&g, &clustering, &delta, &mut eval, &mut scratch);
        assert!(patched.len() < clustering.heads.len());
        let mut hub = adhoc_graph::delta::TopologyDelta::new();
        for v in 3..20u32 {
            g.add_edge(NodeId(0), NodeId(v));
            hub.push_added(NodeId(0), NodeId(v));
        }
        hub.normalize();
        let saturated = refresh(&g, &clustering, &hub, &mut eval, &mut scratch);
        assert_eq!(saturated.len(), clustering.heads.len());
        let snap = metrics.snapshot();
        let span = snap
            .histogram("pipeline.nc_graph_ns")
            .expect("NC stage spanned");
        assert_eq!(span.count, 3);
    }

    /// Every evaluation times each selection stage it needs once: the
    /// cold all-five build, a patched update and one with every row
    /// dirty each run the meshes, the LMSTs and G-MST; a scoped AC-LMST
    /// evaluation runs only the LMST stage.
    #[test]
    fn tail_stages_are_spanned_once_per_evaluation() {
        use adhoc_graph::graph::NodeId;
        let g0 = gen::path(20);
        let clustering = crate::clustering::cluster(&g0, 1, &LowestId, MemberPolicy::IdBased);
        let metrics = Metrics::enabled();
        let mut scratch = EvalScratch::new();
        scratch.set_metrics(metrics.clone());
        let mut eval = run_all_with(&g0, &clustering, &mut scratch);
        let mut g = g0.clone();
        let mut delta = adhoc_graph::delta::TopologyDelta::new();
        g.add_edge(NodeId(1), NodeId(3));
        delta.push_added(NodeId(1), NodeId(3));
        delta.normalize();
        let patched = refresh(&g, &clustering, &delta, &mut eval, &mut scratch);
        assert!(patched.len() < clustering.heads.len());
        let mut hub = adhoc_graph::delta::TopologyDelta::new();
        for v in 3..20u32 {
            g.add_edge(NodeId(0), NodeId(v));
            hub.push_added(NodeId(0), NodeId(v));
        }
        hub.normalize();
        let saturated = refresh(&g, &clustering, &hub, &mut eval, &mut scratch);
        assert_eq!(saturated.len(), clustering.heads.len());
        scratch.set_algorithms(AlgorithmSet::only(Algorithm::AcLmst));
        run_all_with(&g, &clustering, &mut scratch);
        let snap = metrics.snapshot();
        let count = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
        assert_eq!(count("pipeline.select_ns"), 4);
        assert_eq!(count("pipeline.lmst_ns"), 4);
        assert_eq!(count("pipeline.mesh_ns"), 3);
        assert_eq!(count("pipeline.gmst_ns"), 3);
    }

    /// Through a delta chain, every distance of the scratch's labels
    /// equals a dense per-head BFS of the live graph.
    #[test]
    fn sparse_scratch_matches_dense_through_updates() {
        use adhoc_graph::bfs::BfsScratch;
        use adhoc_graph::graph::NodeId;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(505);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let clustering = crate::clustering::cluster(&g, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let mut prev = run_all_with(&g, &clustering, &mut scratch);
        let mut bfs = BfsScratch::new(g.len());
        for step in 0..8 {
            let mut delta = adhoc_graph::delta::TopologyDelta::new();
            for _ in 0..rng.gen_range(1..4) {
                let a = NodeId(rng.gen_range(0..80u32));
                let b = NodeId(rng.gen_range(0..80u32));
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b);
                    delta.push_added(a, b);
                }
            }
            delta.normalize();
            refresh(&g, &clustering, &delta, &mut prev, &mut scratch);
            let labels = scratch.labels();
            for (slot, &h) in clustering.heads.iter().enumerate() {
                bfs.run(&g, h, 5);
                for v in g.nodes() {
                    assert_eq!(
                        labels.dist(slot, v),
                        bfs.dist(v),
                        "step {step} {h:?}->{v:?}"
                    );
                }
            }
        }
    }

    /// Head promotions and demotions through the head-set advance must
    /// reproduce a from-scratch `run_all` exactly — without the label
    /// arena ever rebuilding (the incremental head-set contract).
    #[test]
    fn headset_advance_matches_run_all_without_rebuilds() {
        use adhoc_graph::delta::TopologyDelta;
        use adhoc_graph::graph::NodeId;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(707);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let base = crate::clustering::cluster(&g, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let mut prev = run_all_with(&g, &base, &mut scratch);
        let rebuilds = scratch.labels().rebuild_count();
        let none = TopologyDelta::new();

        // Promote two non-heads to heads, one at a time.
        let mut clustering = base.clone();
        let promoted: Vec<NodeId> = g.nodes().filter(|&v| !base.is_head(v)).take(2).collect();
        for &v in &promoted {
            let pos = clustering.heads.binary_search(&v).unwrap_err();
            clustering.heads.insert(pos, v);
            clustering.head_of[v.index()] = v;
            clustering.dist_to_head[v.index()] = 0;
            let swept = advance_labels(&g, &clustering, &none, &mut scratch);
            assert_eq!(
                swept,
                [pos],
                "promotion of {v:?} must sweep exactly its own row"
            );
            update_all_after(&g, &clustering, &none, &swept, &mut prev, &mut scratch);
            assert_evals_equal(&prev, &run_all(&g, &clustering), &format!("+{v:?}"));
        }

        // Demote one of them again: a row removal dirties nothing.
        let v = promoted[0];
        let pos = clustering.heads.binary_search(&v).unwrap();
        clustering.heads.remove(pos);
        clustering.head_of[v.index()] = base.head_of[v.index()];
        clustering.dist_to_head[v.index()] = base.dist_to_head[v.index()];
        let swept = advance_labels(&g, &clustering, &none, &mut scratch);
        assert!(
            swept.is_empty(),
            "demotion must sweep no rows, got {swept:?}"
        );
        update_all_after(&g, &clustering, &none, &swept, &mut prev, &mut scratch);
        assert_evals_equal(&prev, &run_all(&g, &clustering), &format!("-{v:?}"));

        // A head-set change combined with an edge delta in one
        // advance stays exact.
        let w = promoted[1];
        let wpos = clustering.heads.binary_search(&w).unwrap();
        clustering.heads.remove(wpos);
        clustering.head_of[w.index()] = base.head_of[w.index()];
        clustering.dist_to_head[w.index()] = base.dist_to_head[w.index()];
        let mut delta = TopologyDelta::new();
        let (a, b) = (NodeId(0), NodeId(40));
        if !g.has_edge(a, b) {
            g.add_edge(a, b);
            delta.push_added(a, b);
        }
        delta.normalize();
        refresh(&g, &clustering, &delta, &mut prev, &mut scratch);
        assert_evals_equal(&prev, &run_all(&g, &clustering), &format!("-{w:?}+edge"));
        assert_eq!(
            scratch.labels().rebuild_count(),
            rebuilds,
            "head-set changes must splice, not rebuild"
        );
    }

    /// An incompatible scratch (different bound) makes the advance
    /// rebuild the labels and sweep every slot, which must still be
    /// exact.
    #[test]
    fn headset_advance_falls_back_on_incompatible_scratch() {
        let g = gen::grid(4, 5);
        let k1 = crate::clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let k2 = crate::clustering::cluster(&g, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let mut eval = run_all_with(&g, &k1, &mut scratch);
        let none = adhoc_graph::delta::TopologyDelta::new();
        let rebuilds = scratch.labels().rebuild_count();
        let swept = advance_labels(&g, &k2, &none, &mut scratch);
        assert_eq!(
            swept,
            (0..k2.heads.len()).collect::<Vec<_>>(),
            "bound changed"
        );
        assert_eq!(scratch.labels().rebuild_count(), rebuilds + 1);
        update_all_after(&g, &k2, &none, &swept, &mut eval, &mut scratch);
        assert_evals_equal(&eval, &run_all(&g, &k2), "rebuild on a new bound");
    }

    /// An empty delta is a no-op refresh with zero dirty heads.
    #[test]
    fn update_all_empty_delta_is_clean() {
        let g = gen::grid(4, 5);
        let clustering = crate::clustering::cluster(&g, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let prev = run_all_with(&g, &clustering, &mut scratch);
        let mut next = prev.clone();
        let delta = adhoc_graph::delta::TopologyDelta::new();
        let swept = refresh(&g, &clustering, &delta, &mut next, &mut scratch);
        assert!(swept.is_empty());
        assert_evals_equal(&next, &prev, "no-op");
    }

    /// Re-homes every node that is not a head and whose head is gone or
    /// beyond `k` to the nearest head within `k` (distance, then ID),
    /// and promotes it when none is in range (§3.3 join-or-elect);
    /// every kept member's distance is refreshed.
    fn repair_coverage(
        g: &adhoc_graph::graph::Graph,
        c: &mut Clustering,
        bfs: &mut adhoc_graph::bfs::BfsScratch,
    ) {
        let listed = |c: &Clustering, v: NodeId| c.heads.binary_search(&v).is_ok();
        for v in g.nodes() {
            if listed(c, v) {
                continue;
            }
            bfs.run(g, v, c.k);
            let own = c.head_of[v.index()];
            let (d, h) = if listed(c, own) && bfs.dist(own) <= c.k {
                (bfs.dist(own), own)
            } else {
                let nearest = bfs
                    .visited()
                    .iter()
                    .filter(|&&h| listed(c, h))
                    .map(|&h| (bfs.dist(h), h))
                    .min();
                nearest.unwrap_or_else(|| {
                    let at = c.heads.binary_search(&v).unwrap_err();
                    c.heads.insert(at, v);
                    (0, v)
                })
            };
            c.head_of[v.index()] = h;
            c.dist_to_head[v.index()] = d;
        }
    }

    /// The body of the head-set patch proptest: a geometric network of
    /// `n` nodes clustered at `k`, evaluated for all five algorithms or
    /// for AC-LMST alone (as the churn engine asks), then `edits` edits
    /// — a member promoted, a head demoted, a head swapped for one of
    /// its members, a global `cluster()` of a perturbed graph, or one to
    /// four edge flips whose broken coverage is repaired locally. After
    /// every edit the evaluation patched in place equals a cold
    /// `run_all_with` field by field.
    fn check_headset_patch_chain(seed: u64, n: usize, k: u32, edits: usize, scoped: bool) {
        use adhoc_graph::bfs::BfsScratch;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&gen::GeometricConfig::new(n, 100.0, 7.0), &mut rng);
        let mut g = net.graph.clone();
        let mut bfs = BfsScratch::new(n);
        let mut c = crate::clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let algorithms = if scoped {
            AlgorithmSet::only(Algorithm::AcLmst)
        } else {
            AlgorithmSet::ALL
        };
        let mut scratch = EvalScratch::new();
        scratch.set_algorithms(algorithms);
        let mut eval = run_all_with(&g, &c, &mut scratch);
        let demote = |g: &adhoc_graph::graph::Graph, c: &mut Clustering, h, bfs: &mut _| {
            let at = c.heads.binary_search(&h).expect("a head");
            c.heads.remove(at);
            repair_coverage(g, c, bfs);
        };
        for edit in 0..edits {
            let mut delta = TopologyDelta::new();
            let members: Vec<NodeId> = g.nodes().filter(|&v| !c.is_head(v)).collect();
            let promote = |c: &mut Clustering, m: NodeId| {
                let at = c.heads.binary_search(&m).unwrap_err();
                c.heads.insert(at, m);
                c.head_of[m.index()] = m;
                c.dist_to_head[m.index()] = 0;
            };
            match rng.gen_range(0..5) {
                0 if !members.is_empty() => {
                    promote(&mut c, members[rng.gen_range(0..members.len())]);
                    repair_coverage(&g, &mut c, &mut bfs);
                }
                1 if c.heads.len() > 1 => {
                    let h = c.heads[rng.gen_range(0..c.heads.len())];
                    demote(&g, &mut c, h, &mut bfs);
                }
                2 if !members.is_empty() => {
                    let m = members[rng.gen_range(0..members.len())];
                    let h = c.head_of[m.index()];
                    promote(&mut c, m);
                    demote(&g, &mut c, h, &mut bfs);
                }
                choice => {
                    for _ in 0..rng.gen_range(1..=4) {
                        let a = NodeId(rng.gen_range(0..n as u32));
                        let b = NodeId(rng.gen_range(0..n as u32));
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
                    if choice == 3 {
                        c = crate::clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
                    } else {
                        repair_coverage(&g, &mut c, &mut bfs);
                    }
                }
            }
            let swept = advance_labels(&g, &c, &delta, &mut scratch);
            update_all_after(&g, &c, &delta, &swept, &mut eval, &mut scratch);
            let mut cold = EvalScratch::new();
            cold.set_algorithms(algorithms);
            let fresh = run_all_with(&g, &c, &mut cold);
            assert_evals_equal(&eval, &fresh, &format!("seed={seed} edit={edit}"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Edge deltas mixed with promotions, demotions, swaps and global
        /// re-elections: the evaluation `update_all_after` patches in
        /// place equals a cold `run_all_with` after every edit — LMST
        /// rows, link order and the AC/NC sharing included — for all
        /// five algorithms and for AC-LMST alone.
        #[test]
        fn headset_patch_matches_run_all_through_edit_chains(
            seed in 0u64..1_000_000,
            n in 40usize..=300,
            k in 1u32..=3,
            edits in 1usize..=8,
            scoped in 0usize..2,
        ) {
            check_headset_patch_chain(seed, n, k, edits, scoped == 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// The long tier of the head-set patch proptest (run with
        /// `--ignored`, in release).
        #[test]
        #[ignore = "long tier: cargo test --release -- --ignored"]
        fn headset_patch_matches_run_all_through_edit_chains_long(
            seed in 0u64..1_000_000,
            n in 40usize..=300,
            k in 1u32..=3,
            edits in 1usize..=8,
            scoped in 0usize..2,
        ) {
            check_headset_patch_chain(seed, n, k, edits, scoped == 1);
        }
    }
}
