//! The unified incremental maintenance engine ("churn engine").
//!
//! [`ChurnEngine`] is the stack's one implementation of the paper's
//! §3.3 maintenance rules — a departing bystander costs nothing, a
//! departing gateway re-runs only the gateway selection, a departing
//! clusterhead's members re-join or re-elect — and of the
//! movement-sensitive policy of [`crate::movement`]. All of them run
//! on one incremental stack:
//!
//! * a **departure** is just a [`TopologyDelta`] removing one node's
//!   edges ([`ChurnEngine::depart`]); a departing clusterhead also
//!   leaves the head list, so the same advance splices its label row
//!   out and its members surface as orphans like any other;
//! * a **movement step** is a positional delta
//!   ([`ChurnEngine::step_delta`], produced by
//!   [`MobileNetwork::step`](crate::mobility::MobileNetwork::step)'s
//!   spatial grid, or diffed from a snapshot by [`ChurnEngine::step`]);
//! * an **arrival** is a [`TopologyDelta`] re-attaching a departed
//!   node to its alive neighbors ([`ChurnEngine::arrive`]): the
//!   newcomer joins the nearest head within `k` hops or elects
//!   locally, and the label arena gains at most one spliced row.
//!
//! # The reconciliation state machine
//!
//! Every delta flows through an explicit three-phase controller whose
//! intermediate state is a first-class value ([`ReconcileState`]), so
//! execution can be suspended and resumed at any phase boundary — and
//! crashed there, which the model checker in [`crate::modelcheck`]
//! exploits:
//!
//! ```text
//!            begin_delta / begin_depart
//!                      │
//!                      ▼
//!    ┌─────────── OBSERVE ────────────┐  advance_labels (dirty-head
//!    │  delta applied, labels swept,  │  bounded BFS, departed head's
//!    │  damage detected — clustering, │  row spliced out), orphan /
//!    │  CDS, eval, plan all untouched │  merge detection read off the
//!    └──────────────┬────────────────-┘  swept rows only
//!                   ▼   ReconcileState::Observed
//!    ┌─────────── REPAIR ─────────────┐  RepairLevel policy: rejoin
//!    │  clustering mutated (rejoins,  │  orphans, elect stranded,
//!    │  elections, re-election) —     │  re-elect globally on merges
//!    │  eval / CDS / plan untouched   │  — the charged node-rounds
//!    └──────────────┬────────────────-┘
//!                   ▼   ReconcileState::Repaired
//!    ┌─────────── PUBLISH ────────────┐  one tail for every repair:
//!    │  eval refreshed, plan patched, │  evaluation refresh, plan repair,
//!    │  CDS adopted on a head change, │  CDS adoption on a head-set
//!    │  component labels advanced,    │  change, component labels
//!    │  verdicts read, pending plan   │  advanced over the delta, verdicts
//!    │  swapped in atomically         │  read off their counts, plan
//!    │                                │  swapped atomically + epoch bump
//!    └──────────────┬────────────────-┘  — no torn mix for queries
//!                   ▼   ReconcileState::Done(StepReport)
//! ```
//!
//! The served [`RoutePlan`] only ever changes in the final instant of
//! publish: during observe and repair (and after a crash, until
//! [`ChurnEngine::recover`]) queries keep reading the pre-step plan.
//! A crash between phases leaves the engine flagged in-flight
//! ([`ChurnEngine::in_flight`]); [`ChurnEngine::recover`] restores
//! consistency with a full rebuild. [`FaultPlan`] injects such crashes
//! deterministically for the model checker.
//!
//! Each delta flows through `pipeline::advance_labels` (bounded BFS for
//! **dirty** and gained heads only, one row splice per advance), the
//! [`RepairLevel`] policy reads the refreshed labels to find orphaned
//! members and merged heads, shared repair primitives fix what broke,
//! and `pipeline::update_all_after` refreshes only the affected virtual
//! links and selections (in full when the head set changed). The
//! maintained evaluation is **bit-for-bit identical** to a from-scratch
//! `pipeline::run_all` on the current graph (pinned by the
//! `churn_equivalence` proptest and checked exhaustively as invariant
//! I1 in [`crate::invariants`]), while the existing [`RepairLevel`]
//! policy and node-round cost accounting ride on top unchanged.
//!
//! Publish proves validity at the cost of the delta, not of the graph.
//! The engine keeps [`ComponentLabels`] over the surviving nodes and
//! over the maintained CDS, and advances both over each delta (an
//! added edge relabels the smaller component, a removed edge searches
//! from both endpoints in lock step) and the CDS labels over the node
//! diff of each adoption; survivor connectivity
//! ([`ChurnEngine::alive_connected`]) and backbone connectivity are
//! their component counts. The pending plan is a clone of the served
//! one whose inter-head table is shared, so a localized patch copies
//! no table. Build, [`ChurnEngine::recover`] and the publish
//! escalation relabel at full price.
//!
//! A head-set change — a head loss, a local election, or a movement
//! re-election — publishes through the same incremental path: one more
//! label advance opens the new heads' rows and drops the lost ones, the
//! evaluation re-derives its head-space stages, and the plan is
//! repaired across the renumbering ([`RoutePlan::apply_delta`]). A
//! re-election is one more such head-set patch: repair runs the global
//! `cluster()` contest and hands publish the same summary a local
//! repair does, at the full level and a rebuild's price, so what it
//! publishes is exactly what a rebuild would. Only the two cold paths
//! named above, which lack the step's dirty set, rebuild from nothing.
//!
//! The repair itself is built from two private primitives at the
//! bottom of this module: `rejoin_one` (join the nearest surviving
//! head) and `elect_orphans` (local lowest-ID election among orphans
//! with no head in range).

use crate::invariants;
use crate::movement::{MovementConfig, RepairLevel, StepReport};
use adhoc_cluster::cds::Cds;
use adhoc_cluster::clustering::{cluster, Clustering, MemberPolicy};
use adhoc_cluster::pipeline::{self, AlgorithmSet, EvalScratch, EvaluationOutput};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::{InterMode, RoutePlan};
use adhoc_graph::bfs::{BfsScratch, UNREACHED};
use adhoc_graph::connectivity::{self, ComponentLabels};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::labels::HeadLabels;
use adhoc_graph::obs::Metrics;
use adhoc_graph::par::Parallelism;

/// Sentinel head for a node that is not in any cluster (departed).
const GONE: NodeId = NodeId(u32::MAX);

/// One operation of a [`ChurnEngine::reconcile_batch`] — a multi-node
/// delta expressed as the ordered list of departures and arrivals it
/// is composed of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Depart this (currently alive) node.
    Depart(NodeId),
    /// Re-attach this (currently departed) node to the subset of these
    /// neighbors that is alive when the op executes.
    Arrive(NodeId, Vec<NodeId>),
}

/// What to do with orphans that have **no** clusterhead within `k`
/// hops after a repair attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StrandedPolicy {
    /// Movement policy: coverage loss means it is time to re-elect
    /// globally ("least cluster change").
    FullRebuild,
    /// §3.3 departure rule: the stranded orphans elect heads among
    /// themselves with iterative lowest-ID contests (a *local* fix).
    Elect,
}

/// A phase boundary of the reconciliation state machine — the two
/// points where execution can be suspended, resumed, or crashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseBoundary {
    /// After **observe**: labels advanced and damage detected, but the
    /// CDS, evaluation, and route plan are all pre-step, and so is the
    /// clustering — except the departing node's own entries (its
    /// affiliation and, for a head, its head-list entry), which are
    /// retired before observe runs.
    Observed,
    /// After **repair**: the clustering is mutated (rejoins, elections,
    /// re-election), but the evaluation, verdicts, and route plan are
    /// still pre-step.
    Repaired,
}

/// Deterministic crash injection for one reconcile: the engine drops
/// its in-flight [`ReconcileState`] at the named boundary, exactly as
/// if the maintainer process died there. Used by the model checker to
/// cross every delta interleaving with every crash point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    crash_after: Option<PhaseBoundary>,
}

impl FaultPlan {
    /// No injected faults: the reconcile runs to completion.
    pub fn none() -> Self {
        FaultPlan { crash_after: None }
    }

    /// Crash (abandon the in-flight state) right after `boundary`.
    pub fn crash_after(boundary: PhaseBoundary) -> Self {
        FaultPlan {
            crash_after: Some(boundary),
        }
    }

    fn crashes_after(&self, boundary: PhaseBoundary) -> bool {
        self.crash_after == Some(boundary)
    }
}

/// Resumable intermediate state of one reconcile. Produced by
/// [`ChurnEngine::begin_delta`] / [`ChurnEngine::begin_depart`],
/// advanced one phase at a time by [`ChurnEngine::resume`], finished
/// by [`ChurnEngine::finish`].
///
/// Dropping a non-`Done` state without resuming models a crash: the
/// engine stays flagged [`ChurnEngine::in_flight`] until
/// [`ChurnEngine::recover`] restores consistency.
#[derive(Debug)]
pub enum ReconcileState {
    /// Observe finished; repair is next.
    Observed(Box<Observation>),
    /// Repair finished; publish is next.
    Repaired(Box<Repaired>),
    /// The reconcile completed with this report.
    Done(StepReport),
}

/// What the observe phase saw (opaque; feed it back via
/// [`ChurnEngine::resume`]).
#[derive(Debug)]
pub struct Observation {
    delta: TopologyDelta,
    /// The node that left or joined the survivor set, if any.
    churned: Churned,
    /// Label slots the advance swept, in the post-advance numbering.
    swept: Vec<usize>,
    orphans: Vec<NodeId>,
    merged_head_pairs: usize,
    fresh_dist: Vec<(NodeId, u32)>,
    policy: StrandedPolicy,
}

/// What the repair phase did (opaque; feed it back via
/// [`ChurnEngine::resume`]): the delta, the survivor-set change and
/// one patch summary, whatever the repair was — publish applies all
/// of them the same way.
#[derive(Debug)]
pub struct Repaired {
    delta: TopologyDelta,
    churned: Churned,
    patch: Patch,
}

/// The node a reconcile removes from or adds to the survivor set (a
/// departure or an arrival); movement deltas change neither.
#[derive(Clone, Copy, Debug, Default)]
struct Churned {
    left: Option<NodeId>,
    arrived: Option<NodeId>,
}

/// Repair summary carried into publish: a local repair (rejoins, local
/// elections, a departed head's removal) or a global re-election
/// (merged heads, or stranded orphans under the movement policy).
#[derive(Debug)]
struct Patch {
    /// Label slots observe's advance swept.
    swept: Vec<usize>,
    /// The head set may differ from the published evaluation's: a head
    /// departed, stranded orphans elected new heads, or the clustering
    /// was re-elected. Publish then adopts the refreshed CDS and
    /// charges its information cost.
    heads_changed: bool,
    level: RepairLevel,
    orphans: usize,
    /// Merged head pairs: the pairs that triggered a re-election, or
    /// detected-but-unrepaired merges under a capped policy.
    merged: usize,
    /// Node-rounds charged before publish: the rejoin and election
    /// probes of a local repair, or the survivor count of a
    /// re-election.
    cost: usize,
}

/// A connected k-hop clustering, its gateway CDS, and the evaluation of
/// the configured algorithm, kept alive under topology churn at
/// incremental cost.
///
/// The engine owns its view of the topology. Reconcile it with
/// [`Self::step`] (snapshot; the delta is diffed), advance it with
/// [`Self::step_delta`] (exact delta, e.g. from a
/// [`SpatialGrid`](adhoc_graph::gen::SpatialGrid)), remove a node
/// with [`Self::depart`], or bring a departed node back with
/// [`Self::arrive`] — arrivals are first-class reconciles that flow
/// through the same observe/repair/publish machine.
///
/// All of those are convenience drivers over the explicit state
/// machine ([`Self::begin_delta`], [`Self::begin_depart`],
/// [`Self::resume`], [`Self::finish`]); fault-injecting variants
/// ([`Self::step_delta_faulted`], [`Self::depart_faulted`]) crash at a
/// chosen [`PhaseBoundary`] instead.
#[derive(Clone, Debug)]
pub struct ChurnEngine {
    cfg: MovementConfig,
    /// Current clustering (heads + affiliations; departed nodes carry a
    /// sentinel head and belong to no cluster).
    pub clustering: Clustering,
    /// Current maintained CDS (heads + gateways). Per the lazy repair
    /// policy it adopts refreshed gateways only when a repair level
    /// says the old ones broke.
    pub cds: Cds,
    graph: Graph,
    departed: Vec<bool>,
    eval: EvaluationOutput,
    scratch: EvalScratch,
    /// Orphan k-ball probes (the charged part of re-affiliation).
    bfs: BfsScratch,
    /// Detection scratch, per node: a swept head's member's distance
    /// (`UNREACHED` outside any detection) and whether it was tested.
    near_head: Vec<u32>,
    tested: Vec<bool>,
    /// Verification verdict of the last reconciled state.
    last_valid: bool,
    /// Component labels of the subgraph the surviving (non-departed)
    /// nodes induce, advanced by each publish: the survivor
    /// connectivity verdict is their count.
    alive: ComponentLabels,
    /// Component labels of the maintained CDS's induced subgraph,
    /// advanced by each publish over the delta and over the node diff
    /// of every CDS adoption: the backbone verdict is their count.
    backbone: ComponentLabels,
    /// Members a capped repair parked on the departed sentinel since
    /// observe last collected them (a superset: entries re-homed or
    /// departed since are skipped when read).
    stranded: Vec<NodeId>,
    /// Compiled route plan over the maintained algorithm's backbone,
    /// kept current under churn once [`Self::enable_routing`] turns
    /// serving on. Only replaced in the last instant of the publish
    /// phase (atomic swap + epoch bump) — never mutated in place while
    /// a reconcile is in flight.
    route_plan: Option<RoutePlan>,
    /// Inter-head layout policy every (re)compiled plan is built under
    /// (set by [`Self::enable_routing_with_inter`]).
    inter_mode: InterMode,
    /// Publication counter stamped onto every swapped-in plan.
    plan_epoch: u64,
    /// Set while a reconcile has run observe (and possibly repair) but
    /// not publish. A crash leaves it set; [`Self::recover`] clears it.
    in_flight: Option<PhaseBoundary>,
    /// Observability handle ([`Metrics::disabled`] by default): the
    /// per-phase reconcile spans, damage counters, and publish events
    /// report into it, and [`Self::set_metrics`] shares it with the
    /// scratch so the pipeline's label/eval metrics land in the same
    /// registry.
    metrics: Metrics,
}

impl ChurnEngine {
    /// Builds the initial structure on `g` (full pipeline run).
    pub fn build(g: &Graph, cfg: MovementConfig) -> Self {
        let clustering = cluster(g, cfg.k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        // The engine publishes one algorithm; every evaluation path
        // (build, patch, head-set splice, re-election, cold rebuild) goes through
        // this scratch and computes only that one.
        scratch.set_algorithms(AlgorithmSet::only(cfg.algorithm));
        let eval = pipeline::run_all_with(g, &clustering, &mut scratch);
        let cds = eval.of(cfg.algorithm).cds.clone();
        let mut engine = ChurnEngine {
            cfg,
            clustering,
            cds,
            graph: g.clone(),
            departed: vec![false; g.len()],
            eval,
            scratch,
            bfs: BfsScratch::new(g.len()),
            near_head: Vec::new(),
            tested: Vec::new(),
            last_valid: true,
            alive: ComponentLabels::default(),
            backbone: ComponentLabels::default(),
            stranded: Vec::new(),
            route_plan: None,
            inter_mode: InterMode::Auto,
            plan_epoch: 0,
            in_flight: None,
            metrics: Metrics::disabled(),
        };
        engine.refresh_validity();
        engine
    }

    /// Turns route serving on: compiles a [`RoutePlan`] over the
    /// maintained algorithm's backbone and keeps it current through
    /// every subsequent step, departure, and rebuild. The maintained
    /// plan is always identical to one compiled from scratch on the
    /// engine's current state (pinned by the `route_churn` tests).
    pub fn enable_routing(&mut self) {
        self.enable_routing_with_inter(InterMode::Auto);
    }

    /// As [`Self::enable_routing`], with an explicit inter-head layout
    /// policy for the maintained plan (`khop route --inter` drives
    /// this); the policy survives every recompile the maintainer does.
    pub fn enable_routing_with_inter(&mut self, inter: InterMode) {
        self.inter_mode = inter;
        let plan = self.compile_plan();
        self.install_plan(plan);
    }

    /// The maintained route plan (`None` until
    /// [`Self::enable_routing`]).
    pub fn route_plan(&self) -> Option<&RoutePlan> {
        self.route_plan.as_ref()
    }

    /// Compiles a plan from the engine's current evaluation (does not
    /// install it — that is publish's atomic swap).
    fn compile_plan(&self) -> RoutePlan {
        RoutePlan::compile_metered(
            &self.graph,
            &self.clustering,
            self.scratch.labels(),
            self.eval.selected_links(self.cfg.algorithm),
            self.inter_mode,
            self.scratch.parallelism(),
            &self.metrics,
        )
    }

    /// The worker-pool policy the engine's label sweeps, plan
    /// compiles, and repairs run under (defaults to the environment's
    /// [`Parallelism::from_env`] via [`EvalScratch`]).
    pub fn workers(&self) -> Parallelism {
        self.scratch.parallelism()
    }

    /// Sets the worker-pool policy for every subsequent label sweep,
    /// plan compile, and repair. Worker counts never change results —
    /// every parallel path is bit-identical to serial — so this is
    /// purely a throughput knob (`khop churn --workers` drives it).
    pub fn set_workers(&mut self, par: Parallelism) {
        self.scratch.set_workers(par);
    }

    /// Attaches an observability handle: every subsequent reconcile
    /// reports per-phase spans (`reconcile.observe_ns` /
    /// `reconcile.repair_ns` / `reconcile.publish_ns`, with the nested
    /// `reconcile.detect_ns` inside observe and `reconcile.copy_ns`,
    /// `reconcile.components_ns` and `reconcile.validity_ns` — itself
    /// holding `reconcile.validity.backbone_ns` and
    /// `reconcile.validity.alive_ns` — inside publish), damage counts
    /// and histograms, escalation/publish events — and, because the
    /// handle is shared with the engine's [`EvalScratch`], the
    /// pipeline's label-sweep and eval metrics land in the same
    /// registry. Pass [`Metrics::disabled`] to turn reporting back off
    /// (the default; every report is then a one-branch no-op).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.scratch.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    /// The attached observability handle (disabled unless
    /// [`Self::set_metrics`] installed a live one).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Atomically publishes `plan`: bumps the epoch, stamps it, swaps
    /// it in. The single point where [`Self::route_plan`] changes.
    fn install_plan(&mut self, mut plan: RoutePlan) {
        self.plan_epoch += 1;
        plan.set_epoch(self.plan_epoch);
        self.metrics.inc("plan.published");
        self.metrics.event("plan.publish", self.plan_epoch);
        self.route_plan = Some(plan);
    }

    /// Recompiles and publishes the maintained route plan from the
    /// engine's current evaluation — the cold rebuild's path; every
    /// reconcile that knows its dirty set, head-set changes included,
    /// patches a pending clone via [`RoutePlan::apply_delta`] instead.
    fn republish_plan(&mut self) {
        if self.route_plan.is_some() {
            let plan = self.compile_plan();
            self.install_plan(plan);
        }
    }

    /// The configured policy.
    pub fn config(&self) -> &MovementConfig {
        &self.cfg
    }

    /// The engine's current view of the topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The maintained evaluation of the configured algorithm (the only
    /// entry of its `outputs`; the AC graph is empty unless that
    /// algorithm is an AC one) — always bit-for-bit that algorithm's
    /// entry, and the graphs it reads, of what `pipeline::run_all`
    /// computes on the current graph and clustering.
    pub fn evaluation(&self) -> &EvaluationOutput {
        &self.eval
    }

    /// The incrementally maintained head labels.
    pub fn labels(&self) -> &HeadLabels {
        self.scratch.labels()
    }

    /// Whether `u` has departed.
    pub fn is_departed(&self, u: NodeId) -> bool {
        self.departed[u.index()]
    }

    /// The last reconcile's validity verdict (whether the maintained
    /// structure verifies as a k-hop CDS over the surviving nodes):
    /// backbone connectivity read off the maintained CDS component
    /// labels, and k-hop domination (by construction under the full
    /// repair policy, by a sweep otherwise). Current once publish
    /// returns; mid-reconcile it is the pre-step verdict.
    pub fn is_valid(&self) -> bool {
        self.last_valid
    }

    /// Whether the surviving (non-departed) nodes induce a connected
    /// subgraph — validity can only be demanded when they do. O(1): it
    /// reads the component count of the survivor labels that every
    /// publish advances over its delta (edges at departed nodes are
    /// ignored, as in `connectivity::is_subset_connected`). Current
    /// once publish returns; mid-reconcile it is the pre-step verdict.
    pub fn alive_connected(&self) -> bool {
        self.alive.is_connected()
    }

    /// Component labels of the subgraph the surviving nodes induce
    /// (departed nodes are off the mask), as every publish advances
    /// them: `same_component(u, v)` is whether the live topology still
    /// connects `u` and `v`. Current once publish returns.
    pub fn survivor_components(&self) -> &ComponentLabels {
        &self.alive
    }

    /// The boundary an interrupted reconcile stopped at, if one is in
    /// flight (a crash injected by [`FaultPlan`], or a suspended state
    /// machine whose [`ReconcileState`] the caller still holds).
    pub fn in_flight(&self) -> Option<PhaseBoundary> {
        self.in_flight
    }

    /// Restores consistency after a crash: if a reconcile is in
    /// flight, pays a full rebuild (re-election, evaluation, verdicts,
    /// plan republication) and clears the flag. Returns the rebuild's
    /// report, or `None` if nothing was in flight.
    pub fn recover(&mut self) -> Option<StepReport> {
        self.in_flight?;
        let report = self.full_rebuild(0);
        self.in_flight = None;
        Some(report)
    }

    /// Reconciles the structure with a new topology snapshot, choosing
    /// the cheapest sufficient repair. Returns what was done. Snapshot
    /// edges at departed nodes are dropped: a switched-off node has no
    /// links until it arrives again.
    ///
    /// # Panics
    /// Panics if the node count changed (the engine's node set is
    /// fixed; departures isolate) or a reconcile is in flight.
    pub fn step(&mut self, g: &Graph) -> StepReport {
        assert_eq!(g.len(), self.graph.len(), "the engine's node set is fixed");
        assert!(
            self.in_flight.is_none(),
            "a reconcile is in flight; recover() first"
        );
        let delta = self.survivors_only(TopologyDelta::between(&self.graph, g));
        delta.apply_to(&mut self.graph);
        let state = self.observe(delta, StrandedPolicy::FullRebuild, Churned::default());
        self.finish(state)
    }

    /// As [`Self::step`], but fed the exact edge delta (no snapshot
    /// diffing; this is what delta producers like the mobility grid
    /// drive).
    pub fn step_delta(&mut self, delta: &TopologyDelta) -> StepReport {
        let state = self.begin_delta(delta);
        self.finish(state)
    }

    /// As [`Self::step_delta`], with deterministic crash injection:
    /// returns `Err(boundary)` if the fault plan crashed the reconcile
    /// there (the engine is then [`Self::in_flight`] and must
    /// [`Self::recover`] before the next reconcile).
    pub fn step_delta_faulted(
        &mut self,
        delta: &TopologyDelta,
        faults: FaultPlan,
    ) -> Result<StepReport, PhaseBoundary> {
        let state = self.begin_delta(delta);
        self.drive(state, faults)
    }

    /// §3.3 departure of `u` through the incremental engine: exactly a
    /// delta removing `u`'s edges, plus the role-aware repair rule —
    /// bystanders cost nothing, a gateway's loss disconnects the
    /// maintained CDS and triggers only the gateway refresh, and a
    /// departing clusterhead orphans its members, who re-join surviving
    /// heads or elect locally among themselves.
    ///
    /// # Panics
    /// Panics if `u` departed already or a reconcile is in flight.
    pub fn depart(&mut self, u: NodeId) -> StepReport {
        let state = self.begin_depart(u);
        self.finish(state)
    }

    /// As [`Self::depart`], with deterministic crash injection (see
    /// [`Self::step_delta_faulted`]).
    pub fn depart_faulted(
        &mut self,
        u: NodeId,
        faults: FaultPlan,
    ) -> Result<StepReport, PhaseBoundary> {
        let state = self.begin_depart(u);
        self.drive(state, faults)
    }

    /// §3.3 arrival of `u` through the incremental engine: exactly a
    /// delta re-attaching the (previously departed) node to its alive
    /// `neighbors`, plus the newcomer rule — join the nearest
    /// clusterhead within `k` hops (distance, then head ID) or, when
    /// none is in range, elect locally. The label arena gains at most
    /// one spliced row; nothing is rebuilt wholesale.
    ///
    /// # Panics
    /// Panics if `u` is already present, a neighbor is departed or
    /// `u` itself, or a reconcile is in flight.
    pub fn arrive(&mut self, u: NodeId, neighbors: &[NodeId]) -> StepReport {
        let state = self.begin_arrive(u, neighbors);
        self.finish(state)
    }

    /// As [`Self::arrive`], with deterministic crash injection (see
    /// [`Self::step_delta_faulted`]).
    pub fn arrive_faulted(
        &mut self,
        u: NodeId,
        neighbors: &[NodeId],
        faults: FaultPlan,
    ) -> Result<StepReport, PhaseBoundary> {
        let state = self.begin_arrive(u, neighbors);
        self.drive(state, faults)
    }

    /// Drives one batched reconcile over a multi-node delta: every op
    /// runs its full observe/repair/publish reconcile **except** that
    /// the maintained route plan is suspended for the duration and
    /// republished exactly once at the end — one plan compile for the
    /// whole batch instead of one per op.
    ///
    /// The plan never feeds any observe/repair/publish *decision*
    /// (it is pure output), so the final clustering, labels,
    /// evaluation, CDS, verdicts, and the per-op [`StepReport`]s are
    /// bit-identical to running the same ops as individual reconciles
    /// — and the final plan content-equals the sequential one (pinned
    /// by the `batch_reconcile_matches_sequential` test). Only the
    /// epoch differs: one publish instead of `ops.len()`.
    ///
    /// [`BatchOp::Arrive`] neighbors are filtered against the departed
    /// set *at execution time*, matching the flash-crowd semantics of
    /// [`crate::adversary::heal`]: a crowd returning together
    /// reconstructs its internal edges pair by pair as the batch
    /// progresses.
    ///
    /// # Panics
    /// As [`Self::depart`] / [`Self::arrive`] for the offending op.
    pub fn reconcile_batch(&mut self, ops: &[BatchOp]) -> Vec<StepReport> {
        let suspended = self.route_plan.take();
        let mut reports = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                BatchOp::Depart(u) => reports.push(self.depart(*u)),
                BatchOp::Arrive(u, neighbors) => {
                    let alive: Vec<NodeId> = neighbors
                        .iter()
                        .copied()
                        .filter(|&w| !self.departed[w.index()])
                        .collect();
                    reports.push(self.arrive(*u, &alive));
                }
            }
        }
        if suspended.is_some() {
            let plan = self.compile_plan();
            self.install_plan(plan);
        }
        reports
    }

    // -----------------------------------------------------------------
    // The explicit state machine.
    // -----------------------------------------------------------------

    /// Runs the **observe** phase for an edge delta: applies it to the
    /// owned graph, advances the label arena, and detects damage.
    /// Nothing downstream (clustering, CDS, evaluation, plan) changes.
    /// Edges at departed nodes are dropped (see [`Self::step`]).
    ///
    /// # Panics
    /// Panics if a reconcile is already in flight.
    pub fn begin_delta(&mut self, delta: &TopologyDelta) -> ReconcileState {
        assert!(
            self.in_flight.is_none(),
            "a reconcile is in flight; recover() first"
        );
        let delta = self.survivors_only(delta.clone());
        delta.apply_to(&mut self.graph);
        self.observe(delta, StrandedPolicy::FullRebuild, Churned::default())
    }

    /// `delta` without the edges that touch a departed node. Departed
    /// nodes stay isolated, so no relabelling, election or route ever
    /// reaches a switched-off node (a fresh election would otherwise
    /// make one a head, and stripping it would leave its members
    /// affiliated to a non-head).
    fn survivors_only(&self, mut delta: TopologyDelta) -> TopologyDelta {
        let alive =
            |&(a, b): &(NodeId, NodeId)| !self.departed[a.index()] && !self.departed[b.index()];
        delta.added.retain(alive);
        delta.removed.retain(alive);
        delta
    }

    /// Runs the **observe** phase for the departure of `u` (the delta
    /// isolating it, plus the §3.3 role-aware damage detection).
    ///
    /// # Panics
    /// Panics if `u` departed already or a reconcile is in flight.
    pub fn begin_depart(&mut self, u: NodeId) -> ReconcileState {
        assert!(
            self.in_flight.is_none(),
            "a reconcile is in flight; recover() first"
        );
        assert!(!self.departed[u.index()], "{u:?} departed already");
        let delta = TopologyDelta::isolating(&self.graph, u);
        self.departed[u.index()] = true;
        delta.apply_to(&mut self.graph);
        if let Ok(pos) = self.clustering.heads.binary_search(&u) {
            // §3.3 head loss: observe splices the row out, and the
            // members surface as orphans like any other.
            self.clustering.heads.remove(pos);
            self.metrics.inc("reconcile.head_loss");
        }
        self.clustering.head_of[u.index()] = GONE;
        self.clustering.dist_to_head[u.index()] = 0;
        let churned = Churned {
            left: Some(u),
            arrived: None,
        };
        self.observe(delta, StrandedPolicy::Elect, churned)
    }

    /// Runs the **observe** phase for the arrival of `u`: the delta
    /// attaching it to `neighbors` flows through the same label
    /// advance and damage detection as any other delta, with the
    /// newcomer seeded into the orphan set so repair applies §3.3's
    /// join-or-elect rule.
    ///
    /// # Panics
    /// Panics if `u` is already present, a neighbor is departed or
    /// `u` itself, or a reconcile is in flight.
    pub fn begin_arrive(&mut self, u: NodeId, neighbors: &[NodeId]) -> ReconcileState {
        assert!(
            self.in_flight.is_none(),
            "a reconcile is in flight; recover() first"
        );
        assert!(self.departed[u.index()], "{u:?} is already present");
        let mut delta = TopologyDelta::new();
        for &w in neighbors {
            assert_ne!(w, u, "arrival edge from {u:?} to itself");
            assert!(
                !self.departed[w.index()],
                "arrival edge to departed node {w:?}"
            );
            delta.push_added(u, w);
        }
        delta.normalize();
        self.departed[u.index()] = false;
        self.clustering.head_of[u.index()] = GONE;
        self.clustering.dist_to_head[u.index()] = 0;
        delta.apply_to(&mut self.graph);
        let churned = Churned {
            left: None,
            arrived: Some(u),
        };
        self.observe(delta, StrandedPolicy::Elect, churned)
    }

    /// Advances a suspended reconcile by exactly one phase. Feeding a
    /// `Done` state back is a no-op.
    ///
    /// # Panics
    /// Panics if `state` is stale — i.e. it does not match the phase
    /// the engine is actually suspended at (e.g. the engine recovered
    /// from a crash since the state was produced).
    pub fn resume(&mut self, state: ReconcileState) -> ReconcileState {
        match state {
            ReconcileState::Observed(obs) => {
                assert_eq!(
                    self.in_flight,
                    Some(PhaseBoundary::Observed),
                    "stale reconcile state"
                );
                self.repair(*obs)
            }
            ReconcileState::Repaired(rep) => {
                assert_eq!(
                    self.in_flight,
                    Some(PhaseBoundary::Repaired),
                    "stale reconcile state"
                );
                self.publish(*rep)
            }
            done @ ReconcileState::Done(_) => done,
        }
    }

    /// Drives a suspended reconcile through its remaining phases.
    pub fn finish(&mut self, mut state: ReconcileState) -> StepReport {
        loop {
            match state {
                ReconcileState::Done(report) => return report,
                live => state = self.resume(live),
            }
        }
    }

    /// Drives `state` to completion unless `faults` crashes it at a
    /// phase boundary first (the in-flight state is then abandoned, as
    /// a dying maintainer would).
    fn drive(
        &mut self,
        mut state: ReconcileState,
        faults: FaultPlan,
    ) -> Result<StepReport, PhaseBoundary> {
        loop {
            match state {
                ReconcileState::Done(report) => return Ok(report),
                ReconcileState::Observed(_) if faults.crashes_after(PhaseBoundary::Observed) => {
                    return Err(PhaseBoundary::Observed);
                }
                ReconcileState::Repaired(_) if faults.crashes_after(PhaseBoundary::Repaired) => {
                    return Err(PhaseBoundary::Repaired);
                }
                live => state = self.resume(live),
            }
        }
    }

    /// Observe: advance the label arena over the already-applied
    /// `delta` and head set (bounded BFS for dirty heads only, one row
    /// splice for a departed head) and detect damage — orphaned
    /// members, merged head pairs. Pure detection: repairs happen in
    /// the next phase. An arriving node (`churned.arrived`, with no
    /// affiliation yet) is seeded straight into the orphan set so
    /// repair re-homes it via the §3.3 join-or-elect rule.
    fn observe(
        &mut self,
        delta: TopologyDelta,
        policy: StrandedPolicy,
        churned: Churned,
    ) -> ReconcileState {
        let newcomer = churned.arrived;
        // A departing head left the head list already; its row must go
        // even when it was isolated before (an empty delta).
        let head_lost = self.scratch.labels().heads() != &self.clustering.heads[..];
        if delta.is_empty() && newcomer.is_none() && !head_lost {
            // Nothing moved: the previous verdict stands — an idle
            // beacon costs O(1), no connectivity sweeps. An isolated
            // non-head that departed only drops a singleton survivor
            // component and its own claim to domination, so the
            // verdict is re-read.
            if let Some(u) = churned.left {
                {
                    let _components = self.metrics.span("reconcile.components_ns");
                    self.alive.update(&self.graph, &delta, &[u], &[]);
                }
                self.last_valid = self.backbone.is_connected() && self.dominated();
            }
            self.metrics.inc("reconcile.noop");
            return ReconcileState::Done(StepReport {
                level: RepairLevel::None,
                orphans: 0,
                merged_head_pairs: 0,
                cost: 0,
                valid: self.last_valid,
                dirty_heads: 0,
            });
        }
        let _observe = self.metrics.span("reconcile.observe_ns");
        self.metrics.inc("reconcile.count");

        let swept =
            pipeline::advance_labels(&self.graph, &self.clustering, &delta, &mut self.scratch);

        let detect = self.metrics.span("reconcile.detect_ns");
        let mut orphans = Vec::new();
        let mut fresh_dist = Vec::new();
        let mut merged_head_pairs = 0usize;
        // A delta no head ball absorbed, on an unchanged head set,
        // leaves every label row — and with it every ≤2k+1-hop
        // distance the policy reads — bit-identical, so the orphan and
        // merge verdicts are exactly
        // last step's end state: none (every step ends with all alive
        // members within k of their head and no merged pair, or it
        // escalated to a full rebuild that restored both). The whole
        // detection pass is skipped; the evaluation still refreshes in
        // publish because an engine maintaining the global G-MST
        // baseline reads component structure outside the balls (the
        // localized algorithms' refresh re-runs no head then).
        if head_lost || !swept.is_empty() {
            // Policy detection off the labels: orphaned members (lost
            // their ≤k-hop head path) and merged head pairs. These
            // reads ride on the beacons a distributed realization
            // already exchanges, so they are not charged (same stance
            // as the old engine).
            (orphans, fresh_dist) = self.detect_orphans(&delta, &swept, newcomer);
            merged_head_pairs =
                merged_pairs(self.scratch.labels(), &swept, self.cfg.merge_distance);
        }
        if let Some(u) = newcomer {
            orphans.push(u);
            orphans.sort_unstable();
        }
        drop(detect);
        self.metrics.add("reconcile.orphans", orphans.len() as u64);
        self.metrics
            .add("reconcile.merged_head_pairs", merged_head_pairs as u64);
        self.in_flight = Some(PhaseBoundary::Observed);
        ReconcileState::Observed(Box::new(Observation {
            delta,
            churned,
            swept,
            orphans,
            merged_head_pairs,
            fresh_dist,
            policy,
        }))
    }

    /// Orphans (ascending) and the refreshed head distances of the
    /// members that keep their head, reading only rows the advance
    /// swept. A member's distance can change only if its head's row
    /// was swept — an unswept row's `2k+1` ball is as before — so the
    /// nodes tested are the members of swept heads, the members
    /// stranded on the departed sentinel, and the members of a
    /// departed head. The swept heads' members still within `k` are
    /// read off their rows; a member whose `≤k` head path broke lies
    /// within `k − 1` hops (on the post-delta graph) of an endpoint of
    /// that path's last removed edge, and so does every member of a
    /// departed head, whose edges the delta removed.
    fn detect_orphans(
        &mut self,
        delta: &TopologyDelta,
        swept: &[usize],
        newcomer: Option<NodeId>,
    ) -> (Vec<NodeId>, Vec<(NodeId, u32)>) {
        let k = self.cfg.k;
        let labels = self.scratch.labels();
        let clustering = &self.clustering;
        let n = self.graph.len();
        // Per node scratch, restored on the way out: a swept head's
        // member's distance within k, and whether a node was tested.
        let near = &mut self.near_head;
        near.resize(n, UNREACHED);
        let tested = &mut self.tested;
        tested.resize(n, false);
        let mut is_swept = vec![false; labels.heads().len()];
        let mut candidates: Vec<NodeId> = Vec::new();
        for &slot in swept {
            is_swept[slot] = true;
            let h = labels.heads()[slot];
            for (v, d) in labels.within(slot, k) {
                if clustering.head_of(v) == h {
                    near[v.index()] = d;
                    candidates.push(v);
                }
            }
        }
        let cut: Vec<NodeId> = delta.removed.iter().flat_map(|&(a, b)| [a, b]).collect();
        if !cut.is_empty() {
            self.bfs.run_multi(&self.graph, &cut, k.saturating_sub(1));
            candidates.extend_from_slice(self.bfs.visited());
        }
        candidates.append(&mut self.stranded);

        let mut orphans = Vec::new();
        let mut fresh_dist = Vec::new();
        for &v in &candidates {
            if tested[v.index()] {
                continue;
            }
            tested[v.index()] = true;
            if self.departed[v.index()] || clustering.is_head(v) || Some(v) == newcomer {
                continue;
            }
            let h = clustering.head_of(v);
            if h == GONE {
                // Knowingly stranded by a capped repair policy (no head
                // was within k and the cap forbade an election): retry
                // re-homing. Untouched deltas skip detection — no label
                // ball changed, so no head moved within reach either.
                orphans.push(v);
                continue;
            }
            match labels.slot(h) {
                Some(slot) if is_swept[slot] => match near[v.index()] {
                    UNREACHED => orphans.push(v),
                    d => fresh_dist.push((v, d)),
                },
                // An unswept row: the distance stands.
                Some(_) => {}
                None => {
                    // The member of a departed head. Any other
                    // unlabeled head means clustering and labels
                    // disagree — a checkable inconsistency, not an
                    // abort: the member is orphaned either way so
                    // repair re-homes it.
                    invariants::soft_check(self.departed[h.index()], "affiliation head is labeled");
                    orphans.push(v);
                }
            }
        }
        for v in candidates {
            near[v.index()] = UNREACHED;
            tested[v.index()] = false;
        }
        orphans.sort_unstable();
        (orphans, fresh_dist)
    }

    /// Repair: mutate the clustering per the [`RepairLevel`] policy —
    /// record refreshed distances, rejoin orphans, elect stranded
    /// ones, re-elect globally on merges. The evaluation, CDS,
    /// verdicts, and route plan stay pre-step.
    fn repair(&mut self, obs: Observation) -> ReconcileState {
        let _repair = self.metrics.span("reconcile.repair_ns");
        let Observation {
            delta,
            churned,
            swept,
            orphans,
            merged_head_pairs,
            fresh_dist,
            policy,
        } = obs;

        let patch = if merged_head_pairs > 0 && self.cfg.max_level >= RepairLevel::Full {
            // Two heads drifted within merge distance: least cluster
            // change says re-elect globally (refreshed member
            // distances are pointless — the head set is replaced).
            self.reelection(swept, orphans.len(), merged_head_pairs)
        } else {
            for &(v, d) in &fresh_dist {
                self.clustering.dist_to_head[v.index()] = d;
            }
            let mut level = RepairLevel::None;
            let mut cost = 0usize;
            let mut reelect = false;
            if !orphans.is_empty() && self.cfg.max_level < RepairLevel::Reaffiliate {
                // Capped below any repair: orphans are detached, not
                // re-homed (the plan compiler rejects stale >k
                // affiliations, and routing honestly loses them).
                for &v in &orphans {
                    self.strand(v);
                }
            } else if !orphans.is_empty() {
                // Re-affiliate each orphan to the nearest head within k
                // hops (distance, then head ID). The k-ball probe is
                // the charged node-round cost, exactly as before.
                level = RepairLevel::Reaffiliate;
                let mut stranded = Vec::new();
                for &v in &orphans {
                    let (probed, joined) =
                        rejoin_one(&self.graph, &mut self.clustering, v, &mut self.bfs);
                    cost += probed;
                    if !joined {
                        stranded.push(v);
                    }
                }
                if !stranded.is_empty() && self.cfg.max_level < RepairLevel::Full {
                    // The cap forbids the election (or re-election)
                    // the stranded set calls for; park them instead.
                    for v in stranded {
                        self.strand(v);
                    }
                } else if !stranded.is_empty() {
                    match policy {
                        // Coverage loss: least-cluster-change says this
                        // is the moment to re-elect.
                        StrandedPolicy::FullRebuild => reelect = true,
                        StrandedPolicy::Elect => {
                            cost += elect_orphans(
                                &self.graph,
                                &mut self.clustering,
                                stranded,
                                &mut self.bfs,
                            );
                        }
                    }
                }
            }
            if reelect {
                // The rejoin probes are not charged: a re-election pays
                // the full price instead.
                self.reelection(swept, orphans.len(), 0)
            } else {
                let heads_changed = self.eval.clustering.heads != self.clustering.heads;
                if heads_changed {
                    // A head loss or a local election. The head drop
                    // itself is forced; the *elective* part (stranded
                    // members electing replacements) is what a capped
                    // policy withholds.
                    level = RepairLevel::Full.min(self.cfg.max_level);
                }
                Patch {
                    swept,
                    heads_changed,
                    level,
                    orphans: orphans.len(),
                    merged: merged_head_pairs,
                    cost,
                }
            }
        };
        self.in_flight = Some(PhaseBoundary::Repaired);
        ReconcileState::Repaired(Box::new(Repaired {
            delta,
            churned,
            patch,
        }))
    }

    /// Re-elects globally and returns the patch publish applies for it:
    /// a head-set change at the full level, charged a rebuild's base
    /// price (one round per survivor; publish adds the gateway phase's
    /// information cost). It is flagged a head-set change without
    /// comparing head sets, so the fresh CDS is always adopted and
    /// charged. (A fresh election replaces the heads that triggered it
    /// anyway: it places heads more than `k` apart and every survivor
    /// within `k` of one.)
    fn reelection(&mut self, swept: Vec<usize>, orphans: usize, merged: usize) -> Patch {
        self.reelect();
        Patch {
            swept,
            heads_changed: true,
            level: RepairLevel::Full,
            orphans,
            merged,
            cost: self.survivors(),
        }
    }

    /// Publish: refresh the evaluation, recompute the validity
    /// verdicts, and — in the final instant — swap the pending route
    /// plan in atomically with an epoch bump. Until that swap, queries
    /// keep reading the pre-step plan.
    fn publish(&mut self, rep: Repaired) -> ReconcileState {
        let _publish = self.metrics.span("reconcile.publish_ns");
        let Repaired {
            delta,
            churned,
            patch,
        } = rep;
        let report = self.publish_patch(&delta, churned, patch);
        self.metrics
            .add("reconcile.cost_node_rounds", report.cost as u64);
        self.metrics.record("reconcile.cost", report.cost as u64);
        self.metrics
            .record("reconcile.dirty_heads", report.dirty_heads as u64);
        if report.level >= RepairLevel::Full {
            self.metrics.inc("reconcile.level_full");
        }
        self.in_flight = None;
        ReconcileState::Done(report)
    }

    /// Publish tail of every incremental reconcile, a re-election
    /// included: evaluation refresh, pending-plan repair, CDS adoption
    /// on a head-set change, component-label advance, verdicts,
    /// escalation, atomic swap.
    fn publish_patch(
        &mut self,
        delta: &TopologyDelta,
        churned: Churned,
        patch: Patch,
    ) -> StepReport {
        let Patch {
            swept,
            heads_changed,
            mut level,
            orphans,
            merged,
            mut cost,
        } = patch;

        // Refresh the maintained evaluation, then prepare the pending
        // plan without touching the served one: a clone's ascent rows
        // and backbone tables are patched off the delta, the dirty slots
        // and the re-affiliated nodes, across a local head change too.
        // The report counts re-swept plus opened rows.
        let (dirty, moved) = self.refresh_eval(delta, &swept);
        let pending = self.patched_plan(delta, &dirty, &moved);

        // Backbone check: the maintained CDS must still induce a
        // connected subgraph. A departed gateway shows up here too —
        // its isolated node disconnects the old CDS, and the refreshed
        // selection is adopted, which is §3.3's "re-run the gateway
        // selection". Both connectivity verdicts are component counts
        // of labels advanced over the delta (and over the node diff of
        // an adopted CDS), so no verdict sweeps the whole graph.
        let prior = heads_changed.then(|| {
            // A head loss, local election or re-election changed the
            // head set, so the maintained CDS must follow it — the lazy
            // gateway-adoption policy only applies while the head set
            // is stable. (Before this adoption the stale CDS could not
            // dominate an elected head, and every election escalated
            // into a global rebuild, defeating the local repair.)
            // Every head re-collects its 2k+1 ball.
            cost += self.information_cost();
            self.adopt_cds()
        });
        {
            let _components = self.metrics.span("reconcile.components_ns");
            let (left, arrived) = (churned.left.as_slice(), churned.arrived.as_slice());
            self.alive.update(&self.graph, delta, left, arrived);
            self.advance_backbone(delta, prior.as_ref());
        }
        let mut validity = self.metrics.span("reconcile.validity_ns");
        let mut backbone = self.metrics.span("reconcile.validity.backbone_ns");
        if !heads_changed
            && self.cfg.max_level >= RepairLevel::Gateways
            && self.backbone_can_reconnect()
        {
            // The refreshed selection replaces the broken backbone; the
            // copy and the label upkeep are timed on their own.
            drop(backbone);
            drop(validity);
            level = level.max(RepairLevel::Gateways);
            let prior = self.adopt_cds();
            cost += self.information_cost();
            {
                let _components = self.metrics.span("reconcile.components_ns");
                self.advance_backbone(&TopologyDelta::new(), Some(&prior));
            }
            validity = self.metrics.span("reconcile.validity_ns");
            backbone = self.metrics.span("reconcile.validity.backbone_ns");
        }
        let valid = self.backbone.is_connected() && self.dominated();
        drop(backbone);
        self.last_valid = valid;
        let alive_connected = {
            let _alive = self.metrics.span("reconcile.validity.alive_ns");
            self.alive_connected()
        };
        let escalate = !valid && alive_connected && self.cfg.max_level >= RepairLevel::Full;
        drop(validity);
        if escalate {
            // A repair on a connected graph must succeed; if it somehow
            // did not, escalate (the pending plan is discarded — the
            // rebuild republishes a fresh one). A capped policy is not
            // entitled to the escalation: it keeps serving the
            // degraded plan and reports `valid: false`.
            self.metrics.inc("reconcile.escalations");
            self.metrics.event("reconcile.escalation", orphans as u64);
            return self.full_rebuild(orphans);
        }
        if let Some(plan) = pending {
            self.install_plan(plan);
        }
        StepReport {
            level,
            orphans,
            merged_head_pairs: merged,
            cost,
            valid,
            dirty_heads: dirty.len(),
        }
    }

    /// Refreshes the maintained evaluation after repair. Observe
    /// already advanced every surviving row over the delta and dropped
    /// a departed head's row; when repair changed the head set (a local
    /// election, a re-election), one more advance with an empty delta
    /// drops the lost heads' rows and opens the new heads' — the arena
    /// is never rebuilt wholesale for a head change. Returns the dirty
    /// slots in the current numbering: the rows observe `swept` that
    /// survive, named by head ID across the renumbering, and the rows
    /// just opened; and the nodes whose head changed.
    fn refresh_eval(
        &mut self,
        delta: &TopologyDelta,
        swept: &[usize],
    ) -> (Vec<usize>, Vec<NodeId>) {
        let dirty = if self.scratch.labels().heads() == &self.clustering.heads[..] {
            swept.to_vec()
        } else {
            let heads = self.scratch.labels().heads();
            let swept_heads: Vec<NodeId> = swept.iter().map(|&s| heads[s]).collect();
            let opened = pipeline::advance_labels(
                &self.graph,
                &self.clustering,
                &TopologyDelta::new(),
                &mut self.scratch,
            );
            let labels = self.scratch.labels();
            let mut dirty: Vec<usize> = swept_heads
                .iter()
                .filter_map(|&h| labels.slot(h))
                .chain(opened)
                .collect();
            dirty.sort_unstable();
            dirty
        };
        let moved = pipeline::update_all_after(
            &self.graph,
            &self.clustering,
            delta,
            &dirty,
            &mut self.eval,
            &mut self.scratch,
        );
        (dirty, moved)
    }

    /// The pending plan, `None` while routing is off: a clone of the
    /// served one (sharing its inter table until a repair writes it)
    /// patched from the step's `delta` and the `dirty` slots and
    /// `moved` nodes of [`Self::refresh_eval`] — across a head-set
    /// change too, which renumbers its slots by head ID instead of
    /// compiling afresh.
    fn patched_plan(
        &self,
        delta: &TopologyDelta,
        dirty: &[usize],
        moved: &[NodeId],
    ) -> Option<RoutePlan> {
        let current = self.route_plan.as_ref()?;
        let mut plan = {
            let _copy = self.metrics.span("reconcile.copy_ns");
            current.clone()
        };
        plan.apply_delta_metered(
            &self.graph,
            &self.clustering,
            self.scratch.labels(),
            delta,
            dirty,
            moved,
            self.eval.selected_links(self.cfg.algorithm),
            self.scratch.parallelism(),
            &self.metrics,
        );
        Some(plan)
    }

    /// Whether re-adopting the refreshed selection could connect more
    /// of the backbone: the maintained CDS falls into more components
    /// than there are survivor components holding its nodes. On a
    /// disconnected field a CDS in one piece per survivor component is
    /// as connected as any CDS can be, so the re-adoption would change
    /// neither verdict.
    fn backbone_can_reconnect(&self) -> bool {
        !self.backbone.is_connected()
            && self.backbone.count() > self.alive.components_among(cds_nodes(&self.cds))
    }

    /// Parks `v` on the departed sentinel: a capped repair policy
    /// could not (or was not allowed to) re-home it, so it is
    /// knowingly unaffiliated — unroutable in the published plan, and
    /// retried by observe whenever a later delta touches a label ball.
    fn strand(&mut self, v: NodeId) {
        self.clustering.head_of[v.index()] = GONE;
        self.clustering.dist_to_head[v.index()] = 0;
        self.stranded.push(v);
    }

    /// Re-elects the clustering from scratch on the current graph and
    /// strips departed nodes (a fresh election gives each isolated
    /// departed node a singleton cluster — removed right after, which
    /// is exactly the §3.3 outcome for switched-off nodes). Every
    /// re-election, incremental or cold, counts once here as
    /// `reconcile.full_rebuild` with a `reconcile.rebuild` event
    /// carrying the new head count.
    fn reelect(&mut self) {
        let _reelect = self.metrics.span("reconcile.reelect_ns");
        let mut clustering = cluster(&self.graph, self.cfg.k, &LowestId, MemberPolicy::IdBased);
        for u in self.graph.nodes() {
            if self.departed[u.index()] {
                if let Ok(pos) = clustering.heads.binary_search(&u) {
                    clustering.heads.remove(pos);
                }
                clustering.head_of[u.index()] = GONE;
                clustering.dist_to_head[u.index()] = 0;
            }
        }
        self.clustering = clustering;
        // Every survivor has a head again.
        self.stranded.clear();
        self.metrics.inc("reconcile.full_rebuild");
        self.metrics
            .event("reconcile.rebuild", self.clustering.heads.len() as u64);
    }

    /// The number of surviving (non-departed) nodes: a rebuild's base
    /// price, one round each.
    fn survivors(&self) -> usize {
        self.departed.iter().filter(|&&d| !d).count()
    }

    /// Cold rebuild, for crash recovery and the publish escalation,
    /// which lack the step's dirty set: global re-election, full
    /// evaluation, fresh CDS, full-price cost accounting, fresh
    /// verdicts, plan republication.
    fn full_rebuild(&mut self, orphans: usize) -> StepReport {
        self.reelect();
        self.eval = pipeline::run_all_with(&self.graph, &self.clustering, &mut self.scratch);
        self.adopt_cds();
        let cost = self.survivors() + self.information_cost();
        self.refresh_validity();
        self.republish_plan();
        StepReport {
            level: RepairLevel::Full,
            orphans,
            merged_head_pairs: 0,
            cost,
            valid: self.last_valid,
            dirty_heads: self.clustering.heads.len(),
        }
    }

    /// Charged cost of the gateway phase: every head's `2k+1`-hop ball.
    /// Read off the maintained label arena (whose balls are exactly
    /// those neighborhoods) instead of re-running BFS.
    fn information_cost(&self) -> usize {
        let labels = self.scratch.labels();
        (0..self.clustering.heads.len())
            .map(|slot| labels.ball(slot).len())
            .sum()
    }

    /// The cost the rebuild-every-step baseline would pay on `g` (used
    /// by the comparison experiments; `g` may be a snapshot the engine
    /// has not reconciled with yet, so this probes it directly).
    pub fn rebuild_cost(&self, g: &Graph) -> usize {
        let mut scratch = BfsScratch::new(g.len());
        g.len()
            + self
                .clustering
                .heads
                .iter()
                .map(|&h| {
                    scratch.run(g, h, 2 * self.cfg.k + 1);
                    scratch.visited().len()
                })
                .sum::<usize>()
    }

    /// Full-price k-hop domination sweep over the maintained CDS's
    /// heads (multi-source BFS; departed nodes exempt).
    fn dominated_sweep(&self) -> bool {
        let dist = connectivity::distance_to_set(&self.graph, &self.cds.heads);
        self.graph
            .nodes()
            .all(|v| self.departed[v.index()] || dist[v.index()] <= self.cfg.k)
    }

    /// k-hop domination verdict of the maintained CDS. When the CDS
    /// carries the *current* head set, domination holds by
    /// construction — every reconcile ends with each alive member's
    /// label distance to its head verified or repaired to ≤ k, and a
    /// head covers itself — so the sweep is only paid while a lazily
    /// kept CDS still references a pre-election head set. Debug builds
    /// re-verify the construction argument on every call (routed
    /// through [`invariants::soft_check`] so the model checker records
    /// a violation instead of aborting).
    fn dominated(&self) -> bool {
        // The construction argument needs the full repair policy: a
        // capped engine knowingly strands members, so it always pays
        // the sweep and reports the damage honestly.
        if self.cds.heads == self.clustering.heads && self.cfg.max_level == RepairLevel::Full {
            if cfg!(debug_assertions) {
                invariants::soft_check(
                    self.dominated_sweep(),
                    "a reconciled step must leave every alive node within k of a head",
                );
            }
            return true;
        }
        self.dominated_sweep()
    }

    /// Replaces the maintained CDS with the evaluation's selection for
    /// the engine's algorithm (timed as `reconcile.copy_ns`) and
    /// returns the CDS it replaced.
    fn adopt_cds(&mut self) -> Cds {
        let _copy = self.metrics.span("reconcile.copy_ns");
        let adopted = self.eval.of(self.cfg.algorithm).cds.clone();
        std::mem::replace(&mut self.cds, adopted)
    }

    /// Advances the backbone labels over `delta` (already applied to
    /// the graph) and, when a CDS was adopted since they were last
    /// advanced, over the sorted node diff from `prior` to the
    /// maintained CDS.
    fn advance_backbone(&mut self, delta: &TopologyDelta, prior: Option<&Cds>) {
        let (mut leaving, mut entering) = (Vec::new(), Vec::new());
        if let Some(prior) = prior.filter(|&prior| *prior != self.cds) {
            let (mut old, mut new) = (cds_nodes(prior).peekable(), cds_nodes(&self.cds).peekable());
            loop {
                match (old.peek().copied(), new.peek().copied()) {
                    (Some(a), Some(b)) if a == b => {
                        old.next();
                        new.next();
                    }
                    (Some(a), Some(b)) if a < b => {
                        leaving.push(a);
                        old.next();
                    }
                    (Some(a), None) => {
                        leaving.push(a);
                        old.next();
                    }
                    (_, Some(b)) => {
                        entering.push(b);
                        new.next();
                    }
                    (None, None) => break,
                }
            }
        }
        self.backbone
            .update(&self.graph, delta, &leaving, &entering);
    }

    /// Recomputes both verification verdicts at full price: relabels
    /// the survivor and backbone components from scratch (timed as
    /// `reconcile.components_ns`), then reads the verdicts. Called
    /// whenever the CDS is rebuilt wholesale (build, cold rebuilds,
    /// [`Self::recover`]); incremental publishes advance the labels
    /// over their delta instead.
    fn refresh_validity(&mut self) {
        {
            let _components = self.metrics.span("reconcile.components_ns");
            let departed = &self.departed;
            self.alive.relabel(&self.graph, |v| !departed[v.index()]);
            let mut in_cds = vec![false; self.graph.len()];
            for v in cds_nodes(&self.cds) {
                in_cds[v.index()] = true;
            }
            self.backbone.relabel(&self.graph, |v| in_cds[v.index()]);
        }
        let _validity = self.metrics.span("reconcile.validity_ns");
        let _backbone = self.metrics.span("reconcile.validity.backbone_ns");
        self.last_valid = self.backbone.is_connected() && self.dominated();
    }
}

/// The nodes of `cds` ascending, merged from its two sorted, disjoint
/// lists without allocating.
fn cds_nodes(cds: &Cds) -> impl Iterator<Item = NodeId> + '_ {
    let (mut heads, mut gateways) = (cds.heads.iter().peekable(), cds.gateways.iter().peekable());
    std::iter::from_fn(move || match (heads.peek(), gateways.peek()) {
        (Some(&&h), Some(&&g)) if g < h => gateways.next().copied(),
        (Some(_), _) => heads.next().copied(),
        (None, _) => gateways.next().copied(),
    })
}

/// Head pairs newly within merge distance `md`, read off the swept
/// rows only: a pair can newly fall within merge distance only if its
/// head-to-head distance shrank, which requires (at least) one
/// endpoint's row to have absorbed the delta — and every completed
/// step ends merge-free (fresh elections place heads more than k
/// apart, and a detected merge escalates to re-election), so
/// clean-pair verdicts carry over. A pair of swept rows is counted
/// once, by whichever slot scans it first.
fn merged_pairs(labels: &HeadLabels, swept: &[usize], md: u32) -> usize {
    swept
        .iter()
        .map(|&slot| {
            labels
                .heads_within(slot, md)
                .into_iter()
                .filter_map(|other| labels.slot(other))
                .filter(|&o| !(o < slot && swept.binary_search(&o).is_ok()))
                .count()
        })
        .sum()
}

// ---------------------------------------------------------------------
// Repair primitives — the §3.3 building blocks the engine's repair
// phase composes.
// ---------------------------------------------------------------------

/// Re-joins orphan `v` to the nearest surviving clusterhead within `k`
/// hops (distance, then head ID — the deterministic policy the
/// clustering itself uses), recording the exact distance. Returns the
/// size of the k-ball probe (the charged node-rounds) and whether a
/// head was found.
fn rejoin_one(
    g: &Graph,
    clustering: &mut Clustering,
    v: NodeId,
    scratch: &mut BfsScratch,
) -> (usize, bool) {
    scratch.run(g, v, clustering.k);
    let probed = scratch.visited().len();
    let best = scratch
        .visited()
        .iter()
        .filter(|&&h| clustering.is_head(h) && h != v)
        .map(|&h| (scratch.dist(h), h))
        .min();
    match best {
        Some((d, h)) => {
            clustering.head_of[v.index()] = h;
            clustering.dist_to_head[v.index()] = d;
            (probed, true)
        }
        None => (probed, false),
    }
}

/// §3.3's local election: orphans with no surviving head within `k`
/// hops elect heads among themselves with iterative lowest-ID contests
/// restricted to the undecided set. Returns the total k-ball probe
/// size (charged node-rounds).
fn elect_orphans(
    g: &Graph,
    clustering: &mut Clustering,
    mut undecided: Vec<NodeId>,
    scratch: &mut BfsScratch,
) -> usize {
    let mut probes = 0usize;
    while !undecided.is_empty() {
        undecided.sort_unstable();
        let mut winners = Vec::new();
        for &v in &undecided {
            scratch.run(g, v, clustering.k);
            probes += scratch.visited().len();
            let wins = scratch
                .visited()
                .iter()
                .all(|&w| w == v || !undecided.contains(&w) || w > v);
            if wins {
                winners.push(v);
            }
        }
        assert!(!winners.is_empty(), "smallest orphan always wins");
        let mut next = Vec::new();
        for &v in &undecided {
            if winners.contains(&v) {
                clustering.head_of[v.index()] = v;
                clustering.dist_to_head[v.index()] = 0;
                let pos = clustering.heads.binary_search(&v).unwrap_err();
                clustering.heads.insert(pos, v);
                continue;
            }
            scratch.run(g, v, clustering.k);
            probes += scratch.visited().len();
            let best = winners
                .iter()
                .filter(|&&h| scratch.dist(h) != UNREACHED)
                .map(|&h| (scratch.dist(h), h))
                .min();
            match best {
                Some((d, h)) => {
                    clustering.head_of[v.index()] = h;
                    clustering.dist_to_head[v.index()] = d;
                }
                None => next.push(v),
            }
        }
        undecided = next;
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_cluster::pipeline::Algorithm;
    use adhoc_graph::gen::{self, GeometricConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geometric(seed: u64, n: usize, d: f64) -> gen::GeometricNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng)
    }

    /// The engine's maintained evaluation equals a from-scratch
    /// `run_all` on the current graph after every kind of event, for
    /// the engine's algorithm.
    fn assert_engine_consistent(engine: &ChurnEngine, ctx: &str) {
        let fresh = pipeline::run_all(engine.graph(), &engine.clustering);
        let a = engine.evaluation();
        assert_eq!(
            a.nc_graph.neighbor_sets, fresh.nc_graph.neighbor_sets,
            "{ctx}: nc sets"
        );
        for (l, r) in a.nc_graph.links().zip(fresh.nc_graph.links()) {
            assert_eq!(l.path, r.path, "{ctx}: nc path");
        }
        let alg = engine.config().algorithm;
        assert_eq!(a.algorithms(), AlgorithmSet::only(alg), "{ctx}: scope");
        assert_eq!(a.of(alg).selection, fresh.of(alg).selection, "{ctx}: {alg}");
    }

    /// A movement re-election publishes through the incremental path:
    /// the global `cluster()` runs (and is timed), yet the labels are
    /// advanced rather than swept cold and the plan is repaired across
    /// the renumbering rather than compiled — while the report keeps a
    /// rebuild's level and cost, and I1 holds.
    #[test]
    fn reelection_publishes_without_a_cold_sweep_or_a_compile() {
        let net = geometric(23, 120, 8.0);
        let mut e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        e.enable_routing();
        let m = Metrics::enabled();
        e.set_metrics(m.clone());
        // Wire two heads together: a merge the strict policy answers
        // with a global re-election.
        let (a, b) = (e.clustering.heads[0], e.clustering.heads[1]);
        let mut delta = TopologyDelta::new();
        delta.push_added(a, b);
        let r = e.step_delta(&delta);
        assert_eq!(r.level, RepairLevel::Full);
        assert!(r.merged_head_pairs > 0);
        assert_eq!(
            r.cost,
            e.survivors() + e.information_cost(),
            "a rebuild's cost"
        );
        assert!(r.dirty_heads <= e.clustering.heads.len());
        let snap = m.snapshot();
        assert_eq!(snap.counter("reconcile.full_rebuild"), Some(1));
        assert_eq!(
            snap.histogram("reconcile.reelect_ns").map(|h| h.count),
            Some(1)
        );
        assert_eq!(snap.counter("plan.compiled"), None, "no fresh compile");
        assert_eq!(
            snap.histogram("labels.sweep_ns").map(|h| h.count),
            None,
            "no cold sweep"
        );
        assert_eq!(snap.counter("plan.headset_repairs"), Some(1));
        assert_eq!(invariants::check_all(&e), vec![]);
        assert_engine_consistent(&e, "re-election");
    }

    /// A movement delta that strands an orphan no head within k can
    /// take re-elects through the same incremental publish as a merge:
    /// a rebuild's level and price — the failed rejoin probe is not
    /// charged — one re-election counted, no cold sweep, no compile.
    #[test]
    fn stranded_reelection_publishes_without_a_cold_sweep_or_a_compile() {
        // k=2, one cluster at head 0. Member 2 reaches 0 through 1
        // (2-1-0); its other route 2-5-6-0 is 3 hops. Cutting 1-2
        // strands 2 on a still connected graph.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 5), (5, 6), (6, 0), (0, 4), (4, 3)]);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(2, Algorithm::AcLmst));
        e.enable_routing();
        assert_eq!(e.clustering.heads, vec![NodeId(0)]);
        let m = Metrics::enabled();
        e.set_metrics(m.clone());
        let mut delta = TopologyDelta::new();
        delta.push_removed(NodeId(1), NodeId(2));
        let r = e.step_delta(&delta);
        assert_eq!(r.level, RepairLevel::Full);
        assert_eq!(r.orphans, 1);
        assert_eq!(r.merged_head_pairs, 0);
        assert_eq!(r.cost, e.survivors() + e.information_cost(), "no probes");
        assert!(r.valid);
        assert_eq!(e.clustering.heads, vec![NodeId(0), NodeId(2)]);
        let snap = m.snapshot();
        assert_eq!(snap.counter("reconcile.full_rebuild"), Some(1));
        assert_eq!(snap.counter("plan.compiled"), None, "no fresh compile");
        assert_eq!(
            snap.histogram("labels.sweep_ns").map(|h| h.count),
            None,
            "no cold sweep"
        );
        assert_eq!(invariants::check_all(&e), vec![]);
        assert_engine_consistent(&e, "stranded re-election");
    }

    /// A metered engine traces each reconcile phase with one
    /// `reconcile.{observe,repair,publish}_ns` span; count-type metrics
    /// are exact reconcile facts.
    #[test]
    fn metered_reconcile_reports_phases_and_traces() {
        let net = geometric(91, 50, 8.0);
        let mut e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        e.enable_routing();
        let m = Metrics::enabled();
        e.set_metrics(m.clone());
        let steps = [NodeId(7), NodeId(21), NodeId(33)];
        for &u in &steps {
            e.depart(u);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter("reconcile.count"), Some(steps.len() as u64));
        // Every depart publishes a plan (routing is on), and routing
        // was enabled before metering, so plan publishes == departs.
        assert_eq!(snap.counter("plan.published"), Some(steps.len() as u64));
        for h in [
            "reconcile.observe_ns",
            "reconcile.repair_ns",
            "reconcile.publish_ns",
        ] {
            let hist = snap.histogram(h).unwrap_or_else(|| panic!("{h} missing"));
            assert_eq!(hist.count, steps.len() as u64, "{h}");
        }
        assert!(snap.events.iter().any(|ev| ev.name == "plan.publish"));
        assert_engine_consistent(&e, "metered departures");
    }

    /// The reconcile internals — the orphan/merge detection, the
    /// validity verdicts with their backbone and survivor halves, the
    /// component-label upkeep and the plan/CDS copies — are each
    /// spanned once per reconcile: a head loss (detection, CDS
    /// adoption, labels advanced over the delta and the CDS node diff)
    /// and a member departure (detection, pending-plan clone, labels
    /// advanced over the delta) alike.
    #[test]
    fn reconcile_internals_are_spanned_once_per_reconcile() {
        let net = geometric(17, 200, 8.0);
        let mut e = ChurnEngine::build(&net.graph, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        let m = Metrics::enabled();
        e.set_metrics(m.clone());
        const SPANS: [&str; 6] = [
            "reconcile.detect_ns",
            "reconcile.validity_ns",
            "reconcile.validity.backbone_ns",
            "reconcile.validity.alive_ns",
            "reconcile.components_ns",
            "reconcile.copy_ns",
        ];
        let counts = || {
            let snap = m.snapshot();
            SPANS.map(|name| snap.histogram(name).map_or(0, |h| h.count))
        };
        let head = e.clustering.heads[e.clustering.heads.len() / 2];
        let cds = e.cds.nodes();
        let member = net
            .graph
            .nodes()
            .filter(|&v| !e.clustering.is_head(v) && !cds.contains(&v))
            .last()
            .expect("a member outside the CDS");
        // The head loss copies twice: the plan clone it patches across
        // the renumbering, and the CDS it adopts for the new head set.
        let expected = [[1, 1, 1, 1, 1, 2], [2, 2, 2, 2, 2, 3]];
        for (u, want) in [head, member].into_iter().zip(expected) {
            e.depart(u);
            assert_eq!(counts(), want, "after departing {u:?}");
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter("reconcile.count"), Some(2));
        assert_eq!(snap.counter("reconcile.head_loss"), Some(1));
        assert_eq!(snap.counter("reconcile.escalations"), None);
        assert_engine_consistent(&e, "spanned departures");
    }

    #[test]
    fn bystander_departure_is_free() {
        let g = gen::star(6);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        let r = e.depart(NodeId(3));
        assert_eq!(r.level, RepairLevel::None);
        assert_eq!(r.cost, 0);
        assert_eq!(r.orphans, 0);
        assert!(r.valid);
        assert!(e.is_departed(NodeId(3)));
        assert_engine_consistent(&e, "bystander departure");
    }

    #[test]
    fn gateway_departure_switches_bridge() {
        // Two clusters joined by two parallel 2-hop bridges: losing
        // one gateway must switch to the other bridge.
        let g = Graph::from_edges(4, &[(0, 2), (2, 1), (0, 3), (3, 1)]);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcMesh));
        assert_eq!(e.cds.gateways, vec![NodeId(2)]);
        let r = e.depart(NodeId(2));
        assert_eq!(r.level, RepairLevel::Gateways);
        assert_eq!(e.cds.gateways, vec![NodeId(3)]);
        assert!(r.valid);
        assert_engine_consistent(&e, "gateway departure");
    }

    #[test]
    fn head_departure_reaffiliates_members() {
        // Path 0-1-2-3-4, k=1: heads 0,2,4 (node 1 joins the lower-ID
        // head 0). Remove head 2: its one member 3 must re-join 4.
        let g = gen::path(5);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        let r = e.depart(NodeId(2));
        assert_eq!(r.level, RepairLevel::Full);
        assert_eq!(r.orphans, 1);
        assert!(!e.clustering.heads.contains(&NodeId(2)));
        assert_eq!(e.clustering.head_of(NodeId(1)), NodeId(0));
        assert_eq!(e.clustering.head_of(NodeId(3)), NodeId(4));
        // Removing the middle of a path disconnects the survivors.
        assert!(!r.valid);
        assert_engine_consistent(&e, "head departure");
    }

    #[test]
    fn head_departure_can_elect_new_heads() {
        // Star head 0 with leaves (k=1): orphaned leaves have no
        // surviving head in range and each elects itself (isolated).
        let g = gen::star(5);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        let r = e.depart(NodeId(0));
        assert_eq!(r.level, RepairLevel::Full);
        assert_eq!(
            e.clustering.heads,
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_engine_consistent(&e, "head departure with election");
    }

    #[test]
    fn departure_chain_stays_consistent() {
        let net = geometric(77, 60, 8.0);
        let mut e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        for uid in [5u32, 20, 40, 11, 33] {
            let r = e.depart(NodeId(uid));
            assert!(r.valid || !e.alive_connected());
            assert_engine_consistent(&e, &format!("chain departure {uid}"));
        }
    }

    #[test]
    fn bystander_departure_escalates_when_mate_path_breaks() {
        // k=2, one cluster at head 0. Member 2 reaches 0 only through
        // bystander 1 (2-1-0); its other route 2-5-6-0 is 3 hops. When
        // 1 departs, 2 has no head within k and elects itself.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 5), (5, 6), (6, 0), (0, 4), (4, 3)]);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(2, Algorithm::AcLmst));
        assert_eq!(e.clustering.heads, vec![NodeId(0)]);
        assert!(e.cds.gateways.is_empty(), "1 is a bystander");
        let r = e.depart(NodeId(1));
        assert_eq!(r.orphans, 1);
        // A local election grows the head set: the full evaluation.
        assert_eq!(r.level, RepairLevel::Full);
        assert!(r.cost > 0);
        assert_eq!(e.clustering.heads, vec![NodeId(0), NodeId(2)]);
        assert!(r.valid);
        assert_engine_consistent(&e, "bystander escalation");
    }

    #[test]
    fn independent_departures_valid_on_random_networks() {
        // One network per k, drawn in turn from the same stream.
        let mut rng = StdRng::seed_from_u64(55);
        for k in 1..=2u32 {
            let net = gen::geometric(&GeometricConfig::new(60, 100.0, 8.0), &mut rng);
            let base = ChurnEngine::build(&net.graph, MovementConfig::strict(k, Algorithm::AcLmst));
            for uid in [5u32, 20, 40] {
                let mut e = base.clone();
                let r = e.depart(NodeId(uid));
                // Survivors stay k-dominated even when they split; only
                // backbone connectivity is forgiven then.
                assert!(
                    e.dominated_sweep(),
                    "k={k}: departure of {uid} strands a node"
                );
                assert!(r.valid || !e.alive_connected(), "k={k}: departure of {uid}");
                assert_engine_consistent(&e, &format!("k={k}: departure of {uid}"));
            }
        }
    }

    #[test]
    fn stranded_departure_orphan_elects_locally() {
        // 0-1-2 with k=1: heads {0, 2}, 1 affiliated to 0. Removing
        // edges one at a time: departure of head 0 leaves 1 next to
        // head 2 — then departure of 2 strands 1, which elects itself.
        let g = gen::path(3);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.depart(NodeId(0));
        assert_eq!(e.clustering.head_of(NodeId(1)), NodeId(2));
        let r = e.depart(NodeId(2));
        assert_eq!(r.level, RepairLevel::Full);
        assert_eq!(e.clustering.heads, vec![NodeId(1)]);
        assert_engine_consistent(&e, "stranded election");
    }

    /// A departure or arrival that elects reports every label row it
    /// touched: the rows the delta re-swept plus the rows the election
    /// opened, not just the opened ones.
    #[test]
    fn electing_ops_report_reswept_and_opened_rows() {
        // The fixture of `bystander_departure_escalates_when_mate_path_breaks`:
        // bystander 1 departs, and member 2 is left to elect itself.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 5), (5, 6), (6, 0), (0, 4), (4, 3)]);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(2, Algorithm::AcLmst));
        let delta = TopologyDelta::isolating(e.graph(), NodeId(1));
        let reswept = e.labels().dirty_slots(&delta).len();
        assert_eq!(reswept, 1, "head 0's row absorbs the departure");
        let r = e.depart(NodeId(1));
        assert_eq!(e.clustering.heads, vec![NodeId(0), NodeId(2)]);
        assert_eq!(r.dirty_heads, reswept + 1);

        // An arrival one hop past head 18's range elects itself.
        let mut e =
            ChurnEngine::build(&gen::path(21), MovementConfig::strict(1, Algorithm::AcLmst));
        e.depart(NodeId(20));
        let mut delta = TopologyDelta::new();
        delta.push_added(NodeId(19), NodeId(20));
        let reswept = e.labels().dirty_slots(&delta).len();
        assert!(reswept > 0, "head 18's row absorbs the arrival");
        let r = e.arrive(NodeId(20), &[NodeId(19)]);
        assert_eq!(e.clustering.head_of(NodeId(20)), NodeId(20));
        assert_eq!(r.dirty_heads, reswept + 1);
    }

    /// Test oracle for a head departure's broken mates, by a different
    /// route than the engine's label reads: members whose ≤k-hop
    /// connection to their head broke when `departed` left.
    ///
    /// Only nodes within `k` hops of `departed` *before* the departure can
    /// be affected (any head-path through `departed` gives its owner
    /// `d(owner, departed) < k`), and crucially the affected members can
    /// belong to **any** cluster, not just the departed node's — its
    /// radio links may have carried other clusters' head-paths.
    ///
    /// The pre-departure k-ball is recovered **without a pre-departure
    /// graph snapshot**: a shortest pre-departure path from `departed` is
    /// simple, so after its first hop it avoids `departed` and lives
    /// entirely in `residual`. Hence
    /// `d_old(departed, v) = 1 + min over former neighbors w of
    /// d_residual(w, v)` for every `v ≠ departed`, and one multi-source
    /// BFS from `former_neighbors` (`departed`'s neighbors before the
    /// isolating delta) bounded at `k − 1` hops enumerates exactly the old
    /// ball.
    fn broken_mates(
        residual: &Graph,
        former_neighbors: &[NodeId],
        clustering: &Clustering,
        departed: NodeId,
    ) -> Vec<NodeId> {
        let mut scratch = BfsScratch::new(residual.len());
        let candidates: Vec<NodeId> = if clustering.k == 0 {
            Vec::new()
        } else {
            scratch.run_multi(residual, former_neighbors, clustering.k - 1);
            scratch
                .visited()
                .iter()
                .copied()
                .filter(|&v| v != departed && !clustering.is_head(v))
                .collect()
        };
        let mut reach_cache: std::collections::BTreeMap<NodeId, Vec<bool>> = Default::default();
        let mut broken = Vec::new();
        for v in candidates {
            let h = clustering.head_of(v);
            if h == GONE || h == departed {
                continue;
            }
            let reach = reach_cache.entry(h).or_insert_with(|| {
                scratch.run(residual, h, clustering.k);
                let mut ok = vec![false; residual.len()];
                for &w in scratch.visited() {
                    ok[w.index()] = true;
                }
                ok
            });
            if !reach[v.index()] {
                broken.push(v);
            }
        }
        broken.sort_unstable();
        broken
    }

    /// A head departure's orphans, read off the labels, are exactly the
    /// departed head's members plus the broken mates a BFS over the
    /// residual graph finds — and no soft check fires on the way.
    #[test]
    fn head_departure_orphans_match_bfs_oracle() {
        let mut rng = StdRng::seed_from_u64(23);
        for k in 1..=4u32 {
            for md in 1..=k {
                let net = gen::geometric(&GeometricConfig::new(120, 100.0, 7.0), &mut rng);
                let cfg = MovementConfig::tolerant(k, Algorithm::AcLmst, md);
                let mut e = ChurnEngine::build(&net.graph, cfg);
                for _ in 0..6 {
                    let heads = &e.clustering.heads;
                    if heads.is_empty() {
                        break;
                    }
                    let u = heads[rng.gen_range(0..heads.len())];
                    let before = e.clustering.clone();
                    let delta = TopologyDelta::isolating(e.graph(), u);
                    let mut residual = e.graph().clone();
                    delta.apply_to(&mut residual);
                    let mut former: Vec<NodeId> = delta
                        .removed
                        .iter()
                        .map(|&(a, b)| if a == u { b } else { a })
                        .collect();
                    former.sort_unstable();
                    let mut expected: Vec<NodeId> = residual
                        .nodes()
                        .filter(|&v| v != u && before.head_of(v) == u)
                        .collect();
                    expected.extend(broken_mates(&residual, &former, &before, u));
                    expected.sort_unstable();
                    expected.dedup();
                    let (r, soft) = invariants::capturing(|| e.depart(u));
                    let ctx = format!("k={k} md={md} head {u:?}");
                    assert_eq!(r.orphans, expected.len(), "{ctx}: orphans");
                    assert!(soft.is_empty(), "{ctx}: soft checks {soft:?}");
                    assert!(r.valid || !e.alive_connected(), "{ctx}");
                }
                assert_engine_consistent(&e, &format!("k={k} md={md}"));
            }
        }
    }

    /// A capped policy under-repairs *honestly*: stranded members are
    /// parked on the departed sentinel (unroutable, not stale), the
    /// validity verdict reports `false`, and nothing panics — the
    /// resilience bench leans on exactly this to measure what each
    /// §3.3 rule is worth.
    #[test]
    fn capped_policy_strands_instead_of_electing() {
        let g = gen::star(5);
        let cfg = MovementConfig::strict(1, Algorithm::AcLmst).capped(RepairLevel::Reaffiliate);
        let mut e = ChurnEngine::build(&g, cfg);
        e.enable_routing();
        let r = e.depart(NodeId(0));
        // The head drop is forced, but the election the stranded
        // leaves call for is withheld by the cap.
        assert_eq!(r.level, RepairLevel::Reaffiliate);
        assert!(!r.valid);
        assert!(e.clustering.heads.is_empty());
        for leaf in 1..5 {
            assert_eq!(e.clustering.head_of(NodeId(leaf)), GONE);
        }
        // The published plan degrades instead of lying: no affiliation,
        // no route.
        let plan = e.route_plan().expect("routing enabled");
        assert!(plan.route(NodeId(1), NodeId(2)).is_none());
        // A later arrival still cannot create heads under the cap; the
        // engine keeps limping without escalating.
        let r = e.arrive(NodeId(0), &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert!(!r.valid);
        assert_eq!(e.clustering.head_of(NodeId(0)), GONE);
    }

    /// The Gateways cap stops short of re-election but above
    /// re-affiliation: orphans re-home to surviving heads, yet a
    /// backbone break that only an election could fix stays broken
    /// (and is reported as such).
    #[test]
    fn capped_gateways_reaffiliates_but_never_reelects() {
        let g = gen::path(5);
        let cfg = MovementConfig::strict(1, Algorithm::AcLmst).capped(RepairLevel::Gateways);
        let mut e = ChurnEngine::build(&g, cfg);
        // Head 2 departs: member 3 re-joins head 4 (allowed), the
        // survivors are disconnected so validity is honestly false.
        let r = e.depart(NodeId(2));
        assert_eq!(r.level, RepairLevel::Gateways);
        assert_eq!(e.clustering.head_of(NodeId(3)), NodeId(4));
        assert!(!r.valid);
        // Its return reconnects the survivors, but with k = 1 no head
        // is within reach and the cap forbids electing one: the
        // newcomer is parked, the head set untouched, and the verdict
        // stays honestly false (an uncapped engine reaches Full here).
        let heads_before = e.clustering.heads.clone();
        let r = e.arrive(NodeId(2), &[NodeId(1), NodeId(3)]);
        assert!(!r.valid);
        assert_eq!(e.clustering.heads, heads_before);
        assert_eq!(e.clustering.head_of(NodeId(2)), GONE);
        // Members 1 and 3 kept their ≤k affiliations through it all.
        assert_eq!(e.clustering.head_of(NodeId(1)), NodeId(0));
        assert_eq!(e.clustering.head_of(NodeId(3)), NodeId(4));
    }

    /// §3.3 arrival, join case: the newcomer re-attaches and joins the
    /// nearest head (distance, then head ID) — and neither the
    /// departure nor the arrival rebuilds the label arena (the rows
    /// are delta-advanced and spliced; pinned by `rebuild_count`).
    #[test]
    fn arrival_rejoins_nearest_head() {
        let g = gen::path(21);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        let built_rebuilds = e.labels().rebuild_count();
        e.depart(NodeId(5));
        let r = e.arrive(NodeId(5), &[NodeId(4), NodeId(6)]);
        // Node 5 is the only bridge between heads 4 and 6, so its
        // return re-connects the backbone through the gateway refresh.
        assert_eq!(r.level, RepairLevel::Gateways);
        assert_eq!(r.orphans, 1);
        assert!(r.cost > 0, "the newcomer's k-ball probe is charged");
        assert!(!e.is_departed(NodeId(5)));
        // Tie between heads 4 and 6 at distance 1 breaks to the lower ID.
        assert_eq!(e.clustering.head_of(NodeId(5)), NodeId(4));
        assert_eq!(
            e.labels().rebuild_count(),
            built_rebuilds,
            "bystander departure + arrival must splice, not rebuild"
        );
        assert_engine_consistent(&e, "arrival rejoin");
    }

    /// §3.3 arrival, election case: a newcomer with no head within k
    /// elects itself — the head gain is published as a **row splice**
    /// (no label-arena rebuild), and the head-loss departure before it
    /// also splices the departed row out.
    #[test]
    fn arrival_elects_when_no_head_in_range() {
        let g = gen::path(21);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        let built_rebuilds = e.labels().rebuild_count();
        let heads_before = e.clustering.heads.clone();
        let rd = e.depart(NodeId(20)); // a head: its row is spliced out
        assert_eq!(rd.level, RepairLevel::Full);
        assert!(!e.clustering.heads.contains(&NodeId(20)));
        assert_engine_consistent(&e, "head departure before arrival");
        // Re-attached one hop past head 18's range: nothing to join.
        let r = e.arrive(NodeId(20), &[NodeId(19)]);
        assert_eq!(r.level, RepairLevel::Full);
        assert_eq!(e.clustering.heads, heads_before);
        assert_eq!(e.clustering.head_of(NodeId(20)), NodeId(20));
        assert_eq!(
            e.labels().rebuild_count(),
            built_rebuilds,
            "head loss and head gain must splice rows, not rebuild the arena"
        );
        assert_engine_consistent(&e, "arrival election");
    }

    /// An arrival with no neighbors (isolated newcomer) still elects
    /// itself through the full reconcile, and crash injection at each
    /// boundary leaves the pre-step plan served until recovery.
    #[test]
    fn isolated_arrival_and_faulted_arrival() {
        let g = gen::path(2);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        e.depart(NodeId(1));
        let r = e.arrive(NodeId(1), &[]);
        assert_eq!(e.clustering.head_of(NodeId(1)), NodeId(1));
        assert!(e.clustering.heads.contains(&NodeId(1)));
        assert!(r.orphans == 1);
        assert_engine_consistent(&e, "isolated arrival");

        e.depart(NodeId(1));
        let pre_plan = e.route_plan().unwrap().clone();
        let err = e
            .arrive_faulted(
                NodeId(1),
                &[NodeId(0)],
                FaultPlan::crash_after(PhaseBoundary::Observed),
            )
            .unwrap_err();
        assert_eq!(err, PhaseBoundary::Observed);
        assert_eq!(e.route_plan().unwrap(), &pre_plan, "crash must not publish");
        e.recover().expect("was in flight");
        assert!(!e.is_departed(NodeId(1)));
        assert_engine_consistent(&e, "recovery after crashed arrival");
    }

    /// The engine's labels equal dense per-head BFS rows of its live
    /// graph: every distance and every ball.
    fn assert_labels_match_bfs(e: &ChurnEngine, ctx: &str) {
        let labels = e.labels();
        let mut bfs = adhoc_graph::bfs::BfsScratch::new(e.graph().len());
        for (slot, &h) in labels.heads().iter().enumerate() {
            bfs.run(e.graph(), h, labels.bound());
            assert_eq!(labels.ball(slot), bfs.visited(), "{ctx}: ball of {h:?}");
            for v in e.graph().nodes() {
                assert_eq!(labels.dist(slot, v), bfs.dist(v), "{ctx}: {h:?}->{v:?}");
            }
        }
    }

    /// Departures and re-arrivals keep the ball-indexed (sparse)
    /// labels equal to dense per-head BFS rows.
    #[test]
    fn sparse_arrival_matches_dense() {
        let net = geometric(42, 60, 8.0);
        let cfg = MovementConfig::strict(2, Algorithm::AcLmst);
        let mut e = ChurnEngine::build(&net.graph, cfg);
        for &uid in &[7u32, 23, 41] {
            let u = NodeId(uid);
            e.depart(u);
            assert_labels_match_bfs(&e, &format!("depart {uid}"));
            let neighbors: Vec<NodeId> = net
                .graph
                .neighbors(u)
                .iter()
                .copied()
                .filter(|w| !e.is_departed(*w))
                .collect();
            e.arrive(u, &neighbors);
            assert_labels_match_bfs(&e, &format!("arrive {uid}"));
        }
        assert_engine_consistent(&e, "after arrivals");
    }

    #[test]
    fn movement_steps_track_run_all() {
        use crate::mobility::{MobileNetwork, WaypointConfig};
        let mut rng = StdRng::seed_from_u64(9);
        let net = geometric(9, 80, 8.0);
        let cfg = WaypointConfig {
            side: 100.0,
            min_speed: 0.3,
            max_speed: 1.5,
            pause: 1.0,
        };
        let model = crate::mobility::RandomWaypoint::new(80, cfg, &mut rng);
        let mut mobile = MobileNetwork::with_model(net.positions.clone(), net.range, model);
        let mut e =
            ChurnEngine::build(mobile.graph(), MovementConfig::strict(2, Algorithm::AcLmst));
        for step in 0..25 {
            let delta = mobile.step(1.0, &mut rng);
            let r = e.step_delta(&delta);
            assert!(r.dirty_heads <= e.clustering.heads.len());
            assert_engine_consistent(&e, &format!("movement step {step}"));
        }
    }

    /// Through a mobility trajectory, the engine's ball-indexed
    /// (sparse) labels stay equal to dense per-head BFS rows at every
    /// step.
    #[test]
    fn sparse_label_engine_matches_dense() {
        use crate::mobility::{MobileNetwork, WaypointConfig};
        let net = geometric(31, 70, 8.0);
        let cfg = MovementConfig::tolerant(2, Algorithm::AcLmst, 1);
        let mut e = ChurnEngine::build(&net.graph, cfg);
        let mut rng = StdRng::seed_from_u64(31);
        let wp = WaypointConfig {
            side: 100.0,
            min_speed: 0.5,
            max_speed: 2.0,
            pause: 1.0,
        };
        let model = crate::mobility::RandomWaypoint::new(70, wp, &mut rng);
        let mut mobile = MobileNetwork::with_model(net.positions.clone(), net.range, model);
        for step in 0..20 {
            let delta = mobile.step(0.5, &mut rng);
            e.step_delta(&delta);
            assert_labels_match_bfs(&e, &format!("step {step}"));
        }
        assert_engine_consistent(&e, "final state");
    }

    /// The reused verification verdicts must always equal what a
    /// from-scratch `Cds::verify` says — the contract behind skipping
    /// the per-step connectivity sweeps.
    #[test]
    fn reused_validity_verdict_matches_direct_verification() {
        use crate::mobility::{MobileNetwork, WaypointConfig};
        let net = geometric(57, 80, 7.0);
        let mut e = ChurnEngine::build(
            &net.graph,
            MovementConfig::tolerant(2, Algorithm::AcMesh, 1),
        );
        let mut rng = StdRng::seed_from_u64(57);
        let wp = WaypointConfig {
            side: 100.0,
            min_speed: 0.5,
            max_speed: 2.5,
            pause: 0.5,
        };
        let model = crate::mobility::RandomWaypoint::new(80, wp, &mut rng);
        let mut mobile = MobileNetwork::with_model(net.positions.clone(), net.range, model);
        for step in 0..30 {
            let delta = mobile.step(0.5, &mut rng);
            let r = e.step_delta(&delta);
            assert_eq!(
                r.valid,
                e.cds.verify(e.graph(), 2).is_ok(),
                "step {step}: reported validity diverged from direct verification"
            );
        }
    }

    #[test]
    fn step_snapshot_and_step_delta_agree() {
        let net = geometric(13, 50, 8.0);
        let mut g = net.graph.clone();
        let cfg = MovementConfig::strict(2, Algorithm::AcLmst);
        let mut by_snapshot = ChurnEngine::build(&g, cfg);
        let mut by_delta = ChurnEngine::build(&g, cfg);
        let mut delta = TopologyDelta::new();
        g.remove_edge(NodeId(0), g.neighbors(NodeId(0))[0]);
        delta.push_removed(NodeId(0), by_delta.graph().neighbors(NodeId(0))[0]);
        if !g.has_edge(NodeId(3), NodeId(40)) {
            g.add_edge(NodeId(3), NodeId(40));
            delta.push_added(NodeId(3), NodeId(40));
        }
        delta.normalize();
        let ra = by_snapshot.step(&g);
        let rb = by_delta.step_delta(&delta);
        assert_eq!(ra.level, rb.level);
        assert_eq!(ra.cost, rb.cost);
        assert_eq!(by_snapshot.clustering.head_of, by_delta.clustering.head_of);
        assert_eq!(by_snapshot.cds, by_delta.cds);
    }

    /// Departing the last remaining head leaves a consistent engine
    /// with an empty head set over the (all-departed) graph.
    #[test]
    fn depart_last_remaining_head() {
        let g = gen::path(2);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        assert_eq!(e.clustering.heads, vec![NodeId(0)]);
        e.depart(NodeId(1)); // the member first
        let r = e.depart(NodeId(0)); // then the last head
        assert_eq!(r.level, RepairLevel::Full);
        assert_eq!(r.orphans, 0);
        assert!(e.clustering.heads.is_empty());
        assert!(r.valid, "an empty CDS over an all-departed graph verifies");
        assert!(e
            .route_plan()
            .unwrap()
            .route(NodeId(0), NodeId(1))
            .is_none());
        assert_engine_consistent(&e, "last head departure");
    }

    /// Departures that reduce the graph to isolated singletons: every
    /// surviving node ends as its own head, and the engine stays
    /// consistent at each stage.
    #[test]
    fn departures_reduce_graph_to_isolated_nodes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        e.depart(NodeId(0)); // the head: 1 and 2 re-home (1 elects, 2 joins)
        assert_engine_consistent(&e, "triangle head departure");
        e.depart(NodeId(1));
        assert_eq!(e.clustering.heads, vec![NodeId(2)]);
        assert_engine_consistent(&e, "second departure");
        let r = e.depart(NodeId(2));
        assert!(e.clustering.heads.is_empty());
        assert!(r.valid);
        assert!(e.graph().nodes().all(|v| e.graph().neighbors(v).is_empty()));
        assert_engine_consistent(&e, "fully isolated");
    }

    /// A delta listing the same edge twice (producer saw it from both
    /// endpoints) normalizes to one change; a self-inverse delta
    /// (remove + re-add the same edge) is a net topology no-op but
    /// still flows through the full observe/repair/publish machine.
    #[test]
    fn duplicated_and_self_inverse_deltas() {
        let net = geometric(5, 30, 9.0);
        let mut e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        let (a, b) = net.graph.edges().next().unwrap();

        // Duplicated entries collapse under normalize.
        let mut dup = TopologyDelta::new();
        dup.push_removed(a, b);
        dup.push_removed(b, a);
        dup.normalize();
        assert_eq!(dup.removed.len(), 1);
        e.step_delta(&dup);
        assert_engine_consistent(&e, "duplicated delta");

        // Self-inverse: removed and re-added in one burst. The graph
        // is unchanged, but the dirty-head machinery still runs.
        let mut back = TopologyDelta::new();
        back.push_added(a, b);
        e.step_delta(&back);
        let mut selfinv = TopologyDelta::new();
        selfinv.push_removed(a, b);
        selfinv.push_added(a, b);
        selfinv.normalize();
        let before = e.graph().clone();
        let r = e.step_delta(&selfinv);
        assert_eq!(
            TopologyDelta::between(&before, e.graph()),
            TopologyDelta::new(),
            "self-inverse delta must leave the topology unchanged"
        );
        assert!(r.valid || !e.alive_connected());
        assert_engine_consistent(&e, "self-inverse delta");
    }

    /// Crashing at either phase boundary leaves the pre-step plan
    /// served (never a torn hybrid) and `recover()` restores full
    /// consistency.
    #[test]
    fn crash_and_recover_at_each_boundary() {
        for boundary in [PhaseBoundary::Observed, PhaseBoundary::Repaired] {
            let net = geometric(21, 40, 8.0);
            let mut e =
                ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
            e.enable_routing();
            let pre_plan = e.route_plan().unwrap().clone();
            let mut delta = TopologyDelta::new();
            let (a, b) = net.graph.edges().next().unwrap();
            delta.push_removed(a, b);
            let err = e
                .step_delta_faulted(&delta, FaultPlan::crash_after(boundary))
                .unwrap_err();
            assert_eq!(err, boundary);
            assert_eq!(e.in_flight(), Some(boundary));
            // I3 at the crash: the served plan is still the pre-step one.
            assert_eq!(
                e.route_plan().unwrap(),
                &pre_plan,
                "torn plan at {boundary:?}"
            );
            let report = e.recover().expect("was in flight");
            assert_eq!(report.level, RepairLevel::Full);
            assert!(e.in_flight().is_none());
            assert!(e.recover().is_none(), "recover is idempotent");
            assert_engine_consistent(&e, &format!("recovery after crash at {boundary:?}"));
        }
    }

    /// Suspending at every boundary and resuming must land in exactly
    /// the state an uninterrupted step produces.
    #[test]
    fn suspended_reconcile_matches_uninterrupted() {
        let net = geometric(33, 40, 8.0);
        let mut direct =
            ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        let mut phased =
            ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        direct.enable_routing();
        phased.enable_routing();
        let (a, b) = net.graph.edges().next().unwrap();
        let mut delta = TopologyDelta::new();
        delta.push_removed(a, b);
        let rd = direct.step_delta(&delta);

        let pre_plan = phased.route_plan().unwrap().clone();
        let mut state = phased.begin_delta(&delta);
        // Suspended after observe: clustering and plan untouched.
        assert_eq!(phased.in_flight(), Some(PhaseBoundary::Observed));
        assert_eq!(phased.route_plan().unwrap(), &pre_plan);
        state = phased.resume(state);
        // Suspended after repair: plan still untouched.
        assert_eq!(phased.in_flight(), Some(PhaseBoundary::Repaired));
        assert_eq!(phased.route_plan().unwrap(), &pre_plan);
        let rp = phased.finish(state);

        assert_eq!(rd.level, rp.level);
        assert_eq!(rd.cost, rp.cost);
        assert_eq!(rd.valid, rp.valid);
        assert_eq!(rd.dirty_heads, rp.dirty_heads);
        assert_eq!(direct.clustering.head_of, phased.clustering.head_of);
        assert_eq!(direct.cds, phased.cds);
        assert_eq!(direct.route_plan().unwrap(), phased.route_plan().unwrap());
        assert!(phased.in_flight().is_none());
    }

    /// `reconcile_batch` is a pure batching optimisation: per-op
    /// reports and every piece of engine state (clustering, CDS,
    /// served plan content) match running the same ops one at a time
    /// — only plan-compile work is amortised.
    #[test]
    fn batch_reconcile_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(91);
        for round in 0..6 {
            let net = geometric(400 + round, 50, 8.0);
            let cfg = MovementConfig::strict(2, Algorithm::AcLmst);
            let mut seq = ChurnEngine::build(&net.graph, cfg);
            let mut bat = ChurnEngine::build(&net.graph, cfg);
            seq.enable_routing();
            bat.enable_routing();

            // A mixed op stream: random departures, then some of the
            // departed return with their original neighbor lists
            // (possibly referencing still-departed peers — the batch
            // path must filter exactly like the sequential one).
            let mut ops = Vec::new();
            let mut gone = Vec::new();
            for _ in 0..6 {
                let u = NodeId(rng.gen_range(0..50u32));
                if !gone.contains(&u) {
                    gone.push(u);
                    ops.push(BatchOp::Depart(u));
                }
            }
            for &u in gone.iter().take(3) {
                ops.push(BatchOp::Arrive(u, net.graph.neighbors(u).to_vec()));
            }

            let seq_reports: Vec<StepReport> = ops
                .iter()
                .map(|op| match op {
                    BatchOp::Depart(u) => seq.depart(*u),
                    BatchOp::Arrive(u, nbrs) => {
                        let alive: Vec<NodeId> = nbrs
                            .iter()
                            .copied()
                            .filter(|&w| !seq.is_departed(w))
                            .collect();
                        seq.arrive(*u, &alive)
                    }
                })
                .collect();
            let bat_reports = bat.reconcile_batch(&ops);

            assert_eq!(seq_reports.len(), bat_reports.len());
            for (i, (s, b)) in seq_reports.iter().zip(&bat_reports).enumerate() {
                assert_eq!(s.level, b.level, "round {round} op {i}: level");
                assert_eq!(s.orphans, b.orphans, "round {round} op {i}: orphans");
                assert_eq!(
                    s.merged_head_pairs, b.merged_head_pairs,
                    "round {round} op {i}: merges"
                );
                assert_eq!(s.cost, b.cost, "round {round} op {i}: cost");
                assert_eq!(s.valid, b.valid, "round {round} op {i}: valid");
                assert_eq!(s.dirty_heads, b.dirty_heads, "round {round} op {i}: dirty");
            }
            assert_eq!(
                TopologyDelta::between(seq.graph(), bat.graph()),
                TopologyDelta::new(),
                "round {round}: graphs diverged"
            );
            assert_eq!(seq.clustering.heads, bat.clustering.heads, "round {round}");
            assert_eq!(
                seq.clustering.head_of, bat.clustering.head_of,
                "round {round}"
            );
            assert_eq!(
                seq.clustering.dist_to_head, bat.clustering.dist_to_head,
                "round {round}"
            );
            assert_eq!(seq.cds, bat.cds, "round {round}: cds");
            // Plan equality ignores the epoch (the one thing batching
            // legitimately changes: one publish instead of many).
            assert_eq!(
                seq.route_plan().unwrap(),
                bat.route_plan().unwrap(),
                "round {round}: served plan"
            );
            assert_engine_consistent(&bat, &format!("round {round} batched"));
        }
    }

    /// Test oracle for observe's detection, by the full scan it
    /// replaced: every labeled head's k-ball for member distances,
    /// every node for orphans, and every head pair with a swept
    /// endpoint for merges. Runs only where observe detects (`scan`: a
    /// head left or a row was swept).
    fn full_scan_detection(
        e: &ChurnEngine,
        swept: &[usize],
        scan: bool,
        newcomer: Option<NodeId>,
    ) -> (Vec<NodeId>, usize, Vec<(NodeId, u32)>) {
        let (k, md) = (e.cfg.k, e.cfg.merge_distance);
        let (mut orphans, mut merges, mut fresh) = (Vec::new(), 0, Vec::new());
        if scan {
            let labels = e.labels();
            let mut near_head = vec![UNREACHED; e.graph.len()];
            for (slot, &h) in labels.heads().iter().enumerate() {
                for (v, d) in labels.within(slot, k) {
                    if e.clustering.head_of(v) == h {
                        near_head[v.index()] = d;
                    }
                }
            }
            for v in e.graph.nodes() {
                if e.departed[v.index()] || e.clustering.is_head(v) || Some(v) == newcomer {
                    continue;
                }
                let h = e.clustering.head_of(v);
                if h == GONE || labels.slot(h).is_none() || near_head[v.index()] > k {
                    orphans.push(v);
                } else {
                    fresh.push((v, near_head[v.index()]));
                }
            }
            let heads = labels.heads();
            for i in 0..heads.len() {
                for (j, &hj) in heads.iter().enumerate().skip(i + 1) {
                    let touched =
                        swept.binary_search(&i).is_ok() || swept.binary_search(&j).is_ok();
                    if touched && labels.dist(i, hj) <= md {
                        merges += 1;
                    }
                }
            }
        }
        if let Some(u) = newcomer {
            orphans.push(u);
            orphans.sort_unstable();
        }
        (orphans, merges, fresh)
    }

    /// Direct verification, departure-aware: the CDS verdict (backbone
    /// connectivity plus k-domination of every survivor) and survivor
    /// connectivity, both by fresh BFS.
    fn direct_verdicts(e: &ChurnEngine) -> (bool, bool) {
        let g = e.graph();
        let backbone = connectivity::is_subset_connected(g, &e.cds.nodes());
        let dist = connectivity::distance_to_set(g, &e.cds.heads);
        let dominated = g
            .nodes()
            .all(|v| e.is_departed(v) || dist[v.index()] <= e.cfg.k);
        let alive: Vec<NodeId> = g.nodes().filter(|&v| !e.is_departed(v)).collect();
        (
            backbone && dominated,
            connectivity::is_subset_connected(g, &alive),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Differential check of the delta-following verdicts and
        /// detection: chains of movement-style edge flips (some at
        /// departed nodes), departures of heads and of members, and
        /// arrivals, on connected and on disconnected fields, for
        /// k = 1..=3 under the tolerant policy and every capped level.
        /// After every op the reported verdict equals direct
        /// verification, `alive_connected()` equals a BFS, and
        /// observe's orphans and merges equal the full-scan oracle's
        /// (its refreshed distances are the oracle's, less entries
        /// that restate a recorded distance).
        #[test]
        fn incremental_verdicts_match_direct_checks(
            seed in 0u64..1_000_000,
            connected in 0u32..2,
            ops in proptest::collection::vec((0u32..5, 0u32..1000, 0u32..1000), 4..14),
        ) {
            let n = 40u32;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut gcfg = GeometricConfig::new(n as usize, 100.0, if connected == 1 { 7.0 } else { 3.5 });
            gcfg.require_connected = connected == 1;
            let net = gen::geometric(&gcfg, &mut rng);
            for k in 1..=3u32 {
                for cap in [RepairLevel::None, RepairLevel::Reaffiliate, RepairLevel::Gateways, RepairLevel::Full] {
                    let cfg = MovementConfig::tolerant(k, Algorithm::AcLmst, 1).capped(cap);
                    let mut e = ChurnEngine::build(&net.graph, cfg);
                    e.enable_routing();
                    for (i, &(kind, a, b)) in ops.iter().enumerate() {
                        let ctx = format!("k={k} cap={cap:?} op {i} ({kind}, {a}, {b})");
                        let alive: Vec<NodeId> = e.graph().nodes().filter(|&v| !e.is_departed(v)).collect();
                        let gone: Vec<NodeId> = e.graph().nodes().filter(|&v| e.is_departed(v)).collect();
                        let members: Vec<NodeId> = alive.iter().copied().filter(|&v| !e.clustering.is_head(v)).collect();
                        let mut head_left = false;
                        let mut newcomer = None;
                        let state = match kind {
                            // A flip of a few edges; with `b` past the
                            // survivors, one end may be a departed node.
                            0 | 1 => {
                                let mut delta = TopologyDelta::new();
                                for j in 0..=(a % 3) {
                                    let x = NodeId((a + 7 * j) % n);
                                    let y = NodeId((b + 13 * j) % n);
                                    if x == y || (kind == 0 && (e.is_departed(x) || e.is_departed(y))) {
                                        continue;
                                    }
                                    if e.graph().has_edge(x, y) {
                                        delta.push_removed(x, y);
                                    } else {
                                        delta.push_added(x, y);
                                    }
                                }
                                delta.normalize();
                                let added = delta.added.clone();
                                delta.removed.retain(|r| !added.contains(r));
                                e.begin_delta(&delta)
                            }
                            2 if !e.clustering.heads.is_empty() => {
                                let u = e.clustering.heads[a as usize % e.clustering.heads.len()];
                                head_left = true;
                                e.begin_depart(u)
                            }
                            3 if !members.is_empty() => e.begin_depart(members[a as usize % members.len()]),
                            4 if !gone.is_empty() => {
                                let u = gone[a as usize % gone.len()];
                                let nb: Vec<NodeId> = net
                                    .graph
                                    .neighbors(u)
                                    .iter()
                                    .copied()
                                    .filter(|&w| !e.is_departed(w) && !e.graph().has_edge(u, w))
                                    .collect();
                                newcomer = Some(u);
                                e.begin_arrive(u, &nb)
                            }
                            _ => continue,
                        };
                        if let ReconcileState::Observed(obs) = &state {
                            let scan = head_left || !obs.swept.is_empty();
                            let (orphans, merges, fresh) = full_scan_detection(&e, &obs.swept, scan, newcomer);
                            assert_eq!(obs.orphans, orphans, "{ctx}: orphans");
                            assert_eq!(obs.merged_head_pairs, merges, "{ctx}: merges");
                            for entry in &obs.fresh_dist {
                                assert!(fresh.contains(entry), "{ctx}: fresh distance {entry:?}");
                            }
                            for &(v, d) in fresh.iter().filter(|x| !obs.fresh_dist.contains(x)) {
                                assert_eq!(e.clustering.dist_to_head[v.index()], d, "{ctx}: skipped {v:?}");
                            }
                        }
                        let report = e.finish(state);
                        let (valid, alive_connected) = direct_verdicts(&e);
                        assert_eq!(report.valid, valid, "{ctx}: reported verdict");
                        assert_eq!(e.is_valid(), valid, "{ctx}: is_valid");
                        assert_eq!(e.alive_connected(), alive_connected, "{ctx}: alive_connected");
                    }
                }
            }
        }
    }

    /// Every publish bumps the served plan's epoch; crashes do not.
    #[test]
    fn plan_epoch_is_monotonic() {
        let g = gen::path(6);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        let e0 = e.route_plan().unwrap().epoch();
        let mut delta = TopologyDelta::new();
        delta.push_removed(NodeId(4), NodeId(5));
        e.step_delta(&delta);
        let e1 = e.route_plan().unwrap().epoch();
        assert!(e1 > e0);
        let mut back = TopologyDelta::new();
        back.push_added(NodeId(4), NodeId(5));
        let _ = e.step_delta_faulted(&back, FaultPlan::crash_after(PhaseBoundary::Observed));
        assert_eq!(
            e.route_plan().unwrap().epoch(),
            e1,
            "crash must not publish"
        );
        e.recover();
        assert!(e.route_plan().unwrap().epoch() > e1);
    }
}
