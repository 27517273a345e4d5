//! Exhaustive small-universe model checking of the churn engine.
//!
//! The reconciliation state machine ([`crate::churn`]) claims four
//! invariants ([`crate::invariants`]) at every reachable state — not
//! just along the random trajectories the property tests sample. This
//! module checks that claim the way a protocol verifier would:
//! enumerate **every** interleaving of topology deltas over a small
//! universe (n ≤ 6, k ≤ 2), cross each delta with **every** crash
//! point ([`FaultPlan`] at each phase boundary, plus no fault), run
//! the engine transition, and check all four invariants in the
//! resulting state. Reached states are deduplicated by a structural
//! fingerprint so the exploration is a breadth-first search of the
//! actual state graph, not a tree of redundant paths.
//!
//! Universes are deliberately tiny: the invariants quantify over all
//! node pairs, cold rebuilds, and route queries, so each state check
//! is a full equivalence audit. The paper's own argument (§3.3) is
//! per-event and local; exhausting a 5-node universe with every
//! 1-edge and 2-edge delta, every departure and arrival order, and
//! every crash point covers the argument's entire case split — head
//! loss, gateway loss, bystander loss, merge, strand, disconnect,
//! join-on-return, elect-on-return — many times over.
//!
//! On violation the checker stops and returns a [`Counterexample`]
//! whose `Display` is a **replayable script**: the universe header,
//! the exact delta + fault of every step from the initial state, and
//! the violated invariant. Paste it into a regression test verbatim.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use crate::churn::{ChurnEngine, FaultPlan, PhaseBoundary};
use crate::invariants::{self, Violation};
use crate::movement::MovementConfig;
use adhoc_cluster::pipeline::Algorithm;
use adhoc_cluster::routing::RoutePlan;
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::graph::{Graph, NodeId};

/// The closed world a check explores: a fixed node set, an initial
/// topology, and the alphabet of deltas the adversary may play.
#[derive(Clone, Debug)]
pub struct Universe {
    /// Node count (keep ≤ 6: every state pays a full cold-rebuild
    /// equivalence audit).
    pub n: usize,
    /// Clustering radius.
    pub k: u32,
    /// Maintained gateway algorithm.
    pub algorithm: Algorithm,
    /// Initial edge set.
    pub initial_edges: Vec<(u32, u32)>,
    /// Edges the adversary may flip (add if absent, remove if
    /// present) — one per step, or two per step when `composite` is
    /// on.
    pub flip: Vec<(u32, u32)>,
    /// Nodes the adversary may switch off (§3.3 departures).
    pub departures: Vec<u32>,
    /// Also play §3.3 arrivals: a departed node from `departures` may
    /// switch back **on**, re-attaching to its alive neighbors from
    /// `initial_edges` (the radio links geometry would restore). Every
    /// arrival runs the full reconcile, including the head-set row
    /// splice when the newcomer elects itself.
    pub arrivals: bool,
    /// Also play composite deltas: pairs of flips in one delta, and
    /// self-inverse deltas (remove + re-add the same edge in one
    /// burst — a topology no-op that still exercises the machine).
    pub composite: bool,
    /// Compile and maintain a route plan (exercises I3 end to end).
    pub routing: bool,
}

impl Universe {
    /// A path universe: nodes 0..n-1 in a line, every path edge
    /// flippable, plus one chord making and breaking a cycle; the two
    /// ends and the middle may depart — and come back (arrivals are in
    /// the alphabet by default).
    pub fn path(n: usize, k: u32, algorithm: Algorithm) -> Self {
        assert!(n >= 3, "a path universe needs at least 3 nodes");
        let initial: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let mut flip = initial.clone();
        flip.push((0, n as u32 - 1)); // the cycle chord
        Universe {
            n,
            k,
            algorithm,
            initial_edges: initial,
            flip,
            departures: vec![0, n as u32 / 2, n as u32 - 1],
            arrivals: true,
            composite: false,
            routing: true,
        }
    }

    fn build_engine(&self) -> ChurnEngine {
        let g = Graph::from_edges(self.n, &self.initial_edges);
        let mut engine = ChurnEngine::build(&g, MovementConfig::strict(self.k, self.algorithm));
        if self.routing {
            engine.enable_routing();
        }
        engine
    }
}

/// Exploration bounds and hooks.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// The universe to exhaust.
    pub universe: Universe,
    /// Maximum number of adversary steps from the initial state.
    /// Exploration to this depth is still *exhaustive*: every delta
    /// sequence of at most this length is covered (modulo state
    /// dedup, which only removes provably redundant suffixes).
    pub max_depth: usize,
    /// Abort (and mark the report truncated) after this many distinct
    /// states.
    pub max_states: usize,
    /// Abort (and mark the report truncated) when exceeded.
    pub time_budget: Option<Duration>,
    /// Empty-delta fixpoint probes per visited state (invariant I2's
    /// stability clause). 0 disables.
    pub stability_steps: usize,
    /// Mutation-testing hook: corrupt the engine after every
    /// transition. A correct checker must then produce a
    /// counterexample (see the `mutation_smoke` test).
    pub mutate_after_step: Option<fn(&mut ChurnEngine)>,
}

impl CheckConfig {
    /// Defaults sized for debug-build test runs: depth 4, generous
    /// state cap, one-minute budget, one stability probe per state.
    pub fn quick(universe: Universe) -> Self {
        CheckConfig {
            universe,
            max_depth: 4,
            max_states: 100_000,
            time_budget: Some(Duration::from_secs(120)),
            stability_steps: 1,
            mutate_after_step: None,
        }
    }
}

/// One adversary move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Flip one edge (add if absent, remove if present).
    Flip(u32, u32),
    /// Flip two distinct edges in a single delta.
    FlipPair((u32, u32), (u32, u32)),
    /// Remove and re-add the same (present) edge in a single delta.
    SelfInverse(u32, u32),
    /// Switch a node off.
    Depart(u32),
    /// Switch a departed node back on (§3.3 arrival), re-attaching it
    /// to its alive initial-topology neighbors.
    Arrive(u32),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Flip(a, b) => write!(f, "flip {a}-{b}"),
            Action::FlipPair((a, b), (c, d)) => write!(f, "flip {a}-{b} + flip {c}-{d}"),
            Action::SelfInverse(a, b) => write!(f, "self-inverse {a}-{b}"),
            Action::Depart(u) => write!(f, "depart {u}"),
            Action::Arrive(u) => write!(f, "arrive {u}"),
        }
    }
}

/// One step of a counterexample trace: the move, the delta it
/// produced, and the injected crash (if any — a crashed step is
/// always followed by `recover()` before the next move).
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The adversary move.
    pub action: Action,
    /// The concrete edge delta the move produced (empty for `Depart`,
    /// whose delta is the isolating one).
    pub delta: TopologyDelta,
    /// The crash injected at this step, if any.
    pub fault: Option<PhaseBoundary>,
}

/// A violated invariant plus the exact script that reaches it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The universe the script runs in.
    pub universe: Universe,
    /// The moves from the initial state, in order.
    pub trace: Vec<TraceStep>,
    /// Every invariant violation observed in the final state.
    pub violations: Vec<Violation>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample (replayable script):")?;
        writeln!(
            f,
            "  universe: n={} k={} algorithm={} routing={}",
            self.universe.n, self.universe.k, self.universe.algorithm, self.universe.routing
        )?;
        writeln!(f, "  initial edges: {:?}", self.universe.initial_edges)?;
        for (i, step) in self.trace.iter().enumerate() {
            write!(f, "  step {}: {}", i + 1, step.action)?;
            if !step.delta.added.is_empty() || !step.delta.removed.is_empty() {
                write!(
                    f,
                    "  (delta: +{:?} -{:?})",
                    step.delta.added, step.delta.removed
                )?;
            }
            match step.fault {
                Some(b) => writeln!(f, "  [crash after {b:?}, then recover]")?,
                None => writeln!(f)?,
            }
        }
        for v in &self.violations {
            writeln!(f, "  violated {v}")?;
        }
        Ok(())
    }
}

/// What an exploration covered.
#[derive(Clone, Debug)]
pub struct Report {
    /// Distinct states visited (after fingerprint dedup).
    pub states: usize,
    /// Engine transitions executed (state × action × fault).
    pub transitions: usize,
    /// Deepest step count reached.
    pub deepest: usize,
    /// True when a bound (states or time) cut the exploration short.
    /// A report with `truncated == false` covered **every** reachable
    /// state up to `max_depth` moves.
    pub truncated: bool,
    /// The first violation found, if any (exploration stops on it).
    pub violation: Option<Counterexample>,
}

/// Structural fingerprint of an engine state — everything durable the
/// invariants quantify over. The route plan is excluded: I1 pins it to
/// a pure function of the rest, so including it would only split
/// states the invariants already prove equivalent. The epoch is
/// excluded for the same reason (it is a publication counter, not
/// state).
fn fingerprint(e: &ChurnEngine) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let g = e.graph();
    for (a, b) in g.edges() {
        (a.index() as u64, b.index() as u64).hash(&mut h);
    }
    0xB0u8.hash(&mut h);
    for v in g.nodes() {
        e.is_departed(v).hash(&mut h);
        e.clustering.head_of[v.index()].index().hash(&mut h);
        e.clustering.dist_to_head[v.index()].hash(&mut h);
    }
    0xB1u8.hash(&mut h);
    for &hd in &e.clustering.heads {
        hd.index().hash(&mut h);
    }
    0xB2u8.hash(&mut h);
    for &hd in &e.cds.heads {
        hd.index().hash(&mut h);
    }
    for &gw in &e.cds.gateways {
        gw.index().hash(&mut h);
    }
    e.is_valid().hash(&mut h);
    h.finish()
}

fn enabled_actions(u: &Universe, e: &ChurnEngine) -> Vec<Action> {
    let alive = |x: u32| !e.is_departed(NodeId(x));
    let mut out = Vec::new();
    for &(a, b) in &u.flip {
        if alive(a) && alive(b) {
            out.push(Action::Flip(a, b));
        }
    }
    if u.composite {
        for (i, &(a, b)) in u.flip.iter().enumerate() {
            for &(c, d) in &u.flip[i + 1..] {
                if alive(a) && alive(b) && alive(c) && alive(d) {
                    out.push(Action::FlipPair((a, b), (c, d)));
                }
            }
        }
        for &(a, b) in &u.flip {
            if alive(a) && alive(b) && e.graph().has_edge(NodeId(a), NodeId(b)) {
                out.push(Action::SelfInverse(a, b));
            }
        }
    }
    for &d in &u.departures {
        if alive(d) {
            out.push(Action::Depart(d));
        } else if u.arrivals {
            out.push(Action::Arrive(d));
        }
    }
    out
}

/// The attach edges an [`Action::Arrive`] produces: the arriving
/// node's `initial_edges` neighbors that are currently alive.
fn arrival_neighbors(u: &Universe, e: &ChurnEngine, node: u32) -> Vec<NodeId> {
    u.initial_edges
        .iter()
        .filter_map(|&(a, b)| {
            if a == node {
                Some(NodeId(b))
            } else if b == node {
                Some(NodeId(a))
            } else {
                None
            }
        })
        .filter(|&w| !e.is_departed(w))
        .collect()
}

fn flip_into(delta: &mut TopologyDelta, g: &Graph, a: u32, b: u32) {
    if g.has_edge(NodeId(a), NodeId(b)) {
        delta.push_removed(NodeId(a), NodeId(b));
    } else {
        delta.push_added(NodeId(a), NodeId(b));
    }
}

fn action_delta(action: Action, u: &Universe, e: &ChurnEngine) -> TopologyDelta {
    let g = e.graph();
    let mut delta = TopologyDelta::new();
    match action {
        Action::Flip(a, b) => flip_into(&mut delta, g, a, b),
        Action::FlipPair((a, b), (c, d)) => {
            flip_into(&mut delta, g, a, b);
            flip_into(&mut delta, g, c, d);
        }
        Action::SelfInverse(a, b) => {
            delta.push_removed(NodeId(a), NodeId(b));
            delta.push_added(NodeId(a), NodeId(b));
        }
        Action::Depart(_) => {}
        Action::Arrive(n) => {
            for w in arrival_neighbors(u, e, n) {
                delta.push_added(NodeId(n), w);
            }
        }
    }
    delta.normalize();
    delta
}

/// Runs one engine transition (step or departure, with optional crash
/// and mandatory recovery) and audits every invariant in the state it
/// lands in. Returns the violations, if any.
fn transition(
    engine: &mut ChurnEngine,
    action: Action,
    delta: &TopologyDelta,
    fault: Option<PhaseBoundary>,
    cfg: &CheckConfig,
) -> Vec<Violation> {
    let pre_plan: Option<RoutePlan> = engine.route_plan().cloned();
    let pre_graph = engine.graph().clone();
    let (mut violations, soft) = invariants::capturing(|| {
        let mut violations = Vec::new();
        let faults = match fault {
            Some(b) => FaultPlan::crash_after(b),
            None => FaultPlan::none(),
        };
        let outcome = match action {
            Action::Depart(u) => engine.depart_faulted(NodeId(u), faults),
            Action::Arrive(u) => {
                // The attach list is re-derived from the recorded delta
                // so a replayed counterexample uses the exact edges.
                let neighbors: Vec<NodeId> = delta
                    .added
                    .iter()
                    .map(|&(a, b)| if a == NodeId(u) { b } else { a })
                    .collect();
                engine.arrive_faulted(NodeId(u), &neighbors, faults)
            }
            _ => engine.step_delta_faulted(delta, faults),
        };
        match outcome {
            Ok(report) => {
                if report.valid != engine.is_valid() {
                    violations.push(Violation {
                        invariant: "I2",
                        detail: "report verdict disagrees with engine verdict".into(),
                    });
                }
                let delta_empty =
                    matches!(action, Action::Flip(..) | Action::FlipPair(..)) && delta.is_empty();
                violations.extend(invariants::check_cost_accounting(
                    &report,
                    delta_empty,
                    engine.clustering.heads.len(),
                ));
            }
            Err(boundary) => {
                // I3 at the crash point: the served plan must still be
                // the pre-step one, byte for byte.
                violations.extend(invariants::check_query_consistency(
                    engine,
                    pre_plan.as_ref(),
                    std::slice::from_ref(&pre_graph),
                ));
                if engine.in_flight() != Some(boundary) {
                    violations.push(Violation {
                        invariant: "I3",
                        detail: format!("crash at {boundary:?} not flagged in-flight"),
                    });
                }
                if engine.recover().is_none() {
                    violations.push(Violation {
                        invariant: "I2",
                        detail: "recover() found nothing in flight after a crash".into(),
                    });
                }
            }
        }
        if let Some(mutate) = cfg.mutate_after_step {
            mutate(engine);
        }
        violations.extend(invariants::check_equivalence(engine));
        violations.extend(invariants::check_convergence(engine, cfg.stability_steps));
        violations.extend(invariants::check_query_consistency(
            engine,
            pre_plan.as_ref(),
            std::slice::from_ref(&pre_graph),
        ));
        violations
    });
    violations.extend(soft.into_iter().map(|s| Violation {
        invariant: "soft",
        detail: s,
    }));
    violations
}

/// Exhausts the universe: BFS over reachable engine states, every
/// enabled action × every fault at every state, all invariants checked
/// after every transition. Stops at the first violation.
pub fn check(cfg: &CheckConfig) -> Report {
    let start = Instant::now();
    let universe = &cfg.universe;
    let faults: &[Option<PhaseBoundary>] = &[
        None,
        Some(PhaseBoundary::Observed),
        Some(PhaseBoundary::Repaired),
    ];

    let root = universe.build_engine();
    let mut report = Report {
        states: 0,
        transitions: 0,
        deepest: 0,
        truncated: false,
        violation: None,
    };

    // Audit the initial state before exploring from it.
    let (root_violations, soft) = invariants::capturing(|| invariants::check_all(&root));
    let mut root_violations = root_violations;
    root_violations.extend(soft.into_iter().map(|s| Violation {
        invariant: "soft",
        detail: s,
    }));
    if !root_violations.is_empty() {
        report.violation = Some(Counterexample {
            universe: universe.clone(),
            trace: Vec::new(),
            violations: root_violations,
        });
        return report;
    }

    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(fingerprint(&root));
    let mut frontier: VecDeque<(ChurnEngine, Vec<TraceStep>)> = VecDeque::new();
    frontier.push_back((root, Vec::new()));
    report.states = 1;

    while let Some((state, trace)) = frontier.pop_front() {
        if trace.len() >= cfg.max_depth {
            continue;
        }
        for action in enabled_actions(universe, &state) {
            let delta = action_delta(action, universe, &state);
            for &fault in faults {
                if let Some(budget) = cfg.time_budget {
                    if start.elapsed() > budget {
                        report.truncated = true;
                        return report;
                    }
                }
                let mut next = state.clone();
                let violations = transition(&mut next, action, &delta, fault, cfg);
                report.transitions += 1;
                let mut step_trace = trace.clone();
                step_trace.push(TraceStep {
                    action,
                    delta: delta.clone(),
                    fault,
                });
                report.deepest = report.deepest.max(step_trace.len());
                if !violations.is_empty() {
                    report.violation = Some(Counterexample {
                        universe: universe.clone(),
                        trace: step_trace,
                        violations,
                    });
                    return report;
                }
                if visited.insert(fingerprint(&next)) {
                    if report.states >= cfg.max_states {
                        report.truncated = true;
                        return report;
                    }
                    report.states += 1;
                    frontier.push_back((next, step_trace));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiniest universe end to end: mostly a smoke test that the
    /// checker terminates and dedups (the integration suite runs the
    /// real sweeps).
    #[test]
    fn three_node_universe_is_clean() {
        let mut cfg = CheckConfig::quick(Universe::path(3, 1, Algorithm::AcLmst));
        cfg.max_depth = 3;
        let report = check(&cfg);
        assert!(report.violation.is_none(), "{}", report.violation.unwrap());
        assert!(!report.truncated);
        assert!(report.states > 1);
        assert!(report.transitions > report.states);
    }

    #[test]
    fn fingerprint_distinguishes_departures() {
        let u = Universe::path(3, 1, Algorithm::AcLmst);
        let a = u.build_engine();
        let mut b = u.build_engine();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.depart(NodeId(2));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
