//! Executable invariants of the reconciliation state machine.
//!
//! The churn engine's correctness argument is four properties, each of
//! which this module turns into a checkable function over the engine's
//! **public** state (the checks never reach into private fields, so
//! they hold exactly as much as an external observer could demand):
//!
//! * **I1 — equivalence** ([`check_equivalence`]): the maintained
//!   labels, evaluation (the NC graph, the AC graph when the maintained
//!   algorithm reads it, and that algorithm's selection and CDS), and
//!   compiled route plan are bit-for-bit what a cold rebuild on the
//!   current graph and clustering produces. Incremental maintenance is
//!   an optimization, never an approximation.
//! * **I2 — convergence** ([`check_convergence`]): the engine's
//!   validity verdict equals what direct verification of the
//!   maintained CDS says, and its survivor-connectivity verdict what a
//!   direct BFS says; invalidity only ever persists while the
//!   surviving nodes are disconnected (where no CDS can verify); and
//!   empty deltas are fixpoints — they cost nothing and preserve the
//!   verdict.
//! * **I3 — query consistency** ([`check_query_consistency`]): the
//!   served route plan is never torn. Mid-reconcile (or after a
//!   crash) queries read exactly the pre-step plan; after publish the
//!   epoch has advanced monotonically; and every route the served
//!   plan answers is a valid walk on at least one recent graph with
//!   the queried endpoints.
//! * **I4 — cost accounting** ([`check_cost_accounting`]): charged
//!   node-rounds are non-negative (by type) and zero **iff** the
//!   delta was empty — with the honest caveat that only the "empty ⇒
//!   zero" direction plus "bystander-only deltas may legally cost
//!   zero" is decidable from a report, so the converse is checked as
//!   "zero cost ⇒ no orphans and no repair level"; and the dirty-head
//!   count never exceeds the head count.
//!
//! Checks return [`Violation`] lists rather than panicking, so the
//! model checker ([`crate::modelcheck`]) can print a replayable
//! counterexample instead of aborting mid-enumeration.
//!
//! # Soft checks
//!
//! The engine's internal `debug_assert!`-style sanity conditions are
//! routed through [`soft_check`]. Normally a failed soft check is a
//! debug assertion (loud in tests, free in release); inside a
//! [`capturing`] scope it is *recorded* instead, so a deliberately
//! corrupted engine (mutation testing) yields a counterexample rather
//! than an abort.

use std::cell::{Cell, RefCell};
use std::fmt;

use crate::churn::ChurnEngine;
use crate::movement::{RepairLevel, StepReport};
use adhoc_cluster::adjacency::NeighborRule;
use adhoc_cluster::pipeline;
use adhoc_cluster::routing::{self, RoutePlan};
use adhoc_graph::connectivity;
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::labels::HeadLabels;

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static SOFT_VIOLATIONS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A failed invariant: which one, and what exactly disagreed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Invariant identifier (`"I1"`..`"I4"`, or `"soft"` for a
    /// captured internal sanity check).
    pub invariant: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            invariant,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Checks an internal sanity condition. Outside a [`capturing`] scope
/// this is a `debug_assert!`; inside one, a failure is recorded (and
/// execution continues) so callers receive a checkable violation
/// instead of an abort. Returns `cond`.
pub fn soft_check(cond: bool, what: &str) -> bool {
    if !cond {
        if CAPTURING.with(|c| c.get()) {
            SOFT_VIOLATIONS.with(|v| v.borrow_mut().push(what.to_string()));
        } else {
            debug_assert!(cond, "invariant violated: {what}");
        }
    }
    cond
}

/// Runs `f` with soft-check capturing enabled and returns its result
/// together with every soft violation recorded during the call.
/// Nested capture scopes are flattened (the outermost collects).
pub fn capturing<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    struct Guard {
        was: bool,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            CAPTURING.with(|c| c.set(self.was));
        }
    }
    let guard = Guard {
        was: CAPTURING.with(|c| c.replace(true)),
    };
    let out = f();
    drop(guard);
    let recorded = if CAPTURING.with(|c| c.get()) {
        Vec::new() // nested scope: let the outermost collect
    } else {
        SOFT_VIOLATIONS.with(|v| std::mem::take(&mut *v.borrow_mut()))
    };
    (out, recorded)
}

fn label_mismatch(maintained: &HeadLabels, fresh: &HeadLabels) -> Option<String> {
    if maintained.heads() != fresh.heads() {
        return Some(format!(
            "label head rows {:?} != fresh {:?}",
            maintained.heads(),
            fresh.heads()
        ));
    }
    if maintained.bound() != fresh.bound() {
        return Some(format!(
            "label bound {} != fresh {}",
            maintained.bound(),
            fresh.bound()
        ));
    }
    for slot in 0..maintained.heads().len() {
        let mut a: Vec<NodeId> = maintained.ball(slot).to_vec();
        let mut b: Vec<NodeId> = fresh.ball(slot).to_vec();
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            return Some(format!("slot {slot} ball {a:?} != fresh {b:?}"));
        }
        for &v in &a {
            let (dm, df) = (maintained.dist(slot, v), fresh.dist(slot, v));
            if dm != df {
                return Some(format!("slot {slot} dist to {v:?}: {dm} != fresh {df}"));
            }
        }
    }
    None
}

/// **I1 — equivalence.** The maintained labels, evaluation, and route
/// plan equal a cold rebuild on the engine's current graph and
/// clustering; departed nodes carry the departure sentinel and alive
/// members sit within `k` of their recorded head at their recorded
/// distance (members a capped policy parked on the sentinel excepted).
pub fn check_equivalence(engine: &ChurnEngine) -> Vec<Violation> {
    let mut out = Vec::new();
    let g = engine.graph();
    let clustering = &engine.clustering;
    let k = engine.config().k;
    let maintained = engine.labels();
    let fresh = HeadLabels::build(g, &clustering.heads, maintained.bound());

    // Affiliation sanity: heads self-affiliated, departed nodes out of
    // every cluster, alive members within k at the recorded distance
    // (read off the cold labels, whose bound 2k+1 covers every distance
    // up to k exactly). Members parked on the departure sentinel by a
    // capped repair policy are knowingly unaffiliated.
    for v in g.nodes() {
        let h = clustering.head_of(v);
        if engine.is_departed(v) {
            if h != NodeId(u32::MAX) || clustering.dist_to_head[v.index()] != 0 {
                out.push(Violation::new(
                    "I1",
                    format!("departed {v:?} still affiliated to {h:?}"),
                ));
            }
            if clustering.heads.binary_search(&v).is_ok() {
                out.push(Violation::new(
                    "I1",
                    format!("departed {v:?} listed as head"),
                ));
            }
            continue;
        }
        if clustering.is_head(v) {
            if h != v || clustering.dist_to_head[v.index()] != 0 {
                out.push(Violation::new(
                    "I1",
                    format!("head {v:?} not self-affiliated"),
                ));
            }
            continue;
        }
        if h == NodeId(u32::MAX) {
            continue;
        }
        let d = clustering.dist_to_head[v.index()];
        if d > k {
            out.push(Violation::new(
                "I1",
                format!("member {v:?} recorded {d} > k hops from {h:?}"),
            ));
        }
        match fresh.slot(h) {
            Some(slot) if fresh.dist(slot, v) == d => {}
            Some(slot) => out.push(Violation::new(
                "I1",
                format!(
                    "member {v:?} recorded {d} hops from {h:?}, true distance {}",
                    fresh.dist(slot, v)
                ),
            )),
            None => out.push(Violation::new(
                "I1",
                format!("member {v:?} affiliated to non-head {h:?}"),
            )),
        }
    }

    // Labels ≡ cold rebuild (same bound).
    if let Some(why) = label_mismatch(maintained, &fresh) {
        out.push(Violation::new("I1", why));
    }

    // Evaluation ≡ cold run_all, for the maintained algorithm and the
    // graphs it reads.
    let alg = engine.config().algorithm;
    let fresh_eval = pipeline::run_all(g, clustering);
    let eval = engine.evaluation();
    let mut graphs = vec![("NC", &eval.nc_graph, &fresh_eval.nc_graph)];
    if alg.neighbor_rule() == Some(NeighborRule::Adjacent) {
        graphs.push(("AC", &eval.ac_graph, &fresh_eval.ac_graph));
    }
    for (name, ours, cold) in graphs {
        if ours.neighbor_sets != cold.neighbor_sets {
            out.push(Violation::new(
                "I1",
                format!("{name} neighbor sets diverged from run_all"),
            ));
        }
        if ours.link_count() != cold.link_count()
            || ours
                .links()
                .zip(cold.links())
                .any(|(l, r)| (l.a, l.b) != (r.a, r.b) || l.path != r.path)
        {
            out.push(Violation::new(
                "I1",
                format!("{name} virtual links diverged from run_all"),
            ));
        }
    }
    match eval.get(alg) {
        None => out.push(Violation::new(
            "I1",
            format!("the evaluation lacks the maintained {alg}"),
        )),
        Some(ours) => {
            let cold = fresh_eval.of(alg);
            if ours.selection != cold.selection {
                out.push(Violation::new(
                    "I1",
                    format!("{alg} selection diverged from run_all"),
                ));
            }
            if ours.cds != cold.cds {
                out.push(Violation::new(
                    "I1",
                    format!("{alg} CDS diverged from run_all"),
                ));
            }
        }
    }

    // Served plan ≡ fresh compile (content equality; epoch excluded)
    // under the inter-head layout policy the plan was compiled with.
    // Skipped mid-flight: publish has not run, so the served plan is
    // deliberately the pre-step one (that is I3's business).
    if engine.in_flight().is_none() {
        if let Some(plan) = engine.route_plan() {
            let fresh_plan = RoutePlan::compile_with(
                g,
                clustering,
                engine.labels(),
                eval.selected_links(engine.config().algorithm),
                plan.inter_mode(),
            );
            if *plan != fresh_plan {
                out.push(Violation::new("I1", "served route plan != fresh compile"));
            }
        }
    }
    out
}

/// **I2 — convergence.** The engine's verdict equals direct
/// verification of the maintained CDS, and [`ChurnEngine::alive_connected`]
/// equals a BFS over the survivors; invalidity is only tolerated
/// while the surviving nodes are disconnected; and `stability_steps`
/// empty deltas are fixpoints (verdict preserved, zero cost) — checked
/// on a clone, so the engine itself is untouched.
pub fn check_convergence(engine: &ChurnEngine, stability_steps: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    if engine.in_flight().is_some() {
        // Mid-reconcile state is exempt: verdicts are pre-step by
        // design until publish (or recover) runs.
        return out;
    }
    // Direct verification, departure-aware: `Cds::verify` demands
    // domination of *every* node, but departed (switched-off) nodes
    // are exempt — they are exactly the nodes the structure no longer
    // serves. Backbone connectivity is unchanged.
    let g = engine.graph();
    let k = engine.config().k;
    let backbone = connectivity::is_subset_connected(g, &engine.cds.nodes());
    let dist = connectivity::distance_to_set(g, &engine.cds.heads);
    let dominated = g
        .nodes()
        .all(|v| engine.is_departed(v) || dist[v.index()] <= k);
    let direct = backbone && dominated;
    if engine.is_valid() != direct {
        out.push(Violation::new(
            "I2",
            format!(
                "verdict {} but direct verification says {direct} (backbone {backbone}, dominated {dominated})",
                engine.is_valid(),
            ),
        ));
    }
    // Survivor connectivity by a direct BFS, never by the engine's
    // maintained verdict — that would check the labels against
    // themselves.
    let alive: Vec<NodeId> = g.nodes().filter(|&v| !engine.is_departed(v)).collect();
    let survivors_connected = connectivity::is_subset_connected(g, &alive);
    if engine.alive_connected() != survivors_connected {
        out.push(Violation::new(
            "I2",
            format!(
                "maintained survivor connectivity {} but a BFS says {survivors_connected}",
                engine.alive_connected(),
            ),
        ));
    }
    if !engine.is_valid() && survivors_connected {
        out.push(Violation::new(
            "I2",
            "invalid on a connected survivor set: repair must have converged",
        ));
    }
    if stability_steps > 0 {
        let mut probe = engine.clone();
        let verdict = probe.is_valid();
        for i in 0..stability_steps {
            let r = probe.step_delta(&TopologyDelta::new());
            if r.cost != 0 || r.level != RepairLevel::None || r.valid != verdict {
                out.push(Violation::new(
                    "I2",
                    format!("empty delta #{i} not a fixpoint: {r:?}"),
                ));
                break;
            }
        }
    }
    out
}

/// **I3 — query consistency.** Mid-reconcile the served plan is
/// content-identical to the pre-step plan (`pre_plan`); once
/// publication completed, the epoch advanced monotonically. Every
/// route the served plan answers over alive node pairs is a walk with
/// the queried endpoints that is valid on at least one of
/// `recent_graphs` (the graphs of the last few reconciled states) — a
/// query raced against maintenance may see one plan generation old,
/// but never a torn mix of two.
pub fn check_query_consistency(
    engine: &ChurnEngine,
    pre_plan: Option<&RoutePlan>,
    recent_graphs: &[Graph],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(served) = engine.route_plan() else {
        return out;
    };
    if let Some(pre) = pre_plan {
        if engine.in_flight().is_some() {
            if served != pre {
                out.push(Violation::new(
                    "I3",
                    "mid-reconcile plan differs from the pre-step plan (torn publish)",
                ));
            }
        } else if served.epoch() < pre.epoch() {
            out.push(Violation::new(
                "I3",
                format!(
                    "plan epoch moved backwards: {} -> {}",
                    pre.epoch(),
                    served.epoch()
                ),
            ));
        }
    }
    let g = engine.graph();
    for u in g.nodes() {
        for v in g.nodes() {
            if u == v || engine.is_departed(u) || engine.is_departed(v) {
                continue;
            }
            if let Some(walk) = served.route(u, v) {
                let endpoints_ok = walk.first() == Some(&u) && walk.last() == Some(&v);
                let valid_somewhere = recent_graphs
                    .iter()
                    .any(|rg| routing::is_valid_walk(rg, &walk))
                    || routing::is_valid_walk(g, &walk);
                if !endpoints_ok || !valid_somewhere {
                    out.push(Violation::new(
                        "I3",
                        format!("route {u:?}->{v:?} = {walk:?} invalid on every recent graph"),
                    ));
                }
            }
        }
    }
    out
}

/// **I4 — cost accounting.** Costs are non-negative by construction
/// (`usize`); an empty delta reports zero cost, zero orphans, zero
/// dirty heads, and no repair; zero cost implies no orphans were
/// charged and no repair level was reached (the decidable converse —
/// a nonzero delta may legally cost zero when only bystander edges
/// moved); and the dirty-head count never exceeds the head count.
pub fn check_cost_accounting(
    report: &StepReport,
    delta_was_empty: bool,
    head_count: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if delta_was_empty
        && (report.cost != 0
            || report.orphans != 0
            || report.dirty_heads != 0
            || report.level != RepairLevel::None)
    {
        out.push(Violation::new(
            "I4",
            format!("empty delta charged work: {report:?}"),
        ));
    }
    if report.cost == 0 && report.level > RepairLevel::Reaffiliate && head_count > 0 {
        // Gateway refreshes and rebuilds charge every remaining head's
        // 2k+1 ball (each contains at least the head itself), so zero
        // cost at those levels is only possible when no head survived.
        out.push(Violation::new(
            "I4",
            format!("repair level {:?} reported at zero cost", report.level),
        ));
    }
    if report.dirty_heads > head_count {
        out.push(Violation::new(
            "I4",
            format!(
                "dirty_heads {} exceeds head count {head_count}",
                report.dirty_heads
            ),
        ));
    }
    out
}

/// Runs every invariant that is decidable from the engine alone
/// (I1 + I2 without stability probing) — the convenience entry the
/// quick tests use between steps.
pub fn check_all(engine: &ChurnEngine) -> Vec<Violation> {
    let mut out = check_equivalence(engine);
    out.extend(check_convergence(engine, 0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnEngine;
    use crate::movement::MovementConfig;
    use adhoc_cluster::pipeline::Algorithm;
    use adhoc_graph::gen;

    #[test]
    fn healthy_engine_passes_all_invariants() {
        let g = gen::grid(3, 4);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        assert_eq!(check_all(&e), vec![]);
        assert_eq!(check_convergence(&e, 2), vec![]);
        let pre = e.route_plan().unwrap().clone();
        assert_eq!(
            check_query_consistency(&e, Some(&pre), std::slice::from_ref(&g)),
            vec![]
        );
    }

    #[test]
    fn corrupted_affiliation_is_reported_not_aborted() {
        let g = gen::path(5);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        // Sabotage: point a member at a head 2 hops away under k=1.
        e.clustering.dist_to_head[1] = 2;
        let violations = check_equivalence(&e);
        assert!(
            violations.iter().any(|v| v.invariant == "I1"),
            "corruption must surface as an I1 violation: {violations:?}"
        );

        // A stale distance still within k: member 1 sits one hop from
        // head 0 but records two under k=2.
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(2, Algorithm::AcLmst));
        assert_eq!(e.clustering.head_of(NodeId(1)), NodeId(0));
        assert_eq!(e.clustering.dist_to_head[1], 1);
        assert!(check_equivalence(&e).is_empty());
        e.clustering.dist_to_head[1] = 2;
        let violations = check_equivalence(&e);
        assert!(
            violations.iter().any(|v| v.invariant == "I1"),
            "a within-k stale distance must surface as an I1 violation: {violations:?}"
        );
    }

    #[test]
    fn soft_checks_record_under_capture_and_return_result() {
        let ((), recorded) = capturing(|| {
            soft_check(true, "fine");
            soft_check(false, "broken once");
            soft_check(false, "broken twice");
        });
        assert_eq!(recorded, vec!["broken once", "broken twice"]);
        // A later capture starts clean.
        let ((), recorded) = capturing(|| ());
        assert!(recorded.is_empty());
    }

    #[test]
    fn cost_accounting_flags_phantom_work() {
        let report = StepReport {
            level: RepairLevel::Full,
            orphans: 3,
            merged_head_pairs: 0,
            cost: 5,
            valid: true,
            dirty_heads: 1,
        };
        assert!(!check_cost_accounting(&report, true, 4).is_empty());
        assert!(check_cost_accounting(&report, false, 4).is_empty());
        let mut over = report.clone();
        over.dirty_heads = 9;
        assert!(!check_cost_accounting(&over, false, 4).is_empty());
    }
}
