//! Adversarial attack and recovery workload generators over the
//! [`ChurnEngine`].
//!
//! The maintenance benches exercise *graceful* churn: a handful of
//! random nodes drift and the engine's repair speed is measured. This
//! module supplies the hostile counterpart — workloads designed to
//! destroy connectivity as fast as possible — so the resilience bench
//! can measure *degradation* (how far reachability and stretch fall
//! while the attack runs) and *recovery* (how many reconciles until
//! the served [`RoutePlan`] routes 100% of feasible pairs again).
//!
//! Four attack shapes, in decreasing order of topological insight:
//!
//! * [`AttackKind::Heads`] — remove current clusterheads first (an
//!   attacker who learned the overlay; maximizes orphan repair work);
//! * [`AttackKind::HighestDegree`] — remove hubs by radio degree (an
//!   attacker who can only observe traffic density);
//! * [`AttackKind::Regional`] — correlated regional outages: whole
//!   spatial cells die together (jamming, power loss);
//! * [`AttackKind::Partition`] — mass partition: the median vertical
//!   strip of the field goes down, cutting it in two.
//!
//! Every victim list is **executed through the reconciliation state
//! machine** — each removal is a [`ChurnEngine::depart`] reconcile,
//! each return a [`ChurnEngine::arrive`] reconcile, driven as one
//! [`ChurnEngine::reconcile_batch`] so the maintained route plan is
//! republished once per burst instead of once per victim — so attacks
//! stress exactly the observe/repair/publish path production traffic
//! uses, and [`heal`] doubles as the flash-crowd arrival burst (a
//! stream of `arrive` reconciles against a degraded field).
//!
//! The reachability probe measures what an attack costs a reader of a
//! route plan. [`live_walk`] validates one plan's walk against the
//! engine's live state, and [`reachability`] counts sampled pairs
//! whose endpoints are alive, that the surviving topology connects,
//! and that the plan delivers. The plan may be the live one or a stale
//! one pinned before the attack. Survivor components are read from the
//! engine's maintained labels ([`ChurnEngine::survivor_components`]).

use crate::churn::{BatchOp, ChurnEngine};
use crate::movement::StepReport;
use adhoc_cluster::routing::RoutePlan;
use adhoc_graph::geom::Point;
use adhoc_graph::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The attack taxonomy (see the module docs for the threat model each
/// shape encodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    /// Remove current clusterheads first, highest radio degree first.
    Heads,
    /// Remove alive nodes in decreasing radio-degree order.
    HighestDegree,
    /// Kill whole spatial cells (correlated regional outages).
    Regional,
    /// Kill the median vertical strip, partitioning the field.
    Partition,
}

impl AttackKind {
    /// Every attack shape, in bench-report order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::Heads,
        AttackKind::HighestDegree,
        AttackKind::Regional,
        AttackKind::Partition,
    ];

    /// Stable lowercase name (CLI argument and JSON key).
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::Heads => "heads",
            AttackKind::HighestDegree => "degree",
            AttackKind::Regional => "regional",
            AttackKind::Partition => "partition",
        }
    }

    /// Parses a [`Self::name`] back (CLI entry point).
    pub fn parse(s: &str) -> Option<AttackKind> {
        AttackKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// Number of victims a `fraction` of the currently alive population
/// amounts to (at least one; the whole population at `1.0`).
///
/// # Panics
/// Panics unless `0.0 < fraction <= 1.0`.
fn quota(engine: &ChurnEngine, fraction: f64) -> usize {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "attack fraction must be in (0, 1], got {fraction}"
    );
    let alive = engine
        .graph()
        .nodes()
        .filter(|&v| !engine.is_departed(v))
        .count();
    ((alive as f64 * fraction).round() as usize).clamp(1, alive)
}

/// Alive nodes sorted by decreasing radio degree (ID ascending on
/// ties) — the deterministic hub-first order every targeted attack
/// builds on.
fn by_degree_desc(engine: &ChurnEngine) -> Vec<NodeId> {
    let g = engine.graph();
    let mut alive: Vec<NodeId> = g.nodes().filter(|&v| !engine.is_departed(v)).collect();
    alive.sort_by_key(|&v| (usize::MAX - g.neighbors(v).len(), v));
    alive
}

/// Targeted hub attack: the `fraction` highest-degree alive nodes,
/// highest degree first.
pub fn highest_degree_victims(engine: &ChurnEngine, fraction: f64) -> Vec<NodeId> {
    let n = quota(engine, fraction);
    let mut v = by_degree_desc(engine);
    v.truncate(n);
    v
}

/// Targeted overlay attack: current clusterheads first (highest degree
/// first), then — if the quota exceeds the head count — the remaining
/// highest-degree non-heads.
pub fn head_victims(engine: &ChurnEngine, fraction: f64) -> Vec<NodeId> {
    let n = quota(engine, fraction);
    let is_head = |v: NodeId| engine.clustering.heads.binary_search(&v).is_ok();
    let mut victims: Vec<NodeId> = by_degree_desc(engine)
        .iter()
        .copied()
        .filter(|&v| is_head(v))
        .collect();
    if victims.len() < n {
        victims.extend(
            by_degree_desc(engine)
                .iter()
                .copied()
                .filter(|&v| !is_head(v))
                .take(n - victims.len()),
        );
    }
    victims.truncate(n);
    victims
}

/// Correlated regional outages: spatial cells of side `cell` are
/// sampled uniformly (deterministically from `seed`) and **every**
/// alive node in a sampled cell dies, until at least a `fraction` of
/// the alive population is scheduled. Whole cells die together, so the
/// final count may overshoot the quota — that is the point of a
/// correlated failure.
///
/// # Panics
/// Panics unless `cell` is positive and finite and `positions` covers
/// the engine's node set.
pub fn regional_victims(
    engine: &ChurnEngine,
    positions: &[Point],
    cell: f64,
    fraction: f64,
    seed: u64,
) -> Vec<NodeId> {
    assert!(cell.is_finite() && cell > 0.0, "cell side must be positive");
    assert_eq!(
        positions.len(),
        engine.graph().len(),
        "positions must cover the node set"
    );
    let n = quota(engine, fraction);
    let mut cells: std::collections::BTreeMap<(i64, i64), Vec<NodeId>> = Default::default();
    for v in engine.graph().nodes() {
        if engine.is_departed(v) {
            continue;
        }
        let p = positions[v.index()];
        let key = ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        cells.entry(key).or_default().push(v);
    }
    let mut pool: Vec<Vec<NodeId>> = cells.into_values().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut victims = Vec::new();
    while victims.len() < n && !pool.is_empty() {
        let pick = rng.gen_range(0..pool.len());
        let mut doomed = pool.swap_remove(pick);
        doomed.sort_unstable();
        victims.extend(doomed);
    }
    victims
}

/// Mass partition: the alive nodes are sorted by `x` and the median
/// strip of a `fraction` of them goes down, carving the field into a
/// left and a right component (for strips wider than the radio range).
///
/// # Panics
/// Panics unless `positions` covers the engine's node set.
pub fn partition_victims(engine: &ChurnEngine, positions: &[Point], fraction: f64) -> Vec<NodeId> {
    assert_eq!(
        positions.len(),
        engine.graph().len(),
        "positions must cover the node set"
    );
    let n = quota(engine, fraction);
    let mut alive: Vec<NodeId> = engine
        .graph()
        .nodes()
        .filter(|&v| !engine.is_departed(v))
        .collect();
    alive.sort_by(|&a, &b| {
        positions[a.index()]
            .x
            .total_cmp(&positions[b.index()].x)
            .then(a.cmp(&b))
    });
    let start = (alive.len() - n) / 2;
    alive[start..start + n].to_vec()
}

/// Uniform random victims (deterministic from `seed`) — the graceful
/// baseline the targeted attacks are compared against, and the prep
/// phase of a flash-crowd experiment (depart a random crowd, then
/// [`heal`] it back in one burst).
pub fn random_victims(engine: &ChurnEngine, fraction: f64, seed: u64) -> Vec<NodeId> {
    let n = quota(engine, fraction);
    let mut alive: Vec<NodeId> = engine
        .graph()
        .nodes()
        .filter(|&v| !engine.is_departed(v))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut victims = Vec::with_capacity(n);
    for _ in 0..n {
        victims.push(alive.swap_remove(rng.gen_range(0..alive.len())));
    }
    victims
}

/// Selects a victim list for `kind`. `geometry` (positions + spatial
/// cell side, typically the radio range) is required by the
/// [`Regional`](AttackKind::Regional) and
/// [`Partition`](AttackKind::Partition) shapes and ignored otherwise.
///
/// # Panics
/// Panics if a geometric attack is requested without `geometry`.
pub fn select_victims(
    engine: &ChurnEngine,
    kind: AttackKind,
    fraction: f64,
    geometry: Option<(&[Point], f64)>,
    seed: u64,
) -> Vec<NodeId> {
    match kind {
        AttackKind::Heads => head_victims(engine, fraction),
        AttackKind::HighestDegree => highest_degree_victims(engine, fraction),
        AttackKind::Regional => {
            let (positions, cell) = geometry.expect("regional attack needs positions");
            regional_victims(engine, positions, cell, fraction, seed)
        }
        AttackKind::Partition => {
            let (positions, _) = geometry.expect("partition attack needs positions");
            partition_victims(engine, positions, fraction)
        }
    }
}

/// Executes an attack: departs each victim through a full
/// observe/repair/publish reconcile, returning the per-victim repair
/// reports in order. The whole victim list runs as one
/// [`ChurnEngine::reconcile_batch`], so the maintained route plan is
/// recompiled once at the end of the burst instead of once per victim
/// (reports and final state are bit-identical to one-at-a-time
/// departures — the batch driver pins that).
///
/// # Panics
/// Panics if a victim already departed (victim lists come from the
/// selectors above, which only pick alive nodes).
pub fn execute(engine: &mut ChurnEngine, victims: &[NodeId]) -> Vec<StepReport> {
    let ops: Vec<BatchOp> = victims.iter().map(|&v| BatchOp::Depart(v)).collect();
    engine.reconcile_batch(&ops)
}

/// Heals an attack (equivalently: runs a flash-crowd arrival burst) —
/// each returnee [`arrives`](ChurnEngine::arrive) with the radio links
/// it has in `reference` to nodes alive at that instant, so a crowd
/// returning together reconstructs its internal edges pair by pair as
/// the burst progresses (the batch driver filters each returnee's
/// neighbor list at execution time). Returns the per-arrival reports
/// in order; the route plan republishes once per burst.
///
/// # Panics
/// Panics if a returnee is already present.
pub fn heal(engine: &mut ChurnEngine, reference: &Graph, returnees: &[NodeId]) -> Vec<StepReport> {
    let ops: Vec<BatchOp> = returnees
        .iter()
        .map(|&v| BatchOp::Arrive(v, reference.neighbors(v).to_vec()))
        .collect();
    engine.reconcile_batch(&ops)
}

/// Routes `u -> v` on `plan` into `buf` and validates the walk against
/// the engine's live state: every node on it alive and every step a
/// current radio edge. Returns the walk's hop count, or `None` when the
/// plan has no route or its walk runs through a departed relay or a
/// vanished edge (what a stale plan does once an attack has run).
pub fn live_walk(
    plan: &RoutePlan,
    engine: &ChurnEngine,
    u: NodeId,
    v: NodeId,
    buf: &mut Vec<NodeId>,
) -> Option<u32> {
    let hops = plan.route_into(u, v, buf)?;
    let live = buf.iter().all(|&x| !engine.is_departed(x))
        && buf
            .windows(2)
            .all(|step| engine.graph().neighbors(step[0]).contains(&step[1]));
    live.then_some(hops)
}

/// Reachability of a batch of node pairs under one route plan, against
/// the engine's live state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reach {
    /// Pairs with both endpoints alive.
    pub alive: usize,
    /// Alive pairs in one survivor component: the pairs any plan could
    /// route.
    pub achievable: usize,
    /// Achievable pairs the plan routes with a [`live_walk`].
    pub routed: usize,
}

impl Reach {
    /// Routed share of the alive pairs (1 when none is alive).
    pub fn of_alive(&self) -> f64 {
        share(self.routed, self.alive)
    }

    /// Routed share of the achievable pairs (1 when none is).
    pub fn of_achievable(&self) -> f64 {
        share(self.routed, self.achievable)
    }
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// Counts `pairs` under `plan` against the engine's live state (see
/// [`Reach`]). A valid walk joins its endpoints through survivors, so
/// only achievable pairs are routed.
pub fn reachability(plan: &RoutePlan, engine: &ChurnEngine, pairs: &[(NodeId, NodeId)]) -> Reach {
    let components = engine.survivor_components();
    let mut buf = Vec::new();
    let mut reach = Reach::default();
    for &(u, v) in pairs {
        if engine.is_departed(u) || engine.is_departed(v) {
            continue;
        }
        reach.alive += 1;
        if !components.same_component(u, v) {
            continue;
        }
        reach.achievable += 1;
        if live_walk(plan, engine, u, v, &mut buf).is_some() {
            reach.routed += 1;
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants;
    use crate::movement::MovementConfig;
    use adhoc_cluster::pipeline::Algorithm;
    use adhoc_graph::connectivity::ComponentLabels;
    use adhoc_graph::delta::TopologyDelta;
    use adhoc_graph::gen::{self, GeometricConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64, n: usize) -> gen::GeometricNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::geometric(&GeometricConfig::new(n, 100.0, 8.0), &mut rng)
    }

    #[test]
    fn selectors_are_deterministic_and_respect_quota() {
        let net = net(3, 80);
        let e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        let geometry = Some((net.positions.as_slice(), net.range));
        for kind in AttackKind::ALL {
            let a = select_victims(&e, kind, 0.2, geometry, 7);
            let b = select_victims(&e, kind, 0.2, geometry, 7);
            assert_eq!(a, b, "{} selection must be deterministic", kind.name());
            assert!(!a.is_empty());
            // Whole-cell outages may overshoot; everything else is exact.
            if kind != AttackKind::Regional {
                assert_eq!(a.len(), 16, "{}", kind.name());
            } else {
                assert!(a.len() >= 16, "regional must cover the quota");
            }
            let mut dedup = a.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(
                dedup.len(),
                a.len(),
                "{}: no duplicate victims",
                kind.name()
            );
        }
        assert_eq!(AttackKind::parse("degree"), Some(AttackKind::HighestDegree));
        assert_eq!(AttackKind::parse("bogus"), None);
    }

    #[test]
    fn head_attack_kills_heads_first() {
        let net = net(11, 60);
        let e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        let quota = (e.clustering.heads.len()).min(3);
        let victims = head_victims(&e, quota as f64 / 60.0);
        for v in &victims {
            assert!(e.clustering.heads.contains(v), "{v:?} is not a head");
        }
    }

    #[test]
    fn degree_attack_is_sorted_by_degree() {
        let net = net(5, 50);
        let e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        let victims = highest_degree_victims(&e, 0.3);
        let degrees: Vec<usize> = victims
            .iter()
            .map(|&v| e.graph().neighbors(v).len())
            .collect();
        assert!(degrees.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn partition_strip_is_contiguous_in_x() {
        let net = net(23, 70);
        let e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        let victims = partition_victims(&e, &net.positions, 0.2);
        let xs: Vec<f64> = victims.iter().map(|v| net.positions[v.index()].x).collect();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // No survivor sits strictly inside the strip.
        for v in e.graph().nodes() {
            if victims.contains(&v) {
                continue;
            }
            let x = net.positions[v.index()].x;
            assert!(
                !(x > lo && x < hi),
                "alive node {v:?} inside the downed strip"
            );
        }
    }

    /// Attack then heal through the engine: every reconcile keeps the
    /// maintained ≡ rebuilt contract, and a full heal restores the
    /// exact original topology.
    #[test]
    fn attack_and_heal_round_trip() {
        let net = net(47, 60);
        for kind in AttackKind::ALL {
            let mut e =
                ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
            e.enable_routing();
            let victims = select_victims(
                &e,
                kind,
                0.15,
                Some((net.positions.as_slice(), net.range)),
                9,
            );
            let reports = execute(&mut e, &victims);
            assert_eq!(reports.len(), victims.len());
            assert!(
                invariants::check_all(&e).is_empty(),
                "{}: engine inconsistent mid-attack",
                kind.name()
            );
            let healed = heal(&mut e, &net.graph, &victims);
            assert_eq!(healed.len(), victims.len());
            assert!(
                TopologyDelta::between(e.graph(), &net.graph).is_empty(),
                "{}: heal must restore the original topology",
                kind.name()
            );
            assert!(
                invariants::check_all(&e).is_empty(),
                "{}: engine inconsistent after heal",
                kind.name()
            );
        }
    }
    fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
        (0..n as u32)
            .flat_map(|u| (u + 1..n as u32).map(move |v| (NodeId(u), NodeId(v))))
            .collect()
    }

    #[test]
    fn stale_walk_through_a_departed_relay_is_unroutable() {
        let net = net(31, 60);
        let mut e = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        e.enable_routing();
        let stale = e.route_plan().expect("routing enabled").clone();
        let mut buf = Vec::new();
        let (u, v, relay) = all_pairs(60)
            .into_iter()
            .find_map(|(u, v)| {
                stale.route_into(u, v, &mut buf)?;
                (buf.len() >= 3).then(|| (u, v, buf[1]))
            })
            .expect("some walk has a relay");
        assert!(live_walk(&stale, &e, u, v, &mut buf).is_some());
        e.depart(relay);
        assert_eq!(live_walk(&stale, &e, u, v, &mut buf), None);
        let reach = reachability(&stale, &e, &[(u, v)]);
        assert_eq!((reach.alive, reach.routed), (1, 0));
    }

    #[test]
    fn pair_split_across_survivor_components_is_alive_not_achievable() {
        let g = gen::path(7);
        let mut e = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
        e.enable_routing();
        e.depart(NodeId(3));
        let live = e.route_plan().expect("routing enabled");
        let split = reachability(live, &e, &[(NodeId(0), NodeId(6))]);
        assert_eq!(
            split,
            Reach {
                alive: 1,
                achievable: 0,
                routed: 0
            }
        );
        assert_eq!(split.of_achievable(), 1.0);
        assert_eq!(split.of_alive(), 0.0);
        let departed = reachability(live, &e, &[(NodeId(0), NodeId(3))]);
        assert_eq!(departed, Reach::default());
        let joined = reachability(live, &e, &[(NodeId(0), NodeId(2)), (NodeId(4), NodeId(6))]);
        assert_eq!(
            joined,
            Reach {
                alive: 2,
                achievable: 2,
                routed: 2
            }
        );
    }

    #[test]
    fn live_plan_at_full_routes_every_achievable_pair() {
        let net = net(53, 80);
        let pairs = all_pairs(80);
        for kind in AttackKind::ALL {
            let mut e =
                ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
            e.enable_routing();
            let stale = e.route_plan().expect("routing enabled").clone();
            let victims = select_victims(
                &e,
                kind,
                0.2,
                Some((net.positions.as_slice(), net.range)),
                5,
            );
            execute(&mut e, &victims);
            let live = reachability(e.route_plan().expect("routing enabled"), &e, &pairs);
            let survivors = 80 - victims.len();
            assert_eq!(live.alive, survivors * (survivors - 1) / 2);
            // The achievable count is exactly the pairs a fresh
            // labeling of the surviving topology joins.
            let fresh = ComponentLabels::new(e.graph(), |v| !e.is_departed(v));
            let joined = pairs
                .iter()
                .filter(|&&(u, v)| fresh.same_component(u, v))
                .count();
            assert_eq!(live.achievable, joined, "{}", kind.name());
            assert!(live.achievable > 0);
            assert_eq!(live.routed, live.achievable, "{}", kind.name());
            assert_eq!(live.of_achievable(), 1.0);
            let stale = reachability(&stale, &e, &pairs);
            assert_eq!(
                (stale.alive, stale.achievable),
                (live.alive, live.achievable)
            );
            assert!(stale.routed <= live.routed, "{}", kind.name());
        }
    }
}
