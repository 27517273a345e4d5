//! Delta-equivalence: the incremental churn engine must be
//! **bit-for-bit indistinguishable** from from-scratch evaluation.
//!
//! After any generated sequence of topology deltas — mobility steps
//! under all three models, node departures, or raw edge flips — the
//! incrementally maintained state must equal a cold
//! `pipeline::run_all` on the final graph and clustering. The engine's
//! algorithm is drawn from all five; it evaluates only that one, so
//! the comparison covers:
//!
//! * head labels (distance rows *and* ball lists),
//! * the NC relation and canonical link paths, plus the AC ones when
//!   the algorithm reads them,
//! * the algorithm's gateway selection and CDS.
//!
//! This is the contract that lets the churn bench compare incremental
//! steps against rebuild-every-step on checksummed-equal structures.

use adhoc_cluster::adjacency::NeighborRule;
use adhoc_cluster::clustering::Clustering;
use adhoc_cluster::pipeline::{self, Algorithm, AlgorithmSet};
use adhoc_cluster::routing::InterMode;
use adhoc_graph::graph::NodeId;
use adhoc_graph::labels::HeadLabels;
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::invariants;
use adhoc_sim::mobility::{
    DirectionConfig, GaussMarkov, GaussMarkovConfig, Mobility, RandomDirection, RandomWaypoint,
    WaypointConfig,
};
use adhoc_sim::movement::MovementConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Label equality plus evaluation equality, for the engine's algorithm
/// and the graphs it reads, against a cold run on the engine's current
/// graph.
fn assert_engine_equals_cold(engine: &ChurnEngine, ctx: &str) {
    let g = engine.graph();
    let clustering: &Clustering = &engine.clustering;

    // Labels: incremental maintenance == cold build, row by row.
    let cold_labels = HeadLabels::build(g, &clustering.heads, 2 * clustering.k + 1);
    let warm = engine.labels();
    assert_eq!(warm.heads(), cold_labels.heads(), "{ctx}: label heads");
    for slot in 0..clustering.heads.len() {
        assert_eq!(
            warm.ball(slot),
            cold_labels.ball(slot),
            "{ctx}: ball of slot {slot}"
        );
        for v in g.nodes() {
            assert_eq!(
                warm.dist(slot, v),
                cold_labels.dist(slot, v),
                "{ctx}: dist slot {slot} node {v:?}"
            );
        }
    }

    // Evaluation: relations, canonical paths, the selection and CDS.
    let cold = pipeline::run_all(g, clustering);
    let eval = engine.evaluation();
    let alg = engine.config().algorithm;
    assert_eq!(eval.algorithms(), AlgorithmSet::only(alg), "{ctx}: scope");
    let mut graphs = vec![("nc", &eval.nc_graph, &cold.nc_graph)];
    if alg.neighbor_rule() == Some(NeighborRule::Adjacent) {
        graphs.push(("ac", &eval.ac_graph, &cold.ac_graph));
    }
    for (name, a, b) in graphs {
        assert_eq!(a.neighbor_sets, b.neighbor_sets, "{ctx}: {name} relation");
        assert_eq!(a.link_count(), b.link_count(), "{ctx}: {name} link count");
        for (l, r) in a.links().zip(b.links()) {
            assert_eq!((l.a, l.b), (r.a, r.b), "{ctx}: {name} pair");
            assert_eq!(l.path, r.path, "{ctx}: {name} path {:?}-{:?}", l.a, l.b);
        }
    }
    assert_eq!(
        eval.of(alg).selection,
        cold.of(alg).selection,
        "{ctx}: {alg} selection"
    );
    assert_eq!(eval.of(alg).cds, cold.of(alg).cds, "{ctx}: {alg} cds");
}

/// A type-erased mobility advance: `(positions, dt, rng)`.
type Advance = Box<dyn FnMut(&mut Vec<adhoc_graph::Point>, f64, &mut StdRng)>;

/// One mobility model chosen by index, erased behind a closure.
fn advance_model(which: usize, n: usize, side: f64, rng: &mut StdRng) -> Advance {
    match which % 3 {
        0 => {
            let mut m = RandomWaypoint::new(
                n,
                WaypointConfig {
                    side,
                    min_speed: 0.5,
                    max_speed: 3.0,
                    pause: 0.5,
                },
                rng,
            );
            Box::new(move |p, dt, r| m.advance(p, dt, r))
        }
        1 => {
            let mut m = RandomDirection::new(n, DirectionConfig::default_for_side(side), rng);
            Box::new(move |p, dt, r| m.advance(p, dt, r))
        }
        _ => {
            let mut m = GaussMarkov::new(n, GaussMarkovConfig::default_for_side(side), rng);
            Box::new(move |p, dt, r| m.advance(p, dt, r))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mobility-delta sequences under all three models, k 1..=4, any
    /// maintained algorithm: the engine's incremental state tracks a
    /// cold `run_all` exactly.
    #[test]
    fn mobility_deltas_match_cold_run_all(
        seed in 0u64..10_000,
        k in 1u32..=4,
        model in 0usize..3,
        steps in 3usize..8,
        alg in 0usize..5,
    ) {
        let alg = Algorithm::ALL[alg];
        let n = 45;
        let side = 100.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<adhoc_graph::Point> = (0..n)
            .map(|_| adhoc_graph::Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        let range = 22.0;
        let mut grid = adhoc_graph::gen::SpatialGrid::build(&positions, range);
        let mut advance = advance_model(model, n, side, &mut rng);
        let mut engine = ChurnEngine::build(grid.graph(), MovementConfig::strict(k, alg));
        let mut pos = positions;
        for step in 0..steps {
            advance(&mut pos, 1.0, &mut rng);
            let delta = grid.update(&pos);
            engine.step_delta(&delta);
            assert_engine_equals_cold(&engine, &format!("{alg} model {model} k={k} step {step}"));
        }
    }

    /// Departure sequences (the §3.3 workload as deltas): bystanders,
    /// gateways, and clusterheads leave one by one; the engine stays
    /// bit-for-bit consistent with cold evaluation throughout.
    #[test]
    fn departure_deltas_match_cold_run_all(
        seed in 0u64..10_000,
        k in 1u32..=4,
        departures in proptest::collection::vec(0u32..40, 1..6),
        alg in 0usize..5,
    ) {
        let alg = Algorithm::ALL[alg];
        let mut rng = StdRng::seed_from_u64(seed);
        let net = adhoc_graph::gen::geometric(
            &adhoc_graph::gen::GeometricConfig::new(40, 100.0, 7.0),
            &mut rng,
        );
        let mut engine = ChurnEngine::build(&net.graph, MovementConfig::strict(k, alg));
        for (i, &uid) in departures.iter().enumerate() {
            let u = NodeId(uid);
            if engine.is_departed(u) {
                continue;
            }
            engine.depart(u);
            assert_engine_equals_cold(&engine, &format!("{alg} k={k} departure {i} of {u:?}"));
        }
    }

    /// Raw edge-flip deltas (the adversarial shape mobility never
    /// produces): snapshot reconciliation stays exact.
    #[test]
    fn edge_flip_deltas_match_cold_run_all(
        seed in 0u64..10_000,
        k in 1u32..=3,
        flips in proptest::collection::vec((0u32..30, 0u32..30), 1..20),
        alg in 0usize..5,
    ) {
        let alg = Algorithm::ALL[alg];
        let mut rng = StdRng::seed_from_u64(seed);
        let net = adhoc_graph::gen::geometric(
            &adhoc_graph::gen::GeometricConfig::new(30, 100.0, 6.0),
            &mut rng,
        );
        let mut g = net.graph.clone();
        let mut engine = ChurnEngine::build(&g, MovementConfig::strict(k, alg));
        for (i, &(a, b)) in flips.iter().enumerate() {
            let (a, b) = (NodeId(a), NodeId(b));
            if a == b {
                continue;
            }
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            } else {
                g.add_edge(a, b);
            }
            engine.step(&g);
            assert_engine_equals_cold(&engine, &format!("{alg} k={k} flip {i}"));
        }
    }
}

/// The mixed workload: drift punctuated by departures — the scenario
/// the churn bench sweeps — in one deterministic integration test, once
/// per maintained algorithm on the same inputs. Departed nodes are
/// parked far outside the area (their real radio is off) and pinned
/// there, so the grid topology and the engine's view stay in lock-step.
#[test]
fn mixed_churn_workload_stays_exact() {
    for alg in Algorithm::ALL {
        let mut rng = StdRng::seed_from_u64(2024);
        let net = adhoc_graph::gen::geometric(
            &adhoc_graph::gen::GeometricConfig::new(70, 100.0, 8.0),
            &mut rng,
        );
        let mut model = RandomWaypoint::new(
            70,
            WaypointConfig {
                side: 100.0,
                min_speed: 0.3,
                max_speed: 2.0,
                pause: 1.0,
            },
            &mut rng,
        );
        let park =
            |u: NodeId| adhoc_graph::Point::new(10_000.0 + 1_000.0 * u.index() as f64, 10_000.0);
        let mut grid = adhoc_graph::gen::SpatialGrid::build(&net.positions, net.range);
        let mut engine = ChurnEngine::build(grid.graph(), MovementConfig::strict(2, alg));
        let mut pos = net.positions.clone();
        let mut gone: Vec<NodeId> = Vec::new();
        for round in 0..12 {
            model.advance(&mut pos, 1.0, &mut rng);
            for &u in &gone {
                pos[u.index()] = park(u); // switched-off radios do not move
            }
            let delta = grid.update(&pos);
            engine.step_delta(&delta);
            assert_engine_equals_cold(&engine, &format!("{alg} round {round} move"));
            if round % 4 == 3 {
                let u = NodeId(rng.gen_range(0..70u32));
                if !engine.is_departed(u) {
                    pos[u.index()] = park(u);
                    let park_delta = grid.update(&pos);
                    assert!(park_delta.added.is_empty(), "parking only cuts links");
                    // Route the same edge removals through depart() so
                    // the engine applies the §3.3 role rules.
                    engine.depart(u);
                    gone.push(u);
                    assert_eq!(
                        engine.graph().edges().collect::<Vec<_>>(),
                        grid.graph().edges().collect::<Vec<_>>(),
                        "engine and grid topology in lock-step"
                    );
                    assert_engine_equals_cold(&engine, &format!("{alg} round {round} departure"));
                }
            }
        }
        assert!(!gone.is_empty());
    }
}

/// I1 under a pinned inter-head layout: an engine forced onto hub
/// labels below the `Auto` threshold checks its served plan against a
/// fresh compile under the same policy, so every mode checks clean.
#[test]
fn pinned_inter_layout_passes_equivalence() {
    let mut rng = StdRng::seed_from_u64(120);
    let net = adhoc_graph::gen::geometric(
        &adhoc_graph::gen::GeometricConfig::new(120, 100.0, 8.0),
        &mut rng,
    );
    for (mode, layout) in [
        (InterMode::Auto, "dense"),
        (InterMode::Dense, "dense"),
        (InterMode::Hub, "hub"),
    ] {
        let mut engine =
            ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcLmst));
        engine.enable_routing_with_inter(mode);
        for uid in [7u32, 31, 64] {
            engine.depart(NodeId(uid));
            assert_eq!(
                engine.route_plan().unwrap().inter_layout(),
                layout,
                "{mode:?}"
            );
            let violations = invariants::check_equivalence(&engine);
            assert!(
                violations.is_empty(),
                "{mode:?} after departing {uid}: {violations:?}"
            );
        }
    }
}
