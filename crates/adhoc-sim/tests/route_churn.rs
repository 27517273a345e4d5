//! Churn-aware route serving: the [`ChurnEngine`]'s maintained
//! [`RoutePlan`] must stay **content-equal** (manual `PartialEq` over
//! every table; the publication epoch is deliberately excluded) to a
//! plan compiled from scratch on the engine's current graph,
//! clustering, labels, and backbone — through mobility deltas,
//! bystander/gateway/head departures, and full rebuilds alike.

use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch};
use adhoc_cluster::routing::{walk_hops, RoutePlan};
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::NodeId;
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::mobility::{MobileNetwork, RandomWaypoint, WaypointConfig};
use adhoc_sim::movement::MovementConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Compiles the reference plan from the engine's current state,
/// independently of its maintained one.
fn fresh_plan(engine: &ChurnEngine) -> RoutePlan {
    let mut scratch = EvalScratch::new();
    let eval = pipeline::run_all_with(engine.graph(), &engine.clustering, &mut scratch);
    RoutePlan::compile(
        engine.graph(),
        &engine.clustering,
        scratch.labels(),
        eval.selected_links(engine.config().algorithm),
    )
}

fn assert_plan_current(engine: &ChurnEngine, ctx: &str) {
    let maintained = engine.route_plan().expect("routing enabled");
    let fresh = fresh_plan(engine);
    assert_eq!(maintained, &fresh, "{ctx}: maintained plan diverged");
}

#[test]
fn maintained_plan_tracks_mobility_steps() {
    let mut rng = StdRng::seed_from_u64(41);
    let net = gen::geometric(&GeometricConfig::new(80, 100.0, 8.0), &mut rng);
    let cfg = WaypointConfig {
        side: 100.0,
        min_speed: 0.5,
        max_speed: 2.0,
        pause: 1.0,
    };
    let model = RandomWaypoint::new(80, cfg, &mut rng);
    let mut mobile = MobileNetwork::with_model(net.positions.clone(), net.range, model);
    let mut engine = ChurnEngine::build(
        mobile.graph(),
        MovementConfig::tolerant(2, Algorithm::AcLmst, 1),
    );
    engine.enable_routing();
    assert_plan_current(&engine, "initial");
    for step in 0..20 {
        let delta = mobile.step(0.5, &mut rng);
        engine.step_delta(&delta);
        assert_plan_current(&engine, &format!("mobility step {step}"));
    }
}

#[test]
fn maintained_plan_survives_departures() {
    let mut rng = StdRng::seed_from_u64(17);
    let net = gen::geometric(&GeometricConfig::new(60, 100.0, 8.0), &mut rng);
    let mut engine = ChurnEngine::build(&net.graph, MovementConfig::strict(2, Algorithm::AcMesh));
    engine.enable_routing();
    for uid in [7u32, 30, 51, 12] {
        engine.depart(NodeId(uid));
        assert_plan_current(&engine, &format!("departure of {uid}"));
        // The departed node must be unroutable from the served plan.
        let plan = engine.route_plan().unwrap();
        assert!(plan.route(NodeId(uid), NodeId(0)).is_none());
    }
}

#[test]
fn served_routes_are_valid_after_churn() {
    let mut rng = StdRng::seed_from_u64(23);
    let net = gen::geometric(&GeometricConfig::new(70, 100.0, 8.0), &mut rng);
    let cfg = WaypointConfig {
        side: 100.0,
        min_speed: 1.0,
        max_speed: 3.0,
        pause: 0.5,
    };
    let model = RandomWaypoint::new(70, cfg, &mut rng);
    let mut mobile = MobileNetwork::with_model(net.positions.clone(), net.range, model);
    let mut engine = ChurnEngine::build(
        mobile.graph(),
        MovementConfig::tolerant(2, Algorithm::AcLmst, 1),
    );
    engine.enable_routing();
    for _ in 0..10 {
        let delta = mobile.step(0.5, &mut rng);
        engine.step_delta(&delta);
        let plan = engine.route_plan().unwrap();
        for _ in 0..15 {
            let u = NodeId(rng.gen_range(0..70u32));
            let v = NodeId(rng.gen_range(0..70u32));
            if let Some(walk) = plan.route(u, v) {
                // Served walks follow *current* radio edges.
                assert!(
                    adhoc_cluster::routing::is_valid_walk(engine.graph(), &walk),
                    "{u:?}->{v:?}: {walk:?}"
                );
                assert_eq!(walk[0], u);
                assert_eq!(*walk.last().unwrap(), v);
                assert!(walk_hops(&walk) as usize <= engine.graph().len() * 2);
            }
        }
    }
}

/// Routing stays off (and free) until explicitly enabled.
#[test]
fn routing_is_opt_in() {
    let g = gen::path(9);
    let mut engine = ChurnEngine::build(&g, MovementConfig::strict(1, Algorithm::AcLmst));
    assert!(engine.route_plan().is_none());
    engine.depart(NodeId(4));
    assert!(engine.route_plan().is_none());
    engine.enable_routing();
    assert!(engine.route_plan().is_some());
}
