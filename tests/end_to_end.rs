//! Cross-crate end-to-end tests through the `khop` umbrella: from
//! network generation to verified CDS, distributed execution,
//! churn-engine maintenance, and energy rotation chained together.

use khop::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn full_stack_pipeline_on_paper_workload() {
    let mut rng = StdRng::seed_from_u64(12345);
    for (n, d) in [(50usize, 6.0), (100, 6.0), (100, 10.0), (200, 6.0)] {
        let net = gen::geometric(&gen::GeometricConfig::new(n, 100.0, d), &mut rng);
        for k in 1..=4u32 {
            let cfg = PipelineConfig::new(k);
            let clustering = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            clustering.verify(&net.graph).unwrap();
            for alg in Algorithm::ALL {
                let out = pipeline::run_on(&net.graph, alg, &clustering);
                out.cds
                    .verify(&net.graph, k)
                    .unwrap_or_else(|e| panic!("N={n} D={d} k={k} {alg}: {e}"));
            }
            let _ = cfg;
        }
    }
}

#[test]
fn distributed_then_repair_chain() {
    // Run the distributed protocol, then kill a node and repair with
    // the §3.3 rules; repaired structures must validate.
    let mut rng = StdRng::seed_from_u64(777);
    let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 8.0), &mut rng);
    let k = 2;
    let run = run_protocol(&net.graph, &ProtocolConfig::new(k, Algorithm::AcLmst));

    // The engine builds the centralized structures, which equal the
    // distributed outcome (pinned by the equivalence tests).
    let engine = ChurnEngine::build(&net.graph, MovementConfig::strict(k, Algorithm::AcLmst));
    assert_eq!(run.heads, engine.clustering.heads);
    assert_eq!(run.gateways, engine.cds.gateways);

    for _ in 0..10 {
        let victim = NodeId(rng.gen_range(0..net.graph.len() as u32));
        let mut e = engine.clone();
        let r = e.depart(victim);
        assert!(
            survivors_dominated(&e, k) && (r.valid || !e.alive_connected()),
            "repair after {victim:?} ({:?}) invalid",
            r.level
        );
    }
}

/// Every surviving node is within `k` hops of a head of the engine's
/// CDS — required even after the survivors split, when only backbone
/// connectivity is forgiven.
fn survivors_dominated(e: &ChurnEngine, k: u32) -> bool {
    let dist = connectivity::distance_to_set(e.graph(), &e.cds.heads);
    e.graph()
        .nodes()
        .all(|v| e.is_departed(v) || dist[v.index()] <= k)
}

#[test]
fn bystander_repairs_are_free_gateway_repairs_are_local() {
    let mut rng = StdRng::seed_from_u64(31);
    let net = gen::geometric(&gen::GeometricConfig::new(100, 100.0, 8.0), &mut rng);
    let k = 2;
    let engine = ChurnEngine::build(&net.graph, MovementConfig::strict(k, Algorithm::AcLmst));

    let mut saw_bystander = false;
    for u in net.graph.nodes() {
        if engine.clustering.is_head(u) || engine.cds.gateways.contains(&u) {
            continue;
        }
        let mut e = engine.clone();
        let r = e.depart(u);
        // No orphaned cluster-mate: the bystander rule did not escalate.
        if r.orphans == 0 {
            saw_bystander = true;
            assert_eq!(r.level, RepairLevel::None, "paper rule: nothing to do");
            assert_eq!(r.cost, 0);
            assert_eq!(e.cds.gateways, engine.cds.gateways);
        }
    }
    assert!(saw_bystander, "workload should contain plain members");
}

#[test]
fn rotation_vs_static_on_random_network() {
    let mut rng = StdRng::seed_from_u64(2);
    let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 8.0), &mut rng);
    let model = EnergyModel {
        initial: 500,
        head_cost: 50,
        gateway_cost: 30,
        member_cost: 10,
    };
    let epochs = 60;
    let rot = energy::run_lifetime(
        &net.graph,
        2,
        Algorithm::AcLmst,
        &model,
        RotationPolicy::ResidualEnergy,
        epochs,
    );
    let stat = energy::run_lifetime(
        &net.graph,
        2,
        Algorithm::AcLmst,
        &model,
        RotationPolicy::StaticLowestId,
        epochs,
    );
    let rd = rot.first_death_epoch.unwrap_or(epochs + 1);
    let sd = stat.first_death_epoch.unwrap_or(epochs + 1);
    assert!(
        rd >= sd,
        "rotation must not shorten time-to-first-death (rot {rd} vs static {sd})"
    );
    assert!(rot.head_changes > stat.head_changes);
}

#[test]
fn mobility_epochs_keep_structures_buildable() {
    let mut rng = StdRng::seed_from_u64(1234);
    let base = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 9.0), &mut rng);
    let mut mobile = MobileNetwork::new(
        base.positions.clone(),
        base.range,
        WaypointConfig::default_for_side(100.0),
        &mut rng,
    );
    let mut built = 0;
    for _ in 0..15 {
        mobile.step(1.0, &mut rng);
        if !connectivity::is_connected(mobile.graph()) {
            continue;
        }
        let out = pipeline::run(mobile.graph(), Algorithm::AcLmst, &PipelineConfig::new(2));
        out.cds.verify(mobile.graph(), 2).unwrap();
        built += 1;
    }
    assert!(built > 0, "some epochs must yield a connected network");
}

#[test]
fn umbrella_reexports_are_usable() {
    // Compile-level test that the prelude exposes the whole stack.
    let g = gen::path(5);
    let key = PriorityKey::new(0, NodeId(1));
    assert_eq!(key.id, NodeId(1));
    let c = clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
    let vg = VirtualGraph::build(&g, &c, NeighborRule::Adjacent);
    assert!(vg.link_count() > 0);
    let sel = gateway::lmstga(&vg, &c);
    let cds = Cds::assemble(&c, &sel);
    assert!(matches!(cds.verify(&g, 1), Ok(())));
    let hd = HighestDegree::from_graph(&g);
    let _ = hd.key(NodeId(0));
    let rt = RandomTimer::sample(5, &mut StdRng::seed_from_u64(0));
    let _ = rt.key(NodeId(0));
    let re = ResidualEnergy::new(vec![1; 5]);
    let _ = re.key(NodeId(0));
}

#[test]
fn sequential_departure_chain_stays_valid() {
    // Failure injection: five successive departures, each repaired
    // from the previous repair's structures (not from scratch). The
    // repaired clustering/CDS must stay valid for the shrinking
    // network as long as it remains connected.
    let mut rng = StdRng::seed_from_u64(909);
    let net = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 9.0), &mut rng);
    let k = 2;
    let mut engine = ChurnEngine::build(&net.graph, MovementConfig::strict(k, Algorithm::AcLmst));

    for round in 0..5 {
        // Pick an alive victim deterministically.
        let victim = net
            .graph
            .nodes()
            .find(|&v| !engine.is_departed(v) && (v.0 as usize + round).is_multiple_of(3))
            .expect("alive victim");
        let r = engine.depart(victim);
        let connected = engine.alive_connected();
        assert!(
            survivors_dominated(&engine, k) && (r.valid || !connected),
            "round {round}: repair after {victim:?} invalid"
        );
        assert!(
            engine
                .clustering
                .heads
                .iter()
                .all(|&h| !engine.is_departed(h)),
            "round {round}: a departed node is a head"
        );
        if !connected {
            break; // network split: chain ends, best-effort structures
        }
    }
}

#[test]
fn departure_then_arrival_round_trip() {
    // A node leaves and the same radio footprint later switches on
    // again: repair + arrival must restore a valid structure.
    let mut rng = StdRng::seed_from_u64(404);
    let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 9.0), &mut rng);
    let k = 2;
    let mut engine = ChurnEngine::build(&net.graph, MovementConfig::strict(k, Algorithm::AcLmst));
    let victim = NodeId(33);
    engine.depart(victim);
    if !engine.alive_connected() {
        return; // unlucky articulation point; covered by other tests
    }
    // The node switches back on with its original links: it joins a
    // head within k hops or becomes one (distance 0).
    let r = engine.arrive(victim, net.graph.neighbors(victim));
    assert!(engine.clustering.dist_to_head[victim.index()] <= k);
    assert!(r.valid);
    assert!(engine.cds.verify(&net.graph, k).is_ok());
}

#[test]
fn pipeline_is_robust_to_quasi_udg_topologies() {
    // The paper's theorems never use geometry — only graph
    // connectivity — so the whole pipeline must keep working when the
    // radio model stops being a perfect disk (quasi-UDG with a gray
    // zone between r and 1.5r).
    let mut rng = StdRng::seed_from_u64(606);
    for k in 1..=3u32 {
        let net = gen::quasi_geometric(
            &gen::GeometricConfig::new(100, 100.0, 8.0),
            1.5,
            0.5,
            &mut rng,
        );
        let clustering = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        clustering.verify(&net.graph).unwrap();
        for alg in Algorithm::ALL {
            let out = pipeline::run_on(&net.graph, alg, &clustering);
            out.cds
                .verify(&net.graph, k)
                .unwrap_or_else(|e| panic!("{alg} on quasi-UDG, k={k}: {e}"));
        }
    }
}

#[test]
fn movement_policy_matches_scratch_rebuild_quality() {
    // After any sequence of repairs, the maintained CDS must stay
    // within a constant factor of what a from-scratch rebuild would
    // produce (here: 2x, empirically loose) — maintenance must not let
    // quality decay without bound.
    let mut rng = StdRng::seed_from_u64(707);
    let base = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 10.0), &mut rng);
    let wp = mobility::WaypointConfig {
        side: 100.0,
        min_speed: 0.2,
        max_speed: 1.0,
        pause: 1.0,
    };
    let model = mobility::RandomWaypoint::new(90, wp, &mut rng);
    let mut mobile = MobileNetwork::with_model(base.positions.clone(), base.range, model);
    let mut maintained =
        ChurnEngine::build(mobile.graph(), MovementConfig::strict(2, Algorithm::AcLmst));
    for _ in 0..25 {
        mobile.step(1.0, &mut rng);
        maintained.step(mobile.graph());
        if !connectivity::is_connected(mobile.graph()) {
            continue;
        }
        let scratch = pipeline::run(mobile.graph(), Algorithm::AcLmst, &PipelineConfig::new(2));
        assert!(
            maintained.cds.size() <= 2 * scratch.cds.size() + 2,
            "maintained CDS {} vs scratch {}",
            maintained.cds.size(),
            scratch.cds.size()
        );
    }
}

#[test]
fn prelude_exposes_the_whole_stack() {
    // Compile-time + smoke check that every major subsystem is
    // reachable through `khop::prelude` alone (the documented entry
    // point): substrate, pipeline, exact solver, protocol, MAC,
    // mobility, movement policy, maintenance, energy, routing.
    let mut rng = StdRng::seed_from_u64(9000);
    let net = gen::geometric(&gen::GeometricConfig::new(40, 100.0, 8.0), &mut rng);
    let k = 1;

    let out = pipeline::run(&net.graph, Algorithm::AcLmst, &PipelineConfig::new(k));
    out.cds.verify(&net.graph, k).unwrap();

    let opt = exact::min_khop_cds(&net.graph, k, &ExactConfig::default());
    assert!(opt.optimal && opt.size() <= out.cds.size());

    let dist = run_protocol(&net.graph, &ProtocolConfig::new(k, Algorithm::AcLmst));
    assert_eq!(dist.heads, out.clustering.heads);

    let r = mac::simulate_with_mac(
        &net.graph,
        &out.clustering,
        &out.cds,
        NodeId(0),
        BroadcastStrategy::Backbone,
        &MacConfig::default(),
        &mut rng,
    );
    assert!(r.delivered > 0);

    let mut m = ChurnEngine::build(&net.graph, MovementConfig::strict(k, Algorithm::AcLmst));
    assert_eq!(m.step(&net.graph).level, RepairLevel::None);

    let p = KhopDegree::from_graph(&net.graph, k);
    let c = clustering::cluster(&net.graph, k, &p, MemberPolicy::IdBased);
    c.verify(&net.graph).unwrap();

    let router = ClusterRouter::build(&net.graph, &out.clustering);
    let path = router
        .route(&net.graph, NodeId(0), NodeId(39))
        .expect("connected backbone");
    assert_eq!(path.first(), Some(&NodeId(0)));
    assert_eq!(path.last(), Some(&NodeId(39)));

    // The compiled serving plan answers the same query with the same
    // walk, without touching the graph at query time.
    let mut scratch = EvalScratch::new();
    let eval = pipeline::run_all_with(&net.graph, &out.clustering, &mut scratch);
    let plan = RoutePlan::compile(
        &net.graph,
        &out.clustering,
        scratch.labels(),
        eval.ac_graph.links(),
    );
    assert_eq!(
        plan.route(NodeId(0), NodeId(39)).as_deref(),
        Some(&path[..])
    );
}
