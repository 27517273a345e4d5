//! Step cost of the three mobility models and of the
//! rebuild-and-recluster loop the stability study runs on top of them.

use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_sim::mobility::{
    DirectionConfig, GaussMarkov, GaussMarkovConfig, MobileNetwork, Mobility, RandomDirection,
    RandomWaypoint, WaypointConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_models(c: &mut Criterion) {
    let n = 200usize;
    let mut rng = StdRng::seed_from_u64(0x30B);
    let base = gen::geometric(&GeometricConfig::new(n, 100.0, 8.0), &mut rng);

    let mut group = c.benchmark_group("mobility_step_N200");
    group.bench_function("random_waypoint", |b| {
        let mut model = RandomWaypoint::new(n, WaypointConfig::default_for_side(100.0), &mut rng);
        let mut positions = base.positions.clone();
        b.iter(|| {
            model.advance(&mut positions, 1.0, &mut rng);
            black_box(positions[0])
        });
    });
    group.bench_function("random_direction", |b| {
        let mut model = RandomDirection::new(n, DirectionConfig::default_for_side(100.0), &mut rng);
        let mut positions = base.positions.clone();
        b.iter(|| {
            model.advance(&mut positions, 1.0, &mut rng);
            black_box(positions[0])
        });
    });
    group.bench_function("gauss_markov", |b| {
        let mut model = GaussMarkov::new(n, GaussMarkovConfig::default_for_side(100.0), &mut rng);
        let mut positions = base.positions.clone();
        b.iter(|| {
            model.advance(&mut positions, 1.0, &mut rng);
            black_box(positions[0])
        });
    });
    group.bench_function("step_rebuild_recluster_k2", |b| {
        let model = RandomWaypoint::new(n, WaypointConfig::default_for_side(100.0), &mut rng);
        let mut net = MobileNetwork::with_model(base.positions.clone(), base.range, model);
        b.iter(|| {
            net.step(1.0, &mut rng);
            black_box(cluster(net.graph(), 2, &LowestId, MemberPolicy::IdBased).head_count())
        });
    });
    group.finish();
}

fn bench_maintenance_policy(c: &mut Criterion) {
    use adhoc_cluster::pipeline::Algorithm;
    use adhoc_sim::churn::ChurnEngine;
    use adhoc_sim::movement::MovementConfig;

    let n = 100usize;
    let mut rng = StdRng::seed_from_u64(0x30C);
    let base = gen::geometric(&GeometricConfig::new(n, 100.0, 10.0), &mut rng);
    let wp = WaypointConfig {
        side: 100.0,
        min_speed: 0.2,
        max_speed: 1.0,
        pause: 2.0,
    };

    let mut group = c.benchmark_group("movement_maintenance_N100_k2");
    group.bench_function("sensitive_step", |b| {
        let model = RandomWaypoint::new(n, wp, &mut rng);
        let mut net = MobileNetwork::with_model(base.positions.clone(), base.range, model);
        let mut m = ChurnEngine::build(net.graph(), MovementConfig::strict(2, Algorithm::AcLmst));
        b.iter(|| {
            // The policy consumes the exact delta the mobile grid
            // reports; cloning + re-diffing the snapshot would bill the
            // policy arm for work it does not need.
            let delta = net.step(1.0, &mut rng);
            black_box(m.step_delta(&delta).cost)
        });
    });
    group.bench_function("rebuild_step", |b| {
        let model = RandomWaypoint::new(n, wp, &mut rng);
        let mut net = MobileNetwork::with_model(base.positions.clone(), base.range, model);
        let cfg = MovementConfig::strict(2, Algorithm::AcLmst);
        b.iter(|| {
            net.step(1.0, &mut rng);
            black_box(ChurnEngine::build(net.graph(), cfg).cds.size())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_models, bench_maintenance_policy);
criterion_main!(benches);
