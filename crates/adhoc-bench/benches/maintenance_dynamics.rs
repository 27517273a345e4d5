//! Dynamics benchmarks: §3.3 departure cost by role through the churn
//! engine, hierarchy construction, and mobility stepping. These
//! quantify the paper's locality argument — a bystander repair should
//! be orders of magnitude cheaper than re-running the pipeline.

use adhoc_cluster::clustering::MemberPolicy;
use adhoc_cluster::hierarchy::Hierarchy;
use adhoc_cluster::pipeline::{run, Algorithm, PipelineConfig};
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::mobility::{MobileNetwork, WaypointConfig};
use adhoc_sim::movement::MovementConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_repairs(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(404);
    let net = gen::geometric(&GeometricConfig::new(100, 100.0, 8.0), &mut rng);
    let k = 2;
    let engine = ChurnEngine::build(&net.graph, MovementConfig::strict(k, Algorithm::AcLmst));

    // Find one representative node of each §3.3 role.
    let mut by_role = std::collections::BTreeMap::new();
    for u in net.graph.nodes() {
        let role = if engine.clustering.is_head(u) {
            "Clusterhead"
        } else if engine.cds.gateways.contains(&u) {
            "Gateway"
        } else {
            "Bystander"
        };
        by_role.entry(role).or_insert(u);
    }

    let mut group = c.benchmark_group("maintenance_N100_k2");
    // Each departure runs on a fresh clone of the built engine; this
    // arm times the clone alone so its cost can be subtracted.
    group.bench_function("engine_clone", |b| {
        b.iter(|| black_box(engine.clone()));
    });
    for (role, u) in by_role {
        group.bench_function(format!("departure_{role}"), |b| {
            b.iter(|| {
                let mut e = engine.clone();
                black_box(e.depart(u))
            });
        });
    }
    group.bench_function("full_pipeline_rerun_for_scale", |b| {
        b.iter(|| black_box(run(&net.graph, Algorithm::AcLmst, &PipelineConfig::new(k))));
    });
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(640);
    let net = gen::geometric(&GeometricConfig::new(200, 100.0, 6.0), &mut rng);
    c.bench_function("hierarchy_3level_N200", |b| {
        b.iter(|| {
            black_box(Hierarchy::build(&net.graph, &[1, 1, 1], MemberPolicy::IdBased).head_counts())
        });
    });
}

fn bench_mobility(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(888);
    let net = gen::geometric(&GeometricConfig::new(150, 100.0, 8.0), &mut rng);
    c.bench_function("mobility_step_N150", |b| {
        let mut mobile = MobileNetwork::new(
            net.positions.clone(),
            net.range,
            WaypointConfig::default_for_side(100.0),
            &mut rng,
        );
        b.iter(|| black_box(mobile.step(1.0, &mut rng).churn()));
    });
}

criterion_group!(benches, bench_repairs, bench_hierarchy, bench_mobility);
criterion_main!(benches);
