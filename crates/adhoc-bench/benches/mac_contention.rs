//! Runtime of the contention-MAC simulator vs the ideal-MAC one, and
//! the cost of the broadcast strategies under each.

use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::pipeline::{run_on, Algorithm};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::NodeId;
use adhoc_sim::broadcast::{self, Strategy};
use adhoc_sim::mac::{simulate_with_mac, MacConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_mac(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x3AC);
    let net = gen::geometric(&GeometricConfig::new(150, 100.0, 10.0), &mut rng);
    let clu = cluster(&net.graph, 1, &LowestId, MemberPolicy::IdBased);
    let out = run_on(&net.graph, Algorithm::AcLmst, &clu);

    let mut group = c.benchmark_group("broadcast_mac_N150_D10_k1");
    for (name, strategy) in [
        ("flood", Strategy::BlindFlood),
        ("backbone", Strategy::Backbone),
    ] {
        group.bench_with_input(BenchmarkId::new("ideal", name), &strategy, |b, &s| {
            b.iter(|| {
                black_box(
                    broadcast::simulate(&net.graph, &clu, &out.cds, NodeId(0), s).transmissions,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("csma_cw8", name), &strategy, |b, &s| {
            let mut rng = StdRng::seed_from_u64(99);
            b.iter(|| {
                black_box(
                    simulate_with_mac(
                        &net.graph,
                        &clu,
                        &out.cds,
                        NodeId(0),
                        s,
                        &MacConfig::default(),
                        &mut rng,
                    )
                    .transmissions,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mac);
criterion_main!(benches);
