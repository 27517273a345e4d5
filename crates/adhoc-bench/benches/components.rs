//! Component microbenchmarks and design-choice ablations:
//!
//! * substrate primitives (BFS, bounded BFS, canonical paths, MST);
//! * member-policy ablation (ID vs distance vs size based);
//! * Graph vs Csr traversal representation ablation;
//! * network generation (connected-instance sampling).

use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::bfs::{self, BfsScratch};
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::NodeId;
use adhoc_graph::mst::{kruskal, WeightedEdge};
use adhoc_graph::Csr;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_substrate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let net = gen::geometric(&GeometricConfig::new(200, 100.0, 6.0), &mut rng);
    let csr = Csr::from_graph(&net.graph);

    let mut group = c.benchmark_group("substrate_N200_D6");
    group.bench_function("bfs_full_graph", |b| {
        b.iter(|| black_box(bfs::distances(&net.graph, NodeId(0))));
    });
    group.bench_function("bfs_full_csr", |b| {
        b.iter(|| black_box(bfs::distances(&csr, NodeId(0))));
    });
    group.bench_function("bfs_bounded_k5_scratch_reuse", |b| {
        let mut scratch = BfsScratch::new(csr.len());
        b.iter(|| {
            scratch.run(&csr, NodeId(0), 5);
            black_box(scratch.visited().len())
        });
    });
    group.bench_function("lexico_shortest_path", |b| {
        b.iter(|| {
            black_box(bfs::lexico_shortest_path(
                &csr,
                NodeId(0),
                NodeId(199),
                u32::MAX,
            ))
        });
    });
    group.bench_function("kruskal_random_weights", |b| {
        let edges: Vec<WeightedEdge<u32>> = net
            .graph
            .edges()
            .map(|(a, b)| WeightedEdge::new(a, b, a.0.wrapping_mul(2654435761).wrapping_add(b.0)))
            .collect();
        b.iter(|| black_box(kruskal(csr.len(), &edges).len()));
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    for (n, d) in [(100usize, 6.0), (200, 6.0), (200, 10.0)] {
        group.bench_with_input(
            BenchmarkId::new("connected_geometric", format!("N{n}_D{d}")),
            &(n, d),
            |b, &(n, d)| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut rng = StdRng::seed_from_u64(seed);
                    black_box(gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng).rejected)
                });
            },
        );
    }
    group.finish();

    // Cell-grid vs all-pairs unit-disk construction: the grid is what
    // makes large-N generation (scalability bin) and per-step topology
    // rebuilds (mobility) near-linear.
    let mut group = c.benchmark_group("unit_disk_construction");
    for n in [500usize, 2000] {
        let mut rng = StdRng::seed_from_u64(0xD15C + n as u64);
        let side = 100.0 * (n as f64 / 200.0).sqrt();
        let positions: Vec<adhoc_graph::Point> = (0..n)
            .map(|_| adhoc_graph::Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        let r = 15.0;
        group.bench_with_input(BenchmarkId::new("cell_grid", n), &n, |b, _| {
            b.iter(|| black_box(gen::unit_disk_graph(&positions, r).edge_count()));
        });
        group.bench_with_input(BenchmarkId::new("all_pairs", n), &n, |b, _| {
            b.iter(|| black_box(gen::unit_disk_graph_naive(&positions, r).edge_count()));
        });
    }
    group.finish();
}

fn bench_member_policy_ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(77);
    let net = gen::geometric(&GeometricConfig::new(150, 100.0, 6.0), &mut rng);
    let csr = Csr::from_graph(&net.graph);
    let mut group = c.benchmark_group("member_policy_ablation_N150_k2");
    for (name, policy) in [
        ("id", MemberPolicy::IdBased),
        ("distance", MemberPolicy::DistanceBased),
        ("size", MemberPolicy::SizeBased),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(cluster(&csr, 2, &LowestId, policy).head_count()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_substrate,
    bench_generation,
    bench_member_policy_ablation
);
criterion_main!(benches);
