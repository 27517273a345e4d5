//! Design-choice ablation: canonical (ID-ordered lexicographic)
//! shortest paths vs per-endpoint arbitrary shortest paths.
//!
//! DESIGN.md §6: both endpoints of a virtual link must mark the *same*
//! gateway nodes, which the library guarantees by canonicalizing BFS
//! tie-breaks to the lexicographically smallest path. A distributed
//! implementation that skips that agreement has each endpoint extract
//! a path from its own BFS tree; the two trees need not agree, so both
//! paths' interiors end up marked. This ablation measures the gateway
//! inflation that canonicalization avoids (printed once per group) and
//! benches the cost of both variants.

use adhoc_cluster::adjacency::NeighborRule;
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::gateway;
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::virtual_graph::VirtualGraph;
use adhoc_graph::bfs::BfsScratch;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::NodeId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::hint::black_box;

/// Gateways when each endpoint of every realized link extracts a path
/// from its own BFS parent tree (no cross-endpoint agreement).
fn gateways_without_agreement(
    g: &adhoc_graph::Graph,
    links: &[(NodeId, NodeId)],
    heads: &[NodeId],
    bound: u32,
) -> usize {
    let mut marked: BTreeSet<NodeId> = BTreeSet::new();
    let mut scratch = BfsScratch::new(g.len());
    for &(a, b) in links {
        for (src, dst) in [(a, b), (b, a)] {
            scratch.run(g, src, bound);
            let path = scratch.path_to(dst).expect("link endpoints reachable");
            for &v in &path[1..path.len() - 1] {
                marked.insert(v);
            }
        }
    }
    marked.retain(|v| heads.binary_search(v).is_err());
    marked.len()
}

fn bench_tiebreak(c: &mut Criterion) {
    let k = 2u32;
    let mut group = c.benchmark_group("ablation_tiebreak_k2_D6");
    for n in [100usize, 200] {
        let mut rng = StdRng::seed_from_u64(0x71EB + n as u64);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let clu = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let vg = VirtualGraph::build(&net.graph, &clu, NeighborRule::Adjacent);
        let sel = gateway::lmstga(&vg, &clu);
        let canonical = sel.gateway_count();
        let arbitrary =
            gateways_without_agreement(&net.graph, &sel.links_used, &clu.heads, 2 * k + 1);
        eprintln!(
            "tiebreak ablation N={n}: canonical gateways = {canonical}, \
             per-endpoint (no agreement) = {arbitrary} \
             (+{:.0}%)",
            100.0 * (arbitrary as f64 - canonical as f64) / canonical.max(1) as f64
        );
        assert!(
            arbitrary >= canonical,
            "per-endpoint paths can never use fewer gateways"
        );

        group.bench_with_input(BenchmarkId::new("canonical", n), &n, |b, _| {
            b.iter(|| {
                let vg = VirtualGraph::build(&net.graph, &clu, NeighborRule::Adjacent);
                black_box(gateway::lmstga(&vg, &clu).gateway_count())
            });
        });
        group.bench_with_input(BenchmarkId::new("per_endpoint", n), &n, |b, _| {
            b.iter(|| {
                black_box(gateways_without_agreement(
                    &net.graph,
                    &sel.links_used,
                    &clu.heads,
                    2 * k + 1,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tiebreak);
criterion_main!(benches);
