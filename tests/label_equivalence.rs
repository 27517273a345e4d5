//! Label correctness against an independent oracle: every row of the
//! ball-indexed [`HeadLabels`] must equal a fresh per-head
//! [`bfs::BfsScratch`] run — each distance, and the ball in BFS
//! discovery order — through cold `pipeline::run_all` builds,
//! delta-driven `pipeline::update_all_after` chains, and `HeadLabels::advance`
//! chains that mix deltas with head gains and losses, for k ∈ 1..=4 on
//! 1 to 3 workers. The products the pipeline derives from the rows are
//! checked against the same oracle:
//! the NC relation (heads within `2k+1` BFS hops) and every NC link
//! (the canonical shortest path `bfs::lexico_shortest_path` walks).
//!
//! The oracle keeps a dense `n`-sized distance row per head, so these
//! tests are also the dense ≡ sparse contract: the ball-indexed rows
//! answer exactly what a dense row would.

use khop::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Every row of `labels` equals a per-head BFS on `g` to the labels'
/// bound: each node's distance and the discovery-ordered ball.
fn assert_labels_match_bfs(g: &Graph, labels: &HeadLabels, ctx: &str) {
    let mut oracle = bfs::BfsScratch::new(g.len());
    for (slot, &h) in labels.heads().iter().enumerate() {
        assert_eq!(labels.slot(h), Some(slot), "{ctx}: slot of {h:?}");
        oracle.run(g, h, labels.bound());
        assert_eq!(labels.ball(slot), oracle.visited(), "{ctx}: ball of {h:?}");
        for v in g.nodes() {
            assert_eq!(
                labels.dist(slot, v),
                oracle.dist(v),
                "{ctx}: dist {h:?} -> {v:?}"
            );
        }
    }
}

/// The NC relation and every NC link path equal what per-head BFS
/// derives: the heads within `2k+1` hops, and the canonical shortest
/// path between each linked pair.
fn assert_nc_matches_bfs(g: &Graph, c: &Clustering, eval: &EvaluationOutput, ctx: &str) {
    let bound = 2 * c.k + 1;
    let mut oracle = bfs::BfsScratch::new(g.len());
    for &h in &c.heads {
        oracle.run(g, h, bound);
        let near: Vec<NodeId> = c
            .heads
            .iter()
            .copied()
            .filter(|&o| o != h && oracle.dist(o) <= bound)
            .collect();
        assert_eq!(
            eval.nc_graph.neighbor_sets.of(h),
            &near[..],
            "{ctx}: NC row of {h:?}"
        );
    }
    for l in eval.nc_graph.links() {
        let want = bfs::lexico_shortest_path(g, l.a, l.b, bound);
        assert_eq!(
            Some(l.path.to_vec()),
            want,
            "{ctx}: path {:?}-{:?}",
            l.a,
            l.b
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cold builds on random geometric graphs: the rows and the NC
    /// products equal the BFS oracle, on 1 and 2 workers.
    #[test]
    fn run_all_dense_equals_sparse(
        seed in 0u64..1_000_000,
        n in 40usize..=110,
        k in 1u32..=4,
        denser in 0u32..2,
        workers in 1usize..=2,
    ) {
        let d = if denser == 1 { 10.0 } else { 6.0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&gen::GeometricConfig::new(n, 100.0, d), &mut rng);
        let c = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::with_workers(Parallelism::new(workers));
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        assert_labels_match_bfs(&net.graph, scratch.labels(), "cold");
        assert_nc_matches_bfs(&net.graph, &c, &eval, "cold");
    }

    /// Chained deltas through `advance_labels` + `update_all_after`
    /// (dirty-row repair) keep every row equal to the BFS oracle on the
    /// live graph, and every selection equal to a cold evaluation.
    #[test]
    fn update_all_chain_dense_equals_sparse(
        seed in 0u64..1_000_000,
        k in 1u32..=4,
        workers in 1usize..=2,
    ) {
        let n = 80usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&gen::GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let c = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::with_workers(Parallelism::new(workers));
        let mut prev = pipeline::run_all_with(&g, &c, &mut scratch);
        let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
        for step in 0..10 {
            let mut delta = TopologyDelta::new();
            if step % 3 == 2 && !extras.is_empty() {
                for _ in 0..rng.gen_range(1..=extras.len()) {
                    let (a, b) = extras.swap_remove(rng.gen_range(0..extras.len()));
                    g.remove_edge(a, b);
                    delta.push_removed(a, b);
                }
            } else {
                for _ in 0..rng.gen_range(1..5) {
                    let a = NodeId(rng.gen_range(0..n as u32));
                    let b = NodeId(rng.gen_range(0..n as u32));
                    if a != b && !g.has_edge(a, b) {
                        g.add_edge(a, b);
                        delta.push_added(a, b);
                        extras.push(if a < b { (a, b) } else { (b, a) });
                    }
                }
            }
            delta.normalize();
            let swept = pipeline::advance_labels(&g, &c, &delta, &mut scratch);
            pipeline::update_all_after(&g, &c, &delta, &swept, &mut prev, &mut scratch);
            let ctx = format!("step {step}");
            assert_labels_match_bfs(&g, scratch.labels(), &ctx);
            assert_nc_matches_bfs(&g, &c, &prev, &ctx);
            let cold = pipeline::run_all(&g, &c);
            for alg in Algorithm::ALL {
                prop_assert_eq!(
                    &prev.of(alg).selection, &cold.of(alg).selection,
                    "step {} {} incremental != cold", step, alg
                );
            }
        }
    }

    /// Chains of advances, each mixing an edge delta with head gains
    /// and losses and marking up to every row dirty, on 1–3 workers:
    /// after every advance the rows equal the BFS oracle and a cold
    /// build of the same head list, every gained head is swept, and
    /// the arena is never rebuilt.
    #[test]
    fn head_row_splices_match_bfs(
        seed in 0u64..1_000_000,
        k in 1u32..=4,
        workers in 1usize..=3,
        ops in proptest::collection::vec((0u32..4, 0u32..70, 0usize..=4), 4..14),
    ) {
        let n = 70usize;
        let bound = 2 * k + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&gen::GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let c = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let mut heads = c.heads.clone();
        let mut labels = HeadLabels::build(&g, &heads, bound);
        for (i, &(flips, which, quarters)) in ops.iter().enumerate() {
            // `flips` edge flips at `v`.
            let v = NodeId(which % n as u32);
            let mut delta = TopologyDelta::new();
            for _ in 0..flips {
                let w = NodeId(rng.gen_range(0..n as u32));
                if w == v {
                    continue;
                }
                if g.has_edge(v, w) {
                    g.remove_edge(v, w);
                    delta.push_removed(v, w);
                } else {
                    g.add_edge(v, w);
                    delta.push_added(v, w);
                }
            }
            delta.normalize();
            // The delta's dirty rows plus `quarters / 4` of all rows (a
            // clean row re-swept comes out unchanged).
            let mut dirty = labels.dirty_slots(&delta);
            dirty.extend(0..heads.len() * quarters / 4);
            dirty.sort_unstable();
            dirty.dedup();
            // Head losses and gains in the same advance.
            heads.retain(|_| rng.gen_bool(0.85));
            let gained: Vec<NodeId> = (0..rng.gen_range(0..3))
                .map(|_| NodeId(rng.gen_range(0..n as u32)))
                .filter(|h| labels.slot(*h).is_none())
                .collect();
            heads.extend(&gained);
            heads.sort_unstable();
            heads.dedup();
            let swept = labels.advance(&g, &heads, bound, &dirty, Parallelism::new(workers));
            let ctx = format!("op {i}");
            assert_labels_match_bfs(&g, &labels, &ctx);
            let cold = HeadLabels::build(&g, &heads, bound);
            for slot in 0..heads.len() {
                prop_assert_eq!(labels.ball(slot), cold.ball(slot), "{}: slot {}", ctx, slot);
            }
            for h in &gained {
                let slot = labels.slot(*h).unwrap();
                prop_assert!(swept.binary_search(&slot).is_ok(), "{}: {:?} not swept", ctx, h);
            }
        }
        prop_assert_eq!(labels.rebuild_count(), 1, "advances never rebuild");
    }
}

/// Distances far past 254 stay exact: a long path labeled with a
/// bounded build at a large k, and with the unbounded early-stopping
/// build G-MST uses, whose farthest head is 699 hops away.
#[test]
fn distances_above_254_are_exact() {
    let g = gen::path(700);
    let k = 200;
    let heads = [NodeId(0), NodeId(350), NodeId(699)];
    let bounded = HeadLabels::build(&g, &heads, 2 * k + 1);
    assert_labels_match_bfs(&g, &bounded, "bounded, k = 200");
    assert_eq!(bounded.dist(0, NodeId(401)), 401);
    assert_eq!(bounded.dist(0, NodeId(402)), bfs::UNREACHED);
    assert_eq!(bounded.heads_within(0, 400), vec![NodeId(350)]);

    let mut reaching = HeadLabels::default();
    reaching.rebuild_reaching_heads(&g, &[NodeId(0), NodeId(699)]);
    assert_eq!(reaching.head_dist(NodeId(0), NodeId(699)), 699);
    assert_eq!(reaching.head_dist(NodeId(699), NodeId(0)), 699);
    let mut oracle = bfs::BfsScratch::new(g.len());
    for (slot, &h) in reaching.heads().iter().enumerate() {
        oracle.run(&g, h, u32::MAX);
        for &v in reaching.ball(slot) {
            assert_eq!(reaching.dist(slot, v), oracle.dist(v), "{h:?} -> {v:?}");
        }
    }
    let walk = bfs::lexico_path_from_labels(&g, NodeId(0), NodeId(699), &reaching.row(1));
    assert_eq!(walk.map(|p| p.len()), Some(700));
}
