//! The worker pool must be a pure throughput knob: every parallelized
//! path — label rebuilds and repairs (`run_all` / `update_all`), plan
//! compiles and deltas (`compile_tuned` / `apply_delta_tuned`), and
//! batched serving — has to reproduce the single-worker output
//! **bit-for-bit** for any worker count.
//!
//! The determinism is structural (disjoint pre-partitioned slices,
//! per-worker scratch, chunk-order merges), so these proptests are the
//! contract's pin, not its proof: any reduction-order dependence that
//! sneaks into a sweep shows up here as a worker-count-sensitive
//! arena.

use adhoc_cluster::clustering::{self, MemberPolicy};
use adhoc_cluster::pipeline::{
    self, Algorithm, EvalScratch, EvaluationOutput, HeadLabels, Parallelism,
};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::{InterMode, QueryEngine, RoutePlan};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The worker counts every path is pinned against (serial is the
/// reference arm): even split, ragged split, more workers than the
/// container has cores.
const WORKER_GRID: [usize; 3] = [2, 3, 8];

/// Canonical dump of a label arena: per head slot, the ball's
/// node sequence and each node's distance, in arena order. Two arenas
/// with equal dumps answer every label query identically.
fn label_rows(labels: &HeadLabels) -> Vec<(Vec<NodeId>, Vec<u32>)> {
    (0..labels.heads().len())
        .map(|slot| {
            let ball = labels.ball(slot).to_vec();
            let dists = ball.iter().map(|&v| labels.dist(slot, v)).collect();
            (ball, dists)
        })
        .collect()
}

fn assert_evals_equal(a: &EvaluationOutput, b: &EvaluationOutput, ctx: &str) {
    for alg in Algorithm::ALL {
        assert_eq!(
            &a.of(alg).selection,
            &b.of(alg).selection,
            "{ctx}: {alg} selection diverged"
        );
        assert_eq!(&a.of(alg).cds, &b.of(alg).cds, "{ctx}: {alg} CDS diverged");
    }
}

/// Deterministic sampled query pairs over `n` nodes.
fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..n as u32)),
                NodeId(rng.gen_range(0..n as u32)),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// From-scratch builds: `run_all` label arenas, all five
    /// algorithms' outputs, the compiled plan (both inter-head
    /// layouts via Auto), and served batches are worker-count
    /// invariant.
    #[test]
    fn fresh_builds_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 40usize..=90,
        k in 1u32..=3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let c = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);

        let mut serial = EvalScratch::with_workers(Parallelism::serial());
        let base = pipeline::run_all_with(&net.graph, &c, &mut serial);
        let base_rows = label_rows(serial.labels());
        let base_plan = RoutePlan::compile(
            &net.graph,
            &c,
            serial.labels(),
            base.ac_graph.links(),
        );
        let pairs = sample_pairs(n, 200, seed ^ 0x5EED);
        let base_batch = QueryEngine::new(&base_plan).route_many(&pairs);

        for w in WORKER_GRID {
            let par = Parallelism::new(w);
            let mut scratch = EvalScratch::with_workers(par);
            let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
            assert_evals_equal(&eval, &base, &format!("{w} workers"));
            prop_assert_eq!(
                label_rows(scratch.labels()),
                base_rows.clone(),
                "{} workers: label arena diverged",
                w
            );
            let plan = RoutePlan::compile_tuned(
                &net.graph,
                &c,
                scratch.labels(),
                eval.ac_graph.links(),
                InterMode::Auto,
                par,
            );
            prop_assert_eq!(&plan, &base_plan, "{} workers: plan diverged", w);
            let batch = QueryEngine::with_workers(&plan, w).route_many(&pairs);
            prop_assert_eq!(&batch, &base_batch, "{} workers: served batch diverged", w);
        }
    }

    /// Incremental chains: `update_all` label repairs and
    /// `apply_delta_tuned` plan repairs over a shared random edge
    /// trajectory stay bit-identical to the serial arm at every step,
    /// including steps that change the head set (rebuild fallback).
    #[test]
    fn update_chains_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        k in 1u32..=3,
    ) {
        let n = 70usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);

        // One shared trajectory of edge deltas; every arm replays it.
        let mut g = net.graph.clone();
        let mut steps: Vec<(Graph, TopologyDelta)> = Vec::new();
        let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
        for step in 0..6 {
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
            steps.push((g.clone(), delta));
        }

        // One arm = run_all, then per step: label dirty set, eval
        // repair, plan repair. Returns per-step label dumps and plans.
        let run_arm = |par: Parallelism| {
            let c0 = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let mut scratch = EvalScratch::with_workers(par);
            let mut prev = pipeline::run_all_with(&net.graph, &c0, &mut scratch);
            let mut plan = RoutePlan::compile_tuned(
                &net.graph,
                &c0,
                scratch.labels(),
                prev.ac_graph.links(),
                InterMode::Auto,
                par,
            );
            let mut rows = Vec::new();
            let mut plans = Vec::new();
            for (g, delta) in &steps {
                let c = clustering::cluster(g, k, &LowestId, MemberPolicy::IdBased);
                let dirty = scratch.labels().dirty_slots(delta);
                let (next, _) = pipeline::update_all(g, &c, delta, &prev, &mut scratch);
                plan.apply_delta_tuned(
                    g,
                    &c,
                    scratch.labels(),
                    delta,
                    &dirty,
                    next.ac_graph.links(),
                    par,
                );
                rows.push(label_rows(scratch.labels()));
                plans.push(plan.clone());
                prev = next;
            }
            (prev, rows, plans)
        };

        let (base_eval, base_rows, base_plans) = run_arm(Parallelism::serial());
        for w in WORKER_GRID {
            let (eval, rows, plans) = run_arm(Parallelism::new(w));
            assert_evals_equal(&eval, &base_eval, &format!("{w} workers, final step"));
            for (step, (r, b)) in rows.iter().zip(&base_rows).enumerate() {
                prop_assert_eq!(
                    r, b,
                    "{} workers: label arena diverged at step {}", w, step
                );
            }
            for (step, (p, b)) in plans.iter().zip(&base_plans).enumerate() {
                prop_assert_eq!(
                    p, b,
                    "{} workers: repaired plan diverged at step {}", w, step
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cells above are below the label rebuild's fan-out gate
    /// (`Parallelism::for_work`), where every worker count runs the
    /// sweep inline. These cells sit above it, so the multi-worker
    /// arms really fan the rebuild out.
    #[test]
    fn fanned_out_label_rebuilds_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 600usize..=800,
    ) {
        // k = 1 keeps the head count (the rows swept) high.
        let k = 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let c = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let work = c.heads.len() * n;
        for w in WORKER_GRID {
            prop_assert_eq!(
                Parallelism::new(w).for_work(work).workers(),
                w,
                "{} heads x {} nodes must be above the fan-out gate",
                c.heads.len(),
                n
            );
        }

        let mut serial = EvalScratch::with_workers(Parallelism::serial());
        let base = pipeline::run_all_with(&net.graph, &c, &mut serial);
        let base_rows = label_rows(serial.labels());
        for w in WORKER_GRID {
            let mut scratch = EvalScratch::with_workers(Parallelism::new(w));
            let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
            assert_evals_equal(&eval, &base, &format!("{w} workers"));
            prop_assert_eq!(
                label_rows(scratch.labels()),
                base_rows.clone(),
                "{} workers: label arena diverged",
                w
            );
        }
    }
}
