//! The worker pool must be a pure throughput knob: every parallelized
//! path — label rebuilds and repairs (`run_all` / `update_all_after`), plan
//! compiles and deltas (`compile_tuned` / `apply_delta_tuned`), and
//! batched serving — has to reproduce the single-worker output
//! **bit-for-bit** for any worker count.
//!
//! The determinism is structural (disjoint pre-partitioned slices,
//! per-worker scratch, chunk-order merges), so these proptests are the
//! contract's pin, not its proof: any reduction-order dependence that
//! sneaks into a sweep shows up here as a worker-count-sensitive
//! arena.
//!
//! Every build, repair and batch-serving site runs jobs below its
//! fan-out gate (`Parallelism::for_work` over a `par::work` estimate)
//! inline, so the small cells of the first two proptests pin the
//! gate's inline arm. The `fanned_out_*` cells are sized above the gate of the site
//! they name, assert that the gate keeps more than one worker, and pin
//! the pooled arm.

use adhoc_cluster::clustering::{self, MemberPolicy};
use adhoc_cluster::pipeline::{
    self, Algorithm, EvalScratch, EvaluationOutput, HeadLabels, Parallelism,
};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::{InterMode, InterRepair, PlanUpdate, QueryEngine, RoutePlan};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::par::work;
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
        // These batches sit below the serving gate: the inline arm.
        prop_assert_eq!(
            Parallelism::new(2)
                .for_work(work::routes(pairs.len(), base_plan.query_work()))
                .workers(),
            1
        );

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

    /// Incremental chains: `advance_labels` label repairs and
    /// `apply_delta_tuned` plan repairs over a shared random edge
    /// trajectory stay bit-identical to the serial arm at every step,
    /// including steps that change the head set (head rows dropped and
    /// opened in the same advance as the delta).
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
                // The advance's swept slots, in the new head numbering.
                let dirty = pipeline::advance_labels(g, &c, delta, &mut scratch);
                pipeline::update_all_after(g, &c, delta, &dirty, &mut prev, &mut scratch);
                plan.apply_delta_tuned(
                    g,
                    &c,
                    scratch.labels(),
                    &dirty,
                    prev.ac_graph.links(),
                    par,
                );
                rows.push(label_rows(scratch.labels()));
                plans.push(plan.clone());
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
        let work = work::label_rebuild(c.heads.len(), n);
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

/// The worker counts of the fanned-out cells: the serial reference
/// arm, an even split and a ragged one.
const FANNED_GRID: [usize; 3] = [1, 2, 3];

/// A geometric network at the paper's density (side `100·√(n/200)`,
/// mean degree 6), not required to come out connected — sampling a
/// connected one gets slow at a few thousand nodes.
fn scaled_net(n: usize, rng: &mut StdRng) -> Graph {
    let mut cfg = GeometricConfig::new(n, 100.0 * (n as f64 / 200.0).sqrt(), 6.0);
    cfg.require_connected = false;
    gen::geometric(&cfg, rng).graph
}

/// Asserts that a job of `work` units fans out at every pooled worker
/// count of [`FANNED_GRID`].
fn assert_fans_out(work: usize, what: &str) {
    for w in FANNED_GRID.into_iter().filter(|&w| w > 1) {
        assert_eq!(
            Parallelism::new(w).for_work(work).workers(),
            w,
            "{what} ({work} units) must be above the fan-out gate"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Label advances above the gate: two disjoint geometric
    /// components of a few hundred nodes each, labeled with unbounded
    /// balls, so an added edge dirties every row of its component and
    /// those rows' old balls sum far past the threshold. The chain adds
    /// an edge to one component (about half the rows dirty, the other
    /// half copied next to the pooled sweeps), then to the other, then
    /// to both (every row dirty); each advance also drops one head and
    /// gains another. Every arm equals a cold build after every step
    /// and never rebuilds.
    #[test]
    fn fanned_out_label_repairs_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 500usize..=600,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for part in 0..2u32 {
            let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
            let shift = part * n as u32;
            edges.extend(net.graph.edges().map(|(a, b)| (a.0 + shift, b.0 + shift)));
        }
        let mut g = Graph::from_edges(2 * n, &edges);
        let c = clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut heads = c.heads.clone();
        let mut arms: Vec<HeadLabels> = FANNED_GRID
            .iter()
            .map(|_| HeadLabels::build(&g, &heads, u32::MAX))
            .collect();
        for (step, parts) in [&[0u32][..], &[1], &[0, 1]].into_iter().enumerate() {
            let mut delta = TopologyDelta::new();
            for &part in parts {
                let shift = part * n as u32;
                loop {
                    let a = NodeId(shift + rng.gen_range(0..n as u32));
                    let b = NodeId(shift + rng.gen_range(0..n as u32));
                    if a != b && !g.has_edge(a, b) {
                        g.add_edge(a, b);
                        delta.push_added(a, b);
                        break;
                    }
                }
            }
            delta.normalize();
            let dirty = arms[0].dirty_slots(&delta);
            prop_assert_eq!(dirty.len() == heads.len(), parts.len() == 2, "step {}", step);
            assert_fans_out(
                work::label_repair(dirty.iter().map(|&s| arms[0].ball(s).len())),
                "label repair",
            );
            heads.remove(rng.gen_range(0..heads.len()));
            let gained = loop {
                let v = NodeId(rng.gen_range(0..2 * n as u32));
                if heads.binary_search(&v).is_err() {
                    break v;
                }
            };
            heads.insert(heads.binary_search(&gained).unwrap_err(), gained);
            let sweeps: Vec<Vec<usize>> = FANNED_GRID
                .iter()
                .zip(&mut arms)
                .map(|(&w, labels)| labels.advance(&g, &heads, u32::MAX, &dirty, Parallelism::new(w)))
                .collect();
            let cold = label_rows(&HeadLabels::build(&g, &heads, u32::MAX));
            for ((w, labels), swept) in FANNED_GRID.iter().zip(&arms).zip(&sweeps) {
                prop_assert_eq!(
                    &label_rows(labels), &cold,
                    "step {}, {} workers: advance diverged from a fresh build", step, w
                );
                prop_assert_eq!(swept, &sweeps[0], "step {}, {} workers: swept slots", step, w);
                prop_assert_eq!(labels.rebuild_count(), 1, "{} workers rebuilt", w);
            }
        }
    }

    /// Plan ascents above the gate: on ~9000 nodes at k = 3, a compile
    /// walks every node, and a repair with every slot dirty re-walks
    /// every node again.
    #[test]
    fn fanned_out_plan_ascents_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 8500usize..=9000,
    ) {
        let k = 3;
        let g = scaled_net(n, &mut StdRng::seed_from_u64(seed));
        let c = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let labels = HeadLabels::build(&g, &c.heads, k);
        let all: Vec<usize> = (0..c.heads.len()).collect();
        let arms: Vec<_> = FANNED_GRID
            .iter()
            .map(|&w| {
                let par = Parallelism::new(w);
                let compiled = RoutePlan::compile_tuned(
                    &g, &c, &labels, std::iter::empty(), InterMode::Dense, par,
                );
                let mut repaired = compiled.clone();
                let update = repaired.apply_delta_tuned(
                    &g, &c, &labels, &all,
                    std::iter::empty(), par,
                );
                (compiled, repaired, update)
            })
            .collect();
        let (_, _, update) = &arms[0];
        prop_assert!(!update.heads_changed);
        assert_fans_out(work::ascents(n, k), "ascent compile");
        assert_fans_out(work::ascents(update.resweeped_nodes, k), "ascent repair");
        for (w, arm) in FANNED_GRID.iter().zip(&arms).skip(1) {
            prop_assert_eq!(&arm.0, &arms[0].0, "{} workers: compiled plan diverged", w);
            prop_assert_eq!(&arm.1, &arms[0].1, "{} workers: repaired plan diverged", w);
            prop_assert_eq!(&arm.2, &arms[0].2, "{} workers: repair verdict diverged", w);
            // `memory_bytes` counts capacities, which `Eq` ignores: the
            // ascent arena must be reserved once, not per fragment.
            prop_assert_eq!(
                arm.0.memory_bytes(), arms[0].0.memory_bytes(),
                "{} workers: compiled plan bytes diverged", w
            );
            prop_assert_eq!(
                arm.1.memory_bytes(), arms[0].1.memory_bytes(),
                "{} workers: repaired plan bytes diverged", w
            );
        }
    }

    /// Inter-head tables above the gate, both layouts: a ~200-head plan
    /// compiled over the AC-LMST backbone, then repaired onto the
    /// G-MST backbone — a dense repair, and a hub rebuild.
    #[test]
    fn fanned_out_inter_builds_and_repairs_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 900usize..=950,
    ) {
        let g = scaled_net(n, &mut StdRng::seed_from_u64(seed));
        let c = clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::with_workers(Parallelism::serial());
        let eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let labels = scratch.labels();
        let h = c.heads.len();
        for mode in [InterMode::Dense, InterMode::Hub] {
            let arms: Vec<_> = FANNED_GRID
                .iter()
                .map(|&w| {
                    let par = Parallelism::new(w);
                    let compiled = RoutePlan::compile_tuned(
                        &g, &c, labels, eval.selected_links(Algorithm::AcLmst), mode, par,
                    );
                    let mut repaired = compiled.clone();
                    let update = repaired.apply_delta_tuned(
                        &g, &c, labels, &[],
                        eval.selected_links(Algorithm::GMst), par,
                    );
                    (compiled, repaired, update)
                })
                .collect();
            let (compiled, _, update) = &arms[0];
            prop_assert_eq!(compiled.inter_layout(), mode.name());
            prop_assert!(!update.heads_changed && update.inter != InterRepair::Unchanged);
            match (mode, update.inter) {
                (InterMode::Dense, InterRepair::DenseRepaired { rows_swept, .. }) => {
                    assert_fans_out(
                        work::dense_rows(h, h, 2 * compiled.link_count()), "dense build",
                    );
                    prop_assert!(rows_swept > 0, "the G-MST backbone drops AC-LMST links");
                }
                (InterMode::Hub, InterRepair::HubRebuilt) => {
                    assert_fans_out(work::hub_build(h), "hub build and rebuild");
                }
                (mode, other) => prop_assert!(false, "{:?} repair did {:?}", mode, other),
            }
            for (w, arm) in FANNED_GRID.iter().zip(&arms).skip(1) {
                prop_assert_eq!(&arm.0, &arms[0].0, "{} workers: {:?} build diverged", w, mode);
                prop_assert_eq!(&arm.1, &arms[0].1, "{} workers: {:?} repair diverged", w, mode);
                prop_assert_eq!(&arm.2, &arms[0].2, "{} workers: {:?} verdict diverged", w, mode);
            }
        }
    }

    /// Dense repairs above the gate. A dense repair settles its cells
    /// inline, so what fans out is its fallback: a cut of a ~200-head
    /// AC-LMST backbone, the links whose lone removal settles the most
    /// cells first, grown until the repair would settle more than the
    /// `h²` cells a build fills and builds fresh instead. Every arm must
    /// equal the serial one and a fresh compile.
    #[test]
    fn fanned_out_dense_repairs_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 900usize..=950,
    ) {
        let g = scaled_net(n, &mut StdRng::seed_from_u64(seed));
        let c = clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::with_workers(Parallelism::serial());
        let eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let labels = scratch.labels();
        let links = eval.selected_links(Algorithm::AcLmst);
        let h = c.heads.len();
        let compiled = RoutePlan::compile_with(
            &g, &c, labels, links.iter().copied(), InterMode::Dense,
        );
        let without = |cut: &[usize]| {
            links
                .iter()
                .enumerate()
                .filter(|(i, _)| !cut.contains(i))
                .map(|(_, &l)| l)
                .collect::<Vec<_>>()
        };
        let repair = |cut: &[usize], par: Parallelism| {
            let mut plan = compiled.clone();
            let update = plan.apply_delta_tuned(
                &g, &c, labels, &[], without(cut).into_iter(), par,
            );
            (plan, update)
        };
        let settled = |update: &PlanUpdate| match update.inter {
            InterRepair::DenseRepaired { cells_settled, .. } => cells_settled,
            other => panic!("a removed link must repair the dense matrix, got {other:?}"),
        };
        let mut ranked: Vec<usize> = (0..links.len()).collect();
        ranked.sort_by_cached_key(|&i| {
            (std::cmp::Reverse(settled(&repair(&[i], Parallelism::serial()).1)), i)
        });
        let mut cut = Vec::new();
        for &i in &ranked {
            cut.push(i);
            if settled(&repair(&cut, Parallelism::serial()).1) > h * h {
                break;
            }
        }
        let arms: Vec<_> = FANNED_GRID
            .iter()
            .map(|&w| repair(&cut, Parallelism::new(w)))
            .collect();
        let (repaired, update) = &arms[0];
        prop_assert!(
            settled(update) > h * h,
            "cutting {} links settled {} cells of {}: no fallback build", cut.len(), settled(update), h * h
        );
        assert_fans_out(
            work::dense_rows(h, h, 2 * repaired.link_count()),
            "fallback build",
        );
        let fresh = RoutePlan::compile_with(
            &g, &c, labels, without(&cut).into_iter(), InterMode::Dense,
        );
        prop_assert_eq!(repaired, &fresh, "repaired plan diverged from a fresh compile");
        for (w, arm) in FANNED_GRID.iter().zip(&arms).skip(1) {
            prop_assert_eq!(&arm.0, repaired, "{} workers: dense repair diverged", w);
            prop_assert_eq!(&arm.1, update, "{} workers: repair verdict diverged", w);
        }
    }

    /// Head-set repairs above the gate: the best-linked heads of a
    /// ~200-head AC-LMST plan are cut off (every edge of them removed),
    /// eight more at a time, and the graph re-clustered by a global
    /// `cluster()`, as a movement re-election does, until the dense
    /// repair across the renumbering would settle more cells than the
    /// union of the two head sets holds, so it ends in a full build of
    /// the union, which fans out. Every worker count must give the
    /// serial plan and update, equal to a fresh compile, bytes included.
    #[test]
    fn fanned_out_headset_repairs_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 900usize..=950,
    ) {
        let g0 = scaled_net(n, &mut StdRng::seed_from_u64(seed));
        let c0 = clustering::cluster(&g0, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch0 = EvalScratch::with_workers(Parallelism::serial());
        let eval0 = pipeline::run_all_with(&g0, &c0, &mut scratch0);
        let compiled = RoutePlan::compile_with(
            &g0, &c0, scratch0.labels(), eval0.selected_links(Algorithm::AcLmst),
            InterMode::Dense,
        );
        let mut hubs: Vec<usize> = (0..c0.heads.len()).collect();
        hubs.sort_by_key(|&s| (std::cmp::Reverse(compiled.backbone_neighbors(s).len()), s));
        let settled = |update: &PlanUpdate| match update.inter {
            InterRepair::DenseRepaired { cells_settled, .. } => cells_settled,
            other => panic!("a head-set change repaired the matrix by {other:?}"),
        };
        let mut cut = 0;
        let (g, c, scratch, eval, u, arms) = loop {
            cut += 8;
            let mut g = g0.clone();
            let mut delta = TopologyDelta::new();
            for &slot in &hubs[..cut] {
                let edges = TopologyDelta::isolating(&g, c0.heads[slot]);
                edges.apply_to(&mut g);
                delta.removed.extend(edges.removed);
            }
            delta.normalize();
            let c = clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
            let mut scratch = scratch0.clone();
            let mut eval = eval0.clone();
            let swept = pipeline::advance_labels(&g, &c, &delta, &mut scratch);
            pipeline::update_all_after(&g, &c, &delta, &swept, &mut eval, &mut scratch);
            let links = eval.selected_links(Algorithm::AcLmst);
            let arms: Vec<_> = FANNED_GRID
                .iter()
                .map(|&w| {
                    let mut plan = compiled.clone();
                    let update = plan.apply_delta_tuned(
                        &g, &c, scratch.labels(), &swept, links.iter().copied(),
                        Parallelism::new(w),
                    );
                    (plan, update)
                })
                .collect();
            let mut union = [&c0.heads[..], &c.heads[..]].concat();
            union.sort_unstable();
            union.dedup();
            let u = union.len();
            if settled(&arms[0].1) > u * u || cut + 8 > hubs.len() {
                break (g, c, scratch, eval, u, arms);
            }
        };
        let (repaired, update) = &arms[0];
        prop_assert!(update.heads_changed);
        prop_assert!(
            settled(update) > u * u,
            "cutting {} heads settled {} cells of {}: no full build", cut, settled(update), u * u
        );
        assert_fans_out(
            work::dense_rows(u, u, 2 * repaired.link_count()),
            "full union build",
        );
        let fresh = RoutePlan::compile_with(
            &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst), InterMode::Dense,
        );
        prop_assert_eq!(repaired, &fresh, "head-set repair diverged from a fresh compile");
        prop_assert_eq!(repaired.memory_bytes(), fresh.memory_bytes());
        for (w, arm) in FANNED_GRID.iter().zip(&arms).skip(1) {
            prop_assert_eq!(&arm.0, repaired, "{} workers: head-set repair diverged", w);
            prop_assert_eq!(&arm.1, update, "{} workers: repair verdict diverged", w);
        }
    }

    /// Served batches above the gate, both layouts: the batch is sized
    /// from the plan's own per-query estimate so it fans out, and every
    /// pooled arm must answer exactly as the serial one.
    #[test]
    fn fanned_out_route_batches_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        n in 900usize..=950,
    ) {
        let g = scaled_net(n, &mut StdRng::seed_from_u64(seed));
        let c = clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::with_workers(Parallelism::serial());
        let eval = pipeline::run_all_with(&g, &c, &mut scratch);
        for mode in [InterMode::Dense, InterMode::Hub] {
            let plan = RoutePlan::compile_with(
                &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst), mode,
            );
            let count = 2 * (1 << 15) / plan.query_work().max(1) + 1;
            let pairs = sample_pairs(n, count, seed ^ 0xBA7C);
            assert_fans_out(work::routes(pairs.len(), plan.query_work()), "route batch");
            let serial = QueryEngine::new(&plan).route_many(&pairs);
            prop_assert!(serial.total_hops > 0, "{:?}: the batch routed nothing", mode);
            for &w in FANNED_GRID.iter().skip(1) {
                let pooled = QueryEngine::with_workers(&plan, w).route_many(&pairs);
                prop_assert_eq!(&pooled, &serial, "{} workers: {:?} batch diverged", w, mode);
            }
        }
    }
}
