//! The observability layer must not become a second source of
//! nondeterminism: with metrics enabled, every count-type metric
//! (counters, non-`_ns` histograms, events) produced by a build +
//! repair chain has to be identical for any worker count. Only the
//! `_ns` span timings may differ — and those
//! are excluded from [`MetricsSnapshot::deterministic_fingerprint`],
//! which is exactly the surface these proptests pin. It includes the
//! eval tail's boundary counters, `pipeline.nc_links_rewalked` and
//! `pipeline.headset_patches`, and the dense repair's grain,
//! `inter.dense_rows_swept` and `inter.dense_cells_settled`.
//!
//! The contract matters because bench records and CI smoke runs embed
//! the fingerprint: if a counter were incremented from a racy branch
//! (e.g. once per worker instead of once per sweep), records produced
//! on different machines would stop being comparable.

use adhoc_cluster::clustering::{self, MemberPolicy};
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch, Parallelism};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::{InterMode, InterRepair, RoutePlan};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::obs::{Metrics, MetricsSnapshot};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const WORKER_GRID: [usize; 4] = [1, 2, 3, 8];

/// Canonical comparison form: the deterministic fingerprint plus the
/// count-type rows themselves, so a divergence names the metric in the
/// assertion message instead of just flagging a hash mismatch.
fn count_rows(snap: &MetricsSnapshot) -> (u64, Vec<String>) {
    let mut rows: Vec<String> = snap
        .counters
        .iter()
        .map(|c| format!("counter {} = {}", c.name, c.value))
        .collect();
    rows.extend(
        snap.histograms
            .iter()
            .filter(|h| !h.name.ends_with("_ns"))
            .map(|h| {
                format!(
                    "hist {} count={} sum={} max={}",
                    h.name, h.count, h.sum, h.max
                )
            }),
    );
    rows.extend(
        snap.events
            .iter()
            .map(|e| format!("event {} = {}", e.name, e.value)),
    );
    rows.push(format!("events_dropped = {}", snap.events_dropped));
    (snap.deterministic_fingerprint(), rows)
}

/// Shared delta trajectory: a few steps of random edge adds with an
/// occasional removal batch, normalized like the production feed.
fn trajectory(g0: &Graph, n: usize, seed: u64) -> Vec<(Graph, TopologyDelta)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = g0.clone();
    let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
    let mut steps = Vec::new();
    for step in 0..5 {
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
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `run_all` → `update_all_after` → `apply_delta` chain: the metrics
    /// fingerprint (counters, count histograms, events) is identical
    /// at 1/2/3/8 workers.
    #[test]
    fn count_metrics_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        k in 1u32..=3,
    ) {
        let n = 60usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let steps = trajectory(&net.graph, n, seed ^ 0xD1FF);

        let run_arm = |par: Parallelism| {
            let metrics = Metrics::enabled();
            let c0 = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let mut scratch = EvalScratch::with_workers(par);
            scratch.set_metrics(metrics.clone());
            let mut prev = pipeline::run_all_with(&net.graph, &c0, &mut scratch);
            let mut plan = RoutePlan::compile_metered(
                &net.graph,
                &c0,
                scratch.labels(),
                prev.ac_graph.links(),
                InterMode::Auto,
                par,
                &metrics,
            );
            for (g, delta) in &steps {
                let c = clustering::cluster(g, k, &LowestId, MemberPolicy::IdBased);
                // The advance's swept slots, in the new head numbering.
                let dirty = pipeline::advance_labels(g, &c, delta, &mut scratch);
                pipeline::update_all_after(g, &c, delta, &dirty, &mut prev, &mut scratch);
                plan.apply_delta_metered(
                    g,
                    &c,
                    scratch.labels(),
                    &dirty,
                    prev.ac_graph.links(),
                    par,
                    &metrics,
                );
            }
            count_rows(&metrics.snapshot())
        };

        let (base_fp, base_rows) = run_arm(Parallelism::serial());
        // The eval tail's boundary counters are part of the pinned
        // surface: links walked afresh and head-set patches. So are the
        // dense repair's grain counters: sources with a settled cell, and
        // the cells settled.
        for name in [
            "pipeline.nc_links_rewalked",
            "pipeline.headset_patches",
            "inter.dense_rows_swept",
            "inter.dense_cells_settled",
        ] {
            prop_assert!(
                base_rows.iter().any(|r| r.starts_with(&format!("counter {name} = "))),
                "{} missing from the snapshot", name
            );
        }
        for w in WORKER_GRID {
            let (fp, rows) = run_arm(Parallelism::new(w));
            prop_assert_eq!(
                &rows, &base_rows,
                "{} workers: count metrics diverged from serial arm", w
            );
            prop_assert_eq!(
                fp, base_fp,
                "{} workers: fingerprint diverged with equal rows \
                 (fingerprint covers something rows miss?)", w
            );
        }
    }
}

/// The plan's metrics contract. A compile records `plan.compiled` once
/// and one sample each of `plan.compile_ns`, `plan.ascents_ns` and its
/// layout's build span, and nothing an update records; each
/// `apply_delta_metered` call records one `plan.apply_delta_ns` sample
/// and nothing a compile records. The churn-serve attribution sums
/// `plan.compile_ns` and `plan.apply_delta_ns`, so a compile recorded
/// under both would count twice.
#[test]
fn plan_compile_and_apply_delta_record_disjoint_metrics() {
    let n = 60usize;
    let k = 2;
    let mut rng = StdRng::seed_from_u64(31);
    let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
    let steps = trajectory(&net.graph, n, 31);
    let spans = |snap: &MetricsSnapshot, name: &str| snap.histogram(name).map(|h| h.count);
    for (mode, build) in [
        (InterMode::Dense, "inter.dense_build_ns"),
        (InterMode::Hub, "hub.build_ns"),
    ] {
        let c0 = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let mut prev = pipeline::run_all_with(&net.graph, &c0, &mut scratch);
        let metrics = Metrics::enabled();
        let mut plan = RoutePlan::compile_metered(
            &net.graph,
            &c0,
            scratch.labels(),
            prev.ac_graph.links(),
            mode,
            Parallelism::serial(),
            &metrics,
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("plan.compiled"), Some(1), "{mode:?}");
        for span in ["plan.compile_ns", "plan.ascents_ns", build] {
            assert_eq!(spans(&snap, span), Some(1), "{mode:?}: {span}");
        }
        for name in [
            "plan.apply_delta_ns",
            "plan.headset_repairs",
            "plan.resweeped_nodes",
            "plan.next_recomputed",
            "inter.dense_recomputed",
            "inter.dense_repair_ns",
            "hub.rebuilt",
        ] {
            assert!(
                snap.counter(name).is_none() && snap.histogram(name).is_none(),
                "{mode:?}: a compile recorded {name}"
            );
        }
        let metrics = Metrics::enabled();
        for (g, delta) in &steps {
            let c = clustering::cluster(g, k, &LowestId, MemberPolicy::IdBased);
            let dirty = pipeline::advance_labels(g, &c, delta, &mut scratch);
            pipeline::update_all_after(g, &c, delta, &dirty, &mut prev, &mut scratch);
            plan.apply_delta_metered(
                g,
                &c,
                scratch.labels(),
                &dirty,
                prev.ac_graph.links(),
                Parallelism::serial(),
                &metrics,
            );
        }
        let snap = metrics.snapshot();
        let calls = Some(steps.len() as u64);
        assert_eq!(spans(&snap, "plan.apply_delta_ns"), calls, "{mode:?}");
        assert_eq!(spans(&snap, "plan.ascents_ns"), calls, "{mode:?}");
        assert!(snap.counter("plan.resweeped_nodes").is_some(), "{mode:?}");
        for name in ["plan.compile_ns", "plan.compiled"] {
            assert!(
                snap.counter(name).is_none() && snap.histogram(name).is_none(),
                "{mode:?}: an update recorded {name}"
            );
        }
    }
}

/// A hub table is never repaired in place. A forced-hub plan whose
/// backbone changes over one head set (AC-LMST links swapped for
/// G-MST's) builds a fresh index: `hub.rebuilt` and one `hub.build_ns`
/// sample, and no other `hub.*` metric. Re-applying the same backbone
/// keeps the index and records no hub metric at all.
#[test]
fn hub_backbone_change_over_one_head_set_builds_fresh_index() {
    let n = 200usize;
    let mut rng = StdRng::seed_from_u64(41);
    let net = gen::geometric(&GeometricConfig::new(n, 100.0, 7.0), &mut rng);
    let g = &net.graph;
    let c = clustering::cluster(g, 1, &LowestId, MemberPolicy::IdBased);
    let mut scratch = EvalScratch::new();
    let eval = pipeline::run_all_with(g, &c, &mut scratch);
    let labels = scratch.labels();
    let hub_rows = |snap: &MetricsSnapshot| -> Vec<String> {
        let counters = snap.counters.iter().map(|c| &c.name);
        let histograms = snap.histograms.iter().map(|h| &h.name);
        counters
            .chain(histograms)
            .filter(|name| name.starts_with("hub."))
            .cloned()
            .collect()
    };
    let mut plan = RoutePlan::compile_with(
        g,
        &c,
        labels,
        eval.selected_links(Algorithm::AcLmst),
        InterMode::Hub,
    );
    let gmst = eval.selected_links(Algorithm::GMst);
    let metrics = Metrics::enabled();
    let update = plan.apply_delta_metered(
        g,
        &c,
        labels,
        &[],
        gmst.iter().copied(),
        Parallelism::serial(),
        &metrics,
    );
    assert!(!update.heads_changed);
    assert_eq!(update.inter, InterRepair::HubRebuilt);
    let fresh = RoutePlan::compile_with(g, &c, labels, gmst.iter().copied(), InterMode::Hub);
    assert_eq!(plan, fresh, "the rebuilt plan equals a fresh compile");
    assert_eq!(plan.memory_bytes(), fresh.memory_bytes());
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("hub.rebuilt"), Some(1));
    assert_eq!(snap.histogram("hub.build_ns").map(|h| h.count), Some(1));
    assert_eq!(hub_rows(&snap), ["hub.rebuilt", "hub.build_ns"]);

    let metrics = Metrics::enabled();
    let update = plan.apply_delta_metered(
        g,
        &c,
        labels,
        &[],
        gmst.iter().copied(),
        Parallelism::serial(),
        &metrics,
    );
    assert_eq!(update.inter, InterRepair::Unchanged);
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("inter.unchanged"), Some(1));
    assert!(hub_rows(&snap).is_empty(), "{:?}", hub_rows(&snap));
}
