//! `perf_baseline` — wall-clock trajectory of the evaluation engine.
//!
//! Times the per-replicate evaluation phase (all five algorithms on a
//! shared clustering) over a small fixed grid, on identical
//! pre-generated inputs:
//!
//! * **seed** — a faithful reimplementation of the pre-refactor
//!   dataflow the engine replaced (per-algorithm `BTreeMap` virtual
//!   graphs, one BFS sweep for the NC relation plus another for the
//!   canonical paths, a heap `Vec` per link path, heap-based local
//!   MSTs, complete-link G-MST) — the "before" of the before/after
//!   record;
//! * **run_on** — five independent `pipeline::run_on` calls through
//!   today's label-backed builders (the compatibility wrapper);
//! * **engine** — one `pipeline::run_all_with` call with a warm
//!   per-thread scratch on one worker; and
//! * **engine-par** — the engine again over the shared worker pool
//!   (`max(2, host cores)` workers): its metrics checksum must equal
//!   the serial arm's bit-for-bit (the determinism contract's in-bench
//!   guard), and the recorded `parallel_scaling` is the
//!   serial-vs-parallel trajectory (≤ 1× on one-core hosts is warned
//!   about, not failed).
//!
//! All arms must produce identical output — every gateway ID and every
//! realized link, checksummed — so the seed arm doubles as a behavioral
//! regression check of the refactor. On
//! the largest cell a metered engine arm (an enabled [`Metrics`]
//! registry) must stay within 3% of a metrics-off reference.
//!
//! `--large` extends the grid with engine-only cells at
//! `N ∈ {10⁴, 5·10⁴, 10⁵}` (fixed density, one replicate; the seed
//! and `run_on` arms would take hours there and measure nothing new).
//!
//! Writes `results/BENCH_pipeline.json` (override the directory with
//! `KHOP_RESULTS_DIR`) with per-cell wall-clock, replicates/sec,
//! speedups, and the label arena's heap footprint, stamped with
//! `git describe`, then reads the file back and re-parses it so CI
//! catches a malformed dump immediately.
//!
//! `--quick` shrinks the grid to seconds for CI (one full-arms cell
//! plus one engine-only cell that carries the metered-overhead arm).

use adhoc_bench::harness::CellConfig;
use adhoc_bench::record::{best_of, write_record};
use adhoc_bench::{probe, quick_mode};
use adhoc_cluster::clustering::{self, Clustering, MemberPolicy};
use adhoc_cluster::gateway::GatewaySelection;
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::obs::Metrics;
use adhoc_graph::par::Parallelism;
use adhoc_graph::Csr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};

/// The evaluation dataflow exactly as it stood before the single-sweep
/// engine, reproduced from the seed sources so the baseline is measured
/// in this binary on identical inputs (the original code paths were
/// refactored in place and no longer exist).
mod seed {
    use adhoc_cluster::clustering::Clustering;
    use adhoc_cluster::gateway::GatewaySelection;
    use adhoc_cluster::pipeline::Algorithm;
    use adhoc_graph::bfs::{self, Adjacency, BfsScratch, UNREACHED};
    use adhoc_graph::graph::NodeId;
    use adhoc_graph::lmst::{self, TieWeight};
    use adhoc_graph::mst::{self, WeightedEdge};
    use adhoc_graph::paths;
    use std::collections::{BTreeMap, BTreeSet};

    struct Link {
        a: NodeId,
        b: NodeId,
        path: Vec<NodeId>,
    }

    impl Link {
        fn hops(&self) -> u32 {
            paths::hop_count(&self.path)
        }
        fn weight(&self) -> TieWeight<u32> {
            TieWeight::new(self.hops(), self.a, self.b)
        }
    }

    struct VirtualGraph {
        sets: BTreeMap<NodeId, Vec<NodeId>>,
        links: BTreeMap<(NodeId, NodeId), Link>,
    }

    /// Seed `adjacency::all_within_2k1`: one bounded BFS per head.
    fn nc_sets<G: Adjacency>(g: &G, c: &Clustering) -> BTreeMap<NodeId, Vec<NodeId>> {
        let bound = 2 * c.k + 1;
        let mut scratch = BfsScratch::new(g.node_count());
        let mut sets = BTreeMap::new();
        for &h in &c.heads {
            scratch.run(g, h, bound);
            let mut near: Vec<NodeId> = c
                .heads
                .iter()
                .copied()
                .filter(|&o| o != h && scratch.dist(o) != UNREACHED)
                .collect();
            near.sort_unstable();
            sets.insert(h, near);
        }
        sets
    }

    /// Seed `adjacency::adjacent_heads`: ordered `Vec::insert` per edge.
    fn ac_sets<G: Adjacency>(g: &G, c: &Clustering) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut sets: BTreeMap<NodeId, Vec<NodeId>> =
            c.heads.iter().map(|&h| (h, Vec::new())).collect();
        for u in (0..g.node_count() as u32).map(NodeId) {
            let hu = c.head_of(u);
            for &v in g.adj(u) {
                if v <= u {
                    continue;
                }
                let hv = c.head_of(v);
                if hu != hv {
                    let su = sets.get_mut(&hu).expect("head present");
                    if let Err(pos) = su.binary_search(&hv) {
                        su.insert(pos, hv);
                    }
                    let sv = sets.get_mut(&hv).expect("head present");
                    if let Err(pos) = sv.binary_search(&hu) {
                        sv.insert(pos, hu);
                    }
                }
            }
        }
        sets
    }

    /// Seed `VirtualGraph::build`: a second BFS sweep for the paths,
    /// one heap-allocated `Vec` per link, `BTreeMap` storage.
    fn build<G: Adjacency>(g: &G, c: &Clustering, nc: bool) -> VirtualGraph {
        let sets = if nc { nc_sets(g, c) } else { ac_sets(g, c) };
        let bound = 2 * c.k + 1;
        let mut links = BTreeMap::new();
        let mut scratch = BfsScratch::new(g.node_count());
        for (&b, partners) in &sets {
            let smaller: Vec<NodeId> = partners.iter().copied().filter(|&a| a < b).collect();
            if smaller.is_empty() {
                continue;
            }
            scratch.run(g, b, bound);
            for a in smaller {
                let path = bfs::lexico_path_from_labels(g, a, b, &scratch)
                    .expect("selected neighbor heads are within 2k+1 hops");
                links.insert((a, b), Link { a, b, path });
            }
        }
        VirtualGraph { sets, links }
    }

    fn selection_from<'a>(
        links: impl IntoIterator<Item = &'a Link>,
        c: &Clustering,
    ) -> GatewaySelection {
        let mut gateways = Vec::new();
        let mut links_used = Vec::new();
        for l in links {
            links_used.push((l.a, l.b));
            for &w in paths::interior(&l.path) {
                if !c.is_head(w) {
                    gateways.push(w);
                }
            }
        }
        gateways.sort_unstable();
        gateways.dedup();
        links_used.sort_unstable();
        links_used.dedup();
        GatewaySelection {
            gateways,
            links_used,
        }
    }

    /// Seed `gateway::lmstga`: heap-based local MST per head.
    fn lmstga(vg: &VirtualGraph, c: &Clustering) -> GatewaySelection {
        let mut kept: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for (&u, partners) in &vg.sets {
            if partners.is_empty() {
                continue;
            }
            let weight = |a: NodeId, b: NodeId| {
                let key = if a < b { (a, b) } else { (b, a) };
                vg.links.get(&key).map(Link::weight)
            };
            for v in lmst::on_tree_neighbors(u, partners, weight) {
                kept.insert(if u < v { (u, v) } else { (v, u) });
            }
        }
        selection_from(kept.iter().map(|k| &vg.links[k]), c)
    }

    /// Seed `gateway::gmst`: complete links (one unbounded BFS per
    /// head, a path `Vec` per pair), `BTreeMap` pair index, Kruskal.
    fn gmst<G: Adjacency>(g: &G, c: &Clustering) -> GatewaySelection {
        let mut all: Vec<Link> = Vec::new();
        let mut scratch = BfsScratch::new(g.node_count());
        for (i, &b) in c.heads.iter().enumerate() {
            if i == 0 {
                continue;
            }
            scratch.run(g, b, u32::MAX);
            for &a in &c.heads[..i] {
                if let Some(path) = bfs::lexico_path_from_labels(g, a, b, &scratch) {
                    all.push(Link { a, b, path });
                }
            }
        }
        let by_pair: BTreeMap<(NodeId, NodeId), &Link> =
            all.iter().map(|l| ((l.a, l.b), l)).collect();
        let edges: Vec<WeightedEdge<TieWeight<u32>>> = all
            .iter()
            .map(|l| WeightedEdge::new(l.a, l.b, l.weight()))
            .collect();
        let tree = mst::kruskal(g.node_count(), &edges);
        let chosen = tree.iter().map(|e| {
            let key = if e.a < e.b { (e.a, e.b) } else { (e.b, e.a) };
            by_pair[&key]
        });
        selection_from(chosen, c)
    }

    /// Seed `pipeline::run_on`'s gateway phase for one algorithm.
    pub fn evaluate<G: Adjacency>(g: &G, c: &Clustering, alg: Algorithm) -> GatewaySelection {
        match alg {
            Algorithm::GMst => gmst(g, c),
            Algorithm::NcMesh | Algorithm::NcLmst => {
                let vg = build(g, c, true);
                if alg == Algorithm::NcMesh {
                    selection_from(vg.links.values(), c)
                } else {
                    lmstga(&vg, c)
                }
            }
            Algorithm::AcMesh | Algorithm::AcLmst => {
                let vg = build(g, c, false);
                if alg == Algorithm::AcMesh {
                    selection_from(vg.links.values(), c)
                } else {
                    lmstga(&vg, c)
                }
            }
        }
    }
}

/// One timed grid point.
struct Cell {
    n: usize,
    d: f64,
    k: u32,
    reps: usize,
    /// Timed rounds after the warmup pass (min is reported).
    rounds: usize,
    /// Whether the seed and `run_on` arms run (the engine-only cells
    /// are the large ones, where both legacy arms are quadratic-plus).
    full_arms: bool,
}

impl Cell {
    fn full(n: usize, d: f64, k: u32, reps: usize) -> Cell {
        // 11 timed rounds: these cells finish a pass in single-digit
        // milliseconds, so the min-estimator needs a few more samples
        // than the big cells to shake scheduler noise out.
        Cell {
            n,
            d,
            k,
            reps,
            rounds: 11,
            full_arms: true,
        }
    }

    fn engine_only(n: usize, d: f64, k: u32, reps: usize, rounds: usize) -> Cell {
        Cell {
            n,
            d,
            k,
            reps,
            rounds,
            full_arms: false,
        }
    }
}

/// Whether `--large` was passed: adds the `N ∈ {10⁴, 5·10⁴, 10⁵}`
/// engine-only scaling cells.
fn large_mode() -> bool {
    std::env::args().any(|a| a == "--large")
}

fn grid() -> Vec<Cell> {
    let mut cells = if quick_mode() {
        // The engine-only n = 2000 cell is the largest, so it carries
        // the metered-overhead arm on passes long enough to time.
        vec![
            Cell::full(60, 6.0, 2, 4),
            Cell::engine_only(2000, 6.0, 2, 2, 2),
        ]
    } else {
        vec![
            Cell::full(100, 6.0, 2, 30),
            Cell::full(200, 6.0, 2, 30),
            Cell::full(200, 6.0, 4, 30),
            Cell::full(100, 10.0, 3, 30),
            Cell::full(200, 10.0, 3, 30),
            Cell::engine_only(2000, 6.0, 2, 4, 3),
        ]
    };
    if large_mode() {
        cells.push(Cell::engine_only(10_000, 6.0, 2, 1, 2));
        cells.push(Cell::engine_only(50_000, 6.0, 2, 1, 2));
        cells.push(Cell::engine_only(100_000, 6.0, 2, 1, 2));
    }
    cells
}

/// Deterministic inputs shared by all timed arms.
fn make_inputs(cell: &Cell) -> Vec<(Csr, Clustering)> {
    let cfg = CellConfig::paper(cell.n, cell.d, cell.k);
    (0..cell.reps)
        .map(|i| {
            // Reuse the harness's seeding discipline (base_seed mixed
            // with the cell and replicate index) via a plain StdRng so
            // the inputs stay stable across refactors of the harness.
            let seed = cfg
                .base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((cell.n as u64) << 32)
                .wrapping_add(u64::from(cell.k) << 16)
                .wrapping_add(i as u64);
            let mut rng = StdRng::seed_from_u64(seed ^ cell.d.to_bits());
            // `at_scale`: the large cells drop the connected-sample
            // requirement (almost surely unmeetable at fixed density).
            let net = gen::geometric(&GeometricConfig::at_scale(cell.n, 100.0, cell.d), &mut rng);
            let csr = Csr::from_graph(&net.graph);
            let clustering = clustering::cluster(&csr, cell.k, &LowestId, MemberPolicy::IdBased);
            (csr, clustering)
        })
        .collect()
}

/// Checksum over the output every arm must agree on: the head count,
/// the CDS size, every gateway ID and every realized link, so the arms
/// agree by identity, not just by counts.
fn checksum(acc: &mut u64, heads: usize, sel: &GatewaySelection, cds: usize) {
    let mut mix = |v: u64| *acc = acc.wrapping_mul(0x100_0000_01B3).wrapping_add(v);
    mix((heads as u64) << 32 | (sel.gateways.len() as u64) << 16 | cds as u64);
    for g in &sel.gateways {
        mix(u64::from(g.0));
    }
    for &(a, b) in &sel.links_used {
        mix(u64::from(a.0) << 32 | u64::from(b.0));
    }
}

/// One pass of the engine over `inputs` with `scratch`: returns the
/// metrics checksum.
fn engine_pass(inputs: &[(Csr, Clustering)], scratch: &mut EvalScratch) -> u64 {
    let mut sum = 0u64;
    for (csr, clustering) in inputs {
        let eval = pipeline::run_all_with(csr, clustering, scratch);
        for alg in Algorithm::ALL {
            let out = eval.of(alg);
            checksum(
                &mut sum,
                clustering.head_count(),
                &out.selection,
                out.cds.size(),
            );
        }
    }
    sum
}

/// Times the engine over `inputs` with the given warm scratch:
/// returns (fastest round, metrics checksum, final arena bytes).
fn engine_arm(
    inputs: &[(Csr, Clustering)],
    rounds: usize,
    mut scratch: EvalScratch,
) -> (f64, u64, usize) {
    let (secs, sum) = best_of(rounds, None, || engine_pass(inputs, &mut scratch));
    (secs, sum, scratch.labels_memory_bytes())
}

fn main() {
    let mut cells = Vec::new();
    // Largest grid cell drives the metrics-on overhead guard.
    let largest_n = grid().iter().map(|c| c.n).max().expect("non-empty grid");
    let mut metrics_overhead: Option<Value> = None;
    for cell in grid() {
        let inputs = make_inputs(&cell);
        let total_reps = cell.reps as f64;

        // Single-sweep engine with a warm scratch, pinned to one
        // worker: the serial reference the multi-worker arm below is
        // compared (and checksummed) against.
        let (engine_secs, engine_sum, labels_memory_bytes) = engine_arm(
            &inputs,
            cell.rounds,
            EvalScratch::with_workers(Parallelism::new(1)),
        );

        // Multi-worker engine arm (shared worker pool): the
        // order-sensitive metrics checksum must equal the serial arm's
        // bit-for-bit — the determinism contract's in-bench guard.
        // Scaling ≤ 1x is reported, not failed: on a one-core
        // container the pool legitimately cannot win.
        let par_workers = Parallelism::available().workers().max(2);
        let (engine_par_secs, par_sum, _) = engine_arm(
            &inputs,
            cell.rounds,
            EvalScratch::with_workers(Parallelism::new(par_workers)),
        );
        assert_eq!(
            par_sum, engine_sum,
            "multi-worker engine diverged from serial on n={} d={} k={}",
            cell.n, cell.d, cell.k
        );
        let parallel_scaling = engine_secs / engine_par_secs.max(1e-12);
        if parallel_scaling <= 1.0 {
            println!(
                "warning: n={} x{par_workers} workers scaled {parallel_scaling:.2}x (<= 1x) \
                 — expected on hosts with fewer free cores than workers",
                cell.n
            );
        }

        // Metrics-on overhead arm (largest grid cell only): the same
        // serial engine with an enabled registry, interleaved round by
        // round with a fresh metrics-off reference (each round one
        // warmed, timed window per arm) so both mins see the same
        // machine state. The disabled path is one predictable branch
        // per site; anything near the 3% acceptance bound means a hot
        // loop started touching the registry.
        if cell.n == largest_n {
            let mut off = EvalScratch::with_workers(Parallelism::new(1));
            let mut on = EvalScratch::with_workers(Parallelism::new(1));
            on.set_metrics(Metrics::enabled());
            let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
            let (mut off_sum, mut on_sum) = (0, 0);
            for _ in 0..cell.rounds.max(3) {
                let (secs, sum) = best_of(1, None, || engine_pass(&inputs, &mut off));
                (off_secs, off_sum) = (off_secs.min(secs), sum);
                let (secs, sum) = best_of(1, None, || engine_pass(&inputs, &mut on));
                (on_secs, on_sum) = (on_secs.min(secs), sum);
            }
            assert_eq!(
                on_sum, off_sum,
                "metrics-on engine diverged on n={} d={} k={}",
                cell.n, cell.d, cell.k
            );
            let ratio = on_secs / off_secs.max(1e-12);
            assert!(
                ratio < 1.03,
                "metrics-on overhead {ratio:.4}x exceeds the 3% budget on n={}",
                cell.n
            );
            println!(
                "metrics overhead guard: n={} metrics-on {ratio:.4}x metrics-off (< 1.03x)",
                cell.n
            );
            metrics_overhead = Some(json!({
                "n": cell.n,
                "metrics_off_secs": off_secs,
                "metrics_on_secs": on_secs,
                "overhead_ratio": ratio,
            }));
        }

        // Legacy arms: the pre-refactor dataflow and the per-algorithm
        // wrapper (skipped on the engine-only cells).
        let legacy = cell.full_arms.then(|| {
            let (seed_secs, seed_sum) = best_of(cell.rounds, None, || {
                let mut sum = 0u64;
                for (csr, clustering) in &inputs {
                    for alg in Algorithm::ALL {
                        let sel = seed::evaluate(csr, clustering, alg);
                        checksum(
                            &mut sum,
                            clustering.head_count(),
                            &sel,
                            clustering.head_count() + sel.gateways.len(),
                        );
                    }
                }
                sum
            });
            let (run_on_secs, run_on_sum) = best_of(cell.rounds, None, || {
                let mut sum = 0u64;
                for (csr, clustering) in &inputs {
                    for alg in Algorithm::ALL {
                        let out = pipeline::run_on(csr, alg, clustering);
                        checksum(
                            &mut sum,
                            clustering.head_count(),
                            &out.selection,
                            out.cds.size(),
                        );
                    }
                }
                sum
            });
            assert_eq!(
                seed_sum, engine_sum,
                "engine and seed metrics diverged on n={} d={} k={}",
                cell.n, cell.d, cell.k
            );
            assert_eq!(run_on_sum, engine_sum, "engine and run_on metrics diverged");
            (seed_secs, run_on_secs)
        });

        let mut row = json!({
            "n": cell.n,
            "d": cell.d,
            "k": cell.k,
            "reps": cell.reps,
            "engine_secs": engine_secs,
            "engine_par_secs": engine_par_secs,
            "engine_par_workers": par_workers,
            "parallel_scaling": parallel_scaling,
            "engine_replicates_per_sec": total_reps / engine_secs,
            "labels_memory_bytes": labels_memory_bytes,
        });
        if let Some((seed_secs, run_on_secs)) = legacy {
            let speedup = seed_secs / engine_secs.max(1e-12);
            println!(
                "n={:<6} d={:<4} k={}  reps={:<3} seed {:>8.0} rps | run_on {:>8.0} rps | engine {:>8.0} rps | {:>5.2}x vs seed | labels {} B",
                cell.n,
                cell.d,
                cell.k,
                cell.reps,
                total_reps / seed_secs,
                total_reps / run_on_secs,
                total_reps / engine_secs,
                speedup,
                labels_memory_bytes,
            );
            let extra = json!({
                "seed_secs": seed_secs,
                "run_on_secs": run_on_secs,
                "seed_replicates_per_sec": total_reps / seed_secs,
                "run_on_replicates_per_sec": total_reps / run_on_secs,
                "speedup_vs_seed": speedup,
                "speedup_vs_run_on": run_on_secs / engine_secs.max(1e-12),
            });
            if let (Value::Object(row_map), Value::Object(extra_map)) = (&mut row, extra) {
                row_map.extend(extra_map);
            }
        } else {
            println!(
                "n={:<6} d={:<4} k={}  reps={:<3} engine {:>8.3}s | labels {} B",
                cell.n, cell.d, cell.k, cell.reps, engine_secs, labels_memory_bytes,
            );
        }
        cells.push(row);
    }

    let speedups: Vec<f64> = cells
        .iter()
        .filter_map(|c| c["speedup_vs_seed"].as_f64())
        .collect();
    assert!(!speedups.is_empty(), "at least one full-arms cell");
    let geomean = (speedups.iter().map(|v| v.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("geometric-mean evaluation speedup vs seed: {geomean:.2}x");

    // The grid actually run, compactly, so a record can never claim
    // more scope than it measured (mode "quick" + its two tiny cells
    // is visibly not the full trajectory).
    let grid_run: Vec<Value> = grid()
        .iter()
        .map(|c| json!({"n": c.n, "d": c.d, "k": c.k, "reps": c.reps}))
        .collect();
    write_record(
        "BENCH_pipeline",
        "khop-perf-baseline/v3",
        json!({
            "large": large_mode(),
            "grid": grid_run,
            "host_cores": Parallelism::available().workers(),
            "geomean_speedup_vs_seed": geomean,
            "metrics_overhead": metrics_overhead.unwrap_or(Value::Null),
            "metrics": probe::reference_metrics_section(),
            "cells": cells,
        }),
    );
}
