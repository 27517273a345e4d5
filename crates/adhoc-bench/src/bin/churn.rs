//! `churn` — the incremental-maintenance workload: per-step cost of the
//! delta engine vs rebuild-every-step, across mobility models and
//! network sizes.
//!
//! For every cell (mobility model × N) the bench pre-generates one
//! position trajectory, then replays it through two arms on
//! **identical** inputs:
//!
//! * **incremental** — a [`SpatialGrid`] updates the unit-disk topology
//!   from moved positions and the [`ChurnEngine`] consumes the edge
//!   delta: bounded BFS for dirty heads only, patched NC links, shared
//!   head-space tail (`pipeline::update_all_after` under the `RepairLevel`
//!   policy);
//! * **rebuild** — every step rebuilds the topology with
//!   [`gen::unit_disk_graph`], rebuilds all head labels, and re-runs
//!   `pipeline::run_all_with` on the *same clustering sequence* the
//!   incremental arm maintained (recorded in an untimed pass — the
//!   baseline is not even charged for re-election).
//!
//! Both arms evaluate the one algorithm the engine maintains (AC-LMST):
//! the rebuild arm's scratch is scoped to it exactly as the engine's
//! is, so neither arm pays for selections the other skips. Both
//! checksum the structures they produce each step (clusterheads, NC and
//! AC link counts, AC-LMST's gateways, links and CDS size); the
//! checksums must match exactly — that is the delta-equivalence
//! contract, enforced here on every timed run.
//!
//! Sizes follow the scalability convention (`D = 6`, `k = 2`, area side
//! scaled with `sqrt(N)` so density stays fixed). Steps are *beacon
//! periods*: `dt = 0.25` time units at pedestrian speeds, so a step
//! changes a handful of edges — the locality regime §3.3's rules are
//! about (a maintenance protocol that only hears about churn once the
//! topology has completely reshuffled has already failed). Per cell,
//! ten nodes follow the cell's mobility model over an otherwise static
//! field (data mules over a sensor deployment): per-beacon damage is
//! `O(movers · local density)` regardless of N, so the incremental
//! advantage *grows* with the field size. All-mobile control cells at
//! the paper's N = 200 pin down the adversarial extreme.
//!
//! Writes `results/BENCH_churn.json` (quick runs write
//! `BENCH_churn_quick.json`, so CI can never clobber the committed
//! measurement), then re-reads and re-parses it. Surfaced on the CLI as
//! `khop churn`.

use adhoc_bench::record::write_record;
use adhoc_bench::{probe, quick_mode};
use adhoc_cluster::clustering::Clustering;
use adhoc_cluster::pipeline::{self, Algorithm, AlgorithmSet, EvalScratch, EvaluationOutput};
use adhoc_graph::gen::{self, GeometricConfig, SpatialGrid};
use adhoc_graph::geom::Point;
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::mobility::{
    DirectionConfig, GaussMarkov, GaussMarkovConfig, Mobility, RandomDirection, RandomWaypoint,
    WaypointConfig,
};
use adhoc_sim::movement::MovementConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::time::Instant;

const K: u32 = 2;

/// The algorithm both arms evaluate.
const ALG: Algorithm = Algorithm::AcLmst;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Model {
    Waypoint,
    Direction,
    GaussMarkov,
}

impl Model {
    const ALL: [Model; 3] = [Model::Waypoint, Model::Direction, Model::GaussMarkov];

    fn name(self) -> &'static str {
        match self {
            Model::Waypoint => "random-waypoint",
            Model::Direction => "random-direction",
            Model::GaussMarkov => "gauss-markov",
        }
    }
}

/// Pre-generates the whole position trajectory for one cell, so both
/// arms replay byte-identical inputs. Only `mobile` of the nodes move
/// (the rest are a static field); returns the snapshots and the
/// calibrated transmission range.
fn trajectory(
    model: Model,
    n: usize,
    side: f64,
    steps: usize,
    seed: u64,
    mobile: usize,
) -> (Vec<Vec<Point>>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = GeometricConfig::new(n, side, 6.0);
    // At fixed density large random geometric graphs are almost surely
    // disconnected; every engine phase is well-defined per component.
    cfg.require_connected = false;
    let net = gen::geometric(&cfg, &mut rng);
    let mut pos = net.positions.clone();
    let dt = 0.25;
    // The mobile subset: a partial Fisher-Yates draw of m distinct
    // nodes.
    let m = mobile.clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..m {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let movers: Vec<usize> = idx[..m].to_vec();
    let mut mover_pos: Vec<Point> = movers.iter().map(|&i| pos[i]).collect();

    let mut snapshots = Vec::with_capacity(steps + 1);
    let mut drive = |advance: &mut dyn FnMut(&mut [Point], f64, &mut StdRng), rng: &mut StdRng| {
        // Warm the model to its steady state (waypoint starts with
        // every mover en route; pauses only appear after arrivals).
        advance(&mut mover_pos, 40.0, rng);
        for (slot, &i) in movers.iter().enumerate() {
            pos[i] = mover_pos[slot];
        }
        snapshots.push(pos.clone());
        for _ in 0..steps {
            advance(&mut mover_pos, dt, rng);
            for (slot, &i) in movers.iter().enumerate() {
                pos[i] = mover_pos[slot];
            }
            snapshots.push(pos.clone());
        }
    };
    match model {
        Model::Waypoint => {
            let mut model = RandomWaypoint::new(
                m,
                WaypointConfig {
                    side,
                    min_speed: 1.0,
                    max_speed: 3.0,
                    pause: 2.0,
                },
                &mut rng,
            );
            drive(&mut |p, dt, r| model.advance(p, dt, r), &mut rng);
        }
        Model::Direction => {
            let mut model = RandomDirection::new(
                m,
                DirectionConfig {
                    side,
                    min_speed: 0.5,
                    max_speed: 2.0,
                    min_leg: 2.0,
                    max_leg: 10.0,
                },
                &mut rng,
            );
            drive(&mut |p, dt, r| model.advance(p, dt, r), &mut rng);
        }
        Model::GaussMarkov => {
            let mut model = GaussMarkov::new(
                m,
                GaussMarkovConfig {
                    side,
                    alpha: 0.9,
                    mean_speed: 1.5,
                    speed_sigma: 0.5,
                    heading_sigma: 0.3,
                    tick: dt,
                },
                &mut rng,
            );
            drive(&mut |p, dt, r| model.advance(p, dt, r), &mut rng);
        }
    }
    (snapshots, net.range)
}

/// Structure checksum both arms must agree on, step by step: the
/// actual node identities (heads, every selected gateway, every
/// realized link pair), not just cardinalities — two arms choosing
/// equally many but *different* gateways must collide here.
fn checksum_eval(acc: &mut u64, eval: &EvaluationOutput) {
    let mut mix = |x: u64| {
        *acc = acc.wrapping_mul(0x100_0000_01B3).wrapping_add(x);
    };
    for h in &eval.clustering.heads {
        mix(u64::from(h.0));
    }
    mix(eval.nc_graph.link_count() as u64);
    mix(eval.ac_graph.link_count() as u64);
    let out = eval.of(ALG);
    for gw in &out.selection.gateways {
        mix(u64::from(gw.0));
    }
    for &(a, b) in &out.selection.links_used {
        mix(u64::from(a.0) << 32 | u64::from(b.0));
    }
    mix(out.cds.size() as u64);
}

struct CellResult {
    checksum: u64,
    secs: f64,
    churn_edges: usize,
    dirty_sum: usize,
    head_steps: usize,
}

/// Incremental arm: grid update + engine step per snapshot. Returns the
/// per-step clustering sequence on the first (recording) invocation.
fn run_incremental(
    traj: &[Vec<Point>],
    range: f64,
    record: Option<&mut Vec<Clustering>>,
) -> CellResult {
    let mut grid = SpatialGrid::build(&traj[0], range);
    // Tolerant merge rule (re-elect only when heads become adjacent):
    // the bench measures steady-state churn maintenance, not the
    // re-election policy, and a strict rule would trigger global
    // rebuilds every few beacons under continuous drift.
    let mut engine = ChurnEngine::build(grid.graph(), MovementConfig::tolerant(K, ALG, 1));
    let mut recorded = record;
    let mut checksum = 0u64;
    let mut churn_edges = 0usize;
    let mut dirty_sum = 0usize;
    let mut head_steps = 0usize;
    let t = Instant::now();
    for snapshot in &traj[1..] {
        let delta = grid.update(snapshot);
        churn_edges += delta.churn();
        let report = engine.step_delta(&delta);
        dirty_sum += report.dirty_heads;
        head_steps += engine.clustering.heads.len();
        checksum_eval(&mut checksum, engine.evaluation());
        if let Some(rec) = recorded.as_deref_mut() {
            rec.push(engine.clustering.clone());
        }
    }
    CellResult {
        checksum,
        secs: t.elapsed().as_secs_f64(),
        churn_edges,
        dirty_sum,
        head_steps,
    }
}

/// Rebuild arm: from-scratch topology + labels + [`ALG`]'s evaluation
/// per step on the recorded clustering sequence (re-election cost not
/// even charged).
fn run_rebuild(traj: &[Vec<Point>], range: f64, clusterings: &[Clustering]) -> CellResult {
    let mut scratch = EvalScratch::new();
    scratch.set_algorithms(AlgorithmSet::only(ALG));
    let mut checksum = 0u64;
    let t = Instant::now();
    for (snapshot, clustering) in traj[1..].iter().zip(clusterings) {
        let g = gen::unit_disk_graph(snapshot, range);
        let eval = pipeline::run_all_with(&g, clustering, &mut scratch);
        checksum_eval(&mut checksum, &eval);
    }
    CellResult {
        checksum,
        secs: t.elapsed().as_secs_f64(),
        churn_edges: 0,
        dirty_sum: 0,
        head_steps: 0,
    }
}

fn main() {
    // Ten mobile nodes over a static field (data mules crossing a
    // sensor deployment) at every size — the localized-churn regime
    // the delta engine targets: per-beacon damage is O(movers · local
    // density) regardless of N, so the advantage over rebuilding
    // everything grows with the field. The `all-mobile` control cells
    // at the paper\'s N = 200 show the adversarial extreme: when every
    // radio drifts at once the dirty fraction saturates, and each label
    // advance re-sweeps nearly every row in place, at about a rebuild's
    // cost. Quick mode keeps one small control cell per model, so the
    // saturated case still passes the checksum comparison below.
    let (sizes, steps, rounds): (&[usize], usize, u32) = if quick_mode() {
        (&[120], 6, 1)
    } else {
        (&[200, 500, 1000, 2000], 40, 5)
    };
    let mobile_nodes = 10usize;
    let control_n: &[usize] = if quick_mode() { &[120] } else { &[200] };
    println!(
        "incremental churn engine vs rebuild-every-step (D = 6, k = {K}, dt = 0.25, {steps} steps)"
    );
    println!(
        "{:<17} {:>5} {:>7} | {:>7} {:>7} | {:>10} {:>10} | {:>7}",
        "model", "N", "mobile", "churn/s", "dirty%", "inc ms/s", "reb ms/s", "speedup"
    );
    let mut cells = Vec::new();
    for model in Model::ALL {
        let runs = sizes
            .iter()
            .map(|&n| (n, mobile_nodes))
            .chain(control_n.iter().map(|&n| (n, n)));
        for (n, mobile) in runs {
            let side = 100.0 * (n as f64 / 200.0).sqrt();
            let seed = 0xC0FFEE ^ ((n as u64) << 8) ^ model.name().len() as u64;
            let (traj, range) = trajectory(model, n, side, steps, seed, mobile);

            // Recording pass (untimed): the incremental arm's
            // clustering sequence, which the rebuild arm replays.
            let mut clusterings = Vec::with_capacity(steps);
            let recorded = run_incremental(&traj, range, Some(&mut clusterings));

            // Timed passes: min over rounds, both arms.
            let mut inc = f64::INFINITY;
            let mut reb = f64::INFINITY;
            let mut inc_result = None;
            for _ in 0..rounds {
                let r = run_incremental(&traj, range, None);
                assert_eq!(r.checksum, recorded.checksum, "incremental replay diverged");
                inc = inc.min(r.secs);
                inc_result = Some(r);
            }
            for _ in 0..rounds {
                let r = run_rebuild(&traj, range, &clusterings);
                assert_eq!(
                    r.checksum,
                    recorded.checksum,
                    "rebuild-every-step produced different structures than the \
                     incremental engine on {} N={n} — delta equivalence violated",
                    model.name()
                );
                reb = reb.min(r.secs);
            }
            let inc_result = inc_result.expect("at least one round");
            let dirty_fraction = inc_result.dirty_sum as f64 / inc_result.head_steps.max(1) as f64;
            let speedup = reb / inc.max(1e-12);
            println!(
                "{:<17} {:>5} {:>6.0}% | {:>7.1} {:>6.1}% | {:>10.2} {:>10.2} | {:>6.2}x",
                model.name(),
                n,
                100.0 * mobile as f64 / n as f64,
                inc_result.churn_edges as f64 / steps as f64,
                100.0 * dirty_fraction,
                1e3 * inc / steps as f64,
                1e3 * reb / steps as f64,
                speedup
            );
            cells.push(json!({
                "model": model.name(),
                "n": n,
                "k": K,
                "steps": steps,
                "side": side,
                "mobile_nodes": mobile,
                "mobile_fraction": mobile as f64 / n as f64,
                "churn_edges_per_step": inc_result.churn_edges as f64 / steps as f64,
                "dirty_head_fraction": dirty_fraction,
                "incremental_secs": inc,
                "rebuild_secs": reb,
                "incremental_ms_per_step": 1e3 * inc / steps as f64,
                "rebuild_ms_per_step": 1e3 * reb / steps as f64,
                "speedup": speedup,
                "checksum": format!("{:016x}", recorded.checksum),
            }));
        }
    }

    let grid_run = json!({
        "models": Model::ALL.iter().map(|m| m.name()).collect::<Vec<_>>(),
        "sizes": sizes,
        "control_n": control_n,
        "steps": steps,
        "rounds": rounds,
        "mobile_nodes": mobile_nodes,
    });
    write_record(
        "BENCH_churn",
        "khop-churn/v1",
        json!({
            "grid": grid_run,
            "metrics": probe::reference_metrics_section(),
            "cells": cells,
        }),
    );
}
