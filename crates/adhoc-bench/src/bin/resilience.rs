//! `resilience` — degradation and repair under adversarial churn: what
//! the maintained structure is *worth* when the workload stops being
//! graceful.
//!
//! For every cell (attack shape × repair-level cap) the bench builds one
//! geometric network, compiles a route plan, pins a **stale reader** to
//! the pre-attack plan (a clone at its RCU epoch — the view of a client
//! that never observes another publish), then plays the attack through
//! the engine one departure at a time and samples both plans against the
//! *current* topology as the damage accumulates:
//!
//! * **stale reachability** — the pinned pre-attack plan, validated hop
//!   by hop against the post-attack graph. This is the DRFE-style
//!   collapse curve: a compact-routing scheme nobody repairs.
//! * **live reachability** — the engine's currently published plan (the
//!   epoch advances on every publish), same validation. At
//!   [`RepairLevel::Full`] this must track the achievable ceiling — the
//!   pairs the surviving topology connects at all — exactly; capped
//!   policies ([`RepairLevel::Reaffiliate`], [`RepairLevel::Gateways`])
//!   show what each withheld §3.3 rule costs.
//! * **stretch** — routed hops over the true alive-subgraph shortest
//!   path, for the pairs the live plan still serves.
//!
//! Both plans go through [`adversary::reachability`], the probe
//! `khop resilience` uses too.
//!
//! After the attack, the network *heals*: a flash-crowd arrival burst
//! ([`adversary::heal`]) returns every victim through the stateful
//! arrival path, and the bench records the repair latency — wall-clock
//! engine time and arrivals until reachability returns to 100% of all
//! sampled pairs (`null` for capped policies that never get there).
//!
//! The Full-level cells double as a correctness guard in both modes:
//! post-attack live reachability must equal the achievable ceiling
//! (exhaustively, all alive pairs), and post-heal reachability must be
//! 100% of the reference topology's connected pairs. CI runs the quick
//! variant; the committed `results/BENCH_resilience.json` is the full
//! measurement (quick runs write `BENCH_resilience_quick.json`, so CI
//! can never clobber it). Surfaced on the CLI as `khop resilience`.

use adhoc_bench::record::write_record;
use adhoc_bench::{probe, quick_mode};
use adhoc_cluster::pipeline::Algorithm;
use adhoc_cluster::routing::RoutePlan;
use adhoc_graph::bfs::BfsScratch;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::NodeId;
use adhoc_graph::par::{self, Parallelism};
use adhoc_sim::adversary::{self, AttackKind};
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::movement::{MovementConfig, RepairLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::time::Instant;

const K: u32 = 2;

/// Mean multiplicative stretch of the plan's live walks over the true
/// shortest paths among the survivors, on the first `limit` routable
/// sampled pairs (`None` when nothing routes). Departed nodes are
/// isolated in the engine's graph, so a plain BFS stays among them.
fn mean_stretch(
    plan: &RoutePlan,
    engine: &ChurnEngine,
    pairs: &[(NodeId, NodeId)],
    limit: usize,
) -> Option<f64> {
    let mut buf = Vec::new();
    let mut bfs = BfsScratch::new(engine.graph().len());
    let mut sum = 0.0;
    let mut count = 0usize;
    for &(u, v) in pairs {
        if count >= limit {
            break;
        }
        if engine.is_departed(u) || engine.is_departed(v) {
            continue;
        }
        if let Some(hops) = adversary::live_walk(plan, engine, u, v, &mut buf) {
            bfs.run(engine.graph(), u, u32::MAX);
            let true_dist = bfs.dist(v);
            if true_dist > 0 {
                sum += f64::from(hops) / f64::from(true_dist);
                count += 1;
            }
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Exhaustive (all alive pairs) verification that the plan serves
/// everything the surviving topology connects. Returns (routed,
/// achievable). The O(alive²) probe fans the outer sources across the
/// shared worker pool; per-chunk counts sum to the same totals for any
/// worker count (each unordered pair is probed exactly once, from its
/// lower-indexed endpoint).
fn exhaustive_reach(plan: &RoutePlan, engine: &ChurnEngine, par: Parallelism) -> (usize, usize) {
    let alive: Vec<NodeId> = engine
        .graph()
        .nodes()
        .filter(|&v| !engine.is_departed(v))
        .collect();
    let counts = par::scoped_chunks(par.workers(), alive.len(), (), |off, take, ()| {
        let pairs: Vec<(NodeId, NodeId)> = alive
            .iter()
            .enumerate()
            .skip(off)
            .take(take)
            .flat_map(|(i, &u)| alive[i + 1..].iter().map(move |&v| (u, v)))
            .collect();
        adversary::reachability(plan, engine, &pairs)
    });
    counts
        .into_iter()
        .fold((0, 0), |(r, a), c| (r + c.routed, a + c.achievable))
}

fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            pairs.push((NodeId(a.min(b) as u32), NodeId(a.max(b) as u32)));
        }
    }
    pairs
}

struct Cell {
    attack: AttackKind,
    level: RepairLevel,
    n: usize,
    fraction: f64,
    pairs: usize,
    seed: u64,
}

fn run_cell(cell: &Cell) -> Value {
    let Cell {
        attack,
        level,
        n,
        fraction,
        pairs: pair_count,
        seed,
    } = *cell;
    let side = 100.0 * (n as f64 / 200.0).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gcfg = GeometricConfig::new(n, side, 6.0);
    gcfg.require_connected = false;
    let net = gen::geometric(&gcfg, &mut rng);

    let par = Parallelism::default();
    let cfg = MovementConfig::strict(K, Algorithm::AcLmst).capped(level);
    let mut engine = ChurnEngine::build(&net.graph, cfg);
    engine.set_workers(par);
    engine.enable_routing();

    // The stale reader: pinned to the pre-attack plan at its epoch, as
    // a client that never observes another publish would be.
    let stale = engine.route_plan().expect("routing enabled").clone();
    let stale_epoch = stale.epoch();

    let pairs = sample_pairs(n, pair_count, seed ^ 0x5A5A);
    let base = adversary::reachability(&stale, &engine, &pairs);

    let victims = adversary::select_victims(
        &engine,
        attack,
        fraction,
        Some((&net.positions, net.range)),
        seed ^ 0xBEEF,
    );

    // Attack: depart victims one at a time, sampling both plans on a
    // curve grid as the damage accumulates. Engine time is metered
    // separately from measurement time.
    let chunk = (victims.len() / 10).max(1);
    let mut curve = Vec::new();
    let mut attack_engine_secs = 0.0f64;
    let mut worst_level = RepairLevel::None;
    for (i, &v) in victims.iter().enumerate() {
        let t = Instant::now();
        let report = engine.depart(v);
        attack_engine_secs += t.elapsed().as_secs_f64();
        worst_level = worst_level.max(report.level);
        let removed = i + 1;
        if removed % chunk == 0 || removed == victims.len() {
            let s = adversary::reachability(&stale, &engine, &pairs);
            let live_plan = engine.route_plan().expect("maintained");
            let l = adversary::reachability(live_plan, &engine, &pairs);
            curve.push(json!({
                "removed": removed,
                "stale_reachability": s.of_alive(),
                "live_reachability": l.of_alive(),
                "live_reachability_of_achievable": l.of_achievable(),
                "achievable_fraction": if l.alive == 0 { 1.0 }
                    else { l.achievable as f64 / l.alive as f64 },
                "live_epoch": live_plan.epoch(),
            }));
        }
    }

    // Post-attack verdicts: sampled stretch plus the exhaustive
    // achievable-ceiling check the Full cells are held to.
    let stale_post = adversary::reachability(&stale, &engine, &pairs);
    let live_plan = engine.route_plan().expect("maintained");
    let live_post = adversary::reachability(live_plan, &engine, &pairs);
    let stretch = mean_stretch(live_plan, &engine, &pairs, 250);
    let (ex_routed, ex_achievable) = exhaustive_reach(live_plan, &engine, par);
    if level == RepairLevel::Full {
        assert_eq!(
            ex_routed,
            ex_achievable,
            "{} attack at Full: live plan must serve every alive-connected \
             pair post-attack ({ex_routed}/{ex_achievable})",
            attack.name()
        );
    }

    // Heal: flash-crowd arrival burst in departure order; latency to
    // 100% of *all* sampled pairs (the last straggler counts).
    let mut heal_engine_secs = 0.0f64;
    let mut to_full: Option<(usize, f64)> = None;
    for (i, &v) in victims.iter().enumerate() {
        let neighbors: Vec<NodeId> = net
            .graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| !engine.is_departed(w))
            .collect();
        let t = Instant::now();
        engine.arrive(v, &neighbors);
        heal_engine_secs += t.elapsed().as_secs_f64();
        if to_full.is_none() {
            let r =
                adversary::reachability(engine.route_plan().expect("maintained"), &engine, &pairs);
            // "100%" means every sampled endpoint is back AND every
            // achievable sampled pair routes — stragglers still
            // departed keep the clock running, pairs the reference
            // topology never connected don't count against it.
            if r.alive == pairs.len() && r.routed == r.achievable {
                to_full = Some((i + 1, heal_engine_secs));
            }
        }
    }
    let final_plan = engine.route_plan().expect("maintained");
    let (fin_routed, fin_achievable) = exhaustive_reach(final_plan, &engine, par);
    let restored =
        adhoc_graph::delta::TopologyDelta::between(engine.graph(), &net.graph).is_empty();
    assert!(restored, "heal must restore the reference topology");
    if level == RepairLevel::Full {
        assert_eq!(
            fin_routed,
            fin_achievable,
            "{} attack at Full: post-heal reachability must be 100%",
            attack.name()
        );
        assert!(to_full.is_some(), "Full must reach all sampled pairs");
    }

    json!({
        "attack": attack.name(),
        "repair_level": level.name(),
        "n": n,
        "k": K,
        "side": side,
        "fraction": fraction,
        "victims": victims.len(),
        "sampled_pairs": pairs.len(),
        "workers": par.workers(),
        "stale_epoch": stale_epoch,
        "final_epoch": final_plan.epoch(),
        "inter_layout": final_plan.inter_layout(),
        "inter_bytes": final_plan.inter_memory_bytes(),
        "baseline": json!({
            "reachability": base.of_alive(),
            "achievable_fraction": base.achievable as f64 / base.alive.max(1) as f64,
        }),
        "curve": curve,
        "post_attack": json!({
            "stale_reachability": stale_post.of_alive(),
            "live_reachability": live_post.of_alive(),
            "live_reachability_of_achievable": live_post.of_achievable(),
            "exhaustive_routed": ex_routed,
            "exhaustive_achievable": ex_achievable,
            "mean_stretch": stretch,
            "worst_repair_level": worst_level.name(),
            "attack_engine_ms": 1e3 * attack_engine_secs,
        }),
        "heal": json!({
            "heal_engine_ms": 1e3 * heal_engine_secs,
            "arrivals_to_full_reachability": to_full.map(|(steps, _)| steps),
            "ms_to_full_reachability": to_full.map(|(_, secs)| 1e3 * secs),
            "final_exhaustive_routed": fin_routed,
            "final_exhaustive_achievable": fin_achievable,
            "valid": engine.is_valid(),
        }),
    })
}

fn main() {
    let (n, fraction, pair_count, levels): (usize, f64, usize, &[RepairLevel]) = if quick_mode() {
        (
            150,
            0.2,
            600,
            &[RepairLevel::Reaffiliate, RepairLevel::Full],
        )
    } else {
        (
            600,
            0.2,
            1500,
            &[
                RepairLevel::Reaffiliate,
                RepairLevel::Gateways,
                RepairLevel::Full,
            ],
        )
    };
    println!(
        "adversarial resilience: degradation + repair latency (D = 6, k = {K}, n = {n}, \
         {:.0}% removed)",
        100.0 * fraction
    );
    println!(
        "{:<10} {:<12} | {:>7} {:>7} {:>9} | {:>8} {:>9} {:>8}",
        "attack", "repair", "stale%", "live%", "live/ach%", "atk ms", "heal ms", "to100%"
    );
    let mut cells = Vec::new();
    for attack in AttackKind::ALL {
        for &level in levels {
            let seed = 0xAD5E ^ ((attack.name().len() as u64) << 16) ^ level as u64;
            let cell = run_cell(&Cell {
                attack,
                level,
                n,
                fraction,
                pairs: pair_count,
                seed,
            });
            let post = &cell["post_attack"];
            let heal = &cell["heal"];
            println!(
                "{:<10} {:<12} | {:>6.1}% {:>6.1}% {:>8.1}% | {:>8.1} {:>9.1} {:>8}",
                cell["attack"].as_str().unwrap(),
                cell["repair_level"].as_str().unwrap(),
                100.0 * post["stale_reachability"].as_f64().unwrap(),
                100.0 * post["live_reachability"].as_f64().unwrap(),
                100.0 * post["live_reachability_of_achievable"].as_f64().unwrap(),
                post["attack_engine_ms"].as_f64().unwrap(),
                heal["heal_engine_ms"].as_f64().unwrap(),
                heal["arrivals_to_full_reachability"]
                    .as_u64()
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "never".into()),
            );
            cells.push(cell);
        }
    }

    let grid_run = json!({
        "n": n,
        "fraction": fraction,
        "pairs": pair_count,
        "attacks": AttackKind::ALL.iter().map(|a| a.name()).collect::<Vec<_>>(),
        "repair_levels": levels.iter().map(|l| l.name()).collect::<Vec<_>>(),
    });
    write_record(
        "BENCH_resilience",
        "khop-resilience/v1",
        json!({
            "grid": grid_run,
            "metrics": probe::reference_metrics_section(),
            "workers": Parallelism::default().workers(),
            "host_cores": Parallelism::available().workers(),
            "cells": cells,
        }),
    );
}
