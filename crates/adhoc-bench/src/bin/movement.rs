//! Movement-sensitive maintenance vs rebuild-every-step (§5 future
//! work, realized).
//!
//! A mobile network is stepped for many beacon periods; three policies
//! keep the connected k-hop clustering alive:
//!
//! * **rebuild** — re-run the full pipeline every step (the naive
//!   baseline a simulator-only evaluation implies);
//! * **strict**  — the movement-sensitive policy with `merge_distance
//!   = k`: repairs only what broke, re-elects the moment k-hop
//!   independence is violated;
//! * **tolerant** — `merge_distance = k/2` (min 0): heads may drift
//!   closer before a re-election is forced, trading structure quality
//!   for fewer full rebuilds.
//!
//! Reported per policy: mean maintenance cost per step (node-rounds),
//! the repair-level distribution, head churn, and the fraction of
//! steps with a verified-valid CDS.
//!
//! Usage: `cargo run --release -p adhoc-bench --bin movement [--quick]`

use adhoc_bench::quick_mode;
use adhoc_cluster::pipeline::Algorithm;
use adhoc_graph::connectivity;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::NodeId;
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::mobility::{MobileNetwork, RandomWaypoint, WaypointConfig};
use adhoc_sim::movement::{MovementConfig, RepairLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct PolicyOutcome {
    cost_per_step: f64,
    level_counts: [usize; 4],
    head_churn: f64,
    valid_fraction: f64,
}

fn drive(cfg: MovementConfig, steps: usize, seed: u64) -> PolicyOutcome {
    let n = 100usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let base = gen::geometric(&GeometricConfig::new(n, 100.0, 10.0), &mut rng);
    let wp = WaypointConfig {
        side: 100.0,
        min_speed: 0.2,
        max_speed: 1.0,
        pause: 2.0,
    };
    let model = RandomWaypoint::new(n, wp, &mut rng);
    let mut mobile = MobileNetwork::with_model(base.positions.clone(), base.range, model);
    let mut m = ChurnEngine::build(mobile.graph(), cfg);
    let mut cost = 0usize;
    let mut levels = [0usize; 4];
    let mut churn = 0usize;
    let mut valid = 0usize;
    let mut judged = 0usize;
    let mut prev_heads: Vec<NodeId> = m.clustering.heads.clone();
    for _ in 0..steps {
        mobile.step(1.0, &mut rng);
        let r = m.step(mobile.graph());
        cost += r.cost;
        levels[match r.level {
            RepairLevel::None => 0,
            RepairLevel::Reaffiliate => 1,
            RepairLevel::Gateways => 2,
            RepairLevel::Full => 3,
        }] += 1;
        churn += m
            .clustering
            .heads
            .iter()
            .filter(|h| prev_heads.binary_search(h).is_err())
            .count();
        if connectivity::is_connected(mobile.graph()) {
            judged += 1;
            if r.valid {
                valid += 1;
            }
        }
        prev_heads.clone_from(&m.clustering.heads);
    }
    PolicyOutcome {
        cost_per_step: cost as f64 / steps as f64,
        level_counts: levels,
        head_churn: churn as f64 / steps as f64,
        valid_fraction: if judged == 0 {
            1.0
        } else {
            valid as f64 / judged as f64
        },
    }
}

fn rebuild_baseline(steps: usize, seed: u64) -> PolicyOutcome {
    // Rebuild-every-step expressed through the same machinery: a
    // ChurnEngine whose caller force-rebuilds by constructing anew,
    // charged at rebuild_cost.
    let n = 100usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let base = gen::geometric(&GeometricConfig::new(n, 100.0, 10.0), &mut rng);
    let wp = WaypointConfig {
        side: 100.0,
        min_speed: 0.2,
        max_speed: 1.0,
        pause: 2.0,
    };
    let model = RandomWaypoint::new(n, wp, &mut rng);
    let mut mobile = MobileNetwork::with_model(base.positions.clone(), base.range, model);
    let cfg = MovementConfig::strict(2, Algorithm::AcLmst);
    let mut m = ChurnEngine::build(mobile.graph(), cfg);
    let mut cost = 0usize;
    let mut churn = 0usize;
    let mut valid = 0usize;
    let mut judged = 0usize;
    let mut prev_heads: Vec<NodeId> = m.clustering.heads.clone();
    for _ in 0..steps {
        mobile.step(1.0, &mut rng);
        cost += m.rebuild_cost(mobile.graph());
        m = ChurnEngine::build(mobile.graph(), cfg);
        churn += m
            .clustering
            .heads
            .iter()
            .filter(|h| prev_heads.binary_search(h).is_err())
            .count();
        if connectivity::is_connected(mobile.graph()) {
            judged += 1;
            if m.cds.verify(mobile.graph(), 2).is_ok() {
                valid += 1;
            }
        }
        prev_heads.clone_from(&m.clustering.heads);
    }
    PolicyOutcome {
        cost_per_step: cost as f64 / steps as f64,
        level_counts: [0, 0, 0, steps],
        head_churn: churn as f64 / steps as f64,
        valid_fraction: if judged == 0 {
            1.0
        } else {
            valid as f64 / judged as f64
        },
    }
}

fn main() {
    let steps = if quick_mode() { 40 } else { 400 };
    let seed = 0x30FE;
    println!("movement-sensitive maintenance (N = 100, D = 10, k = 2, {steps} steps)");
    println!(
        "{:<9} | {:>10} | {:>5} {:>6} {:>5} {:>5} | {:>10} {:>7}",
        "policy", "cost/step", "none", "reaff", "gw", "full", "head-churn", "valid"
    );
    let rows: [(&str, PolicyOutcome); 3] = [
        ("rebuild", rebuild_baseline(steps, seed)),
        (
            "strict",
            drive(MovementConfig::strict(2, Algorithm::AcLmst), steps, seed),
        ),
        (
            "tolerant",
            drive(
                MovementConfig::tolerant(2, Algorithm::AcLmst, 1),
                steps,
                seed,
            ),
        ),
    ];
    for (name, o) in rows {
        println!(
            "{name:<9} | {:>10.1} | {:>5} {:>6} {:>5} {:>5} | {:>10.2} {:>6.1}%",
            o.cost_per_step,
            o.level_counts[0],
            o.level_counts[1],
            o.level_counts[2],
            o.level_counts[3],
            o.head_churn,
            o.valid_fraction * 100.0
        );
    }
}
