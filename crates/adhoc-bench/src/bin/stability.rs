//! Combinatorial stability under mobility, by clustering radius `k`.
//!
//! §1 argues for small `k`: "network topology changes frequently.
//! Therefore small k may help to construct a combinatorially stable
//! system, in which the propagation of all topology updates is
//! sufficiently fast to reflect the topology change." This experiment
//! quantifies that intuition under three mobility models:
//!
//! * **head churn** — per step, the symmetric difference between
//!   consecutive clusterhead sets (relative to the head count);
//! * **CDS churn** — the same for the full AC-LMST CDS;
//! * **staleness** — the fraction of clusterheads whose `2k+1`-hop
//!   information neighborhood was invalidated by at least one edge
//!   change during the step (the larger the collection radius, the more
//!   likely the collected state is already wrong when used).
//!
//! A second table compares the mobility-aware lowest-speed election
//! priority against lowest-ID: electing slow nodes lowers head churn.
//!
//! Usage: `cargo run --release -p adhoc-bench --bin stability [--quick]`

use adhoc_bench::figures::{Figure, FigureSet};
use adhoc_bench::stats::summarize;
use adhoc_bench::{quick_mode, results_dir};
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::pipeline::{run_on, Algorithm};
use adhoc_cluster::priority::{LowestId, LowestSpeed};
use adhoc_graph::bfs::BfsScratch;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_sim::mobility::{
    DirectionConfig, GaussMarkov, GaussMarkovConfig, MobileNetwork, Mobility, RandomDirection,
    RandomWaypoint, WaypointConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Edges of `after` XOR `before`, as endpoint pairs.
fn changed_edges(before: &Graph, after: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for (u, v) in before.edges() {
        if !after.has_edge(u, v) {
            out.push((u, v));
        }
    }
    for (u, v) in after.edges() {
        if !before.has_edge(u, v) {
            out.push((u, v));
        }
    }
    out
}

/// Mean number of changed edges inside each head's `2k+1`-hop
/// information ball (how much of the state a head just collected is
/// already invalid one step later). Grows with the collection radius.
fn staleness(before: &Graph, heads: &[NodeId], k: u32, changed: &[(NodeId, NodeId)]) -> f64 {
    if heads.is_empty() {
        return 0.0;
    }
    let mut scratch = BfsScratch::new(before.len());
    let mut in_ball = vec![false; before.len()];
    let mut total = 0usize;
    for &h in heads {
        scratch.run(before, h, 2 * k + 1);
        for w in scratch.visited() {
            in_ball[w.index()] = true;
        }
        total += changed
            .iter()
            .filter(|(u, v)| in_ball[u.index()] || in_ball[v.index()])
            .count();
        for w in scratch.visited() {
            in_ball[w.index()] = false;
        }
    }
    total as f64 / heads.len() as f64
}

fn symmetric_difference(a: &[NodeId], b: &[NodeId]) -> usize {
    let only_a = a.iter().filter(|v| b.binary_search(v).is_err()).count();
    let only_b = b.iter().filter(|v| a.binary_search(v).is_err()).count();
    only_a + only_b
}

struct StepMetrics {
    head_churn: Vec<f64>,
    cds_churn: Vec<f64>,
    stale: Vec<f64>,
}

fn run_model<M: Mobility>(
    mut net: MobileNetwork<M>,
    k: u32,
    steps: usize,
    rng: &mut StdRng,
) -> StepMetrics {
    let mut metrics = StepMetrics {
        head_churn: Vec::new(),
        cds_churn: Vec::new(),
        stale: Vec::new(),
    };
    let mut prev_graph = net.graph().clone();
    let c = cluster(&prev_graph, k, &LowestId, MemberPolicy::IdBased);
    let mut prev_heads = c.heads.clone();
    let mut prev_cds = run_on(&prev_graph, Algorithm::AcLmst, &c).cds.nodes();
    for _ in 0..steps {
        net.step(1.0, rng);
        let changed = changed_edges(&prev_graph, net.graph());
        metrics
            .stale
            .push(staleness(&prev_graph, &prev_heads, k, &changed));
        let c = cluster(net.graph(), k, &LowestId, MemberPolicy::IdBased);
        let cds = run_on(net.graph(), Algorithm::AcLmst, &c).cds.nodes();
        metrics
            .head_churn
            .push(symmetric_difference(&prev_heads, &c.heads) as f64 / c.heads.len().max(1) as f64);
        metrics
            .cds_churn
            .push(symmetric_difference(&prev_cds, &cds) as f64 / cds.len().max(1) as f64);
        prev_graph = net.graph().clone();
        prev_heads = c.heads;
        prev_cds = cds;
    }
    metrics
}

/// Moderate-mobility settings: topology drifts between 1-second
/// reclustering rounds instead of being torn up wholesale, which is the
/// regime where the paper's stability argument is interesting.
fn waypoint_cfg() -> WaypointConfig {
    WaypointConfig {
        side: 100.0,
        min_speed: 0.2,
        max_speed: 1.0,
        pause: 2.0,
    }
}

fn direction_cfg() -> DirectionConfig {
    DirectionConfig {
        side: 100.0,
        min_speed: 0.2,
        max_speed: 1.0,
        min_leg: 2.0,
        max_leg: 10.0,
    }
}

fn gauss_markov_cfg() -> GaussMarkovConfig {
    GaussMarkovConfig {
        side: 100.0,
        alpha: 0.85,
        mean_speed: 0.6,
        speed_sigma: 0.2,
        heading_sigma: 0.4,
        tick: 1.0,
    }
}

fn main() {
    let steps = if quick_mode() { 20 } else { 200 };
    let n = 100usize;
    let d = 8.0;
    println!("combinatorial stability (N = {n}, D = {d}, {steps} steps of 1 s, AC-LMST)");
    println!(
        "{:<10} {:>2} | {:>10} {:>10} {:>10}",
        "model", "k", "head-churn", "cds-churn", "staleness"
    );
    let mut churn_fig = Figure::new(
        "stability-cds-churn",
        "Per-step CDS churn vs k (N=100, D=8)",
        "k",
        "relative churn",
    );
    let mut stale_fig = Figure::new(
        "stability-staleness",
        "Invalidated edges per 2k+1-hop information ball (N=100, D=8)",
        "k",
        "stale edges / head / step",
    );
    for model_name in ["waypoint", "direction", "gauss-markov"] {
        for k in 1..=4u32 {
            let mut rng = StdRng::seed_from_u64(0x57AB + k as u64);
            let base = gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng);
            let m = match model_name {
                "waypoint" => {
                    let model = RandomWaypoint::new(n, waypoint_cfg(), &mut rng);
                    run_model(
                        MobileNetwork::with_model(base.positions.clone(), base.range, model),
                        k,
                        steps,
                        &mut rng,
                    )
                }
                "direction" => {
                    let model = RandomDirection::new(n, direction_cfg(), &mut rng);
                    run_model(
                        MobileNetwork::with_model(base.positions.clone(), base.range, model),
                        k,
                        steps,
                        &mut rng,
                    )
                }
                _ => {
                    let model = GaussMarkov::new(n, gauss_markov_cfg(), &mut rng);
                    run_model(
                        MobileNetwork::with_model(base.positions.clone(), base.range, model),
                        k,
                        steps,
                        &mut rng,
                    )
                }
            };
            churn_fig.push(model_name, f64::from(k), summarize(&m.cds_churn));
            stale_fig.push(model_name, f64::from(k), summarize(&m.stale));
            println!(
                "{model_name:<10} {k:>2} | {:>10.3} {:>10.3} {:>10.3}",
                summarize(&m.head_churn).mean,
                summarize(&m.cds_churn).mean,
                summarize(&m.stale).mean,
            );
        }
    }
    let mut set = FigureSet::default();
    set.push(churn_fig);
    set.push(stale_fig);
    let out = results_dir().join("stability.json");
    set.save_json(&out).expect("write stability.json");
    eprintln!("wrote {}", out.display());

    // Mobility-aware election tradeoff: electing slow nodes costs some
    // election churn (speed estimates drift, IDs never do) but the
    // elected heads move far less, so member->head assignments survive
    // the next step more often.
    println!("\nelection priority tradeoff (waypoint, k = 2)");
    println!(
        "{:<14} {:>10} {:>11} {:>12}",
        "priority", "head-churn", "head-speed", "stale-links"
    );
    for use_speed in [false, true] {
        let mut rng = StdRng::seed_from_u64(0x57AC);
        let base = gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng);
        let model = RandomWaypoint::new(n, waypoint_cfg(), &mut rng);
        let mut net = MobileNetwork::with_model(base.positions.clone(), base.range, model);
        let mut churn = Vec::new();
        let mut prev_heads: Vec<NodeId> = Vec::new();
        let mut prev_positions = net.positions().to_vec();
        // Exponentially smoothed speed estimates, quantized to coarse
        // bins: the election key only moves when a node's smoothed
        // speed crosses a bin boundary (hysteresis), so slow nodes are
        // preferred without the priority itself churning.
        let mut ema = vec![0.0f64; n];
        let mut head_speed = Vec::new();
        let mut stale_links = Vec::new();
        let mut prev_clustering: Option<adhoc_cluster::Clustering> = None;
        for _ in 0..steps {
            net.step(1.0, &mut rng);
            // Before re-electing: how many of last step's member->head
            // assignments are still within k hops on the new graph?
            if let Some(c) = &prev_clustering {
                let mut scratch = BfsScratch::new(n);
                let mut broken = 0usize;
                let mut members = 0usize;
                for v in 0..n as u32 {
                    let v = NodeId(v);
                    if c.is_head(v) {
                        continue;
                    }
                    members += 1;
                    scratch.run(net.graph(), c.head_of(v), 2);
                    if scratch.dist(v) > 2 {
                        broken += 1;
                    }
                }
                if members > 0 {
                    stale_links.push(broken as f64 / members as f64);
                }
            }
            for (e, (a, b)) in ema
                .iter_mut()
                .zip(net.positions().iter().zip(&prev_positions))
            {
                *e = 0.8 * *e + 0.2 * a.distance(b);
            }
            let clustering = if use_speed {
                let binned: Vec<f64> = ema.iter().map(|&e| (e / 0.25).floor() * 0.25).collect();
                cluster(
                    net.graph(),
                    2,
                    &LowestSpeed::new(&binned),
                    MemberPolicy::IdBased,
                )
            } else {
                cluster(net.graph(), 2, &LowestId, MemberPolicy::IdBased)
            };
            if !prev_heads.is_empty() {
                churn.push(
                    symmetric_difference(&prev_heads, &clustering.heads) as f64
                        / clustering.heads.len().max(1) as f64,
                );
            }
            let mean_speed: f64 = clustering.heads.iter().map(|h| ema[h.index()]).sum::<f64>()
                / clustering.heads.len().max(1) as f64;
            head_speed.push(mean_speed);
            prev_heads.clone_from(&clustering.heads);
            prev_clustering = Some(clustering);
            prev_positions.clear();
            prev_positions.extend_from_slice(net.positions());
        }
        println!(
            "{:<14} {:>10.3} {:>11.3} {:>12.3}",
            if use_speed {
                "lowest-speed"
            } else {
                "lowest-ID"
            },
            summarize(&churn).mean,
            summarize(&head_speed).mean,
            summarize(&stale_links).mean,
        );
    }
}
