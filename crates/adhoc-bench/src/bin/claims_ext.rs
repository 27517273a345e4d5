//! Programmatically checks the claims of the second-pass extensions,
//! printing PASS/FAIL per claim — the regression harness behind the
//! extension sections of EXPERIMENTS.md.
//!
//! Claims checked:
//! 1. Every algorithm's CDS is bounded below by the exact optimum, in
//!    the paper's ordering (Mesh ≥ LMST ≥ G-MST ≥ OPT, AC ≤ NC).
//! 2. The G-MST "lower bound" is loose against the true optimum
//!    (ratio > 1.2 on average) — the clustering pins it away.
//! 3. Under contention, the CDS backbone transmits less and collides
//!    less than blind flooding at every window size.
//! 4. CDS churn under mobility grows with k (combinatorial stability
//!    favors small k).
//! 5. Movement-sensitive maintenance costs less than rebuild-per-step
//!    while keeping the structure valid on every connected step.
//!
//! Usage: `cargo run --release -p adhoc-bench --bin claims_ext [--quick]`

use adhoc_bench::quick_mode;
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::exact::{min_khop_cds, ExactConfig};
use adhoc_cluster::pipeline::{self, run_on, Algorithm, PipelineConfig};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::connectivity;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::NodeId;
use adhoc_sim::broadcast::Strategy;
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::mac::{simulate_with_mac, MacConfig};
use adhoc_sim::mobility::{MobileNetwork, RandomWaypoint, WaypointConfig};
use adhoc_sim::movement::MovementConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let reps = if quick_mode() { 4 } else { 20 };
    let mut failures = 0;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!("[{}] {name}", if ok { "PASS" } else { "FAIL" });
        println!("       {detail}");
        if !ok {
            failures += 1;
        }
    };

    // Claims 1 + 2: exact optimum bounds and ordering.
    {
        let mut ok_bound = true;
        let mut ok_order = true;
        let mut ratio_sum = 0.0;
        let mut count = 0;
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(0xCE1 + rep as u64 * 97);
            let net = gen::geometric(&GeometricConfig::new(22, 100.0, 5.0), &mut rng);
            for k in 1..=2u32 {
                let opt = min_khop_cds(&net.graph, k, &ExactConfig::default());
                let clustering = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
                let size = |alg| run_on(&net.graph, alg, &clustering).cds.size();
                let (ncm, acm) = (size(Algorithm::NcMesh), size(Algorithm::AcMesh));
                let (ncl, acl) = (size(Algorithm::NcLmst), size(Algorithm::AcLmst));
                let gm = size(Algorithm::GMst);
                ok_bound &=
                    opt.optimal && [ncm, acm, ncl, acl, gm].iter().all(|&s| s >= opt.size());
                ok_order &= acm <= ncm && acl <= acm && ncl <= ncm;
                ratio_sum += gm as f64 / opt.size() as f64;
                count += 1;
            }
        }
        check(
            "1: exact optimum lower-bounds all algorithms, paper ordering holds",
            ok_bound && ok_order,
            format!("{count} instances, all optima proven"),
        );
        let mean_ratio = ratio_sum / count as f64;
        check(
            "2: G-MST is a loose bound vs the true optimum",
            mean_ratio > 1.2,
            format!("mean G-MST/OPT ratio = {mean_ratio:.3}"),
        );
    }

    // Claim 3: backbone beats flooding under contention.
    {
        let mut ok = true;
        let mut detail = String::new();
        for cw in [2u32, 8, 32] {
            let (mut ftx, mut fcol, mut btx, mut bcol) = (0u64, 0u64, 0u64, 0u64);
            for rep in 0..reps {
                let mut rng = StdRng::seed_from_u64(0xCE2 + rep as u64 * 131);
                let net = gen::geometric(&GeometricConfig::new(150, 100.0, 10.0), &mut rng);
                let c = cluster(&net.graph, 1, &LowestId, MemberPolicy::IdBased);
                let out = run_on(&net.graph, Algorithm::AcLmst, &c);
                let cfg = MacConfig {
                    cw,
                    ..MacConfig::default()
                };
                let f = simulate_with_mac(
                    &net.graph,
                    &c,
                    &out.cds,
                    NodeId(0),
                    Strategy::BlindFlood,
                    &cfg,
                    &mut rng,
                );
                let b = simulate_with_mac(
                    &net.graph,
                    &c,
                    &out.cds,
                    NodeId(0),
                    Strategy::Backbone,
                    &cfg,
                    &mut rng,
                );
                ftx += f.transmissions;
                fcol += f.collisions;
                btx += b.transmissions;
                bcol += b.collisions;
            }
            ok &= btx < ftx && bcol < fcol;
            detail.push_str(&format!("cw={cw}: tx {btx}<{ftx}, coll {bcol}<{fcol}; "));
        }
        check(
            "3: backbone beats flooding under contention at every cw",
            ok,
            detail,
        );
    }

    // Claim 4: CDS churn grows with k.
    {
        let steps = if quick_mode() { 30 } else { 120 };
        let mut churn_by_k = Vec::new();
        for k in [1u32, 4] {
            let mut rng = StdRng::seed_from_u64(0xCE3);
            let base = gen::geometric(&GeometricConfig::new(100, 100.0, 8.0), &mut rng);
            let wp = WaypointConfig {
                side: 100.0,
                min_speed: 0.2,
                max_speed: 1.0,
                pause: 2.0,
            };
            let model = RandomWaypoint::new(100, wp, &mut rng);
            let mut net = MobileNetwork::with_model(base.positions.clone(), base.range, model);
            let mut prev = pipeline::run(net.graph(), Algorithm::AcLmst, &PipelineConfig::new(k))
                .cds
                .nodes();
            let mut churn = 0usize;
            let mut total = 0usize;
            for _ in 0..steps {
                net.step(1.0, &mut rng);
                let cds = pipeline::run(net.graph(), Algorithm::AcLmst, &PipelineConfig::new(k))
                    .cds
                    .nodes();
                churn += cds
                    .iter()
                    .filter(|v| prev.binary_search(v).is_err())
                    .count()
                    + prev
                        .iter()
                        .filter(|v| cds.binary_search(v).is_err())
                        .count();
                total += cds.len();
                prev = cds;
            }
            churn_by_k.push(churn as f64 / total.max(1) as f64);
        }
        check(
            "4: CDS churn grows with k (combinatorial stability)",
            churn_by_k[1] > churn_by_k[0],
            format!(
                "relative churn k=1: {:.3}, k=4: {:.3}",
                churn_by_k[0], churn_by_k[1]
            ),
        );
    }

    // Claim 5: movement-sensitive maintenance cheaper than rebuild and
    // always valid on connected steps.
    {
        let steps = if quick_mode() { 40 } else { 200 };
        let mut rng = StdRng::seed_from_u64(0xCE4);
        let base = gen::geometric(&GeometricConfig::new(100, 100.0, 10.0), &mut rng);
        let wp = WaypointConfig {
            side: 100.0,
            min_speed: 0.2,
            max_speed: 1.0,
            pause: 2.0,
        };
        let model = RandomWaypoint::new(100, wp, &mut rng);
        let mut net = MobileNetwork::with_model(base.positions.clone(), base.range, model);
        let mut m = ChurnEngine::build(net.graph(), MovementConfig::strict(2, Algorithm::AcLmst));
        let mut policy_cost = 0usize;
        let mut rebuild_cost = 0usize;
        let mut always_valid = true;
        for _ in 0..steps {
            net.step(1.0, &mut rng);
            rebuild_cost += m.rebuild_cost(net.graph());
            let r = m.step(net.graph());
            policy_cost += r.cost;
            if connectivity::is_connected(net.graph()) {
                always_valid &= r.valid;
            }
        }
        check(
            "5: movement-sensitive maintenance cheaper than rebuild, always valid",
            policy_cost < rebuild_cost && always_valid,
            format!(
                "policy {policy_cost} vs rebuild {rebuild_cost} node-rounds ({:.0}% saved), valid = {always_valid}",
                100.0 * (1.0 - policy_cost as f64 / rebuild_cost.max(1) as f64)
            ),
        );
    }

    if failures > 0 {
        eprintln!("\n{failures} claim(s) FAILED");
        std::process::exit(1);
    }
    println!("\nall extension claims PASS");
}
