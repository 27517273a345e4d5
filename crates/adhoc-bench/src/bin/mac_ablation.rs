//! Ideal-MAC ablation: rerun the broadcast application under a
//! contention MAC (slotted CSMA, receiver-side collisions).
//!
//! The paper's simulation assumes an ideal MAC; its *motivation* (§1)
//! is that flooding "may cause severe collision and contention". This
//! experiment closes the loop: with collisions enabled, the blind flood
//! loses delivery ratio to the broadcast storm while the clustered CDS
//! backbone — far fewer contending transmitters — stays close to
//! complete, at every contention-window setting.
//!
//! Usage: `cargo run --release -p adhoc-bench --bin mac_ablation [--quick]`

use adhoc_bench::figures::{Figure, FigureSet};
use adhoc_bench::stats::summarize;
use adhoc_bench::{quick_mode, results_dir};
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::pipeline::{run_on, Algorithm};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::NodeId;
use adhoc_sim::broadcast::{self, Strategy};
use adhoc_sim::mac::{simulate_with_mac, MacConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let reps = if quick_mode() { 5 } else { 50 };
    let n = 150usize;
    let d = 10.0;
    let k = 1u32;
    println!("broadcast under contention MAC (N = {n}, D = {d}, k = {k})");
    println!(
        "{:>5} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "cw", "fl-deliv", "fl-coll", "fl-tx", "bb-deliv", "bb-coll", "bb-tx"
    );
    let mut deliv_fig = Figure::new(
        "mac-delivery",
        "Delivery ratio vs contention window (N=150, D=10, k=1)",
        "cw",
        "% delivered",
    );
    let mut coll_fig = Figure::new(
        "mac-collisions",
        "Collisions vs contention window (N=150, D=10, k=1)",
        "cw",
        "collisions",
    );
    for cw in [1u32, 2, 4, 8, 16, 32] {
        let mut metrics: [Vec<f64>; 6] = Default::default();
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(0x3AC + rep as u64 * 7919);
            let net = gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let out = run_on(&net.graph, Algorithm::AcLmst, &c);
            let cfg = MacConfig {
                cw,
                ..MacConfig::default()
            };
            let fl = simulate_with_mac(
                &net.graph,
                &c,
                &out.cds,
                NodeId(0),
                Strategy::BlindFlood,
                &cfg,
                &mut rng,
            );
            let bb = simulate_with_mac(
                &net.graph,
                &c,
                &out.cds,
                NodeId(0),
                Strategy::Backbone,
                &cfg,
                &mut rng,
            );
            metrics[0].push(fl.delivery_ratio(n) * 100.0);
            metrics[1].push(fl.collisions as f64);
            metrics[2].push(fl.transmissions as f64);
            metrics[3].push(bb.delivery_ratio(n) * 100.0);
            metrics[4].push(bb.collisions as f64);
            metrics[5].push(bb.transmissions as f64);
        }
        deliv_fig.push("flood", f64::from(cw), summarize(&metrics[0]));
        deliv_fig.push("backbone", f64::from(cw), summarize(&metrics[3]));
        coll_fig.push("flood", f64::from(cw), summarize(&metrics[1]));
        coll_fig.push("backbone", f64::from(cw), summarize(&metrics[4]));
        println!(
            "{cw:>5} | {:>8.1}% {:>9.1} {:>9.1} | {:>8.1}% {:>9.1} {:>9.1}",
            summarize(&metrics[0]).mean,
            summarize(&metrics[1]).mean,
            summarize(&metrics[2]).mean,
            summarize(&metrics[3]).mean,
            summarize(&metrics[4]).mean,
            summarize(&metrics[5]).mean,
        );
    }

    let mut set = FigureSet::default();
    set.push(deliv_fig);
    set.push(coll_fig);
    let out = results_dir().join("mac_ablation.json");
    set.save_json(&out).expect("write mac_ablation.json");
    eprintln!("wrote {}", out.display());

    // Reference row: the ideal MAC the paper assumes.
    let mut ideal: [Vec<f64>; 2] = Default::default();
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(0x3AC + rep as u64 * 7919);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng);
        let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let out = run_on(&net.graph, Algorithm::AcLmst, &c);
        let fl = broadcast::simulate(&net.graph, &c, &out.cds, NodeId(0), Strategy::BlindFlood);
        let bb = broadcast::simulate(&net.graph, &c, &out.cds, NodeId(0), Strategy::Backbone);
        ideal[0].push(fl.transmissions as f64);
        ideal[1].push(bb.transmissions as f64);
    }
    println!(
        "ideal | {:>8} {:>9} {:>9.1} | {:>8} {:>9} {:>9.1}",
        "100.0%",
        0,
        summarize(&ideal[0]).mean,
        "100.0%",
        0,
        summarize(&ideal[1]).mean,
    );
}
