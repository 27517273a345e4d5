//! Compares the three mobility models on the same deployment: edge
//! churn per step, and how the clustering structure responds.
//!
//! Run with: `cargo run --example mobility_models`

use khop::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn drive<M: Mobility>(name: &str, mut net: MobileNetwork<M>, rng: &mut StdRng) {
    let k = 2;
    let mut total_churn = 0usize;
    let mut head_counts = Vec::new();
    for _ in 0..15 {
        total_churn += net.step(1.0, rng).churn();
        let c = clustering::cluster(net.graph(), k, &LowestId, MemberPolicy::IdBased);
        head_counts.push(c.head_count());
    }
    let mean_heads = head_counts.iter().sum::<usize>() as f64 / head_counts.len() as f64;
    println!("{name:<18} | {:>11} | {:>10.1}", total_churn, mean_heads);
}

fn main() {
    let n = 100usize;
    let mut rng = StdRng::seed_from_u64(2025);
    let base = gen::geometric(&gen::GeometricConfig::new(n, 100.0, 8.0), &mut rng);
    println!("15 steps of 1 s on the same 100-node deployment (k = 2)");
    println!(
        "{:<18} | {:>11} | {:>10}",
        "model", "edge churn", "mean heads"
    );

    let model = RandomWaypoint::new(n, WaypointConfig::default_for_side(100.0), &mut rng);
    drive(
        "random waypoint",
        MobileNetwork::with_model(base.positions.clone(), base.range, model),
        &mut rng,
    );

    let model = RandomDirection::new(n, DirectionConfig::default_for_side(100.0), &mut rng);
    drive(
        "random direction",
        MobileNetwork::with_model(base.positions.clone(), base.range, model),
        &mut rng,
    );

    let model = GaussMarkov::new(n, GaussMarkovConfig::default_for_side(100.0), &mut rng);
    drive(
        "gauss-markov",
        MobileNetwork::with_model(base.positions.clone(), base.range, model),
        &mut rng,
    );
}
