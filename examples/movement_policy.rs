//! The paper's §5 future work in action: a movement-sensitive
//! maintenance policy keeps the connected k-hop clustering alive under
//! node motion, repairing only what broke.
//!
//! Run with: `cargo run --release --example movement_policy`

use khop::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 100;
    let k = 2;
    let mut rng = StdRng::seed_from_u64(77);
    let base = gen::geometric(&gen::GeometricConfig::new(n, 100.0, 10.0), &mut rng);
    let wp = WaypointConfig {
        side: 100.0,
        min_speed: 0.2,
        max_speed: 1.0,
        pause: 2.0,
    };
    let model = mobility::RandomWaypoint::new(n, wp, &mut rng);
    let mut mobile = MobileNetwork::with_model(base.positions.clone(), base.range, model);
    let mut maintained =
        ChurnEngine::build(mobile.graph(), MovementConfig::strict(k, Algorithm::AcLmst));
    println!(
        "initial structure: {} heads + {} gateways = CDS {}\n",
        maintained.cds.heads.len(),
        maintained.cds.gateways.len(),
        maintained.cds.size()
    );

    println!("step | edge churn | repair      | orphans | cost | CDS | saved vs rebuild");
    let mut total_cost = 0usize;
    let mut total_rebuild = 0usize;
    for step in 0..30 {
        let delta = mobile.step(1.0, &mut rng);
        total_rebuild += maintained.rebuild_cost(mobile.graph());
        let r = maintained.step(mobile.graph());
        total_cost += r.cost;
        println!(
            "{step:>4} | {:>10} | {:<11} | {:>7} | {:>4} | {:>3} | {:>5.0}%",
            delta.churn(),
            r.level.name(),
            r.orphans,
            r.cost,
            maintained.cds.size(),
            100.0 * (1.0 - total_cost as f64 / total_rebuild.max(1) as f64),
        );
        // Every repair leaves a verifiable k-hop CDS whenever the
        // network itself is connected.
        if connectivity::is_connected(mobile.graph()) {
            maintained.cds.verify(mobile.graph(), k).unwrap();
        }
    }
    println!(
        "\n30 steps: {total_cost} node-rounds spent vs {total_rebuild} for rebuild-every-step"
    );
}
