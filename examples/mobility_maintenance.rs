//! Dynamic scenario: nodes move (random waypoint) and occasionally
//! switch off; the churn engine applies the §3.3 maintenance rules and
//! repairs the structure locally instead of re-running everything.
//!
//! Run with: `cargo run --example mobility_maintenance`

use khop::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let base = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 8.0), &mut rng);
    let mut mobile = MobileNetwork::new(
        base.positions.clone(),
        base.range,
        WaypointConfig::default_for_side(100.0),
        &mut rng,
    );

    let k = 2;
    println!("epoch | churn | heads | gateways | CDS | note");
    for epoch in 0..10 {
        let delta = mobile.step(2.0, &mut rng);
        if !connectivity::is_connected(mobile.graph()) {
            println!(
                "{epoch:>5} | {:>5} | network disconnected, skipping epoch",
                delta.churn()
            );
            continue;
        }
        let mut engine =
            ChurnEngine::build(mobile.graph(), MovementConfig::strict(k, Algorithm::AcLmst));
        engine.cds.verify(mobile.graph(), k).expect("valid CDS");
        println!(
            "{epoch:>5} | {:>5} | {:>5} | {:>8} | {:>3} | rebuilt after movement",
            delta.churn(),
            engine.clustering.head_count(),
            engine.cds.gateways.len(),
            engine.cds.size()
        );

        // A random node switches off: apply the paper's local fix and
        // report what it cost against a full rebuild.
        let victim = NodeId(rng.gen_range(0..mobile.graph().len() as u32));
        let role = if engine.clustering.is_head(victim) {
            "clusterhead"
        } else if engine.cds.gateways.contains(&victim) {
            "gateway"
        } else {
            "bystander"
        };
        let rebuild = engine.rebuild_cost(mobile.graph());
        let r = engine.depart(victim);
        println!(
            "      |       | node {victim} ({role}) left: repair {}, cost {} node-rounds \
             (rebuild {rebuild}), valid={} (survivors connected: {})",
            r.level.name(),
            r.cost,
            r.valid,
            engine.alive_connected(),
        );
    }
}
