//! Property-based tests for the dynamic parts of the simulator:
//! movement-sensitive maintenance, the contention MAC, and the
//! mobility models.

use adhoc_cluster::pipeline::Algorithm;
use adhoc_graph::connectivity;
use adhoc_graph::gen;
use adhoc_graph::geom::Point;
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_sim::broadcast::Strategy as FwdStrategy;
use adhoc_sim::churn::ChurnEngine;
use adhoc_sim::mac::{simulate_with_mac, MacConfig};
use adhoc_sim::mobility::{
    DirectionConfig, GaussMarkov, GaussMarkovConfig, Mobility, RandomDirection, RandomWaypoint,
    WaypointConfig,
};
use adhoc_sim::movement::{MovementConfig, RepairLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random connected graph: random tree plus extra edges.
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n)
        .prop_flat_map(|n| {
            let parents: Vec<_> = (1..n).map(|i| 0..i as u32).collect();
            let extra = (0..n as u32, 0..n as u32);
            (Just(n), parents, proptest::collection::vec(extra, 0..n))
        })
        .prop_map(|(n, parents, extra)| {
            let mut g = Graph::new(n);
            for (i, p) in parents.into_iter().enumerate() {
                g.add_edge(NodeId((i + 1) as u32), NodeId(p));
            }
            for (a, b) in extra {
                if a != b && !g.has_edge(NodeId(a), NodeId(b)) {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            g
        })
}

/// A random sequence of edge flips (toggle edge between two random
/// nodes), applied only when the result stays connected.
fn apply_flips(g: &mut Graph, flips: &[(u32, u32)]) -> usize {
    let n = g.len() as u32;
    let mut applied = 0;
    for &(a, b) in flips {
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        if a == b {
            continue;
        }
        if g.has_edge(a, b) {
            g.remove_edge(a, b);
            if connectivity::is_connected(&*g) {
                applied += 1;
            } else {
                g.add_edge(a, b); // revert: keep the graph connected
            }
        } else {
            g.add_edge(a, b);
            applied += 1;
        }
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The maintained structure verifies as a k-hop CDS after every
    /// batch of random (connectivity-preserving) topology changes.
    #[test]
    fn maintained_cds_valid_under_random_edge_flips(
        g in arb_connected_graph(25),
        k in 1u32..3,
        flips in proptest::collection::vec((0u32..25, 0u32..25), 1..30),
        batches in 1usize..4,
    ) {
        let mut g = g;
        let mut m = ChurnEngine::build(&g, MovementConfig::strict(k, Algorithm::AcLmst));
        let chunk = flips.len().div_ceil(batches);
        for batch in flips.chunks(chunk) {
            apply_flips(&mut g, batch);
            let r = m.step(&g);
            prop_assert!(r.valid, "invalid after {:?}-level repair", r.level);
            prop_assert!(m.cds.verify(&g, k).is_ok());
            prop_assert!(m.clustering.verify_coverage(&g).is_ok());
        }
    }

    /// Repair level None must mean the structure was genuinely intact:
    /// stepping twice in a row with no topology change does nothing.
    #[test]
    fn maintenance_is_idempotent(g in arb_connected_graph(25), k in 1u32..3) {
        let mut m = ChurnEngine::build(&g, MovementConfig::strict(k, Algorithm::AcLmst));
        let heads = m.clustering.heads.clone();
        let cds = m.cds.clone();
        for _ in 0..2 {
            let r = m.step(&g);
            prop_assert_eq!(r.level, RepairLevel::None);
            prop_assert_eq!(r.cost, 0);
        }
        prop_assert_eq!(m.clustering.heads, heads);
        prop_assert_eq!(m.cds, cds);
    }

    /// Contention-MAC accounting invariants: per-node transmission
    /// bounds, collision/delivery consistency, and determinism.
    #[test]
    fn mac_accounting_invariants(
        g in arb_connected_graph(25),
        k in 1u32..3,
        cw in 1u32..16,
        seed in 0u64..1000,
    ) {
        use adhoc_cluster::clustering::{cluster, MemberPolicy};
        use adhoc_cluster::pipeline::run_on;
        use adhoc_cluster::priority::LowestId;
        let n = g.len();
        let c = cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let out = run_on(&g, Algorithm::AcLmst, &c);
        let cfg = MacConfig { cw, max_slots: 1 << 18 };
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate_with_mac(&g, &c, &out.cds, NodeId(0), FwdStrategy::BlindFlood, &cfg, &mut rng)
        };
        let r = run(seed);
        // Every node transmits at most once in a blind flood.
        prop_assert!(r.transmissions <= n as u64);
        prop_assert!(r.delivered >= 1 && r.delivered <= n);
        prop_assert_eq!(r.complete, r.delivered == n);
        // Deterministic under the same seed.
        let r2 = run(seed);
        prop_assert_eq!(r.transmissions, r2.transmissions);
        prop_assert_eq!(r.collisions, r2.collisions);
        prop_assert_eq!(r.delivered, r2.delivered);

        // Backbone copies carry budgets 0..=k, and a node re-transmits
        // only for a strictly larger budget, so per-node transmissions
        // are bounded by k+1.
        let mut rng = StdRng::seed_from_u64(seed);
        let b = simulate_with_mac(&g, &c, &out.cds, NodeId(0), FwdStrategy::Backbone, &cfg, &mut rng);
        prop_assert!(b.transmissions <= (n as u64) * (k as u64 + 1));
    }

    /// Mobility models never move a node outside the deployment area,
    /// for arbitrary step-size sequences.
    #[test]
    fn mobility_models_respect_bounds(
        seed in 0u64..500,
        dts in proptest::collection::vec(0.01f64..7.0, 1..25),
    ) {
        let side = 50.0;
        let n = 12;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions: Vec<Point> = (0..n)
            .map(|i| Point::new(
                (i as f64 * 7.3) % side,
                (i as f64 * 3.7) % side,
            ))
            .collect();
        let mut direction = RandomDirection::new(n, DirectionConfig::default_for_side(side), &mut rng);
        let mut gm = GaussMarkov::new(n, GaussMarkovConfig::default_for_side(side), &mut rng);
        let mut gm_positions = positions.clone();
        for &dt in &dts {
            direction.advance(&mut positions, dt, &mut rng);
            gm.advance(&mut gm_positions, dt, &mut rng);
            for p in positions.iter().chain(&gm_positions) {
                prop_assert!(p.x >= 0.0 && p.x <= side);
                prop_assert!(p.y >= 0.0 && p.y <= side);
            }
        }
    }

    /// All three models keep every position inside the deployment
    /// square under *long* runs and edge-case step sizes — `dt = 0`
    /// (a beacon fires with no time passing) and very large `dt`
    /// (hundreds of leg/waypoint renewals in one call). Random
    /// waypoint is included here: its positions interpolate toward
    /// in-square targets, and this pins that no renewal overshoots.
    #[test]
    fn mobility_models_bounded_under_long_runs_and_extreme_dt(
        seed in 0u64..300,
        side in 20.0f64..120.0,
        extreme in 150.0f64..600.0,
    ) {
        let n = 10;
        let mut rng = StdRng::seed_from_u64(seed);
        let start: Vec<Point> = (0..n)
            .map(|i| Point::new((i as f64 * 11.17) % side, (i as f64 * 5.3) % side))
            .collect();
        let mut wp = RandomWaypoint::new(
            n,
            WaypointConfig { side, min_speed: 0.5, max_speed: 6.0, pause: 0.3 },
            &mut rng,
        );
        let mut dir = RandomDirection::new(n, DirectionConfig {
            side,
            min_speed: 0.5,
            max_speed: 6.0,
            min_leg: 0.5,
            max_leg: 4.0,
        }, &mut rng);
        let mut gm = GaussMarkov::new(n, GaussMarkovConfig::default_for_side(side), &mut rng);
        let mut wp_pos = start.clone();
        let mut dir_pos = start.clone();
        let mut gm_pos = start;
        // dt = 0 must be a universal no-op.
        let frozen = (wp_pos.clone(), dir_pos.clone(), gm_pos.clone());
        wp.advance(&mut wp_pos, 0.0, &mut rng);
        dir.advance(&mut dir_pos, 0.0, &mut rng);
        gm.advance(&mut gm_pos, 0.0, &mut rng);
        prop_assert_eq!(&frozen.0, &wp_pos);
        prop_assert_eq!(&frozen.1, &dir_pos);
        prop_assert_eq!(&frozen.2, &gm_pos);
        // A long run of unit steps followed by one extreme step.
        for step in 0..80 {
            let dt = if step == 79 { extreme } else { 1.0 };
            wp.advance(&mut wp_pos, dt, &mut rng);
            dir.advance(&mut dir_pos, dt, &mut rng);
            gm.advance(&mut gm_pos, dt, &mut rng);
            for (name, positions) in
                [("waypoint", &wp_pos), ("direction", &dir_pos), ("gauss-markov", &gm_pos)]
            {
                for p in positions.iter() {
                    prop_assert!(
                        p.x >= 0.0 && p.x <= side && p.y >= 0.0 && p.y <= side,
                        "{} escaped to ({}, {}) at dt {}, side {}",
                        name, p.x, p.y, dt, side
                    );
                }
            }
        }
    }

    /// Quasi-UDG pipelines remain correct for arbitrary gray-zone
    /// probabilities (geometry-free theorems).
    #[test]
    fn quasi_udg_pipeline_correct(seed in 0u64..200, p_gray in 0.0f64..=1.0) {
        use adhoc_cluster::clustering::{cluster, MemberPolicy};
        use adhoc_cluster::pipeline::run_on;
        use adhoc_cluster::priority::LowestId;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::quasi_geometric(
            &gen::GeometricConfig::new(40, 100.0, 6.0),
            1.4,
            p_gray,
            &mut rng,
        );
        let k = 2;
        let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        prop_assert!(c.verify(&net.graph).is_ok());
        let out = run_on(&net.graph, Algorithm::AcLmst, &c);
        prop_assert!(out.cds.verify(&net.graph, k).is_ok());
    }
}
