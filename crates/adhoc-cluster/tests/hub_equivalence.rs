//! The hub-label inter-head index must be invisible to serving: a plan
//! compiled with `InterMode::Hub` produces walks **node-for-node
//! identical** to the dense `h × h` table — same validity, endpoints,
//! hop counts, and checksums — for every algorithm's backbone, every
//! and k ∈ 1..=4. And a hub plan maintained by `apply_delta` must be
//! a pure optimization of recompiling: through chains with weight
//! changes and head-set changes (its index kept when the backbone did
//! not change, built fresh when it did), the repaired plan stays
//! **equal** (structural `Eq`, hub arena included) to one compiled
//! from scratch.

use adhoc_cluster::clustering::{self, MemberPolicy};
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::{
    fold_checksums, is_valid_walk, walk_checksum, walk_hops, InterMode, InterRepair, QueryEngine,
    RoutePlan, Workload,
};
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::NodeId;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hub-served walks ≡ dense-served walks on every algorithm's
    /// backbone.
    #[test]
    fn hub_walks_match_dense_walks(
        seed in 0u64..1_000_000,
        n in 40usize..=90,
        k in 1u32..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 7.0), &mut rng);
        let c = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        let mut dense_walk = Vec::new();
        let mut hub_walk = Vec::new();
        for alg in Algorithm::ALL {
            let links = eval.selected_links(alg);
            let dense = RoutePlan::compile_with(
                &net.graph, &c, scratch.labels(), links.iter().copied(), InterMode::Dense,
            );
            let hub = RoutePlan::compile_with(
                &net.graph, &c, scratch.labels(), links.iter().copied(), InterMode::Hub,
            );
            prop_assert_eq!(dense.inter_layout(), "dense");
            prop_assert_eq!(hub.inter_layout(), "hub");
            let (mut dense_sums, mut hub_sums) = (Vec::new(), Vec::new());
            for _ in 0..15 {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                let a = dense.route_into(u, v, &mut dense_walk);
                let b = hub.route_into(u, v, &mut hub_walk);
                prop_assert_eq!(a, b, "{} k={} {:?}->{:?}: routability diverged", alg, k, u, v);
                if let Some(hops) = a {
                    prop_assert_eq!(
                        &dense_walk, &hub_walk,
                        "{} k={} {:?}->{:?}: walks diverged", alg, k, u, v
                    );
                    prop_assert!(is_valid_walk(&net.graph, &hub_walk));
                    prop_assert_eq!(hub_walk[0], u);
                    prop_assert_eq!(*hub_walk.last().unwrap(), v);
                    prop_assert_eq!(hops, walk_hops(&hub_walk));
                    dense_sums.push(walk_checksum(&dense_walk));
                    hub_sums.push(walk_checksum(&hub_walk));
                }
            }
            prop_assert_eq!(
                fold_checksums(&dense_sums), fold_checksums(&hub_sums),
                "{} k={}: checksums diverged", alg, k
            );
        }
    }

    /// Hub plan repair ≡ recompile through delta chains that change link
    /// weights (edge churn re-realizes backbone paths) and the head
    /// set itself (periodic recluster → the head-set repair), with the
    /// dense plan maintained in lockstep as the serving reference.
    #[test]
    fn hub_delta_repair_matches_recompile(
        seed in 0u64..1_000_000,
        k in 1u32..=3,
    ) {
        let n = 80usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let mut c = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let mut eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let mut hub = RoutePlan::compile_with(
            &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst), InterMode::Hub,
        );
        let mut dense = RoutePlan::compile_with(
            &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst), InterMode::Dense,
        );
        let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
        for step in 0..8 {
            let mut delta = adhoc_graph::delta::TopologyDelta::new();
            let mut moved = Vec::new();
            if step == 5 {
                // Head-set change: re-cluster the current graph from
                // scratch. Both plans must repair across the
                // renumbering and still equal fresh compiles (layout
                // policy preserved).
                let prev = std::mem::replace(
                    &mut c,
                    clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased),
                );
                moved = g.nodes().filter(|v| prev.head_of(*v) != c.head_of(*v)).collect();
                eval = pipeline::run_all_with(&g, &c, &mut scratch);
            } else if step % 3 == 2 && !extras.is_empty() {
                for _ in 0..rng.gen_range(1..=extras.len()) {
                    let (a, b) = extras.swap_remove(rng.gen_range(0..extras.len()));
                    g.remove_edge(a, b);
                    delta.push_removed(a, b);
                }
            } else {
                for _ in 0..rng.gen_range(1..4) {
                    let a = NodeId(rng.gen_range(0..n as u32));
                    let b = NodeId(rng.gen_range(0..n as u32));
                    if a != b && !g.has_edge(a, b) {
                        g.add_edge(a, b);
                        delta.push_added(a, b);
                        extras.push(if a < b { (a, b) } else { (b, a) });
                    }
                }
            }
            let dirty: Vec<usize> = if step == 5 {
                (0..c.heads.len()).collect()
            } else {
                delta.normalize();
                let dirty = pipeline::advance_labels(&g, &c, &delta, &mut scratch);
                moved = pipeline::update_all_after(&g, &c, &delta, &dirty, &mut eval, &mut scratch);
                dirty
            };
            let hub_report = hub.apply_delta(
                &g, &c, scratch.labels(), &delta, &dirty, &moved,
                eval.selected_links(Algorithm::AcLmst),
            );
            let dense_report = dense.apply_delta(
                &g, &c, scratch.labels(), &delta, &dirty, &moved,
                eval.selected_links(Algorithm::AcLmst),
            );
            // The two layouts must agree on *whether* the backbone
            // changed, never on how they patched themselves.
            prop_assert_eq!(
                hub_report.inter != InterRepair::Unchanged,
                dense_report.inter != InterRepair::Unchanged,
                "step {}: layouts disagree on backbone change", step
            );
            let fresh_hub = RoutePlan::compile_with(
                &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst), InterMode::Hub,
            );
            let fresh_dense = RoutePlan::compile_with(
                &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst), InterMode::Dense,
            );
            prop_assert_eq!(&hub, &fresh_hub, "step {}: repaired hub plan diverged", step);
            prop_assert_eq!(&dense, &fresh_dense, "step {}: repaired dense plan diverged", step);
            // And the maintained pair still serves identical routes.
            let mut hw = Vec::new();
            let mut dw = Vec::new();
            for _ in 0..8 {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                let a = hub.route_into(u, v, &mut hw);
                let b = dense.route_into(u, v, &mut dw);
                prop_assert_eq!(a, b, "step {}: {:?}->{:?}", step, u, v);
                if a.is_some() {
                    prop_assert_eq!(&hw, &dw, "step {}: {:?}->{:?}", step, u, v);
                }
            }
        }
    }

    /// The batched query engine is layout-blind: identical hop vectors
    /// and checksums from hub- and dense-compiled plans on every mix.
    #[test]
    fn query_engine_is_layout_blind(
        seed in 0u64..1_000_000,
        mix_id in 0usize..3,
    ) {
        use adhoc_cluster::routing::Mix;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(70, 100.0, 7.0), &mut rng);
        let c = clustering::cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        let links = eval.selected_links(Algorithm::AcMesh);
        let dense = RoutePlan::compile_with(
            &net.graph, &c, scratch.labels(), links.iter().copied(), InterMode::Dense,
        );
        let hub = RoutePlan::compile_with(
            &net.graph, &c, scratch.labels(), links.iter().copied(), InterMode::Hub,
        );
        let mix = ["uniform", "hotspot", "local"][mix_id].parse::<Mix>().unwrap();
        let workload = Workload::new(&dense);
        let pairs = workload.generate(&dense, mix, 120, &mut rng);
        let served_dense = QueryEngine::new(&dense).route_many(&pairs);
        let served_hub = QueryEngine::with_workers(&hub, 4).route_many(&pairs);
        prop_assert_eq!(&served_dense, &served_hub);
    }
}
