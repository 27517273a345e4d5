//! The compiled route plan must be a pure compilation of the legacy
//! per-query-BFS router: on the **same backbone** the two produce
//! identical walks — node for node — for every pair, every algorithm's
//! selected link set, and every k ∈ 1..=4. And the plan's incremental
//! repair must be a pure optimization of recompiling: after any delta
//! chain, `apply_delta` leaves the plan **equal** (derived `Eq`) to one
//! compiled from scratch on the new state.

use adhoc_cluster::clustering::{self, Clustering, MemberPolicy};
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::{
    walk_hops, ClusterRouter, LegacyScratch, Mix, QueryEngine, RoutePlan, Workload,
};
use adhoc_cluster::virtual_graph::VirtualGraph;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::NodeId;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Compiled plan ≡ legacy walker on every algorithm's backbone.
    #[test]
    fn compiled_plan_matches_legacy_router(
        seed in 0u64..1_000_000,
        n in 40usize..=90,
        k in 1u32..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 7.0), &mut rng);
        let c = clustering::cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        let mut legacy_scratch = LegacyScratch::new();
        let mut walk = Vec::new();
        for alg in Algorithm::ALL {
            let links = eval.selected_links(alg);
            let plan = RoutePlan::compile(&net.graph, &c, scratch.labels(), links.iter().copied());
            let backbone = VirtualGraph::from_links(&c.heads, links);
            let legacy = ClusterRouter::with_graph(&c, backbone);
            for _ in 0..12 {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                let compiled = plan.route_into(u, v, &mut walk);
                let reference = legacy.route_with(&net.graph, u, v, &mut legacy_scratch);
                match (compiled, reference) {
                    (Some(hops), Some(ref_walk)) => {
                        prop_assert_eq!(
                            &walk, &ref_walk,
                            "{} k={} {:?}->{:?}: walks diverged", alg, k, u, v
                        );
                        prop_assert_eq!(hops, walk_hops(&ref_walk));
                        prop_assert_eq!(walk[0], u);
                        prop_assert_eq!(*walk.last().unwrap(), v);
                        prop_assert!(adhoc_cluster::routing::is_valid_walk(&net.graph, &walk));
                    }
                    (None, None) => {}
                    (a, b) => prop_assert!(
                        false,
                        "{} {:?}->{:?}: compiled {:?} vs legacy {:?}",
                        alg, u, v, a.is_some(), b.is_some()
                    ),
                }
            }
        }
    }

    /// `apply_delta` ≡ recompile-from-scratch through random delta
    /// chains driven by the pipeline's own incremental update.
    #[test]
    fn plan_delta_repair_matches_recompile(
        seed in 0u64..1_000_000,
        k in 1u32..=3,
    ) {
        let n = 80usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let c = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let mut eval = pipeline::run_all_with(&g, &c, &mut scratch);
        let mut plan = RoutePlan::compile(
            &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst),
        );
        let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
        for step in 0..8 {
            let mut delta = adhoc_graph::delta::TopologyDelta::new();
            if step % 3 == 2 && !extras.is_empty() {
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
            delta.normalize();
            // Advance labels + evaluation the way the churn engine does,
            // then repair the plan off the dirty slots.
            let dirty = pipeline::advance_labels(&g, &c, &delta, &mut scratch);
            let (next, _) = pipeline::update_all_after(&g, &c, &delta, &dirty, &eval, &mut scratch);
            eval = next;
            let report = plan.apply_delta(
                &g, &c, scratch.labels(), &delta, &dirty,
                eval.selected_links(Algorithm::AcLmst),
            );
            prop_assert!(!report.rebuilt, "head set never changes in this chain");
            let fresh = RoutePlan::compile(
                &g, &c, scratch.labels(), eval.selected_links(Algorithm::AcLmst),
            );
            prop_assert_eq!(&plan, &fresh, "step {}: repaired plan diverged", step);
        }
    }

    /// The batched engine answers every mix identically for any worker
    /// count, and every served walk matches a direct plan query.
    #[test]
    fn route_many_is_worker_count_invariant(
        seed in 0u64..1_000_000,
        mix_id in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&GeometricConfig::new(70, 100.0, 7.0), &mut rng);
        let c = clustering::cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        let plan = RoutePlan::compile(
            &net.graph, &c, scratch.labels(), eval.selected_links(Algorithm::AcMesh),
        );
        let mix = ["uniform", "hotspot", "local"][mix_id].parse::<Mix>().unwrap();
        let workload = Workload::new(&plan);
        let pairs = workload.generate(&plan, mix, 120, &mut rng);
        let one = QueryEngine::new(&plan).route_many(&pairs);
        let four = QueryEngine::with_workers(&plan, 4).route_many(&pairs);
        prop_assert_eq!(&one, &four);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let direct = plan.route(u, v).expect("connected");
            prop_assert_eq!(one.hops[i], walk_hops(&direct));
        }
    }
}

/// A departed (isolated, sentinel-affiliated) node must be unroutable,
/// surviving pairs unaffected — the churn engine's depart path relies
/// on this.
#[test]
fn departed_nodes_are_unroutable() {
    let mut g = gen::path(9);
    let mut c: Clustering = clustering::cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
    // Depart node 1 the way the churn engine does: isolate its radio
    // and point its affiliation at the sentinel.
    g.remove_edge(NodeId(0), NodeId(1));
    g.remove_edge(NodeId(1), NodeId(2));
    c.head_of[1] = NodeId(u32::MAX);
    c.dist_to_head[1] = 0;
    let mut scratch = EvalScratch::new();
    let eval = pipeline::run_all_with(&g, &c, &mut scratch);
    let plan = RoutePlan::compile(&g, &c, scratch.labels(), eval.ac_graph.links());
    assert!(plan.route(NodeId(1), NodeId(5)).is_none());
    assert!(plan.route(NodeId(5), NodeId(1)).is_none());
    assert!(plan.affiliation(NodeId(1)).is_none());
    // Survivors on the connected side still route; head 0 is cut off.
    assert!(plan.route(NodeId(2), NodeId(8)).is_some());
    assert!(plan.route(NodeId(0), NodeId(2)).is_none());
}
