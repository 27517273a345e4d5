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
    walk_hops, ClusterRouter, InterMode, LegacyScratch, Mix, QueryEngine, RoutePlan, Workload,
};
use adhoc_cluster::virtual_graph::VirtualGraph;
use adhoc_graph::bfs::BfsScratch;
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Re-homes every node that is not a head and whose head is gone or
/// beyond `k` to the nearest head within `k` (distance, then ID), and
/// promotes it when none is in range; every kept member's distance is
/// refreshed. Leaves a valid clustering on `g`.
fn repair_coverage(g: &Graph, c: &mut Clustering, bfs: &mut BfsScratch) {
    let listed = |c: &Clustering, v: NodeId| c.heads.binary_search(&v).is_ok();
    for v in g.nodes() {
        if listed(c, v) {
            continue;
        }
        bfs.run(g, v, c.k);
        let own = c.head_of[v.index()];
        let (d, h) = if listed(c, own) && bfs.dist(own) <= c.k {
            (bfs.dist(own), own)
        } else {
            match bfs
                .visited()
                .iter()
                .filter(|&&h| listed(c, h))
                .map(|&h| (bfs.dist(h), h))
                .min()
            {
                Some(best) => best,
                None => {
                    let at = c.heads.binary_search(&v).unwrap_err();
                    c.heads.insert(at, v);
                    (0, v)
                }
            }
        };
        c.head_of[v.index()] = h;
        c.dist_to_head[v.index()] = d;
    }
}

/// One to four random edge flips on `g`, returned as a normalized
/// delta.
fn perturb(g: &mut Graph, rng: &mut StdRng) -> TopologyDelta {
    let n = g.len() as u32;
    let mut delta = TopologyDelta::new();
    for _ in 0..rng.gen_range(1..=4) {
        let (a, b) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        if a == b {
            continue;
        }
        if g.has_edge(a, b) {
            g.remove_edge(a, b);
            delta.push_removed(a, b);
        } else {
            g.add_edge(a, b);
            delta.push_added(a, b);
        }
    }
    delta.normalize();
    delta
}

/// Drops head `h`: it and its members re-home ([`repair_coverage`]).
fn demote(g: &Graph, c: &mut Clustering, h: NodeId, bfs: &mut BfsScratch) {
    let at = c.heads.binary_search(&h).expect("a head");
    c.heads.remove(at);
    repair_coverage(g, c, bfs);
}

/// The body of the head-set proptest: a geometric network of `n` nodes
/// clustered at `k`, both inter layouts compiled, then `edits` edits —
/// a member promoted, a head demoted, a head swapped for one of its
/// members, a global `cluster()` of a perturbed graph, or an edge delta
/// whose broken coverage is repaired locally. The labels and evaluation
/// advance as the churn engine advances them, each plan is repaired in
/// place, and after every edit each plan equals a fresh compile, bytes
/// included.
fn check_headset_chain(seed: u64, n: usize, k: u32, edits: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = gen::geometric(&GeometricConfig::new(n, 100.0, 7.0), &mut rng);
    let mut g = net.graph.clone();
    let mut bfs = BfsScratch::new(n);
    let mut c = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
    let mut scratch = EvalScratch::new();
    let mut eval = pipeline::run_all_with(&g, &c, &mut scratch);
    let modes = [InterMode::Dense, InterMode::Hub];
    let mut plans = modes.map(|mode| {
        RoutePlan::compile_with(
            &g,
            &c,
            scratch.labels(),
            eval.selected_links(Algorithm::AcLmst),
            mode,
        )
    });
    for edit in 0..edits {
        let before = c.heads.clone();
        let mut delta = TopologyDelta::new();
        let members: Vec<NodeId> = g.nodes().filter(|&v| !c.is_head(v)).collect();
        match rng.gen_range(0..5) {
            0 if !members.is_empty() => {
                let m = members[rng.gen_range(0..members.len())];
                let at = c.heads.binary_search(&m).unwrap_err();
                c.heads.insert(at, m);
                c.head_of[m.index()] = m;
                c.dist_to_head[m.index()] = 0;
            }
            1 if c.heads.len() > 1 => {
                let h = c.heads[rng.gen_range(0..c.heads.len())];
                demote(&g, &mut c, h, &mut bfs);
            }
            2 if !members.is_empty() => {
                let m = members[rng.gen_range(0..members.len())];
                let h = c.head_of[m.index()];
                let at = c.heads.binary_search(&m).unwrap_err();
                c.heads.insert(at, m);
                c.head_of[m.index()] = m;
                c.dist_to_head[m.index()] = 0;
                demote(&g, &mut c, h, &mut bfs);
            }
            3 => {
                delta = perturb(&mut g, &mut rng);
                c = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
            }
            _ => {
                delta = perturb(&mut g, &mut rng);
                repair_coverage(&g, &mut c, &mut bfs);
            }
        }
        let swept = pipeline::advance_labels(&g, &c, &delta, &mut scratch);
        pipeline::update_all_after(&g, &c, &delta, &swept, &mut eval, &mut scratch);
        for (plan, mode) in plans.iter_mut().zip(modes) {
            let links = eval.selected_links(Algorithm::AcLmst);
            let update = plan.apply_delta(&g, &c, scratch.labels(), &swept, links);
            assert_eq!(
                update.heads_changed,
                before != c.heads,
                "edit {edit}: {mode:?} head-set flag"
            );
            let fresh = RoutePlan::compile_with(
                &g,
                &c,
                scratch.labels(),
                eval.selected_links(Algorithm::AcLmst),
                mode,
            );
            assert_eq!(*plan, fresh, "edit {edit}: {mode:?} repaired plan diverged");
            assert_eq!(
                plan.memory_bytes(),
                fresh.memory_bytes(),
                "edit {edit}: {mode:?} plan bytes ({update:?}, inter {} vs {})",
                plan.inter_memory_bytes(),
                fresh.inter_memory_bytes()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A head-set change repairs the plan in place: after every
    /// promotion, demotion, swap, global re-election and edge delta,
    /// on 60–600 nodes at k = 1..=3 and under both inter layouts, the
    /// repaired plan equals `RoutePlan::compile` and holds the same
    /// bytes.
    #[test]
    fn headset_repair_matches_fresh_compile(
        seed in 0u64..1_000_000,
        n in 60usize..=600,
        k in 1u32..=3,
        edits in 1usize..=6,
    ) {
        check_headset_chain(seed, n, k, edits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The long tier of the head-set proptest (run with `--ignored`,
    /// in release).
    #[test]
    #[ignore = "long tier: cargo test --release -- --ignored"]
    fn headset_repair_matches_fresh_compile_long(
        seed in 0u64..1_000_000,
        n in 60usize..=600,
        k in 1u32..=3,
        edits in 1usize..=6,
    ) {
        check_headset_chain(seed, n, k, edits);
    }
}

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
            pipeline::update_all_after(&g, &c, &delta, &dirty, &mut eval, &mut scratch);
            let report = plan.apply_delta(
                &g, &c, scratch.labels(), &dirty,
                eval.selected_links(Algorithm::AcLmst),
            );
            prop_assert!(!report.heads_changed, "head set never changes in this chain");
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
