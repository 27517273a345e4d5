//! Cross-crate property tests: random connected topologies through the
//! full stack (centralized pipeline + distributed protocol +
//! churn-engine maintenance), asserting the paper's theorems end to end.

use khop::prelude::*;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn theorem2_holds_end_to_end(g in arb_connected_graph(30), k in 1u32..4) {
        // Clusterheads + LMSTGA gateways + links among them form a
        // connected graph, via A-NCR (Theorem 2).
        let out = pipeline::run(&g, Algorithm::AcLmst, &PipelineConfig::new(k));
        prop_assert!(out.cds.verify(&g, k).is_ok());
    }

    #[test]
    fn distributed_equals_centralized_prop(g in arb_connected_graph(22), k in 1u32..3) {
        for alg in [Algorithm::AcMesh, Algorithm::AcLmst] {
            let run = run_protocol(&g, &ProtocolConfig::new(k, alg));
            let central = pipeline::run(&g, alg, &PipelineConfig::new(k));
            prop_assert_eq!(&run.heads, &central.clustering.heads);
            prop_assert_eq!(&run.gateways, &central.selection.gateways);
        }
    }

    #[test]
    fn departure_repair_always_validates(g in arb_connected_graph(25), k in 1u32..3, victim_raw in 0u32..25) {
        let victim = NodeId(victim_raw % g.len() as u32);
        let mut engine = ChurnEngine::build(&g, MovementConfig::strict(k, Algorithm::AcLmst));
        let r = engine.depart(victim);
        // Heads still k-dominate every survivor, split network or not.
        let dist = connectivity::distance_to_set(engine.graph(), &engine.cds.heads);
        prop_assert!(g.nodes().filter(|&v| v != victim).all(|v| dist[v.index()] <= k));
        prop_assert!(r.valid || !engine.alive_connected());
    }

    #[test]
    fn gmst_is_lower_bound_on_links(g in arb_connected_graph(30), k in 1u32..4) {
        let clustering = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
        let gmst = pipeline::run_on(&g, Algorithm::GMst, &clustering);
        for alg in [Algorithm::NcMesh, Algorithm::AcMesh, Algorithm::NcLmst, Algorithm::AcLmst] {
            let out = pipeline::run_on(&g, alg, &clustering);
            // Any connected gateway structure needs at least a
            // spanning tree's worth of virtual links.
            prop_assert!(out.selection.links_used.len() >= gmst.selection.links_used.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The distributed protocol and the centralized pipeline agree on
    /// quasi-UDG topologies too — the wire protocol never relied on
    /// disk geometry.
    #[test]
    fn distributed_equals_centralized_on_quasi_udg(seed in 0u64..500, k in 1u32..3) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::quasi_geometric(
            &gen::GeometricConfig::new(30, 100.0, 6.0),
            1.5,
            0.5,
            &mut rng,
        );
        let run = run_protocol(&net.graph, &ProtocolConfig::new(k, Algorithm::AcLmst));
        let central = pipeline::run(&net.graph, Algorithm::AcLmst, &PipelineConfig::new(k));
        prop_assert_eq!(&run.heads, &central.clustering.heads);
        prop_assert_eq!(&run.gateways, &central.selection.gateways);
    }

    /// The exact solver's optimum is invariant under the member policy
    /// used by the heuristics (it never sees the clustering), and both
    /// exact solvers are deterministic.
    #[test]
    fn exact_solver_is_deterministic(g in arb_connected_graph(12), k in 1u32..3) {
        use khop::prelude::exact;
        let a = exact::min_khop_cds(&g, k, &ExactConfig::default());
        let b = exact::min_khop_cds(&g, k, &ExactConfig::default());
        prop_assert_eq!(a.set, b.set);
        prop_assert_eq!(a.explored, b.explored);
    }
}
