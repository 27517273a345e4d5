//! The paper's §3.3 maintenance scenarios, one per rule, replayed on
//! [`ChurnEngine`](crate::churn::ChurnEngine): a bystander leaving
//! changes nothing, a gateway leaving re-selects gateways only, a
//! clusterhead leaving re-affiliates or elects, and a node switching
//! on joins the nearest head within k or becomes a head. Each scenario
//! also runs the full invariant battery (`invariants::check_all`).

mod tests {
    use crate::churn::ChurnEngine;
    use crate::invariants;
    use crate::movement::{MovementConfig, RepairLevel};
    use adhoc_cluster::pipeline::Algorithm;
    use adhoc_graph::gen;
    use adhoc_graph::graph::{Graph, NodeId};

    fn engine(g: &Graph, algorithm: Algorithm) -> ChurnEngine {
        ChurnEngine::build(g, MovementConfig::strict(1, algorithm))
    }

    fn assert_invariants(e: &ChurnEngine, ctx: &str) {
        assert_eq!(invariants::check_all(e), vec![], "{ctx}");
    }

    #[test]
    fn bystander_departure_touches_nobody() {
        // Star with head 0: leaf 3 leaves, nothing should change.
        let g = gen::star(5);
        let mut e = engine(&g, Algorithm::AcLmst);
        let (clustering, cds) = (e.clustering.clone(), e.cds.clone());
        let r = e.depart(NodeId(3));
        assert_eq!(r.level, RepairLevel::None);
        assert_eq!((r.cost, r.orphans), (0, 0));
        assert!(e.alive_connected());
        assert!(r.valid);
        assert_eq!(e.clustering.heads, clustering.heads);
        for v in [0u32, 1, 2, 4] {
            let v = NodeId(v);
            assert_eq!(e.clustering.head_of(v), clustering.head_of(v));
            assert_eq!(
                e.clustering.dist_to_head[v.index()],
                clustering.dist_to_head[v.index()]
            );
        }
        assert_eq!(e.cds.gateways, cds.gateways);
        assert_invariants(&e, "bystander departure");
    }

    #[test]
    fn gateway_departure_repairs_locally() {
        // Two clusters joined by two parallel 2-hop bridges: losing
        // one gateway must switch to the other bridge.
        //   head 0 - 2 - 1 head   and   0 - 3 - 1.
        let g = Graph::from_edges(4, &[(0, 2), (2, 1), (0, 3), (3, 1)]);
        let mut e = engine(&g, Algorithm::AcMesh);
        assert_eq!(e.cds.gateways, vec![NodeId(2)]); // canonical path picks 2
        let heads = e.clustering.heads.clone();
        let r = e.depart(NodeId(2));
        assert_eq!(r.level, RepairLevel::Gateways);
        assert_eq!(r.orphans, 0);
        assert_eq!(e.clustering.heads, heads, "no re-election");
        assert_eq!(e.cds.gateways, vec![NodeId(3)]);
        assert!(r.valid);
        assert_invariants(&e, "gateway departure");
    }

    #[test]
    fn clusterhead_departure_reelects() {
        // Path 0-1-2-3-4, k=1: heads 0,2,4. Remove head 2; members
        // {1,3} must re-affiliate (1 joins 0, 3 joins 4).
        let g = gen::path(5);
        let mut e = engine(&g, Algorithm::AcLmst);
        let r = e.depart(NodeId(2));
        assert_eq!(r.level, RepairLevel::Full);
        assert!(!e.clustering.heads.contains(&NodeId(2)));
        assert_eq!(e.clustering.head_of(NodeId(1)), NodeId(0));
        assert_eq!(e.clustering.head_of(NodeId(3)), NodeId(4));
        // Removing the middle of a path disconnects it.
        assert!(!e.alive_connected());
        assert!(!r.valid);
        assert_invariants(&e, "clusterhead departure");
    }

    #[test]
    fn clusterhead_departure_can_spawn_new_head() {
        // Star head 0 with leaves 1..=4 (k=1). Remove head 0: orphans
        // have no surviving head in range and elect the lowest ID
        // among themselves per component. The residual graph is
        // disconnected (four isolated leaves), so each leaf becomes
        // its own head.
        let g = gen::star(5);
        let mut e = engine(&g, Algorithm::AcLmst);
        let r = e.depart(NodeId(0));
        assert_eq!(r.level, RepairLevel::Full);
        assert_eq!(r.orphans, 4);
        assert!(!e.alive_connected());
        assert_eq!(
            e.clustering.heads,
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        for leaf in 1..5 {
            assert_eq!(e.clustering.head_of(NodeId(leaf)), NodeId(leaf));
        }
        assert_invariants(&e, "clusterhead departure with election");
    }

    #[test]
    fn arrival_joins_nearest_head() {
        // Path 0-1-2-3-4 (k=1, heads 0,2,4) plus node 5, which starts
        // switched off and then switches on adjacent to head 2: it
        // joins 2 at distance 1 and leaves the head set alone.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut e = engine(&g, Algorithm::AcLmst);
        let u = NodeId(5);
        e.depart(u);
        assert_eq!(e.clustering.heads, vec![NodeId(0), NodeId(2), NodeId(4)]);
        let r = e.arrive(u, &[NodeId(2)]);
        assert_eq!(e.clustering.head_of(u), NodeId(2));
        assert_eq!(e.clustering.dist_to_head[u.index()], 1);
        assert_eq!(e.clustering.heads, vec![NodeId(0), NodeId(2), NodeId(4)]);
        assert!(r.valid);
        assert_invariants(&e, "arrival join");
    }

    #[test]
    fn arrival_without_reachable_head_becomes_head() {
        // Path 0-1-2 (heads {0, 2} at k=1) plus nodes 3 and 4, both
        // switched off at the start.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2)]);
        let mut e = engine(&g, Algorithm::AcLmst);
        let (u, v) = (NodeId(3), NodeId(4));
        e.depart(u);
        e.depart(v);
        // First arrival: u attaches to head 2 and joins it.
        e.arrive(u, &[NodeId(2)]);
        assert_eq!(e.clustering.head_of(u), NodeId(2));
        // Second arrival: v hangs off u; nearest head is 2 hops away,
        // beyond k=1, so v must become a head itself.
        let r = e.arrive(v, &[u]);
        assert_eq!(r.level, RepairLevel::Full);
        assert!(e.clustering.heads.contains(&v));
        assert_eq!(e.clustering.head_of(v), v);
        assert!(r.valid);
        assert_invariants(&e, "arrival election");
    }
}
