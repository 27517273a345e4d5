//! Property-based tests for the graph substrate.

use adhoc_graph::bfs::{self, BfsScratch, UNREACHED};
use adhoc_graph::gen;
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::lmst::{self, SymmetryMode, TieWeight};
use adhoc_graph::mst::{self, WeightedEdge};
use adhoc_graph::unionfind::UnionFind;
use adhoc_graph::{connectivity, paths, Csr};
use proptest::prelude::*;

/// Strategy: a random simple graph as (n, dedup'd edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32);
            (Just(n), proptest::collection::vec(edge, 0..n * 3))
        })
        .prop_map(|(n, raw)| {
            let mut g = Graph::new(n);
            for (a, b) in raw {
                if a != b && !g.has_edge(NodeId(a), NodeId(b)) {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            g
        })
}

/// Strategy: a *connected* random graph (random tree + extra edges).
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let parents: Vec<_> = (1..n).map(|i| 0..i as u32).collect();
            let extra = (0..n as u32, 0..n as u32);
            (Just(n), parents, proptest::collection::vec(extra, 0..n * 2))
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
    #[test]
    fn invariants_hold_for_random_graphs(g in arb_graph(40)) {
        prop_assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn bfs_distance_is_symmetric(g in arb_graph(30)) {
        let n = g.len() as u32;
        let mut dists = Vec::new();
        for u in 0..n {
            dists.push(bfs::distances(&g, NodeId(u)));
        }
        for (u, du) in dists.iter().enumerate() {
            for (v, dv) in dists.iter().enumerate() {
                prop_assert_eq!(du[v], dv[u]);
            }
        }
    }

    #[test]
    fn bfs_distance_satisfies_triangle_on_edges(g in arb_graph(30)) {
        // |d(s,u) - d(s,v)| <= 1 for every edge (u,v) reachable from s.
        let d = bfs::distances(&g, NodeId(0));
        for (u, v) in g.edges() {
            let (du, dv) = (d[u.index()], d[v.index()]);
            if du != UNREACHED && dv != UNREACHED {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv); // both unreachable
            }
        }
    }

    #[test]
    fn csr_equals_graph_traversals(g in arb_graph(30)) {
        let c = Csr::from_graph(&g);
        for u in g.nodes() {
            prop_assert_eq!(bfs::distances(&g, u), bfs::distances(&c, u));
        }
    }

    #[test]
    fn lexico_path_is_shortest_and_valid(g in arb_connected_graph(25)) {
        let n = g.len() as u32;
        let dist0 = bfs::distances(&g, NodeId(0));
        for v in 1..n {
            let p = bfs::lexico_shortest_path(&g, NodeId(0), NodeId(v), u32::MAX)
                .expect("connected");
            prop_assert!(paths::is_valid_path(&g, &p));
            prop_assert_eq!(paths::hop_count(&p), dist0[v as usize]);
            prop_assert_eq!(p[0], NodeId(0));
            prop_assert_eq!(*p.last().unwrap(), NodeId(v));
        }
    }

    #[test]
    fn lexico_path_is_minimal_node_sequence(g in arb_connected_graph(15)) {
        // Among shortest paths found by BFS-tree extraction the
        // canonical path must be lexicographically <= the tree path.
        let mut s = BfsScratch::new(g.len());
        for v in 1..g.len() as u32 {
            s.run(&g, NodeId(0), u32::MAX);
            let tree_path = s.path_to(NodeId(v)).unwrap();
            let canon = bfs::lexico_shortest_path(&g, NodeId(0), NodeId(v), u32::MAX).unwrap();
            prop_assert!(canon <= tree_path, "canonical {canon:?} > tree {tree_path:?}");
        }
    }

    #[test]
    fn khop_neighborhood_matches_distance_definition(g in arb_graph(25), k in 0u32..5) {
        let src = NodeId(0);
        let d = bfs::distances(&g, src);
        let expect: Vec<NodeId> = (0..g.len() as u32)
            .map(NodeId)
            .filter(|v| *v != src && d[v.index()] != UNREACHED && d[v.index()] <= k)
            .collect();
        prop_assert_eq!(bfs::khop_neighborhood(&g, src, k), expect);
    }

    #[test]
    fn kruskal_builds_spanning_forest(g in arb_graph(30)) {
        let edges: Vec<WeightedEdge<u32>> = g
            .edges()
            .map(|(a, b)| WeightedEdge::new(a, b, a.0 * 31 + b.0))
            .collect();
        let forest = mst::kruskal(g.len(), &edges);
        let comps = connectivity::component_count(&g);
        prop_assert_eq!(forest.len(), g.len() - comps);
        // Forest is acyclic: union-find never sees a redundant union.
        let mut uf = UnionFind::new(g.len());
        for e in &forest {
            prop_assert!(uf.union(e.a.index(), e.b.index()));
        }
    }

    #[test]
    fn prim_and_kruskal_agree_on_weight(g in arb_connected_graph(20)) {
        let edges: Vec<WeightedEdge<u64>> = g
            .edges()
            .map(|(a, b)| {
                // Distinct pseudo-random weights from the endpoint pair.
                let w = (a.0 as u64 * 7919 + b.0 as u64 * 104729) % 10007;
                WeightedEdge::new(a, b, w * 1000 + a.0 as u64 * 50 + b.0 as u64)
            })
            .collect();
        let kw: u64 = mst::kruskal(g.len(), &edges).iter().map(|e| e.weight).sum();

        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); g.len()];
        for e in &edges {
            adj[e.a.index()].push((e.b.0, e.weight));
            adj[e.b.index()].push((e.a.0, e.weight));
        }
        let tree = mst::prim(g.len(), &adj, 0);
        prop_assert_eq!(tree.len(), g.len() - 1);
        let pw: u64 = tree
            .iter()
            .map(|&(p, c)| {
                adj[p as usize]
                    .iter()
                    .find(|&&(v, _)| v == c)
                    .map(|&(_, w)| w)
                    .unwrap()
            })
            .sum();
        prop_assert_eq!(kw, pw);
    }

    #[test]
    fn union_find_matches_components(g in arb_graph(40)) {
        let mut uf = UnionFind::new(g.len());
        for (a, b) in g.edges() {
            uf.union(a.index(), b.index());
        }
        prop_assert_eq!(uf.component_count(), connectivity::component_count(&g));
        let labels = connectivity::components(&g);
        for u in 0..g.len() {
            for v in 0..g.len() {
                prop_assert_eq!(uf.connected(u, v), labels[u] == labels[v]);
            }
        }
    }

    #[test]
    fn distance_to_set_is_min_over_sources(g in arb_graph(25)) {
        let set = [NodeId(0), NodeId(1)];
        let combined = connectivity::distance_to_set(&g, &set);
        let d0 = bfs::distances(&g, set[0]);
        let d1 = bfs::distances(&g, set[1]);
        for i in 0..g.len() {
            prop_assert_eq!(combined[i], d0[i].min(d1[i]));
        }
    }

    #[test]
    fn generic_lmst_rule_keeps_connectivity(g in arb_connected_graph(20)) {
        // Apply the abstract LMST rule on the *whole* graph treating
        // every node's 1-hop neighborhood as its local set; the union
        // of kept links must stay connected (Li/Hou/Sha theorem, which
        // Theorem 2 of the clustering paper inherits).
        let weight = |a: NodeId, b: NodeId| {
            g.has_edge(a, b)
                .then(|| TieWeight::new(1u32, a, b))
        };
        let mut kept = Graph::new(g.len());
        for u in g.nodes() {
            for v in lmst::on_tree_neighbors(u, g.neighbors(u), weight) {
                if !kept.has_edge(u, v) {
                    kept.add_edge(u, v);
                }
            }
        }
        prop_assert!(connectivity::is_connected(&kept));
        prop_assert!(kept.edge_count() <= g.edge_count());
    }

    #[test]
    fn lmst_intersection_mode_also_keeps_connectivity(g in arb_connected_graph(18)) {
        // Per-node selections may be unidirectional (the two endpoints
        // see different local graphs), but keeping only mutually
        // selected links (Li/Hou/Sha's G0-) still yields a connected
        // topology when weights are pairwise distinct.
        let weight = |a: NodeId, b: NodeId| {
            g.has_edge(a, b).then(|| TieWeight::new(1u32, a, b))
        };
        let selections: Vec<Vec<NodeId>> = g
            .nodes()
            .map(|u| lmst::on_tree_neighbors(u, g.neighbors(u), weight))
            .collect();
        let mut kept = Graph::new(g.len());
        for u in g.nodes() {
            for &v in &selections[u.index()] {
                if u < v && selections[v.index()].contains(&u) {
                    kept.add_edge(u, v);
                }
            }
        }
        prop_assert!(connectivity::is_connected(&kept));
    }
}

proptest! {
    #[test]
    fn dijkstra_unit_weights_equal_bfs(g in arb_graph(30)) {
        use adhoc_graph::dijkstra::{dijkstra, UNREACHED_COST};
        let (cost, _) = dijkstra(&g, NodeId(0), |_, _| 1);
        let dist = bfs::distances(&g, NodeId(0));
        for v in 0..g.len() {
            if dist[v] == UNREACHED {
                prop_assert_eq!(cost[v], UNREACHED_COST);
            } else {
                prop_assert_eq!(cost[v], u64::from(dist[v]));
            }
        }
    }

    #[test]
    fn dijkstra_triangle_inequality_on_edges(g in arb_connected_graph(25), salt in 0u64..100) {
        use adhoc_graph::dijkstra::dijkstra;
        let w = move |a: NodeId, b: NodeId| {
            1 + (u64::from(a.0.min(b.0)) * 31 + u64::from(a.0.max(b.0)) + salt) % 9
        };
        let (cost, parent) = dijkstra(&g, NodeId(0), w);
        for (a, b) in g.edges() {
            // Settled costs can differ by at most the edge weight.
            let (ca, cb) = (cost[a.index()], cost[b.index()]);
            prop_assert!(ca <= cb + w(a, b));
            prop_assert!(cb <= ca + w(a, b));
        }
        // Parent chain costs are consistent.
        for v in g.nodes() {
            if v != NodeId(0) {
                let p = parent[v.index()];
                prop_assert_eq!(cost[v.index()], cost[p.index()] + w(p, v));
            }
        }
    }

    #[test]
    fn io_round_trip_any_graph(g in arb_graph(30)) {
        use adhoc_graph::io;
        let mut buf = Vec::new();
        io::write_network(&mut buf, &g, None).unwrap();
        let parsed = io::read_network(&mut std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(parsed.graph.len(), g.len());
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = parsed.graph.edges().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn diameter_bounds_all_distances(g in arb_connected_graph(20)) {
        use adhoc_graph::metrics;
        let diam = metrics::diameter(&g).unwrap();
        let rad = metrics::radius(&g).unwrap();
        prop_assert!(rad <= diam);
        prop_assert!(diam <= 2 * rad);
        let d = bfs::distances(&g, NodeId(0));
        for dv in d {
            prop_assert!(dv <= diam);
        }
    }
}

#[test]
fn geometric_lmst_both_modes_connected_randomized() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..3 {
        let net = gen::geometric(&gen::GeometricConfig::new(40, 100.0, 8.0), &mut rng);
        let a = lmst::topology(&net.graph, &net.positions, SymmetryMode::Union);
        let b = lmst::topology(&net.graph, &net.positions, SymmetryMode::Intersection);
        assert!(connectivity::is_connected(&a));
        assert!(connectivity::is_connected(&b));
        // Intersection keeps a subset of the union's links.
        for (u, v) in b.edges() {
            assert!(a.has_edge(u, v));
        }
    }
}
