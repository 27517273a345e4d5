//! The per-query-BFS hierarchical router — the seed implementation,
//! kept as the measured baseline for the compiled [`RoutePlan`].
//!
//! [`ClusterRouter`] stores the backbone (a [`VirtualGraph`] plus
//! all-pairs inter-head next hops) but resolves every ascent and
//! descent with a fresh bounded BFS at query time. That per-query BFS
//! is exactly what the compiled plan eliminates, so the `routing_serve`
//! bench keeps this router alive as its baseline arm. Two historical
//! defects are fixed here rather than preserved:
//!
//! * the BFS **scratch is threaded through** ([`LegacyScratch`])
//!   instead of allocating a fresh `BfsScratch` — and with it a pair
//!   of `O(n)` buffers — per canonical-path call;
//! * the module-doc's promised **early-exit shortcut** (the walk stops
//!   the first time it passes through `v`) is actually applied, via
//!   [`paths::shortcut_walk`]; [`ClusterRouter::route_raw_with`] keeps
//!   the unshortcut walk for stretch comparisons.
//!
//! [`RoutePlan`]: super::plan::RoutePlan

use crate::adjacency::NeighborRule;
use crate::clustering::Clustering;
use crate::routing::inter::{self, CsrView, InterScratch, NO_HOP};
use crate::routing::TableStats;
use crate::virtual_graph::VirtualGraph;
use adhoc_graph::bfs::{self, Adjacency, BfsScratch};
use adhoc_graph::graph::NodeId;
use adhoc_graph::paths;
use std::collections::BTreeMap;

/// A hierarchical router over a clustering, resolving member ascents
/// and descents by per-query bounded BFS (the baseline the compiled
/// [`RoutePlan`](super::plan::RoutePlan) is measured against).
#[derive(Clone, Debug)]
pub struct ClusterRouter {
    clustering: Clustering,
    vg: VirtualGraph,
    /// Dense index of each head.
    head_index: BTreeMap<NodeId, usize>,
    /// Row-major `h × h` inter-head first hops (slot of the next head
    /// toward the target; [`NO_HOP`] when unreachable).
    next_head: Vec<u32>,
}

/// Reusable query state for [`ClusterRouter::route_with`]: one BFS
/// scratch (the per-query ascent/descent sweeps) and the descent
/// buffer. One per worker thread; queries allocate nothing once warm.
#[derive(Clone, Debug, Default)]
pub struct LegacyScratch {
    bfs: Option<BfsScratch>,
    down: Vec<NodeId>,
}

impl LegacyScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        LegacyScratch::default()
    }
}

impl ClusterRouter {
    /// Builds the router over the full adjacent-cluster graph `G''`
    /// (the A-NCR backbone): virtual graph plus all-pairs inter-head
    /// next-hop tables.
    pub fn build<G: Adjacency>(g: &G, clustering: &Clustering) -> Self {
        let vg = VirtualGraph::build(g, clustering, NeighborRule::Adjacent);
        Self::with_graph(clustering, vg)
    }

    /// Builds the router over an explicit backbone — any virtual graph
    /// whose links span the head set, e.g. one algorithm's selected
    /// links ([`VirtualGraph::from_links`]). This is how the serving
    /// bench instantiates the per-query-BFS baseline on exactly the
    /// link set the compiled plan serves, so the two arms' walks are
    /// comparable node for node.
    pub fn with_graph(clustering: &Clustering, vg: VirtualGraph) -> Self {
        let heads = clustering.heads.clone();
        let head_index: BTreeMap<NodeId, usize> =
            heads.iter().enumerate().map(|(i, &h)| (h, i)).collect();
        let m = heads.len();
        // Flat-CSR backbone with virtual-hop weights (both orientations
        // of each link, rows ascending by neighbor slot).
        let mut directed: Vec<(u32, u32, u32)> = Vec::new();
        for l in vg.links() {
            let (a, b) = (head_index[&l.a] as u32, head_index[&l.b] as u32);
            let w = l.hops();
            directed.push((a, b, w));
            directed.push((b, a, w));
        }
        directed.sort_unstable();
        let mut off = Vec::with_capacity(m + 1);
        let mut to = Vec::with_capacity(directed.len());
        let mut hops = Vec::with_capacity(directed.len());
        off.push(0u32);
        let mut cursor = 0usize;
        for s in 0..m as u32 {
            while cursor < directed.len() && directed[cursor].0 == s {
                to.push(directed[cursor].1);
                hops.push(directed[cursor].2);
                cursor += 1;
            }
            off.push(to.len() as u32);
        }
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let next_head = inter::all_pairs_next_hops(csr, &mut InterScratch::new());
        ClusterRouter {
            clustering: clustering.clone(),
            vg,
            head_index,
            next_head,
        }
    }

    /// Routes `u ⇝ v`, returning the full node walk (inclusive), or
    /// `None` when the backbone does not connect their heads. The walk
    /// follows existing edges of `g`, stops the first time it passes
    /// through `v`, and carries no consecutive duplicates.
    pub fn route_with<G: Adjacency>(
        &self,
        g: &G,
        u: NodeId,
        v: NodeId,
        scratch: &mut LegacyScratch,
    ) -> Option<Vec<NodeId>> {
        let mut walk = self.route_raw_with(g, u, v, scratch)?;
        paths::shortcut_walk(&mut walk, v);
        Some(walk)
    }

    /// As [`Self::route_with`] but **without** the shortcut pass: the
    /// raw concatenation `u ⇝ head(u) ⇝ … ⇝ head(v) ⇝ v` (consecutive
    /// duplicates and all). Kept public so stretch experiments can
    /// quantify what the shortcut buys.
    pub fn route_raw_with<G: Adjacency>(
        &self,
        g: &G,
        u: NodeId,
        v: NodeId,
        scratch: &mut LegacyScratch,
    ) -> Option<Vec<NodeId>> {
        if u == v {
            return Some(vec![u]);
        }
        let hu = self.clustering.head_of(u);
        let hv = self.clustering.head_of(v);
        let LegacyScratch { bfs, down } = scratch;
        let bfs = bfs.get_or_insert_with(|| BfsScratch::new(g.node_count()));
        let mut walk: Vec<NodeId> = Vec::new();

        // Ascend: u -> head(u), one bounded BFS from the head.
        canonical_path_into(g, u, hu, self.clustering.k, bfs, &mut walk);

        // Across: head(u) -> head(v) over virtual links.
        let h = self.clustering.heads.len();
        let mut cur = self.head_index[&hu];
        let target = self.head_index[&hv];
        while cur != target {
            let nxt = self.next_head[cur * h + target];
            if nxt == NO_HOP {
                return None; // backbone does not connect the heads
            }
            let nxt = nxt as usize;
            let (a, b) = (self.clustering.heads[cur], self.clustering.heads[nxt]);
            let link = self.vg.link(a, b).expect("next-hop uses existing links");
            if link.path[0] == walk[walk.len() - 1] {
                walk.extend(link.path.iter().skip(1));
            } else {
                walk.extend(link.path.iter().rev().skip(1));
            }
            cur = nxt;
        }

        // Descend: head(v) -> v (reverse of v's ascent).
        down.clear();
        canonical_path_into(g, v, hv, self.clustering.k, bfs, down);
        walk.extend(down.iter().rev().skip(1));
        Some(walk)
    }

    /// One-shot convenience over [`Self::route_with`] (allocates its
    /// own scratch; hot callers keep a [`LegacyScratch`] per worker).
    pub fn route<G: Adjacency>(&self, g: &G, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.route_with(g, u, v, &mut LegacyScratch::new())
    }

    /// Measured routing-table statistics (see [`TableStats::measure`]).
    pub fn table_stats<G: Adjacency>(&self, g: &G) -> TableStats {
        TableStats::measure(g, &self.clustering)
    }

    /// The underlying virtual graph (for inspection).
    pub fn virtual_graph(&self) -> &VirtualGraph {
        &self.vg
    }
}

/// Appends the canonical shortest path from `x` to its head (bounded
/// by `k`) onto `out`, resolving it with one bounded BFS from the head
/// through the caller's scratch.
fn canonical_path_into<G: Adjacency>(
    g: &G,
    x: NodeId,
    head: NodeId,
    k: u32,
    scratch: &mut BfsScratch,
    out: &mut Vec<NodeId>,
) {
    scratch.run(g, head, k);
    let ok = bfs::lexico_path_append(g, x, head, scratch, out);
    assert!(ok, "member within k hops of head");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::priority::LowestId;
    use crate::routing::{is_valid_walk, walk_hops};
    use adhoc_graph::gen;

    fn routed_ok<G: Adjacency>(g: &G, router: &ClusterRouter, u: NodeId, v: NodeId) -> u32 {
        let walk = router.route(g, u, v).expect("connected backbone");
        assert!(
            is_valid_walk(g, &walk),
            "{u:?}->{v:?}: invalid walk {walk:?}"
        );
        assert_eq!(walk[0], u);
        assert_eq!(*walk.last().unwrap(), v);
        walk_hops(&walk)
    }

    #[test]
    fn routes_on_path_graph() {
        let g = gen::path(9);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let router = ClusterRouter::build(&g, &c);
        let hops = routed_ok(&g, &router, NodeId(0), NodeId(8));
        assert_eq!(hops, 8, "path routing must be stretch-free");
        let hops = routed_ok(&g, &router, NodeId(3), NodeId(5));
        assert!((2..=4).contains(&hops));
    }

    #[test]
    fn same_cluster_routing() {
        let g = gen::star(6);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let router = ClusterRouter::build(&g, &c);
        let hops = routed_ok(&g, &router, NodeId(2), NodeId(4));
        assert_eq!(hops, 2); // via the hub head
        assert_eq!(routed_ok(&g, &router, NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn all_pairs_reachable_random() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        for k in 1..=3u32 {
            let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 8.0), &mut rng);
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let router = ClusterRouter::build(&net.graph, &c);
            // Sample pairs, sharing one scratch the way serving does.
            let mut scratch = LegacyScratch::new();
            for (u, v) in [(0u32, 59u32), (5, 40), (17, 23), (59, 0), (30, 31)] {
                let walk = router
                    .route_with(&net.graph, NodeId(u), NodeId(v), &mut scratch)
                    .unwrap();
                assert!(is_valid_walk(&net.graph, &walk));
                assert_eq!(walk[0], NodeId(u));
                assert_eq!(*walk.last().unwrap(), NodeId(v));
            }
        }
    }

    /// The shortcut is not cosmetic: when the destination sits on the
    /// source's canonical ascent, the old router walked up to the head
    /// and back down; the shortcut stops at the first visit.
    #[test]
    fn shortcut_beats_raw_walk() {
        // path(5) with k=2: head 0 owns {0,1,2}, head 3 owns {3,4}.
        // Routing 2 -> 1 ascends 2-1-0, then descends 0-1: raw walk
        // 2-1-0-1 (3 hops) vs shortcut 2-1 (1 hop, the true distance).
        let g = gen::path(5);
        let c = cluster(&g, 2, &LowestId, MemberPolicy::IdBased);
        assert_eq!(c.heads, vec![NodeId(0), NodeId(3)]);
        let router = ClusterRouter::build(&g, &c);
        let mut scratch = LegacyScratch::new();
        let raw = router
            .route_raw_with(&g, NodeId(2), NodeId(1), &mut scratch)
            .unwrap();
        assert_eq!(raw, vec![NodeId(2), NodeId(1), NodeId(0), NodeId(1)]);
        let short = router
            .route_with(&g, NodeId(2), NodeId(1), &mut scratch)
            .unwrap();
        assert_eq!(short, vec![NodeId(2), NodeId(1)]);
        assert_eq!(walk_hops(&short), 1, "shortcut restores the true distance");
    }

    /// Stretch regression over random pairs: the shortcut never hurts
    /// and strictly helps somewhere.
    #[test]
    fn shortcut_improves_empirical_stretch() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        let net = gen::geometric(&gen::GeometricConfig::new(90, 100.0, 7.0), &mut rng);
        let c = cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let router = ClusterRouter::build(&net.graph, &c);
        let mut scratch = LegacyScratch::new();
        let mut helped = 0usize;
        for _ in 0..300 {
            let u = NodeId(rng.gen_range(0..90u32));
            let v = NodeId(rng.gen_range(0..90u32));
            if u == v {
                continue;
            }
            let raw = router
                .route_raw_with(&net.graph, u, v, &mut scratch)
                .unwrap();
            let short = router.route_with(&net.graph, u, v, &mut scratch).unwrap();
            assert!(walk_hops(&short) <= walk_hops(&raw), "{u:?}->{v:?}");
            if walk_hops(&short) < walk_hops(&raw) {
                helped += 1;
            }
        }
        assert!(helped > 0, "the shortcut must fire on some pairs");
    }

    #[test]
    fn stretch_is_bounded_empirically() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(10);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 8.0), &mut rng);
        let c = cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let router = ClusterRouter::build(&net.graph, &c);
        let d0 = bfs::distances(&net.graph, NodeId(0));
        let mut worst = 0.0f64;
        for v in 1..net.graph.len() as u32 {
            let hops = routed_ok(&net.graph, &router, NodeId(0), NodeId(v));
            let true_d = d0[v as usize];
            worst = worst.max(f64::from(hops) / f64::from(true_d));
        }
        assert!(worst >= 1.0);
        assert!(
            worst <= 6.0,
            "hierarchical stretch {worst} implausibly large"
        );
    }

    #[test]
    fn table_sizes_favor_hierarchy() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let net = gen::geometric(&gen::GeometricConfig::new(150, 100.0, 6.0), &mut rng);
        let c = cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let router = ClusterRouter::build(&net.graph, &c);
        let stats = router.table_stats(&net.graph);
        assert!(stats.head_entries < stats.flat_entries / 2);
        assert!((stats.member_mean as usize) < stats.flat_entries / 4);
        assert!(stats.member_max < stats.flat_entries);
    }

    #[test]
    fn disconnected_backbone_routes_none() {
        use adhoc_graph::graph::Graph;
        // Two components: routing across them must return None, within
        // them must work.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let c = cluster(&g, 1, &LowestId, MemberPolicy::IdBased);
        let router = ClusterRouter::build(&g, &c);
        assert!(router.route(&g, NodeId(0), NodeId(5)).is_none());
        assert!(router.route(&g, NodeId(0), NodeId(2)).is_some());
    }
}
