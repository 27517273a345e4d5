//! Graph substrate for ad hoc network algorithms.
//!
//! This crate provides the foundations used by the connected k-hop
//! clustering implementation (`adhoc-cluster`) and the discrete-event
//! simulator (`adhoc-sim`):
//!
//! * [`Graph`] — an undirected graph with sorted adjacency lists, the
//!   canonical in-memory representation. Sorted lists make every
//!   traversal deterministic, which the clustering pipeline relies on
//!   (all shortest-path tie-breaking is by node ID).
//! * [`Csr`] — a compressed sparse row snapshot of a [`Graph`] for hot
//!   read-only traversals (Monte-Carlo sweeps in the benchmark harness).
//! * [`gen`] — network generators: random geometric graphs in a square
//!   deployment area with a transmission range calibrated to a target
//!   average degree (the workload of the paper's §4), plus deterministic
//!   topologies for tests.
//! * [`bfs`] — breadth-first search: full and hop-bounded distances,
//!   k-hop neighborhoods, reusable scratch buffers, canonical
//!   (lexicographically smallest) shortest paths.
//! * [`labels`] — per-clusterhead distance labels, the single-sweep
//!   substrate of the evaluation engine (`adhoc-cluster::pipeline`'s
//!   `run_all`): [`HeadLabels`] stores each head's bounded BFS ball,
//!   `O(Σ ball sizes + n)` memory with `O(1)` expected lookups.
//! * [`mst`] — Kruskal and Prim minimum spanning trees over abstract
//!   weights, and [`unionfind::UnionFind`].
//! * [`lmst`] — the Li/Hou/Sha local minimum spanning tree rule, both in
//!   its original geometric topology-control form and generalized over
//!   abstract weighted neighborhoods (the form the paper's LMSTGA
//!   gateway algorithm instantiates on "virtual links").
//! * [`connectivity`] — components and connectivity predicates.
//! * [`obs`] — the hand-rolled observability core (atomic counters,
//!   power-of-two latency histograms, span timers, a bounded event
//!   ring) behind the disabled-by-default [`Metrics`] handle every
//!   layer of the stack reports into.
//!
//! # Example
//!
//! ```
//! use adhoc_graph::{Graph, NodeId, bfs};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId(0), NodeId(1));
//! g.add_edge(NodeId(1), NodeId(2));
//! g.add_edge(NodeId(2), NodeId(3));
//! let dist = bfs::distances(&g, NodeId(0));
//! assert_eq!(dist[3], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod connectivity;
pub mod csr;
pub mod delta;
pub mod dijkstra;
pub mod gen;
pub mod geom;
pub mod graph;
pub mod io;
pub mod labels;
pub mod lmst;
pub mod metrics;
pub mod mst;
pub mod obs;
pub mod par;
pub mod paths;
pub mod unionfind;

pub use csr::Csr;
pub use delta::TopologyDelta;
pub use geom::Point;
pub use graph::{Graph, NodeId};
pub use labels::{HeadLabels, LabelMode};
pub use obs::{Metrics, MetricsSnapshot};
pub use par::Parallelism;
