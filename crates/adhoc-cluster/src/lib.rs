//! Connected k-hop clustering in ad hoc networks.
//!
//! This crate implements the primary contribution of *"Connected k-Hop
//! Clustering in Ad Hoc Networks"* (Shuhui Yang, Jie Wu, Jiannong Cao,
//! ICPP 2005): forming non-overlapping k-hop clusters with a
//! generalized lowest-ID algorithm and then connecting the clusterheads
//! through as few gateway nodes as possible, using only localized
//! (at most `2k+1`-hop) information.
//!
//! The pipeline has three stages:
//!
//! 1. **Clustering** ([`clustering`]) — iterative k-hop lowest-ID (or
//!    any other [`priority`]) clusterhead election with ID-, distance-,
//!    or size-based member affiliation. Clusterheads form a k-hop
//!    dominating set that is also k-hop independent.
//! 2. **Neighbor clusterhead selection** ([`adjacency`]) — either the
//!    naive `NC` rule (all clusterheads within `2k+1` hops) or the
//!    paper's **A-NCR** rule (`AC`): only *adjacent* clusterheads, i.e.
//!    heads of clusters that share an edge of `G` (Definition 2 /
//!    Theorem 1 guarantee the adjacent cluster graph `G''` is
//!    connected).
//! 3. **Gateway selection** ([`gateway`]) — `Mesh` (one shortest path
//!    per selected neighbor clusterhead), **LMSTGA** (the local
//!    minimum spanning tree rule applied to *virtual links*), and the
//!    centralized `G-MST` lower bound.
//!
//! The five algorithm combinations the paper evaluates — `NC-Mesh`,
//! `AC-Mesh`, `NC-LMST`, `AC-LMST`, `G-MST` — are exposed through
//! [`pipeline::Algorithm`]; [`pipeline::run_all`] evaluates all five
//! from a single per-head label sweep (the Monte-Carlo engine), while
//! [`pipeline::run_on`] runs one algorithm at a time. For small
//! instances, [`exact`] provides branch-and-bound minimum k-hop DS/CDS
//! solvers so all of them can be measured as true approximation
//! ratios.
//!
//! # Quickstart
//!
//! ```
//! use adhoc_cluster::pipeline::{self, Algorithm, PipelineConfig};
//! use adhoc_graph::gen::{self, GeometricConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let net = gen::geometric(&GeometricConfig::new(100, 100.0, 6.0), &mut rng);
//! let cfg = PipelineConfig::new(2); // k = 2
//! let out = pipeline::run(&net.graph, Algorithm::AcLmst, &cfg);
//! assert!(out.cds.verify(&net.graph, 2).is_ok());
//! println!("heads: {}, gateways: {}, CDS: {}",
//!          out.clustering.head_count(),
//!          out.cds.gateways.len(),
//!          out.cds.size());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod analysis;
pub mod border;
pub mod cds;
pub mod clustering;
pub mod core_algorithm;
pub mod exact;
pub mod gateway;
pub mod hierarchy;
#[cfg(test)]
mod kernel_oracle;
pub mod maxmin;
pub mod pipeline;
pub mod priority;
pub mod routing;
pub mod virtual_graph;
pub mod wulou;

pub use cds::Cds;
pub use clustering::{Clustering, MemberPolicy};
pub use pipeline::{Algorithm, PipelineConfig};
