//! Umbrella crate: connected k-hop clustering for ad hoc networks.
//!
//! Re-exports the whole stack — graph substrate, clustering pipeline,
//! and discrete-event simulator — so applications depend on one crate:
//!
//! ```
//! use khop::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
//! let out = pipeline::run(&net.graph, Algorithm::AcLmst, &PipelineConfig::new(2));
//! assert!(out.cds.verify(&net.graph, 2).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adhoc_cluster as cluster;
pub use adhoc_graph as graph;
pub use adhoc_sim as sim;

/// Convenient glob-import surface for applications and examples.
pub mod prelude {
    pub use adhoc_cluster::adjacency::{self, NeighborRule};
    pub use adhoc_cluster::analysis::{self, BalanceReport};
    pub use adhoc_cluster::border;
    pub use adhoc_cluster::cds::{Cds, CdsViolation};
    pub use adhoc_cluster::clustering::{self, Clustering, MemberPolicy};
    pub use adhoc_cluster::core_algorithm;
    pub use adhoc_cluster::exact::{self, ExactConfig, ExactResult};
    pub use adhoc_cluster::gateway;
    pub use adhoc_cluster::hierarchy::{self, Hierarchy};
    pub use adhoc_cluster::maxmin;
    pub use adhoc_cluster::pipeline::{
        self, Algorithm, AlgorithmSet, EvalScratch, EvaluationOutput, PipelineConfig,
    };
    pub use adhoc_cluster::priority::{
        HighestDegree, KhopDegree, LowestId, LowestSpeed, Priority, PriorityKey, RandomTimer,
        ResidualEnergy, SumOfDistances,
    };
    pub use adhoc_cluster::routing::{
        self, ClusterRouter, InterMode, LegacyScratch, Mix, QueryEngine, RoutePlan, TableStats,
        Workload,
    };
    pub use adhoc_cluster::virtual_graph::{self, LinkRef, LinkStore, VirtualGraph, VirtualLink};
    pub use adhoc_cluster::wulou;
    pub use adhoc_graph::bfs;
    pub use adhoc_graph::connectivity;
    pub use adhoc_graph::delta::TopologyDelta;
    pub use adhoc_graph::gen::{self, SpatialGrid};
    pub use adhoc_graph::geom::Point;
    pub use adhoc_graph::graph::{Graph, NodeId};
    pub use adhoc_graph::labels::HeadLabels;
    pub use adhoc_graph::obs::{self, Metrics, MetricsSnapshot};
    pub use adhoc_graph::par::Parallelism;
    pub use adhoc_sim::adversary::{self, AttackKind};
    pub use adhoc_sim::broadcast::{self, BroadcastReport, Strategy as BroadcastStrategy};
    pub use adhoc_sim::churn::{self, ChurnEngine};
    pub use adhoc_sim::energy::{self, EnergyModel, RotationPolicy};
    pub use adhoc_sim::mac::{self, MacConfig, MacReport};
    pub use adhoc_sim::mobility::{
        self, DirectionConfig, GaussMarkov, GaussMarkovConfig, MobileNetwork, Mobility,
        RandomDirection, RandomWaypoint, WaypointConfig,
    };
    pub use adhoc_sim::movement::{MovementConfig, RepairLevel, StepReport};
    pub use adhoc_sim::protocol::{run_protocol, DistributedRun, ProtocolConfig};
    pub use adhoc_sim::stats::{Phase, Stats};
    pub use adhoc_sim::trace::{Trace, TraceEvent};
}
