//! Discrete-event simulation of the connected k-hop clustering
//! protocol.
//!
//! The paper evaluates its algorithms "on a custom simulator" with an
//! ideal MAC layer (collisions and contention are assumed away). This
//! crate is that simulator, rebuilt:
//!
//! * [`engine`] — a deterministic discrete-event queue (time, sequence)
//!   with unit-latency ideal-MAC broadcast semantics.
//! * [`message`] / [`stats`] — the protocol's wire messages and
//!   per-phase transmission accounting.
//! * [`protocol`] — per-node state machines executing the paper's
//!   Algorithm `AC-LMST` (and the NC/Mesh variants) purely by message
//!   passing; converges to exactly the structure the centralized
//!   pipeline in `adhoc-cluster` computes, which the integration tests
//!   assert.
//! * [`mac`] — a contention MAC (slotted CSMA, receiver-side
//!   collisions) for ablating the paper's ideal-MAC assumption.
//! * [`mobility`] — mobility models (random waypoint, random
//!   direction, Gauss-Markov) over an incrementally maintained
//!   spatial-grid topology that reports per-step edge deltas.
//! * [`churn`] — the unified incremental maintenance engine and the
//!   stack's one implementation of the §3.3 rules for node departure
//!   and arrival: topology deltas flow through an explicit
//!   observe/repair/publish state machine (suspendable and
//!   crash-injectable at every phase boundary), with departures,
//!   arrivals, and movement steps as three faces of the same delta
//!   workload.
//! * [`adversary`] — attack and recovery workload generators over the
//!   engine: targeted head/hub removal, correlated regional outages,
//!   mass partition, and flash-crowd arrival bursts, for the
//!   resilience bench's degradation and repair-latency curves.
//! * [`invariants`] — the engine's correctness argument as executable
//!   checks: equivalence with cold rebuilds, convergence of the
//!   validity verdict, torn-free query consistency, honest cost
//!   accounting; failures are returned, not panicked, so checkers can
//!   print counterexamples.
//! * [`modelcheck`] — an exhaustive small-universe model checker:
//!   every delta interleaving × every crash point over tiny graphs,
//!   all four invariants checked at every reachable state, with
//!   replayable counterexample scripts.
//! * [`movement`] — the movement-sensitive maintenance policy of the
//!   paper's §5 future work: the configuration, repair levels, and
//!   step report that [`churn::ChurnEngine`] runs under.
//! * [`energy`] — a transmission energy model and clusterhead rotation
//!   with residual-energy priority.
//!
//! # Example
//!
//! ```
//! use adhoc_sim::protocol::{run_protocol, ProtocolConfig};
//! use adhoc_cluster::pipeline::Algorithm;
//! use adhoc_graph::gen;
//!
//! let g = gen::grid(4, 5);
//! let run = run_protocol(&g, &ProtocolConfig::new(2, Algorithm::AcLmst));
//! println!("{} heads, {} gateways, {} transmissions",
//!          run.heads.len(), run.gateways.len(), run.stats.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod broadcast;
pub mod churn;
pub mod energy;
pub mod engine;
pub mod invariants;
pub mod mac;
#[cfg(test)]
mod maintenance;
pub mod message;
pub mod mobility;
pub mod modelcheck;
pub mod movement;
pub mod protocol;
pub mod stats;
pub mod trace;

pub use protocol::{run_protocol, DistributedRun, ProtocolConfig};
pub use stats::{Phase, Stats};
