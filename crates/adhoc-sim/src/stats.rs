//! Message and time accounting.

use crate::engine::Time;
use crate::message::MessageKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Protocol phases, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Phase {
    NeighborDiscovery,
    Clustering,
    ClusterHello,
    HeadAnnounce,
    DistVector,
    Adjacency,
    SetExchange,
    GatewayMarking,
}

impl Phase {
    /// All phases in order.
    pub const ALL: [Phase; 8] = [
        Phase::NeighborDiscovery,
        Phase::Clustering,
        Phase::ClusterHello,
        Phase::HeadAnnounce,
        Phase::DistVector,
        Phase::Adjacency,
        Phase::SetExchange,
        Phase::GatewayMarking,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::NeighborDiscovery => "neighbor-discovery",
            Phase::Clustering => "clustering",
            Phase::ClusterHello => "cluster-hello",
            Phase::HeadAnnounce => "head-announce",
            Phase::DistVector => "dist-vector",
            Phase::Adjacency => "adjacency",
            Phase::SetExchange => "set-exchange",
            Phase::GatewayMarking => "gateway-marking",
        }
    }
}

/// Per-run accounting: transmissions by phase and by message kind,
/// plus the simulated makespan.
///
/// One *transmission* is one node keying its radio once — a broadcast
/// to all neighbors counts 1, a unicast hop counts 1. This is the unit
/// the paper's future-work discussion ("communication overhead
/// increases with the growth of the value of k") cares about.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Stats {
    per_phase: BTreeMap<Phase, u64>,
    per_kind: BTreeMap<MessageKind, u64>,
    /// Ticks from start to the end of the last phase.
    pub makespan: Time,
    /// Clustering rounds executed.
    pub rounds: u32,
}

impl Stats {
    /// Records one transmission.
    pub fn record(&mut self, phase: Phase, kind: MessageKind) {
        *self.per_phase.entry(phase).or_insert(0) += 1;
        *self.per_kind.entry(kind).or_insert(0) += 1;
    }

    /// Transmissions in `phase`.
    pub fn phase_total(&self, phase: Phase) -> u64 {
        self.per_phase.get(&phase).copied().unwrap_or(0)
    }

    /// Transmissions of `kind`.
    pub fn kind_total(&self, kind: MessageKind) -> u64 {
        self.per_kind.get(&kind).copied().unwrap_or(0)
    }

    /// All transmissions.
    pub fn total(&self) -> u64 {
        self.per_phase.values().sum()
    }

    /// A compact multi-line report.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "total transmissions: {}", self.total());
        let _ = writeln!(
            out,
            "makespan: {} ticks, {} rounds",
            self.makespan, self.rounds
        );
        for p in Phase::ALL {
            let t = self.phase_total(p);
            if t > 0 {
                let _ = writeln!(out, "  {:<20} {t}", p.name());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = Stats::default();
        s.record(Phase::Clustering, MessageKind::Contend);
        s.record(Phase::Clustering, MessageKind::Declare);
        s.record(Phase::GatewayMarking, MessageKind::MarkToken);
        assert_eq!(s.phase_total(Phase::Clustering), 2);
        assert_eq!(s.phase_total(Phase::Adjacency), 0);
        assert_eq!(s.kind_total(MessageKind::Contend), 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn report_mentions_active_phases_only() {
        let mut s = Stats::default();
        s.record(Phase::NeighborDiscovery, MessageKind::Hello);
        let r = s.report();
        assert!(r.contains("total transmissions: 1"));
        assert!(r.contains("neighbor-discovery"));
        assert!(!r.contains("set-exchange"));
    }
}
