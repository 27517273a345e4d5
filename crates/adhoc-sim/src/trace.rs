//! Protocol execution traces.
//!
//! A trace is an ordered record of transmissions — who sent which kind
//! of message, when, in which phase. Traces make the distributed runs
//! auditable (e.g. "which floods dominate the k=4 overhead?") and
//! power the `distributed_trace` example and debugging.
//!
//! The capacity-bounded storage is [`adhoc_graph::obs::Ring`] — the
//! same bounded event log the observability core uses — so the
//! capacity/dropped bookkeeping lives in exactly one place. The churn
//! engine's reconcile loop is not traced here: its
//! `reconcile.{observe,repair,publish}_ns` metric spans time each
//! phase.

use crate::engine::Time;
use crate::message::MessageKind;
use crate::stats::Phase;
use adhoc_graph::graph::NodeId;
use adhoc_graph::obs::Ring;
use serde::{Deserialize, Serialize};

/// One recorded transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulated time of the transmission.
    pub time: Time,
    /// Protocol phase it belongs to.
    pub phase: Phase,
    /// Message kind.
    pub kind: MessageKind,
    /// Transmitting node.
    pub from: NodeId,
}

/// A bounded transmission log.
///
/// Capacity-bounded so tracing a large run cannot exhaust memory; once
/// full, further events are counted but not stored
/// ([`Trace::dropped`]). The bound is enforced by the shared
/// [`Ring`] — this type only adds the trace-specific queries.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    ring: Ring<TraceEvent>,
}

impl Trace {
    /// Creates a trace storing at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            ring: Ring::new(capacity),
        }
    }

    /// Records an event (or counts it as dropped when full).
    pub fn record(&mut self, e: TraceEvent) {
        self.ring.push(e);
    }

    /// Stored events, in transmission order.
    pub fn events(&self) -> &[TraceEvent] {
        self.ring.items()
    }

    /// Events not stored because the trace was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Events of one node, in order.
    pub fn by_node(&self, u: NodeId) -> Vec<&TraceEvent> {
        self.events().iter().filter(|e| e.from == u).collect()
    }

    /// `(first, last)` transmission times of a phase, if any occurred.
    pub fn phase_span(&self, phase: Phase) -> Option<(Time, Time)> {
        let mut it = self.events().iter().filter(|e| e.phase == phase);
        let first = it.next()?.time;
        let last = it.next_back().map_or(first, |e| e.time);
        Some((first, last))
    }
}

/// Wire-compatible with the pre-ring derived form:
/// `{events, capacity, dropped}`.
impl Serialize for Trace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("events".to_string(), self.events().to_value()),
            ("capacity".to_string(), self.ring.capacity().to_value()),
            ("dropped".to_string(), self.dropped().to_value()),
        ])
    }
}

impl Deserialize for Trace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("Trace object"))?;
        let events = Vec::<TraceEvent>::from_value(serde::__get_field(obj, "events")?)?;
        let capacity = usize::from_value(serde::__get_field(obj, "capacity")?)?;
        let dropped = u64::from_value(serde::__get_field(obj, "dropped")?)?;
        Ok(Trace {
            ring: Ring::from_parts(events, capacity, dropped),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: Time, from: u32, phase: Phase) -> TraceEvent {
        TraceEvent {
            time,
            phase,
            kind: MessageKind::Hello,
            from: NodeId(from),
        }
    }

    #[test]
    fn record_and_query() {
        let mut t = Trace::with_capacity(10);
        t.record(ev(0, 1, Phase::NeighborDiscovery));
        t.record(ev(1, 2, Phase::Clustering));
        t.record(ev(3, 1, Phase::Clustering));
        assert_eq!(t.len(), 3);
        assert_eq!(t.by_node(NodeId(1)).len(), 2);
        assert_eq!(t.phase_span(Phase::Clustering), Some((1, 3)));
        assert_eq!(t.phase_span(Phase::SetExchange), None);
        assert!(!t.is_empty());
    }

    #[test]
    fn capacity_bound_drops() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(ev(i, 0, Phase::NeighborDiscovery));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn single_event_phase_span() {
        let mut t = Trace::with_capacity(4);
        t.record(ev(7, 3, Phase::GatewayMarking));
        assert_eq!(t.phase_span(Phase::GatewayMarking), Some((7, 7)));
    }

    #[test]
    fn serde_preserves_ring_state() {
        let mut t = Trace::with_capacity(2);
        for i in 0..4 {
            t.record(ev(i, i as u32, Phase::Clustering));
        }
        let v = Serialize::to_value(&t);
        // Same wire shape as the old derived form.
        assert!(v.get("events").is_some());
        assert_eq!(v.get("capacity").and_then(|c| c.as_u64()), Some(2));
        assert_eq!(v.get("dropped").and_then(|d| d.as_u64()), Some(2));
        let back: Trace = Deserialize::from_value(&v).expect("roundtrip");
        assert_eq!(back.events(), t.events());
        assert_eq!(back.dropped(), 2);
        // The rebuilt ring keeps enforcing the original capacity.
        let mut back = back;
        back.record(ev(9, 9, Phase::Clustering));
        assert_eq!(back.dropped(), 3);
    }
}
