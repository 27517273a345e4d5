//! Protocol messages.
//!
//! Every variant corresponds to one over-the-air transmission kind in
//! the distributed realization of the paper's Algorithm `AC-LMST`
//! (lines 1–11) plus the clustering preamble. Flooded messages carry a
//! TTL and are forwarded at most once per node; unicast messages are
//! routed hop by hop using distance labels learned from earlier
//! phases.

use adhoc_graph::graph::NodeId;

/// A clusterhead-election key carried in `Contend` messages: the
/// primary priority value plus the originator ID tie-break (see
/// `adhoc_cluster::priority::PriorityKey`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WireKey {
    /// Primary priority (lower wins).
    pub primary: u64,
    /// Originator ID tie-break.
    pub id: NodeId,
}

/// One protocol message.
#[derive(Clone, Debug)]
pub enum Message {
    /// Phase 0 — 1-hop neighbor discovery.
    Hello,
    /// Clustering — an undecided node advertises its election key to
    /// its k-hop neighborhood (flooded, TTL-limited).
    Contend {
        /// Originating node.
        origin: NodeId,
        /// Its election key.
        key: WireKey,
        /// Remaining hops.
        ttl: u32,
        /// Election round the contest belongs to.
        round: u32,
    },
    /// Clustering — a contest winner declares itself clusterhead
    /// (flooded k hops).
    Declare {
        /// The new clusterhead.
        origin: NodeId,
        /// Remaining hops.
        ttl: u32,
        /// Hops traveled so far (receiver distance = hops + 1).
        hops: u32,
        /// Election round.
        round: u32,
    },
    /// Post-clustering — each node announces its cluster affiliation
    /// to its 1-hop neighbors.
    ClusterHello {
        /// The sender's clusterhead.
        head: NodeId,
        /// The sender's hop distance to that head.
        dist: u32,
    },
    /// Neighbor clusterhead discovery — each head floods its identity
    /// `2k+1` hops so every nearby node (and head) learns its distance
    /// to it (paper line 1: "broadcast within 2k+1 hops").
    HeadAnnounce {
        /// The announcing clusterhead.
        origin: NodeId,
        /// Remaining hops.
        ttl: u32,
        /// Hops traveled so far.
        hops: u32,
    },
    /// Each node shares its learned head-distance vector with its
    /// 1-hop neighbors; this is what lets unicast walks pick the
    /// canonical (smallest-ID decreasing-distance) next hop.
    DistVector {
        /// `(head, distance)` pairs known to the sender, ascending.
        dists: Vec<(NodeId, u32)>,
    },
    /// A border node reports an adjacent cluster pair to its own head
    /// (unicast toward the head), implementing distributed A-NCR.
    AdjacencyReport {
        /// The head this report is being routed to.
        to_head: NodeId,
        /// The adjacent cluster's head observed at the border.
        other_head: NodeId,
    },
    /// A head floods its selected neighbor clusterhead set and virtual
    /// distances so peer heads can build their local MSTs (paper line
    /// 7: "broadcast set S and distance to every one in S").
    SetInfo {
        /// The head describing its set.
        origin: NodeId,
        /// `(neighbor head, virtual distance)` pairs, ascending.
        set: Vec<(NodeId, u32)>,
        /// Remaining hops.
        ttl: u32,
    },
    /// A head that selected virtual link `(a, b)` but is its *larger*
    /// endpoint asks the smaller endpoint to start the canonical
    /// marking walk (unicast toward `a`).
    MarkRequest {
        /// Smaller link endpoint (walk initiator).
        a: NodeId,
        /// Larger link endpoint (walk target).
        b: NodeId,
    },
    /// The gateway-marking token walking the canonical shortest path
    /// from `a` to `b`; every interior node it visits marks itself a
    /// gateway (paper line 11: "set nodes on pi as gateway nodes").
    MarkToken {
        /// Smaller link endpoint.
        a: NodeId,
        /// Larger link endpoint (walk target).
        b: NodeId,
    },
}

impl Message {
    /// Short label used by the statistics tables.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Hello => MessageKind::Hello,
            Message::Contend { .. } => MessageKind::Contend,
            Message::Declare { .. } => MessageKind::Declare,
            Message::ClusterHello { .. } => MessageKind::ClusterHello,
            Message::HeadAnnounce { .. } => MessageKind::HeadAnnounce,
            Message::DistVector { .. } => MessageKind::DistVector,
            Message::AdjacencyReport { .. } => MessageKind::AdjacencyReport,
            Message::SetInfo { .. } => MessageKind::SetInfo,
            Message::MarkRequest { .. } => MessageKind::MarkRequest,
            Message::MarkToken { .. } => MessageKind::MarkToken,
        }
    }
}

/// Message category for accounting.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
#[allow(missing_docs)]
pub enum MessageKind {
    Hello,
    Contend,
    Declare,
    ClusterHello,
    HeadAnnounce,
    DistVector,
    AdjacencyReport,
    SetInfo,
    MarkRequest,
    MarkToken,
}

impl MessageKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [MessageKind; 10] = [
        MessageKind::Hello,
        MessageKind::Contend,
        MessageKind::Declare,
        MessageKind::ClusterHello,
        MessageKind::HeadAnnounce,
        MessageKind::DistVector,
        MessageKind::AdjacencyReport,
        MessageKind::SetInfo,
        MessageKind::MarkRequest,
        MessageKind::MarkToken,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::Hello => "hello",
            MessageKind::Contend => "contend",
            MessageKind::Declare => "declare",
            MessageKind::ClusterHello => "cluster-hello",
            MessageKind::HeadAnnounce => "head-announce",
            MessageKind::DistVector => "dist-vector",
            MessageKind::AdjacencyReport => "adjacency-report",
            MessageKind::SetInfo => "set-info",
            MessageKind::MarkRequest => "mark-request",
            MessageKind::MarkToken => "mark-token",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_one_to_one() {
        let msgs = [
            Message::Hello,
            Message::Contend {
                origin: NodeId(0),
                key: WireKey {
                    primary: 0,
                    id: NodeId(0),
                },
                ttl: 1,
                round: 0,
            },
            Message::Declare {
                origin: NodeId(0),
                ttl: 1,
                hops: 0,
                round: 0,
            },
            Message::ClusterHello {
                head: NodeId(0),
                dist: 0,
            },
            Message::HeadAnnounce {
                origin: NodeId(0),
                ttl: 1,
                hops: 0,
            },
            Message::DistVector { dists: vec![] },
            Message::AdjacencyReport {
                to_head: NodeId(0),
                other_head: NodeId(1),
            },
            Message::SetInfo {
                origin: NodeId(0),
                set: vec![],
                ttl: 1,
            },
            Message::MarkRequest {
                a: NodeId(0),
                b: NodeId(1),
            },
            Message::MarkToken {
                a: NodeId(0),
                b: NodeId(1),
            },
        ];
        let kinds: Vec<_> = msgs.iter().map(Message::kind).collect();
        assert_eq!(kinds, MessageKind::ALL);
        for k in MessageKind::ALL {
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn wire_key_orders_like_priority_key() {
        let a = WireKey {
            primary: 1,
            id: NodeId(9),
        };
        let b = WireKey {
            primary: 1,
            id: NodeId(2),
        };
        assert!(b < a);
        let c = WireKey {
            primary: 0,
            id: NodeId(99),
        };
        assert!(c < b);
    }
}
