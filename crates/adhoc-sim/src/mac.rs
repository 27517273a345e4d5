//! A contention MAC layer: slotted CSMA with receiver-side collisions.
//!
//! §4 of the paper "ignore\[s\] practical details such as collision and
//! contention, assuming that an ideal MAC layer protocol will take care
//! of them". This module removes that assumption so its effect can be
//! measured: broadcasts become *unacknowledged* frames that are lost at
//! a receiver whenever two of its neighbors transmit in the same slot
//! (the protocol interference model), and senders defer under a random
//! backoff with one-slot carrier sensing.
//!
//! The headline ablation reruns the paper's motivating application —
//! network-wide broadcast, blind flood vs CDS backbone
//! ([`crate::broadcast::Strategy`]) — under contention. The expected
//! qualitative outcome, which the tests pin down, is exactly the §1
//! motivation: the flood's larger transmitter population causes more
//! collisions (the "broadcast storm"), while the clustered backbone
//! keeps most of its delivery ratio because far fewer nodes contend.
//!
//! Model, per slot:
//!
//! 1. every node whose pending frame's backoff reaches zero *senses* the
//!    channel: if any neighbor transmitted in the previous slot, it
//!    defers and redraws its backoff (slotted CSMA with one-slot
//!    memory); otherwise it transmits this slot;
//! 2. a node `r` receives a frame iff **exactly one** of its neighbors
//!    transmitted in the slot; two or more → one collision event at `r`
//!    and all copies are lost (broadcast frames carry no ACK, so lost
//!    copies are never retransmitted — as in 802.11 broadcast);
//! 3. a successfully received new frame is handed to the forwarding
//!    strategy, which may enqueue a retransmission with a fresh random
//!    backoff in `[1, cw]`.
//!
//! All randomness comes from the caller's seeded RNG, and nodes are
//! processed in ID order, so runs are reproducible.
//!
//! ```
//! use adhoc_sim::mac::{simulate_with_mac, MacConfig};
//! use adhoc_sim::broadcast::Strategy;
//! use adhoc_cluster::pipeline::{self, Algorithm, PipelineConfig};
//! use adhoc_graph::{gen, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = gen::grid(5, 6);
//! let out = pipeline::run(&g, Algorithm::AcLmst, &PipelineConfig::new(1));
//! let mut rng = StdRng::seed_from_u64(1);
//! let r = simulate_with_mac(&g, &out.clustering, &out.cds, NodeId(0),
//!                           Strategy::Backbone, &MacConfig::default(), &mut rng);
//! assert!(r.delivered >= 1);
//! assert_eq!(r.delivery_ratio(30), r.delivered as f64 / 30.0);
//! ```

use crate::broadcast::Strategy;
use adhoc_cluster::cds::Cds;
use adhoc_cluster::clustering::Clustering;
use adhoc_graph::bfs::Adjacency;
use adhoc_graph::graph::NodeId;
use rand::Rng;

/// Contention-MAC parameters.
#[derive(Clone, Copy, Debug)]
pub struct MacConfig {
    /// Contention window: forwarding backoffs are drawn uniformly from
    /// `1..=cw`. `cw = 1` means "transmit in the next slot" (maximum
    /// contention); larger windows trade latency for fewer collisions.
    pub cw: u32,
    /// Safety cap on simulated slots (guards against pathological
    /// defer loops; generously above any realistic completion time).
    pub max_slots: u64,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            cw: 8,
            max_slots: 1 << 20,
        }
    }
}

/// Outcome of one broadcast under the contention MAC.
#[derive(Clone, Debug)]
pub struct MacReport {
    /// Frames put on the air.
    pub transmissions: u64,
    /// Receiver-side collision events (a slot in which ≥ 2 neighbors of
    /// the same receiver transmitted).
    pub collisions: u64,
    /// Nodes that received the message.
    pub delivered: usize,
    /// Slot in which the last delivery happened.
    pub latency_slots: u64,
    /// Whether every node was reached.
    pub complete: bool,
}

impl MacReport {
    /// Fraction of nodes reached, in `[0, 1]`.
    pub fn delivery_ratio(&self, n: usize) -> f64 {
        if n == 0 {
            1.0
        } else {
            self.delivered as f64 / n as f64
        }
    }
}

/// A frame waiting at a node for its backoff to expire.
#[derive(Clone, Copy, Debug)]
struct Pending {
    budget: u32,
    backoff: u32,
}

/// Per-node forwarding state shared by both strategies (mirrors the
/// budget-monotone rules of [`crate::broadcast`]).
struct Forwarding {
    received: Vec<bool>,
    has_sent: Vec<bool>,
    sent_budget: Vec<u32>,
}

impl Forwarding {
    fn new(n: usize) -> Self {
        Forwarding {
            received: vec![false; n],
            has_sent: vec![false; n],
            sent_budget: vec![0; n],
        }
    }

    /// Decides whether `at` should (re)transmit after hearing a copy
    /// with `budget`, returning the forwarded budget if so. Identical
    /// decision logic to the ideal-MAC simulator, so any difference in
    /// outcomes is attributable to the MAC alone.
    fn decide(
        &mut self,
        strategy: Strategy,
        clustering: &Clustering,
        in_cds: &[bool],
        at: NodeId,
        budget: u32,
        k: u32,
    ) -> Option<u32> {
        let i = at.index();
        match strategy {
            Strategy::BlindFlood => {
                if self.has_sent[i] {
                    None
                } else {
                    self.has_sent[i] = true;
                    Some(0)
                }
            }
            Strategy::Backbone => {
                if in_cds[i] {
                    let fwd = if clustering.is_head(at) {
                        k
                    } else {
                        budget.saturating_sub(1)
                    };
                    if !self.has_sent[i] || fwd > self.sent_budget[i] {
                        self.has_sent[i] = true;
                        self.sent_budget[i] = fwd;
                        Some(fwd)
                    } else {
                        None
                    }
                } else if budget > 1 {
                    let fwd = budget - 1;
                    if !self.has_sent[i] || fwd > self.sent_budget[i] {
                        self.has_sent[i] = true;
                        self.sent_budget[i] = fwd;
                        Some(fwd)
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
        }
    }
}

/// Simulates one broadcast from `source` under the contention MAC.
///
/// `clustering`/`cds` play the same role as in
/// [`crate::broadcast::simulate`] (ignored for blind flooding). The
/// RNG drives backoff draws only.
pub fn simulate_with_mac<G: Adjacency, R: Rng + ?Sized>(
    g: &G,
    clustering: &Clustering,
    cds: &Cds,
    source: NodeId,
    strategy: Strategy,
    cfg: &MacConfig,
    rng: &mut R,
) -> MacReport {
    assert!(cfg.cw >= 1, "contention window must be at least 1");
    let n = g.node_count();
    let k = clustering.k;
    let in_cds = {
        let mut mask = vec![false; n];
        for v in cds.nodes() {
            mask[v.index()] = true;
        }
        mask
    };
    let mut fwd = Forwarding::new(n);
    let mut pending: Vec<Option<Pending>> = vec![None; n];
    let mut report = MacReport {
        transmissions: 0,
        collisions: 0,
        delivered: 0,
        latency_slots: 0,
        complete: false,
    };

    fwd.received[source.index()] = true;
    fwd.has_sent[source.index()] = true;
    report.delivered = 1;
    let src_budget = match strategy {
        Strategy::BlindFlood => 0,
        Strategy::Backbone => k,
    };
    fwd.sent_budget[source.index()] = src_budget;
    // The source owns the channel at slot 0 — no contention yet.
    pending[source.index()] = Some(Pending {
        budget: src_budget,
        backoff: 0,
    });

    let mut tx_prev: Vec<bool> = vec![false; n]; // carrier sense memory
    let mut tx_now: Vec<bool> = vec![false; n];
    let mut outstanding = 1usize;

    for slot in 0..cfg.max_slots {
        if outstanding == 0 {
            break;
        }
        // Phase 1: backoff countdown, carrier sense, transmit decision.
        tx_now.iter_mut().for_each(|t| *t = false);
        let mut budgets: Vec<u32> = Vec::new();
        let mut senders: Vec<NodeId> = Vec::new();
        for (i, slot_pending) in pending.iter_mut().enumerate() {
            let Some(p) = slot_pending.as_mut() else {
                continue;
            };
            if p.backoff > 0 {
                p.backoff -= 1;
                continue;
            }
            // Carrier sense: defer if a neighbor was on the air in the
            // previous slot.
            let busy = g.adj(NodeId(i as u32)).iter().any(|w| tx_prev[w.index()]);
            if busy {
                p.backoff = rng.gen_range(1..=cfg.cw);
                continue;
            }
            tx_now[i] = true;
            senders.push(NodeId(i as u32));
            budgets.push(p.budget);
            *slot_pending = None;
            outstanding -= 1;
            report.transmissions += 1;
        }

        // Phase 2: per-receiver delivery / collision resolution.
        if !senders.is_empty() {
            // A receiver hears exactly the transmitting subset of its
            // neighborhood. Count transmitting neighbors per receiver.
            // (Index loop: `i` addresses four parallel per-node arrays.)
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                let mut heard: Option<u32> = None;
                let mut count = 0u32;
                for w in g.adj(NodeId(i as u32)) {
                    if tx_now[w.index()] {
                        count += 1;
                        if count > 1 {
                            break;
                        }
                        let si = senders
                            .binary_search(w)
                            .expect("senders sorted by construction");
                        heard = Some(budgets[si]);
                    }
                }
                if count > 1 {
                    report.collisions += 1;
                    continue;
                }
                let Some(budget) = heard else { continue };
                if !fwd.received[i] {
                    fwd.received[i] = true;
                    report.delivered += 1;
                    report.latency_slots = slot;
                }
                let at = NodeId(i as u32);
                if let Some(out) = fwd.decide(strategy, clustering, &in_cds, at, budget, k) {
                    let backoff = rng.gen_range(1..=cfg.cw);
                    // A larger-budget copy supersedes a queued one.
                    pending[i] = match pending[i] {
                        Some(old) if old.budget >= out => Some(old),
                        Some(_) => Some(Pending {
                            budget: out,
                            backoff,
                        }),
                        None => {
                            outstanding += 1;
                            Some(Pending {
                                budget: out,
                                backoff,
                            })
                        }
                    };
                }
            }
        }
        std::mem::swap(&mut tx_prev, &mut tx_now);
    }

    report.complete = report.delivered == n;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_cluster::clustering::{cluster, MemberPolicy};
    use adhoc_cluster::pipeline::{run_on, Algorithm};
    use adhoc_cluster::priority::LowestId;
    use adhoc_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(g: &adhoc_graph::Graph, k: u32) -> (Clustering, Cds) {
        let c = cluster(g, k, &LowestId, MemberPolicy::IdBased);
        let out = run_on(g, Algorithm::AcLmst, &c);
        (c, out.cds)
    }

    #[test]
    fn path_flood_is_collision_free() {
        // On a path, at most one *new* transmitter is active per slot
        // reachable wavefront, so cw = 1 flooding never collides and
        // reaches everyone.
        let g = gen::path(9);
        let (c, cds) = setup(&g, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let r = simulate_with_mac(
            &g,
            &c,
            &cds,
            NodeId(0),
            Strategy::BlindFlood,
            &MacConfig {
                cw: 1,
                max_slots: 1 << 16,
            },
            &mut rng,
        );
        assert!(r.complete);
        assert_eq!(r.collisions, 0);
        assert_eq!(r.transmissions, 9);
    }

    #[test]
    fn star_flood_collides_at_the_center() {
        // All leaves hear the center in slot 0 and then contend; with
        // cw = 1 they all fire together in slot 2 (slot 1 is sensed
        // busy... the center transmitted in slot 0, so leaves defer at
        // slot 1 only if a neighbor transmitted in slot 0 — it did).
        // Either way the center must see a collision.
        let g = gen::star(8);
        let (c, cds) = setup(&g, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let r = simulate_with_mac(
            &g,
            &c,
            &cds,
            NodeId(0),
            Strategy::BlindFlood,
            &MacConfig {
                cw: 1,
                max_slots: 1 << 16,
            },
            &mut rng,
        );
        assert!(r.complete); // all leaves heard slot 0 directly
        assert!(r.collisions > 0, "expected contention at the hub");
    }

    #[test]
    fn wider_window_reduces_collisions_on_average() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = gen::geometric(&gen::GeometricConfig::new(120, 100.0, 10.0), &mut rng);
        let (c, cds) = setup(&net.graph, 1);
        let avg = |cw: u32, rng: &mut StdRng| {
            let mut total = 0u64;
            for _ in 0..10 {
                let r = simulate_with_mac(
                    &net.graph,
                    &c,
                    &cds,
                    NodeId(0),
                    Strategy::BlindFlood,
                    &MacConfig {
                        cw,
                        max_slots: 1 << 18,
                    },
                    rng,
                );
                total += r.collisions;
            }
            total
        };
        let narrow = avg(1, &mut rng);
        let wide = avg(32, &mut rng);
        assert!(
            wide < narrow,
            "cw=32 collisions {wide} not below cw=1 collisions {narrow}"
        );
    }

    #[test]
    fn backbone_transmits_less_than_flood_under_mac() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = gen::geometric(&gen::GeometricConfig::new(150, 100.0, 10.0), &mut rng);
        let (c, cds) = setup(&net.graph, 1);
        let run = |strategy, rng: &mut StdRng| {
            let mut tx = 0u64;
            let mut col = 0u64;
            for _ in 0..10 {
                let r = simulate_with_mac(
                    &net.graph,
                    &c,
                    &cds,
                    NodeId(0),
                    strategy,
                    &MacConfig::default(),
                    rng,
                );
                tx += r.transmissions;
                col += r.collisions;
            }
            (tx, col)
        };
        let (flood_tx, flood_col) = run(Strategy::BlindFlood, &mut rng);
        let (bb_tx, bb_col) = run(Strategy::Backbone, &mut rng);
        assert!(
            bb_tx < flood_tx,
            "backbone tx {bb_tx} >= flood tx {flood_tx}"
        );
        assert!(
            bb_col < flood_col,
            "backbone collisions {bb_col} >= flood {flood_col}"
        );
    }

    #[test]
    fn single_node_and_trivial_graphs() {
        let g = adhoc_graph::Graph::new(1);
        let (c, cds) = setup(&g, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let r = simulate_with_mac(
            &g,
            &c,
            &cds,
            NodeId(0),
            Strategy::Backbone,
            &MacConfig::default(),
            &mut rng,
        );
        assert!(r.complete);
        assert_eq!(r.transmissions, 1);
        assert_eq!(r.collisions, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 8.0), &mut rng);
        let (c, cds) = setup(&net.graph, 2);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = simulate_with_mac(
                &net.graph,
                &c,
                &cds,
                NodeId(0),
                Strategy::Backbone,
                &MacConfig::default(),
                &mut rng,
            );
            (r.transmissions, r.collisions, r.delivered, r.latency_slots)
        };
        assert_eq!(run(42), run(42));
        // Different seeds may differ (no assertion that they must, but
        // the config should produce *some* variation across many seeds;
        // weak check on a pair).
        let _ = run(43);
    }

    #[test]
    fn delivery_ratio_bounds() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = gen::geometric(&gen::GeometricConfig::new(100, 100.0, 8.0), &mut rng);
        let (c, cds) = setup(&net.graph, 1);
        for strategy in [Strategy::BlindFlood, Strategy::Backbone] {
            let r = simulate_with_mac(
                &net.graph,
                &c,
                &cds,
                NodeId(0),
                strategy,
                &MacConfig::default(),
                &mut rng,
            );
            let ratio = r.delivery_ratio(net.graph.len());
            assert!(ratio > 0.0 && ratio <= 1.0);
            assert!(r.delivered >= 1);
            assert_eq!(r.complete, r.delivered == net.graph.len());
        }
        assert_eq!(
            MacReport {
                transmissions: 0,
                collisions: 0,
                delivered: 0,
                latency_slots: 0,
                complete: false
            }
            .delivery_ratio(0),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "contention window")]
    fn zero_window_rejected() {
        let g = gen::path(3);
        let (c, cds) = setup(&g, 1);
        let mut rng = StdRng::seed_from_u64(0);
        simulate_with_mac(
            &g,
            &c,
            &cds,
            NodeId(0),
            Strategy::BlindFlood,
            &MacConfig {
                cw: 0,
                max_slots: 16,
            },
            &mut rng,
        );
    }
}
