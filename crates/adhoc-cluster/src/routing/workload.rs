//! Query-workload generators for the serving benchmarks: who talks to
//! whom shapes both throughput (cache behavior of the plan arrays) and
//! stretch (local pairs shortcut, cross-field pairs ride the
//! backbone), so the benches measure more than one mix.

use crate::routing::plan::RoutePlan;
use adhoc_graph::graph::NodeId;
use rand::Rng;

/// A source/target mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Sources and targets uniform over all routable nodes.
    Uniform,
    /// Uniform sources; targets concentrate on a small hot set (a few
    /// sinks receive most of the traffic — the gateway-stress mix).
    Hotspot {
        /// Fraction of nodes in the hot set (clamped to at least one
        /// node).
        hot_fraction: f64,
        /// Probability a target is drawn from the hot set.
        hot_weight: f64,
    },
    /// Uniform sources; with probability `local_prob` the target lives
    /// in the source's own or a backbone-adjacent cluster (the
    /// neighborhood-gossip mix that exercises ascents and single-link
    /// crossings), otherwise uniform.
    Local {
        /// Probability of a nearby target.
        local_prob: f64,
    },
}

impl Mix {
    /// Display name (`uniform` / `hotspot` / `local`).
    pub fn name(&self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::Hotspot { .. } => "hotspot",
            Mix::Local { .. } => "local",
        }
    }
}

impl std::str::FromStr for Mix {
    type Err = String;

    /// Parses `uniform`, `hotspot` (5% of nodes draw 90% of targets),
    /// or `local` (80% nearby targets) with the benches' defaults.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(Mix::Uniform),
            "hotspot" => Ok(Mix::Hotspot {
                hot_fraction: 0.05,
                hot_weight: 0.9,
            }),
            "local" => Ok(Mix::Local { local_prob: 0.8 }),
            other => Err(format!("unknown mix {other} (uniform|hotspot|local)")),
        }
    }
}

/// Workload generation over a compiled plan (the plan supplies the
/// routable node set, cluster membership, and backbone adjacency the
/// non-uniform mixes need).
#[derive(Debug)]
pub struct Workload {
    routable: Vec<NodeId>,
    /// Members (including the head) per head slot.
    members: Vec<Vec<NodeId>>,
}

impl Workload {
    /// Indexes `plan`'s routable nodes and cluster membership.
    pub fn new(plan: &RoutePlan) -> Workload {
        let mut routable = Vec::new();
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); plan.heads().len()];
        for u in (0..plan.node_count() as u32).map(NodeId) {
            if let Some((slot, _)) = plan.affiliation(u) {
                routable.push(u);
                members[slot].push(u);
            }
        }
        Workload { routable, members }
    }

    /// Number of routable nodes.
    pub fn routable_nodes(&self) -> usize {
        self.routable.len()
    }

    /// Draws `count` query pairs under `mix`. Self-pairs are resampled
    /// a few times (and kept if the resamples keep colliding, which
    /// only happens on degenerate one-node inputs).
    ///
    /// # Panics
    /// Panics if the plan had no routable nodes.
    pub fn generate<R: Rng>(
        &self,
        plan: &RoutePlan,
        mix: Mix,
        count: usize,
        rng: &mut R,
    ) -> Vec<(NodeId, NodeId)> {
        assert!(!self.routable.is_empty(), "no routable nodes to query");
        let uniform = |rng: &mut R| self.routable[rng.gen_range(0..self.routable.len())];
        // Hot set: a partial Fisher-Yates draw, fixed for the batch.
        let hot: Vec<NodeId> = match mix {
            Mix::Hotspot { hot_fraction, .. } => {
                let m = ((self.routable.len() as f64 * hot_fraction).ceil() as usize)
                    .clamp(1, self.routable.len());
                let mut pool = self.routable.clone();
                for i in 0..m {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(m);
                pool
            }
            _ => Vec::new(),
        };
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let u = uniform(rng);
            let mut v = u;
            for _ in 0..8 {
                v = match mix {
                    Mix::Uniform => uniform(rng),
                    Mix::Hotspot { hot_weight, .. } => {
                        if rng.gen_bool(hot_weight.clamp(0.0, 1.0)) {
                            hot[rng.gen_range(0..hot.len())]
                        } else {
                            uniform(rng)
                        }
                    }
                    Mix::Local { local_prob } => {
                        if rng.gen_bool(local_prob.clamp(0.0, 1.0)) {
                            self.nearby(plan, u, rng)
                        } else {
                            uniform(rng)
                        }
                    }
                };
                if v != u {
                    break;
                }
            }
            pairs.push((u, v));
        }
        pairs
    }

    /// A member of `u`'s own cluster or of a backbone-adjacent one.
    fn nearby<R: Rng>(&self, plan: &RoutePlan, u: NodeId, rng: &mut R) -> NodeId {
        let (slot, _) = plan.affiliation(u).expect("sources are routable");
        let neighbors = plan.backbone_neighbors(slot);
        let pick = rng.gen_range(0..neighbors.len() + 1);
        let cluster = if pick == 0 {
            slot
        } else {
            neighbors[pick - 1] as usize
        };
        let members = &self.members[cluster];
        members[rng.gen_range(0..members.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster, MemberPolicy};
    use crate::pipeline::{self, EvalScratch};
    use crate::priority::LowestId;
    use adhoc_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan_for(n: usize, seed: u64) -> RoutePlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = gen::geometric(&gen::GeometricConfig::new(n, 100.0, 7.0), &mut rng);
        let c = cluster(&net.graph, 2, &LowestId, MemberPolicy::IdBased);
        let mut scratch = EvalScratch::new();
        let eval = pipeline::run_all_with(&net.graph, &c, &mut scratch);
        RoutePlan::compile(&net.graph, &c, scratch.labels(), eval.ac_graph.links())
    }

    #[test]
    fn mixes_parse_and_name() {
        assert_eq!("uniform".parse::<Mix>().unwrap(), Mix::Uniform);
        assert!(matches!(
            "HOTSPOT".parse::<Mix>().unwrap(),
            Mix::Hotspot { .. }
        ));
        assert!(matches!("local".parse::<Mix>().unwrap(), Mix::Local { .. }));
        assert!("zipf".parse::<Mix>().is_err());
        assert_eq!(Mix::Uniform.name(), "uniform");
        assert_eq!("hotspot".parse::<Mix>().unwrap().name(), "hotspot");
        assert_eq!("local".parse::<Mix>().unwrap().name(), "local");
    }

    #[test]
    fn uniform_pairs_are_in_range_and_mostly_distinct() {
        let plan = plan_for(60, 3);
        let wl = Workload::new(&plan);
        assert_eq!(wl.routable_nodes(), 60);
        let mut rng = StdRng::seed_from_u64(4);
        let pairs = wl.generate(&plan, Mix::Uniform, 500, &mut rng);
        assert_eq!(pairs.len(), 500);
        let distinct = pairs.iter().filter(|(u, v)| u != v).count();
        assert!(distinct > 490, "resampling must suppress self-pairs");
        for &(u, v) in &pairs {
            assert!(u.index() < 60 && v.index() < 60);
        }
    }

    #[test]
    fn hotspot_concentrates_targets() {
        let plan = plan_for(80, 5);
        let wl = Workload::new(&plan);
        let mut rng = StdRng::seed_from_u64(6);
        let mix = Mix::Hotspot {
            hot_fraction: 0.05,
            hot_weight: 0.9,
        };
        let pairs = wl.generate(&plan, mix, 2000, &mut rng);
        // The top-4 most-hit targets should absorb well over the
        // uniform share (4/80 = 5% of 2000 = 100 hits).
        let mut hits = vec![0usize; 80];
        for &(_, v) in &pairs {
            hits[v.index()] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let top4: usize = hits[..4].iter().sum();
        assert!(top4 > 1000, "hot set absorbed only {top4}/2000 targets");
    }

    #[test]
    fn local_mix_prefers_nearby_clusters() {
        let plan = plan_for(100, 7);
        let wl = Workload::new(&plan);
        let mut rng = StdRng::seed_from_u64(8);
        let pairs = wl.generate(&plan, Mix::Local { local_prob: 0.9 }, 1000, &mut rng);
        let mut nearby = 0usize;
        for &(u, v) in &pairs {
            let (su, _) = plan.affiliation(u).unwrap();
            let (sv, _) = plan.affiliation(v).unwrap();
            if su == sv || plan.backbone_neighbors(su).contains(&(sv as u32)) {
                nearby += 1;
            }
        }
        assert!(nearby > 700, "only {nearby}/1000 pairs were local");
    }
}
