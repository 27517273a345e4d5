//! Monte-Carlo experiment harness.
//!
//! One *cell* is a parameter point `(N, D, k)`; one *replicate* is a
//! freshly sampled connected geometric network on which all five
//! algorithms run against a shared clustering. Replicates are
//! embarrassingly parallel: each gets its own deterministic RNG stream
//! (`StdRng` seeded from `(N, D, k, replicate index)`), worker threads
//! process disjoint index ranges on the shared pool
//! ([`adhoc_graph::par::scoped_chunks`]), and results merge in chunk
//! order, deterministically. Batches continue until the paper's
//! stopping rule is met: 100 replicates, or earlier if every metric's
//! 90% confidence interval is within ±1% of its mean.

use crate::stats::{SampleSet, Summary};
use adhoc_cluster::clustering::{self, MemberPolicy};
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::par::{self, Parallelism};
use adhoc_graph::Csr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One parameter point of the evaluation grid.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CellConfig {
    /// Number of nodes.
    pub n: usize,
    /// Target average degree (6 = sparse, 10 = dense).
    pub d: f64,
    /// Clustering radius.
    pub k: u32,
    /// Minimum replicates before testing convergence.
    pub min_reps: usize,
    /// Maximum replicates (paper: 100).
    pub max_reps: usize,
    /// Relative confidence-interval tolerance (paper: 0.01).
    pub rel_tol: f64,
    /// Base seed so whole sweeps can be re-keyed.
    pub base_seed: u64,
}

impl CellConfig {
    /// The paper's settings for a `(n, d, k)` point.
    pub fn paper(n: usize, d: f64, k: u32) -> Self {
        CellConfig {
            n,
            d,
            k,
            min_reps: 20,
            max_reps: 100,
            rel_tol: 0.01,
            base_seed: 0x1CC9_2005,
        }
    }
}

/// Raw metrics of one replicate.
#[derive(Clone, Debug)]
pub struct ReplicateSample {
    /// Clusterhead count (shared by all algorithms).
    pub heads: usize,
    /// Gateways per algorithm.
    pub gateways: BTreeMap<Algorithm, usize>,
    /// CDS size per algorithm.
    pub cds: BTreeMap<Algorithm, usize>,
}

/// Aggregated result of one cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell parameters.
    pub cfg: CellConfig,
    /// Replicates actually run.
    pub reps: usize,
    /// Mean clusterhead count.
    pub heads: Summary,
    /// Mean gateway count per algorithm.
    pub gateways: BTreeMap<String, Summary>,
    /// Mean CDS size per algorithm.
    pub cds: BTreeMap<String, Summary>,
}

impl CellResult {
    /// CDS summary of `alg`.
    pub fn cds_of(&self, alg: Algorithm) -> Summary {
        self.cds[alg.name()]
    }

    /// Gateway summary of `alg`.
    pub fn gateways_of(&self, alg: Algorithm) -> Summary {
        self.gateways[alg.name()]
    }
}

fn replicate_seed(cfg: &CellConfig, index: usize) -> u64 {
    // Mix the cell parameters and the replicate index (splitmix-ish).
    let mut h = cfg
        .base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cfg.n as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(cfg.d.to_bits())
        .wrapping_mul(0x94D0_49BB_1331_11EB)
        .wrapping_add(u64::from(cfg.k))
        .wrapping_add(index as u64 + 1);
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 27;
    h
}

/// Runs one replicate: sample a connected network, cluster once,
/// evaluate all five algorithms on the shared clustering through the
/// single-sweep engine ([`pipeline::run_all`]).
pub fn run_replicate(cfg: &CellConfig, index: usize) -> ReplicateSample {
    run_replicate_with(cfg, index, &mut EvalScratch::new())
}

/// As [`run_replicate`], reusing `scratch` (worker threads keep one
/// per thread so the label arena persists across replicates).
pub fn run_replicate_with(
    cfg: &CellConfig,
    index: usize,
    scratch: &mut EvalScratch,
) -> ReplicateSample {
    let mut rng = StdRng::seed_from_u64(replicate_seed(cfg, index));
    let net = gen::geometric(&GeometricConfig::new(cfg.n, 100.0, cfg.d), &mut rng);
    let csr = Csr::from_graph(&net.graph);
    let clustering = clustering::cluster(&csr, cfg.k, &LowestId, MemberPolicy::IdBased);
    let eval = pipeline::run_all_with(&csr, &clustering, scratch);
    let mut gateways = BTreeMap::new();
    let mut cds = BTreeMap::new();
    for alg in Algorithm::ALL {
        let out = eval.of(alg);
        debug_assert!(out.cds.verify(&csr, cfg.k).is_ok());
        gateways.insert(alg, out.selection.gateways.len());
        cds.insert(alg, out.cds.size());
    }
    ReplicateSample {
        heads: clustering.head_count(),
        gateways,
        cds,
    }
}

#[derive(Default)]
struct CellAccumulator {
    heads: SampleSet,
    gateways: BTreeMap<Algorithm, SampleSet>,
    cds: BTreeMap<Algorithm, SampleSet>,
}

impl CellAccumulator {
    fn absorb(&mut self, s: ReplicateSample) {
        self.heads.push(s.heads as f64);
        for (alg, v) in s.gateways {
            self.gateways.entry(alg).or_default().push(v as f64);
        }
        for (alg, v) in s.cds {
            self.cds.entry(alg).or_default().push(v as f64);
        }
    }

    fn merge(&mut self, other: CellAccumulator) {
        self.heads.merge(other.heads);
        for (alg, set) in other.gateways {
            self.gateways.entry(alg).or_default().merge(set);
        }
        for (alg, set) in other.cds {
            self.cds.entry(alg).or_default().merge(set);
        }
    }

    fn converged(&self, rel_tol: f64) -> bool {
        self.heads.summary().converged(rel_tol)
            && self
                .gateways
                .values()
                .all(|s| s.summary().converged(rel_tol))
            && self.cds.values().all(|s| s.summary().converged(rel_tol))
    }
}

/// Runs a cell to the paper's stopping rule, parallelizing replicates
/// across `threads` workers on the shared pool
/// ([`adhoc_graph::par::scoped_chunks`]); `None` defaults to
/// [`Parallelism::from_env`] (`KHOP_WORKERS` or the machine's cores).
pub fn run_cell(cfg: &CellConfig, threads: Option<usize>) -> CellResult {
    let threads = threads.map(Parallelism::new).unwrap_or_default().workers();
    let mut acc = CellAccumulator::default();
    let mut next_index = 0usize;

    while next_index < cfg.max_reps {
        // The first batch is clamped to `min_reps` so the stopping rule
        // is actually consulted at the earliest legal point; later
        // batches grow to keep all workers busy. (Previously the batch
        // was `threads * 8` capped at `max_reps`, so with enough
        // threads the whole budget ran before the first convergence
        // check and every cell silently cost `max_reps` replicates.)
        let batch = if next_index == 0 {
            cfg.min_reps.clamp(1, cfg.max_reps)
        } else {
            (threads * 8).clamp(1, cfg.max_reps - next_index)
        };
        let indices: Vec<usize> = (next_index..next_index + batch).collect();
        next_index += batch;

        let partials = par::scoped_chunks(
            threads,
            indices.len(),
            &indices[..],
            |_, _, slice: &[usize]| {
                let mut local = CellAccumulator::default();
                let mut scratch = EvalScratch::new();
                for &i in slice {
                    local.absorb(run_replicate_with(cfg, i, &mut scratch));
                }
                local
            },
        );
        for p in partials {
            acc.merge(p);
        }
        if acc.heads.len() >= cfg.min_reps && acc.converged(cfg.rel_tol) {
            break;
        }
    }

    CellResult {
        cfg: *cfg,
        reps: acc.heads.len(),
        heads: acc.heads.summary(),
        gateways: acc
            .gateways
            .iter()
            .map(|(a, s)| (a.name().to_string(), s.summary()))
            .collect(),
        cds: acc
            .cds
            .iter()
            .map(|(a, s)| (a.name().to_string(), s.summary()))
            .collect(),
    }
}

/// The paper's x-axis: node counts from 50 to 200.
pub const NODE_COUNTS: [usize; 7] = [50, 75, 100, 125, 150, 175, 200];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CellConfig {
        CellConfig {
            n: 50,
            d: 6.0,
            k: 2,
            min_reps: 4,
            max_reps: 8,
            rel_tol: 0.01,
            base_seed: 42,
        }
    }

    #[test]
    fn replicates_are_deterministic() {
        let cfg = tiny_cfg();
        let a = run_replicate(&cfg, 3);
        let b = run_replicate(&cfg, 3);
        assert_eq!(a.heads, b.heads);
        assert_eq!(a.cds, b.cds);
        let c = run_replicate(&cfg, 4);
        // Different index ⇒ different topology (almost surely
        // different metrics; compare maps to catch accidental reuse).
        assert!(a.cds != c.cds || a.heads != c.heads || a.gateways != c.gateways);
    }

    #[test]
    fn cell_runs_and_orders_algorithms() {
        let res = run_cell(&tiny_cfg(), Some(2));
        assert!(res.reps >= 4 && res.reps <= 8);
        let nc_mesh = res.cds_of(Algorithm::NcMesh).mean;
        let ac_mesh = res.cds_of(Algorithm::AcMesh).mean;
        let ac_lmst = res.cds_of(Algorithm::AcLmst).mean;
        let gmst = res.cds_of(Algorithm::GMst).mean;
        assert!(ac_mesh <= nc_mesh + 1e-9);
        assert!(ac_lmst <= ac_mesh + 1e-9);
        assert!(gmst <= ac_lmst + 1e-9);
        assert!(res.heads.mean >= 1.0);
        assert!(res.gateways_of(Algorithm::NcMesh).mean >= gmst - res.heads.mean);
    }

    #[test]
    fn first_batch_respects_min_reps() {
        // With a tolerance this loose the cell converges at the first
        // legal check; the first batch must therefore be `min_reps`
        // replicates, not `threads * 8` (which with many threads used
        // to swallow the whole `max_reps` budget before any check).
        let cfg = CellConfig {
            min_reps: 2,
            max_reps: 100,
            rel_tol: 1e9,
            ..tiny_cfg()
        };
        let res = run_cell(&cfg, Some(16));
        assert_eq!(res.reps, 2, "stopping rule must fire after min_reps");
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let cfg = tiny_cfg();
        let mut scratch = EvalScratch::new();
        for i in 0..3 {
            let warm = run_replicate_with(&cfg, i, &mut scratch);
            let cold = run_replicate(&cfg, i);
            assert_eq!(warm.heads, cold.heads);
            assert_eq!(warm.gateways, cold.gateways);
            assert_eq!(warm.cds, cold.cds);
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        let cfg = CellConfig {
            max_reps: 6,
            min_reps: 6,
            ..tiny_cfg()
        };
        let a = run_cell(&cfg, Some(1));
        let b = run_cell(&cfg, Some(4));
        assert_eq!(a.reps, b.reps);
        assert!(
            (a.cds_of(Algorithm::AcLmst).mean - b.cds_of(Algorithm::AcLmst).mean).abs() < 1e-12
        );
        assert!((a.heads.mean - b.heads.mean).abs() < 1e-12);
    }
}
