//! Experiment harness regenerating the paper's evaluation (§4).
//!
//! * [`stats`] — the ±1% @ 90% confidence machinery of the paper's
//!   stopping rule.
//! * [`harness`] — Monte-Carlo cells over `(N, D, k)` with
//!   deterministic per-replicate seeding and crossbeam-parallel
//!   execution.
//! * [`figures`] — series containers, aligned text tables, JSON
//!   persistence for EXPERIMENTS.md.
//! * [`svg`] — Figure-4-style cluster graph snapshots.
//! * [`plot`] — paper-style SVG line charts rendered from saved
//!   figure JSON (`bin/plot`).
//! * [`record`] — what the four record bins share: the
//!   `results/BENCH_*.json` writer ([`record::write_record`]), the git
//!   stamp and the one timer ([`record::best_of`]).
//! * [`probe`] — the metered reference workload every record embeds.
//!
//! Timings live in the record bins and in the gating benchmark
//! (`perfbench/`); there is no separate microbenchmark harness.
//!
//! The `src/bin` binaries regenerate each figure:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig4` | Figure 4 — example gateway selections on one network |
//! | `fig5` | Figure 5 — CDS size vs N, sparse (D=6), k=1..4 |
//! | `fig6` | Figure 6 — CDS size vs N, dense (D=10), k=1..4 |
//! | `fig7` | Figure 7 — clusterhead count and CDS size vs k |
//! | `overhead` | §5 future-work: message overhead vs k |
//! | `claims` | §4's six summary claims, checked programmatically |
//! | `coverage`, `baselines`, `policies`, `broadcast`, `routing`, `hierarchy` | related-work baselines and applications (§1–§3.3) |
//! | `exact` | approximation ratios vs the exact minimum k-hop CDS |
//! | `mac_ablation` | broadcast under slotted CSMA vs the ideal MAC |
//! | `stability` | CDS churn and information staleness vs k under mobility |
//! | `movement` | §5 movement-sensitive maintenance vs rebuild-every-step |
//! | `churn` | incremental delta engine vs rebuild-every-step across mobility models × N (`results/BENCH_churn.json`) |
//! | `routing_serve` | compiled route-plan serving vs per-query-BFS routing, single- and multi-worker, checksummed-equal walks (`results/BENCH_routing.json`) |
//! | `perf_baseline` | evaluation-engine wall clock vs the seed dataflow and `run_on`, with the metrics-overhead guard (`results/BENCH_pipeline.json`) |
//! | `resilience` | stale vs live plan reachability under adversarial churn, and heal latency (`results/BENCH_resilience.json`) |
//! | `scalability` | pipeline wall time out to N = 4000 at fixed density |
//! | `quasi` | the Figure-5 comparison on quasi-UDG radios |
//! | `claims_ext` | extension claims 1–5, checked programmatically |
//! | `plot` | renders saved figure JSON as SVG line charts |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod plot;
pub mod probe;
pub mod record;
pub mod stats;
pub mod svg;

use std::path::PathBuf;

/// Directory where figure binaries drop JSON/SVG/text outputs
/// (`results/` at the workspace root, overridable with
/// `KHOP_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("KHOP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Whether `--quick` was passed to a figure binary: caps replicates at
/// a handful so the whole figure regenerates in seconds (useful in CI;
/// the published numbers use the full stopping rule).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `"quick"` or `"full"` — stamped as `mode` into every bench record so
/// a reduced-scope run can never masquerade as the committed full-grid
/// measurement (`tests/bench_records.rs` fails CI if a quick record
/// lands on a canonical `BENCH_*.json`).
pub fn run_mode() -> &'static str {
    if quick_mode() {
        "quick"
    } else {
        "full"
    }
}

/// Applies quick mode to a cell config.
pub fn apply_quick(mut cfg: harness::CellConfig) -> harness::CellConfig {
    if quick_mode() {
        cfg.min_reps = 5;
        cfg.max_reps = 5;
    }
    cfg
}
