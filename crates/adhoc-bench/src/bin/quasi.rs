//! Radio-model robustness: Figure 5's comparison on quasi-UDG radios.
//!
//! The paper's workload is a perfect unit-disk graph. Real radios have
//! a gray zone — links between `r` and `1.5r` exist only with some
//! probability. Theorems 1–2 never use geometry, so the algorithm
//! ordering should survive; this experiment repeats the Figure-5-style
//! comparison (CDS size vs N, k = 2) on quasi-UDG instances to show it
//! does.
//!
//! Usage: `cargo run --release -p adhoc-bench --bin quasi [--quick]`

use adhoc_bench::quick_mode;
use adhoc_bench::stats::summarize;
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::pipeline::{run_on, Algorithm};
use adhoc_cluster::priority::LowestId;
use adhoc_graph::gen::{self, GeometricConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let reps = if quick_mode() { 5 } else { 50 };
    let k = 2u32;
    let p_gray = 0.5;
    let outer_ratio = 1.5;
    println!(
        "CDS size vs N on quasi-UDG (gray zone to {outer_ratio}r at p = {p_gray}, D = 6, k = {k})"
    );
    println!(
        "{:>4} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "N", "NC-Mesh", "AC-Mesh", "NC-LMST", "AC-LMST", "G-MST"
    );
    let mut ordering_held = true;
    for n in [50usize, 100, 150, 200] {
        let mut sizes: Vec<Vec<f64>> = vec![Vec::new(); Algorithm::ALL.len()];
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(0x9A51 + rep as u64 * 73 + n as u64);
            let net = gen::quasi_geometric(
                &GeometricConfig::new(n, 100.0, 6.0),
                outer_ratio,
                p_gray,
                &mut rng,
            );
            let c = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let mut by_alg = [0usize; 5];
            for (i, alg) in Algorithm::ALL.iter().enumerate() {
                let out = run_on(&net.graph, *alg, &c);
                out.cds
                    .verify(&net.graph, k)
                    .unwrap_or_else(|e| panic!("{alg} invalid on quasi-UDG: {e}"));
                sizes[i].push(out.cds.size() as f64);
                by_alg[i] = out.cds.size();
            }
            // Per-instance ordering guarantees (the deterministic ones).
            let of =
                |alg: Algorithm| by_alg[Algorithm::ALL.iter().position(|a| *a == alg).unwrap()];
            ordering_held &= of(Algorithm::AcMesh) <= of(Algorithm::NcMesh)
                && of(Algorithm::NcLmst) <= of(Algorithm::NcMesh)
                && of(Algorithm::AcLmst) <= of(Algorithm::AcMesh);
        }
        let of = |alg: Algorithm| {
            summarize(&sizes[Algorithm::ALL.iter().position(|a| *a == alg).unwrap()]).mean
        };
        println!(
            "{n:>4} | {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            of(Algorithm::NcMesh),
            of(Algorithm::AcMesh),
            of(Algorithm::NcLmst),
            of(Algorithm::AcLmst),
            of(Algorithm::GMst),
        );
    }
    println!(
        "\nper-instance ordering (AC ≤ NC, LMST ≤ Mesh): {}",
        if ordering_held {
            "held on every replicate"
        } else {
            "VIOLATED"
        }
    );
    assert!(ordering_held);
}
