//! Related-work baselines the paper positions itself against (§1–§2):
//!
//! * **cluster vs core** election: the paper chooses the iterative
//!   cluster algorithm over the one-round core algorithm; this
//!   experiment quantifies the head-count and CDS cost of that choice.
//! * **border-node gateways** (k = 1 only): the classical baseline
//!   versus A-NCR + LMSTGA.
//! * **canonical vs per-endpoint gateway paths**: both endpoints of a
//!   virtual link must mark the *same* gateways, which the library
//!   guarantees by taking the lexicographically smallest shortest path.
//!   A distributed implementation that skips that agreement has each
//!   endpoint extract a path from its own BFS tree, and both paths'
//!   interiors end up marked. This measures the gateway inflation
//!   canonicalization avoids.
//!
//! Usage: `cargo run --release -p adhoc-bench --bin baselines [--quick]`

use adhoc_bench::quick_mode;
use adhoc_bench::stats::summarize;
use adhoc_cluster::adjacency::NeighborRule;
use adhoc_cluster::border;
use adhoc_cluster::cds::Cds;
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::core_algorithm::{core_cluster, verify_core};
use adhoc_cluster::gateway;
use adhoc_cluster::pipeline::{run_on, Algorithm};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::virtual_graph::VirtualGraph;
use adhoc_graph::bfs::BfsScratch;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Gateways when each endpoint of every realized link extracts a path
/// from its own BFS parent tree (no cross-endpoint agreement).
fn gateways_without_agreement(
    g: &Graph,
    links: &[(NodeId, NodeId)],
    heads: &[NodeId],
    bound: u32,
) -> usize {
    let mut marked: BTreeSet<NodeId> = BTreeSet::new();
    let mut scratch = BfsScratch::new(g.len());
    for &(a, b) in links {
        for (src, dst) in [(a, b), (b, a)] {
            scratch.run(g, src, bound);
            let path = scratch.path_to(dst).expect("link endpoints reachable");
            marked.extend(&path[1..path.len() - 1]);
        }
    }
    marked.retain(|v| heads.binary_search(v).is_err());
    marked.len()
}

fn main() {
    let reps = if quick_mode() { 5 } else { 50 };

    println!("== cluster vs core election (N=100, D=6, AC-LMST gateways) ==");
    println!(
        "{:>3} {:>14} {:>12} {:>14} {:>12}",
        "k", "cluster-heads", "cluster-CDS", "core-heads", "core-CDS"
    );
    for k in 1..=4u32 {
        let (mut ch, mut cc, mut kh, mut kc) = (vec![], vec![], vec![], vec![]);
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(0xBA5E + rep as u64);
            let net = gen::geometric(&GeometricConfig::new(100, 100.0, 6.0), &mut rng);
            let cl = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let co = core_cluster(&net.graph, k, &LowestId);
            verify_core(&net.graph, &co).expect("valid core clustering");
            ch.push(cl.head_count() as f64);
            kh.push(co.head_count() as f64);
            cc.push(run_on(&net.graph, Algorithm::AcLmst, &cl).cds.size() as f64);
            kc.push(run_on(&net.graph, Algorithm::AcLmst, &co).cds.size() as f64);
        }
        println!(
            "{k:>3} {:>14.1} {:>12.1} {:>14.1} {:>12.1}",
            summarize(&ch).mean,
            summarize(&cc).mean,
            summarize(&kh).mean,
            summarize(&kc).mean
        );
    }

    println!("\n== border-node gateways vs the paper's algorithms (k=1) ==");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10}",
        "N", "border", "NC-Mesh", "AC-LMST", "G-MST"
    );
    for n in [50usize, 100, 150, 200] {
        let (mut b, mut m, mut l, mut g) = (vec![], vec![], vec![], vec![]);
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(0xB0D7 + rep as u64 * 31 + n as u64);
            let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
            let cl = cluster(&net.graph, 1, &LowestId, MemberPolicy::IdBased);
            let bsel = border::border_gateways(&net.graph, &cl);
            let bcds = Cds::assemble(&cl, &bsel);
            bcds.verify(&net.graph, 1).expect("border CDS valid at k=1");
            b.push(bcds.size() as f64);
            m.push(run_on(&net.graph, Algorithm::NcMesh, &cl).cds.size() as f64);
            l.push(run_on(&net.graph, Algorithm::AcLmst, &cl).cds.size() as f64);
            g.push(run_on(&net.graph, Algorithm::GMst, &cl).cds.size() as f64);
        }
        println!(
            "{n:>4} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            summarize(&b).mean,
            summarize(&m).mean,
            summarize(&l).mean,
            summarize(&g).mean
        );
    }

    println!("\n== canonical vs per-endpoint gateway paths (k=2, D=6, AC-LMST) ==");
    println!(
        "{:>4} {:>10} {:>13} {:>10}",
        "N", "canonical", "per-endpoint", "inflation"
    );
    let k = 2u32;
    for n in [100usize, 200] {
        let (mut canon, mut arbitrary) = (vec![], vec![]);
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(0x71EB + rep as u64 * 37 + n as u64);
            let net = gen::geometric(&GeometricConfig::new(n, 100.0, 6.0), &mut rng);
            let cl = cluster(&net.graph, k, &LowestId, MemberPolicy::IdBased);
            let vg = VirtualGraph::build(&net.graph, &cl, NeighborRule::Adjacent);
            let sel = gateway::lmstga(&vg, &cl);
            let free =
                gateways_without_agreement(&net.graph, &sel.links_used, &cl.heads, 2 * k + 1);
            assert!(
                free >= sel.gateway_count(),
                "per-endpoint paths can never use fewer gateways"
            );
            canon.push(sel.gateway_count() as f64);
            arbitrary.push(free as f64);
        }
        let (c, a) = (summarize(&canon).mean, summarize(&arbitrary).mean);
        println!(
            "{n:>4} {c:>10.1} {a:>13.1} {:>9.0}%",
            100.0 * (a - c) / c.max(1.0)
        );
    }
}
