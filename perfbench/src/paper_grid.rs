//! `paper-grid`: cold five-algorithm evaluations in the paper's own
//! regime.
//!
//! Connected geometric instances at N ∈ {100, 200}, D ∈ {6, 10},
//! k ∈ 1..=4 on the paper's 100 × 100 field, the same number of
//! replicates per cell, evaluated as the figure harness does: lowest-ID
//! clustering then `pipeline::run_all_with` with one reused
//! `EvalScratch`. One pass evaluates every instance once; a run makes
//! whole passes until its time is spent.

use crate::report::{self, time_chunk, Fingerprint, Latencies, Metrics, Obs};
use crate::{Outcome, RunSpec};
use adhoc_cluster::clustering::{cluster, Clustering, MemberPolicy};
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch, EvaluationOutput};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::RoutePlan;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::Graph;
use adhoc_graph::labels::LabelMode;
use adhoc_graph::obs;
use adhoc_graph::par::Parallelism;
use adhoc_graph::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::time::Instant;

const ALG: Algorithm = Algorithm::AcLmst;

#[derive(Clone, Debug)]
pub struct Config {
    pub sizes: Vec<usize>,
    pub degrees: Vec<f64>,
    pub ks: Vec<u32>,
    pub replicates: usize,
    /// Seeded instances per pass whose `run_all_with` output is checked
    /// against `run_on`.
    pub checks_per_pass: usize,
    pub setup_reps: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            sizes: vec![100, 200],
            degrees: vec![6.0, 10.0],
            ks: vec![1, 2, 3, 4],
            replicates: 12,
            checks_per_pass: 2,
            setup_reps: 5,
        }
    }

    pub fn short() -> Self {
        Config {
            replicates: 1,
            setup_reps: 2,
            ..Config::full()
        }
    }
}

struct Instance {
    k: u32,
    graph: Graph,
}

/// Structure checksum of one algorithm's output: gateways, realized
/// links, CDS size.
fn structure(acc: &mut Fingerprint, sel: &adhoc_cluster::gateway::GatewaySelection, cds: usize) {
    sel.gateways.iter().for_each(|g| acc.mix(u64::from(g.0)));
    for &(a, b) in &sel.links_used {
        acc.mix(u64::from(a.0) << 32 | u64::from(b.0));
    }
    acc.mix(cds as u64);
}

/// Compares every algorithm of `eval` with a separate `run_on`.
fn check_instance(csr: &Csr, clustering: &Clustering, eval: &EvaluationOutput) -> Option<String> {
    for alg in Algorithm::ALL {
        let single = pipeline::run_on(csr, alg, clustering);
        let (mut a, mut b) = (Fingerprint::default(), Fingerprint::default());
        let out = eval.of(alg);
        structure(&mut a, &out.selection, out.cds.size());
        structure(&mut b, &single.selection, single.cds.size());
        if a.hex() != b.hex() {
            return Some(format!("{alg}: run_all_with differs from run_on"));
        }
        if out.cds.verify(csr, clustering.k).is_err() {
            return Some(format!("{alg}: CDS fails verification"));
        }
    }
    None
}

/// The inter-head layout `InterMode::Auto` picks for a plan over the
/// instance with the most heads (the workload serves no queries; this
/// only records which side of the `Auto` threshold it sits on).
fn auto_inter_layout(instances: &[Instance], csrs: &[Csr]) -> (&'static str, usize) {
    let (csr, clustering) = instances
        .iter()
        .zip(csrs)
        .map(|(i, c)| (c, cluster(c, i.k, &LowestId, MemberPolicy::IdBased)))
        .max_by_key(|(_, c)| c.heads.len())
        .expect("the grid has instances");
    let mut scratch = EvalScratch::new();
    let eval = pipeline::run_all_with(csr, &clustering, &mut scratch);
    let plan = RoutePlan::compile(csr, &clustering, scratch.labels(), eval.selected_links(ALG));
    (plan.inter_layout(), clustering.heads.len())
}

fn build(csr: &Csr, k: u32, scratch: &mut EvalScratch) -> (Clustering, EvaluationOutput) {
    let clustering = cluster(csr, k, &LowestId, MemberPolicy::IdBased);
    let eval = pipeline::run_all_with(csr, &clustering, scratch);
    (clustering, eval)
}

pub fn run(spec: &RunSpec, cfg: &Config) -> Outcome {
    let par = Parallelism::new(spec.workers);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x1CC9_2005);
    // Replicate-major order, so a pass interleaves every cell.
    let mut instances = Vec::new();
    for _ in 0..cfg.replicates {
        for &n in &cfg.sizes {
            for &d in &cfg.degrees {
                for &k in &cfg.ks {
                    let net = gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng);
                    instances.push(Instance {
                        k,
                        graph: net.graph,
                    });
                }
            }
        }
    }
    let mut fp = Fingerprint::default();
    for inst in &instances {
        fp.mix(u64::from(inst.k) << 32 | inst.graph.len() as u64);
        for (a, b) in inst.graph.edges() {
            fp.mix(u64::from(a.0) << 32 | u64::from(b.0));
        }
    }

    // Set-up: generated graphs to compact adjacency, then one cold
    // pass with a fresh scratch.
    let mut setups = Vec::new();
    let mut csrs = Vec::new();
    let mut cds_sum = 0.0;
    let mut link_hops = (0u64, 0u64);
    for _ in 0..cfg.setup_reps {
        let t = Instant::now();
        csrs = instances
            .iter()
            .map(|i| Csr::from_graph(&i.graph))
            .collect();
        let mut scratch = EvalScratch::with_tuning(LabelMode::Auto, par);
        cds_sum = 0.0;
        link_hops = (0, 0);
        for (inst, csr) in instances.iter().zip(&csrs) {
            let (_, eval) = build(csr, inst.k, &mut scratch);
            cds_sum += eval.of(ALG).cds.size() as f64;
            for l in eval.selected_links(ALG) {
                link_hops.0 += u64::from(l.hops());
                link_hops.1 += 1;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    // Label arena footprint of one instance, from a fresh scratch each.
    let label_bytes: usize = instances
        .iter()
        .zip(&csrs)
        .map(|(inst, csr)| {
            let mut fresh = EvalScratch::with_tuning(LabelMode::Auto, par);
            build(csr, inst.k, &mut fresh);
            fresh.labels_memory_bytes()
        })
        .sum();

    let registry = obs::Metrics::enabled();
    let mut scratch = EvalScratch::with_tuning(LabelMode::Auto, par);
    let mut traced_scratch = EvalScratch::with_tuning(LabelMode::Auto, par);
    traced_scratch.set_metrics(registry.clone());
    let mut check_rng = StdRng::seed_from_u64(spec.seed ^ 0x0C4E_C4ED);
    let mut latencies = Latencies::default();
    let (mut plain_builds, mut plain_s) = (0u64, 0.0f64);
    let (mut traced_builds, mut traced_s) = (0u64, 0.0f64);
    let (mut cluster_us, mut run_all_us) = (0.0f64, 0.0f64);
    let mut failures = Vec::new();
    let mut checked = 0u64;
    let start = Instant::now();
    let deadline = start + spec.duration;
    let mut pass = 0usize;
    loop {
        let traced = spec.trace && pass % 2 == 1;
        let chunk = time_chunk(start, spec);
        let sample: Vec<usize> = (0..cfg.checks_per_pass)
            .map(|_| check_rng.gen_range(0..instances.len()))
            .collect();
        for (i, (inst, csr)) in instances.iter().zip(&csrs).enumerate() {
            let (clustering, eval) = if traced {
                let t = Instant::now();
                let clustering = cluster(csr, inst.k, &LowestId, MemberPolicy::IdBased);
                let t1 = Instant::now();
                let eval = pipeline::run_all_with(csr, &clustering, &mut traced_scratch);
                let t2 = Instant::now();
                cluster_us += (t1 - t).as_secs_f64() * 1e6;
                run_all_us += (t2 - t1).as_secs_f64() * 1e6;
                traced_s += (t2 - t).as_secs_f64();
                traced_builds += 1;
                (clustering, eval)
            } else {
                let t = Instant::now();
                let out = build(csr, inst.k, &mut scratch);
                let secs = t.elapsed().as_secs_f64();
                latencies.push(chunk, secs * 1e6);
                plain_s += secs;
                plain_builds += 1;
                out
            };
            if sample.contains(&i) {
                checked += 1;
                if let Some(why) = check_instance(csr, &clustering, &eval) {
                    failures.push(format!("instance {i}: {why}"));
                }
            }
        }
        pass += 1;
        let enough = !spec.trace || traced_builds > 0;
        if Instant::now() >= deadline && enough {
            break;
        }
    }

    let p50 = latencies.percentile(0.5);
    let p75 = latencies.percentile(0.75);
    let p99 = latencies.percentile(0.99);
    let setup_s = report::median(&setups);
    let builds_per_s = latencies.rate();
    let cds_size = cds_sum / instances.len() as f64;
    let mean_hops = report::ratio(link_hops.0 as f64, link_hops.1 as f64);
    let memory_mb = label_bytes as f64 / instances.len() as f64 / 1e6;
    let attempted = plain_builds + traced_builds;
    let failed = failures.len() as u64;

    let mut e2e = Metrics::default();
    e2e.put("setup_s", setup_s, "s");
    e2e.put("ops_per_s", builds_per_s, "1/s");
    e2e.put("op_p75_us", p75.value, "us");
    e2e.put("cds_size", cds_size, "nodes");
    e2e.put("mean_hops", mean_hops, "hops");
    e2e.put("memory_mb", memory_mb, "MB");

    let mut named = Metrics::default();
    named.put("setup_s", setup_s, "s");
    named.put("builds_per_s", builds_per_s, "1/s");
    named.put("build_p50_us", p50.value, "us");
    named.put("build_p75_us", p75.value, "us");
    named.put("build_p99_us", p99.value, "us");
    named.put("cds_size", cds_size, "nodes");
    named.put("memory_mb", memory_mb, "MB");
    named.put(
        "error_rate",
        report::ratio(failed as f64, attempted as f64),
        "fraction",
    );

    let mut per_layer = Metrics::default();
    let mut layers = serde_json::Value::Null;
    if spec.trace {
        let snap = registry.snapshot();
        let ops = traced_builds as f64;
        let o = Obs { snap: &snap, ops };
        let build_us = traced_s * 1e6 / ops;
        let (cluster, run_all) = (cluster_us / ops, run_all_us / ops);
        let sweep = o.span_us("labels.sweep_ns");
        let tail = o.span_us("pipeline.eval_tail_ns");
        let nc_graph = run_all - sweep - tail;
        per_layer.put("clustering.cluster_us", cluster, "us");
        per_layer.put("labels.sweep_us", sweep, "us");
        per_layer.put(
            "labels.bytes",
            traced_scratch.labels_memory_bytes() as f64,
            "bytes",
        );
        per_layer.put(
            "labels.sparse",
            f64::from(u8::from(traced_scratch.labels().is_sparse())),
            "flag",
        );
        per_layer.put("pipeline.run_all_us", run_all, "us");
        per_layer.put("pipeline.nc_graph_us", nc_graph, "us");
        per_layer.put("pipeline.eval_tail_us", tail, "us");
        per_layer.put(
            "trace.overhead_ratio",
            (traced_s / ops) / (plain_s / plain_builds as f64),
            "ratio",
        );
        layers = json!({
            "per": "build",
            "build_us": build_us,
            "clustering.cluster_us": cluster,
            "labels.sweep_us": sweep,
            "pipeline.eval_tail_us": tail,
            "unattributed_us": build_us - cluster - sweep - tail,
            "unattributed_is": "mostly pipeline.nc_graph_us: run_all_with between its label-sweep and eval-tail spans (NC relation, virtual graph), which emits no span",
            "coverage": (cluster + sweep + tail) / build_us,
        });
    }

    let (inter_layout, heads_max) = auto_inter_layout(&instances, &csrs);
    Outcome {
        attempted,
        failed,
        failures,
        end_to_end: e2e,
        named,
        per_layer,
        percentiles: latencies.to_json("build"),
        layers,
        choices: json!({
            "labels": scratch.labels().layout_name(),
            "inter": inter_layout,
            "heads_max": heads_max,
        }),
        fingerprint: fp.hex(),
        detail: json!({
            "instances": instances.len(),
            "passes": pass,
            "builds_timed": plain_builds,
            "builds_traced": traced_builds,
            "checked_instances": checked,
            "setup_s_samples": setups,
        }),
    }
}
