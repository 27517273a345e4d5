//! `serve-hub`: route serving over hub labels on a static network.
//!
//! N = 20000, D = 8, k = 2 on a field of side 100·√(N/600), built with
//! `GeometricConfig::at_scale` as in `routing_serve`'s engine cells.
//! The backbone is AC-LMST and queries are uniform pairs. With about
//! 1800 heads `InterMode::Auto` picks hub labels and `LabelMode::Auto`
//! picks sparse labels, so nearly all serving time is spent inside the
//! hub index's next-hop lookups.
//!
//! The run alternates two kinds of rounds over a pre-generated pool of
//! query batches: a throughput round serves one batch through
//! `QueryEngine::route_many` on the worker pool, and a latency round
//! times every `RoutePlan::route_into` of one batch on its own.

use crate::churn_serve::uniform_pairs;
use crate::report::{self, time_chunk, Fingerprint, Latencies, Metrics, Obs};
use crate::{Outcome, RunSpec};
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::{self, BatchResult, InterMode, QueryEngine, RoutePlan, UNROUTABLE};
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::labels::LabelMode;
use adhoc_graph::obs;
use adhoc_graph::par::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::time::Instant;

const ALG: Algorithm = Algorithm::AcLmst;

#[derive(Clone, Debug)]
pub struct Config {
    pub n: usize,
    pub d: f64,
    pub k: u32,
    pub batch: usize,
    pub batch_pool: usize,
    pub setup_reps: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            n: 20_000,
            d: 8.0,
            k: 2,
            batch: 500,
            batch_pool: 40,
            setup_reps: 3,
        }
    }

    pub fn short() -> Self {
        Config {
            n: 3000,
            batch: 200,
            batch_pool: 4,
            setup_reps: 1,
            ..Config::full()
        }
    }
}

/// The servable state: evaluation scratch (labels) and compiled plan.
struct Served {
    scratch: EvalScratch,
    plan: RoutePlan,
    cds_size: usize,
    heads: usize,
}

/// Generated inputs to a servable plan: clustering, five-algorithm
/// evaluation, plan compile. With a live registry the evaluation and
/// the compile report their spans into it; the clustering and the
/// whole evaluation are timed from here.
fn set_up(g: &Graph, k: u32, par: Parallelism, registry: &obs::Metrics) -> (Served, [f64; 2]) {
    let t = Instant::now();
    let clustering = cluster(g, k, &LowestId, MemberPolicy::IdBased);
    let cluster_us = t.elapsed().as_secs_f64() * 1e6;
    let mut scratch = EvalScratch::with_tuning(LabelMode::Auto, par);
    scratch.set_metrics(registry.clone());
    let t = Instant::now();
    let eval = pipeline::run_all_with(g, &clustering, &mut scratch);
    let run_all_us = t.elapsed().as_secs_f64() * 1e6;
    let plan = RoutePlan::compile_metered(
        g,
        &clustering,
        scratch.labels(),
        eval.selected_links(ALG),
        InterMode::Auto,
        par,
        registry,
    );
    let served = Served {
        scratch,
        plan,
        cds_size: eval.of(ALG).cds.size(),
        heads: clustering.heads.len(),
    };
    (served, [cluster_us, run_all_us])
}

fn dense_reference(g: &Graph, k: u32, batches: &[Vec<(NodeId, NodeId)>]) -> Vec<BatchResult> {
    let clustering = cluster(g, k, &LowestId, MemberPolicy::IdBased);
    let mut scratch = EvalScratch::with_tuning(LabelMode::Auto, Parallelism::serial());
    let eval = pipeline::run_all_with(g, &clustering, &mut scratch);
    let dense = RoutePlan::compile_with(
        g,
        &clustering,
        scratch.labels(),
        eval.selected_links(ALG),
        InterMode::Dense,
    );
    let engine = QueryEngine::new(&dense);
    batches.iter().map(|b| engine.route_many(b)).collect()
}

#[derive(Default)]
struct Serving {
    queries: u64,
    serve_s: f64,
    /// Queries per second of each batch.
    rates: Vec<f64>,
}

pub fn run(spec: &RunSpec, cfg: &Config) -> Outcome {
    let par = Parallelism::new(spec.workers);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5E_12E5_40B5);
    let side = 100.0 * (cfg.n as f64 / 600.0).sqrt();
    let net = gen::geometric(&GeometricConfig::at_scale(cfg.n, side, cfg.d), &mut rng);
    let g = net.graph;
    let batches: Vec<Vec<(NodeId, NodeId)>> = (0..cfg.batch_pool)
        .map(|_| uniform_pairs(cfg.n, cfg.batch, &mut rng))
        .collect();
    let mut fp = Fingerprint::default();
    for (a, b) in g.edges() {
        fp.mix(u64::from(a.0) << 32 | u64::from(b.0));
    }
    for b in &batches {
        b.iter()
            .for_each(|&(u, v)| fp.mix(u64::from(u.0) << 32 | u64::from(v.0)));
    }

    // Untimed oracle: the same backbone served from a forced dense
    // inter table.
    let expected = dense_reference(&g, cfg.k, &batches);

    let layer_registry = obs::Metrics::enabled();
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..cfg.setup_reps {
        let t = Instant::now();
        let (s, _) = set_up(&g, cfg.k, par, &obs::Metrics::disabled());
        setups.push(t.elapsed().as_secs_f64());
        served = Some(s);
    }
    let mut setup_layers = None;
    if spec.trace {
        let t = Instant::now();
        let (s, outside) = set_up(&g, cfg.k, par, &layer_registry);
        setup_layers = Some((
            t.elapsed().as_secs_f64() * 1e6,
            outside,
            layer_registry.snapshot(),
        ));
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let plan = &served.plan;
    let query_registry = obs::Metrics::enabled();

    let mut failures = Vec::new();
    let mut plain = Serving::default();
    let mut traced = Serving::default();
    let mut latencies = Latencies::default();
    let mut walk = Vec::new();
    let mut hop_split = [0.0f64; 3];
    let (mut routable, mut unroutable) = (0u64, 0u64);
    let start = Instant::now();
    let deadline = start + spec.duration;
    let mut round = 0usize;
    loop {
        let i = (round / 2) % batches.len();
        let batch = &batches[i];
        if round.is_multiple_of(2) {
            // Throughput round; in a traced run every other one reports
            // into the registry, the rest give the untraced baseline.
            let traced_round = spec.trace && (round / 2) % 2 == 1;
            let server = if traced_round {
                QueryEngine::with_metrics(plan, spec.workers, &query_registry)
            } else {
                QueryEngine::with_workers(plan, spec.workers)
            };
            let t = Instant::now();
            let got = server.route_many(batch);
            let secs = t.elapsed().as_secs_f64();
            let tally = if traced_round {
                &mut traced
            } else {
                &mut plain
            };
            tally.serve_s += secs;
            tally.queries += batch.len() as u64;
            tally.rates.push(batch.len() as f64 / secs);
            let wrong = got
                .checksums
                .iter()
                .zip(&expected[i].checksums)
                .zip(got.hops.iter().zip(&expected[i].hops))
                .filter(|((a, b), (x, y))| a != b || x != y)
                .count();
            if wrong > 0 || got.checksum != expected[i].checksum {
                failures.push(format!(
                    "batch {i}: {wrong} walks differ from the dense plan"
                ));
            }
        } else {
            // Latency round: each query timed on its own, then checked.
            let chunk = time_chunk(start, spec);
            for (j, &(u, v)) in batch.iter().enumerate() {
                let t = Instant::now();
                let hops = plan.route_into(u, v, &mut walk);
                latencies.push(chunk, t.elapsed().as_secs_f64() * 1e6);
                let want = expected[i].hops[j];
                match hops {
                    Some(h) => {
                        if h != want
                            || walk.first() != Some(&u)
                            || walk.last() != Some(&v)
                            || !routing::is_valid_walk(&g, &walk)
                        {
                            failures.push(format!("query {u:?}->{v:?}: invalid walk"));
                        }
                        if spec.trace {
                            let up = plan.affiliation(u).map_or(0, |a| a.1) as f64;
                            let down = plan.affiliation(v).map_or(0, |a| a.1) as f64;
                            hop_split[0] += up;
                            hop_split[1] += f64::from(h) - up - down;
                            hop_split[2] += down;
                            routable += 1;
                        }
                    }
                    None => {
                        if want != UNROUTABLE {
                            failures.push(format!("query {u:?}->{v:?}: dropped a routable pair"));
                        }
                        unroutable += 1;
                    }
                }
            }
        }
        round += 1;
        let enough = round >= 4 && (!spec.trace || traced.queries > 0);
        if Instant::now() >= deadline && enough {
            break;
        }
    }

    let p50 = latencies.percentile(0.5);
    let p75 = latencies.percentile(0.75);
    let p99 = latencies.percentile(0.99);
    let setup_s = report::median(&setups);
    // Median of per-batch rates: one batch slowed by a neighbour on the
    // host does not move it.
    let serve_qps = report::median(&plain.rates);
    // The gated rate is the single-query closed loop: the worker pool's
    // speed-up depends on whether the host schedules the second core,
    // which swings from run to run on a shared two-core host.
    let single_qps = latencies.rate();
    let (total_hops, routable_pairs) = expected.iter().fold((0u64, 0u64), |acc, r| {
        (
            acc.0 + r.total_hops,
            acc.1 + (r.hops.len() - r.unreachable) as u64,
        )
    });
    let mean_hops = report::ratio(total_hops as f64, routable_pairs as f64);
    let memory_mb = (served.scratch.labels_memory_bytes() + plan.memory_bytes()) as f64 / 1e6;
    let attempted = plain.queries + traced.queries + latencies.len() as u64;
    let failed = failures.len() as u64;

    let mut e2e = Metrics::default();
    e2e.put("setup_s", setup_s, "s");
    e2e.put("ops_per_s", single_qps, "1/s");
    e2e.put("op_p75_us", p75.value, "us");
    e2e.put("cds_size", served.cds_size as f64, "nodes");
    e2e.put("mean_hops", mean_hops, "hops");
    e2e.put("memory_mb", memory_mb, "MB");

    let mut named = Metrics::default();
    named.put("setup_s", setup_s, "s");
    named.put("serve_qps", serve_qps, "q/s");
    named.put("single_query_qps", single_qps, "q/s");
    named.put("query_p50_us", p50.value, "us");
    named.put("query_p75_us", p75.value, "us");
    named.put("query_p99_us", p99.value, "us");
    named.put("cds_size", served.cds_size as f64, "nodes");
    named.put("mean_hops", mean_hops, "hops");
    named.put("memory_mb", memory_mb, "MB");
    named.put(
        "error_rate",
        report::ratio(failed as f64, attempted as f64),
        "fraction",
    );

    let mut per_layer = Metrics::default();
    let mut layers = serde_json::Value::Null;
    if let Some((setup_us, [cluster_us, run_all_us], snap)) = &setup_layers {
        let o = Obs { snap, ops: 1.0 };
        let sweep = o.span_us("labels.sweep_ns");
        let tail = o.span_us("pipeline.eval_tail_ns");
        let nc_graph = run_all_us - sweep - tail;
        let compile = o.span_us("plan.compile_ns");
        let inter_build = o.span_us("hub.build_ns") + o.span_us("inter.dense_build_ns");
        per_layer.put("clustering.cluster_us", *cluster_us, "us");
        per_layer.put("labels.sweep_us", sweep, "us");
        per_layer.put(
            "labels.bytes",
            served.scratch.labels_memory_bytes() as f64,
            "bytes",
        );
        per_layer.put(
            "labels.sparse",
            f64::from(u8::from(served.scratch.labels().is_sparse())),
            "flag",
        );
        per_layer.put("pipeline.run_all_us", *run_all_us, "us");
        per_layer.put("pipeline.nc_graph_us", nc_graph, "us");
        per_layer.put("pipeline.eval_tail_us", tail, "us");
        per_layer.put("plan.compile_us", compile, "us");
        per_layer.put("plan.recompiles", o.per_op("plan.compiled"), "count/op");
        per_layer.put("plan.bytes", plan.memory_bytes() as f64, "bytes");
        per_layer.put("inter.bytes", plan.inter_memory_bytes() as f64, "bytes");
        per_layer.put("inter.build_us", inter_build, "us");
        per_layer.put(
            "inter.hub",
            f64::from(u8::from(plan.inter_layout() == "hub")),
            "flag",
        );
        let qsnap = query_registry.snapshot();
        let q = Obs {
            snap: &qsnap,
            ops: traced.queries as f64,
        };
        let routable = routable.max(1) as f64;
        per_layer.put("query.route_us", q.span_us("query.latency_ns"), "us");
        per_layer.put("query.ascent_hops", hop_split[0] / routable, "hops");
        per_layer.put("query.inter_hops", hop_split[1] / routable, "hops");
        per_layer.put("query.descent_hops", hop_split[2] / routable, "hops");
        per_layer.put(
            "query.unroutable",
            unroutable as f64 / latencies.len() as f64,
            "fraction",
        );
        per_layer.put(
            "trace.overhead_ratio",
            (traced.serve_s / traced.queries as f64) / (plain.serve_s / plain.queries as f64),
            "ratio",
        );
        let attributed = cluster_us + sweep + tail + compile;
        layers = json!({
            "per": "set-up",
            "setup_us": setup_us,
            "clustering.cluster_us": cluster_us,
            "labels.sweep_us": sweep,
            "pipeline.eval_tail_us": tail,
            "plan.compile_us": compile,
            "unattributed_us": setup_us - attributed,
            "unattributed_is": "mostly pipeline.nc_graph_us: run_all_with between its label-sweep and eval-tail spans (NC relation, virtual graph), which emits no span",
            "coverage": attributed / setup_us,
            "serving": json!({
                "per": "query",
                "query_us": traced.serve_s * 1e6 / traced.queries as f64,
                "query.route_us": q.span_us("query.latency_ns"),
            }),
        });
    }

    Outcome {
        attempted,
        failed,
        failures,
        end_to_end: e2e,
        named,
        per_layer,
        percentiles: latencies.to_json("query"),
        layers,
        choices: json!({
            "labels": served.scratch.labels().layout_name(),
            "inter": plan.inter_layout(),
            "heads": served.heads,
        }),
        fingerprint: fp.hex(),
        detail: json!({
            "n": cfg.n,
            "rounds": round,
            "queries_batched": plain.queries + traced.queries,
            "queries_timed_singly": latencies.len(),
            "setup_s_samples": setups,
        }),
    }
}
