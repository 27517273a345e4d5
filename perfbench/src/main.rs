//! The repository benchmark: three seeded workloads driven through the
//! library APIs of `adhoc-sim::churn`, `adhoc-cluster::{clustering,
//! pipeline, routing}` and `adhoc-graph::labels`, each output checked,
//! every metric printed by name with its unit.
//!
//! ```text
//! khop-perfbench --workload <churn-serve|serve-hub|paper-grid>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--seed2 <n>] [--short] [--out-dir <dir>]
//! ```
//!
//! Everything runs in one process as a closed loop: the next operation
//! starts only after the previous one returned. `--trace 0` measures
//! the end-to-end metrics with every `obs` registry disabled; `--trace
//! 1` is the separate traced run that yields the per-layer metrics.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the full record
//! (stamps, percentiles with sample counts, layer attribution) is
//! written under `--out-dir`.

mod churn_serve;
mod paper_grid;
mod report;
mod serve_hub;

use report::Metrics;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with tracing off.
/// `op_*` and `ops_per_s` are the workload's primary operation: a
/// reconcile (churn-serve), a query (serve-hub), a cold build
/// (paper-grid).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p75_us", "us"),
    ("cds_size", "nodes"),
    ("mean_hops", "hops"),
    ("memory_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 32] = [
    ("churn.observe_us", "us"),
    ("churn.repair_us", "us"),
    ("churn.publish_us", "us"),
    ("churn.unattributed_us", "us"),
    ("churn.dirty_head_frac", "fraction"),
    ("churn.rebuild_frac", "fraction"),
    ("labels.advance_us", "us"),
    ("labels.sweep_us", "us"),
    ("labels.rows_repaired", "count/op"),
    ("labels.fallback_frac", "fraction"),
    ("labels.bytes", "bytes"),
    ("labels.sparse", "flag"),
    ("pipeline.run_all_us", "us"),
    ("pipeline.nc_graph_us", "us"),
    ("pipeline.eval_tail_us", "us"),
    ("clustering.cluster_us", "us"),
    ("plan.compile_us", "us"),
    ("plan.apply_delta_us", "us"),
    ("plan.recompiles", "count/op"),
    ("plan.resweeped_nodes", "count/op"),
    ("plan.bytes", "bytes"),
    ("inter.bytes", "bytes"),
    ("inter.build_us", "us"),
    ("inter.recomputed", "count/op"),
    ("inter.hub", "flag"),
    ("hub.dirty_hubs", "count/op"),
    ("query.route_us", "us"),
    ("query.ascent_hops", "hops"),
    ("query.inter_hops", "hops"),
    ("query.descent_hops", "hops"),
    ("query.unroutable", "fraction"),
    ("trace.overhead_ratio", "ratio"),
];

const WORKLOADS: [&str; 3] = ["churn-serve", "serve-hub", "paper-grid"];

/// What one workload run is asked to do.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub seed: u64,
    pub duration: Duration,
    pub trace: bool,
    /// Worker width of every `Parallelism` and query engine.
    pub workers: usize,
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every [`END_TO_END`] metric.
    pub end_to_end: Metrics,
    /// The workload's metrics under their workload-specific names.
    pub named: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    pub percentiles: Vec<(String, Value)>,
    /// Layer attribution with its unattributed remainder (traced runs).
    pub layers: Value,
    /// The layouts the `Auto` policies chose.
    pub choices: Value,
    pub fingerprint: String,
    pub detail: Value,
}

fn run_workload(name: &str, spec: &RunSpec, short: bool) -> Outcome {
    match (name, short) {
        ("churn-serve", false) => churn_serve::run(spec, &churn_serve::Config::full()),
        ("churn-serve", true) => churn_serve::run(spec, &churn_serve::Config::short()),
        ("serve-hub", false) => serve_hub::run(spec, &serve_hub::Config::full()),
        ("serve-hub", true) => serve_hub::run(spec, &serve_hub::Config::short()),
        ("paper-grid", false) => paper_grid::run(spec, &paper_grid::Config::full()),
        ("paper-grid", true) => paper_grid::run(spec, &paper_grid::Config::short()),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// `metrics` completed to exactly the names of `table`, in table
/// order: a metric the workload did not report reads 0.
fn complete(metrics: &Metrics, table: &[(&'static str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in table {
        let found = metrics.0.iter().find(|m| m.name == name);
        if let Some(m) = found {
            assert_eq!(m.unit, unit, "unit of {name}");
        }
        out.put(name, found.map_or(0.0, |m| m.value), unit);
    }
    for m in &metrics.0 {
        assert!(
            table.iter().any(|&(name, _)| name == m.name),
            "metric {} is not declared",
            m.name
        );
    }
    out
}

fn git_describe() -> String {
    // Only the checkout's own repository, never an enclosing one.
    let Ok(root) = std::env::current_dir() else {
        return "unknown".into();
    };
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("--git-dir")
        .arg(root.join(".git"))
        .arg("--work-tree")
        .arg(&root)
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    seed2: Option<u64>,
    short: bool,
    out_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: khop-perfbench --workload <churn-serve|serve-hub|paper-grid> \
--seed <n> --seconds <s> --trace <0|1> [--seed2 <n>] [--short] [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut seed2, mut short, mut out_dir) = (None, false, None);
    while let Some(flag) = it.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(number(&value)?),
            "--seed2" => seed2 = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        seed2,
        short,
        out_dir,
    })
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("  {title}");
    for m in &metrics.0 {
        println!("    {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = host_cores.min(2);
    // Every `Parallelism` defaulted inside the library (engine build,
    // fresh scratches) takes the same width as the explicit ones.
    std::env::set_var("KHOP_WORKERS", workers.to_string());
    let spec = RunSpec {
        seed: args.seed,
        duration: Duration::from_secs(args.seconds),
        trace: args.trace,
        workers,
    };
    let out = run_workload(&args.workload, &spec, args.short);
    let confirm = args.seed2.map(|seed2| {
        let spec2 = RunSpec {
            seed: seed2,
            ..spec.clone()
        };
        (seed2, run_workload(&args.workload, &spec2, args.short))
    });

    let mode = if args.short { "short" } else { "full" };
    let e2e = complete(&out.end_to_end, &END_TO_END);
    let per_layer = complete(&out.per_layer, &PER_LAYER);
    let mut attempted = out.attempted;
    let mut failed = out.failed;
    let mut failures = out.failures.clone();
    let confirm_json = confirm.as_ref().map_or(Value::Null, |(seed2, c)| {
        attempted += c.attempted;
        failed += c.failed;
        failures.extend(c.failures.iter().map(|f| format!("seed2: {f}")));
        json!({
            "seed": seed2,
            "input_fingerprint": c.fingerprint,
            "end_to_end": complete(&c.end_to_end, &END_TO_END).to_json(),
            "named": c.named.to_json(),
        })
    });

    println!(
        "perfbench {} ({mode}, trace {}) seed {} inputs {} | {} host cores, {} workers | labels {} inter {}",
        args.workload,
        u8::from(args.trace),
        args.seed,
        out.fingerprint,
        host_cores,
        workers,
        out.choices["labels"].as_str().unwrap_or("?"),
        out.choices["inter"].as_str().unwrap_or("?"),
    );
    print_metrics("end-to-end", &e2e);
    print_metrics(&format!("{} metrics", args.workload), &out.named);
    for (name, p) in &out.percentiles {
        if let (Some(value), Some(samples)) = (p["value"].as_f64(), p["samples"].as_u64()) {
            println!(
                "  {name} {value:.3}: {samples} samples, {} beyond, median of {} chunks",
                p["beyond"].as_u64().unwrap_or(0),
                p["chunks"].as_u64().unwrap_or(0)
            );
        }
    }
    if args.trace {
        print_metrics("per-layer", &per_layer);
    }
    if let Some((seed2, c)) = &confirm {
        print_metrics(
            &format!("end-to-end, confirmation seed {seed2}"),
            &c.end_to_end,
        );
    }
    for f in failures.iter().take(20) {
        println!("  FAILED {f}");
    }

    let record = json!({
        "schema": "khop-perfbench/v1",
        "workload": args.workload,
        "mode": mode,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "input_fingerprint": out.fingerprint,
        "host_cores": host_cores,
        "workers": workers,
        "git": git_describe(),
        "closed_loop": "one process; each operation starts after the previous one returned",
        "choices": out.choices,
        "attempted": attempted,
        "failed": failed,
        "error_rate": report::ratio(failed as f64, attempted as f64),
        "failures": failures,
        "end_to_end": e2e.to_json(),
        "named": out.named.to_json(),
        "percentiles": Value::Object(out.percentiles.clone()),
        "per_layer": if args.trace { per_layer.to_json() } else { Value::Null },
        "layers": out.layers,
        "detail": out.detail,
        "confirm": confirm_json,
    });
    if let Some(dir) = &args.out_dir {
        // A short run can never overwrite a full record: the modes
        // write to different directories.
        let dir = if args.short {
            dir.join("short")
        } else {
            dir.clone()
        };
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let text = serde_json::to_string_pretty(&record).expect("record serializes");
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("  record {}", path.display());
    }

    let last = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": if args.trace { per_layer.to_json() } else { e2e.to_json() },
    });
    println!(
        "{}",
        serde_json::to_string(&last).expect("result serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_spec(trace: bool) -> RunSpec {
        RunSpec {
            seed: 7,
            duration: Duration::from_millis(300),
            trace,
            workers: 2,
        }
    }

    /// The traced churn-serve run accounts for its reconcile time:
    /// the three phases cover ≥ 95% of reconcile wall time, and the
    /// label, eval-tail and plan spans cover ≥ 90% of observe + publish.
    #[test]
    fn churn_serve_attribution_covers_reconcile_time() {
        let out = churn_serve::run(&short_spec(true), &churn_serve::Config::short());
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        let phases = out.layers["phase_coverage"]
            .as_f64()
            .expect("phase coverage");
        assert!(phases >= 0.95, "phases cover {phases:.3} of reconcile time");
        let spans = out.layers["observe_publish"]["span_coverage"]
            .as_f64()
            .expect("span coverage");
        assert!(spans >= 0.90, "spans cover {spans:.3} of observe + publish");
        complete(&out.per_layer, &PER_LAYER);
    }

    #[test]
    fn every_workload_reports_every_metric_without_failures() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(name, &short_spec(trace), true);
                assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
                assert!(out.attempted > 0, "{name}");
                let e2e = complete(&out.end_to_end, &END_TO_END);
                for m in &e2e.0 {
                    assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
                }
                if trace {
                    complete(&out.per_layer, &PER_LAYER);
                }
            }
        }
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = run_workload("paper-grid", &short_spec(false), true);
        let b = run_workload("paper-grid", &short_spec(false), true);
        assert_eq!(a.fingerprint, b.fingerprint);
        let other = RunSpec {
            seed: 8,
            ..short_spec(false)
        };
        assert_ne!(
            a.fingerprint,
            run_workload("paper-grid", &other, true).fingerprint
        );
    }
}
