//! `khop` — command-line front end for the connected k-hop clustering
//! stack.
//!
//! ```text
//! khop gen  --n 100 --d 6 --seed 7 --out net.txt      generate a network file
//! khop run  [--input net.txt | --n 100 --d 6 --seed 7] --k 2 --alg ac-lmst [--json]
//! khop run  --alg all ...                              all five algorithms, one engine sweep
//! khop dist [--input net.txt | --n ... ] --k 2 --alg ac-lmst    distributed run + stats
//! khop info --input net.txt                            topology metrics
//! khop exact [--n 24 --d 5 --seed 7] --k 1             exact optimum + ratios
//! khop maintain --n 100 --k 2 --steps 50 --speed 1.0   movement-sensitive repair
//! khop churn --n 200 --k 2 --steps 40 --movers 10      incremental delta engine vs rebuild
//! khop route --n 400 --k 2 --alg ac-lmst --queries 5000 --mix local   compiled route serving
//! khop route --inter hub ...                           force the inter-head layout (dense|hub|auto)
//! khop resilience --n 300 --k 2 --attack heads --fraction 0.2   attack, repair, heal
//! khop mac  [--n 120 --d 10] --k 1 --cw 8              broadcast under CSMA
//! ```
//!
//! `run`, `churn`, `route`, and `resilience` also take
//! `--metrics[=FILE]`: bare, the command ends with a human-readable
//! metrics table; with `=FILE`, it writes the [`MetricsSnapshot`] as
//! pretty JSON and re-parses the file to validate the command's
//! required keys are present.

use khop::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

struct Args {
    flags: BTreeMap<String, String>,
    bools: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = BTreeMap::new();
        let mut bools = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    flags.insert(key.to_string(), value.to_string());
                    i += 1;
                } else if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    bools.push(name.to_string());
                    i += 1;
                }
            } else {
                die(&format!("unexpected argument: {a}"));
            }
        }
        Args { flags, bools }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for --{name}: {v}"))),
            None => default,
        }
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// Rejects every flag outside `allowed` (the flags the subcommand
    /// reads), a value flag given bare, a switch given a value, a `--k`
    /// or `--steps` below 1, and a `--d` or `--speed` that is not a
    /// finite positive number — so no flag is ever silently ignored,
    /// turned into a nonsense report or a panic.
    fn check(&self, allowed: &[&str]) {
        for name in self.flags.keys().chain(&self.bools) {
            if !allowed.contains(&name.as_str()) {
                die(&format!("unknown flag --{name} for this command"));
            }
        }
        for name in &self.bools {
            if !SWITCHES.contains(&name.as_str()) && name != "metrics" {
                die(&format!("--{name} needs a value"));
            }
        }
        for name in SWITCHES {
            if self.flags.contains_key(name) {
                die(&format!("--{name} takes no value"));
            }
        }
        if self.get::<u32>("k", 1) == 0 {
            die("--k must be at least 1");
        }
        if self.get::<usize>("steps", 1) == 0 {
            die("--steps must be at least 1");
        }
        let d: f64 = self.get("d", 1.0);
        if !(d.is_finite() && d > 0.0) {
            die(&format!("--d must be a finite positive degree (got {d})"));
        }
        let speed: f64 = self.get("speed", 1.0);
        if !(speed.is_finite() && speed > 0.0) {
            die(&format!(
                "--speed must be a finite positive number (got {speed})"
            ));
        }
    }
}

/// Flags that take no value. `--metrics` takes an optional one.
const SWITCHES: [&str; 2] = ["json", "verbose"];

/// A subcommand: its name, its entry point, and the flags it reads
/// (including through `obtain_graph` and the `parse_*` helpers).
type Command = (&'static str, fn(&Args), &'static [&'static str]);

/// Every subcommand; `main` dispatches through this table.
const COMMANDS: &[Command] = &[
    ("gen", cmd_gen, &["n", "d", "seed", "out"]),
    (
        "run",
        cmd_run,
        &[
            "input", "n", "d", "seed", "k", "alg", "workers", "metrics", "json",
        ],
    ),
    ("dist", cmd_dist, &["input", "n", "d", "seed", "k", "alg"]),
    ("info", cmd_info, &["input", "n", "d", "seed"]),
    (
        "exact",
        cmd_exact,
        &["input", "n", "d", "seed", "k", "budget"],
    ),
    (
        "maintain",
        cmd_maintain,
        &["n", "d", "seed", "k", "steps", "speed", "verbose"],
    ),
    (
        "churn",
        cmd_churn,
        &[
            "n", "d", "seed", "k", "steps", "movers", "speed", "workers", "metrics",
        ],
    ),
    (
        "route",
        cmd_route,
        &[
            "input", "n", "d", "seed", "k", "alg", "queries", "workers", "inter", "mix", "metrics",
            "json",
        ],
    ),
    (
        "resilience",
        cmd_resilience,
        &[
            "n",
            "d",
            "seed",
            "k",
            "fraction",
            "pairs",
            "attack",
            "repair-level",
            "workers",
            "metrics",
            "json",
        ],
    ),
    ("mac", cmd_mac, &["input", "n", "d", "seed", "k", "cw"]),
];

/// Writes formatted output to the locked stdout. A reader that closed
/// the pipe early (`khop … | head -1`) ends the command cleanly with
/// exit 0; any other write error ends it with one `khop:` line and
/// exit 1.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("khop: cannot write to stdout: {e}");
        exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn die(msg: &str) -> ! {
    eprintln!("khop: {msg}");
    eprintln!("usage: khop <gen|run|dist|info|exact|maintain|churn|route|resilience|mac>");
    eprintln!("            [--n N] [--d D] [--k K>=1] [--seed S] [--steps T] [--cw W]");
    eprintln!("            [--movers M] [--speed V] [--queries Q] [--workers W>=1]");
    eprintln!("            [--mix uniform|hotspot|local]");
    eprintln!("            [--attack heads|degree|regional|partition] [--fraction F] [--pairs P]");
    eprintln!("            [--repair-level none|reaffiliate|gateways|full]");
    eprintln!("            [--alg nc-mesh|ac-mesh|nc-lmst|ac-lmst|g-mst|all]");
    eprintln!("            [--inter dense|hub|auto]");
    eprintln!("            [--input FILE] [--out FILE] [--budget B>=1] [--json] [--verbose]");
    eprintln!("            [--metrics[=FILE]]   (each command accepts only the flags it reads)");
    exit(2)
}

/// Samples the generated network, or ends the command with the
/// generator's one-line error and exit code 2 when `cfg` cannot be
/// satisfied (e.g. `--n 1`, or too sparse to sample connected).
fn generate(cfg: &gen::GeometricConfig, rng: &mut StdRng) -> gen::GeometricNetwork {
    gen::try_geometric(cfg, rng).unwrap_or_else(|e| {
        eprintln!("khop: cannot generate network: {e}");
        exit(2)
    })
}

fn parse_alg(s: &str) -> Algorithm {
    match s.to_ascii_lowercase().as_str() {
        "nc-mesh" => Algorithm::NcMesh,
        "ac-mesh" => Algorithm::AcMesh,
        "nc-lmst" => Algorithm::NcLmst,
        "ac-lmst" => Algorithm::AcLmst,
        "g-mst" | "gmst" => Algorithm::GMst,
        other => die(&format!("unknown algorithm {other}")),
    }
}

/// Loads `--input` or generates from `--n/--d/--seed`. A file with no
/// nodes ends the command like any other unusable input (exit 2):
/// every subcommand needs at least one node to cluster.
fn obtain_graph(args: &Args) -> Graph {
    if let Some(path) = args.opt("input") {
        let file = adhoc_graph::io::load(&PathBuf::from(path))
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        if file.graph.is_empty() {
            die(&format!("cannot read {path}: the network has no nodes"));
        }
        file.graph
    } else {
        let n: usize = args.get("n", 100);
        let d: f64 = args.get("d", 6.0);
        let seed: u64 = args.get("seed", 1);
        let mut rng = StdRng::seed_from_u64(seed);
        generate(&gen::GeometricConfig::at_scale(n, 100.0, d), &mut rng).graph
    }
}

fn cmd_gen(args: &Args) {
    let n: usize = args.get("n", 100);
    let d: f64 = args.get("d", 6.0);
    let seed: u64 = args.get("seed", 1);
    let out = args.opt("out").unwrap_or("network.txt");
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate(&gen::GeometricConfig::at_scale(n, 100.0, d), &mut rng);
    adhoc_graph::io::save(&PathBuf::from(out), &net.graph, Some(&net.positions))
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    outln!(
        "wrote {out}: {} nodes, {} edges, avg degree {:.2}, range {:.2}",
        net.graph.len(),
        net.graph.edge_count(),
        net.graph.average_degree(),
        net.range
    );
}

/// The `--workers W` worker-pool width (at least 1); defaults to
/// [`Parallelism::from_env`] (`KHOP_WORKERS` or the machine's cores).
fn parse_workers(args: &Args) -> Parallelism {
    match args.opt("workers") {
        Some(_) => Parallelism::new(workers_flag(args, 1)),
        None => Parallelism::default(),
    }
}

/// `--workers` as a count, `default` when absent; 0 is refused.
fn workers_flag(args: &Args, default: usize) -> usize {
    let workers: usize = args.get("workers", default);
    if workers == 0 {
        die("--workers must be at least 1");
    }
    workers
}

/// The `--metrics[=FILE]` observability sink: an enabled [`Metrics`]
/// registry the command threads through the stack, plus the requested
/// output surface (bare flag → text table on stdout, `=FILE` → pretty
/// JSON on disk).
struct MetricsSink {
    metrics: Metrics,
    file: Option<PathBuf>,
}

/// Builds the sink when `--metrics` (bare or `=FILE`/` FILE`) was
/// given; `None` keeps every hot path on the disabled one-branch
/// handle.
fn parse_metrics(args: &Args) -> Option<MetricsSink> {
    let file = args.opt("metrics").map(PathBuf::from);
    (file.is_some() || args.has("metrics")).then(|| MetricsSink {
        metrics: Metrics::enabled(),
        file,
    })
}

impl MetricsSink {
    /// Snapshots the registry and renders it. For `=FILE`, the written
    /// JSON is read back, re-parsed, and checked for `required` metric
    /// names (each must resolve to a counter or histogram) — the same
    /// contract CI's smoke step relies on.
    fn finish(self, required: &[&str]) {
        let snap = self.metrics.snapshot();
        let Some(path) = &self.file else {
            out!("{}", snap.text_table());
            return;
        };
        let json = serde_json::to_string_pretty(&snap).expect("metrics snapshot serializes");
        std::fs::write(path, &json)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        let back: MetricsSnapshot = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| format!("{e:?}")))
            .unwrap_or_else(|e| {
                die(&format!(
                    "metrics file {} does not re-parse: {e}",
                    path.display()
                ))
            });
        if back != snap {
            die("metrics JSON round-trip altered the snapshot");
        }
        for name in required {
            if back.counter(name).is_none() && back.histogram(name).is_none() {
                die(&format!("metrics file missing required key {name}"));
            }
        }
        outln!(
            "metrics: wrote {} ({} counters, {} histograms, {} events; {} required keys present)",
            path.display(),
            back.counters.len(),
            back.histograms.len(),
            back.events.len(),
            required.len()
        );
    }
}

/// Theorem 2's verifier assumes a connected network; on a
/// disconnected instance (legal at large N and fixed density) the CDS
/// is per-component and the global check would always reject. Returns
/// whether verification can run, warning loudly when it cannot.
fn warn_if_unverifiable(g: &Graph) -> bool {
    let connected = connectivity::is_connected(g);
    if !connected {
        eprintln!("khop: input network is disconnected — structures are per-component, CDS verification skipped");
    }
    connected
}

/// `khop run --alg all`: evaluate all five algorithms through the
/// single-sweep engine (`pipeline::run_all`) on one shared clustering.
fn cmd_run_all(g: &Graph, k: u32, par: Parallelism, json: bool, sink: Option<MetricsSink>) {
    let clustering = clustering::cluster(g, k, &LowestId, MemberPolicy::IdBased);
    let mut scratch = EvalScratch::with_workers(par);
    if let Some(s) = &sink {
        scratch.set_metrics(s.metrics.clone());
    }
    let eval = pipeline::run_all_with(g, &clustering, &mut scratch);
    let verify = warn_if_unverifiable(g);
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let out = eval.of(alg);
        if verify {
            if let Err(e) = out.cds.verify(g, k) {
                die(&format!("{} produced an invalid CDS: {e}", alg.name()));
            }
        }
        rows.push((alg, out));
    }
    if json {
        let algorithms: BTreeMap<&str, serde_json::Value> = rows
            .iter()
            .map(|(alg, out)| {
                (
                    alg.name(),
                    serde_json::json!({
                        "gateways": out.selection.gateways,
                        "cds_size": out.cds.size(),
                        "links_used": out.selection.links_used,
                    }),
                )
            })
            .collect();
        outln!(
            "{}",
            serde_json::json!({
                "k": k,
                "nodes": g.len(),
                "edges": g.edge_count(),
                "clusterheads": clustering.heads,
                "rounds": clustering.rounds,
                "labels_memory_bytes": scratch.labels_memory_bytes(),
                "algorithms": algorithms,
            })
        );
    } else {
        outln!(
            "{} nodes (k={k}): {} heads in {} rounds",
            g.len(),
            clustering.head_count(),
            clustering.rounds
        );
        for (alg, out) in rows {
            outln!(
                "  {:<8} gateways: {:>4}   CDS: {:>4}",
                alg.name(),
                out.selection.gateways.len(),
                out.cds.size()
            );
        }
        outln!("labels: {} bytes", scratch.labels_memory_bytes());
    }
    if let Some(s) = sink {
        s.finish(&["pipeline.run_all", "labels.sweep_ns", "labels.rows_swept"]);
    }
}

fn cmd_run(args: &Args) {
    let g = obtain_graph(args);
    let k: u32 = args.get("k", 2);
    let par = parse_workers(args);
    let sink = parse_metrics(args);
    let alg_name = args.opt("alg").unwrap_or("ac-lmst");
    if alg_name.eq_ignore_ascii_case("all") {
        cmd_run_all(&g, k, par, args.has("json"), sink);
        return;
    }
    let alg = parse_alg(alg_name);
    // Only the requested algorithm's phases run here (the shared
    // engine sweep is `--alg all`'s job); the scratch carries the
    // worker-pool width, and G-MST — the centralized baseline —
    // ignores it.
    let clustering = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
    let mut scratch = EvalScratch::with_workers(par);
    if let Some(s) = &sink {
        scratch.set_metrics(s.metrics.clone());
    }
    let out = pipeline::run_on_with(&g, alg, &clustering, &mut scratch);
    let labels_bytes = (alg != Algorithm::GMst).then(|| scratch.labels_memory_bytes());
    if warn_if_unverifiable(&g) {
        if let Err(e) = out.cds.verify(&g, k) {
            die(&format!("produced an invalid CDS: {e}"));
        }
    }
    if args.has("json") {
        let mut doc = serde_json::json!({
            "algorithm": alg.name(),
            "k": k,
            "nodes": g.len(),
            "edges": g.edge_count(),
            "clusterheads": clustering.heads,
            "gateways": out.selection.gateways,
            "cds_size": out.cds.size(),
            "links_used": out.selection.links_used,
            "rounds": clustering.rounds,
        });
        if let (serde_json::Value::Object(map), Some(bytes)) = (&mut doc, labels_bytes) {
            map.push(("labels_memory_bytes".into(), serde_json::json!(bytes)));
        }
        outln!("{doc}");
    } else {
        outln!(
            "{} on {} nodes (k={k}): {} heads, {} gateways, CDS {}",
            alg.name(),
            g.len(),
            clustering.head_count(),
            out.selection.gateways.len(),
            out.cds.size()
        );
        if let Some(bytes) = labels_bytes {
            outln!("labels: {bytes} bytes");
        }
    }
    if let Some(s) = sink {
        // G-MST bypasses the label sweep, so only the localized
        // algorithms can promise sweep metrics in the file.
        if alg == Algorithm::GMst {
            s.finish(&[]);
        } else {
            s.finish(&["pipeline.run_on", "labels.sweep_ns"]);
        }
    }
}

fn cmd_dist(args: &Args) {
    let g = obtain_graph(args);
    let k: u32 = args.get("k", 2);
    let alg = parse_alg(args.opt("alg").unwrap_or("ac-lmst"));
    if alg == Algorithm::GMst {
        die("G-MST is centralized; use `khop run --alg g-mst`");
    }
    let run = run_protocol(&g, &ProtocolConfig::new(k, alg));
    outln!(
        "distributed {} on {} nodes (k={k}): {} heads, {} gateways",
        alg.name(),
        g.len(),
        run.heads.len(),
        run.gateways.len()
    );
    out!("{}", run.stats.report());
}

fn cmd_info(args: &Args) {
    let g = obtain_graph(args);
    use adhoc_graph::metrics;
    outln!("nodes: {}", g.len());
    outln!("edges: {}", g.edge_count());
    outln!("avg degree: {:.2}", g.average_degree());
    outln!("connected: {}", connectivity::is_connected(&g));
    outln!("components: {}", connectivity::component_count(&g));
    if let Some(d) = metrics::diameter(&g) {
        outln!("diameter: {d}");
    }
    if let Some(r) = metrics::radius(&g) {
        outln!("radius: {r}");
    }
    outln!(
        "avg clustering coeff: {:.3}",
        metrics::average_clustering(&g)
    );
}

fn cmd_exact(args: &Args) {
    let g = obtain_graph(args);
    let k: u32 = args.get("k", 1);
    if g.len() > 40 {
        die(&format!(
            "exact search on {} nodes would not finish; use --n 40 or fewer",
            g.len()
        ));
    }
    let budget: u64 = args.get("budget", exact::ExactConfig::default().max_steps);
    if budget == 0 {
        die("--budget must be at least 1");
    }
    let opt = exact::min_khop_cds(&g, k, &ExactConfig { max_steps: budget });
    outln!(
        "exact minimum {k}-hop CDS: {} nodes {} ({} expansions)",
        opt.size(),
        if opt.optimal {
            "[proven optimal]"
        } else {
            "[budget exhausted — incumbent]"
        },
        opt.explored
    );
    outln!("set: {:?}", opt.set);
    for alg in Algorithm::ALL {
        let out = pipeline::run(&g, alg, &PipelineConfig::new(k));
        outln!(
            "  {:<8} CDS {:>3}  ratio {:.3}",
            alg.name(),
            out.cds.size(),
            out.cds.size() as f64 / opt.size() as f64
        );
    }
}

fn cmd_maintain(args: &Args) {
    let n: usize = args.get("n", 100);
    let d: f64 = args.get("d", 10.0);
    let k: u32 = args.get("k", 2);
    let seed: u64 = args.get("seed", 1);
    let steps: usize = args.get("steps", 50);
    let speed: f64 = args.get("speed", 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generate(&gen::GeometricConfig::new(n, 100.0, d), &mut rng);
    let model = mobility::RandomWaypoint::new(n, waypoint(speed, 0.2), &mut rng);
    let mut mobile = MobileNetwork::with_model(base.positions.clone(), base.range, model);
    let mut m = ChurnEngine::build(mobile.graph(), MovementConfig::strict(k, Algorithm::AcLmst));
    outln!("step | level       | orphans | cost | CDS | valid");
    let mut total_cost = 0usize;
    let mut total_rebuild = 0usize;
    for step in 0..steps {
        // Feed the exact edge delta the grid produced — no snapshot
        // clone + re-diff on the engine side.
        let delta = mobile.step(1.0, &mut rng);
        total_rebuild += m.rebuild_cost(mobile.graph());
        let r = m.step_delta(&delta);
        total_cost += r.cost;
        if r.level != RepairLevel::None || args.has("verbose") {
            outln!(
                "{step:>4} | {:<11} | {:>7} | {:>4} | {:>3} | {}",
                r.level.name(),
                r.orphans,
                r.cost,
                m.cds.size(),
                r.valid
            );
        }
    }
    outln!(
        "\ntotal maintenance cost {total_cost} node-rounds vs {} for rebuild-every-step ({:.0}% saved)",
        total_rebuild,
        100.0 * (1.0 - total_cost as f64 / total_rebuild.max(1) as f64)
    );
}

/// Random-waypoint motion on the 100 × 100 field at speeds between
/// `min_share · speed` (floored at `1e-6`, never above `speed`) and
/// `speed`, which `Args::check` has proved finite and positive.
fn waypoint(speed: f64, min_share: f64) -> WaypointConfig {
    WaypointConfig {
        side: 100.0,
        min_speed: (speed * min_share).max(1e-6).min(speed),
        max_speed: speed,
        pause: 2.0,
    }
}

/// `khop churn`: the incremental delta engine against
/// rebuild-every-step on one mobile trajectory (a CLI-sized slice of
/// `adhoc-bench`'s `churn` bin; `--movers` nodes drift, the rest are a
/// static field).
fn cmd_churn(args: &Args) {
    use std::time::Instant;
    let n: usize = args.get("n", 200);
    let d: f64 = args.get("d", 6.0);
    let k: u32 = args.get("k", 2);
    let seed: u64 = args.get("seed", 1);
    let steps: usize = args.get("steps", 40);
    let movers: usize = args.get("movers", 10.min(n));
    let speed: f64 = args.get("speed", 2.0);
    let par = parse_workers(args);
    let sink = parse_metrics(args);
    if n < 2 {
        die(&format!("--n must be at least 2 (got {n})"));
    }
    if movers == 0 || movers > n {
        die(&format!("--movers must be in 1..={n} (got {movers})"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generate(&gen::GeometricConfig::new(n, 100.0, d), &mut rng);

    // Trajectory: `movers` random-waypoint nodes over a static field.
    let mut model = mobility::RandomWaypoint::new(movers, waypoint(speed, 0.3), &mut rng);
    let mut pos = base.positions.clone();
    let mut mover_pos: Vec<Point> = pos[..movers].to_vec();
    let mut snapshots = vec![pos.clone()];
    for _ in 0..steps {
        use adhoc_sim::mobility::Mobility;
        model.advance(&mut mover_pos, 0.25, &mut rng);
        pos[..movers].copy_from_slice(&mover_pos);
        snapshots.push(pos.clone());
    }

    // Incremental arm — recording pass first (untimed: clustering
    // clones and level accounting must not pollute the timing), then a
    // bare timed replay of the identical deterministic inputs.
    let policy = MovementConfig::tolerant(k, Algorithm::AcLmst, 1);
    let mut clusterings = Vec::with_capacity(steps);
    let mut levels: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut churn_edges, mut dirty, mut head_steps, mut cost) = (0usize, 0usize, 0usize, 0usize);
    {
        let mut grid = SpatialGrid::build(&snapshots[0], base.range);
        let mut engine = ChurnEngine::build(grid.graph(), policy);
        engine.set_workers(par);
        if let Some(s) = &sink {
            // Metrics ride the recording pass — the bare timed replay
            // below stays on the disabled handle so the observer never
            // pollutes the ms/step comparison.
            engine.set_metrics(s.metrics.clone());
        }
        for snapshot in &snapshots[1..] {
            let delta = grid.update(snapshot);
            churn_edges += delta.churn();
            let r = engine.step_delta(&delta);
            *levels.entry(r.level.name()).or_default() += 1;
            dirty += r.dirty_heads;
            head_steps += engine.clustering.heads.len();
            cost += r.cost;
            clusterings.push(engine.clustering.clone());
        }
    }
    let mut grid = SpatialGrid::build(&snapshots[0], base.range);
    let mut engine = ChurnEngine::build(grid.graph(), policy);
    engine.set_workers(par);
    let t = Instant::now();
    for snapshot in &snapshots[1..] {
        let delta = grid.update(snapshot);
        engine.step_delta(&delta);
    }
    let inc = t.elapsed().as_secs_f64();
    std::hint::black_box(engine.evaluation());
    let labels_bytes = engine.labels().memory_bytes();

    // Rebuild-every-step arm on the same clustering sequence, under
    // the same worker-pool width and algorithm scope as the engine.
    let mut scratch = EvalScratch::with_workers(par);
    scratch.set_algorithms(AlgorithmSet::only(Algorithm::AcLmst));
    let t = Instant::now();
    for (snapshot, clustering) in snapshots[1..].iter().zip(&clusterings) {
        let g = gen::unit_disk_graph(snapshot, base.range);
        let eval = pipeline::run_all_with(&g, clustering, &mut scratch);
        std::hint::black_box(eval.of(Algorithm::AcLmst).cds.size());
    }
    let reb = t.elapsed().as_secs_f64();

    outln!(
        "{n} nodes (k={k}), {movers} mobile, {steps} beacon steps: \
         {:.1} edges churned/step",
        churn_edges as f64 / steps as f64
    );
    outln!(
        "repair levels: {}",
        levels
            .iter()
            .map(|(l, c)| format!("{l}×{c}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    outln!(
        "dirty heads: {:.1}% of {} head-steps | maintenance cost {cost} node-rounds",
        100.0 * dirty as f64 / head_steps.max(1) as f64,
        head_steps
    );
    outln!(
        "incremental {:.2} ms/step vs rebuild-every-step {:.2} ms/step ({:.2}x)",
        1e3 * inc / steps as f64,
        1e3 * reb / steps as f64,
        reb / inc.max(1e-12)
    );
    outln!("labels: {labels_bytes} bytes");
    if let Some(s) = sink {
        s.finish(&[
            "reconcile.count",
            "reconcile.observe_ns",
            "reconcile.repair_ns",
            "reconcile.publish_ns",
        ]);
    }
}

/// `khop resilience`: a single-cell CLI slice of `adhoc-bench`'s
/// `resilience` bin. Builds a geometric network, pins a stale
/// pre-attack [`RoutePlan`] at its epoch, runs one adversarial attack
/// through the churn engine (optionally capped at a repair level),
/// compares stale vs live reachability over sampled pairs, then heals
/// the victims as a flash-crowd arrival burst and reports how many
/// arrivals it took to restore 100% of achievable reachability.
fn cmd_resilience(args: &Args) {
    use std::time::Instant;
    let n: usize = args.get("n", 300);
    let d: f64 = args.get("d", 6.0);
    let k: u32 = args.get("k", 2);
    let seed: u64 = args.get("seed", 1);
    let fraction: f64 = args.get("fraction", 0.2);
    let pair_count: usize = args.get("pairs", 800);
    let par = parse_workers(args);
    let sink = parse_metrics(args);
    let json = args.has("json");
    let attack = match args.opt("attack") {
        None => AttackKind::Heads,
        Some(s) => AttackKind::parse(s).unwrap_or_else(|| {
            die(&format!(
                "unknown attack {s} (heads|degree|regional|partition)"
            ))
        }),
    };
    let level = match args.opt("repair-level") {
        None => RepairLevel::Full,
        Some(s) => RepairLevel::parse(s).unwrap_or_else(|| {
            die(&format!(
                "unknown repair level {s} (none|reaffiliate|gateways|full)"
            ))
        }),
    };
    if !(fraction > 0.0 && fraction < 1.0) {
        die(&format!("--fraction must be in (0, 1) (got {fraction})"));
    }
    if pair_count == 0 {
        die("--pairs must be at least 1");
    }
    if n < 4 {
        die("--n must be at least 4");
    }

    // The attack selectors need positions (regional/partition), so
    // this command always generates its own geometry — `--input` files
    // carry no coordinates the engine could target.
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate(&gen::GeometricConfig::at_scale(n, 100.0, d), &mut rng);
    let policy = MovementConfig::strict(k, Algorithm::AcLmst).capped(level);
    let mut engine = ChurnEngine::build(&net.graph, policy);
    engine.set_workers(par);
    if let Some(s) = &sink {
        engine.set_metrics(s.metrics.clone());
    }
    engine.enable_routing();
    let stale = engine.route_plan().expect("routing enabled").clone();
    let stale_epoch = stale.epoch();

    // Deterministic sampled pairs (u != v, drawn over all ids; pairs
    // whose endpoint departs simply fall out of the denominator).
    let mut prng = StdRng::seed_from_u64(seed ^ 0x9A1C);
    let pairs: Vec<(NodeId, NodeId)> = (0..pair_count)
        .map(|_| loop {
            let u = prng.gen_range(0..n) as u32;
            let v = prng.gen_range(0..n) as u32;
            if u != v {
                break (NodeId(u), NodeId(v));
            }
        })
        .collect();

    let victims = adversary::select_victims(
        &engine,
        attack,
        fraction,
        Some((&net.positions, net.range)),
        seed ^ 0xBEEF,
    );
    let t = Instant::now();
    adversary::execute(&mut engine, &victims);
    let attack_ms = 1e3 * t.elapsed().as_secs_f64();

    let live = engine.route_plan().expect("routing stays enabled").clone();
    let adversary::Reach {
        alive: s_alive,
        routed: s_routed,
        ..
    } = adversary::reachability(&stale, &engine, &pairs);
    let adversary::Reach {
        alive: l_alive,
        achievable: l_ach,
        routed: l_routed,
    } = adversary::reachability(&live, &engine, &pairs);
    let pct = |num: usize, den: usize| 100.0 * num as f64 / den.max(1) as f64;

    // Heal: flash-crowd arrival burst, one reconcile per returnee,
    // watching for the first arrival that restores every sampled pair
    // the live component structure can serve.
    let t = Instant::now();
    let mut to_full: Option<usize> = None;
    for (i, &v) in victims.iter().enumerate() {
        adversary::heal(&mut engine, &net.graph, &[v]);
        if to_full.is_none() {
            let plan = engine.route_plan().expect("routing stays enabled");
            let r = adversary::reachability(plan, &engine, &pairs);
            if r.alive == pairs.len() && r.routed == r.achievable {
                to_full = Some(i + 1);
            }
        }
    }
    let heal_ms = 1e3 * t.elapsed().as_secs_f64();
    let restored = TopologyDelta::between(engine.graph(), &net.graph).is_empty();
    let final_plan = engine.route_plan().expect("routing stays enabled").clone();
    let adversary::Reach {
        alive: f_alive,
        achievable: f_ach,
        routed: f_routed,
    } = adversary::reachability(&final_plan, &engine, &pairs);

    if json {
        let post_attack = serde_json::json!({
            "stale_routed_pct_of_alive": pct(s_routed, s_alive),
            "live_routed_pct_of_alive": pct(l_routed, l_alive),
            "live_routed_pct_of_achievable": pct(l_routed, l_ach),
            "achievable_pairs": l_ach,
            "repair_ms": attack_ms,
            "live_epoch": live.epoch()
        });
        let heal = serde_json::json!({
            "heal_ms": heal_ms,
            "arrivals_to_full": to_full,
            "final_routed_pct_of_achievable": pct(f_routed, f_ach),
            "final_alive_pairs": f_alive,
            "topology_restored": restored,
            "valid": engine.is_valid()
        });
        let doc = serde_json::json!({
            "schema": "khop-cli-resilience/v1",
            "n": n,
            "k": k,
            "d": d,
            "seed": seed,
            "attack": attack.name(),
            "fraction": fraction,
            "repair_level": level.name(),
            "victims": victims.len(),
            "sampled_pairs": pairs.len(),
            "stale_epoch": stale_epoch,
            "post_attack": post_attack,
            "heal": heal
        });
        outln!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("resilience JSON serializes")
        );
        if let Some(s) = sink {
            s.finish(RESILIENCE_METRIC_KEYS);
        }
        return;
    }

    outln!(
        "{n} nodes (k={k}), {} attack removing {} ({:.1}%), repair capped at {}",
        attack.name(),
        victims.len(),
        100.0 * fraction,
        level.name()
    );
    outln!(
        "post-attack: stale plan (epoch {stale_epoch}) routes {:.1}% of {} alive pairs; \
         live plan (epoch {}) routes {:.1}% ({:.1}% of achievable)",
        pct(s_routed, s_alive),
        s_alive,
        live.epoch(),
        pct(l_routed, l_alive),
        pct(l_routed, l_ach)
    );
    outln!(
        "attack repair: {attack_ms:.1} ms total ({:.2} ms/victim)",
        attack_ms / victims.len().max(1) as f64
    );
    match to_full {
        Some(a) => outln!(
            "heal: {heal_ms:.1} ms for {} arrivals; 100% of achievable restored after {a}",
            victims.len()
        ),
        None => outln!(
            "heal: {heal_ms:.1} ms for {} arrivals; full reachability NOT restored \
             (final {:.1}% of achievable)",
            victims.len(),
            pct(f_routed, f_ach)
        ),
    }
    outln!(
        "final: topology restored={restored}, clustering valid={}",
        engine.is_valid()
    );
    if let Some(s) = sink {
        s.finish(RESILIENCE_METRIC_KEYS);
    }
}

/// Metrics every `khop resilience --metrics=FILE` file must carry: the
/// attack drives reconciles and each reconcile republishes the plan.
const RESILIENCE_METRIC_KEYS: &[&str] = &["reconcile.count", "plan.published", "plan.compile_ns"];

/// `khop route`: compile a [`RoutePlan`] over one algorithm's backbone
/// and serve a query batch through it — compiled single-worker,
/// compiled multi-worker, and the per-query-BFS baseline, with
/// checksummed-equal walks (a CLI-sized slice of `adhoc-bench`'s
/// `routing_serve` bin).
fn cmd_route(args: &Args) {
    use std::time::Instant;
    let g = obtain_graph(args);
    let k: u32 = args.get("k", 2);
    let queries: usize = args.get("queries", 5000);
    let workers = workers_flag(args, 2);
    let seed: u64 = args.get("seed", 1);
    let inter: InterMode = args.get("inter", InterMode::Auto);
    let mix: Mix = args.get("mix", Mix::Uniform);
    let sink = parse_metrics(args);
    let alg_name = args.opt("alg").unwrap_or("ac-lmst");
    if alg_name.eq_ignore_ascii_case("all") {
        die("route serves one backbone; pick a single algorithm");
    }
    let alg = parse_alg(alg_name);
    if queries == 0 {
        die("--queries must be at least 1");
    }

    let par = Parallelism::new(workers);
    let metrics = sink
        .as_ref()
        .map_or(Metrics::disabled(), |s| s.metrics.clone());
    let clustering = clustering::cluster(&g, k, &LowestId, MemberPolicy::IdBased);
    let mut scratch = EvalScratch::with_workers(par);
    scratch.set_metrics(metrics.clone());
    let eval = pipeline::run_all_with(&g, &clustering, &mut scratch);
    let links = eval.selected_links(alg);
    let t = Instant::now();
    let plan = RoutePlan::compile_metered(
        &g,
        &clustering,
        scratch.labels(),
        links.iter().copied(),
        inter,
        par,
        &metrics,
    );
    let build_ms = 1e3 * t.elapsed().as_secs_f64();
    let baseline = ClusterRouter::with_graph(
        &clustering,
        adhoc_cluster::virtual_graph::VirtualGraph::from_links(&clustering.heads, links),
    );

    let workload = Workload::new(&plan);
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = workload.generate(&plan, mix, queries, &mut rng);

    // Only the x1 arm reports into the sink, so `query.count` equals
    // `--queries` (its q/s then includes the per-query clock reads;
    // run without `--metrics` for clean timings).
    let t = Instant::now();
    let single = QueryEngine::with_metrics(&plan, 1, &metrics).route_many(&pairs);
    let single_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let multi = QueryEngine::with_workers(&plan, workers).route_many(&pairs);
    let multi_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut legacy_scratch = LegacyScratch::new();
    let mut bfs_sums = Vec::with_capacity(pairs.len());
    for &(u, v) in &pairs {
        bfs_sums.push(match baseline.route_with(&g, u, v, &mut legacy_scratch) {
            Some(w) => routing::walk_checksum(&w),
            None => 0,
        });
    }
    let bfs_secs = t.elapsed().as_secs_f64();
    let bfs_checksum = routing::fold_checksums(&bfs_sums);
    if multi.checksum != single.checksum || bfs_checksum != single.checksum {
        die("serving arms produced different walks — route equivalence violated");
    }

    let routable = pairs.len() - single.unreachable;
    let mean_hops = if routable == 0 {
        0.0
    } else {
        single.total_hops as f64 / routable as f64
    };
    let tables = TableStats::measure(&g, &clustering);
    if args.has("json") {
        outln!(
            "{}",
            serde_json::json!({
                "algorithm": alg.name(),
                "k": k,
                "nodes": g.len(),
                "mix": mix.name(),
                "queries": queries,
                "heads": plan.heads().len(),
                "links": plan.link_count(),
                "build_ms": build_ms,
                "plan_memory_bytes": plan.memory_bytes(),
                "inter_mode": inter.name(),
                "inter_layout": plan.inter_layout(),
                "inter_bytes": plan.inter_memory_bytes(),
                "inter_dense_projected_bytes": plan.projected_dense_inter_bytes(),
                "mean_hops": mean_hops,
                "unreachable": single.unreachable,
                "plan_qps": queries as f64 / single_secs.max(1e-12),
                "plan_qps_multi": queries as f64 / multi_secs.max(1e-12),
                "workers": workers,
                "bfs_qps": queries as f64 / bfs_secs.max(1e-12),
                "member_table_mean": tables.member_mean,
                "head_table_entries": tables.head_entries,
                "flat_table_entries": tables.flat_entries,
                "checksum": format!("{:016x}", single.checksum),
            })
        );
    } else {
        outln!(
            "{} backbone on {} nodes (k={k}): {} heads, {} links; plan compiled in {build_ms:.2} ms ({} bytes)",
            alg.name(),
            g.len(),
            plan.heads().len(),
            plan.link_count(),
            plan.memory_bytes()
        );
        outln!(
            "inter-head table: {} layout ({} bytes; dense h*h would be {})",
            plan.inter_layout(),
            plan.inter_memory_bytes(),
            plan.projected_dense_inter_bytes(),
        );
        outln!(
            "{queries} {} queries: mean {mean_hops:.2} hops, {} unreachable",
            mix.name(),
            single.unreachable
        );
        outln!(
            "compiled: {:>10.0} q/s | compiled x{workers}: {:>10.0} q/s | per-query BFS: {:>10.0} q/s ({:.1}x)",
            queries as f64 / single_secs.max(1e-12),
            queries as f64 / multi_secs.max(1e-12),
            queries as f64 / bfs_secs.max(1e-12),
            bfs_secs / single_secs.max(1e-12),
        );
        outln!(
            "tables: member {:.1} entries mean (min {} / max {}), head {}, flat {}",
            tables.member_mean,
            tables.member_min,
            tables.member_max,
            tables.head_entries,
            tables.flat_entries
        );
    }
    if let Some(s) = sink {
        s.finish(&[
            "plan.compile_ns",
            "query.count",
            "query.hops",
            "query.latency_ns",
        ]);
    }
}

fn cmd_mac(args: &Args) {
    let g = obtain_graph(args);
    let k: u32 = args.get("k", 1);
    let cw: u32 = args.get("cw", 8);
    let seed: u64 = args.get("seed", 1);
    if cw == 0 {
        die("--cw must be at least 1");
    }
    let out = pipeline::run(&g, Algorithm::AcLmst, &PipelineConfig::new(k));
    let mut rng = StdRng::seed_from_u64(seed);
    outln!(
        "{:<10} {:>6} {:>10} {:>9} {:>8}",
        "strategy",
        "tx",
        "collisions",
        "delivered",
        "latency"
    );
    for (name, strategy) in [
        ("flood", BroadcastStrategy::BlindFlood),
        ("backbone", BroadcastStrategy::Backbone),
    ] {
        let r = mac::simulate_with_mac(
            &g,
            &out.clustering,
            &out.cds,
            NodeId(0),
            strategy,
            &MacConfig {
                cw,
                ..MacConfig::default()
            },
            &mut rng,
        );
        outln!(
            "{name:<10} {:>6} {:>10} {:>9} {:>7}s",
            r.transmissions,
            r.collisions,
            r.delivered,
            r.latency_slots
        );
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        die("missing command");
    };
    let Some(&(_, command, allowed)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        die(&format!("unknown command {cmd}"));
    };
    let args = Args::parse(rest);
    args.check(allowed);
    command(&args);
}
