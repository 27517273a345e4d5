//! `churn-serve`: the write path under localized mobility churn, with
//! reads beside the writes.
//!
//! N = 2000, D = 6, k = 2 on a field of side 100·√(N/200) (connectivity
//! not required, as in the `churn` bench). AC-LMST is maintained under
//! the tolerant movement policy with routing on. Each step, ten
//! random-waypoint movers advance by dt = 0.25 and the spatial grid's
//! edge delta is reconciled; every 20th step one static node departs
//! and the node that departed at the previous event re-arrives. After
//! every reconcile a 200-pair uniform batch is served from the
//! published plan.
//!
//! One *episode* is a network's fixed pre-generated op sequence,
//! replayed from a clone of its freshly built engine; a *round* plays
//! every network's episode once, and a run plays whole rounds until its
//! time is spent, so every round measures the same inputs.

use crate::report::{self, Fingerprint, Latencies, Metrics, Obs};
use crate::{Outcome, RunSpec};
use adhoc_cluster::pipeline::Algorithm;
use adhoc_cluster::routing::{BatchResult, InterMode, QueryEngine, RoutePlan, UNROUTABLE};
use adhoc_graph::delta::TopologyDelta;
use adhoc_graph::gen::{self, GeometricConfig, SpatialGrid};
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::obs;
use adhoc_graph::par::Parallelism;
use adhoc_graph::Point;
use adhoc_sim::churn::{ChurnEngine, ReconcileState};
use adhoc_sim::invariants;
use adhoc_sim::mobility::{Mobility, RandomWaypoint, WaypointConfig};
use adhoc_sim::movement::{MovementConfig, RepairLevel, StepReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::collections::VecDeque;
use std::time::Instant;

const ALG: Algorithm = Algorithm::AcLmst;

#[derive(Clone, Debug)]
pub struct Config {
    pub n: usize,
    pub d: f64,
    pub k: u32,
    pub movers: usize,
    pub dt: f64,
    /// A depart/arrive event every this many steps.
    pub event_every: usize,
    /// Events a departed node stays away before it re-arrives.
    pub away_events: usize,
    pub batch: usize,
    /// Distinct query batches, served round-robin.
    pub batch_pool: usize,
    pub episode_steps: usize,
    /// Independent networks per run, each with its own episode: the
    /// run's figures pool them, so no single deployment sets them.
    pub networks: usize,
    pub setup_reps: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            n: 2000,
            d: 6.0,
            k: 2,
            movers: 10,
            dt: 0.25,
            event_every: 20,
            away_events: 1,
            batch: 200,
            batch_pool: 64,
            episode_steps: 60,
            networks: 24,
            setup_reps: 3,
        }
    }

    pub fn short() -> Self {
        Config {
            n: 300,
            episode_steps: 60,
            batch_pool: 8,
            networks: 2,
            setup_reps: 2,
            ..Config::full()
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Step(TopologyDelta),
    Depart(NodeId),
    Arrive(NodeId, Vec<NodeId>),
}

struct Inputs {
    graph: Graph,
    ops: Vec<Op>,
    batches: Vec<Vec<(NodeId, NodeId)>>,
    fingerprint: Fingerprint,
}

/// Edges touching a departed node are not part of the engine's
/// topology, so they are dropped from the grid's delta.
fn alive_only(delta: TopologyDelta, departed: &[bool]) -> TopologyDelta {
    let keep = |&(a, b): &(NodeId, NodeId)| !departed[a.index()] && !departed[b.index()];
    TopologyDelta {
        added: delta.added.into_iter().filter(keep).collect(),
        removed: delta.removed.into_iter().filter(keep).collect(),
    }
}

fn generate(cfg: &Config, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0125_E12E);
    let n = cfg.n;
    let side = 100.0 * (n as f64 / 200.0).sqrt();
    let mut gcfg = GeometricConfig::new(n, side, cfg.d);
    gcfg.require_connected = false;
    let net = gen::geometric(&gcfg, &mut rng);
    let mut pos = net.positions.clone();

    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..cfg.movers {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let (movers, statics) = idx.split_at(cfg.movers);
    let mut model = RandomWaypoint::new(
        cfg.movers,
        WaypointConfig {
            side,
            min_speed: 1.0,
            max_speed: 3.0,
            pause: 2.0,
        },
        &mut rng,
    );
    let mut mover_pos: Vec<Point> = movers.iter().map(|&i| pos[i]).collect();
    let place = |mover_pos: &[Point], pos: &mut [Point]| {
        for (slot, &i) in movers.iter().enumerate() {
            pos[i] = mover_pos[slot];
        }
    };
    // Warm the model to its steady state before the first snapshot.
    model.advance(&mut mover_pos, 40.0, &mut rng);
    place(&mover_pos, &mut pos);
    let mut grid = SpatialGrid::build(&pos, net.range);
    let graph = grid.graph().clone();

    let mut departed = vec![false; n];
    let mut away: VecDeque<NodeId> = VecDeque::new();
    let mut ops = Vec::new();
    for step in 1..=cfg.episode_steps {
        model.advance(&mut mover_pos, cfg.dt, &mut rng);
        place(&mover_pos, &mut pos);
        ops.push(Op::Step(alive_only(grid.update(&pos), &departed)));
        if step % cfg.event_every == 0 {
            let u = loop {
                let s = statics[rng.gen_range(0..statics.len())];
                if !departed[s] {
                    break NodeId(s as u32);
                }
            };
            departed[u.index()] = true;
            away.push_back(u);
            ops.push(Op::Depart(u));
            if away.len() > cfg.away_events {
                let a = away.pop_front().expect("queue is non-empty");
                departed[a.index()] = false;
                let nbrs: Vec<NodeId> = grid
                    .graph()
                    .neighbors(a)
                    .iter()
                    .copied()
                    .filter(|w| !departed[w.index()])
                    .collect();
                ops.push(Op::Arrive(a, nbrs));
            }
        }
    }
    let batches: Vec<Vec<(NodeId, NodeId)>> = (0..cfg.batch_pool)
        .map(|_| uniform_pairs(n, cfg.batch, &mut rng))
        .collect();

    let mut fp = Fingerprint::default();
    for (a, b) in graph.edges() {
        fp.mix(u64::from(a.0) << 32 | u64::from(b.0));
    }
    for op in &ops {
        match op {
            Op::Step(d) => {
                fp.mix(1);
                for &(a, b) in d.added.iter().chain(&d.removed) {
                    fp.mix(u64::from(a.0) << 32 | u64::from(b.0));
                }
            }
            Op::Depart(u) => fp.mix(2 << 32 | u64::from(u.0)),
            Op::Arrive(u, nb) => {
                fp.mix(3 << 32 | u64::from(u.0));
                nb.iter().for_each(|w| fp.mix(u64::from(w.0)));
            }
        }
    }
    for b in &batches {
        b.iter()
            .for_each(|&(u, v)| fp.mix(u64::from(u.0) << 32 | u64::from(v.0)));
    }
    Inputs {
        graph,
        ops,
        batches,
        fingerprint: fp,
    }
}

/// `count` uniform source/target pairs over `0..n` with `u != v`.
pub fn uniform_pairs(n: usize, count: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..n as u32);
            let mut v = rng.gen_range(0..n as u32 - 1);
            if v >= u {
                v += 1;
            }
            (NodeId(u), NodeId(v))
        })
        .collect()
}

fn reconcile(engine: &mut ChurnEngine, op: &Op) -> StepReport {
    match op {
        Op::Step(d) => engine.step_delta(d),
        Op::Depart(u) => engine.depart(*u),
        Op::Arrive(u, nb) => engine.arrive(*u, nb),
    }
}

/// Wall time of one reconcile driven phase by phase through the public
/// state machine: observe (`begin_*`), repair (first `resume`), publish
/// (second `resume`), in microseconds.
fn reconcile_phased(engine: &mut ChurnEngine, op: &Op) -> (StepReport, f64, [f64; 3]) {
    let mut phases = [0.0; 3];
    let t0 = Instant::now();
    let mut state = match op {
        Op::Step(d) => engine.begin_delta(d),
        Op::Depart(u) => engine.begin_depart(*u),
        Op::Arrive(u, nb) => engine.begin_arrive(*u, nb),
    };
    let mut mark = Instant::now();
    phases[0] = (mark - t0).as_secs_f64() * 1e6;
    let mut phase = 1;
    let report = loop {
        match state {
            ReconcileState::Done(report) => break report,
            live => {
                state = engine.resume(live);
                let now = Instant::now();
                phases[phase.min(2)] += (now - mark).as_secs_f64() * 1e6;
                mark = now;
                phase += 1;
            }
        }
    };
    (report, t0.elapsed().as_secs_f64() * 1e6, phases)
}

/// I1 (maintained state ≡ cold rebuild) and I3 (served walks ≡ a
/// freshly compiled plan's, and valid on the current graph). Returns a
/// description of each disagreement.
fn check_step(
    engine: &ChurnEngine,
    batch: &[(NodeId, NodeId)],
    served: &BatchResult,
    par: Parallelism,
) -> Vec<String> {
    let mut bad: Vec<String> = invariants::check_equivalence(engine)
        .into_iter()
        .map(|v| format!("{}: {}", v.invariant, v.detail))
        .collect();
    let plan = engine.route_plan().expect("routing is enabled");
    let fresh = RoutePlan::compile_tuned(
        engine.graph(),
        &engine.clustering,
        engine.labels(),
        engine.evaluation().selected_links(ALG),
        InterMode::Auto,
        par,
    );
    if QueryEngine::new(&fresh).route_many(batch) != *served {
        bad.push("I3: served batch differs from a freshly compiled plan".into());
    }
    let mut walk = Vec::new();
    for &(u, v) in batch {
        if plan.route_into(u, v, &mut walk).is_some()
            && (walk.first() != Some(&u)
                || walk.last() != Some(&v)
                || !adhoc_cluster::routing::is_valid_walk(engine.graph(), &walk))
        {
            bad.push(format!("I3: walk {u:?}->{v:?} is not a valid walk"));
        }
    }
    bad
}

#[derive(Default)]
struct Tally {
    reconciles: u64,
    wall_us: f64,
    phases_us: [f64; 3],
    full_level: u64,
    dirty_frac_sum: f64,
    queries: u64,
    serve_s: f64,
    hop_split: [f64; 3],
    routable: u64,
    unroutable: u64,
}

/// Accumulators of one run across networks and rounds.
#[derive(Default)]
struct Run {
    plain: Tally,
    traced: Tally,
    /// Untraced reconcile latencies, one chunk per round.
    latencies: Latencies,
    failures: Vec<String>,
    checked_steps: u64,
    /// Round-0 quality readings: Σ CDS size over reconciles, served
    /// hops and routable pairs, end-of-round bytes.
    cds_sum: f64,
    hops: (u64, u64),
    memory_bytes: usize,
}

/// Replays one round: every network's episode in turn, each from a
/// clone of its freshly built engine (one engine at a time, as one
/// maintainer would run it). A traced round attaches the layer
/// registry and drives each reconcile phase by phase; round 0 records
/// the quality readings.
fn play_round(
    run: &mut Run,
    nets: &[Inputs],
    templates: &[ChurnEngine],
    round: usize,
    checked: &[usize],
    ctx: &Ctx,
) {
    let traced = ctx.spec.trace && round % 2 == 1;
    for ((inputs, template), &check) in nets.iter().zip(templates).zip(checked) {
        let mut engine = template.clone();
        if traced {
            engine.set_metrics(ctx.registry.clone());
        }
        for (i, op) in inputs.ops.iter().enumerate() {
            play_op(
                run,
                inputs,
                &mut engine,
                i,
                op,
                traced,
                round,
                check == i,
                ctx,
            );
        }
        if round == 0 {
            run.memory_bytes += engine.labels().memory_bytes()
                + engine
                    .route_plan()
                    .expect("routing is enabled")
                    .memory_bytes();
        }
    }
}

/// What every op of a run shares.
struct Ctx<'a> {
    spec: &'a RunSpec,
    registry: &'a obs::Metrics,
}

/// One reconcile, then one batch served from the published plan, then
/// the checks (outside timing).
#[allow(clippy::too_many_arguments)]
fn play_op(
    run: &mut Run,
    inputs: &Inputs,
    engine: &mut ChurnEngine,
    i: usize,
    op: &Op,
    traced: bool,
    round: usize,
    check: bool,
    ctx: &Ctx,
) {
    let workers = ctx.spec.workers;
    let tally = if traced {
        &mut run.traced
    } else {
        &mut run.plain
    };
    let (report, wall_us) = if traced {
        let (report, wall, phases) = reconcile_phased(engine, op);
        for (acc, p) in tally.phases_us.iter_mut().zip(phases) {
            *acc += p;
        }
        (report, wall)
    } else {
        let t = Instant::now();
        let report = reconcile(engine, op);
        let wall = t.elapsed().as_secs_f64() * 1e6;
        // One chunk per round: each holds every network's episode.
        run.latencies.push(round, wall);
        (report, wall)
    };
    tally.reconciles += 1;
    tally.wall_us += wall_us;
    tally.full_level += u64::from(report.level == RepairLevel::Full);
    tally.dirty_frac_sum += report::ratio(
        report.dirty_heads as f64,
        engine.clustering.heads.len() as f64,
    );

    let batch = &inputs.batches[i % inputs.batches.len()];
    let plan = engine.route_plan().expect("routing is enabled");
    let server = if traced {
        QueryEngine::with_metrics(plan, workers, ctx.registry)
    } else {
        QueryEngine::with_workers(plan, workers)
    };
    let t = Instant::now();
    let served = server.route_many(batch);
    tally.serve_s += t.elapsed().as_secs_f64();
    tally.queries += batch.len() as u64;

    if traced {
        for (&(u, v), &h) in batch.iter().zip(&served.hops) {
            if h == UNROUTABLE {
                tally.unroutable += 1;
                continue;
            }
            let up = plan.affiliation(u).map_or(0, |a| a.1) as f64;
            let down = plan.affiliation(v).map_or(0, |a| a.1) as f64;
            tally.hop_split[0] += up;
            tally.hop_split[1] += f64::from(h) - up - down;
            tally.hop_split[2] += down;
            tally.routable += 1;
        }
    }
    // An invalid verdict is only legitimate while the survivors are
    // disconnected (no CDS can verify there; invariant I2).
    if !report.valid && engine.alive_connected() {
        run.failures
            .push(format!("op {i}: invalid structure on connected survivors"));
    }
    if check {
        run.checked_steps += 1;
        let bad = check_step(engine, batch, &served, Parallelism::new(workers));
        if !bad.is_empty() {
            run.failures.push(format!("op {i}: {}", bad.join("; ")));
        }
    }
    if round == 0 {
        run.cds_sum += engine.evaluation().of(ALG).cds.size() as f64;
        run.hops.0 += served.total_hops;
        run.hops.1 += (batch.len() - served.unreachable) as u64;
    }
}

fn build_engine(inputs: &Inputs, cfg: &Config, par: Parallelism) -> ChurnEngine {
    let mut engine = ChurnEngine::build(&inputs.graph, MovementConfig::tolerant(cfg.k, ALG, 1));
    engine.set_workers(par);
    engine.enable_routing();
    engine
}

pub fn run(spec: &RunSpec, cfg: &Config) -> Outcome {
    let par = Parallelism::new(spec.workers);
    let mut seeder = StdRng::seed_from_u64(spec.seed ^ 0xC4_0125_E12E);
    let nets: Vec<Inputs> = (0..cfg.networks)
        .map(|_| generate(cfg, seeder.gen()))
        .collect();
    let mut fp = Fingerprint::default();
    nets.iter().for_each(|n| fp.mix(n.fingerprint.value()));

    // Set-up: generated inputs to a servable engine, for every network.
    let mut setups = Vec::new();
    let mut templates = Vec::new();
    for _ in 0..cfg.setup_reps {
        let t = Instant::now();
        templates = nets.iter().map(|n| build_engine(n, cfg, par)).collect();
        setups.push(t.elapsed().as_secs_f64());
    }

    let registry = obs::Metrics::enabled();
    let mut run = Run::default();
    let mut check_rng = StdRng::seed_from_u64(spec.seed ^ 0x5A3D_C0DE);
    let ctx = Ctx {
        spec,
        registry: &registry,
    };
    let deadline = Instant::now() + spec.duration;
    let mut round = 0usize;
    // Whole rounds only, so every network weighs the same; a traced
    // run alternates untraced and traced rounds for the overhead ratio.
    loop {
        let checked: Vec<usize> = nets
            .iter()
            .map(|n| check_rng.gen_range(0..n.ops.len()))
            .collect();
        play_round(&mut run, &nets, &templates, round, &checked, &ctx);
        round += 1;
        let enough = !spec.trace || round >= 2;
        if Instant::now() >= deadline && enough {
            break;
        }
    }

    let Run {
        plain,
        traced,
        latencies,
        failures,
        checked_steps,
        ..
    } = &run;
    let ops_per_round: usize = nets.iter().map(|n| n.ops.len()).sum();
    let p50 = latencies.percentile(0.5);
    let p75 = latencies.percentile(0.75);
    let p99 = latencies.percentile(0.99);
    let setup_s = report::median(&setups);
    let reconcile_per_s = latencies.rate();
    let serve_qps = plain.queries as f64 / plain.serve_s;
    let cds_size = run.cds_sum / ops_per_round as f64;
    let mean_hops = report::ratio(run.hops.0 as f64, run.hops.1 as f64);
    // Served-state footprint after set-up, mean per network. The
    // end-of-round figure (recorded too) carries the Vec growth slack
    // of whatever the episode allocated, which makes it jumpy.
    let served_bytes = |e: &ChurnEngine| {
        e.labels().memory_bytes() + e.route_plan().expect("routing is enabled").memory_bytes()
    };
    let memory_mb =
        templates.iter().map(served_bytes).sum::<usize>() as f64 / templates.len() as f64 / 1e6;
    let memory_mb_after_round = run.memory_bytes as f64 / nets.len() as f64 / 1e6;
    let attempted = plain.reconciles + traced.reconciles + plain.queries + traced.queries;
    let failed = failures.len() as u64;
    let template = &templates[0];

    let mut e2e = Metrics::default();
    e2e.put("setup_s", setup_s, "s");
    e2e.put("ops_per_s", reconcile_per_s, "1/s");
    e2e.put("op_p75_us", p75.value, "us");
    e2e.put("cds_size", cds_size, "nodes");
    e2e.put("mean_hops", mean_hops, "hops");
    e2e.put("memory_mb", memory_mb, "MB");

    let mut named = Metrics::default();
    named.put("setup_s", setup_s, "s");
    named.put("reconcile_p50_us", p50.value, "us");
    named.put("reconcile_p75_us", p75.value, "us");
    named.put("reconcile_p99_us", p99.value, "us");
    named.put("reconcile_per_s", reconcile_per_s, "1/s");
    named.put("serve_qps", serve_qps, "q/s");
    named.put("cds_size", cds_size, "nodes");
    named.put("mean_hops", mean_hops, "hops");
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
        let ops = traced.reconciles as f64;
        let o = Obs { snap: &snap, ops };
        let wall = traced.wall_us / ops;
        let [observe, repair, publish] = traced.phases_us.map(|p| p / ops);
        let unattributed = wall - observe - repair - publish;
        let advance = o.span_us("labels.advance_ns");
        let sweep = o.span_us("labels.sweep_ns");
        let tail = o.span_us("pipeline.eval_tail_ns");
        let compile = o.span_us("plan.compile_ns");
        let apply = o.span_us("plan.apply_delta_ns");
        let inner = advance + sweep + tail + compile + apply;
        let mean_bytes = |f: &dyn Fn(&ChurnEngine) -> usize| {
            templates.iter().map(f).sum::<usize>() as f64 / templates.len() as f64
        };
        let plan_of = |e: &ChurnEngine| e.route_plan().expect("routing is enabled").clone();
        let routable = traced.routable.max(1) as f64;
        per_layer.put("churn.observe_us", observe, "us");
        per_layer.put("churn.repair_us", repair, "us");
        per_layer.put("churn.publish_us", publish, "us");
        per_layer.put("churn.unattributed_us", unattributed, "us");
        per_layer.put(
            "churn.dirty_head_frac",
            traced.dirty_frac_sum / ops,
            "fraction",
        );
        per_layer.put(
            "churn.rebuild_frac",
            traced.full_level as f64 / ops,
            "fraction",
        );
        per_layer.put("labels.advance_us", advance, "us");
        per_layer.put("labels.sweep_us", sweep, "us");
        per_layer.put(
            "labels.rows_repaired",
            o.per_op("labels.rows_repaired"),
            "count/op",
        );
        per_layer.put(
            "labels.fallback_frac",
            report::ratio(
                o.counter("labels.rebuild_fallback") as f64,
                o.span_count("labels.advance_ns") as f64,
            ),
            "fraction",
        );
        per_layer.put(
            "labels.bytes",
            mean_bytes(&|e| e.labels().memory_bytes()),
            "bytes",
        );
        per_layer.put(
            "labels.sparse",
            f64::from(u8::from(template.labels().is_sparse())),
            "flag",
        );
        per_layer.put("pipeline.eval_tail_us", tail, "us");
        per_layer.put("plan.compile_us", compile, "us");
        per_layer.put("plan.apply_delta_us", apply, "us");
        per_layer.put("plan.recompiles", o.per_op("plan.compiled"), "count/op");
        per_layer.put(
            "plan.resweeped_nodes",
            o.per_op("plan.resweeped_nodes"),
            "count/op",
        );
        per_layer.put(
            "plan.bytes",
            mean_bytes(&|e| plan_of(e).memory_bytes()),
            "bytes",
        );
        per_layer.put(
            "inter.bytes",
            mean_bytes(&|e| plan_of(e).inter_memory_bytes()),
            "bytes",
        );
        per_layer.put(
            "inter.build_us",
            o.span_us("inter.dense_build_ns") + o.span_us("hub.build_ns"),
            "us",
        );
        per_layer.put(
            "inter.recomputed",
            o.per_op("inter.dense_recomputed") + o.per_op("hub.repaired") + o.per_op("hub.rebuilt"),
            "count/op",
        );
        per_layer.put(
            "inter.hub",
            f64::from(u8::from(plan_of(template).inter_layout() == "hub")),
            "flag",
        );
        per_layer.put("hub.dirty_hubs", o.per_op("hub.dirty_hubs"), "count/op");
        let q = Obs {
            snap: &snap,
            ops: traced.queries as f64,
        };
        per_layer.put("query.route_us", q.span_us("query.latency_ns"), "us");
        per_layer.put("query.ascent_hops", traced.hop_split[0] / routable, "hops");
        per_layer.put("query.inter_hops", traced.hop_split[1] / routable, "hops");
        per_layer.put("query.descent_hops", traced.hop_split[2] / routable, "hops");
        per_layer.put(
            "query.unroutable",
            traced.unroutable as f64 / traced.queries as f64,
            "fraction",
        );
        per_layer.put(
            "trace.overhead_ratio",
            (traced.wall_us / traced.reconciles as f64) / (plain.wall_us / plain.reconciles as f64),
            "ratio",
        );
        layers = json!({
            "per": "reconcile",
            "reconcile_us": wall,
            "churn.observe_us": observe,
            "churn.repair_us": repair,
            "churn.publish_us": publish,
            "unattributed_us": unattributed,
            "phase_coverage": (observe + repair + publish) / wall,
            "observe_publish": json!({
                "total_us": observe + publish,
                "labels.advance_us": advance,
                "labels.sweep_us": sweep,
                "pipeline.eval_tail_us": tail,
                "plan.compile_us": compile,
                "plan.apply_delta_us": apply,
                "unattributed_us": observe + publish - inner,
                "span_coverage": inner / (observe + publish),
                "unattributed_is": "observe: orphan and merge detection scans; publish: validity checks (backbone connectivity, survivor connectivity on a disconnected field), CDS copies, and run_all_with's NC/virtual-graph stage on full rebuilds; none emits a span",
            }),
        });
    }

    let plan = template.route_plan().expect("routing is enabled");
    Outcome {
        attempted,
        failed,
        failures: failures.clone(),
        end_to_end: e2e,
        named,
        per_layer,
        percentiles: latencies.to_json("reconcile"),
        layers,
        choices: json!({
            "labels": template.labels().layout_name(),
            "inter": plan.inter_layout(),
            "heads": template.clustering.heads.len(),
        }),
        fingerprint: fp.hex(),
        detail: json!({
            "n": cfg.n,
            "networks": nets.len(),
            "rounds": round,
            "ops_per_round": ops_per_round,
            "memory_mb_after_round_0": memory_mb_after_round,
            "reconciles_timed": plain.reconciles,
            "reconciles_traced": traced.reconciles,
            "queries": plain.queries + traced.queries,
            "checked_steps": checked_steps,
            "setup_s_samples": setups,
        }),
    }
}
