//! One run of one workload: set-up, the timed phases, the oracle checks,
//! and the metrics by name.
//!
//! The live phases (ingest, progressive) do a fixed amount of work and run
//! first. What is left of `--seconds` goes to cycles of one build round,
//! one `cube_ready` sample, one point pass and one navigation pass each —
//! and, in the first cycles, one more progressive build: a metric's samples
//! are spread over the whole run that way, so a slow spell of the host
//! lands in one sample of every metric, not in every sample of one.

use crate::build::{
    build_round, ready_once, traced_builds, traced_ready, warm_up, Builds, ReadySample, READY_PARTS,
};
use crate::inputs::{set_up, Inputs};
use crate::json::{obj, Json};
use crate::live::{ingest_phase, live_oracle, progressive_phase, Ingest, LiveOracle, Progressive};
use crate::serve::{
    direct_get_ns, direct_scan_us, nav_pass, point_pass, replay, NavStats, PointStats,
};
use crate::span;
use crate::spec::{self, ALGS, KINDS, PROGRESSIVE_LAYERS, READY_LAYERS, REFRESH_LAYERS};
use crate::stats::{median, median_or_zero, peak_rss_mb, quantile_sorted};
use crate::workload::{PointPhase, Workload};
use icecube_serve::{CubeServer, ShardedCube};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What every phase needs to know about the run.
pub struct Env {
    pub w: Workload,
    /// Host cores: executor workers = server workers = shards.
    pub nproc: usize,
    /// Closed-loop clients on a quiet server: half the cores. A request in
    /// flight keeps two threads going in turn, its client and the worker
    /// that answers it; with a core for each, nothing waits for a core.
    /// (`nproc` clients were tried: on two cores their four threads' point
    /// throughput moved by 2-4x from one window of 8 192 requests to the
    /// next, one client's by 3 %.)
    pub clients: usize,
    pub traced: bool,
    pub seed: u64,
}

/// Operations attempted and failed. A build whose cells differ from the
/// oracle, an error response, a refresh or fold that errs or diverges and
/// every failed oracle check count as failed.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.ops(1, u64::from(!ok));
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub corrupt_oracle: bool,
    pub out: Option<PathBuf>,
}

pub struct RunResult {
    pub tally: Tally,
    /// `(name, value)` of every metric of this run's mode, in spec order.
    pub metrics: Vec<(String, f64)>,
    /// Sizes, counts and sample counts actually used.
    pub detail: BTreeMap<&'static str, f64>,
    /// The samples behind the medians, for reading a result's spread.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}

/// `cube_ready` samples: the chain's time and each layer's, per sample.
#[derive(Default)]
struct ReadyStats {
    ready_s: Vec<f64>,
    layers: [Vec<f64>; READY_PARTS],
    peak_store_mb: f64,
    peak_shards_mb: f64,
    /// Traced run: the chain with recording off, and recorded.
    untraced_s: f64,
    traced_s: f64,
}

impl ReadyStats {
    fn push(&mut self, sample: &ReadySample) {
        self.ready_s.push(sample.total_s);
        for (slot, secs) in self.layers.iter_mut().zip(sample.layers) {
            slot.push(secs);
        }
    }
}

/// Everything the phases of one run measured.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    ingest: Ingest,
    /// One entry per progressive build of the run.
    progressive: Vec<Progressive>,
    builds: Builds,
    ready: ReadyStats,
    /// Points on a quiet server (`PointPhase::Quiet`).
    quiet_points: PointStats,
    nav: NavStats,
    served: Served,
}

impl Measured {
    /// The workload's `point_*` source: quiet passes, or the readers that
    /// ran beside the writer.
    fn points(&self, w: &Workload) -> &PointStats {
        match w.point_phase {
            PointPhase::Quiet => &self.quiet_points,
            PointPhase::BesideWriter => &self.ingest.readers,
        }
    }
}

/// Values by metric name while a run collects them.
#[derive(Default)]
struct Emit(BTreeMap<String, f64>);

impl Emit {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Nothing is put for a phase that left no samples: the metric is
    /// then missing, which fails the run.
    fn median(&mut self, name: impl Into<String>, samples: &[f64]) {
        if !samples.is_empty() {
            self.put(name, median(samples));
        }
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        w: args.workload,
        nproc,
        clients: (nproc / 2).max(1),
        traced: args.traced,
        seed: args.seed,
    };
    let mut tally = Tally::default();
    let mut emit = Emit::default();
    span::set_enabled(args.traced);

    // Set-up, repeated so that its time is a median like every other.
    let mut m = Measured::default();
    let repeats = if args.traced { 1 } else { 3 };
    let mut inputs = None;
    for _ in 0..repeats {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(set_up(&env.w, args.seed, args.corrupt_oracle));
        m.setup_s.push(start.elapsed().as_secs_f64());
    }
    let inputs: Inputs = inputs.expect("set up at least once");

    let mut rss = vec![("rss_mb.after_setup", peak_rss_mb().unwrap_or(0.0))];
    let measuring = Instant::now();
    let mut live = None;
    live_round(&env, &inputs, &mut live, &mut m, &mut tally);
    rss.push(("rss_mb.after_live", peak_rss_mb().unwrap_or(0.0)));

    // What is left of --seconds, but never less than a fifth of it, so a
    // slow host still takes the minimum samples of every metric.
    let left = (args.seconds - measuring.elapsed().as_secs_f64()).max(args.seconds / 5.0);
    warm_up(&env, &inputs);
    if env.traced {
        traced_builds(&env, &inputs, &mut tally, &mut m.builds);
        match traced_ready(&env, &inputs, &mut tally) {
            Some((sample, untraced_s)) => {
                m.ready.push(&sample);
                (m.ready.untraced_s, m.ready.traced_s) = (untraced_s, sample.total_s);
                (m.ready.peak_store_mb, m.ready.peak_shards_mb) =
                    (sample.peak_store_mb, sample.peak_shards_mb);
                m.served = traced_serving(&env, &inputs, &sample, &mut m, &mut tally);
            }
            None => tally.op(false),
        }
    } else {
        cycles(&env, &inputs, &mut live, left, &mut m, &mut tally);
    }
    rss.push(("rss_mb.after_cycles", peak_rss_mb().unwrap_or(0.0)));

    let points = m.points(&env.w);
    emit.put("setup_s", median(&m.setup_s));
    for (i, alg) in ALGS.iter().enumerate() {
        emit.median(format!("build_s.{alg}"), &m.builds.build_s[i]);
    }
    emit.median("cube_ready_s", &m.ready.ready_s);
    emit.median("point_rps", &points.rps);
    emit.median("point_p50_us", &points.p50_us);
    emit.median("point_p95_us", &points.p95_us);
    emit.median("navigate_rps", &m.nav.rps);
    emit.median("scan_p50_us", &m.nav.scan_p50_us);
    emit.median("refresh_s", &m.ingest.refresh_s);
    let eps_s: Vec<f64> = m.progressive.iter().map(|p| p.eps_s).collect();
    let converge_s: Vec<f64> = m.progressive.iter().map(|p| p.converge_s).collect();
    emit.median("progressive_eps_s", &eps_s);
    emit.median("progressive_converge_s", &converge_s);
    emit.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    if env.traced {
        emit.put("data.generator.generate_s", inputs.generate_s);
        emit.put("core.cells", inputs.cells as f64);
        layer_metrics(&mut emit, &m, points);
    }

    let mut detail: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("host_cores", nproc as f64),
        ("seed", args.seed as f64),
        ("seconds", args.seconds),
        ("tuples", env.w.tuples as f64),
        ("minsup", env.w.minsup as f64),
        ("cells", inputs.cells as f64),
        ("live_base", env.w.live_base as f64),
        ("live_batches", env.w.live_batches as f64),
        ("live_rows", env.w.live_rows as f64),
        ("points_per_pass", inputs.points.len() as f64),
        ("nav_requests_per_pass", inputs.nav.requests.len() as f64),
        ("nav_leaf_requests_per_pass", inputs.nav.leaf_count() as f64),
        ("clients", env.clients as f64),
        ("server_workers", nproc as f64),
        ("shards", nproc as f64),
        ("samples.setup", m.setup_s.len() as f64),
        ("samples.build", m.builds.build_s[0].len() as f64),
        ("samples.cube_ready", m.ready.ready_s.len() as f64),
        ("samples.point_windows", points.rps.len() as f64),
        ("samples.nav_passes", m.nav.rps.len() as f64),
        ("samples.refresh", m.ingest.refresh_s.len() as f64),
        ("samples.progressive", m.progressive.len() as f64),
        ("samples.ingest_rounds", m.ingest.rounds as f64),
        ("measured_s", measuring.elapsed().as_secs_f64()),
    ]);
    detail.extend(rss);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::from([
        ("setup_s".to_string(), m.setup_s.clone()),
        ("cube_ready_s".to_string(), m.ready.ready_s.clone()),
        ("point_rps".to_string(), points.rps.clone()),
        ("navigate_rps".to_string(), m.nav.rps.clone()),
        ("scan_p50_us".to_string(), m.nav.scan_p50_us.clone()),
        ("refresh_s".to_string(), m.ingest.refresh_s.clone()),
        ("progressive_eps_s".to_string(), eps_s),
        ("progressive_converge_s".to_string(), converge_s),
    ]);
    for (i, alg) in ALGS.iter().enumerate() {
        samples.insert(format!("build_s.{alg}"), m.builds.build_s[i].clone());
    }
    if let Some(first) = m.progressive.first() {
        let (at, error) = first.curve.iter().copied().unzip();
        samples.insert("progressive.fold_at_s".into(), at);
        samples.insert("progressive.fold_error".into(), error);
    }

    // Exactly the metrics the spec lists for this mode, in its order; one
    // that a failed phase never produced is a failure of the run.
    let wanted = if env.traced {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let metrics = wanted
        .iter()
        .map(|m| {
            let value = emit.0.get(&m.name).copied().filter(|v| v.is_finite());
            if value.is_none() {
                tally.op(false);
            }
            (m.name.clone(), value.unwrap_or(0.0))
        })
        .collect();
    let result = RunResult {
        tally,
        metrics,
        detail,
        samples,
    };
    if let Some(dir) = &args.out {
        write_outputs(dir, args, &result);
    }
    result
}

/// One round of the live phases: the progressive build, and before it, in
/// the first `Workload::ingest_rounds` rounds, the ingest phase from the
/// base again. An untraced run makes `Workload::live_rounds` of them: one
/// before the cycles, the others at the start of the cycles after the
/// first. `oracle` is what the first round found a scratch build over the
/// live base to say.
fn live_round(
    env: &Env,
    inputs: &Inputs,
    oracle: &mut Option<LiveOracle>,
    m: &mut Measured,
    tally: &mut Tally,
) {
    if oracle.is_none() || m.ingest.rounds < env.w.ingest_rounds {
        match live_oracle(env, inputs) {
            Some((cube, found)) => {
                ingest_phase(env, inputs, cube, &mut m.ingest, tally);
                *oracle = Some(found);
            }
            None => tally.op(false),
        }
    }
    match oracle {
        Some(oracle) => m
            .progressive
            .push(progressive_phase(env, inputs, oracle, tally)),
        None => tally.op(false),
    }
}

/// Cycles of one build round, one `cube_ready` sample, one point pass (on
/// workloads that measure points on a quiet server) and one navigation
/// pass, until `budget_s` is spent and every live round has run; then the
/// replay of the navigation stream's head against the oracle's answers.
fn cycles(
    env: &Env,
    inputs: &Inputs,
    live: &mut Option<LiveOracle>,
    budget_s: f64,
    m: &mut Measured,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let mut last: Option<ReadySample> = None;
    let mut id = 0u64;
    while id < env.w.live_rounds as u64 || start.elapsed().as_secs_f64() < budget_s {
        // The last cycle's served cube goes first, so that the footprint
        // is one cycle's.
        drop(last.take());
        if id > 0 && m.progressive.len() < env.w.live_rounds {
            live_round(env, inputs, live, m, tally);
        }
        build_round(env, inputs, &mut m.builds, tally);
        last = ready_once(env, inputs, id, false, tally);
        if let Some(sample) = &last {
            m.ready.push(sample);
            if env.w.point_phase == PointPhase::Quiet {
                let pass = point_pass(
                    &sample.server,
                    &inputs.points,
                    &inputs.point_answers,
                    env.clients,
                    0,
                    tally,
                );
                m.quiet_points.push(&pass.clients);
            }
            nav_pass(&sample.server, inputs, env.clients, 0, &mut m.nav, tally);
        }
        id += 1;
    }
    match &last {
        Some(sample) => replay(&sample.server, inputs, tally),
        None => tally.op(false),
    }
}

/// What only the traced run measures around the served cube.
#[derive(Default)]
struct Served {
    store_get_ns: f64,
    shard_get_ns: f64,
    scan_us: f64,
    point_rps_w1: f64,
    stats: [f64; 4],
    untraced_s: f64,
    traced_s: f64,
}

/// The traced run's serving measurements: a point pass with recording off
/// and the same pass recorded (tracing's cost per request), a pass on a
/// one-worker server, one recorded navigation pass with the server's own
/// counters around it, and the direct calls under a request.
fn traced_serving(
    env: &Env,
    inputs: &Inputs,
    ready: &ReadySample,
    m: &mut Measured,
    tally: &mut Tally,
) -> Served {
    let mut served = Served::default();
    let server = &ready.server;
    let prefix = inputs.points.len().min(50_000);
    let requests = &inputs.points[..prefix];
    let answers = &inputs.point_answers[..prefix];

    span::set_enabled(false);
    let plain = point_pass(server, requests, answers, env.clients, 0, tally);
    span::set_enabled(true);
    let recorded = point_pass(server, requests, answers, env.clients, prefix, tally);
    served.untraced_s = plain.wall_s;
    served.traced_s = recorded.wall_s;
    m.quiet_points.push(&plain.clients);

    if let Ok(one) = CubeServer::start(ShardedCube::new(&ready.store, env.nproc), 1) {
        let pass = point_pass(&one, requests, answers, env.clients, 0, tally);
        served.point_rps_w1 = prefix as f64 / pass.wall_s;
    } else {
        tally.op(false);
    }

    let before = server.stats();
    nav_pass(server, inputs, env.clients, 5_000, &mut m.nav, tally);
    let after = server.stats();
    served.stats = [
        (after.rollup_stored - before.rollup_stored) as f64,
        (after.rollup_aggregated - before.rollup_aggregated) as f64,
        (after.cells_returned - before.cells_returned) as f64,
        (after.errors - before.errors) as f64,
    ];
    replay(server, inputs, tally);

    (served.store_get_ns, served.shard_get_ns) = direct_get_ns(server, &ready.store, inputs);
    served.scan_us = direct_scan_us(server, inputs);
    served
}

fn layer_metrics(emit: &mut Emit, m: &Measured, points: &PointStats) {
    let Measured {
        builds,
        ready,
        nav,
        served,
        ingest,
        ..
    } = m;
    let none = Progressive::default();
    let progressive = m.progressive.first().unwrap_or(&none);
    for (i, alg) in ALGS.iter().enumerate() {
        let build_s = median_or_zero(&builds.build_s[i]);
        emit.put(format!("core.kernel_s.{alg}"), builds.kernel_s[i]);
        emit.put(
            format!("core.collect_s.{alg}"),
            build_s - builds.kernel_s[i],
        );
        emit.put(format!("exec.native.wall_s.{alg}"), builds.wall_s[i]);
        emit.put(format!("exec.native.steals.{alg}"), builds.steals[i]);
        emit.put(
            format!("exec.native.busy_share.{alg}"),
            builds.busy_share[i],
        );
        emit.put(format!("mem.peak_alloc_mb.{alg}"), builds.peak_alloc_mb[i]);
    }
    emit.put("core.sequential.buc_s", builds.sequential_buc_s);
    emit.put("core.cell.resort_s", builds.resort_s);
    emit.put("exec.native.speedup.pt", builds.speedup_pt);

    for (name, samples) in [
        "core.store.from_cells_s",
        "serve.shard.split_s",
        "serve.server.start_s",
    ]
    .iter()
    .zip(&ready.layers[1..4])
    {
        emit.median(*name, samples);
    }
    emit.put("mem.peak_alloc_mb.store", ready.peak_store_mb);
    emit.put("mem.peak_alloc_mb.shards", ready.peak_shards_mb);
    let overhead = (
        served.untraced_s + ready.untraced_s,
        served.traced_s + ready.traced_s,
    );
    // Recorded against unrecorded wall time of the same work: the
    // `cube_ready` chain and one point pass.
    emit.put(
        "trace.overhead_pct",
        100.0 * (overhead.1 - overhead.0) / overhead.0.max(1e-9),
    );

    emit.put("core.store.get_ns", served.store_get_ns);
    emit.put("serve.shard.get_ns", served.shard_get_ns);
    emit.put(
        "serve.server.hop_ns",
        median_or_zero(&points.p50_us) * 1e3 - served.shard_get_ns,
    );
    emit.put("serve.server.point_rps_w1", served.point_rps_w1);
    for (k, kind) in KINDS.iter().enumerate() {
        let lat = &nav.by_kind[k];
        let q = |q| {
            if lat.is_empty() {
                0.0
            } else {
                quantile_sorted(lat, q) / 1e3
            }
        };
        emit.put(format!("serve.latency_us.{kind}.p50"), q(0.5));
        emit.put(format!("serve.latency_us.{kind}.p99"), q(0.99));
        emit.put(format!("serve.latency_n.{kind}"), lat.len() as f64);
    }
    emit.put("serve.shard.scan_us", served.scan_us);
    for (name, value) in [
        "rollup_stored",
        "rollup_aggregated",
        "cells_returned",
        "errors",
    ]
    .iter()
    .zip(served.stats)
    {
        emit.put(format!("serve.metrics.{name}"), value);
    }

    for (name, samples) in [
        "data.delta.encode_s",
        "data.delta.to_relation_s",
        "core.delta.buc_s",
        "core.store.merge_cells_s",
        "core.store.thresholded_s",
        "serve.server.publish_s",
    ]
    .iter()
    .zip(&ingest.layers)
    {
        emit.median(*name, samples);
    }
    emit.put("core.delta.floor_cells", ingest.floor_cells as f64);
    for (name, samples) in [
        "online.progressive.plan_s",
        "online.progressive.step_s",
        "serve.server.publish_progressive_s",
        "serve.server.estimate_s",
    ]
    .iter()
    .zip(&progressive.layers)
    {
        emit.median(*name, samples);
    }
    emit.put(
        "online.progressive.first_estimate_s",
        progressive.first_estimate_s,
    );
    emit.put("online.progressive.folds", progressive.folds as f64);
    emit.put("online.progressive.eps_fold", progressive.eps_fold as f64);

    // Shares of each chain by layer, from the spans' self times.
    let spans = span::snapshot();
    for (chain, layers) in [
        ("cube_ready", &READY_LAYERS[..]),
        ("refresh", &REFRESH_LAYERS[..]),
        ("progressive", &PROGRESSIVE_LAYERS[..]),
    ] {
        let shares = span::layer_shares(&spans, chain);
        let mut attributed = 0.0;
        for layer in layers {
            let share = shares.get(layer).copied().unwrap_or(0.0);
            attributed += share;
            emit.put(format!("layer_share.{chain}.{layer}"), share);
        }
        emit.put(
            format!("layer_share.{chain}.unattributed"),
            1.0 - attributed,
        );
    }
}

/// The run as JSON: what the last line of stdout carries, plus the sizes
/// and sample counts behind it.
pub fn result_json(args: &RunArgs, result: &RunResult) -> Json {
    let units = spec::units();
    let metrics = result
        .metrics
        .iter()
        .map(|(name, value)| {
            (
                name.clone(),
                obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(units[name].to_string())),
                ]),
            )
        })
        .collect();
    let detail = result
        .detail
        .iter()
        .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
        .collect();
    let samples = result
        .samples
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
            )
        })
        .collect();
    obj([
        ("workload", Json::Str(args.workload.name.to_string())),
        ("trace", Json::Num(f64::from(u8::from(args.traced)))),
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.tally.attempted as f64)),
        ("failed", Json::Num(result.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
        ("detail", Json::Obj(detail)),
        ("samples", Json::Obj(samples)),
    ])
}

/// With `--out`: the run's JSON, and for a traced run the Chrome trace and
/// the per-layer table.
fn write_outputs(dir: &std::path::Path, args: &RunArgs, result: &RunResult) {
    let name = args.workload.name;
    let write = |file: String, text: String| {
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(&file), text))
        {
            eprintln!("cannot write {file}: {e}");
        }
    };
    let mode = u8::from(args.traced);
    write(
        format!("{name}.trace{mode}.json"),
        result_json(args, result).to_line() + "\n",
    );
    if args.traced {
        let spans = span::snapshot();
        write(
            format!("{name}.trace.json"),
            span::chrome_trace(&spans).to_line() + "\n",
        );
        write(format!("{name}.layers.txt"), layer_table_text(&spans));
    }
}

/// The per-layer table: count, total and self time by span name.
pub fn layer_table_text(spans: &[span::Span]) -> String {
    let mut text = format!(
        "{:<36} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, row) in span::layer_table(spans) {
        text += &format!(
            "{:<36} {:>8} {:>12.6} {:>12.6}\n",
            name, row.count, row.total_s, row.self_s
        );
    }
    text
}
