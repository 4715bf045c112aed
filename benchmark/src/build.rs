//! Relation → cube: the five algorithms on the native backend, and the
//! `cube_ready` chain from relation to the first served answer.

use crate::inputs::Inputs;
use crate::run::{Env, Tally};
use crate::span::{span, timed};
use crate::spec::ALGS;
use crate::verify::{cells_digest, store_digest};
use crate::{alloc, span as spans};
use icecube_cluster::ClusterConfig;
use icecube_core::cell::sort_cells;
use icecube_core::{
    run_parallel_exec, run_sequential, Algorithm, CubeStore, ExecOutcome, IcebergQuery, RunOptions,
    SeqAlgorithm,
};
use icecube_exec::{ExecReport, NativeExecutor};
use icecube_serve::{CubeServer, Response, ShardedCube};
use icecube_trace::EventKind;
use std::time::Instant;

/// What the build phase measured, indexed like [`ALGS`].
#[derive(Default)]
pub struct Builds {
    /// Relation → sorted iceberg cells, collecting, `nproc` workers.
    pub build_s: [Vec<f64>; 5],
    // Traced run only, one sample each:
    pub kernel_s: [f64; 5],
    pub wall_s: [f64; 5],
    pub steals: [f64; 5],
    pub busy_share: [f64; 5],
    pub peak_alloc_mb: [f64; 5],
    pub sequential_buc_s: f64,
    pub resort_s: f64,
    pub speedup_pt: f64,
}

fn query(env: &Env, inputs: &Inputs) -> IcebergQuery {
    IcebergQuery::count_cube(inputs.main.arity(), env.w.minsup)
}

/// One build through the public entry point, timed from outside.
fn build(
    env: &Env,
    inputs: &Inputs,
    alg: Algorithm,
    workers: usize,
    opts: &RunOptions,
    tally: &mut Tally,
) -> Option<(ExecOutcome, f64)> {
    let mut executor = NativeExecutor::new(workers);
    let q = query(env, inputs);
    let start = Instant::now();
    let out = run_parallel_exec(&mut executor, alg, &inputs.main, &q, opts);
    let secs = start.elapsed().as_secs_f64();
    match out {
        Ok(out) => {
            // Counting runs report the total; collecting runs are held to
            // the oracle cell for cell.
            let ok = if opts.collect_cells {
                cells_digest(&out.cells) == inputs.oracle
            } else {
                out.total_cells == inputs.cells
            };
            tally.op(ok);
            ok.then_some((out, secs))
        }
        Err(_) => {
            tally.op(false);
            None
        }
    }
}

/// Σ task-span time ÷ (workers · wall): how much of the pool's time the
/// executor kept busy.
fn busy_share(report: &ExecReport) -> f64 {
    let Some(trace) = &report.trace else {
        return 0.0;
    };
    let mut busy = 0u64;
    for node in 0..trace.node_count() {
        let mut started = None;
        for event in trace.node(node) {
            match event.kind {
                EventKind::TaskStart { .. } => started = Some(event.ts_ns),
                EventKind::TaskEnd { .. } => {
                    if let Some(s) = started.take() {
                        busy += event.ts_ns.saturating_sub(s);
                    }
                }
                _ => {}
            }
        }
    }
    busy as f64 / (report.workers as f64 * report.wall_ns as f64).max(1.0)
}

/// The first build of a process grows the heap page by page; this one is
/// thrown away.
pub fn warm_up(env: &Env, inputs: &Inputs) {
    build(
        env,
        inputs,
        Algorithm::Rp,
        env.nproc,
        &RunOptions::default(),
        &mut Tally::default(),
    );
}

/// One collecting build with each algorithm, in the paper's order.
pub fn build_round(env: &Env, inputs: &Inputs, out: &mut Builds, tally: &mut Tally) {
    for (i, alg) in Algorithm::evaluated().into_iter().enumerate() {
        let built = build(env, inputs, alg, env.nproc, &RunOptions::default(), tally);
        if let Some((_, secs)) = built {
            out.build_s[i].push(secs);
        }
    }
}

/// One sample of everything the build layers expose.
pub fn traced_builds(env: &Env, inputs: &Inputs, tally: &mut Tally, out: &mut Builds) {
    let collecting = RunOptions::default();
    let counting = RunOptions::counting();
    for (i, alg) in Algorithm::evaluated().into_iter().enumerate() {
        let guard = span("core.build", i as u64);
        let built = build(env, inputs, alg, env.nproc, &collecting, tally);
        drop(guard);
        if let Some((outcome, secs)) = built {
            out.build_s[i].push(secs);
            out.wall_s[i] = outcome.report.wall_ns as f64 / 1e9;
            out.steals[i] = outcome.report.steals as f64;
            out.busy_share[i] = busy_share(&outcome.report);
            if alg == Algorithm::Pt {
                // The sort `CubeStore::from_cells` repeats over cells the
                // build already returned in order.
                let mut again = outcome.cells.clone();
                out.resort_s = timed("core.cell.resort", 0, || sort_cells(&mut again)).1;
            }
        }
        let guard = span("core.kernel", i as u64);
        if let Some((_, secs)) = build(env, inputs, alg, env.nproc, &counting, tally) {
            out.kernel_s[i] = secs;
        }
        drop(guard);
        // Counting allocations slows the allocating threads down, so the
        // memory sample is a build of its own and its time is not used.
        out.peak_alloc_mb[i] =
            alloc::peak_mb_of(|| build(env, inputs, alg, env.nproc, &collecting, tally)).1;
    }
    let pt = ALGS.iter().position(|a| *a == "pt").expect("pt is listed");
    if let Some((one, _)) = build(env, inputs, Algorithm::Pt, 1, &counting, tally) {
        out.speedup_pt = one.report.wall_ns as f64 / (out.wall_s[pt] * 1e9).max(1.0);
    }
    let start = Instant::now();
    let seq = run_sequential(
        SeqAlgorithm::BppBuc,
        &inputs.main,
        &query(env, inputs),
        &ClusterConfig::fast_ethernet(1),
    );
    out.sequential_buc_s = start.elapsed().as_secs_f64();
    tally.op(seq.is_ok_and(|s| cells_digest(&s.cells) == inputs.oracle));
}

/// The layers of one `cube_ready` sample, in chain order.
pub const READY_PARTS: usize = 5;

/// One sample of relation → PT build → store → shards → server → first
/// answer, with the server it started and the store behind it.
pub struct ReadySample {
    pub total_s: f64,
    /// Seconds per layer, indexed like `spec::READY_LAYERS`.
    pub layers: [f64; READY_PARTS],
    pub server: CubeServer,
    pub store: CubeStore,
    pub peak_store_mb: f64,
    pub peak_shards_mb: f64,
}

fn with_peak<T>(count_allocs: bool, f: impl FnOnce() -> T) -> (T, f64) {
    if count_allocs {
        alloc::peak_mb_of(f)
    } else {
        (f(), 0.0)
    }
}

pub fn ready_once(
    env: &Env,
    inputs: &Inputs,
    id: u64,
    count_allocs: bool,
    tally: &mut Tally,
) -> Option<ReadySample> {
    let dims = inputs.main.arity();
    let q = query(env, inputs);
    let chain = span("cube_ready", id);
    let start = Instant::now();
    let mut executor = NativeExecutor::new(env.nproc);
    let (built, build_s) = timed("core.build.pt", id, || {
        run_parallel_exec(
            &mut executor,
            Algorithm::Pt,
            &inputs.main,
            &q,
            &RunOptions::default(),
        )
    });
    let Ok(built) = built else {
        tally.op(false);
        return None;
    };
    let ((store, from_cells_s), peak_store_mb) = with_peak(count_allocs, || {
        timed("core.store.from_cells", id, || {
            CubeStore::from_cells(dims, env.w.minsup, built.cells)
        })
    });
    let ((cube, split_s), peak_shards_mb) = with_peak(count_allocs, || {
        timed("serve.shard.split", id, || {
            ShardedCube::new(&store, env.nproc)
        })
    });
    let (server, start_s) = timed("serve.server.start", id, || {
        CubeServer::start(cube, env.nproc)
    });
    let Ok(server) = server else {
        tally.op(false);
        return None;
    };
    let (answer, answer_s) = timed("serve.server.first_answer", id, || {
        server
            .handle()
            .and_then(|h| h.call(inputs.points[0].clone()))
    });
    let total_s = start.elapsed().as_secs_f64();
    drop(chain);
    // The store holds the build's cells in their canonical order, so one
    // digest checks the build and `from_cells` together.
    let ok = store_digest(&store) == inputs.oracle
        && matches!(answer, Ok(Response::Point(Some(a))) if a == inputs.point_answers[0]);
    tally.op(ok);
    ok.then_some(ReadySample {
        total_s,
        layers: [build_s, from_cells_s, split_s, start_s, answer_s],
        server,
        store,
        peak_store_mb,
        peak_shards_mb,
    })
}

/// The chain three times: with recording off (the base of tracing's
/// overhead), with allocations counted (memory only, its time unused),
/// and recorded (the layers' times and shares). Returns the recorded
/// sample, carrying the counted sample's peaks, and the unrecorded time.
pub fn traced_ready(env: &Env, inputs: &Inputs, tally: &mut Tally) -> Option<(ReadySample, f64)> {
    spans::set_enabled(false);
    let untraced_s = ready_once(env, inputs, 0, false, tally).map_or(0.0, |s| s.total_s);
    let peaks = ready_once(env, inputs, 1, true, tally)
        .map_or((0.0, 0.0), |s| (s.peak_store_mb, s.peak_shards_mb));
    spans::set_enabled(true);
    let mut recorded = ready_once(env, inputs, 2, false, tally)?;
    (recorded.peak_store_mb, recorded.peak_shards_mb) = peaks;
    Some((recorded, untraced_s))
}
