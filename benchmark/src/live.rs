//! Delta → refreshed answers: streaming ingest beside readers, and the
//! progressive build. Both drive `merge_cells` → `thresholded` → reshard →
//! epoch swap; ingest with few large merges, the progressive build with
//! many small ones.

use crate::inputs::Inputs;
use crate::run::{Env, Tally};
use crate::serve::{ClientLog, PointStats};
use crate::span::{span, timed};
use crate::verify::{store_digest, Digest};
use crate::workload::PointPhase;
use icecube_cluster::ClusterConfig;
use icecube_core::{
    run_sequential, Aggregate, CubeStore, IcebergQuery, MaintainedCube, SeqAlgorithm,
};
use icecube_data::DeltaBatch;
use icecube_lattice::CuboidMask;
use icecube_online::ProgressiveBuild;
use icecube_serve::{CellEstimate, CubeServer, Request, Response, ShardedCube};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Estimates are "close" when their mean relative error is within this.
/// (5 % is reached only in the last tenth of the folds on every workload;
/// 10 % after a half of them on dense data, after seven eighths on sparse.)
pub const EPSILON: f64 = 0.10;

/// Nodes the progressive build plans for: owners of the anchor's ranges.
const OWNERS: usize = 4;

/// What a scratch build over the live base says, computed before either
/// live phase is timed.
pub struct LiveOracle {
    /// Digest of the base's minimum-support-1 floor.
    pub floor: Digest,
    /// Exact aggregates of the followed cuboid over the base.
    pub exact: HashMap<Vec<u32>, Aggregate>,
}

/// The maintained cube at its base, ready to take batches, and what the
/// progressive build over the same base must converge to.
pub fn live_oracle(env: &Env, inputs: &Inputs) -> Option<(MaintainedCube, LiveOracle)> {
    let cube = MaintainedCube::from_relation(&inputs.live_base, env.w.minsup).ok()?;
    let floor = store_digest(cube.floor());
    let exact = cube
        .floor()
        .query(CuboidMask::from_dims(&env.w.estimate_dims), 1)
        .ok()?
        .into_iter()
        .collect();
    Some((cube, LiveOracle { floor, exact }))
}

/// Seconds per layer of one refresh, indexed like `spec::REFRESH_LAYERS`.
pub const REFRESH_PARTS: usize = 6;

#[derive(Default)]
pub struct Ingest {
    /// Batch rows in hand → new epoch published, per batch.
    pub refresh_s: Vec<f64>,
    /// Traced run: seconds per layer per batch.
    pub layers: [Vec<f64>; REFRESH_PARTS],
    /// Readers beside the writer (`PointPhase::BesideWriter` only).
    pub readers: PointStats,
    pub floor_cells: u64,
    /// Times the phase has run; the samples above are of all of them.
    pub rounds: usize,
    /// Digest of the visible cube after the last batch, the same in every
    /// round.
    pub visible: Option<Digest>,
}

/// Streams the delta batches into the maintained cube and publishes each
/// refreshed snapshot, while readers (if the workload has them) run
/// closed-loop points against the same server. One round; its samples are
/// added to `out`.
pub fn ingest_phase(
    env: &Env,
    inputs: &Inputs,
    mut cube: MaintainedCube,
    out: &mut Ingest,
    tally: &mut Tally,
) {
    let w = &env.w;
    out.rounds += 1;
    let served = ShardedCube::new(&cube.visible(), env.nproc);
    let Ok(server) = CubeServer::start(served, env.nproc) else {
        tally.ops(w.live_batches as u64, w.live_batches as u64);
        return;
    };
    let readers = match w.point_phase {
        PointPhase::Quiet => 0,
        PointPhase::BesideWriter => {
            // The readers' keys are cells of the served base cube, which
            // append-only ingest can only grow.
            assert_eq!(w.tuples, w.live_base, "readers need the base cube's keys");
            env.nproc.saturating_sub(1).max(1)
        }
    };
    let done = AtomicBool::new(false);
    let schema = inputs.live_base.schema().clone();
    let floor_query = IcebergQuery::count_cube(schema.arity(), 1);
    let mut writer_tally = Tally::default();

    std::thread::scope(|scope| {
        let reader_joins: Vec<_> = (0..readers)
            .map(|r| {
                let (server, done, points) = (&server, &done, &inputs.points);
                scope.spawn(move || {
                    let mut log = ClientLog::new(1 << 20);
                    let mut failed = 0u64;
                    let Ok(handle) = server.handle() else {
                        return (log, 1);
                    };
                    let mut i = r;
                    // relaxed: the flag only ends the loop; no data rides on it.
                    while !done.load(Ordering::Relaxed) {
                        let req = points[i % points.len()].clone();
                        let start = Instant::now();
                        let resp = handle.call(req);
                        log.record(i % points.len(), start);
                        // Counts move with every epoch, so only a hit is
                        // required here; the final cube is held to a
                        // scratch build below.
                        if !matches!(resp, Ok(Response::Point(Some(_)))) {
                            failed += 1;
                        }
                        i += readers;
                    }
                    (log, failed)
                })
            })
            .collect();
        for b in 0..w.live_batches {
            let rows = w.live_base + b * w.live_rows..w.live_base + (b + 1) * w.live_rows;
            let chain = span("refresh", b as u64);
            let start = Instant::now();
            let (batch, encode_s) = timed("data.delta.encode", b as u64, || {
                let mut batch = DeltaBatch::against(&schema);
                for t in rows {
                    batch.push_row(inputs.relation.row(t), inputs.relation.measure(t))?;
                }
                Ok::<_, icecube_data::DataError>(batch)
            });
            let mut parts = [encode_s, 0.0, 0.0, 0.0, 0.0, 0.0];
            let merged = batch.ok().and_then(|batch| {
                if env.traced {
                    // `ingest_batch` taken apart into the public calls it
                    // is made of, so each layer gets its own span.
                    let (rel, s) =
                        timed("data.delta.to_relation", b as u64, || batch.to_relation());
                    parts[1] = s;
                    let (cells, s) = timed("core.delta.buc", b as u64, || {
                        run_sequential(
                            SeqAlgorithm::BppBuc,
                            &rel.ok()?,
                            &floor_query,
                            &ClusterConfig::fast_ethernet(1),
                        )
                        .ok()
                    });
                    parts[2] = s;
                    let (report, s) = timed("core.store.merge_cells", b as u64, || {
                        cube.ingest_cells(cells?.cells).ok()
                    });
                    parts[3] = s;
                    report
                } else {
                    cube.ingest_batch(&batch).ok()
                }
            });
            let (visible, s) = timed("core.store.thresholded", b as u64, || cube.visible());
            parts[4] = s;
            let (epoch, s) = timed("serve.server.publish", b as u64, || {
                server.refresh(&visible)
            });
            parts[5] = s;
            out.refresh_s.push(start.elapsed().as_secs_f64());
            drop(chain);
            for (slot, secs) in out.layers.iter_mut().zip(parts) {
                slot.push(secs);
            }
            // Epoch 1 is the base; batch b publishes epoch b + 2.
            writer_tally.op(merged.is_some() && epoch.is_ok_and(|e| e == b as u64 + 2));
        }
        done.store(true, Ordering::Relaxed);
        let mut logs = Vec::new();
        for join in reader_joins {
            let (log, failed) = join.join().expect("readers do not panic");
            writer_tally.ops(log.latencies.len().max(1) as u64, failed);
            logs.push(log);
        }
        out.readers.push(&logs);
    });
    tally.ops(writer_tally.attempted, writer_tally.failed);
    out.floor_cells = cube.floor().len() as u64;

    // After the last batch the visible cube must be a scratch build over
    // every row ingested (built in the first round, remembered by its
    // digest for the others), and the server must be serving exactly it.
    let visible = cube.visible();
    let digest = store_digest(&visible);
    if out.visible.is_none() {
        let all_rows = w.live_base + w.live_batches * w.live_rows;
        out.visible = run_sequential(
            SeqAlgorithm::Buc,
            &inputs.relation.slice(0, all_rows),
            &IcebergQuery::count_cube(schema.arity(), w.minsup),
            &ClusterConfig::fast_ethernet(1),
        )
        .map(|o| store_digest(&CubeStore::from_cells(schema.arity(), w.minsup, o.cells)))
        .ok();
    }
    tally.op(out.visible == Some(digest));
    tally.op(server.snapshot().cube().len() == visible.len());
}

/// Seconds per layer of the progressive chain, as `spec::PROGRESSIVE_LAYERS`.
pub const PROGRESSIVE_PARTS: usize = 4;

#[derive(Default)]
pub struct Progressive {
    /// Start → the followed cells' [`mean_error`] comes within [`EPSILON`]
    /// for good: interpolated between the last fold above it and the
    /// first from which it stays within.
    pub eps_s: f64,
    /// Start → converged floor published and its estimate answered.
    pub converge_s: f64,
    /// Start → first estimate answered.
    pub first_estimate_s: f64,
    pub folds: u64,
    /// 1-based index of the fold `eps_s` was taken at.
    pub eps_fold: u64,
    /// Seconds per layer: plan once, the others per fold.
    pub layers: [Vec<f64>; PROGRESSIVE_PARTS],
    /// `(seconds since start, mean error)` after every fold.
    pub curve: Vec<(f64, f64)>,
}

/// Mean relative error of `est_count` over the followed cells whose exact
/// count reaches the threshold; a cell not estimated yet is fully wrong.
///
/// The mean, not the worst cell: the fold at which the worst of some
/// hundred cells comes within a bound moves by several folds from seed to
/// seed, the fold at which their mean does hardly moves at all.
fn mean_error(cells: &[CellEstimate], exact: &HashMap<Vec<u32>, Aggregate>, minsup: u64) -> f64 {
    let estimated: HashMap<&[u32], u64> = cells
        .iter()
        .map(|c| (c.key.as_slice(), c.est_count))
        .collect();
    let (mut error, mut followed) = (0.0, 0usize);
    for (key, agg) in exact.iter().filter(|(_, agg)| agg.count >= minsup) {
        error += estimated.get(key.as_slice()).map_or(1.0, |&est| {
            (est as f64 - agg.count as f64).abs() / agg.count as f64
        });
        followed += 1;
    }
    if followed == 0 {
        1.0
    } else {
        error / followed as f64
    }
}

/// Steps a progressive build over the live base to convergence; every
/// fold is published and followed by one `EstimateCuboid`.
pub fn progressive_phase(
    env: &Env,
    inputs: &Inputs,
    oracle: &LiveOracle,
    tally: &mut Tally,
) -> Progressive {
    let w = &env.w;
    let mut out = Progressive::default();
    let cuboid = CuboidMask::from_dims(&w.estimate_dims);
    let estimate = Request::EstimateCuboid {
        cuboid,
        minsup: w.estimate_minsup,
    };
    let mut config = ClusterConfig::fast_ethernet(OWNERS);
    config.seed = env.seed;

    let chain = span("progressive", 0);
    let start = Instant::now();
    let (build, plan_s) = timed("online.progressive.plan", 0, || {
        ProgressiveBuild::new(
            &inputs.live_base,
            w.minsup,
            OWNERS,
            (w.live_base / w.progressive_buffers).max(1),
            512,
            &config,
        )
    });
    out.layers[0].push(plan_s);
    let Ok(mut build) = build else {
        tally.op(false);
        return out;
    };
    let (server, _) = timed("serve.server.start", 0, || {
        CubeServer::start_progressive(
            ShardedCube::new(build.floor(), env.nproc),
            env.nproc,
            build.progress(),
        )
    });
    let Ok((server, handle)) = server.and_then(|s| s.handle().map(|h| (s, h))) else {
        tally.op(false);
        return out;
    };

    // Per fold: seconds since start once its estimate was answered, and
    // that estimate's mean error.
    let mut folds: Vec<(f64, f64)> = Vec::new();
    loop {
        let id = folds.len() as u64;
        let (step, step_s) = timed("online.progressive.step", id, || build.step());
        match step {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(_) => {
                tally.op(false);
                break;
            }
        }
        let (published, publish_s) = timed("serve.server.publish_progressive", id, || {
            server.publish_progressive(build.floor(), build.progress())
        });
        let (answer, estimate_s) = timed("serve.server.estimate", id, || {
            handle.call(estimate.clone())
        });
        let at = start.elapsed().as_secs_f64();
        for (slot, secs) in out.layers[1..]
            .iter_mut()
            .zip([step_s, publish_s, estimate_s])
        {
            slot.push(secs);
        }
        // Every estimate's bound must contain the exact aggregate.
        let (sound, error) = match &answer {
            Ok(Response::Estimate { cells, .. }) => (
                cells.iter().all(|c| {
                    oracle
                        .exact
                        .get(&c.key)
                        .is_some_and(|a| c.bound.contains(a))
                }),
                mean_error(cells, &oracle.exact, w.estimate_minsup),
            ),
            _ => (false, 1.0),
        };
        tally.op(published.is_ok() && sound);
        folds.push((at, error));
    }
    drop(chain);

    out.folds = folds.len() as u64;
    let Some(&(last, converged_error)) = folds.last() else {
        tally.op(false);
        return out;
    };
    out.first_estimate_s = folds[0].0;
    out.converge_s = last;
    // The build folds chunks owner by owner, so the error saws with the
    // number of owners as its period: it is averaged over one period, and
    // the fold sought is the first from which that average stays within
    // epsilon.
    let smoothed: Vec<f64> = (0..folds.len())
        .map(|f| {
            let window = &folds[f.saturating_sub(OWNERS - 1)..=f];
            window.iter().map(|&(_, error)| error).sum::<f64>() / window.len() as f64
        })
        .collect();
    let stays_from = smoothed
        .iter()
        .rposition(|&error| error > EPSILON)
        .map_or(0, |i| i + 1);
    let at = stays_from.min(folds.len() - 1);
    out.eps_fold = at as u64 + 1;
    // The time is taken where the smoothed error crosses epsilon between
    // the fold before and this one, not at this fold's end: a seed that
    // moves the crossing by a hair then moves the time by a hair, not by a
    // whole fold (6-7 % of the time).
    out.eps_s = match at.checked_sub(1) {
        Some(before) if smoothed[before] > EPSILON && smoothed[at] <= EPSILON => {
            let share = (smoothed[before] - EPSILON) / (smoothed[before] - smoothed[at]);
            folds[before].0 + share * (folds[at].0 - folds[before].0)
        }
        _ => folds[at].0,
    };
    // Converged, the floor must be the scratch floor and estimates exact.
    tally.op(build.converged()
        && converged_error == 0.0
        && store_digest(build.floor()) == oracle.floor);
    out.curve = folds;
    out
}
