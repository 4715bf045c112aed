//! The progressive-serving contract (DESIGN §14), end to end:
//!
//! 1. **Soundness** — at every fold, for every cell of every probed
//!    group-by, the deterministic bound derived from the published floor
//!    and its `Progress` contains the exact batch aggregate.
//! 2. **Monotonicity** — folding only ever tightens a cell's bound,
//!    component-wise.
//! 3. **Convergence** — once every chunk is folded the floor is
//!    byte-identical to the batch build and the server's estimates *are*
//!    the batch iceberg answer.
//! 4. **Epoch consistency** — estimate answers racing a publish storm
//!    match the oracle of exactly the epoch they are tagged with.

use icecube::cluster::ClusterConfig;
use icecube::core::naive::naive_iceberg_cube;
use icecube::core::{run_sequential, Aggregate, Cell, CubeStore, IcebergQuery, SeqAlgorithm};
use icecube::data::{presets, Relation};
use icecube::lattice::CuboidMask;
use icecube::online::{AggBound, Envelope, ProgressiveBuild};
use icecube::serve::{CubeServer, Request, Response, ShardedCube};
use std::collections::HashMap;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const NODES: usize = 3;
const BUFFER: usize = 25;
const SAMPLE: usize = 64;

/// The batch minimum-support-1 floor: every partial cell, exactly.
fn batch_floor(rel: &icecube::data::Relation, cfg: &ClusterConfig) -> CubeStore {
    let q = IcebergQuery::count_cube(rel.arity(), 1);
    let out = run_sequential(SeqAlgorithm::BppBuc, rel, &q, cfg).expect("batch build runs");
    CubeStore::from_cells(rel.arity(), 1, out.cells)
}

/// Group-bys probed at every fold: the anchor (per-range envelopes), a
/// coarse roll-up and a mid lattice node (global envelope).
fn probes(dims: usize) -> Vec<CuboidMask> {
    vec![
        CuboidMask::full(dims),
        CuboidMask::from_dims(&[0]),
        CuboidMask::from_dims(&[1, dims - 1]),
    ]
}

#[test]
fn bounds_contain_the_exact_aggregate_and_only_tighten() {
    for seed in SEEDS {
        for minsup in [2u64, 5] {
            let rel = presets::tiny(seed).generate().expect("valid preset");
            let cfg = ClusterConfig::fast_ethernet(NODES);
            let exact = batch_floor(&rel, &cfg);
            let probes = probes(rel.arity());
            let mut build = ProgressiveBuild::new(&rel, minsup, NODES, BUFFER, SAMPLE, &cfg)
                .expect("non-empty relation");
            let mut prev: HashMap<(CuboidMask, Vec<u32>), AggBound> = HashMap::new();
            loop {
                let progress = build.progress();
                for &g in &probes {
                    for (key, want) in exact.query(g, 1).expect("floor answers anything") {
                        let partial = build
                            .floor()
                            .get(g, &key)
                            .copied()
                            .unwrap_or_else(Aggregate::empty);
                        let bound = AggBound::over(&partial, &progress.envelope_for(g, &key));
                        assert!(
                            bound.contains(&want),
                            "seed {seed} minsup {minsup} {g:?} {key:?}: \
                             exact {want:?} escaped {bound:?}"
                        );
                        if let Some(old) = prev.insert((g, key.clone()), bound) {
                            assert!(
                                old.tightens_to(&bound),
                                "seed {seed} {g:?} {key:?}: bound widened"
                            );
                        }
                    }
                }
                if build.step().expect("chunks fold cleanly").is_none() {
                    break;
                }
            }
            assert!(build.converged());
            // Converged: every bound is the exact point.
            for &g in &probes {
                let progress = build.progress();
                for (key, want) in exact.query(g, 1).expect("floor answers anything") {
                    let partial = build.floor().get(g, &key).copied().expect("converged");
                    let bound = AggBound::over(&partial, &progress.envelope_for(g, &key));
                    assert!(bound.is_exact());
                    assert_eq!(bound, AggBound::exact(&want));
                }
            }
        }
    }
}

#[test]
fn converged_server_estimates_are_the_batch_answer_byte_for_byte() {
    let rel = presets::tiny(21).generate().expect("valid preset");
    let cfg = ClusterConfig::fast_ethernet(NODES);
    let exact = batch_floor(&rel, &cfg);
    let minsup = 3u64;
    let mut build =
        ProgressiveBuild::new(&rel, minsup, NODES, BUFFER, SAMPLE, &cfg).expect("rows > 0");
    let srv =
        CubeServer::start_progressive(ShardedCube::new(build.floor(), 2), 2, build.progress())
            .expect("floor is minsup 1");
    while build.step().expect("chunks fold cleanly").is_some() {
        srv.publish_progressive(build.floor(), build.progress())
            .expect("floor stays minsup 1");
    }

    // Byte identity of the converged floor against the batch build.
    let (mut got, mut want) = (Vec::new(), Vec::new());
    build.floor().write_to(&mut got).expect("in-memory write");
    exact.write_to(&mut want).expect("in-memory write");
    assert_eq!(got, want, "converged floor diverged from the batch build");

    // Every estimate at every probed group-by and threshold is the batch
    // iceberg answer: same keys, point bounds, estimates equal to exact.
    let h = srv.handle().expect("running");
    for g in probes(rel.arity()) {
        for m in [1u64, minsup, 2 * minsup] {
            let resp = h
                .call(Request::EstimateCuboid {
                    cuboid: g,
                    minsup: m,
                })
                .expect("running");
            let Response::Estimate {
                cells, converged, ..
            } = resp
            else {
                panic!("unexpected response");
            };
            assert!(converged);
            let batch = exact.query(g, m).expect("floor answers anything");
            assert_eq!(cells.len(), batch.len(), "{g:?} at {m}");
            for (cell, (key, agg)) in cells.iter().zip(&batch) {
                assert_eq!(&cell.key, key);
                assert!(cell.definite);
                assert_eq!(cell.bound, AggBound::exact(agg));
                assert_eq!(cell.est_count, agg.count);
                assert_eq!(cell.est_sum, agg.sum);
            }
        }
    }
}

#[test]
fn estimates_racing_a_publish_storm_match_their_epochs_oracle() {
    let rel = presets::tiny(5).generate().expect("valid preset");
    let cfg = ClusterConfig::fast_ethernet(NODES);
    let minsup = 3u64;
    let anchor = CuboidMask::full(rel.arity());
    let req = Request::EstimateCuboid {
        cuboid: anchor,
        minsup,
    };

    // Precompute every published state (floor + progress) and, through a
    // quiet single-worker server, the exact answer each epoch must give.
    let mut build =
        ProgressiveBuild::new(&rel, minsup, NODES, BUFFER, SAMPLE, &cfg).expect("rows > 0");
    let mut states = vec![(build.floor().clone(), build.progress())];
    while build.step().expect("chunks fold cleanly").is_some() {
        states.push((build.floor().clone(), build.progress()));
    }
    let oracles: Vec<Response> = states
        .iter()
        .map(|(floor, progress)| {
            let srv =
                CubeServer::start_progressive(ShardedCube::new(floor, 2), 1, progress.clone())
                    .expect("floor is minsup 1");
            let h = srv.handle().expect("running");
            h.call(req.clone()).expect("running")
        })
        .collect();

    // Race clients against the full publish sequence: every answer must
    // be the oracle of exactly the epoch it is tagged with.
    let (floor0, progress0) = states.first().expect("at least the initial state");
    let srv = CubeServer::start_progressive(ShardedCube::new(floor0, 2), 4, progress0.clone())
        .expect("floor is minsup 1");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let h = srv.handle().expect("running");
            let (req, oracles) = (&req, &oracles);
            scope.spawn(move || {
                let mut last_epoch = 0;
                for _ in 0..25 {
                    let got = h.call_tagged(req.clone()).expect("running");
                    assert!(got.epoch >= last_epoch, "epochs moved backwards");
                    last_epoch = got.epoch;
                    let want = &oracles[(got.epoch - 1) as usize];
                    assert_eq!(
                        &got.response,
                        want,
                        "epoch {epoch} answered another epoch's build",
                        epoch = got.epoch
                    );
                }
            });
        }
        for (floor, progress) in &states[1..] {
            srv.publish_progressive(floor, progress.clone())
                .expect("floor stays minsup 1");
        }
    });
    assert_eq!(srv.epoch() as usize, states.len());
    // The storm's final epoch is converged: its oracle is the batch
    // iceberg answer.
    let exact = batch_floor(&rel, &cfg);
    let Response::Estimate { cells, .. } = oracles.last().expect("non-empty") else {
        panic!("unexpected oracle response");
    };
    let batch = exact.query(anchor, minsup).expect("floor answers anything");
    assert_eq!(cells.len(), batch.len());
    for (cell, (key, agg)) in cells.iter().zip(&batch) {
        assert_eq!(&cell.key, key);
        assert_eq!(cell.bound, AggBound::exact(agg));
    }
}

/// The `(rows, min, max)` of every measure in `rows`, computed straight
/// from the raw tuples (the empty aggregate's sentinels when none).
fn raw_envelope<'a>(rows: impl Iterator<Item = &'a Relation>) -> Envelope {
    let mut env = Envelope::empty();
    for rel in rows {
        for t in 0..rel.len() {
            env.rows += 1;
            env.measure_min = env.measure_min.min(rel.measure(t));
            env.measure_max = env.measure_max.max(rel.measure(t));
        }
    }
    env
}

#[test]
fn every_fold_prefix_is_the_naive_cube_of_its_chunks() {
    for seed in SEEDS {
        for minsup in [2u64, 5] {
            let rel = presets::tiny(seed).generate().expect("valid preset");
            let cfg = ClusterConfig::fast_ethernet(NODES);
            let anchor = CuboidMask::full(rel.arity());
            let query = IcebergQuery::count_cube(rel.arity(), 1);
            let mut build = ProgressiveBuild::new(&rel, minsup, NODES, BUFFER, SAMPLE, &cfg)
                .expect("non-empty relation");
            let chunks = build.plan().chunks().to_vec();
            let mut folded = Relation::new(rel.schema().clone());
            for k in 0..=chunks.len() {
                if let Some(chunk) = k.checked_sub(1).map(|i| &chunks[i]) {
                    let fold = build.step().expect("chunks fold cleanly");
                    assert_eq!(fold.map(|f| f.chunk), Some(k - 1), "folds in plan order");
                    folded
                        .extend_from(&chunk.rows)
                        .expect("chunks share the schema");
                }
                // The floor is the naive minsup-1 cube of the folded rows;
                // the oracle never runs the block merge.
                let got: Vec<Cell> = build.floor().iter().collect();
                assert_eq!(
                    got,
                    naive_iceberg_cube(&folded, &query),
                    "seed {seed} minsup {minsup}: floor after {k} folds"
                );
                // The slack is exactly what the unfolded rows can add.
                let progress = build.progress();
                let pending = &chunks[k..];
                for c in pending {
                    let owned = pending.iter().filter(|o| o.owner == c.owner);
                    assert_eq!(
                        progress.envelope_for(anchor, c.rows.row(0)),
                        raw_envelope(owned.map(|o| &o.rows)),
                        "seed {seed} minsup {minsup}: owner {} after {k} folds",
                        c.owner
                    );
                }
                assert_eq!(
                    progress.total_envelope(),
                    raw_envelope(pending.iter().map(|c| &c.rows))
                );
                assert_eq!(progress.rows_folded(), folded.len() as u64);
            }
            assert!(build.step().expect("converged").is_none());
        }
    }
}
