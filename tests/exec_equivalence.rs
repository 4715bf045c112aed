//! Backend equivalence: the native thread-pool executor must be
//! observationally indistinguishable — byte-identical cells — from the
//! simulated cluster, for every algorithm, at any worker count, under
//! any stealing interleaving. The contract that makes this testable is
//! the deterministic merge rule: executors return per-task outputs in
//! task-id order, and a plan depends only on the decomposition width and
//! seed its executor supplies — the simulator's node count and seed, the
//! native pool's fixed `EXEC_UNITS`, never its worker count — while the
//! merged cube is the same at every width. Eight seeded workload shapes
//! × all six algorithms (the five the paper evaluates plus the one-task
//! hash-tree attempt) × two minsups, against `run_parallel` on a
//! four-node cluster, the brute-force reference, and repeated native
//! runs at 1, 2, and 8 workers; a slice of them also on `SimExecutor`s
//! of two and four nodes.

use icecube::cluster::{ClusterConfig, FaultPlan};
use icecube::core::naive::naive_iceberg_cube;
use icecube::core::verify::assert_same_cells;
use icecube::core::{
    run_parallel, run_parallel_exec, AlgoError, Algorithm, IcebergQuery, RunOptions,
};
use icecube::data::{Relation, SyntheticSpec};
use icecube::exec::{Backend, NativeExecutor, SimExecutor, EXEC_UNITS};

const SEEDS: [u64; 8] = [3, 11, 29, 47, 101, 211, 499, 997];

fn workload(seed: u64) -> Relation {
    // Vary the shape with the seed so the sweep covers skew, width, and
    // density rather than eight draws of one distribution.
    let (cards, skews) = match seed % 4 {
        0 => (vec![8u32, 6, 4], vec![0.0, 0.0, 0.0]),
        1 => (vec![20, 10, 5, 3], vec![1.2, 0.0, 0.5, 0.0]),
        2 => (vec![4, 4, 4, 4, 4], vec![0.0, 1.5, 0.0, 1.5, 0.0]),
        _ => (vec![30, 2, 12], vec![0.8, 0.0, 1.0]),
    };
    SyntheticSpec::uniform(300, cards, seed)
        .with_skews(skews)
        .generate()
        .unwrap()
}

/// The tentpole guarantee: native cells are byte-identical to the
/// simulated cluster's and the reference evaluator's, for all six
/// algorithms, independent of worker count; repeated runs (different
/// stealing interleavings) never disagree.
#[test]
fn native_matches_simulator_driver_and_naive() {
    for seed in SEEDS {
        let rel = workload(seed);
        for minsup in [1u64, 3] {
            let q = IcebergQuery::count_cube(rel.arity(), minsup);
            let want = naive_iceberg_cube(&rel, &q);
            let opts = RunOptions::default();
            for alg in Algorithm::all() {
                let ctx = format!("{alg}, seed {seed}, minsup {minsup}");
                let driver = run_parallel(alg, &rel, &q, &ClusterConfig::fast_ethernet(4)).unwrap();
                assert_same_cells(want.clone(), driver.cells.clone(), &format!("driver {ctx}"));
                // Losing every node is a typed error, on the static sweep
                // and the demand loop alike.
                let total_loss = (0..4).fold(FaultPlan::none(), |p, n| p.crash(n, 1_000));
                let doomed = ClusterConfig::fast_ethernet(4).with_faults(total_loss);
                let lost = run_parallel(alg, &rel, &q, &doomed).map(|out| out.total_cells);
                assert!(
                    matches!(lost, Err(AlgoError::ClusterExhausted { nodes: 4 })),
                    "total loss: {ctx}: {lost:?}"
                );
                let mut reference: Option<Vec<icecube::core::Cell>> = None;
                for workers in [1usize, 2, 8] {
                    let mut exec = NativeExecutor::new(workers);
                    let out = run_parallel_exec(&mut exec, alg, &rel, &q, &opts)
                        .unwrap_or_else(|e| panic!("{ctx}, {workers} workers: {e}"));
                    assert_eq!(out.report.backend, Backend::Native);
                    assert_eq!(out.report.workers, workers);
                    assert_eq!(
                        out.cells, driver.cells,
                        "native vs driver: {ctx}, {workers} workers"
                    );
                    assert_eq!(out.total_cells, driver.total_cells, "{ctx}");
                    match &reference {
                        None => reference = Some(out.cells),
                        Some(first) => assert_eq!(
                            &out.cells, first,
                            "worker-count drift: {ctx}, {workers} workers"
                        ),
                    }
                }
            }
        }
    }
}

/// Non-empty `(dimension, partition)` chunks of `rel` at `parts`
/// range partitions per dimension: BPP's task count at that width.
fn bpp_chunks(rel: &Relation, parts: usize) -> usize {
    (0..rel.arity())
        .flat_map(|dim| rel.range_partition(dim, parts))
        .filter(|chunk| !chunk.is_empty())
        .count()
}

/// Each executor supplies its plan width: a `SimExecutor` of `n` nodes
/// plans `n`-wide, as the paper does, the native pool `EXEC_UNITS`-wide
/// at any worker count. BPP's task count shows the width; the cells are
/// the same at every width (a slice of the full sweep — it shares all
/// the plan-building code the previous test exercises in full).
#[test]
fn sim_executor_matches_native() {
    for seed in [SEEDS[0], SEEDS[3], SEEDS[6]] {
        let rel = workload(seed);
        let q = IcebergQuery::count_cube(rel.arity(), 2);
        let opts = RunOptions::default();
        for alg in Algorithm::all() {
            let ctx = format!("{alg}, seed {seed}");
            let native: Vec<_> = [1usize, 2, 8]
                .into_iter()
                .map(|workers| {
                    let mut native = NativeExecutor::new(workers);
                    run_parallel_exec(&mut native, alg, &rel, &q, &opts).unwrap()
                })
                .collect();
            for (workers, out) in [1, 2, 8].into_iter().zip(&native) {
                assert_eq!(out.cells, native[0].cells, "{ctx}, {workers} workers");
                assert_eq!(out.report.tasks, native[0].report.tasks, "{ctx}");
            }
            if alg == Algorithm::Bpp {
                assert_eq!(native[0].report.tasks, bpp_chunks(&rel, EXEC_UNITS));
            }
            for nodes in [2usize, 4] {
                let mut sim = SimExecutor::fast_ethernet(nodes);
                let a = run_parallel_exec(&mut sim, alg, &rel, &q, &opts).unwrap();
                assert_eq!(a.report.backend, Backend::Sim);
                assert!(a.report.wall_ns > 0, "sim reports virtual time: {ctx}");
                assert_eq!(
                    a.cells, native[0].cells,
                    "sim vs native: {ctx}, {nodes} nodes"
                );
                assert_eq!(a.total_cells, native[0].total_cells, "{ctx}");
                if alg == Algorithm::Bpp {
                    let want = bpp_chunks(&rel, nodes);
                    assert_eq!(a.report.tasks, want, "BPP width: {ctx}, {nodes} nodes");
                }
            }
        }
    }
}

/// Stealing is live at high worker counts: with far more workers than
/// tasks the pool still terminates, produces the same bytes, and
/// reports a full per-worker task breakdown.
#[test]
fn oversubscribed_pool_is_deterministic() {
    let rel = workload(47);
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let opts = RunOptions::default();
    for alg in Algorithm::all() {
        let mut exec = NativeExecutor::new(32);
        let a = run_parallel_exec(&mut exec, alg, &rel, &q, &opts).unwrap();
        let b = run_parallel_exec(&mut exec, alg, &rel, &q, &opts).unwrap();
        assert_eq!(a.cells, b.cells, "{alg}: repeated oversubscribed runs");
        assert_eq!(
            a.report.tasks_per_worker.iter().sum::<u64>(),
            a.report.tasks as u64,
            "{alg}: every task accounted to a worker"
        );
    }
}

/// Counting mode (cells discarded, counts kept) agrees across backends —
/// the mode every benchmark row runs in.
#[test]
fn counting_mode_totals_agree() {
    let rel = workload(211);
    let q = IcebergQuery::count_cube(rel.arity(), 1);
    let opts = RunOptions::counting();
    for alg in Algorithm::all() {
        let driver = run_parallel(alg, &rel, &q, &ClusterConfig::fast_ethernet(4)).unwrap();
        let mut native = NativeExecutor::new(8);
        let out = run_parallel_exec(&mut native, alg, &rel, &q, &opts).unwrap();
        assert!(out.cells.is_empty(), "{alg}: counting mode retained cells");
        assert_eq!(out.total_cells, driver.total_cells, "{alg}");
    }
}
