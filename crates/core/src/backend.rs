//! One plan per algorithm, run on whichever executor the caller brings.
//!
//! Each algorithm module states its decomposition once, as a task list
//! plus a [`Workload`] (what a task computes, and the hooks that tell a
//! scheduler how the paper places it). [`run_parallel_exec`] builds that
//! plan and hands it to an [`Executor`]: the simulated cluster
//! ([`icecube_exec::SimExecutor`], which `run_parallel` uses) or real
//! host threads ([`icecube_exec::NativeExecutor`]), with byte-identical
//! cells. Every cube run — parallel on either backend, or sequential on
//! one node — ends in the one [`ExecOutcome`].
//!
//! Determinism contract: a plan is built from the query, the options and
//! the executor's decomposition width and seed ([`Executor::units`],
//! [`Executor::seed`]) — never from which worker runs what — and
//! executors return outputs in task-id order, so the merged cube is a
//! pure function of `(relation, query, options)` regardless of width,
//! seed, backend, worker count, or stealing order.

use crate::aht::AffinityHashTable;
use crate::algorithms::{validate, Algorithm, RunOptions};
use crate::asl::CuboidList;
use crate::cell::{collect_cells, Cell, CellBuf};
use crate::error::AlgoError;
use crate::query::IcebergQuery;
use crate::{affinity, bpp, htree, pt, rp};
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_exec::{ExecReport, Executor, TaskSpec, Workload};
use std::convert::identity;

/// Charges a node for reading its replicated copy of the dataset from
/// local disk into memory, traced as that node's `load` phase — the
/// prologue of every replicated algorithm.
pub(crate) fn charge_replicated_load(rel: &Relation, node: &mut SimNode) {
    node.phase_start("load");
    node.read_bytes(rel.byte_size());
    node.charge_scan(rel.len() as u64);
    node.alloc(rel.byte_size());
    node.phase_end("load");
}

/// An empty per-task sink: retaining cells or only counting them.
pub(crate) fn task_sink(collect: bool) -> CellBuf {
    if collect {
        CellBuf::collecting()
    } else {
        CellBuf::counting()
    }
}

/// The result of a cube run: its cells and what the run cost.
#[derive(Debug)]
pub struct ExecOutcome {
    /// All iceberg cells, sorted by (cuboid, key); empty when the run
    /// counted without collecting.
    pub cells: Vec<Cell>,
    /// Total cells found (counted even when not collected).
    pub total_cells: u64,
    /// Backend, worker, timing, statistics and trace from the executor
    /// (a one-node simulated report for a sequential run).
    pub report: ExecReport,
}

/// Runs `algorithm` over `rel` on the given executor, with its plan built
/// at the executor's [`units`](Executor::units) and
/// [`seed`](Executor::seed). Every algorithm has a plan, so every one
/// runs on either backend; `HashTree`'s single task still fails with
/// [`AlgoError::MemoryExhausted`] where the paper's did.
pub fn run_parallel_exec<E: Executor>(
    executor: &mut E,
    algorithm: Algorithm,
    rel: &Relation,
    query: &IcebergQuery,
    opts: &RunOptions,
) -> Result<ExecOutcome, AlgoError> {
    /// Runs the plan; `sink` turns each task's output into its cells
    /// (a task whose output is fallible hands its failure back here).
    fn go<E: Executor, W: Workload>(
        executor: &mut E,
        (specs, workload): (Vec<TaskSpec>, W),
        sink: fn(W::Out) -> Result<CellBuf, AlgoError>,
    ) -> Result<ExecOutcome, AlgoError> {
        let (outs, report) = executor.run(&specs, &workload)?;
        let sinks = outs.into_iter().map(sink).collect::<Result<_, _>>()?;
        Ok(collect(sinks, report))
    }
    validate(rel, query)?;
    let (units, seed) = (executor.units(), executor.seed());
    match algorithm {
        Algorithm::Rp => go(executor, rp::plan(rel, query, opts), Ok),
        Algorithm::Bpp => go(executor, bpp::plan(rel, query, opts, units), Ok),
        Algorithm::Asl => go(
            executor,
            affinity::plan::<CuboidList>(rel, query, opts, seed),
            Ok,
        ),
        Algorithm::Pt => go(executor, pt::plan(rel, query, opts, units), Ok),
        Algorithm::Aht => {
            let plan = affinity::plan::<AffinityHashTable>(rel, query, opts, opts.aht_hash);
            go(executor, plan, Ok)
        }
        Algorithm::HashTree => go(executor, htree::plan(rel, query, opts), identity),
    }
}

/// Merges per-task sinks — in task-id order, the only order executors
/// are allowed to return — into one sorted cube ([`collect_cells`]: runs
/// concatenated per cuboid, sorted only where a kernel emitted out of key
/// order).
pub(crate) fn collect(sinks: Vec<CellBuf>, report: ExecReport) -> ExecOutcome {
    ExecOutcome {
        total_cells: sinks.iter().map(|sink| sink.count).sum(),
        cells: collect_cells(sinks),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use crate::verify::assert_same_cells;
    use icecube_exec::{Backend, NativeExecutor, SimExecutor};

    #[test]
    fn every_evaluated_algorithm_matches_naive_on_both_backends() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 2);
        let opts = RunOptions::default();
        let want = naive_iceberg_cube(&rel, &q);
        for algorithm in Algorithm::evaluated() {
            let mut sim = SimExecutor::fast_ethernet(4);
            let out = run_parallel_exec(&mut sim, algorithm, &rel, &q, &opts).unwrap();
            assert_same_cells(want.clone(), out.cells, &format!("{algorithm} on sim"));
            assert_eq!(out.report.backend, Backend::Sim);
            let mut native = NativeExecutor::new(4);
            let out = run_parallel_exec(&mut native, algorithm, &rel, &q, &opts).unwrap();
            assert_same_cells(want.clone(), out.cells, &format!("{algorithm} on native"));
            assert_eq!(out.report.backend, Backend::Native);
        }
    }

    #[test]
    fn hash_tree_runs_natively() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 2);
        let mut native = NativeExecutor::new(2);
        let out = run_parallel_exec(
            &mut native,
            Algorithm::HashTree,
            &rel,
            &q,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out.report.backend, Backend::Native);
        assert_eq!(out.report.tasks, 1);
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            out.cells,
            "HashTree on native",
        );
    }

    #[test]
    fn counting_mode_counts_without_retaining() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let mut native = NativeExecutor::new(2);
        let out = run_parallel_exec(
            &mut native,
            Algorithm::Rp,
            &rel,
            &q,
            &RunOptions::counting(),
        )
        .unwrap();
        assert!(out.cells.is_empty());
        assert_eq!(out.total_cells, 47);
    }

    #[test]
    fn invalid_queries_are_rejected_before_spawning() {
        let rel = sales();
        let q = IcebergQuery::count_cube(5, 1);
        let mut native = NativeExecutor::new(2);
        match run_parallel_exec(
            &mut native,
            Algorithm::Bpp,
            &rel,
            &q,
            &RunOptions::default(),
        ) {
            Err(AlgoError::DimensionMismatch { .. }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }
}
