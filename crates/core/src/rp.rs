//! Algorithm RP — Replicated Parallel BUC (Section 3.1, Figure 3.1).
//!
//! The simplest parallelization of BUC: the processing tree's `d`
//! independent subtrees (rooted at each dimension) become the tasks,
//! assigned to processors round-robin; the dataset is replicated on every
//! node; each node runs plain depth-first BUC on its subtrees and writes
//! cuboids to its local disk.
//!
//! RP inherits BUC's pruning but also its scattered depth-first writing,
//! and its task granularity is coarse and uneven — the subtree rooted at
//! `A` has `2^(d-1)` cuboids while `D`'s has one — so load balance is weak
//! (Figure 4.1). Both weaknesses are what BPP and PT then attack.
//!
//! The assignment is static, so self-healing is the executor's recovery
//! sweep: a subtree whose processor crashed is re-run on the least-loaded
//! survivor, which re-reads its own replica — no recovery surcharge.

use crate::algorithms::RunOptions;
use crate::backend::{charge_replicated_load, task_sink};
use crate::buc::{buc_depth_first_with, BucScratch};
use crate::cell::CellBuf;
use crate::query::IcebergQuery;
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_exec::{TaskSpec, Workload};
use icecube_lattice::{CuboidMask, TreeTask};

/// RP's decomposition: one task per processing-tree subtree, each
/// computed by depth-first BUC over the replicated relation and pinned
/// to processor `i mod n`.
pub(crate) struct RpWorkload<'a> {
    rel: &'a Relation,
    minsup: u64,
    collect: bool,
}

/// Builds RP's plan: the `d` subtrees rooted at each dimension, in
/// dimension order.
pub(crate) fn plan<'a>(
    rel: &'a Relation,
    query: &IcebergQuery,
    opts: &RunOptions,
) -> (Vec<TaskSpec>, RpWorkload<'a>) {
    let workload = RpWorkload {
        rel,
        minsup: query.minsup,
        collect: opts.collect_cells,
    };
    let specs = (0..query.dims)
        .map(|id| {
            let task = workload.subtree(id);
            TaskSpec {
                id,
                affinity: task.root.bits() as u64,
                weight: task.size() as u64,
            }
        })
        .collect();
    (specs, workload)
}

impl RpWorkload<'_> {
    /// Task `id`: the whole subtree rooted at dimension `id`.
    fn subtree(&self, id: usize) -> TreeTask {
        TreeTask::full_subtree(CuboidMask::from_dims(&[id]), self.rel.arity())
    }
}

impl Workload for RpWorkload<'_> {
    type Scratch = BucScratch;
    type Out = CellBuf;

    fn scratch(&self, _worker: usize) -> BucScratch {
        BucScratch::new()
    }

    fn prologue(&self, node: &mut SimNode) {
        charge_replicated_load(self.rel, node);
    }

    /// Static round-robin: with more processors than dimensions, some idle.
    fn owner(&self, spec: &TaskSpec, workers: usize) -> Option<usize> {
        Some(spec.id % workers)
    }

    fn run(
        &self,
        spec: &TaskSpec,
        scratch: &mut BucScratch,
        node: &mut SimNode,
        _: bool,
    ) -> CellBuf {
        let mut sink = task_sink(self.collect);
        let task = self.subtree(spec.id);
        buc_depth_first_with(scratch, self.rel, self.minsup, task, node, &mut sink);
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_parallel_with, Algorithm};
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use crate::verify::assert_same_cells;
    use icecube_cluster::ClusterConfig;
    use icecube_data::presets;

    fn check(rel: &Relation, minsup: u64, nodes: usize) {
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let cfg = ClusterConfig::fast_ethernet(nodes);
        let out = run_parallel_with(Algorithm::Rp, rel, &q, &cfg, &RunOptions::default()).unwrap();
        let want = naive_iceberg_cube(rel, &q);
        assert_same_cells(want, out.cells, &format!("RP n={nodes} minsup={minsup}"));
    }

    #[test]
    fn matches_naive_across_cluster_sizes() {
        let rel = sales();
        for nodes in [1, 2, 3, 8] {
            check(&rel, 2, nodes);
        }
        let rel = presets::tiny(11).generate().unwrap();
        for minsup in [1, 2, 4] {
            check(&rel, minsup, 4);
        }
    }

    #[test]
    fn load_is_skewed_toward_early_dimensions() {
        // T_A has 2^(d-1) cuboids vs T_D's 1: the node holding dimension 0
        // does far more work (the paper's Figure 4.1 observation).
        let rel = presets::tiny(5).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let out = run_parallel_with(
            Algorithm::Rp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(4),
            &RunOptions::default(),
        )
        .unwrap();
        let loads = out.report.stats.loads_ns();
        assert!(loads[0] > loads[3], "loads {loads:?}");
        assert!(
            out.report.stats.imbalance() > 1.1,
            "imbalance {}",
            out.report.stats.imbalance()
        );
    }

    #[test]
    fn extra_processors_idle() {
        // More processors than dimensions leaves some idle but must not
        // break anything.
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let out = run_parallel_with(
            Algorithm::Rp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(8),
            &RunOptions::default(),
        )
        .unwrap();
        let idle_nodes = out
            .report
            .stats
            .nodes()
            .iter()
            .filter(|s| s.cells_written == 0)
            .count();
        assert_eq!(idle_nodes, 5);
        let want = naive_iceberg_cube(&rel, &q);
        assert_same_cells(want, out.cells, "RP with idle processors");
    }

    #[test]
    fn a_crash_is_healed_and_the_cube_stays_exact() {
        use icecube_cluster::FaultPlan;
        let rel = presets::tiny(11).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let quiet = run_parallel_with(
            Algorithm::Rp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(3),
            &RunOptions::default(),
        )
        .unwrap();
        // Kill node 0 (the most loaded: subtrees A and D) mid-run.
        let cfg = ClusterConfig::fast_ethernet(3)
            .with_faults(FaultPlan::none().crash(0, quiet.report.wall_ns / 4));
        let out = run_parallel_with(Algorithm::Rp, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            out.cells,
            "RP with a mid-run crash",
        );
        let stats = &out.report.stats;
        assert_eq!(stats.total_crashes(), 1);
        assert!(stats.total_tasks_lost() >= 1, "{stats:?}");
        assert_eq!(stats.total_tasks_recovered(), stats.total_tasks_lost());
        assert!(out.report.wall_ns > quiet.report.wall_ns);
    }

    #[test]
    fn counting_mode_tracks_without_retaining() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let counted = run_parallel_with(
            Algorithm::Rp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(2),
            &RunOptions::counting(),
        )
        .unwrap();
        assert!(counted.cells.is_empty());
        assert_eq!(counted.total_cells, 47);
        assert_eq!(counted.report.stats.total_cells(), 47);
    }
}
