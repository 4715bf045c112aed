//! Algorithm PT — Partitioned Tree (Section 3.4, Figures 3.9 and 3.10).
//!
//! PT strikes the balance between RP's coarse subtrees and ASL's
//! single-cuboid tasks: recursive **binary division** of the BUC
//! processing tree yields `32 × n` near-equal subtrees
//! ([`divide_tasks`]); a manager assigns them on demand with **prefix
//! affinity on the subtree roots** (top-down scheduling), and each task is
//! then computed **bottom-up** by BPP-BUC with breadth-first writing —
//! combining sort-sharing with minimum-support pruning, the hybrid the
//! paper recommends as the default algorithm.
//!
//! Prefix affinity is realized through a per-worker *sort cache*: the
//! index array stays grouped by the previous root's dimensions, and a new
//! root sharing a prefix of length `p` only refines from level `p`
//! onwards. Deeper refinements happen strictly within groups, so truncated
//! cache levels stay valid across tasks.

// check:allow-file(panic-path): slice indexing and asserts in this
// module guard simulation-internal invariants over indices the module
// itself constructs; a violation is a bug, not runtime input. Tracked
// by the panic-path triage note in DESIGN section 12.

use crate::algorithms::RunOptions;
use crate::backend::{charge_replicated_load, task_sink};
use crate::buc::{bpp_buc_presorted_with, BucScratch};
use crate::cell::CellBuf;
use crate::partition::{full_index, Group, Partitioner};
use crate::query::IcebergQuery;
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_exec::{TaskSpec, Workload};
use icecube_lattice::{divide_tasks, CuboidMask, TreeTask};

/// The manager's pick (top-down scheduling): the pending task whose root
/// shares the longest prefix with `prev_root`, the dimensions the worker's
/// index is already sorted by; ties — and the no-affinity case, where
/// `prev_root` is empty — go to the largest task, then the earliest in the
/// queue.
fn longest_shared_root(pending: &[TaskSpec], prev_root: CuboidMask) -> usize {
    let key = |spec: &TaskSpec| (root_of(spec).shared_prefix_len(prev_root), spec.weight);
    let mut best = 0usize;
    for at in 1..pending.len() {
        if key(&pending[at]) > key(&pending[best]) {
            best = at;
        }
    }
    best
}

/// The subtree root a PT task's affinity hint names.
fn root_of(spec: &TaskSpec) -> CuboidMask {
    CuboidMask::from_bits(spec.affinity as u32)
}

/// A worker's sorted-index cache: `idx` is grouped by `root_dims[..k]` at
/// level `k`; `levels[k]` are the groups after refining by `root_dims[..=k]`.
#[derive(Default)]
struct SortCache {
    root_dims: Vec<usize>,
    idx: Vec<u32>,
    levels: Vec<Vec<Group>>,
    part: Partitioner,
    /// The single whole-index group, kept alongside so [`Self::groups`]
    /// can hand out a borrow in the no-root case instead of allocating.
    whole: [Group; 1],
}

impl SortCache {
    /// Re-sorts (or incrementally refines) for a task root, returning the
    /// root-level groups. Charges only the refinement passes actually run.
    fn prepare(&mut self, rel: &Relation, root_dims: &[usize], affinity: bool, node: &mut SimNode) {
        let shared = if affinity && !self.idx.is_empty() {
            self.root_dims
                .iter()
                .zip(root_dims)
                .take_while(|(a, b)| a == b)
                .count()
        } else {
            0
        };
        if shared == 0 {
            self.idx = full_index(rel);
            node.charge_scan(rel.len() as u64);
            self.root_dims.clear();
            self.levels.clear();
        } else {
            self.root_dims.truncate(shared);
            self.levels.truncate(shared);
        }
        self.whole = [(0, self.idx.len() as u32)];
        for &dim in &root_dims[self.root_dims.len()..] {
            let SortCache {
                idx,
                levels,
                part,
                whole,
                ..
            } = self;
            let base: &[Group] = match levels.last() {
                Some(g) => g,
                None => &whole[..],
            };
            // check:allow(alloc-hot-path): one group vector per cached sort
            // level (≤ DIMS per prepare); the ROADMAP item 1 arena pools it.
            let mut fine = Vec::new();
            part.refine(rel, idx, base, dim, node, &mut fine);
            levels.push(fine);
            self.root_dims.push(dim);
        }
    }

    fn groups(&self) -> &[Group] {
        match self.levels.last() {
            Some(g) => g,
            None => &self.whole[..],
        }
    }
}

/// Per-worker state: the BUC arena plus the sort cache whose incremental
/// refinement realizes PT's prefix affinity.
pub(crate) struct PtScratch {
    buc: BucScratch,
    cache: SortCache,
}

/// PT's decomposition: the binary-divided subtrees, each computed
/// bottom-up by presorted BPP-BUC over the worker's sort cache. The cache
/// only changes cost, never cells.
pub(crate) struct PtWorkload<'a> {
    rel: &'a Relation,
    minsup: u64,
    affinity: bool,
    collect: bool,
    /// The divided subtrees by task id: largest first, as
    /// [`divide_tasks`] returns them.
    tasks: Vec<TreeTask>,
}

/// Builds PT's plan: binary division of the processing tree until there
/// are `pt_task_ratio × units` near-equal subtrees ("32n" in the paper's
/// experiments). Ids follow the division's largest-first order, the
/// manager's pool order; slice order is the sequence one worker would
/// pull under [`longest_shared_root`], so contiguous slice blocks keep
/// unsteered workers' sort caches refining incrementally instead of
/// re-sorting the relation from scratch at almost every task.
pub(crate) fn plan<'a>(
    rel: &'a Relation,
    query: &IcebergQuery,
    opts: &RunOptions,
    units: usize,
) -> (Vec<TaskSpec>, PtWorkload<'a>) {
    let tasks = divide_tasks(query.dims, opts.pt_task_ratio.max(1) * units.max(1));
    let mut pending: Vec<TaskSpec> = tasks
        .iter()
        .enumerate()
        .map(|(id, task)| TaskSpec {
            id,
            affinity: task.root.bits() as u64,
            weight: task.size() as u64,
        })
        .collect();
    let mut chain = Vec::with_capacity(pending.len());
    let mut prev_root = CuboidMask::from_bits(0);
    while !pending.is_empty() {
        let spec = pending.remove(longest_shared_root(&pending, prev_root));
        prev_root = root_of(&spec);
        chain.push(spec);
    }
    let workload = PtWorkload {
        rel,
        minsup: query.minsup,
        affinity: opts.affinity,
        collect: opts.collect_cells,
        tasks,
    };
    (chain, workload)
}

impl Workload for PtWorkload<'_> {
    type Scratch = PtScratch;
    type Out = CellBuf;

    fn scratch(&self, _worker: usize) -> PtScratch {
        PtScratch {
            buc: BucScratch::new(),
            cache: SortCache::default(),
        }
    }

    fn prologue(&self, node: &mut SimNode) {
        charge_replicated_load(self.rel, node);
    }

    fn pick(&self, pending: &[TaskSpec], scratch: &PtScratch) -> usize {
        let sorted_by: &[usize] = if self.affinity {
            &scratch.cache.root_dims
        } else {
            &[]
        };
        longest_shared_root(pending, CuboidMask::from_dims(sorted_by))
    }

    fn run(
        &self,
        spec: &TaskSpec,
        scratch: &mut PtScratch,
        node: &mut SimNode,
        _: bool,
    ) -> CellBuf {
        let task = self.tasks[spec.id];
        let root_dims = task.root.dims();
        scratch
            .cache
            .prepare(self.rel, &root_dims, self.affinity, node);
        let mut sink = task_sink(self.collect);
        bpp_buc_presorted_with(
            &mut scratch.buc,
            self.rel,
            self.minsup,
            task,
            &scratch.cache.idx,
            scratch.cache.groups(),
            node,
            &mut sink,
        );
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_parallel_with, Algorithm};
    use crate::backend::ExecOutcome;
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use crate::verify::assert_same_cells;
    use icecube_cluster::ClusterConfig;
    use icecube_data::presets;

    fn check(rel: &Relation, minsup: u64, nodes: usize, ratio: usize) {
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let cfg = ClusterConfig::fast_ethernet(nodes);
        let opts = RunOptions {
            pt_task_ratio: ratio,
            ..RunOptions::default()
        };
        let out = run_parallel_with(Algorithm::Pt, rel, &q, &cfg, &opts).unwrap();
        let want = naive_iceberg_cube(rel, &q);
        assert_same_cells(
            want,
            out.cells,
            &format!("PT n={nodes} minsup={minsup} r={ratio}"),
        );
    }

    #[test]
    fn matches_naive_across_configurations() {
        let rel = sales();
        for nodes in [1, 2, 4] {
            for ratio in [1, 4, 32] {
                check(&rel, 2, nodes, ratio);
            }
        }
        for seed in [1, 6] {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 3] {
                check(&rel, minsup, 4, 8);
            }
        }
    }

    #[test]
    fn matches_naive_without_affinity() {
        let rel = presets::tiny(2).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let out = run_parallel_with(
            Algorithm::Pt,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(3),
            &RunOptions {
                affinity: false,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let want = naive_iceberg_cube(&rel, &q);
        assert_same_cells(want, out.cells, "PT without affinity");
    }

    #[test]
    fn pick_prefers_shared_root_prefix_then_size_then_queue_order() {
        let spec = |id, dims: &[usize], weight| TaskSpec {
            id,
            affinity: CuboidMask::from_dims(dims).bits() as u64,
            weight,
        };
        let pending = [spec(0, &[1], 4), spec(1, &[0, 1], 2), spec(2, &[0], 2)];
        // Previous root was A: AB and A both share one dimension with it
        // and are the same size — the earlier in the queue wins.
        assert_eq!(
            longest_shared_root(&pending, CuboidMask::from_dims(&[0])),
            1
        );
        // A longer shared prefix beats size.
        assert_eq!(
            longest_shared_root(&pending, CuboidMask::from_dims(&[0, 1])),
            1
        );
        // Nothing sorted yet (or no affinity): plain largest-first.
        assert_eq!(longest_shared_root(&pending, CuboidMask::from_dims(&[])), 0);
        // A reclaimed task at the back of the queue still goes first if
        // it is larger.
        let requeued = [pending[2], pending[0]];
        assert_eq!(
            longest_shared_root(&requeued, CuboidMask::from_dims(&[])),
            1
        );
    }

    #[test]
    fn sort_cache_reuse_reduces_cpu() {
        let rel = presets::tiny(3).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 1);
        let cfg = ClusterConfig::fast_ethernet(1);
        let with =
            run_parallel_with(Algorithm::Pt, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        let without = run_parallel_with(
            Algorithm::Pt,
            &rel,
            &q,
            &cfg,
            &RunOptions {
                affinity: false,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let cpu = |o: &ExecOutcome| o.report.stats.nodes()[0].cpu_ns;
        assert!(cpu(&with) <= cpu(&without));
    }

    #[test]
    fn task_ratio_trades_balance_for_pruning() {
        // Higher ratio → finer tasks → better balance (the paper's dotted
        // line in Figure 3.9).
        let rel = presets::tiny(7).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let cfg = ClusterConfig::fast_ethernet(4);
        let coarse = run_parallel_with(
            Algorithm::Pt,
            &rel,
            &q,
            &cfg,
            &RunOptions {
                pt_task_ratio: 1,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let fine = run_parallel_with(
            Algorithm::Pt,
            &rel,
            &q,
            &cfg,
            &RunOptions {
                pt_task_ratio: 32,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(fine.report.stats.imbalance() <= coarse.report.stats.imbalance() + 0.25);
        assert_same_cells(coarse.cells, fine.cells, "ratio must not change output");
    }

    #[test]
    fn a_crash_requeues_subtrees_and_the_cube_stays_exact() {
        use icecube_cluster::FaultPlan;
        let rel = presets::tiny(6).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let quiet = run_parallel_with(
            Algorithm::Pt,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(3),
            &RunOptions::default(),
        )
        .unwrap();
        // Kill a worker mid-run: its sort cache and in-flight subtree are
        // lost; survivors re-sort and finish the division exactly.
        let cfg = ClusterConfig::fast_ethernet(3)
            .with_faults(FaultPlan::none().crash(2, quiet.report.wall_ns / 3));
        let out = run_parallel_with(Algorithm::Pt, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            out.cells,
            "PT with a mid-run crash",
        );
        let stats = &out.report.stats;
        assert_eq!(stats.total_crashes(), 1);
        assert!(stats.total_tasks_lost() >= 1, "{stats:?}");
        assert!(stats.total_tasks_recovered() >= 1, "{stats:?}");
    }

    #[test]
    fn strong_load_balance_on_eight_nodes() {
        let rel = presets::tiny(10).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let out = run_parallel_with(
            Algorithm::Pt,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(8),
            &RunOptions::default(),
        )
        .unwrap();
        assert!(
            out.report.stats.imbalance() < 1.8,
            "imbalance {}",
            out.report.stats.imbalance()
        );
    }
}
