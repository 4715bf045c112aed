//! Algorithm ASL — Affinity Skip List (Section 3.3, Figure 3.8).
//!
//! ASL puts load balancing first: every cuboid is its own task, assigned
//! dynamically by a manager. Cells of the cuboid under construction live
//! in a **skip list**, which grows incrementally and is always sorted, so
//! a finished cuboid streams out in order with no sort step.
//!
//! The manager exploits two affinities between a worker's new task and the
//! skip lists it already holds (its *previous* and its *first*):
//!
//! * **prefix affinity** — the new cuboid's dimensions are a prefix of the
//!   held list's: the list is already in the right order, so one
//!   accumulate-runs scan produces the result (subroutine `prefix-reuse`);
//! * **subset affinity** — the new cuboid's dimensions are a subset: the
//!   held list's cells (far fewer than raw tuples) seed the new skip list
//!   (subroutine `subset-create`).
//!
//! Only when neither applies does the worker fall back to scanning the raw
//! data (subroutine `scratch-create`), and the manager then hands it the
//! largest remaining cuboid to maximize future affinity. Each worker keeps
//! its first list alive for the whole run — it has the most dimensions and
//! thus the widest subset coverage. That schedule is AHT's too and is
//! written once, in the crate's `affinity` driver; this module supplies
//! the skip list as its cell store, with the three subroutines.
//!
//! ASL cannot prune: whether a cell meets the threshold is unknown until
//! the scan ends, and sub-threshold cells still feed later tasks, so the
//! minimum support filters only the *output* (the paper's Figure 4.5
//! observation that ASL gains from higher support only through less I/O).

// check:allow-file(panic-in-lib): asserts and expects in this module
// guard internal algorithm invariants; a violation is a bug in the
// cubing algorithm itself, never caller input, and must abort the run
// loudly rather than launder a wrong cube into a typed error.

// check:allow-file(panic-path): slice indexing and asserts in this
// module guard simulation-internal invariants over indices the module
// itself constructs; a violation is a bug, not runtime input. Tracked
// by the panic-path triage note in DESIGN section 12.

use crate::affinity::{CellStore, PrefixScan};
use crate::agg::Aggregate;
use crate::cell::{emit_cuboid, CellSink};
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_lattice::CuboidMask;
use icecube_skiplist::{SkipList, SkipListPool};

/// A materialized cuboid: its identity plus the skip list of *all* its
/// cells (unfiltered — sub-threshold cells feed later tasks).
pub(crate) struct CuboidList {
    cuboid: CuboidMask,
    list: SkipList<Aggregate>,
}

/// The per-task scratch buffers shared by the ASL subroutines: cleared
/// (never shrunk) between tasks so the per-cell loops run allocation-free.
#[derive(Default)]
pub(crate) struct AslBufs {
    /// Projected-key buffer for subset/scratch builds.
    key: Vec<u32>,
    /// Held-list positions of the task's dimensions (subset builds).
    positions: Vec<usize>,
}

/// Subroutine `prefix-reuse` (Figure 3.8): the held list is sorted with the
/// task's dimensions as a key prefix, so one accumulate-runs scan both
/// aggregates and emits in sorted order. Each run is keyed by its first
/// cell's prefix, borrowed from the list, and streams to the thresholded
/// emit.
fn prefix_reuse<S: CellSink>(
    held: &CuboidList,
    task: CuboidMask,
    minsup: u64,
    node: &mut SimNode,
    sink: &mut S,
) {
    debug_assert!(task.is_prefix_of(held.cuboid));
    let k = task.dim_count();
    // The scan compares each cell's prefix with its run's and merges the
    // cell into the run: charged before the emit's write, as one pass.
    let scanned = held.list.len() as u64;
    node.charge_comparisons(scanned * k as u64);
    node.charge_agg_updates(scanned);
    let mut cells = held.list.iter().peekable();
    let runs = std::iter::from_fn(|| {
        let (key, agg) = cells.next()?;
        let prefix = &key[..k];
        let mut run = *agg;
        while let Some((_, more)) = cells.next_if(|(next, _)| &next[..k] == prefix) {
            run.merge(more);
        }
        Some((prefix, run))
    });
    emit_cuboid(task, runs, minsup, node, sink);
}

/// Subroutine `subset-create` (Figure 3.8): seed a new skip list from the
/// held list's cells instead of re-reading the raw data. The list arena
/// and the position/key buffers all come from the run's recycled scratch.
fn subset_create(
    held: &CuboidList,
    task: CuboidMask,
    seed: u64,
    node: &mut SimNode,
    pool: &mut SkipListPool<Aggregate>,
    bufs: &mut AslBufs,
) -> CuboidList {
    debug_assert!(task.is_subset_of(held.cuboid));
    // Positions of the task's dimensions within the held list's key: a
    // single merge walk, since both dimension sets ascend and task ⊆ held.
    let positions = &mut bufs.positions;
    positions.clear();
    let mut hpos = 0usize;
    let mut hdims = held.cuboid.iter_dims();
    for d in task.iter_dims() {
        for h in hdims.by_ref() {
            hpos += 1;
            if h == d {
                positions.push(hpos - 1);
                break;
            }
        }
    }
    debug_assert_eq!(positions.len(), task.dim_count());
    let mut list = pool.acquire_with_capacity(task.dim_count(), seed, held.list.len());
    let key = &mut bufs.key;
    key.clear();
    key.resize(positions.len(), 0);
    let mut scanned = 0u64;
    for (hkey, agg) in held.list.iter() {
        scanned += 1;
        for (slot, &p) in key.iter_mut().zip(positions.iter()) {
            *slot = hkey[p];
        }
        list.insert_or_update(key, || *agg, |a| a.merge(agg));
    }
    node.charge_scan(scanned);
    node.charge_agg_updates(scanned);
    node.charge_comparisons(list.take_comparisons());
    CuboidList { cuboid: task, list }
}

/// Builds the task's skip list from the raw data (no affinity available).
fn scratch_create(
    rel: &Relation,
    task: CuboidMask,
    seed: u64,
    node: &mut SimNode,
    pool: &mut SkipListPool<Aggregate>,
    bufs: &mut AslBufs,
) -> CuboidList {
    let mut list = pool.acquire(task.dim_count(), seed);
    let key = &mut bufs.key;
    key.clear();
    key.resize(task.dim_count(), 0);
    for (row, m) in rel.rows() {
        task.project_row(row, key);
        list.insert_or_update(key, || Aggregate::of(m), |a| a.update(m));
    }
    node.charge_scan(rel.len() as u64);
    node.charge_agg_updates(rel.len() as u64);
    node.charge_comparisons(list.take_comparisons());
    CuboidList { cuboid: task, list }
}

/// The skip list's seed per (node, cuboid): it shapes only tower heights
/// (search cost), never contents or iteration order.
fn list_seed(seed: u64, task: CuboidMask, node: &SimNode) -> u64 {
    seed ^ ((node.id() as u64) << 32) ^ task.bits() as u64
}

/// ASL's cell store: the skip list, salted by the plan's seed, with the
/// prefix passes on.
impl CellStore for CuboidList {
    type Pool = (SkipListPool<Aggregate>, AslBufs);
    type Params = u64;
    const PREFIX_SCAN: Option<PrefixScan<Self>> = Some(|held, task, minsup, node, sink, _| {
        prefix_reuse(held, task, minsup, node, sink);
    });

    fn cuboid(&self) -> CuboidMask {
        self.cuboid
    }

    fn memory_bytes(&self) -> u64 {
        self.list.memory_bytes()
    }

    fn cells(&self) -> impl Iterator<Item = (&[u32], &Aggregate)> {
        self.list.iter()
    }

    fn from_rows(
        rel: &Relation,
        task: CuboidMask,
        seed: u64,
        node: &mut SimNode,
        (lists, bufs): &mut Self::Pool,
    ) -> Self {
        let seed = list_seed(seed, task, node);
        scratch_create(rel, task, seed, node, lists, bufs)
    }

    fn derive(
        &self,
        task: CuboidMask,
        seed: u64,
        node: &mut SimNode,
        (lists, bufs): &mut Self::Pool,
    ) -> Self {
        let seed = list_seed(seed, task, node);
        subset_create(self, task, seed, node, lists, bufs)
    }

    fn release(self, (lists, _): &mut Self::Pool) {
        lists.release(self.list);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{
        affinity_ladder, cuboid_of, cuboid_tasks, head, lattice_plan, Affine, Held,
    };
    use crate::algorithms::{run_parallel_with, Algorithm, RunOptions};
    use crate::backend::ExecOutcome;
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use crate::query::IcebergQuery;
    use crate::verify::assert_same_cells;
    use icecube_cluster::ClusterConfig;
    use icecube_data::presets;
    use icecube_exec::TaskSpec;

    fn check(rel: &Relation, minsup: u64, nodes: usize) {
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let cfg = ClusterConfig::fast_ethernet(nodes);
        let out = run_parallel_with(Algorithm::Asl, rel, &q, &cfg, &RunOptions::default()).unwrap();
        let want = naive_iceberg_cube(rel, &q);
        assert_same_cells(want, out.cells, &format!("ASL n={nodes} minsup={minsup}"));
    }

    #[test]
    fn matches_naive_across_configurations() {
        let rel = sales();
        for nodes in [1, 2, 4] {
            check(&rel, 1, nodes);
            check(&rel, 2, nodes);
        }
        for seed in [0, 9] {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 3] {
                check(&rel, minsup, 3);
            }
        }
    }

    #[test]
    fn matches_naive_without_affinity() {
        // The ablation switch must not affect correctness, only cost.
        let rel = presets::tiny(4).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let cfg = ClusterConfig::fast_ethernet(3);
        let out = run_parallel_with(
            Algorithm::Asl,
            &rel,
            &q,
            &cfg,
            &RunOptions {
                affinity: false,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let want = naive_iceberg_cube(&rel, &q);
        assert_same_cells(want, out.cells, "ASL without affinity");
    }

    #[test]
    fn affinity_scheduling_saves_work() {
        let rel = presets::tiny(4).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let cfg = ClusterConfig::fast_ethernet(2);
        let with =
            run_parallel_with(Algorithm::Asl, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        let without = run_parallel_with(
            Algorithm::Asl,
            &rel,
            &q,
            &cfg,
            &RunOptions {
                affinity: false,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let cpu =
            |o: &ExecOutcome| -> u64 { o.report.stats.nodes().iter().map(|s| s.cpu_ns).sum() };
        assert!(
            cpu(&with) < cpu(&without),
            "affinity {} vs scratch-only {}",
            cpu(&with),
            cpu(&without)
        );
    }

    /// Specs for `cuboids`, with ids in the order given (the pool order).
    fn specs(cuboids: &[CuboidMask]) -> Vec<TaskSpec> {
        cuboids
            .iter()
            .enumerate()
            .map(|(id, c)| TaskSpec {
                id,
                affinity: c.bits() as u64,
                weight: 1 << c.dim_count(),
            })
            .collect()
    }

    #[test]
    fn ladder_prefers_prefix_then_subset_then_largest() {
        let abcd = CuboidMask::from_dims(&[0, 1, 2, 3]);
        let abc = CuboidMask::from_dims(&[0, 1, 2]);
        let bcd = CuboidMask::from_dims(&[1, 2, 3]);
        let cd = CuboidMask::from_dims(&[2, 3]);
        // Pending in pool order: descending dims.
        let mut pending = specs(&[abc, bcd, cd]);
        let hit = |at, held, prefix| Some(Affine { at, held, prefix });
        // prev = ABCD: ABC is a prefix, picked first.
        let got = affinity_ladder(&pending, Some(abcd), Some(abcd), true, false);
        assert_eq!(got, hit(0, Held::Prev, true));
        pending.remove(0);
        // Next: BCD is a subset of ABCD (not a prefix).
        let got = affinity_ladder(&pending, Some(abcd), Some(abcd), true, false);
        assert_eq!(got, hit(0, Held::Prev, false));
        pending.remove(0);
        // prev = something unrelated, first = ABCD: falls to the first list.
        let e = CuboidMask::from_dims(&[4]);
        let got = affinity_ladder(&pending, Some(e), Some(abcd), true, false);
        assert_eq!(got, hit(0, Held::First, false));
        // AHT's ladder has no prefix passes: ABC is just a subset.
        let got = affinity_ladder(&specs(&[abc]), Some(abcd), None, false, false);
        assert_eq!(got, hit(0, Held::Prev, false));
        assert_eq!(affinity_ladder(&[], Some(abcd), None, true, false), None);
    }

    #[test]
    fn without_lists_or_affinity_the_largest_goes_first() {
        let abc = CuboidMask::from_dims(&[0, 1, 2]);
        let ab = CuboidMask::from_dims(&[0, 1]);
        let pending = specs(&[abc, ab]);
        assert_eq!(affinity_ladder(&pending, None, None, true, false), None);
        assert_eq!(head(&pending), 0);
        // A reclaimed task rejoins at the back of the queue but keeps its
        // place in pool order.
        let requeued = [pending[1], pending[0]];
        assert_eq!(head(&requeued), 1);
        let got = affinity_ladder(&requeued, Some(abc), None, true, false);
        assert_eq!(got.map(|hit| hit.at), Some(1), "ABC before AB");
    }

    #[test]
    fn longest_prefix_prefers_shared_prefix_among_subsets() {
        let abcd = CuboidMask::from_dims(&[0, 1, 2, 3]);
        let bd = CuboidMask::from_dims(&[1, 3]);
        let ac = CuboidMask::from_dims(&[0, 2]);
        // Both are subsets of ABCD, neither a prefix; AC shares prefix A.
        let pending = specs(&[bd, ac]);
        let got = affinity_ladder(&pending, Some(abcd), Some(abcd), true, true);
        assert_eq!(
            got,
            Some(Affine {
                at: 1,
                held: Held::Prev,
                prefix: false
            })
        );
        // Without the refinement, plain pool order applies.
        let got = affinity_ladder(&pending, Some(abcd), Some(abcd), true, false);
        assert_eq!(got.map(|hit| hit.at), Some(0));
    }

    #[test]
    fn lattice_plan_chains_affine_tasks_and_numbers_them_in_pool_order() {
        let plan = lattice_plan(3, true);
        let pool = cuboid_tasks(3);
        assert_eq!(plan.len(), 7);
        for spec in &plan {
            assert_eq!(cuboid_of(spec), pool[spec.id]);
        }
        // One worker's pull order: ABC, its prefixes AB and A, then AC
        // (a subset of ABC) and C (a subset of the AC it now holds), …
        let order: Vec<String> = plan.iter().map(|s| cuboid_of(s).to_string()).collect();
        assert_eq!(order, ["ABC", "AB", "A", "AC", "C", "BC", "B"]);
    }

    #[test]
    fn longest_prefix_does_not_change_the_answer() {
        let rel = presets::tiny(17).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let cfg = ClusterConfig::fast_ethernet(3);
        let out = run_parallel_with(
            Algorithm::Asl,
            &rel,
            &q,
            &cfg,
            &RunOptions {
                asl_longest_prefix: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_same_cells(
            crate::naive::naive_iceberg_cube(&rel, &q),
            out.cells,
            "ASL with longest-prefix scheduling",
        );
    }

    #[test]
    fn a_crash_requeues_cuboids_and_the_cube_stays_exact() {
        use icecube_cluster::FaultPlan;
        let rel = presets::tiny(9).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let quiet = run_parallel_with(
            Algorithm::Asl,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(3),
            &RunOptions::default(),
        )
        .unwrap();
        // Kill a worker mid-run: its skip lists (and any in-flight cuboid)
        // are lost; survivors rebuild affinity and finish the lattice.
        let cfg = ClusterConfig::fast_ethernet(3)
            .with_faults(FaultPlan::none().crash(1, quiet.report.wall_ns / 4));
        let out =
            run_parallel_with(Algorithm::Asl, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            out.cells,
            "ASL with a mid-run crash",
        );
        let stats = &out.report.stats;
        assert_eq!(stats.total_crashes(), 1);
        assert!(stats.total_tasks_lost() >= 1, "{stats:?}");
        assert!(stats.total_tasks_recovered() >= 1, "{stats:?}");
    }

    #[test]
    fn single_node_runs_the_whole_lattice() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let out = run_parallel_with(
            Algorithm::Asl,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(1),
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out.total_cells, 47);
        // One scratch build (the top cuboid) and affinity for the rest:
        // the single worker executed all 7 tasks.
        assert_eq!(out.report.stats.nodes()[0].tasks, 7);
    }

    #[test]
    fn load_balance_is_strong_on_skewed_data() {
        let rel = presets::tiny(12).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let out = run_parallel_with(
            Algorithm::Asl,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(4),
            &RunOptions::default(),
        )
        .unwrap();
        assert!(
            out.report.stats.imbalance() < 1.6,
            "imbalance {}",
            out.report.stats.imbalance()
        );
    }
}
