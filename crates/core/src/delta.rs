//! Incremental cube maintenance under streaming ingest.
//!
//! The paper computes each iceberg cube once from a frozen relation; this
//! module keeps a cube live under append batches, HaCube-style: the stored
//! cube reuses its materialization by *merging* delta aggregates instead of
//! rebuilding. A [`MaintainedCube`] owns a **floor** store — full partial
//! aggregates at minimum support 1 — and serves thresholded snapshots at
//! its current serving minsup:
//!
//! * **Ingest** counting-sorts just the batch (a BUC pass at minsup 1, no
//!   pruning — the floor needs every partial so sub-threshold cells can be
//!   promoted later) and merges the pass's per-cuboid blocks into the
//!   floor, block against block ([`MaintainedCube::ingest_with`];
//!   [`CubeStore::merge_cells`] adapts precomputed cells to the same
//!   merge). A progressive build splits each ingest in its halves
//!   ([`MaintainedCube::aggregate`], [`MaintainedCube::fold`]) and merges
//!   its cuboids on the native pool while the next chunk aggregates.
//!   The merge touches exactly the lattice region the batch's cells
//!   project into (`Σ_g |π_g(batch)|` cells over the
//!   cuboids with at least one delta cell) — never the whole cube.
//! * **Promotion/demotion is tombstone-free.** The floor always holds the
//!   truth; [`MaintainedCube::visible`] simply does not copy cells below
//!   the serving threshold. A cell crossing minsup upward (ingest) appears,
//!   and one crossing downward ([`MaintainedCube::set_minsup`] raising the
//!   threshold — append-only counts never shrink) retires, atomically with
//!   the epoch bump that publishes the next snapshot.
//! * **Equivalence contract** (the tier-1 oracle in
//!   `tests/incremental_equivalence.rs`): after any batch sequence, the
//!   visible snapshot is byte-identical to a from-scratch recompute over
//!   the concatenated relation at the same minsup. COUNT/SUM/MIN/MAX are
//!   all distributive over a disjoint row union, so append-only merges
//!   lose nothing; retractions are out of scope by design.
//! * **Fault dimension**: [`MaintainedCube::ingest_on_cluster`] runs the
//!   delta pass through [`run_parallel`], where the simulated executor's
//!   self-healing (crash sweeps, per-task output slots, bounded RPC
//!   retry) guarantees bit-identical cells under seeded fault plans. The
//!   floor is only touched on a successful run, so a refresh that dies
//!   completely ([`AlgoError::ClusterExhausted`]) leaves the previous
//!   epoch fully intact.
//!
//! The memory trade-off is deliberate and documented in DESIGN §13: the
//! floor stores the *full* cube (minsup 1) so promotion needs no
//! recomputation — the classic iceberg space saving moves from the store
//! to the serving snapshot.

use crate::algorithms::{check_dims, run_parallel, Algorithm};
use crate::block::CellBlock;
use crate::cell::Cell;
use crate::error::AlgoError;
use crate::query::IcebergQuery;
use crate::sequential::{run_sequential_sink, SeqAlgorithm};
use crate::store::{merge_cuboid, CubeStore, MergeStats};
use icecube_cluster::{ClusterConfig, SimNode};
use icecube_data::{DeltaBatch, Relation};
use icecube_exec::{NativeExecutor, TaskSpec, Workload};
use std::sync::{Mutex, PoisonError};

/// What one maintenance step did: merge counters, the new epoch and the
/// virtual time the delta pass cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Epoch after this step (unchanged for an empty batch).
    pub epoch: u64,
    /// Existing floor cells whose aggregate absorbed delta partials.
    pub updated: usize,
    /// Floor cells the step created.
    pub inserted: usize,
    /// Cells that crossed the serving minsup upward — they appear in the
    /// next visible snapshot.
    pub promoted: usize,
    /// Cells that dropped below the serving minsup — only a threshold
    /// raise can cause this (append-only counts never shrink).
    pub retired: usize,
    /// Cuboids the delta touched (the lattice-region bound).
    pub touched_cuboids: usize,
    /// Virtual time of the delta aggregation pass in nanoseconds (0 when
    /// the cells were precomputed or the step was metadata-only).
    pub clock_ns: u64,
}

/// An iceberg cube kept current under append batches.
#[derive(Debug, Clone)]
pub struct MaintainedCube {
    dims: usize,
    minsup: u64,
    epoch: u64,
    floor: CubeStore,
}

impl MaintainedCube {
    /// An empty maintained cube over `dims` dimensions serving at
    /// `minsup` (clamped to at least 1).
    pub fn new(dims: usize, minsup: u64) -> Result<Self, AlgoError> {
        if dims == 0 {
            return Err(AlgoError::NoDimensions);
        }
        check_dims(dims)?;
        Ok(MaintainedCube {
            dims,
            minsup: minsup.max(1),
            epoch: 0,
            floor: CubeStore::from_cells(dims, 1, Vec::new()),
        })
    }

    /// Builds a maintained cube from an initial relation (the frozen-table
    /// starting point every batch sequence extends).
    pub fn from_relation(rel: &Relation, minsup: u64) -> Result<Self, AlgoError> {
        let mut cube = MaintainedCube::new(rel.arity(), minsup)?;
        cube.ingest(rel)?;
        Ok(cube)
    }

    /// Number of cube dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The serving minimum support.
    pub fn minsup(&self) -> u64 {
        self.minsup
    }

    /// The current epoch: bumped once per successful mutation, so two
    /// snapshots with the same epoch are the same cube.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The floor store: full partials at minimum support 1.
    pub fn floor(&self) -> &CubeStore {
        &self.floor
    }

    /// The servable snapshot at the current serving minsup — byte-identical
    /// to a from-scratch build over everything ingested so far.
    pub fn visible(&self) -> CubeStore {
        self.floor.thresholded(self.minsup)
    }

    /// Ingests an append batch of raw rows: counting-sorts just the batch
    /// (BUC at minsup 1 on one simulated node) and merges the partials
    /// into the floor. An empty batch is a no-op (epoch unchanged).
    pub fn ingest(&mut self, batch: &Relation) -> Result<DeltaReport, AlgoError> {
        self.ingest_with(batch, &ClusterConfig::fast_ethernet(1))
    }

    /// [`MaintainedCube::ingest`] with an explicit cost model for the
    /// single-node delta pass (the refresh-latency sweep varies this).
    ///
    /// [`MaintainedCube::aggregate`] then the merge, on the calling
    /// thread: the pass is BPP-BUC at minsup 1 on one simulated node
    /// under `config`, so `clock_ns` is that node's virtual time; its sink
    /// blocks merge into the floor as they are, with no `Vec<Cell>` on the
    /// way, each touched cuboid's successor installed before the next is
    /// allocated. On error the floor is unchanged.
    pub fn ingest_with(
        &mut self,
        batch: &Relation,
        config: &ClusterConfig,
    ) -> Result<DeltaReport, AlgoError> {
        let delta = self.aggregate(batch, config)?;
        if delta.blocks.is_empty() {
            return Ok(self.noop_report());
        }
        let stats = self.floor.merge_blocks(delta.blocks, self.minsup);
        Ok(self.published(stats, delta.clock_ns))
    }

    /// The aggregate half of an ingest: BPP-BUC at minsup 1 over `batch`
    /// on one simulated node under `config`. Reads and writes no floor,
    /// so it can run beside a fold of an earlier batch; an empty batch
    /// aggregates to an empty delta that costs no virtual time.
    pub fn aggregate(
        &self,
        batch: &Relation,
        config: &ClusterConfig,
    ) -> Result<ChunkDelta, AlgoError> {
        aggregate(self.dims, batch, config)
    }

    /// Merges an aggregated `delta` into the floor on the host's native
    /// pool, one task per touched cuboid, while the calling thread
    /// aggregates `next`, if any, and then joins the merges
    /// ([`NativeExecutor::run_beside`]). Returns the merge's report and
    /// `next`'s delta (or the error its aggregation hit, which leaves the
    /// floor alone).
    ///
    /// The floor, report and epoch come out byte-identical to
    /// [`MaintainedCube::ingest_with`] on the same batch: each cuboid's
    /// merge is a pure function of its old block and its delta run, and
    /// the successors install in mask order after the plan returns. They
    /// are allocated at their exact bound on the calling thread before
    /// the plan runs, so pool workers only fill them, and the next delta
    /// is allocated on the calling thread as well. The old blocks stay
    /// alive until the plan returns, which costs nothing when a served
    /// epoch shares them anyway, as a progressive build's does. On error
    /// the floor is unchanged.
    pub fn fold(
        &mut self,
        delta: ChunkDelta,
        next: Option<&Relation>,
        config: &ClusterConfig,
    ) -> Result<(DeltaReport, Option<Result<ChunkDelta, AlgoError>>), AlgoError> {
        self.fold_on(&mut NativeExecutor::host_parallelism(), delta, next, config)
    }

    /// [`MaintainedCube::fold`] on a given pool.
    pub(crate) fn fold_on(
        &mut self,
        pool: &mut NativeExecutor,
        delta: ChunkDelta,
        next: Option<&Relation>,
        config: &ClusterConfig,
    ) -> Result<(DeltaReport, Option<Result<ChunkDelta, AlgoError>>), AlgoError> {
        let ChunkDelta { blocks, clock_ns } = delta;
        let dims = self.dims;
        let (merged, aggregated) = {
            let plan = FoldPlan {
                floor: &self.floor,
                runs: &blocks,
                successors: blocks
                    .iter()
                    .map(|run| Mutex::new(Some(self.floor.successor(run))))
                    .collect(),
                watch_minsup: self.minsup,
            };
            let aggregate_next = || next.map(|batch| aggregate(dims, batch, config));
            let (merged, aggregated, _) = pool.run_beside(&plan.tasks(), &plan, aggregate_next)?;
            (merged, aggregated)
        };
        let mut stats = MergeStats::default();
        for (block, cuboid_stats) in merged.into_iter().flatten() {
            stats.absorb(cuboid_stats);
            self.floor.install(block);
        }
        let report = if blocks.is_empty() {
            self.noop_report()
        } else {
            self.published(stats, clock_ns)
        };
        Ok((report, aggregated))
    }

    /// Ingests a dictionary-aware [`DeltaBatch`] (built against the base
    /// relation's schema; see `icecube_data::delta`).
    pub fn ingest_batch(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, AlgoError> {
        let rel = batch.to_relation()?;
        self.ingest(&rel)
    }

    /// Merges precomputed delta cells (a minsup-1 aggregation of the batch,
    /// e.g. from a cluster run collected elsewhere).
    pub fn ingest_cells(&mut self, cells: Vec<Cell>) -> Result<DeltaReport, AlgoError> {
        if cells.is_empty() {
            return Ok(self.noop_report());
        }
        self.merge(cells, 0)
    }

    /// Runs the delta pass for `batch` on a simulated cluster — fault plans
    /// and all — and merges on success.
    ///
    /// The self-healing scheduler makes the collected cells bit-identical
    /// to a fault-free run under any seeded `FaultPlan` with a survivor, so
    /// a crash mid-refresh reconverges exactly. If the whole cluster dies
    /// ([`AlgoError::ClusterExhausted`]) nothing is merged: the previous
    /// epoch stays intact and the refresh can simply be retried.
    pub fn ingest_on_cluster(
        &mut self,
        algorithm: Algorithm,
        batch: &Relation,
        config: &ClusterConfig,
    ) -> Result<DeltaReport, AlgoError> {
        if batch.is_empty() {
            return Ok(self.noop_report());
        }
        let query = IcebergQuery {
            dims: self.dims,
            minsup: 1,
        };
        let out = run_parallel(algorithm, batch, &query, config)?;
        let clock_ns = out.stats.makespan_ns();
        self.merge(out.cells, clock_ns)
    }

    /// Re-thresholds the serving minsup (clamped to at least 1), counting
    /// the cells that appear (threshold lowered) and retire (raised). The
    /// floor is untouched — promotion and demotion are pure visibility
    /// changes, atomic with the epoch bump.
    pub fn set_minsup(&mut self, minsup: u64) -> DeltaReport {
        let minsup = minsup.max(1);
        let mut promoted = 0usize;
        let mut retired = 0usize;
        for cell in self.floor.iter() {
            let was = cell.agg.meets(self.minsup);
            let now = cell.agg.meets(minsup);
            promoted += usize::from(!was && now);
            retired += usize::from(was && !now);
        }
        if minsup != self.minsup {
            self.minsup = minsup;
            self.epoch += 1;
        }
        DeltaReport {
            epoch: self.epoch,
            promoted,
            retired,
            ..DeltaReport::default()
        }
    }

    fn noop_report(&self) -> DeltaReport {
        DeltaReport {
            epoch: self.epoch,
            ..DeltaReport::default()
        }
    }

    fn merge(&mut self, cells: Vec<Cell>, clock_ns: u64) -> Result<DeltaReport, AlgoError> {
        let stats = self.floor.merge_cells(cells, self.minsup)?;
        Ok(self.published(stats, clock_ns))
    }

    /// Bumps the epoch for a successful merge and reports it.
    fn published(&mut self, stats: MergeStats, clock_ns: u64) -> DeltaReport {
        self.epoch += 1;
        DeltaReport {
            epoch: self.epoch,
            updated: stats.updated,
            inserted: stats.inserted,
            promoted: stats.promoted,
            retired: 0,
            touched_cuboids: stats.touched_cuboids,
            clock_ns,
        }
    }
}

/// A batch aggregated at minimum support 1 and not yet merged: its
/// per-cuboid blocks, ascending by mask and key, and the virtual time the
/// pass cost. [`MaintainedCube::aggregate`] makes one and
/// [`MaintainedCube::fold`] merges it.
#[derive(Debug, Clone, Default)]
pub struct ChunkDelta {
    blocks: Vec<CellBlock>,
    clock_ns: u64,
}

impl ChunkDelta {
    /// Virtual time of the aggregation pass in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }
}

/// BPP-BUC at minsup 1 over `batch` under `config`, as a delta.
fn aggregate(
    dims: usize,
    batch: &Relation,
    config: &ClusterConfig,
) -> Result<ChunkDelta, AlgoError> {
    if batch.is_empty() {
        return Ok(ChunkDelta::default());
    }
    let query = IcebergQuery { dims, minsup: 1 };
    let (sink, _, clock_ns) = run_sequential_sink(SeqAlgorithm::BppBuc, batch, &query, config)?;
    Ok(ChunkDelta {
        blocks: sink.into_sorted_blocks(),
        clock_ns,
    })
}

/// One fold's merges as a native-pool plan: task `i` merges delta run
/// `i` into its successor, so ids follow mask order.
struct FoldPlan<'a> {
    floor: &'a CubeStore,
    runs: &'a [CellBlock],
    /// Run `i`'s successor, allocated by the thread that built the plan
    /// and taken by task `i`.
    successors: Vec<Mutex<Option<CellBlock>>>,
    watch_minsup: u64,
}

impl FoldPlan<'_> {
    /// The tasks in start order: largest merge first.
    fn tasks(&self) -> Vec<TaskSpec> {
        let mut tasks: Vec<TaskSpec> = self
            .runs
            .iter()
            .enumerate()
            .map(|(id, run)| TaskSpec {
                id,
                affinity: u64::from(run.cuboid().bits()),
                weight: (self.floor.cuboid_len(run.cuboid()) + run.len()) as u64,
            })
            .collect();
        tasks.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.id.cmp(&b.id)));
        tasks
    }
}

impl Workload for FoldPlan<'_> {
    type Scratch = ();
    /// `None` only for an id past the runs, which the plan never has.
    type Out = Option<(CellBlock, MergeStats)>;

    fn scratch(&self, _worker: usize) {}

    fn run(&self, spec: &TaskSpec, _: &mut (), _: &mut SimNode, _: bool) -> Self::Out {
        let run = self.runs.get(spec.id)?;
        let taken = self
            .successors
            .get(spec.id)
            .and_then(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).take());
        let mut merged = taken.unwrap_or_else(|| self.floor.successor(run));
        let old = self.floor.block(run.cuboid());
        let stats = merge_cuboid(old, run, &mut merged, self.watch_minsup);
        Some((merged, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_iceberg_cube;
    use icecube_data::Schema;

    fn rel(rows: &[(&[u32], i64)], cards: &[u32]) -> Relation {
        let mut r = Relation::new(Schema::from_cardinalities(cards).unwrap());
        for &(row, m) in rows {
            r.push_row(row, m).unwrap();
        }
        r
    }

    fn scratch(rel: &Relation, minsup: u64) -> CubeStore {
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        CubeStore::from_cells(rel.arity(), minsup, naive_iceberg_cube(rel, &q))
    }

    fn bytes(store: &CubeStore) -> Vec<u8> {
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn incremental_equals_scratch_byte_for_byte() {
        let cards = [3, 2, 4];
        let base = rel(
            &[(&[0, 0, 1], 5), (&[1, 1, 3], -2), (&[0, 0, 1], 7)],
            &cards,
        );
        let batch = rel(&[(&[0, 0, 1], 1), (&[2, 1, 0], 9)], &cards);
        let mut maintained = MaintainedCube::from_relation(&base, 2).unwrap();
        let report = maintained.ingest(&batch).unwrap();
        assert_eq!(report.epoch, 2);
        assert!(report.clock_ns > 0, "delta pass must cost virtual time");
        let mut concat = base.clone();
        concat.extend_from(&batch).unwrap();
        assert_eq!(bytes(&maintained.visible()), bytes(&scratch(&concat, 2)));
        // The floor equals the full cube at minsup 1 too.
        assert_eq!(bytes(maintained.floor()), bytes(&scratch(&concat, 1)));
    }

    #[test]
    fn promotion_appears_atomically() {
        let cards = [2, 2];
        let base = rel(&[(&[0, 0], 1)], &cards);
        let mut maintained = MaintainedCube::from_relation(&base, 2).unwrap();
        // Support 1 everywhere: nothing visible at minsup 2.
        assert!(maintained.visible().is_empty());
        let report = maintained.ingest(&rel(&[(&[0, 0], 1)], &cards)).unwrap();
        // (0,0) and its projections all crossed the threshold.
        assert_eq!(report.promoted, 3);
        assert_eq!(report.retired, 0);
        assert_eq!(maintained.visible().len(), 3);
    }

    #[test]
    fn threshold_raise_retires_without_tombstones() {
        let cards = [2, 2];
        let base = rel(&[(&[0, 0], 1), (&[0, 0], 2), (&[1, 1], 3)], &cards);
        let mut maintained = MaintainedCube::from_relation(&base, 1).unwrap();
        let all_visible = maintained.visible().len();
        let report = maintained.set_minsup(2);
        assert_eq!(report.promoted, 0);
        assert!(report.retired > 0);
        assert_eq!(
            maintained.visible().len(),
            all_visible - report.retired,
            "retired cells vanish from the snapshot, floor keeps them"
        );
        assert_eq!(maintained.floor().len(), all_visible);
        // Lowering it back promotes the same cells again.
        let back = maintained.set_minsup(1);
        assert_eq!(back.promoted, report.retired);
        // And the snapshot still equals scratch at each threshold.
        assert_eq!(bytes(&maintained.visible()), bytes(&scratch(&base, 1)));
    }

    #[test]
    fn delta_batches_flow_end_to_end() {
        let base = rel(&[(&[0, 0], 10)], &[2, 2]);
        let mut maintained = MaintainedCube::from_relation(&base, 1).unwrap();
        // A dictionary-extending batch: dimension 0 grows a new code.
        let mut batch = DeltaBatch::against(base.schema());
        batch.push_row(&[2, 1], 20).unwrap();
        maintained.ingest_batch(&batch).unwrap();
        let mut concat = base.clone();
        concat.apply_delta(&batch).unwrap();
        assert_eq!(bytes(&maintained.visible()), bytes(&scratch(&concat, 1)));
    }

    #[test]
    fn empty_batches_are_noops() {
        let base = rel(&[(&[0, 0], 1)], &[2, 2]);
        let mut maintained = MaintainedCube::from_relation(&base, 1).unwrap();
        let before = maintained.epoch();
        let report = maintained
            .ingest(&Relation::new(base.schema().clone()))
            .unwrap();
        assert_eq!(report.epoch, before);
        assert_eq!(maintained.epoch(), before);
        let report = maintained.ingest_cells(Vec::new()).unwrap();
        assert_eq!(report.epoch, before);
        // Setting the same minsup does not publish a new epoch either.
        assert_eq!(maintained.set_minsup(1).epoch, before);
    }

    #[test]
    fn malformed_cells_leave_the_floor_untouched() {
        let base = rel(&[(&[0, 0], 1)], &[2, 2]);
        let mut maintained = MaintainedCube::from_relation(&base, 1).unwrap();
        let before = bytes(maintained.floor());
        let epoch = maintained.epoch();
        let bad = Cell {
            cuboid: icecube_lattice::CuboidMask::from_dims(&[0, 1]),
            key: vec![1],
            agg: crate::agg::Aggregate::empty(),
        };
        assert!(matches!(
            maintained.ingest_cells(vec![bad]),
            Err(AlgoError::CellArity {
                expected: 2,
                got: 1
            })
        ));
        assert_eq!(bytes(maintained.floor()), before);
        assert_eq!(maintained.epoch(), epoch);
        let wide = Cell {
            cuboid: icecube_lattice::CuboidMask::from_dims(&[5]),
            key: vec![0],
            agg: crate::agg::Aggregate::empty(),
        };
        assert!(matches!(
            maintained.ingest_cells(vec![wide]),
            Err(AlgoError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn pool_folds_equal_sequential_ingest_at_any_worker_count() {
        let rel = icecube_data::presets::tiny(7).generate().unwrap();
        let chunks = rel.split_even(5);
        let cfg = ClusterConfig::fast_ethernet(2);
        for workers in [1, 2, 8] {
            let mut pool = NativeExecutor::new(workers);
            let mut sequential = MaintainedCube::new(rel.arity(), 3).unwrap();
            let mut pooled = MaintainedCube::new(rel.arity(), 3).unwrap();
            let mut pending = pooled.aggregate(&chunks[0], &cfg).unwrap();
            for (k, chunk) in chunks.iter().enumerate() {
                let want = sequential.ingest_with(chunk, &cfg).unwrap();
                assert_eq!(pending.clock_ns(), want.clock_ns);
                let next = chunks.get(k + 1);
                let (got, aggregated) = pooled.fold_on(&mut pool, pending, next, &cfg).unwrap();
                assert_eq!(got, want, "workers={workers} chunk={k}");
                assert_eq!(pooled.epoch(), sequential.epoch());
                assert_eq!(bytes(pooled.floor()), bytes(sequential.floor()));
                assert_eq!(aggregated.is_some(), next.is_some());
                pending = aggregated.map(Result::unwrap).unwrap_or_default();
            }
            assert_eq!(bytes(&pooled.visible()), bytes(&scratch(&rel, 3)));
        }
    }

    #[test]
    fn a_pool_fold_reports_the_next_aggregation_error_and_still_merges() {
        let base = rel(&[(&[0, 0], 1)], &[2, 2]);
        let cfg = ClusterConfig::fast_ethernet(1);
        let mut cube = MaintainedCube::new(2, 1).unwrap();
        let delta = cube.aggregate(&base, &cfg).unwrap();
        let wide = rel(&[(&[0, 0, 0], 1)], &[2, 2, 2]);
        let (report, next) = cube.fold(delta, Some(&wide), &cfg).unwrap();
        assert_eq!(report.epoch, 1);
        assert!(matches!(
            next,
            Some(Err(AlgoError::DimensionMismatch { .. }))
        ));
        assert_eq!(bytes(cube.floor()), bytes(&scratch(&base, 1)));
        // An empty delta publishes nothing, but still aggregates beside.
        let (report, next) = cube.fold(ChunkDelta::default(), Some(&base), &cfg).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(cube.epoch(), 1);
        assert!(next.is_some_and(|delta| delta.is_ok_and(|d| d.clock_ns() > 0)));
    }

    #[test]
    fn zero_dimensions_is_a_typed_error() {
        assert!(matches!(
            MaintainedCube::new(0, 1),
            Err(AlgoError::NoDimensions)
        ));
        // Zero minsup clamps to 1 rather than erroring.
        assert_eq!(MaintainedCube::new(2, 0).unwrap().minsup(), 1);
    }
}
