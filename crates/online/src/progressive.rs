//! Progressive cube building: the paper's n×n chunk schedule driving a
//! [`ProgressiveCube`] toward the batch iceberg answer (DESIGN §14).
//!
//! POL (Chapter 5) refines *one* group-by online; this module refines the
//! *whole cube*. The plan reuses POL's machinery end to end:
//!
//! * [`Boundaries`] from an initial sample fix the key-range ownership,
//!   exactly as they partition POL's result skip list;
//! * the relation is split evenly across `nodes` sources, read one
//!   buffer-sized block per step, and each block is bucketed by owner —
//!   the same `n × n` task array of Table 5.1;
//! * [`TaskArray::order_for`]'s wrap order fixes the arrival schedule:
//!   within a step, position `k` delivers every owner its `k`-th source's
//!   chunk, so all owners refine in lockstep and no single source is
//!   drained first — the paper's request-spreading argument turned into a
//!   refresh schedule;
//! * every chunk is aggregated at minimum support 1 by the sequential
//!   BPP-BUC kernel (mergeable partial cells) and folded into a
//!   [`ProgressiveCube`], whose envelopes bound what the unfolded
//!   remainder can still change.
//!
//! Chunk aggregation runs on the virtual-time simulator, so the
//! cumulative `virtual_ns` after each fold — the x-axis of the
//! `experiments progressive` sweep — is byte-deterministic.

use crate::boundaries::Boundaries;
use crate::pol::TaskArray;
use icecube_cluster::ClusterConfig;
use icecube_core::progressive::{ChunkMeta, Progress, ProgressiveCube};
use icecube_core::store::{CubeStore, MergeStats};
use icecube_core::AlgoError;
use icecube_data::Relation;
use icecube_lattice::CuboidMask;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One chunk of the plan: a source node's block rows owned by one key
/// range, scheduled at one (step, position) of the n×n array.
#[derive(Debug, Clone)]
pub struct PlannedChunk {
    /// Node whose partition the rows came from.
    pub source: usize,
    /// Key range (and node) owning the rows.
    pub owner: usize,
    /// Step of the n×n schedule (1-based, as in POL's loop).
    pub step: usize,
    /// The chunk's rows.
    pub rows: Relation,
}

/// The full chunk schedule for one relation: ownership boundaries plus
/// the chunks in arrival order.
#[derive(Debug, Clone)]
pub struct ChunkPlan {
    nodes: usize,
    splits: Vec<Vec<u32>>,
    chunks: Vec<PlannedChunk>,
    rows_total: u64,
}

impl ChunkPlan {
    /// Plans the chunk schedule: sample boundaries with `seed`, split the
    /// relation evenly across `nodes` sources, bucket each step's blocks
    /// by owner, and order arrivals by the wrap schedule. Empty chunks
    /// are dropped — they carry no rows and no slack.
    pub fn new(
        rel: &Relation,
        nodes: usize,
        buffer_tuples: usize,
        sample_size: usize,
        seed: u64,
    ) -> Result<ChunkPlan, AlgoError> {
        if rel.is_empty() {
            return Err(AlgoError::EmptyInput);
        }
        if rel.arity() == 0 {
            return Err(AlgoError::NoDimensions);
        }
        let nodes = nodes.max(1);
        let buffer = buffer_tuples.max(1);
        let anchor = CuboidMask::full(rel.arity());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x90);
        let boundaries =
            Boundaries::sample_relation(rel, anchor, nodes, sample_size.max(1), &mut rng);
        let partitions = rel.split_even(nodes);
        let tasks = TaskArray::new(nodes);
        let mut cursors = vec![0usize; nodes];
        let mut chunks = Vec::new();
        let mut step = 0usize;
        while cursors
            .iter()
            .zip(&partitions)
            .any(|(&cur, part)| cur < part.len())
        {
            step += 1;
            // Bucket each source's block by owner, as POL does per step.
            let mut bucketed: Vec<Vec<Relation>> = Vec::with_capacity(nodes);
            for (cursor, part) in cursors.iter_mut().zip(&partitions) {
                let start = *cursor;
                let end = (start + buffer).min(part.len());
                *cursor = end;
                let mut by_owner: Vec<Relation> = (0..nodes)
                    .map(|_| Relation::new(part.schema().clone()))
                    .collect();
                for t in start..end {
                    let owner = boundaries.owner(part.row(t));
                    if let Some(dest) = by_owner.get_mut(owner) {
                        dest.push_row_unchecked(part.row(t), part.measure(t));
                    }
                }
                bucketed.push(by_owner);
            }
            // Arrival order: position k hands every owner its k-th source
            // in wrap order, so owners refine in lockstep.
            for k in 0..nodes {
                for owner in 0..nodes {
                    let Some(&source) = tasks.order_for(owner).get(k) else {
                        continue;
                    };
                    let Some(slot) = bucketed.get_mut(source).and_then(|b| b.get_mut(owner)) else {
                        continue;
                    };
                    let rows = std::mem::replace(slot, Relation::new(rel.schema().clone()));
                    if rows.is_empty() {
                        continue;
                    }
                    chunks.push(PlannedChunk {
                        source,
                        owner,
                        step,
                        rows,
                    });
                }
            }
        }
        Ok(ChunkPlan {
            nodes,
            splits: boundaries.splits().to_vec(),
            chunks,
            rows_total: rel.len() as u64,
        })
    }

    /// Sources (and owner ranges) the plan schedules across.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The surviving ownership splits.
    pub fn splits(&self) -> &[Vec<u32>] {
        &self.splits
    }

    /// The chunks in arrival order.
    pub fn chunks(&self) -> &[PlannedChunk] {
        &self.chunks
    }

    /// Rows across every chunk (the whole relation: bucketing loses none).
    pub fn rows_total(&self) -> u64 {
        self.rows_total
    }

    /// The per-chunk slack metadata the [`ProgressiveCube`] accounts.
    pub fn metas(&self) -> Vec<ChunkMeta> {
        self.chunks
            .iter()
            .map(|c| {
                let measures: Vec<i64> = (0..c.rows.len()).map(|t| c.rows.measure(t)).collect();
                ChunkMeta::describe(c.owner, &measures)
            })
            .collect()
    }
}

/// One fold's report: which chunk landed and where the build now stands.
#[derive(Debug, Clone)]
pub struct FoldReport {
    /// Index of the folded chunk in arrival order.
    pub chunk: usize,
    /// Source node the chunk came from.
    pub source: usize,
    /// Owner range the chunk belongs to.
    pub owner: usize,
    /// Schedule step the chunk arrived in.
    pub step: usize,
    /// Rows the chunk carried.
    pub rows: u64,
    /// Cumulative virtual time after this fold.
    pub virtual_ns: u64,
    /// The floor merge's statistics.
    pub merge: MergeStats,
}

/// Drives a [`ChunkPlan`] through a [`ProgressiveCube`]: each
/// [`ProgressiveBuild::step`] aggregates the next chunk at minimum
/// support 1 on the simulator and folds it in.
#[derive(Debug, Clone)]
pub struct ProgressiveBuild {
    plan: ChunkPlan,
    cube: ProgressiveCube,
    config: ClusterConfig,
    next: usize,
    virtual_ns: u64,
}

impl ProgressiveBuild {
    /// Plans and opens a build of `rel`'s cube at serving threshold
    /// `minsup`.
    pub fn new(
        rel: &Relation,
        minsup: u64,
        nodes: usize,
        buffer_tuples: usize,
        sample_size: usize,
        config: &ClusterConfig,
    ) -> Result<ProgressiveBuild, AlgoError> {
        let plan = ChunkPlan::new(rel, nodes, buffer_tuples, sample_size, config.seed)?;
        let cube = ProgressiveCube::new(rel.arity(), minsup, plan.splits.clone(), plan.metas())?;
        Ok(ProgressiveBuild {
            plan,
            cube,
            config: config.clone(),
            next: 0,
            virtual_ns: 0,
        })
    }

    /// Aggregates and folds the next chunk; `Ok(None)` once converged.
    pub fn step(&mut self) -> Result<Option<FoldReport>, AlgoError> {
        let Some(chunk) = self.plan.chunks.get(self.next) else {
            return Ok(None);
        };
        let (merge, clock_ns) = self.cube.fold_rows(self.next, &chunk.rows, &self.config)?;
        self.virtual_ns = self.virtual_ns.saturating_add(clock_ns);
        let report = FoldReport {
            chunk: self.next,
            source: chunk.source,
            owner: chunk.owner,
            step: chunk.step,
            rows: chunk.rows.len() as u64,
            virtual_ns: self.virtual_ns,
            merge,
        };
        self.next += 1;
        Ok(Some(report))
    }

    /// The plan being folded.
    pub fn plan(&self) -> &ChunkPlan {
        &self.plan
    }

    /// The build's current slack snapshot, for publishing with an epoch.
    pub fn progress(&self) -> Progress {
        self.cube.progress()
    }

    /// The minimum-support-1 floor (every partial cell).
    pub fn floor(&self) -> &CubeStore {
        self.cube.floor()
    }

    /// The cells currently at or above the serving threshold.
    pub fn visible(&self) -> CubeStore {
        self.cube.visible()
    }

    /// True once every chunk has folded.
    pub fn converged(&self) -> bool {
        self.cube.converged()
    }

    /// Cumulative virtual time across every fold so far.
    pub fn virtual_ns(&self) -> u64 {
        self.virtual_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icecube_core::sequential::{run_sequential, SeqAlgorithm};
    use icecube_core::IcebergQuery;
    use icecube_data::presets;

    #[test]
    fn plan_covers_every_row_exactly_once() {
        let rel = presets::tiny(41).generate().unwrap();
        let plan = ChunkPlan::new(&rel, 4, 30, 64, 7).unwrap();
        let total: usize = plan.chunks().iter().map(|c| c.rows.len()).sum();
        assert_eq!(total, rel.len());
        assert_eq!(plan.rows_total(), rel.len() as u64);
        assert!(plan.chunks().iter().all(|c| !c.rows.is_empty()));
        // Ownership contract: every row of a chunk routes to its owner.
        let bounds = {
            let mut sorted: Vec<PlannedChunk> = plan.chunks().to_vec();
            sorted.sort_by_key(|c| (c.step, c.owner, c.source));
            sorted
        };
        for c in &bounds {
            for t in 0..c.rows.len() {
                let key = c.rows.row(t);
                let idx = plan.splits().partition_point(|s| s.as_slice() <= key);
                assert_eq!(idx, c.owner, "row routed outside its owning range");
            }
        }
    }

    #[test]
    fn arrival_interleaves_owners_within_a_step() {
        let rel = presets::tiny(42).generate().unwrap();
        let plan = ChunkPlan::new(&rel, 3, 1000, 64, 7).unwrap();
        // Single step: owners must not arrive in source-major blocks.
        assert!(plan.chunks().iter().all(|c| c.step == 1));
        let owners: Vec<usize> = plan.chunks().iter().map(|c| c.owner).collect();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_ne!(owners, sorted, "wrap order interleaves owners: {owners:?}");
    }

    #[test]
    fn build_converges_to_the_scratch_floor() {
        let rel = presets::tiny(43).generate().unwrap();
        let cfg = ClusterConfig::fast_ethernet(4);
        let mut build = ProgressiveBuild::new(&rel, 3, 4, 25, 64, &cfg).unwrap();
        let mut folds = 0usize;
        while let Some(report) = build.step().unwrap() {
            folds += 1;
            assert_eq!(report.chunk + 1, folds);
            assert!(report.virtual_ns > 0, "folds accrue virtual time");
        }
        assert!(build.converged());
        assert!(build.progress().converged());
        let scratch = {
            let q = IcebergQuery {
                dims: rel.arity(),
                minsup: 1,
            };
            let out = run_sequential(SeqAlgorithm::BppBuc, &rel, &q, &cfg).unwrap();
            CubeStore::from_cells(rel.arity(), 1, out.cells)
        };
        let mut got = Vec::new();
        let mut want = Vec::new();
        build.floor().write_to(&mut got).unwrap();
        scratch.write_to(&mut want).unwrap();
        assert_eq!(got, want, "converged floor must match the batch build");
    }

    #[test]
    fn planning_rejects_empty_input() {
        let empty = Relation::new(icecube_data::Schema::from_cardinalities(&[2]).unwrap());
        assert!(matches!(
            ChunkPlan::new(&empty, 2, 10, 16, 1),
            Err(AlgoError::EmptyInput)
        ));
    }
}
