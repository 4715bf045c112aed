//! The Chapter 5 chunk schedule and the progressive cube build that
//! folds it into a [`MaintainedCube`] toward the batch iceberg answer
//! (DESIGN §14).
//!
//! [`ChunkPlan`] is POL's schedule (Section 5.3, Table 5.1), made once
//! and consumed twice. POL ([`crate::run_pol`]) refines *one* group-by
//! from it; [`ProgressiveBuild`] refines the *whole cube* by planning on
//! the full cuboid:
//!
//! * [`Boundaries`] from an initial sample of the group-by fix the
//!   key-range ownership — the partition of POL's result skip list;
//! * the relation is split evenly across `nodes` sources, read one
//!   buffer-sized block per step, and each block is bucketed by owner —
//!   the `n × n` task array of Table 5.1;
//! * [`wrap_order`] fixes the arrival schedule: within a step, position
//!   `k` delivers every owner its `k`-th source's chunk, so all owners
//!   refine in lockstep and no single source is drained first — the
//!   paper's request-spreading argument turned into a refresh schedule;
//! * every fold is an ingest in two halves:
//!   [`MaintainedCube::aggregate`] runs the sequential BPP-BUC kernel
//!   over the chunk at minimum support 1, and [`MaintainedCube::fold`]
//!   merges the partial cells into the floor, one native-pool task per
//!   cuboid, while the calling thread aggregates the next chunk. Each
//!   unfolded chunk's [`Envelope`] bounds what the remainder can still
//!   change.
//!
//! Chunk aggregation is charged on the virtual-time simulator, wherever
//! it runs, so the cumulative `virtual_ns` after each fold — the x-axis
//! of the `experiments progressive` sweep — is byte-deterministic.

use crate::boundaries::Boundaries;
use crate::estimate::{Envelope, Progress};
use icecube_cluster::ClusterConfig;
use icecube_core::store::CubeStore;
use icecube_core::{AlgoError, ChunkDelta, MaintainedCube};
use icecube_data::Relation;
use icecube_lattice::{CuboidMask, MAX_DIMS};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Owner `owner`'s processing order over the `n` sources (Table 5.1):
/// local first, then wrapping — "this sequence maximizes the possibility
/// of each processor working on data located on different processors at
/// one time, thus reducing the possibility of a burst of data requests".
pub fn wrap_order(owner: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |k| (owner + k) % n)
}

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
    /// The slack the chunk contributes while unfolded.
    envelope: Envelope,
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
    /// Plans the chunk schedule: sample boundaries over `group_by` with
    /// `seed`, split the relation evenly across `nodes` sources, bucket
    /// each step's blocks by the owner of their projected keys, and order
    /// arrivals by the wrap schedule. Empty chunks are dropped — they
    /// carry no rows and no slack.
    pub fn new(
        rel: &Relation,
        group_by: CuboidMask,
        nodes: usize,
        buffer_tuples: usize,
        sample_size: usize,
        seed: u64,
    ) -> Result<ChunkPlan, AlgoError> {
        if rel.is_empty() {
            return Err(AlgoError::EmptyInput);
        }
        if group_by.is_all() {
            return Err(AlgoError::NoDimensions);
        }
        if let Some(max) = group_by.max_dim().filter(|&m| m >= rel.arity()) {
            return Err(AlgoError::DimensionMismatch {
                query_dims: max + 1,
                relation_dims: rel.arity(),
            });
        }
        if rel.arity() > MAX_DIMS {
            return Err(AlgoError::TooManyDimensions {
                dims: rel.arity(),
                max: MAX_DIMS,
            });
        }
        let nodes = nodes.max(1);
        let buffer = buffer_tuples.max(1);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x90);
        let boundaries =
            Boundaries::sample_relation(rel, group_by, nodes, sample_size.max(1), &mut rng);
        let partitions = rel.split_even(nodes);
        let steps = partitions.iter().map(|p| p.len().div_ceil(buffer)).max();
        let mut key = vec![0u32; group_by.dim_count()];
        let mut chunks = Vec::new();
        for step in 1..=steps.unwrap_or(0) {
            // Bucket each source's block by owner, as POL does per step.
            let start = (step - 1) * buffer;
            let mut bucketed: Vec<Vec<Relation>> = Vec::with_capacity(nodes);
            for part in &partitions {
                let mut by_owner: Vec<Relation> = (0..nodes)
                    .map(|_| Relation::new(part.schema().clone()))
                    .collect();
                for t in start..(start + buffer).min(part.len()) {
                    group_by.project_row(part.row(t), &mut key);
                    if let Some(dest) = by_owner.get_mut(boundaries.owner(&key)) {
                        dest.push_row_unchecked(part.row(t), part.measure(t));
                    }
                }
                bucketed.push(by_owner);
            }
            // Arrival order: position `k` hands every owner `o` its `k`-th
            // source in wrap order, `(o + k) mod n` — across owners, the wrap
            // order starting at `k` — so owners refine in lockstep.
            for k in 0..nodes {
                for (owner, source) in (0..nodes).zip(wrap_order(k, nodes)) {
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
                        envelope: envelope_of(&rows),
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
}

/// The slack a chunk contributes while unfolded: its row count and the
/// range of its measures.
fn envelope_of(rows: &Relation) -> Envelope {
    let measures = (0..rows.len()).map(|t| rows.measure(t));
    Envelope {
        rows: rows.len() as u64,
        measure_min: measures.clone().min().unwrap_or(i64::MAX),
        measure_max: measures.max().unwrap_or(i64::MIN),
    }
}

/// One fold's report: which chunk landed and where the build now stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldReport {
    /// Index of the folded chunk in arrival order.
    pub chunk: usize,
    /// Owner range the chunk belongs to.
    pub owner: usize,
    /// Schedule step the chunk arrived in.
    pub step: usize,
    /// Cumulative virtual time after this fold.
    pub virtual_ns: u64,
}

/// Drives a [`ChunkPlan`] through a [`MaintainedCube`]: each
/// [`ProgressiveBuild::step`] folds the next chunk into the floor,
/// merging its cuboids on the native pool while the calling thread
/// aggregates the chunk after it at minimum support 1.
#[derive(Debug, Clone)]
pub struct ProgressiveBuild {
    plan: ChunkPlan,
    cube: MaintainedCube,
    config: ClusterConfig,
    next: usize,
    /// Chunk `next`, aggregated during the previous fold.
    pending: Option<ChunkDelta>,
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
        let cube = MaintainedCube::new(rel.arity(), minsup)?;
        let all = CuboidMask::full(rel.arity());
        let plan = ChunkPlan::new(rel, all, nodes, buffer_tuples, sample_size, config.seed)?;
        Ok(ProgressiveBuild {
            plan,
            cube,
            config: config.clone(),
            next: 0,
            pending: None,
            virtual_ns: 0,
        })
    }

    /// Folds the next chunk; `Ok(None)` once converged.
    ///
    /// The first step aggregates chunk 0 on its own; every step then
    /// merges its chunk while the chunk after it aggregates
    /// ([`MaintainedCube::fold`]). Virtual time still adds each chunk's
    /// own pass, so it is the same as folding one chunk at a time.
    pub fn step(&mut self) -> Result<Option<FoldReport>, AlgoError> {
        let Some(chunk) = self.plan.chunks.get(self.next) else {
            return Ok(None);
        };
        let delta = match self.pending.take() {
            Some(delta) => delta,
            None => self.cube.aggregate(&chunk.rows, &self.config)?,
        };
        let next = self.plan.chunks.get(self.next + 1).map(|c| &c.rows);
        let (folded, aggregated) = self.cube.fold(delta, next, &self.config)?;
        // A failed aggregation is dropped here: the next step aggregates
        // that chunk again on its own and reports the error then.
        self.pending = aggregated.and_then(Result::ok);
        self.virtual_ns = self.virtual_ns.saturating_add(folded.clock_ns);
        let report = FoldReport {
            chunk: self.next,
            owner: chunk.owner,
            step: chunk.step,
            virtual_ns: self.virtual_ns,
        };
        self.next += 1;
        Ok(Some(report))
    }

    /// The plan being folded.
    pub fn plan(&self) -> &ChunkPlan {
        &self.plan
    }

    /// The build's current slack snapshot, for publishing with an epoch:
    /// the envelopes of the chunks not yet folded.
    pub fn progress(&self) -> Progress {
        let pending = self.plan.chunks.get(self.next..).unwrap_or_default();
        Progress::new(
            CuboidMask::full(self.cube.dims()),
            &self.plan.splits,
            pending.iter().map(|c| (c.owner, c.envelope)),
            self.plan.chunks.len(),
            self.plan.rows_total,
        )
    }

    /// The minimum-support-1 floor (every partial cell).
    pub fn floor(&self) -> &CubeStore {
        self.cube.floor()
    }

    /// True once every chunk has folded.
    pub fn converged(&self) -> bool {
        self.next == self.plan.chunks.len()
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
    use icecube_core::{Aggregate, Cell, IcebergQuery};
    use icecube_data::{presets, Schema};

    /// The envelope of a one-dimension chunk with these measures.
    fn chunk_envelope(measures: &[i64]) -> Envelope {
        let mut rows = Relation::new(Schema::from_cardinalities(&[2]).unwrap());
        for &m in measures {
            rows.push_row(&[0], m).unwrap();
        }
        envelope_of(&rows)
    }

    #[test]
    fn describe_uses_aggregate_sentinels_when_empty() {
        let e = chunk_envelope(&[]);
        assert_eq!(e, Envelope::empty());
        assert!(e.is_empty());
        let agg = Aggregate::empty();
        assert_eq!((e.measure_min, e.measure_max), (agg.min, agg.max));
        let e = chunk_envelope(&[3, -2, 7]);
        assert_eq!((e.rows, e.measure_min, e.measure_max), (3, -2, 7));
    }

    #[test]
    fn envelopes_absorb_like_aggregates_merge() {
        let mut e = Envelope::empty();
        e.absorb(&chunk_envelope(&[]));
        assert!(e.is_empty(), "empty chunks leave the envelope empty");
        e.absorb(&chunk_envelope(&[5, -1]));
        e.absorb(&chunk_envelope(&[9]));
        assert_eq!((e.rows, e.measure_min, e.measure_max), (3, -1, 9));
    }

    #[test]
    fn anchor_cells_get_their_range_envelope_others_the_total() {
        // Two ranges split at key [5, 0]: range 0 owns keys below it.
        let anchor = CuboidMask::full(2);
        let (low, high) = (chunk_envelope(&[10, 20]), chunk_envelope(&[-3]));
        let p = Progress::new(anchor, &[vec![5, 0]], [(0, low), (1, high)], 2, 3);
        assert_eq!(p.envelope_for(anchor, &[1, 9]), low);
        assert_eq!(p.envelope_for(anchor, &[5, 0]), high);
        // A coarser cuboid aggregates across ranges: global envelope.
        let coarse = p.envelope_for(CuboidMask::from_dims(&[0]), &[1]);
        assert_eq!(
            (coarse.rows, coarse.measure_min, coarse.measure_max),
            (3, -3, 20)
        );
        assert_eq!(p.total_envelope(), coarse);
        assert_eq!((p.chunks_folded(), p.rows_folded()), (0, 0));
    }

    #[test]
    fn plan_covers_every_row_exactly_once() {
        let rel = presets::tiny(41).generate().unwrap();
        let plan = ChunkPlan::new(&rel, CuboidMask::full(rel.arity()), 4, 30, 64, 7).unwrap();
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
        let plan = ChunkPlan::new(&rel, CuboidMask::full(rel.arity()), 3, 1000, 64, 7).unwrap();
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
    fn folding_tightens_the_published_envelope() {
        let rel = presets::tiny(44).generate().unwrap();
        let cfg = ClusterConfig::fast_ethernet(3);
        let mut build = ProgressiveBuild::new(&rel, 2, 3, 25, 64, &cfg).unwrap();
        let mut before = build.progress();
        assert_eq!(before.total_envelope().rows, rel.len() as u64);
        while let Some(fold) = build.step().unwrap() {
            let after = build.progress();
            let rows = build.plan().chunks()[fold.chunk].rows.len() as u64;
            assert_eq!(
                after.total_envelope().rows + rows,
                before.total_envelope().rows
            );
            assert_eq!(after.rows_folded(), before.rows_folded() + rows);
            assert_eq!(after.chunks_folded(), fold.chunk + 1);
            let (was, now) = (before.total_envelope(), after.total_envelope());
            assert!(now.is_empty() || now.measure_min >= was.measure_min);
            assert!(now.is_empty() || now.measure_max <= was.measure_max);
            before = after;
        }
        assert!(before.converged());
        assert!(before.total_envelope().is_empty());
    }

    #[test]
    fn converged_floor_matches_direct_store() {
        // One source reading one row per step: two single-row chunks
        // touching the same key. The floor must equal a store built from
        // the merged cell.
        let mut rel = Relation::new(Schema::from_cardinalities(&[4]).unwrap());
        rel.push_row(&[3], 4).unwrap();
        rel.push_row(&[3], 6).unwrap();
        let cfg = ClusterConfig::fast_ethernet(1);
        let mut build = ProgressiveBuild::new(&rel, 2, 1, 1, 4, &cfg).unwrap();
        assert_eq!(build.plan().chunks().len(), 2);
        while build.step().unwrap().is_some() {}
        assert!(build.converged());
        let mut merged = Aggregate::of(4);
        merged.update(6);
        let want = CubeStore::from_cells(
            1,
            1,
            vec![Cell {
                cuboid: CuboidMask::full(1),
                key: vec![3],
                agg: merged,
            }],
        );
        let mut got_bytes = Vec::new();
        let mut want_bytes = Vec::new();
        build.floor().write_to(&mut got_bytes).unwrap();
        want.write_to(&mut want_bytes).unwrap();
        assert_eq!(got_bytes, want_bytes);
    }

    #[test]
    fn planning_rejects_empty_input() {
        let empty = Relation::new(icecube_data::Schema::from_cardinalities(&[2]).unwrap());
        assert!(matches!(
            ChunkPlan::new(&empty, CuboidMask::full(1), 2, 10, 16, 1),
            Err(AlgoError::EmptyInput)
        ));
    }
}
