//! Progressive cube state: mergeable partial cells folded chunk by chunk,
//! with enough bookkeeping to bound what the unfolded remainder can still
//! change (DESIGN §14).
//!
//! The batch algorithms answer nothing until every tuple is aggregated;
//! POL (Chapter 5) answers one group-by immediately and refines. This
//! module generalizes POL's discipline to the whole cube: the relation is
//! cut into chunks, each chunk is aggregated at minimum support 1 into
//! mergeable [`Cell`]s (the distributive `Aggregate`), and a
//! [`ProgressiveCube`] folds chunks into a floor store in any order. At
//! every point it can report a [`Progress`]: how much is folded and, per
//! key-space region, an [`Envelope`] of what the unfolded chunks could
//! still contribute — rows not yet seen and the range their measures lie
//! in. An envelope is a *sound* slack: the exact aggregate of any cell is
//! always inside the bound derived from its partial aggregate plus the
//! envelope, and once every chunk is folded the envelope is empty and the
//! floor equals the batch build byte for byte.
//!
//! Chunk ownership reuses POL's range partitioning: `splits` are the
//! surviving boundary keys (duplicates collapsed), and a chunk owned by
//! range `j` must contain only rows whose *anchor* group-by key routes to
//! `j` under those splits — the same `partition_point` rule as
//! `Boundaries::owner`. That contract is what lets anchor-cuboid queries
//! use the tight per-range envelope instead of the global one.

use crate::cell::Cell;
use crate::delta::merge_rows;
use crate::error::AlgoError;
use crate::store::{CubeStore, MergeStats};
use icecube_cluster::ClusterConfig;
use icecube_data::Relation;
use icecube_lattice::CuboidMask;

/// Static description of one planned chunk: who owns it and the slack it
/// contributes while unfolded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Owning key range under the plan's splits; every row's anchor key
    /// must route here.
    pub owner: usize,
    /// Rows in the chunk.
    pub rows: u64,
    /// Smallest measure in the chunk (`i64::MAX` when empty).
    pub measure_min: i64,
    /// Largest measure in the chunk (`i64::MIN` when empty).
    pub measure_max: i64,
}

impl ChunkMeta {
    /// Describes a chunk from its owner and raw measures.
    pub fn describe(owner: usize, measures: &[i64]) -> ChunkMeta {
        ChunkMeta {
            owner,
            rows: measures.len() as u64,
            measure_min: measures.iter().copied().min().unwrap_or(i64::MAX),
            measure_max: measures.iter().copied().max().unwrap_or(i64::MIN),
        }
    }
}

/// What the unfolded remainder of a region can still contribute: at most
/// `rows` more tuples, each with a measure in `[measure_min, measure_max]`.
///
/// The empty envelope (`rows == 0`) uses the same sentinels as
/// [`crate::agg::Aggregate::empty`] so envelopes compose with `absorb`
/// exactly like aggregates do with `merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Unseen rows that could still land in the region.
    pub rows: u64,
    /// Lower bound on any unseen measure (`i64::MAX` when `rows == 0`).
    pub measure_min: i64,
    /// Upper bound on any unseen measure (`i64::MIN` when `rows == 0`).
    pub measure_max: i64,
}

impl Envelope {
    /// The envelope of a fully-folded region: nothing can change.
    pub fn empty() -> Envelope {
        Envelope {
            rows: 0,
            measure_min: i64::MAX,
            measure_max: i64::MIN,
        }
    }

    /// True when the region is fully folded.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Widens this envelope to also cover an unfolded chunk.
    pub fn absorb(&mut self, meta: &ChunkMeta) {
        if meta.rows == 0 {
            return;
        }
        self.rows = self.rows.saturating_add(meta.rows);
        self.measure_min = self.measure_min.min(meta.measure_min);
        self.measure_max = self.measure_max.max(meta.measure_max);
    }
}

/// An immutable view of how far a progressive build has come, published
/// alongside each epoch so queries can bound their answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    anchor: CuboidMask,
    splits: Vec<Vec<u32>>,
    remaining: Vec<Envelope>,
    total: Envelope,
    chunks_total: usize,
    chunks_folded: usize,
    rows_total: u64,
    rows_folded: u64,
}

impl Progress {
    /// The anchor group-by whose keys the splits partition (the full
    /// group-by over every dimension).
    pub fn anchor(&self) -> CuboidMask {
        self.anchor
    }

    /// Chunks the plan has in total.
    pub fn chunks_total(&self) -> usize {
        self.chunks_total
    }

    /// Chunks folded so far.
    pub fn chunks_folded(&self) -> usize {
        self.chunks_folded
    }

    /// Rows the plan covers in total.
    pub fn rows_total(&self) -> u64 {
        self.rows_total
    }

    /// Rows folded so far.
    pub fn rows_folded(&self) -> u64 {
        self.rows_folded
    }

    /// True when every chunk is folded: bounds are exact and the floor is
    /// byte-identical to the batch build.
    pub fn converged(&self) -> bool {
        self.chunks_folded == self.chunks_total
    }

    /// The slack envelope over everything not yet folded, regardless of
    /// region.
    pub fn total_envelope(&self) -> Envelope {
        self.total
    }

    /// The slack envelope for one cell of `cuboid` at `key`.
    ///
    /// Anchor-cuboid cells route to their owning range (the ownership
    /// contract guarantees no other range's chunks can touch them) and get
    /// that range's tight envelope; any other cuboid aggregates across
    /// ranges, so it gets the global envelope.
    pub fn envelope_for(&self, cuboid: CuboidMask, key: &[u32]) -> Envelope {
        if cuboid != self.anchor {
            return self.total;
        }
        let idx = self.splits.partition_point(|s| s.as_slice() <= key);
        self.remaining.get(idx).copied().unwrap_or(self.total)
    }
}

/// A cube being built chunk by chunk: a minimum-support-1 floor store plus
/// the plan's per-chunk slack accounting.
///
/// Chunks fold in any order, each exactly once; [`ProgressiveCube::fold`]
/// rejects out-of-range and duplicate folds with typed errors so a lost or
/// replayed chunk can never silently skew the aggregates.
#[derive(Debug, Clone)]
pub struct ProgressiveCube {
    floor: CubeStore,
    minsup: u64,
    anchor: CuboidMask,
    splits: Vec<Vec<u32>>,
    chunks: Vec<ChunkMeta>,
    folded: Vec<bool>,
    chunks_folded: usize,
    rows_folded: u64,
    rows_total: u64,
}

impl ProgressiveCube {
    /// Starts an empty progressive build over `dims` dimensions serving
    /// iceberg threshold `minsup`, with ownership `splits` (surviving
    /// boundary keys, strictly increasing) and the planned `chunks`.
    ///
    /// The number of owner ranges is `splits.len() + 1`; every chunk's
    /// owner must fall inside it.
    pub fn new(
        dims: usize,
        minsup: u64,
        splits: Vec<Vec<u32>>,
        chunks: Vec<ChunkMeta>,
    ) -> Result<ProgressiveCube, AlgoError> {
        if dims == 0 {
            return Err(AlgoError::NoDimensions);
        }
        let parts = splits.len() + 1;
        for (i, c) in chunks.iter().enumerate() {
            if c.owner >= parts {
                return Err(AlgoError::ChunkOwnerOutOfRange {
                    chunk: i,
                    owner: c.owner,
                    parts,
                });
            }
        }
        let rows_total = chunks.iter().map(|c| c.rows).sum();
        let folded = vec![false; chunks.len()];
        Ok(ProgressiveCube {
            floor: CubeStore::from_cells(dims, 1, Vec::new()),
            minsup: minsup.max(1),
            anchor: CuboidMask::full(dims),
            splits,
            chunks,
            folded,
            chunks_folded: 0,
            rows_folded: 0,
            rows_total,
        })
    }

    /// Folds chunk `index`'s minimum-support-1 cells into the floor.
    ///
    /// `cells` must be the complete cube of exactly that chunk's rows;
    /// merging is the same block merge streaming ingest uses, so fold
    /// order cannot change the final bytes.
    pub fn fold(&mut self, index: usize, cells: Vec<Cell>) -> Result<MergeStats, AlgoError> {
        let meta = self.unfolded(index)?;
        let stats = self.floor.merge_cells(cells, self.minsup)?;
        self.mark_folded(index, meta);
        Ok(stats)
    }

    /// Aggregates chunk `index`'s `rows` at minimum support 1 on one
    /// simulated node under `config` and folds the partials into the
    /// floor — the step [`MaintainedCube`](crate::MaintainedCube) ingest
    /// takes, with an envelope update where ingest bumps an epoch.
    /// Returns the merge counters and the pass's virtual nanoseconds.
    pub fn fold_rows(
        &mut self,
        index: usize,
        rows: &Relation,
        config: &ClusterConfig,
    ) -> Result<(MergeStats, u64), AlgoError> {
        let meta = self.unfolded(index)?;
        let done = merge_rows(&mut self.floor, rows, self.minsup, config)?;
        self.mark_folded(index, meta);
        Ok(done)
    }

    /// Chunk `index`'s plan entry, provided it exists and has not folded.
    fn unfolded(&self, index: usize) -> Result<ChunkMeta, AlgoError> {
        let Some(meta) = self.chunks.get(index).copied() else {
            return Err(AlgoError::ChunkOutOfRange {
                index,
                chunks: self.chunks.len(),
            });
        };
        if self.folded.get(index).copied().unwrap_or(false) {
            return Err(AlgoError::ChunkAlreadyFolded { index });
        }
        Ok(meta)
    }

    fn mark_folded(&mut self, index: usize, meta: ChunkMeta) {
        if let Some(slot) = self.folded.get_mut(index) {
            *slot = true;
        }
        self.chunks_folded += 1;
        self.rows_folded = self.rows_folded.saturating_add(meta.rows);
    }

    /// The serving threshold the build converges to.
    pub fn minsup(&self) -> u64 {
        self.minsup
    }

    /// The minimum-support-1 floor holding every partial cell.
    pub fn floor(&self) -> &CubeStore {
        &self.floor
    }

    /// The cells currently at or above the serving threshold — the batch
    /// iceberg answer once [`Self::converged`].
    pub fn visible(&self) -> CubeStore {
        self.floor.thresholded(self.minsup)
    }

    /// True when every chunk has folded.
    pub fn converged(&self) -> bool {
        self.chunks_folded == self.chunks.len()
    }

    /// Rows folded so far.
    pub fn rows_folded(&self) -> u64 {
        self.rows_folded
    }

    /// Rows the plan covers in total.
    pub fn rows_total(&self) -> u64 {
        self.rows_total
    }

    /// A snapshot of the build's slack for publishing with an epoch.
    pub fn progress(&self) -> Progress {
        let parts = self.splits.len() + 1;
        let mut remaining = vec![Envelope::empty(); parts];
        let mut total = Envelope::empty();
        for (meta, done) in self.chunks.iter().zip(&self.folded) {
            if *done {
                continue;
            }
            if let Some(env) = remaining.get_mut(meta.owner) {
                env.absorb(meta);
            }
            total.absorb(meta);
        }
        Progress {
            anchor: self.anchor,
            splits: self.splits.clone(),
            remaining,
            total,
            chunks_total: self.chunks.len(),
            chunks_folded: self.chunks_folded,
            rows_total: self.rows_total,
            rows_folded: self.rows_folded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Aggregate;

    fn meta(owner: usize, measures: &[i64]) -> ChunkMeta {
        ChunkMeta::describe(owner, measures)
    }

    fn cell(key: &[u32], m: i64) -> Cell {
        Cell {
            cuboid: CuboidMask::full(key.len()),
            key: key.to_vec(),
            agg: Aggregate::of(m),
        }
    }

    #[test]
    fn describe_uses_aggregate_sentinels_when_empty() {
        let m = meta(0, &[]);
        assert_eq!(m.rows, 0);
        assert_eq!(m.measure_min, i64::MAX);
        assert_eq!(m.measure_max, i64::MIN);
        let m = meta(1, &[3, -2, 7]);
        assert_eq!((m.rows, m.measure_min, m.measure_max), (3, -2, 7));
    }

    #[test]
    fn envelopes_absorb_like_aggregates_merge() {
        let mut e = Envelope::empty();
        assert!(e.is_empty());
        e.absorb(&meta(0, &[]));
        assert!(e.is_empty(), "empty chunks leave the envelope empty");
        e.absorb(&meta(0, &[5, -1]));
        e.absorb(&meta(0, &[9]));
        assert_eq!((e.rows, e.measure_min, e.measure_max), (3, -1, 9));
    }

    #[test]
    fn fold_rejects_out_of_range_duplicate_and_bad_owner() {
        let bad = ProgressiveCube::new(
            2,
            1,
            vec![vec![1, 0]],
            vec![meta(2, &[1])], // only ranges 0 and 1 exist
        );
        assert!(matches!(
            bad,
            Err(AlgoError::ChunkOwnerOutOfRange {
                chunk: 0,
                owner: 2,
                parts: 2
            })
        ));
        assert!(matches!(
            ProgressiveCube::new(0, 1, Vec::new(), Vec::new()),
            Err(AlgoError::NoDimensions)
        ));

        let mut cube =
            ProgressiveCube::new(2, 1, vec![vec![1, 0]], vec![meta(0, &[4]), meta(1, &[2])])
                .unwrap();
        assert!(matches!(
            cube.fold(5, Vec::new()),
            Err(AlgoError::ChunkOutOfRange {
                index: 5,
                chunks: 2
            })
        ));
        cube.fold(0, vec![cell(&[0, 1], 4)]).unwrap();
        assert!(matches!(
            cube.fold(0, Vec::new()),
            Err(AlgoError::ChunkAlreadyFolded { index: 0 })
        ));
        assert!(!cube.converged());
        cube.fold(1, vec![cell(&[2, 0], 2)]).unwrap();
        assert!(cube.converged());
        assert!(cube.progress().total_envelope().is_empty());
    }

    #[test]
    fn anchor_cells_get_their_range_envelope_others_the_total() {
        // Two ranges split at key [5, 0]: range 0 owns keys below it.
        let chunks = vec![meta(0, &[10, 20]), meta(1, &[-3])];
        let cube = ProgressiveCube::new(2, 2, vec![vec![5, 0]], chunks).unwrap();
        let p = cube.progress();
        let anchor = CuboidMask::full(2);
        let low = p.envelope_for(anchor, &[1, 9]);
        assert_eq!((low.rows, low.measure_min, low.measure_max), (2, 10, 20));
        let high = p.envelope_for(anchor, &[5, 0]);
        assert_eq!((high.rows, high.measure_min, high.measure_max), (1, -3, -3));
        // A coarser cuboid aggregates across ranges: global envelope.
        let coarse = p.envelope_for(CuboidMask::from_dims(&[0]), &[1]);
        assert_eq!(
            (coarse.rows, coarse.measure_min, coarse.measure_max),
            (3, -3, 20)
        );
        assert_eq!(p.total_envelope(), coarse);
    }

    #[test]
    fn folding_tightens_the_published_envelope() {
        let chunks = vec![meta(0, &[1, 1]), meta(0, &[100])];
        let mut cube = ProgressiveCube::new(1, 1, Vec::new(), chunks).unwrap();
        let before = cube.progress();
        assert_eq!(before.total_envelope().rows, 3);
        assert_eq!(before.rows_total(), 3);
        cube.fold(1, vec![cell(&[7], 100)]).unwrap();
        let after = cube.progress();
        assert_eq!(after.total_envelope().rows, 2);
        assert_eq!(after.total_envelope().measure_max, 1);
        assert_eq!(after.rows_folded(), 1);
        assert!(!after.converged());
    }

    #[test]
    fn converged_floor_matches_direct_store() {
        // Fold two single-cell chunks touching the same key; the floor
        // must equal a store built from the merged cell.
        let chunks = vec![meta(0, &[4]), meta(0, &[6])];
        let mut cube = ProgressiveCube::new(1, 2, Vec::new(), chunks).unwrap();
        cube.fold(0, vec![cell(&[3], 4)]).unwrap();
        cube.fold(1, vec![cell(&[3], 6)]).unwrap();
        assert!(cube.converged());
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
        cube.floor().write_to(&mut got_bytes).unwrap();
        want.write_to(&mut want_bytes).unwrap();
        assert_eq!(got_bytes, want_bytes);
        assert_eq!(cube.visible().minsup(), 2);
    }
}
