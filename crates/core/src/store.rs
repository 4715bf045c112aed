//! A queryable store for computed iceberg cubes: the precomputation side
//! of the paper's motivating workflow.
//!
//! Section 2.1: analysts iterate — *drill-down* ("the previous query
//! returned too few results, GROUP BY on more attributes") and *roll-up*
//! ("too much detail, GROUP BY on fewer"). Precomputing the iceberg cube
//! and serving those navigations from the stored cells is precisely what
//! the parallel algorithms exist for; Chapter 5 adds the caveat this store
//! enforces: a stored cube computed at minimum support `s` can only answer
//! queries with threshold `>= s` (anything lower needs recomputation or
//! online aggregation — see `icecube-online`).

use crate::agg::Aggregate;
use crate::backend::ExecOutcome;
use crate::block::CellBlock;
use crate::cell::{Cell, CellBuf, CellSink};
use crate::error::AlgoError;
use icecube_lattice::{CuboidMask, MAX_DIMS};
use std::collections::BTreeMap;
use std::sync::Arc;

/// File magic for the persisted store format.
const MAGIC: &[u8; 8] = b"ICECUBE1";

/// Counters from one delta merge ([`CubeStore::merge_cells`] and the
/// block merge behind it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Existing cells whose aggregate absorbed at least one delta cell.
    pub updated: usize,
    /// Cells the merge created (keys the store had not seen).
    pub inserted: usize,
    /// Cells whose count crossed `watch_minsup` upward during this merge
    /// (appears atomically in the next thresholded snapshot).
    pub promoted: usize,
    /// Cuboids the delta touched — the lattice region
    /// `Σ_g |π_g(batch)| > 0` the merge was bounded to.
    pub touched_cuboids: usize,
}

impl MergeStats {
    /// Adds another merge's counters to these.
    pub(crate) fn absorb(&mut self, other: MergeStats) {
        self.updated += other.updated;
        self.inserted += other.inserted;
        self.promoted += other.promoted;
        self.touched_cuboids += other.touched_cuboids;
    }
}

/// A precomputed iceberg cube, indexed by cuboid, answering point lookups,
/// slices, drill-downs and roll-ups.
///
/// Each cuboid's cells are one columnar block, immutable once stored: a
/// merge replaces a touched cuboid's block rather than editing it. A
/// clone therefore shares every block (one reference count per cuboid)
/// and never observes a later merge into the store it came from — which
/// is what lets a served epoch hold the same cells as the floor or
/// thresholded snapshot it was published from without copying them.
///
/// ```
/// use icecube_core::fixtures::sales;
/// use icecube_core::{run_parallel, Algorithm, CubeStore, IcebergQuery};
/// use icecube_cluster::ClusterConfig;
/// use icecube_lattice::CuboidMask;
///
/// let rel = sales();
/// let q = IcebergQuery::count_cube(3, 2);
/// let out = run_parallel(Algorithm::Pt, &rel, &q,
///                        &ClusterConfig::fast_ethernet(2)).unwrap();
/// let store = CubeStore::from_outcome(3, 2, out);
/// // Drill Chevy (model=0) down by year: three qualifying cells.
/// let by_model = CuboidMask::from_dims(&[0]);
/// assert_eq!(store.drill_down(by_model, &[0], 1).unwrap().len(), 3);
/// // A lower threshold than the precomputation used is not answerable.
/// assert!(!store.can_answer(1));
/// ```
#[derive(Debug, Clone)]
pub struct CubeStore {
    dims: usize,
    minsup: u64,
    /// One block per materialized cuboid, strictly ascending by key and
    /// never empty. A stored block is never mutated: a merge builds the
    /// cuboid's successor and replaces it, so clones share blocks freely.
    cuboids: BTreeMap<CuboidMask, Arc<CellBlock>>,
}

impl CubeStore {
    /// A store holding no cell yet.
    fn empty(dims: usize, minsup: u64) -> Self {
        CubeStore {
            dims,
            minsup,
            cuboids: BTreeMap::new(),
        }
    }

    /// Builds a store from cells, in any order, computed at `minsup` over
    /// a `dims`-dimensional cube. Cells sharing a `(cuboid, key)` are
    /// merged with [`Aggregate::merge`], exactly as
    /// [`CubeStore::merge_cells`] into an empty store would — both group
    /// the cells into blocks and run the one block merge.
    pub fn from_cells(dims: usize, minsup: u64, cells: Vec<Cell>) -> Self {
        let mut store = CubeStore::empty(dims, minsup);
        store.merge_blocks(blocks_of(cells), minsup, None);
        store
    }

    /// Builds a store from a cube run's outcome — parallel on either
    /// backend, or sequential — which must have been collected with
    /// [`crate::RunOptions::collect_cells`] on.
    pub fn from_outcome(dims: usize, minsup: u64, outcome: ExecOutcome) -> Self {
        CubeStore::from_cells(dims, minsup, outcome.cells)
    }

    /// Number of cube dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The minimum support the cube was computed at: the lowest threshold
    /// this store can answer.
    pub fn minsup(&self) -> u64 {
        self.minsup
    }

    /// Total stored cells.
    pub fn len(&self) -> usize {
        self.cuboids.values().map(|block| block.len()).sum()
    }

    /// True when the cube held no qualifying cells at all.
    pub fn is_empty(&self) -> bool {
        self.cuboids.is_empty()
    }

    /// Whether an iceberg query with threshold `minsup` is answerable from
    /// this store (Section 5: "if the threshold set by online queries
    /// differs from what the precomputation assumed, precomputed cuboids
    /// can no longer be used").
    pub fn can_answer(&self, minsup: u64) -> bool {
        minsup >= self.minsup
    }

    fn cuboid_or_err(&self, g: CuboidMask) -> Result<Option<&CellBlock>, AlgoError> {
        if g.max_dim().is_some_and(|m| m >= self.dims) {
            return Err(AlgoError::DimensionMismatch {
                query_dims: g.max_dim().unwrap_or(0) + 1,
                relation_dims: self.dims,
            });
        }
        Ok(self.cuboids.get(&g).map(Arc::as_ref))
    }

    /// Point lookup: the aggregate of one cell.
    ///
    /// Inlined into its callers (`ShardedCube::get` on the serving path):
    /// compiled out of line behind the `Arc` block, the same binary
    /// search measured 1.7–2× slower per lookup (1.4 M-cell cube, 2-vCPU
    /// Xeon host).
    #[inline]
    pub fn get(&self, g: CuboidMask, key: &[u32]) -> Option<&Aggregate> {
        self.cuboids.get(&g)?.find(key)
    }

    /// All qualifying cells of one group-by at threshold `minsup`.
    ///
    /// Thresholds below [`CubeStore::minsup`] are not answerable from a
    /// precomputed iceberg cube (the sub-threshold cells were pruned at
    /// computation time) and return [`AlgoError::ThresholdTooLow`] — a
    /// typed error rather than a panic, so a serving layer can map it to a
    /// clean error response instead of unwinding a worker thread.
    pub fn query(
        &self,
        g: CuboidMask,
        minsup: u64,
    ) -> Result<Vec<(Vec<u32>, Aggregate)>, AlgoError> {
        if !self.can_answer(minsup) {
            return Err(AlgoError::ThresholdTooLow {
                stored: self.minsup,
                requested: minsup,
            });
        }
        let Some(stored) = self.cuboid_or_err(g)? else {
            return Ok(Vec::new());
        };
        Ok(stored
            .iter()
            .filter(|(_, agg)| agg.meets(minsup))
            .map(|(key, agg)| (key.to_vec(), *agg))
            .collect())
    }

    /// Slice: cells of group-by `g` whose value on `dim` equals `value`.
    ///
    /// Returns [`AlgoError::DimensionNotInGroupBy`] when `dim` does not
    /// belong to `g` — a typed error rather than a panic, so a serving
    /// worker answering a malformed request never unwinds.
    pub fn slice(
        &self,
        g: CuboidMask,
        dim: usize,
        value: u32,
    ) -> Result<Vec<(Vec<u32>, Aggregate)>, AlgoError> {
        let Some(pos) = g.iter_dims().position(|d| d == dim) else {
            return Err(AlgoError::DimensionNotInGroupBy { dim });
        };
        let Some(stored) = self.cuboid_or_err(g)? else {
            return Ok(Vec::new());
        };
        Ok(stored
            .iter()
            .filter(|(key, _)| key.get(pos) == Some(&value))
            .map(|(key, agg)| (key.to_vec(), *agg))
            .collect())
    }

    /// Drill-down from one cell: the finer cells obtained by adding
    /// dimension `dim` to the group-by ("GROUP BY on more attributes").
    ///
    /// Returns the qualifying refinements of `(g, key)` in `g ∪ {dim}`,
    /// or [`AlgoError::DimensionAlreadyInGroupBy`] when `dim` already
    /// belongs to `g`.
    pub fn drill_down(
        &self,
        g: CuboidMask,
        key: &[u32],
        dim: usize,
    ) -> Result<Vec<(Vec<u32>, Aggregate)>, AlgoError> {
        if g.contains(dim) {
            return Err(AlgoError::DimensionAlreadyInGroupBy { dim });
        }
        let child = g.with_dim(dim);
        let Some(stored) = self.cuboid_or_err(child)? else {
            return Ok(Vec::new());
        };
        // Position of every original dimension inside the child's key:
        // `g ⊂ child` by construction, and both dimension lists ascend,
        // so filtering the child's dimensions down to `g`'s keeps them
        // aligned with `key`'s order.
        let child_dims = child.dims();
        let positions: Vec<usize> = child_dims
            .iter()
            .enumerate()
            .filter(|&(_, d)| g.contains(*d))
            .map(|(p, _)| p)
            .collect();
        Ok(stored
            .iter()
            .filter(|(ck, _)| {
                positions
                    .iter()
                    .zip(key)
                    .all(|(&p, v)| ck.get(p) == Some(v))
            })
            .map(|(ck, agg)| (ck.to_vec(), *agg))
            .collect())
    }

    /// Roll-up from one cell: the coarser cell obtained by removing
    /// dimension `dim` ("GROUP BY on fewer attributes"). `None` when the
    /// coarser cell was itself pruned — impossible for count-based iceberg
    /// cubes, where support only grows upward, unless the roll-up target is
    /// the "all" node (not stored). Returns
    /// [`AlgoError::DimensionNotInGroupBy`] when `dim` does not belong
    /// to `g`.
    pub fn roll_up(
        &self,
        g: CuboidMask,
        key: &[u32],
        dim: usize,
    ) -> Result<Option<(Vec<u32>, Aggregate)>, AlgoError> {
        let Some(pos) = g.iter_dims().position(|d| d == dim) else {
            return Err(AlgoError::DimensionNotInGroupBy { dim });
        };
        let parent = g.without_dim(dim);
        if parent.is_all() {
            return Ok(None);
        }
        let mut pkey = key.to_vec();
        pkey.remove(pos);
        let Some(stored) = self.cuboid_or_err(parent)? else {
            return Ok(None);
        };
        Ok(stored.find(&pkey).map(|agg| (pkey, *agg)))
    }

    /// Serializes the store into a writer (a small versioned binary
    /// format: header, then per cuboid its mask, cell count, keys and
    /// aggregates). This is the "precompute, save to disks" step of the
    /// paper's workflow.
    pub fn write_to<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let w64 = |out: &mut W, v: u64| out.write_all(&v.to_le_bytes());
        let wi64 = |out: &mut W, v: i64| out.write_all(&v.to_le_bytes());
        out.write_all(MAGIC)?;
        w64(out, 1)?; // format version
        w64(out, self.dims as u64)?;
        w64(out, self.minsup)?;
        w64(out, self.cuboids.len() as u64)?;
        // BTreeMap iteration is ascending by mask: files come out
        // byte-for-byte reproducible with no extra sort.
        for (mask, stored) in &self.cuboids {
            w64(out, mask.bits() as u64)?;
            w64(out, stored.len() as u64)?;
            for &k in stored.flat_keys() {
                out.write_all(&k.to_le_bytes())?;
            }
            for a in stored.aggs() {
                w64(out, a.count)?;
                wi64(out, a.sum)?;
                wi64(out, a.min)?;
                wi64(out, a.max)?;
            }
        }
        Ok(())
    }

    /// Deserializes a store written by [`CubeStore::write_to`].
    ///
    /// Hardened against hostile or damaged input: every malformed prefix of
    /// a valid serialized store yields an `io::Error` (never a panic), and
    /// allocation is bounded by the bytes actually present in the input —
    /// a corrupt length field cannot force a huge up-front reservation.
    pub fn read_from<R: std::io::Read>(input: &mut R) -> std::io::Result<CubeStore> {
        use std::io::{Error, ErrorKind, Read};
        // Upper bound on any single up-front reservation; vectors grow
        // beyond it only as real input bytes arrive.
        const RESERVE_CAP: usize = 1 << 16;
        fn r64<R: Read>(input: &mut R) -> std::io::Result<u64> {
            let mut buf = [0u8; 8];
            input.read_exact(&mut buf)?;
            Ok(u64::from_le_bytes(buf))
        }
        fn ri64<R: Read>(input: &mut R) -> std::io::Result<i64> {
            let mut buf = [0u8; 8];
            input.read_exact(&mut buf)?;
            Ok(i64::from_le_bytes(buf))
        }
        fn bad(msg: impl Into<String>) -> Error {
            Error::new(ErrorKind::InvalidData, msg.into())
        }
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if magic != *MAGIC {
            return Err(bad("not an icecube store"));
        }
        let version = r64(input)?;
        if version != 1 {
            return Err(bad(format!("unsupported store version {version}")));
        }
        let dims64 = r64(input)?;
        if dims64 == 0 || dims64 > MAX_DIMS as u64 {
            return Err(bad("corrupt dimension count"));
        }
        let dims = dims64 as usize;
        let minsup = r64(input)?;
        let cuboid_count64 = r64(input)?;
        if cuboid_count64 > 1 << dims {
            return Err(bad("corrupt cuboid count"));
        }
        let cuboid_count = cuboid_count64 as usize;
        let mut cuboids = BTreeMap::new();
        for _ in 0..cuboid_count {
            let bits = r64(input)?;
            if bits == 0 || bits >= 1 << dims {
                return Err(bad(format!(
                    "cuboid mask {bits:#x} outside {dims} dimensions"
                )));
            }
            let mask = CuboidMask::from_bits(bits as u32);
            let arity = mask.dim_count();
            let cells64 = r64(input)?;
            let Some(key_words) = cells64.checked_mul(arity as u64) else {
                return Err(bad("corrupt cell count"));
            };
            let cells = usize::try_from(cells64).map_err(|_| bad("corrupt cell count"))?;
            let key_words = usize::try_from(key_words).map_err(|_| bad("corrupt cell count"))?;
            let mut keys = Vec::with_capacity(key_words.min(RESERVE_CAP));
            for _ in 0..key_words {
                let mut buf = [0u8; 4];
                input.read_exact(&mut buf)?;
                keys.push(u32::from_le_bytes(buf));
            }
            let mut aggs = Vec::with_capacity(cells.min(RESERVE_CAP));
            for _ in 0..cells {
                aggs.push(Aggregate {
                    count: r64(input)?,
                    sum: ri64(input)?,
                    min: ri64(input)?,
                    max: ri64(input)?,
                });
            }
            let Some(block) = CellBlock::from_parts(mask, keys, aggs) else {
                return Err(bad("corrupt cell count"));
            };
            // `write_to` never writes an empty cuboid: accepting one would
            // load a store that is not empty yet holds no cell.
            if block.is_empty() {
                return Err(bad(format!("cuboid {bits:#x} holds no cell")));
            }
            // Binary search over a cuboid requires strictly ascending keys;
            // enforce it here so a length-consistent but scrambled file
            // cannot produce a store that silently misses cells.
            if !block.is_strictly_ascending() {
                return Err(bad("cuboid keys not strictly ascending"));
            }
            if cuboids.insert(mask, Arc::new(block)).is_some() {
                return Err(bad("duplicate cuboid mask"));
            }
        }
        Ok(CubeStore {
            dims,
            minsup,
            cuboids,
        })
    }

    /// Iterates all stored cells, ascending by cuboid mask and then by
    /// key within each cuboid — a fully deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        self.cuboids.iter().flat_map(|(&cuboid, stored)| {
            stored.iter().map(move |(key, agg)| Cell {
                cuboid,
                key: key.to_vec(),
                agg: *agg,
            })
        })
    }

    /// Masks of every stored cuboid, ascending — the deterministic
    /// iteration order sharding and serialization rely on.
    pub fn cuboid_masks(&self) -> Vec<CuboidMask> {
        self.cuboids.keys().copied().collect()
    }

    /// Number of cells stored for one cuboid (0 when absent).
    pub fn cuboid_len(&self, g: CuboidMask) -> usize {
        self.cuboids.get(&g).map_or(0, |block| block.len())
    }

    /// Whether cuboid `g` was materialized in this store.
    pub fn has_cuboid(&self, g: CuboidMask) -> bool {
        self.cuboids.contains_key(&g)
    }

    /// Iterates one cuboid's cells in ascending key order (empty iterator
    /// when the cuboid is absent).
    pub fn cells_of(&self, g: CuboidMask) -> impl Iterator<Item = (&[u32], Aggregate)> + '_ {
        self.cuboids
            .get(&g)
            .into_iter()
            .flat_map(|block| block.iter().map(|(key, agg)| (key, *agg)))
    }

    /// Merges delta cells into the store: validates every cell, groups
    /// them into per-cuboid blocks and runs the block merge the delta and
    /// progressive paths use directly.
    ///
    /// `watch_minsup` is the serving threshold used for the promotion
    /// counter in the returned [`MergeStats`]. Every cell is validated
    /// before any mutation — on error the store is unchanged.
    pub fn merge_cells(
        &mut self,
        cells: Vec<Cell>,
        watch_minsup: u64,
    ) -> Result<MergeStats, AlgoError> {
        self.check_cells(&cells)?;
        Ok(self.merge_blocks(blocks_of(cells), watch_minsup, None))
    }

    /// Checks that every cell fits this store: its cuboid lies within the
    /// store's dimensions and its key has the cuboid's arity.
    pub(crate) fn check_cells(&self, cells: &[Cell]) -> Result<(), AlgoError> {
        for cell in cells {
            if cell.cuboid.max_dim().is_some_and(|m| m >= self.dims) {
                return Err(AlgoError::DimensionMismatch {
                    query_dims: cell.cuboid.max_dim().unwrap_or(0) + 1,
                    relation_dims: self.dims,
                });
            }
            if cell.key.len() != cell.cuboid.dim_count() {
                return Err(AlgoError::CellArity {
                    expected: cell.cuboid.dim_count(),
                    got: cell.key.len(),
                });
            }
        }
        Ok(())
    }

    /// Merges delta blocks into the store, cuboid by cuboid.
    ///
    /// This is the incremental-maintenance kernel: the delta-BUC pass
    /// aggregates just an append batch (at minimum support 1) and this
    /// merge folds the resulting partials into the stored cuboids with
    /// [`Aggregate::merge`]. COUNT/SUM/MIN/MAX are all distributive over
    /// a disjoint row union, so for append-only ingest the merged store is
    /// byte-identical to recomputing from the concatenated relation.
    ///
    /// Work is bounded to exactly the lattice region the batch touches:
    /// only cuboids with a delta block are rebuilt ([`merge_cuboid`]);
    /// untouched cuboids are not visited, and their blocks stay shared
    /// with every clone. Each successor is installed as soon as it is
    /// built, so an old block no clone shares is freed before the next
    /// cuboid's successor is allocated.
    ///
    /// `watch_minsup` is the serving threshold used for the promotion
    /// counter in the returned [`MergeStats`] (merging appends can only
    /// grow counts, so cells cross it upward only). When `view` is given
    /// — this store thresholded at `watch_minsup` — it is kept equal to
    /// that: the merge records its merged cells that meet the threshold
    /// and they are upserted into the cuboid's view block
    /// ([`upsert_cuboid`]), whose successor is installed before the next
    /// cuboid merges. A cuboid with no qualifying cell keeps its view
    /// block.
    pub(crate) fn merge_blocks(
        &mut self,
        delta: Vec<CellBlock>,
        watch_minsup: u64,
        mut view: Option<&mut CubeStore>,
    ) -> MergeStats {
        let mut stats = MergeStats::default();
        for run in delta {
            let g = run.cuboid();
            let mut merged = self.successor(&run);
            let mut changes = view
                .is_some()
                .then(|| CellBlock::with_capacity(g, run.len()));
            let old = self.cuboids.remove(&g);
            let cuboid_stats = merge_cuboid(
                old.as_deref(),
                &run,
                &mut merged,
                watch_minsup,
                changes.as_mut(),
            );
            stats.absorb(cuboid_stats);
            self.install(merged);
            if let (Some(view), Some(changes)) = (view.as_deref_mut(), changes) {
                view.upsert(&changes, cuboid_stats.promoted);
            }
        }
        stats
    }

    /// Upserts `changes`, ascending cells of one cuboid of which
    /// `promoted` are new to this store, into that cuboid's block: a
    /// successor allocated here at its exact size, every stored cell plus
    /// every new one, and filled by [`upsert_cuboid`]. No changes leave
    /// the block as it is.
    fn upsert(&mut self, changes: &CellBlock, promoted: usize) {
        if changes.is_empty() {
            return;
        }
        let g = changes.cuboid();
        let mut merged = CellBlock::with_capacity(g, self.cuboid_len(g) + promoted);
        upsert_cuboid(self.block(g), changes, &mut merged);
        self.install(merged);
    }

    /// The stored block of cuboid `g`, if materialized.
    pub(crate) fn block(&self, g: CuboidMask) -> Option<&CellBlock> {
        self.cuboids.get(&g).map(|block| &**block)
    }

    /// An empty successor for the cuboid `run` merges into, with room
    /// for the merge's exact bound: every stored cell plus every delta
    /// cell. [`merge_cuboid`] never grows it past that, so the block is
    /// allocated here, by the caller, and only filled by the merge.
    pub(crate) fn successor(&self, run: &CellBlock) -> CellBlock {
        let g = run.cuboid();
        CellBlock::with_capacity(g, self.cuboid_len(g) + run.len())
    }

    /// Replaces `block`'s cuboid with it.
    pub(crate) fn install(&mut self, block: CellBlock) {
        self.cuboids.insert(block.cuboid(), Arc::new(block));
    }

    /// A thresholded snapshot: the cells meeting `minsup`, as a standalone
    /// store computed *at* `minsup`.
    ///
    /// Cells below the threshold are simply not copied (no tombstones),
    /// and cuboids left with no qualifying cell are dropped entirely — so
    /// thresholding a maintained floor store (full partials at minimum
    /// support 1) is byte-identical to a from-scratch
    /// [`CubeStore::from_cells`] build over the same relation at
    /// `minsup`. A maintained cube keeps that snapshot current through
    /// its merges instead; this full pass seeds it after a threshold
    /// change or a progressive fold, and is the oracle its tests hold it
    /// to.
    pub fn thresholded(&self, minsup: u64) -> CubeStore {
        let mut snapshot = CubeStore::empty(self.dims, minsup);
        for (&mask, stored) in &self.cuboids {
            let mut kept = CellBlock::new(mask);
            for (key, agg) in stored.iter().filter(|(_, agg)| agg.meets(minsup)) {
                kept.push(key, *agg);
            }
            if !kept.is_empty() {
                snapshot.cuboids.insert(mask, Arc::new(kept));
            }
        }
        snapshot
    }

    /// Whether cuboid `g`'s block is one and the same allocation in both
    /// stores (both lacking it counts as shared).
    #[cfg(test)]
    pub(crate) fn shares_block(&self, other: &CubeStore, g: CuboidMask) -> bool {
        match (self.cuboids.get(&g), other.cuboids.get(&g)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Even-quantile split keys dividing cuboid `g`'s cells into `parts`
    /// contiguous key ranges, for range sharding: returns at most
    /// `parts - 1` ascending keys; range `j` owns keys `k` with
    /// `splits[j-1] <= k < splits[j]`. Duplicate split keys collapse, so
    /// fewer than `parts - 1` keys can come back for tiny cuboids. Zero
    /// parts is treated as one (no split keys either way).
    pub fn split_points(&self, g: CuboidMask, parts: usize) -> Vec<Vec<u32>> {
        let parts = parts.max(1);
        let Some(stored) = self.cuboids.get(&g) else {
            return Vec::new();
        };
        let n = stored.len();
        let mut splits: Vec<Vec<u32>> = Vec::with_capacity(parts.saturating_sub(1));
        if n == 0 {
            return splits;
        }
        for j in 1..parts {
            let pos = (j * n / parts).min(n - 1);
            let key = stored.key(pos);
            if splits.last().map(Vec::as_slice) != Some(key) {
                splits.push(key.to_vec());
            }
        }
        splits
    }
}

/// Merges one cuboid's delta `run` with its stored block `old` (`None`
/// when the cuboid was not materialized) into `merged`, an empty block
/// of the same cuboid the caller sized with [`CubeStore::successor`].
///
/// `run` must ascend by key; equal keys may repeat and are absorbed into
/// one cell (a well-formed delta pass emits unique cells, but the merge
/// does not rely on it). Each delta key's place in `old` is found by a
/// galloping search from the previous one and the old cells in between
/// are copied as whole runs, so a small delta into a large cuboid costs
/// two slice copies per delta key rather than a comparison per old cell.
/// The merge reads nothing but its blocks, so the cuboids of one delta
/// can merge on different threads.
///
/// When `changes` is given (an empty block of the cuboid with room for
/// `run.len()` cells), every merged cell that meets `watch_minsup` is
/// appended to it too, ascending: the cells the store's thresholded view
/// gains or updates. Appends never lower a count, so no other view cell
/// changes.
pub(crate) fn merge_cuboid(
    old: Option<&CellBlock>,
    run: &CellBlock,
    merged: &mut CellBlock,
    watch_minsup: u64,
    mut changes: Option<&mut CellBlock>,
) -> MergeStats {
    let mut stats = MergeStats {
        touched_cuboids: 1,
        ..MergeStats::default()
    };
    // `at` is the first old cell not yet in `merged`, `i` the next delta
    // cell.
    let (mut at, mut i) = (0, 0);
    while let Some((key, _)) = run.cell(i) {
        let (pos, stored) = copy_up_to(old, at, key, merged);
        // The stored cell first, then every delta cell with its key.
        let mut agg = stored.unwrap_or_else(Aggregate::empty);
        while let Some((_, more)) = run.cell(i).filter(|(k, _)| *k == key) {
            agg.merge(more);
            i += 1;
        }
        let meets = agg.meets(watch_minsup);
        match stored {
            Some(before) => {
                stats.updated += 1;
                stats.promoted += usize::from(!before.meets(watch_minsup) && meets);
                at = pos + 1;
            }
            None => {
                stats.inserted += 1;
                stats.promoted += usize::from(meets);
                at = pos;
            }
        }
        merged.push(key, agg);
        if let Some(changes) = changes.as_deref_mut().filter(|_| meets) {
            changes.push(key, agg);
        }
    }
    copy_rest(old, at, merged);
    stats
}

/// Upserts `changes`, ascending cells of one cuboid with unique keys,
/// into its block `old` (`None` when absent) as `merged`, an empty block
/// of the cuboid the caller sized for the result: a change whose key
/// `old` holds replaces that cell, any other is inserted. This is how a
/// thresholded view takes a merge's [`merge_cuboid`] changes: the
/// inserted ones are exactly the merge's promoted cells.
pub(crate) fn upsert_cuboid(old: Option<&CellBlock>, changes: &CellBlock, merged: &mut CellBlock) {
    let mut at = 0;
    for (key, agg) in changes.iter() {
        let (pos, stored) = copy_up_to(old, at, key, merged);
        at = pos + usize::from(stored.is_some());
        merged.push(key, *agg);
    }
    copy_rest(old, at, merged);
}

/// Copies `old`'s cells from `at` up to the first one whose key is not
/// below `key` into `out`, and returns that cell's position with its
/// aggregate when its key is `key`. An absent block copies nothing.
fn copy_up_to(
    old: Option<&CellBlock>,
    at: usize,
    key: &[u32],
    out: &mut CellBlock,
) -> (usize, Option<Aggregate>) {
    let Some(old) = old else {
        return (at, None);
    };
    let pos = old.lower_bound_from(at, key);
    out.extend_from(old, at..pos);
    let stored = old.cell(pos).filter(|(k, _)| *k == key).map(|(_, a)| *a);
    (pos, stored)
}

/// Copies `old`'s cells from `at` on into `out`.
fn copy_rest(old: Option<&CellBlock>, at: usize, out: &mut CellBlock) {
    if let Some(old) = old {
        out.extend_from(old, at..old.len());
    }
}

/// Groups cells, in any order, into per-cuboid blocks ascending by mask
/// and key (equal keys kept side by side) — the form
/// [`CubeStore::merge_blocks`] takes.
pub(crate) fn blocks_of(cells: Vec<Cell>) -> Vec<CellBlock> {
    let mut sink = CellBuf::collecting();
    for cell in cells {
        sink.emit(cell.cuboid, &cell.key, &cell.agg);
    }
    sink.into_sorted_blocks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_parallel, Algorithm};
    use crate::fixtures::sales;
    use crate::query::IcebergQuery;
    use icecube_cluster::ClusterConfig;
    use proptest::prelude::*;

    fn store(minsup: u64) -> CubeStore {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, minsup);
        let out = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(2)).unwrap();
        CubeStore::from_outcome(3, minsup, out)
    }

    #[test]
    fn point_lookup_matches_published_sums() {
        let s = store(1);
        let model = CuboidMask::from_dims(&[0]);
        assert_eq!(s.get(model, &[0]).unwrap().sum, 508); // Chevy
        assert_eq!(s.get(model, &[1]).unwrap().sum, 433); // Ford
        assert_eq!(s.get(model, &[7]), None);
        assert_eq!(s.len(), 47);
    }

    #[test]
    fn query_respects_threshold_floor() {
        let s = store(2);
        assert!(s.can_answer(2));
        assert!(s.can_answer(10));
        assert!(!s.can_answer(1));
        let my = CuboidMask::from_dims(&[0, 1]);
        let cells = s.query(my, 3).unwrap();
        assert_eq!(cells.len(), 6); // every (model, year) has support 3
        let cells = s.query(my, 4).unwrap();
        assert!(cells.is_empty());
    }

    #[test]
    fn lower_threshold_is_a_typed_error() {
        let s = store(2);
        match s.query(CuboidMask::from_dims(&[0]), 1) {
            Err(AlgoError::ThresholdTooLow {
                stored: 2,
                requested: 1,
            }) => {}
            other => panic!("expected ThresholdTooLow, got {other:?}"),
        }
        // The error carries the old panic message's wording for operators.
        let e = s.query(CuboidMask::from_dims(&[0]), 1).unwrap_err();
        assert!(e.to_string().contains("cannot answer threshold"));
    }

    #[test]
    fn drill_down_refines_one_cell() {
        let s = store(1);
        // Chevy (model=0) drilled down by year → three cells.
        let refined = s.drill_down(CuboidMask::from_dims(&[0]), &[0], 1).unwrap();
        assert_eq!(refined.len(), 3);
        let total: i64 = refined.iter().map(|(_, a)| a.sum).sum();
        assert_eq!(total, 508, "drill-down partitions the parent cell");
    }

    #[test]
    fn roll_up_recovers_the_parent() {
        let s = store(1);
        let my = CuboidMask::from_dims(&[0, 1]);
        let (pkey, agg) = s.roll_up(my, &[0, 2], 1).unwrap().unwrap();
        assert_eq!(pkey, vec![0]);
        assert_eq!(agg.sum, 508);
        // Rolling up the last dimension reaches "all", which is special.
        assert_eq!(
            s.roll_up(CuboidMask::from_dims(&[0]), &[0], 0).unwrap(),
            None
        );
    }

    #[test]
    fn slice_filters_on_one_dimension() {
        let s = store(1);
        let myc = CuboidMask::from_dims(&[0, 1, 2]);
        let white_1991 = s
            .slice(myc, 2, 1)
            .unwrap()
            .into_iter()
            .filter(|(k, _)| k[1] == 1)
            .collect::<Vec<_>>();
        assert_eq!(white_1991.len(), 2); // Chevy & Ford, 1991, white
    }

    #[test]
    fn out_of_range_dimension_is_an_error() {
        let s = store(1);
        assert!(s.query(CuboidMask::from_dims(&[9]), 1).is_err());
    }

    #[test]
    fn navigation_on_wrong_dimensions_is_a_typed_error() {
        let s = store(1);
        let my = CuboidMask::from_dims(&[0, 1]);
        match s.slice(my, 2, 0) {
            Err(AlgoError::DimensionNotInGroupBy { dim: 2 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        match s.roll_up(my, &[0, 2], 2) {
            Err(AlgoError::DimensionNotInGroupBy { dim: 2 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        match s.drill_down(my, &[0, 2], 1) {
            Err(AlgoError::DimensionAlreadyInGroupBy { dim: 1 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn persistence_roundtrips() {
        let s = store(2);
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        let again = CubeStore::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(again.dims(), s.dims());
        assert_eq!(again.minsup(), s.minsup());
        assert_eq!(again.len(), s.len());
        let g = CuboidMask::from_dims(&[0, 1]);
        assert_eq!(again.query(g, 2).unwrap(), s.query(g, 2).unwrap());
        assert_eq!(
            again.get(CuboidMask::from_dims(&[0]), &[0]),
            s.get(CuboidMask::from_dims(&[0]), &[0])
        );
    }

    #[test]
    fn persistence_rejects_garbage() {
        assert!(CubeStore::read_from(&mut &b"not a store"[..]).is_err());
        let mut buf = Vec::new();
        store(1).write_to(&mut buf).unwrap();
        buf[8] = 9; // wrong version
        assert!(CubeStore::read_from(&mut buf.as_slice()).is_err());
        let mut buf2 = Vec::new();
        store(1).write_to(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 3); // truncated file
        assert!(CubeStore::read_from(&mut buf2.as_slice()).is_err());
    }

    #[test]
    fn every_truncated_prefix_is_an_io_error() {
        // The hardening satellite: any malformed prefix of a valid
        // serialized store must fail cleanly — no panic, no over-allocation.
        let mut buf = Vec::new();
        store(1).write_to(&mut buf).unwrap();
        assert!(CubeStore::read_from(&mut buf.as_slice()).is_ok());
        for cut in 0..buf.len() {
            let prefix = &buf[..cut];
            assert!(
                CubeStore::read_from(&mut &prefix[..]).is_err(),
                "prefix of {cut}/{} bytes parsed successfully",
                buf.len()
            );
        }
    }

    #[test]
    fn corrupt_lengths_do_not_overallocate() {
        // A header claiming u64::MAX cells must fail at EOF, not reserve.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"ICECUBE1");
        let w = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        w(&mut buf, 1); // version
        w(&mut buf, 3); // dims
        w(&mut buf, 1); // minsup
        w(&mut buf, 1); // one cuboid
        w(&mut buf, 0b011); // mask {0,1}
        w(&mut buf, u64::MAX); // absurd cell count
        assert!(CubeStore::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_masks_and_orderings_are_rejected() {
        let header = |cuboids: u64| {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"ICECUBE1");
            for v in [1u64, 3, 1, cuboids] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            buf
        };
        let w64 = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        let w32 = |buf: &mut Vec<u8>, v: u32| buf.extend_from_slice(&v.to_le_bytes());
        let agg = |buf: &mut Vec<u8>| {
            for v in [1u64, 0, 0, 0] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        };
        // Mask naming dimension 3 in a 3-dimensional store.
        let mut buf = header(1);
        w64(&mut buf, 0b1000);
        w64(&mut buf, 0);
        assert!(CubeStore::read_from(&mut buf.as_slice()).is_err());
        // The empty ("all") mask is never written by write_to.
        let mut buf = header(1);
        w64(&mut buf, 0);
        w64(&mut buf, 0);
        assert!(CubeStore::read_from(&mut buf.as_slice()).is_err());
        // Descending keys break the binary-search invariant.
        let mut buf = header(1);
        w64(&mut buf, 0b001);
        w64(&mut buf, 2);
        w32(&mut buf, 5);
        w32(&mut buf, 4);
        agg(&mut buf);
        agg(&mut buf);
        assert!(CubeStore::read_from(&mut buf.as_slice()).is_err());
        // Duplicate cuboid masks.
        let mut buf = header(2);
        for _ in 0..2 {
            w64(&mut buf, 0b001);
            w64(&mut buf, 1);
            w32(&mut buf, 5);
            agg(&mut buf);
        }
        assert!(CubeStore::read_from(&mut buf.as_slice()).is_err());
        // One dimension past MAX_DIMS, which no cube can have; MAX_DIMS
        // itself is accepted.
        let dims_header = |dims: u64| {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"ICECUBE1");
            for v in [1u64, dims, 1, 0] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            buf
        };
        let err = CubeStore::read_from(&mut dims_header(MAX_DIMS as u64 + 1).as_slice()).err();
        assert_eq!(err.map(|e| e.kind()), Some(std::io::ErrorKind::InvalidData));
        let widest = CubeStore::read_from(&mut dims_header(MAX_DIMS as u64).as_slice());
        assert_eq!(widest.map(|s| s.dims()).ok(), Some(MAX_DIMS));
        // A cuboid of zero cells is never written by write_to either.
        let mut buf = header(1);
        w64(&mut buf, 0b001);
        w64(&mut buf, 0);
        let err = CubeStore::read_from(&mut buf.as_slice()).err();
        assert_eq!(err.map(|e| e.kind()), Some(std::io::ErrorKind::InvalidData));
    }

    #[test]
    fn cuboid_hooks_expose_sorted_cells() {
        let s = store(1);
        let masks = s.cuboid_masks();
        assert_eq!(masks.len(), 7, "3 dims -> 7 non-empty cuboids at minsup 1");
        assert!(masks.windows(2).all(|w| w[0] < w[1]));
        let total: usize = masks.iter().map(|&m| s.cuboid_len(m)).sum();
        assert_eq!(total, s.len());
        for &m in &masks {
            assert!(s.has_cuboid(m));
            let keys: Vec<&[u32]> = s.cells_of(m).map(|(k, _)| k).collect();
            assert_eq!(keys.len(), s.cuboid_len(m));
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "cells sorted by key");
        }
        assert_eq!(s.cuboid_len(CuboidMask::from_bits(0b1000_0000)), 0);
        assert!(s
            .cells_of(CuboidMask::from_bits(0b1000_0000))
            .next()
            .is_none());
    }

    #[test]
    fn split_points_partition_the_key_space() {
        let s = store(1);
        for &m in &s.cuboid_masks() {
            for parts in 1..=5 {
                let splits = s.split_points(m, parts);
                assert!(splits.len() < parts);
                assert!(splits.windows(2).all(|w| w[0] < w[1]));
                // Routing every stored key through the splits loses nothing.
                let mut per_range = vec![0usize; parts];
                for (key, _) in s.cells_of(m) {
                    let r = splits.partition_point(|sp| sp.as_slice() <= key);
                    per_range[r] += 1;
                }
                assert_eq!(per_range.iter().sum::<usize>(), s.cuboid_len(m));
            }
        }
        assert!(s
            .split_points(CuboidMask::from_bits(0b1000_0000), 4)
            .is_empty());
    }

    #[test]
    fn iter_roundtrips_through_from_cells() {
        let s = store(2);
        let again = CubeStore::from_cells(3, 2, s.iter().collect());
        assert_eq!(again.len(), s.len());
        let g = CuboidMask::from_dims(&[0, 1]);
        assert_eq!(again.query(g, 2).unwrap(), s.query(g, 2).unwrap());
    }

    #[test]
    fn from_cells_merges_duplicates_like_merge_cells() {
        let g = CuboidMask::from_dims(&[0, 1]);
        let cell = |cuboid: CuboidMask, key: &[u32], m: i64| Cell {
            cuboid,
            key: key.to_vec(),
            agg: Aggregate::of(m),
        };
        let cells = vec![
            cell(g, &[1, 2], 5),
            cell(g, &[0, 7], 1),
            cell(g, &[1, 2], -3),
            cell(CuboidMask::from_dims(&[2]), &[4], 2),
            cell(g, &[1, 2], 9),
        ];
        let built = CubeStore::from_cells(3, 1, cells.clone());
        let mut merged = CubeStore::from_cells(3, 1, Vec::new());
        let stats = merged.merge_cells(cells, 1).unwrap();
        assert_eq!((stats.inserted, stats.updated), (3, 0));
        // One cell per key, holding all three partials.
        assert_eq!(built.len(), 3);
        let agg = built.get(g, &[1, 2]).unwrap();
        assert_eq!((agg.count, agg.sum, agg.min, agg.max), (3, 11, -3, 9));
        assert_eq!(bytes(&built), bytes(&merged));
        // Side-by-side duplicates used to write a file `read_from` refused.
        let again = CubeStore::read_from(&mut bytes(&built).as_slice()).unwrap();
        assert_eq!(bytes(&again), bytes(&built));
    }

    fn bytes(s: &CubeStore) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn clones_and_snapshots_never_see_a_later_merge() {
        let g = CuboidMask::from_dims(&[0]);
        let mut floor = store(1);
        let before = floor.clone();
        let pinned = bytes(&before);
        let delta = vec![
            Cell {
                cuboid: g,
                key: vec![0],
                agg: Aggregate::of(1),
            },
            Cell {
                cuboid: g,
                key: vec![9],
                agg: Aggregate::of(2),
            },
        ];
        let stats = floor.merge_cells(delta, 1).unwrap();
        assert_eq!((stats.updated, stats.inserted), (1, 1));
        assert_ne!(bytes(&floor), pinned, "the merge changed the store");
        assert_eq!(bytes(&before), pinned, "a clone saw a later merge");
        assert_eq!(before.get(g, &[9]), None);

        // At minsup 1 the snapshot holds every floor cell; ingest must
        // still leave it as it was.
        let rel = sales();
        let mut cube = crate::delta::MaintainedCube::from_relation(&rel, 1).unwrap();
        let visible = cube.visible();
        let pinned = bytes(&visible);
        assert_eq!(pinned, bytes(cube.floor()));
        cube.ingest(&rel).unwrap();
        assert_ne!(bytes(&cube.visible()), pinned, "ingest changed the cube");
        assert_eq!(bytes(&visible), pinned, "a snapshot saw a later ingest");
    }

    /// Floor and delta cells for the merge property: `(mask bits, key
    /// values, count, measure)`, with masks over three dimensions
    /// including the arity-0 apex (bits 0).
    type RawCell = (u32, Vec<u32>, u64, i64);

    fn raw_cells(raw: &[RawCell], value: impl Fn(u32) -> u32) -> Vec<Cell> {
        raw.iter()
            .map(|(bits, key, count, m)| {
                let cuboid = CuboidMask::from_bits(*bits);
                let key = key
                    .iter()
                    .take(cuboid.dim_count())
                    .map(|&v| value(v))
                    .collect();
                let agg = Aggregate {
                    count: *count,
                    sum: m * *count as i64,
                    min: *m,
                    max: m + *count as i64,
                };
                Cell { cuboid, key, agg }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn merging_a_delta_equals_building_from_both(
            floor in proptest::collection::vec(
                (0u32..8, proptest::collection::vec(0u32..3, 3..4), 1u64..4, -9i64..9),
                0..40,
            ),
            delta in proptest::collection::vec(
                (0u32..8, proptest::collection::vec(0u32..7, 3..4), 1u64..4, -9i64..9),
                0..40,
            ),
            watch in 1u64..6,
        ) {
            // Floor keys are odd, delta keys any of 0..7: the delta lands
            // before, between, on and after the floor's keys, and repeats.
            let floor = raw_cells(&floor, |v| 2 * v + 1);
            let delta = raw_cells(&delta, |v| v);
            // The oracle groups cells in a map, away from `merge_blocks`
            // (which `from_cells` runs as well).
            let group = |cells: &[Cell]| {
                let mut map: BTreeMap<(CuboidMask, Vec<u32>), Aggregate> = BTreeMap::new();
                for c in cells {
                    map.entry((c.cuboid, c.key.clone()))
                        .and_modify(|a| a.merge(&c.agg))
                        .or_insert(c.agg);
                }
                map.into_iter().collect::<Vec<_>>()
            };
            let cells = |s: &CubeStore| {
                s.iter().map(|c| ((c.cuboid, c.key), c.agg)).collect::<Vec<_>>()
            };
            let mut merged = CubeStore::from_cells(3, 1, floor.clone());
            let stats = merged.merge_cells(delta.clone(), watch).unwrap();
            let mut both = floor.clone();
            both.extend(delta.iter().cloned());
            prop_assert_eq!(cells(&merged), group(&both));
            prop_assert_eq!(bytes(&merged), bytes(&CubeStore::from_cells(3, 1, both)));
            // The per-cuboid merge the pool fold runs, each into a
            // successor the caller sized: same bytes, same counters, and
            // never a reallocation.
            let old = CubeStore::from_cells(3, 1, floor.clone());
            let mut per_cuboid = old.clone();
            let mut per_cuboid_stats = MergeStats::default();
            for run in blocks_of(delta.clone()) {
                let mut successor = old.successor(&run);
                let capacity = successor.capacity();
                let stored = old.block(run.cuboid());
                per_cuboid_stats.absorb(merge_cuboid(stored, &run, &mut successor, watch, None));
                prop_assert_eq!(successor.capacity(), capacity);
                per_cuboid.install(successor);
            }
            prop_assert_eq!(bytes(&per_cuboid), bytes(&merged));
            // The view the merge keeps: the old store thresholded at
            // `watch`, upserted with each cuboid's recorded changes,
            // equals the merged store thresholded; the changes never
            // outgrow what their caller reserved, and a view successor
            // sized by the promotions comes out exactly full.
            let mut viewed = old.clone();
            let mut view = old.thresholded(watch);
            let before = view.clone();
            let viewed_stats = viewed.merge_blocks(blocks_of(delta.clone()), watch, Some(&mut view));
            prop_assert_eq!(viewed_stats, stats);
            prop_assert_eq!(bytes(&viewed), bytes(&merged));
            prop_assert_eq!(bytes(&view), bytes(&merged.thresholded(watch)));
            for run in blocks_of(delta.clone()) {
                let g = run.cuboid();
                let mut successor = old.successor(&run);
                let mut changes = CellBlock::with_capacity(g, run.len());
                let capacity = changes.capacity();
                let promoted =
                    merge_cuboid(old.block(g), &run, &mut successor, watch, Some(&mut changes))
                        .promoted;
                prop_assert_eq!(changes.capacity(), capacity);
                let size = before.cuboid_len(g) + promoted;
                let mut upserted = CellBlock::with_capacity(g, size);
                let capacity = upserted.capacity();
                upsert_cuboid(before.block(g), &changes, &mut upserted);
                prop_assert_eq!(upserted.capacity(), capacity);
                prop_assert_eq!(upserted.len(), size);
                // A cuboid with no qualifying change keeps its view block.
                prop_assert_eq!(changes.is_empty(), view.shares_block(&before, g));
            }
            // And into an empty floor.
            let mut fresh = CubeStore::from_cells(3, 1, Vec::new());
            fresh.merge_cells(delta.clone(), watch).unwrap();
            prop_assert_eq!(cells(&fresh), group(&delta));

            let old: BTreeMap<_, _> = group(&floor).into_iter().collect();
            let mut want = MergeStats::default();
            for (at, add) in group(&delta) {
                match old.get(&at) {
                    Some(before) => {
                        let mut after = *before;
                        after.merge(&add);
                        want.updated += 1;
                        want.promoted += usize::from(!before.meets(watch) && after.meets(watch));
                    }
                    None => {
                        want.inserted += 1;
                        want.promoted += usize::from(add.meets(watch));
                    }
                }
            }
            want.touched_cuboids = delta
                .iter()
                .map(|c| c.cuboid)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            prop_assert_eq!(stats, want);
            prop_assert_eq!(per_cuboid_stats, want);
        }

        #[test]
        fn persistence_roundtrips_arbitrary_cells(
            raw in proptest::collection::vec(
                (1u32..15, proptest::collection::vec(0u32..9, 0..4), 1u64..50, -99i64..99),
                0..60,
            )
        ) {
            // Build arbitrary (well-formed) cells: the cuboid mask's arity
            // is forced to match the key length.
            let mut unique = std::collections::BTreeMap::new();
            for (bits, key, count, m) in raw {
                let dims: Vec<usize> = (0..4).filter(|i| bits & (1 << i) != 0).collect();
                let dims = if dims.is_empty() { vec![0] } else { dims };
                let key: Vec<u32> =
                    (0..dims.len()).map(|i| key.get(i).copied().unwrap_or(0)).collect();
                let mut agg = Aggregate::empty();
                for _ in 0..count {
                    agg.update(m);
                }
                let cuboid = CuboidMask::from_dims(&dims);
                unique.insert((cuboid, key.clone()), Cell { cuboid, key, agg });
            }
            let cells: Vec<Cell> = unique.into_values().collect();
            let store = CubeStore::from_cells(4, 1, cells);
            let mut buf = Vec::new();
            store.write_to(&mut buf).unwrap();
            let again = CubeStore::read_from(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(again.len(), store.len());
            for cell in store.iter() {
                prop_assert_eq!(again.get(cell.cuboid, &cell.key), Some(&cell.agg));
            }
        }
    }
}
