//! Columnar cell blocks: one cuboid's cells as a flat key arena plus a
//! parallel aggregate column.
//!
//! A [`CellBlock`] is the one layout cells travel in between a kernel's
//! `emit` and the stored cube: the sink appends to it
//! ([`CellBuf`](crate::cell::CellBuf)), the delta merge consumes and
//! produces it, and [`CubeStore`](crate::store::CubeStore) keeps it.
//! Keys are `arity` consecutive `u32`s each, so appending a cell is two
//! `Vec` pushes and never a per-cell allocation.
//!
//! The apex cuboid ([`CuboidMask::ALL`]) has arity 0: its keys are empty
//! slices and its arena stays empty. Every accessor here goes through
//! range `get`s rather than `chunks_exact`, so a stride of zero is just
//! another stride.

use crate::agg::Aggregate;
use icecube_lattice::CuboidMask;
use std::cmp::Ordering;
use std::ops::Range;

/// One cuboid's cells in columnar form: a stride-`arity` key arena and
/// the aggregates beside it, in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBlock {
    cuboid: CuboidMask,
    arity: usize,
    /// Concatenated keys, `arity` values per cell.
    keys: Vec<u32>,
    aggs: Vec<Aggregate>,
}

impl CellBlock {
    /// An empty block for `cuboid`.
    pub(crate) fn new(cuboid: CuboidMask) -> Self {
        CellBlock::with_capacity(cuboid, 0)
    }

    /// An empty block for `cuboid` with room for `cells` cells.
    pub(crate) fn with_capacity(cuboid: CuboidMask, cells: usize) -> Self {
        let arity = cuboid.dim_count();
        CellBlock {
            cuboid,
            arity,
            keys: Vec::with_capacity(cells * arity),
            aggs: Vec::with_capacity(cells),
        }
    }

    /// A block over already-columnar data; `None` unless `keys` holds
    /// exactly `cuboid.dim_count()` values per aggregate.
    pub(crate) fn from_parts(
        cuboid: CuboidMask,
        keys: Vec<u32>,
        aggs: Vec<Aggregate>,
    ) -> Option<Self> {
        let arity = cuboid.dim_count();
        (aggs.len().checked_mul(arity) == Some(keys.len())).then_some(CellBlock {
            cuboid,
            arity,
            keys,
            aggs,
        })
    }

    /// Appends one cell. `key` must hold the cuboid's `arity` values —
    /// callers outside this crate's kernels validate that first
    /// ([`CubeStore::merge_cells`](crate::store::CubeStore::merge_cells)).
    pub(crate) fn push(&mut self, key: &[u32], agg: Aggregate) {
        debug_assert_eq!(key.len(), self.arity, "key arity for {}", self.cuboid);
        self.keys.extend_from_slice(key);
        self.aggs.push(agg);
    }

    /// Appends cells `range` of `other`, a block of the same cuboid, with
    /// one slice copy per column. An empty or out-of-bounds range appends
    /// nothing.
    pub(crate) fn extend_from(&mut self, other: &CellBlock, range: Range<usize>) {
        debug_assert_eq!(self.cuboid, other.cuboid, "runs of one cuboid");
        let keys = other
            .keys
            .get(range.start * self.arity..range.end * self.arity);
        if let (Some(keys), Some(aggs)) = (keys, other.aggs.get(range)) {
            self.keys.extend_from_slice(keys);
            self.aggs.extend_from_slice(aggs);
        }
    }

    /// The first position at or after `from` whose key is not below
    /// `key` (`len()` when there is none); the block must ascend by key.
    /// An exponential probe from `from` brackets the position before the
    /// binary search, so a merge walking ascending keys pays `O(log gap)`
    /// per key rather than `O(log len)`.
    pub(crate) fn lower_bound_from(&self, from: usize, key: &[u32]) -> usize {
        let n = self.len();
        // Every key before `lo` is below `key`; `hi` is `n` or a
        // position whose key is not.
        let (mut lo, mut hi) = (from.min(n), from.min(n));
        let mut step = 1usize;
        while hi < n && self.key(hi) < key {
            lo = hi + 1;
            hi = hi.saturating_add(step).min(n);
            step = step.saturating_mul(2);
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Reserved room of the key and aggregate columns.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> (usize, usize) {
        (self.keys.capacity(), self.aggs.capacity())
    }

    /// The cuboid every cell of this block belongs to.
    pub fn cuboid(&self) -> CuboidMask {
        self.cuboid
    }

    /// Values per key (the cuboid's dimension count).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.aggs.len()
    }

    /// True when the block holds no cell.
    pub fn is_empty(&self) -> bool {
        self.aggs.is_empty()
    }

    /// The flat key arena: `arity` values per cell, in cell order.
    pub fn flat_keys(&self) -> &[u32] {
        &self.keys
    }

    /// The aggregate column, in cell order.
    pub fn aggs(&self) -> &[Aggregate] {
        &self.aggs
    }

    /// Key of cell `i` (the empty slice past the end, and for every cell
    /// of the arity-0 apex block).
    pub fn key(&self, i: usize) -> &[u32] {
        self.keys
            .get(i * self.arity..(i + 1) * self.arity)
            .unwrap_or(&[])
    }

    /// Cell `i` as `(key, aggregate)`; `None` past the end.
    pub fn cell(&self, i: usize) -> Option<(&[u32], &Aggregate)> {
        Some((self.key(i), self.aggs.get(i)?))
    }

    /// Cells in block order, as `(key, aggregate)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &Aggregate)> + '_ {
        self.aggs
            .iter()
            .enumerate()
            .map(|(i, agg)| (self.key(i), agg))
    }

    /// Binary search for `key`; the block must be ascending by key.
    pub fn find(&self, key: &[u32]) -> Option<&Aggregate> {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.aggs.get(mid),
            }
        }
        None
    }

    /// Whether keys ascend strictly (sorted, no duplicates) — what
    /// [`CellBlock::find`] and the persisted format require.
    pub fn is_strictly_ascending(&self) -> bool {
        strictly_ascending(std::slice::from_ref(self))
    }

    /// This block with its cells ascending by key; equal keys are kept,
    /// side by side, in their original order. Already-ascending blocks
    /// come back as they are, without a copy.
    pub(crate) fn sorted(self) -> Self {
        let Some(order) = sorted_order(std::slice::from_ref(&self)) else {
            return self;
        };
        let mut out = CellBlock::with_capacity(self.cuboid, self.len());
        for (key, agg) in order.into_iter().filter_map(|(_, i)| self.cell(i)) {
            out.push(key, *agg);
        }
        out
    }
}

/// Whether the concatenation of `runs` (blocks of one cuboid) ascends
/// strictly by key: one linear pass, no allocation.
fn strictly_ascending(runs: &[CellBlock]) -> bool {
    let mut prev: Option<&[u32]> = None;
    for run in runs {
        for i in 0..run.len() {
            let key = run.key(i);
            if prev.is_some_and(|p| p >= key) {
                return false;
            }
            prev = Some(key);
        }
    }
    true
}

/// The order that makes the concatenation of `runs` (blocks of one
/// cuboid) ascend by key, as `(run, cell)` positions — or `None` when
/// the concatenation already ascends strictly and needs no sort, which is
/// what every BUC-family and skip-list kernel hands back.
///
/// Equal keys are *kept*, in concatenation order: a kernel that emits a
/// cell twice must still fail its oracle, so this never merges them.
pub(crate) fn sorted_order(runs: &[CellBlock]) -> Option<Vec<(usize, usize)>> {
    if strictly_ascending(runs) {
        return None;
    }
    let mut order = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    for (r, run) in runs.iter().enumerate() {
        order.extend((0..run.len()).map(|i| (r, i)));
    }
    let key_at = |&(r, i): &(usize, usize)| runs.get(r).map(|run| run.key(i)).unwrap_or_default();
    // Ties fall back to position, so the unstable sort is a stable one.
    order.sort_unstable_by(|a, b| key_at(a).cmp(key_at(b)).then_with(|| a.cmp(b)));
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(dims: &[usize], cells: &[(&[u32], i64)]) -> CellBlock {
        let mut b = CellBlock::new(CuboidMask::from_dims(dims));
        for &(key, m) in cells {
            b.push(key, Aggregate::of(m));
        }
        b
    }

    #[test]
    fn keys_are_strided_views_of_one_arena() {
        let b = block(&[0, 2], &[(&[1, 2], 5), (&[3, 4], 6)]);
        assert_eq!((b.arity(), b.len()), (2, 2));
        assert_eq!(b.flat_keys(), &[1, 2, 3, 4]);
        assert_eq!(b.key(1), &[3, 4]);
        assert_eq!(
            b.key(2),
            &[] as &[u32],
            "past the end is empty, not a panic"
        );
        let cells: Vec<_> = b.iter().map(|(k, a)| (k.to_vec(), a.sum)).collect();
        assert_eq!(cells, vec![(vec![1, 2], 5), (vec![3, 4], 6)]);
        assert_eq!(b.find(&[3, 4]).map(|a| a.sum), Some(6));
        assert_eq!(b.find(&[2, 9]), None);
    }

    #[test]
    fn the_apex_block_has_stride_zero() {
        let mut b = CellBlock::new(CuboidMask::ALL);
        assert!(b.is_strictly_ascending());
        b.push(&[], Aggregate::of(7));
        assert_eq!((b.arity(), b.len()), (0, 1));
        assert!(b.flat_keys().is_empty());
        assert_eq!(b.iter().count(), 1);
        assert_eq!(b.find(&[]).map(|a| a.sum), Some(7));
        assert!(b.is_strictly_ascending());
        // A second apex cell is a duplicate of the first.
        b.push(&[], Aggregate::of(8));
        assert!(!b.is_strictly_ascending());
        let sorted = b.sorted();
        let sums: Vec<i64> = sorted.aggs().iter().map(|a| a.sum).collect();
        assert_eq!(sums, vec![7, 8], "duplicates keep their order");
    }

    #[test]
    fn from_parts_checks_the_stride() {
        let g = CuboidMask::from_dims(&[0, 1]);
        let a = Aggregate::of(1);
        assert!(CellBlock::from_parts(g, vec![1, 2, 3, 4], vec![a, a]).is_some());
        assert!(CellBlock::from_parts(g, vec![1, 2, 3], vec![a, a]).is_none());
        assert!(CellBlock::from_parts(CuboidMask::ALL, Vec::new(), vec![a]).is_some());
    }

    #[test]
    fn ordered_runs_need_no_sort_and_unordered_ones_get_one() {
        let a = block(&[0], &[(&[1], 1), (&[4], 2)]);
        let b = block(&[0], &[(&[6], 3)]);
        assert_eq!(sorted_order(&[a.clone(), b]), None);
        assert_eq!(sorted_order(&[]), None);
        // Overlapping ranges, and a key present in both runs.
        let c = block(&[0], &[(&[4], 9), (&[5], 4)]);
        let order = sorted_order(&[a.clone(), c.clone()]).unwrap();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        let order = sorted_order(&[c, a]).unwrap();
        assert_eq!(order, vec![(1, 0), (0, 0), (1, 1), (0, 1)]);
    }

    #[test]
    fn sorting_a_block_keeps_duplicates_in_emit_order() {
        let b = block(&[0], &[(&[5], 1), (&[2], 2), (&[5], 3)]);
        assert!(!b.is_strictly_ascending());
        let s = b.sorted();
        let cells: Vec<_> = s.iter().map(|(k, a)| (k[0], a.sum)).collect();
        assert_eq!(cells, vec![(2, 2), (5, 1), (5, 3)]);
        // Already ascending: returned as is.
        let t = block(&[0], &[(&[2], 2), (&[5], 1)]);
        assert_eq!(t.clone().sorted(), t);
    }
}
