//! Cube cells and cell sinks: how cells leave a kernel.
//!
//! Kernels hand every qualifying cell to a [`CellSink`] (a whole cuboid
//! at a time through `emit_cuboid`, where they write breadth-first). The
//! standard sink, [`CellBuf`], appends it to a per-cuboid columnar
//! [`CellBlock`] — no allocation per cell — so what a task leaves behind
//! is, per cuboid, one contiguous run in emission order: the paper's
//! breadth-first writing (§3.2) kept all the way to the host side.
//! `collect_cells` turns the runs of all tasks into the canonical
//! `Vec<Cell>` the public outcomes carry, and is the only place between
//! `emit` and that boundary where a [`Cell`] is built.

use crate::agg::Aggregate;
use crate::block::{sorted_order, CellBlock};
use icecube_cluster::SimNode;
use icecube_lattice::CuboidMask;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// One iceberg cell: a group-by, its key values (in ascending dimension
/// order), and the aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The cuboid (group-by) this cell belongs to.
    pub cuboid: CuboidMask,
    /// Values of the cuboid's dimensions, ascending by dimension index.
    pub key: Vec<u32>,
    /// The cell's aggregate.
    pub agg: Aggregate,
}

impl Cell {
    /// On-disk size accounting used by the simulated disk: four bytes per
    /// key value plus count and sum (the fields the paper's output format
    /// carries).
    pub fn disk_bytes(key_len: usize) -> u64 {
        (key_len * 4 + 16) as u64
    }

    /// This cell's on-disk size.
    pub fn byte_size(&self) -> u64 {
        Cell::disk_bytes(self.key.len())
    }
}

/// Receives cells as an algorithm emits them.
///
/// Disk and CPU costs are charged by the algorithms through their
/// [`SimNode`](icecube_cluster::SimNode); sinks only observe the stream
/// (collection for verification, counting for large experiment runs).
pub trait CellSink {
    /// Called once per emitted cell.
    fn emit(&mut self, cuboid: CuboidMask, key: &[u32], agg: &Aggregate);
}

/// The standard sink: counts every cell, optionally keeping them.
///
/// Experiments over the paper-sized datasets emit millions of cells, so
/// collection is opt-in. A collecting sink keeps one [`CellBlock`] per
/// cuboid it has seen, in emission order within the block.
#[derive(Debug, Default)]
pub struct CellBuf {
    /// Whether cells are retained in `blocks`.
    collect: bool,
    /// One block per cuboid seen, ascending by mask (empty when `collect`
    /// is false). Sized by the cuboids a task actually touches — never by
    /// `2^dims`, which at 20 dimensions would be a table per task.
    blocks: Vec<CellBlock>,
    /// Where the previous emit's block sits in `blocks`: breadth-first
    /// writers emit a whole cuboid in a row, so this hits almost always.
    last: usize,
    /// Number of cells observed.
    pub count: u64,
    /// Total on-disk bytes of observed cells.
    pub bytes: u64,
}

impl CellBuf {
    /// A sink that retains every cell.
    pub fn collecting() -> Self {
        CellBuf {
            collect: true,
            ..CellBuf::default()
        }
    }

    /// A sink that only counts.
    pub fn counting() -> Self {
        CellBuf::default()
    }

    /// The retained cells as they were emitted: one block per cuboid,
    /// ascending by mask, each in emission order.
    pub fn blocks(&self) -> &[CellBlock] {
        &self.blocks
    }

    /// Moves the retained cells out, in canonical order (by cuboid, then
    /// key; a cell emitted twice comes out twice).
    pub fn into_cells(self) -> Vec<Cell> {
        collect_cells([self])
    }

    /// Moves the retained blocks out, ascending by mask, each sorted by
    /// key with equal keys kept side by side — the delta side of
    /// `CubeStore::merge_blocks`.
    pub(crate) fn into_sorted_blocks(self) -> Vec<CellBlock> {
        self.blocks.into_iter().map(CellBlock::sorted).collect()
    }

    /// The block for `cuboid`, created on first sight.
    fn block_mut(&mut self, cuboid: CuboidMask) -> Option<&mut CellBlock> {
        if self.blocks.get(self.last).map(CellBlock::cuboid) != Some(cuboid) {
            self.last = match self.blocks.binary_search_by_key(&cuboid, CellBlock::cuboid) {
                Ok(at) => at,
                Err(at) => {
                    self.blocks.insert(at, CellBlock::new(cuboid));
                    at
                }
            };
        }
        self.blocks.get_mut(self.last)
    }
}

impl CellSink for CellBuf {
    fn emit(&mut self, cuboid: CuboidMask, key: &[u32], agg: &Aggregate) {
        self.count += 1;
        self.bytes += Cell::disk_bytes(key.len());
        if self.collect {
            if let Some(block) = self.block_mut(cuboid) {
                block.push(key, *agg);
            }
        }
    }
}

impl<S: CellSink + ?Sized> CellSink for &mut S {
    fn emit(&mut self, cuboid: CuboidMask, key: &[u32], agg: &Aggregate) {
        (**self).emit(cuboid, key, agg);
    }
}

/// Writes the cells of `g` that meet `minsup` to `sink` (keys in `g`'s
/// ascending dimension order) and charges them as one contiguous write:
/// the top-down comparators, ASL and AHT write breadth-first, a finished
/// cuboid at a time. Aggregates come stored (`&Aggregate`) or streamed
/// by value, as ASL's prefix scan accumulates them.
pub(crate) fn emit_cuboid<K: AsRef<[u32]>, A: Borrow<Aggregate>, S: CellSink>(
    g: CuboidMask,
    cells: impl IntoIterator<Item = (K, A)>,
    minsup: u64,
    node: &mut SimNode,
    sink: &mut S,
) {
    let mut count = 0u64;
    for (key, agg) in cells.into_iter() {
        let agg = agg.borrow();
        if agg.meets(minsup) {
            sink.emit(g, key.as_ref(), agg);
            count += 1;
        }
    }
    if count > 0 {
        node.write_cells(
            u64::from(g.bits()),
            count * Cell::disk_bytes(g.dim_count()),
            count,
        );
    }
}

/// Turns per-task sinks — in task-id order, the only order executors are
/// allowed to return — into the canonical cell list: by cuboid, then key.
///
/// Cuboids are walked in mask order; each cuboid's runs (one per task that
/// touched it) are taken in task-id order. Where their concatenation
/// already ascends strictly — every BUC-family and skip-list kernel; only
/// AHT's bucket-order emission does not — the cells are read straight off
/// the runs. Otherwise that one cuboid's positions are sorted over the
/// flat keys ([`sorted_order`]). Equal keys are kept, never merged: a
/// kernel that emits a cell twice must still fail its oracle.
///
/// This is the public boundary (`ExecOutcome.cells`, for every parallel
/// and sequential run): `Cell`s are built here, once, in final order,
/// into a vector of exact capacity.
pub(crate) fn collect_cells(sinks: impl IntoIterator<Item = CellBuf>) -> Vec<Cell> {
    let mut runs_of: BTreeMap<CuboidMask, Vec<CellBlock>> = BTreeMap::new();
    let mut total = 0usize;
    for block in sinks.into_iter().flat_map(|sink| sink.blocks) {
        total += block.len();
        runs_of.entry(block.cuboid()).or_default().push(block);
    }
    let mut cells = Vec::with_capacity(total);
    // By value: a cuboid's runs are freed as soon as its cells exist, so
    // the blocks and the cells are never all alive together.
    for (cuboid, runs) in runs_of {
        match sorted_order(&runs) {
            None => {
                for (key, agg) in runs.iter().flat_map(CellBlock::iter) {
                    cells.push(owned_cell(cuboid, key, agg));
                }
            }
            Some(order) => {
                let at = |(r, i): (usize, usize)| runs.get(r).and_then(|run| run.cell(i));
                for (key, agg) in order.into_iter().filter_map(at) {
                    cells.push(owned_cell(cuboid, key, agg));
                }
            }
        }
    }
    cells
}

/// The one place a block's cell becomes a [`Cell`].
fn owned_cell(cuboid: CuboidMask, key: &[u32], agg: &Aggregate) -> Cell {
    Cell {
        cuboid,
        // check:allow(no-clone-hot-path): the public boundary is
        // `Vec<Cell>`, whose keys are owned; this is the one copy a
        // collected cell pays between `emit` and its caller.
        key: key.to_vec(),
        agg: *agg,
    }
}

/// Sorts cells canonically (by cuboid, then key) — the normal form used to
/// compare algorithm outputs.
pub fn sort_cells(cells: &mut [Cell]) {
    cells.sort_unstable_by(|a, b| a.cuboid.cmp(&b.cuboid).then_with(|| a.key.cmp(&b.key)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn byte_accounting() {
        assert_eq!(Cell::disk_bytes(0), 16);
        assert_eq!(Cell::disk_bytes(9), 52);
        let c = Cell {
            cuboid: CuboidMask::from_dims(&[0, 2]),
            key: vec![1, 2],
            agg: Aggregate::of(5),
        };
        assert_eq!(c.byte_size(), 24);
    }

    #[test]
    fn counting_sink_does_not_retain() {
        let emits: [(&[usize], &[u32], i64); 3] =
            [(&[0], &[1], 2), (&[1], &[3], 4), (&[0], &[0], 6)];
        let mut counting = CellBuf::counting();
        let mut collecting = CellBuf::collecting();
        for (dims, key, m) in emits {
            counting.emit(CuboidMask::from_dims(dims), key, &Aggregate::of(m));
            collecting.emit(CuboidMask::from_dims(dims), key, &Aggregate::of(m));
        }
        assert_eq!(counting.count, 3);
        assert_eq!(counting.bytes, 60);
        assert!(counting.blocks().is_empty());
        assert!(counting.into_cells().is_empty());
        // Retaining changes nothing the charges are computed from.
        assert_eq!((collecting.count, collecting.bytes), (3, 60));
        assert_eq!(collecting.into_cells().len(), 3);
    }

    #[test]
    fn collecting_sink_retains_in_order() {
        let mut s = CellBuf::collecting();
        s.emit(CuboidMask::from_dims(&[1]), &[3], &Aggregate::of(4));
        s.emit(CuboidMask::from_dims(&[0]), &[9], &Aggregate::of(2));
        s.emit(CuboidMask::from_dims(&[1]), &[1], &Aggregate::of(5));
        s.emit(CuboidMask::from_dims(&[0]), &[7], &Aggregate::of(3));
        // One block per cuboid, ascending by mask; emission order inside.
        let view: Vec<(CuboidMask, Vec<u32>)> = s
            .blocks()
            .iter()
            .map(|b| (b.cuboid(), b.flat_keys().to_vec()))
            .collect();
        assert_eq!(
            view,
            vec![
                (CuboidMask::from_dims(&[0]), vec![9, 7]),
                (CuboidMask::from_dims(&[1]), vec![3, 1]),
            ]
        );
        let sums: Vec<i64> = s.blocks()[1].aggs().iter().map(|a| a.sum).collect();
        assert_eq!(sums, vec![4, 5]);
        // Moving the cells out puts them in canonical order.
        let keys: Vec<Vec<u32>> = s.into_cells().into_iter().map(|c| c.key).collect();
        assert_eq!(keys, vec![vec![7], vec![9], vec![1], vec![3]]);
    }

    #[test]
    fn sorted_blocks_keep_duplicates_for_the_merge_to_absorb() {
        let g = CuboidMask::from_dims(&[0, 1]);
        let mut s = CellBuf::collecting();
        for (key, m) in [([2u32, 1], 1i64), ([1, 5], 2), ([2, 1], 3)] {
            s.emit(g, &key, &Aggregate::of(m));
        }
        let blocks = s.into_sorted_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].flat_keys(), &[1, 5, 2, 1, 2, 1]);
        let sums: Vec<i64> = blocks[0].aggs().iter().map(|a| a.sum).collect();
        assert_eq!(sums, vec![2, 1, 3]);
    }

    #[test]
    fn a_cell_emitted_twice_is_collected_twice() {
        // Same task or different tasks, first or last: no merging.
        let g = CuboidMask::from_dims(&[2]);
        let mut a = CellBuf::collecting();
        let mut b = CellBuf::collecting();
        a.emit(g, &[4], &Aggregate::of(1));
        a.emit(g, &[6], &Aggregate::of(2));
        b.emit(g, &[4], &Aggregate::of(1));
        b.emit(CuboidMask::ALL, &[], &Aggregate::of(9));
        b.emit(CuboidMask::ALL, &[], &Aggregate::of(9));
        let cells = collect_cells([a, CellBuf::collecting(), b]);
        let view: Vec<(u32, Vec<u32>)> = cells
            .iter()
            .map(|c| (c.cuboid.bits(), c.key.clone()))
            .collect();
        assert_eq!(
            view,
            vec![
                (0, vec![]),
                (0, vec![]),
                (0b100, vec![4]),
                (0b100, vec![4]),
                (0b100, vec![6])
            ]
        );
    }

    /// What `collect` did before blocks: concatenate, comparison-sort.
    fn concatenate_and_sort(sinks: &[Vec<Cell>]) -> Vec<Cell> {
        let mut all: Vec<Cell> = sinks.iter().flatten().cloned().collect();
        sort_cells(&mut all);
        all
    }

    /// A total order, so cells with equal `(cuboid, key)` — whose relative
    /// order an unstable sort leaves open — compare as a multiset.
    fn totally_ordered(mut cells: Vec<Cell>) -> Vec<Cell> {
        cells.sort_by(|a, b| {
            (a.cuboid, &a.key, a.agg.count, a.agg.sum).cmp(&(
                b.cuboid,
                &b.key,
                b.agg.count,
                b.agg.sum,
            ))
        });
        cells
    }

    proptest! {
        #[test]
        fn collect_matches_concatenate_and_sort(
            raw in proptest::collection::vec(
                (0usize..8, 0u32..16, proptest::collection::vec(0u32..5, 4), 1i64..4),
                0..120,
            ),
            sinks in 1usize..=8,
            ordered in 0u32..3,
            duplicate in 0usize..4,
        ) {
            // Well-formed cells over 4 dimensions, apex (mask 0, empty
            // key) included; the key is the mask's projection of `vals`.
            let mut cells: Vec<(usize, Cell)> = raw
                .into_iter()
                .map(|(sink, bits, vals, m)| {
                    let cuboid = CuboidMask::from_bits(bits);
                    let key = cuboid.iter_dims().map(|d| vals[d]).collect();
                    (sink % sinks, Cell { cuboid, key, agg: Aggregate::of(m) })
                })
                .collect();
            match ordered {
                // Dealt arbitrarily: cuboids interleave within a sink,
                // runs are unsorted and their key ranges overlap.
                0 => {}
                // Each sink's runs sorted, ranges still overlapping.
                1 => cells.sort_by(|a, b| (a.0, a.1.cuboid, &a.1.key).cmp(&(b.0, b.1.cuboid, &b.1.key))),
                // Globally sorted and dealt in contiguous stretches: the
                // concatenation needs no sort (unless keys repeat).
                _ => {
                    cells.sort_by(|a, b| (a.1.cuboid, &a.1.key).cmp(&(b.1.cuboid, &b.1.key)));
                    let n = cells.len().max(1);
                    for (i, c) in cells.iter_mut().enumerate() {
                        c.0 = i * sinks / n;
                    }
                }
            }
            // A cell emitted twice (by the last sink) must come out twice.
            let twice = cells.get(duplicate).map(|(_, c)| c.clone());
            if let Some(c) = &twice {
                cells.push((sinks - 1, c.clone()));
            }
            let mut emitted: Vec<Vec<Cell>> = vec![Vec::new(); sinks];
            let mut bufs: Vec<CellBuf> = (0..sinks).map(|_| CellBuf::collecting()).collect();
            for (sink, c) in cells {
                bufs[sink].emit(c.cuboid, &c.key, &c.agg);
                emitted[sink].push(c);
            }
            let got = collect_cells(bufs);
            let want = concatenate_and_sort(&emitted);
            prop_assert_eq!(got.len(), want.len());
            prop_assert!(got
                .windows(2)
                .all(|w| (w[0].cuboid, &w[0].key) <= (w[1].cuboid, &w[1].key)));
            if let Some(c) = twice {
                prop_assert!(got.iter().filter(|g| **g == c).count() >= 2);
            }
            prop_assert_eq!(totally_ordered(got), totally_ordered(want));
        }
    }

    #[test]
    fn sort_orders_by_cuboid_then_key() {
        let mk = |dims: &[usize], key: &[u32]| Cell {
            cuboid: CuboidMask::from_dims(dims),
            key: key.to_vec(),
            agg: Aggregate::of(1),
        };
        let mut cells = vec![mk(&[1], &[5]), mk(&[0], &[9]), mk(&[0], &[2])];
        sort_cells(&mut cells);
        assert_eq!(cells[0].key, vec![2]);
        assert_eq!(cells[1].key, vec![9]);
        assert_eq!(cells[2].key, vec![5]);
    }
}
