//! Cube cells and cell sinks.

use crate::agg::Aggregate;
use icecube_lattice::CuboidMask;

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
/// collection is opt-in.
#[derive(Debug, Default)]
pub struct CellBuf {
    /// Whether cells are retained in `cells`.
    pub collect: bool,
    /// Retained cells (empty when `collect` is false).
    pub cells: Vec<Cell>,
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

    /// Moves the retained cells out.
    pub fn into_cells(self) -> Vec<Cell> {
        self.cells
    }
}

impl CellSink for CellBuf {
    fn emit(&mut self, cuboid: CuboidMask, key: &[u32], agg: &Aggregate) {
        self.count += 1;
        self.bytes += Cell::disk_bytes(key.len());
        if self.collect {
            self.cells.push(Cell {
                cuboid,
                key: key.to_vec(),
                agg: *agg,
            });
        }
    }
}

impl<S: CellSink + ?Sized> CellSink for &mut S {
    fn emit(&mut self, cuboid: CuboidMask, key: &[u32], agg: &Aggregate) {
        (**self).emit(cuboid, key, agg);
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
        let mut s = CellBuf::counting();
        s.emit(CuboidMask::from_dims(&[0]), &[1], &Aggregate::of(2));
        s.emit(CuboidMask::from_dims(&[1]), &[3], &Aggregate::of(4));
        assert_eq!(s.count, 2);
        assert_eq!(s.bytes, 40);
        assert!(s.cells.is_empty());
    }

    #[test]
    fn collecting_sink_retains_in_order() {
        let mut s = CellBuf::collecting();
        s.emit(CuboidMask::from_dims(&[1]), &[3], &Aggregate::of(4));
        s.emit(CuboidMask::from_dims(&[0]), &[1], &Aggregate::of(2));
        assert_eq!(s.cells.len(), 2);
        assert_eq!(s.cells[0].key, vec![3]);
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
