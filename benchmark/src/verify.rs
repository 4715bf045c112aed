//! The correctness oracle's comparisons.
//!
//! Cubes are compared by a digest of their cells in canonical order, not
//! by keeping a second copy: a reference held in memory through the timed
//! regions would sit in `peak_rss_mb` and in every cache.

use icecube_core::{Aggregate, Cell, CubeStore};
use icecube_lattice::CuboidMask;
use icecube_serve::{Request, Response};

/// Length and FNV-1a hash of a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: u64,
    pub hash: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            len: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.len += bytes.len() as u64;
    }
}

/// Digest of sorted cells: what a build returns, before it is a store.
pub fn cells_digest(cells: &[Cell]) -> Digest {
    let mut d = Digest::new();
    for c in cells {
        feed_cell(&mut d, c.cuboid, &c.key, &c.agg);
    }
    d
}

/// The same digest taken over a store's cells in its own order (cuboid
/// mask, then key — the canonical order builds return), so a store can be
/// held to a build's oracle and two stores to each other.
pub fn store_digest(store: &CubeStore) -> Digest {
    let mut d = Digest::new();
    for mask in store.cuboid_masks() {
        for (key, agg) in store.cells_of(mask) {
            feed_cell(&mut d, mask, key, &agg);
        }
    }
    d
}

fn feed_cell(d: &mut Digest, cuboid: CuboidMask, key: &[u32], agg: &Aggregate) {
    d.feed(&cuboid.bits().to_le_bytes());
    for k in key {
        d.feed(&k.to_le_bytes());
    }
    feed_agg(d, agg);
}

fn feed_agg(d: &mut Digest, a: &Aggregate) {
    d.feed(&a.count.to_le_bytes());
    d.feed(&a.sum.to_le_bytes());
    d.feed(&a.min.to_le_bytes());
    d.feed(&a.max.to_le_bytes());
}

fn rows_digest(rows: &[(Vec<u32>, Aggregate)]) -> Digest {
    let mut d = Digest::new();
    for (key, agg) in rows {
        for k in key {
            d.feed(&k.to_le_bytes());
        }
        feed_agg(&mut d, agg);
    }
    d
}

/// What the unsharded reference store answers to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    Point(Option<Aggregate>),
    /// Digest of the cells, in the store's order.
    Cells(Digest),
    RolledUp(Option<(Vec<u32>, Aggregate)>),
    Batch(Vec<Expected>),
    /// The reference store refuses the request.
    Refused,
}

/// Answers `req` from the unsharded store with its own navigation calls.
pub fn expected_answer(store: &CubeStore, req: &Request) -> Expected {
    let cells = |r: Result<Vec<(Vec<u32>, Aggregate)>, _>| match r {
        Ok(rows) => Expected::Cells(rows_digest(&rows)),
        Err(_) => Expected::Refused,
    };
    match req {
        Request::Point { cuboid, key } => Expected::Point(store.get(*cuboid, key).copied()),
        Request::Slice { cuboid, dim, value } => cells(store.slice(*cuboid, *dim, *value)),
        Request::DrillDown { cuboid, key, dim } => cells(store.drill_down(*cuboid, key, *dim)),
        Request::Cuboid { cuboid, minsup } => cells(store.query(*cuboid, *minsup)),
        Request::RollUp { cuboid, key, dim } => match store.roll_up(*cuboid, key, *dim) {
            Ok(cell) => Expected::RolledUp(cell),
            Err(_) => Expected::Refused,
        },
        Request::Batch(reqs) => {
            Expected::Batch(reqs.iter().map(|r| expected_answer(store, r)).collect())
        }
        Request::EstimatePoint { .. } | Request::EstimateCuboid { .. } => Expected::Refused,
    }
}

/// Whether the server's response is the reference answer.
pub fn answers_match(expected: &Expected, response: &Response) -> bool {
    match (expected, response) {
        (Expected::Point(want), Response::Point(got)) => want == got,
        (Expected::Cells(want), Response::Cells(rows)) => *want == rows_digest(rows),
        (Expected::RolledUp(want), Response::RolledUp { cell, .. }) => want == cell,
        (Expected::Batch(want), Response::Batch(got)) => {
            want.len() == got.len() && want.iter().zip(got).all(|(w, g)| answers_match(w, g))
        }
        (Expected::Refused, Response::Error(_)) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_changed_cell_changes_the_digest() {
        let cell = |k: u32, count: u64| Cell {
            cuboid: CuboidMask::from_dims(&[0]),
            key: vec![k],
            agg: Aggregate {
                count,
                sum: 5,
                min: 1,
                max: 4,
            },
        };
        let a = vec![cell(0, 2), cell(1, 3)];
        let b = vec![cell(0, 2), cell(1, 4)];
        assert_eq!(cells_digest(&a), cells_digest(&a.clone()));
        assert_ne!(cells_digest(&a), cells_digest(&b));
        let sa = CubeStore::from_cells(1, 1, a.clone());
        let sb = CubeStore::from_cells(1, 1, b);
        assert_eq!(store_digest(&sa), cells_digest(&a));
        assert_ne!(store_digest(&sa), store_digest(&sb));
    }
}
