//! A [`CubeStore`] with a logical N-way range partition over its keys.
//!
//! The cells stay where the store already keeps them — one flat, sorted
//! key arena per cuboid, shared with the store by reference count rather
//! than copied — and sharding adds only a routing table: every
//! cuboid is split independently at even key quantiles (via
//! [`CubeStore::split_points`], the same convention
//! `icecube-core::partition` and POL's `Boundaries` use: range `j` owns
//! keys `k` with `splits[j-1] <= k < splits[j]`). [`ShardedCube::shard_of`]
//! is therefore deterministic and shared by writer and reader, and it is
//! what the per-shard routing counters and the balance readout are
//! computed from. Reads validate the request and delegate straight to the
//! store: a materialized, sorted view is reused in place rather than
//! re-derived per shard, so every answer is the unsharded answer by
//! construction, at any shard count.

use crate::request::RequestError;
use icecube_core::{Aggregate, CubeStore};
use icecube_lattice::CuboidMask;
use std::collections::HashMap;

/// A cube store plus the split keys that range-partition each of its
/// cuboids into `shard_count` logical shards.
#[derive(Debug, Clone)]
pub struct ShardedCube {
    store: CubeStore,
    shard_count: usize,
    /// Per-cuboid split keys (at most `shard_count - 1` each, ascending).
    routes: HashMap<CuboidMask, Vec<Vec<u32>>>,
}

impl ShardedCube {
    /// Range-partitions `store` into `shard_count` logical shards: a clone
    /// of the store, which shares its immutable cuboid blocks rather than
    /// copying cells, plus the split keys of every cuboid. Zero shards is
    /// treated as one, as [`CubeStore::split_points`] does.
    pub fn new(store: &CubeStore, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let routes = store
            .cuboid_masks()
            .into_iter()
            .map(|mask| (mask, store.split_points(mask, shard_count)))
            .collect();
        ShardedCube {
            store: store.clone(),
            shard_count,
            routes,
        }
    }

    /// Number of cube dimensions.
    pub fn dims(&self) -> usize {
        self.store.dims()
    }

    /// The minimum support the source cube was computed at.
    pub fn minsup(&self) -> u64 {
        self.store.minsup()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Total cells across shards.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the cube held no qualifying cells.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Cells owned per shard (the sharding balance experiments plot
    /// this), counted on demand: one walk per cuboid over its sorted
    /// keys, stepping to the next shard each time a split key is passed.
    pub fn shard_cell_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shard_count];
        for (&mask, splits) in &self.routes {
            let mut shard = 0;
            for (key, _) in self.store.cells_of(mask) {
                while splits.get(shard).is_some_and(|sp| sp.as_slice() <= key) {
                    shard += 1;
                }
                if let Some(n) = counts.get_mut(shard) {
                    *n += 1;
                }
            }
        }
        counts
    }

    /// Cuboids the source store materialized, ascending.
    pub fn materialized_cuboids(&self) -> Vec<CuboidMask> {
        self.store.cuboid_masks()
    }

    /// Whether the source store materialized cuboid `g`.
    pub fn has_cuboid(&self, g: CuboidMask) -> bool {
        self.store.has_cuboid(g)
    }

    /// The shard owning `key` within cuboid `g` — the deterministic routing
    /// step point lookups are accounted to.
    pub fn shard_of(&self, g: CuboidMask, key: &[u32]) -> usize {
        match self.routes.get(&g) {
            Some(splits) => splits.partition_point(|sp| sp.as_slice() <= key),
            // Unmaterialized cuboids have no cells anywhere; route to 0 so
            // lookups still resolve (to "absent") without a special case.
            None => 0,
        }
    }

    fn check_dim(&self, dim: usize) -> Result<(), RequestError> {
        if dim >= self.dims() {
            return Err(RequestError::UnknownDimension {
                dim,
                dims: self.dims(),
            });
        }
        Ok(())
    }

    fn check_cuboid(&self, g: CuboidMask) -> Result<(), RequestError> {
        if let Some(max) = g.max_dim() {
            self.check_dim(max)?;
        }
        Ok(())
    }

    fn check_key(&self, g: CuboidMask, key: &[u32]) -> Result<(), RequestError> {
        if key.len() != g.dim_count() {
            return Err(RequestError::KeyArityMismatch {
                expected: g.dim_count(),
                got: key.len(),
            });
        }
        Ok(())
    }

    /// Point lookup: one binary search in the cuboid's sorted keys.
    pub fn get(&self, g: CuboidMask, key: &[u32]) -> Result<Option<Aggregate>, RequestError> {
        self.check_cuboid(g)?;
        self.check_key(g, key)?;
        Ok(self.store.get(g, key).copied())
    }

    /// All qualifying cells of one group-by at threshold `minsup`, in
    /// ascending key order (which is shard order).
    pub fn query(
        &self,
        g: CuboidMask,
        minsup: u64,
    ) -> Result<Vec<(Vec<u32>, Aggregate)>, RequestError> {
        self.check_cuboid(g)?;
        Ok(self.store.query(g, minsup)?)
    }

    /// Slice: cells of `g` whose value on `dim` equals `value`, in
    /// ascending key order.
    pub fn slice(
        &self,
        g: CuboidMask,
        dim: usize,
        value: u32,
    ) -> Result<Vec<(Vec<u32>, Aggregate)>, RequestError> {
        self.check_cuboid(g)?;
        self.check_dim(dim)?;
        Ok(self.store.slice(g, dim, value)?)
    }

    /// Drill-down: the refinements of `(g, key)` in the finer cuboid
    /// `g ∪ {dim}`, in ascending key order.
    pub fn drill_down(
        &self,
        g: CuboidMask,
        key: &[u32],
        dim: usize,
    ) -> Result<Vec<(Vec<u32>, Aggregate)>, RequestError> {
        self.check_cuboid(g)?;
        self.check_dim(dim)?;
        if g.contains(dim) {
            return Err(RequestError::DimensionAlreadyInCuboid { dim });
        }
        self.check_key(g, key)?;
        Ok(self.store.drill_down(g, key, dim)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icecube_cluster::ClusterConfig;
    use icecube_core::fixtures::sales;
    use icecube_core::{run_parallel, Algorithm, IcebergQuery};

    fn store(minsup: u64) -> CubeStore {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, minsup);
        let out = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(2)).unwrap();
        CubeStore::from_outcome(3, minsup, out)
    }

    #[test]
    fn sharding_preserves_every_cell() {
        let s = store(1);
        // Zero shards is one shard, as `CubeStore::split_points` has it.
        for n in [0, 1, 2, 3, 8] {
            let sharded = ShardedCube::new(&s, n);
            assert_eq!(sharded.shard_count(), n.max(1));
            assert_eq!(sharded.len(), s.len(), "{n} shards");
            assert_eq!(sharded.shard_cell_counts().iter().sum::<usize>(), s.len());
        }
    }

    #[test]
    fn point_lookups_route_to_one_shard_and_agree() {
        let s = store(1);
        let sharded = ShardedCube::new(&s, 3);
        for cell in s.iter() {
            let shard = sharded.shard_of(cell.cuboid, &cell.key);
            assert!(shard < 3);
            assert_eq!(sharded.get(cell.cuboid, &cell.key).unwrap(), Some(cell.agg));
        }
    }

    #[test]
    fn fanout_order_matches_unsharded() {
        let s = store(1);
        let g = CuboidMask::from_dims(&[0, 1]);
        for n in [1, 2, 3, 8] {
            let sharded = ShardedCube::new(&s, n);
            assert_eq!(sharded.query(g, 1).unwrap(), s.query(g, 1).unwrap());
            assert_eq!(sharded.slice(g, 1, 2).unwrap(), s.slice(g, 1, 2).unwrap());
            assert_eq!(
                sharded
                    .drill_down(CuboidMask::from_dims(&[0]), &[0], 1)
                    .unwrap(),
                s.drill_down(CuboidMask::from_dims(&[0]), &[0], 1).unwrap()
            );
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let sharded = ShardedCube::new(&store(2), 2);
        let g = CuboidMask::from_dims(&[0, 1]);
        assert_eq!(
            sharded.get(CuboidMask::from_dims(&[9]), &[0]),
            Err(RequestError::UnknownDimension { dim: 9, dims: 3 })
        );
        assert_eq!(
            sharded.get(g, &[0]),
            Err(RequestError::KeyArityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            sharded.query(g, 1),
            Err(RequestError::ThresholdTooLow {
                stored: 2,
                requested: 1
            })
        );
        assert_eq!(
            sharded.slice(g, 2, 0),
            Err(RequestError::DimensionNotInCuboid { dim: 2 })
        );
        assert_eq!(
            sharded.drill_down(g, &[0, 2], 1),
            Err(RequestError::DimensionAlreadyInCuboid { dim: 1 })
        );
    }

    #[test]
    fn absent_cuboids_answer_empty_not_error() {
        // A store materializing only one cuboid still answers queries
        // against the others (empty / None), which the roll-up planner's
        // fallback path relies on.
        let s = store(1);
        let only: Vec<icecube_core::Cell> = s
            .iter()
            .filter(|c| c.cuboid == CuboidMask::from_dims(&[0, 1]))
            .collect();
        let partial = CubeStore::from_cells(3, 1, only);
        let sharded = ShardedCube::new(&partial, 4);
        let absent = CuboidMask::from_dims(&[0]);
        assert!(!sharded.has_cuboid(absent));
        assert_eq!(sharded.get(absent, &[0]).unwrap(), None);
        assert!(sharded.query(absent, 1).unwrap().is_empty());
    }
}
