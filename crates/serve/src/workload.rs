//! Deterministic load generation: a seeded analyst "navigation walk" over
//! a real cube.
//!
//! The walk mirrors Section 2.1's workflow — mostly point lookups with
//! interleaved slices, roll-ups, drill-downs, full-cuboid scans and small
//! pipelined batches — but every choice comes from a seeded PRNG over the
//! cube's *actual* cells, so the same `(store, count, seed)` always yields
//! the same request stream. That determinism is what lets the wall-clock
//! benchmark and the serving oracle suite replay identical workloads.

// check:allow-file(panic-path): slice indexing and asserts in this
// module guard simulation-internal invariants over indices the module
// itself constructs; a violation is a bug, not runtime input. Tracked
// by the panic-path triage note in DESIGN section 12.

use crate::request::Request;
use icecube_core::CubeStore;
use icecube_lattice::CuboidMask;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A pre-generated, deterministic stream of navigation requests.
#[derive(Debug, Clone)]
pub struct NavigationWorkload {
    /// The request stream, in submission order.
    pub requests: Vec<Request>,
}

impl NavigationWorkload {
    /// Generates `count` requests over the cells `store` actually holds.
    /// Same `(store, count, seed)` → same stream.
    /// # Panics
    /// Panics if `store` holds no cells (there is nothing to navigate).
    pub fn generate(store: &CubeStore, count: usize, seed: u64) -> Self {
        // check:allow(panic-in-lib): documented precondition of a
        // test/bench harness entry point — an empty cube has no cells to
        // walk, and returning an empty stream would silently void every
        // experiment that asked for `count` requests.
        assert!(!store.is_empty(), "cannot navigate an empty cube");
        let mut rng = SmallRng::seed_from_u64(seed);
        let masks = store.cuboid_masks();
        let keys: Vec<Vec<Vec<u32>>> = masks
            .iter()
            .map(|&g| store.cells_of(g).map(|(k, _)| k.to_vec()).collect())
            .collect();
        let mut gen = Generator {
            store,
            masks,
            keys,
            rng: &mut rng,
        };
        let requests = (0..count).map(|_| gen.step(true)).collect();
        NavigationWorkload { requests }
    }

    /// Total leaf requests in the stream (batch members count).
    pub fn leaf_count(&self) -> usize {
        self.requests.iter().map(Request::leaf_count).sum()
    }
}

struct Generator<'a> {
    store: &'a CubeStore,
    masks: Vec<CuboidMask>,
    keys: Vec<Vec<Vec<u32>>>,
    rng: &'a mut SmallRng,
}

impl Generator<'_> {
    /// Picks a random materialized cell: (cuboid, key).
    fn cell(&mut self) -> (CuboidMask, Vec<u32>) {
        loop {
            let m = self.rng.gen_range(0..self.masks.len());
            if let Some(key) = pick(self.rng, &self.keys[m]) {
                return (self.masks[m], key.clone());
            }
        }
    }

    fn step(&mut self, allow_batch: bool) -> Request {
        let (cuboid, key) = self.cell();
        match self.rng.gen_range(0..100u32) {
            // Point lookups dominate an analyst session.
            0..=34 => Request::Point { cuboid, key },
            35..=54 => {
                let dims: Vec<usize> = cuboid.iter_dims().collect();
                // Stored cuboids always have at least one dimension; fall
                // back to a point lookup rather than panicking if not.
                match pick(self.rng, &dims).copied() {
                    Some(dim) => match dims.iter().position(|&d| d == dim) {
                        Some(pos) => Request::Slice {
                            cuboid,
                            dim,
                            value: key[pos],
                        },
                        None => Request::Point { cuboid, key },
                    },
                    None => Request::Point { cuboid, key },
                }
            }
            55..=69 => {
                let dims: Vec<usize> = cuboid.iter_dims().collect();
                match pick(self.rng, &dims).copied() {
                    Some(dim) => Request::RollUp { cuboid, key, dim },
                    None => Request::Point { cuboid, key },
                }
            }
            70..=79 => {
                let absent: Vec<usize> = (0..self.store.dims())
                    .filter(|&d| !cuboid.contains(d))
                    .collect();
                match pick(self.rng, &absent) {
                    Some(&dim) => Request::DrillDown { cuboid, key, dim },
                    // Finest cuboid: nothing to drill into, look up instead.
                    None => Request::Point { cuboid, key },
                }
            }
            80..=89 => Request::Cuboid {
                cuboid,
                minsup: self.store.minsup(),
            },
            _ if allow_batch => {
                let n = self.rng.gen_range(2..5usize);
                Request::Batch((0..n).map(|_| self.step(false)).collect())
            }
            _ => Request::Point { cuboid, key },
        }
    }
}

fn pick<'s, T>(rng: &mut SmallRng, items: &'s [T]) -> Option<&'s T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Response;
    use crate::server::CubeServer;
    use crate::shard::ShardedCube;
    use icecube_cluster::ClusterConfig;
    use icecube_core::fixtures::sales;
    use icecube_core::{run_parallel, Algorithm, IcebergQuery};

    fn store() -> CubeStore {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let out = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(2)).unwrap();
        CubeStore::from_outcome(3, 1, out)
    }

    #[test]
    fn same_seed_same_stream() {
        let s = store();
        let a = NavigationWorkload::generate(&s, 64, 7);
        let b = NavigationWorkload::generate(&s, 64, 7);
        assert_eq!(a.requests, b.requests);
        let c = NavigationWorkload::generate(&s, 64, 8);
        assert_ne!(a.requests, c.requests, "different seeds diverge");
        assert!(a.leaf_count() >= 64);
    }

    #[test]
    fn walk_mixes_request_kinds() {
        let s = store();
        let w = NavigationWorkload::generate(&s, 256, 42);
        let mut kinds = [0usize; 6];
        fn tally(req: &Request, kinds: &mut [usize; 6]) {
            match req {
                Request::Point { .. } => kinds[0] += 1,
                Request::Slice { .. } => kinds[1] += 1,
                Request::RollUp { .. } => kinds[2] += 1,
                Request::DrillDown { .. } => kinds[3] += 1,
                Request::Cuboid { .. } => kinds[4] += 1,
                Request::EstimatePoint { .. } | Request::EstimateCuboid { .. } => {
                    panic!("navigation workloads never generate estimates")
                }
                Request::Batch(rs) => {
                    kinds[5] += 1;
                    rs.iter().for_each(|r| tally(r, kinds));
                }
            }
        }
        w.requests.iter().for_each(|r| tally(r, &mut kinds));
        assert!(kinds.iter().all(|&k| k > 0), "all kinds present: {kinds:?}");
    }

    /// One closed-loop client replays a walk over real cells: every leaf
    /// is answered and none errs.
    #[test]
    fn closed_loop_answers_everything() {
        let s = store();
        let w = NavigationWorkload::generate(&s, 40, 3);
        let server = CubeServer::start(ShardedCube::new(&s, 2), 2).expect("workers > 0");
        let handle = server.handle().expect("server is running");
        for req in &w.requests {
            let resp = handle.call(req.clone()).expect("server stays up");
            assert!(!matches!(resp, Response::Error(_)), "{req:?} -> {resp:?}");
        }
        let stats = server.stats();
        assert_eq!(stats.requests, w.leaf_count() as u64);
        assert_eq!(stats.errors, 0);
        assert!(stats.p99_ns >= stats.p50_ns);
    }
}
