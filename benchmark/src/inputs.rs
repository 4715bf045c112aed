//! Set-up: everything a run needs before its first timed region — the
//! seeded relation, the sequential-BUC oracle, the request streams and the
//! reference answers they will be checked against.

use crate::stats::SplitMix;
use crate::verify::{cells_digest, expected_answer, Digest, Expected};
use crate::workload::Workload;
use icecube_cluster::ClusterConfig;
use icecube_core::{run_sequential, Aggregate, CubeStore, IcebergQuery, SeqAlgorithm};
use icecube_data::Relation;
use icecube_lattice::CuboidMask;
use icecube_serve::{NavigationWorkload, Request};
use std::time::Instant;

/// Navigation requests replayed against the unsharded reference store.
pub const REPLAY: usize = 2_000;

pub struct Inputs {
    /// Every generated row: the served relation, then (or overlapping it)
    /// the live base and its delta rows.
    pub relation: Relation,
    /// The rows built into the served cube.
    pub main: Relation,
    /// The rows the maintained and progressive cubes start from.
    pub live_base: Relation,
    /// Digest and count of the oracle's sorted cells over `main`.
    pub oracle: Digest,
    pub cells: u64,
    /// Seeded point requests, uniform over the oracle's cells, with the
    /// aggregate each must return.
    pub points: Vec<Request>,
    pub point_answers: Vec<Aggregate>,
    pub nav: NavigationWorkload,
    /// Reference answers to the first [`REPLAY`] navigation requests.
    pub nav_expected: Vec<Expected>,
    /// Seconds `SyntheticSpec::generate` took (a layer of set-up).
    pub generate_s: f64,
}

/// Builds the inputs of one run from its seed. With `corrupt_oracle` one
/// oracle cell is altered first, which every build must then fail against.
pub fn set_up(w: &Workload, seed: u64, corrupt_oracle: bool) -> Inputs {
    let start = Instant::now();
    let relation = w
        .relation_spec(seed)
        .generate()
        .expect("workload specs are valid");
    let generate_s = start.elapsed().as_secs_f64();
    let main = relation.slice(0, w.tuples);
    let live_base = relation.slice(0, w.live_base);

    let query = IcebergQuery::count_cube(main.arity(), w.minsup);
    let mut cells = run_sequential(
        SeqAlgorithm::Buc,
        &main,
        &query,
        &ClusterConfig::fast_ethernet(1),
    )
    .expect("the oracle runs on valid input")
    .cells;
    assert!(!cells.is_empty(), "workloads are sized to have cells");
    if corrupt_oracle {
        cells[0].agg.count += 1;
    }
    let oracle = cells_digest(&cells);
    let count = cells.len() as u64;
    let store = CubeStore::from_cells(main.arity(), w.minsup, cells);

    let (points, point_answers) = point_stream(&store, w.points, seed ^ 0x504f_494e_5453);
    let nav = NavigationWorkload::generate(&store, w.nav_requests, seed.wrapping_add(1));
    let nav_expected = nav
        .requests
        .iter()
        .take(REPLAY)
        .map(|r| expected_answer(&store, r))
        .collect();
    Inputs {
        relation,
        main,
        live_base,
        oracle,
        cells: count,
        points,
        point_answers,
        nav,
        nav_expected,
        generate_s,
    }
}

/// `n` point requests drawn uniformly over the store's cells, in seeded
/// order, each with the aggregate stored for it.
fn point_stream(store: &CubeStore, n: usize, seed: u64) -> (Vec<Request>, Vec<Aggregate>) {
    let total = store.len() as u64;
    let mut rng = SplitMix(seed);
    // (cell index in store order, position in the stream), walked in one
    // pass over the store instead of materialising every key.
    let mut picks: Vec<(u64, usize)> = (0..n).map(|pos| (rng.below(total), pos)).collect();
    picks.sort_unstable();
    let mut slots: Vec<Option<(CuboidMask, Vec<u32>, Aggregate)>> = vec![None; n];
    let mut next = 0;
    let mut offset = 0u64;
    for mask in store.cuboid_masks() {
        for (i, (key, agg)) in store.cells_of(mask).enumerate() {
            while next < picks.len() && picks[next].0 == offset + i as u64 {
                slots[picks[next].1] = Some((mask, key.to_vec(), agg));
                next += 1;
            }
        }
        offset += store.cuboid_len(mask) as u64;
    }
    slots
        .into_iter()
        .map(|s| {
            let (cuboid, key, agg) = s.expect("every pick indexes a stored cell");
            (Request::Point { cuboid, key }, agg)
        })
        .unzip()
}
