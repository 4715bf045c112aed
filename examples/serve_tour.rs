//! A tour of `icecube-serve`: shard a precomputed iceberg cube, start a
//! worker pool, navigate it through typed requests, replay a seeded
//! navigation walk, and read the latency histogram back.
//!
//! ```text
//! cargo run --example serve_tour
//! ```

use icecube::cluster::ClusterConfig;
use icecube::core::{run_parallel, Algorithm, CubeStore, IcebergQuery};
use icecube::data::SyntheticSpec;
use icecube::lattice::CuboidMask;
use icecube::serve::{CubeServer, NavigationWorkload, Request, Response, ShardedCube};

fn main() {
    // Precompute an iceberg cube once (PT over 4 simulated nodes)…
    let rel = SyntheticSpec::uniform(20_000, vec![10, 8, 6, 4], 7)
        .generate()
        .expect("valid spec");
    let query = IcebergQuery::count_cube(rel.arity(), 1);
    let outcome = run_parallel(
        Algorithm::Pt,
        &rel,
        &query,
        &ClusterConfig::fast_ethernet(4),
    )
    .expect("valid query");
    let store = CubeStore::from_outcome(rel.arity(), 1, outcome);

    // …then range-partition it into 4 logical shards (the store's cuboid
    // blocks, shared, plus split keys) and start 4 workers over it.
    let sharded = ShardedCube::new(&store, 4);
    println!(
        "sharded cube: {} cells over {} cuboids, per shard {:?}",
        sharded.len(),
        sharded.materialized_cuboids().len(),
        sharded.shard_cell_counts()
    );
    let server = CubeServer::start(sharded, 4).expect("worker pool starts");
    let handle = server.handle().expect("server is running");
    let ask = |req| handle.call(req).expect("server is running");

    // A point lookup is accounted to exactly one shard.
    let g = CuboidMask::from_dims(&[0, 1]);
    if let Response::Point(agg) = ask(Request::Point {
        cuboid: g,
        key: vec![0, 0],
    }) {
        println!("point (0,0) over {g}: {agg:?}");
    }

    // A slice covers every shard's key range, in key order.
    if let Response::Cells(cells) = ask(Request::Slice {
        cuboid: g,
        dim: 1,
        value: 3,
    }) {
        println!("slice dim1=3 over {g}: {} cells", cells.len());
    }

    // Roll-ups report which plan answered them.
    if let Response::RolledUp { cell, plan, exact } = ask(Request::RollUp {
        cuboid: g,
        key: vec![0, 3],
        dim: 1,
    }) {
        println!("roll-up (0,3) minus dim1: {cell:?} via {plan:?} (exact: {exact})");
    }

    // Malformed requests come back as typed errors, not panics.
    if let Response::Error(e) = ask(Request::Point {
        cuboid: g,
        key: vec![0],
    }) {
        println!("malformed request answered with: {e}");
    }

    // Replay a deterministic navigation workload through the same handle.
    let workload = NavigationWorkload::generate(&store, 2_000, 42);
    println!("\nworkload: {} leaf requests", workload.leaf_count());
    for req in workload.requests {
        ask(req);
    }
    let s = server.stats();
    println!(
        "served: {} leaf requests, the probes above included",
        s.requests
    );
    println!(
        "latency: mean {:.1} us, p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
        s.mean_ns as f64 / 1e3,
        s.p50_ns as f64 / 1e3,
        s.p95_ns as f64 / 1e3,
        s.p99_ns as f64 / 1e3
    );
    println!(
        "plans: {} roll-ups from stored cuboids, {} aggregated on the fly; errors: {}",
        s.rollup_stored, s.rollup_aggregated, s.errors
    );
    println!("per-shard routed lookups: {:?}", s.shard_routed);
}
