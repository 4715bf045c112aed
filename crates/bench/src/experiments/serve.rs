//! The `serve` experiment: closed-loop throughput and latency of the
//! sharded cube-serving engine.
//!
//! A cube is precomputed once from a seeded synthetic relation, then the
//! same deterministic navigation workload (same seed → same request
//! stream) is replayed against servers with varying shard and worker
//! counts. Real wall-clock throughput and latency quantiles go into the
//! table; the request stream, cube contents and per-plan counters are
//! bit-for-bit reproducible across runs.

use crate::report::{f2, Report, Table};
use crate::Ctx;
use icecube_cluster::ClusterConfig;
use icecube_core::{run_parallel, Algorithm, CubeStore, IcebergQuery};
use icecube_data::SyntheticSpec;
use icecube_serve::{run_closed_loop, CubeServer, NavigationWorkload, ShardedCube};

/// Workload seed; fixed so every run replays the identical stream.
const SEED: u64 = 0x1ceb_e265;

/// Closed-loop serving throughput while sweeping workers (at 4 shards)
/// and shards (at 4 workers).
pub fn serve(ctx: &Ctx) -> Report {
    let tuples = ctx.tuples(50_000);
    let rel = SyntheticSpec::uniform(tuples, vec![12, 10, 8, 6], 42)
        .generate()
        .expect("uniform spec is valid");
    // minsup 1 keeps every cell, so roll-up fallbacks stay exact and the
    // workload can navigate anywhere.
    let q = IcebergQuery::count_cube(rel.arity(), 1);
    let out = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(4))
        .expect("serve cube configuration is valid");
    let store = CubeStore::from_outcome(rel.arity(), 1, out);

    let requests = ((4000.0 * ctx.scale) as usize).max(256);
    let workload = NavigationWorkload::generate(&store, requests, SEED);

    let mut t = Table::new([
        "shards",
        "workers",
        "clients",
        "requests",
        "throughput_rps",
        "mean_us",
        "p50_us",
        "p95_us",
        "p99_us",
        "rollup_stored",
        "rollup_aggregated",
    ]);
    let us = |ns: u64| f2(ns as f64 / 1e3);
    let sweep = |shards: usize, workers: usize, clients: usize, t: &mut Table| -> f64 {
        let server = CubeServer::start(ShardedCube::new(&store, shards), workers)
            .expect("worker pool starts");
        let report = run_closed_loop(&server, &workload, clients).expect("server stays up");
        let s = &report.stats;
        t.row([
            shards.to_string(),
            workers.to_string(),
            clients.to_string(),
            report.requests.to_string(),
            f2(report.throughput),
            us(s.mean_ns),
            us(s.p50_ns),
            us(s.p95_ns),
            us(s.p99_ns),
            s.rollup_stored.to_string(),
            s.rollup_aggregated.to_string(),
        ]);
        report.throughput
    };

    // Worker sweep at a fixed sharding, then shard sweep at a fixed pool.
    let mut worker_curve = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        worker_curve.push(sweep(4, workers, 8, &mut t));
    }
    let mut shard_curve = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        shard_curve.push(sweep(shards, 4, 8, &mut t));
    }

    let mut r = Report::new(
        "serve",
        "Closed-loop serving throughput vs shard and worker count",
        t,
    );
    r.note(format!(
        "Cube: {} cells over {} cuboids from {} tuples; workload: {} requests \
         ({} leaves), seed {:#x} — identical stream for every row.",
        store.len(),
        store.cuboid_masks().len(),
        tuples,
        requests,
        workload.leaf_count(),
        SEED,
    ));
    r.note(format!(
        "Workers 1→8 at 4 shards: {} → {} req/s; shards 1→8 at 4 workers: {} → {} \
         req/s. Neither curve is expected to rise: a request is answered by one \
         worker and its time is mostly the queue hop, and the shard count is a \
         logical partition (routing counters, balance) over one flat store, so it \
         does not change what a read touches.",
        f2(worker_curve[0]),
        f2(worker_curve[3]),
        f2(shard_curve[0]),
        f2(shard_curve[3]),
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_experiment_rows_and_determinism() {
        let ctx = Ctx::quick();
        let r = serve(&ctx);
        assert_eq!(r.table.len(), 8, "4 worker rows + 4 shard rows");
        // Every row answered the full workload with identical plan mix.
        let requests: Vec<&str> = (0..8).map(|i| r.table.cell(i, 3)).collect();
        assert!(requests.windows(2).all(|w| w[0] == w[1]), "{requests:?}");
        let stored: Vec<&str> = (0..8).map(|i| r.table.cell(i, 9)).collect();
        assert!(stored.windows(2).all(|w| w[0] == w[1]), "{stored:?}");
    }
}
