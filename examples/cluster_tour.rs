//! A tour of all six algorithms over one dataset: Table 1.1 brought to
//! life, with per-algorithm cost breakdowns from the simulated cluster.
//!
//! ```text
//! cargo run --release --example cluster_tour
//! ```

use icecube::cluster::ClusterConfig;
use icecube::core::{run_parallel_with, AlgoError, Algorithm, IcebergQuery, RunOptions};
use icecube::data::presets;

fn main() {
    // A mid-size skewed workload: 30,000 tuples over 9 weather dimensions.
    let mut spec = presets::baseline();
    spec.tuples = 30_000;
    let relation = spec.generate().expect("preset is valid");
    let query = IcebergQuery::count_cube(relation.arity(), 2);
    let cluster = ClusterConfig::fast_ethernet(8);

    println!(
        "{} tuples x {} dims, minsup {}, {} simulated nodes\n",
        relation.len(),
        relation.arity(),
        query.minsup,
        cluster.len()
    );
    println!(
        "{:<9} {:<14} {:<7} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "algo", "writing", "data", "wall(s)", "cpu(s)", "io(s)", "cells", "imbal."
    );

    let opts = RunOptions::counting();
    for alg in Algorithm::all() {
        match run_parallel_with(alg, &relation, &query, &cluster, &opts) {
            Ok(out) => {
                let f = alg.features();
                let cpu: u64 = out.report.stats.nodes().iter().map(|s| s.cpu_ns).sum();
                println!(
                    "{:<9} {:<14} {:<7} {:>8.3} {:>8.3} {:>8.3} {:>9} {:>9.2}",
                    f.name,
                    f.writing,
                    f.decomposition,
                    out.report.stats.makespan_secs(),
                    cpu as f64 / 1e9,
                    out.report.stats.total_io_ns() as f64 / 1e9,
                    out.total_cells,
                    out.report.stats.imbalance(),
                );
            }
            Err(AlgoError::MemoryExhausted {
                node,
                required_bytes,
                available_bytes,
            }) => {
                // The hash-tree algorithm fails exactly as the paper
                // reports once candidates outgrow memory.
                println!(
                    "{:<9} failed: out of memory on node {node} \
                     (needed {required_bytes} bytes, had {available_bytes})",
                    alg.to_string()
                );
            }
            Err(e) => println!("{:<9} failed: {e}", alg.to_string()),
        }
    }

    println!(
        "\nNote: every successful run emits the same iceberg cells; what differs is \
         scheduling, writing order, and data movement — Table 1.1 of the paper."
    );
}
