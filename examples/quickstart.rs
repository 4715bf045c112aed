//! Quickstart: compute an iceberg cube on a simulated 4-node PC cluster.
//!
//! Uses the paper's running example — the SALES(Model, Year, Color, Sales)
//! relation of Figure 2.2 — and the PT algorithm the paper recommends as
//! the default.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use icecube::cluster::ClusterConfig;
use icecube::core::fixtures::sales;
use icecube::core::{run_parallel, Algorithm, IcebergQuery};

fn main() {
    // The 18-row SALES relation, dictionary-encoded:
    // Model {Chevy, Ford}, Year {1990..1992}, Color {red, white, blue}.
    let relation = sales();
    println!(
        "relation: {} rows, {} dimensions, cardinalities {:?}",
        relation.len(),
        relation.arity(),
        relation.schema().cardinalities()
    );

    // CUBE BY Model, Year, Color HAVING COUNT(*) >= 3.
    let query = IcebergQuery::count_cube(relation.arity(), 3);
    let cluster = ClusterConfig::fast_ethernet(4);
    let outcome = run_parallel(Algorithm::Pt, &relation, &query, &cluster)
        .expect("valid query over a non-empty relation");

    println!(
        "\n{} iceberg cells (support >= {}), computed in {:.3} virtual seconds on {} nodes:\n",
        outcome.cells.len(),
        query.minsup,
        outcome.report.stats.makespan_secs(),
        cluster.len(),
    );
    let models = ["Chevy", "Ford"];
    let years = ["1990", "1991", "1992"];
    let colors = ["red", "white", "blue"];
    for cell in &outcome.cells {
        // Decode the key back through the dimension order of the cuboid.
        let mut parts = vec!["ALL".to_string(); 3];
        for (value, dim) in cell.key.iter().zip(cell.cuboid.iter_dims()) {
            parts[dim] = match dim {
                0 => models[*value as usize].to_string(),
                1 => years[*value as usize].to_string(),
                _ => colors[*value as usize].to_string(),
            };
        }
        println!(
            "  {:8} {:5} {:6}  SUM(sales) = {:4}  COUNT = {}",
            parts[0], parts[1], parts[2], cell.agg.sum, cell.agg.count
        );
    }

    // Per-node accounting from the simulated cluster.
    println!("\nper-node load (virtual seconds busy):");
    for (i, load) in outcome.report.stats.loads_ns().iter().enumerate() {
        println!("  node {i}: {:.4}", *load as f64 / 1e9);
    }
    println!(
        "load imbalance: {:.2} (1.0 = perfect)",
        outcome.report.stats.imbalance()
    );
}
