//! Retail analytics end to end: ingest CSV, profile the cube, let the
//! paper's recipe (Figure 4.7) pick the algorithm, run it, report.
//!
//! This is the market-basket-flavoured scenario the paper's introduction
//! motivates (iceberg queries over sales facts; frequent behaviour is what
//! analysts act on).
//!
//! ```text
//! cargo run --example retail_recipe
//! ```

use icecube::cluster::ClusterConfig;
use icecube::core::recipe::{recommend, Choice, CubeProfile};
use icecube::core::{run_parallel, IcebergQuery};
use icecube::data::csv::read_csv;

/// A small point-of-sale extract (store, category, brand, payment, total).
const POS_CSV: &str = "\
store,category,brand,payment,total
downtown,beverages,Acme,card,12
downtown,beverages,Acme,cash,9
downtown,snacks,Crispy,card,5
uptown,beverages,Acme,card,11
uptown,beverages,Fresh,card,14
uptown,snacks,Crispy,cash,4
uptown,snacks,Crispy,card,6
harbour,beverages,Acme,card,13
harbour,produce,Farm,cash,22
harbour,produce,Farm,card,18
harbour,beverages,Fresh,card,10
downtown,produce,Farm,card,25
downtown,beverages,Fresh,cash,8
uptown,produce,Farm,card,19
harbour,snacks,Crispy,card,7
";

fn main() {
    // 1. Ingest: dictionary-encode the dimension columns.
    let table = read_csv(
        POS_CSV.as_bytes(),
        &["store", "category", "brand", "payment"],
        Some("total"),
    )
    .expect("embedded CSV is well-formed");
    let relation = &table.relation;
    println!(
        "ingested {} transactions over {} dimensions (cardinalities {:?})",
        relation.len(),
        relation.arity(),
        relation.schema().cardinalities()
    );

    // 2. Profile and consult the recipe.
    let profile = CubeProfile::from_relation(relation);
    let choices = recommend(&profile);
    println!(
        "cube profile: {} dims, ~{:.0} potential cells → recipe says {:?}",
        profile.dims,
        profile.expected_total_cells,
        choices.iter().map(|c| format!("{c:?}")).collect::<Vec<_>>()
    );
    let algorithm = match choices[0] {
        Choice::Algo(a) => a,
        Choice::OnlinePol => unreachable!("offline profile"),
    };

    // 3. Run the iceberg cube: combinations bought at least 3 times.
    let query = IcebergQuery::count_cube(relation.arity(), 3);
    let outcome = run_parallel(
        algorithm,
        relation,
        &query,
        &ClusterConfig::fast_ethernet(4),
    )
    .expect("valid query");
    println!(
        "\n{} ran in {:.4} virtual seconds; {} frequent combinations:\n",
        algorithm,
        outcome.report.stats.makespan_secs(),
        outcome.cells.len()
    );

    // 4. Decode and rank the cells by support.
    let mut cells = outcome.cells;
    cells.sort_by_key(|c| std::cmp::Reverse(c.agg.count));
    let col_names = ["store", "category", "brand", "payment"];
    for cell in cells.iter().take(12) {
        let described: Vec<String> = cell
            .key
            .iter()
            .zip(cell.cuboid.iter_dims())
            .map(|(v, d)| {
                format!(
                    "{}={}",
                    col_names[d],
                    table.dictionaries[d].decode(*v).unwrap_or("?")
                )
            })
            .collect();
        println!(
            "  {:45}  count={} total=${}",
            described.join(" "),
            cell.agg.count,
            cell.agg.sum
        );
    }
}
