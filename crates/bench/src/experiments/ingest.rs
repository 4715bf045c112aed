//! The `ingest` experiment: refresh latency of incremental maintenance
//! versus a from-scratch recompute, across a batch-size sweep.
//!
//! For each batch size a [`MaintainedCube`] built over the base relation
//! ingests one append batch (the delta pass: BUC at minsup 1 over *just
//! the batch*, then a floor merge), while the scratch column re-runs the
//! full sequential build over the concatenated relation. Both costs are
//! virtual time, so the emitted CSV is bit-for-bit reproducible. The
//! `match` column asserts the maintained visible snapshot has exactly the
//! scratch cube's cells — the same oracle `tests/incremental_equivalence.rs`
//! pins byte-for-byte.

use crate::report::{f2, secs, Report, Table};
use crate::Ctx;
use icecube_cluster::ClusterConfig;
use icecube_core::{run_sequential, CubeStore, IcebergQuery, MaintainedCube, SeqAlgorithm};
use icecube_data::SyntheticSpec;

/// Dimension cardinalities of the streamed relation.
const CARDS: [u32; 3] = [12, 10, 8];

/// Batch size as a percentage of the base relation.
const BATCH_PCTS: [usize; 4] = [1, 5, 10, 25];

/// Serving minimum support.
const MINSUP: u64 = 2;

/// Refresh-latency sweep: delta maintenance vs from-scratch recompute.
pub fn ingest(ctx: &Ctx) -> Report {
    let base_rows = ctx.tuples(50_000);
    let base = SyntheticSpec::uniform(base_rows, CARDS.to_vec(), 7)
        .generate()
        .expect("uniform spec is valid");
    let cfg = ClusterConfig::fast_ethernet(1);
    let q = IcebergQuery::count_cube(base.arity(), MINSUP);
    let mut t = Table::new([
        "batch_pct",
        "base_rows",
        "batch_rows",
        "delta_s",
        "scratch_s",
        "speedup",
        "touched_cuboids",
        "inserted",
        "updated",
        "promoted",
        "match",
    ]);
    let mut all_match = true;
    let mut best_speedup = 0.0f64;
    for pct in BATCH_PCTS {
        let batch_rows = (base_rows * pct / 100).max(1);
        let batch = SyntheticSpec::uniform(batch_rows, CARDS.to_vec(), 11 + pct as u64)
            .generate()
            .expect("uniform spec is valid");
        let mut maintained = MaintainedCube::from_relation(&base, MINSUP).expect("dims > 0");
        let report = maintained
            .ingest_with(&batch, &cfg)
            .expect("append batches ingest");

        let mut concat = base.clone();
        concat.extend_from(&batch).expect("same schema");
        let scratch = run_sequential(SeqAlgorithm::BppBuc, &concat, &q, &cfg)
            .expect("scratch recompute runs");
        let scratch_store = CubeStore::from_cells(concat.arity(), MINSUP, scratch.cells);

        let mut want = Vec::new();
        let mut got = Vec::new();
        scratch_store.write_to(&mut want).expect("in-memory write");
        maintained
            .visible()
            .write_to(&mut got)
            .expect("in-memory write");
        let exact = got == want;
        all_match &= exact;
        let speedup = scratch.report.wall_ns as f64 / report.clock_ns.max(1) as f64;
        best_speedup = best_speedup.max(speedup);
        t.row([
            pct.to_string(),
            base_rows.to_string(),
            batch_rows.to_string(),
            secs(report.clock_ns),
            secs(scratch.report.wall_ns),
            f2(speedup),
            report.touched_cuboids.to_string(),
            report.inserted.to_string(),
            report.updated.to_string(),
            report.promoted.to_string(),
            if exact { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut r = Report::new(
        "ingest",
        "Incremental refresh latency vs from-scratch recompute: batch-size sweep",
        t,
    );
    r.note(format!(
        "Base of {base_rows} rows over cardinalities {CARDS:?}, one append batch \
         per row at {BATCH_PCTS:?}% of the base. The delta pass aggregates just \
         the batch and merges into the minsup-1 floor; scratch rebuilds the \
         concatenated relation. Byte equality of the visible snapshot: {}. Best \
         delta speedup: {}x — the merge touches only the lattice region the \
         batch projects into.",
        if all_match { "all exact" } else { "BROKEN" },
        f2(best_speedup),
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_experiment_matches_scratch_and_is_deterministic() {
        let ctx = Ctx::quick();
        let r = ingest(&ctx);
        assert_eq!(r.table.len(), BATCH_PCTS.len());
        for i in 0..r.table.len() {
            assert_eq!(r.table.cell(i, 10), "yes", "row {i} diverged from scratch");
            // At quick scale the virtual times round below the printed
            // precision, but the speedup is computed from raw nanoseconds
            // and must stay finite and positive.
            let speedup: f64 = r.table.cell(i, 5).parse().unwrap();
            assert!(speedup > 0.0, "row {i}: speedup must be positive");
            let touched: u64 = r.table.cell(i, 6).parse().unwrap();
            assert!(touched > 0, "row {i}: a batch must touch the lattice");
        }
        // Same seeds, same scale: the CSV bytes must be identical.
        let again = ingest(&ctx);
        assert_eq!(r.table.to_csv(), again.table.to_csv());
    }
}
