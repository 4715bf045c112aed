//! The `fault` experiment: robustness of the five algorithms under a
//! seeded fault plan (crashes, transient slowdowns, message drops).
//!
//! For each algorithm a fault-free baseline fixes the virtual-time
//! horizon and the reference cell count; then the same seeded
//! [`FaultPlan`] (scaled by a severity sweep) is injected and the run is
//! measured again. The `match` column asserts the healed cube has exactly
//! the baseline's cells — recovery must never change the answer, only the
//! makespan. Every column is derived from virtual clocks and counters, so
//! the emitted CSV is bit-for-bit reproducible across runs.

use crate::report::{f2, secs, Report, Table};
use crate::Ctx;
use icecube_cluster::{ClusterConfig, FaultPlan};
use icecube_core::{run_parallel_with, Algorithm, IcebergQuery, RunOptions};
use icecube_data::SyntheticSpec;

/// Fault-plan seed; fixed so every run injects the identical faults.
const SEED: u64 = 0x1ceb_fa17;

/// Simulated cluster size.
const NODES: usize = 8;

/// Severity sweep: 0 is the fault-free baseline; 100 is the nominal
/// seeded plan; 400 is a hostile cluster (several crashes plus heavy
/// slowdown and message loss).
const SEVERITIES: [u32; 4] = [0, 100, 200, 400];

/// Fault-rate sweep × the five algorithms on an 8-node cluster.
pub fn fault(ctx: &Ctx) -> Report {
    let tuples = ctx.tuples(100_000);
    let rel = SyntheticSpec::uniform(tuples, vec![12, 10, 8, 6], 7)
        .generate()
        .expect("uniform spec is valid");
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let mut t = Table::new([
        "alg",
        "severity",
        "crashes",
        "tasks_lost",
        "tasks_recovered",
        "rpc_retries",
        "retransmits",
        "makespan_s",
        "overhead",
        "cells",
        "match",
    ]);
    let mut all_match = true;
    let mut worst_overhead = 1.0f64;
    for alg in Algorithm::evaluated() {
        let mut baseline_ns = 0u64;
        let mut baseline_cells = 0u64;
        for severity in SEVERITIES {
            let out = if severity == 0 {
                // The shared quiet reference (also used by the chaos
                // suite): fixes this algorithm's horizon and cell count.
                super::fault_free_baseline(alg, &rel, &q, NODES, &RunOptions::counting())
            } else {
                let plan = FaultPlan::seeded_severity(SEED, NODES, baseline_ns, severity);
                let cfg = ClusterConfig::fast_ethernet(NODES).with_faults(plan);
                run_parallel_with(alg, &rel, &q, &cfg, &RunOptions::counting())
                    .expect("seeded plans spare at least one node")
            };
            if severity == 0 {
                baseline_ns = out.report.wall_ns;
                baseline_cells = out.total_cells;
            }
            let exact = out.total_cells == baseline_cells;
            all_match &= exact;
            let overhead = out.report.wall_ns as f64 / baseline_ns as f64;
            worst_overhead = worst_overhead.max(overhead);
            t.row([
                alg.to_string(),
                severity.to_string(),
                out.report.stats.total_crashes().to_string(),
                out.report.stats.total_tasks_lost().to_string(),
                out.report.stats.total_tasks_recovered().to_string(),
                out.report.stats.total_rpc_retries().to_string(),
                out.report.stats.total_retransmits().to_string(),
                secs(out.report.wall_ns),
                f2(overhead),
                out.total_cells.to_string(),
                if exact { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    let mut r = Report::new(
        "fault",
        "Self-healing under seeded faults: severity sweep x 5 algorithms",
        t,
    );
    r.note(format!(
        "Fault plan seed {SEED:#x} on {NODES} nodes, severity 0/100/200/400 \
         (0 = fault-free baseline per algorithm). Cube equality under faults: {}. \
         Worst makespan overhead: {}x — crashes cost re-execution and detection \
         timeouts, never cells.",
        if all_match { "all exact" } else { "BROKEN" },
        f2(worst_overhead),
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_experiment_heals_exactly_and_is_deterministic() {
        let ctx = Ctx::quick();
        let r = fault(&ctx);
        assert_eq!(
            r.table.len(),
            Algorithm::evaluated().len() * SEVERITIES.len()
        );
        for i in 0..r.table.len() {
            assert_eq!(r.table.cell(i, 10), "yes", "row {i} lost cells");
        }
        // Non-vacuity: the harsher severities actually injected faults.
        let crashes: u64 = (0..r.table.len())
            .map(|i| r.table.cell(i, 2).parse::<u64>().unwrap())
            .sum();
        let recovered: u64 = (0..r.table.len())
            .map(|i| r.table.cell(i, 4).parse::<u64>().unwrap())
            .sum();
        assert!(crashes > 0, "no crashes injected");
        assert!(recovered > 0, "no tasks recovered");
        // Same seed, same scale: the whole report (and hence the CSV
        // bytes) must be identical across runs.
        let again = fault(&ctx);
        assert_eq!(r.table.to_csv(), again.table.to_csv());
    }
}
