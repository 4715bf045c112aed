//! One module per evaluation chapter; `run_by_id` dispatches on the
//! experiment identifiers used throughout `DESIGN.md` and `EXPERIMENTS.md`.

pub mod ablations;
pub mod chapter3;
pub mod chapter4;
pub mod chapter5;
pub mod fault;
pub mod ingest;
pub mod progressive;
pub mod trace;

use crate::report::Report;
use crate::Ctx;
use icecube_cluster::ClusterConfig;
use icecube_core::{run_parallel_with, Algorithm, ExecOutcome, IcebergQuery, RunOptions};
use icecube_data::Relation;

/// Every experiment identifier, in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "table1_1",
        "fig3_6",
        "fig4_1",
        "fig4_2",
        "fig4_3",
        "fig4_4",
        "fig4_5",
        "fig4_6",
        "fig4_7",
        "sec5_1",
        "table5_1",
        "fig5_3",
        "fig5_4",
        "fault",
        "ingest",
        "progressive",
        "trace",
        "ablation_granularity",
        "ablation_affinity",
        "ablation_writing",
        "ablation_pol",
        "ablation_sequential",
        "ablation_improvements",
    ]
}

/// Runs one experiment by identifier.
pub fn run_by_id(id: &str, ctx: &Ctx) -> Option<Report> {
    Some(match id {
        "table1_1" => chapter3::table1_1(),
        "fig3_6" => chapter3::fig3_6(ctx),
        "fig4_1" => chapter4::fig4_1(ctx),
        "fig4_2" => chapter4::fig4_2(ctx),
        "fig4_3" => chapter4::fig4_3(ctx),
        "fig4_4" => chapter4::fig4_4(ctx),
        "fig4_5" => chapter4::fig4_5(ctx),
        "fig4_6" => chapter4::fig4_6(ctx),
        "fig4_7" => chapter4::fig4_7(),
        "sec5_1" => chapter5::sec5_1(ctx),
        "table5_1" => chapter5::table5_1(),
        "fig5_3" => chapter5::fig5_3(ctx),
        "fig5_4" => chapter5::fig5_4(ctx),
        "fault" => fault::fault(ctx),
        "ingest" => ingest::ingest(ctx),
        "progressive" => progressive::progressive(ctx),
        "trace" => trace::trace(ctx),
        "ablation_granularity" => ablations::granularity(ctx),
        "ablation_affinity" => ablations::affinity(ctx),
        "ablation_writing" => ablations::writing(ctx),
        "ablation_pol" => ablations::pol_stealing(ctx),
        "ablation_sequential" => ablations::sequential(ctx),
        "ablation_improvements" => ablations::improvements(ctx),
        _ => return None,
    })
}

/// Runs `alg` over `rel` on an `n`-node fast-Ethernet cluster in counting
/// mode (the experiments never retain the millions of cells).
pub(crate) fn measure(alg: Algorithm, rel: &Relation, minsup: u64, nodes: usize) -> ExecOutcome {
    measure_opts(alg, rel, minsup, nodes, &RunOptions::counting())
}

pub(crate) fn measure_opts(
    alg: Algorithm,
    rel: &Relation,
    minsup: u64,
    nodes: usize,
    opts: &RunOptions,
) -> ExecOutcome {
    let q = IcebergQuery::count_cube(rel.arity(), minsup);
    run_parallel_with(alg, rel, &q, &ClusterConfig::fast_ethernet(nodes), opts)
        .expect("experiment configurations are valid")
}

/// Like [`measure`], but with the virtual-time trace collector attached:
/// the returned outcome's report carries `trace: Some(..)` at identical
/// virtual cost (tracing charges nothing), so timings stay comparable
/// with the untraced experiments.
pub(crate) fn measure_traced(
    alg: Algorithm,
    rel: &Relation,
    minsup: u64,
    nodes: usize,
) -> ExecOutcome {
    let q = IcebergQuery::count_cube(rel.arity(), minsup);
    let cfg = ClusterConfig::fast_ethernet(nodes).with_trace();
    run_parallel_with(alg, rel, &q, &cfg, &RunOptions::counting())
        .expect("experiment configurations are valid")
}

/// Runs `alg` once with **no faults** on an `n`-node fast-Ethernet
/// cluster — the quiet reference both the `fault` experiment and the
/// chaos regression suite measure faulted runs against: its makespan
/// fixes the fault plan's virtual-time horizon, and its cells and counts
/// are exactly what a healed run must reproduce.
pub fn fault_free_baseline(
    alg: Algorithm,
    rel: &Relation,
    query: &IcebergQuery,
    nodes: usize,
    opts: &RunOptions,
) -> ExecOutcome {
    run_parallel_with(alg, rel, query, &ClusterConfig::fast_ethernet(nodes), opts)
        .expect("fault-free baseline configurations are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment runs end to end at test scale and produces a
    /// non-empty table. This is the harness's own integration test; the
    /// full-scale shapes are asserted inside each experiment's notes.
    #[test]
    fn every_experiment_runs_at_quick_scale() {
        let ctx = Ctx::quick();
        for id in all_ids() {
            let report = run_by_id(id, &ctx).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(!report.table.is_empty(), "{id} produced no rows");
            assert!(!report.render().is_empty());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("fig9_9", &Ctx::quick()).is_none());
    }

    /// Every experiment reports virtual time, so every one is pinned by a
    /// committed `--scale 0.05` golden that CI diffs a fresh pass against.
    #[test]
    fn every_experiment_has_a_golden() {
        let golden =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden_0.05");
        for id in all_ids() {
            let path = golden.join(format!("{id}.csv"));
            assert!(path.is_file(), "{id} has no golden at {}", path.display());
        }
    }
}
