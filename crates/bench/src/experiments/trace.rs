//! The `trace` experiment: virtual-time trace exports for the five
//! algorithms.
//!
//! Each algorithm runs once on an 8-node cluster with the trace collector
//! attached. Tracing charges no virtual time, so the makespans match the
//! untraced experiments exactly; the collector only records what already
//! happened. Three artifact families land in the output directory:
//!
//! * `trace_<alg>.json` — Chrome `trace_event` timelines, one per
//!   algorithm (load in `chrome://tracing` or Perfetto);
//! * `trace_costs.csv` — the per-node, per-phase cost breakdown of every
//!   run, keyed by algorithm;
//! * `trace_registry.csv` — the unified metrics registry holding every
//!   run's cluster statistics under `<alg>.` prefixes.
//!
//! All artifacts are derived from virtual clocks and deterministic
//! counters, so every file is bit-for-bit reproducible for a given scale
//! (CI regenerates them twice and diffs the bytes).

use crate::report::{kb, secs, Report, Table};
use crate::Ctx;
use icecube_cluster::ClusterConfig;
use icecube_core::{run_parallel_with, Algorithm, IcebergQuery, RunOptions};
use icecube_data::SyntheticSpec;
use icecube_trace::{chrome_trace_json, phase_cost_csv, EventKind, Registry, PHASE_COST_HEADER};

/// Simulated cluster size (matches the fault experiment).
const NODES: usize = 8;

/// Traced runs of the five algorithms, with exported artifacts.
pub fn trace(ctx: &Ctx) -> Report {
    let tuples = ctx.tuples(50_000);
    let rel = SyntheticSpec::uniform(tuples, vec![12, 10, 8, 6], 7)
        .generate()
        .expect("uniform spec is valid");
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let mut t = Table::new([
        "alg",
        "events",
        "task_spans",
        "depth_marks",
        "msg_events",
        "comm_kb",
        "makespan_s",
    ]);
    let mut registry = Registry::new();
    let mut costs = String::from("alg,");
    costs.push_str(PHASE_COST_HEADER);
    costs.push('\n');
    std::fs::create_dir_all(&ctx.out_dir).expect("output directory is creatable");
    for alg in Algorithm::evaluated() {
        let cfg = ClusterConfig::fast_ethernet(NODES).with_trace();
        let out = run_parallel_with(alg, &rel, &q, &cfg, &RunOptions::counting())
            .expect("experiment configurations are valid");
        let log = out.report.trace.as_ref().expect("tracing was enabled");
        let name = alg.to_string().to_lowercase();
        std::fs::write(
            ctx.out_dir.join(format!("trace_{name}.json")),
            chrome_trace_json(log),
        )
        .expect("trace JSON is writable");
        for line in phase_cost_csv(log).lines().skip(1) {
            costs.push_str(&name);
            costs.push(',');
            costs.push_str(line);
            costs.push('\n');
        }
        out.report.stats.register_into(&name, &mut registry);
        let spans = log.count_total(|e| matches!(e, EventKind::TaskStart { .. }));
        let depths = log.count_total(|e| matches!(e, EventKind::Depth { .. }));
        let msgs = log.count_total(|e| {
            matches!(
                e,
                EventKind::MsgSend { .. } | EventKind::MsgRecv { .. } | EventKind::Rpc { .. }
            )
        });
        t.row([
            alg.to_string(),
            log.total_events().to_string(),
            spans.to_string(),
            depths.to_string(),
            msgs.to_string(),
            kb(log.comm_volume_bytes()),
            secs(out.report.wall_ns),
        ]);
    }
    std::fs::write(ctx.out_dir.join("trace_costs.csv"), &costs).expect("cost CSV is writable");
    std::fs::write(ctx.out_dir.join("trace_registry.csv"), registry.to_csv())
        .expect("registry CSV is writable");
    let mut r = Report::new(
        "trace",
        "Virtual-time traces: event counts and communication volume x 5 algorithms",
        t,
    );
    r.note(format!(
        "Wrote trace_<alg>.json (Chrome trace_event), trace_costs.csv and \
         trace_registry.csv ({} metrics) into {}. Tracing charges nothing: \
         every makespan equals its untraced run.",
        registry.len(),
        ctx.out_dir.display(),
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_experiment_exports_deterministic_artifacts() {
        let ctx = Ctx {
            out_dir: std::env::temp_dir().join("icecube-trace-exp"),
            ..Ctx::quick()
        };
        let r = trace(&ctx);
        assert_eq!(r.table.len(), 5);
        for i in 0..r.table.len() {
            let events: u64 = r.table.cell(i, 1).parse().unwrap();
            let spans: u64 = r.table.cell(i, 2).parse().unwrap();
            assert!(events > 0, "row {i} recorded nothing");
            assert!(spans > 0, "row {i} recorded no task spans");
        }
        let json = std::fs::read_to_string(ctx.out_dir.join("trace_pt.json")).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        let costs = std::fs::read_to_string(ctx.out_dir.join("trace_costs.csv")).unwrap();
        assert!(costs.contains("rp,0,load,"));
        let reg = std::fs::read_to_string(ctx.out_dir.join("trace_registry.csv")).unwrap();
        assert!(reg.contains("pt.makespan_ns,"));
        // Byte-identical re-export: same seed, same scale, same files.
        let again = trace(&ctx);
        assert_eq!(r.table.to_csv(), again.table.to_csv());
        assert_eq!(
            costs,
            std::fs::read_to_string(ctx.out_dir.join("trace_costs.csv")).unwrap()
        );
    }
}
