//! Tracing determinism and counter/event lockstep.
//!
//! The trace layer stamps events with the cluster's virtual clock, so two
//! runs with the same seed must export **byte-identical** Chrome traces
//! and phase-cost CSVs — for every algorithm, with and without faults.
//! The suite also pins the lockstep invariants between the event stream
//! and the run statistics: task spans sum to `stats.tasks`, crash events
//! fire exactly once per crashed node, and lost/recovered events match
//! their counters.

use icecube::cluster::{ClusterConfig, FaultPlan};
use icecube::core::{run_parallel, Algorithm, ExecOutcome, IcebergQuery};
use icecube::data::presets;
use icecube::trace::{chrome_trace_json, phase_cost_csv, EventKind, TraceLog};

const NODES: usize = 4;

fn traced_run(alg: Algorithm, plan: Option<FaultPlan>) -> ExecOutcome {
    let rel = presets::tiny(13).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let mut cfg = ClusterConfig::fast_ethernet(NODES).with_trace();
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    run_parallel(alg, &rel, &q, &cfg).unwrap()
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::seeded_severity(0x7ace, NODES, 4_000_000, 200)
}

#[test]
fn same_seed_exports_are_byte_identical_for_every_algorithm() {
    for alg in Algorithm::all() {
        let a = traced_run(alg, None);
        let b = traced_run(alg, None);
        let (ta, tb) = (a.report.trace.unwrap(), b.report.trace.unwrap());
        assert_eq!(
            chrome_trace_json(&ta),
            chrome_trace_json(&tb),
            "{alg} chrome export differs between same-seed runs"
        );
        let csv = phase_cost_csv(&ta);
        assert_eq!(csv, phase_cost_csv(&tb), "{alg} cost CSV differs");
        assert!(csv.lines().count() > 1, "{alg} cost CSV has no rows");
    }
}

#[test]
fn same_seed_exports_are_byte_identical_under_faults() {
    for alg in Algorithm::evaluated() {
        let a = traced_run(alg, Some(chaos_plan()));
        let b = traced_run(alg, Some(chaos_plan()));
        assert_eq!(a.cells, b.cells, "{alg} cells differ");
        let (ta, tb) = (a.report.trace.unwrap(), b.report.trace.unwrap());
        assert_eq!(
            chrome_trace_json(&ta),
            chrome_trace_json(&tb),
            "{alg} faulted chrome export differs"
        );
        assert_eq!(
            phase_cost_csv(&ta),
            phase_cost_csv(&tb),
            "{alg} faulted cost CSV differs"
        );
    }
}

#[test]
fn untraced_runs_carry_no_trace() {
    let rel = presets::tiny(13).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let out = run_parallel(
        Algorithm::Pt,
        &rel,
        &q,
        &ClusterConfig::fast_ethernet(NODES),
    )
    .unwrap();
    assert!(out.report.trace.is_none(), "tracing must be opt-in");
}

/// Counter/event lockstep: per node, TaskStart events sum to the
/// scheduler's `stats.tasks`, and every span that completes closes.
fn assert_task_spans_match(alg: Algorithm, out: &ExecOutcome, log: &TraceLog) {
    let spans = log.task_spans_per_node();
    let stats = out.report.stats.nodes();
    assert_eq!(spans.len(), stats.len());
    for (node, (&got, s)) in spans.iter().zip(stats).enumerate() {
        assert_eq!(
            got, s.tasks,
            "{alg} node {node}: TaskStart events {got} != stats.tasks {}",
            s.tasks
        );
    }
    let starts: u64 = spans.iter().sum();
    let ends = log.count_total(|e| matches!(e, EventKind::TaskEnd { .. }));
    assert!(
        ends <= starts,
        "{alg}: more TaskEnd ({ends}) than TaskStart ({starts})"
    );
}

#[test]
fn task_spans_sum_to_per_node_task_counts() {
    for alg in Algorithm::evaluated() {
        let out = traced_run(alg, None);
        let log = out.report.trace.clone().unwrap();
        assert_task_spans_match(alg, &out, &log);
        // Fault-free: every started task also ends.
        let starts: u64 = log.task_spans_per_node().iter().sum();
        let ends = log.count_total(|e| matches!(e, EventKind::TaskEnd { .. }));
        assert_eq!(starts, ends, "{alg}: unclosed spans in a fault-free run");
        assert!(starts > 0, "{alg}: no task spans recorded");
    }
}

#[test]
fn fault_events_fire_exactly_once_and_match_counters() {
    for alg in Algorithm::evaluated() {
        let out = traced_run(alg, Some(chaos_plan()));
        let log = out.report.trace.clone().unwrap();
        assert_task_spans_match(alg, &out, &log);
        for (node, s) in out.report.stats.nodes().iter().enumerate() {
            let crashes = log.node(node).iter().fold(0u64, |acc, e| {
                acc + u64::from(matches!(e.kind, EventKind::Crash))
            });
            assert_eq!(
                crashes, s.crashed,
                "{alg} node {node}: Crash events must match the counter exactly"
            );
            assert!(crashes <= 1, "{alg} node {node}: a node dies at most once");
            let lost = log.node(node).iter().fold(0u64, |acc, e| {
                acc + u64::from(matches!(e.kind, EventKind::TaskLost))
            });
            let recovered = log.node(node).iter().fold(0u64, |acc, e| {
                acc + u64::from(matches!(e.kind, EventKind::TaskRecovered))
            });
            assert_eq!(lost, s.tasks_lost, "{alg} node {node}: TaskLost events");
            assert_eq!(
                recovered, s.tasks_recovered,
                "{alg} node {node}: TaskRecovered events"
            );
        }
    }
}

#[test]
fn wire_events_account_for_the_message_counter() {
    // Every control round trip counts two messages (request + reply) and
    // records one Rpc event; every data attempt counts one message and
    // records one MsgSend — with and without faults, dead nodes included.
    for plan in [None, Some(chaos_plan())] {
        for alg in Algorithm::evaluated() {
            let out = traced_run(alg, plan.clone());
            let log = out.report.trace.clone().unwrap();
            for (node, s) in out.report.stats.nodes().iter().enumerate() {
                let (mut rpcs, mut sends) = (0u64, 0u64);
                for e in log.node(node) {
                    match e.kind {
                        EventKind::Rpc { .. } => rpcs += 1,
                        EventKind::MsgSend { .. } => sends += 1,
                        _ => {}
                    }
                }
                assert_eq!(
                    2 * rpcs + sends,
                    s.messages,
                    "{alg} node {node}: wire events out of lockstep with stats.messages"
                );
            }
            // Demand-scheduled algorithms talk to the manager; their
            // control traffic must be visible as communication volume.
            // RP and BPP are statically assigned and legitimately silent.
            if matches!(alg, Algorithm::Asl | Algorithm::Pt | Algorithm::Aht) {
                assert!(
                    out.report.trace.unwrap().comm_volume_bytes() > 0,
                    "{alg}: scheduling traffic must be visible as communication volume"
                );
            }
        }
    }
}

#[test]
fn traced_and_untraced_runs_have_identical_statistics() {
    // Tracing must charge nothing: attach a collector, the virtual-time
    // outcome is bit-identical to the untraced run.
    let rel = presets::tiny(13).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    for alg in Algorithm::evaluated() {
        let plain = run_parallel(alg, &rel, &q, &ClusterConfig::fast_ethernet(NODES)).unwrap();
        let traced = traced_run(alg, None);
        assert_eq!(
            plain.report.stats, traced.report.stats,
            "{alg}: tracing changed a run"
        );
        assert_eq!(plain.cells, traced.cells, "{alg}: tracing changed cells");
    }
}

#[test]
fn phase_cost_rows_cover_load_and_compute_for_every_node() {
    let out = traced_run(Algorithm::Pt, None);
    let csv = phase_cost_csv(&out.report.trace.unwrap());
    for node in 0..NODES {
        assert!(
            csv.contains(&format!("\n{node},load,")) || csv.starts_with(&format!("{node},load,")),
            "node {node} has no load phase row:\n{csv}"
        );
        assert!(
            csv.contains(&format!("\n{node},compute,")),
            "node {node} has no compute phase row:\n{csv}"
        );
    }
}
