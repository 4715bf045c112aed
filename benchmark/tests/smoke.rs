//! Structure self-test: the benchmark at `--smoke` sizes must emit exactly
//! the names `BENCHMARK.json` lists, repeat its counts, and fail when the
//! oracle is made to disagree. Checks structure, never numbers.

use icecube_benchmark::json::{self, Json};
use icecube_benchmark::spec;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_icecube-benchmark");

fn benchmark_json_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs one smoke run; returns its exit status and the last stdout line.
fn smoke(workload: &str, trace: u8, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(EXE)
        .args(["run", "--smoke", "--seconds", "1", "--seed", "5"])
        .args(["--workload", workload, "--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        json::parse(last).expect("the last line is JSON"),
    )
}

/// `name → unit` of one section of `BENCHMARK.json`.
fn listed(doc: &Json, section: &str) -> BTreeMap<String, String> {
    doc.get(section)
        .and_then(|s| match s {
            Json::Arr(items) => Some(items),
            _ => None,
        })
        .expect("section is a list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn emitted(result: &Json) -> BTreeMap<String, String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn workload_names(doc: &Json) -> Vec<String> {
    match doc.get("workloads") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect(),
        _ => panic!("workloads is a list"),
    }
}

#[test]
fn benchmark_json_is_the_spec_and_meets_the_contract() {
    let text = benchmark_json_text();
    assert_eq!(
        text,
        spec::benchmark_json(),
        "BENCHMARK.json differs from `icecube-benchmark spec`"
    );
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let workloads = workload_names(&doc);
    assert!((2..=8).contains(&workloads.len()));
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut all_names: Vec<&String> = workloads
        .iter()
        .chain(end_to_end.keys())
        .chain(per_layer.keys())
        .collect();
    for n in &all_names {
        assert!(name_ok(n), "name {n}");
    }
    let total = all_names.len();
    all_names.sort();
    all_names.dedup();
    assert_eq!(all_names.len(), total, "a name is used twice");
    for u in end_to_end.values().chain(per_layer.values()) {
        assert!(unit_ok(u), "unit {u}");
    }
    if let Some(Json::Arr(items)) = doc.get("workloads") {
        for w in items {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
    }
    // Every end-to-end metric is bounded by at most a quarter; set-up time
    // is among them and has the largest bound.
    let bounds: BTreeMap<String, f64> = spec::end_to_end()
        .into_iter()
        .map(|m| (m.name, m.bound.expect("end-to-end metrics are bounded")))
        .collect();
    assert!(bounds.values().all(|&b| b > 0.0 && b <= 0.25));
    let largest = bounds.values().copied().fold(0.0, f64::max);
    assert_eq!(bounds["setup_s"], largest);
    assert_eq!(end_to_end["setup_s"], "s");
}

#[test]
fn smoke_runs_emit_exactly_the_listed_names_and_counts_repeat() {
    let doc = json::parse(&benchmark_json_text()).unwrap();
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    for workload in workload_names(&doc) {
        let (ok, untraced) = smoke(&workload, 0, &[]);
        assert!(ok, "{workload}: untraced smoke run failed");
        assert_eq!(untraced.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(untraced.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(untraced.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        assert_eq!(emitted(&untraced), end_to_end, "{workload}: end to end");

        let (ok, first) = smoke(&workload, 1, &[]);
        let (again_ok, second) = smoke(&workload, 1, &[]);
        assert!(ok && again_ok, "{workload}: traced smoke run failed");
        assert_eq!(emitted(&first), per_layer, "{workload}: per layer");
        let counts = |r: &Json| -> Vec<(String, f64)> {
            per_layer
                .iter()
                .filter(|(_, unit)| *unit == "count")
                .map(|(name, _)| {
                    let v = r.get("metrics").unwrap().get(name).unwrap();
                    (name.clone(), v.get("value").and_then(Json::as_f64).unwrap())
                })
                .collect()
        };
        assert!(!counts(&first).is_empty());
        assert_eq!(counts(&first), counts(&second), "{workload}: counts");
    }
}

#[test]
fn a_corrupted_oracle_cell_fails_the_run() {
    let (ok, result) = smoke("sparse_lowsup", 0, &["--corrupt-oracle"]);
    assert!(!ok, "the run must exit non-zero");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_f64) >= Some(1.0));
}
