//! Golden-file tests for the interprocedural `analyze` engine — one
//! fixture per pass asserting exact `file:line` findings — plus
//! end-to-end runs of `icecube-check analyze` against a synthetic
//! workspace and against this repository itself.

use icecube_check::analyze::{analyze_sources, analyze_workspace, to_json, AnalyzeConfig};
use icecube_check::callgraph::SourceFile;
use std::process::Command;

/// Parses `//~ <lint>` markers into the expected `(line, lint)` set.
fn expected_findings(src: &str) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = src
        .lines()
        .enumerate()
        .flat_map(|(i, l)| {
            l.split("//~")
                .skip(1)
                .map(move |m| (i as u32 + 1, m.trim().to_string()))
        })
        .collect();
    out.sort();
    out
}

fn source(path: &str, crate_name: &str, src: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        src: src.to_string(),
    }
}

fn empty_config() -> AnalyzeConfig {
    AnalyzeConfig {
        alloc_roots: Vec::new(),
        lock_scope: Vec::new(),
        spawn_allowed_files: Vec::new(),
        spawn_allowed_crates: Vec::new(),
    }
}

/// Runs one fixture and asserts the findings match its `//~` markers
/// exactly, line by line.
fn assert_golden(path: &str, crate_name: &str, src: &str, config: &AnalyzeConfig) {
    let report = analyze_sources(&[source(path, crate_name, src)], config);
    let mut got: Vec<(u32, String)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.lint.to_string()))
        .collect();
    got.sort();
    assert_eq!(
        got,
        expected_findings(src),
        "full findings: {:#?}",
        report.findings
    );
    for f in &report.findings {
        assert_eq!(f.file, path, "findings must anchor in the fixture file");
    }
}

#[test]
fn panic_fixture_matches_golden_file_lines() {
    // `core` is a `no_panic` policy crate, so both sinks reachable from
    // pub fns report; the dead private panic does not.
    assert_golden(
        "crates/core/src/analyze_panic.rs",
        "core",
        include_str!("fixtures/analyze_panic.rs"),
        &empty_config(),
    );
}

#[test]
fn panic_fixture_names_the_call_path() {
    let report = analyze_sources(
        &[source(
            "crates/core/src/analyze_panic.rs",
            "core",
            include_str!("fixtures/analyze_panic.rs"),
        )],
        &empty_config(),
    );
    let through_helper = report
        .findings
        .iter()
        .find(|f| f.message.contains("`core::entry`"))
        .expect("the helper's unwrap reports against pub fn `entry`");
    assert!(
        through_helper.message.contains("via")
            && through_helper
                .message
                .contains("crates/core/src/analyze_panic.rs:"),
        "path must be spelled file:line-by-file:line: {}",
        through_helper.message
    );
}

#[test]
fn alloc_fixture_matches_golden_file_lines() {
    let mut config = empty_config();
    config.alloc_roots = vec![("core/src/analyze_alloc.rs", None, "recurse")];
    // Only the allocation reachable *from* the root reports; the arena
    // prologue in the root's caller stays legal.
    assert_golden(
        "crates/core/src/analyze_alloc.rs",
        "core",
        include_str!("fixtures/analyze_alloc.rs"),
        &config,
    );
}

#[test]
fn lock_spawn_fixture_matches_golden_file_lines() {
    let mut config = empty_config();
    config.lock_scope = vec!["crates/serve/src/"];
    // `serve` is a `no_panic` crate with no panic sinks here, so the
    // only findings are the inversion pair and the rogue spawn.
    assert_golden(
        "crates/serve/src/analyze_lock_spawn.rs",
        "serve",
        include_str!("fixtures/analyze_lock_spawn.rs"),
        &config,
    );
}

#[test]
fn allow_silences_exactly_one_finding() {
    // Two identical sinks; the justified allow covers its own line and
    // nothing else.
    assert_golden(
        "crates/core/src/analyze_allowed.rs",
        "core",
        include_str!("fixtures/analyze_allowed.rs"),
        &empty_config(),
    );
}

/// Builds a throwaway workspace with one panic-reaching crate and runs
/// the real binary's `analyze` mode against it.
fn run_analyze_on_synthetic_tree(
    tag: &str,
    args: &[&str],
) -> (std::process::Output, std::path::PathBuf) {
    let root =
        std::env::temp_dir().join(format!("icecube-analyze-e2e-{}-{tag}", std::process::id()));
    let src_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(
        src_dir.join("lib.rs"),
        "//! Broken on purpose.\npub fn f(x: Option<u32>) -> u32 {\n    g(x)\n}\nfn g(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("fixture write");
    let out = Command::new(env!("CARGO_BIN_EXE_icecube-check"))
        .arg("analyze")
        .args(args)
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    (out, root)
}

#[test]
fn analyze_binary_exits_nonzero_with_file_line_findings() {
    let (out, root) = run_analyze_on_synthetic_tree("text", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("crates/core/src/lib.rs:6: [panic-path]"),
        "finding must anchor at the sink: {stdout}"
    );
    assert!(
        stdout.contains("`core::f`"),
        "finding must name the pub entry point: {stdout}"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn analyze_binary_emits_schema_v2_json() {
    let (out, root) = run_analyze_on_synthetic_tree("json", &["--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("\"schema\":\"icecube-check-report/v2\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"mode\":\"analyze\""), "{stdout}");
    assert!(stdout.contains("\"lint\":\"panic-path\""), "{stdout}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn analyze_binary_is_clean_on_this_repository() {
    // The tree this binary was built from must analyze clean — the same
    // gate CI runs.
    let out = Command::new(env!("CARGO_BIN_EXE_icecube-check"))
        .arg("analyze")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
}

#[test]
fn analyze_json_is_byte_deterministic() {
    // CI diffs two runs; the report must be byte-identical, not merely
    // semantically equal.
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_icecube-check"))
            .args(["analyze", "--json"])
            .output()
            .expect("binary runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.status.code(), b.status.code());
    assert_eq!(a.stdout, b.stdout, "analyze --json must be deterministic");
}

#[test]
fn kernel_hot_paths_reach_zero_allocations_without_suppressions() {
    // The arena rewrite's regression gate: nothing reachable from the
    // ASL/AHT/BUC/PT recursion roots or the delta merge allocates, and
    // the kernel files get there by actually not allocating — not by
    // carrying `check:allow(alloc-hot-path)` suppressions. The golden count is
    // zero; any new finding or any new allow in these files is a
    // regression, not a number to rebalance.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let report = analyze_workspace(&root).expect("workspace parses");
    let alloc: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "alloc-hot-path")
        .collect();
    assert_eq!(
        alloc.len(),
        0,
        "unsuppressed alloc-hot-path findings: {alloc:#?}"
    );
    for file in [
        "crates/core/src/asl.rs",
        "crates/core/src/aht.rs",
        "crates/core/src/affinity.rs",
        "crates/core/src/cell.rs",
        "crates/core/src/store.rs",
        "crates/skiplist/src/lib.rs",
    ] {
        let src = std::fs::read_to_string(root.join(file)).expect("kernel source");
        assert!(
            !src.contains("check:allow(alloc-hot-path)"),
            "{file} reintroduced an alloc-hot-path suppression"
        );
    }
}

/// Every file-scoped `check:allow-file` suppression outside `crates/check`,
/// as `(file, lint)` in sorted order. A file that loses its suppression
/// deletes its row here; a new suppression fails the test below.
const FILE_SCOPED_SUPPRESSIONS: [(&str, &str); 19] = [
    ("crates/core/src/aht.rs", "panic-in-lib"),
    ("crates/core/src/aht.rs", "panic-path"),
    ("crates/core/src/asl.rs", "panic-in-lib"),
    ("crates/core/src/asl.rs", "panic-path"),
    ("crates/core/src/buc.rs", "panic-path"),
    ("crates/core/src/fixtures.rs", "panic-in-lib"),
    ("crates/core/src/fixtures.rs", "panic-path"),
    ("crates/core/src/htree.rs", "panic-path"),
    ("crates/core/src/htree.rs", "unordered-collections"),
    ("crates/core/src/naive.rs", "panic-in-lib"),
    ("crates/core/src/naive.rs", "unordered-collections"),
    ("crates/core/src/partition.rs", "panic-path"),
    ("crates/core/src/pt.rs", "panic-path"),
    ("crates/core/src/verify.rs", "panic-path"),
    ("crates/data/src/relation.rs", "panic-path"),
    ("crates/exec/src/native.rs", "thread-spawn"),
    ("crates/lattice/src/mask.rs", "panic-path"),
    ("crates/serve/src/workload.rs", "panic-path"),
    ("crates/skiplist/src/lib.rs", "panic-path"),
];

#[test]
fn file_scoped_suppressions_only_shrink() {
    // A file-scoped allow exempts a whole module from a lint, so the set
    // may only shrink: each one goes by a line-scoped allow or a rewrite.
    fn rs_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rs_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("directory entry").path();
        if dir.file_name().is_some_and(|n| n != "check") && dir.join("src").is_dir() {
            rs_files(&dir.join("src"), &mut files);
        }
    }
    let mut found = Vec::new();
    for file in files {
        let rel = file.strip_prefix(&root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(&file).expect("source file");
        for token in icecube_check::lexer::lex(&src) {
            let icecube_check::lexer::Tok::LineComment(text) = token.tok else {
                continue;
            };
            for allow in text.split("check:allow-file(").skip(1) {
                let lint = allow.split(')').next().unwrap_or_default();
                found.push((rel.clone(), lint.to_string()));
            }
        }
    }
    found.sort();
    let want: Vec<(String, String)> = FILE_SCOPED_SUPPRESSIONS
        .iter()
        .map(|&(file, lint)| (file.to_string(), lint.to_string()))
        .collect();
    assert_eq!(found, want, "file-scoped suppressions changed");
}

#[test]
fn json_report_roundtrips_through_to_json() {
    let report = analyze_sources(
        &[source(
            "crates/core/src/analyze_panic.rs",
            "core",
            include_str!("fixtures/analyze_panic.rs"),
        )],
        &empty_config(),
    );
    let json = to_json(&report);
    assert!(json.starts_with("{\"schema\":\"icecube-check-report/v2\""));
    assert!(json.contains("\"mode\":\"analyze\""));
    assert!(json.ends_with("}"));
}
