//! The interprocedural passes over the workspace call graph.
//!
//! Three passes share the graph [`crate::callgraph`] builds (DESIGN
//! §12):
//!
//! 1. **panic-path** — no pub fn of a `no_panic` policy crate may
//!    transitively reach a panic source (`panic!`, `.unwrap()`,
//!    `.expect()`, `[]`-indexing, `unreachable!`, …). The finding is
//!    anchored at the *sink* (where the panic lives) and prints the
//!    call path file:line-by-file:line from the nearest pub root, so a
//!    suppression sits next to the code whose invariant justifies it.
//! 2. **alloc-hot-path** — no fn reachable from the configured kernel
//!    recursion roots (BUC/ASL/AHT/PT) or the delta-merge loops may
//!    reach an allocating constructor. The roots are the *inner*
//!    recursion fns and the per-cuboid merges, so the scratch-arena
//!    prologue and the caller-allocated successors (which allocate by
//!    design, before the loop starts) are naturally out of scope.
//! 3. **lock-order + spawn-site** — functions in the lock scope
//!    (`exec/native.rs`, `crates/serve/src/`) get a transitive
//!    first-acquisition lock sequence; two functions acquiring the same
//!    two locks in opposite order are both flagged. Thread spawns must
//!    sit in the allowed files (or the crates allowed to own threads).
//!
//! All passes honour the `// check:allow(<lint>): <why>` grammar at the
//! finding's anchor line, share `--json`, and follow the binary's
//! exit-code contract.

use crate::callgraph::{CallGraph, Sink, SinkKind, SourceFile, Unresolved};
use crate::lints;
use crate::policy::policy_for;
use crate::report::{finding_json, json_str, Finding, SCHEMA};
use crate::workspace::collect_rs_files;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};

/// A recursion root: `(file suffix, impl owner, fn name)`.
pub type RootSpec = (&'static str, Option<&'static str>, &'static str);

/// What the passes treat as roots, scope and allowed spawn sites.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Roots of the hot-path allocation pass.
    pub alloc_roots: Vec<RootSpec>,
    /// File prefixes/suffixes whose fns join the lock-order pass.
    pub lock_scope: Vec<&'static str>,
    /// File suffixes allowed to spawn threads.
    pub spawn_allowed_files: Vec<&'static str>,
    /// Crates allowed to spawn threads anywhere (tooling, benches).
    pub spawn_allowed_crates: Vec<&'static str>,
}

impl AnalyzeConfig {
    /// The workspace's own configuration: the BUC/ASL/AHT/PT recursion
    /// cores and the delta-merge loops, the executor-and-server lock
    /// scope, and the two sanctioned spawn files.
    pub fn workspace_default() -> AnalyzeConfig {
        AnalyzeConfig {
            alloc_roots: vec![
                // BUC: the depth-first and breadth-per-partition cores.
                ("core/src/buc.rs", Some("Engine"), "df"),
                ("core/src/buc.rs", Some("Engine"), "df_descend"),
                ("core/src/buc.rs", Some("Engine"), "bpp_from_root"),
                ("core/src/buc.rs", Some("Engine"), "bpp_recurse"),
                // ASL: per-task cuboid construction.
                ("core/src/asl.rs", None, "prefix_reuse"),
                ("core/src/asl.rs", None, "subset_create"),
                ("core/src/asl.rs", None, "scratch_create"),
                // AHT: the collapse/upsert loop.
                ("core/src/aht.rs", Some("AffinityHashTable"), "upsert"),
                ("core/src/aht.rs", Some("AffinityHashTable"), "collapse"),
                // The thresholded cuboid emit ASL, AHT and the top-down
                // comparators share.
                ("core/src/cell.rs", None, "emit_cuboid"),
                // PT: the shared sort-cache fill.
                ("core/src/pt.rs", Some("SortCache"), "prepare"),
                // The delta merge and the view upsert: their caller
                // allocates each successor, they only fill it.
                ("core/src/store.rs", None, "merge_cuboid"),
                ("core/src/store.rs", None, "upsert_cuboid"),
            ],
            lock_scope: vec!["crates/exec/src/native.rs", "crates/serve/src/"],
            spawn_allowed_files: vec!["crates/exec/src/native.rs", "crates/serve/src/server.rs"],
            spawn_allowed_crates: vec!["bench", "check"],
        }
    }
}

/// What one analyzer run produced.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Findings after suppressions, sorted (file, line, lint, message).
    pub findings: Vec<Finding>,
    /// Method calls the resolver gave up on (reported, not failing).
    pub unresolved: Vec<Unresolved>,
    /// Node count, for the summary line.
    pub fn_count: usize,
    /// Edge count, for the summary line.
    pub edge_count: usize,
}

/// Runs all three passes over in-memory sources. The fixture tests use
/// this directly with synthetic configs.
pub fn analyze_sources(sources: &[SourceFile], config: &AnalyzeConfig) -> AnalysisReport {
    let graph = CallGraph::build(sources);
    let mut raw: BTreeSet<(String, u32, &'static str, String)> = BTreeSet::new();

    panic_pass(&graph, &mut raw);
    alloc_pass(&graph, config, &mut raw);
    lock_pass(&graph, config, &mut raw);
    spawn_pass(&graph, config, &mut raw);

    // Suppressions: same grammar and adjacency rules as the lint pass.
    // Hygiene findings are the lint pass's job — discarded here so one
    // bare allow is not double-reported.
    let mut suppressions = BTreeMap::new();
    for (path, parsed) in &graph.files {
        let mut discard = Vec::new();
        let sup = lints::collect_suppressions(&parsed.comment_lines, &mut discard, path);
        suppressions.insert(path.clone(), sup);
    }
    let findings: Vec<Finding> = raw
        .into_iter()
        .filter(|(file, line, lint, _)| match graph.files.get(file) {
            Some(parsed) => !lints::suppression_covers(
                &suppressions[file],
                &parsed.comment_lines,
                &parsed.code_lines,
                *line,
                lint,
            ),
            None => true, // config errors have no source to suppress in
        })
        .map(|(file, line, lint, message)| Finding::new(&file, line, lint, message))
        .collect();

    let fn_count = graph.nodes.len();
    let edge_count = graph.edge_count();
    AnalysisReport {
        findings,
        unresolved: graph.unresolved,
        fn_count,
        edge_count,
    }
}

/// Runs the workspace-default analysis over `crates/*/src/**/*.rs`
/// under `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<AnalysisReport> {
    let mut sources = Vec::new();
    let crates_dir = root.join("crates");
    let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for crate_dir in crates {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push(SourceFile {
                path: rel,
                crate_name: crate_name.clone(),
                src: fs::read_to_string(&file)?,
            });
        }
    }
    Ok(analyze_sources(
        &sources,
        &AnalyzeConfig::workspace_default(),
    ))
}

/// Renders an [`AnalysisReport`] as the v2 JSON document.
pub fn to_json(report: &AnalysisReport) -> String {
    let mut out = format!(
        "{{\"schema\":{},\"mode\":\"analyze\",\"fns\":{},\"edges\":{},\"unresolved\":[",
        json_str(SCHEMA),
        report.fn_count,
        report.edge_count,
    );
    for (i, u) in report.unresolved.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cands: Vec<String> = u.candidates.iter().map(|c| json_str(c)).collect();
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"method\":{},\"candidates\":[{}]}}",
            json_str(&u.file),
            u.line,
            json_str(&u.method),
            cands.join(","),
        ));
    }
    out.push_str("],\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&finding_json(f));
    }
    out.push_str(&format!("],\"count\":{}}}", report.findings.len()));
    out
}

/// In the BFS forest, how a node was reached: its parent and the
/// call-site line inside the parent.
type Parent = Option<(usize, u32)>;

/// Multi-source BFS over the call graph. Returns `parents[n]`:
/// `None` if unreached, `Some(None)` for roots, `Some(Some((p, line)))`
/// for nodes reached from parent `p` at `p`'s `line`. Root order is the
/// sorted node order, so nearest-root ties break deterministically.
fn bfs(graph: &CallGraph, roots: &[usize]) -> Vec<Option<Parent>> {
    let mut parents: Vec<Option<Parent>> = vec![None; graph.nodes.len()];
    let mut queue = VecDeque::new();
    for &r in roots {
        if parents[r].is_none() {
            parents[r] = Some(None);
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &(callee, line) in &graph.edges[n] {
            if parents[callee].is_none() {
                parents[callee] = Some(Some((n, line)));
                queue.push_back(callee);
            }
        }
    }
    parents
}

/// The `file:line -> … -> file:line` chain from `node`'s root down to
/// `sink`, plus the qualified name of the root it starts at.
fn path_to(
    graph: &CallGraph,
    parents: &[Option<Parent>],
    node: usize,
    sink: &Sink,
) -> (String, String) {
    let mut hops = vec![format!("{}:{}", graph.nodes[node].file, sink.line)];
    let mut at = node;
    while let Some(Some((parent, line))) = parents[at] {
        hops.push(format!("{}:{}", graph.nodes[parent].file, line));
        at = parent;
    }
    hops.reverse();
    (graph.nodes[at].qualified(), hops.join(" -> "))
}

/// Pass 1: panic sources reachable from pub fns of no-panic crates.
fn panic_pass(graph: &CallGraph, out: &mut BTreeSet<(String, u32, &'static str, String)>) {
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.is_pub && policy_for(&n.crate_name).is_some_and(|p| p.no_panic))
        .map(|(i, _)| i)
        .collect();
    let parents = bfs(graph, &roots);
    for (n, reached) in parents.iter().enumerate() {
        if reached.is_none() {
            continue;
        }
        for sink in &graph.sinks[n] {
            if sink.kind != SinkKind::Panic {
                continue;
            }
            let (root, path) = path_to(graph, &parents, n, sink);
            out.insert((
                graph.nodes[n].file.clone(),
                sink.line,
                "panic-path",
                format!("`{}` reachable from pub fn `{root}` via {path}", sink.what),
            ));
        }
    }
}

/// Pass 2: allocating constructors reachable from the recursion roots.
fn alloc_pass(
    graph: &CallGraph,
    config: &AnalyzeConfig,
    out: &mut BTreeSet<(String, u32, &'static str, String)>,
) {
    let mut roots = Vec::new();
    for &(suffix, owner, name) in &config.alloc_roots {
        let found = graph.nodes.iter().position(|n| {
            n.file.ends_with(suffix) && n.owner.as_deref() == owner && n.name == name
        });
        match found {
            Some(i) => roots.push(i),
            None => {
                // A silently missing root would hollow the pass out; a
                // renamed kernel fn must update the config.
                let label = match owner {
                    Some(o) => format!("{o}::{name}"),
                    None => name.to_string(),
                };
                out.insert((
                    suffix.to_string(),
                    0,
                    "alloc-hot-path",
                    format!("configured recursion root `{label}` not found in `{suffix}`"),
                ));
            }
        }
    }
    let parents = bfs(graph, &roots);
    for (n, reached) in parents.iter().enumerate() {
        if reached.is_none() {
            continue;
        }
        for sink in &graph.sinks[n] {
            if sink.kind != SinkKind::Alloc {
                continue;
            }
            let (root, path) = path_to(graph, &parents, n, sink);
            out.insert((
                graph.nodes[n].file.clone(),
                sink.line,
                "alloc-hot-path",
                format!(
                    "`{}` allocates in the recursion reachable from `{root}` via {path}",
                    sink.what
                ),
            ));
        }
    }
}

/// Pass 3a: opposite-order lock pairs among the scoped functions.
fn lock_pass(
    graph: &CallGraph,
    config: &AnalyzeConfig,
    out: &mut BTreeSet<(String, u32, &'static str, String)>,
) {
    let in_scope = |file: &str| {
        config
            .lock_scope
            .iter()
            .any(|s| file.starts_with(s) || file.ends_with(s))
    };
    let scoped: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| in_scope(&n.file))
        .map(|(i, _)| i)
        .collect();
    // Transitive first-acquisition sequences, memoized; cycles cut by
    // the in-progress marker.
    let mut memo: Vec<Option<Vec<String>>> = vec![None; graph.nodes.len()];
    let mut in_progress = vec![false; graph.nodes.len()];
    for &s in &scoped {
        lock_seq(graph, s, &mut memo, &mut in_progress);
    }
    for (a, &fa) in scoped.iter().enumerate() {
        let seq_a = memo[fa].clone().unwrap_or_default();
        for &fb in scoped.iter().skip(a + 1) {
            let seq_b = memo[fb].clone().unwrap_or_default();
            for (i, la) in seq_a.iter().enumerate() {
                for lb in seq_a.iter().skip(i + 1) {
                    let pa = seq_b.iter().position(|l| l == la);
                    let pb = seq_b.iter().position(|l| l == lb);
                    if let (Some(pa), Some(pb)) = (pa, pb) {
                        if pb < pa {
                            // Opposite order: flag both functions.
                            for (site, other) in [(fa, fb), (fb, fa)] {
                                out.insert((
                                    graph.nodes[site].file.clone(),
                                    graph.nodes[site].line,
                                    "lock-order",
                                    format!(
                                        "`{}` acquires locks `{la}` and `{lb}` in the opposite \
                                         order of `{}` ({}:{})",
                                        graph.nodes[site].qualified(),
                                        graph.nodes[other].qualified(),
                                        graph.nodes[other].file,
                                        graph.nodes[other].line,
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The ordered list of distinct lock identities `node` acquires,
/// directly or transitively, in first-acquisition order. Anonymous
/// `<expr>` receivers are dropped — an unidentifiable lock cannot be
/// ordered against anything.
fn lock_seq(
    graph: &CallGraph,
    node: usize,
    memo: &mut Vec<Option<Vec<String>>>,
    in_progress: &mut Vec<bool>,
) -> Vec<String> {
    if let Some(seq) = &memo[node] {
        return seq.clone();
    }
    if in_progress[node] {
        return Vec::new(); // recursion: the cycle adds nothing new
    }
    in_progress[node] = true;
    // Interleave own lock sinks and call edges in source-line order.
    let mut items: Vec<(u32, Result<&str, usize>)> = Vec::new();
    for sink in &graph.sinks[node] {
        if sink.kind == SinkKind::Lock && sink.what != "<expr>" {
            items.push((sink.line, Ok(&sink.what)));
        }
    }
    for &(callee, line) in &graph.edges[node] {
        items.push((line, Err(callee)));
    }
    items.sort_by_key(|&(line, _)| line);
    let mut seq: Vec<String> = Vec::new();
    let push = |name: String, seq: &mut Vec<String>| {
        if !seq.contains(&name) {
            seq.push(name);
        }
    };
    for (_, item) in items {
        match item {
            Ok(name) => push(name.to_string(), &mut seq),
            Err(callee) => {
                for name in lock_seq(graph, callee, memo, in_progress) {
                    push(name, &mut seq);
                }
            }
        }
    }
    in_progress[node] = false;
    memo[node] = Some(seq.clone());
    seq
}

/// Pass 3b: thread spawns outside the allowed files and crates.
fn spawn_pass(
    graph: &CallGraph,
    config: &AnalyzeConfig,
    out: &mut BTreeSet<(String, u32, &'static str, String)>,
) {
    for (n, node) in graph.nodes.iter().enumerate() {
        if config
            .spawn_allowed_files
            .iter()
            .any(|f| node.file.ends_with(f))
            || config
                .spawn_allowed_crates
                .iter()
                .any(|c| node.crate_name == *c)
        {
            continue;
        }
        for sink in &graph.sinks[n] {
            if sink.kind == SinkKind::Spawn {
                out.insert((
                    node.file.clone(),
                    sink.line,
                    "spawn-site",
                    format!(
                        "`{}` spawns a thread in `{}`, which is not an allowed spawn site",
                        node.qualified(),
                        node.file,
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(path: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            src: src.to_string(),
        }
    }

    fn empty_config() -> AnalyzeConfig {
        AnalyzeConfig {
            alloc_roots: vec![],
            lock_scope: vec![],
            spawn_allowed_files: vec![],
            spawn_allowed_crates: vec![],
        }
    }

    #[test]
    fn panic_pass_reports_the_transitive_path() {
        // `core` is a no-panic crate; the panic is two hops from the
        // pub root and must be reported at the sink with the full path.
        let report = analyze_sources(
            &[source(
                "crates/core/src/lib.rs",
                "core",
                "pub fn entry(x: Option<u32>) {\n    step(x);\n}\nfn step(x: Option<u32>) {\n    deep(x);\n}\nfn deep(x: Option<u32>) {\n    x.unwrap();\n}",
            )],
            &empty_config(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.lint, "panic-path");
        assert_eq!((f.file.as_str(), f.line), ("crates/core/src/lib.rs", 8));
        assert!(f.message.contains("core::entry"), "{}", f.message);
        assert!(
            f.message.contains(
                "crates/core/src/lib.rs:2 -> crates/core/src/lib.rs:5 -> crates/core/src/lib.rs:8"
            ),
            "{}",
            f.message
        );
    }

    #[test]
    fn non_pub_and_unreachable_panics_are_not_findings() {
        let report = analyze_sources(
            &[source(
                "crates/core/src/lib.rs",
                "core",
                "fn private(x: Option<u32>) {\n    x.unwrap();\n}\npub fn entry() {}",
            )],
            &empty_config(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn lenient_crates_get_no_panic_pass() {
        let report = analyze_sources(
            &[source(
                "crates/bench/src/lib.rs",
                "bench",
                "pub fn entry(x: Option<u32>) {\n    x.unwrap();\n}",
            )],
            &empty_config(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn alloc_pass_follows_calls_from_configured_roots() {
        let mut config = empty_config();
        config.alloc_roots = vec![("kern.rs", None, "recurse")];
        let report = analyze_sources(
            &[source(
                "crates/data/src/kern.rs",
                "data",
                "fn recurse(n: usize) {\n    helper(n);\n}\nfn helper(n: usize) {\n    let _v = Vec::with_capacity(n);\n}\nfn cold() {\n    let _v = Vec::new();\n}",
            )],
            &config,
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.lint, "alloc-hot-path");
        assert_eq!(f.line, 5, "the sink, not the root");
        assert!(f.message.contains("Vec::with_capacity"), "{}", f.message);
        assert!(f.message.contains("data::recurse"), "{}", f.message);
    }

    #[test]
    fn missing_alloc_roots_are_loud() {
        let mut config = empty_config();
        config.alloc_roots = vec![("kern.rs", Some("Gone"), "vanished")];
        let report = analyze_sources(
            &[source("crates/data/src/kern.rs", "data", "fn present() {}")],
            &config,
        );
        assert_eq!(report.findings.len(), 1);
        assert!(
            report.findings[0].message.contains("Gone::vanished"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn lock_pass_flags_opposite_order_pairs_in_both_functions() {
        let mut config = empty_config();
        config.lock_scope = vec!["crates/serve/src/"];
        let report = analyze_sources(
            &[source(
                "crates/serve/src/pool.rs",
                "serve",
                "struct P;\nimpl P {\n    fn ab(&self) {\n        self.a.lock();\n        self.b.lock();\n    }\n    fn ba(&self) {\n        self.b.lock();\n        self.a.lock();\n    }\n    fn also_ab(&self) {\n        self.a.lock();\n        self.b.lock();\n    }\n}",
            )],
            &config,
        );
        let locks: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.lint == "lock-order")
            .collect();
        // ab/ba and also_ab/ba invert; ab/also_ab agree. Two findings
        // per inverting pair, anchored at each function.
        assert_eq!(locks.len(), 4, "{locks:?}");
        assert!(locks.iter().any(|f| f.line == 3), "anchored at ab");
        assert!(locks.iter().any(|f| f.line == 7), "anchored at ba");
        assert!(locks.iter().any(|f| f.line == 11), "anchored at also_ab");
    }

    #[test]
    fn lock_order_is_transitive_through_calls() {
        let mut config = empty_config();
        config.lock_scope = vec!["crates/serve/src/"];
        let report = analyze_sources(
            &[source(
                "crates/serve/src/pool.rs",
                "serve",
                "struct P;\nimpl P {\n    fn outer(&self) {\n        self.a.lock();\n        self.tail();\n    }\n    fn tail(&self) {\n        self.b.lock();\n    }\n    fn ba(&self) {\n        self.b.lock();\n        self.a.lock();\n    }\n}",
            )],
            &config,
        );
        let locks: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.lint == "lock-order")
            .collect();
        // outer transitively acquires a then b; ba inverts it. tail
        // alone holds one lock and conflicts with nobody.
        assert_eq!(locks.len(), 2, "{locks:?}");
        assert!(locks.iter().any(|f| f.line == 3));
        assert!(locks.iter().any(|f| f.line == 10));
    }

    #[test]
    fn spawn_pass_enforces_the_allowed_sites() {
        let mut config = empty_config();
        config.spawn_allowed_files = vec!["crates/exec/src/native.rs"];
        config.spawn_allowed_crates = vec!["bench"];
        let report = analyze_sources(
            &[
                source(
                    "crates/exec/src/native.rs",
                    "exec",
                    "fn pool() { std::thread::spawn(|| {}); }",
                ),
                source(
                    "crates/bench/src/lib.rs",
                    "bench",
                    "fn drive() { std::thread::spawn(|| {}); }",
                ),
                source(
                    "crates/data/src/lib.rs",
                    "data",
                    "fn rogue() { std::thread::spawn(|| {}); }",
                ),
            ],
            &config,
        );
        let spawns: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.lint == "spawn-site")
            .collect();
        assert_eq!(spawns.len(), 1, "{spawns:?}");
        assert_eq!(spawns[0].file, "crates/data/src/lib.rs");
    }

    #[test]
    fn allows_silence_exactly_their_finding() {
        let report = analyze_sources(
            &[source(
                "crates/core/src/lib.rs",
                "core",
                "pub fn entry(x: Option<u32>, y: Option<u32>) {\n    // check:allow(panic-path): x is Some by construction here.\n    x.unwrap();\n    y.unwrap();\n}",
            )],
            &empty_config(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(
            report.findings[0].line, 4,
            "only the allowed line is silenced"
        );
    }

    #[test]
    fn json_is_versioned_and_lists_unresolved() {
        let report = analyze_sources(
            &[source(
                "crates/core/src/lib.rs",
                "core",
                "struct X;\nimpl X { fn go(&self) {} }\nstruct Y;\nimpl Y { fn go(&self) {} }\nfn f(t: bool) {\n    let h = pick(t);\n    h.go();\n}\nfn pick(_: bool) -> X { X }",
            )],
            &empty_config(),
        );
        let j = to_json(&report);
        assert!(j.starts_with("{\"schema\":\"icecube-check-report/v2\",\"mode\":\"analyze\""));
        assert!(j.contains("\"method\":\"go\""), "{j}");
        assert!(j.contains("core::X::go"), "{j}");
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let sources = [
            source(
                "crates/core/src/b.rs",
                "core",
                "pub fn b(x: Option<u32>) { x.unwrap(); }",
            ),
            source(
                "crates/core/src/a.rs",
                "core",
                "pub fn a(v: &[u32]) { let _ = v[0]; }",
            ),
        ];
        let mut reversed = sources.clone();
        reversed.reverse();
        let one = to_json(&analyze_sources(&sources, &empty_config()));
        let two = to_json(&analyze_sources(&reversed, &empty_config()));
        assert_eq!(one, two, "byte-identical regardless of input order");
    }
}
