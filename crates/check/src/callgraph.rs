//! The workspace-wide call graph the analysis passes run over.
//!
//! Nodes are every non-test function [`crate::parser`] finds. Edges are
//! resolved from body events by name, scoped per crate, with receiver
//! types recovered from `self`, typed parameters and `let x = Type::…`
//! bindings. Resolution is deliberately conservative (DESIGN §12): a
//! call we cannot place either stays *external* (no edge — the common
//! case for std methods) or, when several workspace functions share the
//! name and nothing disambiguates, lands in the [`Unresolved`] bucket
//! that `--json` reports verbatim. A wrong edge would fabricate
//! findings; a missing edge is visible in the bucket.
//!
//! Terminal *sinks* (panic sources, allocating constructors, lock
//! acquisitions, thread spawns) are recorded per node instead of being
//! edges, so every pass is a reachability question plus a sink filter.

use crate::lints::PANIC_MACROS;
use crate::parser::{parse_file, EventKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Method names that are panic sources when called on anything.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Method names that allocate.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "collect"];
/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// `Type::fn` paths that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "with_capacity"),
];

/// Method names std's own containers/iterators/sync types define. The
/// *untyped*-receiver fallback never unique-name-resolves these to a
/// workspace method: `chain.insert(..)` on an untyped local is almost
/// certainly `Vec::insert`, and an edge to some workspace `insert`
/// would fabricate call paths. Typed receivers are unaffected.
const STD_METHODS: &[&str] = &[
    "insert",
    "remove",
    "get",
    "get_mut",
    "push",
    "pop",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "entry",
    "extend",
    "extend_from_slice",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "split_at",
    "split_at_mut",
    "swap",
    "reverse",
    "drain",
    "retain",
    "truncate",
    "resize",
    "reserve",
    "fill",
    "first",
    "last",
    "first_mut",
    "last_mut",
    "join",
    "split",
    "find",
    "position",
    "map",
    "and_then",
    "take",
    "replace",
    "send",
    "recv",
    "try_recv",
    "next",
    "peek",
    "count",
    "sum",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "push_str",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "load",
    "store",
    "fetch_add",
    "to_string",
    "parse",
    "as_str",
    "as_slice",
    "as_ref",
    "as_mut",
    "windows",
    "chunks",
    "flatten",
    "enumerate",
    "zip",
    "rev",
    "skip",
    "chain",
    "filter",
    "fold",
    "all",
    "any",
    "cloned",
    "copied",
    "get_or_insert_with",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "starts_with",
    "ends_with",
];

/// One source file handed to the graph builder.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Crate directory name (`core`, `serve`, …).
    pub crate_name: String,
    /// File contents.
    pub src: String,
}

/// One call-graph node: a non-test function.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate directory name.
    pub crate_name: String,
    /// Enclosing impl/trait type, if any.
    pub owner: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Unrestricted `pub`.
    pub is_pub: bool,
}

impl FnNode {
    /// `crate::Owner::name` — the display name findings use.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{}::{}::{}", self.crate_name, owner, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// What a terminal sink does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Can panic (`unwrap`, `panic!`, `[]`-indexing, …).
    Panic,
    /// Allocates (`clone`, `Vec::new`, `vec!`, …).
    Alloc,
    /// Acquires a lock; `what` names the lock.
    Lock,
    /// Spawns a thread.
    Spawn,
}

/// One terminal sink inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// 1-based source line of the sink expression.
    pub line: u32,
    /// Category.
    pub kind: SinkKind,
    /// Human name: `.unwrap()`, `panic!`, `[]-indexing`, `Vec::new`,
    /// or — for locks — the receiver identity (`rx`, `queue`).
    pub what: String,
}

/// A method call the resolver could not place: several workspace
/// functions share the name and no receiver type disambiguates.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Unresolved {
    /// Call-site file.
    pub file: String,
    /// Call-site line.
    pub line: u32,
    /// The method name.
    pub method: String,
    /// Qualified names of the candidate definitions.
    pub candidates: Vec<String>,
}

/// One call edge: callee index plus the 1-based call-site line.
pub type Edge = (usize, u32);

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions, sorted by (file, line).
    pub nodes: Vec<FnNode>,
    /// Outgoing edges per node, sorted and deduplicated.
    pub edges: Vec<Vec<Edge>>,
    /// Terminal sinks per node, in source order.
    pub sinks: Vec<Vec<Sink>>,
    /// Method calls resolution gave up on, sorted.
    pub unresolved: Vec<Unresolved>,
    /// Parsed per-file views, kept for suppression matching.
    pub files: BTreeMap<String, ParsedFile>,
}

impl CallGraph {
    /// Builds the graph from parsed sources. Deterministic: nodes,
    /// edges and the unresolved bucket come out sorted.
    pub fn build(sources: &[SourceFile]) -> CallGraph {
        let mut graph = CallGraph::default();
        // Parse every file and collect nodes with back-references to
        // their defining (file, fn index) for the event pass.
        let mut sorted: Vec<&SourceFile> = sources.iter().collect();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));
        let mut fn_refs: Vec<(usize, usize)> = Vec::new(); // (source idx, fn idx)
        for (si, source) in sorted.iter().enumerate() {
            let parsed = parse_file(&source.src);
            for (fi, def) in parsed.fns.iter().enumerate() {
                if def.is_test {
                    continue;
                }
                graph.nodes.push(FnNode {
                    file: source.path.clone(),
                    crate_name: source.crate_name.clone(),
                    owner: def.owner.clone(),
                    name: def.name.clone(),
                    line: def.line,
                    is_pub: def.is_pub,
                });
                fn_refs.push((si, fi));
            }
            graph.files.insert(source.path.clone(), parsed);
        }

        // Name indexes. Values stay sorted because nodes are.
        let mut by_owner_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, node) in graph.nodes.iter().enumerate() {
            match &node.owner {
                Some(owner) => {
                    by_owner_name
                        .entry((owner.clone(), node.name.clone()))
                        .or_default()
                        .push(i);
                    methods_by_name
                        .entry(node.name.clone())
                        .or_default()
                        .push(i);
                }
                None => {
                    free_by_crate
                        .entry((node.crate_name.clone(), node.name.clone()))
                        .or_default()
                        .push(i);
                }
            }
        }
        // Free functions by bare name, for workspace-unique fallback.
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, node) in graph.nodes.iter().enumerate() {
            if node.owner.is_none() {
                free_by_name.entry(node.name.clone()).or_default().push(i);
            }
        }

        let mut unresolved: BTreeSet<Unresolved> = BTreeSet::new();
        for (ni, &(si, fi)) in fn_refs.iter().enumerate() {
            let source = sorted[si];
            let def = &graph.files[&source.path].fns[fi];
            let node_crate = source.crate_name.clone();
            let owner = graph.nodes[ni].owner.clone();
            let mut edges: BTreeSet<Edge> = BTreeSet::new();
            let mut sinks: Vec<Sink> = Vec::new();
            for event in &def.events {
                match &event.kind {
                    EventKind::Index => sinks.push(Sink {
                        line: event.line,
                        kind: SinkKind::Panic,
                        what: "[]-indexing".to_string(),
                    }),
                    EventKind::MacroUse { name } => {
                        if PANIC_MACROS.contains(&name.as_str()) {
                            sinks.push(Sink {
                                line: event.line,
                                kind: SinkKind::Panic,
                                what: format!("{name}!"),
                            });
                        } else if ALLOC_MACROS.contains(&name.as_str()) {
                            sinks.push(Sink {
                                line: event.line,
                                kind: SinkKind::Alloc,
                                what: format!("{name}!"),
                            });
                        }
                    }
                    EventKind::Method { chain, name } => {
                        if PANIC_METHODS.contains(&name.as_str()) {
                            sinks.push(Sink {
                                line: event.line,
                                kind: SinkKind::Panic,
                                what: format!(".{name}()"),
                            });
                            continue;
                        }
                        if ALLOC_METHODS.contains(&name.as_str()) {
                            sinks.push(Sink {
                                line: event.line,
                                kind: SinkKind::Alloc,
                                what: format!(".{name}()"),
                            });
                            continue;
                        }
                        if name == "lock" {
                            sinks.push(Sink {
                                line: event.line,
                                kind: SinkKind::Lock,
                                what: lock_identity(chain),
                            });
                            continue;
                        }
                        if name == "spawn" {
                            sinks.push(Sink {
                                line: event.line,
                                kind: SinkKind::Spawn,
                                what: ".spawn()".to_string(),
                            });
                            continue;
                        }
                        // Receiver type, when the chain makes it evident.
                        let recv_type = match chain.as_slice() {
                            [one] if one == "self" => owner.clone(),
                            [one] => def.bindings.get(one).cloned(),
                            _ => None,
                        };
                        if let Some(ty) = recv_type {
                            if let Some(cands) = by_owner_name.get(&(ty, name.clone())) {
                                for &c in prefer_crate(cands, &graph.nodes, &node_crate) {
                                    edges.insert((c, event.line));
                                }
                            }
                            // Typed receiver without a workspace method:
                            // a std/trait method — external, no edge.
                            continue;
                        }
                        // Untyped receiver: unique-name heuristic with
                        // the unresolved escape hatch. Std container/
                        // iterator names are excluded outright — they
                        // would resolve to coincidental namesakes.
                        if STD_METHODS.contains(&name.as_str()) {
                            continue;
                        }
                        let cands = methods_by_name
                            .get(name)
                            .map(Vec::as_slice)
                            .unwrap_or_default();
                        let narrowed = prefer_crate(cands, &graph.nodes, &node_crate);
                        match narrowed.len() {
                            0 => {} // external
                            1 => {
                                edges.insert((narrowed[0], event.line));
                            }
                            _ => {
                                unresolved.insert(Unresolved {
                                    file: source.path.clone(),
                                    line: event.line,
                                    method: name.clone(),
                                    candidates: narrowed
                                        .iter()
                                        .map(|&c| graph.nodes[c].qualified())
                                        .collect(),
                                });
                            }
                        }
                    }
                    EventKind::PathCall { segments } => {
                        resolve_path_call(
                            segments,
                            event.line,
                            &owner,
                            &node_crate,
                            &source.path,
                            &graph.nodes,
                            &by_owner_name,
                            &free_by_crate,
                            &free_by_name,
                            &mut edges,
                            &mut sinks,
                        );
                    }
                }
            }
            graph.edges.push(edges.into_iter().collect());
            graph.sinks.push(sinks);
        }
        graph.unresolved = unresolved.into_iter().collect();
        graph
    }

    /// Node index of the function defined at `file`:`line`, if any.
    pub fn node_at(&self, file: &str, line: u32) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.file == file && n.line == line)
    }

    /// Total edge count (for the summary line).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// The lock identity a receiver chain names: the chain without a leading
/// `self`, joined with dots (`self.inner.rx` → `inner.rx`). An empty or
/// opaque chain gets the catch-all name `<expr>`.
fn lock_identity(chain: &[String]) -> String {
    let trimmed: Vec<&str> = chain
        .iter()
        .map(String::as_str)
        .skip_while(|s| *s == "self")
        .collect();
    if trimmed.is_empty() {
        "<expr>".to_string()
    } else {
        trimmed.join(".")
    }
}

/// Narrows candidates to the caller's crate when any live there;
/// same-crate definitions shadow cross-crate namesakes.
fn prefer_crate<'a>(cands: &'a [usize], nodes: &[FnNode], crate_name: &str) -> &'a [usize] {
    let same: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].crate_name == crate_name)
        .collect();
    if same.is_empty() {
        cands
    } else {
        // Candidates are contiguous in the sorted node order only within
        // one crate; find the matching subslice.
        let start = cands
            .iter()
            .position(|&c| nodes[c].crate_name == crate_name)
            .unwrap_or(0);
        &cands[start..start + same.len()]
    }
}

/// Maps a path's first segment to a workspace crate directory name
/// (`icecube_core` → `core`).
fn crate_of_segment(seg: &str) -> Option<String> {
    seg.strip_prefix("icecube_").map(str::to_string)
}

/// Resolves `a::b::c(..)` and bare `f(..)` calls into edges or sinks.
#[allow(clippy::too_many_arguments)]
fn resolve_path_call(
    segments: &[String],
    line: u32,
    owner: &Option<String>,
    node_crate: &str,
    caller_file: &str,
    nodes: &[FnNode],
    by_owner_name: &BTreeMap<(String, String), Vec<usize>>,
    free_by_crate: &BTreeMap<(String, String), Vec<usize>>,
    free_by_name: &BTreeMap<String, Vec<usize>>,
    edges: &mut BTreeSet<Edge>,
    sinks: &mut Vec<Sink>,
) {
    let last = segments.last().expect("paths have segments").clone();
    // `std::thread::spawn` / `thread::spawn`.
    if segments.len() >= 2 && last == "spawn" && segments[segments.len() - 2] == "thread" {
        sinks.push(Sink {
            line,
            kind: SinkKind::Spawn,
            what: "thread::spawn".to_string(),
        });
        return;
    }
    if segments.len() >= 2 {
        let ty = &segments[segments.len() - 2];
        if ALLOC_PATHS
            .iter()
            .any(|(t, f)| *t == ty.as_str() && *f == last)
        {
            sinks.push(Sink {
                line,
                kind: SinkKind::Alloc,
                what: format!("{ty}::{last}"),
            });
            return;
        }
    }
    if segments.len() == 1 {
        // A bare call: a free function in scope, or an imported one that
        // is unique in the workspace. Uppercase names are tuple-struct
        // or variant constructors, never workspace fns. Same-file
        // definitions shadow same-crate namesakes — a private free fn is
        // only callable unqualified from its own module.
        if last.chars().next().is_some_and(char::is_uppercase) {
            return;
        }
        if let Some(cands) = free_by_crate.get(&(node_crate.to_string(), last.clone())) {
            let same_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| nodes[c].file == caller_file)
                .collect();
            for &c in if same_file.is_empty() {
                cands
            } else {
                &same_file
            } {
                edges.insert((c, line));
            }
            return;
        }
        if let Some(cands) = free_by_name.get(&last) {
            if cands.len() == 1 {
                edges.insert((cands[0], line));
            }
        }
        return;
    }
    // `Type::method(..)`, with `Self` substituted from the impl owner.
    let mut ty = segments[segments.len() - 2].clone();
    if ty == "Self" {
        if let Some(owner) = owner {
            ty = owner.clone();
        }
    }
    if ty.chars().next().is_some_and(char::is_uppercase) {
        if let Some(cands) = by_owner_name.get(&(ty, last.clone())) {
            for &c in prefer_crate(cands, nodes, node_crate) {
                edges.insert((c, line));
            }
        }
        return;
    }
    // `crate::…::f`, `self::f`, `icecube_x::…::f` — a crate-qualified
    // free function; anything else (e.g. `std::mem::replace`) stays
    // external.
    let target_crate = match segments[0].as_str() {
        "crate" | "self" | "super" => Some(node_crate.to_string()),
        seg => crate_of_segment(seg),
    };
    if let Some(target) = target_crate {
        if let Some(cands) = free_by_crate.get(&(target, last)) {
            for &c in cands {
                edges.insert((c, line));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            src: src.to_string(),
        }
    }

    fn graph(sources: &[SourceFile]) -> CallGraph {
        CallGraph::build(sources)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no node `{name}` in {:?}", g.nodes))
    }

    fn callees(g: &CallGraph, from: &str) -> Vec<String> {
        g.edges[node(g, from)]
            .iter()
            .map(|&(c, _)| g.nodes[c].qualified())
            .collect()
    }

    #[test]
    fn free_fn_calls_resolve_within_the_crate() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "fn top() { helper(); }\nfn helper() {}",
        )]);
        assert_eq!(callees(&g, "top"), vec!["a::helper"]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn self_methods_resolve_via_the_impl_owner() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "struct S;\nimpl S {\n    fn a(&self) { self.b(); }\n    fn b(&self) {}\n}",
        )]);
        assert_eq!(callees(&g, "a"), vec!["a::S::b"]);
    }

    #[test]
    fn typed_parameters_resolve_methods_cross_crate() {
        let g = graph(&[
            src(
                "crates/a/src/lib.rs",
                "a",
                "pub struct Store;\nimpl Store {\n    pub fn get(&self) {}\n}",
            ),
            src(
                "crates/b/src/lib.rs",
                "b",
                "fn read(store: &Store) { store.get(); }",
            ),
        ]);
        assert_eq!(callees(&g, "read"), vec!["a::Store::get"]);
    }

    #[test]
    fn typed_receivers_without_workspace_methods_stay_external() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "fn f(v: Vec<u32>) { v.push(1); }\nstruct T;\nimpl T { fn push(&self) {} }",
        )]);
        // `v` is typed `Vec`, so `T::push` must NOT be linked.
        assert!(callees(&g, "f").is_empty(), "{:?}", callees(&g, "f"));
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn ambiguous_untyped_methods_land_in_the_unresolved_bucket() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "struct X;\nimpl X { fn go(&self) {} }\nstruct Y;\nimpl Y { fn go(&self) {} }\nfn f(t: bool) {\n    let h = pick(t);\n    h.go();\n}\nfn pick(_: bool) -> X { X }",
        )]);
        assert_eq!(g.unresolved.len(), 1, "{:?}", g.unresolved);
        assert_eq!(g.unresolved[0].method, "go");
        assert_eq!(g.unresolved[0].candidates, vec!["a::X::go", "a::Y::go"]);
    }

    #[test]
    fn type_qualified_calls_and_self_resolve() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "struct S;\nimpl S {\n    fn mk() -> S { Self::blank() }\n    fn blank() -> S { S }\n    fn via() { S::blank(); }\n}",
        )]);
        assert_eq!(callees(&g, "mk"), vec!["a::S::blank"]);
        assert_eq!(callees(&g, "via"), vec!["a::S::blank"]);
    }

    #[test]
    fn sinks_classify_panics_allocs_locks_and_spawns() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "fn f(x: Option<u32>, v: &[u32], q: &Mutex<u32>) {\n    x.unwrap();\n    panic!(\"boom\");\n    let _ = v[0];\n    let _c = v.to_vec();\n    let _b = Vec::with_capacity(4);\n    let _s = vec![1];\n    let _g = q.lock();\n    std::thread::spawn(|| {});\n}",
        )]);
        let sinks = &g.sinks[node(&g, "f")];
        let whats: Vec<(&SinkKind, &str)> =
            sinks.iter().map(|s| (&s.kind, s.what.as_str())).collect();
        assert!(whats.contains(&(&SinkKind::Panic, ".unwrap()")));
        assert!(whats.contains(&(&SinkKind::Panic, "panic!")));
        assert!(whats.contains(&(&SinkKind::Panic, "[]-indexing")));
        assert!(whats.contains(&(&SinkKind::Alloc, ".to_vec()")));
        assert!(whats.contains(&(&SinkKind::Alloc, "Vec::with_capacity")));
        assert!(whats.contains(&(&SinkKind::Alloc, "vec!")));
        assert!(whats.contains(&(&SinkKind::Lock, "q")));
        assert!(whats.contains(&(&SinkKind::Spawn, "thread::spawn")));
    }

    #[test]
    fn debug_assert_is_not_a_panic_sink() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "fn f(a: u32) { debug_assert!(a > 0); }",
        )]);
        assert!(g.sinks[node(&g, "f")].is_empty());
    }

    #[test]
    fn test_functions_are_not_nodes() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "lib");
    }

    #[test]
    fn same_crate_definitions_shadow_cross_crate_namesakes() {
        let g = graph(&[
            src("crates/a/src/lib.rs", "a", "struct P;\nimpl P { fn run(&self) {} }"),
            src(
                "crates/b/src/lib.rs",
                "b",
                "struct Q;\nimpl Q { fn run(&self) {} }\nfn f() {\n    let x = make();\n    x.run();\n}\nfn make() -> Q { Q }",
            ),
        ]);
        // Untyped receiver, two workspace `run`s — but only one in the
        // caller's crate, so it resolves there instead of going
        // unresolved. (`make` is the ordinary free-fn edge.)
        let c = callees(&g, "f");
        assert!(c.contains(&"b::Q::run".to_string()), "{c:?}");
        assert!(!c.contains(&"a::P::run".to_string()), "{c:?}");
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn lock_identities_come_from_the_receiver_chain() {
        let g = graph(&[src(
            "crates/a/src/lib.rs",
            "a",
            "struct S;\nimpl S {\n    fn f(&self) {\n        self.inner.rx.lock();\n    }\n}",
        )]);
        let sinks = &g.sinks[node(&g, "f")];
        assert_eq!(sinks[0].what, "inner.rx");
    }
}
