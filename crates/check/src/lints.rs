//! The lint pass: token-sequence rules over one file, driven by the
//! crate's [`CratePolicy`].
//!
//! Rules match *token sequences* from [`crate::lexer`], so strings,
//! comments and doc-tests can never produce false positives. Code under
//! `#[cfg(test)]` is exempt from every rule except the suppression
//! hygiene check. Any finding can be suppressed with an adjacent
//! `// check:allow(<lint>): <why>` comment — the justification is
//! mandatory; a bare suppression is itself a finding.

use crate::lexer::{lex, Tok, Token};
use crate::policy::CratePolicy;
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Every lint the checker knows, with a one-line description.
pub const LINTS: &[(&str, &str)] = &[
    (
        "panic-in-lib",
        "no unwrap/expect/panic!/assert! in non-test library code of no-panic crates",
    ),
    (
        "wall-clock",
        "no Instant::now/SystemTime in deterministic simulation crates",
    ),
    (
        "unordered-collections",
        "no HashMap/HashSet in deterministic simulation crates (iteration order leaks)",
    ),
    (
        "thread-spawn",
        "no direct thread spawning outside the crates allowed to own threads",
    ),
    (
        "relaxed-ordering",
        "every Ordering::Relaxed needs an adjacent `// relaxed:` justification",
    ),
    ("missing-docs", "every pub item needs a doc comment"),
    (
        "no-clone-hot-path",
        "no .clone()/.to_vec()/.to_owned()/.collect::<>/format!/vec! in the kernel hot-path files",
    ),
    (
        "suppression",
        "check:allow comments must name a known lint and give a justification",
    ),
    (
        "policy",
        "every crate under crates/ must appear in the policy table",
    ),
    (
        "panic-path",
        "no pub fn of a no-panic crate may transitively reach a panic source (call-graph pass)",
    ),
    (
        "alloc-hot-path",
        "no fn reachable from a kernel recursion root may reach an allocating constructor",
    ),
    (
        "lock-order",
        "no two functions may acquire the same two locks in opposite order",
    ),
    (
        "spawn-site",
        "thread spawns must stay confined to the allowed files (call-graph pass)",
    ),
];

/// Files held to the zero-clone discipline of DESIGN.md §10: the arena
/// kernel's whole point is that recursion never copies an index set, so a
/// new `.clone()` here is a performance regression until proven otherwise
/// (suppress with `// check:allow(no-clone-hot-path): <why>` if one is
/// genuinely warranted).
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/buc.rs",
    "crates/core/src/partition.rs",
    "crates/core/src/asl.rs",
    "crates/core/src/aht.rs",
    // The schedule ASL and AHT share, once per task.
    "crates/core/src/affinity.rs",
    "crates/skiplist/src/lib.rs",
    // The sink every kernel emits into, and the block it appends to: one
    // call away from the kernels, once per cell.
    "crates/core/src/cell.rs",
    "crates/core/src/block.rs",
];

/// Macros that panic in release builds (`debug_assert*` compiles out and
/// is deliberately absent): the lint pass's and the call graph's panic
/// sources.
pub(crate) const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

// `mod` is deliberately absent: `pub mod x;` declarations are documented
// by the module file's own `//!` inner docs, which this pass cannot see
// from the declaration site (rustc's `missing_docs` accepts them too).
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "union",
];
const ITEM_PREFIXES: &[&str] = &["unsafe", "async", "extern"];

/// Lints one file's source under `policy`, reporting `file` (typically a
/// repo-relative path) in findings. Suppressions are already applied;
/// what comes back is what the user should see.
pub fn lint_file(file: &str, src: &str, policy: &CratePolicy) -> Vec<Finding> {
    let tokens = lex(src);
    let masked = test_mask(&tokens);

    // Line-indexed views for justification and suppression matching.
    let mut comment_lines: BTreeMap<u32, String> = BTreeMap::new();
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    for t in &tokens {
        match &t.tok {
            Tok::LineComment(text) => {
                let entry = comment_lines.entry(t.line).or_default();
                entry.push(' ');
                entry.push_str(text);
            }
            Tok::DocComment => {}
            _ => {
                code_lines.insert(t.line);
            }
        }
    }

    let mut findings = Vec::new();
    // Suppression hygiene runs even in test code: a malformed allow
    // comment is a lie wherever it sits.
    let suppressions = collect_suppressions(&comment_lines, &mut findings, file);

    // The code stream the sequence rules run over: no comments, no docs,
    // no `#[cfg(test)]` regions.
    let code: Vec<&Token> = tokens
        .iter()
        .zip(&masked)
        .filter(|(t, &m)| !m && !matches!(t.tok, Tok::LineComment(_) | Tok::DocComment))
        .map(|(t, _)| t)
        .collect();

    let ident = |i: usize| match code.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, c: char| matches!(code.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let path_sep = |i: usize| punct(i, ':') && punct(i + 1, ':');

    let mut raw: Vec<Finding> = Vec::new();
    let mut emit = |line: u32, lint: &'static str, message: String| {
        raw.push(Finding::new(file, line, lint, message));
    };

    let hot_path = HOT_PATH_FILES.iter().any(|h| file.ends_with(h));
    for i in 0..code.len() {
        let line = code[i].line;
        if hot_path {
            if punct(i, '.') && punct(i + 2, '(') {
                if let Some(name @ ("clone" | "to_vec" | "to_owned")) = ident(i + 1) {
                    emit(
                        code[i + 1].line,
                        "no-clone-hot-path",
                        format!(
                            "`.{name}()` in a zero-clone kernel file; recurse over arena ranges"
                        ),
                    );
                }
            }
            // `.collect::<…>` — the turbofish form the satellite names;
            // plain `.collect()` is the dataflow pass's job, where the
            // reachability context says whether it is hot.
            if punct(i, '.')
                && ident(i + 1) == Some("collect")
                && punct(i + 2, ':')
                && punct(i + 3, ':')
                && punct(i + 4, '<')
            {
                emit(
                    code[i + 1].line,
                    "no-clone-hot-path",
                    "`.collect::<…>()` in a zero-clone kernel file; fill a scratch buffer instead"
                        .to_string(),
                );
            }
            if let Some(name @ ("format" | "vec")) = ident(i) {
                if punct(i + 1, '!') {
                    emit(
                        line,
                        "no-clone-hot-path",
                        format!(
                            "`{name}!` allocates in a zero-clone kernel file; reuse a scratch \
                             buffer instead"
                        ),
                    );
                }
            }
        }
        if policy.no_panic {
            if punct(i, '.') {
                if let Some(name @ ("unwrap" | "expect")) = ident(i + 1) {
                    if punct(i + 2, '(') {
                        emit(
                            code[i + 1].line,
                            "panic-in-lib",
                            format!("`.{name}()` in library code; return a typed error"),
                        );
                    }
                }
            }
            if let Some(name) = ident(i) {
                if PANIC_MACROS.contains(&name) && punct(i + 1, '!') {
                    emit(
                        line,
                        "panic-in-lib",
                        format!("`{name}!` in library code; return a typed error"),
                    );
                }
            }
        }
        if policy.deterministic {
            if ident(i) == Some("Instant") && path_sep(i + 1) && ident(i + 3) == Some("now") {
                emit(
                    line,
                    "wall-clock",
                    "`Instant::now` in a deterministic simulation crate".to_string(),
                );
            }
            if ident(i) == Some("SystemTime") {
                emit(
                    line,
                    "wall-clock",
                    "`SystemTime` in a deterministic simulation crate".to_string(),
                );
            }
            if let Some(name @ ("HashMap" | "HashSet")) = ident(i) {
                emit(
                    line,
                    "unordered-collections",
                    format!("`{name}` in a deterministic simulation crate; use a BTree collection"),
                );
            }
        }
        if !policy.may_spawn
            && ident(i) == Some("thread")
            && path_sep(i + 1)
            && matches!(ident(i + 3), Some("spawn" | "Builder" | "scope"))
        {
            emit(
                line,
                "thread-spawn",
                "thread spawning outside the crates allowed to own threads".to_string(),
            );
        }
        if ident(i) == Some("Ordering")
            && path_sep(i + 1)
            && ident(i + 3) == Some("Relaxed")
            && !comment_block_contains(&comment_lines, &code_lines, line, "relaxed:")
        {
            emit(
                line,
                "relaxed-ordering",
                "`Ordering::Relaxed` without an adjacent `// relaxed:` justification".to_string(),
            );
        }
    }

    missing_docs(&tokens, &masked, file, &mut raw);

    // Apply suppressions: a finding is dropped when an adjacent
    // `check:allow` names its lint (same line, or the comment block
    // directly above). Meta findings about suppressions themselves are
    // never suppressible.
    findings.extend(raw.into_iter().filter(|f| {
        f.lint == "suppression"
            || !suppression_covers(&suppressions, &comment_lines, &code_lines, f.line, f.lint)
    }));
    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    findings
}

/// Marks every token belonging to a `#[cfg(test)]` item (attribute
/// through the end of the item's brace block or terminating semicolon).
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let is = |i: usize, want: &Tok| tokens.get(i).map(|t| &t.tok) == Some(want);
    let id = |s: &str| Tok::Ident(s.to_string());
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        let cfg_test = is(i, &Tok::Punct('#'))
            && is(i + 1, &Tok::Punct('['))
            && is(i + 2, &id("cfg"))
            && is(i + 3, &Tok::Punct('('))
            && is(i + 4, &id("test"))
            && is(i + 5, &Tok::Punct(')'))
            && is(i + 6, &Tok::Punct(']'));
        if !cfg_test {
            i += 1;
            continue;
        }
        // Skip to the end of the annotated item: the close of its first
        // top-level brace block, or a `;` for brace-less items.
        let mut j = i + 7;
        let mut depth = 0usize;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let end = j.min(tokens.len().saturating_sub(1));
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Flags `pub` items (not fields, not `pub use`, not `pub(restricted)`)
/// with no doc comment above their attributes.
fn missing_docs(tokens: &[Token], masked: &[bool], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if masked[i] || t.tok != Tok::Ident("pub".to_string()) {
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        let mut j = i + 1;
        if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('('))) {
            continue;
        }
        // Accept qualifier keywords, then require an item keyword.
        let mut kind = None;
        while let Some(Tok::Ident(word)) = tokens.get(j).map(|t| &t.tok) {
            if ITEM_KEYWORDS.contains(&word.as_str()) {
                // `pub const fn` is a fn; peek one more keyword.
                if word == "const" {
                    if let Some(Tok::Ident(next)) = tokens.get(j + 1).map(|t| &t.tok) {
                        if next == "fn" {
                            kind = Some("fn".to_string());
                            break;
                        }
                    }
                }
                kind = Some(word.clone());
                break;
            }
            if !ITEM_PREFIXES.contains(&word.as_str()) {
                break; // `pub use`, `pub name:` field, …
            }
            j += 1;
        }
        let Some(kind) = kind else { continue };
        // Walk backwards over attributes (`#[...]` groups); the token
        // before them must be a doc comment.
        let mut k = i;
        let documented = loop {
            if k == 0 {
                break false;
            }
            k -= 1;
            match &tokens[k].tok {
                Tok::DocComment => break true,
                Tok::LineComment(_) => continue,
                Tok::Punct(']') => {
                    // Skip back over the bracket group and its `#`.
                    let mut depth = 1usize;
                    while k > 0 && depth > 0 {
                        k -= 1;
                        match tokens[k].tok {
                            Tok::Punct(']') => depth += 1,
                            Tok::Punct('[') => depth -= 1,
                            _ => {}
                        }
                    }
                    if k > 0 && tokens[k - 1].tok == Tok::Punct('#') {
                        k -= 1;
                    }
                }
                _ => break false,
            }
        };
        if !documented {
            let name = match tokens.get(j + 1).map(|t| &t.tok) {
                Some(Tok::Ident(n)) => format!(" `{n}`"),
                _ => String::new(),
            };
            out.push(Finding::new(
                file,
                t.line,
                "missing-docs",
                format!("public {kind}{name} has no doc comment"),
            ));
        }
    }
}

/// Whether the comment on `line` or the unbroken comment block directly
/// above it contains `needle`.
fn comment_block_contains(
    comments: &BTreeMap<u32, String>,
    code_lines: &BTreeSet<u32>,
    line: u32,
    needle: &str,
) -> bool {
    if comments.get(&line).is_some_and(|t| t.contains(needle)) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 && !code_lines.contains(&l) {
        match comments.get(&l) {
            Some(text) => {
                if text.contains(needle) {
                    return true;
                }
            }
            None => return false, // blank line ends the block
        }
        l -= 1;
    }
    false
}

/// A parsed `check:allow(<lint>)` or `check:allow-file(<lint>)` comment.
pub(crate) struct Suppression {
    pub(crate) line: u32,
    pub(crate) lint: String,
    /// `check:allow-file`: covers the whole file, not just the adjacent
    /// line. For blanket exemptions with one documented justification
    /// (e.g. an algorithm file whose hash tables are sorted before any
    /// result escapes).
    pub(crate) file_scoped: bool,
}

/// Parses every `check:allow`/`check:allow-file` comment, emitting
/// hygiene findings for bare (unjustified) or unknown-lint suppressions.
pub(crate) fn collect_suppressions(
    comments: &BTreeMap<u32, String>,
    findings: &mut Vec<Finding>,
    file: &str,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (&line, text) in comments {
        for (needle, file_scoped) in [("check:allow(", false), ("check:allow-file(", true)] {
            collect_one_form(text, line, needle, file_scoped, file, findings, &mut out);
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn collect_one_form(
    text: &str,
    line: u32,
    needle: &str,
    file_scoped: bool,
    file: &str,
    findings: &mut Vec<Finding>,
    out: &mut Vec<Suppression>,
) {
    let form = needle.trim_end_matches('(');
    let mut rest = text;
    while let Some(at) = rest.find(needle) {
        rest = &rest[at + needle.len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding::new(
                file,
                line,
                "suppression",
                format!("unclosed `{form}(` comment"),
            ));
            break;
        };
        let name = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let known = LINTS.iter().any(|(n, _)| *n == name);
        // Hygiene findings name the lint the allow was attached to, both
        // in the message and in the structured `target` field.
        let mut meta = |message: String| {
            let mut f = Finding::new(file, line, "suppression", message);
            f.target = Some(name.clone());
            findings.push(f);
        };
        if !known {
            meta(format!("`{form}({name})` names an unknown lint"));
        }
        let justified = after
            .strip_prefix(':')
            .is_some_and(|why| !why.trim().is_empty());
        if !justified {
            meta(format!(
                "bare `{form}({name})` targeting lint `{name}` without a justification; \
                 write `// {form}({name}): <why>`"
            ));
        }
        if known && justified {
            out.push(Suppression {
                line,
                lint: name,
                file_scoped,
            });
        }
        rest = after;
    }
}

/// Whether a valid suppression for `lint` covers `line` (same line, or
/// within the unbroken comment block directly above).
pub(crate) fn suppression_covers(
    suppressions: &[Suppression],
    comments: &BTreeMap<u32, String>,
    code_lines: &BTreeSet<u32>,
    line: u32,
    lint: &str,
) -> bool {
    if suppressions.iter().any(|s| s.file_scoped && s.lint == lint) {
        return true;
    }
    let candidate = |l: u32| {
        suppressions
            .iter()
            .any(|s| !s.file_scoped && s.line == l && s.lint == lint)
    };
    if candidate(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 && !code_lines.contains(&l) {
        if comments.get(&l).is_none() {
            return false;
        }
        if candidate(l) {
            return true;
        }
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::policy_for;

    fn strict() -> CratePolicy {
        CratePolicy {
            name: "core",
            no_panic: true,
            deterministic: true,
            may_spawn: false,
        }
    }

    fn lint(src: &str) -> Vec<Finding> {
        lint_file("x.rs", src, &strict())
    }

    #[test]
    fn flags_panic_family_with_lines() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn g() {\n    panic!(\"boom\")\n}";
        let f = lint(src);
        let panics: Vec<_> = f.iter().filter(|f| f.lint == "panic-in-lib").collect();
        assert_eq!(panics.len(), 2, "{f:?}");
        assert_eq!(panics[0].line, 2);
        assert_eq!(panics[1].line, 5);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn strings_and_comments_never_match() {
        let src = "fn f() -> &'static str {\n    // .unwrap() is discussed here\n    \"don't panic!(now)\"\n}";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn wall_clock_and_collections_flag_deterministic_crates_only() {
        let src = "use std::collections::HashMap;\nfn f() { let _ = Instant::now(); }";
        let f = lint(src);
        assert!(f
            .iter()
            .any(|f| f.lint == "unordered-collections" && f.line == 1));
        assert!(f.iter().any(|f| f.lint == "wall-clock" && f.line == 2));
        let lenient = policy_for("bench").expect("bench in table");
        assert!(lint_file("x.rs", src, &lenient).is_empty());
    }

    #[test]
    fn relaxed_needs_adjacent_justification() {
        let bad = "fn f(a: &A) { a.store(1, Ordering::Relaxed); }";
        assert!(lint(bad).iter().any(|f| f.lint == "relaxed-ordering"));
        let same_line = "fn f(a: &A) { a.store(1, Ordering::Relaxed); } // relaxed: tally";
        assert!(lint(same_line).is_empty(), "{:?}", lint(same_line));
        let above = "fn f(a: &A) {\n    // relaxed: independent tally, wraps a\n    // longer explanation.\n    a.store(1, Ordering::Relaxed);\n}";
        assert!(lint(above).is_empty(), "{:?}", lint(above));
        let blank_breaks =
            "fn f(a: &A) {\n    // relaxed: too far away\n\n    a.store(1, Ordering::Relaxed);\n}";
        assert!(lint(blank_breaks)
            .iter()
            .any(|f| f.lint == "relaxed-ordering"));
    }

    #[test]
    fn suppressions_require_justification_and_known_lints() {
        let good = "fn f(x: Option<u32>) {\n    // check:allow(panic-in-lib): invariant documented here.\n    x.unwrap();\n}";
        assert!(lint(good).is_empty(), "{:?}", lint(good));
        let bare = "fn f(x: Option<u32>) {\n    // check:allow(panic-in-lib)\n    x.unwrap();\n}";
        let f = lint(bare);
        assert!(f.iter().any(|f| f.lint == "suppression"), "{f:?}");
        assert!(
            f.iter().any(|f| f.lint == "panic-in-lib"),
            "bare allow must not suppress: {f:?}"
        );
        let unknown = "// check:allow(no-such-lint): whatever\nfn f() {}";
        assert!(lint(unknown).iter().any(|f| f.lint == "suppression"));
    }

    #[test]
    fn file_scoped_suppressions_cover_the_whole_file() {
        let src = "//! Module.\n// check:allow-file(unordered-collections): tables are\n// sorted before any result escapes this module.\nuse std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }";
        let f = lint(src);
        assert!(f.iter().all(|f| f.lint != "unordered-collections"), "{f:?}");
        let bare = "// check:allow-file(unordered-collections)\nuse std::collections::HashMap;";
        let f = lint(bare);
        assert!(f.iter().any(|f| f.lint == "suppression"), "{f:?}");
        assert!(f.iter().any(|f| f.lint == "unordered-collections"), "{f:?}");
    }

    #[test]
    fn missing_docs_flags_pub_items_not_fields_or_use() {
        let src = "pub fn naked() {}\n/// Documented.\npub fn dressed() {}\npub use std::fmt;\npub struct S {\n    pub field: u32,\n}";
        let f = lint(src);
        let md: Vec<_> = f.iter().filter(|f| f.lint == "missing-docs").collect();
        // `naked` and `S` lack docs; `dressed`, the re-export and the
        // field are not flagged (field docs are rustc's job).
        assert_eq!(md.len(), 2, "{md:?}");
        assert_eq!(md[0].line, 1);
        assert!(md[1].message.contains("`S`"));
    }

    #[test]
    fn attributes_between_doc_and_item_are_skipped() {
        let src = "/// Documented.\n#[derive(Debug)]\n#[repr(C)]\npub struct S(u32);";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn clone_in_hot_path_files_is_flagged() {
        let src = "fn f(v: &[u32]) -> Vec<u32> {\n    let a = v.to_vec();\n    a.clone()\n}";
        let f = lint_file("crates/core/src/buc.rs", src, &strict());
        let hits: Vec<_> = f.iter().filter(|f| f.lint == "no-clone-hot-path").collect();
        assert_eq!(hits.len(), 2, "{f:?}");
        assert_eq!(hits[0].line, 2);
        // The same source is fine in a file outside the hot-path list.
        let elsewhere = lint_file("crates/core/src/store.rs", src, &strict());
        assert!(
            elsewhere.iter().all(|f| f.lint != "no-clone-hot-path"),
            "{elsewhere:?}"
        );
        // Test code in a hot-path file stays exempt.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(v: &[u32]) { let _ = v.to_vec(); }\n}";
        let f = lint_file("crates/core/src/partition.rs", test_src, &strict());
        assert!(f.iter().all(|f| f.lint != "no-clone-hot-path"), "{f:?}");
        // The affinity kernels and the skip list joined the hot-path
        // list when they became executor workloads (ROADMAP item 1); the
        // cell sink and its block when `emit` stopped copying the key
        // (`key.to_vec()` per cell sat one call away from `buc.rs`); the
        // affinity driver when ASL and AHT came to share it.
        for file in [
            "crates/core/src/asl.rs",
            "crates/core/src/aht.rs",
            "crates/core/src/affinity.rs",
            "crates/skiplist/src/lib.rs",
            "crates/core/src/cell.rs",
            "crates/core/src/block.rs",
        ] {
            let f = lint_file(file, src, &strict());
            assert!(
                f.iter().any(|f| f.lint == "no-clone-hot-path"),
                "{file}: {f:?}"
            );
        }
    }

    #[test]
    fn hot_path_clone_is_suppressible() {
        let src = "fn f(v: &[u32]) -> Vec<u32> {\n    // check:allow(no-clone-hot-path): one-time setup copy.\n    v.to_vec()\n}";
        let f = lint_file("crates/core/src/buc.rs", src, &strict());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn thread_spawn_is_policy_gated() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(lint(src).iter().any(|f| f.lint == "thread-spawn"));
        let serve = policy_for("serve").expect("serve in table");
        assert!(lint_file("x.rs", src, &serve)
            .iter()
            .all(|f| f.lint != "thread-spawn"));
    }
}
