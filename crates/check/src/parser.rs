//! A lightweight item/fn/block parser over the token stream: just
//! enough structure for interprocedural analysis without a real AST.
//!
//! Where [`crate::lexer`] gives the lint pass honest *tokens*, this
//! module gives the analysis passes honest *functions*: every `fn` in a
//! file with its impl owner, visibility, `#[cfg(test)]` status, simple
//! local type bindings, and the ordered list of body events the passes
//! care about — method calls (with a best-effort receiver chain), path
//! calls, macro uses, and `[]`-indexing. The grammar subset is
//! documented in DESIGN §12; anything outside it degrades to "no event"
//! or an unresolvable receiver, never to a wrong edge.

use crate::lexer::{lex, Tok, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Keywords that can precede `(` or `[` without being a call or an
/// index expression (`if (..)`, `&mut [u32]`, `return (..)`, …).
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "mut", "ref", "else",
    "let", "fn", "pub", "use", "mod", "impl", "where", "unsafe", "dyn", "box", "break", "continue",
    "struct", "enum", "trait", "const", "static", "type", "crate", "self", "Self", "super",
    "async", "await", "true", "false",
];

/// One parsed source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function definition, in source order.
    pub fns: Vec<FnDef>,
    /// Line-comment text per line (for suppression matching).
    pub comment_lines: BTreeMap<u32, String>,
    /// Lines holding at least one code token (comment blocks end here).
    pub code_lines: BTreeSet<u32>,
}

/// One function definition and the analysis-relevant events of its body.
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name (`df`, `run`, `new`).
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`Engine`, `CubeServer`).
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` item.
    pub is_test: bool,
    /// Best-effort local type bindings: parameter `name: Type` and
    /// `let name = Type::…` / `let name: Type` forms. `self` maps to
    /// the impl owner at resolution time, not here.
    pub bindings: BTreeMap<String, String>,
    /// Body events in source order.
    pub events: Vec<Event>,
}

/// One body event with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// 1-based source line.
    pub line: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The event kinds the analysis passes consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// `recv.name(..)` — `chain` is the dotted identifier chain of the
    /// receiver (`["self"]`, `["x"]`, `["self","scratch","pool"]`),
    /// empty when the receiver is a complex expression.
    Method { chain: Vec<String>, name: String },
    /// `a::b::c(..)` or a bare `f(..)` (one segment).
    PathCall { segments: Vec<String> },
    /// `name!(..)` / `name![..]` / `name!{..}`.
    MacroUse { name: String },
    /// `expr[..]` indexing (a panic source).
    Index,
}

/// Parses one file. Never fails: unparseable constructs contribute no
/// functions or events rather than errors — the analyzer must not panic
/// on the code it audits.
pub fn parse_file(src: &str) -> ParsedFile {
    let tokens = lex(src);
    let mask = crate::lints::test_mask(&tokens);
    let mut out = ParsedFile::default();
    for t in &tokens {
        match &t.tok {
            Tok::LineComment(text) => {
                let entry = out.comment_lines.entry(t.line).or_default();
                entry.push(' ');
                entry.push_str(text);
            }
            Tok::DocComment => {}
            _ => {
                out.code_lines.insert(t.line);
            }
        }
    }
    let code: Vec<(Token, bool)> = tokens
        .iter()
        .zip(&mask)
        .filter(|(t, _)| !matches!(t.tok, Tok::LineComment(_) | Tok::DocComment))
        .map(|(t, &m)| (t.clone(), m))
        .collect();
    let mut p = Parser {
        code,
        pos: 0,
        depth: 0,
        owners: Vec::new(),
    };
    out.fns = p.run();
    out
}

struct Parser {
    code: Vec<(Token, bool)>,
    pos: usize,
    depth: usize,
    /// `(type name, brace depth the impl/trait was seen at)`.
    owners: Vec<(String, usize)>,
}

impl Parser {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.code.get(i).map(|t| &t.0.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.code.get(i).map(|t| &t.0.tok), Some(Tok::Punct(p)) if *p == c)
    }

    fn line(&self, i: usize) -> u32 {
        self.code.get(i).map_or(0, |t| t.0.line)
    }

    fn run(&mut self) -> Vec<FnDef> {
        let mut fns = Vec::new();
        while self.pos < self.code.len() {
            match self.code[self.pos].0.tok.clone() {
                Tok::Ident(id) if id == "impl" => self.handle_impl(),
                Tok::Ident(id) if id == "trait" => {
                    // `trait Name …` — default methods get the trait as
                    // their owner. (`impl Trait for T` is handled above.)
                    if let Some(name) = self.ident(self.pos + 1) {
                        self.owners.push((name.to_string(), self.depth));
                    }
                    self.pos += 1;
                }
                Tok::Ident(id) if id == "fn" && self.ident(self.pos + 1).is_some() => {
                    if let Some(def) = self.parse_fn() {
                        fns.push(def);
                    }
                }
                Tok::Punct('{') => {
                    self.depth += 1;
                    self.pos += 1;
                }
                Tok::Punct('}') => {
                    self.depth = self.depth.saturating_sub(1);
                    while self.owners.last().is_some_and(|(_, d)| *d >= self.depth) {
                        self.owners.pop();
                    }
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        fns
    }

    /// `impl [<generics>] TypePath [for TypePath] [where …] {` — records
    /// the implemented-on type's last path segment as the owner.
    fn handle_impl(&mut self) {
        self.pos += 1; // `impl`
        if self.punct(self.pos, '<') {
            self.skip_angles();
        }
        let mut owner = None;
        while self.pos < self.code.len() {
            match &self.code[self.pos].0.tok {
                Tok::Ident(id) if id == "for" => {
                    owner = None; // the trait path; the type follows
                    self.pos += 1;
                }
                Tok::Ident(id) if id == "where" => break,
                Tok::Ident(id) => {
                    owner = Some(id.clone());
                    self.pos += 1;
                }
                Tok::Punct('<') => self.skip_angles(),
                Tok::Punct(':') | Tok::Punct('&') | Tok::Punct('(') | Tok::Punct(')') => {
                    self.pos += 1;
                }
                Tok::Punct('{') => break,
                _ => {
                    self.pos += 1;
                }
            }
        }
        if let Some(owner) = owner {
            self.owners.push((owner, self.depth));
        }
    }

    /// Skips a balanced `<…>` group, cursor on the `<`. `->` arrows
    /// inside (e.g. `Fn(usize) -> bool`) do not close the group.
    fn skip_angles(&mut self) {
        let mut depth = 0usize;
        let mut prev_dash = false;
        while self.pos < self.code.len() {
            match &self.code[self.pos].0.tok {
                Tok::Punct('<') => {
                    depth += 1;
                    prev_dash = false;
                }
                Tok::Punct('>') => {
                    if !prev_dash {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            self.pos += 1;
                            return;
                        }
                    }
                    prev_dash = false;
                }
                Tok::Punct('-') => prev_dash = true,
                _ => prev_dash = false,
            }
            self.pos += 1;
        }
    }

    /// Whether the item at `fn_pos` is unrestricted `pub`, looking back
    /// over qualifier keywords (`const`, `async`, `unsafe`, `extern "C"`).
    fn is_pub_at(&self, fn_pos: usize) -> bool {
        let mut k = fn_pos;
        while k > 0 {
            k -= 1;
            match &self.code[k].0.tok {
                Tok::Ident(id)
                    if matches!(id.as_str(), "const" | "async" | "unsafe" | "extern") =>
                {
                    continue;
                }
                Tok::Literal => continue, // extern "C"
                Tok::Ident(id) if id == "pub" => return true,
                Tok::Punct(')') => {
                    // `pub(crate)` / `pub(super)`: restricted, not pub.
                    return false;
                }
                _ => return false,
            }
        }
        false
    }

    fn parse_fn(&mut self) -> Option<FnDef> {
        let fn_pos = self.pos;
        let name = self.ident(fn_pos + 1)?.to_string();
        let mut def = FnDef {
            name,
            owner: self.owners.last().map(|(o, _)| o.clone()),
            line: self.line(fn_pos),
            is_pub: self.is_pub_at(fn_pos),
            is_test: self.code[fn_pos].1,
            bindings: BTreeMap::new(),
            events: Vec::new(),
        };
        self.pos = fn_pos + 2;
        if self.punct(self.pos, '<') {
            self.skip_angles();
        }
        if !self.punct(self.pos, '(') {
            return Some(def); // not a parameter list we understand
        }
        self.parse_params(&mut def);
        // Scan to the body `{` (angle-aware: `-> Vec<u32>` must not eat
        // the brace) or a terminating `;` (trait method declaration).
        let mut prev_dash = false;
        let mut angle = 0usize;
        while self.pos < self.code.len() {
            match &self.code[self.pos].0.tok {
                Tok::Punct('<') => {
                    angle += 1;
                    prev_dash = false;
                }
                Tok::Punct('>') => {
                    if !prev_dash {
                        angle = angle.saturating_sub(1);
                    }
                    prev_dash = false;
                }
                Tok::Punct('-') => prev_dash = true,
                Tok::Punct('{') if angle == 0 => {
                    self.pos += 1;
                    self.parse_body(&mut def);
                    return Some(def);
                }
                Tok::Punct(';') if angle == 0 => {
                    self.pos += 1;
                    return Some(def);
                }
                _ => prev_dash = false,
            }
            self.pos += 1;
        }
        Some(def)
    }

    /// Parses the parameter list (cursor on `(`), recording `name: Type`
    /// bindings. Pattern parameters (`(a, b): (u32, u32)`) are skipped.
    fn parse_params(&mut self, def: &mut FnDef) {
        let mut depth = 0usize;
        let mut at_param_start = false;
        while self.pos < self.code.len() {
            match &self.code[self.pos].0.tok {
                Tok::Punct('(') => {
                    depth += 1;
                    at_param_start = depth == 1;
                    self.pos += 1;
                }
                Tok::Punct(')') => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        return;
                    }
                }
                Tok::Punct(',') if depth == 1 => {
                    at_param_start = true;
                    self.pos += 1;
                }
                Tok::Punct('<') => self.skip_angles(),
                _ if at_param_start && depth == 1 => {
                    at_param_start = false;
                    self.parse_one_param(def);
                }
                _ => self.pos += 1,
            }
        }
    }

    /// One parameter at the cursor: `[&][mut] name: [&][mut] Type…`.
    fn parse_one_param(&mut self, def: &mut FnDef) {
        while self.punct(self.pos, '&') || self.ident(self.pos) == Some("mut") {
            self.pos += 1;
        }
        let Some(name) = self.ident(self.pos) else {
            return; // pattern parameter or `self` handled elsewhere
        };
        let name = name.to_string();
        self.pos += 1;
        if name == "self" || name == "_" {
            return;
        }
        if !self.punct(self.pos, ':') || self.punct(self.pos + 1, ':') {
            return;
        }
        self.pos += 1; // `:`
        if let Some(ty) = self.parse_type_name() {
            def.bindings.insert(name, ty);
        }
    }

    /// Reads a type's last path segment at the cursor, skipping `&`,
    /// `mut`, `dyn` and `impl` prefixes. Leaves the cursor after the
    /// path (before any `<…>` generic arguments).
    fn parse_type_name(&mut self) -> Option<String> {
        while self.punct(self.pos, '&')
            || matches!(self.ident(self.pos), Some("mut" | "dyn" | "impl"))
        {
            self.pos += 1;
        }
        let mut last = None;
        while let Some(id) = self.ident(self.pos) {
            last = Some(id.to_string());
            self.pos += 1;
            if self.punct(self.pos, ':') && self.punct(self.pos + 1, ':') {
                self.pos += 2;
            } else {
                break;
            }
        }
        last
    }

    /// Walks a function body (cursor just past the opening `{`),
    /// collecting events until the matching `}`.
    fn parse_body(&mut self, def: &mut FnDef) {
        let mut depth = 1usize;
        while self.pos < self.code.len() {
            let line = self.line(self.pos);
            match self.code[self.pos].0.tok.clone() {
                Tok::Punct('{') => {
                    depth += 1;
                    self.pos += 1;
                }
                Tok::Punct('}') => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        return;
                    }
                }
                Tok::Punct('[') => {
                    if self.pos > 0 {
                        let indexable = match &self.code[self.pos - 1].0.tok {
                            Tok::Ident(id) => !KEYWORDS.contains(&id.as_str()),
                            Tok::Punct(')') | Tok::Punct(']') => true,
                            _ => false,
                        };
                        // The full range `expr[..]` cannot panic.
                        let full_range = (1..=2).all(|k| self.punct(self.pos + k, '.'))
                            && self.punct(self.pos + 3, ']');
                        if indexable && !full_range {
                            def.events.push(Event {
                                line,
                                kind: EventKind::Index,
                            });
                        }
                    }
                    self.pos += 1;
                }
                Tok::Punct('.') => {
                    if let Some(m) = self.ident(self.pos + 1) {
                        let m = m.to_string();
                        let mut after = self.pos + 2;
                        // `.collect::<Vec<_>>(`-style turbofish.
                        if self.punct(after, ':') && self.punct(after + 1, ':') {
                            if self.punct(after + 2, '<') {
                                let saved = self.pos;
                                self.pos = after + 2;
                                self.skip_angles();
                                after = self.pos;
                                self.pos = saved;
                            } else {
                                // `Enum::Variant` after a dot? Not a call.
                                self.pos += 2;
                                continue;
                            }
                        }
                        if self.punct(after, '(') {
                            let chain = self.chain_before(self.pos);
                            def.events.push(Event {
                                line,
                                kind: EventKind::Method { chain, name: m },
                            });
                            self.pos = after; // rescan from the `(`
                            continue;
                        }
                    }
                    self.pos += 1;
                }
                Tok::Ident(id) => {
                    // Part of a path or method name already considered?
                    // A lone `:` (a struct-literal field) starts a fresh
                    // expression.
                    let after_path = self.pos >= 2
                        && self.punct(self.pos - 1, ':')
                        && self.punct(self.pos - 2, ':');
                    if after_path || self.pos > 0 && self.punct(self.pos - 1, '.') {
                        self.pos += 1;
                        continue;
                    }
                    if id == "let" {
                        self.pos += 1;
                        self.parse_let(def);
                        continue;
                    }
                    if self.punct(self.pos + 1, '!') {
                        // `name!(..)` / `name![..]` / `name!{..}`; `x != y`
                        // has `=` after the `!` and is skipped.
                        let d = self.pos + 2;
                        if self.punct(d, '(') || self.punct(d, '[') || self.punct(d, '{') {
                            def.events.push(Event {
                                line,
                                kind: EventKind::MacroUse { name: id },
                            });
                            self.pos += 2;
                            continue;
                        }
                        self.pos += 1;
                        continue;
                    }
                    // Path call: `a::b::c(..)` or bare `f(..)`.
                    let mut segments = vec![id.clone()];
                    let mut j = self.pos + 1;
                    while self.punct(j, ':') && self.punct(j + 1, ':') {
                        if let Some(seg) = self.ident(j + 2) {
                            segments.push(seg.to_string());
                            j += 3;
                        } else {
                            break;
                        }
                    }
                    let mut call_at = j;
                    if self.punct(j, ':') && self.punct(j + 1, ':') && self.punct(j + 2, '<') {
                        let saved = self.pos;
                        self.pos = j + 2;
                        self.skip_angles();
                        call_at = self.pos;
                        self.pos = saved;
                    }
                    let is_call = self.punct(call_at, '(')
                        && !(segments.len() == 1 && KEYWORDS.contains(&segments[0].as_str()));
                    if is_call {
                        def.events.push(Event {
                            line,
                            kind: EventKind::PathCall { segments },
                        });
                    }
                    self.pos = j.max(self.pos + 1);
                }
                _ => self.pos += 1,
            }
        }
    }

    /// `let [mut] name [: Type] [= Type::…]` — records a binding when
    /// the type is syntactically evident.
    fn parse_let(&mut self, def: &mut FnDef) {
        if self.ident(self.pos) == Some("mut") {
            self.pos += 1;
        }
        let Some(name) = self.ident(self.pos) else {
            return; // pattern let
        };
        let name = name.to_string();
        if name == "_" {
            return;
        }
        self.pos += 1;
        if self.punct(self.pos, ':') && !self.punct(self.pos + 1, ':') {
            self.pos += 1;
            if let Some(ty) = self.parse_type_name() {
                def.bindings.insert(name, ty);
            }
            return;
        }
        if self.punct(self.pos, '=') && !self.punct(self.pos + 1, '=') {
            // `let x = Type::…` — uppercase first segment is a type.
            if let Some(first) = self.ident(self.pos + 1) {
                if first.chars().next().is_some_and(|c| c.is_uppercase())
                    && self.punct(self.pos + 2, ':')
                    && self.punct(self.pos + 3, ':')
                {
                    def.bindings.insert(name, first.to_string());
                }
            }
        }
    }

    /// The dotted identifier chain ending just before the `.` at `dot`:
    /// `self.scratch.pool.pop()` → `["self","scratch","pool"]`. Complex
    /// receivers (call results, index results, literals) yield an empty
    /// chain.
    fn chain_before(&self, dot: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut k = dot;
        while k > 0 {
            match &self.code[k - 1].0.tok {
                Tok::Ident(id) => {
                    chain.push(id.clone());
                    if k >= 2 && matches!(self.code[k - 2].0.tok, Tok::Punct('.')) {
                        k -= 2;
                    } else {
                        break;
                    }
                }
                _ => {
                    chain.clear();
                    break;
                }
            }
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<FnDef> {
        parse_file(src).fns
    }

    fn events_of(def: &FnDef) -> Vec<&EventKind> {
        def.events.iter().map(|e| &e.kind).collect()
    }

    #[test]
    fn finds_free_and_impl_fns_with_owners() {
        let src = "pub fn free() {}\nstruct S;\nimpl S {\n    fn method(&self) {}\n    pub fn public(&self) {}\n}\nimpl Default for S {\n    fn default() -> Self { S }\n}";
        let fs = fns(src);
        let names: Vec<(Option<&str>, &str, bool)> = fs
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free", true),
                (Some("S"), "method", false),
                (Some("S"), "public", true),
                (Some("S"), "default", false),
            ]
        );
    }

    #[test]
    fn pub_crate_is_not_pub() {
        let src = "pub(crate) fn a() {}\npub fn b() {}\npub const fn c() {}";
        let fs = fns(src);
        assert!(!fs[0].is_pub);
        assert!(fs[1].is_pub);
        assert!(fs[2].is_pub);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}";
        let fs = fns(src);
        assert!(!fs[0].is_test);
        assert!(fs[1].is_test);
    }

    #[test]
    fn method_calls_carry_receiver_chains() {
        let src = "fn f(&mut self) {\n    self.helper();\n    self.scratch.pool.pop();\n    x.run(1);\n    (a + b).go();\n}";
        let fs = fns(src);
        let ev = events_of(&fs[0]);
        assert_eq!(
            ev[0],
            &EventKind::Method {
                chain: vec!["self".into()],
                name: "helper".into()
            }
        );
        assert_eq!(
            ev[1],
            &EventKind::Method {
                chain: vec!["self".into(), "scratch".into(), "pool".into()],
                name: "pop".into()
            }
        );
        assert_eq!(
            ev[2],
            &EventKind::Method {
                chain: vec!["x".into()],
                name: "run".into()
            }
        );
        assert_eq!(
            ev[3],
            &EventKind::Method {
                chain: vec![],
                name: "go".into()
            }
        );
    }

    #[test]
    fn turbofish_method_calls_are_calls() {
        let src = "fn f(v: Vec<u32>) {\n    let a = v.iter().collect::<Vec<_>>();\n}";
        let fs = fns(src);
        assert!(events_of(&fs[0])
            .iter()
            .any(|e| matches!(e, EventKind::Method { name, .. } if name == "collect")));
    }

    #[test]
    fn path_calls_and_macros_and_indexing() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {\n    helper();\n    Vec::with_capacity(4);\n    std::mem::replace(&mut 1, 2);\n    panic!(\"no\");\n    let x = vec![1, 2];\n    v[i]\n}";
        let fs = fns(src);
        let ev = events_of(&fs[0]);
        assert!(ev.contains(&&EventKind::PathCall {
            segments: vec!["helper".into()]
        }));
        assert!(ev.contains(&&EventKind::PathCall {
            segments: vec!["Vec".into(), "with_capacity".into()]
        }));
        assert!(ev.contains(&&EventKind::PathCall {
            segments: vec!["std".into(), "mem".into(), "replace".into()]
        }));
        assert!(ev.contains(&&EventKind::MacroUse {
            name: "panic".into()
        }));
        assert!(ev.contains(&&EventKind::MacroUse { name: "vec".into() }));
        assert!(ev.contains(&&EventKind::Index));
    }

    #[test]
    fn struct_literal_fields_hold_path_calls() {
        let src = "fn f(n: usize) -> B {\n    B { k: Vec::with_capacity(n), m: mk(n) }\n}";
        let fs = fns(src);
        let ev = events_of(&fs[0]);
        assert!(ev.contains(&&EventKind::PathCall {
            segments: vec!["Vec".into(), "with_capacity".into()]
        }));
        assert!(ev.contains(&&EventKind::PathCall {
            segments: vec!["mk".into()]
        }));
        // The tail of a path is still not a call of its own.
        assert!(!ev.contains(&&EventKind::PathCall {
            segments: vec!["with_capacity".into()]
        }));
    }

    #[test]
    fn slice_types_and_patterns_are_not_indexing() {
        let src = "fn f(v: &mut [u32]) {\n    let [a, b] = [1u32, 2];\n    let _t: [u32; 2] = [a, b];\n    if a != b {}\n    let _e = o.map_or(&[][..], |n| &v[..]);\n}";
        let fs = fns(src);
        assert!(
            !events_of(&fs[0]).contains(&&EventKind::Index),
            "{:?}",
            fs[0].events
        );
        // The forms that can panic still count: `v[i]`, `v[1..]`, `v[..=2]`.
        let fs = fns("fn g(v: &[u32]) {\n    let _ = (&v[..], v[i], &v[1..], &v[..=2]);\n}");
        let indexing = events_of(&fs[0])
            .into_iter()
            .filter(|k| **k == EventKind::Index);
        assert_eq!(indexing.count(), 3, "{:?}", fs[0].events);
    }

    #[test]
    fn bindings_from_params_and_lets() {
        let src = "fn f(rel: &Relation, n: usize) {\n    let part = Partitioner::new();\n    let cache: SortCache = make();\n}";
        let fs = fns(src);
        assert_eq!(
            fs[0].bindings.get("rel").map(String::as_str),
            Some("Relation")
        );
        assert_eq!(
            fs[0].bindings.get("part").map(String::as_str),
            Some("Partitioner")
        );
        assert_eq!(
            fs[0].bindings.get("cache").map(String::as_str),
            Some("SortCache")
        );
    }

    #[test]
    fn generics_where_clauses_and_return_types_do_not_confuse_bodies() {
        let src = "impl<'a, S: CellSink> Engine<'a, S> {\n    fn agg<F: Fn(usize) -> bool>(&mut self, s: u32) -> Vec<u32>\n    where\n        F: Clone,\n    {\n        self.update(s);\n        Vec::new()\n    }\n}\nfn after() { other(); }";
        let fs = fns(src);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert_eq!(fs[0].owner.as_deref(), Some("Engine"));
        assert!(events_of(&fs[0]).contains(&&EventKind::Method {
            chain: vec!["self".into()],
            name: "update".into()
        }));
        assert_eq!(fs[1].name, "after");
        assert_eq!(fs[1].owner, None, "owner stack must unwind");
    }

    #[test]
    fn trait_default_methods_get_the_trait_as_owner() {
        let src = "trait Sink {\n    fn emit(&mut self);\n    fn emit_twice(&mut self) {\n        self.emit();\n        self.emit();\n    }\n}";
        let fs = fns(src);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].owner.as_deref(), Some("Sink"));
        assert!(fs[0].events.is_empty(), "declaration has no body");
        assert_eq!(fs[1].events.len(), 2);
    }

    #[test]
    fn strings_and_comments_produce_no_events() {
        let src =
            "fn f() {\n    // self.x() and v[0] discussed\n    let s = \"panic!(no) v[0]\";\n}";
        let fs = fns(src);
        assert!(fs[0].events.is_empty(), "{:?}", fs[0].events);
    }
}
