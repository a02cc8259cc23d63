//! Lock-order analysis for `crates/service`.
//!
//! Extracts every lock acquisition (`.lock()`, the poison-tolerant
//! `.lock_ok()` / `.lock_repair(..)` helpers, and empty-arg `.read()` /
//! `.write()` / `.read_ok()` / `.write_ok()` on RwLocks), scopes how long
//! each is held, and builds the nesting graph:
//!
//! * `let g = x.lock()…;` is a **guard**: held until its enclosing block
//!   closes or an explicit `drop(g)`.
//! * any other acquisition is a **statement temporary**: held until the
//!   statement's `;`, or — matching Rust's scrutinee-temporary rule — to
//!   the end of the `match`/`if let` body when it appears in a scrutinee.
//! * while a lock is held, a call into a workspace function that
//!   (transitively) locks contributes edges to everything that callee
//!   acquires. Calls are resolved by name only when the name is defined
//!   exactly once in the crate and is not a common std method name, so
//!   `map.get(..)` never aliases `Registry::get`.
//!
//! A lock's **class** is `<file-stem>.<field>` (e.g. `server.batches`,
//! `shard.clients`); indexing is skipped, so `self.clients[i].lock()` is
//! class `shard.clients`. Findings: `cycle:…` for cycles in the nesting
//! graph (including recursive self-edges), `order:A->B` for edges that
//! contradict the declared hierarchy in `check/invariants.toml` (lower
//! level = acquired first; equal levels may not nest), and
//! `undeclared:C` for classes the hierarchy does not name — every lock
//! the crate adds must take a documented place in the hierarchy.
//!
//! Test modules are skipped: tests may poison and re-grab locks in
//! deliberately odd orders.

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::{SourceFile, Tok};
use crate::Finding;

pub const LINT: &str = "lock-order";

/// Declared lock hierarchy: class → level; lower levels are acquired first.
#[derive(Debug, Default, Clone)]
pub struct Hierarchy {
    pub levels: BTreeMap<String, i64>,
}

const ACQ_METHODS: &[&str] = &[
    "lock",
    "lock_ok",
    "lock_repair",
    "read",
    "write",
    "read_ok",
    "write_ok",
];
/// These must have empty argument lists to count (filters io `read(&mut buf)`).
const EMPTY_ARG_ONLY: &[&str] = &["lock", "lock_ok", "read", "write", "read_ok", "write_ok"];

/// Method/function names too generic to resolve by name across the crate.
const COMMON_NAMES: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "len",
    "is_empty",
    "new",
    "clone",
    "push",
    "pop",
    "iter",
    "next",
    "send",
    "recv",
    "wait",
    "notify_all",
    "notify_one",
    "drain",
    "take",
    "clear",
    "contains_key",
    "contains",
    "entry",
    "or_insert",
    "unwrap",
    "expect",
    "map",
    "and_then",
    "or_else",
    "min",
    "max",
    "extend",
    "join",
    "spawn",
    "split",
    "find",
    "retain",
    "with_capacity",
    "from",
    "into",
    "to_string",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "write_all",
    "flush",
    "read_to_end",
    "read_exact",
    "parse",
    "run",
    "start",
    "stop",
    "close",
    "open",
    "load",
    "save",
    "handle",
    "default",
    "fmt",
    "drop",
    "eq",
    "cmp",
];

#[derive(Debug, Clone)]
struct Acq {
    tok: usize,
    line: usize,
    class: String,
    /// Token index after which the lock is no longer held (inclusive bound).
    hold_end: usize,
}

#[derive(Debug)]
struct FnFacts {
    name: String,
    file: String,
    acqs: Vec<Acq>,
    /// (call token index, source line, callee name) for resolvable calls.
    calls: Vec<(usize, usize, String)>,
}

/// A nesting edge: `from` was held when `to` was acquired.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    pub func: String,
}

pub fn run(files: &[&SourceFile], hierarchy: Option<&Hierarchy>) -> Vec<Finding> {
    let edges = nesting_edges(files);
    let mut findings = Vec::new();

    // Deduplicate by (from, to), keeping the first (deterministic) site.
    let mut uniq: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for e in &edges {
        uniq.entry((e.from.clone(), e.to.clone()))
            .or_insert_with(|| e.clone());
    }

    for cycle in find_cycles(&uniq) {
        let site = &uniq[&(cycle[0].clone(), cycle[1 % cycle.len()].clone())];
        let mut path = cycle.clone();
        path.push(cycle[0].clone());
        findings.push(Finding {
            lint: LINT,
            file: site.file.clone(),
            line: site.line,
            func: site.func.clone(),
            pattern: format!("cycle:{}", path.join("->")),
            message: format!("lock acquisition cycle {}", path.join(" -> ")),
        });
    }

    if let Some(h) = hierarchy {
        for e in uniq.values() {
            let (Some(&from), Some(&to)) = (h.levels.get(&e.from), h.levels.get(&e.to)) else {
                continue; // undeclared classes are reported once below
            };
            if from >= to {
                findings.push(Finding {
                    lint: LINT,
                    file: e.file.clone(),
                    line: e.line,
                    func: e.func.clone(),
                    pattern: format!("order:{}->{}", e.from, e.to),
                    message: format!(
                        "`{}` (level {from}) held while acquiring `{}` (level {to}); \
                         the declared hierarchy requires strictly increasing levels",
                        e.from, e.to
                    ),
                });
            }
        }
        // Every acquired class must have a declared place in the hierarchy.
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for facts in collect_facts(files) {
            for a in &facts.acqs {
                if !h.levels.contains_key(&a.class) && seen.insert(a.class.clone()) {
                    findings.push(Finding {
                        lint: LINT,
                        file: facts.file.clone(),
                        line: a.line,
                        func: facts.name.clone(),
                        pattern: format!("undeclared:{}", a.class),
                        message: format!(
                            "lock class `{}` is not declared in check/invariants.toml",
                            a.class
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// All nesting edges across `files`, including cross-function edges from
/// locks held over calls into functions that (transitively) lock.
pub fn nesting_edges(files: &[&SourceFile]) -> Vec<Edge> {
    let all_facts: Vec<FnFacts> = collect_facts(files);

    // fn name → indices (for uniqueness check during call resolution).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in all_facts.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }

    // Transitive acquire sets per fn (fixpoint over the call graph).
    let mut acquires: Vec<BTreeSet<String>> = all_facts
        .iter()
        .map(|f| f.acqs.iter().map(|a| a.class.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..all_facts.len() {
            for (_, _, callee) in &all_facts[i].calls {
                let Some(js) = by_name.get(callee.as_str()) else {
                    continue;
                };
                if js.len() != 1 {
                    continue;
                }
                let j = js[0];
                let add: Vec<String> = acquires[j]
                    .iter()
                    .filter(|c| !acquires[i].contains(*c))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    acquires[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges = Vec::new();
    for (i, facts) in all_facts.iter().enumerate() {
        for a in &facts.acqs {
            // Direct nesting: a later acquisition inside a's hold span.
            for b in &facts.acqs {
                if b.tok > a.tok && b.tok <= a.hold_end {
                    edges.push(Edge {
                        from: a.class.clone(),
                        to: b.class.clone(),
                        file: facts.file.clone(),
                        line: b.line,
                        func: facts.name.clone(),
                    });
                }
            }
            // Held-across-call nesting.
            for (c, call_line, callee) in &facts.calls {
                if *c <= a.tok || *c > a.hold_end {
                    continue;
                }
                let Some(js) = by_name.get(callee.as_str()) else {
                    continue;
                };
                if js.len() != 1 || js[0] == i {
                    continue;
                }
                for class in &acquires[js[0]] {
                    edges.push(Edge {
                        from: a.class.clone(),
                        to: class.clone(),
                        file: facts.file.clone(),
                        line: *call_line,
                        func: facts.name.clone(),
                    });
                }
            }
        }
    }
    edges
}

fn collect_facts(files: &[&SourceFile]) -> Vec<FnFacts> {
    let mut out = Vec::new();
    for sf in files {
        let stem = file_stem(&sf.rel);
        for f in &sf.fns {
            if sf.is_test_line(f.line) || sf.is_test_line(sf.toks[f.body_open].line) {
                continue;
            }
            out.push(scan_fn(sf, &stem, f));
        }
    }
    out
}

fn file_stem(rel: &str) -> String {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
        .to_string()
}

fn scan_fn(sf: &SourceFile, stem: &str, f: &crate::scan::FnSpan) -> FnFacts {
    let toks = &sf.toks;
    let mut facts = FnFacts {
        name: f.name.clone(),
        file: sf.rel.clone(),
        acqs: Vec::new(),
        calls: Vec::new(),
    };
    let mut i = f.body_open + 1;
    while i < f.body_close {
        let t = &toks[i];
        // Skip nested fn items entirely (they get their own facts).
        if t.is("fn") && sf.fns.iter().any(|g| g.fn_tok == i && g.fn_tok != f.fn_tok) {
            if let Some(g) = sf.fns.iter().find(|g| g.fn_tok == i) {
                i = g.body_close + 1;
                continue;
            }
        }
        // Acquisition: `.method(` with the right arity.
        if ACQ_METHODS.contains(&t.text.as_str())
            && i >= 1
            && toks[i - 1].is(".")
            && toks.get(i + 1).is_some_and(|p| p.is("("))
        {
            let empty_args = toks.get(i + 2).is_some_and(|p| p.is(")"));
            let ok = if EMPTY_ARG_ONLY.contains(&t.text.as_str()) {
                empty_args
            } else {
                true // lock_repair takes a repair closure
            };
            if ok {
                if let Some(class) = receiver_class(toks, i - 1) {
                    let after = skip_call_chain(toks, i + 1);
                    let hold_end = hold_span(sf, f, i, after);
                    facts.acqs.push(Acq {
                        tok: i,
                        line: toks[i].line,
                        class: format!("{stem}.{class}"),
                        hold_end,
                    });
                }
                i += 1;
                continue;
            }
        }
        // Call site: `name(` not preceded by `fn`, not a macro `name!(`.
        if toks.get(i + 1).is_some_and(|p| p.is("("))
            && t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            && !(i >= 1 && (toks[i - 1].is("fn") || toks[i - 1].is("!")))
            && !COMMON_NAMES.contains(&t.text.as_str())
            && !ACQ_METHODS.contains(&t.text.as_str())
            && !matches!(
                t.text.as_str(),
                "if" | "while" | "for" | "match" | "return" | "loop" | "Some" | "Ok" | "Err"
            )
            && t.text != f.name
        {
            facts.calls.push((i, t.line, t.text.clone()));
        }
        // Explicit guard release: `drop(name)` truncates that guard's span.
        if t.is("drop") && toks.get(i + 1).is_some_and(|p| p.is("(")) {
            if let Some(name) = toks.get(i + 2) {
                if toks.get(i + 3).is_some_and(|p| p.is(")")) {
                    truncate_guard(sf, &mut facts, f, &name.text, i);
                }
            }
        }
        i += 1;
    }
    facts
}

/// The lock's class: the field identifier directly before `.lock()`,
/// skipping one `[index]` group (`self.clients[i].lock()` → `clients`).
fn receiver_class(toks: &[Tok], dot: usize) -> Option<String> {
    let mut p = dot.checked_sub(1)?;
    if toks[p].is("]") {
        let mut depth = 0i32;
        loop {
            if toks[p].is("]") {
                depth += 1;
            } else if toks[p].is("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            p = p.checked_sub(1)?;
        }
        p = p.checked_sub(1)?;
    }
    let t = &toks[p];
    // A bare `self.lock()` receiver is a lock-wrapper impl (the `sync.rs`
    // extension traits), not a real acquisition site: its callers invoke
    // `x.lock_ok()` directly, which is itself a recognized method.
    if t.is("self") {
        return None;
    }
    if t.text
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        Some(t.text.clone())
    } else {
        None
    }
}

/// Skips `(args)` then any `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)`
/// suffix; returns the index of the first token after the chain.
fn skip_call_chain(toks: &[Tok], open_paren: usize) -> usize {
    let mut i = skip_group(toks, open_paren);
    while toks.get(i).is_some_and(|t| t.is("."))
        && toks
            .get(i + 1)
            .is_some_and(|t| matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_or_else"))
        && toks.get(i + 2).is_some_and(|t| t.is("("))
    {
        i = skip_group(toks, i + 2);
    }
    i
}

/// `toks[open]` is `(`/`[`/`{`; returns the index just past its closer.
fn skip_group(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is(o) {
            depth += 1;
        } else if toks[i].is(c) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Computes how long the acquisition at `acq` (method token) is held.
/// `after` is the first token past the `.lock().unwrap()`-style chain.
fn hold_span(sf: &SourceFile, f: &crate::scan::FnSpan, acq: usize, after: usize) -> usize {
    let toks = &sf.toks;
    // Guard binding: chain is the whole initializer of `let [mut] name = …;`
    if toks.get(after).is_some_and(|t| t.is(";")) {
        if let Some(_name) = let_binding_name(toks, acq) {
            // Held to the close of the innermost enclosing block.
            if let Some(close) = enclosing_block_close(sf, f, acq) {
                return close;
            }
        }
    }
    // Statement temporary: to the `;`, or through a `match`/`if let` body
    // whose scrutinee contains the acquisition.
    let mut paren = 0i32;
    let mut i = after;
    while i < f.body_close {
        let t = &toks[i];
        if t.is("(") || t.is("[") {
            paren += 1;
        } else if t.is(")") || t.is("]") {
            if paren == 0 {
                return i; // closed an enclosing group (e.g. a call argument)
            }
            paren -= 1;
        } else if paren == 0 && t.is(";") {
            return i;
        } else if paren == 0 && t.is("{") {
            // Scrutinee temporary: lives to the end of the block.
            return sf.brace_match[i].unwrap_or(f.body_close).min(f.body_close);
        } else if paren == 0 && t.is("}") {
            return i; // tail expression
        }
        i += 1;
    }
    f.body_close
}

/// If the statement containing the chain starting near `acq` is a plain
/// `let [mut] name = <receiver>.lock()…`, returns `name`.
fn let_binding_name(toks: &[Tok], acq: usize) -> Option<String> {
    // Walk back over the receiver chain: `a . b [i] . c . lock`.
    let mut p = acq.checked_sub(1)?; // the `.`
    loop {
        p = p.checked_sub(1)?;
        if toks[p].is("]") {
            let mut depth = 0i32;
            loop {
                if toks[p].is("]") {
                    depth += 1;
                } else if toks[p].is("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                p = p.checked_sub(1)?;
            }
        } else if !toks[p]
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return None; // receiver is an expression, not a simple path
        }
        if p == 0 || !toks[p - 1].is(".") {
            break;
        }
        p -= 1; // step onto the `.`; loop decrements onto the next segment
    }
    // Expect `let [mut] name =` directly before the chain.
    let eq = p.checked_sub(1)?;
    if !toks[eq].is("=") {
        return None;
    }
    let name = eq.checked_sub(1)?;
    let mut kw = name.checked_sub(1)?;
    if toks[kw].is("mut") {
        kw = kw.checked_sub(1)?;
    }
    if toks[kw].is("let") {
        Some(toks[name].text.clone())
    } else {
        None
    }
}

/// Token index of the `}` closing the innermost block containing `i`.
fn enclosing_block_close(sf: &SourceFile, f: &crate::scan::FnSpan, i: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (open, close)
    for (open, close) in sf.brace_match.iter().enumerate() {
        let Some(close) = close else { continue };
        if open >= f.body_open
            && *close <= f.body_close
            && open < i
            && i < *close
            && best.is_none_or(|(bo, _)| open > bo)
        {
            best = Some((open, *close));
        }
    }
    best.map(|(_, c)| c)
}

/// Applies `drop(name)` at token `at`: the innermost guard bound to `name`
/// that is still held gets its span truncated.
fn truncate_guard(
    sf: &SourceFile,
    facts: &mut FnFacts,
    _f: &crate::scan::FnSpan,
    name: &str,
    at: usize,
) {
    let toks = &sf.toks;
    for a in facts.acqs.iter_mut().rev() {
        if a.tok < at && at <= a.hold_end {
            if let Some(bound) = let_binding_name(toks, a.tok) {
                if bound == name {
                    a.hold_end = at;
                    return;
                }
            }
        }
    }
}

/// Enumerates elementary cycles (deduped by node set) in the edge graph.
fn find_cycles(edges: &BTreeMap<(String, String), Edge>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        // DFS restricted to nodes >= start to canonicalize each cycle.
        let mut path: Vec<&str> = Vec::new();
        dfs(start, start, &adj, &mut path, &mut |cycle: &[&str]| {
            let mut set: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
            set.sort();
            if seen_sets.insert(set) {
                cycles.push(cycle.iter().map(|s| s.to_string()).collect());
            }
        });
    }
    cycles
}

fn dfs<'a>(
    start: &'a str,
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    emit: &mut impl FnMut(&[&str]),
) {
    path.push(node);
    if let Some(nexts) = adj.get(node) {
        for &n in nexts {
            if n == start {
                emit(path);
            } else if n > start && !path.contains(&n) {
                dfs(start, n, adj, path, emit);
            }
        }
    }
    path.pop();
}

/// Parses the `[[lock]]` tables of `check/invariants.toml`.
pub fn parse_hierarchy(text: &str) -> Result<Hierarchy, String> {
    let tables = crate::toml_min::parse(text).map_err(|e| e.to_string())?;
    let mut levels = BTreeMap::new();
    for t in tables {
        if t.name != "lock" {
            return Err(format!(
                "unexpected table [[{}]] in invariants file",
                t.name
            ));
        }
        let name = t
            .str_field("name")
            .ok_or_else(|| "[[lock]] missing `name`".to_string())?;
        let level = t
            .int_field("level")
            .ok_or_else(|| format!("[[lock]] `{name}` missing `level`"))?;
        if levels.insert(name.to_string(), level).is_some() {
            return Err(format!("duplicate lock class `{name}`"));
        }
    }
    Ok(Hierarchy { levels })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges_of(src: &str) -> Vec<(String, String)> {
        let sf = SourceFile::parse("x.rs", src);
        let mut e: Vec<_> = nesting_edges(&[&sf])
            .into_iter()
            .map(|e| (e.from, e.to))
            .collect();
        e.sort();
        e.dedup();
        e
    }

    #[test]
    fn guard_then_lock_is_an_edge() {
        let src = "fn f(s: &S) {\n\
                   let g = s.a.lock().unwrap();\n\
                   s.b.lock().unwrap().touch();\n\
                   }\n";
        assert_eq!(edges_of(src), vec![("x.a".into(), "x.b".into())]);
    }

    #[test]
    fn bare_self_receiver_is_not_an_acquisition() {
        // Lock-wrapper impls (`impl LockExt for Mutex { fn lock_ok(&self)
        // { self.lock() ... } }`) must not mint a `<file>.self` class.
        let src = "impl<T> LockExt<T> for Mutex<T> {\n\
                   fn lock_ok(&self) -> MutexGuard<'_, T> {\n\
                   let g = self.lock().unwrap_or_else(|e| e.into_inner());\n\
                   self.inner.lock().unwrap().touch();\n\
                   g\n\
                   }\n\
                   }\n";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn sequential_temps_are_not_edges() {
        let src = "fn f(s: &S) {\n\
                   s.a.lock().unwrap().touch();\n\
                   s.b.lock().unwrap().touch();\n\
                   }\n";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(s: &S) {\n\
                   let g = s.a.lock().unwrap();\n\
                   drop(g);\n\
                   s.b.lock().unwrap().touch();\n\
                   }\n";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn scrutinee_temp_spans_the_match_body() {
        let src = "fn f(s: &S) -> u32 {\n\
                   match s.a.lock().unwrap().state() {\n\
                   0 => s.b.lock().unwrap().go(),\n\
                   _ => 0,\n\
                   }\n\
                   }\n";
        assert_eq!(edges_of(src), vec![("x.a".into(), "x.b".into())]);
    }

    #[test]
    fn block_scope_ends_a_guard() {
        let src = "fn f(s: &S) {\n\
                   {\n\
                   let g = s.a.lock().unwrap();\n\
                   g.touch();\n\
                   }\n\
                   s.b.lock().unwrap().touch();\n\
                   }\n";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn cross_function_edges_and_cycle() {
        let src = "fn grab_b(s: &S) { s.b.lock().unwrap().touch(); }\n\
                   fn grab_a(s: &S) { s.a.lock().unwrap().touch(); }\n\
                   fn ab(s: &S) { let g = s.a.lock().unwrap(); grab_b(s); }\n\
                   fn ba(s: &S) { let g = s.b.lock().unwrap(); grab_a(s); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let findings = run(&[&sf], None);
        assert!(
            findings.iter().any(|f| f.pattern.starts_with("cycle:")),
            "{findings:?}"
        );
    }

    #[test]
    fn indexing_receiver_resolves_to_field() {
        let src = "fn f(s: &S, i: usize) {\n\
                   let g = s.members.lock().unwrap();\n\
                   s.clients[i].lock().unwrap().go();\n\
                   }\n";
        assert_eq!(
            edges_of(src),
            vec![("x.members".into(), "x.clients".into())]
        );
    }

    #[test]
    fn hierarchy_violation_and_undeclared() {
        let src = "fn f(s: &S) {\n\
                   let g = s.inner.lock().unwrap();\n\
                   s.outer.lock().unwrap().go();\n\
                   s.mystery.lock().unwrap().go();\n\
                   }\n";
        let h = parse_hierarchy(
            "[[lock]]\nname = \"x.outer\"\nlevel = 10\n[[lock]]\nname = \"x.inner\"\nlevel = 20\n",
        )
        .unwrap();
        let findings = run(&[&SourceFile::parse("x.rs", src)], Some(&h));
        assert!(
            findings
                .iter()
                .any(|f| f.pattern == "order:x.inner->x.outer"),
            "{findings:?}"
        );
        assert!(findings.iter().any(|f| f.pattern == "undeclared:x.mystery"));
    }

    #[test]
    fn recursive_same_class_is_a_cycle() {
        let src = "fn f(s: &S) {\n\
                   let g = s.a.lock().unwrap();\n\
                   s.a.lock().unwrap().again();\n\
                   }\n";
        let findings = run(&[&SourceFile::parse("x.rs", src)], None);
        assert!(
            findings.iter().any(|f| f.pattern == "cycle:x.a->x.a"),
            "{findings:?}"
        );
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let src = "fn f(s: &mut TcpStream, buf: &mut [u8]) {\n\
                   let n = s.read(buf).unwrap();\n\
                   let _ = n;\n\
                   }\n";
        let sf = SourceFile::parse("x.rs", src);
        assert!(nesting_edges(&[&sf]).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn f(s: &S) { let g = s.b.lock().unwrap(); s.a.lock().unwrap().go(); }\n\
                   }\n";
        let sf = SourceFile::parse("x.rs", src);
        assert!(nesting_edges(&[&sf]).is_empty());
    }
}
