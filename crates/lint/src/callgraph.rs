//! Best-effort workspace call graph over the symbol table.
//!
//! Edges are extracted from token patterns with a hard rule: **no false
//! edges**. Every heuristic errs toward dropping an edge rather than
//! inventing one, because the pass downstream (lock-order) turns edges
//! into findings and a phantom edge becomes a phantom finding someone has
//! to argue with. The recall limits this buys are documented per pattern
//! below; the runtime `els_lock_audit` shim and the per-site token lints
//! cover what the graph cannot see.
//!
//! Known blind spots: closures and function values passed as arguments
//! (`scheduler::run_tasks(task)`), trait-object dispatch (`dyn
//! CardinalityEstimator`), and turbofish calls produce no edges, so what
//! happens behind them is missed, not misattributed.
//!
//! Call forms resolved:
//!
//! * `free(...)` — resolved among free functions, narrowest scope first:
//!   same file, then same crate, then workspace.
//! * `Type::method(...)` / `Self::method(...)` — resolved to `method`
//!   definitions owned by that `impl`/`trait` type.
//! * `module::free(...)` — the qualifier must be a known workspace module
//!   segment (file stem, crate ident, `crate`/`self`/`super`); unknown
//!   qualifiers (`std` paths, foreign types) produce no edge.
//! * `self.method(...)` — resolved within the enclosing `impl` owner.
//! * `recv.method(...)` — resolved only when exactly one owner in the
//!   whole workspace defines `method` *and* the name is not a common std
//!   method name (`len`, `push`, `get`, ...), where binding to the one
//!   workspace definition would usually be wrong.

use crate::lexer::TokenKind;
use crate::symbols::{ParsedFile, SymbolTable};

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Index of the calling function in the symbol table.
    pub caller: usize,
    /// Index of the called function.
    pub callee: usize,
    /// File the call site is in.
    pub file_idx: usize,
    /// Code-index of the callee name token within that file.
    pub ci: usize,
    /// 1-based source line of the call.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Every resolved call site, in file/source order.
    pub calls: Vec<Call>,
    /// Deduplicated, sorted callee lists per function.
    pub callees: Vec<Vec<usize>>,
}

/// Method names so common on std types that an unqualified `recv.name(...)`
/// must never bind to a workspace definition just because the workspace
/// happens to define the name once.
const COMMON_STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "ceil",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "fetch_add",
    "fetch_sub",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_finite",
    "is_nan",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "load",
    "lock",
    "log2",
    "map",
    "map_err",
    "max",
    "median",
    "min",
    "ne",
    "next",
    "or_default",
    "or_else",
    "or_insert",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "read",
    "read_line",
    "recv",
    "remove",
    "replace",
    "retain",
    "rev",
    "round",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by_key",
    "split",
    "splitn",
    "sqrt",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "trim",
    "trunc",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "write",
    "write_all",
    "zip",
];

/// Keywords that can be followed by `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "in", "as", "where", "break",
    "continue", "else", "let", "fn", "impl", "trait", "struct", "enum", "use", "mod", "pub",
    "unsafe", "const", "static", "ref", "mut", "dyn", "type", "crate", "super", "box", "await",
    "async", "yield",
];

impl CallGraph {
    /// Extract every resolvable call edge.
    pub fn build(files: &[ParsedFile], table: &SymbolTable) -> CallGraph {
        let mut calls = Vec::new();
        for (file_idx, pf) in files.iter().enumerate() {
            for ci in 0..pf.code.len() {
                let Some(caller) = table.fn_at[file_idx][ci] else { continue };
                let Some(tok) = pf.tok(ci) else { continue };
                if tok.kind != TokenKind::Ident || !pf.is_punct(ci + 1, '(') {
                    continue;
                }
                let name = tok.text.as_str();
                // Its own definition (`fn name(`) is not a call.
                if ci > 0 && pf.text(ci - 1) == "fn" {
                    continue;
                }
                let targets = resolve(pf, ci, name, caller, table);
                for callee in targets {
                    calls.push(Call { caller, callee, file_idx, ci, line: tok.line });
                }
            }
        }
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); table.fns.len()];
        for c in &calls {
            callees[c.caller].push(c.callee);
        }
        for list in &mut callees {
            list.sort_unstable();
            list.dedup();
        }
        CallGraph { calls, callees }
    }
}

/// Resolve the call at `ci` (ident `name` followed by `(`) to zero or more
/// symbol-table entries.
fn resolve(
    pf: &ParsedFile,
    ci: usize,
    name: &str,
    caller: usize,
    table: &SymbolTable,
) -> Vec<usize> {
    // `recv.name(` — a method call.
    if ci > 0 && pf.is_punct(ci - 1, '.') {
        let bare_self = ci >= 2
            && pf.text(ci - 2) == "self"
            && !(ci >= 3 && (pf.is_punct(ci - 3, '.') || pf.is_punct(ci - 3, ':')));
        if bare_self {
            // `self.name(` — the enclosing impl owner's method.
            let Some(owner) = table.fns[caller].owner.as_deref() else { return Vec::new() };
            return owned_defs(table, owner, name);
        }
        // `recv.name(` — bind only a workspace-unique, non-std name.
        if COMMON_STD_METHODS.contains(&name) {
            return Vec::new();
        }
        let owned: Vec<usize> = table
            .defs_named(name)
            .iter()
            .copied()
            .filter(|&i| table.fns[i].owner.is_some())
            .collect();
        let owners: Vec<&str> =
            owned.iter().map(|&i| table.fns[i].owner.as_deref().unwrap_or("")).collect();
        let unique_owner = owners.windows(2).all(|w| w[0] == w[1]);
        return if !owned.is_empty() && unique_owner { owned } else { Vec::new() };
    }
    // `qual::name(` — a path-qualified call.
    if ci >= 3 && pf.is_punct(ci - 1, ':') && pf.is_punct(ci - 2, ':') {
        let Some(qual) = pf.tok(ci - 3).filter(|t| t.kind == TokenKind::Ident) else {
            return Vec::new(); // `<T as Trait>::name(` and friends: skip.
        };
        let qual = qual.text.as_str();
        if qual == "Self" {
            let Some(owner) = table.fns[caller].owner.as_deref() else { return Vec::new() };
            return owned_defs(table, owner, name);
        }
        if table.owners.contains(qual) {
            return owned_defs(table, qual, name);
        }
        if table.modules.contains(qual) {
            return free_defs(pf, table, name);
        }
        return Vec::new(); // std / foreign qualifier.
    }
    // Bare `name(` — a free-function call (or a keyword / tuple ctor,
    // which resolves to nothing because no free fn carries that name).
    if CALL_KEYWORDS.contains(&name) {
        return Vec::new();
    }
    free_defs(pf, table, name)
}

/// Definitions of `name` owned by `owner`.
fn owned_defs(table: &SymbolTable, owner: &str, name: &str) -> Vec<usize> {
    table
        .defs_named(name)
        .iter()
        .copied()
        .filter(|&i| table.fns[i].owner.as_deref() == Some(owner))
        .collect()
}

/// Free-function definitions of `name`, narrowest scope that has any:
/// same file, then same crate, then the whole workspace.
fn free_defs(pf: &ParsedFile, table: &SymbolTable, name: &str) -> Vec<usize> {
    let frees: Vec<usize> =
        table.defs_named(name).iter().copied().filter(|&i| table.fns[i].owner.is_none()).collect();
    for scope in [
        frees
            .iter()
            .copied()
            .filter(|&i| table.fns[i].file == pf.source.rel_path)
            .collect::<Vec<_>>(),
        frees.iter().copied().filter(|&i| table.fns[i].crate_name == pf.crate_name).collect(),
        frees.clone(),
    ] {
        if !scope.is_empty() {
            return scope;
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn build(srcs: &[(&str, &str, &str)]) -> (Vec<ParsedFile>, SymbolTable, CallGraph) {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(krate, path, src)| ParsedFile::new(krate, SourceFile::parse(path, src)))
            .collect();
        let table = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &table);
        (files, table, graph)
    }

    fn edges(table: &SymbolTable, graph: &CallGraph) -> Vec<(String, String)> {
        graph
            .calls
            .iter()
            .map(|c| (table.fns[c.caller].qualified(), table.fns[c.callee].qualified()))
            .collect()
    }

    #[test]
    fn free_calls_prefer_the_same_file_then_crate() {
        let (_, t, g) = build(&[
            ("els-core", "crates/core/src/a.rs", "fn helper() {}\nfn caller() { helper(); }"),
            ("els-core", "crates/core/src/b.rs", "fn helper() {}"),
            ("els-exec", "crates/exec/src/c.rs", "fn caller2() { helper(); }"),
        ]);
        let e = edges(&t, &g);
        // a.rs caller resolves to its own file's helper only.
        assert!(e.contains(&("caller".into(), "helper".into())));
        let a_caller_edges =
            g.calls.iter().filter(|c| t.fns[c.caller].file == "crates/core/src/a.rs").count();
        assert_eq!(a_caller_edges, 1);
        // c.rs has no crate-local helper: both core candidates are taken.
        let c2 = t.by_name["caller2"][0];
        assert_eq!(g.callees[c2].len(), 2);
    }

    #[test]
    fn qualified_and_self_calls_resolve_to_owners() {
        let (_, t, g) = build(&[(
            "els-core",
            "crates/core/src/x.rs",
            "impl Est { fn inner(&self) {} fn outer(&self) { self.inner(); Self::assoc(); } fn assoc() {} }\n\
             fn free() { Est::assoc(); }",
        )]);
        let e = edges(&t, &g);
        assert!(e.contains(&("Est::outer".into(), "Est::inner".into())));
        assert!(e.contains(&("Est::outer".into(), "Est::assoc".into())));
        assert!(e.contains(&("free".into(), "Est::assoc".into())));
    }

    #[test]
    fn module_qualified_free_calls_resolve_and_std_paths_do_not() {
        let (_, t, g) = build(&[
            ("els-exec", "crates/exec/src/error.rs", "pub fn rowid(i: usize) -> u32 { i as u32 }"),
            (
                "els-exec",
                "crates/exec/src/filter.rs",
                "fn f() { crate::error::rowid(3); std::mem::swap(&mut 1, &mut 2); String::from(\"x\"); }",
            ),
        ]);
        let e = edges(&t, &g);
        assert_eq!(e, vec![("f".to_string(), "rowid".to_string())]);
    }

    #[test]
    fn unqualified_methods_bind_only_unique_non_std_names() {
        let (_, t, g) = build(&[(
            "els-core",
            "crates/core/src/x.rs",
            "impl Hist { fn record_q(&mut self) {} fn len(&self) -> usize { 0 } }\n\
             impl Other { fn dup(&self) {} }\n\
             impl More { fn dup(&self) {} }\n\
             fn f(h: &mut Hist, o: &Other) { h.record_q(); h.len(); o.dup(); }",
        )]);
        let e = edges(&t, &g);
        // record_q: unique owner, not a std name -> edge.
        assert!(e.contains(&("f".into(), "Hist::record_q".into())));
        // len: blacklisted std name -> no edge even though workspace-unique.
        assert!(!e.iter().any(|(_, callee)| callee == "Hist::len"));
        // dup: two owners define it -> ambiguous, no edge.
        assert!(!e.iter().any(|(_, callee)| callee.ends_with("::dup")));
    }

    #[test]
    fn macros_keywords_and_ctors_produce_no_edges() {
        let (_, t, g) = build(&[(
            "els-core",
            "crates/core/src/x.rs",
            "fn target() {}\n\
             fn f() -> Option<u32> { assert!(true); vec![1]; if (1 > 0) { return Some(3); } None }",
        )]);
        assert!(edges(&t, &g).is_empty());
        let _ = t;
    }

    #[test]
    fn decoy_calls_in_strings_comments_and_tests_are_invisible() {
        let (_, t, g) = build(&[(
            "els-core",
            "crates/core/src/x.rs",
            "fn target() {}\n\
             // target();\n\
             /* target(); */\n\
             fn f() { let s = \"target()\"; let r = r#\"target()\"#; }\n\
             #[cfg(test)]\nmod tests { fn t() { super::target(); } }",
        )]);
        assert!(edges(&t, &g).is_empty());
        let _ = t;
    }
}
