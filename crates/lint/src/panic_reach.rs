//! Panic-reachability: which panic sites can a public entry point reach?
//!
//! Clippy bans the loud aborts (`unwrap`, `expect`, `panic!`) in library
//! code outright, but `assert!` and slice indexing stay legal outside
//! els-core — kernels index tight loops by design.
//! This pass closes the gap *inter-procedurally*: it collects every
//! remaining panic site in the workspace, walks the call graph forward
//! from the engine's public entry points, and reports each site a query
//! can actually reach, together with the shortest call path that reaches
//! it. Findings are ratcheted per file in `lint-baseline.json`, so the
//! reachable-panic surface can only shrink.
//!
//! Known blind spots, shared with the call graph it rides on: closures and
//! function values passed as arguments (`scheduler::run_tasks(task)`),
//! trait-object dispatch, and turbofish calls produce no edges, so sites
//! behind them are missed, not misattributed. Integer overflow and
//! division are out of scope — they are compiled to wrapping/trapping code
//! the token stream cannot distinguish.

use std::collections::VecDeque;

use crate::callgraph::CallGraph;
use crate::lexer::TokenKind;
use crate::passes::{Lint, Violation};
use crate::symbols::{ParsedFile, SymbolTable};
use crate::HardError;

/// The engine's public entry points: `(file, owner, fn name)`. `Engine` is
/// the one query facade, and these are all of its public query methods,
/// plus the server's connection loop; everything a client can invoke
/// funnels through them. Renaming or moving one must update this list —
/// the pass hard-fails if an entry fails to resolve, so the list cannot
/// silently rot.
pub const ENTRY_POINTS: &[(&str, Option<&str>, &str)] = &[
    ("src/engine.rs", Some("Engine"), "prepare"),
    ("src/engine.rs", Some("Engine"), "execute"),
    ("src/engine.rs", Some("Engine"), "execute_if_cached"),
    ("src/engine.rs", Some("Engine"), "explain"),
    ("src/engine.rs", Some("Engine"), "explain_analyze"),
    ("crates/server/src/server.rs", None, "serve_connection"),
];

/// Macros that abort when they fire (`debug_assert*` excluded: it is
/// compiled out of release builds, the configuration the engine ships).
const PANIC_MACROS: &[&str] =
    &["panic", "todo", "unimplemented", "unreachable", "assert", "assert_eq", "assert_ne"];

/// Keywords that can directly precede a `[` that is *not* an index
/// expression (slice patterns, array types in expression position, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move", "as",
    "const", "static", "dyn", "impl", "for", "where", "while", "loop", "use", "pub", "fn", "enum",
    "struct", "trait", "type", "unsafe", "crate", "super", "mod", "extern", "box", "await",
    "async", "yield",
];

/// One reachable panic site with its shortest witness path, for the JSON
/// report.
#[derive(Debug, Clone)]
pub struct PanicPath {
    /// File holding the panic site.
    pub file: String,
    /// 1-based line / column of the site.
    pub line: u32,
    /// Column.
    pub col: u32,
    /// What panics there (`` `assert!` ``, `` slice index ``, ...).
    pub what: String,
    /// Qualified fn names from the entry point to the enclosing function.
    pub path: Vec<String>,
}

struct Site {
    fn_id: usize,
    file: String,
    line: u32,
    col: u32,
    what: String,
}

/// Run the pass: collect sites, BFS from the entry points, report every
/// reachable site. Returns the witness paths for the JSON report.
pub fn run(
    files: &[ParsedFile],
    table: &SymbolTable,
    graph: &CallGraph,
    violations: &mut Vec<Violation>,
    hard_errors: &mut Vec<HardError>,
) -> Vec<PanicPath> {
    let sites = collect_sites(files, table);

    // Resolve entry points; a miss is a hard error so refactors keep the
    // list honest.
    let mut entries = Vec::new();
    for &(file, owner, name) in ENTRY_POINTS {
        let found = table
            .defs_named(name)
            .iter()
            .copied()
            .find(|&i| table.fns[i].file == file && table.fns[i].owner.as_deref() == owner);
        match found {
            Some(i) => entries.push(i),
            None => hard_errors.push(HardError {
                file: file.to_string(),
                line: 0,
                message: format!(
                    "panic-reachability entry point `{}{name}` not found in {file}; \
                     update ENTRY_POINTS in crates/lint/src/panic_reach.rs",
                    owner.map(|o| format!("{o}::")).unwrap_or_default()
                ),
            }),
        }
    }

    // Multi-source BFS with parent pointers: parent[f] is the fn we first
    // reached f from, giving the shortest entry-to-f call path.
    let mut parent: Vec<Option<usize>> = vec![None; table.fns.len()];
    let mut visited: Vec<bool> = vec![false; table.fns.len()];
    let mut queue = VecDeque::new();
    for &e in &entries {
        if !visited[e] {
            visited[e] = true;
            queue.push_back(e);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &g in &graph.callees[f] {
            if !visited[g] {
                visited[g] = true;
                parent[g] = Some(f);
                queue.push_back(g);
            }
        }
    }

    let mut paths = Vec::new();
    for site in sites {
        if !visited[site.fn_id] {
            continue;
        }
        let mut path = vec![table.fns[site.fn_id].qualified()];
        let mut at = site.fn_id;
        while let Some(p) = parent[at] {
            path.push(table.fns[p].qualified());
            at = p;
        }
        path.reverse();
        violations.push(Violation {
            lint: Lint::PanicReachability,
            file: site.file.clone(),
            line: site.line,
            col: site.col,
            message: format!(
                "{} reachable from public entry `{}` via {}",
                site.what,
                path.first().map(String::as_str).unwrap_or("?"),
                path.join(" -> ")
            ),
            suppressed: false,
        });
        paths.push(PanicPath {
            file: site.file,
            line: site.line,
            col: site.col,
            what: site.what,
            path,
        });
    }
    paths
}

/// Every panic site inside a function body, workspace-wide.
fn collect_sites(files: &[ParsedFile], table: &SymbolTable) -> Vec<Site> {
    let mut sites = Vec::new();
    for (file_idx, pf) in files.iter().enumerate() {
        for ci in 0..pf.code.len() {
            let Some(fn_id) = table.fn_at[file_idx][ci] else { continue };
            let Some(tok) = pf.tok(ci) else { continue };
            let mut push = |what: String| {
                sites.push(Site {
                    fn_id,
                    file: pf.source.rel_path.clone(),
                    line: tok.line,
                    col: tok.col,
                    what,
                });
            };
            match tok.kind {
                TokenKind::Ident => {
                    let prev_dot = ci > 0 && pf.is_punct(ci - 1, '.');
                    if prev_dot
                        && matches!(tok.text.as_str(), "unwrap" | "expect")
                        && pf.is_punct(ci + 1, '(')
                    {
                        push(format!("`.{}()`", tok.text));
                    }
                    if !prev_dot
                        && PANIC_MACROS.contains(&tok.text.as_str())
                        && pf.is_punct(ci + 1, '!')
                    {
                        push(format!("`{}!`", tok.text));
                    }
                }
                TokenKind::Punct('[') if ci > 0 => {
                    let indexable = match pf.tok(ci - 1) {
                        Some(p) if p.kind == TokenKind::Ident => {
                            !NON_INDEX_KEYWORDS.contains(&p.text.as_str())
                        }
                        Some(p) => matches!(p.kind, TokenKind::Punct(')') | TokenKind::Punct(']')),
                        None => false,
                    };
                    if indexable {
                        push("slice index".to_string());
                    }
                }
                _ => {}
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run_on(srcs: &[(&str, &str, &str)]) -> (Vec<Violation>, Vec<PanicPath>, Vec<HardError>) {
        let files: Vec<ParsedFile> =
            srcs.iter().map(|(k, p, s)| ParsedFile::new(k, SourceFile::parse(p, s))).collect();
        let table = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &table);
        let (mut violations, mut hard) = (Vec::new(), Vec::new());
        let paths = run(&files, &table, &graph, &mut violations, &mut hard);
        (violations, paths, hard)
    }

    // A minimal workspace whose entry points exist so the pass can run.
    fn with_entries(extra: &str) -> Vec<(String, String, String)> {
        let engine = "impl Engine { pub fn prepare(&self) {} pub fn execute(&self) { step1(); } \
                      pub fn execute_if_cached(&self) {} pub fn explain(&self) {} \
                      pub fn explain_analyze(&self) {} }"
            .to_string();
        let server = "pub(crate) fn serve_connection() {}".to_string();
        vec![
            ("els".to_string(), "src/engine.rs".to_string(), engine),
            ("els-server".to_string(), "crates/server/src/server.rs".to_string(), server),
            ("els-core".to_string(), "crates/core/src/x.rs".to_string(), extra.to_string()),
        ]
    }

    fn run_with_entries(extra: &str) -> (Vec<Violation>, Vec<PanicPath>, Vec<HardError>) {
        let owned = with_entries(extra);
        let srcs: Vec<(&str, &str, &str)> =
            owned.iter().map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str())).collect();
        run_on(&srcs)
    }

    #[test]
    fn reachable_assert_is_reported_with_its_shortest_path() {
        let (violations, paths, hard) =
            run_with_entries("pub fn step1() { step2(); }\npub fn step2() { assert!(true); }");
        assert_eq!(hard, vec![]);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.lint, Lint::PanicReachability);
        assert_eq!(v.file, "crates/core/src/x.rs");
        assert!(v.message.contains("Engine::execute -> step1 -> step2"), "{}", v.message);
        assert_eq!(paths[0].path, vec!["Engine::execute", "step1", "step2"]);
    }

    #[test]
    fn unreachable_sites_are_silent() {
        let (violations, _, hard) =
            run_with_entries("pub fn orphan() { x.unwrap(); v[i]; panic!(\"boom\"); }");
        assert_eq!(hard, vec![]);
        assert_eq!(violations, vec![]);
    }

    #[test]
    fn debug_assert_is_not_a_panic_source() {
        let (violations, _, _) =
            run_with_entries("pub fn step1() { debug_assert!(true); debug_assert_eq!(1, 1); }");
        assert_eq!(violations, vec![]);
    }

    #[test]
    fn slice_index_counts_as_a_source_workspace_wide() {
        let (violations, _, _) =
            run_with_entries("pub fn step1(v: &[u32], i: usize) -> u32 { v[i] }");
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("slice index"));
    }

    #[test]
    fn missing_entry_point_is_a_hard_error() {
        let (_, _, hard) = run_on(&[("els", "src/engine.rs", "fn nothing_here() {}")]);
        assert!(!hard.is_empty());
        assert!(hard[0].message.contains("entry point"));
    }
}
