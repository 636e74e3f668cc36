//! Lock-order deadlock detection over the `els_core::sync` lock classes.
//!
//! The committed total order lives in one place — the `LOCK_ORDER` const
//! in `crates/core/src/sync.rs` — and this pass parses it *from the token
//! stream*, so the lint and the runtime `els_lock_audit` shim can never
//! disagree about the order they enforce.
//!
//! The analysis: every `lock_recovering`/`read_recovering`/
//! `write_recovering` call site is an acquisition of the lock class named
//! by its file stem (classes are `<file stem>.<field>`; a site in a file
//! with no class is a violation, keeping acquisitions confined to their
//! defining modules). For each site the pass computes a *held range* from
//! Rust 2021 temporary-scope rules:
//!
//! * `let g = lock_recovering(&x);` — held to `drop(g)` or the end of the
//!   enclosing block;
//! * `lock_recovering(&x).f().g();` as a plain statement — the guard is a
//!   temporary, dropped at the `;` (or the end of a tail expression);
//! * an acquisition in an `if let`/`while let`/`match` scrutinee — held
//!   through the construct's final `}` (including `else` chains), the
//!   pre-2024 temporary-lifetime rule this workspace compiles under.
//!
//! Another acquisition inside a held range — directly, or transitively
//! through any call-graph path — is an edge `held class -> acquired
//! class`. Every edge must run strictly forward in `LOCK_ORDER`
//! (self-edges are re-entrant acquisition, a deadlock with `std` locks);
//! a cycle among classes is a **hard error** that no suppression can absorb.
//! Closures and trait objects the call graph cannot see are covered by
//! the runtime audit shim during `cargo test`.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::lexer::TokenKind;
use crate::passes::{Lint, Violation};
use crate::symbols::{ParsedFile, SymbolTable};
use crate::HardError;

/// Where the order is declared.
pub const SYNC_FILE: &str = "crates/core/src/sync.rs";

/// The acquisition helpers, the only legal way to take an engine lock
/// (clippy's `unwrap_used` already bans raw `.lock().unwrap()`).
const ACQUIRE_FNS: &[&str] = &["lock_recovering", "read_recovering", "write_recovering"];

/// One held-while-acquiring edge, for the JSON report.
#[derive(Debug, Clone, PartialEq)]
pub struct LockEdge {
    /// Class held at the time.
    pub from: String,
    /// Class being acquired.
    pub to: String,
    /// Witness file / line of the inner acquisition or call.
    pub file: String,
    /// Witness line.
    pub line: u32,
    /// How the inner acquisition happens: `direct` or `call to <fn>`.
    pub via: String,
}

struct Site {
    file_idx: usize,
    ci: usize,
    fn_id: usize,
    rank: usize,
    line: u32,
}

/// Run the pass. Returns `(declared order, edges)` for the JSON report.
pub fn run(
    files: &[ParsedFile],
    table: &SymbolTable,
    graph: &CallGraph,
    violations: &mut Vec<Violation>,
    hard_errors: &mut Vec<HardError>,
) -> (Vec<String>, Vec<LockEdge>) {
    let Some(order) = parse_lock_order(files) else {
        hard_errors.push(HardError {
            file: SYNC_FILE.to_string(),
            line: 0,
            message: "could not parse the LOCK_ORDER const from els_core::sync; the lock-order \
                      pass has no order to check against"
                .to_string(),
        });
        return (Vec::new(), Vec::new());
    };

    // Collect acquisition sites, classifying each by its file stem.
    let mut sites: Vec<Site> = Vec::new();
    for (file_idx, pf) in files.iter().enumerate() {
        if pf.source.rel_path == SYNC_FILE {
            continue; // the definitions themselves
        }
        for ci in 0..pf.code.len() {
            let Some(tok) = pf.tok(ci) else { continue };
            if tok.kind != TokenKind::Ident
                || !ACQUIRE_FNS.contains(&tok.text.as_str())
                || !pf.is_punct(ci + 1, '(')
                || (ci > 0 && pf.text(ci - 1) == "fn")
            {
                continue;
            }
            let Some(fn_id) = table.fn_at[file_idx][ci] else { continue };
            let stem = pf.source.rel_path.rsplit('/').next().and_then(|f| f.strip_suffix(".rs"));
            let rank = stem.and_then(|s| {
                order.iter().position(|c| c.split_once('.').is_some_and(|(cs, _)| cs == s))
            });
            match rank {
                Some(rank) => sites.push(Site { file_idx, ci, fn_id, rank, line: tok.line }),
                None => violations.push(Violation {
                    lint: Lint::LockOrder,
                    file: pf.source.rel_path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{}` in a file with no LOCK_ORDER class: engine locks are acquired \
                         only from their defining module (add a `<file stem>.<field>` class \
                         to els_core::sync::LOCK_ORDER if this is a new lock)",
                        tok.text
                    ),
                    suppressed: false,
                }),
            }
        }
    }

    // Transitive may-acquire set per function (fixpoint over the graph,
    // which may contain recursion).
    let mut acquires: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); table.fns.len()];
    for s in &sites {
        acquires[s.fn_id].insert(s.rank);
    }
    loop {
        let mut changed = false;
        for f in 0..table.fns.len() {
            for &g in &graph.callees[f] {
                let add: Vec<usize> =
                    acquires[g].iter().copied().filter(|r| !acquires[f].contains(r)).collect();
                if !add.is_empty() {
                    acquires[f].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Held ranges: direct inner acquisitions and calls inside them.
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut add_edge = |from: usize, to: usize, file: &str, line: u32, via: String| {
        let e = LockEdge {
            from: order[from].clone(),
            to: order[to].clone(),
            file: file.to_string(),
            line,
            via,
        };
        if !edges.iter().any(|x| x.from == e.from && x.to == e.to) {
            edges.push(e);
        }
    };
    for s in &sites {
        let pf = &files[s.file_idx];
        let Some(body) = table.fns[s.fn_id].body else { continue };
        let end = held_range_end(pf, body, s.ci);
        for other in sites.iter().filter(|o| o.file_idx == s.file_idx) {
            if other.ci > s.ci && other.ci <= end {
                add_edge(s.rank, other.rank, &pf.source.rel_path, other.line, "direct".to_string());
            }
        }
        for call in graph.calls.iter().filter(|c| c.file_idx == s.file_idx) {
            if call.ci > s.ci && call.ci <= end {
                for &r in &acquires[call.callee] {
                    add_edge(
                        s.rank,
                        r,
                        &pf.source.rel_path,
                        call.line,
                        format!("call to {}", table.fns[call.callee].qualified()),
                    );
                }
            }
        }
    }
    edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));

    // Every edge must run strictly forward in the declared order.
    for e in &edges {
        let (from, to) = (rank_of(&order, &e.from), rank_of(&order, &e.to));
        if from >= to {
            violations.push(Violation {
                lint: Lint::LockOrder,
                file: e.file.clone(),
                line: e.line,
                col: 1,
                message: if from == to {
                    format!(
                        "re-entrant acquisition of lock class `{}` ({}): std locks are not \
                         re-entrant, this deadlocks",
                        e.from, e.via
                    )
                } else {
                    format!(
                        "lock-order edge `{}` -> `{}` ({}) runs backwards in \
                         els_core::sync::LOCK_ORDER",
                        e.from, e.to, e.via
                    )
                },
                suppressed: false,
            });
        }
    }

    // Cycles can never be suppressed: hard error.
    if let Some(cycle) = find_cycle(&order, &edges) {
        hard_errors.push(HardError {
            file: SYNC_FILE.to_string(),
            line: 0,
            message: format!(
                "lock acquisition cycle: {} — no total order can serialize this; break the \
                 cycle before shipping",
                cycle.join(" -> ")
            ),
        });
    }

    (order, edges)
}

fn rank_of(order: &[String], class: &str) -> usize {
    order.iter().position(|c| c == class).unwrap_or(usize::MAX)
}

/// Parse `pub const LOCK_ORDER: &[&str] = &["a.b", ...];` from the sync
/// module's tokens.
fn parse_lock_order(files: &[ParsedFile]) -> Option<Vec<String>> {
    let pf = files.iter().find(|f| f.source.rel_path == SYNC_FILE)?;
    let name = (0..pf.code.len()).find(|&ci| pf.text(ci) == "LOCK_ORDER")?;
    // Skip past the `&[&str] =` type annotation: its `]` would otherwise
    // end the scan before the initializer starts.
    let start = (name..pf.code.len()).find(|&ci| pf.is_punct(ci, '='))?;
    let mut order = Vec::new();
    for ci in start..pf.code.len() {
        match pf.tok(ci)?.kind {
            TokenKind::Str => {
                order.push(pf.text(ci).trim_matches('"').to_string());
            }
            TokenKind::Punct(']') => break,
            TokenKind::Punct(';') => break,
            _ => {}
        }
    }
    (!order.is_empty()).then_some(order)
}

/// End (inclusive, code-index) of the range over which the guard acquired
/// at `site_ci` is held. Bounded by the enclosing fn body.
fn held_range_end(pf: &ParsedFile, body: (usize, usize), site_ci: usize) -> usize {
    let (_, body_end) = body;
    let close = match matching_paren(pf, site_ci + 1, body_end) {
        Some(c) => c,
        None => return site_ci,
    };
    let stmt = statement_start(pf, body, site_ci);
    let first = pf.text(stmt);
    let second = pf.text(stmt + 1);

    // `match x { ... }`, `if let`/`while let` — the scrutinee temporary
    // lives through the whole construct (Rust 2021), `else` chain included.
    if first == "match" || ((first == "if" || first == "while") && second == "let") {
        return construct_end(pf, stmt, body_end);
    }
    // Plain `if cond { }` / `while cond { }` — condition temporaries drop
    // before the block: held only to the body `{`.
    if first == "if" || first == "while" {
        let mut j = close + 1;
        while j <= body_end && !pf.is_punct(j, '{') {
            j += 1;
        }
        return j.min(body_end);
    }
    // `let g = lock_recovering(&x);` — the guard itself is bound.
    if first == "let" && pf.is_punct(close + 1, ';') {
        // The bound name: `let [mut] g = ...`. Destructuring patterns fall
        // back to block scope (no drop() tracking).
        let mut k = stmt + 1;
        if pf.text(k) == "mut" {
            k += 1;
        }
        let bound = pf.tok(k).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.clone());
        let block_end = enclosing_block_end(pf, close, body_end);
        if let Some(name) = bound {
            let mut j = close + 1;
            while j < block_end {
                if pf.text(j) == "drop"
                    && pf.is_punct(j + 1, '(')
                    && pf.text(j + 2) == name
                    && pf.is_punct(j + 3, ')')
                {
                    return j + 3;
                }
                j += 1;
            }
        }
        return block_end;
    }
    // Everything else — the guard is a temporary in some larger
    // expression/statement: dropped at the statement's `;` (or the end of
    // the enclosing block for a tail expression).
    let mut j = close + 1;
    let mut depth = 0i32;
    while j <= body_end {
        match pf.tok(j).map(|t| t.kind) {
            Some(TokenKind::Punct('{') | TokenKind::Punct('(') | TokenKind::Punct('[')) => {
                depth += 1
            }
            Some(TokenKind::Punct('}') | TokenKind::Punct(')') | TokenKind::Punct(']')) => {
                if depth == 0 {
                    return j; // tail expression: ends with the block
                }
                depth -= 1;
            }
            Some(TokenKind::Punct(';')) if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    body_end
}

/// Code-index of the matching `)` for the `(` at `open`, bounded.
fn matching_paren(pf: &ParsedFile, open: usize, limit: usize) -> Option<usize> {
    if !pf.is_punct(open, '(') {
        return None;
    }
    let mut depth = 0i32;
    for j in open..=limit {
        match pf.tok(j)?.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// First code-index of the statement containing `ci`: scan back to the
/// previous `;`, `{` or `}` at the statement's own nesting level.
fn statement_start(pf: &ParsedFile, body: (usize, usize), ci: usize) -> usize {
    let (body_start, _) = body;
    let (mut pdepth, mut bdepth, mut brdepth) = (0i32, 0i32, 0i32);
    let mut j = ci;
    while j > body_start {
        j -= 1;
        match pf.tok(j).map(|t| t.kind) {
            Some(TokenKind::Punct(')')) => pdepth += 1,
            Some(TokenKind::Punct('(')) => pdepth -= 1,
            Some(TokenKind::Punct(']')) => bdepth += 1,
            Some(TokenKind::Punct('[')) => bdepth -= 1,
            Some(TokenKind::Punct('}')) => brdepth += 1,
            Some(TokenKind::Punct('{')) => {
                if brdepth == 0 {
                    return j + 1;
                }
                brdepth -= 1;
            }
            Some(TokenKind::Punct(';')) if pdepth <= 0 && bdepth <= 0 && brdepth == 0 => {
                return j + 1;
            }
            _ => {}
        }
    }
    body_start + 1
}

/// End of the `if`/`while`/`match` construct starting at `stmt`: the `}`
/// closing its (last) block, following `else` chains.
fn construct_end(pf: &ParsedFile, stmt: usize, body_end: usize) -> usize {
    let mut j = stmt;
    loop {
        // Find the block opener of this arm.
        while j <= body_end && !pf.is_punct(j, '{') {
            j += 1;
        }
        let mut depth = 0i32;
        while j <= body_end {
            match pf.tok(j).map(|t| t.kind) {
                Some(TokenKind::Punct('{')) => depth += 1,
                Some(TokenKind::Punct('}')) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if pf.text(j + 1) == "else" {
            j += 2; // scan on through the else / else-if arm
            continue;
        }
        return j.min(body_end);
    }
}

/// The innermost block's closing `}` after `from` (depth-aware), bounded.
fn enclosing_block_end(pf: &ParsedFile, from: usize, body_end: usize) -> usize {
    let mut depth = 0i32;
    for j in from..=body_end {
        match pf.tok(j).map(|t| t.kind) {
            Some(TokenKind::Punct('{')) => depth += 1,
            Some(TokenKind::Punct('}')) => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    body_end
}

/// DFS cycle search over the class graph; returns the cycle's class names.
fn find_cycle(order: &[String], edges: &[LockEdge]) -> Option<Vec<String>> {
    let n = order.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        let (a, b) = (rank_of(order, &e.from), rank_of(order, &e.to));
        if a < n && b < n {
            adj[a].push(b);
        }
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; n];
    let mut stack: Vec<usize> = Vec::new();
    fn dfs(
        v: usize,
        adj: &[Vec<usize>],
        state: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        state[v] = 1;
        stack.push(v);
        for &w in &adj[v] {
            match state[w] {
                0 => {
                    if let Some(c) = dfs(w, adj, state, stack) {
                        return Some(c);
                    }
                }
                1 => {
                    let from = stack.iter().position(|&x| x == w).unwrap_or(0);
                    let mut cycle: Vec<usize> = stack[from..].to_vec();
                    cycle.push(w);
                    return Some(cycle);
                }
                _ => {}
            }
        }
        stack.pop();
        state[v] = 2;
        None
    }
    for v in 0..n {
        if state[v] == 0 {
            if let Some(cycle) = dfs(v, &adj, &mut state, &mut stack) {
                return Some(cycle.into_iter().map(|i| order[i].clone()).collect());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    const SYNC_SRC: &str = "pub const LOCK_ORDER: &[&str] = &[\n\
        \"alpha.state\",\n    \"beta.items\",\n    \"gamma.map\",\n];\n\
        pub fn lock_recovering() {}\npub fn read_recovering() {}\npub fn write_recovering() {}";

    fn run_on(srcs: &[(&str, &str)]) -> (Vec<Violation>, Vec<HardError>, Vec<LockEdge>) {
        let mut all = vec![("els-core".to_string(), SYNC_FILE.to_string(), SYNC_SRC.to_string())];
        all.extend(
            srcs.iter().map(|(p, s)| ("els-core".to_string(), p.to_string(), s.to_string())),
        );
        let files: Vec<ParsedFile> =
            all.iter().map(|(k, p, s)| ParsedFile::new(k, SourceFile::parse(p, s))).collect();
        let table = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &table);
        let (mut violations, mut hard) = (Vec::new(), Vec::new());
        let (_, edges) = run(&files, &table, &graph, &mut violations, &mut hard);
        (violations, hard, edges)
    }

    #[test]
    fn forward_direct_edge_is_legal() {
        let (v, h, e) = run_on(&[
            (
                "crates/core/src/alpha.rs",
                "fn f(a: &M, b: &M) { let g = lock_recovering(a); beta_helper(b); }",
            ),
            (
                "crates/core/src/beta.rs",
                "pub fn beta_helper(b: &M) { let g = lock_recovering(b); }",
            ),
        ]);
        assert_eq!(v, vec![]);
        assert_eq!(h, vec![]);
        assert_eq!(e.len(), 1);
        assert_eq!((e[0].from.as_str(), e[0].to.as_str()), ("alpha.state", "beta.items"));
        assert!(e[0].via.contains("beta_helper"));
    }

    #[test]
    fn backward_edge_is_a_violation_and_cycle_is_a_hard_error() {
        let (v, h, _) = run_on(&[
            (
                "crates/core/src/beta.rs",
                "pub fn b_then_a(b: &M, a: &M) { let g = lock_recovering(b); alpha_helper(a); }",
            ),
            (
                "crates/core/src/alpha.rs",
                "pub fn alpha_helper(a: &M) { let g = lock_recovering(a); }\n\
                 pub fn a_then_b(a: &M, b: &M) { let g = lock_recovering(a); b_then_a(b, a); }",
            ),
        ]);
        assert!(v.iter().any(|v| v.message.contains("runs backwards")), "{v:?}");
        assert!(h.iter().any(|e| e.message.contains("cycle")), "{h:?}");
    }

    #[test]
    fn temporary_guard_releases_at_the_semicolon() {
        // The guard is a temporary (`.pop()` chained): dropped at `;`, so
        // the following call is NOT under the lock.
        let (v, _, e) = run_on(&[
            (
                "crates/core/src/beta.rs",
                "fn f(b: &M, a: &M) { let x = lock_recovering(b).pop(); alpha_helper(a); }",
            ),
            (
                "crates/core/src/alpha.rs",
                "pub fn alpha_helper(a: &M) { let g = lock_recovering(a); }",
            ),
        ]);
        assert_eq!(e, vec![]);
        assert_eq!(v, vec![]);
    }

    #[test]
    fn if_let_scrutinee_holds_through_the_construct() {
        // Rust 2021: the scrutinee temporary lives through the whole
        // if-let, so a call inside the body IS under the lock.
        let (v, _, e) = run_on(&[
            (
                "crates/core/src/beta.rs",
                "fn f(b: &M, a: &M) { if let Some(t) = lock_recovering(b).pop() { alpha_helper(a); } tail(a); }",
            ),
            ("crates/core/src/alpha.rs", "pub fn alpha_helper(a: &M) { let g = lock_recovering(a); }"),
        ]);
        assert_eq!(e.len(), 1, "{e:?}");
        assert_eq!((e[0].from.as_str(), e[0].to.as_str()), ("beta.items", "alpha.state"));
        // Forward in the order? beta(1) -> alpha(0) runs backwards.
        assert!(v.iter().any(|v| v.message.contains("runs backwards")));
    }

    #[test]
    fn drop_releases_a_let_bound_guard() {
        let (_, _, e) = run_on(&[
            (
                "crates/core/src/beta.rs",
                "fn f(b: &M, a: &M) { let g = lock_recovering(b); use_it(&g); drop(g); alpha_helper(a); }",
            ),
            ("crates/core/src/alpha.rs", "pub fn alpha_helper(a: &M) { let g = lock_recovering(a); }"),
        ]);
        assert_eq!(e, vec![]);
    }

    #[test]
    fn reentrant_acquisition_is_flagged() {
        let (v, _, e) = run_on(&[(
            "crates/core/src/alpha.rs",
            "fn f(a: &M, b: &M) { let g = lock_recovering(a); let h = lock_recovering(b); }",
        )]);
        assert_eq!(e.len(), 1);
        assert!(v.iter().any(|v| v.message.contains("re-entrant")), "{v:?}");
    }

    #[test]
    fn unclassified_file_is_a_violation() {
        let (v, _, _) = run_on(&[(
            "crates/core/src/mystery.rs",
            "fn f(m: &M) { let g = lock_recovering(m); }",
        )]);
        assert!(v.iter().any(|v| v.message.contains("no LOCK_ORDER class")), "{v:?}");
    }

    #[test]
    fn lock_order_is_parsed_from_the_sync_tokens() {
        let (_, h, _) = run_on(&[]);
        assert_eq!(h, vec![]);
    }
}
