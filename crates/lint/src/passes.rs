//! The lint passes.
//!
//! Each token pass walks the code tokens of one library source file and
//! emits [`Violation`]s; the layering pass reads `Cargo.toml` manifests
//! instead. Passes are deliberately syntactic — they ban *spellings*, not
//! semantics — because a spelling ban plus a justification-carrying
//! suppression syntax is auditable in review, while a semantic analysis of
//! this size would itself become the thing nobody checks.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// The lints, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lint {
    /// No `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library
    /// code; additionally no slice indexing inside els-core, the estimator
    /// path the paper requires to degrade gracefully (typed `ElsError`s,
    /// never aborts) on degenerate statistics.
    PanicFreedom,
    /// Clock reads (`Instant`, `SystemTime`) confined to the carved-out
    /// timing module, keeping the differential tests timing-blind.
    Determinism,
    /// `println!`/`eprintln!`/`dbg!`/`process::exit` banned in library
    /// crates — output goes through `MetricsRegistry`.
    MetricsIo,
    /// `Ordering::Relaxed` only in the allowlisted counter modules.
    Atomics,
    /// `thread::spawn`/`thread::scope` confined to the work-stealing
    /// scheduler module, so every parallel code path shares one panic and
    /// determinism policy.
    ParallelismSeam,
    /// Crate dependencies must respect the layer order and add no new
    /// external dependencies.
    Layering,
    /// Inter-procedural: a panic site (assert, slice index, unwrap) is
    /// reachable from a public entry point (`Engine::execute`,
    /// `serve_connection`, ...) through the workspace call graph. Reported
    /// at the panic site with the shortest call path, ratcheted per file.
    PanicReachability,
    /// Inter-procedural: the held-while-acquiring graph over the
    /// `els_core::sync` lock classes must agree with the committed
    /// `LOCK_ORDER` total order; a cycle is a hard error.
    LockOrder,
    /// Numeric-cast and float-comparison discipline in els-core/els-exec:
    /// no silent narrowing `as` casts, no unguarded float-to-int rounding
    /// casts, no float `==`/`!=` outside `els_core::float`, no silent
    /// numeric-literal `unwrap_or` defaults in the estimator path.
    NumericDiscipline,
}

impl Lint {
    /// All lints, in report order.
    pub fn all() -> [Lint; 9] {
        [
            Lint::PanicFreedom,
            Lint::Determinism,
            Lint::MetricsIo,
            Lint::Atomics,
            Lint::ParallelismSeam,
            Lint::Layering,
            Lint::PanicReachability,
            Lint::LockOrder,
            Lint::NumericDiscipline,
        ]
    }

    /// The name used in reports, baselines and suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            Lint::PanicFreedom => "panic-freedom",
            Lint::Determinism => "determinism",
            Lint::MetricsIo => "metrics-only-io",
            Lint::Atomics => "atomics-discipline",
            Lint::ParallelismSeam => "parallelism-seam",
            Lint::Layering => "layering",
            Lint::PanicReachability => "panic-reachability",
            Lint::LockOrder => "lock-order",
            Lint::NumericDiscipline => "numeric-discipline",
        }
    }

    /// Parse a suppression-comment lint name.
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::all().into_iter().find(|l| l.name() == name)
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation.
    pub message: String,
    /// Set by the driver when a justified suppression covers this line.
    pub suppressed: bool,
}

/// Files where `Ordering::Relaxed` is legitimate: monotonic counters and
/// the morsel dispenser, where no other memory is published through the
/// atomic. Everything else must spell out an ordering and justify it.
const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/exec/src/metrics.rs",
    "crates/exec/src/scheduler.rs",
    "crates/exec/src/vectorized.rs",
    "crates/catalog/src/feedback.rs",
    "crates/optimizer/src/plan_cache.rs",
];

/// The library modules allowed to spawn threads: the work-stealing
/// scheduler and the server's acceptor/worker pool. Confining parallelism
/// to named seams gives every parallel code path a written panic policy
/// (the scheduler re-raises so batch results never truncate; the server
/// pool isolates so one connection's panic never kills the pool) and
/// keeps each determinism argument in one reviewable place.
const THREAD_ALLOWLIST: &[&str] = &["crates/exec/src/scheduler.rs", "crates/server/src/pool.rs"];

/// The only module allowed to read wall clocks. PR 3 made Observations
/// compare timing-blind; keeping clock reads behind one seam keeps it so.
const CLOCK_ALLOWLIST: &[&str] = &["crates/exec/src/timing.rs"];

/// Keywords that can directly precede a `[` that is *not* an index
/// expression (slice patterns, array types in expression position, ...).
/// Shared with the panic-reachability pass, which applies the same index
/// heuristic workspace-wide.
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move", "as",
    "const", "static", "dyn", "impl", "for", "where", "while", "loop", "use", "pub", "fn", "enum",
    "struct", "trait", "type", "unsafe", "crate", "super", "mod", "extern", "box", "await",
    "async", "yield",
];

/// Run every token pass over one file.
pub fn run_token_passes(file: &SourceFile, out: &mut Vec<Violation>) {
    let code = file.code_indices();
    let toks = &file.tokens;
    let at = |ci: usize| -> Option<&Token> { code.get(ci).map(|&i| &toks[i]) };
    let violation = |lint: Lint, tok: &Token, message: String| Violation {
        lint,
        file: file.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        suppressed: false,
    };
    let in_core = file.rel_path.starts_with("crates/core/");

    for ci in 0..code.len() {
        let tok = &toks[code[ci]];
        if tok.kind != TokenKind::Ident {
            // Slice indexing, els-core only: `expr[...]` panics on
            // out-of-range and the estimator path must return typed errors
            // instead.
            if in_core && tok.kind == TokenKind::Punct('[') && ci > 0 {
                let indexable = match at(ci - 1) {
                    Some(p) if p.kind == TokenKind::Ident => {
                        !NON_INDEX_KEYWORDS.contains(&p.text.as_str())
                    }
                    Some(p) => matches!(p.kind, TokenKind::Punct(')') | TokenKind::Punct(']')),
                    None => false,
                };
                if indexable {
                    out.push(violation(
                        Lint::PanicFreedom,
                        tok,
                        "slice index in estimator path: use `.get()` and return a typed \
                         `ElsError` so degenerate inputs degrade instead of aborting"
                            .to_string(),
                    ));
                }
            }
            continue;
        }
        let prev_is_dot = ci > 0 && at(ci - 1).is_some_and(|p| p.kind == TokenKind::Punct('.'));
        let next_is = |kind: TokenKind| at(ci + 1).is_some_and(|n| n.kind == kind);

        // panic-freedom: `.unwrap()` / `.expect(` and aborting macros.
        if prev_is_dot
            && (tok.text == "unwrap" || tok.text == "expect")
            && next_is(TokenKind::Punct('('))
        {
            out.push(violation(
                Lint::PanicFreedom,
                tok,
                format!(
                    "`.{}()` in library code: return a typed error (or use the \
                     `els_core::sync` poison-policy helpers for locks)",
                    tok.text
                ),
            ));
        }
        if !prev_is_dot
            && matches!(tok.text.as_str(), "panic" | "todo" | "unimplemented")
            && next_is(TokenKind::Punct('!'))
        {
            out.push(violation(
                Lint::PanicFreedom,
                tok,
                format!("`{}!` in library code: return a typed error instead", tok.text),
            ));
        }

        // determinism: clock reads outside the timing seam.
        if matches!(tok.text.as_str(), "Instant" | "SystemTime")
            && !CLOCK_ALLOWLIST.contains(&file.rel_path.as_str())
        {
            out.push(violation(
                Lint::Determinism,
                tok,
                format!(
                    "`{}` outside `els_exec::timing`: clock reads live behind the \
                     Stopwatch seam so differential tests stay timing-blind",
                    tok.text
                ),
            ));
        }

        // metrics-only I/O: stdio macros and process exits.
        if matches!(tok.text.as_str(), "println" | "eprintln" | "print" | "eprint" | "dbg")
            && next_is(TokenKind::Punct('!'))
        {
            out.push(violation(
                Lint::MetricsIo,
                tok,
                format!(
                    "`{}!` in library code: route output through `MetricsRegistry` \
                     (tooling crates els-bench/els-lint may print)",
                    tok.text
                ),
            ));
        }
        if matches!(tok.text.as_str(), "exit" | "abort")
            && ci >= 3
            && at(ci - 1).is_some_and(|p| p.kind == TokenKind::Punct(':'))
            && at(ci - 2).is_some_and(|p| p.kind == TokenKind::Punct(':'))
            && at(ci - 3).is_some_and(|p| p.kind == TokenKind::Ident && p.text == "process")
        {
            out.push(violation(
                Lint::MetricsIo,
                tok,
                format!("`process::{}` in library code: surface an error instead", tok.text),
            ));
        }

        // parallelism seam: thread spawns outside the scheduler module.
        if matches!(tok.text.as_str(), "spawn" | "scope")
            && ci >= 3
            && at(ci - 1).is_some_and(|p| p.kind == TokenKind::Punct(':'))
            && at(ci - 2).is_some_and(|p| p.kind == TokenKind::Punct(':'))
            && at(ci - 3).is_some_and(|p| p.kind == TokenKind::Ident && p.text == "thread")
            && !THREAD_ALLOWLIST.contains(&file.rel_path.as_str())
        {
            out.push(violation(
                Lint::ParallelismSeam,
                tok,
                format!(
                    "`thread::{}` outside the scheduler module: route parallel work \
                     through `els_exec::scheduler::run_tasks` so it shares the one \
                     panic/determinism seam",
                    tok.text
                ),
            ));
        }

        // atomics discipline: Relaxed outside the counter allowlist.
        if tok.text == "Relaxed" && !RELAXED_ALLOWLIST.contains(&file.rel_path.as_str()) {
            out.push(violation(
                Lint::Atomics,
                tok,
                "`Ordering::Relaxed` outside the counter allowlist: pick an ordering \
                 that publishes what the readers need, or extend the allowlist in review"
                    .to_string(),
            ));
        }
    }
}

/// The engine's layer order, lowest first. A library crate may depend only
/// on crates strictly earlier in this list (plus the vendored `rand` shim).
pub const LAYER_ORDER: &[&str] = &[
    "els-storage",
    "els-core",
    "els-catalog",
    "els-sql",
    "els-exec",
    "els-optimizer",
    "els",
    "els-server",
];

/// External dependencies library crates may use: the vendored std-only
/// `rand` shim. Everything else (including `proptest`) is dev-only; the
/// offline build has no registry, so a new name here means someone is
/// about to break the build.
const ALLOWED_EXTERNAL: &[&str] = &["rand"];

/// Check one library crate manifest. `crate_name` is the `els-*` package
/// the manifest belongs to; `rel_path` is the manifest's workspace-relative
/// path (used for reporting).
pub fn run_layering_pass(
    crate_name: &str,
    rel_path: &str,
    manifest: &str,
    out: &mut Vec<Violation>,
) {
    let Some(layer) = LAYER_ORDER.iter().position(|c| *c == crate_name) else {
        return;
    };
    let mut section = String::new();
    for (lineno, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if section != "dependencies" || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `els-core.workspace = true` or `rand = { path = "..." }`.
        let dep = line.split(['=', '.', ' ']).next().unwrap_or("").trim();
        if dep.is_empty() {
            continue;
        }
        let mut push = |message: String| {
            out.push(Violation {
                lint: Lint::Layering,
                file: rel_path.to_string(),
                line: lineno as u32 + 1,
                col: 1,
                message,
                suppressed: false,
            })
        };
        match LAYER_ORDER.iter().position(|c| *c == dep) {
            Some(dep_layer) if dep_layer >= layer => push(format!(
                "`{crate_name}` depends on `{dep}`, which is not below it in the layer \
                 order ({})",
                LAYER_ORDER.join(" -> ")
            )),
            Some(_) => {}
            None if ALLOWED_EXTERNAL.contains(&dep) => {}
            None => push(format!(
                "`{crate_name}` adds external dependency `{dep}`: library crates are \
                 std + vendored shims only (offline build)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str) -> Vec<Violation> {
        let f = SourceFile::parse("crates/exec/src/x.rs", src);
        let mut out = Vec::new();
        run_token_passes(&f, &mut out);
        out
    }

    fn lint_core(src: &str) -> Vec<Violation> {
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let mut out = Vec::new();
        run_token_passes(&f, &mut out);
        out
    }

    #[test]
    fn unwrap_expect_and_aborting_macros_fire() {
        let v = lint_src("fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); todo!() }");
        let names: Vec<_> = v.iter().map(|v| v.message.clone()).collect();
        assert_eq!(v.len(), 4, "{names:?}");
        assert!(v.iter().all(|v| v.lint == Lint::PanicFreedom));
    }

    #[test]
    fn unwrap_or_and_own_expect_methods_do_not_fire() {
        let v = lint_src("fn f() { a.unwrap_or(0); a.unwrap_or_else(g); self.expect_token(t); }");
        assert_eq!(v, vec![]);
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_ignored() {
        let v = lint_src("#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }");
        assert_eq!(v, vec![]);
    }

    #[test]
    fn unwrap_in_comments_and_strings_is_ignored() {
        let v = lint_src(
            "//! let x = a.unwrap();\nfn f() { let s = \"b.unwrap()\"; let r = r#\"c.unwrap()\"#; }",
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn slice_index_fires_only_in_core() {
        let src = "fn f(v: &[f64], i: usize) -> f64 { v[i] }";
        assert_eq!(lint_src(src), vec![]);
        let v = lint_core(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::PanicFreedom);
    }

    #[test]
    fn non_index_brackets_do_not_fire_in_core() {
        let v = lint_core(
            "#[derive(Debug)]\nstruct S;\nfn f() { let a = [1, 2]; let b = vec![3]; \
             let [x, y] = a; let _: [u8; 2] = a; let _ = &a[..1]; }",
        );
        // `&a[..1]` is a real index expression and should fire; the rest not.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::PanicFreedom);
    }

    #[test]
    fn clock_reads_fire_outside_the_timing_module() {
        let v = lint_src("use std::time::Instant; fn f() { let t = Instant::now(); }");
        assert_eq!(v.iter().filter(|v| v.lint == Lint::Determinism).count(), 2);
        let f = SourceFile::parse("crates/exec/src/timing.rs", "fn f() { Instant::now(); }");
        let mut out = Vec::new();
        run_token_passes(&f, &mut out);
        assert_eq!(out, vec![]);
    }

    #[test]
    fn stdio_and_process_exit_fire() {
        let v = lint_src(
            "fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(1); std::process::exit(1); }",
        );
        assert_eq!(v.iter().filter(|v| v.lint == Lint::MetricsIo).count(), 4);
    }

    #[test]
    fn relaxed_fires_outside_the_allowlist() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let v = lint_src(src); // exec/x.rs is not allowlisted
        assert_eq!(v.iter().filter(|v| v.lint == Lint::Atomics).count(), 1);
        let f = SourceFile::parse("crates/exec/src/metrics.rs", src);
        let mut out = Vec::new();
        run_token_passes(&f, &mut out);
        assert_eq!(out, vec![]);
    }

    #[test]
    fn thread_spawns_fire_outside_the_scheduler_module() {
        let src = "fn f() { std::thread::spawn(|| {}); thread::scope(|s| { s.spawn(|| {}); }); }";
        let v = lint_src(src);
        assert_eq!(v.iter().filter(|v| v.lint == Lint::ParallelismSeam).count(), 2, "{v:?}");
        let f = SourceFile::parse("crates/exec/src/scheduler.rs", src);
        let mut out = Vec::new();
        run_token_passes(&f, &mut out);
        assert_eq!(out.iter().filter(|v| v.lint == Lint::ParallelismSeam).count(), 0);
        // Method calls named `spawn` (not through `thread::`) are fine.
        let v = lint_src("fn f(s: &Scope) { s.spawn(|| {}); pool.scope(|x| x); }");
        assert_eq!(v, vec![]);
    }

    #[test]
    fn layering_catches_inversions_and_new_external_deps() {
        let manifest = "[package]\nname = \"els-core\"\n[dependencies]\nels-storage.workspace = true\nels-exec.workspace = true\nserde = \"1\"\nrand.workspace = true\n[dev-dependencies]\nproptest.workspace = true\n";
        let mut out = Vec::new();
        run_layering_pass("els-core", "crates/core/Cargo.toml", manifest, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("els-exec"));
        assert!(out[1].message.contains("serde"));
    }

    #[test]
    fn layering_accepts_the_legal_shape() {
        let manifest =
            "[dependencies]\nels-storage.workspace = true\nels-core.workspace = true\nrand.workspace = true\n";
        let mut out = Vec::new();
        run_layering_pass("els-catalog", "crates/catalog/Cargo.toml", manifest, &mut out);
        assert_eq!(out, vec![]);
    }
}
