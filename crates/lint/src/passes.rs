//! The lint passes.
//!
//! The token walk reads the code tokens of one library source file and
//! emits [`Violation`]s; the layering pass reads `Cargo.toml` manifests
//! instead. Every rule here is one clippy cannot express (DESIGN.md §4f):
//! the bans clippy can see (`unwrap`, `panic!`, `unreachable!`, slice
//! indexing, clock reads, printing, narrowing casts) live in `clippy.toml`
//! and the crate roots. Passes are deliberately syntactic — they ban
//! *spellings*, not semantics — because a spelling ban plus a
//! justification-carrying suppression syntax is auditable in review.

use crate::lexer::TokenKind;
use crate::symbols::ParsedFile;

/// The lints, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lint {
    /// `Ordering::Relaxed` only in the allowlisted counter modules.
    Atomics,
    /// `thread::spawn`/`thread::scope`/`thread::Builder` confined to the
    /// scheduler and the server pool, so every parallel code path shares
    /// one panic and determinism policy.
    ParallelismSeam,
    /// Crate dependencies must respect the layer order and add no new
    /// external dependencies.
    Layering,
    /// No `assert!`, `assert_eq!` or `assert_ne!` in library code: together
    /// with clippy's bans it leaves no panic site there. `debug_assert*`
    /// stays legal; it is compiled out of the release build the engine
    /// ships. Clippy's `disallowed-macros` cannot exempt test code.
    AssertBan,
    /// Inter-procedural: the held-while-acquiring graph over the
    /// `els_core::sync` lock classes must agree with the committed
    /// `LOCK_ORDER` total order; a cycle is a hard error.
    LockOrder,
    /// Float and default discipline in els-core: no float-literal
    /// `==`/`!=` outside `els_core::float` (rule C), no silent
    /// numeric-literal `unwrap_or` defaults (rule D).
    NumericDiscipline,
}

impl Lint {
    /// All lints, in report order.
    pub fn all() -> [Lint; 6] {
        [
            Lint::Atomics,
            Lint::ParallelismSeam,
            Lint::Layering,
            Lint::AssertBan,
            Lint::LockOrder,
            Lint::NumericDiscipline,
        ]
    }

    /// The name used in reports and suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Atomics => "atomics-discipline",
            Lint::ParallelismSeam => "parallelism-seam",
            Lint::Layering => "layering",
            Lint::AssertBan => "assert-ban",
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
/// Clippy has no per-file allowlist for a path segment, hence this pass.
const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/exec/src/metrics.rs",
    "crates/exec/src/scheduler.rs",
    "crates/exec/src/vectorized.rs",
    "crates/catalog/src/feedback.rs",
    "crates/optimizer/src/plan_cache.rs",
];

/// The library modules allowed to start threads: the scheduler's helper
/// pool and the server's acceptor/worker pool. Confining parallelism to
/// named seams gives every parallel code path a written panic policy (the
/// scheduler re-raises so batch results never truncate; the server pool
/// isolates so one connection's panic never kills the pool) and keeps each
/// determinism argument in one reviewable place. A workspace-wide clippy
/// ban cannot say this: the tests spawn threads too.
const THREAD_ALLOWLIST: &[&str] = &["crates/exec/src/scheduler.rs", "crates/server/src/pool.rs"];

/// The assert family: each panics in release builds when it fires.
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// The sanctioned home of exact float comparison (rule C exemption).
const FLOAT_HELPER_FILE: &str = "crates/core/src/float.rs";

/// Run the token walk over one file's non-test code.
pub fn run_token_passes(pf: &ParsedFile, out: &mut Vec<Violation>) {
    let path = pf.source.rel_path.as_str();
    let in_core = path.starts_with("crates/core/src/");
    for ci in 0..pf.code.len() {
        let Some(tok) = pf.tok(ci) else { continue };
        let mut push = |lint: Lint, message: String| {
            out.push(Violation {
                lint,
                file: path.to_string(),
                line: tok.line,
                col: tok.col,
                message,
                suppressed: false,
            })
        };
        let after_path = |seg: &str| {
            ci >= 3
                && pf.is_punct(ci - 1, ':')
                && pf.is_punct(ci - 2, ':')
                && pf.text(ci - 3) == seg
        };
        match tok.kind {
            // parallelism seam: thread starts outside the allowlisted modules.
            TokenKind::Ident
                if matches!(tok.text.as_str(), "spawn" | "scope" | "Builder")
                    && after_path("thread")
                    && !THREAD_ALLOWLIST.contains(&path) =>
            {
                push(
                    Lint::ParallelismSeam,
                    format!(
                        "`thread::{}` outside the scheduler module: route parallel work \
                         through `els_exec::scheduler::run_tasks` so it shares the one \
                         panic/determinism seam",
                        tok.text
                    ),
                );
            }
            // assert ban: a panic site clippy's bans do not cover.
            TokenKind::Ident
                if ASSERT_MACROS.contains(&tok.text.as_str())
                    && pf.is_punct(ci + 1, '!')
                    && pf.is_punct(ci + 2, '(') =>
            {
                push(
                    Lint::AssertBan,
                    format!(
                        "`{}!` in library code panics when it fires: return a typed error, \
                         or use `debug_assert!` for an internal invariant",
                        tok.text
                    ),
                );
            }
            // atomics discipline: Relaxed outside the counter allowlist.
            TokenKind::Ident if tok.text == "Relaxed" && !RELAXED_ALLOWLIST.contains(&path) => {
                push(
                    Lint::Atomics,
                    "`Ordering::Relaxed` outside the counter allowlist: pick an ordering \
                     that publishes what the readers need, or extend the allowlist in review"
                        .to_string(),
                );
            }
            // Rule C: `== 1.0` / `1.0 !=`. Clippy's `float_cmp` exempts
            // comparisons with zero, so it cannot hold this rule.
            TokenKind::Number if in_core && path != FLOAT_HELPER_FILE && tok.text.contains('.') => {
                // A unary minus belongs to the literal: `x == -0.0`.
                let lit = if ci > 0 && pf.is_punct(ci - 1, '-') { ci - 1 } else { ci };
                let before = lit >= 2
                    && pf.is_punct(lit - 1, '=')
                    && (pf.is_punct(lit - 2, '=') || pf.is_punct(lit - 2, '!'));
                let after = pf.is_punct(ci + 2, '=')
                    && (pf.is_punct(ci + 1, '=') || pf.is_punct(ci + 1, '!'));
                if before || after {
                    push(
                        Lint::NumericDiscipline,
                        format!(
                            "exact float comparison against `{}`: use \
                             els_core::float::{{exactly_zero, exactly_one, approx_eq}}",
                            tok.text
                        ),
                    );
                }
            }
            // Rule D: `.unwrap_or(<number literal>)`; no clippy lint matches it.
            TokenKind::Ident
                if in_core
                    && tok.text == "unwrap_or"
                    && ci > 0
                    && pf.is_punct(ci - 1, '.')
                    && pf.is_punct(ci + 1, '(')
                    && pf.tok(ci + 2).is_some_and(|t| t.kind == TokenKind::Number) =>
            {
                push(
                    Lint::NumericDiscipline,
                    format!(
                        "silent literal default `.unwrap_or({})`: a missing statistic \
                         deserves a typed ElsError (DegenerateStats) or a suppression \
                         arguing the default is principled",
                        pf.text(ci + 2)
                    ),
                );
            }
            _ => {}
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
    use crate::source::SourceFile;

    fn lint_at(path: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        run_token_passes(&ParsedFile::new("els-exec", SourceFile::parse(path, src)), &mut out);
        out
    }

    fn lint_src(src: &str) -> Vec<Violation> {
        lint_at("crates/exec/src/x.rs", src)
    }

    #[test]
    fn comments_strings_and_test_modules_are_invisible() {
        let v = lint_src(
            "//! c.fetch_add(1, Ordering::Relaxed);\nfn f() { let s = \"Relaxed\"; }\n\
             #[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }",
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn relaxed_fires_outside_the_allowlist() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let v = lint_src(src); // exec/x.rs is not allowlisted
        assert_eq!(v.iter().filter(|v| v.lint == Lint::Atomics).count(), 1);
        assert_eq!(lint_at("crates/exec/src/metrics.rs", src), vec![]);
    }

    #[test]
    fn thread_spawns_fire_outside_the_scheduler_module() {
        let src = "fn f() { std::thread::spawn(|| {}); thread::scope(|s| { s.spawn(|| {}); }); \
                   std::thread::Builder::new().spawn(|| {}); }";
        let v = lint_src(src);
        assert_eq!(v.iter().filter(|v| v.lint == Lint::ParallelismSeam).count(), 3, "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("`thread::Builder`")), "{v:?}");
        assert_eq!(lint_at("crates/exec/src/scheduler.rs", src), vec![]);
        // Method calls named `spawn` (not through `thread::`) are fine.
        let v = lint_src("fn f(s: &Scope) { s.spawn(|| {}); pool.scope(|x| x); }");
        assert_eq!(v, vec![]);
    }

    #[test]
    fn float_literal_equality_is_banned_in_core_outside_the_float_module() {
        let core = "crates/core/src/m.rs";
        let v = lint_at(core, "fn f(x: f64) -> bool { x == 0.0 || 1.0 != x || x == -0.0 }");
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.lint == Lint::NumericDiscipline));
        let ok = lint_at(FLOAT_HELPER_FILE, "pub fn exactly_zero(x: f64) -> bool { x == 0.0 }");
        assert_eq!(ok, vec![]);
        // `<=`/`>=` and assignment are not equality.
        assert_eq!(lint_at(core, "fn f(x: f64) -> bool { let y = 1.0; x <= 2.5 }"), vec![]);
        // exec may compare floats (selection kernels do): core-only rule.
        assert_eq!(lint_src("fn f(x: f64) -> bool { x == 0.0 }"), vec![]);
    }

    #[test]
    fn literal_unwrap_or_is_flagged_in_core_only() {
        let core = "crates/core/src/m.rs";
        let v = lint_at(core, "fn f(o: Option<f64>) -> f64 { o.unwrap_or(1.0) }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unwrap_or(1.0)"));
        // Variable defaults carry intent; not flagged.
        assert_eq!(lint_at(core, "fn f(o: Option<f64>, d: f64) -> f64 { o.unwrap_or(d) }"), vec![]);
        assert_eq!(lint_src("fn f(o: Option<u64>) -> u64 { o.unwrap_or(0) }"), vec![]);
    }

    #[test]
    fn the_assert_family_is_banned_outside_tests() {
        let v = lint_src(
            "fn f(a: u32, b: u32) { assert!(a < b); assert_eq!(a, 1); assert_ne!(b, 2, \"m\"); }",
        );
        let names: Vec<&str> = v.iter().map(|v| v.lint.name()).collect();
        assert_eq!(names, ["assert-ban"; 3], "{v:?}");
        assert!(v[1].message.contains("`assert_eq!`"), "{v:?}");
        // A `#[cfg(test)]` item may assert; so may a `!=` on a variable
        // that happens to be called `assert`.
        let ok = lint_src(
            "fn f(assert: u32) -> bool { assert != 1 }\n\
             #[cfg(test)]\nmod tests { #[test] fn t() { assert!(true); assert_eq!(1, 1); } }",
        );
        assert_eq!(ok, vec![]);
    }

    #[test]
    fn debug_assert_is_not_a_panic_source() {
        let v = lint_src(
            "fn f(a: u32) { debug_assert!(a > 0); debug_assert_eq!(a, 1); debug_assert_ne!(a, 2); }",
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn a_justified_suppression_discharges_an_assert_and_an_unused_one_fails() {
        let src = "fn f(n: u64) {\n\
                   // els-lint: allow(assert-ban, \"the signature is pinned\")\n\
                   assert!(n > 0);\n\
                   // els-lint: allow(assert-ban, \"nothing here\")\n\
                   let m = n;\n}";
        let file = SourceFile::parse("crates/exec/src/x.rs", src);
        let mut v = Vec::new();
        run_token_passes(
            &ParsedFile::new("els-exec", SourceFile::parse(&file.rel_path, src)),
            &mut v,
        );
        let mut hard = Vec::new();
        crate::apply_suppressions(&file, &mut v, &mut hard);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].suppressed, "{v:?}");
        assert_eq!(hard.len(), 1, "{hard:?}");
        assert!(hard[0].message.contains("unused suppression"), "{hard:?}");
        assert_eq!(hard[0].line, 4);
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
