//! `els-lint` — in-workspace static analysis for the ELS engine.
//!
//! Two layers of passes enforce the invariants that neither the test suite
//! nor clippy can see (see `DESIGN.md` §4f and §4k; clippy holds every ban
//! it can express). The per-file passes — atomics discipline, the
//! parallelism seam, the assert ban, float and default discipline, and
//! crate layering — read one file at a time. On top of them a workspace
//! layer builds a symbol table and a best-effort call graph (`symbols`,
//! `callgraph`) and runs the inter-procedural lock-order pass: every lock
//! acquisition held across another must run forward in
//! `els_core::sync::LOCK_ORDER`, and a cycle is a hard error.
//!
//! Any unsuppressed violation fails the run. A suppression carries a
//! written justification that is reviewed like code, and one that
//! discharges nothing is itself an error.

#![deny(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod lock_order;
pub mod passes;
pub mod report;
pub mod source;
pub mod symbols;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use lock_order::LockEdge;
use passes::{Lint, Violation};
use source::SourceFile;
use symbols::{ParsedFile, SymbolTable};

/// The library targets the passes cover: the six engine crates, the
/// umbrella facade, and the server front door. Each crate root also carries
/// the shared clippy ban list. Tooling (els-bench, els-lint) and the
/// vendored shims are exempt by construction — printing is their job.
pub const LIBRARY_SRC_ROOTS: &[(&str, &str)] = &[
    ("els-storage", "crates/storage/src"),
    ("els-core", "crates/core/src"),
    ("els-catalog", "crates/catalog/src"),
    ("els-sql", "crates/sql/src"),
    ("els-exec", "crates/exec/src"),
    ("els-optimizer", "crates/optimizer/src"),
    ("els", "src"),
    ("els-server", "crates/server/src"),
];

/// Manifests the layering pass reads, alongside their crate names.
pub const LIBRARY_MANIFESTS: &[(&str, &str)] = &[
    ("els-storage", "crates/storage/Cargo.toml"),
    ("els-core", "crates/core/Cargo.toml"),
    ("els-catalog", "crates/catalog/Cargo.toml"),
    ("els-sql", "crates/sql/Cargo.toml"),
    ("els-exec", "crates/exec/Cargo.toml"),
    ("els-optimizer", "crates/optimizer/Cargo.toml"),
    ("els", "Cargo.toml"),
    ("els-server", "crates/server/Cargo.toml"),
];

/// Hard errors that no suppression can discharge: malformed or unused
/// suppressions, unreadable files, lock-order cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct HardError {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (0 when the error is about the whole file).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

/// Everything one run produced, ready for reporting.
#[derive(Debug)]
pub struct Outcome {
    /// Number of library source files scanned.
    pub files_scanned: usize,
    /// All violations, suppressed ones included (marked).
    pub violations: Vec<Violation>,
    /// Malformed/unused suppressions and I/O problems — always fail.
    pub hard_errors: Vec<HardError>,
    /// The lock order parsed from `els_core::sync`, for the JSON report.
    pub lock_order: Vec<String>,
    /// Every held-while-acquiring edge the lock-order pass derived.
    pub lock_edges: Vec<LockEdge>,
}

impl Outcome {
    /// The violations no justified suppression covers — these fail the run.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.suppressed)
    }

    /// True when the tree is clean: no unsuppressed violation, no error.
    pub fn is_ok(&self) -> bool {
        self.unsuppressed().next().is_none() && self.hard_errors.is_empty()
    }
}

/// Run every pass over the workspace at `root`.
///
/// Order matters: all files are parsed up front so the workspace passes
/// see the whole call graph; suppressions are applied *last*, after every
/// pass (per-file and inter-procedural) has produced its violations, so a
/// suppression can discharge a lock-order finding the same way it
/// discharges a token-pass one.
pub fn run(root: &Path) -> Result<Outcome, String> {
    let mut violations = Vec::new();
    let mut hard_errors = Vec::new();

    let mut parsed: Vec<ParsedFile> = Vec::new();
    for (crate_name, src_root) in LIBRARY_SRC_ROOTS {
        let dir = root.join(src_root);
        if !dir.is_dir() {
            return Err(format!("library source root `{src_root}` not found under {root:?}"));
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = rel_path(root, &path);
            let text =
                fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", rel))?;
            parsed.push(ParsedFile::new(crate_name, SourceFile::parse(&rel, &text)));
        }
    }
    let files_scanned = parsed.len();

    // Per-file passes.
    for pf in &parsed {
        for e in &pf.source.errors {
            hard_errors.push(HardError {
                file: pf.source.rel_path.clone(),
                line: e.line,
                message: e.message.clone(),
            });
        }
        passes::run_token_passes(pf, &mut violations);
    }

    // Workspace passes over the symbol table and call graph.
    let table = SymbolTable::build(&parsed);
    let graph = CallGraph::build(&parsed, &table);
    let (lock_order, lock_edges) =
        lock_order::run(&parsed, &table, &graph, &mut violations, &mut hard_errors);

    for (crate_name, manifest_rel) in LIBRARY_MANIFESTS {
        let text = fs::read_to_string(root.join(manifest_rel))
            .map_err(|e| format!("cannot read {manifest_rel}: {e}"))?;
        passes::run_layering_pass(crate_name, manifest_rel, &text, &mut violations);
    }

    for pf in &parsed {
        apply_suppressions(&pf.source, &mut violations, &mut hard_errors);
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(Outcome { files_scanned, violations, hard_errors, lock_order, lock_edges })
}

/// Apply one file's suppressions to the full violation set.
/// Suppression rules: the lint name must exist, the justification is
/// mandatory (enforced at parse), and a suppression that matches no
/// violation is itself an error — stale allows rot into lies.
pub(crate) fn apply_suppressions(
    file: &SourceFile,
    violations: &mut [Violation],
    hard_errors: &mut Vec<HardError>,
) {
    for sup in &file.suppressions {
        let Some(lint) = Lint::from_name(&sup.lint) else {
            hard_errors.push(HardError {
                file: file.rel_path.clone(),
                line: sup.line,
                message: format!(
                    "suppression names unknown lint `{}` (known: {})",
                    sup.lint,
                    Lint::all().map(Lint::name).join(", ")
                ),
            });
            continue;
        };
        let mut used = false;
        for v in violations
            .iter_mut()
            .filter(|v| v.file == file.rel_path && v.lint == lint && v.line == sup.applies_to)
        {
            v.suppressed = true;
            used = true;
        }
        if !used {
            hard_errors.push(HardError {
                file: file.rel_path.clone(),
                line: sup.line,
                message: format!(
                    "unused suppression: no `{}` violation on line {}",
                    sup.lint, sup.applies_to
                ),
            });
        }
    }
}

/// Per-lint rollup for the reports: (current, suppressed) for each lint
/// name, where current counts the unsuppressed violations.
pub fn per_lint_summary(outcome: &Outcome) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> =
        Lint::all().into_iter().map(|l| (l.name(), (0, 0))).collect();
    for v in &outcome.violations {
        let (current, suppressed) = out.entry(v.lint.name()).or_default();
        *if v.suppressed { suppressed } else { current } += 1;
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {dir:?}: {e}"))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
