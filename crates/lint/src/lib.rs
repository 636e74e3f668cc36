//! `els-lint` — in-workspace static analysis for the ELS engine.
//!
//! Two layers of passes enforce the invariants that neither the test suite
//! nor clippy can see (see `DESIGN.md` §4f and §4k; clippy holds every ban
//! it can express). The per-file passes — atomics discipline, the
//! parallelism seam, float and default discipline, and crate layering —
//! read one file at a time. On top of them a workspace layer builds a
//! symbol table and a best-effort call graph (`symbols`, `callgraph`) and
//! runs two inter-procedural passes:
//! panic-reachability (which panic sites can a public entry point reach,
//! with shortest witness paths) and lock-order (every lock acquisition
//! held across another must run forward in `els_core::sync::LOCK_ORDER`;
//! a cycle is a hard error no baseline can absorb).
//!
//! Pre-existing violations are grandfathered in `lint-baseline.json`, a
//! ratchet: per-file-per-lint counts may only decrease, new violations
//! fail, and suppressions require a written justification that is
//! reviewed like code.

#![deny(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod lock_order;
pub mod panic_reach;
pub mod passes;
pub mod report;
pub mod source;
pub mod symbols;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use baseline::Baseline;
use callgraph::CallGraph;
use lock_order::LockEdge;
use panic_reach::PanicPath;
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

/// Name of the committed ratchet file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// Hard errors that fail the run regardless of the baseline: malformed or
/// unused suppressions, unreadable files.
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
    /// Unsuppressed counts per (lint, file).
    pub counts: Baseline,
    /// The committed baseline the counts were compared against.
    pub baseline: Baseline,
    /// Raw text of the baseline file as loaded (None when absent) — lets
    /// `--baseline-update` detect a file that changed under the run.
    pub baseline_raw: Option<String>,
    /// Violations not covered by the baseline — these fail the run.
    pub new_violations: Vec<Violation>,
    /// Malformed/unused suppressions and I/O problems — always fail.
    pub hard_errors: Vec<HardError>,
    /// The lock order parsed from `els_core::sync`, for the JSON report.
    pub lock_order: Vec<String>,
    /// Every held-while-acquiring edge the lock-order pass derived.
    pub lock_edges: Vec<LockEdge>,
    /// Shortest entry-to-panic witness paths from panic-reachability.
    pub panic_paths: Vec<PanicPath>,
}

impl Outcome {
    /// True when the tree is clean under the ratchet.
    pub fn is_ok(&self) -> bool {
        self.new_violations.is_empty() && self.hard_errors.is_empty()
    }
}

/// Run every pass over the workspace at `root`.
///
/// Order matters: all files are parsed up front so the workspace passes
/// see the whole call graph; suppressions are applied *last*, after every
/// pass (per-file and inter-procedural) has produced its violations, so a
/// suppression can discharge a panic-reachability or lock-order finding
/// the same way it discharges a token-pass one.
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
    let panic_paths = panic_reach::run(&parsed, &table, &graph, &mut violations, &mut hard_errors);
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

    let counts = count_unsuppressed(&violations);
    let baseline_raw = read_baseline_raw(root)?;
    let baseline = match &baseline_raw {
        Some(text) => baseline::from_json(text).map_err(|e| format!("{BASELINE_FILE}: {e}"))?,
        None => Baseline::new(),
    };
    let new_violations = find_new(&violations, &counts, &baseline);

    Ok(Outcome {
        files_scanned,
        violations,
        counts,
        baseline,
        baseline_raw,
        new_violations,
        hard_errors,
        lock_order,
        lock_edges,
        panic_paths,
    })
}

/// Apply one file's suppressions to the full violation set.
/// Suppression rules: the lint name must exist, the justification is
/// mandatory (enforced at parse), and a suppression that matches no
/// violation is itself an error — stale allows rot into lies.
fn apply_suppressions(
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

/// Unsuppressed violation counts per (lint, file).
pub fn count_unsuppressed(violations: &[Violation]) -> Baseline {
    let mut counts = Baseline::new();
    for v in violations.iter().filter(|v| !v.suppressed) {
        *counts.entry(v.lint.name().to_string()).or_default().entry(v.file.clone()).or_insert(0) +=
            1;
    }
    counts
}

/// The violations exceeding the baseline: for each (lint, file) whose
/// count is above its grandfathered allowance, the trailing `count -
/// allowed` violations (by source order) are reported as new.
fn find_new(violations: &[Violation], counts: &Baseline, baseline: &Baseline) -> Vec<Violation> {
    let mut out = Vec::new();
    for (lint, files) in counts {
        for (file, &count) in files {
            let allowed = baseline.get(lint).and_then(|f| f.get(file)).copied().unwrap_or(0);
            if count <= allowed {
                continue;
            }
            let over = (count - allowed) as usize;
            let mut matching: Vec<&Violation> = violations
                .iter()
                .filter(|v| !v.suppressed && v.lint.name() == lint && v.file == *file)
                .collect();
            matching.sort_by_key(|v| (v.line, v.col));
            out.extend(matching.into_iter().rev().take(over).rev().cloned());
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    out
}

/// Raw baseline text; `None` when the file is absent (the bootstrap
/// case).
pub fn read_baseline_raw(root: &Path) -> Result<Option<String>, String> {
    let path = root.join(BASELINE_FILE);
    if !path.exists() {
        return Ok(None);
    }
    fs::read_to_string(&path).map(Some).map_err(|e| format!("cannot read {BASELINE_FILE}: {e}"))
}

/// Load `lint-baseline.json`; a missing file is an empty baseline.
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    match read_baseline_raw(root)? {
        Some(text) => baseline::from_json(&text).map_err(|e| format!("{BASELINE_FILE}: {e}")),
        None => Ok(Baseline::new()),
    }
}

/// True when the baseline file on disk no longer matches what this run
/// loaded — e.g. edited by hand or by a concurrent run. `--baseline-update`
/// refuses to write over such a file: an update must start from the state
/// it was ratcheted against.
pub fn baseline_dirty(root: &Path, outcome: &Outcome) -> bool {
    fs::read_to_string(root.join(BASELINE_FILE)).ok() != outcome.baseline_raw
}

/// Write the current counts as the new baseline. The caller has already
/// checked the `ELS_LINT_BASELINE_UPDATE` gate.
pub fn write_baseline(root: &Path, counts: &Baseline) -> Result<(), String> {
    fs::write(root.join(BASELINE_FILE), baseline::to_json(counts))
        .map_err(|e| format!("cannot write {BASELINE_FILE}: {e}"))
}

/// Per-lint rollup used by the delta report: (current, baselined,
/// suppressed) for each lint name.
pub fn per_lint_summary(outcome: &Outcome) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for lint in Lint::all() {
        out.insert(lint.name().to_string(), (0, 0, 0));
    }
    for (lint, files) in &outcome.counts {
        out.entry(lint.clone()).or_default().0 += files.values().sum::<u64>();
    }
    for (lint, files) in &outcome.baseline {
        out.entry(lint.clone()).or_default().1 += files.values().sum::<u64>();
    }
    for v in outcome.violations.iter().filter(|v| v.suppressed) {
        out.entry(v.lint.name().to_string()).or_default().2 += 1;
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
