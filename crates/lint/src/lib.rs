//! `els-lint` — in-workspace static analysis for the ELS engine.
//!
//! The passes enforce the invariants that neither the test suite nor
//! clippy can see (see `DESIGN.md` §4f and §4k; clippy holds every ban it
//! can express). One token walk per library file runs atomics discipline,
//! the parallelism seam, the assert ban, lock confinement, and float and
//! default discipline; the layering pass reads the crate manifests. Lock
//! confinement reads its class list from `els_core::sync::LOCK_CLASSES`,
//! and keeps every engine lock in the file its class names, which is how
//! the runtime lock audit tells the locks apart.
//!
//! Any unsuppressed violation fails the run. A suppression carries a
//! written justification that is reviewed like code, and one that
//! discharges nothing is itself an error.

#![deny(unsafe_code)]

mod lexer;
mod passes;
pub mod report;
pub mod source;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use passes::{Lint, Violation};
use source::SourceFile;

/// The library targets the passes cover: the six engine crates, the
/// umbrella facade, and the server front door, each with the source root
/// whose sibling `Cargo.toml` the layering pass reads. Each crate root also
/// carries the shared clippy ban list. Tooling (els-bench, els-lint) and the
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

/// Hard errors that no suppression can discharge: malformed or unused
/// suppressions, allowlist entries that excuse nothing, and a sync module
/// whose lock classes cannot be read.
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

/// Run every pass over the workspace at `root`. Suppressions apply last,
/// after every pass has produced its violations.
pub fn run(root: &Path) -> Result<Outcome, String> {
    let mut violations = Vec::new();
    let mut hard_errors = Vec::new();

    let mut files: Vec<SourceFile> = Vec::new();
    for (_, src_root) in LIBRARY_SRC_ROOTS {
        let dir = root.join(src_root);
        if !dir.is_dir() {
            return Err(format!("library source root `{src_root}` not found under {root:?}"));
        }
        let mut paths = Vec::new();
        collect_rs_files(&dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let rel = rel_path(root, &path);
            let text =
                fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", rel))?;
            files.push(SourceFile::parse(&rel, &text));
        }
    }

    let sync = files.iter().find(|f| f.rel_path == passes::SYNC_FILE);
    let lock_classes = sync.and_then(passes::lock_classes).unwrap_or_else(|| {
        hard_errors.push(HardError {
            file: passes::SYNC_FILE.to_string(),
            line: 0,
            message: "could not parse the LOCK_CLASSES const from els_core::sync; the \
                      lock-confinement rule has no classes to check against"
                .to_string(),
        });
        Vec::new()
    });

    for file in &files {
        for e in &file.errors {
            hard_errors.push(HardError {
                file: file.rel_path.clone(),
                line: e.line,
                message: e.message.clone(),
            });
        }
        passes::run_token_passes(file, &lock_classes, &mut violations);
    }

    for (list, entry) in passes::stale_allowlist_entries(&files) {
        hard_errors.push(HardError {
            file: entry.to_string(),
            line: 0,
            message: format!("unused allowlist entry: `{entry}` in {list} excuses nothing"),
        });
    }

    // The layering pass reads each crate's manifest, beside its source root.
    for (crate_name, src_root) in LIBRARY_SRC_ROOTS {
        let manifest = Path::new(src_root).with_file_name("Cargo.toml");
        let manifest_rel = manifest.to_string_lossy();
        let text = fs::read_to_string(root.join(&manifest))
            .map_err(|e| format!("cannot read {manifest_rel}: {e}"))?;
        passes::run_layering_pass(crate_name, &manifest_rel, &text, &mut violations);
    }

    for file in &files {
        apply_suppressions(file, &mut violations, &mut hard_errors);
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(Outcome { files_scanned: files.len(), violations, hard_errors })
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
