//! The linter must hold on the workspace that ships it: zero hard errors
//! and zero unsuppressed violations. This is the same gate
//! `scripts/check.sh` runs, kept here so `cargo test` alone catches a
//! regression (a stray `Ordering::Relaxed`, an `assert!` in library code, a
//! layering break, an unjustified suppression) without the shell harness.
//! It also checks that every library crate root carries the clippy bans the
//! linter relies on.

use std::path::Path;

use els_lint::{per_lint_summary, run};

fn workspace_root() -> &'static Path {
    // crates/lint/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn workspace_passes_its_own_lints() {
    let outcome = run(workspace_root()).expect("lint run must not fail to read the tree");
    assert!(
        outcome.hard_errors.is_empty(),
        "hard errors (malformed or unused suppressions): {:#?}",
        outcome.hard_errors
    );
    let unsuppressed: Vec<_> = outcome.unsuppressed().collect();
    assert!(unsuppressed.is_empty(), "unsuppressed violations: {unsuppressed:#?}");
    assert!(outcome.is_ok());
    // Sanity: the scan actually saw the engine, not an empty directory.
    assert!(outcome.files_scanned > 30, "only {} files scanned", outcome.files_scanned);
}

#[test]
fn library_code_asserts_in_exactly_two_justified_places() {
    // `ZipfSampler::new`, whose infallible signature the benchmark pins,
    // and the lock audit, whose job is to panic on a forbidden nesting.
    let outcome = run(workspace_root()).expect("lint run must not fail to read the tree");
    let mut files: Vec<&str> = outcome
        .violations
        .iter()
        .filter(|v| v.lint.name() == "assert-ban")
        .map(|v| v.file.as_str())
        .collect();
    files.sort_unstable();
    assert_eq!(files, ["crates/core/src/sync.rs", "crates/storage/src/datagen.rs"]);
    assert_eq!(per_lint_summary(&outcome).get("assert-ban"), Some(&(0, 2)));
}

#[test]
fn every_library_crate_root_enables_the_shared_clippy_bans() {
    // els-lint dropped the bans clippy enforces; this keeps a new library
    // crate from dropping out of them silently. `unreachable_pub` keeps
    // `pub` meaning "another crate calls it": an item only its own crate
    // reaches is `pub(crate)`, where `dead_code` can see it.
    const RUSTC: &[&str] = &["unreachable_pub"];
    const BANS: &[&str] = &[
        "unwrap_used",
        "expect_used",
        "panic",
        "todo",
        "unimplemented",
        "dbg_macro",
        "print_stdout",
        "print_stderr",
        "indexing_slicing",
        "unreachable",
        "allow_attributes",
        "allow_attributes_without_reason",
    ];
    for (crate_name, src_root) in els_lint::LIBRARY_SRC_ROOTS {
        let path = workspace_root().join(src_root).join("lib.rs");
        let text = std::fs::read_to_string(&path).expect("library crate root");
        let words: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("#![cfg_attr(not(test), warn("))
            .flat_map(|l| l.split(['(', ')', ',', ' ']))
            .collect();
        for ban in BANS {
            let lint = format!("clippy::{ban}");
            assert!(
                words.contains(&lint.as_str()),
                "{crate_name}: {path:?} does not warn on {lint}"
            );
        }
        for lint in RUSTC {
            assert!(words.contains(lint), "{crate_name}: {path:?} does not warn on {lint}");
        }
    }
}
