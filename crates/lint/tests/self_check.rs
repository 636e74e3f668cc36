//! The linter must hold on the workspace that ships it: zero hard errors,
//! zero violations beyond the committed ratchet baseline. This is the same
//! gate `scripts/check.sh` runs, kept here so `cargo test` alone catches a
//! regression (a stray `Ordering::Relaxed`, a layering break, an
//! unjustified suppression) without the shell harness. It also checks that
//! every library crate root carries the clippy bans the linter relies on.

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
    assert!(
        outcome.new_violations.is_empty(),
        "violations beyond lint-baseline.json: {:#?}",
        outcome.new_violations
    );
    assert!(outcome.is_ok());
    // Sanity: the scan actually saw the engine, not an empty directory.
    assert!(outcome.files_scanned > 30, "only {} files scanned", outcome.files_scanned);
}

#[test]
fn ratchet_only_tightens() {
    // The committed baseline may only ever shrink: if a file got cleaner
    // than its baselined count, the baseline must be re-ratcheted down
    // (ELS_LINT_BASELINE_UPDATE=1 cargo run -p els-lint -- --baseline-update)
    // so the slack cannot be spent on new violations elsewhere in the file.
    let outcome = run(workspace_root()).expect("lint run must not fail to read the tree");
    let current = els_lint::count_unsuppressed(&outcome.violations);
    for (lint, files) in &outcome.baseline {
        for (file, &allowed) in files {
            let now = current.get(lint).and_then(|m| m.get(file)).copied().unwrap_or(0);
            assert!(
                now >= allowed,
                "{file} is below its `{lint}` baseline ({now} < {allowed}); \
                 re-ratchet the baseline down"
            );
        }
    }
    // And the per-lint totals the report prints agree with the raw data.
    for (lint, (cur, baselined, _suppressed)) in per_lint_summary(&outcome) {
        let raw: u64 = current.get(&lint).map(|m| m.values().sum()).unwrap_or(0);
        assert_eq!(cur, raw, "summary total for {lint} disagrees with violations");
        assert!(cur <= baselined, "{lint}: {cur} unsuppressed but only {baselined} baselined");
    }
}

#[test]
fn the_original_lints_stay_at_zero_baseline() {
    // Every pass but the inter-procedural panic-reachability one sits at
    // zero grandfathered violations. Keeping them pinned at zero means a
    // regression in them can never be ratcheted in by a careless
    // --baseline-update.
    let outcome = run(workspace_root()).expect("lint run must not fail to read the tree");
    for lint in
        ["atomics-discipline", "parallelism-seam", "layering", "lock-order", "numeric-discipline"]
    {
        let total: u64 = outcome.baseline.get(lint).map(|m| m.values().sum()).unwrap_or(0);
        assert_eq!(total, 0, "`{lint}` grew a baseline entry; fix or suppress instead");
    }
}

#[test]
fn every_library_crate_root_enables_the_shared_clippy_bans() {
    // els-lint dropped the bans clippy enforces; this keeps a new library
    // crate from dropping out of them silently.
    const BANS: &[&str] = &[
        "unwrap_used",
        "expect_used",
        "panic",
        "todo",
        "unimplemented",
        "dbg_macro",
        "print_stdout",
        "print_stderr",
    ];
    for (crate_name, src_root) in els_lint::LIBRARY_SRC_ROOTS {
        let path = workspace_root().join(src_root).join("lib.rs");
        let text = std::fs::read_to_string(&path).expect("library crate root");
        let enabled: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("#![cfg_attr(not(test), warn("))
            .flat_map(|l| l.split(['(', ')', ',', ' ']))
            .filter_map(|w| w.strip_prefix("clippy::"))
            .collect();
        for ban in BANS {
            assert!(enabled.contains(ban), "{crate_name}: {path:?} does not warn on clippy::{ban}");
        }
    }
}

#[test]
fn the_lock_order_graph_is_derived_and_acyclic() {
    // The pass parsed the order out of els_core::sync (not a stale copy).
    // The one nesting today is the plan cache dropping an entry's text
    // slots from their stripes while it holds its state; every edge must
    // run forward. Acyclicity is enforced inside run() as a hard error,
    // which workspace_passes_its_own_lints already asserts empty.
    let outcome = run(workspace_root()).expect("lint run must not fail to read the tree");
    assert_eq!(
        outcome.lock_order,
        [
            "shared.state",
            "plan_cache.state",
            "stripe.slots",
            "admission.state",
            "metrics.qerr",
            "feedback.entries",
            "scheduler.state"
        ],
        "lock order no longer matches els_core::sync::LOCK_ORDER"
    );
    assert!(
        outcome.lock_edges.iter().any(|e| e.from == "plan_cache.state" && e.to == "stripe.slots"),
        "{:?}",
        outcome.lock_edges
    );
    for e in &outcome.lock_edges {
        let from = outcome.lock_order.iter().position(|c| *c == e.from);
        let to = outcome.lock_order.iter().position(|c| *c == e.to);
        assert!(from < to, "backward edge survived the run: {e:?}");
    }
}

#[test]
fn baseline_update_detects_a_file_changed_underfoot() {
    // --baseline-update must refuse to write over a baseline that changed
    // after the run loaded it (hand edit, concurrent run): simulate with a
    // scratch workspace whose baseline mutates between run() and the check.
    let dir = std::env::temp_dir().join(format!("els-lint-dirty-{}", std::process::id()));
    for (_, root) in els_lint::LIBRARY_SRC_ROOTS {
        std::fs::create_dir_all(dir.join(root)).expect("scratch src root");
    }
    for (_, manifest) in els_lint::LIBRARY_MANIFESTS {
        let path = dir.join(manifest);
        std::fs::create_dir_all(path.parent().unwrap()).expect("scratch manifest dir");
        std::fs::write(&path, "[package]\nname = \"x\"\n").expect("scratch manifest");
    }
    let baseline_path = dir.join(els_lint::BASELINE_FILE);
    std::fs::write(&baseline_path, "{\"version\": 1, \"baseline\": {}}").expect("seed baseline");

    let outcome = run(&dir).expect("scratch run");
    assert!(!els_lint::baseline_dirty(&dir, &outcome), "nothing changed yet");

    std::fs::write(&baseline_path, "{\"version\": 1, \"baseline\": { }}").expect("mutate");
    assert!(els_lint::baseline_dirty(&dir, &outcome), "byte change must be detected");

    std::fs::remove_file(&baseline_path).expect("remove");
    assert!(els_lint::baseline_dirty(&dir, &outcome), "deletion must be detected");

    let _ = std::fs::remove_dir_all(&dir);
}
