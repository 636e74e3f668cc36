#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it ships.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
if (($#)); then
  echo "check.sh: takes no arguments" >&2
  exit 2
fi

cargo build --release
# --workspace: at the root, a bare `cargo test` tests only the `els`
# package and skips every crate's own unit and integration tests.
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark (benchmark/, BENCHMARK.json) is a package of its own that
# the workspace commands above never see, and whoever judges a change
# builds it from that change's sources: compile it here, so an API change
# that breaks benchmark/src/pipeline.rs fails this gate first. Compile
# only — running it is benchmark/repeat.sh's job.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Static analysis, the rules clippy cannot express (DESIGN.md §4f): the
# in-workspace linter (crates/lint) runs the per-file passes (atomics
# discipline, the parallelism seam, the assert ban, lock confinement
# against els_core::sync::LOCK_CLASSES, float and default discipline,
# crate layering). A non-zero exit means an unsuppressed violation, a
# malformed/unused suppression, a layering break, or an unreadable lock
# class list. The per-lint report is archived at the repo root
# (LINT_report.json).
cargo run --release -q -p els-lint
cargo run --release -q -p els-lint -- --json > LINT_report.json
echo "check.sh: lint report archived to LINT_report.json"

cargo fmt --check

echo "check.sh: all gates passed"
