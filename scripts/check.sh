#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it ships.
# Run from the repository root: ./scripts/check.sh
#   --fast  skip the three bench smokes (build + test + lint + fmt only),
#           for tight edit loops; the full gate still runs before shipping.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "check.sh: unknown argument '$arg' (supported: --fast)" >&2; exit 2 ;;
  esac
done

cargo build --release
# --workspace: at the root, a bare `cargo test` tests only the `els`
# package and skips every crate's own unit and integration tests.
cargo test -q --workspace
cargo clippy --all-targets -- -D warnings

# The benchmark (benchmark/, BENCHMARK.json) is a package of its own that
# the workspace commands above never see, and whoever judges a change
# builds it from that change's sources: compile it here, so an API change
# that breaks benchmark/src/pipeline.rs fails this gate first. Compile
# only — running it is benchmark/repeat.sh's job.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Static analysis: the in-workspace linter (crates/lint) runs the per-file
# token passes (panic-freedom, determinism, metrics-only I/O, atomics
# discipline, numeric-cast discipline, crate layering) plus the
# workspace-wide call-graph passes: panic-reachability from the public
# entry points and lock-order deadlock detection against
# els_core::sync::LOCK_ORDER. Findings are checked against the ratchet
# baseline in lint-baseline.json; a non-zero exit means a new violation, a
# malformed/unused suppression, a layering break, or a lock-order cycle.
# To re-ratchet after burning down baselined debt:
#   ELS_LINT_BASELINE_UPDATE=1 cargo run -q -p els-lint -- --baseline-update
# The full structured report (lock-order edges, panic witness paths) is
# archived at the repo root (LINT_report.json).
cargo run --release -q -p els-lint
cargo run --release -q -p els-lint -- --json > LINT_report.json
echo "check.sh: lint report archived to LINT_report.json"

cargo fmt --check

if [[ "$fast" == 1 ]]; then
  echo "check.sh: all gates passed (--fast: bench smokes skipped)"
  exit 0
fi

# Bench smoke: the kernel bench on a scaled-down workload. It exits
# non-zero and prints REGRESSION if any vectorized result diverges from
# the row-at-a-time oracle, ACCURACY REGRESSION if the ELS median
# q-error on the Section 8 chain exceeds its pinned threshold, FEEDBACK
# REGRESSION if a replay under applied corrections has a worse median
# q-error than the pass that learned them, or BAKE-OFF REGRESSION if the
# UES contender under-estimates any smoke query (it claims to be a
# guaranteed upper bound) or the bake-off's ELS median q-error degrades
# past the same threshold. None of the gates compares wall-clock times:
# the smoke tables are too small to time anything but noise.
smoke_out=$(cargo run --release -q -p els-bench --bin bench_exec_kernels -- --smoke)
echo "$smoke_out"
if grep -q "REGRESSION" <<<"$smoke_out"; then
  echo "check.sh: bench smoke found a regression" >&2
  exit 1
fi

# Band-join smoke: inequality-join estimation accuracy over uniform,
# Zipf, and correlated-offset key data. Exits non-zero and prints a
# REGRESSION line if the ELS median q-error on band joins exceeds its
# pinned limit, the UES contender under-estimates any band join (it
# claims to be an upper bound — a band join must fall back to the cross
# product), any contender's executed count diverges, or no query runs
# through the RANGE band-join operator at all.
band_out=$(cargo run --release -q -p els-bench --bin bench_band_join -- --smoke)
echo "$band_out"
if grep -q "REGRESSION" <<<"$band_out"; then
  echo "check.sh: band-join smoke found a regression" >&2
  exit 1
fi

# Server traffic smoke: closed-loop clients, an overload storm, and a
# shed probe against the TCP front door over loopback. Exits non-zero
# and prints OVERLOAD REGRESSION if any client hangs, any storm attempt
# ends untyped, saturation yields zero typed Overloaded rejections, or
# cached-plan-only shedding breaks its serve-cached/refuse-uncached
# contract.
server_out=$(cargo run --release -q -p els-bench --bin bench_server_traffic -- --smoke)
echo "$server_out"
if grep -q "REGRESSION" <<<"$server_out"; then
  echo "check.sh: server traffic smoke found a regression" >&2
  exit 1
fi

echo "check.sh: all gates passed"
