//! # els-exec
//!
//! A small Volcano-flavoured (but block-materializing) execution engine —
//! the stand-in for the Starburst runtime on which the paper's Section 8
//! measured elapsed query times.
//!
//! * [`chunk`] — intermediate results: a materialized table plus the
//!   provenance of each column (`(table, column)` of the original query).
//! * [`filter`] — compiled local predicates evaluated during scans.
//! * [`join`] — nested-loops, sort-merge, and hash join implementations
//!   (the paper's experiment used Nested Loops and Sort Merge; hash join is
//!   included for the extended plan-quality studies).
//! * [`plan`] — physical plan trees built by the optimizer.
//! * [`executor`] — plan interpretation with [`metrics`] collection
//!   (tuples, simulated page reads, comparisons, wall time), in one of two
//!   [`ExecMode`]s: the tuple-at-a-time reference oracle, or
//! * [`vectorized`] — typed whole-column kernels over selection vectors
//!   with late materialization, a morsel-parallel hash probe and band
//!   join, and fused `COUNT(*)` roots (the default mode; bit-identical
//!   results and counters).
//! * [`scheduler`] — the work-stealing morsel scheduler every parallel
//!   operator runs on (the only library module allowed to spawn threads).
//!
//! The engine executes *exactly* the predicate set it is given: join
//! predicates become join keys as soon as both sides are available, local
//! predicates are pushed into scans, and intra-table column equalities are
//! applied at the scan too. Correctness of every join method is tested
//! against a brute-force cartesian evaluator.

// Degrade, don't panic, and print nothing (DESIGN.md §4f). scripts/check.sh
// runs clippy with `-D warnings`, so these are bans on non-test library code,
// waived only by an `#[expect(..., reason = "...")]`, never a bare `#[allow]`;
// every library crate root carries the same list (lint/tests/self_check.rs).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::todo, clippy::unimplemented, clippy::dbg_macro))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing, clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::allow_attributes, clippy::allow_attributes_without_reason))]
// Row ids and counts narrow only where a bound says they fit.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
// The one exception, and the only `#[expect(unsafe_code)]` in a library
// crate: the lifetime erasure in `scheduler::Posted::new`.
#![deny(unsafe_code)]

pub mod buffer;
pub mod chunk;
pub mod error;
pub mod executor;
pub mod filter;
pub mod index;
pub mod join;
pub mod metrics;
pub mod plan;
pub mod scheduler;
pub mod timing;
pub mod vectorized;

pub use buffer::{BufferPool, PageIo};
pub use chunk::Chunk;
pub use error::{check_rowid_range, ExecError, ExecResult};
pub use executor::{execute_plan_observed, execute_plan_with, ExecMode, ExecOutput, Observations};
pub use metrics::{
    json_escape, thread_stripe, EngineCounters, EngineCountersSnapshot, ExecMetrics,
    MetricsRegistry, QErrorHistogram, ServerCounters, ServerCountersSnapshot, StripedCounter,
    STRIPES,
};
pub use plan::{JoinMethod, PlanNode, PlanOutput, QueryPlan};
pub use scheduler::RunStats;
pub use vectorized::{MORSEL_ROWS, PARALLEL_MIN_ROWS};
