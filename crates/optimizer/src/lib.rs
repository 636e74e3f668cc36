//! # els-optimizer
//!
//! A System-R style query optimizer with pluggable cardinality estimation —
//! the stand-in for the (modified) Starburst optimizer of the paper's
//! Section 8 experiment.
//!
//! * `profile` — per-table physical profiles (rows, pages, tuple width)
//!   feeding the cost model; built from the catalog or by hand.
//! * `cost` — a page-based cost model for filtered scans, nested-loops
//!   (base-inner rescan), sort-merge, and hash joins.
//! * `rewrite` — predicate transitive closure as a standalone query
//!   rewrite (the paper implemented PTC as a Starburst rewrite rule [11] so
//!   it could be toggled; the same toggle exists here).
//! * [`enumerate`] — dynamic-programming enumeration of left-deep or bushy
//!   join trees, choosing join order *and* join method per step from
//!   estimated cardinalities.
//! * `plan_cache` — a concurrent LRU plan cache keyed by canonical query
//!   fingerprint + catalog epoch, so repeated queries skip enumeration
//!   entirely, and a repeated text reaches its plan through per-thread
//!   text slots (counters in [`els_exec::EngineCounters`]).
//! * `optimizer` — the front door: configure an estimation algorithm
//!   (the paper's **SM**, **SSS**, or **ELS**), optimize a bound query, and
//!   get back an executable [`els_exec::QueryPlan`] plus the estimated
//!   intermediate result sizes the optimizer believed in.
//!
//! The coupling under study: the estimator's intermediate-size estimates
//! enter the cost of every candidate join; an estimator that collapses to
//! ~0 (Rule M after transitive closure) makes nested loops over a giant
//! unfiltered inner look free, and the chosen plan pays for it at runtime.

// Degrade, don't panic, and print nothing (DESIGN.md §4f). scripts/check.sh
// runs clippy with `-D warnings`, so these are bans on non-test library code,
// waived only by an `#[expect(..., reason = "...")]`, never a bare `#[allow]`;
// every library crate root carries the same list (lint/tests/self_check.rs).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::todo, clippy::unimplemented, clippy::dbg_macro))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing, clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::allow_attributes, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), warn(unreachable_pub))]
#![deny(unsafe_code)]

mod cost;
pub mod enumerate;
mod error;
mod optimizer;
mod plan_cache;
mod profile;
mod rewrite;
mod stripe;

pub use cost::CostParams;
pub use enumerate::{cost_order, Annotation, EnumerationResult, TreeShape};
pub use error::{OptimizerError, OptimizerResult};
pub use optimizer::{
    bound_query_tables, optimize, optimize_bound, optimize_full, EstimatorPreset,
    EstimatorStrategy, OptimizedQuery, OptimizerOptions,
};
pub use plan_cache::{CachedPlan, PlanCache, Slot};
pub use profile::TableProfile;
pub use rewrite::apply_predicate_transitive_closure;
