//! # els — Estimation of Join Result Sizes (EDBT 1994), reproduced
//!
//! Umbrella crate for the reproduction of *On the Estimation of Join Result
//! Sizes* (Arun Swami & K. Bernhard Schiefer, EDBT 1994). It re-exports the
//! workspace crates so examples and downstream users need a single
//! dependency:
//!
//! * [`core`] — Algorithm **ELS** and the estimation rules (the paper's
//!   contribution).
//! * [`storage`] — in-memory column store and data generators.
//! * [`catalog`] — schema and statistics (cardinalities, histograms).
//! * [`sql`] — conjunctive SPJ SQL front-end.
//! * [`exec`] — physical operators and the executor.
//! * [`optimizer`] — predicate transitive closure rewrite, cost model, and
//!   System-R dynamic-programming join enumeration.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the reproduction of
//! the paper's experiment.

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

pub mod analyze;
pub mod engine;

pub use els_catalog as catalog;
pub use els_core as core;
pub use els_exec as exec;
pub use els_optimizer as optimizer;
pub use els_sql as sql;
pub use els_storage as storage;
