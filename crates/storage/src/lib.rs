//! # els-storage
//!
//! In-memory column store and seeded data generators.
//!
//! This crate is the storage substrate for the reproduction of *On the
//! Estimation of Join Result Sizes* (Swami & Schiefer, EDBT 1994). The paper's
//! experiments ran inside the Starburst DBMS; here, tables are held as typed
//! column vectors in memory, which is sufficient because every quantity the
//! paper measures (estimated cardinalities, join orders, relative execution
//! times) depends only on logical data content and tuple/page counts, not on a
//! particular on-disk format.
//!
//! The main types are:
//!
//! * [`Value`] / [`DataType`] — the dynamically typed cell values.
//! * [`ColumnVector`] — a typed column with a validity (null) bitmap.
//! * [`Table`] — a named collection of equal-length columns, with a simple
//!   page model used by the optimizer's cost formulas.
//! * [`datagen`] — seeded generators (sequential, uniform, Zipf, constant,
//!   rotating) used to build the paper's S/M/B/G tables and the skew studies.
//!
//! # Example
//!
//! ```
//! use els_storage::{Table, DataType, datagen::{TableSpec, ColumnSpec, Distribution}};
//!
//! // The paper's table S: 1000 tuples, column `s` with 1000 distinct values.
//! let spec = TableSpec::new("S", 1000)
//!     .column(ColumnSpec::new("s", Distribution::SequentialInt { start: 0 }));
//! let table: Table = spec.generate(42);
//! assert_eq!(table.num_rows(), 1000);
//! assert_eq!(table.column_by_name("s").unwrap().distinct_count(), 1000);
//! ```

// Degrade, don't panic, and print nothing (DESIGN.md §4f). scripts/check.sh
// runs clippy with `-D warnings`, so these are bans on non-test library code,
// waived only by an `#[expect(..., reason = "...")]`, never a bare `#[allow]`;
// every library crate root carries the same list (lint/tests/self_check.rs).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::todo, clippy::unimplemented, clippy::dbg_macro))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing, clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::allow_attributes, clippy::allow_attributes_without_reason))]
#![deny(unsafe_code)]

pub mod column;
pub mod csv;
pub mod datagen;
pub mod error;
pub mod table;
pub mod value;

pub use column::ColumnVector;
pub use error::{StorageError, StorageResult};
pub use table::{Table, PAGE_SIZE_BYTES};
pub use value::{DataType, Value};
