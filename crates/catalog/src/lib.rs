//! # els-catalog
//!
//! Schema and statistics substrate for the ELS reproduction: the catalog
//! plays the role of Starburst's system catalog in the paper's experiment.
//!
//! * [`schema`] — table/column definitions derived from stored data.
//! * [`histogram`] — equi-width and equi-depth histograms plus
//!   most-common-value lists; these are the "distribution statistics" the
//!   paper's Section 5 allows for local predicates.
//! * [`stats`] — per-column and per-table statistics containers.
//! * [`collect`] — statistics collection (ANALYZE) over `els-storage`
//!   tables: exact row counts, exact distinct counts, min/max, optional
//!   histograms.
//! * [`catalog`] — the registry binding names → (definition, statistics,
//!   data), and the bridge into `els-core`: positional
//!   [`els_core::QueryStatistics`] for a `FROM` list and a
//!   [`els_core::selectivity::SelectivityOracle`] backed by histograms.
//! * [`shared`] — concurrent serving: [`SharedCatalog`] publishes immutable
//!   [`CatalogSnapshot`]s under a monotonically increasing *epoch*, the
//!   invalidation token for cached plans.
//! * [`feedback`] — runtime feedback: per-key correction factors learned
//!   from executed queries ([`FeedbackStore`]), shared across snapshots
//!   and consulted by the estimator under
//!   [`FeedbackMode::Apply`](feedback::FeedbackMode).
//!
//! # Example
//!
//! ```
//! use els_storage::datagen::{TableSpec, ColumnSpec, Distribution};
//! use els_catalog::{Catalog, collect::CollectOptions};
//!
//! let table = TableSpec::new("t", 1000)
//!     .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
//!     .generate(1);
//! let mut catalog = Catalog::new();
//! catalog.register(table, &CollectOptions::default()).unwrap();
//! let stats = catalog.table_stats("t").unwrap();
//! assert_eq!(stats.row_count, 1000);
//! assert_eq!(stats.columns[0].distinct, 1000.0);
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

pub mod catalog;
pub mod collect;
pub mod error;
pub mod feedback;
pub mod histogram;
pub mod schema;
pub mod shared;
pub mod stats;

pub use catalog::{Catalog, QueryOracle};
pub use error::{CatalogError, CatalogResult};
pub use feedback::{FeedbackCounters, FeedbackKey, FeedbackMode, FeedbackStore, QueryCorrections};
pub use histogram::{EquiDepthHistogram, EquiWidthHistogram, Histogram, MostCommonValues};
pub use schema::{ColumnDef, TableDef};
pub use shared::{CatalogSnapshot, SharedCatalog};
pub use stats::{ColumnStats, TableStats};
