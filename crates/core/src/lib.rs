//! # els-core — Algorithm ELS
//!
//! Faithful implementation of **Algorithm ELS** (*Equivalence and Largest
//! Selectivity*) from:
//!
//! > Arun Swami and K. Bernhard Schiefer. *On the Estimation of Join Result
//! > Sizes.* EDBT 1994.
//!
//! Algorithm ELS incrementally estimates the result sizes of multi-way joins
//! for a query optimizer. Its six steps (paper, Section 4) map onto the
//! modules of this crate:
//!
//! | Step | Paper | Module |
//! |---|---|---|
//! | 1 | deduplicate predicates, build equivalence classes | [`predicate`], `equivalence` |
//! | 2 | predicate transitive closure (five implication rules) | [`closure`] |
//! | 3 | local-predicate selectivities (incl. multiple predicates per column) | [`selectivity`] |
//! | 4 | effective table/column cardinalities after local predicates (urn model) | [`local_effects`], [`urn`] |
//! | 5 | join selectivities, incl. j-equivalent columns in a single table | `join_sel`, `same_table` |
//! | 6 | incremental result sizes with rule **LS** (largest selectivity) | [`estimator`], [`rules`] |
//!
//! The crate also implements the *incorrect* alternatives the paper compares
//! against — the multiplicative rule **M** of System R [13], the smallest
//! selectivity rule **SS**, the representative-selectivity proposal, and the
//! "standard" pre-processing that ignores the effect of local predicates on
//! join-column cardinalities — so that the paper's experiments can be
//! replayed. Closed-form ground truth under the paper's model assumptions
//! (Equations 1–3) lives in [`exact`].
//!
//! # Model assumptions
//!
//! As in the paper (Section 2), estimates assume *independence* between join
//! columns in different equivalence classes, *uniformity* of values within
//! join columns, and *containment* of the smaller join-column domain in the
//! larger. Local predicates may use arbitrary distribution information via
//! the [`selectivity::SelectivityOracle`] hook.
//!
//! # Quickstart
//!
//! Reproduce the paper's Example 1b / 2 / 3 (three tables, one equivalence
//! class):
//!
//! ```
//! use els_core::prelude::*;
//!
//! // ||R1||=100, ||R2||=1000, ||R3||=1000; d_x=10, d_y=100, d_z=1000.
//! let stats = QueryStatistics::new(vec![
//!     TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(10.0)]),
//!     TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(100.0)]),
//!     TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(1000.0)]),
//! ]);
//! let predicates = vec![
//!     Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(), // R1.x = R2.y
//!     Predicate::join_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(), // R2.y = R3.z
//! ];
//!
//! let els = Els::prepare(&predicates, &stats, &ElsOptions::default()).unwrap();
//!
//! // Join R2 with R3 first, then R1 — the order of the paper's Example 2/3.
//! let s0 = els.initial_state(1).unwrap();
//! let s1 = els.join(&s0, 2).unwrap();
//! assert_eq!(s1.cardinality().round(), 1000.0);       // ||R2 ⋈ R3||
//! let s2 = els.join(&s1, 0).unwrap();
//! assert_eq!(s2.cardinality().round(), 1000.0);       // correct (Rule LS)
//!
//! // Rule M on the same join order dramatically underestimates (Example 2).
//! let m = Els::prepare(&predicates, &stats,
//!     &ElsOptions::default().with_rule(SelectivityRule::Multiplicative)).unwrap();
//! let m2 = m.join(&m.join(&m.initial_state(1).unwrap(), 2).unwrap(), 0).unwrap();
//! assert_eq!(m2.cardinality().round(), 1.0);
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
#![cfg_attr(not(test), warn(unreachable_pub))]
// The estimator path casts nothing it cannot prove fits.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![deny(unsafe_code)]

mod algorithm;
mod cardinality;
pub mod closure;
pub mod correction;
mod equivalence;
mod error;
mod error_model;
pub mod estimator;
pub mod exact;
mod explain;
mod float;
mod ids;
mod join_sel;
pub mod local_effects;
pub mod predicate;
pub mod rules;
mod same_table;
pub mod selectivity;
mod stats;
pub mod sync;
pub mod urn;

pub use algorithm::{Els, ElsOptions, Preprocessing};
pub use cardinality::{CardinalityEstimator, NoEstimatesEstimator, UpperBoundEstimator};
pub use correction::{scan_fingerprint, CorrectionSource, NoCorrections};
pub use error::{ElsError, ElsResult};
pub use error_model::q_error;
pub use estimator::JoinState;
pub use explain::EstimationReport;
pub use ids::{ClassId, ColumnRef, TableId};
pub use predicate::{CmpOp, Predicate};
pub use rules::SelectivityRule;
pub use stats::{ColumnStatistics, QueryStatistics, TableStatistics};

/// One-stop imports for typical users.
pub mod prelude {
    pub use crate::algorithm::{Els, ElsOptions, Preprocessing};
    pub use crate::cardinality::{CardinalityEstimator, NoEstimatesEstimator, UpperBoundEstimator};
    pub use crate::error::{ElsError, ElsResult};
    pub use crate::estimator::JoinState;
    pub use crate::ids::{ColumnRef, TableId};
    pub use crate::predicate::{CmpOp, Predicate};
    pub use crate::rules::SelectivityRule;
    pub use crate::stats::{ColumnStatistics, QueryStatistics, TableStatistics};
    pub use els_storage::Value;
}
