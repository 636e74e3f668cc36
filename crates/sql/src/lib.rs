//! # els-sql
//!
//! A small SQL front-end for the conjunctive select-project-join queries the
//! paper studies (Section 2: "we focus on *conjunctive* queries where the
//! selection condition in the WHERE clause is a conjunction of
//! predicates").
//!
//! Supported grammar:
//!
//! ```text
//! query       := SELECT projection FROM table [, table]* [WHERE conjunct [AND conjunct]*]
//! projection  := COUNT ( * ) | * | colref [, colref]*
//! table       := ident [AS? ident]
//! conjunct    := operand cmp operand
//! operand     := colref | literal
//! colref      := [ident .] ident
//! cmp         := = | <> | != | < | <= | > | >=
//! ```
//!
//! The pipeline is [`lexer`] → [`parser`] (producing an [`ast::Query`]) →
//! [`bind`] (resolving names against an `els-catalog` [`els_catalog::Catalog`]
//! into positional [`els_core::Predicate`]s).
//!
//! # Example
//!
//! ```
//! use els_sql::parse;
//!
//! let q = parse("SELECT COUNT(*) FROM S, M WHERE S.s = M.m AND S.s < 100").unwrap();
//! assert_eq!(q.from.len(), 2);
//! assert_eq!(q.predicates.len(), 2);
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

pub mod ast;
pub mod bind;
pub mod error;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod unparse;

pub use ast::{ColRefAst, Operand, PredicateAst, Projection, Query, TableRefAst};
pub use bind::{bind, BoundProjection, BoundQuery};
pub use error::{SqlError, SqlResult};
pub use fingerprint::{canonical_sql, fingerprint};
pub use parser::parse;
