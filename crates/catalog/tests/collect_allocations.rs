//! ANALYZE allocates per column, not per row: `collect_table_stats` gathers
//! each column's non-NULL values from its typed slice into one buffer and
//! sorts it in place, so ten times the rows must not change how often it
//! touches the heap — under any `CollectOptions`. A collector that boxed
//! every row as a `Value` made one allocation per `Str` row.
//!
//! Its own test binary: the counting allocator
//! (`tests/support/counting_alloc.rs` at the workspace root) is
//! process-wide, though it counts per thread.

use els_catalog::collect::{collect_table_stats, CollectOptions};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els_storage::Table;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;

/// One `Int`, one `Float` and one `Str` column, each with NULLs.
fn table(rows: usize) -> Table {
    let with_nulls = |inner| Distribution::WithNulls { inner: Box::new(inner), null_fraction: 0.1 };
    TableSpec::new("t", rows)
        .column(ColumnSpec::new(
            "i",
            with_nulls(Distribution::ZipfInt { n: 500, theta: 1.1, start: 0 }),
        ))
        .column(ColumnSpec::new("f", with_nulls(Distribution::UniformFloat { lo: -1.0, hi: 1.0 })))
        .column(ColumnSpec::new(
            "s",
            with_nulls(Distribution::StrTag { prefix: "tag".into(), modulus: 700 }),
        ))
        .generate(3)
}

#[test]
fn collecting_allocates_per_column_not_per_row() {
    let (small, large) = (table(10_000), table(100_000));
    for options in [CollectOptions::default(), CollectOptions::full()] {
        let (s, at_small) = allocations_in(|| collect_table_stats(&small, &options));
        let (l, at_large) = allocations_in(|| collect_table_stats(&large, &options));
        assert_eq!((s.0.cardinality, l.0.cardinality), (10_000.0, 100_000.0));
        assert_eq!(
            at_small, at_large,
            "{options:?}: {at_small} allocations at 10 000 rows, {at_large} at 100 000"
        );
    }
}
