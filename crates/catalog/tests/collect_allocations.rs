//! ANALYZE allocates per column, not per row: `collect_table_stats` gathers
//! each column's non-NULL values from its typed slice into one buffer and
//! sorts it in place, so ten times the rows must not change how often it
//! touches the heap — under any `CollectOptions`. A collector that boxed
//! every row as a `Value` made one allocation per `Str` row.
//!
//! Its own test binary: the counting allocator is process-wide (the count
//! itself is per thread, so the test harness's threads do not disturb it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use els_catalog::collect::{collect_table_stats, CollectOptions, HistogramKind};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els_storage::Table;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

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
    let equi_width =
        CollectOptions { histogram: HistogramKind::EquiWidth, histogram_buckets: 16, mcv_size: 8 };
    for options in [CollectOptions::default(), CollectOptions::full(), equi_width] {
        let (s, at_small) = allocations_in(|| collect_table_stats(&small, &options));
        let (l, at_large) = allocations_in(|| collect_table_stats(&large, &options));
        assert_eq!((s.0.cardinality, l.0.cardinality), (10_000.0, 100_000.0));
        assert_eq!(
            at_small, at_large,
            "{options:?}: {at_small} allocations at 10 000 rows, {at_large} at 100 000"
        );
    }
}
