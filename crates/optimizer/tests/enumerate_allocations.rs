//! The enumerator's inner loop must not allocate: a ten-table bushy clique
//! prices about 64 000 candidates, and before the DP table held `Copy`
//! back-pointer entries every one of them cloned a plan subtree and built
//! two key vectors. What remains is per enumeration (the table itself, the
//! per-table vectors) or per node of the one tree that is returned.
//!
//! Its own test binary: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use els_core::{
    CmpOp, ColumnRef, ColumnStatistics, Els, ElsOptions, Predicate, QueryStatistics,
    TableStatistics,
};
use els_exec::JoinMethod;
use els_optimizer::enumerate::enumerate;
use els_optimizer::{CostParams, TableProfile, TreeShape};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_ten_table_bushy_clique_enumerates_in_under_a_thousand_allocations() {
    let n = 10;
    let rows = |i: usize| 1000.0 * (1 + i % 4) as f64;
    let stats = QueryStatistics::new(
        (0..n)
            .map(|i| {
                let r = rows(i);
                TableStatistics::new(r, vec![ColumnStatistics::with_domain(r, 0.0, r - 1.0)])
            })
            .collect(),
    );
    // A chain on one column: Step 2's closure turns it into a clique of 45
    // join predicates, every one of them a key of the final joins.
    let predicates: Vec<Predicate> = (1..n)
        .map(|i| Predicate::col_eq(ColumnRef::new(i - 1, 0), ColumnRef::new(i, 0)))
        .chain([Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 100i64)])
        .collect();
    let els = Els::prepare(&predicates, &stats, &ElsOptions::algorithm_els()).unwrap();
    let profiles: Vec<TableProfile> =
        (0..n).map(|i| TableProfile::synthetic(rows(i), 16)).collect();
    let methods = [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash];

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = enumerate(&els, &profiles, &methods, &CostParams::default(), TreeShape::Bushy);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(result.unwrap().join_order.len(), n);
    assert!(allocations < 1000, "{allocations} allocations for one enumeration");
}
