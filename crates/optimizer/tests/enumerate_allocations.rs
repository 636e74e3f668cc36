//! The enumerator's inner loop must not allocate: a ten-table bushy clique
//! prices about 64 000 candidates, and before the DP table held `Copy`
//! back-pointer entries every one of them cloned a plan subtree and built
//! two key vectors. What remains is per enumeration (the table itself, the
//! per-table vectors, the per-subset sizes) or per node of the one tree
//! that is returned. Nor may it ask an order-independent estimator once
//! per candidate: exactly once per subset is enough.
//!
//! Its own test binary: the counting allocator is process-wide, and the
//! tests here take turns on `SERIAL` so one's allocations never land in
//! the other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use els_core::{
    CardinalityEstimator, CmpOp, ColumnRef, ColumnStatistics, Els, ElsOptions, ElsResult,
    JoinState, Predicate, QueryStatistics, TableId, TableStatistics,
};
use els_exec::JoinMethod;
use els_optimizer::enumerate::enumerate;
use els_optimizer::{CostParams, TableProfile, TreeShape};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

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

const N: usize = 10;

/// The ten-table clique: a chain on one column, which Step 2's closure
/// turns into a clique of 45 join predicates, every one of them a key of
/// the final joins.
fn clique() -> (Els, Vec<TableProfile>) {
    let n = N;
    let rows = |i: usize| 1000.0 * (1 + i % 4) as f64;
    let stats = QueryStatistics::new(
        (0..n)
            .map(|i| {
                let r = rows(i);
                TableStatistics::new(r, vec![ColumnStatistics::with_domain(r, 0.0, r - 1.0)])
            })
            .collect(),
    );
    let predicates: Vec<Predicate> = (1..n)
        .map(|i| Predicate::col_eq(ColumnRef::new(i - 1, 0), ColumnRef::new(i, 0)).unwrap())
        .chain([Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 100i64)])
        .collect();
    let els = Els::prepare(&predicates, &stats, &ElsOptions::algorithm_els()).unwrap();
    let profiles: Vec<TableProfile> =
        (0..n).map(|i| TableProfile::synthetic(rows(i), 16)).collect();
    (els, profiles)
}

const METHODS: [JoinMethod; 3] = [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash];

#[test]
fn a_ten_table_bushy_clique_enumerates_in_under_a_thousand_allocations() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (els, profiles) = clique();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = enumerate(&els, &profiles, &METHODS, &CostParams::default(), TreeShape::Bushy);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(result.unwrap().join_order.len(), N);
    assert!(allocations < 1000, "{allocations} allocations for one enumeration");
}

/// Forwards everything, `order_independent` included, and counts the
/// estimation calls: `initial_state`, `join` and `join_sets`.
#[derive(Debug)]
struct CountingEstimator<'a> {
    inner: &'a dyn CardinalityEstimator,
    calls: Cell<usize>,
}

impl CountingEstimator<'_> {
    fn count<T>(&self, out: T) -> T {
        self.calls.set(self.calls.get() + 1);
        out
    }
}

impl CardinalityEstimator for CountingEstimator<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn num_tables(&self) -> usize {
        self.inner.num_tables()
    }
    fn predicates(&self) -> &[Predicate] {
        self.inner.predicates()
    }
    fn effective_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.inner.effective_cardinality(table)
    }
    fn original_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.inner.original_cardinality(table)
    }
    fn initial_state(&self, table: TableId) -> ElsResult<JoinState> {
        self.count(self.inner.initial_state(table))
    }
    fn join(&self, state: &JoinState, table: TableId) -> ElsResult<JoinState> {
        self.count(self.inner.join(state, table))
    }
    fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState> {
        self.count(self.inner.join_sets(a, b))
    }
    fn order_independent(&self) -> bool {
        self.inner.order_independent()
    }
}

#[test]
fn an_order_independent_estimator_is_asked_once_per_subset() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (els, profiles) = clique();
    let counting = CountingEstimator { inner: &els, calls: Cell::new(0) };
    assert!(counting.order_independent());
    enumerate(&counting, &profiles, &METHODS, &CostParams::default(), TreeShape::Bushy).unwrap();
    // One call per subset — a scan's state for each table, one
    // incremental step for every larger set — and none for the returned
    // tree, whose annotations carry the DP's own estimates; against one per
    // candidate, about 64 000.
    assert_eq!(counting.calls.get(), (1 << N) - 1, "estimator calls for one enumeration");
}
