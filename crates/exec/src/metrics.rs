//! Execution metrics.
//!
//! The paper reports elapsed seconds; this engine additionally counts
//! logical work (tuples, comparisons) and *simulated page reads* under the
//! storage page model so plan quality can be compared deterministically,
//! independent of machine noise. Nested-loops inner rescans are charged
//! their full page count per outer tuple — the cost structure that makes
//! misplaced giant tables expensive, exactly the failure mode the paper's
//! experiment demonstrates.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Counters accumulated while executing one plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecMetrics {
    /// Tuples read out of base tables.
    pub tuples_scanned: u64,
    /// Logical page reads (base scans + NL inner rescans), regardless of
    /// buffering.
    pub pages_read: u64,
    /// Physical page reads of *base tables*: equals the base-table share of
    /// `pages_read` when unbuffered, less when a buffer pool absorbs
    /// rescans (see `crate::buffer`). Intermediate-result "pages" are
    /// memory-resident and never counted here.
    pub physical_pages_read: u64,
    /// Tuples produced by all operators.
    pub tuples_emitted: u64,
    /// Key comparisons performed by joins and sorts.
    pub comparisons: u64,
    /// Rows passed through sort operators.
    pub rows_sorted: u64,
    /// Hash-table probes.
    pub hash_probes: u64,
    /// Rows examined by vectorized filter kernels (candidate rows per
    /// kernel invocation; equals `comparisons` charged by the kernels).
    pub kernel_rows: u64,
    /// In-place selection-vector compactions: each conjunct after the first
    /// reuses the scan's selection vector instead of materializing rows.
    pub sel_reuses: u64,
    /// Probe-side morsels dispatched to parallel join workers. Charged
    /// identically on the serial path (the morsels it *would* dispatch), so
    /// the number is a property of the plan, not the schedule.
    pub morsels: u64,
    /// Always 0: no join partitions its inputs. Kept because the benchmark
    /// reads it for its `exec.partitions` metric.
    pub partitions: u64,
    /// Tasks the work-stealing scheduler moved between workers. The one
    /// schedule-dependent counter: monitoring only, never compared across
    /// runs.
    pub steals: u64,
    /// `(u32, u32)` row-id pair lists materialized by vectorized join
    /// kernels. Fused `COUNT(*)` roots produce none; the differential tests
    /// assert that.
    pub pair_lists: u64,
    /// Rows emitted by range (band) join operators — the inequality-join
    /// twin of `tuples_emitted`, kept separate so band-join output volume
    /// is observable next to equi-join traffic. Charged identically by the
    /// row and vectorized operators (the differential tests compare it).
    pub range_join_rows: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl ExecMetrics {
    /// Merge another metrics record into this one (durations add).
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.tuples_scanned += other.tuples_scanned;
        self.pages_read += other.pages_read;
        self.physical_pages_read += other.physical_pages_read;
        self.tuples_emitted += other.tuples_emitted;
        self.comparisons += other.comparisons;
        self.rows_sorted += other.rows_sorted;
        self.hash_probes += other.hash_probes;
        self.kernel_rows += other.kernel_rows;
        self.sel_reuses += other.sel_reuses;
        self.morsels += other.morsels;
        self.partitions += other.partitions;
        self.steals += other.steals;
        self.pair_lists += other.pair_lists;
        self.range_join_rows += other.range_join_rows;
        self.elapsed += other.elapsed;
    }
}

impl fmt::Display for ExecMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} pages={} phys={} emitted={} cmps={} sorted={} probes={} kernel={} \
             selreuse={} morsels={} parts={} steals={} pairlists={} rangerows={} elapsed={:?}",
            self.tuples_scanned,
            self.pages_read,
            self.physical_pages_read,
            self.tuples_emitted,
            self.comparisons,
            self.rows_sorted,
            self.hash_probes,
            self.kernel_rows,
            self.sel_reuses,
            self.morsels,
            self.partitions,
            self.steals,
            self.pair_lists,
            self.range_join_rows,
            self.elapsed
        )
    }
}

/// How many stripes a [`StripedCounter`] and the plan cache's text slots
/// spread over: more than the threads that serve queries at once on the
/// hardware this runs on, so two busy threads rarely share one.
pub const STRIPES: usize = 8;

/// This thread's stripe, in `0..STRIPES`. Threads are numbered
/// round-robin on first use, so the first [`STRIPES`] threads of a process
/// each have one of their own.
pub fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.try_with(|s| *s).unwrap_or(0)
}

/// One counter on a cache line of its own: 128 bytes, because x86 fetches
/// lines in adjacent pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Line(AtomicU64);

/// A count that many threads bump at once: each thread adds to its own
/// [`thread_stripe`]'s line and a read sums the lines, so bumps from two
/// threads never write the same cache line. The sum is exact.
#[derive(Debug, Default)]
pub struct StripedCounter {
    lines: [Line; STRIPES],
}

impl StripedCounter {
    /// Add `n` on this thread's stripe.
    pub fn add(&self, n: u64) {
        if let Some(line) = self.lines.get(thread_stripe()) {
            line.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The total over all stripes.
    pub(crate) fn get(&self) -> u64 {
        self.lines.iter().map(|line| line.0.load(Ordering::Relaxed)).sum()
    }
}

/// Thread-safe counters for the cache-fronted engine: plan-cache traffic
/// plus how often the optimizer's join enumeration actually ran. The
/// per-query [`ExecMetrics`] above stays a plain value; these are the
/// *shared* counters many serving threads bump concurrently, so they are
/// atomics behind `&self`. Hits are striped: a hit touches nothing else
/// another thread writes, and neither should its count. The other three
/// come from paths that take the cache's lock anyway.
///
/// The cache counters are per-cache instances (each
/// `els-optimizer` plan cache owns one); the enumeration counter is
/// process-wide (see [`record_enumeration`]) because enumeration happens
/// far below any engine object.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Plan-cache lookups answered from the cache.
    pub hits: StripedCounter,
    /// Plan-cache lookups that had to optimize.
    pub misses: AtomicU64,
    /// Entries evicted by the capacity bound (LRU).
    pub evictions: AtomicU64,
    /// Entries dropped because their catalog epoch went stale.
    pub invalidations: AtomicU64,
}

impl EngineCounters {
    /// A zeroed counter set.
    pub fn new() -> EngineCounters {
        EngineCounters::default()
    }

    /// A consistent-enough point-in-time copy (each counter is read
    /// atomically; the set is not a single snapshot, which is fine for
    /// monitoring).
    pub fn snapshot(&self) -> EngineCountersSnapshot {
        EngineCountersSnapshot {
            hits: self.hits.get(),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`EngineCounters`] for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCountersSnapshot {
    /// Plan-cache hits.
    pub hits: u64,
    /// Plan-cache misses.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Stale-epoch invalidations.
    pub invalidations: u64,
}

impl EngineCountersSnapshot {
    /// Hit fraction of all lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for EngineCountersSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} invalidations={} hit_rate={:.1}%",
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
            self.hit_rate() * 100.0
        )
    }
}

/// Process-wide count of join-enumeration runs. The benchmark acceptance
/// check "cache hits skip `enumerate()`" needs an observable signal from
/// inside the optimizer; `els-optimizer` depends on this crate, so the
/// counter lives here next to the other metrics.
static ENUMERATIONS: AtomicU64 = AtomicU64::new(0);

/// Record one join-enumeration run (called by `els-optimizer`).
pub fn record_enumeration() {
    ENUMERATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Total join-enumeration runs in this process so far. Compare before/after
/// deltas rather than absolute values: any thread may optimize concurrently.
pub fn enumerations() -> u64 {
    ENUMERATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_everything() {
        let mut a = ExecMetrics {
            tuples_scanned: 1,
            pages_read: 2,
            physical_pages_read: 2,
            tuples_emitted: 3,
            comparisons: 4,
            rows_sorted: 5,
            hash_probes: 6,
            kernel_rows: 7,
            sel_reuses: 8,
            morsels: 9,
            partitions: 10,
            steals: 11,
            pair_lists: 12,
            range_join_rows: 13,
            elapsed: Duration::from_millis(10),
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.tuples_scanned, 2);
        assert_eq!(a.pages_read, 4);
        assert_eq!(a.comparisons, 8);
        assert_eq!(a.kernel_rows, 14);
        assert_eq!(a.sel_reuses, 16);
        assert_eq!(a.morsels, 18);
        assert_eq!(a.partitions, 20);
        assert_eq!(a.steals, 22);
        assert_eq!(a.pair_lists, 24);
        assert_eq!(a.range_join_rows, 26);
        assert_eq!(a.elapsed, Duration::from_millis(20));
    }

    #[test]
    fn display_is_one_line() {
        let m = ExecMetrics::default();
        let s = m.to_string();
        assert!(s.contains("pages=0"));
        assert!(!s.contains('\n'));
    }

    #[test]
    fn counters_snapshot_and_hit_rate() {
        let c = EngineCounters::new();
        c.hits.add(3);
        c.misses.fetch_add(1, Ordering::Relaxed);
        c.evictions.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.invalidations, 0);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(EngineCountersSnapshot::default().hit_rate(), 0.0);
        assert!(s.to_string().contains("hit_rate=75.0%"));
    }

    #[test]
    fn striped_counts_sum_exactly_over_threads() {
        let c = StripedCounter::default();
        std::thread::scope(|scope| {
            for t in 0..2 * STRIPES as u64 {
                let c = &c;
                scope.spawn(move || (0..1000).for_each(|_| c.add(t)));
            }
        });
        assert_eq!(c.get(), 1000 * (0..2 * STRIPES as u64).sum::<u64>());
        assert!(thread_stripe() < STRIPES);
        assert_eq!(std::mem::align_of::<Line>(), 128);
    }

    #[test]
    fn enumeration_counter_is_monotonic() {
        let before = enumerations();
        record_enumeration();
        record_enumeration();
        assert!(enumerations() >= before + 2);
    }
}
