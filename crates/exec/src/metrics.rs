//! Execution metrics.
//!
//! The paper reports elapsed seconds; this engine additionally counts
//! logical work (tuples, comparisons) and *simulated page reads* under the
//! storage page model so plan quality can be compared deterministically,
//! independent of machine noise. Nested-loops inner rescans are charged
//! their full page count per outer tuple — the cost structure that makes
//! misplaced giant tables expensive, exactly the failure mode the paper's
//! experiment demonstrates.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use els_core::sync::lock_recovering;

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
    /// rescans (see [`crate::buffer`]). Intermediate-result "pages" are
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
    pub fn get(&self) -> u64 {
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

/// Escape a string for embedding in a JSON string literal (the inner
/// text only — the caller supplies the surrounding quotes). Handles the
/// full JSON escape set: quote, backslash, and every control character
/// below 0x20 (named escapes for the common ones, `\u00XX` otherwise).
/// Every hand-rolled JSON emitter in the workspace must route map keys
/// and string values through this — an unescaped `"` or `\` in a
/// rule/counter key silently produces invalid JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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

/// Fixed-size log₂ histogram of q-errors.
///
/// q-errors live on a multiplicative scale — a factor-2 overestimate and a
/// factor-2 underestimate are equally bad — so bucket `i` covers the range
/// `[2^i, 2^(i+1))`. Bucket 0 therefore holds the "essentially exact"
/// estimates (q-error in `[1, 2)`); the last bucket absorbs everything
/// beyond `2^31`, including the `INFINITY` assigned to NaN estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct QErrorHistogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    max: f64,
}

impl Default for QErrorHistogram {
    fn default() -> Self {
        QErrorHistogram { buckets: [0; Self::BUCKETS], count: 0, max: 1.0 }
    }
}

impl QErrorHistogram {
    const BUCKETS: usize = 32;

    /// An empty histogram.
    pub fn new() -> QErrorHistogram {
        QErrorHistogram::default()
    }

    /// Record one q-error. Values below 1 (impossible for a real q-error)
    /// clamp to 1; NaN and infinity land in the overflow bucket.
    pub fn record(&mut self, q: f64) {
        let q = if q.is_nan() { f64::INFINITY } else { q.max(1.0) };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q is finite and >= 1 here, so log2 is in [0, 1024): the floor fits usize and the min() clamps the bucket"
        )]
        let bucket = if q.is_finite() {
            (q.log2().floor() as usize).min(Self::BUCKETS - 1)
        } else {
            Self::BUCKETS - 1
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        if q > self.max {
            self.max = q;
        }
    }

    /// Number of recorded q-errors.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded q-error (1.0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate `p`-quantile (`p` in `[0, 1]`, clamped; NaN reads as 0).
    /// Nearest-rank over the buckets; the returned value is the geometric
    /// midpoint `2^(i + 0.5)` of the selected bucket, capped by the true
    /// recorded maximum so a histogram of exact estimates reports 1.0, not
    /// √2. Returns 1.0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "p is clamped to [0, 1] above, so the product is bounded by count and the cast cannot saturate"
        )]
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = 2f64.powf(i as f64 + 0.5);
                return mid.min(self.max).max(1.0);
            }
        }
        self.max
    }

    /// Median q-error.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th-percentile q-error.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &QErrorHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// Process-wide aggregation point for the estimation-observability layer:
/// per-selectivity-rule q-error histograms fed by `explain_analyze`,
/// mirrored plan-cache counters, and cumulative kernel counters. One
/// instance per process (see [`MetricsRegistry::global`]), following the
/// same placement logic as [`record_enumeration`]: this crate is the lowest
/// layer that both the optimizer (cache counters) and the engine (q-errors)
/// can reach.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    qerr: Mutex<BTreeMap<String, QErrorHistogram>>,
    cache: EngineCounters,
    queries: AtomicU64,
    kernel_rows: AtomicU64,
    morsels: AtomicU64,
    partitions: AtomicU64,
    steals: AtomicU64,
    hash_probes: AtomicU64,
    tuples_scanned: AtomicU64,
    range_join_rows: AtomicU64,
    feedback_learned: AtomicU64,
    feedback_applied: AtomicU64,
    feedback_epoch_bumps: AtomicU64,
    server: ServerCounters,
}

/// Shared counters for the TCP front door (`els-server`): connection and
/// query traffic plus the two overload outcomes — hard rejections at the
/// admission queue and queries shed because only cached plans are served
/// under load. Atomics behind `&self`, like [`EngineCounters`].
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted and handed to a worker.
    pub connections: AtomicU64,
    /// Queries answered successfully over the wire.
    pub queries_ok: AtomicU64,
    /// Queries answered with a typed error (SQL/exec/protocol).
    pub queries_err: AtomicU64,
    /// Connections rejected at admission because the queue was full.
    pub rejected: AtomicU64,
    /// Queries refused in cached-plan-only (degraded) mode.
    pub shed: AtomicU64,
}

impl ServerCounters {
    /// Point-in-time copy (per-counter atomic reads, like
    /// [`EngineCounters::snapshot`]).
    pub fn snapshot(&self) -> ServerCountersSnapshot {
        ServerCountersSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_err: self.queries_err.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`ServerCounters`] for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCountersSnapshot {
    /// Connections accepted and handed to a worker.
    pub connections: u64,
    /// Queries answered successfully.
    pub queries_ok: u64,
    /// Queries answered with a typed error.
    pub queries_err: u64,
    /// Connections rejected at admission (queue full).
    pub rejected: u64,
    /// Queries refused in cached-plan-only mode.
    pub shed: u64,
}

impl MetricsRegistry {
    /// A fresh, empty registry (for tests; production code uses
    /// [`MetricsRegistry::global`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::default)
    }

    /// Record one per-operator (or per-query) q-error under a selectivity
    /// rule label (e.g. `"LS"`, `"M"`).
    pub fn record_q_error(&self, rule: &str, q: f64) {
        let mut map = lock_recovering(&self.qerr);
        map.entry(rule.to_owned()).or_default().record(q);
    }

    /// Fold one finished query's execution counters into the totals.
    pub fn record_query(&self, metrics: &ExecMetrics) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.kernel_rows.fetch_add(metrics.kernel_rows, Ordering::Relaxed);
        self.morsels.fetch_add(metrics.morsels, Ordering::Relaxed);
        self.partitions.fetch_add(metrics.partitions, Ordering::Relaxed);
        self.steals.fetch_add(metrics.steals, Ordering::Relaxed);
        self.hash_probes.fetch_add(metrics.hash_probes, Ordering::Relaxed);
        self.tuples_scanned.fetch_add(metrics.tuples_scanned, Ordering::Relaxed);
        self.range_join_rows.fetch_add(metrics.range_join_rows, Ordering::Relaxed);
    }

    /// The registry's plan-cache counters. Plan caches mirror their bumps
    /// here so the registry sees process-wide cache traffic even though each
    /// cache instance also keeps its own counters.
    pub fn cache_counters(&self) -> &EngineCounters {
        &self.cache
    }

    /// Fold one query's runtime-feedback activity into the totals:
    /// `(estimated, actual)` pairs harvested, published corrections the
    /// optimizer consumed, and correction-driven plan invalidations.
    pub fn record_feedback(&self, learned: u64, applied: u64, epoch_bumps: u64) {
        self.feedback_learned.fetch_add(learned, Ordering::Relaxed);
        self.feedback_applied.fetch_add(applied, Ordering::Relaxed);
        self.feedback_epoch_bumps.fetch_add(epoch_bumps, Ordering::Relaxed);
    }

    /// Cumulative feedback totals `(learned, applied, epoch_bumps)`.
    pub fn feedback_totals(&self) -> (u64, u64, u64) {
        (
            self.feedback_learned.load(Ordering::Relaxed),
            self.feedback_applied.load(Ordering::Relaxed),
            self.feedback_epoch_bumps.load(Ordering::Relaxed),
        )
    }

    /// The front door's connection/query/shed/reject counters. The server
    /// bumps these directly; monitoring reads them here or through the
    /// `"server"` section of [`MetricsRegistry::to_json`].
    pub fn server_counters(&self) -> &ServerCounters {
        &self.server
    }

    /// Number of queries folded in via [`MetricsRegistry::record_query`].
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Copy of the q-error histogram recorded under `rule`, if any.
    pub fn q_error_histogram(&self, rule: &str) -> Option<QErrorHistogram> {
        lock_recovering(&self.qerr).get(rule).cloned()
    }

    /// JSON export of everything in the registry. Hand-rolled (no serde in
    /// the dependency tree) but stable: keys are sorted, floats rendered
    /// with fixed precision, infinities as the JSON-safe string `"inf"`.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "\"inf\"".to_owned()
            }
        }
        let cache = self.cache.snapshot();
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"queries\": {},", self.queries());
        let _ = writeln!(
            json,
            "  \"plan_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"invalidations\": {} }},",
            cache.hits, cache.misses, cache.evictions, cache.invalidations
        );
        let _ = writeln!(
            json,
            "  \"kernels\": {{ \"kernel_rows\": {}, \"morsels\": {}, \"partitions\": {}, \
             \"steals\": {}, \"hash_probes\": {}, \"tuples_scanned\": {}, \
             \"range_join_rows\": {} }},",
            self.kernel_rows.load(Ordering::Relaxed),
            self.morsels.load(Ordering::Relaxed),
            self.partitions.load(Ordering::Relaxed),
            self.steals.load(Ordering::Relaxed),
            self.hash_probes.load(Ordering::Relaxed),
            self.tuples_scanned.load(Ordering::Relaxed),
            self.range_join_rows.load(Ordering::Relaxed),
        );
        let (learned, applied, epoch_bumps) = self.feedback_totals();
        let _ = writeln!(
            json,
            "  \"feedback\": {{ \"learned\": {learned}, \"applied\": {applied}, \
             \"epoch_bumps\": {epoch_bumps} }},",
        );
        let srv = self.server.snapshot();
        let _ = writeln!(
            json,
            "  \"server\": {{ \"connections\": {}, \"queries_ok\": {}, \"queries_err\": {}, \
             \"rejected\": {}, \"shed\": {} }},",
            srv.connections, srv.queries_ok, srv.queries_err, srv.rejected, srv.shed
        );
        json.push_str("  \"q_error\": {");
        let map = lock_recovering(&self.qerr);
        for (i, (rule, h)) in map.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n    \"{}\": {{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"max\": {} }}",
                if i == 0 { "" } else { "," },
                json_escape(rule),
                h.count(),
                num(h.median()),
                num(h.p95()),
                num(h.max()),
            );
        }
        if !map.is_empty() {
            json.push_str("\n  ");
        }
        json.push_str("}\n}\n");
        json
    }
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

    #[test]
    fn histogram_of_exact_estimates_reports_one() {
        let mut h = QErrorHistogram::new();
        for _ in 0..10 {
            h.record(1.0);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.median(), 1.0);
        assert_eq!(h.p95(), 1.0);
        assert_eq!(h.max(), 1.0);
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let mut h = QErrorHistogram::new();
        // 90 near-exact estimates, 10 bad ones around 1000x.
        for _ in 0..90 {
            h.record(1.2);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        assert!(h.median() < 2.0, "median {}", h.median());
        assert!(h.p95() > 500.0 && h.p95() <= 1000.0, "p95 {}", h.p95());
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn histogram_handles_degenerate_values() {
        let mut h = QErrorHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(0.5); // impossible q-error, clamps to 1
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), f64::INFINITY);
        // Quantile with garbage p must not panic.
        assert!(h.quantile(f64::NAN) >= 1.0);
        assert!(h.quantile(-3.0) >= 1.0);
        assert!(h.quantile(7.0) >= 1.0);
        // Empty histogram is "perfect".
        assert_eq!(QErrorHistogram::new().median(), 1.0);
    }

    #[test]
    fn histogram_merge_combines_counts_and_max() {
        let mut a = QErrorHistogram::new();
        a.record(2.0);
        let mut b = QErrorHistogram::new();
        b.record(64.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 64.0);
    }

    #[test]
    fn registry_aggregates_and_exports_json() {
        let r = MetricsRegistry::new();
        r.record_q_error("LS", 1.0);
        r.record_q_error("LS", 4.0);
        r.record_q_error("M", 100.0);
        r.record_query(&ExecMetrics {
            kernel_rows: 5,
            morsels: 2,
            partitions: 4,
            steals: 3,
            range_join_rows: 6,
            ..ExecMetrics::default()
        });
        r.cache_counters().hits.add(1);

        assert_eq!(r.queries(), 1);
        let ls = r.q_error_histogram("LS").unwrap();
        assert_eq!(ls.count(), 2);
        assert!(r.q_error_histogram("SS").is_none());

        r.record_feedback(3, 2, 1);
        assert_eq!(r.feedback_totals(), (3, 2, 1));

        let json = r.to_json();
        assert!(json.contains("\"queries\": 1"), "{json}");
        assert!(json.contains("\"kernel_rows\": 5"), "{json}");
        assert!(json.contains("\"partitions\": 4"), "{json}");
        assert!(json.contains("\"steals\": 3"), "{json}");
        assert!(json.contains("\"range_join_rows\": 6"), "{json}");
        assert!(json.contains("\"feedback\": { \"learned\": 3, \"applied\": 2"), "{json}");
        assert!(json.contains("\"hits\": 1"), "{json}");
        assert!(json.contains("\"LS\""), "{json}");
        assert!(json.contains("\"M\""), "{json}");
        // Rules are emitted in sorted order (BTreeMap) for stable output.
        assert!(json.find("\"LS\"").unwrap() < json.find("\"M\"").unwrap());
    }

    #[test]
    fn json_escape_covers_the_escape_set() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\tc\rd"), r"a\nb\tc\rd");
        assert_eq!(json_escape("\u{08}\u{0c}\u{01}"), "\\b\\f\\u0001");
        // Non-ASCII passes through untouched (JSON strings are UTF-8).
        assert_eq!(json_escape("héllo⋈"), "héllo⋈");
    }

    #[test]
    fn registry_json_escapes_hostile_rule_keys() {
        let r = MetricsRegistry::new();
        // A rule key with a quote, a backslash, and a newline must not
        // produce invalid JSON.
        r.record_q_error("evil\"rule\\name\nx", 2.0);
        let json = r.to_json();
        assert!(json.contains(r#""evil\"rule\\name\nx""#), "{json}");
        // The raw quote/newline must not appear unescaped inside the key:
        // every line with the key must carry the escaped forms only.
        for line in json.lines() {
            if line.contains("evil") {
                assert!(!line.contains("evil\"rule"), "unescaped quote: {line}");
            }
        }
    }

    #[test]
    fn registry_server_counters_round_trip_into_json() {
        let r = MetricsRegistry::new();
        let s = r.server_counters();
        s.connections.fetch_add(3, Ordering::Relaxed);
        s.queries_ok.fetch_add(10, Ordering::Relaxed);
        s.queries_err.fetch_add(2, Ordering::Relaxed);
        s.rejected.fetch_add(4, Ordering::Relaxed);
        s.shed.fetch_add(5, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.connections, 3);
        assert_eq!(snap.queries_ok, 10);
        let json = r.to_json();
        assert!(
            json.contains(
                "\"server\": { \"connections\": 3, \"queries_ok\": 10, \"queries_err\": 2, \
                 \"rejected\": 4, \"shed\": 5 }"
            ),
            "{json}"
        );
    }

    #[test]
    fn registry_json_renders_infinite_max_safely() {
        let r = MetricsRegistry::new();
        r.record_q_error("LS", f64::NAN);
        let json = r.to_json();
        assert!(json.contains("\"inf\""), "{json}");
        assert!(!json.contains("NaN"), "{json}");
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = MetricsRegistry::global() as *const _;
        let b = MetricsRegistry::global() as *const _;
        assert_eq!(a, b);
    }
}
