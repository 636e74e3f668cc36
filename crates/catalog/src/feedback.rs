//! Feedback-driven selectivity correction (closing the estimation loop).
//!
//! Static catalog statistics drift: a skewed join or a correlated local
//! predicate keeps producing the *same* bad ELS estimate on every replay.
//! This module learns per-key correction factors from executed queries —
//! each operator's `(estimated, actual)` pair folds into an exponentially
//! decayed geometric mean of the observed error — and the estimator
//! multiplies the matched correction into its selectivity *before*
//! clamping, leaving the paper's Section 4 incremental machinery untouched.
//!
//! Keys identify *what was estimated*, not *where in the plan*:
//!
//! * scans — `(table name, local-predicate fingerprint)`, where the
//!   fingerprint is a sorted, within-table rendering of the pushed-down
//!   predicates, so the key is independent of `FROM`-list position;
//! * joins — the canonical column pair of the join's equivalence class
//!   (all members mapped to `(table name, column index)`, sorted, first
//!   two taken), so every predicate implied by the same class shares one
//!   correction regardless of join order or `FROM` order;
//! * range joins — the oriented column pair plus the comparison operator
//!   (flipped alongside the endpoints when they sort the other way), so
//!   `A.x < B.y` and `B.y > A.x` share one correction while `A.x < B.y`
//!   and `A.x >= B.y` stay separate.
//!
//! Each entry keeps two logs: `log_live`, the decayed estimate of the true
//! correction, and `log_pub`, the value `FeedbackMode::Apply` actually
//! reads. Publication is **edge-triggered**: only when the live value
//! drifts more than a 2.0× q-error away from the published one does the
//! store publish and ask the engine to bump the shared-catalog epoch
//! (invalidating cached plans). A steady
//! workload therefore converges — corrections stop moving, no epoch churn
//! — and a pathological one is bounded by the per-key bump cap.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use els_core::correction::CorrectionSource;
use els_core::predicate::CmpOp;
use els_core::sync::lock_recovering;
use els_core::ColumnRef;

/// How the engine uses the feedback store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FeedbackMode {
    /// No harvesting, no corrections — the PR-3 behaviour.
    #[default]
    Off,
    /// Harvest `(estimated, actual)` pairs into the store but never
    /// consult it: estimates are bit-identical to [`FeedbackMode::Off`].
    Observe,
    /// Harvest *and* multiply published corrections into selectivities.
    Apply,
}

impl FeedbackMode {
    /// True when executions should harvest observations.
    pub fn observes(self) -> bool {
        self != FeedbackMode::Off
    }

    /// True when the estimator should consult the store.
    pub fn applies(self) -> bool {
        self == FeedbackMode::Apply
    }
}

/// What a correction factor corrects.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeedbackKey {
    /// A base-table scan under a specific set of local predicates.
    Scan {
        /// Base-table name (not the binding alias).
        table: String,
        /// Canonical within-table predicate fingerprint (sorted, rendered
        /// with within-table column indices); never empty — an unfiltered
        /// scan's estimate is the exact row count and needs no correction.
        fingerprint: String,
    },
    /// A join equivalence class, identified by its two smallest members
    /// after mapping to `(table name, column index)`.
    Join {
        /// Lexicographically smaller endpoint.
        a: (String, usize),
        /// Lexicographically larger endpoint (equal for self-joins).
        b: (String, usize),
    },
    /// An inequality (range) join predicate `a op b`. Unlike equality
    /// joins there is no equivalence class — the key is the oriented
    /// column pair plus the comparison operator, canonicalized so that
    /// `A.x < B.y` and `B.y > A.x` name the same key.
    Range {
        /// Lexicographically smaller endpoint.
        a: (String, usize),
        /// The comparison, rendered (`<`, `<=`, `>`, `>=`) as applied to
        /// the canonical endpoint order.
        op: String,
        /// Lexicographically larger endpoint.
        b: (String, usize),
    },
}

impl FeedbackKey {
    /// A scan key.
    pub fn scan(table: impl Into<String>, fingerprint: impl Into<String>) -> FeedbackKey {
        FeedbackKey::Scan { table: table.into(), fingerprint: fingerprint.into() }
    }

    /// A join key; the endpoint pair is canonicalized (sorted) so both
    /// argument orders name the same key.
    pub(crate) fn join(a: (String, usize), b: (String, usize)) -> FeedbackKey {
        if a <= b {
            FeedbackKey::Join { a, b }
        } else {
            FeedbackKey::Join { a: b, b: a }
        }
    }

    /// A range-join key for `a op b`; canonicalized by sorting the
    /// endpoints and flipping `op` when they swap (and, for equal
    /// endpoints — two aliases of one table joined on the same column —
    /// normalizing to the `<` family), so both renderings of one
    /// inequality name the same key.
    pub(crate) fn range(a: (String, usize), op: CmpOp, b: (String, usize)) -> FeedbackKey {
        if a < b || (a == b && !matches!(op, CmpOp::Gt | CmpOp::Ge)) {
            FeedbackKey::Range { a, op: op.to_string(), b }
        } else {
            FeedbackKey::Range { a: b, op: op.flip().to_string(), b: a }
        }
    }
}

/// Per-key learning state (see module docs for the two-log scheme).
#[derive(Debug, Clone, Copy)]
struct CorrectionEntry {
    /// Exponentially decayed log-correction (the live estimate).
    log_live: f64,
    /// Published log-correction that [`FeedbackStore::correction`] serves;
    /// `0.0` until first publication (serve nothing).
    log_pub: f64,
    /// Observations folded into `log_live`.
    observations: u64,
    /// Publications so far (each one bumps the catalog epoch).
    bumps: u64,
}

/// Point-in-time counters for monitoring and the bench JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackCounters {
    /// Observations folded in via [`FeedbackStore::observe`].
    pub learned: u64,
    /// Correction lookups that returned a published factor.
    pub applied: u64,
    /// Publications (= epoch-bump requests granted).
    pub epoch_bumps: u64,
    /// Keys currently tracked.
    pub keys: u64,
    /// Keys with a published (non-identity) correction.
    pub published: u64,
}

/// Thread-safe store of per-key correction factors.
///
/// Shared by every snapshot of one engine's catalog (it sits behind an
/// `Arc` on [`crate::Catalog`], so copy-on-write snapshot publication
/// keeps pointing at the same live store): observations harvested against
/// an old snapshot are never lost.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    entries: Mutex<HashMap<FeedbackKey, CorrectionEntry>>,
    learned: AtomicU64,
    applied: AtomicU64,
    epoch_bumps: AtomicU64,
}

impl FeedbackStore {
    /// EWMA weight of the newest observation (the first observation of a
    /// key lands with full weight).
    const DECAY: f64 = 0.4;
    /// Publication threshold, as a q-error factor.
    const DRIFT_THRESHOLD: f64 = 2.0;
    /// Cap on publications (epoch bumps) per key: bounds epoch churn.
    const MAX_BUMPS_PER_KEY: u64 = 8;
    /// Corrections are clamped to `[1/BOUND, BOUND]`.
    const CORRECTION_BOUND: f64 = 1.0e6;

    /// Fold one `(estimated, actual)` observation into `key`'s correction.
    ///
    /// `corrected` says whether `estimated` already had this key's
    /// published correction multiplied in (an `Apply`-mode estimate): the
    /// store then reconstructs the *raw* residual by composing the
    /// published log back in, so learning targets the uncorrected
    /// estimator error and re-applying never double-counts.
    ///
    /// Returns `true` when the observation moved the live correction far
    /// enough from the published one to publish (edge-trigger) — the
    /// caller should then bump the shared-catalog epoch so cached plans
    /// re-optimize against the new correction.
    pub fn observe(&self, key: FeedbackKey, estimated: f64, actual: f64, corrected: bool) -> bool {
        if !estimated.is_finite() || !actual.is_finite() || estimated < 0.0 || actual < 0.0 {
            return false;
        }
        self.observe_ratio(key, actual.max(1.0) / estimated.max(1.0), corrected)
    }

    /// [`FeedbackStore::observe`] with the residual ratio `actual/estimated`
    /// already isolated by the caller — the join-harvest path, which strips
    /// child errors out of an observed join cardinality and splits the
    /// remainder across linking equivalence classes, producing a fractional
    /// factor no tuple-count floor should touch. Rejects non-positive and
    /// non-finite ratios.
    pub fn observe_ratio(&self, key: FeedbackKey, ratio: f64, corrected: bool) -> bool {
        if !ratio.is_finite() || ratio <= 0.0 {
            return false;
        }
        let residual = ratio.ln();
        let bound = FeedbackStore::CORRECTION_BOUND.ln();
        self.learned.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock_recovering(&self.entries);
        let entry = entries.entry(key).or_insert(CorrectionEntry {
            log_live: 0.0,
            log_pub: 0.0,
            observations: 0,
            bumps: 0,
        });
        let target = (if corrected { entry.log_pub } else { 0.0 } + residual).clamp(-bound, bound);
        entry.log_live = if entry.observations == 0 {
            target
        } else {
            let decay = FeedbackStore::DECAY;
            (decay * target + (1.0 - decay) * entry.log_live).clamp(-bound, bound)
        };
        entry.observations += 1;
        let drift_log = FeedbackStore::DRIFT_THRESHOLD.ln();
        let drifted = (entry.log_live - entry.log_pub).abs() > drift_log;
        if drifted && entry.bumps < FeedbackStore::MAX_BUMPS_PER_KEY {
            entry.log_pub = entry.log_live;
            entry.bumps += 1;
            drop(entries);
            self.epoch_bumps.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// The published correction factor for `key`, if any. Returns `None`
    /// when the key is unknown **or** nothing has been published yet — a
    /// store with zero published corrections therefore leaves every
    /// estimate bit-identical to [`FeedbackMode::Off`].
    pub(crate) fn correction(&self, key: &FeedbackKey) -> Option<f64> {
        let entries = lock_recovering(&self.entries);
        let log_pub = entries.get(key).map(|e| e.log_pub).filter(|&l| l != 0.0)?;
        drop(entries);
        self.applied.fetch_add(1, Ordering::Relaxed);
        Some(log_pub.exp())
    }

    /// Point-in-time counters.
    pub fn counters(&self) -> FeedbackCounters {
        let entries = lock_recovering(&self.entries);
        let keys = entries.len() as u64;
        let published = entries.values().filter(|e| e.log_pub != 0.0).count() as u64;
        drop(entries);
        FeedbackCounters {
            learned: self.learned.load(Ordering::Relaxed),
            applied: self.applied.load(Ordering::Relaxed),
            epoch_bumps: self.epoch_bumps.load(Ordering::Relaxed),
            keys,
            published,
        }
    }
}

/// [`CorrectionSource`] adapter binding one query's `FROM` list to the
/// shared store: `els-core` asks by positional table index and class
/// members; this translates to name-based [`FeedbackKey`]s so corrections
/// survive any `FROM` order or alias shuffle. Also the key factory the
/// engine's harvest path uses, so learning and application can never
/// disagree on canonicalization.
#[derive(Debug)]
pub struct QueryCorrections {
    store: Arc<FeedbackStore>,
    /// Base-table name per `FROM` position (names, not aliases: two
    /// aliases of one table share corrections).
    tables: Vec<String>,
    applied: AtomicU64,
}

impl QueryCorrections {
    /// Bind `store` to a query's positional table-name list.
    pub(crate) fn new(store: Arc<FeedbackStore>, tables: Vec<String>) -> QueryCorrections {
        QueryCorrections { store, tables, applied: AtomicU64::new(0) }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<FeedbackStore> {
        &self.store
    }

    /// How many lookups through this adapter returned a correction.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// The scan key for `FROM` position `table` under `fingerprint`
    /// (`None` for an out-of-range position or empty fingerprint).
    pub fn scan_key(&self, table: usize, fingerprint: &str) -> Option<FeedbackKey> {
        if fingerprint.is_empty() {
            return None;
        }
        Some(FeedbackKey::scan(self.tables.get(table)?.clone(), fingerprint))
    }

    /// The canonical join key for an equivalence class: every member maps
    /// to `(table name, column index)`, the pairs are sorted, and the two
    /// smallest identify the class — independent of `FROM` order and of
    /// which implied predicate asks. `None` when fewer than two members
    /// resolve.
    pub fn join_key(&self, members: &[ColumnRef]) -> Option<FeedbackKey> {
        let mut endpoints: Vec<(String, usize)> = members
            .iter()
            .filter_map(|m| Some((self.tables.get(m.table)?.clone(), m.column)))
            .collect();
        if endpoints.len() < 2 {
            return None;
        }
        endpoints.sort();
        let b = endpoints.swap_remove(1);
        let a = endpoints.swap_remove(0);
        Some(FeedbackKey::join(a, b))
    }

    /// The canonical key for the inequality join predicate `left op right`
    /// (both sides mapped to `(table name, column index)`; the constructor
    /// re-orients so `FROM` order cannot split one inequality across two
    /// keys). `None` when either position is out of range.
    pub fn range_key(&self, left: ColumnRef, op: CmpOp, right: ColumnRef) -> Option<FeedbackKey> {
        let a = (self.tables.get(left.table)?.clone(), left.column);
        let b = (self.tables.get(right.table)?.clone(), right.column);
        Some(FeedbackKey::range(a, op, b))
    }
}

impl CorrectionSource for QueryCorrections {
    fn scan_correction(&self, table: usize, fingerprint: &str) -> Option<f64> {
        let corr = self.store.correction(&self.scan_key(table, fingerprint)?)?;
        self.applied.fetch_add(1, Ordering::Relaxed);
        Some(corr)
    }

    fn join_correction(&self, members: &[ColumnRef]) -> Option<f64> {
        let corr = self.store.correction(&self.join_key(members)?)?;
        self.applied.fetch_add(1, Ordering::Relaxed);
        Some(corr)
    }

    fn range_correction(&self, left: ColumnRef, op: CmpOp, right: ColumnRef) -> Option<f64> {
        let corr = self.store.correction(&self.range_key(left, op, right)?)?;
        self.applied.fetch_add(1, Ordering::Relaxed);
        Some(corr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k() -> FeedbackKey {
        FeedbackKey::scan("t", "c0<100")
    }

    #[test]
    fn join_keys_canonicalize_endpoint_order() {
        let ab = FeedbackKey::join(("a".into(), 1), ("b".into(), 0));
        let ba = FeedbackKey::join(("b".into(), 0), ("a".into(), 1));
        assert_eq!(ab, ba);
        // Self-join endpoints may coincide.
        let selfjoin = FeedbackKey::join(("t".into(), 0), ("t".into(), 0));
        assert!(matches!(selfjoin, FeedbackKey::Join { a, b } if a == b));
    }

    #[test]
    fn range_keys_canonicalize_by_flipping_the_operator() {
        // `A.x < B.y` and `B.y > A.x` are the same inequality.
        let lt = FeedbackKey::range(("a".into(), 0), CmpOp::Lt, ("b".into(), 1));
        let gt = FeedbackKey::range(("b".into(), 1), CmpOp::Gt, ("a".into(), 0));
        assert_eq!(lt, gt);
        assert!(matches!(&lt, FeedbackKey::Range { a, op, b }
            if a == &("a".to_owned(), 0) && op == "<" && b == &("b".to_owned(), 1)));
        // Different operators on the same pair stay distinct keys.
        let le = FeedbackKey::range(("a".into(), 0), CmpOp::Le, ("b".into(), 1));
        assert_ne!(lt, le);
        // Equal endpoints (self-join aliases) normalize to the `<` family.
        let self_lt = FeedbackKey::range(("t".into(), 0), CmpOp::Lt, ("t".into(), 0));
        let self_gt = FeedbackKey::range(("t".into(), 0), CmpOp::Gt, ("t".into(), 0));
        assert_eq!(self_lt, self_gt);
    }

    #[test]
    fn range_corrections_survive_from_order_shuffles() {
        let store = Arc::new(FeedbackStore::default());
        // Learn under FROM [a, b] with `a.c0 < b.c1`.
        let learn = QueryCorrections::new(Arc::clone(&store), vec!["a".into(), "b".into()]);
        let key = learn.range_key(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 1)).unwrap();
        store.observe(key, 100.0, 1000.0, false);
        // Apply under FROM [b, a], where the binder's positional
        // canonicalization renders the same predicate `b.c1 > a.c0`.
        let apply = QueryCorrections::new(Arc::clone(&store), vec!["b".into(), "a".into()]);
        let c = apply
            .range_correction(ColumnRef::new(0, 1), CmpOp::Gt, ColumnRef::new(1, 0))
            .expect("same key from the flipped rendering");
        assert!((c - 10.0).abs() < 1e-9);
        assert_eq!(apply.applied(), 1);
        // A different operator on the same pair has learned nothing.
        assert_eq!(
            apply.range_correction(ColumnRef::new(0, 1), CmpOp::Ge, ColumnRef::new(1, 0)),
            None
        );
        // Out-of-range positions produce no key.
        assert_eq!(apply.range_key(ColumnRef::new(9, 0), CmpOp::Lt, ColumnRef::new(0, 0)), None);
    }

    #[test]
    fn unknown_or_unpublished_keys_yield_no_correction() {
        let store = FeedbackStore::default();
        assert_eq!(store.correction(&k()), None, "unknown key");
        // One mild observation (q-error 1.5 < threshold 2.0): learned but
        // not published.
        assert!(!store.observe(k(), 100.0, 150.0, false));
        assert_eq!(store.correction(&k()), None, "below drift threshold");
        let c = store.counters();
        assert_eq!((c.learned, c.applied, c.epoch_bumps, c.keys, c.published), (1, 0, 0, 1, 0));
    }

    #[test]
    fn drift_past_threshold_publishes_once_then_settles() {
        let store = FeedbackStore::default();
        // 10x underestimate: first observation initializes with full
        // weight, drifts past 2.0, publishes.
        assert!(store.observe(k(), 100.0, 1000.0, false));
        let c = store.correction(&k()).expect("published");
        assert!((c - 10.0).abs() < 1e-9, "correction {c}");
        // The same residual again (now fed back as corrected estimates
        // that match actuals) keeps the live value put: no republish.
        assert!(!store.observe(k(), 1000.0, 1000.0, true));
        assert_eq!(store.counters().epoch_bumps, 1);
        assert!((store.correction(&k()).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn corrected_observations_reconstruct_the_raw_residual() {
        let store = FeedbackStore::default();
        assert!(store.observe(k(), 100.0, 1000.0, false)); // publish 10x
                                                           // Apply-mode estimate 1000 vs actual 1000: residual 0, but the
                                                           // estimate had the 10x correction in it, so the raw target stays
                                                           // ln(10) — log_live must not collapse toward 0.
        store.observe(k(), 1000.0, 1000.0, true);
        store.observe(k(), 1000.0, 1000.0, true);
        assert!((store.correction(&k()).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_blends_observations_with_decay() {
        let store = FeedbackStore::default();
        // log_live = 1, past ln 2 from nothing: published.
        assert!(store.observe(k(), 1.0, std::f64::consts::E, false));
        // Target 0: log_live = 0.4·0 + 0.6·1 = 0.6, within ln 2 of 1.
        assert!(!store.observe(k(), 1.0, 1.0, false));
        let entries = lock_recovering(&store.entries);
        assert_eq!(entries.len(), 1);
        let entry = entries.get(&k()).copied().unwrap();
        drop(entries);
        assert!((entry.log_live - 0.6).abs() < 1e-12, "log_live {}", entry.log_live);
        assert_eq!(entry.observations, 2);
        let c = store.correction(&k()).unwrap();
        assert!((c.ln() - 1.0).abs() < 1e-9, "first publication froze ln 1, got ln {}", c.ln());
    }

    #[test]
    fn bump_cap_bounds_epoch_churn() {
        let store = FeedbackStore::default();
        // Alternate 100x over/underestimates: the live value swings by more
        // than ln 2 every time, so every observation drifts.
        let mut bumps = 0;
        for i in 0..20 {
            let (est, act) = if i % 2 == 0 { (1.0, 100.0) } else { (100.0, 1.0) };
            if store.observe(k(), est, act, false) {
                bumps += 1;
            }
        }
        assert_eq!(bumps, FeedbackStore::MAX_BUMPS_PER_KEY, "cap honoured");
        assert_eq!(store.counters().epoch_bumps, FeedbackStore::MAX_BUMPS_PER_KEY);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let store = FeedbackStore::default();
        assert!(!store.observe(k(), f64::NAN, 10.0, false));
        assert!(!store.observe(k(), 10.0, f64::INFINITY, false));
        assert!(!store.observe(k(), -1.0, 10.0, false));
        assert_eq!(store.counters().learned, 0);
        assert!(lock_recovering(&store.entries).is_empty());
        // Zero estimate/actual clamp to 1 rather than exploding.
        assert!(!store.observe(k(), 0.0, 0.0, false));
        assert_eq!(store.correction(&k()), None);
    }

    #[test]
    fn corrections_are_bounded() {
        let store = FeedbackStore::default();
        store.observe(k(), 1.0, 1.0e12, false);
        let c = store.correction(&k()).unwrap();
        assert!(c <= FeedbackStore::CORRECTION_BOUND * (1.0 + 1e-9), "clamped, got {c}");
    }

    #[test]
    fn query_corrections_translate_positions_to_names() {
        let store = Arc::new(FeedbackStore::default());
        // Learn under FROM [a, b]; apply under FROM [b, a].
        let learn = QueryCorrections::new(Arc::clone(&store), vec!["a".into(), "b".into()]);
        let key = learn.join_key(&[ColumnRef::new(0, 0), ColumnRef::new(1, 0)]).unwrap();
        store.observe(key, 100.0, 1000.0, false);
        store.observe(learn.scan_key(0, "c0<5").unwrap(), 10.0, 100.0, false);

        let apply = QueryCorrections::new(Arc::clone(&store), vec!["b".into(), "a".into()]);
        // The join class members arrive in the *new* FROM positions.
        let c = apply.join_correction(&[ColumnRef::new(0, 0), ColumnRef::new(1, 0)]).unwrap();
        assert!((c - 10.0).abs() < 1e-9);
        // Table `a` is now position 1.
        let s = apply.scan_correction(1, "c0<5").unwrap();
        assert!((s - 10.0).abs() < 1e-9);
        assert_eq!(apply.scan_correction(0, "c0<5"), None, "b never observed");
        assert_eq!(apply.applied(), 2);
        // Empty fingerprints and out-of-range positions produce no key.
        assert_eq!(apply.scan_key(0, ""), None);
        assert_eq!(apply.scan_key(9, "c0<5"), None);
        assert_eq!(apply.join_key(&[ColumnRef::new(0, 0)]), None);
    }

    #[test]
    fn join_key_is_canonical_over_three_way_classes() {
        let q1 = QueryCorrections::new(
            Arc::new(FeedbackStore::default()),
            vec!["s".into(), "m".into(), "b".into()],
        );
        let q2 = QueryCorrections::new(
            Arc::new(FeedbackStore::default()),
            vec!["b".into(), "s".into(), "m".into()],
        );
        // Same class {s.c0, m.c0, b.c0} seen from two FROM orders.
        let k1 = q1
            .join_key(&[ColumnRef::new(0, 0), ColumnRef::new(1, 0), ColumnRef::new(2, 0)])
            .unwrap();
        let k2 = q2
            .join_key(&[ColumnRef::new(0, 0), ColumnRef::new(1, 0), ColumnRef::new(2, 0)])
            .unwrap();
        assert_eq!(k1, k2);
        assert_eq!(k1, FeedbackKey::join(("b".into(), 0), ("m".into(), 0)));
    }

    #[test]
    fn concurrent_observation_is_safe_and_lossless() {
        let store = FeedbackStore::default();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let key = FeedbackKey::scan(format!("t{}", (t + i) % 3), "c0<1");
                        // q-error 1.5, under the threshold: never published.
                        store.observe(key, 10.0, 15.0, false);
                    }
                });
            }
        });
        let c = store.counters();
        assert_eq!(c.learned, 400, "no lost updates");
        assert_eq!(c.keys, 3);
        assert_eq!(c.epoch_bumps, 0);
    }
}
