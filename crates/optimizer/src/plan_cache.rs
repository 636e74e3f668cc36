//! A concurrent plan cache keyed by canonical query fingerprint + catalog
//! epoch.
//!
//! Caching optimized plans is semantically safe here because optimization
//! is a pure function of (query, catalog statistics, optimizer options):
//! the estimators are deterministic and consult only the statistics frozen
//! in a catalog snapshot. The cache key therefore needs three parts:
//!
//! * the **canonical fingerprint** of the SQL (`els-sql`'s
//!   [`els_sql::fingerprint`] — whitespace, conjunct order and symmetric
//!   operand order do not fragment the cache),
//! * the **optimizer configuration**
//!   ([`crate::OptimizerOptions::config_fingerprint`]) — the same SQL
//!   planned under a different estimator strategy, selectivity rule, or
//!   feedback mode is a different plan, and serving one to the other would
//!   replay the wrong estimates (the caller folds this into the string
//!   fingerprint it passes in), and
//! * the **catalog epoch** the plan was optimized against
//!   ([`els_catalog::SharedCatalog::epoch`]) — any catalog mutation bumps
//!   it, so stale plans can never be served.
//!
//! Naming a query by that fingerprint costs a parse and a canonicalisation,
//! so a repeat of the exact text is served from a **text slot** instead:
//! (configuration fingerprint, SQL bytes as sent) → [`Slot`], the entry's
//! plan with its input tables resolved at the entry's epoch. Slots live in
//! [`STRIPES`] stripes, and a thread uses the one [`thread_stripe`] picks
//! for it, so [`PlanCache::get_by_text`] on a repeat text locks that
//! thread's own stripe, clones that stripe's own `Arc<Slot>`, reads the
//! LRU clock and stamp, and bumps its own line of the hit counter: it
//! writes no line another thread writes, and never the shared plan's or
//! the tables' reference counts. Only a thread's first sighting of a text
//! derives the fingerprint, asks [`PlanCache::get`] and keeps a slot with
//! [`PlanCache::remember`]. Exact text rather than a token-normalised one
//! needs no second lexer kept in step with the real one; two spellings are
//! simply two slots of one entry.
//!
//! A slot is a faster way to reach an entry, never a second source of
//! truth: it names one entry and one epoch, and lives exactly as long as
//! its entry. Eviction, the stale drop and replacement remove an entry's
//! slots from every stripe under the state lock, there and then. A stripe
//! keeps at most four spellings of one entry, so respelling one hot query
//! cannot grow memory — a further spelling keeps taking the slow path.
//!
//! Eviction is LRU by a coarse logical clock under a capacity bound. The
//! clock advances only on operations that take the state lock anyway:
//! inserts, misses and invalidations. An insert stamps its entry `2·clock`;
//! a hit, whichever path finds it, raises the stamp to `2·clock + 1` when
//! it is lower, so under nothing but hits no stamp is written. Eviction
//! takes the lowest (stamp, insertion order). Hit/miss/eviction/
//! invalidation counters live in [`els_exec::EngineCounters`] so
//! monitoring sits next to the execution metrics; hits are striped like
//! the slots.

use std::collections::hash_map::{HashMap, RandomState};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use els_core::sync::lock_recovering;
use els_exec::{thread_stripe, EngineCounters, EngineCountersSnapshot, STRIPES};
use els_storage::Table;

use crate::optimizer::OptimizedQuery;
use crate::stripe::Stripe;

/// Everything needed to execute a cached plan without re-binding: the
/// optimized plan plus the name resolution the binder produced.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The optimization result (plan, join order, estimates).
    pub optimized: OptimizedQuery,
    /// Base-table names of the `FROM` list, in positional order — resolve
    /// these against the *same-epoch* snapshot to get the input tables.
    pub table_names: Vec<String>,
    /// Binding names (aliases) of the `FROM` list, for display.
    pub binding_names: Vec<String>,
}

/// A plan with its input tables, resolved at the epoch the plan was made
/// for: what a by-text hit hands back, ready to execute. Each stripe keeps
/// its own `Slot` for a text, so a hit writes only that slot's reference
/// count. Cache-line aligned, so that count shares a line with nothing
/// another thread writes.
#[derive(Debug)]
#[repr(align(128))]
pub struct Slot {
    /// The plan.
    pub plan: Arc<CachedPlan>,
    /// The tables `plan.table_names` named at the plan's epoch.
    pub inputs: Vec<Arc<Table>>,
    /// The LRU stamp of the entry the slot names, which a hit on the slot
    /// raises; a fresh one, which nothing reads, when the cache had no
    /// such entry to keep the slot for.
    stamp: Arc<Stamp>,
}

/// An entry's LRU stamp, on a cache line of its own (its `Arc`'s counts
/// sit on the line before): every hit on the entry reads it, the first
/// hit after the clock moves writes it.
#[derive(Debug)]
#[repr(align(64))]
struct Stamp(AtomicU64);

/// Spellings of one entry a stripe keeps slots for; a further one takes
/// the slow path.
const MAX_SLOTS_PER_STRIPE: usize = 4;

#[derive(Debug)]
struct Entry {
    epoch: u64,
    plan: Arc<CachedPlan>,
    stamp: Arc<Stamp>,
    /// Insertion order: the eviction tie-break between equal stamps.
    seq: u64,
    /// `(stripe, key)` of every slot that names this entry.
    slots: Vec<(usize, u64)>,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<String, Entry>,
    inserts: u64,
}

/// A bounded, thread-safe map from query fingerprint to optimized plan.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    counters: EngineCounters,
    /// Keys the slot hashes, so texts cannot be crafted to collide.
    hasher: RandomState,
    /// The LRU clock. Advanced under the state lock; read by hits without
    /// it. Stamps and the clock publish no other data, they only order
    /// evictions, hence `Relaxed` throughout.
    clock: AtomicU64,
    state: Mutex<State>,
    stripes: [Stripe; STRIPES],
}

impl PlanCache {
    /// Default capacity used by [`PlanCache::default`] and the engine.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A cache holding at most `capacity` plans (0 disables caching: every
    /// lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            counters: EngineCounters::new(),
            hasher: RandomState::new(),
            clock: AtomicU64::new(0),
            state: Mutex::new(State::default()),
            stripes: Default::default(),
        }
    }

    /// Advance the LRU clock (state lock held) and return its new value.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The one LRU rule for a hit, whichever path found it: raise the stamp
    /// to `2·clock + 1` if it is lower, and otherwise write nothing.
    fn touch(&self, stamp: &Stamp) {
        let hit = 2 * self.clock.load(Ordering::Relaxed) + 1;
        if stamp.0.load(Ordering::Relaxed) < hit {
            stamp.0.fetch_max(hit, Ordering::Relaxed);
        }
    }

    /// The one way an entry leaves the cache: its slots go with it.
    fn remove_entry(&self, state: &mut State, fingerprint: &str) -> Option<Entry> {
        let entry = state.entries.remove(fingerprint)?;
        for &(stripe, key) in &entry.slots {
            if let Some(stripe) = self.stripes.get(stripe) {
                // Under the state lock: `els_core::sync::NESTED_PAIR`.
                stripe.drop_slot(key);
            }
        }
        Some(entry)
    }

    /// Look up a plan optimized at exactly `epoch`. A present entry from an
    /// older epoch is dropped (counted as an invalidation) and reported as
    /// a miss.
    pub fn get(&self, fingerprint: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        let mut state = lock_recovering(&self.state);
        match state.entries.get(fingerprint) {
            Some(entry) if entry.epoch == epoch => {
                self.touch(&entry.stamp);
                let plan = Arc::clone(&entry.plan);
                drop(state);
                self.counters.hits.add(1);
                Some(plan)
            }
            Some(_) => {
                self.tick();
                self.remove_entry(&mut state, fingerprint);
                drop(state);
                self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.tick();
                drop(state);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`PlanCache::get`] for a query named by its text as sent under the
    /// configuration `config`, answered from this thread's stripe. `Some`
    /// is a hit, counted and LRU-stamped as `get` would. `None` says only
    /// that this stripe has no slot for the text at `epoch` (a first
    /// sighting on this thread, or a stale entry) and counts nothing: the
    /// caller derives the fingerprint and asks `get`, which counts and
    /// drops.
    pub fn get_by_text(&self, config: u64, sql: &str, epoch: u64) -> Option<Arc<Slot>> {
        if self.capacity == 0 {
            return None;
        }
        let key = self.hasher.hash_one((config, sql));
        let slot = self.stripes.get(thread_stripe())?.find_slot(key, config, sql, epoch)?;
        self.touch(&slot.stamp);
        self.counters.hits.add(1);
        Some(slot)
    }

    /// A slot for `plan` over `inputs`, kept in this thread's stripe as
    /// what `sql`, under `config`, names — the entry `fingerprint`, which
    /// must still hold `plan` — so the thread's next sighting of `sql` is a
    /// [`PlanCache::get_by_text`] hit. Returns the slot, kept or not: it is
    /// not kept when the entry is gone or holds another plan (another
    /// thread replaced it since), or when the stripe has its share of the
    /// entry's spellings already.
    pub fn remember(
        &self,
        config: u64,
        sql: &str,
        fingerprint: &str,
        plan: Arc<CachedPlan>,
        inputs: Vec<Arc<Table>>,
    ) -> Arc<Slot> {
        let unkept = |plan, inputs| {
            let stamp = Arc::new(Stamp(AtomicU64::new(0)));
            Arc::new(Slot { plan, inputs, stamp })
        };
        if self.capacity == 0 {
            return unkept(plan, inputs);
        }
        let stripe = thread_stripe();
        let key = self.hasher.hash_one((config, sql));
        let mut state = lock_recovering(&self.state);
        let Some(entry) = state.entries.get_mut(fingerprint) else { return unkept(plan, inputs) };
        let spellings = entry.slots.iter().filter(|&&(s, _)| s == stripe).count();
        let Some(stripe_slots) = self.stripes.get(stripe) else { return unkept(plan, inputs) };
        if !Arc::ptr_eq(&entry.plan, &plan) || spellings >= MAX_SLOTS_PER_STRIPE {
            return unkept(plan, inputs);
        }
        let slot = Arc::new(Slot { plan, inputs, stamp: Arc::clone(&entry.stamp) });
        // Under the state lock: `els_core::sync::NESTED_PAIR`.
        if stripe_slots.keep_slot(key, config, sql, entry.epoch, Arc::clone(&slot)) {
            entry.slots.push((stripe, key));
        }
        slot
    }

    /// Insert a plan optimized at `epoch`, evicting least-recently-used
    /// entries to stay within capacity. Two threads racing to insert the
    /// same fingerprint is benign — last writer wins, both plans are
    /// equivalent.
    ///
    /// Replacing an existing fingerprint is **not** an eviction (capacity
    /// did not force anything out) and must not trigger the LRU sweep: the
    /// replaced slot already counted toward `len`, so the cache cannot be
    /// over capacity. Replacing an entry whose epoch went stale *is*
    /// counted as an invalidation — the old plan died of catalog drift, and
    /// dropping it silently would under-report invalidations relative to
    /// the `get`-then-reoptimize path.
    pub fn insert(&self, fingerprint: String, epoch: u64, plan: Arc<CachedPlan>) {
        if self.capacity == 0 {
            return;
        }
        let mut state = lock_recovering(&self.state);
        let stamp = Arc::new(Stamp(AtomicU64::new(2 * self.tick())));
        let prev = self.remove_entry(&mut state, &fingerprint);
        let stale_replaced = prev.as_ref().is_some_and(|e| e.epoch != epoch);
        state.inserts += 1;
        let entry = Entry { epoch, plan, stamp, seq: state.inserts, slots: Vec::new() };
        state.entries.insert(fingerprint, entry);
        let mut evicted = 0u64;
        while prev.is_none() && state.entries.len() > self.capacity {
            let lru = state
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.stamp.0.load(Ordering::Relaxed), e.seq))
                .map(|(k, _)| k.clone());
            let Some(lru) = lru else { break };
            self.remove_entry(&mut state, &lru);
            evicted += 1;
        }
        drop(state);
        if stale_replaced {
            self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.counters.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        lock_recovering(&self.state).entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time copy of the counters.
    pub fn stats(&self) -> EngineCountersSnapshot {
        self.counters.snapshot()
    }
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(PlanCache::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_core::Els;
    use els_exec::plan::PlanOutput;
    use els_exec::{Plan, QueryPlan};

    impl PlanCache {
        /// Number of slots kept, over all stripes.
        fn slot_count(&self) -> usize {
            self.stripes.iter().map(Stripe::slot_count).sum()
        }

        /// [`PlanCache::remember`] with no inputs.
        fn remember_plan(&self, config: u64, sql: &str, fingerprint: &str, plan: &Arc<CachedPlan>) {
            self.remember(config, sql, fingerprint, Arc::clone(plan), Vec::new());
        }
    }

    fn dummy_plan() -> Arc<CachedPlan> {
        let els = Els::prepare(
            &[],
            &els_core::QueryStatistics::new(vec![els_core::TableStatistics::new(
                10.0,
                vec![els_core::ColumnStatistics::with_distinct(10.0)],
            )]),
            &els_core::ElsOptions::default(),
        )
        .unwrap();
        let mut scan = Plan::default();
        scan.scan(0, vec![]);
        Arc::new(CachedPlan {
            optimized: OptimizedQuery {
                plan: QueryPlan::new(scan, PlanOutput::CountStar),
                join_order: vec![0],
                estimated_sizes: vec![],
                estimated_cost: 0.0,
                annotations: vec![],
                els,
                alt: None,
                corrections_applied: 0,
            },
            table_names: vec!["t".into()],
            binding_names: vec!["t".into()],
        })
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = PlanCache::new(4);
        assert!(cache.get("q", 0).is_none());
        cache.insert("q".into(), 0, dummy_plan());
        assert!(cache.get("q", 0).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn stale_epoch_invalidates() {
        let cache = PlanCache::new(4);
        cache.insert("q".into(), 0, dummy_plan());
        assert!(cache.get("q", 1).is_none(), "epoch moved on");
        assert_eq!(cache.len(), 0, "stale entry dropped eagerly");
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        // Re-optimized plans at the new epoch cache normally again.
        cache.insert("q".into(), 1, dummy_plan());
        assert!(cache.get("q", 1).is_some());
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = PlanCache::new(2);
        cache.insert("a".into(), 0, dummy_plan());
        cache.insert("b".into(), 0, dummy_plan());
        assert!(cache.get("a", 0).is_some()); // touch a → b is LRU
        cache.insert("c".into(), 0, dummy_plan());
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b", 0).is_none(), "b was evicted");
        assert!(cache.get("a", 0).is_some());
        assert!(cache.get("c", 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert("q".into(), 0, dummy_plan());
        assert!(cache.get("q", 0).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn replacing_same_fingerprint_does_not_evict_others() {
        let cache = PlanCache::new(2);
        cache.insert("a".into(), 0, dummy_plan());
        cache.insert("b".into(), 0, dummy_plan());
        cache.insert("a".into(), 1, dummy_plan());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.get("a", 1).is_some());
        assert!(cache.get("b", 0).is_some());
    }

    #[test]
    fn insert_over_existing_at_bumped_epoch_counts_invalidation_not_eviction() {
        // Replay the replacement path directly (no intervening `get`): the
        // old entry at epoch 0 is displaced by the same fingerprint
        // re-optimized at epoch 1. That displacement is catalog drift — an
        // invalidation — and must NOT also run the LRU sweep (which would
        // double-count the slot as insertion + eviction and throw out an
        // innocent neighbor).
        let cache = PlanCache::new(2);
        cache.insert("a".into(), 0, dummy_plan());
        cache.insert("b".into(), 0, dummy_plan());
        assert_eq!(cache.len(), 2);

        cache.insert("a".into(), 1, dummy_plan());
        assert_eq!(cache.len(), 2, "replacement keeps len constant");
        let s = cache.stats();
        assert_eq!(s.evictions, 0, "replacement is not an eviction");
        assert_eq!(s.invalidations, 1, "stale entry displaced by newer epoch");
        assert!(cache.get("a", 1).is_some());
        assert!(cache.get("b", 0).is_some(), "neighbor survived the replacement");

        // Both were hit since the clock last moved, so their stamps tie,
        // and the replacement is the later insertion: a capacity eviction
        // removes `b`, not the refreshed `a`.
        assert!(cache.get("a", 1).is_some()); // touch a again
        cache.insert("c".into(), 0, dummy_plan());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("a", 1).is_some(), "refreshed entry is MRU, kept");
        assert!(cache.get("b", 0).is_none(), "LRU neighbor evicted");

        // Same-epoch replacement (two threads raced to optimize the same
        // query) is neither an eviction nor an invalidation.
        let before = cache.stats();
        cache.insert("c".into(), 0, dummy_plan());
        let after = cache.stats();
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.invalidations, before.invalidations);
    }

    #[test]
    fn hits_write_no_stamp_until_the_clock_moves() {
        let cache = PlanCache::new(4);
        let plan = dummy_plan();
        cache.insert("a".into(), 0, Arc::clone(&plan));
        cache.remember_plan(1, "a", "a", &plan);
        let stamp = || lock_recovering(&cache.state).entries["a"].stamp.0.load(Ordering::Relaxed);
        assert_eq!(stamp(), 2, "inserted at clock 1");
        assert!(cache.get_by_text(1, "a", 0).is_some());
        assert_eq!(stamp(), 3, "the first hit raises it to 2·clock + 1");
        for _ in 0..10 {
            assert!(cache.get_by_text(1, "a", 0).is_some());
            assert!(cache.get("a", 0).is_some());
        }
        assert_eq!(stamp(), 3, "later hits at the same clock write nothing");
        assert!(cache.get("missing", 0).is_none()); // a miss moves the clock
        assert!(cache.get_by_text(1, "a", 0).is_some());
        assert_eq!(stamp(), 5);
    }

    /// The cache without text slots: a string-keyed map with the same
    /// coarse LRU rule and the same four counters. Whatever the text path
    /// does, every observable must match this.
    #[derive(Default)]
    struct Reference {
        /// fingerprint → (epoch, plan, stamp, insertion order)
        entries: HashMap<String, (u64, Arc<CachedPlan>, u64, u64)>,
        clock: u64,
        inserts: u64,
        stats: EngineCountersSnapshot,
    }

    impl Reference {
        fn get(&mut self, fingerprint: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
            match self.entries.get_mut(fingerprint) {
                Some((e, plan, stamp, _)) if *e == epoch => {
                    *stamp = (*stamp).max(2 * self.clock + 1);
                    self.stats.hits += 1;
                    return Some(Arc::clone(plan));
                }
                Some(_) => {
                    self.entries.remove(fingerprint);
                    self.stats.invalidations += 1;
                }
                None => {}
            }
            self.clock += 1;
            self.stats.misses += 1;
            None
        }

        fn insert(
            &mut self,
            capacity: usize,
            fingerprint: &str,
            epoch: u64,
            plan: Arc<CachedPlan>,
        ) {
            if capacity == 0 {
                return;
            }
            self.clock += 1;
            self.inserts += 1;
            let entry = (epoch, plan, 2 * self.clock, self.inserts);
            let prev = self.entries.insert(fingerprint.to_owned(), entry);
            if prev.as_ref().is_some_and(|(e, _, _, _)| *e != epoch) {
                self.stats.invalidations += 1;
            }
            while prev.is_none() && self.entries.len() > capacity {
                let lru =
                    self.entries.iter().min_by_key(|(_, v)| (v.2, v.3)).map(|(k, _)| k.clone());
                self.entries.remove(&lru.unwrap());
                self.stats.evictions += 1;
            }
        }
    }

    /// Spelling `s` of query `q`: trailing blanks, as a client might add.
    fn spelling(q: u64, s: usize) -> String {
        format!("q{q}{}", " ".repeat(s))
    }

    /// What the engine derives from a text the long way.
    fn fingerprint_of(text: &str, config: u64) -> String {
        format!("{}#{config:016x}", text.trim_end())
    }

    /// Which plan, if any: two lookups agree when these are equal.
    fn which(plan: &Option<Arc<CachedPlan>>) -> Option<*const CachedPlan> {
        plan.as_ref().map(Arc::as_ptr)
    }

    #[test]
    fn random_traffic_matches_a_cache_without_text_slots() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (seed, capacity) in [(1u64, 3usize), (2, 1), (3, 8), (4, 0), (5, 5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let cache = PlanCache::new(capacity);
            let mut model = Reference::default();
            let (mut epoch, mut text_hits) = (0u64, 0);
            for step in 0..4000 {
                let config = rng.gen_range(1..3u64);
                let text = spelling(rng.gen_range(0..4u64), rng.gen_range(0..7usize));
                let fingerprint = fingerprint_of(&text, config);
                let op = rng.gen_range(0..100u32);
                let context = format!("seed {seed} step {step} op {op} `{text}`/{config}");
                match op {
                    // The engine's probe: text first, the long way on a
                    // `None`, and a plan found or made becomes a slot.
                    0..=54 => {
                        if let Some(slot) = cache.get_by_text(config, &text, epoch) {
                            text_hits += 1;
                            let want = model.get(&fingerprint, epoch);
                            assert_eq!(
                                which(&Some(Arc::clone(&slot.plan))),
                                which(&want),
                                "{context}"
                            );
                        } else {
                            let mut got = cache.get(&fingerprint, epoch);
                            let want = model.get(&fingerprint, epoch);
                            assert_eq!(which(&got), which(&want), "{context}");
                            if got.is_none() && op < 45 {
                                let plan = dummy_plan();
                                cache.insert(fingerprint.clone(), epoch, Arc::clone(&plan));
                                model.insert(capacity, &fingerprint, epoch, Arc::clone(&plan));
                                got = Some(plan);
                            }
                            if let Some(plan) = got {
                                cache.remember_plan(config, &text, &fingerprint, &plan);
                            }
                        }
                    }
                    // A bare text lookup either says nothing and counts
                    // nothing, or says what `get` would have said.
                    55..=69 => {
                        if let Some(slot) = cache.get_by_text(config, &text, epoch) {
                            let want = model.get(&fingerprint, epoch);
                            assert_eq!(
                                which(&Some(Arc::clone(&slot.plan))),
                                which(&want),
                                "{context}"
                            );
                        }
                    }
                    // The benchmark's staged pipeline: `get`/`insert` only.
                    70..=79 => {
                        let got = cache.get(&fingerprint, epoch);
                        let want = model.get(&fingerprint, epoch);
                        assert_eq!(which(&got), which(&want), "{context}");
                    }
                    80..=89 => {
                        let plan = dummy_plan();
                        cache.insert(fingerprint.clone(), epoch, Arc::clone(&plan));
                        model.insert(capacity, &fingerprint, epoch, plan);
                    }
                    // A slot for a plan the entry does not hold (another
                    // thread replaced it, or nothing is cached) is no slot.
                    90..=93 => cache.remember_plan(config, &text, &fingerprint, &dummy_plan()),
                    _ => epoch += 1,
                }
                assert_eq!(cache.len(), model.entries.len(), "{context}");
                assert_eq!(cache.stats(), model.stats, "{context}");
                assert!(cache.slot_count() <= MAX_SLOTS_PER_STRIPE * cache.len(), "{context}");
            }
            assert!(capacity == 0 || text_hits > 20, "seed {seed}: {text_hits} hits by text");
        }
    }

    #[test]
    fn respelling_one_query_cannot_grow_the_cache() {
        let cache = PlanCache::new(2);
        let fingerprint = fingerprint_of("q0", 1);
        cache.insert(fingerprint.clone(), 0, dummy_plan());
        for s in 0..10_000 {
            let text = spelling(0, s);
            // A first sighting every time: unknown by text, a hit the long
            // way.
            assert!(cache.get_by_text(1, &text, 0).is_none());
            let plan = cache.get(&fingerprint, 0).unwrap();
            cache.remember_plan(1, &text, &fingerprint, &plan);
            assert!(cache.slot_count() <= MAX_SLOTS_PER_STRIPE);
        }
        // One thread, one stripe: it keeps its share of spellings.
        assert_eq!(cache.slot_count(), MAX_SLOTS_PER_STRIPE);
        // The first spellings are the remembered ones; a later one is not.
        assert!(cache.get_by_text(1, &spelling(0, 0), 0).is_some());
        assert!(cache.get_by_text(1, &spelling(0, 9_999), 0).is_none());
        // Same bytes under another configuration name nothing.
        assert!(cache.get_by_text(2, &spelling(0, 0), 0).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (10_001, 0));
        // Every stripe keeps its own share, never more.
        std::thread::scope(|scope| {
            for _ in 0..2 * STRIPES {
                scope.spawn(|| {
                    for s in 0..100 {
                        let plan = cache.get(&fingerprint, 0).unwrap();
                        cache.remember_plan(1, &spelling(0, s), &fingerprint, &plan);
                    }
                });
            }
        });
        assert!(cache.slot_count() <= MAX_SLOTS_PER_STRIPE * STRIPES);
    }

    #[test]
    fn zero_capacity_keeps_no_slot() {
        let cache = PlanCache::new(0);
        let fingerprint = fingerprint_of("q0", 1);
        let plan = dummy_plan();
        cache.insert(fingerprint.clone(), 0, Arc::clone(&plan));
        let slot = cache.remember(1, "q0", &fingerprint, Arc::clone(&plan), Vec::new());
        assert!(Arc::ptr_eq(&slot.plan, &plan), "the slot comes back, unkept");
        assert_eq!(cache.slot_count(), 0);
        assert!(cache.get_by_text(1, "q0", 0).is_none());
        assert_eq!(
            cache.stats(),
            EngineCountersSnapshot::default(),
            "a text lookup counts nothing"
        );
    }

    #[test]
    fn slots_die_with_their_entry() {
        let cache = PlanCache::new(2);
        let (a, b, c) = (fingerprint_of("a", 1), fingerprint_of("b", 1), fingerprint_of("c", 1));
        let plan_a = dummy_plan();
        cache.insert(a.clone(), 0, Arc::clone(&plan_a));
        cache.remember_plan(1, "a ", &a, &plan_a);
        let plan_b = dummy_plan();
        cache.insert(b.clone(), 0, Arc::clone(&plan_b));
        cache.remember_plan(1, "b ", &b, &plan_b);
        assert_eq!(cache.slot_count(), 2);
        // Eviction: `a` is the LRU entry, and its slot goes with it — the
        // plan is held by the test alone.
        cache.insert(c, 0, dummy_plan());
        assert_eq!(cache.slot_count(), 1);
        assert_eq!(Arc::strong_count(&plan_a), 1);
        assert!(cache.get_by_text(1, "a ", 0).is_none());
        // A stale epoch is not served by text, and is not dropped by it
        // either: `get` does that, once, and counts it.
        assert!(cache.get_by_text(1, "b ", 1).is_none());
        assert_eq!((cache.len(), cache.stats().invalidations), (2, 0));
        assert!(cache.get(&b, 1).is_none());
        assert_eq!((cache.slot_count(), cache.stats().invalidations), (0, 1));
        assert_eq!(Arc::strong_count(&plan_b), 1);
        // A re-inserted plan is reached by text again only once remembered,
        // and only as the plan the entry holds now.
        let plan_b = dummy_plan();
        cache.insert(b.clone(), 1, Arc::clone(&plan_b));
        assert!(cache.get_by_text(1, "b ", 1).is_none());
        cache.remember_plan(1, "b ", &b, &dummy_plan());
        assert!(cache.get_by_text(1, "b ", 1).is_none(), "not the entry's plan");
        cache.remember_plan(1, "b ", &b, &plan_b);
        let slot = cache.get_by_text(1, "b ", 1).unwrap();
        assert!(Arc::ptr_eq(&slot.plan, &plan_b));
        drop(slot);
        // Stale replace in `insert`.
        cache.insert(b.clone(), 2, dummy_plan());
        assert_eq!(cache.slot_count(), 0);
        assert_eq!(Arc::strong_count(&plan_b), 1);
        let plan_b = cache.get(&b, 2).unwrap();
        cache.remember_plan(1, "b ", &b, &plan_b);
        assert_eq!(cache.slot_count(), 1);
    }

    #[test]
    fn concurrent_mixed_traffic_is_safe() {
        let cache = PlanCache::new(8);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = format!("q{}", (t + i) % 12);
                        if cache.get_by_text(1, &key, 0).is_some() {
                            continue;
                        }
                        let plan = match cache.get(&key, 0) {
                            Some(plan) => plan,
                            None => {
                                let plan = dummy_plan();
                                cache.insert(key.clone(), 0, Arc::clone(&plan));
                                plan
                            }
                        };
                        cache.remember_plan(1, &key, &key, &plan);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert!(cache.len() <= 8);
        assert!(cache.slot_count() <= MAX_SLOTS_PER_STRIPE * cache.len() * STRIPES);
    }
}
