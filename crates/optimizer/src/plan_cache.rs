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
//! so the cache also keeps **exact-text aliases**: (configuration
//! fingerprint, SQL bytes as sent) → entry. [`PlanCache::get_by_text`] on a
//! repeat text is one hash, taken outside the lock, and one byte
//! comparison; only a first sighting derives the fingerprint, asks
//! [`PlanCache::get`] and registers its spelling with [`PlanCache::alias`].
//! Exact text rather than a token-normalised one needs no second lexer kept
//! in step with the real one; two spellings are simply two aliases of one
//! entry. An alias is a faster way to learn a fingerprint, never a second
//! source of truth: whether a plan is cached, and at which epoch, is read
//! from the entry on every lookup, and an alias lives exactly as long as
//! its entry. Aliases per entry are capped, so respelling one hot query
//! cannot grow memory — a further spelling keeps taking the slow path.
//!
//! Eviction is LRU by a logical access clock under a capacity bound.
//! Hit/miss/eviction/invalidation counters live in
//! [`els_exec::EngineCounters`] so monitoring sits next to the execution
//! metrics.

use std::collections::hash_map::{self, HashMap, RandomState};
use std::hash::BuildHasher;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use els_core::sync::lock_recovering;
use els_exec::{EngineCounters, EngineCountersSnapshot, MetricsRegistry};

use crate::optimizer::OptimizedQuery;

/// Bump one counter on this cache and mirror it into the process-wide
/// [`MetricsRegistry`], which aggregates cache traffic across all engines.
fn bump(local: &std::sync::atomic::AtomicU64, global: &std::sync::atomic::AtomicU64, n: u64) {
    local.fetch_add(n, Ordering::Relaxed);
    global.fetch_add(n, Ordering::Relaxed);
}

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

/// Spellings remembered per entry; a further one takes the slow path.
const MAX_ALIASES_PER_ENTRY: usize = 4;

#[derive(Debug)]
struct Entry {
    epoch: u64,
    plan: Arc<CachedPlan>,
    last_used: u64,
    /// Keys into `State::aliases` of the spellings that name this entry.
    aliases: Vec<u64>,
}

/// One spelling of a cached query, keyed in `State::aliases` by the hash of
/// `(config, text)`. A lookup compares both: a collision is a slow path.
#[derive(Debug)]
struct Alias {
    config: u64,
    text: Box<str>,
    /// The entry's key (the same allocation).
    fingerprint: Arc<str>,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<Arc<str>, Entry>,
    aliases: HashMap<u64, Alias>,
    clock: u64,
}

impl State {
    /// The one way an entry leaves the cache: its aliases go with it.
    fn remove_entry(&mut self, fingerprint: &str) -> Option<Entry> {
        let entry = self.entries.remove(fingerprint)?;
        for hash in &entry.aliases {
            self.aliases.remove(hash);
        }
        Some(entry)
    }
}

/// A bounded, thread-safe map from query fingerprint to optimized plan.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    counters: EngineCounters,
    /// Keys the alias hashes, so texts cannot be crafted to collide.
    hasher: RandomState,
    state: Mutex<State>,
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
            state: Mutex::new(State::default()),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a plan optimized at exactly `epoch`. A present entry from an
    /// older epoch is dropped (counted as an invalidation) and reported as
    /// a miss.
    pub fn get(&self, fingerprint: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        let global = MetricsRegistry::global().cache_counters();
        let mut state = lock_recovering(&self.state);
        state.clock += 1;
        let clock = state.clock;
        match state.entries.get_mut(fingerprint) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = clock;
                let plan = Arc::clone(&entry.plan);
                drop(state);
                bump(&self.counters.hits, &global.hits, 1);
                Some(plan)
            }
            Some(_) => {
                state.remove_entry(fingerprint);
                drop(state);
                bump(&self.counters.invalidations, &global.invalidations, 1);
                bump(&self.counters.misses, &global.misses, 1);
                None
            }
            None => {
                drop(state);
                bump(&self.counters.misses, &global.misses, 1);
                None
            }
        }
    }

    /// [`PlanCache::get`] for a query named by its text as sent under the
    /// configuration `config`. `Some` is a hit, counted and LRU-stamped as
    /// `get` would. `None` says only that the text led to no plan at `epoch`
    /// (unknown spelling, or a stale entry) and counts nothing: the caller
    /// derives the fingerprint and asks `get`, which counts and drops.
    pub fn get_by_text(&self, config: u64, sql: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
        if self.capacity == 0 {
            return None;
        }
        let hash = self.hasher.hash_one((config, sql));
        let mut guard = lock_recovering(&self.state);
        let state = &mut *guard;
        let alias = state.aliases.get(&hash).filter(|a| a.config == config && *a.text == *sql)?;
        let entry = state.entries.get_mut(&*alias.fingerprint).filter(|e| e.epoch == epoch)?;
        state.clock += 1;
        entry.last_used = state.clock;
        let plan = Arc::clone(&entry.plan);
        drop(guard);
        let global = MetricsRegistry::global().cache_counters();
        bump(&self.counters.hits, &global.hits, 1);
        Some(plan)
    }

    /// Remember that `sql`, under `config`, names the entry `fingerprint`,
    /// so its next sighting is a [`PlanCache::get_by_text`] hit. A no-op if
    /// there is no such entry or it has its share of spellings already.
    pub fn alias(&self, config: u64, sql: &str, fingerprint: &str) {
        if self.capacity == 0 {
            return;
        }
        let hash = self.hasher.hash_one((config, sql));
        let mut guard = lock_recovering(&self.state);
        let state = &mut *guard;
        let Some((key, _)) = state.entries.get_key_value(fingerprint) else { return };
        let key = Arc::clone(key);
        let Some(entry) = state.entries.get_mut(fingerprint) else { return };
        if entry.aliases.len() >= MAX_ALIASES_PER_ENTRY {
            return;
        }
        // An occupied slot is this spelling already, or a colliding one that
        // keeps it; either way there is nothing to add.
        if let hash_map::Entry::Vacant(slot) = state.aliases.entry(hash) {
            slot.insert(Alias { config, text: sql.into(), fingerprint: key });
            entry.aliases.push(hash);
        }
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
        let global = MetricsRegistry::global().cache_counters();
        let mut state = lock_recovering(&self.state);
        state.clock += 1;
        let clock = state.clock;
        let prev = state.remove_entry(&fingerprint);
        let stale_replaced = prev.as_ref().is_some_and(|e| e.epoch != epoch);
        let entry = Entry { epoch, plan, last_used: clock, aliases: Vec::new() };
        state.entries.insert(fingerprint.into(), entry);
        let mut evicted = 0u64;
        while prev.is_none() && state.entries.len() > self.capacity {
            let lru = state.entries.iter().min_by_key(|(_, e)| e.last_used);
            let Some(lru) = lru.map(|(k, _)| Arc::clone(k)) else { break };
            state.remove_entry(&lru);
            evicted += 1;
        }
        drop(state);
        if stale_replaced {
            bump(&self.counters.invalidations, &global.invalidations, 1);
        }
        if evicted > 0 {
            bump(&self.counters.evictions, &global.evictions, evicted);
        }
    }

    /// Drop every entry (configuration changed, tests).
    pub fn clear(&self) {
        let mut state = lock_recovering(&self.state);
        state.entries.clear();
        state.aliases.clear();
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        lock_recovering(&self.state).entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live counters (shared with anyone monitoring this cache).
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
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
    use els_exec::{PlanNode, QueryPlan};

    impl PlanCache {
        /// Number of remembered spellings.
        fn alias_count(&self) -> usize {
            lock_recovering(&self.state).aliases.len()
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
        Arc::new(CachedPlan {
            optimized: OptimizedQuery {
                plan: QueryPlan::new(
                    PlanNode::Scan { table_id: 0, filters: vec![] },
                    PlanOutput::CountStar,
                ),
                join_order: vec![0],
                estimated_sizes: vec![],
                estimated_cost: 0.0,
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

        // The replaced entry took the newest LRU stamp: a later capacity
        // eviction removes `b` (older), not the refreshed `a`.
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
    fn cache_traffic_mirrors_into_the_global_registry() {
        let global = MetricsRegistry::global().cache_counters();
        let before = global.snapshot();
        let cache = PlanCache::new(2);
        cache.insert("q".into(), 0, dummy_plan());
        assert!(cache.get("q", 0).is_some());
        assert!(cache.get("missing", 0).is_none());
        let after = global.snapshot();
        // Other tests run concurrently against the same global registry, so
        // assert deltas as lower bounds.
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    /// The cache without aliases: a string-keyed LRU with the same clock
    /// and the same four counters. Whatever the text path does, every
    /// observable must match this.
    #[derive(Default)]
    struct Reference {
        entries: HashMap<String, (u64, Arc<CachedPlan>, u64)>,
        clock: u64,
        stats: EngineCountersSnapshot,
    }

    impl Reference {
        fn get(&mut self, fingerprint: &str, epoch: u64) -> Option<Arc<CachedPlan>> {
            self.clock += 1;
            match self.entries.get_mut(fingerprint) {
                Some((e, plan, used)) if *e == epoch => {
                    *used = self.clock;
                    self.stats.hits += 1;
                    return Some(Arc::clone(plan));
                }
                Some(_) => {
                    self.entries.remove(fingerprint);
                    self.stats.invalidations += 1;
                }
                None => {}
            }
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
            let prev = self.entries.insert(fingerprint.to_owned(), (epoch, plan, self.clock));
            if prev.as_ref().is_some_and(|(e, _, _)| *e != epoch) {
                self.stats.invalidations += 1;
            }
            while prev.is_none() && self.entries.len() > capacity {
                let lru = self.entries.iter().min_by_key(|(_, v)| v.2).map(|(k, _)| k.clone());
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
    fn random_traffic_matches_a_cache_without_aliases() {
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
                    // `None`, and a plan found or made leaves an alias.
                    0..=54 => {
                        let by_text = cache.get_by_text(config, &text, epoch);
                        text_hits += usize::from(by_text.is_some());
                        let got = by_text.or_else(|| cache.get(&fingerprint, epoch));
                        let want = model.get(&fingerprint, epoch);
                        assert_eq!(which(&got), which(&want), "{context}");
                        if got.is_none() && op < 45 {
                            let plan = dummy_plan();
                            cache.insert(fingerprint.clone(), epoch, Arc::clone(&plan));
                            model.insert(capacity, &fingerprint, epoch, plan);
                        }
                        cache.alias(config, &text, &fingerprint);
                    }
                    // A bare text lookup either says nothing and counts
                    // nothing, or says what `get` would have said.
                    55..=69 => {
                        if let Some(plan) = cache.get_by_text(config, &text, epoch) {
                            let want = model.get(&fingerprint, epoch);
                            assert_eq!(which(&Some(plan)), which(&want), "{context}");
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
                    // An alias for something not cached is no alias.
                    90..=93 => cache.alias(config, &text, &fingerprint),
                    94..=97 => epoch += 1,
                    _ => {
                        cache.clear();
                        model.entries.clear();
                    }
                }
                assert_eq!(cache.len(), model.entries.len(), "{context}");
                assert_eq!(cache.stats(), model.stats, "{context}");
                assert!(cache.alias_count() <= MAX_ALIASES_PER_ENTRY * cache.len(), "{context}");
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
            assert!(cache.get(&fingerprint, 0).is_some());
            cache.alias(1, &text, &fingerprint);
            assert!(cache.alias_count() <= MAX_ALIASES_PER_ENTRY * cache.capacity());
        }
        assert_eq!(cache.alias_count(), MAX_ALIASES_PER_ENTRY);
        // The first spellings are the remembered ones; a later one is not.
        assert!(cache.get_by_text(1, &spelling(0, 0), 0).is_some());
        assert!(cache.get_by_text(1, &spelling(0, 9_999), 0).is_none());
        // Same bytes under another configuration name nothing.
        assert!(cache.get_by_text(2, &spelling(0, 0), 0).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (10_001, 0));
    }

    #[test]
    fn zero_capacity_stores_no_alias() {
        let cache = PlanCache::new(0);
        let fingerprint = fingerprint_of("q0", 1);
        cache.insert(fingerprint.clone(), 0, dummy_plan());
        cache.alias(1, "q0", &fingerprint);
        assert_eq!(cache.alias_count(), 0);
        assert!(cache.get_by_text(1, "q0", 0).is_none());
        assert_eq!(
            cache.stats(),
            EngineCountersSnapshot::default(),
            "a text lookup counts nothing"
        );
    }

    #[test]
    fn aliases_die_with_their_entry() {
        let cache = PlanCache::new(2);
        let (a, b, c) = (fingerprint_of("a", 1), fingerprint_of("b", 1), fingerprint_of("c", 1));
        cache.insert(a.clone(), 0, dummy_plan());
        cache.alias(1, "a ", &a);
        cache.insert(b.clone(), 0, dummy_plan());
        cache.alias(1, "b ", &b);
        assert_eq!(cache.alias_count(), 2);
        // Eviction: `a` is the LRU entry.
        cache.insert(c, 0, dummy_plan());
        assert_eq!(cache.alias_count(), 1);
        assert!(cache.get_by_text(1, "a ", 0).is_none());
        // A stale epoch is not served by text, and is not dropped by it
        // either: `get` does that, once, and counts it.
        assert!(cache.get_by_text(1, "b ", 1).is_none());
        assert_eq!((cache.len(), cache.stats().invalidations), (2, 0));
        assert!(cache.get(&b, 1).is_none());
        assert_eq!((cache.alias_count(), cache.stats().invalidations), (0, 1));
        // A re-inserted plan is reached by text again only once re-aliased.
        cache.insert(b.clone(), 1, dummy_plan());
        assert!(cache.get_by_text(1, "b ", 1).is_none());
        cache.alias(1, "b ", &b);
        assert!(cache.get_by_text(1, "b ", 1).is_some());
        // Stale replace in `insert`, then `clear`.
        cache.insert(b.clone(), 2, dummy_plan());
        assert_eq!(cache.alias_count(), 0);
        cache.alias(1, "b ", &b);
        cache.clear();
        assert_eq!((cache.len(), cache.alias_count()), (0, 0));
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
                        if cache.get(&key, 0).is_none() {
                            cache.insert(key, 0, dummy_plan());
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert!(cache.len() <= 8);
    }
}
