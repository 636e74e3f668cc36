//! A batteries-included facade: register tables, run SQL, inspect plans.
//!
//! One pipeline (catalog → parser → binder → optimizer → executor), spelled
//! in one place: [`Engine`], a concurrent, cache-fronted service. All query
//! methods take `&self`, readers run against immutable catalog snapshots
//! ([`els_catalog::SharedCatalog`]), and optimized plans are reused across
//! threads through a fingerprint+epoch keyed [`els_optimizer::PlanCache`],
//! which a repeated text reaches by its bytes alone, through the calling
//! thread's own text slots.
//!
//! Configuration is fixed at construction. The estimation algorithm
//! (default: the paper's Algorithm ELS) is part of it, so replaying one
//! workload under the baselines means one engine per estimator; with the
//! cache off, every query is optimized afresh:
//!
//! ```
//! use els::engine::Engine;
//! use els::optimizer::{EstimatorPreset, OptimizerOptions};
//! use els::storage::datagen::{TableSpec, ColumnSpec, Distribution};
//!
//! for preset in [EstimatorPreset::Els, EstimatorPreset::Sss] {
//!     let engine = Engine::with_options(OptimizerOptions::preset(preset)).cache_capacity(0);
//!     engine.generate(
//!         TableSpec::new("t", 1000)
//!             .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
//!         42,
//!     ).unwrap();
//!     let result = engine.execute("SELECT COUNT(*) FROM t WHERE k < 100").unwrap();
//!     assert_eq!(result.count, 100);
//! }
//! ```

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::analyze::{
    build_operator_reports, harvest_feedback, ExplainAnalyzeReport, OperatorReport,
};

use els_catalog::collect::CollectOptions;
use els_catalog::{CatalogSnapshot, FeedbackMode, SharedCatalog};
use els_exec::{
    execute_plan_observed, EngineCountersSnapshot, ExecMetrics, ExecMode, ExecOutput,
    MetricsRegistry,
};
use els_optimizer::{
    optimize_bound, CachedPlan, EstimatorStrategy, OptimizedQuery, OptimizerOptions, PlanCache,
    Slot,
};
use els_sql::{bind, canonical_sql, parse};
use els_storage::datagen::TableSpec;
use els_storage::Table;

/// Unified error for the engine facade.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Lexing/parsing/binding failure.
    Sql(String),
    /// Catalog registration/lookup failure.
    Catalog(String),
    /// Optimization failure.
    Optimizer(String),
    /// Execution failure.
    Exec(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sql(m) => write!(f, "SQL error: {m}"),
            EngineError::Catalog(m) => write!(f, "catalog error: {m}"),
            EngineError::Optimizer(m) => write!(f, "optimizer error: {m}"),
            EngineError::Exec(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<els_sql::SqlError> for EngineError {
    fn from(e: els_sql::SqlError) -> Self {
        EngineError::Sql(e.to_string())
    }
}

impl From<els_catalog::CatalogError> for EngineError {
    fn from(e: els_catalog::CatalogError) -> Self {
        EngineError::Catalog(e.to_string())
    }
}

impl From<els_optimizer::OptimizerError> for EngineError {
    fn from(e: els_optimizer::OptimizerError) -> Self {
        EngineError::Optimizer(e.to_string())
    }
}

impl From<els_exec::ExecError> for EngineError {
    fn from(e: els_exec::ExecError) -> Self {
        EngineError::Exec(e.to_string())
    }
}

/// Result alias for the engine.
pub type EngineResult<T> = Result<T, EngineError>;

/// The outcome of one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result rows (a one-cell table for `COUNT(*)`).
    pub rows: Table,
    /// Result row count (the count itself for `COUNT(*)`).
    pub count: u64,
    /// Execution metrics.
    pub metrics: ExecMetrics,
    /// The join order the optimizer chose.
    pub join_order: Vec<String>,
    /// The intermediate sizes the optimizer believed in.
    pub estimated_sizes: Vec<f64>,
    /// True when the plan came from the [`Engine`]'s plan cache (always
    /// false with [`Engine::cache_capacity`] 0).
    pub cache_hit: bool,
}

/// A concurrent, cache-fronted query engine.
///
/// `Engine` is built to be shared: every query method takes `&self`, so an
/// `Engine` behind an `Arc` (or borrowed into [`std::thread::scope`])
/// serves many threads at once.
///
/// * **Reads work from snapshots.** A query that has to plan takes a
///   [`CatalogSnapshot`] — an `Arc`'d immutable catalog plus the epoch it
///   was published at, under a brief read lock — and binds, optimizes and
///   executes entirely against it.
/// * **Repeats write nothing shared.** A text the calling thread has sent
///   before is looked up in that thread's stripe of the plan cache's text
///   slots, checked against the catalog epoch (one atomic load, no lock),
///   and executed on the slot's own plan and input tables: it takes no
///   lock but its stripe's, and writes no cache line another thread
///   writes. The one exception is [`Engine::prepare`], which returns the
///   shared `Arc<CachedPlan>` and so writes its reference count;
///   `execute`, `execute_if_cached`, `explain` and `explain_analyze` do
///   not.
/// * **Writes publish.** [`Engine::register`] copies the catalog, applies
///   the change, swaps the `Arc` and bumps the epoch.
/// * **Plans are cached.** Optimized plans are keyed by the query's
///   canonical fingerprint ([`els_sql::fingerprint`]), the optimizer
///   configuration's [`OptimizerOptions::config_fingerprint`] and the
///   snapshot epoch; a hit skips binding, estimation and join
///   enumeration, and a byte-identical repeat also skips the parse (the
///   cache keeps the text as a slot of its entry, under the same
///   configuration and epoch checks). Any catalog change bumps the epoch,
///   so stale plans can never be served — and a plan optimized under one
///   configuration can never be replayed under another.
///
/// Configuration is fixed at construction (it is part of what a cached
/// plan means); build a second engine for a second configuration.
///
/// ```
/// use els::engine::Engine;
/// use els::storage::datagen::{TableSpec, ColumnSpec, Distribution};
///
/// let engine = Engine::new();
/// engine.generate(
///     TableSpec::new("t", 1000)
///         .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
///     42,
/// ).unwrap();
/// let cold = engine.execute("SELECT COUNT(*) FROM t WHERE k < 100").unwrap();
/// let warm = engine.execute("SELECT COUNT(*) FROM t WHERE k < 100").unwrap();
/// assert_eq!((cold.count, warm.count), (100, 100));
/// assert!(!cold.cache_hit && warm.cache_hit);
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    catalog: SharedCatalog,
    /// Behind an `Arc` so several engines (e.g. one per tenant in a
    /// multi-tenant server) can share one cache budget; per-tenant
    /// isolation comes from the lane salt in the cache key, not from
    /// separate caches. See [`Engine::shared_cache`].
    cache: Arc<PlanCache>,
    /// What every plan is made with.
    options: OptimizerOptions,
    /// `options.config_fingerprint()`, computed on first use: it
    /// `Debug`-formats the whole struct, as dear as a cached point query.
    /// [`Engine::update_options`], the one place `options` changes, resets it.
    config: OnceLock<u64>,
    /// `Vectorized { workers }`, set by [`Engine::exec_workers`] alone.
    mode: ExecMode,
}

impl Engine {
    /// An empty engine with default options and a default-capacity plan
    /// cache.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An empty engine with the given optimizer configuration.
    pub fn with_options(options: OptimizerOptions) -> Engine {
        Engine { options, ..Engine::default() }
    }

    /// Change the optimizer configuration and forget its memoised fingerprint.
    fn update_options(mut self, change: impl FnOnce(&mut OptimizerOptions)) -> Engine {
        change(&mut self.options);
        Engine { config: OnceLock::new(), ..self }
    }

    /// Set the plan-cache capacity (0 disables caching — every query
    /// re-optimizes, the pre-cache behaviour). Consumes `self`: capacity is
    /// fixed before the engine is shared.
    #[must_use]
    pub fn cache_capacity(self, capacity: usize) -> Engine {
        Engine { cache: Arc::new(PlanCache::new(capacity)), ..self }
    }

    /// Share an existing plan cache with this engine. Multi-tenant
    /// deployments hang one cache behind every tenant's engine so the
    /// capacity budget and eviction pressure are global, while the lane
    /// salt ([`Engine::plan_lane`]) keeps entries strictly per-tenant.
    #[must_use]
    pub fn shared_cache(self, cache: Arc<PlanCache>) -> Engine {
        Engine { cache, ..self }
    }

    /// Put this engine's cached plans in a distinct lane (default 0).
    /// The lane is folded into [`OptimizerOptions::config_fingerprint`]
    /// and hence into every cache key this engine writes or reads, so two
    /// engines on the same shared cache with different lanes can never
    /// observe each other's plans — even for byte-identical SQL.
    #[must_use]
    pub fn plan_lane(self, lane: u64) -> Engine {
        self.update_options(|o| o.lane = lane)
    }

    /// Set the runtime-feedback policy (default
    /// [`FeedbackMode::Off`]). Under `Observe` or `Apply`, every
    /// [`Engine::execute`] and [`Engine::explain_analyze`] harvests
    /// per-operator `(estimated, actual)` pairs into the shared catalog's
    /// [`els_catalog::FeedbackStore`]; under `Apply` the optimizer also
    /// consults published corrections, and a correction drifting past the
    /// store's publication threshold bumps the catalog epoch so stale
    /// cached plans re-optimize. Consumes `self`: like the estimator, the
    /// policy is part of what a cached plan means.
    #[must_use]
    pub fn feedback(self, mode: FeedbackMode) -> Engine {
        self.update_options(|o| o.feedback = mode)
    }

    /// Run vectorized with `workers` join threads (default 1) AND tell the
    /// cost model about it: the optimizer's hash-join probe term is divided
    /// by the worker count (`CostParams::probe_parallelism`); nothing else
    /// in the cost model depends on the mode. Consumes `self`: like the
    /// optimizer configuration, the mode is part of what a cached plan means.
    #[must_use]
    pub fn exec_workers(self, workers: usize) -> Engine {
        let workers = workers.max(1);
        let engine = self.update_options(|o| o.cost.probe_parallelism = workers as f64);
        Engine { mode: ExecMode::Vectorized { workers }, ..engine }
    }

    /// Register an existing table (publishes a new catalog snapshot and
    /// bumps the epoch, invalidating cached plans). Statistics are the
    /// default [`CollectOptions`]: exact, without histograms.
    pub fn register(&self, table: Table) -> EngineResult<()> {
        self.catalog.register(table, &CollectOptions::default())?;
        Ok(())
    }

    /// Generate and register a table from a spec with a seed.
    pub fn generate(&self, spec: TableSpec, seed: u64) -> EngineResult<()> {
        self.register(spec.generate(seed))
    }

    /// The current catalog snapshot (immutable; cheap to take and hold).
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.catalog.snapshot()
    }

    /// The current catalog epoch.
    pub fn epoch(&self) -> u64 {
        self.catalog.epoch()
    }

    /// Force cached-plan invalidation without changing catalog contents.
    pub fn invalidate_plans(&self) {
        self.catalog.invalidate();
    }

    /// The optimizer configuration every plan of this engine is made with;
    /// its [`OptimizerOptions::config_fingerprint`] suffixes every cache
    /// key the engine writes.
    pub fn options(&self) -> &OptimizerOptions {
        &self.options
    }

    /// The estimator strategy queries are planned with: `options().strategy`.
    pub fn current_strategy(&self) -> EstimatorStrategy {
        self.options.strategy
    }

    /// The plan cache (for inspection; counters live on it).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Point-in-time plan-cache counters (hits, misses, evictions,
    /// invalidations).
    pub fn cache_stats(&self) -> EngineCountersSnapshot {
        self.cache.stats()
    }

    /// Text → slot, or text → fingerprint → entry: everything a query
    /// costs before the engine knows whether it has to plan it. A text
    /// this thread has sent before costs one hash, the epoch load and one
    /// lookup in the thread's own stripe — no parse, no canonicalisation,
    /// no snapshot, no allocation; a first sighting derives the fingerprint
    /// the long way, and the plan that finds (here) or makes (in
    /// [`Engine::prepare_at`]) becomes the text's slot.
    fn probe(&self, sql: &str) -> EngineResult<Probe> {
        // The optimizer configuration is part of the key: the same SQL
        // planned under a different estimator, rule, or feedback mode (by
        // another engine on a shared cache) is a different plan, and
        // serving one to the other would replay the wrong estimates.
        let config = *self.config.get_or_init(|| self.options.config_fingerprint());
        // A slot carries what it read from the snapshot of its epoch, so
        // the epoch alone decides whether it is current.
        if let Some(slot) = self.cache.get_by_text(config, sql, self.catalog.epoch()) {
            return Ok(Probe::Hit(slot));
        }
        // Epoch and contents come from the same snapshot, so a plan stamped
        // with this epoch is exactly a plan over these statistics.
        let snapshot = self.catalog.snapshot();
        let ast = parse(sql)?;
        let fingerprint = format!("{}#{config:016x}", canonical_sql(&ast));
        if let Some(plan) = self.cache.get(&fingerprint, snapshot.epoch()) {
            return Ok(Probe::Hit(self.slot(config, sql, &fingerprint, &snapshot, plan)?));
        }
        Ok(Probe::Miss(Box::new(Miss { ast, config, fingerprint, snapshot })))
    }

    /// `plan`, found or made at `snapshot`'s epoch, with its inputs
    /// resolved there, kept as `sql`'s slot if the cache still holds it.
    fn slot(
        &self,
        config: u64,
        sql: &str,
        fingerprint: &str,
        snapshot: &CatalogSnapshot,
        plan: Arc<CachedPlan>,
    ) -> EngineResult<Arc<Slot>> {
        let inputs = plan
            .table_names
            .iter()
            .map(|name| snapshot.table_data(name))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.cache.remember(config, sql, fingerprint, plan, inputs))
    }

    /// [`Engine::probe`], optimizing on a miss. Returns the ready-to-execute
    /// slot and whether it was a hit.
    fn prepare_at(&self, sql: &str) -> EngineResult<(Arc<Slot>, bool)> {
        match self.probe(sql)? {
            Probe::Hit(slot) => Ok((slot, true)),
            Probe::Miss(miss) => {
                let Miss { ast, config, fingerprint, snapshot } = *miss;
                let bound = bind(&ast, snapshot.catalog())?;
                let optimized = optimize_bound(&bound, snapshot.catalog(), &self.options)?;
                let plan = Arc::new(CachedPlan {
                    optimized,
                    table_names: bound.table_names,
                    binding_names: bound.binding_names,
                });
                self.cache.insert(fingerprint.clone(), snapshot.epoch(), Arc::clone(&plan));
                Ok((self.slot(config, sql, &fingerprint, &snapshot, plan)?, false))
            }
        }
    }

    /// Parse, bind and optimize (through the cache) without executing.
    pub fn prepare(&self, sql: &str) -> EngineResult<Arc<CachedPlan>> {
        Ok(Arc::clone(&self.prepare_at(sql)?.0.plan))
    }

    /// Run a query end to end. Repeated queries reuse the cached plan;
    /// execution always runs against the tables of the epoch the plan was
    /// optimized for.
    pub fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        let (slot, cache_hit) = self.prepare_at(sql)?;
        self.run_plan(&slot, cache_hit)
    }

    /// Run a query *only if* its plan is already cached: parse, fingerprint
    /// and probe the cache, but never optimize. `Ok(None)` signals a miss.
    /// This is the degraded service mode an overloaded server sheds to —
    /// cache hits skip binding, estimation and join enumeration, so serving
    /// only them bounds per-query planning work while under pressure.
    pub fn execute_if_cached(&self, sql: &str) -> EngineResult<Option<QueryResult>> {
        match self.probe(sql)? {
            Probe::Hit(slot) => self.run_plan(&slot, true).map(Some),
            Probe::Miss(_) => Ok(None),
        }
    }

    /// Execute a prepared plan on its slot's inputs. With `report` —
    /// EXPLAIN ANALYZE, or a feedback mode that observes — also build the
    /// per-operator estimated-vs-actual reports and fold their residuals
    /// into the shared feedback store.
    fn run_observed(
        &self,
        slot: &Slot,
        report: bool,
    ) -> EngineResult<(ExecOutput, Vec<OperatorReport>)> {
        let plan = &slot.plan;
        let (out, obs) =
            execute_plan_observed(&plan.optimized.plan, &slot.inputs, self.mode, None)?;
        if !report {
            return Ok((out, Vec::new()));
        }
        let operators =
            build_operator_reports(&plan.optimized.annotations, &plan.binding_names, &obs)
                .map_err(|e| EngineError::Exec(e.to_string()))?;
        let published = harvest_query(
            &self.catalog,
            self.options.feedback,
            &plan.optimized,
            &plan.table_names,
            &operators,
        );
        // Publications only matter to plans that would consult them:
        // invalidate under Apply, never churn the cache under Observe.
        if published > 0 && self.options.feedback.applies() {
            self.catalog.invalidate();
        }
        Ok((out, operators))
    }

    /// The shared tail of [`Engine::execute`] and
    /// [`Engine::execute_if_cached`].
    fn run_plan(&self, slot: &Slot, cache_hit: bool) -> EngineResult<QueryResult> {
        let (out, _) = self.run_observed(slot, self.options.feedback.observes())?;
        let plan = &slot.plan;
        let mut join_order = Vec::with_capacity(plan.optimized.join_order.len());
        for &t in &plan.optimized.join_order {
            let name = plan.binding_names.get(t).ok_or_else(|| {
                EngineError::Optimizer(format!("join order names table {t} outside the FROM list"))
            })?;
            join_order.push(name.clone());
        }
        Ok(QueryResult {
            rows: out.rows,
            count: out.count,
            metrics: out.metrics,
            join_order,
            estimated_sizes: plan.optimized.estimated_sizes.clone(),
            cache_hit,
        })
    }

    /// An EXPLAIN-style report: the planning estimator, the rewritten
    /// predicates, equivalence classes, Section 6 adjustments, effective
    /// statistics and per-step selectivity choices as Algorithm ELS reports
    /// them, the estimated sizes, and the plan tree. Goes through the plan
    /// cache like [`Engine::execute`].
    pub fn explain(&self, sql: &str) -> EngineResult<String> {
        let (slot, _) = self.prepare_at(sql)?;
        explain_report(sql, &slot.plan.binding_names, &slot.plan.optimized)
    }

    /// EXPLAIN ANALYZE: run the query (through the plan cache) and report,
    /// per operator, the optimizer's estimated cardinality next to the
    /// measured one — the estimation-quality view the paper's experiment
    /// table is built from. `cache_hit` in the report tells whether the
    /// estimates came from a previously cached plan. The report also lands
    /// in the process-wide [`els_exec::MetricsRegistry`], under the
    /// estimator's rule name. Render with `Display` for the human-readable
    /// tree.
    pub fn explain_analyze(&self, sql: &str) -> EngineResult<ExplainAnalyzeReport> {
        let (slot, cache_hit) = self.prepare_at(sql)?;
        let (out, operators) = self.run_observed(&slot, true)?;
        let optimized = &slot.plan.optimized;
        // Alternative estimators have no selectivity rule; key their accuracy
        // samples in the registry by estimator name instead.
        let rule = match optimized.strategy() {
            EstimatorStrategy::Els => optimized.els.options().rule.short_name().to_owned(),
            _ => optimized.estimator().name().to_owned(),
        };
        let report = ExplainAnalyzeReport {
            sql: sql.to_owned(),
            rule,
            mode: self.mode,
            cache_hit,
            corrections_applied: optimized.corrections_applied,
            result_rows: out.count,
            operators,
            metrics: out.metrics,
        };
        report.record(MetricsRegistry::global());
        Ok(report)
    }
}

/// What [`Engine::probe`] found out about one query text. Only a miss
/// carries an AST and a snapshot: a hit by text took neither.
enum Probe {
    Hit(Arc<Slot>),
    Miss(Box<Miss>),
}

/// What [`Engine::prepare_at`] needs to plan a text no plan was found for.
struct Miss {
    ast: els_sql::Query,
    /// The engine's `options.config_fingerprint()`.
    config: u64,
    /// The plan-cache key: canonical SQL plus `config`.
    fingerprint: String,
    /// The snapshot the plan was looked up, and is to be made, at.
    snapshot: CatalogSnapshot,
}

/// Harvest an executed query's operator reports into the catalog's
/// feedback store (no-op when `feedback` is `Off`) and mirror the activity
/// into [`MetricsRegistry::global`]. Returns the number of publications
/// granted; the caller coalesces any positive count into a single plan
/// invalidation, so one execution never bumps the epoch more than once.
fn harvest_query(
    catalog: &SharedCatalog,
    feedback: FeedbackMode,
    optimized: &OptimizedQuery,
    table_names: &[String],
    operators: &[OperatorReport],
) -> u64 {
    if !feedback.observes() {
        return 0;
    }
    // Residuals are defined against the ELS pipeline's estimates; operator
    // reports built from an alternative estimator would poison the store.
    if optimized.strategy() != EstimatorStrategy::Els {
        return 0;
    }
    let names: Vec<&str> = table_names.iter().map(String::as_str).collect();
    let Ok(corrections) = catalog.snapshot().corrections(&names) else {
        return 0;
    };
    // `corrected` must describe the *plan's* estimates, not the mode: an
    // Apply-mode plan optimized before anything was published carries raw
    // estimates, and composing a mid-query publication back out of them
    // would inflate every subsequent residual of the same execution.
    let corrected = optimized.corrections_applied > 0;
    let (observed, published) =
        harvest_feedback(operators, &optimized.els, &corrections, corrected);
    MetricsRegistry::global().record_feedback(observed, optimized.corrections_applied, published);
    published
}

/// Render [`Engine::explain`]'s report: who sized the plan, Algorithm ELS's
/// own account of the query ([`els_core::Els::report`], under the legend its
/// `R{t}` names need), the chosen order with its sizes and cost, and the plan.
fn explain_report(
    sql: &str,
    binding_names: &[String],
    optimized: &OptimizedQuery,
) -> EngineResult<String> {
    let report =
        optimized.els.report(&optimized.join_order).map_err(els_optimizer::OptimizerError::from)?;
    let name = |t: usize| binding_names.get(t).map_or("?", String::as_str);
    let legend: Vec<String> =
        (0..binding_names.len()).map(|t| format!("R{t} = {}", name(t))).collect();
    let order: Vec<&str> = optimized.join_order.iter().map(|&t| name(t)).collect();
    let aside = match optimized.strategy() {
        EstimatorStrategy::Els => "",
        _ => " (Algorithm ELS's account below is for reference)",
    };
    Ok(format!(
        "query: {sql}\nplanned by: {}{aside}\ntables: {}\n{report}\
         join order: {} | estimated sizes: {:?} | cost: {:.1}\nplan:\n{}",
        optimized.estimator().name(),
        legend.join(", "),
        order.join(" ⋈ "),
        optimized.estimated_sizes,
        optimized.estimated_cost,
        optimized.plan.root.explain()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_exec::execute_plan_with;
    use els_storage::datagen::{ColumnSpec, Distribution};

    fn table_a() -> TableSpec {
        TableSpec::new("a", 1000)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
    }

    fn table_b() -> TableSpec {
        TableSpec::new("b", 500)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
    }

    fn loaded(engine: Engine) -> Engine {
        engine.generate(table_a(), 1).unwrap();
        engine.generate(table_b(), 2).unwrap();
        engine
    }

    fn engine() -> Engine {
        loaded(Engine::new())
    }

    /// `sql`'s prepared plan run by the row-at-a-time reference oracle.
    fn row_oracle(engine: &Engine, sql: &str) -> ExecOutput {
        let plan = engine.prepare(sql).unwrap();
        let snapshot = engine.snapshot();
        let tables: Vec<_> =
            plan.table_names.iter().map(|name| snapshot.table_data(name).unwrap()).collect();
        execute_plan_with(&plan.optimized.plan, &tables, ExecMode::RowAtATime).unwrap()
    }

    #[test]
    fn count_star_round_trip() {
        let engine = engine();
        let r = engine.execute("SELECT COUNT(*) FROM a WHERE k < 100").unwrap();
        assert_eq!(r.count, 100);
        assert_eq!(r.join_order, vec!["a"]);
    }

    #[test]
    fn join_round_trip_with_estimates() {
        let engine = engine();
        let r = engine.execute("SELECT COUNT(*) FROM a, b WHERE a.k = b.k").unwrap();
        assert_eq!(r.count, 500);
        assert_eq!(r.estimated_sizes, vec![500.0]);
        assert_eq!(r.join_order.len(), 2);
    }

    #[test]
    fn inequality_join_round_trip() {
        // a.k in 0..1000, b.k in 0..500: |{(x,y) : x < y}| = Σ_{y<500} y.
        let expected: u64 = (0..500u64).sum();
        let engine = engine();
        let sql = "SELECT COUNT(*) FROM a, b WHERE a.k < b.k";
        let r = engine.execute(sql).unwrap();
        assert_eq!(r.count, expected);
        assert_eq!(r.join_order.len(), 2);
        assert_eq!(row_oracle(&engine, sql).count, expected);
        // BETWEEN on a column pair binds to two inequality edges.
        let band =
            engine.execute("SELECT COUNT(*) FROM a, b WHERE a.k BETWEEN b.k AND b.k").unwrap();
        assert_eq!(band.count, 500, "degenerate band is the equi-join");
    }

    #[test]
    fn explain_analyze_reports_range_join_q_error() {
        let engine = engine();
        let expected: u64 = (0..500u64).sum();
        let rep = engine.explain_analyze("SELECT COUNT(*) FROM a, b WHERE a.k < b.k").unwrap();
        assert_eq!(rep.result_rows, expected);
        let joins: Vec<_> = rep.join_operators().collect();
        assert_eq!(joins.len(), 1);
        assert!(joins[0].label.contains("RANGE"), "band join expected: {}", joins[0].label);
        assert_eq!(joins[0].actual, expected);
        let q = joins[0].q_error();
        assert!(q.is_finite() && q >= 1.0, "qerr {q}");
        assert!(rep.metrics.range_join_rows >= expected, "{}", rep.metrics);
        let text = rep.to_string();
        assert!(text.contains("Join<RANGE>"), "{text}");
        assert!(text.contains("qerr="), "{text}");
    }

    #[test]
    fn estimator_is_switchable() {
        let engine = loaded(Engine::with_options(OptimizerOptions::preset(
            els_optimizer::EstimatorPreset::Sm,
        )));
        let r = engine.execute("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 10").unwrap();
        assert_eq!(r.count, 10);
    }

    #[test]
    fn explain_contains_the_key_sections() {
        let engine = engine();
        let text =
            engine.explain("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 10").unwrap();
        assert!(text.contains("equivalence classes"));
        assert!(text.contains("join order"));
        assert!(text.contains("Scan"));
        assert!(text.contains("effective statistics"));
    }

    #[test]
    fn explain_names_the_estimator_that_sized_the_plan() {
        let sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 10";
        let text = engine().explain(sql).unwrap();
        // Algorithm ELS's own report, not a summary of it: the per-step choices.
        for part in ["planned by: els\n", "R0 = a, R1 = b", "join steps:", "-> chose"] {
            assert!(text.contains(part), "no `{part}` in:\n{text}");
        }
        let options = OptimizerOptions::default().with_strategy(EstimatorStrategy::UpperBound);
        let text = loaded(Engine::with_options(options)).explain(sql).unwrap();
        assert!(text.contains("planned by: upper-bound (Algorithm ELS's account"), "{text}");
    }

    #[test]
    fn errors_are_classified() {
        let engine = loaded(Engine::new().cache_capacity(0));
        assert!(matches!(engine.execute("NOT SQL"), Err(EngineError::Sql(_))));
        assert!(matches!(engine.execute("SELECT COUNT(*) FROM nope"), Err(EngineError::Sql(_))));
        let dup = TableSpec::new("a", 1)
            .column(ColumnSpec::new("k", Distribution::ConstInt { value: 0 }))
            .generate(9);
        assert!(matches!(engine.register(dup), Err(EngineError::Catalog(_))));
    }

    #[test]
    fn projection_queries_return_rows() {
        let engine = engine();
        let r = engine.execute("SELECT a.k FROM a, b WHERE a.k = b.k AND a.k < 3").unwrap();
        assert_eq!(r.count, 3);
        assert_eq!(r.rows.num_columns(), 1);
    }

    #[test]
    fn limit_on_count_star_keeps_the_aggregate() {
        let engine = engine();
        // (count, first row, rows returned), which the row oracle must match.
        let run = |sql: &str| {
            let (got, row) = (engine.execute(sql).unwrap(), row_oracle(&engine, sql));
            let summary = |rows: &Table, count| (count, rows.row(0).ok(), rows.num_rows());
            assert_eq!(summary(&row.rows, row.count), summary(&got.rows, got.count), "{sql}");
            summary(&got.rows, got.count)
        };
        let count = vec![els_storage::Value::Int(1000)];
        assert_eq!(run("SELECT COUNT(*) FROM a LIMIT 5"), (1000, Some(count), 1));
        assert_eq!(run("SELECT COUNT(*) FROM a LIMIT 0"), (0, None, 0));
        // Everywhere else the count is the number of rows returned.
        let grouped = run("SELECT k, COUNT(*) FROM a GROUP BY k LIMIT 5");
        assert_eq!((grouped.0, grouped.2), (5, 5));
        let plain = run("SELECT k FROM a LIMIT 5");
        assert_eq!((plain.0, plain.2), (5, 5));
    }

    #[test]
    fn engine_matches_database_and_reports_hits() {
        let engine = engine();
        let sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k";
        let cold = engine.execute(sql).unwrap();
        assert_eq!(cold.count, 500);
        assert!(!cold.cache_hit);
        // Same semantics, different formatting → same cache entry.
        let warm = engine.execute("select count(*)  from a, b where b.k = a.k").unwrap();
        assert_eq!(warm.count, 500);
        assert!(warm.cache_hit);
        assert_eq!(warm.join_order, cold.join_order);
        assert_eq!(warm.estimated_sizes, cold.estimated_sizes);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn two_spellings_are_two_names_for_one_entry() {
        let cached = engine();
        let twin = engine().cache_capacity(0);
        let spellings = [
            "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 10",
            "select  count(*)  from a, b  where b.k = a.k and a.k < 10",
        ];
        for round in 0..3 {
            for (i, sql) in spellings.iter().enumerate() {
                let (got, want) = (cached.execute(sql).unwrap(), twin.execute(sql).unwrap());
                // Only the very first sighting plans; the second spelling
                // finds the entry the long way, every later send by text.
                assert_eq!(got.cache_hit, (round, i) != (0, 0), "round {round} `{sql}`");
                assert!(!want.cache_hit);
                assert_eq!(got.count, want.count);
                assert_eq!(got.join_order, want.join_order);
                assert_eq!(got.estimated_sizes, want.estimated_sizes);
                assert_eq!(logical(got.metrics), logical(want.metrics));
            }
        }
        assert_eq!(cached.plan_cache().len(), 1);
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses), (5, 1));
    }

    #[test]
    fn flipped_inequalities_share_a_cache_entry() {
        // `a.k < b.k` and `b.k > a.k` canonicalize to the same fingerprint.
        let engine = engine();
        let cold = engine.execute("SELECT COUNT(*) FROM a, b WHERE a.k < b.k").unwrap();
        assert!(!cold.cache_hit);
        let warm = engine.execute("SELECT COUNT(*) FROM a, b WHERE b.k > a.k").unwrap();
        assert!(warm.cache_hit, "flipped comparison must reuse the cached plan");
        assert_eq!(warm.count, cold.count);
    }

    #[test]
    fn range_feedback_learns_band_join_corrections() {
        // A band join over Zipf-skewed columns: mass piles up on small
        // values, so the uniform fraction misprices `r.k < s.k`. The
        // feedback loop must harvest a range-keyed residual and improve
        // (or at least not regress) the repeated estimate.
        let engine = Engine::new().feedback(FeedbackMode::Apply);
        for (name, seed) in [("r", 21), ("s", 22)] {
            engine
                .generate(
                    TableSpec::new(name, 800).column(ColumnSpec::new(
                        "k",
                        Distribution::ZipfInt { n: 400, theta: 1.0, start: 0 },
                    )),
                    seed,
                )
                .unwrap();
        }
        let sql = "SELECT COUNT(*) FROM r, s WHERE r.k < s.k";
        let q = |est: f64, act: f64| (est.max(1.0) / act).max(act / est.max(1.0));
        let first = engine.execute(sql).unwrap();
        let actual = first.count as f64;
        assert!(actual > 0.0);
        let q1 = q(*first.estimated_sizes.last().unwrap(), actual);
        let second = engine.execute(sql).unwrap();
        let q2 = q(*second.estimated_sizes.last().unwrap(), actual);
        assert!(q2 <= q1 + 1e-9, "range feedback regressed: {q1} -> {q2}");
        let counters = engine.snapshot().feedback().counters();
        assert!(counters.learned >= 1, "band-join residual must be harvested");
    }

    #[test]
    fn strategy_switch_never_replays_the_other_estimators_plan() {
        // Three engines that differ only in the estimator strategy, on one
        // shared cache: the strategy is in the key, so byte-identical SQL
        // is three entries and no engine is ever served another's plan.
        let shared = Arc::new(PlanCache::new(64));
        let sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k";
        let strategies =
            [EstimatorStrategy::Els, EstimatorStrategy::NoEstimates, EstimatorStrategy::UpperBound];
        let engines = strategies.map(|strategy| {
            let options = OptimizerOptions::default().with_strategy(strategy);
            loaded(Engine::with_options(options).shared_cache(Arc::clone(&shared)))
        });
        let first = engines.each_ref().map(|e| e.execute(sql).unwrap());
        for ((engine, strategy), r) in engines.iter().zip(strategies).zip(&first) {
            assert_eq!(engine.current_strategy(), strategy);
            assert!(!r.cache_hit, "{strategy:?} must plan its own entry");
            assert_eq!(r.count, 500, "{strategy:?}");
        }
        // ELS is exact here; no-estimates sizes a join as its bigger input;
        // UES bounds it by min(‖a‖·MF_b, ‖b‖·MF_a).
        let sizes = first.each_ref().map(|r| r.estimated_sizes.clone());
        assert_eq!(sizes, [vec![500.0], vec![1000.0], vec![500.0]]);
        // Repeats, in reverse order: each hits its own entry.
        for ((engine, strategy), r) in engines.iter().zip(strategies).zip(&first).rev() {
            let again = engine.execute(sql).unwrap();
            assert!(again.cache_hit, "{strategy:?}");
            assert_eq!(again.estimated_sizes, r.estimated_sizes, "{strategy:?}");
            assert_eq!(engine.prepare(sql).unwrap().optimized.strategy(), strategy);
        }
        assert_eq!(shared.len(), 3);
    }

    #[test]
    fn engine_register_bumps_epoch_and_invalidates() {
        let engine = engine();
        let sql = "SELECT COUNT(*) FROM a WHERE k < 100";
        assert!(!engine.execute(sql).unwrap().cache_hit);
        assert!(engine.execute(sql).unwrap().cache_hit);
        let epoch = engine.epoch();
        engine
            .generate(
                TableSpec::new("c", 10)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                3,
            )
            .unwrap();
        assert_eq!(engine.epoch(), epoch + 1);
        let after = engine.execute(sql).unwrap();
        assert!(!after.cache_hit, "stale-epoch plan must not be served");
        assert_eq!(after.count, 100);
        assert_eq!(engine.cache_stats().invalidations, 1);
        // The same bytes a fourth time name the re-planned entry.
        assert!(engine.execute(sql).unwrap().cache_hit);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (2, 2, 1));
        assert_eq!(engine.plan_cache().len(), 1);
    }

    /// The counters a cached and an uncached run must agree on: everything
    /// but wall time.
    fn logical(mut m: ExecMetrics) -> ExecMetrics {
        m.elapsed = std::time::Duration::ZERO;
        m
    }

    #[test]
    fn engine_zero_capacity_never_hits() {
        let engine = Engine::new().cache_capacity(0);
        engine
            .generate(
                TableSpec::new("t", 100)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                1,
            )
            .unwrap();
        for _ in 0..3 {
            assert!(!engine.execute("SELECT COUNT(*) FROM t").unwrap().cache_hit);
        }
        assert_eq!(engine.cache_stats().hits, 0);
    }

    #[test]
    fn engine_errors_are_classified_like_database() {
        // The cache-fronted engine classifies like the uncached one
        // (`errors_are_classified`), on every query method.
        let engine = engine();
        assert!(matches!(engine.execute("NOT SQL"), Err(EngineError::Sql(_))));
        assert!(matches!(engine.execute_if_cached("NOT SQL"), Err(EngineError::Sql(_))));
        assert!(matches!(engine.prepare("SELECT COUNT(*) FROM nope"), Err(EngineError::Sql(_))));
        assert!(matches!(engine.explain("SELECT COUNT(*) FROM nope"), Err(EngineError::Sql(_))));
        assert!(matches!(engine.explain_analyze("NOT SQL"), Err(EngineError::Sql(_))));
    }

    #[test]
    fn engine_exec_workers_sets_mode_and_cost_hook() {
        let sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k";
        let serial = engine();
        serial.execute(sql).unwrap();
        let default_config = *serial.config.get().unwrap();
        let engine = serial.exec_workers(4);
        assert_eq!(engine.mode, ExecMode::Vectorized { workers: 4 });
        assert_eq!(engine.options.cost.probe_parallelism, 4.0);
        // Parallel execution returns the same answers as the default engine.
        assert_eq!(engine.execute(sql).unwrap().count, 500);
        // The worker count is part of the configuration, hence of the key:
        // the builder forgot the fingerprint memoised before it.
        assert_eq!(engine.config.get(), Some(&engine.options().config_fingerprint()));
        assert_ne!(engine.config.get(), Some(&default_config));
        // Degenerate worker counts clamp to serial rather than breaking costs.
        let clamped = Engine::new().exec_workers(0);
        assert_eq!(clamped.mode, ExecMode::Vectorized { workers: 1 });
        assert_eq!(clamped.options.cost.probe_parallelism, 1.0);
    }

    fn zipf_engine(mode: FeedbackMode) -> Engine {
        // Without histograms the uniform model badly misestimates `k < 10`
        // over a Zipf-skewed column — the feedback loop's bread and butter.
        let engine = Engine::new().feedback(mode);
        engine
            .generate(
                TableSpec::new("z", 2000).column(ColumnSpec::new(
                    "k",
                    Distribution::ZipfInt { n: 1000, theta: 1.0, start: 0 },
                )),
                7,
            )
            .unwrap();
        engine
    }

    #[test]
    fn feedback_apply_corrects_repeated_queries() {
        let engine = zipf_engine(FeedbackMode::Apply);
        let sql = "SELECT COUNT(*) FROM z WHERE k < 10";
        let first = engine.explain_analyze(sql).unwrap();
        assert!(
            first.query_q_error() > 2.0,
            "workload not skewed enough: {}",
            first.query_q_error()
        );
        // Harvesting the first run publishes a correction (the residual is
        // way past the 2x drift threshold), which invalidates the cached
        // plan; the re-optimized estimate is built from the observed
        // cardinality and lands near-exact.
        let second = engine.explain_analyze(sql).unwrap();
        assert!(!second.cache_hit, "publication must invalidate the cached plan");
        assert!(second.corrections_applied >= 1);
        assert!(
            second.query_q_error() <= first.query_q_error(),
            "feedback regressed: {} -> {}",
            first.query_q_error(),
            second.query_q_error()
        );
        assert!(
            second.query_q_error() < 1.5,
            "correction should be near-exact: {}",
            second.query_q_error()
        );
        // The corrected estimate is stable: no further drift, no churn —
        // the third run reuses the corrected plan.
        assert!(second.to_string().contains("corrected="), "{second}");
        let third = engine.explain_analyze(sql).unwrap();
        assert!(third.cache_hit, "stable corrections must not churn the cache");
        let counters = engine.snapshot().feedback().counters();
        assert!(counters.learned >= 3);
        assert_eq!(counters.epoch_bumps, 1, "exactly one publication expected");
    }

    #[test]
    fn feedback_observe_learns_without_changing_estimates() {
        let engine = zipf_engine(FeedbackMode::Observe);
        let sql = "SELECT COUNT(*) FROM z WHERE k < 10";
        let first = engine.execute(sql).unwrap();
        let second = engine.execute(sql).unwrap();
        // Observe never consults the store and never invalidates plans.
        assert!(second.cache_hit);
        assert_eq!(first.estimated_sizes, second.estimated_sizes);
        assert_eq!(engine.cache_stats().invalidations, 0);
        let counters = engine.snapshot().feedback().counters();
        assert!(counters.learned >= 2, "observe mode must still harvest");
        assert_eq!(counters.applied, 0, "observe mode must never apply");
    }

    #[test]
    fn feedback_join_corrections_improve_skewed_joins() {
        // Two Zipf columns joined: frequent values pair up, so the actual
        // join size far exceeds the containment estimate ||R||·||S||/d.
        let engine = Engine::new().feedback(FeedbackMode::Apply);
        for (name, seed) in [("r", 11), ("s", 12)] {
            engine
                .generate(
                    TableSpec::new(name, 1000).column(ColumnSpec::new(
                        "k",
                        Distribution::ZipfInt { n: 100, theta: 1.0, start: 0 },
                    )),
                    seed,
                )
                .unwrap();
        }
        let sql = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k";
        let q = |est: f64, act: f64| (est.max(1.0) / act).max(act / est.max(1.0));
        let first = engine.execute(sql).unwrap();
        let actual = first.count as f64;
        let q1 = q(*first.estimated_sizes.last().unwrap(), actual);
        assert!(q1 > 2.0, "join workload not skewed enough: {q1}");
        let second = engine.execute(sql).unwrap();
        let q2 = q(*second.estimated_sizes.last().unwrap(), actual);
        assert!(q2 <= q1, "join feedback regressed: {q1} -> {q2}");
        assert!(q2 < 1.5, "join correction should be near-exact: {q2}");
    }

    #[test]
    fn execute_if_cached_probes_without_optimizing() {
        let engine = engine();
        let sql = "SELECT COUNT(*) FROM a WHERE k < 100";
        // Cold cache: a probe is a clean miss, not an optimization.
        assert!(engine.execute_if_cached(sql).unwrap().is_none());
        assert_eq!(engine.cache_stats().misses, 1);
        let cold = engine.execute(sql).unwrap();
        assert!(!cold.cache_hit);
        let hit = engine.execute_if_cached(sql).unwrap().expect("plan is cached now");
        assert!(hit.cache_hit);
        assert_eq!(hit.count, cold.count);
        // Parse errors still surface as typed errors, not as misses.
        assert!(matches!(engine.execute_if_cached("NOT SQL"), Err(EngineError::Sql(_))));
    }

    #[test]
    fn plan_lanes_isolate_tenants_on_a_shared_cache() {
        let shared = Arc::new(PlanCache::new(64));
        let mk = |lane: u64| {
            let e = Engine::new().shared_cache(Arc::clone(&shared)).plan_lane(lane);
            e.generate(
                TableSpec::new("t", 1000)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                lane + 1,
            )
            .unwrap();
            e
        };
        let (a, b) = (mk(1), mk(2));
        let sql = "SELECT COUNT(*) FROM t WHERE k < 50";
        assert!(!a.execute(sql).unwrap().cache_hit);
        // Tenant B issues byte-identical SQL on the same shared cache and
        // still misses: the lane salt keeps A's plan out of reach.
        assert!(!b.execute(sql).unwrap().cache_hit, "lane isolation violated");
        assert!(b.execute_if_cached(sql).unwrap().expect("B's own plan").cache_hit);
        assert!(a.execute(sql).unwrap().cache_hit, "A's entry must survive B's traffic");
        // Both lanes now know the text, as two aliases of two entries.
        assert!(a.execute(sql).unwrap().cache_hit && b.execute(sql).unwrap().cache_hit);
        assert_eq!(shared.len(), 2);
    }
}
