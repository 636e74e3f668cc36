//! The query path taken apart: the public calls `Engine::prepare_at` and
//! `Engine::run_plan` (private, in `src/engine.rs`) make internally, in
//! the same order, each inside a span. It runs against a real [`Engine`]'s
//! catalog and plan cache, so its hits, misses and evictions are the
//! engine's own. The traced run checks every operation of this copy against
//! `Engine::execute` on a twin engine; a divergence means this file has
//! drifted from `src/engine.rs`.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use els::engine::Engine;
use els_core::{
    CardinalityEstimator, Els, ElsResult, JoinState, NoCorrections, Predicate, QueryStatistics,
    TableId,
};
use els_exec::plan::PlanOutput;
use els_exec::{execute_plan_with, ExecMetrics, ExecMode, QueryPlan};
use els_optimizer::enumerate::enumerate;
use els_optimizer::{optimize, CachedPlan, OptimizedQuery, OptimizerOptions, TableProfile};
use els_sql::{bind, canonical_sql, parse, BoundProjection};
use els_storage::Table;

use crate::span::Tracer;

/// What one decomposed operation produced: everything the fidelity check
/// compares with `Engine::execute`'s `QueryResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub count: u64,
    pub rows_out: u64,
    pub join_order: Vec<String>,
    pub estimated_sizes: Vec<f64>,
    pub cache_hit: bool,
    pub metrics: ExecMetrics,
}

/// Hands `enumerate` the estimator unchanged, counting and timing the
/// calls the dynamic program makes into it.
#[derive(Debug)]
struct CountingEstimator<'a> {
    inner: &'a dyn CardinalityEstimator,
    calls: Cell<u32>,
    nanos: Cell<u64>,
}

impl CountingEstimator<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos.set(self.nanos.get() + start.elapsed().as_nanos() as u64);
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
        self.timed(|| self.inner.initial_state(table))
    }
    fn join(&self, state: &JoinState, table: TableId) -> ElsResult<JoinState> {
        self.timed(|| self.inner.join(state, table))
    }
    fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState> {
        self.timed(|| self.inner.join_sets(a, b))
    }
}

pub struct Decomposed<'a> {
    engine: &'a Engine,
    options: OptimizerOptions,
    mode: ExecMode,
    /// `OptimizedQuery` has a crate-private field, so a cache entry cannot
    /// be built from parts; every entry starts as a clone of this trivial
    /// one and has its public fields overwritten.
    template: OptimizedQuery,
}

impl<'a> Decomposed<'a> {
    pub fn new(engine: &'a Engine, mode: ExecMode) -> Result<Decomposed<'a>, String> {
        let options = engine.options().clone().with_strategy(engine.current_strategy());
        let template = optimize(
            &[],
            &QueryStatistics::new(vec![els_core::TableStatistics::new(1.0, vec![])]),
            &[TableProfile::synthetic(1.0, 8)],
            PlanOutput::CountStar,
            &options,
        )
        .map_err(|e| e.to_string())?;
        Ok(Decomposed { engine, options, mode, template })
    }

    /// One query, stage by stage, as children of `root`.
    pub fn execute(
        &self,
        tracer: &mut Tracer,
        op: u32,
        root: u32,
        sql: &str,
    ) -> Result<Outcome, String> {
        let parent = Some(root);
        let err = |e: &dyn std::fmt::Display| e.to_string();

        // --- Engine::prepare_at
        let ast = tracer.scope("sql.parse", op, parent, || parse(sql)).map_err(|e| err(&e))?;
        let fingerprint = tracer.scope("sql.fingerprint", op, parent, || {
            format!("{}#{:016x}", canonical_sql(&ast), self.options.config_fingerprint())
        });
        let snapshot = tracer.scope("catalog.snapshot", op, parent, || self.engine.snapshot());
        let cache = self.engine.plan_cache();
        let cached = tracer
            .scope("plan_cache.get", op, parent, || cache.get(&fingerprint, snapshot.epoch()));
        let cache_hit = cached.is_some();
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let catalog = snapshot.catalog();
                let bound = tracer
                    .scope("sql.bind", op, parent, || bind(&ast, catalog))
                    .map_err(|e| err(&e))?;
                // optimize_bound: statistics, profiles and oracle ...
                let from: Vec<&str> = bound.table_names.iter().map(String::as_str).collect();
                let stats_id = tracer.begin("catalog.statistics", op, parent);
                let stats = catalog.query_statistics(&from).map_err(|e| err(&e))?;
                let profiles = from
                    .iter()
                    .map(|name| Ok(TableProfile::of(catalog.table_data(name)?.as_ref())))
                    .collect::<Result<Vec<_>, els_catalog::CatalogError>>()
                    .map_err(|e| err(&e))?;
                let oracle = catalog.oracle(&from).map_err(|e| err(&e))?;
                tracer.end(stats_id);
                let output = match &bound.projection {
                    BoundProjection::CountStar => PlanOutput::CountStar,
                    BoundProjection::Star => PlanOutput::Star,
                    BoundProjection::Columns(cols) => PlanOutput::Columns(cols.clone()),
                    BoundProjection::GroupCount(cols) => PlanOutput::GroupCount(cols.clone()),
                };
                // ... then optimize_full: prepare the estimator, enumerate.
                let els = tracer
                    .scope("core.prepare", op, parent, || {
                        Els::prepare_full(
                            &bound.predicates,
                            &stats,
                            &self.options.els,
                            &oracle,
                            &NoCorrections,
                        )
                    })
                    .map_err(|e| err(&e))?;
                let counting =
                    CountingEstimator { inner: &els, calls: Cell::new(0), nanos: Cell::new(0) };
                let enumerate_id = tracer.begin("optimizer.enumerate", op, parent);
                let result = enumerate(
                    &counting,
                    &profiles,
                    &self.options.join_methods,
                    &self.options.cost,
                    self.options.tree_shape,
                );
                tracer.end(enumerate_id);
                let result = result.map_err(|e| err(&e))?;
                let enumerate_start = tracer.spans()[enumerate_id as usize].start_ns;
                tracer.add(
                    "core.estimate",
                    op,
                    Some(enumerate_id),
                    enumerate_start,
                    counting.nanos.get(),
                    counting.calls.get(),
                );
                let mut optimized = self.template.clone();
                optimized.plan = QueryPlan::new(result.root, output);
                optimized.plan.order_by = bound.order_by.clone();
                optimized.plan.limit = bound.limit;
                optimized.join_order = result.join_order;
                optimized.estimated_sizes = result.estimated_sizes;
                optimized.estimated_cost = result.estimated_cost;
                optimized.els = els;
                let plan = Arc::new(CachedPlan {
                    optimized,
                    table_names: bound.table_names,
                    binding_names: bound.binding_names,
                });
                tracer.scope("plan_cache.insert", op, parent, || {
                    cache.insert(fingerprint, snapshot.epoch(), Arc::clone(&plan));
                });
                plan
            }
        };

        // --- Engine::run_plan
        let tables: Vec<Arc<Table>> = plan
            .table_names
            .iter()
            .map(|name| snapshot.table_data(name))
            .collect::<Result<_, _>>()
            .map_err(|e| err(&e))?;
        let out = tracer
            .scope("exec.run", op, parent, || {
                execute_plan_with(&plan.optimized.plan, &tables, self.mode)
            })
            .map_err(|e| err(&e))?;
        let join_order =
            plan.optimized.join_order.iter().map(|&t| plan.binding_names[t].clone()).collect();
        Ok(Outcome {
            count: out.count,
            rows_out: out.rows.num_rows() as u64,
            join_order,
            estimated_sizes: plan.optimized.estimated_sizes.clone(),
            cache_hit,
            metrics: out.metrics,
        })
    }
}
