//! Random workload generation for estimator-quality studies.
//!
//! Produces `(catalog, query)` pairs over seeded synthetic data: chain and
//! star join shapes with optional local filters, small enough that ground
//! truth can be obtained by executing the query. Used by the q-error study
//! (experiment F9) and reusable from tests.

use els_catalog::collect::CollectOptions;
use els_catalog::Catalog;
use els_sql::{bind, parse, BoundQuery};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The join shape of a generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `t0 ⋈ t1 ⋈ … ⋈ tn` on adjacent keys.
    Chain,
    /// `t0 ⋈ ti` for every i (t0 is the hub).
    Star,
}

/// Parameters of one random workload family.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of joined tables (>= 2).
    pub tables: usize,
    /// Join shape.
    pub shape: Shape,
    /// Probability that each table receives a range filter.
    pub filter_probability: f64,
    /// Rows per table are drawn from `min_rows..=max_rows`.
    pub min_rows: usize,
    /// Upper bound on rows per table.
    pub max_rows: usize,
    /// Zipf skew of join columns (0 = uniform-cyclic, the model-exact case).
    pub theta: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            tables: 3,
            shape: Shape::Chain,
            filter_probability: 0.5,
            min_rows: 50,
            max_rows: 400,
            theta: 0.0,
        }
    }
}

/// One generated instance: a catalog and a bound COUNT(*) query over it.
#[derive(Debug, Clone)]
pub struct WorkloadInstance {
    /// The catalog holding the generated tables.
    pub catalog: Catalog,
    /// The SQL text (for reports).
    pub sql: String,
    /// The bound query.
    pub bound: BoundQuery,
}

/// Generate one instance of the family, deterministically from `seed`.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> WorkloadInstance {
    assert!(spec.tables >= 2, "a join workload needs at least two tables");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();

    // Per-table key domains 0..domain_i: containment holds by construction
    // (smaller domains are prefixes of larger ones), while differing
    // column cardinalities make the selectivity-choice rules diverge.
    let mut names = Vec::new();
    for i in 0..spec.tables {
        let rows = rng.gen_range(spec.min_rows..=spec.max_rows);
        let domain = rng.gen_range(8..64u64);
        let name = format!("w{i}");
        let key_dist = if spec.theta > 0.0 {
            Distribution::ZipfInt { n: domain, theta: spec.theta, start: 0 }
        } else {
            Distribution::CycleInt { modulus: domain.min(rows as u64), start: 0 }
        };
        catalog
            .register(
                TableSpec::new(&name, rows)
                    .column(ColumnSpec::new("k", key_dist))
                    .column(ColumnSpec::new("f", Distribution::UniformInt { lo: 0, hi: 99 }))
                    .generate(seed.wrapping_mul(31).wrapping_add(i as u64)),
                &CollectOptions::default(),
            )
            .expect("fresh catalog accepts generated tables");
        names.push(name);
    }

    let mut conjuncts: Vec<String> = Vec::new();
    match spec.shape {
        Shape::Chain => {
            for i in 1..spec.tables {
                conjuncts.push(format!("{}.k = {}.k", names[i - 1], names[i]));
            }
        }
        Shape::Star => {
            for i in 1..spec.tables {
                conjuncts.push(format!("{}.k = {}.k", names[0], names[i]));
            }
        }
    }
    for name in &names {
        if rng.gen::<f64>() < spec.filter_probability {
            let cut = rng.gen_range(5..95);
            conjuncts.push(format!("{name}.f < {cut}"));
        }
    }
    let sql =
        format!("SELECT COUNT(*) FROM {} WHERE {}", names.join(", "), conjuncts.join(" AND "));
    let bound = bind(&parse(&sql).expect("generator emits valid SQL"), &catalog)
        .expect("generator emits bindable SQL");
    WorkloadInstance { catalog, sql, bound }
}

/// Quantiles of a sample (p in `[0, 1]`, nearest-rank).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        let a = generate(&spec, 7);
        let b = generate(&spec, 7);
        assert_eq!(a.sql, b.sql);
        let c = generate(&spec, 8);
        assert_ne!(a.sql, c.sql);
    }

    #[test]
    fn shapes_produce_expected_join_edges() {
        let chain = generate(&WorkloadSpec { tables: 4, ..Default::default() }, 1);
        assert!(chain.sql.contains("w0.k = w1.k"));
        assert!(chain.sql.contains("w2.k = w3.k"));
        let star =
            generate(&WorkloadSpec { tables: 4, shape: Shape::Star, ..Default::default() }, 1);
        assert!(star.sql.contains("w0.k = w1.k"));
        assert!(star.sql.contains("w0.k = w3.k"));
        assert!(!star.sql.contains("w1.k = w2.k"));
    }

    #[test]
    fn instances_execute_end_to_end() {
        for seed in 0..5 {
            let inst = generate(&WorkloadSpec::default(), seed);
            let tables = els_optimizer::bound_query_tables(&inst.bound, &inst.catalog).unwrap();
            let optimized = els_optimizer::optimize_bound(
                &inst.bound,
                &inst.catalog,
                &els_optimizer::OptimizerOptions::default(),
            )
            .unwrap();
            let out = els_exec::execute_plan_with(
                &optimized.plan,
                &tables,
                els_exec::ExecMode::default(),
            )
            .unwrap();
            // Sanity: finite result, metrics populated.
            assert!(out.metrics.tuples_scanned > 0, "seed {seed}");
        }
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
