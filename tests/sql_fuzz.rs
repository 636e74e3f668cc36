//! Randomized end-to-end consistency: generate random conjunctive queries
//! over a small catalog, run them through every estimator preset and every
//! enumeration strategy, and check all plans agree with brute force.
//!
//! This is the repository's failure-injection net: whatever predicate
//! combination the generator produces (duplicates, contradictions, chains,
//! stars, self-equivalences through closure), every configuration must
//! produce the same — correct — answer.

use std::sync::Arc;

use els::catalog::collect::CollectOptions;
use els::catalog::Catalog;
use els::core::Predicate;
use els::exec::{execute_plan_with, ExecMode};
use els::optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els::sql::{bind, parse};
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els::storage::Table;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    // Three small tables, two columns each, with overlapping domains so
    // joins sometimes match and sometimes don't.
    for (name, rows, seed) in [("t0", 24usize, 1u64), ("t1", 30, 2), ("t2", 18, 3)] {
        let t = TableSpec::new(name, rows)
            .column(ColumnSpec::new("a", Distribution::CycleInt { modulus: 8, start: 0 }))
            .column(ColumnSpec::new(
                "b",
                Distribution::WithNulls {
                    inner: Box::new(Distribution::UniformInt { lo: 0, hi: 11 }),
                    null_fraction: 0.1,
                },
            ))
            .generate(seed);
        c.register(t, &CollectOptions::default()).unwrap();
    }
    c
}

/// Brute-force evaluation of the bound conjunctive query.
fn brute_force(tables: &[Arc<Table>], predicates: &[Predicate]) -> u64 {
    fn matches(tables: &[Arc<Table>], row: &[usize], p: &Predicate) -> bool {
        let get = |c: &els::core::ColumnRef| {
            tables[c.table].column(c.column).unwrap().get(row[c.table]).unwrap()
        };
        match p {
            Predicate::LocalCmp { column, op, value } => {
                get(column).sql_cmp(value).map(|o| op.eval(o)).unwrap_or(false)
            }
            Predicate::IsNull { column, negated } => get(column).is_null() != *negated,
            Predicate::LocalColEq { left, right } | Predicate::JoinEq { left, right } => {
                get(left).sql_eq(&get(right))
            }
            Predicate::JoinRange { left, op, right } => {
                get(left).sql_cmp(&get(right)).map(|o| op.eval(o)).unwrap_or(false)
            }
        }
    }
    fn rec(tables: &[Arc<Table>], preds: &[Predicate], row: &mut Vec<usize>, d: usize) -> u64 {
        if d == tables.len() {
            return preds.iter().all(|p| matches(tables, row, p)) as u64;
        }
        let mut total = 0;
        for r in 0..tables[d].num_rows() {
            row[d] = r;
            total += rec(tables, preds, row, d + 1);
        }
        total
    }
    rec(tables, predicates, &mut vec![0; tables.len()], 0)
}

/// Generate a random conjunctive WHERE clause as SQL text.
fn random_query(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = ["t0", "t1", "t2"];
    let ntables = rng.gen_range(1..=3usize);
    let from: Vec<&str> = names[..ntables].to_vec();
    let cols = ["a", "b"];
    let mut conjuncts: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..5usize) {
        let t1 = rng.gen_range(0..ntables);
        let c1 = cols[rng.gen_range(0..2usize)];
        match rng.gen_range(0..5) {
            // Join / column equality.
            0 if ntables > 1 => {
                let t2 = rng.gen_range(0..ntables);
                let c2 = cols[rng.gen_range(0..2usize)];
                if t1 != t2 || c1 != c2 {
                    conjuncts.push(format!("{}.{c1} = {}.{c2}", from[t1], from[t2]));
                }
            }
            // Cross-table inequality (a band-join edge).
            4 if ntables > 1 => {
                let t2 = rng.gen_range(0..ntables);
                if t1 != t2 {
                    let c2 = cols[rng.gen_range(0..2usize)];
                    let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
                    conjuncts.push(format!("{}.{c1} {op} {}.{c2}", from[t1], from[t2]));
                }
            }
            // Constant comparison.
            1 => {
                let op = ["=", "<", "<=", ">", ">=", "<>"][rng.gen_range(0..6usize)];
                let v = rng.gen_range(-2i64..14);
                conjuncts.push(format!("{}.{c1} {op} {v}", from[t1]));
            }
            // BETWEEN.
            2 => {
                let lo = rng.gen_range(-2i64..10);
                let hi = lo + rng.gen_range(0i64..8);
                conjuncts.push(format!("{}.{c1} BETWEEN {lo} AND {hi}", from[t1]));
            }
            // Nullness.
            _ => {
                let neg = if rng.gen_bool(0.5) { " NOT" } else { "" };
                conjuncts.push(format!("{}.{c1} IS{neg} NULL", from[t1]));
            }
        }
    }
    let mut sql = format!("SELECT COUNT(*) FROM {}", from.join(", "));
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    sql
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_configuration_agrees_with_brute_force(seed in 0u64..10_000) {
        let catalog = catalog();
        let sql = random_query(seed);
        let bound = match bind(&parse(&sql).unwrap(), &catalog) {
            Ok(b) => b,
            // The generator can produce shapes the binder rejects (e.g.
            // non-equality between columns never happens here, but IS NULL
            // duplicates are fine) — rejections are not failures.
            Err(e) => return Err(TestCaseError::fail(format!("bind failed on `{sql}`: {e}"))),
        };
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let truth = brute_force(&tables, &bound.predicates);

        let mut configs: Vec<(String, OptimizerOptions)> = Vec::new();
        for preset in EstimatorPreset::all() {
            configs.push((preset.label().to_owned(), OptimizerOptions::preset(preset)));
        }
        configs.push((
            "ELS+hash+bushy".into(),
            OptimizerOptions::preset(EstimatorPreset::Els).with_hash_join().with_bushy_trees(),
        ));
        configs.push((
            "ELS+INL".into(),
            OptimizerOptions::preset(EstimatorPreset::Els).with_index_nested_loop(),
        ));

        for (label, options) in configs {
            let optimized = optimize_bound(&bound, &catalog, &options)
                .unwrap_or_else(|e| panic!("optimize failed ({label}) on `{sql}`: {e}"));
            let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default())
                .unwrap_or_else(|e| panic!("execute failed ({label}) on `{sql}`: {e}"));
            prop_assert_eq!(out.count, truth, "{} disagrees on `{}`", label, sql);
        }
    }
}

/// The same tokens in other bytes: keywords in either case, blanks doubled.
fn respell(sql: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut out = String::new();
    for word in sql.split(' ') {
        let keyword = !word.is_empty() && word.chars().all(|c| c.is_ascii_uppercase());
        if keyword && rng.gen_bool(0.5) {
            out.push_str(&word.to_lowercase());
        } else {
            out.push_str(word);
        }
        out.push_str(if rng.gen_bool(0.5) { "  " } else { " " });
    }
    out
}

#[test]
fn respelled_texts_hit_the_cache_and_agree_with_parsing_every_time() {
    let tables = || {
        let c = catalog();
        ["t0", "t1", "t2"].map(|name| Table::clone(&c.table_data(name).unwrap()))
    };
    // One long-lived cached engine, as a server would run it, next to a
    // twin that parses and plans every text it is sent.
    let cached = els::engine::Engine::new().cache_capacity(16);
    let twin = els::engine::Engine::new().cache_capacity(0);
    for engine in [&cached, &twin] {
        for table in tables() {
            engine.register(table).unwrap();
        }
    }
    for seed in 0..300u64 {
        let sql = random_query(seed);
        let texts = [sql.clone(), respell(&sql, seed), sql.clone(), respell(&sql, seed)];
        for (i, text) in texts.iter().enumerate() {
            let (got, want) = (cached.execute(text).unwrap(), twin.execute(text).unwrap());
            assert_eq!(got.count, want.count, "seed {seed} `{text}`");
            assert_eq!(got.rows.num_rows(), want.rows.num_rows(), "seed {seed} `{text}`");
            assert_eq!(got.join_order, want.join_order, "seed {seed} `{text}`");
            assert_eq!(got.estimated_sizes, want.estimated_sizes, "seed {seed} `{text}`");
            // An earlier seed may have cached the query already; from the
            // second send on, under either spelling, it must be a hit.
            assert!(got.cache_hit || i == 0, "seed {seed} send {i} `{text}`");
            assert!(!want.cache_hit);
        }
    }
    let stats = cached.cache_stats();
    assert_eq!(stats.hits + stats.misses, 1200);
    assert!(stats.evictions > 0, "the walk must also evict: {stats:?}");
    assert!(cached.plan_cache().len() <= 16);
}

#[test]
fn group_by_end_to_end() {
    let catalog = catalog();
    let sql = "SELECT t0.a, COUNT(*) FROM t0, t1 WHERE t0.a = t1.a GROUP BY t0.a";
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let optimized =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els)).unwrap();
    let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
    // Brute-force the per-group counts.
    let mut expect: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    for r0 in 0..tables[0].num_rows() {
        let a0 = tables[0].column(0).unwrap().get(r0).unwrap();
        for r1 in 0..tables[1].num_rows() {
            let a1 = tables[1].column(0).unwrap().get(r1).unwrap();
            if a0.sql_eq(&a1) {
                *expect.entry(a0.as_int().unwrap()).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(out.count as usize, expect.len());
    for r in 0..out.rows.num_rows() {
        let row = out.rows.row(r).unwrap();
        let key = row[0].as_int().unwrap();
        assert_eq!(row[1].as_int().unwrap(), expect[&key], "group {key}");
    }
}

#[test]
fn group_by_through_the_engine() {
    let engine = els::engine::Engine::new();
    engine
        .generate(
            TableSpec::new("ev", 100)
                .column(ColumnSpec::new("kind", Distribution::CycleInt { modulus: 4, start: 0 })),
            9,
        )
        .unwrap();
    let r = engine.execute("SELECT kind, COUNT(*) FROM ev GROUP BY kind").unwrap();
    assert_eq!(r.count, 4);
    for g in 0..4 {
        assert_eq!(r.rows.row(g).unwrap()[1], els::storage::Value::Int(25));
    }
}
