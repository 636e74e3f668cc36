//! Differential testing of the vectorized executor against the
//! row-at-a-time oracle.
//!
//! Random tables (uniform / Zipf / sequential key distributions, dense or
//! spread over a wide range, NULLs mixed in, int / float / string join
//! columns) × random predicates and
//! join keys × all three forceable join methods, and indexed nested loops
//! wherever a join has a stored inner and a key: the vectorized path —
//! serial and morsel-parallel — must reproduce the row oracle *exactly*:
//! same rows, same column names, same counters (minus the vectorized-only
//! kernel counters), same per-operator observations.

use std::sync::Arc;

use els::catalog::collect::CollectOptions;
use els::catalog::Catalog;
use els::core::{CmpOp, ColumnRef};
use els::exec::filter::CompiledFilter;
use els::exec::{
    execute_plan_observed, ExecMetrics, ExecMode, JoinMethod, Observations, Plan, PlanNode,
    QueryPlan,
};
use els::optimizer::{bound_query_tables, optimize_bound, OptimizerOptions};
use els::sql::{bind, parse};
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els::storage::{ColumnVector, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The stride that takes a generated key column from the integer hash
/// join's dense table layout (`key - min` addresses a slot) to its hashed
/// one: the key range ends up a thousand times the row count.
const SPARSE_STRIDE: i64 = 1009;

/// `table` with every `k` multiplied by `stride`: the same matches and the
/// same order across tables, over a `stride` times wider key range.
fn spread_keys(table: Table, stride: i64) -> Table {
    let spread = |name: &String, col: &ColumnVector| match col.as_int_slice() {
        Some(keys) if name == "k" => {
            let mut wide = ColumnVector::new(col.data_type());
            for (key, valid) in keys.iter().zip(col.validity()) {
                wide.push(if *valid { Value::Int(key * stride) } else { Value::Null }).unwrap();
            }
            wide
        }
        _ => col.clone(),
    };
    let columns = table.column_names().iter().zip(table.columns());
    let columns = columns.map(|(name, col)| (name.clone(), spread(name, col))).collect();
    Table::new(table.name(), columns).unwrap()
}

/// A random 2–3 table catalog. Every table gets an integer join key with a
/// randomly chosen distribution (and sometimes NULLs; spread by
/// [`SPARSE_STRIDE`] in every odd-seeded catalog), a typed secondary join
/// column (float or string), and an integer filter column.
fn random_catalog(seed: u64) -> Catalog {
    let stride = if seed % 2 == 0 { 1 } else { SPARSE_STRIDE };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
    let mut catalog = Catalog::new();
    let ntables = rng.gen_range(2..=3usize);
    for i in 0..ntables {
        let rows = rng.gen_range(30..=250usize);
        let key = match rng.gen_range(0..3) {
            0 => Distribution::SequentialInt { start: rng.gen_range(-5..5) },
            1 => Distribution::UniformInt { lo: 0, hi: rng.gen_range(4..40) },
            _ => Distribution::ZipfInt { n: rng.gen_range(4..32), theta: 1.0, start: 0 },
        };
        let key = if rng.gen_bool(0.4) {
            Distribution::WithNulls { inner: Box::new(key), null_fraction: 0.15 }
        } else {
            key
        };
        let typed = if rng.gen_bool(0.5) {
            Distribution::UniformFloat { lo: 0.0, hi: 8.0 }
        } else {
            Distribution::StrTag { prefix: "v".into(), modulus: rng.gen_range(3..9) }
        };
        let typed = if rng.gen_bool(0.3) {
            Distribution::WithNulls { inner: Box::new(typed), null_fraction: 0.2 }
        } else {
            typed
        };
        let filter = Distribution::WithNulls {
            inner: Box::new(Distribution::UniformInt { lo: 0, hi: 99 }),
            null_fraction: 0.1,
        };
        let table = TableSpec::new(format!("t{i}"), rows)
            .column(ColumnSpec::new("k", key))
            .column(ColumnSpec::new("v", typed))
            .column(ColumnSpec::new("f", filter))
            .generate(seed.wrapping_mul(31).wrapping_add(i as u64));
        catalog
            .register(spread_keys(table, stride), &CollectOptions::default())
            .expect("fresh catalog accepts generated tables");
    }
    catalog
}

/// A random conjunctive query over the catalog: adjacent join edges on a
/// random column (ints usually, the typed column sometimes), random local
/// filters, and a random output shape.
fn random_sql(seed: u64, catalog: &Catalog) -> String {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545f4914f6cdd1d));
    let ntables = catalog.table_names().len();
    let mut conjuncts = Vec::new();
    for i in 1..ntables {
        // Sometimes the adjacency edge is an inequality: the plan gets a
        // keyless band join (or a residual-filtered cartesian method).
        if rng.gen_bool(0.3) {
            let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
            conjuncts.push(format!("t{}.k {op} t{i}.k", i - 1));
        } else {
            let col = if rng.gen_bool(0.25) { "v" } else { "k" };
            conjuncts.push(format!("t{}.{col} = t{i}.{col}", i - 1));
        }
        // Occasionally stack an inequality on top of the edge, exercising
        // residual filtering on keyed joins and multi-range band joins.
        if rng.gen_bool(0.2) {
            let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
            conjuncts.push(format!("t{}.f {op} t{i}.f", i - 1));
        }
    }
    for i in 0..ntables {
        match rng.gen_range(0..5) {
            0 => conjuncts.push(format!("t{i}.f < {}", rng.gen_range(5..95))),
            1 => conjuncts.push(format!("t{i}.f >= {}", rng.gen_range(5..95))),
            2 => conjuncts.push(format!("t{i}.k IS NOT NULL")),
            3 => {
                let lo = rng.gen_range(0..20);
                conjuncts.push(format!("t{i}.f BETWEEN {lo} AND {}", lo + rng.gen_range(0..40)));
            }
            _ => {}
        }
    }
    let from: Vec<String> = (0..ntables).map(|i| format!("t{i}")).collect();
    let select = if rng.gen_bool(0.5) { "COUNT(*)".to_owned() } else { "*".to_owned() };
    let mut sql = format!("SELECT {select} FROM {}", from.join(", "));
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    sql
}

/// The methods [`force_method`] pins plans to.
const FORCED_METHODS: [JoinMethod; 4] =
    [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash, JoinMethod::IndexNestedLoop];

fn force_method(plan: &mut Plan, m: JoinMethod) {
    let mut forced = Plan::default();
    for node in plan.nodes() {
        match node.clone() {
            PlanNode::Scan { table_id, filters } => {
                forced.scan(table_id, filters);
            }
            PlanNode::Join { mut method, left, right, keys, ranges } => {
                // Keyless joins (cartesian steps and band joins) keep
                // whatever the optimizer picked — the keyed methods are not
                // defined for them — and so does an evaluated inner under
                // indexed nested loops.
                let stored_inner = matches!(plan.nodes()[right], PlanNode::Scan { .. });
                if !keys.is_empty() && (stored_inner || m != JoinMethod::IndexNestedLoop) {
                    method = m;
                }
                forced.join(method, (left, right), keys, ranges).unwrap();
            }
        }
    }
    *plan = forced;
}

/// `method` joining a scan of table `l` under `left_filters` to one of
/// table `r` under `right_filters`, on `keys` and `ranges`.
fn join_scans(
    method: JoinMethod,
    (l, left_filters): (usize, Vec<CompiledFilter>),
    (r, right_filters): (usize, Vec<CompiledFilter>),
    keys: Vec<(ColumnRef, ColumnRef)>,
    ranges: Vec<(ColumnRef, CmpOp, ColumnRef)>,
) -> Plan {
    let mut plan = Plan::default();
    let inputs = (plan.scan(l, left_filters), plan.scan(r, right_filters));
    plan.join(method, inputs, keys, ranges).unwrap();
    plan
}

/// Strip the counters only the vectorized path maintains (and wall time)
/// so the rest can be compared exactly across modes.
fn comparable(mut m: ExecMetrics) -> ExecMetrics {
    m.kernel_rows = 0;
    m.sel_reuses = 0;
    m.morsels = 0;
    m.steals = 0;
    m.pair_lists = 0;
    m.elapsed = std::time::Duration::ZERO;
    m
}

fn assert_tables_equal(a: &Table, b: &Table, context: &str) {
    assert_eq!(a.column_names(), b.column_names(), "{context}: column names");
    assert_eq!(a.num_rows(), b.num_rows(), "{context}: row count");
    for c in 0..a.num_columns() {
        assert_eq!(a.column(c).unwrap(), b.column(c).unwrap(), "{context}: column {c}");
    }
}

/// Run `plan` under the row oracle and the vectorized variants, unbuffered
/// and through buffer pools smaller than, around and larger than the test
/// tables; every run must agree on rows, counters (logical *and* physical
/// page reads) and observations.
fn check_plan(plan: &QueryPlan, tables: &[Arc<Table>], context: &str) {
    for buffer_pages in [None, Some(1), Some(8), Some(64)] {
        check_plan_buffered(plan, tables, buffer_pages, &format!("{context} {buffer_pages:?}"));
    }
}

fn check_plan_buffered(
    plan: &QueryPlan,
    tables: &[Arc<Table>],
    buffer_pages: Option<usize>,
    context: &str,
) {
    let (row_out, row_obs): (els::exec::ExecOutput, Observations) =
        execute_plan_observed(plan, tables, ExecMode::RowAtATime, buffer_pages)
            .unwrap_or_else(|e| panic!("{context}: row oracle failed: {e}"));
    for workers in [1usize, 2, 3, 8] {
        let label = format!("{context} workers={workers}");
        let (vec_out, vec_obs) =
            execute_plan_observed(plan, tables, ExecMode::Vectorized { workers }, buffer_pages)
                .unwrap_or_else(|e| panic!("{label}: vectorized failed: {e}"));
        assert_eq!(vec_out.count, row_out.count, "{label}: count");
        assert_tables_equal(&vec_out.rows, &row_out.rows, &label);
        assert_eq!(
            comparable(vec_out.metrics),
            comparable(row_out.metrics),
            "{label}: shared counters"
        );
        assert_eq!(vec_obs, row_obs, "{label}: observations");
        // `Observations::eq` deliberately compares only the logical
        // records; spell the per-node equality out so a failure names the
        // diverging node.
        assert_eq!(vec_obs.nodes.len(), row_obs.nodes.len(), "{label}: one record per node");
        for (at, (v, r)) in vec_obs.nodes.iter().zip(&row_obs.nodes).enumerate() {
            assert_eq!((v.tables, v.rows), (r.tables, r.rows), "{label}: node {at}");
        }
        for (name, obs) in [("row", &row_obs), ("vec", &vec_obs)] {
            assert!(
                obs.nodes.iter().all(|n| n.tables != 0),
                "{label}: {name} left a node unrecorded"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn vectorized_paths_match_the_row_oracle(seed in 0u64..100_000) {
        let catalog = random_catalog(seed);
        let sql = random_sql(seed, &catalog);
        let bound = bind(&parse(&sql).unwrap(), &catalog)
            .unwrap_or_else(|e| panic!("generator emits bindable SQL (`{sql}`): {e}"));
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default())
            .unwrap_or_else(|e| panic!("optimize failed on `{sql}`: {e}"));

        // The optimizer's own plan (whatever methods it picked) …
        check_plan(&optimized.plan, &tables, &format!("`{sql}` [optimized]"));
        // … and the same tree pinned to each join method in turn.
        for method in FORCED_METHODS {
            let mut plan = optimized.plan.clone();
            force_method(&mut plan.root, method);
            check_plan(&plan, &tables, &format!("`{sql}` [{}]", method.name()));
        }
    }
}

/// A probe side big enough to cross the morsel-parallel threshold (the
/// random catalogs above stay small, so their `workers = 4` runs fall back
/// to the serial probe): skewed keys, NULLs mixed in, exact row / counter /
/// observation parity across the serial and parallel probe paths.
#[test]
fn parallel_probe_matches_on_a_large_skewed_table() {
    for stride in [1, SPARSE_STRIDE] {
        let build = TableSpec::new("build", 800)
            .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: 500 }))
            .generate(7);
        let probe = TableSpec::new("probe", 30_000)
            .column(ColumnSpec::new(
                "k",
                Distribution::WithNulls {
                    inner: Box::new(Distribution::ZipfInt { n: 400, theta: 0.8, start: 0 }),
                    null_fraction: 0.05,
                },
            ))
            .generate(8);
        let mut catalog = Catalog::new();
        for table in [build, probe] {
            catalog.register(spread_keys(table, stride), &CollectOptions::default()).unwrap();
        }
        // The fused count and the pair list, which concatenates per morsel.
        for select in ["COUNT(*)", "*"] {
            let sql = format!("SELECT {select} FROM build, probe WHERE build.k = probe.k");
            let bound = bind(&parse(&sql).unwrap(), &catalog).unwrap();
            let tables = bound_query_tables(&bound, &catalog).unwrap();
            let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default()).unwrap();
            let mut plan = optimized.plan.clone();
            force_method(&mut plan.root, JoinMethod::Hash);
            let context = format!("large skewed probe, keys x{stride}, {select} [HASH]");
            check_plan(&plan, &tables, &context);
            // The parallel run must actually have split the probe into morsels.
            let (out, _) =
                execute_plan_observed(&plan, &tables, ExecMode::Vectorized { workers: 4 }, None)
                    .unwrap();
            assert!(out.metrics.morsels > 1, "{context}: morsels {}", out.metrics.morsels);
        }
    }
}

/// Probe sizes straddling both the morsel size (2048) and the parallel
/// engagement threshold ([`els::exec::PARALLEL_MIN_ROWS`]): the
/// observation streams and results must be identical whether a probe ends
/// exactly on a morsel boundary, one row before it, or one row after —
/// and whether the parallel path engages at all.
#[test]
fn morsel_boundary_probe_sizes_keep_observation_parity() {
    use els::exec::{MORSEL_ROWS, PARALLEL_MIN_ROWS};

    let sizes = [
        MORSEL_ROWS - 1,
        MORSEL_ROWS,
        MORSEL_ROWS + 1,
        PARALLEL_MIN_ROWS - 1,
        PARALLEL_MIN_ROWS,
        PARALLEL_MIN_ROWS + 1,
    ];
    for rows in sizes {
        let mut catalog = Catalog::new();
        catalog
            .register(
                TableSpec::new("build", 300)
                    .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: 200 }))
                    .generate(11),
                &CollectOptions::default(),
            )
            .unwrap();
        catalog
            .register(
                TableSpec::new("probe", rows)
                    .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: 200 }))
                    .generate(13),
                &CollectOptions::default(),
            )
            .unwrap();
        let sql = "SELECT COUNT(*) FROM build, probe WHERE build.k = probe.k";
        let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default()).unwrap();
        let mut plan = optimized.plan.clone();
        force_method(&mut plan.root, JoinMethod::Hash);

        let context = format!("probe rows={rows} [HASH]");
        let (row_out, row_obs) =
            execute_plan_observed(&plan, &tables, ExecMode::RowAtATime, None).unwrap();
        for workers in [1usize, 2, 4] {
            let label = format!("{context} workers={workers}");
            let (out, obs) =
                execute_plan_observed(&plan, &tables, ExecMode::Vectorized { workers }, None)
                    .unwrap();
            assert_eq!(out.count, row_out.count, "{label}: count");
            assert_eq!(obs, row_obs, "{label}: observations");
            if workers > 1 && rows >= PARALLEL_MIN_ROWS {
                assert!(
                    out.metrics.morsels > 1,
                    "{label}: parallel probe should split {rows} rows into morsels, got {}",
                    out.metrics.morsels
                );
            }
        }
    }
}

/// The shared-table probe with a large build side: 8 192 build keys
/// against a skewed probe side four times the parallel threshold, NULLs on
/// both. Bit-exact against the row oracle across worker counts, with the
/// probe split into morsels and — for `COUNT(*)` — no pair list ever
/// materialized.
#[test]
fn large_build_parallel_probe_matches_oracle_bit_exactly() {
    use els::exec::PARALLEL_MIN_ROWS;

    let mut catalog = Catalog::new();
    catalog
        .register(
            TableSpec::new("build", 8192)
                .column(ColumnSpec::new(
                    "k",
                    Distribution::WithNulls {
                        inner: Box::new(Distribution::UniformInt { lo: 0, hi: 4000 }),
                        null_fraction: 0.05,
                    },
                ))
                .generate(21),
            &CollectOptions::default(),
        )
        .unwrap();
    catalog
        .register(
            TableSpec::new("probe", 4 * PARALLEL_MIN_ROWS)
                .column(ColumnSpec::new(
                    "k",
                    Distribution::WithNulls {
                        inner: Box::new(Distribution::ZipfInt { n: 3000, theta: 0.8, start: 0 }),
                        null_fraction: 0.05,
                    },
                ))
                .generate(22),
            &CollectOptions::default(),
        )
        .unwrap();
    let sql = "SELECT COUNT(*) FROM build, probe WHERE build.k = probe.k";
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default()).unwrap();
    let mut plan = optimized.plan.clone();
    force_method(&mut plan.root, JoinMethod::Hash);
    check_plan(&plan, &tables, "large-build probe [HASH]");
    for workers in [2usize, 3, 8] {
        let (out, _) =
            execute_plan_observed(&plan, &tables, ExecMode::Vectorized { workers }, None).unwrap();
        assert!(
            out.metrics.morsels > 1,
            "workers={workers}: the probe should split into morsels, morsels={}",
            out.metrics.morsels
        );
        assert_eq!(
            out.metrics.pair_lists, 0,
            "workers={workers}: a fused COUNT(*) root must not materialize row-id pairs"
        );
    }
    // The fused root skips the pair list on the serial path too.
    let (serial, _) =
        execute_plan_observed(&plan, &tables, ExecMode::Vectorized { workers: 1 }, None).unwrap();
    assert_eq!(serial.metrics.pair_lists, 0);
}

/// Degenerate key populations: an all-NULL build side and a filter-emptied
/// build side must produce zero matches — identically on the serial and
/// stealing paths.
#[test]
fn all_null_and_empty_build_sides_join_to_nothing() {
    use els::exec::PARALLEL_MIN_ROWS;

    let mut catalog = Catalog::new();
    catalog
        .register(
            TableSpec::new("build", 8192)
                .column(ColumnSpec::new(
                    "k",
                    Distribution::WithNulls {
                        inner: Box::new(Distribution::UniformInt { lo: 0, hi: 100 }),
                        null_fraction: 1.0,
                    },
                ))
                .column(ColumnSpec::new("f", Distribution::UniformInt { lo: 0, hi: 9 }))
                .generate(31),
            &CollectOptions::default(),
        )
        .unwrap();
    catalog
        .register(
            TableSpec::new("probe", PARALLEL_MIN_ROWS + 1)
                .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: 100 }))
                .column(ColumnSpec::new("f", Distribution::UniformInt { lo: 0, hi: 9 }))
                .generate(32),
            &CollectOptions::default(),
        )
        .unwrap();
    // All-NULL build keys: every probe row misses.
    let null_sql = "SELECT COUNT(*) FROM build, probe WHERE build.k = probe.k";
    // Filter-emptied build side: the kernel sees an empty selection.
    let empty_sql = "SELECT COUNT(*) FROM build, probe WHERE build.k = probe.k AND build.f < 0";
    for sql in [null_sql, empty_sql] {
        let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default()).unwrap();
        let mut plan = optimized.plan.clone();
        force_method(&mut plan.root, JoinMethod::Hash);
        check_plan(&plan, &tables, &format!("degenerate build (`{sql}`) [HASH]"));
        for workers in [1usize, 2, 8] {
            let (out, _) =
                execute_plan_observed(&plan, &tables, ExecMode::Vectorized { workers }, None)
                    .unwrap();
            assert_eq!(out.count, 0, "`{sql}` workers={workers}");
        }
    }
}

/// The morsel-parallel band join at scale: an outer side past the parallel
/// threshold against a small inner, joined only by `outer.k < inner.k`.
/// Row-oracle parity (rows, counters including `range_join_rows`,
/// observations) across worker counts, with the morsel split engaged. The
/// outer's size engages the split; the inner's keys sit at the bottom of
/// the outer's domain so the band stays near 270 000 pairs, which the row
/// oracle walks in seconds even in a debug build.
#[test]
fn parallel_band_join_matches_on_a_large_outer() {
    use els::exec::{PlanOutput, PARALLEL_MIN_ROWS};

    let outer = Arc::new(
        TableSpec::new("outer", 2 * PARALLEL_MIN_ROWS)
            .column(ColumnSpec::new(
                "k",
                Distribution::WithNulls {
                    inner: Box::new(Distribution::UniformInt { lo: 0, hi: 600 }),
                    null_fraction: 0.05,
                },
            ))
            .generate(41),
    );
    let inner = Arc::new(
        TableSpec::new("inner", 500)
            .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: 40 }))
            .generate(42),
    );
    let tables = vec![outer, inner];
    for output in [PlanOutput::CountStar, PlanOutput::Star] {
        let range = (ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0));
        let root = join_scans(JoinMethod::Range, (0, vec![]), (1, vec![]), vec![], vec![range]);
        let plan = QueryPlan::new(root, output);
        // Unbuffered only: each run emits a quarter million pairs, and a pool
        // would see nothing but the two base scans the small cases cover.
        check_plan_buffered(&plan, &tables, None, "large band join [RANGE]");
        let (out, _) =
            execute_plan_observed(&plan, &tables, ExecMode::Vectorized { workers: 4 }, None)
                .unwrap();
        assert!(out.count > 0);
        assert!(out.metrics.morsels > 1, "morsel split expected, got {}", out.metrics.morsels);
        assert_eq!(out.metrics.range_join_rows, out.count, "band output is the query result");
    }
}

/// Near-overflow keys: the old f64-image hash keys collided above 2⁵³;
/// the typed path must keep giant int keys exact end to end.
#[test]
fn giant_int_keys_join_exactly() {
    let mut catalog = Catalog::new();
    for (name, offsets) in [("big0", [0i64, 1, 2, 3]), ("big1", [0i64, 2, 4, 1])] {
        let mut col = els::storage::ColumnVector::new(els::storage::DataType::Int);
        for o in offsets {
            col.push(els::storage::Value::Int(i64::MAX - o)).unwrap();
        }
        let table = Table::new(name, vec![("k".to_owned(), col)]).unwrap();
        catalog.register(table, &CollectOptions::default()).unwrap();
    }
    let sql = "SELECT COUNT(*) FROM big0, big1 WHERE big0.k = big1.k";
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default()).unwrap();
    for method in [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash] {
        let mut plan = optimized.plan.clone();
        force_method(&mut plan.root, method);
        let (out, _) =
            execute_plan_observed(&plan, &tables, ExecMode::Vectorized { workers: 1 }, None)
                .unwrap();
        // i64::MAX, MAX-1, MAX-2 match; MAX-3 vs MAX-4 do not.
        assert_eq!(out.count, 3, "{} must not collapse near-MAX keys", method.name());
        check_plan(&plan, &tables, &format!("giant keys [{}]", method.name()));
    }
}

/// `SELECT * … ORDER BY … DESC` over one table (whose root keeps the
/// table's own column names) and over a join: the sort keys resolve by
/// provenance, the rows come out in descending key order with ties in scan
/// order, the headers are not renamed, and every mode agrees with the row
/// oracle.
#[test]
fn select_star_order_by_resolves_keys_on_one_table_and_on_a_join() {
    let mut catalog = Catalog::new();
    for (name, keys) in [("t", [3i64, 9, 3, -1, 7]), ("u", [9i64, 3, 7, 3, 5])] {
        let k = ColumnVector::from_ints(keys);
        let tag = ColumnVector::from_ints(0..5);
        let table = Table::new(name, vec![("k".to_owned(), k), ("tag".to_owned(), tag)]).unwrap();
        catalog.register(table, &CollectOptions::default()).unwrap();
    }
    for (sql, header, keys) in [
        ("SELECT * FROM t ORDER BY k DESC", vec!["k", "tag"], vec![9, 7, 3, 3, -1]),
        (
            "SELECT * FROM t, u WHERE t.k = u.k ORDER BY t.k DESC, u.tag DESC",
            vec!["t0_c0", "t0_c1", "t1_c0", "t1_c1"],
            vec![9, 7, 3, 3, 3, 3],
        ),
    ] {
        let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default()).unwrap();
        let out = els::exec::execute_plan_with(&optimized.plan, &tables, ExecMode::default())
            .unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert_eq!(out.rows.column_names(), header, "`{sql}`");
        let sorted: Vec<i64> = out.rows.column(0).unwrap().as_int_slice().unwrap().to_vec();
        assert_eq!(sorted, keys, "`{sql}`");
        check_plan(&optimized.plan, &tables, sql);
    }
}

/// Four small tables for the composite-key cases: `k` and `f` are both
/// `Int` over narrow domains and both carry NULLs (a two-component key
/// matches, misses, and meets a NULL in either component), `v` is a float
/// or a string per table.
fn closure_catalog(seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xd1342543de82ef95));
    let mut catalog = Catalog::new();
    for i in 0..4 {
        let int = |hi| Distribution::WithNulls {
            inner: Box::new(Distribution::UniformInt { lo: 0, hi }),
            null_fraction: 0.12,
        };
        let typed = if rng.gen_bool(0.5) {
            Distribution::UniformFloat { lo: 0.0, hi: 3.0 }
        } else {
            Distribution::StrTag { prefix: "v".into(), modulus: rng.gen_range(2..5) }
        };
        catalog
            .register(
                TableSpec::new(format!("t{i}"), rng.gen_range(15..=45usize))
                    .column(ColumnSpec::new("k", int(rng.gen_range(5..12))))
                    .column(ColumnSpec::new("v", typed))
                    .column(ColumnSpec::new("f", int(rng.gen_range(2..6))))
                    .generate(seed.wrapping_mul(131).wrapping_add(i)),
                &CollectOptions::default(),
            )
            .expect("fresh catalog accepts generated tables");
    }
    catalog
}

/// The join shapes the random generator above never emits, one per
/// `seed % 4`, each with a random output shape and sometimes a local filter
/// for closure to copy along the equivalence class:
/// 0. a second `Int` equality stacked on a `k` edge — a true two-component
///    key with NULLs in both components;
/// 1. `v = v` stacked on a `k` edge — an `Int` component plus a float or
///    string one, which pins the generic fallback;
/// 2. a four-table chain on `k`, where closure puts three key pairs on the
///    last join;
/// 3. ranges written right-to-left (`t1.f > t0.f`), alone (a keyless join)
///    or stacked on a `k` edge, with a third table so that a nested loop
///    also runs below the root.
fn closure_sql(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545f4914f6cdd1d));
    let (from, mut conjuncts): (&str, Vec<String>) = match seed % 4 {
        0 => ("t0, t1, t2", vec!["t0.k = t1.k".into(), "t0.f = t1.f".into(), "t1.k = t2.k".into()]),
        1 => ("t0, t1, t2", vec!["t0.k = t1.k".into(), "t0.v = t1.v".into(), "t1.k = t2.k".into()]),
        2 => ("t0, t1, t2, t3", (1..4).map(|i| format!("t{}.k = t{i}.k", i - 1)).collect()),
        _ => {
            let op = [">", ">=", "<", "<="][rng.gen_range(0..4usize)];
            let mut edge = vec![format!("t1.f {op} t0.f"), "t1.k = t2.k".into()];
            if rng.gen_bool(0.5) {
                edge.push("t0.k = t1.k".into());
            }
            ("t0, t1, t2", edge)
        }
    };
    if rng.gen_bool(0.5) {
        conjuncts.push(format!("t0.k < {}", rng.gen_range(3..9)));
    }
    let select = if rng.gen_bool(0.5) { "COUNT(*)" } else { "*" };
    format!("SELECT {select} FROM {from} WHERE {}", conjuncts.join(" AND "))
}

#[test]
fn composite_key_and_right_to_left_range_joins_match_the_row_oracle() {
    let mut shapes_with_rows = [false; 4];
    for seed in 0..24u64 {
        let catalog = closure_catalog(seed);
        let sql = closure_sql(seed);
        let bound = bind(&parse(&sql).unwrap(), &catalog)
            .unwrap_or_else(|e| panic!("generator emits bindable SQL (`{sql}`): {e}"));
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::default())
            .unwrap_or_else(|e| panic!("optimize failed on `{sql}`: {e}"));
        if seed % 4 != 3 {
            // Closure is what makes these keys composite: the top join
            // carries one key pair per table already joined below it.
            let Some(PlanNode::Join { keys, .. }) = optimized.plan.root.nodes().last() else {
                panic!("`{sql}` plans a join");
            };
            assert!(keys.len() >= 2, "`{sql}`: closure should stack keys, got {keys:?}");
        }
        check_plan(&optimized.plan, &tables, &format!("`{sql}` [optimized]"));
        for method in FORCED_METHODS {
            let mut plan = optimized.plan.clone();
            force_method(&mut plan.root, method);
            check_plan(&plan, &tables, &format!("`{sql}` [{}]", method.name()));
        }
        let (out, _) =
            execute_plan_observed(&optimized.plan, &tables, ExecMode::default(), None).unwrap();
        shapes_with_rows[(seed % 4) as usize] |= out.count > 0;
    }
    assert_eq!(shapes_with_rows, [true; 4], "every shape must join to something on some seed");
}

/// Hand-built plans the planner would orient the other way: a range whose
/// columns are named inner-first, on a keyless join of every method (each
/// one a cartesian nested loop, over a rescanned and over an evaluated
/// inner) and as a residual on a keyed join of every method. The row path
/// resolves range columns in the joined schema, so both spellings mean the
/// same thing there; so they must here, under every buffer size.
#[test]
fn ranges_naming_the_inner_column_first_match_the_row_oracle() {
    use els::exec::PlanOutput;

    let catalog = closure_catalog(5);
    let tables: Vec<Arc<Table>> =
        ["t0", "t1"].iter().map(|name| catalog.table_data(name).unwrap()).collect();
    let (k, f) = (0, 2);
    let inner_filter = CompiledFilter::Cmp {
        column: ColumnRef::new(1, k),
        op: CmpOp::Ge,
        value: els::storage::Value::Int(2),
    };
    for method in FORCED_METHODS {
        for keyed in [false, true] {
            if method == JoinMethod::IndexNestedLoop && !keyed {
                continue; // nothing to index
            }
            for op in [CmpOp::Gt, CmpOp::Le] {
                for output in [PlanOutput::CountStar, PlanOutput::Star] {
                    let root = join_scans(
                        method,
                        (0, Vec::new()),
                        (1, vec![inner_filter.clone()]),
                        if keyed {
                            vec![(ColumnRef::new(0, k), ColumnRef::new(1, k))]
                        } else {
                            Vec::new()
                        },
                        vec![(ColumnRef::new(1, f), op, ColumnRef::new(0, f))],
                    );
                    let plan = QueryPlan::new(root, output);
                    let context = format!("{} keyed={keyed} t1.f {op} t0.f", method.name());
                    check_plan(&plan, &tables, &context);
                }
            }
        }
    }
}

/// A hand-built indexed nested loop whose first key names, on its inner
/// side, a column of another table has no index to build: both modes must
/// refuse it instead of indexing that column *position* of the inner.
#[test]
fn indexed_nested_loop_refuses_a_key_outside_its_inner() {
    use els::exec::{ExecError, PlanOutput};

    let catalog = closure_catalog(5);
    let tables: Vec<Arc<Table>> =
        ["t0", "t1", "t2"].iter().map(|name| catalog.table_data(name).unwrap()).collect();
    let stray = ColumnRef::new(2, 0);
    let keys = vec![(ColumnRef::new(0, 0), stray)];
    let root = join_scans(JoinMethod::IndexNestedLoop, (0, vec![]), (1, vec![]), keys, vec![]);
    let plan = QueryPlan::new(root, PlanOutput::CountStar);
    for mode in [ExecMode::RowAtATime, ExecMode::Vectorized { workers: 1 }] {
        match execute_plan_observed(&plan, &tables, mode, None) {
            Err(ExecError::ColumnNotInSchema(c)) => assert_eq!(c, stray, "{mode:?}"),
            other => panic!("{mode:?}: expected ColumnNotInSchema, got {other:?}"),
        }
    }
}

/// A one-`Int`-column table, NULL where `cell` says so.
fn int_table(name: &str, cells: impl IntoIterator<Item = Option<i64>>) -> Table {
    let mut col = ColumnVector::new(els::storage::DataType::Int);
    for cell in cells {
        col.push(cell.map_or(Value::Null, Value::Int)).unwrap();
    }
    Table::new(name, vec![("k".to_owned(), col)]).unwrap()
}

/// Scans split into morsels: a stored table past twice the parallel
/// threshold under three conjuncts (an `Int` comparison, `IS NOT NULL` and
/// a column equality), NULLs on both sides of the first morsel boundary,
/// scanned alone, as a hash join's probe side (which, counting, filters it
/// morsel by morsel as it probes) and as its build side. Under 1, 2,
/// 3 and 8 workers: the row oracle's rows, row order, observations and
/// shared counters, and the one-worker run's counters (every one but
/// `steals`; the filters' are charged per conjunct, not per morsel) and
/// observations. A `COUNT(*)` counts what `SELECT *` returns: the scan
/// alone counts its morsels without concatenating them.
#[test]
fn morsel_scans_match_the_row_oracle_alone_and_on_either_side_of_a_hash_join() {
    use els::exec::{PlanOutput, MORSEL_ROWS, PARALLEL_MIN_ROWS};

    let rows = 2 * PARALLEL_MIN_ROWS + 100;
    let null_at = |i: usize| i == MORSEL_ROWS - 1 || i == MORSEL_ROWS || i % 97 == 0;
    let column = |cell: &dyn Fn(usize) -> Option<i64>| int_table("c", (0..rows).map(cell));
    let k = column(&|i| (!null_at(i)).then_some((i * 7919 % 600) as i64));
    let f = column(&|i| (!null_at(i + 1)).then_some((i % 13) as i64));
    let g = column(&|i| Some(if i % 5 == 0 { 99 } else { (i % 13) as i64 }));
    let columns = [("k", k), ("f", f), ("g", g)]
        .map(|(name, t)| (name.to_owned(), t.column(0).unwrap().clone()));
    let big = Table::new("big", columns.to_vec()).unwrap();
    let small = int_table("small", (0..300).map(|i| (i % 11 != 0).then_some(i)));
    let tables = vec![Arc::new(big), Arc::new(small)];

    let (bk, sk) = (ColumnRef::new(0, 0), ColumnRef::new(1, 0));
    let filters = vec![
        CompiledFilter::Cmp { column: bk, op: CmpOp::Lt, value: Value::Int(400) },
        CompiledFilter::IsNull { column: ColumnRef::new(0, 1), negated: true },
        CompiledFilter::ColEq { left: ColumnRef::new(0, 1), right: ColumnRef::new(0, 2) },
    ];
    let (big, small) = ((0, filters.clone()), (1, Vec::new()));
    let hash = |left, right, keys| join_scans(JoinMethod::Hash, left, right, vec![keys], vec![]);
    let mut alone = Plan::default();
    alone.scan(0, filters.clone());
    let roots = [
        ("the scan alone", alone),
        ("the probe side", hash(small.clone(), big.clone(), (sk, bk))),
        ("the build side", hash(big, small, (bk, sk))),
    ];
    let but_steals =
        |m: ExecMetrics| ExecMetrics { steals: 0, elapsed: std::time::Duration::ZERO, ..m };
    for (name, root) in roots {
        let mut counts = Vec::new();
        for output in [PlanOutput::CountStar, PlanOutput::Star] {
            let plan = QueryPlan { root: root.clone(), output, order_by: Vec::new(), limit: None };
            let context = format!("{name}, {:?}", plan.output);
            check_plan(&plan, &tables, &context);
            let run = |workers| {
                let mode = ExecMode::Vectorized { workers };
                execute_plan_observed(&plan, &tables, mode, None).unwrap()
            };
            let (one, one_obs) = run(1);
            assert!(one.count > 0, "{context}: the filters keep rows");
            assert_eq!(one.metrics.sel_reuses, 2, "{context}: two conjuncts compact in place");
            assert!(one.metrics.morsels >= rows.div_ceil(MORSEL_ROWS) as u64, "{context}");
            for workers in [2, 3, 8] {
                let (out, obs) = run(workers);
                assert_eq!(out.count, one.count, "{context} workers={workers}");
                assert_eq!(
                    but_steals(out.metrics),
                    but_steals(one.metrics),
                    "{context} workers={workers}: counters"
                );
                assert_eq!(obs, one_obs, "{context} workers={workers}: observations");
            }
            counts.push(one.count);
        }
        assert_eq!(counts[0], counts[1], "{name}: COUNT(*) and SELECT *");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `Int` columns with NULLs and duplicates under every
    /// comparison, as the one range of a keyless nested loop (over a
    /// rescanned inner, and over an evaluated one, spelled either way round)
    /// and, for the band operators, of a band join, forced as a `COUNT(*)`
    /// root: the fused count, which counts from sorted boundaries, equals
    /// the pair-enumerating path's and the row oracle's, with every counter
    /// the enumerating path charges but its pair list.
    #[test]
    fn lone_range_count_roots_count_by_boundary_like_the_pair_path(
        outer in proptest::collection::vec(proptest::option::of(-6i64..6), 0..40),
        inner in proptest::collection::vec(proptest::option::of(-6i64..6), 0..40),
        op in 0usize..6,
        swap in proptest::bool::ANY,
    ) {
        use els::exec::PlanOutput;

        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op];
        let tables = vec![Arc::new(int_table("o", outer)), Arc::new(int_table("i", inner))];
        let (oc, ic) = (ColumnRef::new(0, 0), ColumnRef::new(1, 0));
        let range = if swap { (ic, op.flip(), oc) } else { (oc, op, ic) };
        let mut methods = vec![JoinMethod::NestedLoop, JoinMethod::Hash];
        if !matches!(op, CmpOp::Eq | CmpOp::Ne) && !swap {
            methods.push(JoinMethod::Range);
        }
        for method in methods {
            let root = join_scans(method, (0, vec![]), (1, vec![]), vec![], vec![range]);
            let context = format!("{} {range:?}", method.name());
            let count = QueryPlan::new(root.clone(), PlanOutput::CountStar);
            let pairs = QueryPlan::new(root, PlanOutput::Star);
            check_plan_buffered(&count, &tables, None, &context);
            let but_pair_lists = |m: ExecMetrics| ExecMetrics {
                pair_lists: 0,
                elapsed: std::time::Duration::ZERO,
                ..m
            };
            for workers in [1, 2] {
                let mode = ExecMode::Vectorized { workers };
                let (fused, _) = execute_plan_observed(&count, &tables, mode, None).unwrap();
                let (listed, _) = execute_plan_observed(&pairs, &tables, mode, None).unwrap();
                prop_assert_eq!(fused.count, listed.count, "{}", context);
                prop_assert_eq!((fused.metrics.pair_lists, listed.metrics.pair_lists), (0, 1));
                prop_assert_eq!(
                    but_pair_lists(fused.metrics),
                    but_pair_lists(listed.metrics),
                    "{}",
                    context
                );
            }
        }
    }
}
