//! The fixed corpus of join graphs that `plan_identity.rs` pins to its
//! golden file and `memo_differential.rs` plans both ways, with the
//! estimators and method sets each is planned under.

use els_core::{
    CardinalityEstimator, CmpOp, ColumnRef, ColumnStatistics, Els, ElsOptions,
    NoEstimatesEstimator, Predicate, QueryStatistics, TableStatistics, UpperBoundEstimator,
};
use els_exec::JoinMethod;

fn c(t: usize, col: usize) -> ColumnRef {
    ColumnRef::new(t, col)
}

/// One column per table over `0..rows`.
fn keyed(rows: f64) -> TableStatistics {
    TableStatistics::new(rows, vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)])
}

pub struct Query {
    pub name: &'static str,
    pub stats: QueryStatistics,
    pub predicates: Vec<Predicate>,
}

pub fn corpus() -> Vec<Query> {
    let chain = |n: usize| (1..n).map(|i| Predicate::col_eq(c(i - 1, 0), c(i, 0)));
    let clique_rows = [1000.0, 10_000.0, 50_000.0, 100_000.0, 2000.0, 400.0, 30_000.0, 7000.0];
    let clique = |name, n: usize| Query {
        name,
        stats: QueryStatistics::new(
            (0..n).map(|i| keyed(clique_rows[i % clique_rows.len()])).collect(),
        ),
        predicates: chain(n).chain([Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)]).collect(),
    };
    // The hub's five foreign keys each have fewer distinct values than the
    // dimension they reference, and every dimension key count is a power
    // of two: all class selectivities but one (R5's, after its filter) are
    // an exact 2^-k, and multiplying by a power of two is exact, so the
    // product over the classes crossing one step does not depend on the
    // order the parent commit's HashMap happened to multiply them in.
    let star_dims = [256.0, 1024.0, 4096.0, 16_384.0, 65_536.0];
    let hub = TableStatistics::new(
        200_000.0,
        star_dims.iter().map(|d| ColumnStatistics::with_domain(d / 2.0, 0.0, d - 1.0)).collect(),
    );
    vec![
        Query {
            name: "section8",
            stats: QueryStatistics::new(vec![
                keyed(1000.0),
                keyed(10_000.0),
                keyed(50_000.0),
                keyed(100_000.0),
            ]),
            predicates: chain(4)
                .chain([Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)])
                .collect(),
        },
        Query {
            name: "star6",
            stats: QueryStatistics::new(
                std::iter::once(hub).chain(star_dims.iter().map(|&d| keyed(d))).collect(),
            ),
            predicates: (0..5)
                .map(|i| Predicate::col_eq(c(0, i), c(i + 1, 0)))
                .chain([
                    Predicate::local_cmp(c(2, 0), CmpOp::Lt, 64i64),
                    Predicate::local_cmp(c(5, 0), CmpOp::Ge, 60_000i64),
                ])
                .collect(),
        },
        clique("clique8", 8),
        clique("clique10", 10),
        Query {
            name: "band_chain",
            stats: QueryStatistics::new(vec![
                keyed(500.0),
                keyed(5000.0),
                keyed(20_000.0),
                keyed(8000.0),
                keyed(300.0),
            ]),
            predicates: vec![
                Predicate::col_eq(c(0, 0), c(1, 0)),
                Predicate::col_eq(c(1, 0), c(2, 0)),
                Predicate::join_range(c(2, 0), CmpOp::Lt, c(3, 0)),
                Predicate::col_eq(c(3, 0), c(4, 0)),
                Predicate::local_cmp(c(3, 0), CmpOp::Lt, 50i64),
            ],
        },
        Query {
            name: "two_pairs",
            stats: QueryStatistics::new(vec![
                keyed(1000.0),
                keyed(3000.0),
                keyed(1000.0),
                keyed(9000.0),
            ]),
            predicates: vec![
                Predicate::col_eq(c(0, 0), c(1, 0)),
                Predicate::col_eq(c(2, 0), c(3, 0)),
                Predicate::local_cmp(c(0, 0), CmpOp::Lt, 10i64),
                Predicate::local_cmp(c(2, 0), CmpOp::Lt, 10i64),
            ],
        },
    ]
}

pub fn estimators(q: &Query) -> Vec<(&'static str, Box<dyn CardinalityEstimator>)> {
    let els = |o: ElsOptions| -> Box<dyn CardinalityEstimator> {
        Box::new(Els::prepare(&q.predicates, &q.stats, &o).unwrap())
    };
    vec![
        ("els", els(ElsOptions::algorithm_els())),
        ("sm", els(ElsOptions::algorithm_sm())),
        ("sss", els(ElsOptions::algorithm_sss())),
        ("upper_bound", Box::new(UpperBoundEstimator::new(&q.predicates, &q.stats).unwrap())),
        ("no_estimates", Box::new(NoEstimatesEstimator::new(&q.predicates, &q.stats).unwrap())),
    ]
}

pub const METHOD_SETS: [(&str, &[JoinMethod]); 3] = [
    ("nl+sm", &[JoinMethod::NestedLoop, JoinMethod::SortMerge]),
    ("+hash", &[JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash]),
    (
        "+inl",
        &[
            JoinMethod::NestedLoop,
            JoinMethod::SortMerge,
            JoinMethod::Hash,
            JoinMethod::IndexNestedLoop,
        ],
    ),
];
