//! Random join graphs for the DP's property tests: `dp_optimality.rs`
//! checks the plans against brute force, `memo_differential.rs` plans them
//! both ways.

use els_core::{CmpOp, ColumnRef, ColumnStatistics, Predicate, QueryStatistics, TableStatistics};
use els_optimizer::TableProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub struct Query {
    pub stats: QueryStatistics,
    pub profiles: Vec<TableProfile>,
    pub predicates: Vec<Predicate>,
}

/// A connected-or-not random graph: a random spanning forest plus extra
/// equality edges, up to two inequality edges, and a local predicate on
/// about half the tables.
pub fn random_query(seed: u64, n: usize) -> Query {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<f64> = (0..n).map(|_| rng.gen_range(10u64..20_000) as f64).collect();
    let stats = QueryStatistics::new(
        rows.iter()
            .map(|&r| {
                let d0 = (r / rng.gen_range(1u64..8) as f64).max(2.0).floor();
                TableStatistics::new(
                    r,
                    vec![
                        ColumnStatistics::with_domain(d0, 0.0, d0 - 1.0),
                        ColumnStatistics::with_domain(r, 0.0, r - 1.0),
                    ],
                )
            })
            .collect(),
    );
    let profiles = rows.iter().map(|&r| TableProfile::synthetic(r, 24)).collect();
    let col = |rng: &mut StdRng, t: usize| ColumnRef::new(t, rng.gen_range(0usize..2));
    let mut predicates = Vec::new();
    for t in 1..n {
        // One table in five starts a new component (a forced cartesian).
        if rng.gen_range(0u32..5) > 0 {
            let other = rng.gen_range(0usize..t);
            predicates.push(Predicate::col_eq(col(&mut rng, other), col(&mut rng, t)));
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let (a, b) = (rng.gen_range(0usize..n), rng.gen_range(0usize..n));
        if a != b {
            predicates.push(Predicate::col_eq(col(&mut rng, a), col(&mut rng, b)));
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let (a, b) = (rng.gen_range(0usize..n), rng.gen_range(0usize..n));
        if a != b {
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.gen_range(0usize..4)];
            predicates.push(Predicate::join_range(ColumnRef::new(a, 1), op, ColumnRef::new(b, 1)));
        }
    }
    for (t, &r) in rows.iter().enumerate() {
        if rng.gen_bool(0.5) {
            let cut = rng.gen_range(1u64..r as u64) as i64;
            predicates.push(Predicate::local_cmp(ColumnRef::new(t, 1), CmpOp::Lt, cut));
        }
    }
    Query { stats, profiles, predicates }
}
