//! J-equivalent join columns within a single table
//! (Algorithm ELS, Step 5 special case; paper Section 6).
//!
//! When transitive closure leaves two or more columns of one table in the
//! same equivalence class (e.g. `R2.y = R2.w` implied by `R1.x = R2.y ∧
//! R1.x = R2.w`), the implied local predicate selects only the tuples whose
//! j-equivalent columns agree. With columns ordered by effective cardinality
//! d₍₁₎ ≤ d₍₂₎ ≤ … ≤ d₍ₙ₎, the paper derives:
//!
//! ```text
//! ‖R‖″ = ⌈ ‖R‖′ / (d₍₂₎ · d₍₃₎ · … · d₍ₙ₎) ⌉
//! d_join = ⌈ d₍₁₎ · (1 − (1 − 1/d₍₁₎)^‖R‖″) ⌉        (urn model)
//! ```
//!
//! and all members of the group thereafter act as **one** join column with
//! cardinality `d_join` — evaluating the intra-table equality makes the
//! redundant joins free. The *standard* algorithm (the paper's strawman)
//! skips this treatment entirely; the estimator selects between the two at
//! the algorithm level.

use crate::equivalence::EquivalenceClasses;
use crate::error::ElsResult;
use crate::ids::{ClassId, ColumnRef};
use crate::local_effects::EffectiveStats;
use crate::urn;

/// Record of one applied Section 6 adjustment.
#[derive(Debug, Clone, PartialEq)]
pub struct SameTableAdjustment {
    /// The table holding the j-equivalent columns.
    pub table: usize,
    /// The equivalence class involved.
    pub class: ClassId,
    /// The group's member columns (two or more), sorted.
    pub members: Vec<ColumnRef>,
    /// Table cardinality before the adjustment (‖R‖′).
    pub cardinality_before: f64,
    /// Table cardinality after (‖R‖″).
    pub cardinality_after: f64,
    /// The single effective join-column cardinality for the whole group.
    pub join_distinct: f64,
}

/// Find all same-table j-equivalent groups and fold their effect into
/// `eff`: the table cardinality drops to ‖R‖″ and every member column's
/// effective distinct count becomes the group's `d_join`. Distinct counts of
/// unrelated columns are capped at the new cardinality (a table cannot have
/// more distinct values than rows). Returns the applied adjustments, in
/// `(table, class)` order, for inspection and EXPLAIN output.
pub(crate) fn apply_same_table_equivalences(
    eff: &mut EffectiveStats,
    classes: &EquivalenceClasses,
) -> ElsResult<Vec<SameTableAdjustment>> {
    let mut adjustments = Vec::new();
    let num_tables = eff.tables.len();
    for table in 0..num_tables {
        for (class, members) in classes.iter() {
            let group: Vec<ColumnRef> =
                members.iter().copied().filter(|c| c.table == table).collect();
            if group.len() < 2 {
                continue;
            }
            let Some(entry) = eff.tables.get_mut(table) else { continue };
            let before = entry.cardinality;
            if before <= 0.0 {
                continue;
            }
            // Effective cardinalities of the group, ascending.
            let mut ds: Vec<f64> =
                group.iter().filter_map(|c| entry.column_distinct.get(c.column).copied()).collect();
            ds.sort_by(|a, b| a.total_cmp(b));
            let Some((&d_min, rest)) = ds.split_first() else { continue };
            if d_min <= 0.0 {
                // A member column is already empty: the table empties too.
                entry.cardinality = 0.0;
                for d in &mut entry.column_distinct {
                    *d = 0.0;
                }
                adjustments.push(SameTableAdjustment {
                    table,
                    class,
                    members: group,
                    cardinality_before: before,
                    cardinality_after: 0.0,
                    join_distinct: 0.0,
                });
                continue;
            }
            let divisor: f64 = rest.iter().product();
            let after = (before / divisor).ceil().max(1.0);
            let d_join = urn::expected_distinct_rounded(d_min, after)?;

            entry.cardinality = after;
            for c in &group {
                if let Some(d) = entry.column_distinct.get_mut(c.column) {
                    *d = d_join;
                }
            }
            for d in &mut entry.column_distinct {
                *d = d.min(after);
            }
            adjustments.push(SameTableAdjustment {
                table,
                class,
                members: group,
                cardinality_before: before,
                cardinality_after: after,
                join_distinct: d_join,
            });
        }
    }
    Ok(adjustments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correction::NoCorrections;
    use crate::local_effects::compute_effective_stats;
    use crate::local_effects::DistinctReduction::UrnModel;
    use crate::predicate::Predicate;
    use crate::selectivity::NoOracle;
    use crate::stats::{ColumnStatistics, QueryStatistics, TableStatistics};

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// The paper's Section 6 example: ||R1||=100, d_x=100; ||R2||=1000,
    /// d_y=10, d_w=50; predicates R1.x=R2.y, R1.x=R2.w (+ implied R2.y=R2.w).
    fn section6_setup() -> (QueryStatistics, Vec<Predicate>) {
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(100.0)]),
            TableStatistics::new(
                1000.0,
                vec![ColumnStatistics::with_distinct(10.0), ColumnStatistics::with_distinct(50.0)],
            ),
        ]);
        let preds = crate::closure::transitive_closure(&[
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(0, 0), c(1, 1)).unwrap(),
        ]);
        (stats, preds)
    }

    #[test]
    fn paper_section6_example() {
        let (stats, preds) = section6_setup();
        let classes = EquivalenceClasses::from_predicates(&preds);
        let mut eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        let adj = apply_same_table_equivalences(&mut eff, &classes).unwrap();
        assert_eq!(adj.len(), 1);
        let a = &adj[0];
        assert_eq!(a.table, 1);
        assert_eq!(a.members, vec![c(1, 0), c(1, 1)]);
        // ||R2||' = 1000 / 50 = 20.
        assert_eq!(a.cardinality_after, 20.0);
        // Effective join cardinality = ceil(10 * (1 - 0.9^20)) = 9.
        assert_eq!(a.join_distinct, 9.0);
        // Both member columns now carry the group cardinality.
        assert_eq!(eff.distinct(c(1, 0)), 9.0);
        assert_eq!(eff.distinct(c(1, 1)), 9.0);
        assert_eq!(eff.tables[1].cardinality, 20.0);
        // R1 untouched.
        assert_eq!(eff.tables[0].cardinality, 100.0);
    }

    #[test]
    fn three_way_group_divides_by_all_but_smallest() {
        // One table, three j-equivalent columns with d = 4, 10, 20 and
        // ||R|| = 4000: ||R||'' = ceil(4000 / (10*20)) = 20,
        // d_join = ceil(urn(4, 20)) = 4.
        let stats = QueryStatistics::new(vec![TableStatistics::new(
            4000.0,
            vec![
                ColumnStatistics::with_distinct(10.0),
                ColumnStatistics::with_distinct(4.0),
                ColumnStatistics::with_distinct(20.0),
            ],
        )]);
        let preds = crate::closure::transitive_closure(&[
            Predicate::col_eq(c(0, 0), c(0, 1)).unwrap(),
            Predicate::col_eq(c(0, 1), c(0, 2)).unwrap(),
        ]);
        let classes = EquivalenceClasses::from_predicates(&preds);
        let mut eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        let adj = apply_same_table_equivalences(&mut eff, &classes).unwrap();
        assert_eq!(adj.len(), 1);
        assert_eq!(adj[0].cardinality_after, 20.0);
        assert_eq!(adj[0].join_distinct, 4.0);
    }

    #[test]
    fn no_group_no_change() {
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(10.0)]),
            TableStatistics::new(200.0, vec![ColumnStatistics::with_distinct(20.0)]),
        ]);
        let preds = vec![Predicate::col_eq(c(0, 0), c(1, 0)).unwrap()];
        let classes = EquivalenceClasses::from_predicates(&preds);
        let mut eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        let adj = apply_same_table_equivalences(&mut eff, &classes).unwrap();
        assert!(adj.is_empty());
        assert_eq!(eff.tables[0].cardinality, 100.0);
        assert_eq!(eff.tables[1].cardinality, 200.0);
    }

    #[test]
    fn cardinality_never_drops_below_one_tuple() {
        // Tiny table, huge divisor: at least one (expected) tuple remains.
        let stats = QueryStatistics::new(vec![TableStatistics::new(
            10.0,
            vec![ColumnStatistics::with_distinct(10.0), ColumnStatistics::with_distinct(10.0)],
        )]);
        let preds = vec![Predicate::col_eq(c(0, 0), c(0, 1)).unwrap()];
        let classes = EquivalenceClasses::from_predicates(&preds);
        let mut eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        let adj = apply_same_table_equivalences(&mut eff, &classes).unwrap();
        assert_eq!(adj[0].cardinality_after, 1.0);
        assert_eq!(adj[0].join_distinct, 1.0);
    }

    #[test]
    fn empty_member_column_empties_the_table() {
        let stats = QueryStatistics::new(vec![TableStatistics::new(
            100.0,
            vec![ColumnStatistics::with_distinct(10.0), ColumnStatistics::with_distinct(5.0)],
        )]);
        // A contradictory local predicate empties column 0 first.
        let preds = crate::closure::transitive_closure(&[
            Predicate::col_eq(c(0, 0), c(0, 1)).unwrap(),
            Predicate::local_cmp(c(0, 0), crate::CmpOp::Eq, 1i64),
            Predicate::local_cmp(c(0, 0), crate::CmpOp::Eq, 2i64),
        ]);
        let classes = EquivalenceClasses::from_predicates(&preds);
        let mut eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        // Table already empty from the contradiction; adjustment is a no-op
        // skip (cardinality 0 short-circuits).
        let _ = apply_same_table_equivalences(&mut eff, &classes).unwrap();
        assert_eq!(eff.tables[0].cardinality, 0.0);
    }

    #[test]
    fn other_columns_capped_at_new_cardinality() {
        let stats = QueryStatistics::new(vec![TableStatistics::new(
            1000.0,
            vec![
                ColumnStatistics::with_distinct(10.0),
                ColumnStatistics::with_distinct(50.0),
                ColumnStatistics::with_distinct(900.0), // unrelated wide column
            ],
        )]);
        let preds = vec![Predicate::col_eq(c(0, 0), c(0, 1)).unwrap()];
        let classes = EquivalenceClasses::from_predicates(&preds);
        let mut eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        apply_same_table_equivalences(&mut eff, &classes).unwrap();
        assert_eq!(eff.tables[0].cardinality, 20.0);
        assert!(eff.distinct(c(0, 2)) <= 20.0);
    }
}
