//! Predicate transitive closure (Algorithm ELS, Step 2).
//!
//! Equality predicates imply further predicates by transitivity. The paper
//! lists five variations (Section 4, rules 2.a–2.e):
//!
//! * **a.** join + join → join: `(R1.x = R2.y) ∧ (R2.y = R3.z) ⇒ (R1.x = R3.z)`
//! * **b.** join + join → local: `(R1.x = R2.y) ∧ (R1.x = R2.w) ⇒ (R2.y = R2.w)`
//! * **c.** local + local → local: `(R1.x = R1.y) ∧ (R1.y = R1.z) ⇒ (R1.x = R1.z)`
//! * **d.** join + local → join: `(R1.x = R2.y) ∧ (R1.x = R1.v) ⇒ (R2.y = R1.v)`
//! * **e.** join + local-constant → local-constant:
//!   `(R1.x = R2.y) ∧ (R1.x op c) ⇒ (R2.y op c)`
//!
//! Rules a–d together say exactly: *within a j-equivalence class, every pair
//! of columns is linked by an (implied) equality*; rule e says every
//! constant comparison on a class member applies to every other member.
//! [`transitive_closure`] computes the closure directly from the equivalence
//! classes in one pass, which is the production implementation.
//! [`pairwise_fixpoint`] is a literal rule-by-rule reference implementation
//! used to cross-check it (the two are property-tested to agree).

use crate::equivalence::EquivalenceClasses;
use crate::predicate::{dedup_predicates, Predicate};

/// Compute the full transitive closure of `predicates`.
///
/// The result contains the (deduplicated) input predicates first, followed
/// by the implied predicates in deterministic order. Constant comparisons
/// are propagated to every j-equivalent column (rule e), and every pair of
/// j-equivalent columns is linked by an equality predicate (rules a–d).
/// # Examples
///
/// The paper's Example 1a: two join predicates imply a third.
///
/// ```
/// use els_core::{closure::transitive_closure, ColumnRef, Predicate};
/// let x = ColumnRef::new(0, 0);
/// let y = ColumnRef::new(1, 0);
/// let z = ColumnRef::new(2, 0);
/// let closed = transitive_closure(&[Predicate::col_eq(x, y).unwrap(), Predicate::col_eq(y, z).unwrap()]);
/// assert!(closed.contains(&Predicate::col_eq(x, z).unwrap()));
/// ```
pub fn transitive_closure(predicates: &[Predicate]) -> Vec<Predicate> {
    let mut out = dedup_predicates(predicates);
    let classes = EquivalenceClasses::from_predicates(&out);

    // Rules a–d: all pairs within each class.
    let mut implied: Vec<Predicate> = Vec::new();
    for (_, members) in classes.iter() {
        for (i, &a) in members.iter().enumerate() {
            for &b in members.iter().skip(i + 1) {
                // Class members are distinct, so no pair is a tautology.
                implied.extend(Predicate::col_eq(a, b));
            }
        }
    }

    // Rule e: propagate constant comparisons across each class.
    for p in out.clone() {
        if let Predicate::LocalCmp { column, op, value } = p {
            if let Some(class) = classes.class_of(column) {
                for &other in classes.members(class) {
                    if other != column {
                        implied.push(Predicate::LocalCmp {
                            column: other,
                            op,
                            value: value.clone(),
                        });
                    }
                }
            }
        }
    }

    out.extend(implied);
    dedup_predicates(&out)
}

/// Literal pairwise fixpoint over the five implication rules — a reference
/// implementation for testing [`transitive_closure`]. Quadratic per round;
/// do not use on large predicate sets.
pub fn pairwise_fixpoint(predicates: &[Predicate]) -> Vec<Predicate> {
    let mut set = dedup_predicates(predicates);
    loop {
        let mut new: Vec<Predicate> = Vec::new();
        for (i, a) in set.iter().enumerate() {
            for (j, b) in set.iter().enumerate() {
                if i == j {
                    continue;
                }
                if let Some(p) = imply(a, b) {
                    if !set.contains(&p) && !new.contains(&p) {
                        new.push(p);
                    }
                }
            }
        }
        if new.is_empty() {
            return set;
        }
        set.extend(new);
    }
}

/// Apply whichever of rules a–e fires for the ordered pair `(p, q)`.
fn imply(p: &Predicate, q: &Predicate) -> Option<Predicate> {
    use Predicate::{JoinEq, LocalCmp, LocalColEq};
    // Column-equality + column-equality sharing a column (rules a, b, c, d):
    // the shared column links the other two ends.
    if let (Some((a1, a2)), Some((b1, b2))) = (eq_sides(p), eq_sides(q)) {
        for (shared, x, y) in
            [(a1 == b1, a2, b2), (a1 == b2, a2, b1), (a2 == b1, a1, b2), (a2 == b2, a1, b1)]
        {
            if shared && x != y {
                return Predicate::col_eq(x, y).ok();
            }
        }
        return None;
    }
    // Rule e: column equality + constant comparison.
    match (p, q) {
        (JoinEq { left, right } | LocalColEq { left, right }, LocalCmp { column, op, value }) => {
            if column == left {
                Some(Predicate::LocalCmp { column: *right, op: *op, value: value.clone() })
            } else if column == right {
                Some(Predicate::LocalCmp { column: *left, op: *op, value: value.clone() })
            } else {
                None
            }
        }
        _ => None,
    }
}

fn eq_sides(p: &Predicate) -> Option<(crate::ids::ColumnRef, crate::ids::ColumnRef)> {
    match p {
        Predicate::LocalColEq { left, right } | Predicate::JoinEq { left, right } => {
            Some((*left, *right))
        }
        // `IS [NOT] NULL` never participates in closure: a satisfied
        // column equality already implies both sides are non-NULL, and
        // propagating nullness tests adds nothing the estimator uses.
        // Range joins are inequalities — they never merge classes.
        Predicate::LocalCmp { .. } | Predicate::IsNull { .. } | Predicate::JoinRange { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ColumnRef;
    use crate::predicate::CmpOp;

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    fn as_sorted_strings(ps: &[Predicate]) -> Vec<String> {
        let mut v: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn rule_a_join_join_implies_join() {
        // Example 1a: (R0.x = R1.y) ∧ (R1.y = R2.z) ⇒ (R0.x = R2.z).
        let input = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ];
        let out = transitive_closure(&input);
        assert!(out.contains(&Predicate::col_eq(c(0, 0), c(2, 0)).unwrap()));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn rule_b_join_join_implies_local() {
        // (R0.x = R1.y) ∧ (R0.x = R1.w) ⇒ (R1.y = R1.w).
        let input = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(0, 0), c(1, 1)).unwrap(),
        ];
        let out = transitive_closure(&input);
        assert!(out.contains(&Predicate::col_eq(c(1, 0), c(1, 1)).unwrap()));
    }

    #[test]
    fn rule_c_local_local_implies_local() {
        let input = vec![
            Predicate::col_eq(c(0, 0), c(0, 1)).unwrap(),
            Predicate::col_eq(c(0, 1), c(0, 2)).unwrap(),
        ];
        let out = transitive_closure(&input);
        assert!(out.contains(&Predicate::col_eq(c(0, 0), c(0, 2)).unwrap()));
    }

    #[test]
    fn rule_d_join_local_implies_join() {
        // (R0.x = R1.y) ∧ (R0.x = R0.v) ⇒ (R1.y = R0.v).
        let input = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(0, 0), c(0, 1)).unwrap(),
        ];
        let out = transitive_closure(&input);
        assert!(out.contains(&Predicate::col_eq(c(0, 1), c(1, 0)).unwrap()));
    }

    #[test]
    fn rule_e_propagates_constant_comparisons() {
        // (R0.x = R1.y) ∧ (R0.x < 100) ⇒ (R1.y < 100).
        let input = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
        ];
        let out = transitive_closure(&input);
        assert!(out.contains(&Predicate::local_cmp(c(1, 0), CmpOp::Lt, 100i64)));
    }

    #[test]
    fn section8_query_closure() {
        // s = m AND m = b AND b = g AND s < 100 over tables 0..4 (S, M, B, G)
        // must imply s=b, s=g, m=g and the filters m<100, b<100, g<100.
        let input = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
            Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(),
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
        ];
        let out = transitive_closure(&input);
        // 6 join predicates (all pairs of 4 columns) + 4 local filters.
        assert_eq!(out.len(), 10);
        for (a, b) in [(0, 2), (0, 3), (1, 3)] {
            assert!(
                out.contains(&Predicate::col_eq(c(a, 0), c(b, 0)).unwrap()),
                "missing join {a}-{b}"
            );
        }
        for t in 1..4 {
            assert!(
                out.contains(&Predicate::local_cmp(c(t, 0), CmpOp::Lt, 100i64)),
                "missing filter on table {t}"
            );
        }
    }

    #[test]
    fn closure_is_idempotent() {
        let input = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
        ];
        let once = transitive_closure(&input);
        let twice = transitive_closure(&once);
        assert_eq!(as_sorted_strings(&once), as_sorted_strings(&twice));
    }

    #[test]
    fn closure_matches_pairwise_fixpoint_on_section8() {
        let input = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
            Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(),
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
        ];
        assert_eq!(
            as_sorted_strings(&transitive_closure(&input)),
            as_sorted_strings(&pairwise_fixpoint(&input))
        );
    }

    #[test]
    fn unrelated_predicates_pass_through() {
        let input = vec![
            Predicate::local_cmp(c(0, 0), CmpOp::Gt, 5i64),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ];
        let out = transitive_closure(&input);
        assert_eq!(as_sorted_strings(&out), as_sorted_strings(&input));
    }

    #[test]
    fn duplicate_inputs_are_removed() {
        let p = Predicate::local_cmp(c(0, 0), CmpOp::Gt, 500i64);
        let out = transitive_closure(&[p.clone(), p.clone()]);
        assert_eq!(out.len(), 1);
    }

    proptest::proptest! {
        /// The class-based closure and the literal pairwise fixpoint agree on
        /// arbitrary small predicate sets.
        #[test]
        fn closure_equals_fixpoint(seed in 0u64..500) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut preds = Vec::new();
            for _ in 0..rng.gen_range(1..7) {
                let a = c(rng.gen_range(0..3), rng.gen_range(0..2));
                if rng.gen_bool(0.3) {
                    preds.push(Predicate::local_cmp(
                        a,
                        *[CmpOp::Eq, CmpOp::Lt, CmpOp::Gt].get(rng.gen_range(0..3usize)).unwrap(),
                        rng.gen_range(0i64..100),
                    ));
                } else {
                    let b = c(rng.gen_range(0..3), rng.gen_range(0..2));
                    if a != b {
                        preds.push(Predicate::col_eq(a, b).unwrap());
                    }
                }
            }
            proptest::prop_assert_eq!(
                as_sorted_strings(&transitive_closure(&preds)),
                as_sorted_strings(&pairwise_fixpoint(&preds))
            );
        }
    }
}
