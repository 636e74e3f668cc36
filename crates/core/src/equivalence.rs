//! J-equivalence classes of join columns (paper, Section 2).
//!
//! Initially each column is its own equivalence class; every column-equality
//! predicate (join or local) merges the classes of its two sides. The
//! resulting partition drives transitive closure (Step 2), the single-table
//! treatment of Section 6, and the grouping of eligible join predicates in
//! Step 6.
//!
//! The implementation is a standard union-find with path compression and
//! union by size, keyed by [`ColumnRef`].

use std::collections::HashMap;

use crate::ids::{ClassId, ColumnRef};
use crate::predicate::Predicate;

/// Union-find over column references.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionFind {
    index: HashMap<ColumnRef, usize>,
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// Create an empty structure.
    pub(crate) fn new() -> Self {
        UnionFind::default()
    }

    /// Ensure `c` is tracked, returning its slot.
    pub(crate) fn insert(&mut self, c: ColumnRef) -> usize {
        if let Some(&i) = self.index.get(&c) {
            return i;
        }
        let i = self.parent.len();
        self.index.insert(c, i);
        self.parent.push(i);
        self.size.push(1);
        i
    }

    fn find_slot(&mut self, mut i: usize) -> usize {
        loop {
            let parent = self.parent.get(i).copied().unwrap_or(i);
            if parent == i {
                return i;
            }
            // Path halving: point i at its grandparent before stepping.
            let grand = self.parent.get(parent).copied().unwrap_or(parent);
            if let Some(slot) = self.parent.get_mut(i) {
                *slot = grand;
            }
            i = grand;
        }
    }

    /// Merge the classes of `a` and `b`.
    pub(crate) fn union(&mut self, a: ColumnRef, b: ColumnRef) {
        let (ia, ib) = (self.insert(a), self.insert(b));
        let (ra, rb) = (self.find_slot(ia), self.find_slot(ib));
        if ra == rb {
            return;
        }
        // els-lint: allow(numeric-discipline, "provably safe: ra/rb are find_slot roots of slots insert() created, and every created slot pushed a size entry; 1 is the exact size of a fresh singleton")
        let size_a = self.size.get(ra).copied().unwrap_or(1);
        // els-lint: allow(numeric-discipline, "provably safe: same invariant as size_a — union-find slots and their size entries are created together")
        let size_b = self.size.get(rb).copied().unwrap_or(1);
        let (big, small) = if size_a >= size_b { (ra, rb) } else { (rb, ra) };
        if let Some(p) = self.parent.get_mut(small) {
            *p = big;
        }
        if let Some(s) = self.size.get_mut(big) {
            *s += size_a.min(size_b);
        }
    }

    /// All tracked columns.
    pub(crate) fn columns(&self) -> impl Iterator<Item = ColumnRef> + '_ {
        self.index.keys().copied()
    }
}

/// The finished partition of columns into j-equivalence classes.
///
/// Only classes with at least two members are materialized — singleton
/// classes never influence estimation (a column alone in its class has no
/// implied predicates and no grouped selectivities).
#[derive(Debug, Clone)]
pub struct EquivalenceClasses {
    /// Members of each class, sorted; indexed by [`ClassId`].
    classes: Vec<Vec<ColumnRef>>,
    /// Reverse map: column → class.
    by_column: HashMap<ColumnRef, ClassId>,
}

impl EquivalenceClasses {
    /// Build classes from the column-equality predicates in `predicates`
    /// (non-equality predicates are ignored).
    pub(crate) fn from_predicates(predicates: &[Predicate]) -> Self {
        let mut uf = UnionFind::new();
        for p in predicates {
            if let Predicate::LocalColEq { left, right } | Predicate::JoinEq { left, right } = p {
                uf.union(*left, *right);
            }
        }
        Self::from_union_find(uf)
    }

    /// Collapse a union-find into dense, sorted classes.
    pub(crate) fn from_union_find(mut uf: UnionFind) -> Self {
        let cols: Vec<ColumnRef> = uf.columns().collect();
        let mut groups: HashMap<usize, Vec<ColumnRef>> = HashMap::new();
        for c in cols {
            let Some(slot) = uf.index.get(&c).copied() else { continue };
            let root = uf.find_slot(slot);
            groups.entry(root).or_default().push(c);
        }
        let mut classes: Vec<Vec<ColumnRef>> = groups
            .into_values()
            .filter(|g| g.len() >= 2)
            .map(|mut g| {
                g.sort();
                g
            })
            .collect();
        // Deterministic class numbering: order classes by their smallest
        // member so results do not depend on hash iteration order.
        classes.sort_by_key(|g| g.first().copied());
        let mut by_column = HashMap::new();
        for (i, class) in classes.iter().enumerate() {
            for &c in class {
                by_column.insert(c, ClassId(i));
            }
        }
        EquivalenceClasses { classes, by_column }
    }

    /// The class containing `column`, if any.
    pub fn class_of(&self, column: ColumnRef) -> Option<ClassId> {
        self.by_column.get(&column).copied()
    }

    /// Members of a class, sorted ascending (empty for an unknown class
    /// id — an out-of-range lookup degrades, it does not panic).
    pub fn members(&self, class: ClassId) -> &[ColumnRef] {
        self.classes.get(class.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate `(ClassId, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &[ColumnRef])> + '_ {
        self.classes.iter().enumerate().map(|(i, m)| (ClassId(i), m.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// True when the two columns are in one class.
    fn equivalent(ec: &EquivalenceClasses, a: ColumnRef, b: ColumnRef) -> bool {
        ec.class_of(a).is_some() && ec.class_of(a) == ec.class_of(b)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new();
        uf.union(c(0, 0), c(1, 0));
        uf.union(c(1, 0), c(2, 0));
        uf.insert(c(3, 0));
        let ec = EquivalenceClasses::from_union_find(uf);
        assert!(equivalent(&ec, c(0, 0), c(2, 0)));
        assert!(!equivalent(&ec, c(0, 0), c(3, 0)));
    }

    #[test]
    fn unknown_columns_are_not_connected() {
        let mut uf = UnionFind::new();
        uf.insert(c(0, 0));
        let ec = EquivalenceClasses::from_union_find(uf);
        assert!(!equivalent(&ec, c(0, 0), c(9, 9)));
    }

    #[test]
    fn classes_from_example_1a() {
        // J1: R0.x = R1.y, J2: R1.y = R2.z  =>  {x, y, z} one class.
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ];
        let ec = EquivalenceClasses::from_predicates(&preds);
        assert_eq!(ec.iter().count(), 1);
        assert_eq!(ec.members(ClassId(0)), &[c(0, 0), c(1, 0), c(2, 0)]);
        assert!(equivalent(&ec, c(0, 0), c(2, 0)));
    }

    #[test]
    fn separate_classes_stay_separate() {
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(0, 1), c(2, 0)).unwrap(),
        ];
        let ec = EquivalenceClasses::from_predicates(&preds);
        assert_eq!(ec.iter().count(), 2);
        assert!(!equivalent(&ec, c(1, 0), c(2, 0)));
        // Deterministic numbering: class of R0.c0 comes first.
        assert_eq!(ec.class_of(c(0, 0)), Some(ClassId(0)));
        assert_eq!(ec.class_of(c(0, 1)), Some(ClassId(1)));
    }

    #[test]
    fn local_column_equality_merges_within_table() {
        // R1.y = R1.w plus R0.x = R1.y puts all three together.
        let preds = vec![
            Predicate::col_eq(c(1, 0), c(1, 1)).unwrap(),
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
        ];
        let ec = EquivalenceClasses::from_predicates(&preds);
        assert_eq!(ec.iter().count(), 1);
        assert_eq!(ec.members(ClassId(0)), &[c(0, 0), c(1, 0), c(1, 1)]);
    }

    #[test]
    fn local_cmp_does_not_create_classes() {
        let preds = vec![Predicate::local_cmp(c(0, 0), crate::CmpOp::Eq, 5i64)];
        let ec = EquivalenceClasses::from_predicates(&preds);
        assert_eq!(ec.iter().count(), 0);
        assert_eq!(ec.class_of(c(0, 0)), None);
    }

    #[test]
    fn singleton_classes_are_dropped() {
        let mut uf = UnionFind::new();
        uf.insert(c(0, 0));
        uf.union(c(1, 0), c(2, 0));
        let ec = EquivalenceClasses::from_union_find(uf);
        assert_eq!(ec.iter().count(), 1);
        assert_eq!(ec.class_of(c(0, 0)), None);
    }

    #[test]
    fn iter_visits_all_classes() {
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(),
        ];
        let ec = EquivalenceClasses::from_predicates(&preds);
        let sizes: Vec<usize> = ec.iter().map(|(_, m)| m.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
    }
}
