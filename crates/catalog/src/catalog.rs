//! The catalog registry and the bridge into `els-core`.

use std::sync::Arc;

use els_core::predicate::CmpOp;
use els_core::selectivity::SelectivityOracle;
use els_core::{ColumnRef, QueryStatistics};
use els_storage::{Table, Value};

use crate::collect::{collect_table_stats, CollectOptions};
use crate::error::{CatalogError, CatalogResult};
use crate::feedback::{FeedbackStore, QueryCorrections};
use crate::schema::TableDef;
use crate::stats::TableStats;

#[derive(Debug, Clone)]
struct Entry {
    def: TableDef,
    stats: TableStats,
    data: Arc<Table>,
}

/// A registry of tables with their definitions, statistics and data —
/// the stand-in for Starburst's system catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: Vec<Entry>,
    /// Feedback-learned correction factors. Behind an `Arc` so every
    /// clone of this catalog — in particular every copy-on-write snapshot
    /// [`crate::SharedCatalog`] publishes — shares one live store:
    /// observations harvested against an old snapshot are never lost.
    feedback: Arc<FeedbackStore>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table, collecting its statistics with `options`.
    ///
    /// # Errors
    /// [`CatalogError::DuplicateTable`] when the name is taken;
    /// [`CatalogError::InvalidOptions`] when `options` fail validation
    /// (e.g. a sampling fraction outside `(0, 1]`).
    pub fn register(&mut self, table: Table, options: &CollectOptions) -> CatalogResult<()> {
        options.validate()?;
        if self.find(table.name()).is_some() {
            return Err(CatalogError::DuplicateTable(table.name().to_owned()));
        }
        let def = TableDef::from_table(&table);
        let stats = collect_table_stats(&table, options);
        self.entries.push(Entry { def, stats, data: Arc::new(table) });
        Ok(())
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.def.name == name)
    }

    fn entry(&self, name: &str) -> CatalogResult<&Entry> {
        self.entries
            .iter()
            .find(|e| e.def.name == name)
            .ok_or_else(|| CatalogError::UnknownTable(name.to_owned()))
    }

    /// Names of all registered tables, in registration order.
    pub fn table_names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.def.name.as_str()).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A table's definition.
    pub fn table_def(&self, name: &str) -> CatalogResult<&TableDef> {
        Ok(&self.entry(name)?.def)
    }

    /// A table's statistics.
    pub fn table_stats(&self, name: &str) -> CatalogResult<&TableStats> {
        Ok(&self.entry(name)?.stats)
    }

    /// A table's data.
    pub fn table_data(&self, name: &str) -> CatalogResult<Arc<Table>> {
        Ok(Arc::clone(&self.entry(name)?.data))
    }

    /// Resolve a `(table, column)` name pair to a positional
    /// [`ColumnRef`] against a `FROM` list.
    pub fn resolve_column(
        &self,
        from: &[&str],
        table: &str,
        column: &str,
    ) -> CatalogResult<ColumnRef> {
        let t = from
            .iter()
            .position(|n| *n == table)
            .ok_or_else(|| CatalogError::UnknownTable(table.to_owned()))?;
        let def = self.table_def(table)?;
        let c = def.column_index(column).ok_or_else(|| CatalogError::UnknownColumn {
            table: table.to_owned(),
            column: column.to_owned(),
        })?;
        Ok(ColumnRef::new(t, c))
    }

    /// Positional statistics for a `FROM` list, ready for
    /// [`els_core::Els::prepare`].
    pub fn query_statistics(&self, from: &[&str]) -> CatalogResult<QueryStatistics> {
        let tables = from
            .iter()
            .map(|name| Ok(self.entry(name)?.stats.to_core()))
            .collect::<CatalogResult<Vec<_>>>()?;
        Ok(QueryStatistics::new(tables))
    }

    /// The shared feedback store (correction factors learned from
    /// executed queries).
    pub fn feedback(&self) -> &Arc<FeedbackStore> {
        &self.feedback
    }

    /// A feedback-backed [`els_core::correction::CorrectionSource`] for a
    /// `FROM` list, translating positional lookups into the store's
    /// name-based keys. Also the key factory the engine's harvest path
    /// uses (see [`QueryCorrections::scan_key`] /
    /// [`QueryCorrections::join_key`]).
    pub fn corrections(&self, from: &[&str]) -> CatalogResult<QueryCorrections> {
        let tables = from
            .iter()
            .map(|name| {
                self.entry(name)?;
                Ok((*name).to_owned())
            })
            .collect::<CatalogResult<Vec<_>>>()?;
        Ok(QueryCorrections::new(Arc::clone(&self.feedback), tables))
    }

    /// A histogram/MCV-backed [`SelectivityOracle`] for a `FROM` list.
    pub fn oracle(&self, from: &[&str]) -> CatalogResult<QueryOracle<'_>> {
        let tables = from
            .iter()
            .map(|name| {
                self.find(name).ok_or_else(|| CatalogError::UnknownTable((*name).to_owned()))
            })
            .collect::<CatalogResult<Vec<_>>>()?;
        Ok(QueryOracle { catalog: self, tables })
    }
}

/// Oracle that answers local-predicate selectivity questions from the
/// catalog's histograms and MCV lists, positionally bound to one query's
/// `FROM` list. Misses (string constants, missing histograms) return `None`
/// so `els-core` falls back to its uniformity model — exactly the
/// "distribution statistics when available" behaviour of the paper's
/// Section 5.
#[derive(Debug, Clone)]
pub struct QueryOracle<'a> {
    catalog: &'a Catalog,
    tables: Vec<usize>,
}

impl QueryOracle<'_> {
    fn column_stats(&self, column: ColumnRef) -> Option<&crate::stats::ColumnStats> {
        let entry = self.catalog.entries.get(*self.tables.get(column.table)?)?;
        entry.stats.columns.get(column.column)
    }
}

impl SelectivityOracle for QueryOracle<'_> {
    fn local_selectivity(&self, column: ColumnRef, op: CmpOp, value: &Value) -> Option<f64> {
        let stats = self.column_stats(column)?;
        let v = value.as_f64()?;
        // MCV answers equality on tracked values exactly.
        if op == CmpOp::Eq {
            if let Some(s) = stats.mcv.as_ref().and_then(|m| m.eq_selectivity(v)) {
                return Some(s);
            }
        }
        stats.histogram.as_ref().map(|h| h.selectivity(op, v))
    }

    fn join_range_selectivity(&self, left: ColumnRef, op: CmpOp, right: ColumnRef) -> Option<f64> {
        let ls = self.column_stats(left)?;
        let rs = self.column_stats(right)?;
        let lh = ls.histogram.as_ref()?;
        let rh = rs.histogram.as_ref()?;
        // Both strict directions come from the pair integral; the inclusive
        // variants are complements of the *reverse* strict direction, which
        // makes "below or equal = below + equal" hold by construction.
        let lt = lh.fraction_pairs_below(rh);
        let gt = rh.fraction_pairs_below(lh);
        let sel = match op {
            CmpOp::Lt => lt,
            CmpOp::Le => 1.0 - gt,
            CmpOp::Gt => gt,
            CmpOp::Ge => 1.0 - lt,
            // Equality joins go through the equivalence-class machinery.
            CmpOp::Eq | CmpOp::Ne => return None,
        };
        // Histograms cover non-NULL rows; a NULL on either side fails the
        // comparison, so scale to the cross product of all rows.
        let non_null = (1.0 - ls.null_fraction) * (1.0 - rs.null_fraction);
        Some((sel * non_null).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

    fn sample_catalog(options: &CollectOptions) -> Catalog {
        let mut c = Catalog::new();
        let a = TableSpec::new("A", 1000)
            .column(ColumnSpec::new("x", Distribution::SequentialInt { start: 0 }))
            .generate(1);
        let b = TableSpec::new("B", 500)
            .column(ColumnSpec::new("y", Distribution::CycleInt { modulus: 50, start: 0 }))
            .generate(2);
        c.register(a, options).unwrap();
        c.register(b, options).unwrap();
        c
    }

    #[test]
    fn register_and_lookup() {
        let c = sample_catalog(&CollectOptions::default());
        assert_eq!(c.len(), 2);
        assert_eq!(c.table_names(), vec!["A", "B"]);
        assert_eq!(c.table_def("A").unwrap().num_columns(), 1);
        assert_eq!(c.table_stats("B").unwrap().row_count, 500);
        assert_eq!(c.table_data("A").unwrap().num_rows(), 1000);
        assert!(matches!(c.table_def("Z"), Err(CatalogError::UnknownTable(_))));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = sample_catalog(&CollectOptions::default());
        let dup = TableSpec::new("A", 10)
            .column(ColumnSpec::new("x", Distribution::ConstInt { value: 1 }))
            .generate(1);
        assert!(matches!(
            c.register(dup, &CollectOptions::default()),
            Err(CatalogError::DuplicateTable(_))
        ));
    }

    #[test]
    fn register_rejects_invalid_sampling_options() {
        let mut c = Catalog::new();
        let t = TableSpec::new("T", 10)
            .column(ColumnSpec::new("x", Distribution::ConstInt { value: 1 }))
            .generate(1);
        let bad = CollectOptions::default().with_sampling(f64::NAN, 1);
        assert!(matches!(c.register(t, &bad), Err(CatalogError::InvalidOptions(_))));
        assert!(c.is_empty(), "rejected registration must not leave an entry");
    }

    #[test]
    fn resolve_column_is_positional_in_from_list() {
        let c = sample_catalog(&CollectOptions::default());
        // FROM B, A — B is table 0.
        let r = c.resolve_column(&["B", "A"], "A", "x").unwrap();
        assert_eq!(r, ColumnRef::new(1, 0));
        assert!(c.resolve_column(&["B"], "A", "x").is_err());
        assert!(matches!(
            c.resolve_column(&["B", "A"], "A", "nope"),
            Err(CatalogError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn query_statistics_match_catalog_order() {
        let c = sample_catalog(&CollectOptions::default());
        let qs = c.query_statistics(&["B", "A"]).unwrap();
        assert_eq!(qs.tables[0].cardinality, 500.0);
        assert_eq!(qs.tables[0].columns[0].distinct, 50.0);
        assert_eq!(qs.tables[1].cardinality, 1000.0);
    }

    #[test]
    fn oracle_uses_histograms() {
        let c = sample_catalog(&CollectOptions::full());
        let oracle = c.oracle(&["A"]).unwrap();
        let s = oracle
            .local_selectivity(ColumnRef::new(0, 0), CmpOp::Lt, &Value::Int(100))
            .expect("histogram answers");
        assert!((s - 0.1).abs() < 0.02, "selectivity {s}");
    }

    #[test]
    fn oracle_misses_without_histograms() {
        let c = sample_catalog(&CollectOptions::default());
        let oracle = c.oracle(&["A"]).unwrap();
        assert!(oracle
            .local_selectivity(ColumnRef::new(0, 0), CmpOp::Lt, &Value::Int(100))
            .is_none());
        // String constants miss too.
        let c2 = sample_catalog(&CollectOptions::full());
        let o2 = c2.oracle(&["A"]).unwrap();
        assert!(o2.local_selectivity(ColumnRef::new(0, 0), CmpOp::Eq, &Value::from("s")).is_none());
    }

    #[test]
    fn oracle_answers_range_join_selectivity_from_histograms() {
        // A.x uniform 0..999, B.y cycles 0..49: P(x < y) = E_y[y/1000]
        // = 24.5/1000; P(x > y) is nearly everything.
        let c = sample_catalog(&CollectOptions::full());
        let a = ColumnRef::new(0, 0);
        let b = ColumnRef::new(1, 0);
        let oracle = c.oracle(&["A", "B"]).unwrap();
        let lt = oracle.join_range_selectivity(a, CmpOp::Lt, b).expect("histograms answer");
        assert!((lt - 0.0245).abs() < 0.01, "P(x<y) {lt}");
        let gt = oracle.join_range_selectivity(a, CmpOp::Gt, b).unwrap();
        let le = oracle.join_range_selectivity(a, CmpOp::Le, b).unwrap();
        let ge = oracle.join_range_selectivity(a, CmpOp::Ge, b).unwrap();
        // Inclusive dominates strict up to fp jitter (the interpolated
        // CDFs are continuous, so the pair-equality mass is ~0 and the
        // complement identity makes `le` land within epsilon of `lt`).
        assert!(le >= lt - 1e-9 && ge >= gt - 1e-9, "inclusive dominates strict");
        assert!(lt + ge <= 1.0 + 1e-9 && le + gt <= 1.0 + 1e-9, "complements fit");
        assert!((gt - (1.0 - 0.0245)).abs() < 0.01, "P(x>y) {gt}");
        // Equality is not a range question.
        assert_eq!(oracle.join_range_selectivity(a, CmpOp::Eq, b), None);
    }

    #[test]
    fn oracle_range_join_misses_without_histograms() {
        let c = sample_catalog(&CollectOptions::default());
        let oracle = c.oracle(&["A", "B"]).unwrap();
        assert!(oracle
            .join_range_selectivity(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0))
            .is_none());
    }

    #[test]
    fn oracle_mcv_beats_histogram_for_hot_equality() {
        let mut c = Catalog::new();
        let z = TableSpec::new("Z", 5000)
            .column(ColumnSpec::new("v", Distribution::ZipfInt { n: 100, theta: 1.5, start: 0 }))
            .generate(9);
        c.register(z, &CollectOptions::full()).unwrap();
        let truth = {
            let data = c.table_data("Z").unwrap();
            let col = data.column_by_name("v").unwrap();
            col.iter().filter(|v| v.as_int() == Some(0)).count() as f64 / 5000.0
        };
        let oracle = c.oracle(&["Z"]).unwrap();
        let est =
            oracle.local_selectivity(ColumnRef::new(0, 0), CmpOp::Eq, &Value::Int(0)).unwrap();
        assert!((est - truth).abs() < 1e-9, "MCV estimate {est} != truth {truth}");
    }

    #[test]
    fn catalog_clones_share_one_feedback_store() {
        let c = sample_catalog(&CollectOptions::default());
        let snapshot_style_clone = c.clone();
        // Learning through the clone (how a snapshot would) is visible to
        // corrections built from the original.
        let learn = snapshot_style_clone.corrections(&["A", "B"]).unwrap();
        let key = learn.scan_key(0, "c0<100").unwrap();
        snapshot_style_clone.feedback().observe(key, 100.0, 1000.0, false);
        let apply = c.corrections(&["B", "A"]).unwrap();
        use els_core::correction::CorrectionSource as _;
        let corr = apply.scan_correction(1, "c0<100").expect("shared store");
        assert!((corr - 10.0).abs() < 1e-9);
        // Unknown FROM names are rejected.
        assert!(matches!(c.corrections(&["nope"]), Err(CatalogError::UnknownTable(_))));
    }

    #[test]
    fn full_pipeline_into_els_core() {
        // The catalog output plugs straight into Els::prepare.
        let c = sample_catalog(&CollectOptions::full());
        let stats = c.query_statistics(&["A", "B"]).unwrap();
        let preds = vec![els_core::Predicate::col_eq(
            c.resolve_column(&["A", "B"], "A", "x").unwrap(),
            c.resolve_column(&["A", "B"], "B", "y").unwrap(),
        )
        .unwrap()];
        let els = els_core::Els::prepare(&preds, &stats, &els_core::ElsOptions::default()).unwrap();
        // ||A ⋈ B|| = 1000·500/max(1000,50) = 500.
        let s = els.join(&els.initial_state(0).unwrap(), 1).unwrap();
        assert_eq!(s.cardinality(), 500.0);
    }
}
