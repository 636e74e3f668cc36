//! Human-readable estimation reports.
//!
//! [`Els::report`] assembles everything the algorithm decided for a query —
//! effective statistics (Steps 3–4), equivalence classes and Section 6
//! adjustments (Step 5), and the per-step selectivity choices for one join
//! order (Step 6) — into a structured [`EstimationReport`] whose `Display`
//! renders an EXPLAIN-style text block. The `els` engine's `explain`
//! prints it, between a table-name legend and the plan tree.

use std::fmt;

use crate::algorithm::Els;
use crate::cardinality::CardinalityEstimator;
use crate::error::ElsResult;
use crate::estimator::JoinStepExplanation;
use crate::ids::TableId;

/// Per-table summary of Steps 3–5.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// Table position in the `FROM` list.
    pub table: TableId,
    /// ‖R‖ before predicates.
    pub original_cardinality: f64,
    /// ‖R‖′ (or ‖R‖″) after Steps 4–5.
    pub effective_cardinality: f64,
    /// Combined local-predicate selectivity.
    pub local_selectivity: f64,
    /// `(original d, effective d′)` per column.
    pub columns: Vec<(f64, f64)>,
}

/// The full report.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationReport {
    /// Per-table statistics summaries.
    pub tables: Vec<TableReport>,
    /// Rendered predicates after Steps 1–2.
    pub predicates: Vec<String>,
    /// Equivalence classes (rendered member lists).
    pub classes: Vec<Vec<String>>,
    /// Section 6 adjustments (rendered).
    pub adjustments: Vec<String>,
    /// Per-step explanations along the requested join order.
    pub steps: Vec<JoinStepExplanation>,
}

impl Els {
    /// Build a report for `order` (which must visit distinct, valid
    /// tables; it need not cover every table).
    pub fn report(&self, order: &[TableId]) -> ElsResult<EstimationReport> {
        let eff = self.effective_stats();
        let tables = eff
            .tables
            .iter()
            .enumerate()
            .map(|(t, table)| TableReport {
                table: t,
                original_cardinality: table.original_cardinality,
                effective_cardinality: table.cardinality,
                local_selectivity: table.local_selectivity,
                columns: table
                    .original_distinct
                    .iter()
                    .zip(&table.column_distinct)
                    .map(|(&o, &e)| (o, e))
                    .collect(),
            })
            .collect();
        let predicates = self.predicates().iter().map(|p| p.to_string()).collect();
        let classes = self
            .classes()
            .iter()
            .map(|(_, members)| members.iter().map(|m| m.to_string()).collect())
            .collect();
        let adjustments = self
            .same_table_adjustments()
            .iter()
            .map(|a| {
                format!(
                    "R{}: ||R||' {} -> {} (class {}), join column cardinality {}",
                    a.table, a.cardinality_before, a.cardinality_after, a.class, a.join_distinct
                )
            })
            .collect();
        let mut steps = Vec::new();
        if let Some((&first, rest)) = order.split_first() {
            let mut state = self.initial_state(first)?;
            for &t in rest {
                let step = self.explain_join(&state, t)?;
                state = self.join(&state, t)?;
                steps.push(step);
            }
        }
        Ok(EstimationReport { tables, predicates, classes, adjustments, steps })
    }
}

impl fmt::Display for EstimationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "predicates:")?;
        for p in &self.predicates {
            writeln!(f, "  {p}")?;
        }
        if !self.classes.is_empty() {
            writeln!(f, "equivalence classes:")?;
            for (i, members) in self.classes.iter().enumerate() {
                writeln!(f, "  EC{i}: {{{}}}", members.join(", "))?;
            }
        }
        if !self.adjustments.is_empty() {
            writeln!(f, "same-table adjustments (Section 6):")?;
            for a in &self.adjustments {
                writeln!(f, "  {a}")?;
            }
        }
        writeln!(f, "effective statistics:")?;
        for t in &self.tables {
            write!(
                f,
                "  R{}: ||R|| {} -> {:.1} (S_local {:.4}); d: ",
                t.table, t.original_cardinality, t.effective_cardinality, t.local_selectivity
            )?;
            let cols: Vec<String> = t.columns.iter().map(|(o, e)| format!("{o}->{e}")).collect();
            writeln!(f, "[{}]", cols.join(", "))?;
        }
        if !self.steps.is_empty() {
            writeln!(f, "join steps:")?;
            for s in &self.steps {
                writeln!(
                    f,
                    "  + R{} (||R||' {:.1}): {:.3} -> {:.3}",
                    s.table, s.base_cardinality, s.cardinality_before, s.cardinality_after
                )?;
                for c in &s.classes {
                    let eligible: Vec<String> =
                        c.eligible.iter().map(|s| format!("{s:.3e}")).collect();
                    writeln!(
                        f,
                        "      {}: eligible [{}] -> chose {:.3e}",
                        c.class,
                        eligible.join(", "),
                        c.chosen
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn section8_els(rule: SelectivityRule) -> Els {
        let mk = |rows: f64| {
            TableStatistics::new(rows, vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)])
        };
        let stats =
            QueryStatistics::new(vec![mk(1000.0), mk(10_000.0), mk(50_000.0), mk(100_000.0)]);
        let preds = vec![
            Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
            Predicate::col_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
            Predicate::col_eq(ColumnRef::new(2, 0), ColumnRef::new(3, 0)).unwrap(),
            Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 100i64),
        ];
        Els::prepare(&preds, &stats, &ElsOptions::default().with_rule(rule)).unwrap()
    }

    #[test]
    fn report_contains_all_sections() {
        let els = section8_els(SelectivityRule::LargestSelectivity);
        let r = els.report(&[1, 2, 0, 3]).unwrap();
        assert_eq!(r.tables.len(), 4);
        assert_eq!(r.predicates.len(), 10);
        assert_eq!(r.classes.len(), 1);
        assert_eq!(r.steps.len(), 3);
        // Step 2 (joining R0=S) must show two eligible predicates in EC0.
        assert_eq!(r.steps[1].table, 0);
        assert_eq!(r.steps[1].classes.len(), 1);
        assert_eq!(r.steps[1].classes[0].eligible.len(), 2);
    }

    #[test]
    fn step_explanations_match_the_estimates() {
        for rule in [
            SelectivityRule::Multiplicative,
            SelectivityRule::SmallestSelectivity,
            SelectivityRule::LargestSelectivity,
        ] {
            let els = section8_els(rule);
            let order = [1usize, 2, 0, 3];
            let r = els.report(&order).unwrap();
            let sizes = els.estimate_order(&order).unwrap();
            for (step, size) in r.steps.iter().zip(&sizes) {
                assert!(
                    (step.cardinality_after - size).abs() <= size.abs() * 1e-12 + 1e-300,
                    "{rule:?}: step says {}, estimate says {size}",
                    step.cardinality_after
                );
            }
        }
    }

    #[test]
    fn display_renders_the_key_markers() {
        let els = section8_els(SelectivityRule::LargestSelectivity);
        let text = els.report(&[1, 2, 0, 3]).unwrap().to_string();
        assert!(text.contains("equivalence classes"));
        assert!(text.contains("EC0"));
        assert!(text.contains("join steps"));
        assert!(text.contains("chose"));
        assert!(text.contains("effective statistics"));
    }

    #[test]
    fn empty_order_yields_no_steps() {
        let els = section8_els(SelectivityRule::LargestSelectivity);
        let r = els.report(&[]).unwrap();
        assert!(r.steps.is_empty());
        let r = els.report(&[2]).unwrap();
        assert!(r.steps.is_empty());
    }
}
