//! Physical plan trees.
//!
//! Plans are built by `els-optimizer` and interpreted by
//! `crate::executor`. A plan mirrors the shapes available to the paper's
//! Starburst experiment: filtered base-table scans composed by binary joins
//! with a per-join method choice, topped by an optional projection or
//! `COUNT(*)`.

use els_core::predicate::CmpOp;
use els_core::ColumnRef;

use crate::filter::CompiledFilter;

/// Join algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinMethod {
    /// Tuple-at-a-time nested loops (inner rescanned per outer tuple).
    NestedLoop,
    /// Sort both sides, merge equal-key runs.
    SortMerge,
    /// Build a hash table on the left, probe with the right.
    Hash,
    /// Nested loops probing a sorted index on the inner's (first) join key
    /// column. Only valid with a base-table inner and at least one key.
    IndexNestedLoop,
    /// Sort-based band join on an inequality predicate: both sides are
    /// sorted on the first range pair's columns, then each outer row binary
    /// searches the inner for its band boundary. Only valid with empty
    /// `keys` and at least one range (an equi-key join evaluates ranges as
    /// a residual filter on one of the keyed methods instead).
    Range,
}

impl JoinMethod {
    /// Short display name (as used in EXPLAIN output).
    pub fn name(self) -> &'static str {
        match self {
            JoinMethod::NestedLoop => "NL",
            JoinMethod::SortMerge => "SM",
            JoinMethod::Hash => "HASH",
            JoinMethod::IndexNestedLoop => "INL",
            JoinMethod::Range => "RANGE",
        }
    }
}

/// One node of a physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan query table `table_id`, applying `filters`.
    Scan {
        /// Position of the table in the query's `FROM` list.
        table_id: usize,
        /// Local predicates pushed into the scan.
        filters: Vec<CompiledFilter>,
    },
    /// Join two subplans on equality `keys` (`(left column, right column)`
    /// in query coordinates), optionally constrained by inequality
    /// `ranges`.
    Join {
        /// Algorithm.
        method: JoinMethod,
        /// Left (outer / build) input.
        left: Box<PlanNode>,
        /// Right (inner / probe) input.
        right: Box<PlanNode>,
        /// Equi-join keys.
        keys: Vec<(ColumnRef, ColumnRef)>,
        /// Inequality predicates `(left column, op, right column)` crossing
        /// the two inputs. With empty `keys` and [`JoinMethod::Range`] the
        /// first range drives the band probe and the rest filter its
        /// candidates; with non-empty `keys` every range is a residual
        /// filter on the keyed join's output (any method).
        ranges: Vec<(ColumnRef, CmpOp, ColumnRef)>,
    },
}

impl PlanNode {
    /// The query tables this subtree covers, as a mask (bit `t` for table
    /// `t`; a table id past 63 sets no bit).
    pub fn tables(&self) -> u64 {
        match self {
            PlanNode::Scan { table_id, .. } => {
                u32::try_from(*table_id).ok().and_then(|t| 1u64.checked_shl(t)).unwrap_or(0)
            }
            PlanNode::Join { left, right, .. } => left.tables() | right.tables(),
        }
    }

    /// Number of nodes in this subtree.
    pub(crate) fn node_count(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 1,
            PlanNode::Join { left, right, .. } => 1 + left.node_count() + right.node_count(),
        }
    }

    /// The join order of this subtree: tables in the sequence a bottom-up
    /// left-deep execution touches them.
    pub fn join_order(&self) -> Vec<usize> {
        let mut out = Vec::new();
        match self {
            PlanNode::Scan { table_id, .. } => out.push(*table_id),
            PlanNode::Join { left, right, .. } => {
                out.extend(left.join_order());
                out.extend(right.join_order());
            }
        }
        out
    }

    /// Render the plan as an indented EXPLAIN-style tree.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::Scan { table_id, filters } => {
                out.push_str(&format!("{pad}Scan(R{table_id}"));
                if !filters.is_empty() {
                    out.push_str(&format!(", {} filter(s)", filters.len()));
                }
                out.push_str(")\n");
            }
            PlanNode::Join { method, left, right, keys, ranges } => {
                out.push_str(&format!("{pad}{}Join({} key(s)", method.name(), keys.len()));
                if !ranges.is_empty() {
                    out.push_str(&format!(", {} range(s)", ranges.len()));
                }
                out.push_str(")\n");
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
        }
    }
}

/// What the plan returns to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutput {
    /// `COUNT(*)` of the join result.
    CountStar,
    /// All columns.
    Star,
    /// Specific query columns.
    Columns(Vec<ColumnRef>),
    /// `GROUP BY` on the given columns with a per-group `COUNT(*)`; the
    /// result carries the key columns plus a trailing `count` column,
    /// ordered by key.
    GroupCount(Vec<ColumnRef>),
}

/// A complete physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The operator tree.
    pub root: PlanNode,
    /// Output shape.
    pub output: PlanOutput,
    /// Final sort of the output rows (`(column, descending)` in query
    /// coordinates; columns must be present in the output).
    pub order_by: Vec<(ColumnRef, bool)>,
    /// Keep only the first `limit` output rows (after sorting).
    pub limit: Option<u64>,
}

impl QueryPlan {
    /// A plan with no output ordering or limit.
    pub fn new(root: PlanNode, output: PlanOutput) -> QueryPlan {
        QueryPlan { root, output, order_by: Vec::new(), limit: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(t: usize) -> PlanNode {
        PlanNode::Scan { table_id: t, filters: Vec::new() }
    }

    #[test]
    fn tables_and_join_order() {
        let plan = PlanNode::Join {
            method: JoinMethod::SortMerge,
            left: Box::new(PlanNode::Join {
                method: JoinMethod::NestedLoop,
                left: Box::new(scan(2)),
                right: Box::new(scan(0)),
                keys: vec![],
                ranges: vec![],
            }),
            right: Box::new(scan(1)),
            keys: vec![],
            ranges: vec![],
        };
        assert_eq!(plan.tables(), 0b111);
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.join_order(), vec![2, 0, 1]);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = PlanNode::Join {
            method: JoinMethod::Hash,
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
            ranges: vec![],
        };
        let text = plan.explain();
        assert!(text.contains("HASHJoin(1 key(s))"));
        assert!(text.contains("  Scan(R0)"));
        assert!(text.contains("  Scan(R1)"));
    }

    #[test]
    fn explain_renders_ranges() {
        let plan = PlanNode::Join {
            method: JoinMethod::Range,
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            keys: vec![],
            ranges: vec![(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0))],
        };
        let text = plan.explain();
        assert!(text.contains("RANGEJoin(0 key(s), 1 range(s))"), "{text}");
    }

    #[test]
    fn method_names() {
        assert_eq!(JoinMethod::NestedLoop.name(), "NL");
        assert_eq!(JoinMethod::SortMerge.name(), "SM");
        assert_eq!(JoinMethod::Hash.name(), "HASH");
        assert_eq!(JoinMethod::IndexNestedLoop.name(), "INL");
        assert_eq!(JoinMethod::Range.name(), "RANGE");
    }
}
