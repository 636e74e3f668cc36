//! Physical plans.
//!
//! Plans are built by `els-optimizer` and interpreted by
//! `crate::executor`, both addressing nodes by their positions in one
//! post-order array. A plan mirrors the shapes available to the paper's
//! Starburst experiment: filtered base-table scans composed by binary joins
//! with a per-join method choice, topped by an optional projection or
//! `COUNT(*)`.

use els_core::predicate::CmpOp;
use els_core::ColumnRef;

use crate::error::{ExecError, ExecResult};
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

/// One node of a [`Plan`], its inputs named by their positions.
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
        /// Position of the left (outer / build) input.
        left: usize,
        /// Position of the right (inner / probe) input.
        right: usize,
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

/// An operator tree as one array in post-order: each join follows its left
/// input's subtree and then its right input's, so the root is last, every
/// subtree is a contiguous run of positions, and a right input's join is
/// the node right after it. [`Plan::scan`] and [`Plan::join`] are the only
/// ways to add a node, and each keeps that shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    nodes: Vec<PlanNode>,
}

impl Plan {
    /// An empty plan with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Plan {
        Plan { nodes: Vec::with_capacity(nodes) }
    }

    /// Append a scan of query table `table_id` applying `filters`; returns
    /// its position.
    pub fn scan(&mut self, table_id: usize, filters: Vec<CompiledFilter>) -> usize {
        self.nodes.push(PlanNode::Scan { table_id, filters });
        self.nodes.len() - 1
    }

    /// Append a join of the subtrees rooted at `left` and `right`; returns
    /// its position. `right` must be the last node and `left` the root of
    /// the subtree that ends just before `right`'s begins.
    pub fn join(
        &mut self,
        method: JoinMethod,
        (left, right): (usize, usize),
        keys: Vec<(ColumnRef, ColumnRef)>,
        ranges: Vec<(ColumnRef, CmpOp, ColumnRef)>,
    ) -> ExecResult<usize> {
        let at = self.nodes.len();
        let after = |last: usize| last.checked_add(1);
        if after(right) != Some(at) || after(left) != Some(self.first(right)) {
            let why = format!("a join at {at} of {left} and {right} breaks the post-order");
            return Err(ExecError::InvalidPlan(why));
        }
        self.nodes.push(PlanNode::Join { method, left, right, keys, ranges });
        Ok(at)
    }

    /// The nodes, in post-order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The node at `at`.
    pub fn node(&self, at: usize) -> ExecResult<&PlanNode> {
        self.nodes.get(at).ok_or_else(|| ExecError::InvalidPlan(format!("no plan node at {at}")))
    }

    /// The root's position: the last node's, when the nodes form one tree.
    pub fn root(&self) -> ExecResult<usize> {
        let root = self.nodes.len().checked_sub(1).filter(|&root| self.first(root) == 0);
        root.ok_or_else(|| ExecError::InvalidPlan("the plan's nodes are not one tree".into()))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The first position of the subtree rooted at `at`: its leftmost scan.
    fn first(&self, mut at: usize) -> usize {
        while let Some(PlanNode::Join { left, .. }) = self.nodes.get(at) {
            at = *left;
        }
        at
    }

    /// The query tables under the node at `at`, as a mask (bit `t` for
    /// table `t`; a table id past 63 sets no bit).
    pub fn tables(&self, at: usize) -> u64 {
        let subtree = self.nodes.get(self.first(at)..=at).unwrap_or_default();
        let bit = |t| u32::try_from(t).ok().and_then(|t| 1u64.checked_shl(t)).unwrap_or(0);
        scans(subtree).fold(0, |mask, t| mask | bit(t))
    }

    /// Whether the node at `at` is a stored inner its join rescans instead
    /// of executing: a scan that is the right input of a nested-loops or an
    /// indexed nested-loops join.
    pub fn rescanned(&self, at: usize) -> bool {
        let Some(PlanNode::Join { method, right, .. }) = self.nodes.get(at.saturating_add(1))
        else {
            return false;
        };
        let rescans = matches!(method, JoinMethod::NestedLoop | JoinMethod::IndexNestedLoop);
        rescans && *right == at && matches!(self.nodes.get(at), Some(PlanNode::Scan { .. }))
    }

    /// The join order: the scanned tables in position order, the sequence
    /// a bottom-up execution touches them in.
    pub fn join_order(&self) -> impl Iterator<Item = usize> + '_ {
        scans(&self.nodes)
    }

    /// Render the plan as an indented EXPLAIN-style tree, root first.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        if let Some(root) = self.nodes.len().checked_sub(1) {
            self.explain_into(root, 0, &mut s);
        }
        s
    }

    fn explain_into(&self, at: usize, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self.nodes.get(at) {
            Some(PlanNode::Scan { table_id, filters }) => {
                out.push_str(&format!("{pad}Scan(R{table_id}"));
                if !filters.is_empty() {
                    out.push_str(&format!(", {} filter(s)", filters.len()));
                }
                out.push_str(")\n");
            }
            Some(PlanNode::Join { method, left, right, keys, ranges }) => {
                out.push_str(&format!("{pad}{}Join({} key(s)", method.name(), keys.len()));
                if !ranges.is_empty() {
                    out.push_str(&format!(", {} range(s)", ranges.len()));
                }
                out.push_str(")\n");
                self.explain_into(*left, depth + 1, out);
                self.explain_into(*right, depth + 1, out);
            }
            None => {}
        }
    }
}

/// The tables `nodes` scan, in position order.
fn scans(nodes: &[PlanNode]) -> impl Iterator<Item = usize> + '_ {
    nodes.iter().filter_map(|node| match node {
        PlanNode::Scan { table_id, .. } => Some(*table_id),
        PlanNode::Join { .. } => None,
    })
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
    pub root: Plan,
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
    pub fn new(root: Plan, output: PlanOutput) -> QueryPlan {
        QueryPlan { root, output, order_by: Vec::new(), limit: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::Value;

    /// `left ⋈ right` over two one-scan plans on tables `l` and `r`.
    fn pair(method: JoinMethod, (l, r): (usize, usize), keys: usize, ranges: usize) -> Plan {
        let mut plan = Plan::default();
        let inputs = (plan.scan(l, Vec::new()), plan.scan(r, Vec::new()));
        let key = (ColumnRef::new(l, 0), ColumnRef::new(r, 0));
        let range = (ColumnRef::new(l, 0), CmpOp::Lt, ColumnRef::new(r, 0));
        plan.join(method, inputs, vec![key; keys], vec![range; ranges]).unwrap();
        plan
    }

    #[test]
    fn tables_and_join_order() {
        let mut plan = Plan::default();
        let (a, b) = (plan.scan(2, Vec::new()), plan.scan(0, Vec::new()));
        let lower = plan.join(JoinMethod::NestedLoop, (a, b), vec![], vec![]).unwrap();
        let c = plan.scan(1, Vec::new());
        plan.join(JoinMethod::SortMerge, (lower, c), vec![], vec![]).unwrap();
        assert_eq!(plan.tables(plan.root().unwrap()), 0b111);
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.join_order().collect::<Vec<_>>(), vec![2, 0, 1]);
    }

    /// A bushy plan whose right input is itself a join: every input sits
    /// below its join, each node covers its subtree's tables, and the
    /// rendering is the one the boxed operator tree gave this plan.
    #[test]
    fn a_bushy_plan_composes_by_position() {
        let lt = |t, v| CompiledFilter::Cmp {
            column: ColumnRef::new(t, 0),
            op: CmpOp::Lt,
            value: Value::Int(v),
        };
        let key = |l, r| (ColumnRef::new(l, 0), ColumnRef::new(r, 0));
        let mut plan = Plan::default();
        let inputs = (plan.scan(2, vec![lt(2, 5)]), plan.scan(0, Vec::new()));
        let left = plan.join(JoinMethod::SortMerge, inputs, vec![key(2, 0)], vec![]).unwrap();
        let inputs = (plan.scan(1, Vec::new()), plan.scan(3, vec![lt(3, 1), lt(3, 2)]));
        let right = plan.join(JoinMethod::NestedLoop, inputs, vec![], vec![]).unwrap();
        let range = (ColumnRef::new(2, 1), CmpOp::Lt, ColumnRef::new(3, 1));
        plan.join(JoinMethod::Hash, (left, right), vec![key(0, 1)], vec![range]).unwrap();

        for (at, node) in plan.nodes().iter().enumerate() {
            if let PlanNode::Join { left, right, .. } = node {
                assert!(left < right && *right < at, "{at}: inputs {left}, {right}");
            }
        }
        let masks: Vec<u64> = (0..plan.node_count()).map(|at| plan.tables(at)).collect();
        assert_eq!(masks, [0b100, 0b1, 0b101, 0b10, 0b1000, 0b1010, 0b1111]);
        assert_eq!(plan.join_order().collect::<Vec<_>>(), [2, 0, 1, 3]);
        assert_eq!((plan.node_count(), plan.root().unwrap()), (7, 6));
        let rescanned: Vec<usize> = (0..7).filter(|&at| plan.rescanned(at)).collect();
        assert_eq!(rescanned, [4], "only the NL join's stored inner is rescanned");
        assert_eq!(
            plan.explain(),
            "HASHJoin(1 key(s), 1 range(s))\n  SMJoin(1 key(s))\n    Scan(R2, 1 filter(s))\n    \
             Scan(R0)\n  NLJoin(0 key(s))\n    Scan(R1)\n    Scan(R3, 2 filter(s))\n"
        );
    }

    #[test]
    fn a_join_out_of_post_order_or_a_forest_is_refused() {
        let mut plan = Plan::default();
        assert!(plan.root().is_err(), "an empty plan has no root");
        let (a, b, c) = (plan.scan(0, vec![]), plan.scan(1, vec![]), plan.scan(2, vec![]));
        assert!(plan.root().is_err(), "three scans are three trees");
        for inputs in [(a, c), (b, a), (c, b), (a, b), (b, 3), (usize::MAX, c), (b, usize::MAX)] {
            let err = plan.join(JoinMethod::Hash, inputs, vec![], vec![]);
            assert!(matches!(err, Err(ExecError::InvalidPlan(_))), "{inputs:?}: {err:?}");
        }
        let bc = plan.join(JoinMethod::Hash, (b, c), vec![], vec![]).unwrap();
        assert!(plan.root().is_err(), "scan 0 is left over");
        assert_eq!(plan.join(JoinMethod::Hash, (a, bc), vec![], vec![]).unwrap(), 4);
        assert_eq!(plan.root().unwrap(), 4);
    }

    #[test]
    fn explain_renders_tree() {
        let text = pair(JoinMethod::Hash, (0, 1), 1, 0).explain();
        assert!(text.contains("HASHJoin(1 key(s))"));
        assert!(text.contains("  Scan(R0)"));
        assert!(text.contains("  Scan(R1)"));
    }

    #[test]
    fn explain_renders_ranges() {
        let text = pair(JoinMethod::Range, (0, 1), 0, 1).explain();
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
