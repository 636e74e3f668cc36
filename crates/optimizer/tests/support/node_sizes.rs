//! The reference the DP's annotations are checked against: every node of a
//! plan tree re-estimated from the tree alone, in the executor's
//! post-order. A scan is its initial state, a rescanned inner its stored
//! cardinality, a join the `join_sets` of its inputs. The optimizer sized
//! its winner this way before the winner carried the DP's own estimates.

use els_core::{CardinalityEstimator, ElsResult, JoinState};
use els_exec::{JoinMethod, Plan, PlanNode};

/// What the walk finds at one node: its table mask, its join method and
/// the positions of its inputs (`None` for a scan), and its rows.
pub type Node = (u64, Option<(JoinMethod, usize, usize)>, f64);

/// Push every node under the one at `at` of `plan` onto `out`,
/// post-order. `rescanned` says that node is the inner of a nested-loops or
/// indexed nested-loops join, which rescans a stored table.
pub fn node_sizes(
    est: &dyn CardinalityEstimator,
    plan: &Plan,
    at: usize,
    rescanned: bool,
    out: &mut Vec<Node>,
) -> ElsResult<JoinState> {
    let mask = plan.tables(at);
    match &plan.nodes()[at] {
        PlanNode::Scan { table_id, .. } => {
            let state = est.initial_state(*table_id)?;
            let stored = if rescanned { Some(est.original_cardinality(*table_id)?) } else { None };
            out.push((mask, None, stored.unwrap_or(state.cardinality())));
            Ok(state)
        }
        PlanNode::Join { method, left, right, .. } => {
            let l = node_sizes(est, plan, *left, false, out)?;
            let left_at = out.len() - 1;
            let rescans = matches!(method, JoinMethod::NestedLoop | JoinMethod::IndexNestedLoop);
            let r = node_sizes(est, plan, *right, rescans, out)?;
            let state = est.join_sets(&l, &r)?;
            out.push((mask, Some((*method, left_at, out.len() - 1)), state.cardinality()));
            Ok(state)
        }
    }
}
