//! Golden plan identity: the DP's output — operator tree, join order, cost
//! and every intermediate size, to the bit — over a fixed corpus of join
//! graphs × tree shapes × estimators × method sets. The expectations in
//! `plan_identity.golden` were captured by running this file on the commit
//! before the enumerator stored back-pointers instead of plan trees, so a
//! diff here means the rewrite changed which candidate wins somewhere:
//! candidate order is tie-break order.
//!
//! To re-capture after a deliberate change, run the test and copy the file
//! it names in its failure message over `plan_identity.golden`.

#[path = "support/corpus.rs"]
mod corpus;

use corpus::{corpus, estimators, METHOD_SETS};
use els_optimizer::enumerate::enumerate;
use els_optimizer::{CostParams, TableProfile, TreeShape};

#[test]
fn plans_costs_and_sizes_match_the_golden_capture() {
    let mut actual = String::new();
    for q in corpus() {
        let profiles: Vec<TableProfile> =
            q.stats.tables.iter().map(|t| TableProfile::synthetic(t.cardinality, 16)).collect();
        for (est_name, est) in estimators(&q) {
            for (shape_name, shape) in
                [("left_deep", TreeShape::LeftDeep), ("bushy", TreeShape::Bushy)]
            {
                for (methods_name, methods) in METHOD_SETS {
                    let r =
                        enumerate(est.as_ref(), &profiles, methods, &CostParams::default(), shape)
                            .unwrap();
                    let sizes: Vec<String> =
                        r.estimated_sizes.iter().map(|s| format!("{:016x}", s.to_bits())).collect();
                    actual.push_str(&format!(
                        "{}/{est_name}/{shape_name}/{methods_name}: {} order={:?} cost={:016x} sizes=[{}]\n",
                        q.name,
                        r.root.explain().trim_end().replace('\n', ";"),
                        r.join_order,
                        r.estimated_cost.to_bits(),
                        sizes.join(","),
                    ));
                }
            }
        }
    }
    let golden = include_str!("plan_identity.golden");
    if actual != golden {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plan_identity.actual");
        std::fs::write(&dump, &actual).unwrap();
        let first = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("first difference:\n  actual: {a}\n  golden: {g}"))
            .unwrap_or_else(|| "line counts differ".into());
        panic!(
            "plans diverge from plan_identity.golden ({first})\nfull output: {}",
            dump.display()
        );
    }
}
