//! Golden plan identity: the DP's output — operator tree, join order, cost
//! and every intermediate size, to the bit — over a fixed corpus of join
//! graphs × tree shapes × estimators × method sets. A diff here means a
//! change moved which candidate wins somewhere.
//!
//! The left-deep lines date from before the enumerator stored
//! back-pointers instead of plan trees. The bushy lines were re-captured
//! when bushy pairs came to be priced in both orientations: two got
//! cheaper, and the rest that moved are equal-cost ties now resolved by
//! the smaller outer mask.
//!
//! To re-capture after a deliberate change, run the test and copy the file
//! it names in its failure message over `plan_identity.golden`. The
//! message counts the changed lines per tree shape and names every line
//! whose cost got larger, which a better search never causes.

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
        panic!(
            "plans diverge from plan_identity.golden:\n{}full output: {}",
            audit(&actual, golden),
            dump.display()
        );
    }
}

/// What a re-capture would change: the changed lines per tree shape, how
/// many of them got cheaper, and every line whose cost got larger.
fn audit(actual: &str, golden: &str) -> String {
    let shape = |line: &str| line.split('/').nth(2).unwrap_or("?").to_string();
    let cost = |line: &str| {
        let hex = line.split(" cost=").nth(1).and_then(|rest| rest.get(..16));
        hex.and_then(|h| u64::from_str_radix(h, 16).ok()).map(f64::from_bits)
    };
    let mut changed = std::collections::BTreeMap::<String, (usize, usize)>::new();
    let mut report = String::new();
    for (a, g) in actual.lines().zip(golden.lines()).filter(|(a, g)| a != g) {
        let (lines, cheaper) = changed.entry(shape(a)).or_default();
        *lines += 1;
        if let (Some(now), Some(was)) = (cost(a), cost(g)) {
            *cheaper += usize::from(now < was);
            if now > was {
                report.push_str(&format!("  dearer: {a}\n     was: {g}\n"));
            }
        }
    }
    let (lines, wanted) = (actual.lines().count(), golden.lines().count());
    if lines != wanted {
        report.push_str(&format!("  {lines} lines, golden has {wanted}\n"));
    }
    for (shape, (lines, cheaper)) in changed {
        report.push_str(&format!("  {shape}: {lines} lines changed, {cheaper} of them cheaper\n"));
    }
    report
}
