//! **F1** — estimation error vs number of joins.
//!
//! An error-propagation study in the spirit of Ioannidis & Christodoulakis
//! [4], which the paper cites as motivation: single-equivalence-class chain
//! queries over n = 2..12 tables with random cardinalities, estimated under
//! Rules M, SS, and LS, measured as the ratio estimate/truth against the
//! Equation 3 closed form (the exact expectation under the model
//! assumptions). Reported per n as the geometric mean over 200 random
//! catalogs.
//!
//! Expected shape: Rule M's ratio decays multiplicatively (catastrophic
//! underestimation as joins accumulate), Rule SS decays more slowly, and
//! Rule LS stays at exactly 1.

use crate::table::{r, Table};
use crate::{chain_predicates, chain_statistics, geometric_mean};
use els_core::{exact, Els, ElsOptions, SelectivityRule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    const TRIALS: usize = 200;
    let rules = [
        ("M", SelectivityRule::Multiplicative),
        ("SS", SelectivityRule::SmallestSelectivity),
        ("LS", SelectivityRule::LargestSelectivity),
    ];

    println!("# F1 — estimate/true ratio vs number of joined tables");
    println!("(geometric mean over {TRIALS} random chain catalogs; truth = Equation 3)\n");
    let table = Table::header(&[r("n", 2), r("Rule M", 12), r("Rule SS", 12), r("Rule LS", 12)]);

    for n in 2..=12usize {
        let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); rules.len()];
        let mut rng = StdRng::seed_from_u64(1994 + n as u64);
        for _ in 0..TRIALS {
            // Random dims: d <= rows, both log-uniform-ish.
            let dims: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let d = rng.gen_range(2..2000) as f64;
                    let rows = d * rng.gen_range(1..50) as f64;
                    (rows, d)
                })
                .collect();
            let truth = exact::n_way(&dims);
            let stats = chain_statistics(&dims);
            let preds = chain_predicates(n);
            // A random join order, fresh per trial.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for (slot, (_, rule)) in rules.iter().enumerate() {
                let els = Els::prepare(&preds, &stats, &ElsOptions::default().with_rule(*rule))?;
                let est = els.estimate_final(&order)?;
                ratios[slot].push(est / truth);
            }
        }
        table.row(&[
            &n,
            &format_args!("{:.4e}", geometric_mean(&ratios[0])),
            &format_args!("{:.4e}", geometric_mean(&ratios[1])),
            &format_args!("{:.6}", geometric_mean(&ratios[2])),
        ]);
    }
    println!("\nexpected shape: M decays multiplicatively, SS decays slower, LS == 1 exactly.");
    Ok(())
}
