//! **F10** — amplification of catalog errors with the number of joins
//! (the Ioannidis & Christodoulakis [4] study, replayed).
//!
//! Rule LS is exact when its inputs are exact (F1). This figure perturbs
//! the *catalog* — every cardinality and distinct count off by a random
//! factor up to (1+ε) — and measures the resulting q-error of the LS
//! estimate against the closed form on the true statistics, per join
//! count. The analytic worst case `(1+ε)ⁿ/(1−ε)ⁿ⁻¹` is printed alongside.
//!
//! Expected shape: the Monte-Carlo median grows roughly like √n in log
//! space (independent errors partially cancel) while the worst case grows
//! exponentially — matching [4]'s conclusion that estimate quality decays
//! with join count *no matter how good the estimation algorithm is*,
//! which is why the paper insists on an algorithm that at least adds no
//! error of its own.

use crate::table::{r, Table};
use crate::workload::{q_error, quantile};
use crate::{chain_predicates, chain_statistics};
use els_core::error_model::{perturb_statistics, worst_case_amplification};
use els_core::{exact, Els, ElsOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    const TRIALS: u64 = 200;
    let eps_values = [0.05, 0.1, 0.2];

    println!("# F10 — q-error of Rule LS under perturbed catalogs ({TRIALS} trials)");
    println!("(truth = Equation 3 on exact statistics; worst = (1+ε)^n/(1−ε)^(n−1))\n");
    let table = Table::header(&[
        r("n", 2),
        r("ε", 4),
        r("median q", 9),
        r("p90 q", 9),
        r("max q", 9),
        r("worst case", 11),
    ]);

    for n in [2usize, 4, 6, 8, 10] {
        for &eps in &eps_values {
            let mut qs = Vec::with_capacity(TRIALS as usize);
            let mut rng = StdRng::seed_from_u64(4 + n as u64);
            for trial in 0..TRIALS {
                // Random exact catalog.
                let dims: Vec<(f64, f64)> = (0..n)
                    .map(|_| {
                        let d = rng.gen_range(10..2000) as f64;
                        (d * rng.gen_range(1..20) as f64, d)
                    })
                    .collect();
                let truth = exact::n_way(&dims);
                let stats = chain_statistics(&dims);
                let preds = chain_predicates(n);
                let perturbed = perturb_statistics(&stats, eps, trial * 1000 + n as u64);
                let els = Els::prepare(&preds, &perturbed, &ElsOptions::default())?;
                let order: Vec<usize> = (0..n).collect();
                let est = els.estimate_final(&order)?;
                qs.push(q_error(est, truth));
            }
            qs.sort_by(f64::total_cmp);
            table.row(&[
                &n,
                &format_args!("{eps:.2}"),
                &format_args!("{:.3}", quantile(&qs, 0.5)),
                &format_args!("{:.3}", quantile(&qs, 0.9)),
                &format_args!("{:.3}", quantile(&qs, 1.0)),
                &format_args!("{:.3}", worst_case_amplification(n, eps, eps)),
            ]);
        }
    }
    Ok(())
}
