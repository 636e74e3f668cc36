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
use crate::workload::quantile;
use crate::{chain_predicates, chain_statistics};
use els_core::{exact, q_error, Els, ElsOptions, QueryStatistics};
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

/// Worst-case multiplicative error of an n-way single-class estimate when
/// every table cardinality is off by at most a factor `1 + eps_card` (in
/// the inflating direction) and every distinct count by at most a factor
/// `1 - eps_distinct` (in the deflating direction — the combination that
/// maximizes Equation 3's estimate): `(1+ε)ⁿ / (1−δ)ⁿ⁻¹`, exponential in n.
fn worst_case_amplification(n_tables: usize, eps_card: f64, eps_distinct: f64) -> f64 {
    if n_tables == 0 {
        return 1.0;
    }
    // Saturate rather than wrap for absurd table counts: the
    // amplification is monotone in n, and powi(i32::MAX) overflows to
    // infinity, which is the honest answer there.
    let n = i32::try_from(n_tables).unwrap_or(i32::MAX);
    let num = (1.0 + eps_card.max(0.0)).powi(n);
    let den = (1.0 - eps_distinct.clamp(0.0, 0.999_999)).powi(n - 1);
    num / den
}

/// Multiply every cardinality and distinct count by an independent random
/// factor log-uniform in `[1/(1+eps), 1+eps]`, then re-clamp distinct
/// counts to the perturbed cardinalities so the result stays valid.
/// Deterministic in `seed`.
fn perturb_statistics(stats: &QueryStatistics, eps: f64, seed: u64) -> QueryStatistics {
    let mut rng = StdRng::seed_from_u64(seed);
    let factor = move |rng: &mut StdRng| -> f64 {
        if eps <= 0.0 {
            return 1.0;
        }
        let hi = (1.0 + eps).ln();
        (rng.gen_range(-hi..hi)).exp()
    };
    let mut out = stats.clone();
    for table in &mut out.tables {
        table.cardinality = (table.cardinality * factor(&mut rng)).max(0.0).round();
        for col in &mut table.columns {
            col.distinct =
                (col.distinct * factor(&mut rng)).max(0.0).round().min(table.cardinality);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_core::prelude::*;

    fn stats() -> QueryStatistics {
        QueryStatistics::new(vec![
            TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(100.0)]),
            TableStatistics::new(5000.0, vec![ColumnStatistics::with_distinct(500.0)]),
        ])
    }

    #[test]
    fn worst_case_grows_exponentially() {
        // 10% errors on two tables: (1.1)^2 / (0.9)^1 ≈ 1.34.
        let r = worst_case_amplification(2, 0.1, 0.1);
        assert!((r - 1.1f64.powi(2) / 0.9).abs() < 1e-12);
        let r4 = worst_case_amplification(4, 0.2, 0.2);
        let r8 = worst_case_amplification(8, 0.2, 0.2);
        // Doubling n should (more than) square the n=4 growth beyond the
        // first factor; just assert strong growth.
        assert!(r8 > r4 * r4 / 1.2 - 1e-9, "r4={r4} r8={r8}");
        assert_eq!(worst_case_amplification(0, 0.5, 0.5), 1.0);
        assert_eq!(worst_case_amplification(1, 0.0, 0.0), 1.0);
    }

    #[test]
    fn perturbation_is_deterministic_and_bounded() {
        let base = stats();
        let a = perturb_statistics(&base, 0.2, 9);
        let b = perturb_statistics(&base, 0.2, 9);
        assert_eq!(a, b);
        let c = perturb_statistics(&base, 0.2, 10);
        assert_ne!(a, c);
        for (t, orig) in a.tables.iter().zip(&base.tables) {
            let ratio = t.cardinality / orig.cardinality;
            assert!((1.0 / 1.21..=1.21).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn perturbed_statistics_remain_valid() {
        let base = stats();
        for seed in 0..50 {
            let p = perturb_statistics(&base, 0.5, seed);
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn zero_epsilon_is_identity_up_to_rounding() {
        let base = stats();
        let p = perturb_statistics(&base, 0.0, 1);
        assert_eq!(p, base);
    }

    #[test]
    fn perturbed_estimates_stay_usable() {
        // Els::prepare accepts perturbed statistics and produces finite
        // estimates — the Monte-Carlo loop of `run` relies on this.
        let base = stats();
        let preds = vec![Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap()];
        for seed in 0..20 {
            let p = perturb_statistics(&base, 0.3, seed);
            let els = Els::prepare(&preds, &p, &ElsOptions::default()).unwrap();
            let est = els.estimate_final(&[0, 1]).unwrap();
            assert!(est.is_finite() && est >= 0.0);
        }
    }
}
