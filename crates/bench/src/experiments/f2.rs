//! **F2** — urn model vs proportional distinct-value estimates.
//!
//! Ablation of the paper's Section 5 design choice. A table with a
//! uniformly distributed column of `d` distinct values is reduced to a
//! random fraction of its rows (simulating a local predicate on an
//! independent column); the surviving distinct count is measured and
//! compared with the urn-model estimate `d(1−(1−1/d)^k)` and the
//! proportional estimate `d·k/n`.
//!
//! Expected shape: the urn model tracks the simulation within a percent or
//! two everywhere; proportional scaling collapses when rows-per-value is
//! high (the paper's 9933-vs-5000 example).

use crate::table::{r, Table};
use els_core::urn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulate: n rows over d uniform values, keep each row with prob `frac`,
/// return surviving distinct count (mean over `trials`).
fn simulate(d: u64, n: u64, frac: f64, trials: usize, rng: &mut StdRng) -> f64 {
    let mut total = 0usize;
    for _ in 0..trials {
        let mut seen = vec![false; d as usize];
        let mut distinct = 0usize;
        for row in 0..n {
            if rng.gen::<f64>() < frac {
                let v = (row % d) as usize; // exactly uniform frequencies
                if !seen[v] {
                    seen[v] = true;
                    distinct += 1;
                }
            }
        }
        total += distinct;
    }
    total as f64 / trials as f64
}

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(5);
    println!("# F2 — surviving distinct values after a restriction");
    println!("(simulation = mean of 20 random selections; urn vs proportional)\n");
    let table = Table::header(&[
        r("d", 6),
        r("rows", 8),
        r("frac", 5),
        r("simulated", 10),
        r("urn", 10),
        r("prop", 10),
        r("urn err", 8),
        r("prop err", 8),
    ]);

    for (d, per_value) in [(100u64, 10u64), (1000, 10), (10_000, 10), (10_000, 2), (1000, 100)] {
        let n = d * per_value;
        for frac in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let k = n as f64 * frac;
            let sim = simulate(d, n, frac, 20, &mut rng);
            let urn_est = urn::expected_distinct(d as f64, k)?;
            let prop_est = urn::proportional_distinct(d as f64, k, n as f64)?;
            let err = |est: f64| (est - sim).abs() / sim.max(1.0);
            table.row(&[
                &d,
                &n,
                &format_args!("{frac:.2}"),
                &format_args!("{sim:.1}"),
                &format_args!("{urn_est:.1}"),
                &format_args!("{prop_est:.1}"),
                &format_args!("{:.2}%", err(urn_est) * 100.0),
                &format_args!("{:.2}%", err(prop_est) * 100.0),
            ]);
        }
    }

    println!("\n# the paper's Section 5 numeric example");
    println!(
        "d=10000, ||R||=100000, ||R||'=50000: urn = {} (paper: 9933), proportional = {} (paper: 5000)",
        urn::expected_distinct_rounded(10_000.0, 50_000.0)?,
        urn::proportional_distinct(10_000.0, 50_000.0, 100_000.0)?,
    );
    Ok(())
}
