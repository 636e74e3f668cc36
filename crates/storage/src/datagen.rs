//! Seeded synthetic data generation.
//!
//! The paper's experiment (Section 8) uses four generated tables S, M, B, G
//! whose join columns are uniform with known column cardinalities. The
//! generators here reproduce those tables deterministically from a seed, and
//! additionally provide Zipf-distributed columns for the skew-sensitivity
//! study (the paper's Section 9 names Zipfian data as the important case its
//! assumptions do not cover).
//!
//! Distribution notes:
//!
//! * [`Distribution::CycleInt`] yields `start + (row mod modulus)` — an
//!   *exactly* uniform column with column cardinality `modulus` (when the
//!   table has at least `modulus` rows). This is the distribution under which
//!   the paper's uniformity assumption holds with equality, so estimator
//!   tests against it are exact.
//! * [`Distribution::UniformInt`] samples uniformly at random; column
//!   cardinality is then governed by the urn model of the paper's Section 5,
//!   which makes it the right generator for validating that model.
//! * [`Distribution::ZipfInt`] samples ranks from a Zipf(θ) law
//!   (`P(rank k) ∝ 1/k^θ`), per the paper's references [17, 3, 6].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::column::ColumnVector;
use crate::table::Table;
use crate::value::{DataType, Value};

/// How the values of one generated column are distributed.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// `start, start+1, start+2, …` — a key column: column cardinality equals
    /// the table cardinality.
    SequentialInt {
        /// First value.
        start: i64,
    },
    /// `start + (row mod modulus)` — exactly uniform with `modulus` distinct
    /// values.
    CycleInt {
        /// Number of distinct values.
        modulus: u64,
        /// Smallest value.
        start: i64,
    },
    /// Independent uniform draws from `lo..=hi`.
    UniformInt {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Zipf-distributed ranks: value `start + k` (k in `0..n`) drawn with
    /// probability proportional to `1/(k+1)^theta`. `theta = 0` degenerates
    /// to uniform.
    ZipfInt {
        /// Number of distinct ranks.
        n: u64,
        /// Skew parameter θ ≥ 0.
        theta: f64,
        /// Value of the most frequent rank.
        start: i64,
    },
    /// Every row holds the same value.
    ConstInt {
        /// The constant.
        value: i64,
    },
    /// Independent uniform floats from `lo..hi`.
    UniformFloat {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Strings `"{prefix}{row mod modulus}"` — a cyclic tag column.
    StrTag {
        /// Common prefix.
        prefix: String,
        /// Number of distinct tags.
        modulus: u64,
    },
    /// Wraps another distribution, replacing a fraction of rows with NULL.
    WithNulls {
        /// The underlying distribution.
        inner: Box<Distribution>,
        /// Probability in `[0, 1]` that a row is NULL.
        null_fraction: f64,
    },
}

impl Distribution {
    /// The [`DataType`] of columns produced by this distribution.
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            Distribution::SequentialInt { .. }
            | Distribution::CycleInt { .. }
            | Distribution::UniformInt { .. }
            | Distribution::ZipfInt { .. }
            | Distribution::ConstInt { .. } => DataType::Int,
            Distribution::UniformFloat { .. } => DataType::Float,
            Distribution::StrTag { .. } => DataType::Str,
            Distribution::WithNulls { inner, .. } => inner.data_type(),
        }
    }
}

/// Specification of one generated column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Value distribution.
    pub distribution: Distribution,
}

impl ColumnSpec {
    /// Create a column spec.
    pub fn new(name: impl Into<String>, distribution: Distribution) -> Self {
        ColumnSpec { name: name.into(), distribution }
    }
}

/// Specification of one generated table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Number of rows to generate.
    pub rows: usize,
    /// Column specifications, in schema order.
    pub columns: Vec<ColumnSpec>,
}

impl TableSpec {
    /// Start a spec with no columns.
    pub fn new(name: impl Into<String>, rows: usize) -> Self {
        TableSpec { name: name.into(), rows, columns: Vec::new() }
    }

    /// Add a column (builder style).
    #[must_use]
    pub fn column(mut self, spec: ColumnSpec) -> Self {
        self.columns.push(spec);
        self
    }

    /// Generate the table. The same `(spec, seed)` pair always produces the
    /// same table; distinct columns use decorrelated substreams.
    pub fn generate(&self, seed: u64) -> Table {
        let columns = self
            .columns
            .iter()
            .enumerate()
            .map(|(ci, spec)| {
                // Derive a per-column seed so adding a column never perturbs
                // the data of its neighbours.
                let col_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(ci as u64 + 1);
                let col = generate_column(&spec.distribution, self.rows, col_seed);
                (spec.name.clone(), col)
            })
            .collect();
        // Every generated column has exactly `self.rows` rows, so
        // construction cannot fail; degrade to an empty table rather than
        // assert.
        Table::new(self.name.clone(), columns).unwrap_or_else(|_| Table::empty(&self.name, &[]))
    }
}

/// Generate a single column of `rows` values.
pub(crate) fn generate_column(dist: &Distribution, rows: usize, seed: u64) -> ColumnVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut col = ColumnVector::with_capacity(dist.data_type(), rows);
    let zipf = match dist {
        Distribution::ZipfInt { n, theta, .. } => Some(ZipfSampler::new(*n, *theta)),
        Distribution::WithNulls { inner, .. } => {
            if let Distribution::ZipfInt { n, theta, .. } = inner.as_ref() {
                Some(ZipfSampler::new(*n, *theta))
            } else {
                None
            }
        }
        _ => None,
    };
    for row in 0..rows {
        let v = sample(dist, row, &mut rng, zipf.as_ref());
        // Generators produce values of the declared column type; the
        // impossible mismatch degrades to a NULL slot (always accepted)
        // rather than aborting.
        if col.push(v).is_err() {
            let _ = col.push(Value::Null);
        }
    }
    col
}

fn sample(dist: &Distribution, row: usize, rng: &mut StdRng, zipf: Option<&ZipfSampler>) -> Value {
    match dist {
        Distribution::SequentialInt { start } => Value::Int(start + row as i64),
        Distribution::CycleInt { modulus, start } => {
            Value::Int(start + (row as u64 % modulus.max(&1).to_owned()) as i64)
        }
        Distribution::UniformInt { lo, hi } => Value::Int(rng.gen_range(*lo..=*hi)),
        Distribution::ZipfInt { start, .. } => {
            // The sampler is prepared for every zipf distribution; a
            // missing one (impossible by construction) samples rank 0.
            let k = match zipf {
                Some(z) => z.sample(rng),
                None => 0,
            };
            Value::Int(start + k as i64)
        }
        Distribution::ConstInt { value } => Value::Int(*value),
        Distribution::UniformFloat { lo, hi } => Value::Float(rng.gen_range(*lo..*hi)),
        Distribution::StrTag { prefix, modulus } => {
            Value::Str(format!("{prefix}{}", row as u64 % modulus.max(&1).to_owned()))
        }
        Distribution::WithNulls { inner, null_fraction } => {
            if rng.gen::<f64>() < *null_fraction {
                Value::Null
            } else {
                sample(inner, row, rng, zipf)
            }
        }
    }
}

/// Inverse-CDF Zipf sampler with a precomputed cumulative table.
///
/// For the table sizes exercised here (n ≤ ~10⁶) a binary-searched CDF is
/// simpler and faster to build than rejection-inversion, and sampling is
/// O(log n).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Prepare a sampler over ranks `0..n` with skew `theta`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative/not finite.
    pub fn new(n: u64, theta: f64) -> Self {
        // els-lint: allow(assert-ban, "the benchmark pins this infallible signature, and no sampler exists for these inputs")
        assert!(
            n > 0 && theta.is_finite() && theta >= 0.0,
            "Zipf needs at least one rank and a finite theta >= 0, got n = {n}, theta = {theta}"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        // partition_point returns the count of entries < u, i.e. the first
        // rank whose cumulative mass reaches u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Convenience: the paper's Section 8 catalog. Returns the four tables
/// S (1000 rows), M (10000), B (50000), G (100000), each with a single join
/// column named after the table (`s`, `m`, `b`, `g`) whose column cardinality
/// equals the table cardinality, exactly as specified in the paper.
///
/// The join columns are sequential over the same domain, so the containment
/// assumption holds exactly: values of `s` ⊆ values of `m` ⊆ values of `b` ⊆
/// values of `g`, and the true size of any join combination filtered by
/// `s < 100` is exactly 100 — the ground truth quoted in the paper.
pub fn starburst_experiment_tables(seed: u64) -> Vec<Table> {
    starburst_experiment_tables_sized(seed, &[1_000, 10_000, 50_000, 100_000])
}

/// [`starburst_experiment_tables`] at caller-chosen cardinalities for
/// S/M/B/G (`sizes` must have four entries). Used by the accuracy and
/// bake-off tests, which need the same schema and containment structure at
/// a fraction of the rows.
pub fn starburst_experiment_tables_sized(seed: u64, sizes: &[usize; 4]) -> Vec<Table> {
    let specs = [("S", "s"), ("M", "m"), ("B", "b"), ("G", "g")];
    specs
        .iter()
        .zip(sizes)
        .map(|((table, col), &rows)| {
            TableSpec::new(*table, rows)
                .column(ColumnSpec::new(*col, Distribution::SequentialInt { start: 0 }))
                // A payload column so tuples have realistic width.
                .column(ColumnSpec::new(
                    "payload",
                    Distribution::UniformInt { lo: 0, hi: 1_000_000 },
                ))
                .generate(seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// Distinct non-NULL values of a generated (`Int` or `Str`) column.
    fn distinct_count(c: &ColumnVector) -> usize {
        c.iter().filter(|v| !v.is_null()).map(|v| format!("{v:?}")).collect::<HashSet<_>>().len()
    }

    #[test]
    fn sequential_is_a_key() {
        let t = TableSpec::new("t", 100)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 10 }))
            .generate(7);
        let c = t.column_by_name("k").unwrap();
        assert_eq!(distinct_count(c), 100);
        assert_eq!(c.get(0).unwrap(), Value::Int(10));
        assert_eq!(c.get(99).unwrap(), Value::Int(109));
    }

    #[test]
    fn cycle_has_exact_cardinality_and_uniform_frequencies() {
        let t = TableSpec::new("t", 1000)
            .column(ColumnSpec::new("c", Distribution::CycleInt { modulus: 10, start: 0 }))
            .generate(7);
        let c = t.column_by_name("c").unwrap();
        assert_eq!(distinct_count(c), 10);
        // Each value appears exactly 100 times.
        let mut counts = [0usize; 10];
        for v in c.iter() {
            counts[v.as_int().unwrap() as usize] += 1;
        }
        assert!(counts.iter().all(|&n| n == 100));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = TableSpec::new("t", 50)
            .column(ColumnSpec::new("u", Distribution::UniformInt { lo: 0, hi: 9 }));
        let a = spec.generate(1);
        let b = spec.generate(1);
        let c = spec.generate(2);
        let col = |t: &Table| t.column_by_name("u").unwrap().iter().collect::<Vec<_>>();
        assert_eq!(col(&a), col(&b));
        assert_ne!(col(&a), col(&c));
    }

    #[test]
    fn adding_a_column_does_not_perturb_existing_ones() {
        let base = TableSpec::new("t", 50)
            .column(ColumnSpec::new("u", Distribution::UniformInt { lo: 0, hi: 99 }));
        let extended =
            base.clone().column(ColumnSpec::new("v", Distribution::UniformInt { lo: 0, hi: 99 }));
        let a = base.generate(3);
        let b = extended.generate(3);
        let col = |t: &Table| t.column_by_name("u").unwrap().iter().collect::<Vec<_>>();
        assert_eq!(col(&a), col(&b));
    }

    #[test]
    fn uniform_int_stays_in_range() {
        let c = generate_column(&Distribution::UniformInt { lo: -5, hi: 5 }, 500, 9);
        for v in c.iter() {
            let x = v.as_int().unwrap();
            assert!((-5..=5).contains(&x));
        }
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let c = generate_column(&Distribution::ZipfInt { n: 10, theta: 0.0, start: 0 }, 10_000, 11);
        let mut counts = [0usize; 10];
        for v in c.iter() {
            counts[v.as_int().unwrap() as usize] += 1;
        }
        for &n in &counts {
            // Expected 1000 each; allow generous sampling slack.
            assert!((700..=1300).contains(&n), "count {n} too far from uniform");
        }
    }

    #[test]
    fn zipf_high_theta_is_skewed_toward_rank_zero() {
        let c =
            generate_column(&Distribution::ZipfInt { n: 100, theta: 1.5, start: 0 }, 10_000, 13);
        let zero = c.iter().filter(|v| v.as_int() == Some(0)).count();
        let tail = c.iter().filter(|v| v.as_int().unwrap_or(0) >= 50).count();
        assert!(zero > 2_000, "rank 0 should dominate, got {zero}");
        assert!(tail < zero / 4, "tail {tail} should be rare vs head {zero}");
    }

    #[test]
    fn with_nulls_produces_requested_fraction() {
        let c = generate_column(
            &Distribution::WithNulls {
                inner: Box::new(Distribution::ConstInt { value: 1 }),
                null_fraction: 0.25,
            },
            10_000,
            17,
        );
        let nulls = c.null_count();
        assert!((2_000..=3_000).contains(&nulls), "null count {nulls}");
    }

    #[test]
    fn str_tag_cycles() {
        let c = generate_column(&Distribution::StrTag { prefix: "cat".into(), modulus: 3 }, 9, 1);
        assert_eq!(c.get(0).unwrap(), Value::from("cat0"));
        assert_eq!(c.get(4).unwrap(), Value::from("cat1"));
        assert_eq!(distinct_count(&c), 3);
    }

    #[test]
    fn starburst_tables_match_paper_statistics() {
        let tables = starburst_experiment_tables(42);
        let expect =
            [("S", "s", 1_000usize), ("M", "m", 10_000), ("B", "b", 50_000), ("G", "g", 100_000)];
        for (t, (name, col, rows)) in tables.iter().zip(expect) {
            assert_eq!(t.name(), name);
            assert_eq!(t.num_rows(), rows);
            assert_eq!(distinct_count(t.column_by_name(col).unwrap()), rows);
        }
    }

    #[test]
    fn starburst_true_join_size_is_100() {
        // With sequential domains and the filter s < 100, exactly the rows
        // with key 0..100 survive every join — the paper's ground truth.
        let tables = starburst_experiment_tables(42);
        let s = &tables[0];
        let survivors =
            s.column_by_name("s").unwrap().iter().filter(|v| v.as_int().unwrap() < 100).count();
        assert_eq!(survivors, 100);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_zero_ranks() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
