//! A fixed log-linear latency histogram: 128 linear sub-buckets per power
//! of two, so a recorded value is off by at most 1/128 (< 1 %), and
//! recording never allocates.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values are nanoseconds; 2^42 ns is over an hour, far beyond any
/// operation here. Larger values saturate into the last bucket.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    (shift as usize + 1) * SUB + sub
}

/// The midpoint of a bucket's value range.
fn value_of(bucket: usize) -> f64 {
    if bucket < SUB {
        return bucket as f64;
    }
    let shift = (bucket / SUB - 1) as u32;
    let lo = ((SUB + bucket % SUB) as u64) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile (`p` in 0..=1) in nanoseconds; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(bucket);
            }
        }
        value_of(BUCKETS - 1)
    }

    /// Samples strictly above the bucket holding percentile `p`.
    pub fn samples_beyond(&self, p: f64) -> u64 {
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for &c in &self.counts {
            seen += c;
            if seen >= rank {
                break;
            }
        }
        self.total - seen
    }
}

/// Nearest-rank percentile of an already sorted slice (the definition the
/// histogram is tested against, and what the small float samples use).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn percentiles_match_a_sorted_vector_within_one_percent() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = Histogram::new();
        let mut all = Vec::new();
        for _ in 0..50_000 {
            // Log-uniform over 100 ns .. 100 ms, the range operations span.
            let v = (100.0 * 10f64.powf(rng.gen::<f64>() * 6.0)) as u64;
            h.record(v);
            all.push(v as f64);
        }
        all.sort_by(f64::total_cmp);
        assert_eq!(h.count(), 50_000);
        for p in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = percentile_sorted(&all, p);
            let got = h.percentile(p);
            assert!((got - exact).abs() <= exact * 0.01, "p{p}: {got} vs {exact}");
        }
        // The bucket holding p99 may hold a few samples past rank 49 500.
        assert!((450..=500).contains(&h.samples_beyond(0.99)), "{}", h.samples_beyond(0.99));
    }

    #[test]
    fn small_values_are_exact_and_huge_ones_saturate() {
        let mut h = Histogram::new();
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 63.0);
        h.record(u64::MAX);
        assert!(h.percentile(1.0) > 1e12);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(1_000);
        b.record(9_000);
        b.record(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.percentile(0.5) - 9_000.0).abs() < 90.0);
    }
}
