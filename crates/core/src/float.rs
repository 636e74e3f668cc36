//! Float comparison helpers — the one place `==`/`!=` on `f64` is legal.
//!
//! Estimates flow through long multiplicative chains (selectivity products,
//! urn-model ratios, EWMA corrections), so two mathematically-equal f64
//! values routinely differ in the last ulp and a raw `==` silently becomes
//! a data-dependent branch. The els-lint `numeric-discipline` pass bans
//! float equality outside this module; callers say *which* comparison they
//! mean:
//!
//! [`exactly_zero`] is a sentinel check against a value the code itself
//! assigned (a cardinality set to literal `0.0`). It is bit-exact on
//! purpose: the sentinel is stored, never computed. A value that went
//! through arithmetic is compared against a magnitude threshold instead.

/// `x` is the stored sentinel `0.0` (either sign). Use only for values
/// assigned from a literal, never for computed results — for those, use
/// a magnitude threshold.
#[inline]
pub(crate) fn exactly_zero(x: f64) -> bool {
    x == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_are_bit_exact() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(1e-300));
    }
}
