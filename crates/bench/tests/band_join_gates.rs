//! The band-join gates, over the measuring function `els-bench band`
//! prints from, at a size that runs in about a second.

use els_bench::experiments::band::{measure, BAND_ELS_MEDIAN_Q_LIMIT};

#[test]
fn band_join_estimates_stay_accurate_bounded_and_on_the_range_operator() {
    let report = measure(240, 2);
    // Estimation strategy must never change an executed result.
    assert!(report.disagreements.is_empty(), "{:#?}", report.disagreements);
    let median = report.els_pooled_median_q();
    assert!(median <= BAND_ELS_MEDIAN_Q_LIMIT, "ELS pooled band median q-error {median}");
    // A band join has no per-key bound, so UES must fall back to the cross
    // product: it claims to be an upper bound.
    let under: usize = report.contender("UES bound").map(|c| c.underestimates).sum();
    assert_eq!(under, 0, "UES bound under-estimated {under} band join operator(s)");
    // A plan-space change that stops choosing RANGE would silently hollow
    // out the accuracy numbers above.
    let range: usize = report.contender("ELS").map(|c| c.range_plans).sum();
    assert!(range > 0, "no ELS plan ran through the RANGE band-join operator");
}
