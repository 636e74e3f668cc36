//! The page-based cost model.
//!
//! Costs are in abstract "page units": one sequential page read costs 1,
//! CPU work is charged in small fractions of a page. The formulas mirror
//! the executor's actual behaviour (`els-exec`):
//!
//! * **Filtered scan** — read all stored pages, evaluate filters per tuple.
//! * **Nested loops** (base inner) — the stored inner is rescanned, filters
//!   and all, once per *estimated* outer tuple. This is where cardinality
//!   estimates bite: an outer estimated at 4·10⁻⁸ tuples makes any inner
//!   look free.
//! * **Sort-merge** — scan the inner once, sort both (filtered) inputs at
//!   `n·log₂ n` comparisons, merge linearly.
//! * **Hash** — scan the inner once, build on the left, probe with the
//!   right.

use crate::profile::TableProfile;

/// Tunable cost constants. The defaults put one tuple of CPU work at 1% of
/// a page read and one comparison at 0.2% — the classic System-R flavour of
/// "I/O dominates, CPU tie-breaks".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost of reading one page.
    pub page_cost: f64,
    /// CPU cost of processing one tuple (filter evaluation, emission).
    pub cpu_tuple_cost: f64,
    /// CPU cost of one key comparison (sorts, merges, NL key checks).
    pub cpu_cmp_cost: f64,
    /// CPU cost of one hash-table insert or probe.
    pub cpu_hash_cost: f64,
    /// Effective parallelism of the hash-join probe phase (≥ 1). The
    /// vectorized executor probes in morsels across worker threads, so the
    /// probe-side CPU term is divided by this factor; build, scan, and
    /// output costs stay serial. 1.0 (the default) models the serial
    /// executor exactly.
    pub probe_parallelism: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            page_cost: 1.0,
            cpu_tuple_cost: 0.01,
            cpu_cmp_cost: 0.002,
            cpu_hash_cost: 0.015,
            probe_parallelism: 1.0,
        }
    }
}

/// What the join formulas read of one input, computed once per input —
/// per base table when enumeration starts, per DP entry when its subset is
/// finished — rather than once per candidate join that reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InputTerms {
    /// Estimated tuples.
    pub(crate) rows: f64,
    /// Comparisons to sort the input: `n·log₂n`, 0 for at most one tuple.
    nlogn: f64,
    /// Hash CPU with the input on the probe side.
    hash_probe: f64,
    /// Comparisons of one band-join boundary search into the input.
    band_depth: f64,
}

/// The terms of a materialized intermediate: an [`InputTerms`], plus one
/// nested-loops rescan of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MaterializedTerms {
    pub(crate) input: InputTerms,
    rescan: f64,
}

/// The terms of a stored table as a join's inner.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoredTerms {
    /// Its filtered scan, as an input.
    input: InputTerms,
    /// The filtered scan, charged inside each join formula.
    scan: f64,
    /// One nested-loops rescan.
    rescan: f64,
    /// Indexed nested loops: building the sorted index, and one probe.
    index: (f64, f64),
}

/// The inner input of a candidate join, as the cost model distinguishes it.
#[derive(Clone, Copy)]
pub(crate) enum Inner<'a> {
    /// A stored table: scanned (or rescanned, or index-probed) in place.
    Stored(&'a StoredTerms),
    /// A materialized intermediate: its production is charged by its subplan.
    Materialized(&'a MaterializedTerms),
}

impl Inner<'_> {
    /// The input's terms, the scan each join formula charges for it (0 for
    /// an intermediate), its nested-loops rescan, and its index terms if it
    /// is a stored table.
    #[inline]
    pub(crate) fn parts(&self) -> (&InputTerms, f64, f64, Option<(f64, f64)>) {
        match *self {
            Inner::Stored(t) => (&t.input, t.scan, t.rescan, Some(t.index)),
            Inner::Materialized(t) => (&t.input, 0.0, t.rescan, None),
        }
    }
}

/// `n·log₂ n` comparisons of a sort, 0 for at most one tuple.
#[inline]
fn nlogn(n: f64) -> f64 {
    if n > 1.0 {
        n * n.log2()
    } else {
        0.0
    }
}

impl CostParams {
    /// The probe divisor, defensively clamped (a zero or negative setting
    /// would flip cost comparisons).
    #[inline]
    fn probe_div(&self) -> f64 {
        self.probe_parallelism.max(1.0)
    }

    /// The terms of an input of `rows` estimated tuples.
    #[inline]
    pub(crate) fn input_terms(&self, rows: f64) -> InputTerms {
        InputTerms {
            rows,
            nlogn: nlogn(rows),
            hash_probe: rows * self.cpu_hash_cost / self.probe_div(),
            band_depth: if rows > 2.0 { rows.log2() } else { 1.0 },
        }
    }

    /// The terms of the stored table `profile` as an inner whose filtered
    /// scan produces `rows` estimated tuples.
    pub(crate) fn stored_terms(&self, profile: &TableProfile, rows: f64) -> StoredTerms {
        StoredTerms {
            input: self.input_terms(rows),
            scan: self.scan(profile),
            rescan: self.rescan(profile.pages, profile.rows),
            index: self.index_terms(profile),
        }
    }

    /// The terms of a materialized intermediate of `rows` estimated tuples,
    /// `width` bytes each.
    #[inline]
    pub(crate) fn materialized_terms(&self, rows: f64, width: usize) -> MaterializedTerms {
        let pages = TableProfile::pages_for(rows, width);
        MaterializedTerms { input: self.input_terms(rows), rescan: self.rescan(pages, rows) }
    }

    /// Indexed nested loops over `profile`: building the sorted index (scan
    /// + sort), and one logarithmic descent.
    fn index_terms(&self, profile: &TableProfile) -> (f64, f64) {
        let n = profile.rows.max(2.0);
        let build = self.scan(profile) + n * n.log2() * self.cpu_cmp_cost;
        (build, n.log2() * self.cpu_cmp_cost + self.page_cost)
    }

    /// One rescan of `rows` tuples on `pages` pages by a nested-loops join.
    #[inline]
    fn rescan(&self, pages: f64, rows: f64) -> f64 {
        pages * self.page_cost + rows * self.cpu_cmp_cost
    }

    /// Cost of a filtered scan of a stored table.
    pub fn scan(&self, profile: &TableProfile) -> f64 {
        profile.pages * self.page_cost + profile.rows * self.cpu_tuple_cost
    }

    // The join formulas, one definition each. `inner_scan` is the stored
    // inner's scan, charged inside the formula, or 0 for an intermediate
    // inner (its production cost is charged by its subplan).

    /// Nested loops: the inner rescanned once per estimated outer tuple.
    #[inline]
    pub(crate) fn nested_loop_cost(&self, outer_rows: f64, inner_rescan: f64) -> f64 {
        outer_rows.max(0.0) * inner_rescan
    }

    /// Sort-merge: sort both inputs, merge, emit.
    #[inline]
    pub(crate) fn sort_merge_cost(
        &self,
        inner_scan: f64,
        outer: &InputTerms,
        inner: &InputTerms,
        output_rows: f64,
    ) -> f64 {
        inner_scan
            + (outer.nlogn + inner.nlogn) * self.cpu_cmp_cost
            + (outer.rows + inner.rows) * self.cpu_tuple_cost
            + output_rows.max(0.0) * self.cpu_tuple_cost
    }

    /// Hash: build on the outer, probe with the inner, emit.
    #[inline]
    pub(crate) fn hash_cost(
        &self,
        inner_scan: f64,
        outer_rows: f64,
        inner: &InputTerms,
        output_rows: f64,
    ) -> f64 {
        inner_scan
            + outer_rows * self.cpu_hash_cost
            + inner.hash_probe
            + output_rows.max(0.0) * self.cpu_tuple_cost
    }

    /// Indexed nested loops over a stored inner: build its index, one
    /// probe per estimated outer tuple, emit.
    #[inline]
    pub(crate) fn index_nested_loop_cost(
        &self,
        outer_rows: f64,
        (build, probe): (f64, f64),
        output_rows: f64,
    ) -> f64 {
        build + outer_rows.max(0.0) * probe + output_rows.max(0.0) * self.cpu_tuple_cost
    }

    /// Band join: two sorts, one `log₂ inner` boundary search per outer
    /// tuple, per-tuple emission.
    #[inline]
    pub(crate) fn range_join_cost(
        &self,
        inner_scan: f64,
        outer: &InputTerms,
        inner: &InputTerms,
        output_rows: f64,
    ) -> f64 {
        inner_scan
            + ((outer.nlogn + inner.nlogn) * self.cpu_cmp_cost
                + outer.rows.max(0.0) * inner.band_depth * self.cpu_cmp_cost
                + (outer.rows.max(0.0) + inner.rows.max(0.0)) * self.cpu_tuple_cost
                + output_rows.max(0.0) * self.cpu_tuple_cost)
    }

    /// Cost of a nested-loops join whose inner is the stored table
    /// `inner_profile`, rescanned (with filters) once per estimated outer
    /// tuple. The outer's own cost is not included.
    pub fn nested_loop(&self, outer_rows_est: f64, inner_profile: &TableProfile) -> f64 {
        self.nested_loop_cost(outer_rows_est, self.rescan(inner_profile.pages, inner_profile.rows))
    }

    /// Cost of a sort-merge join: scan the stored inner, sort both filtered
    /// inputs, merge. `outer_rows_est` and `inner_rows_eff` are the
    /// estimated tuple counts that actually reach the sort.
    pub fn sort_merge(
        &self,
        outer_rows_est: f64,
        inner_profile: &TableProfile,
        inner_rows_eff: f64,
        output_rows_est: f64,
    ) -> f64 {
        let (outer, inner) = (self.input_terms(outer_rows_est), self.input_terms(inner_rows_eff));
        self.sort_merge_cost(self.scan(inner_profile), &outer, &inner, output_rows_est)
    }

    /// Cost of a hash join: scan the stored inner, build on the outer,
    /// probe with the inner.
    pub fn hash(
        &self,
        outer_rows_est: f64,
        inner_profile: &TableProfile,
        inner_rows_eff: f64,
        output_rows_est: f64,
    ) -> f64 {
        let inner = self.input_terms(inner_rows_eff);
        self.hash_cost(self.scan(inner_profile), outer_rows_est, &inner, output_rows_est)
    }

    /// Cost of indexed nested loops over a stored inner: build the sorted
    /// index (scan + sort), then one logarithmic descent per estimated
    /// outer tuple plus the matching tuples.
    pub fn index_nested_loop(
        &self,
        outer_rows_est: f64,
        inner_profile: &TableProfile,
        output_rows_est: f64,
    ) -> f64 {
        self.index_nested_loop_cost(
            outer_rows_est,
            self.index_terms(inner_profile),
            output_rows_est,
        )
    }

    /// Cost of a sort-based band join over a stored inner: scan the inner,
    /// sort both filtered inputs, then one logarithmic boundary search per
    /// outer tuple. Unlike sort-merge there is no linear co-walk — every
    /// outer tuple pays a binary search — and the (often enormous) band
    /// output is charged per emitted tuple.
    pub fn range_join(
        &self,
        outer_rows_est: f64,
        inner_profile: &TableProfile,
        inner_rows_eff: f64,
        output_rows_est: f64,
    ) -> f64 {
        let (outer, inner) = (self.input_terms(outer_rows_est), self.input_terms(inner_rows_eff));
        self.range_join_cost(self.scan(inner_profile), &outer, &inner, output_rows_est)
    }

    /// Band join over two intermediates: sorts + probes + emission, no
    /// inner scan (its production cost is charged by its subplan).
    pub fn range_join_intermediate(
        &self,
        outer_rows_est: f64,
        inner_rows: f64,
        output_rows_est: f64,
    ) -> f64 {
        let (outer, inner) = (self.input_terms(outer_rows_est), self.input_terms(inner_rows));
        self.range_join_cost(0.0, &outer, &inner, output_rows_est)
    }

    /// Bushy variants: the inner is a *materialized intermediate* of
    /// `inner_rows` tuples and `inner_width` bytes per tuple (its own
    /// production cost is charged by its subplan). Nested loops rescans the
    /// materialization; sort-merge and hash only pay CPU.
    pub fn nested_loop_intermediate(
        &self,
        outer_rows_est: f64,
        inner_rows: f64,
        inner_width: usize,
    ) -> f64 {
        let pages = TableProfile::pages_for(inner_rows, inner_width);
        self.nested_loop_cost(outer_rows_est, self.rescan(pages, inner_rows))
    }

    /// Sort-merge over two intermediates: sort both, merge, emit.
    pub fn sort_merge_intermediate(
        &self,
        outer_rows_est: f64,
        inner_rows: f64,
        output_rows_est: f64,
    ) -> f64 {
        let (outer, inner) = (self.input_terms(outer_rows_est), self.input_terms(inner_rows));
        self.sort_merge_cost(0.0, &outer, &inner, output_rows_est)
    }

    /// Hash join over two intermediates: build + probe + emit.
    pub fn hash_intermediate(
        &self,
        outer_rows_est: f64,
        inner_rows: f64,
        output_rows_est: f64,
    ) -> f64 {
        let inner = self.input_terms(inner_rows);
        self.hash_cost(0.0, outer_rows_est, &inner, output_rows_est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn giant() -> TableProfile {
        TableProfile::synthetic(100_000.0, 16)
    }

    #[test]
    fn scan_charges_pages_plus_cpu() {
        let p = CostParams::default();
        let t = TableProfile::synthetic(1000.0, 8);
        assert!((p.scan(&t) - (2.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn nested_loop_is_free_for_empty_outer_estimates() {
        // The underestimation failure mode: outer ~ 0 makes NL over a giant
        // inner look free.
        let p = CostParams::default();
        let tiny = p.nested_loop(4e-8, &giant());
        assert!(tiny < 1.0, "cost {tiny}");
        let honest = p.nested_loop(100.0, &giant());
        assert!(honest > 10_000.0, "cost {honest}");
    }

    #[test]
    fn sort_merge_beats_nl_for_honest_outer_over_giant_inner() {
        let p = CostParams::default();
        let sm = p.sort_merge(100.0, &giant(), 100.0, 100.0);
        let nl = p.nested_loop(100.0, &giant());
        assert!(sm < nl, "sm {sm} should beat nl {nl}");
    }

    #[test]
    fn nl_beats_sort_merge_for_tiny_honest_outer_and_tiny_inner() {
        // One outer tuple vs a small inner: rescanning once is cheaper than
        // scan + two sorts.
        let p = CostParams::default();
        let small = TableProfile::synthetic(100.0, 8);
        let nl = p.nested_loop(1.0, &small);
        let sm = p.sort_merge(1.0, &small, 100.0, 1.0);
        assert!(nl < sm, "nl {nl} should beat sm {sm}");
    }

    #[test]
    fn hash_is_cheap_on_big_equijoins() {
        let p = CostParams::default();
        let h = p.hash(10_000.0, &giant(), 100_000.0, 10_000.0);
        let sm = p.sort_merge(10_000.0, &giant(), 100_000.0, 10_000.0);
        assert!(h < sm, "hash {h} should beat sm {sm} at scale");
    }

    #[test]
    fn probe_parallelism_discounts_only_the_probe_side() {
        let serial = CostParams::default();
        let par = CostParams { probe_parallelism: 4.0, ..CostParams::default() };
        // Probe side (inner) shrinks; a probe-free plan costs the same.
        let h_serial = serial.hash(1000.0, &giant(), 100_000.0, 10.0);
        let h_par = par.hash(1000.0, &giant(), 100_000.0, 10.0);
        assert!(h_par < h_serial, "parallel probe must be cheaper: {h_par} vs {h_serial}");
        let probe_cpu = 100_000.0 * serial.cpu_hash_cost;
        assert!((h_serial - h_par - probe_cpu * 0.75).abs() < 1e-9);
        assert_eq!(serial.nested_loop(10.0, &giant()), par.nested_loop(10.0, &giant()));
        // A big build changes nothing: the discount is still exactly the
        // probe side's, for the base-table and the intermediate variant.
        let big = serial.hash(10_000.0, &giant(), 100_000.0, 10.0)
            - par.hash(10_000.0, &giant(), 100_000.0, 10.0);
        assert!((big - probe_cpu * 0.75).abs() < 1e-9);
        let big_inter = serial.hash_intermediate(10_000.0, 100_000.0, 10.0)
            - par.hash_intermediate(10_000.0, 100_000.0, 10.0);
        assert!((big_inter - probe_cpu * 0.75).abs() < 1e-9);
        // Degenerate settings clamp instead of flipping comparisons.
        let broken = CostParams { probe_parallelism: 0.0, ..CostParams::default() };
        assert_eq!(
            broken.hash_intermediate(10.0, 10.0, 1.0),
            serial.hash_intermediate(10.0, 10.0, 1.0)
        );
    }

    #[test]
    fn range_join_beats_nested_loop_but_pays_for_its_output() {
        let p = CostParams::default();
        // An honest 1000-tuple outer over a giant inner: log-probes beat
        // full rescans by orders of magnitude.
        let band = p.range_join(1000.0, &giant(), 100_000.0, 10_000.0);
        let nl = p.nested_loop(1000.0, &giant());
        assert!(band < nl, "band {band} should beat nl {nl}");
        // The emission term matters: a band producing 10M tuples costs more
        // than one producing 10k from the same inputs.
        let wide = p.range_join(1000.0, &giant(), 100_000.0, 1e7);
        assert!(wide > band, "wide {wide} <= narrow {band}");
        // Intermediate variant drops only the inner scan.
        let inter = p.range_join_intermediate(1000.0, 100_000.0, 10_000.0);
        assert!((band - inter - p.scan(&giant())).abs() < 1e-9);
    }

    #[test]
    fn costs_are_monotone_in_outer_estimate() {
        let p = CostParams::default();
        let t = TableProfile::synthetic(1000.0, 8);
        let mut prev = -1.0;
        for outer in [0.0, 1.0, 10.0, 1e3, 1e6] {
            let c = p.nested_loop(outer, &t);
            assert!(c >= prev);
            prev = c;
        }
    }
}
