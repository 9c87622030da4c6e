//! Catalog-driven estimation: the code path a query optimizer actually
//! executes.
//!
//! The analysis path ([`crate::model::ChainQuery::estimated_size`]) works
//! on full frequency matrices; a real optimizer only has the compact
//! catalog histograms of §4. This module estimates sizes from
//! [`StoredHistogram`]s — join sizes as `Σ_v â₀(v)·â₁(v)` over the join
//! domain and selection sizes from the stored bucket averages — and is
//! cross-checked against both the analysis path and actual hash-join
//! execution in the integration tests.

use crate::selection::Selection;
use relstore::StoredHistogram;
use vopt_hist::interp::{band_fraction, overlap_fraction};

/// Estimates the size of a 2-way equality join from the two relations'
/// stored histograms.
///
/// `domain` enumerates the candidate join values (in practice the value
/// dictionary of either attribute; values outside both relations simply
/// contribute the product of default averages, matching the paper's
/// uniform-within-bucket semantics where the catalog cannot distinguish
/// absent values from pooled ones).
pub fn estimate_two_way_join(
    left: &StoredHistogram,
    right: &StoredHistogram,
    domain: &[u64],
) -> f64 {
    domain
        .iter()
        .map(|&v| left.approx_frequency(v) as f64 * right.approx_frequency(v) as f64)
        .sum()
}

/// Estimates a 2-way equality join over the union of the two columns'
/// value dictionaries — [`estimate_two_way_join`] with `domain = L ∪ R`
/// — in closed form over the §4 layout, without building the union.
///
/// Every value of `L ∪ R` that neither histogram lists is worth
/// `defaultL · defaultR`; only the listed (exception) values differ. So
/// the sum is one merge of the two sorted exception lists, adding
/// `âL(v)·âR(v)` for each listed `v` in either dictionary (`k` of them),
/// plus `(|L ∪ R| − k) · defaultL · defaultR`, with `|L ∪ R|` counted by
/// an allocation-free merge of the dictionaries: `O(β log(|L| + |R|))`
/// searches and one linear merge, instead of building, sorting and
/// binary-searching the union.
///
/// Both dictionaries must be strictly ascending (sorted, without
/// duplicates), as value dictionaries are. Every term is a product
/// of integer averages, summed exactly in `u128` and rounded to `f64`
/// once, so the result equals the reference walk bit for bit whenever
/// the total is at most 2^53 (the walk's partial sums are then exact
/// integers too). Above that it is the correctly rounded exact sum,
/// where the walk's depended on summation order. A total past `u128`
/// saturates.
pub fn estimate_equi_join(
    left: &StoredHistogram,
    left_dict: &[u64],
    right: &StoredHistogram,
    right_dict: &[u64],
) -> f64 {
    let union = union_count(left_dict, right_dict);
    if union == 0 {
        // The empty f64 sum, as the reference walk gives for an empty
        // domain.
        return -0.0;
    }
    let in_dicts =
        |v: &u64| left_dict.binary_search(v).is_ok() || right_dict.binary_search(v).is_ok();
    let default_l = u128::from(left.bucket_avgs()[left.default_bucket() as usize]);
    let default_r = u128::from(right.bucket_avgs()[right.default_bucket() as usize]);
    let avg = |h: &StoredHistogram, b: u32| u128::from(h.bucket_avgs()[b as usize]);
    let (l_exc, r_exc) = (left.exceptions(), right.exceptions());
    let (mut i, mut j) = (0, 0);
    let mut listed = 0u128;
    let mut k = 0;
    while i < l_exc.len() || j < r_exc.len() {
        let (v, a_l, a_r) = match (l_exc.get(i), r_exc.get(j)) {
            (Some(&(lv, lb)), Some(&(rv, rb))) if lv == rv => {
                i += 1;
                j += 1;
                (lv, avg(left, lb), avg(right, rb))
            }
            (Some(&(lv, lb)), r) if r.is_none_or(|&(rv, _)| lv < rv) => {
                i += 1;
                (lv, avg(left, lb), default_r)
            }
            (_, Some(&(rv, rb))) => {
                j += 1;
                (rv, default_l, avg(right, rb))
            }
            (_, None) => unreachable!("the loop runs while either list has values"),
        };
        if in_dicts(&v) {
            listed = listed.saturating_add(a_l.saturating_mul(a_r));
            k += 1;
        }
    }
    let unlisted = ((union - k) as u128)
        .saturating_mul(default_l)
        .saturating_mul(default_r);
    listed.saturating_add(unlisted) as f64
}

/// `|a ∪ b| = |a| + |b| − |a ∩ b|` for two strictly ascending slices,
/// counting the intersection by a branch-free merge.
fn union_count(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        common += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    a.len() + b.len() - common
}

/// Estimates the size of a self-join from a stored histogram.
pub fn estimate_self_join(hist: &StoredHistogram, domain: &[u64]) -> f64 {
    estimate_two_way_join(hist, hist, domain)
}

/// Estimates an equality selection `a = value` from a stored histogram.
pub fn estimate_equality(hist: &StoredHistogram, value: u64) -> f64 {
    hist.approx_frequency(value) as f64
}

/// Estimates a range selection from a stored histogram's value-carrying
/// buckets: each bucket contributes its tuple mass (`average ×
/// distinct`) scaled by the fraction of its value span inside the
/// continuous query interval `[q_lo, q_hi)` (see
/// [`crate::Predicate::interval`] for the predicate → interval
/// mapping). All interpolation arithmetic lives in
/// `vopt_hist::interp` — this is just the Σ over buckets.
///
/// Exact whenever every bucket is a singleton span; always in
/// `[0, Σ average × distinct]` because the fraction is clamped to
/// `[0, 1]`.
pub fn estimate_range(hist: &StoredHistogram, q_lo: f64, q_hi: f64) -> f64 {
    hist.bucket_avgs()
        .iter()
        .zip(hist.bounds())
        .map(|(&avg, bounds)| {
            avg as f64 * bounds.distinct as f64 * overlap_fraction(bounds, q_lo, q_hi)
        })
        .sum()
}

/// Estimates the size of a band join `|R.a − S.b| <= w` from the two
/// relations' stored histograms: every bucket pair contributes the
/// product of its tuple masses scaled by the fraction of value pairs
/// within the band (the histogram-overlap algebra of inequality-join
/// estimation; point-mass bucket pairs are answered exactly).
pub fn estimate_band_join(left: &StoredHistogram, right: &StoredHistogram, w: u64) -> f64 {
    let mut total = 0.0;
    for (&l_avg, l_bounds) in left.bucket_avgs().iter().zip(left.bounds()) {
        let l_mass = l_avg as f64 * l_bounds.distinct as f64;
        if l_mass == 0.0 {
            continue;
        }
        for (&r_avg, r_bounds) in right.bucket_avgs().iter().zip(right.bounds()) {
            let r_mass = r_avg as f64 * r_bounds.distinct as f64;
            if r_mass == 0.0 {
                continue;
            }
            total += l_mass * r_mass * band_fraction(l_bounds, r_bounds, w);
        }
    }
    total
}

/// Estimates a general selection over an explicit domain: the predicate
/// selects *indices into `domain`* (see [`Selection`]), and each selected
/// value contributes its stored average.
pub fn estimate_selection(
    hist: &StoredHistogram,
    domain: &[u64],
    selection: &Selection,
) -> crate::Result<f64> {
    let indicator = selection.indicator(domain.len())?;
    Ok(domain
        .iter()
        .zip(&indicator)
        .map(|(&v, &b)| hist.approx_frequency(v) as f64 * b as f64)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::catalog::StoredHistogram;
    use vopt_hist::construct::{end_biased, v_opt_end_biased};
    use vopt_hist::interp::ValueBounds;

    /// freqs 100, 40, 30, 20, 10 over values 0..5, top and bottom singled
    /// out.
    fn stored() -> StoredHistogram {
        let freqs = [100u64, 40, 30, 20, 10];
        let hist = end_biased(&freqs, 1, 1).unwrap();
        StoredHistogram::from_histogram(&[0, 1, 2, 3, 4], &hist).unwrap()
    }

    #[test]
    fn self_join_estimate_matches_prop31_rounded() {
        let s = stored();
        let domain: Vec<u64> = (0..5).collect();
        let est = estimate_self_join(&s, &domain);
        // Buckets: {100}, {40,30,20} → avg 30, {10}: Σ P·a² = 100² + 3·30² + 10².
        assert!((est - (10_000.0 + 2_700.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn join_of_different_relations() {
        let a = stored();
        let freqs_b = [50u64, 50, 50, 1, 1];
        let hist_b = v_opt_end_biased(&freqs_b, 2).unwrap().histogram;
        let b = StoredHistogram::from_histogram(&[0, 1, 2, 3, 4], &hist_b).unwrap();
        let domain: Vec<u64> = (0..5).collect();
        let est = estimate_two_way_join(&a, &b, &domain);
        assert!(est > 0.0);
        // Hand computation: b pools {50,50,50} (avg 50) and {1,1} (avg 1);
        // which pair of values falls where depends on the end-biased split,
        // but the estimate must be Σ â_a(v)·â_b(v).
        let direct: f64 = domain
            .iter()
            .map(|&v| a.approx_frequency(v) as f64 * b.approx_frequency(v) as f64)
            .sum();
        assert_eq!(est, direct);
    }

    #[test]
    fn equi_join_over_empty_dictionaries_is_the_empty_sum() {
        let s = stored();
        let walk = estimate_two_way_join(&s, &s, &[]);
        assert_eq!(
            estimate_equi_join(&s, &[], &s, &[]).to_bits(),
            walk.to_bits()
        );
        assert_eq!(walk.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn equi_join_past_2_pow_53_is_the_rounded_exact_sum() {
        // One listed value worth 2^30 on each side, then 512 unlisted
        // values worth 1·1. The walk adds each 1 to 2^60, where f64's
        // spacing is 256, and loses it; the closed form keeps all 512.
        let h = StoredHistogram::from_parts(
            vec![1, 1 << 30],
            0,
            vec![(0, 1)],
            vec![
                ValueBounds {
                    lo: 1,
                    hi: 513,
                    distinct: 512,
                },
                ValueBounds {
                    lo: 0,
                    hi: 1,
                    distinct: 1,
                },
            ],
        )
        .unwrap();
        let dict: Vec<u64> = (0..513).collect();
        let exact = ((1u128 << 60) + 512) as f64;
        assert_eq!(estimate_equi_join(&h, &dict, &h, &dict), exact);
        assert_eq!(estimate_two_way_join(&h, &h, &dict), (1u64 << 60) as f64);
    }

    #[test]
    fn equality_estimates() {
        let s = stored();
        assert_eq!(estimate_equality(&s, 0), 100.0);
        assert_eq!(estimate_equality(&s, 2), 30.0);
        assert_eq!(estimate_equality(&s, 4), 10.0);
        // Unknown value falls in the default bucket.
        assert_eq!(estimate_equality(&s, 999), 30.0);
    }

    #[test]
    fn selection_estimates() {
        let s = stored();
        let domain: Vec<u64> = (0..5).collect();
        let range = Selection::Range { lo: 1, hi: 3 };
        let est = estimate_selection(&s, &domain, &range).unwrap();
        assert!((est - 90.0).abs() < 1e-9); // 30 + 30 + 30
        let ne = Selection::NotEquals(0);
        let est = estimate_selection(&s, &domain, &ne).unwrap();
        assert!((est - 100.0).abs() < 1e-9); // 3·30 + 10
    }

    #[test]
    fn empty_domain_gives_zero() {
        let s = stored();
        assert_eq!(estimate_self_join(&s, &[]), 0.0);
    }

    /// All-singleton buckets: one per value 0..5.
    fn stored_singletons() -> StoredHistogram {
        let freqs = [100u64, 40, 30, 20, 10];
        let hist = v_opt_end_biased(&freqs, 5).unwrap().histogram;
        StoredHistogram::from_histogram(&[0, 1, 2, 3, 4], &hist).unwrap()
    }

    #[test]
    fn range_estimate_exact_on_singleton_buckets() {
        let s = stored_singletons();
        // BETWEEN 1 AND 3 ↦ [1, 4): exactly values 1, 2, 3.
        assert!((estimate_range(&s, 1.0, 4.0) - 90.0).abs() < 1e-9);
        // > 2 ↦ [3, +∞): values 3, 4.
        assert!((estimate_range(&s, 3.0, f64::INFINITY) - 30.0).abs() < 1e-9);
        // < 1 ↦ (−∞, 1): value 0 only.
        assert!((estimate_range(&s, f64::NEG_INFINITY, 1.0) - 100.0).abs() < 1e-9);
        // Whole line: every tuple.
        assert!((estimate_range(&s, f64::NEG_INFINITY, f64::INFINITY) - 200.0).abs() < 1e-9);
        // Disjoint interval: nothing.
        assert_eq!(estimate_range(&s, 50.0, 60.0), 0.0);
    }

    #[test]
    fn range_estimate_interpolates_pooled_buckets() {
        let s = stored();
        // Buckets: {0}→100, {1,2,3}→avg 30 spanning [1, 4), {4}→10.
        // Interval [1, 2.5) covers half of the pooled span: 3·30·0.5.
        let est = estimate_range(&s, 1.0, 2.5);
        assert!((est - 45.0).abs() < 1e-9, "{est}");
    }

    #[test]
    fn band_join_exact_on_singleton_buckets() {
        let s = stored_singletons();
        // w = 0 band self-join == equality self-join.
        let band = estimate_band_join(&s, &s, 0);
        let eq = estimate_self_join(&s, &(0..5).collect::<Vec<_>>());
        assert!((band - eq).abs() < 1e-9, "{band} vs {eq}");
        // w large enough to cover everything: (Σ f)².
        let all = estimate_band_join(&s, &s, 10);
        assert!((all - 200.0 * 200.0).abs() < 1e-9);
        // Widening the band never shrinks the estimate.
        let mut last = 0.0;
        for w in 0..10 {
            let est = estimate_band_join(&s, &s, w);
            assert!(est + 1e-9 >= last, "w={w} shrank");
            last = est;
        }
    }
}
