//! Property-based tests for the query and estimation layer.

use freqdist::{FreqMatrix, FrequencySet};
use proptest::prelude::*;
use query::estimate::{
    estimate_equality, estimate_equi_join, estimate_range, estimate_two_way_join,
};
use query::metrics::{mean_error, SizeSample};
use query::montecarlo::{sample_chain, sample_self_join, HistogramSpec, RelationSpec};
use query::selection::Selection;
use query::{ChainQuery, Predicate, RelationStats};
use relstore::catalog::StoredHistogram;
use vopt_hist::construct::{v_opt_end_biased, v_opt_serial_dp};
use vopt_hist::interp::ValueBounds;
use vopt_hist::RoundingMode;

fn freqs_strategy(max: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..200, 2..=max)
}

/// A sorted, duplicate-free value dictionary over `0..60`.
fn dict_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..60, 1..20).prop_map(|mut d| {
        d.sort_unstable();
        d.dedup();
        d
    })
}

/// The §4 layout an ANALYZE would store for `dict`: a v-optimal
/// end-biased histogram over it, so every exception is one of `dict`'s
/// own values.
fn analyzed(dict: &[u64], freqs: &[u64], beta: usize) -> StoredHistogram {
    let freqs: Vec<u64> = (0..dict.len()).map(|i| freqs[i % freqs.len()]).collect();
    let hist = v_opt_end_biased(&freqs, beta.min(dict.len()))
        .unwrap()
        .histogram;
    StoredHistogram::from_histogram(dict, &hist).unwrap()
}

/// A stored layout with exceptions anywhere in `0..80`, so some are in
/// neither dictionary (a catalog entry decoded or tuned apart from the
/// dictionary it is estimated with).
fn free_layout() -> impl Strategy<Value = StoredHistogram> {
    (
        prop::collection::vec(0u64..1_000, 1..5),
        0u32..5,
        prop::collection::vec((0u64..80, 0u32..5), 0..12),
    )
        .prop_map(|(avgs, default, mut exceptions)| {
            let n = avgs.len() as u32;
            exceptions.sort_unstable_by_key(|&(v, _)| v);
            exceptions.dedup_by_key(|&mut (v, _)| v);
            let exceptions = exceptions.into_iter().map(|(v, b)| (v, b % n)).collect();
            let bounds = vec![
                ValueBounds {
                    lo: 0,
                    hi: 100,
                    distinct: 1
                };
                avgs.len()
            ];
            StoredHistogram::from_parts(avgs, default % n, exceptions, bounds).unwrap()
        })
}

/// Reshapes two dictionaries into the case `shape` names: 0 leaves
/// them overlapping at random, 1 makes them disjoint, 2 puts the right
/// one inside the left, 3 cuts both to singletons.
fn shaped(shape: u8, left: Vec<u64>, right: Vec<u64>) -> (Vec<u64>, Vec<u64>) {
    match shape {
        0 => (left, right),
        1 => (left, right.iter().map(|v| v + 1_000).collect()),
        2 => {
            let inner = left.iter().copied().step_by(2).collect();
            (left, inner)
        }
        _ => (left[..1].to_vec(), right[..1].to_vec()),
    }
}

/// The reference the closed form must equal: the two-way join walked
/// over the materialised, sorted union of both dictionaries.
fn union_walk(l: &StoredHistogram, ld: &[u64], r: &StoredHistogram, rd: &[u64]) -> f64 {
    let mut union: Vec<u64> = ld.iter().chain(rd).copied().collect();
    union.sort_unstable();
    union.dedup();
    estimate_two_way_join(l, r, &union)
}

proptest! {
    /// Estimation with M-bucket histograms is exact for any 2-relation
    /// chain.
    #[test]
    fn exact_histograms_are_exact(fa in freqs_strategy(12), fb in freqs_strategy(12)) {
        let n = fa.len().min(fb.len());
        let (fa, fb) = (&fa[..n], &fb[..n]);
        let q = ChainQuery::new(vec![
            FreqMatrix::horizontal(fa.to_vec()),
            FreqMatrix::vertical(fb.to_vec()),
        ]).unwrap();
        let stats = vec![
            RelationStats::Vector(v_opt_serial_dp(fa, n).unwrap().histogram),
            RelationStats::Vector(v_opt_serial_dp(fb, n).unwrap().histogram),
        ];
        let est = q.estimated_size(&stats, RoundingMode::Exact).unwrap();
        let exact = q.exact_size().unwrap() as f64;
        prop_assert!((est - exact).abs() <= 1e-6 * exact.max(1.0));
    }

    /// The All-selection estimate conserves the relation size in Exact
    /// mode for any histogram the engine can build.
    #[test]
    fn all_selection_conserves_mass(freqs in freqs_strategy(16), beta in 1usize..6) {
        prop_assume!(beta <= freqs.len());
        for spec in [
            HistogramSpec::Trivial,
            HistogramSpec::EquiDepth(beta),
            HistogramSpec::VOptSerial(beta),
            HistogramSpec::VOptEndBiased(beta),
        ] {
            let h = spec.build(&freqs).unwrap();
            let approx = h.approx_frequencies(RoundingMode::Exact);
            let est = Selection::All.estimated_size(&approx).unwrap();
            let total: u64 = freqs.iter().sum();
            prop_assert!((est - total as f64).abs() <= 1e-6 * (total as f64 + 1.0));
        }
    }

    /// Equality + complement estimates always sum to the All estimate.
    #[test]
    fn complement_identity(freqs in freqs_strategy(16), idx in 0usize..16) {
        prop_assume!(idx < freqs.len());
        let h = HistogramSpec::VOptEndBiased(3.min(freqs.len())).build(&freqs).unwrap();
        let approx = h.approx_frequencies(RoundingMode::Exact);
        let all = Selection::All.estimated_size(&approx).unwrap();
        let eq = Selection::Equals(idx).estimated_size(&approx).unwrap();
        let ne = Selection::NotEquals(idx).estimated_size(&approx).unwrap();
        prop_assert!((all - eq - ne).abs() < 1e-9 * (all.abs() + 1.0));
    }

    /// Self-join sampling with a frequency-based histogram is exactly
    /// Proposition 3.1's S': the estimate never exceeds S and the error
    /// equals Σ PᵢVᵢ.
    #[test]
    fn self_join_sampling_matches_prop31(freqs in freqs_strategy(20), beta in 1usize..6) {
        prop_assume!(beta <= freqs.len());
        let fs = FrequencySet::new(freqs.clone());
        let samples = sample_self_join(
            &fs, HistogramSpec::VOptSerial(beta), 3, 0, RoundingMode::Exact,
        ).unwrap();
        let h = v_opt_serial_dp(&freqs, beta).unwrap().histogram;
        for s in &samples {
            prop_assert!((s.estimate - h.approx_self_join_size(RoundingMode::Exact)).abs() < 1e-6);
            prop_assert!(s.estimate <= s.exact + 1e-6, "self-join over-estimated");
            prop_assert!(
                ((s.exact - s.estimate) - h.self_join_error()).abs()
                    <= 1e-6 * (s.exact + 1.0)
            );
        }
    }

    /// Theorem 3.2 in miniature: over many arrangements the signed error
    /// of a trivial-histogram estimate centres on zero (tolerance scaled
    /// by the sample σ).
    #[test]
    fn mean_error_centres_on_zero(fa in freqs_strategy(8), fb in freqs_strategy(8)) {
        let n = fa.len().min(fb.len());
        let rels = vec![
            RelationSpec::horizontal(FrequencySet::new(fa[..n].to_vec())),
            RelationSpec::vertical(FrequencySet::new(fb[..n].to_vec())),
        ];
        let samples = sample_chain(
            &rels,
            &[HistogramSpec::Trivial, HistogramSpec::Trivial],
            1500,
            9,
            RoundingMode::Exact,
        ).unwrap();
        let me = mean_error(&samples);
        let spread = query::metrics::sigma(&samples);
        prop_assert!(me.abs() <= 0.2 * spread + 1e-6,
            "mean error {me} too far from 0 (sigma {spread})");
    }

    /// Size samples: relative error is non-negative and zero iff exact.
    #[test]
    fn relative_error_basics(exact in 0.0f64..1e6, estimate in 0.0f64..1e6) {
        let s = SizeSample { exact, estimate };
        prop_assert!(s.relative_error() >= 0.0);
        if (exact - estimate).abs() < f64::EPSILON {
            prop_assert!(s.relative_error() < 1e-9);
        }
    }

    /// Range estimates are monotone in the query interval: widening a
    /// BETWEEN never shrinks the estimate, for any histogram and any
    /// random continuous domain. Also pins the sanity band
    /// `0 <= est <= Σ average×distinct`.
    #[test]
    fn range_estimate_monotone_in_interval(
        freqs in freqs_strategy(12),
        beta in 1usize..6,
        a in 0u64..40,
        b in 0u64..40,
        widen in 0u64..10,
    ) {
        prop_assume!(beta <= freqs.len());
        // A spread-out value domain so buckets have non-trivial spans.
        let values: Vec<u64> = (0..freqs.len() as u64).map(|v| v * 3 + 1).collect();
        let hist = v_opt_end_biased(&freqs, beta).unwrap().histogram;
        let stored = StoredHistogram::from_histogram(&values, &hist).unwrap();
        let (lo, hi) = (a.min(b), a.max(b));
        let (qa, qb) = Predicate::Between(lo, hi).interval().unwrap();
        let (wa, wb) = Predicate::Between(lo.saturating_sub(widen), hi + widen)
            .interval()
            .unwrap();
        let narrow = estimate_range(&stored, qa, qb);
        let wide = estimate_range(&stored, wa, wb);
        prop_assert!(wide + 1e-9 >= narrow, "widening shrank: {narrow} -> {wide}");
        // Bucket averages are rounded per bucket, so the mass ceiling is
        // Σ avg×distinct, not Σ freqs.
        let mass: f64 = stored
            .bucket_avgs()
            .iter()
            .zip(stored.bounds())
            .map(|(&avg, bd)| avg as f64 * bd.distinct as f64)
            .sum();
        prop_assert!(narrow >= 0.0 && narrow <= mass + 1e-6);
        prop_assert!(wide >= 0.0 && wide <= mass + 1e-6);
    }

    /// The closed-form equi-join equals the union walk bit for bit on
    /// analyzed layouts: disjoint dictionaries, one inside the other,
    /// exceptions missing from the other dictionary, singletons.
    #[test]
    fn equi_join_closed_form_equals_union_walk(
        shape in 0u8..4,
        ld in dict_strategy(),
        rd in dict_strategy(),
        fl in freqs_strategy(12),
        fr in freqs_strategy(12),
        bl in 1usize..6,
        br in 1usize..6,
    ) {
        let (ld, rd) = shaped(shape, ld, rd);
        let (l, r) = (analyzed(&ld, &fl, bl), analyzed(&rd, &fr, br));
        let closed = estimate_equi_join(&l, &ld, &r, &rd);
        let walk = union_walk(&l, &ld, &r, &rd);
        prop_assert!(closed.to_bits() == walk.to_bits(), "{} vs {}", closed, walk);
        // Symmetric in its sides.
        prop_assert_eq!(estimate_equi_join(&r, &rd, &l, &ld).to_bits(), walk.to_bits());
    }

    /// The same on free layouts, whose exceptions may lie in neither
    /// dictionary, in one, or in both.
    #[test]
    fn equi_join_closed_form_equals_union_walk_on_free_layouts(
        shape in 0u8..4,
        ld in dict_strategy(),
        rd in dict_strategy(),
        l in free_layout(),
        r in free_layout(),
    ) {
        let (ld, rd) = shaped(shape, ld, rd);
        let closed = estimate_equi_join(&l, &ld, &r, &rd);
        let walk = union_walk(&l, &ld, &r, &rd);
        prop_assert!(closed.to_bits() == walk.to_bits(), "{} vs {}", closed, walk);
    }

    /// `BETWEEN c AND c` collapses to the equality path under
    /// normalization and its estimate is bit-identical to a direct
    /// equality estimate; on all-singleton buckets the interpolation
    /// path agrees exactly as well.
    #[test]
    fn point_between_agrees_with_equality_path(
        freqs in freqs_strategy(12),
        c_idx in 0usize..12,
    ) {
        prop_assume!(c_idx < freqs.len());
        let values: Vec<u64> = (0..freqs.len() as u64).map(|v| v * 3 + 1).collect();
        let c = values[c_idx];
        let p = Predicate::Between(c, c).normalize();
        prop_assert_eq!(&p, &Predicate::Equals(c));
        prop_assert!(!p.is_range_shaped());

        // All-singleton buckets: the interpolation path on [c, c+1)
        // reproduces the equality estimate exactly, so the two code
        // paths cannot drift even if normalization were skipped.
        let n = freqs.len();
        let hist = v_opt_end_biased(&freqs, n).unwrap().histogram;
        let stored = StoredHistogram::from_histogram(&values, &hist).unwrap();
        let eq = estimate_equality(&stored, c);
        let via_range =
            estimate_range(&stored, c as f64, c as f64 + 1.0);
        prop_assert!(eq.to_bits() == via_range.to_bits(),
            "equality {} vs interpolation {}", eq, via_range);
    }
}
