//! Property-based tests for the histogram invariants the paper proves.

use proptest::prelude::*;
use vopt_hist::construct::{
    equi_depth, equi_width, trivial, v_opt_end_biased, v_opt_serial, v_opt_serial_dp,
    BiasedChoices, EndBiasedChoices,
};
use vopt_hist::{Histogram, RoundingMode};

/// Frequencies within u32 range keep every Σf² far from u128 overflow.
fn freqs_strategy(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..10_000, 1..=max_len)
}

proptest! {
    /// The O(M²β) dynamic program computes the same optimum as the
    /// paper's exhaustive Algorithm V-OptHist (Theorem 4.1).
    #[test]
    fn dp_matches_exhaustive(freqs in freqs_strategy(10), beta in 1usize..=10) {
        prop_assume!(beta <= freqs.len());
        let dp = v_opt_serial_dp(&freqs, beta).unwrap();
        let ex = v_opt_serial(&freqs, beta).unwrap();
        prop_assert!((dp.error - ex.error).abs() < 1e-6,
            "dp {} vs exhaustive {}", dp.error, ex.error);
    }

    /// Algorithm V-OptBiasHist (Theorem 4.2) equals brute force over all
    /// end-biased histograms.
    #[test]
    fn fast_end_biased_matches_enumeration(freqs in freqs_strategy(12), beta in 1usize..=6) {
        prop_assume!(beta <= freqs.len());
        let fast = v_opt_end_biased(&freqs, beta).unwrap();
        let brute = EndBiasedChoices::new(&freqs, beta)
            .unwrap()
            .map(|h| h.self_join_error())
            .fold(f64::INFINITY, f64::min);
        prop_assert!((fast.error - brute).abs() < 1e-6);
    }

    /// Corollary 3.1: for a self-join, the optimal *biased* histogram is
    /// end-biased — brute force over all biased histograms never beats
    /// Algorithm V-OptBiasHist.
    #[test]
    fn optimal_biased_is_end_biased_for_self_join(
        freqs in freqs_strategy(8),
        beta in 2usize..=4,
    ) {
        prop_assume!(beta <= freqs.len());
        let best_biased = BiasedChoices::new(&freqs, beta)
            .unwrap()
            .map(|h| h.self_join_error())
            .fold(f64::INFINITY, f64::min);
        let end_biased = v_opt_end_biased(&freqs, beta).unwrap().error;
        prop_assert!((best_biased - end_biased).abs() < 1e-6,
            "a non-end-biased biased histogram beat V-OptBiasHist");
    }

    /// Class dominance (§5.1 ranking, the provable part): the v-optimal
    /// serial error lower-bounds the end-biased error, which lower-bounds
    /// the trivial error; and every class is exact with M buckets.
    #[test]
    fn error_dominance_chain(freqs in freqs_strategy(10)) {
        let m = freqs.len();
        let beta = (m / 2).max(1);
        let serial = v_opt_serial_dp(&freqs, beta).unwrap().error;
        let biased = v_opt_end_biased(&freqs, beta).unwrap().error;
        let triv = trivial(&freqs).unwrap().self_join_error();
        prop_assert!(serial <= biased + 1e-6);
        prop_assert!(biased <= triv + 1e-6);
        prop_assert!(v_opt_serial_dp(&freqs, m).unwrap().error < 1e-9);
    }

    /// The approximation preserves the relation size: in Exact mode the
    /// approximated frequencies sum to exactly the true total (bucket
    /// averages redistribute, never add or remove tuples).
    #[test]
    fn approximation_preserves_total(freqs in freqs_strategy(20), beta in 1usize..=8) {
        prop_assume!(beta <= freqs.len());
        for hist in [
            equi_width(&freqs, beta).unwrap(),
            equi_depth(&freqs, beta).unwrap(),
            v_opt_serial_dp(&freqs, beta).unwrap().histogram,
            v_opt_end_biased(&freqs, beta).unwrap().histogram,
        ] {
            let approx: f64 = hist.approx_frequencies(RoundingMode::Exact).iter().sum();
            let total: u64 = freqs.iter().sum();
            prop_assert!((approx - total as f64).abs() < 1e-6 * (total as f64 + 1.0));
        }
    }

    /// Proposition 3.1: S − S' equals Σ PᵢVᵢ for any histogram, not just
    /// serial ones.
    #[test]
    fn prop31_error_identity(freqs in freqs_strategy(15), seed in any::<u64>()) {
        // Random assignment into up to 4 buckets (not necessarily serial).
        let m = freqs.len();
        let buckets = (seed as usize % 4).min(m - 1) + 1;
        let assignment: Vec<u32> = (0..m)
            .map(|i| ((seed.rotate_left(i as u32) ^ i as u64) % buckets as u64) as u32)
            .collect();
        // Ensure every bucket non-empty by pinning the first `buckets`.
        let mut assignment = assignment;
        for (b, slot) in assignment.iter_mut().enumerate().take(buckets) {
            *slot = b as u32;
        }
        let hist = Histogram::from_assignment(&freqs, assignment, buckets).unwrap();
        let s = hist.exact_self_join_size() as f64;
        let s_approx = hist.approx_self_join_size(RoundingMode::Exact);
        prop_assert!((s - s_approx - hist.self_join_error()).abs() < 1e-6 * (s + 1.0));
        prop_assert!(hist.self_join_error() >= -1e-9);
    }

    /// Serial histograms produced by the optimisers really are serial,
    /// and their buckets partition the domain.
    #[test]
    fn optimisers_produce_serial_partitions(freqs in freqs_strategy(12), beta in 1usize..=6) {
        prop_assume!(beta <= freqs.len());
        for hist in [
            v_opt_serial_dp(&freqs, beta).unwrap().histogram,
            v_opt_end_biased(&freqs, beta).unwrap().histogram,
        ] {
            prop_assert!(hist.is_serial());
            prop_assert_eq!(hist.num_buckets(), beta);
            let covered: u64 = hist.buckets().iter().map(|b| b.count()).sum();
            prop_assert_eq!(covered as usize, freqs.len());
        }
    }

    /// Rounded bucket averages differ from exact ones by at most 0.5 per
    /// value.
    #[test]
    fn rounding_stays_within_half(freqs in freqs_strategy(16), beta in 1usize..=5) {
        prop_assume!(beta <= freqs.len());
        let hist = v_opt_serial_dp(&freqs, beta).unwrap().histogram;
        let exact = hist.approx_frequencies(RoundingMode::Exact);
        let rounded = hist.approx_frequencies(RoundingMode::PaperRounded);
        for (e, r) in exact.iter().zip(&rounded) {
            prop_assert!((e - r).abs() <= 0.5 + 1e-9);
        }
    }
}
