//! Property-based tests for the frequency-distribution substrate.

use freqdist::freq_matrix::U128Matrix;
use freqdist::zipf::{zipf_frequencies, zipf_frequencies_f64};
use freqdist::{chain_product, chain_product_f64, Arrangement, FreqMatrix, FrequencySet};
use proptest::prelude::*;

fn small_freqs() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..500, 1..=24)
}

proptest! {
    /// Eq. (1) rounding preserves the relation size exactly for any
    /// parameters.
    #[test]
    fn zipf_total_is_exact(total in 0u64..100_000, m in 1usize..200, z in 0.0f64..4.0) {
        let fs = zipf_frequencies(total, m, z).unwrap();
        prop_assert_eq!(fs.total(), total as u128);
        prop_assert_eq!(fs.len(), m);
        // Monotone non-increasing by rank.
        let v = fs.as_slice();
        prop_assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Integer Zipf stays within 1 tuple of the real-valued Eq. (1).
    #[test]
    fn zipf_rounding_is_tight(total in 1u64..10_000, m in 1usize..100, z in 0.0f64..3.0) {
        let real = zipf_frequencies_f64(total, m, z).unwrap();
        let int = zipf_frequencies(total, m, z).unwrap();
        for (r, &i) in real.iter().zip(int.as_slice()) {
            prop_assert!((r - i as f64).abs() <= 1.0 + 1e-9);
        }
    }

    /// A chain product with an all-ones selector on both ends counts the
    /// middle relation's tuples exactly.
    #[test]
    fn ones_vectors_count_tuples(freqs in small_freqs()) {
        let rows = 1 + freqs.len() / 6;
        let cols = freqs.len().div_ceil(rows);
        let mut padded = freqs.clone();
        padded.resize(rows * cols, 0);
        let m = FreqMatrix::from_rows(rows, cols, padded.clone()).unwrap();
        let left = FreqMatrix::horizontal(vec![1; rows]);
        let right = FreqMatrix::vertical(vec![1; cols]);
        let s = chain_product(&[left, m.clone(), right]).unwrap();
        prop_assert_eq!(s, m.total());
    }

    /// Matrix multiplication is associative: (A·B)·C == A·(B·C).
    #[test]
    fn product_is_associative(
        a in prop::collection::vec(0u64..50, 6),
        b in prop::collection::vec(0u64..50, 6),
        c in prop::collection::vec(0u64..50, 4),
    ) {
        let ma = U128Matrix::from(&FreqMatrix::from_rows(2, 3, a).unwrap());
        let mb = U128Matrix::from(&FreqMatrix::from_rows(3, 2, b).unwrap());
        let mc = U128Matrix::from(&FreqMatrix::from_rows(2, 2, c).unwrap());
        let left = ma.mul_exact(&mb).unwrap().mul_exact(&mc).unwrap();
        let right = ma.mul_exact(&mb.mul_exact(&mc).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    /// The f64 chain product agrees with the exact one on integer data.
    #[test]
    fn f64_product_matches_exact(freqs in small_freqs(), other in small_freqs()) {
        let n = freqs.len().min(other.len());
        let h = FreqMatrix::horizontal(freqs[..n].to_vec());
        let v = FreqMatrix::vertical(other[..n].to_vec());
        let exact = chain_product(&[h.clone(), v.clone()]).unwrap() as f64;
        let approx = chain_product_f64(&[h.to_f64(), v.to_f64()]).unwrap();
        prop_assert!((exact - approx).abs() <= 1e-9 * exact.max(1.0));
    }

    /// Transposition is an involution and preserves totals.
    #[test]
    fn transpose_involution(freqs in small_freqs()) {
        let rows = 1 + freqs.len() / 5;
        let cols = freqs.len().div_ceil(rows);
        let mut padded = freqs;
        padded.resize(rows * cols, 0);
        let m = FreqMatrix::from_rows(rows, cols, padded).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        prop_assert_eq!(m.transpose().total(), m.total());
    }

    /// Arrangements permute: the multiset of frequencies is unchanged,
    /// and so is the self-join size.
    #[test]
    fn arrangement_preserves_multiset(freqs in small_freqs(), seed in any::<u64>()) {
        let fs = FrequencySet::new(freqs);
        let arr = Arrangement::random_batch(fs.len(), 1, seed).remove(0);
        let permuted = FrequencySet::new(arr.apply(fs.as_slice()).unwrap());
        prop_assert_eq!(permuted.total(), fs.total());
        prop_assert_eq!(permuted.self_join_size(), fs.self_join_size());
        prop_assert_eq!(permuted.sorted_desc(), fs.sorted_desc());
    }

    /// Self-join size through the chain product equals Σ f².
    #[test]
    fn self_join_chain_equals_sum_of_squares(freqs in small_freqs()) {
        let fs = FrequencySet::new(freqs.clone());
        let s = chain_product(&[
            FreqMatrix::horizontal(freqs.clone()),
            FreqMatrix::vertical(freqs),
        ]).unwrap();
        prop_assert_eq!(s, fs.self_join_size());
    }
}

mod tensor_props {
    use freqdist::tensor::Tensor;
    use proptest::prelude::*;

    fn small_dims() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(1usize..4, 1..4)
    }

    proptest! {
        /// Marginalising onto any axis conserves the total mass.
        #[test]
        fn sum_to_axis_conserves_mass(dims in small_dims(), seed in any::<u64>()) {
            let len: usize = dims.iter().product();
            let data: Vec<u64> = (0..len)
                .map(|i| (seed.rotate_left(i as u32) % 50) as u64)
                .collect();
            let t = Tensor::from_data(dims.clone(), data).unwrap();
            for (axis, &dim) in dims.iter().enumerate() {
                let marginal = t.sum_to_axis(axis).unwrap();
                prop_assert_eq!(marginal.iter().sum::<u64>(), t.sum_all());
                prop_assert_eq!(marginal.len(), dim);
            }
        }

        /// Scaling an axis by all-ones is the identity; by zeros it
        /// clears the tensor.
        #[test]
        fn scale_axis_identity_and_annihilator(dims in small_dims(), seed in any::<u64>()) {
            let len: usize = dims.iter().product();
            let data: Vec<u64> = (0..len)
                .map(|i| (seed.wrapping_add(i as u64) % 20) as u64)
                .collect();
            let original = Tensor::from_data(dims.clone(), data).unwrap();
            for (axis, &dim) in dims.iter().enumerate() {
                let mut t = original.clone();
                t.scale_axis(axis, &vec![1u64; dim]).unwrap();
                prop_assert_eq!(&t, &original);
                t.scale_axis(axis, &vec![0u64; dim]).unwrap();
                prop_assert_eq!(t.sum_all(), 0);
            }
        }

        /// Scaling then summing equals the weighted marginal computed
        /// directly from cells.
        #[test]
        fn weighted_marginal_identity(seed in any::<u64>()) {
            let dims = vec![3usize, 4];
            let data: Vec<u64> = (0..12).map(|i| (seed >> (i % 16)) as u64 % 9).collect();
            let weights: Vec<u64> = (0..3).map(|i| (seed >> (i + 3)) as u64 % 5).collect();
            let mut t = Tensor::from_data(dims, data.clone()).unwrap();
            t.scale_axis(0, &weights).unwrap();
            let onto_cols = t.sum_to_axis(1).unwrap();
            for c in 0..4 {
                let direct: u64 = (0..3).map(|r| data[r * 4 + c] * weights[r]).sum();
                prop_assert_eq!(onto_cols[c], direct);
            }
        }
    }
}

mod majorization_props {
    use freqdist::majorization::{majorizes, rearrangement_max, rearrangement_min};
    use freqdist::zipf::zipf_frequencies;
    use freqdist::{Arrangement, FrequencySet};
    use proptest::prelude::*;

    proptest! {
        /// Majorization is reflexive and transitive on the Zipf family.
        #[test]
        fn zipf_chain_is_transitive(m in 2usize..30, t in 10u64..2000) {
            let low = zipf_frequencies(t, m, 0.3).unwrap();
            let mid = zipf_frequencies(t, m, 1.0).unwrap();
            let high = zipf_frequencies(t, m, 2.5).unwrap();
            prop_assert!(majorizes(&mid, &low));
            prop_assert!(majorizes(&high, &mid));
            prop_assert!(majorizes(&high, &low)); // transitivity witness
            prop_assert!(majorizes(&low, &low));
        }

        /// Every sampled arrangement's join size lies within the
        /// rearrangement bounds, and the self-join attains the max.
        #[test]
        fn rearrangement_bounds_hold(
            a in prop::collection::vec(0u64..100, 2..12),
            b_seed in any::<u64>(),
        ) {
            let n = a.len();
            let fa = FrequencySet::new(a.clone());
            let b: Vec<u64> = (0..n).map(|i| (b_seed.rotate_left(i as u32) % 80) as u64).collect();
            let fb = FrequencySet::new(b.clone());
            let lo = rearrangement_min(&fa, &fb);
            let hi = rearrangement_max(&fa, &fb);
            prop_assert!(lo <= hi);
            for arr in Arrangement::random_batch(n, 10, b_seed) {
                let bb = arr.apply(&b).unwrap();
                let s: u128 = a.iter().zip(&bb).map(|(&x, &y)| (x as u128) * (y as u128)).sum();
                prop_assert!(s >= lo && s <= hi, "size {s} outside [{lo}, {hi}]");
            }
            prop_assert_eq!(rearrangement_max(&fa, &fa), fa.self_join_size());
        }
    }
}
