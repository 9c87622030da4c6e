//! Theorem 2.1 cross-check: the frequency-matrix chain product equals
//! the cardinality obtained by actually executing the joins over
//! materialised tuples.

use freqdist::zipf::zipf_frequencies;
use freqdist::{chain_product, Arrangement, FreqMatrix, FrequencySet};
use relstore::generate::{relation_from_frequencies, relation_from_matrix};
use relstore::join::{chain_join_count, hash_join_count};
use relstore::joint::joint_frequency_table;
use relstore::stats::{frequency_matrix_table, frequency_table};

/// 2-way join: matrix product == hash-join execution == joint-frequency
/// table, across several skews.
#[test]
fn two_way_join_sizes_agree() {
    for (i, &z) in [0.0, 0.5, 1.0, 2.0].iter().enumerate() {
        let m = 40;
        let values: Vec<u64> = (0..m as u64).collect();
        let f0 = zipf_frequencies(500, m, z).unwrap();
        let f1 = zipf_frequencies(800, m, 1.0).unwrap();
        // Shuffle which domain value carries which frequency.
        let a0 = Arrangement::random_batch(m, 1, 100 + i as u64).remove(0);
        let a1 = Arrangement::random_batch(m, 1, 200 + i as u64).remove(0);
        let f0_arranged = FrequencySet::new(a0.apply(f0.as_slice()).unwrap());
        let f1_arranged = FrequencySet::new(a1.apply(f1.as_slice()).unwrap());

        let r0 = relation_from_frequencies("r0", "a", &values, &f0_arranged, 7).unwrap();
        let r1 = relation_from_frequencies("r1", "a", &values, &f1_arranged, 8).unwrap();

        // Theorem 2.1 product.
        let product = chain_product(&[
            FreqMatrix::horizontal(f0_arranged.as_slice().to_vec()),
            FreqMatrix::vertical(f1_arranged.as_slice().to_vec()),
        ])
        .unwrap();
        // Actual hash-join execution.
        let executed = hash_join_count(&r0, "a", &r1, "a").unwrap();
        // Algorithm JointMatrix.
        let joint = joint_frequency_table(&r0, "a", &r1, "a")
            .unwrap()
            .join_size();

        assert_eq!(product, executed, "z={z}");
        assert_eq!(product, joint, "z={z}");
    }
}

/// 3-relation chain (2 joins) with a genuine 2-D middle relation:
/// product == executed count.
#[test]
fn three_relation_chain_sizes_agree() {
    let m = 8usize;
    let a_values: Vec<u64> = (0..m as u64).collect();
    let b_values: Vec<u64> = (100..100 + m as u64).collect();

    let f0 = zipf_frequencies(60, m, 1.0).unwrap();
    let fmid = zipf_frequencies(200, m * m, 0.8).unwrap();
    let f2 = zipf_frequencies(50, m, 0.3).unwrap();

    let arr = Arrangement::random_batch(m * m, 1, 5).remove(0);
    let mid_matrix = FreqMatrix::from_arrangement(&fmid, m, m, &arr).unwrap();

    let r0 = relation_from_frequencies("r0", "a1", &a_values, &f0, 1).unwrap();
    let r1 = relation_from_matrix("r1", "a1", "a2", &a_values, &b_values, &mid_matrix, 2).unwrap();
    let r2 = relation_from_frequencies("r2", "a2", &b_values, &f2, 3).unwrap();

    let product = chain_product(&[
        FreqMatrix::horizontal(f0.as_slice().to_vec()),
        mid_matrix.clone(),
        FreqMatrix::vertical(f2.as_slice().to_vec()),
    ])
    .unwrap();

    let executed = chain_join_count(&[&r0, &r1, &r2], &[("a1", "a1"), ("a2", "a2")]).unwrap();
    assert_eq!(product, executed);
}

/// Statistics collected from materialised relations reproduce the
/// frequency structures they were generated from (up to zero-frequency
/// values, which never materialise).
#[test]
fn statistics_round_trip_generated_relations() {
    let m = 30usize;
    let values: Vec<u64> = (0..m as u64).collect();
    let freqs = zipf_frequencies(1000, m, 1.0).unwrap();
    let rel = relation_from_frequencies("r", "a", &values, &freqs, 11).unwrap();
    let table = frequency_table(&rel, "a").unwrap();
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(table.frequency_of(v), freqs.as_slice()[i], "value {v}");
    }

    // 2-D: the recovered matrix (restricted to surviving pairs) matches.
    let mid = zipf_frequencies(300, 16, 1.0).unwrap();
    let arr = Arrangement::identity(16);
    let matrix = FreqMatrix::from_arrangement(&mid, 4, 4, &arr).unwrap();
    let a_vals: Vec<u64> = (0..4).collect();
    let b_vals: Vec<u64> = (10..14).collect();
    let rel2 = relation_from_matrix("r2", "x", "y", &a_vals, &b_vals, &matrix, 4).unwrap();
    let t2 = frequency_matrix_table(&rel2, "x", "y").unwrap();
    for (ri, &rv) in t2.row_values.iter().enumerate() {
        for (ci, &cv) in t2.col_values.iter().enumerate() {
            let orig = matrix.get(rv as usize, (cv - 10) as usize);
            assert_eq!(t2.matrix.get(ri, ci), orig, "pair ({rv}, {cv})");
        }
    }
}

/// The matrix product also agrees with execution when the relations are
/// unbalanced (empty join sides, missing values).
#[test]
fn degenerate_joins_agree() {
    let values: Vec<u64> = (0..5).collect();
    // r0 misses values 3 and 4 entirely; r1 misses 0.
    let f0 = FrequencySet::new(vec![4, 2, 1, 0, 0]);
    let f1 = FrequencySet::new(vec![0, 3, 5, 2, 7]);
    let r0 = relation_from_frequencies("r0", "a", &values, &f0, 1).unwrap();
    let r1 = relation_from_frequencies("r1", "a", &values, &f1, 2).unwrap();
    let product = chain_product(&[
        FreqMatrix::horizontal(f0.as_slice().to_vec()),
        FreqMatrix::vertical(f1.as_slice().to_vec()),
    ])
    .unwrap();
    let executed = hash_join_count(&r0, "a", &r1, "a").unwrap();
    assert_eq!(product, executed);
    // Only values 1 (2·3) and 2 (1·5) occur on both sides.
    assert_eq!(product, 6 + 5);
}
