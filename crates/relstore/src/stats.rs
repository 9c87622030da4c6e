//! Algorithm *Matrix* (§3.3): single-scan frequency collection.
//!
//! "The frequencies of the domain values of attribute a₁ … can be
//! achieved in a single scan of each relation using a hash table to
//! access the frequency counter corresponding to each data value."
//!
//! A hash table is needed only when the domain is wide. The counting
//! kernel [`count_frequencies`] first takes the column's min and max in
//! one pass. When one u64 counter per value of the span
//! `max − min + 1` fits in the scanned column's own size (`span ≤ rows`),
//! it counts into a dense array indexed by `value − min` and reads the
//! distinct values off it in ascending order, with no hashing and no
//! sort. Wider domains, and spans that overflow `u64` (a column holding
//! both 0 and `u64::MAX`), keep the FxHash counter and a sort. Pair
//! counts ([`frequency_matrix_table`]) always use the hash counter.
//!
//! One-column statistics produce a [`FrequencyTable`] (value → frequency);
//! two-column statistics produce a [`FrequencyMatrixTable`] whose dense
//! [`FreqMatrix`] is the paper's `T_j`, indexed by the sorted distinct
//! values of each attribute.

use crate::error::Result;
use crate::fxhash::{fx_map_with_capacity, FxHashMap};
use crate::relation::Relation;
use freqdist::{FreqMatrix, FrequencySet};

/// Per-value frequencies of one attribute: the abstract "single-column
/// table" representation of a frequency set (§2.2), with the attachment
/// to domain values retained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyTable {
    /// Distinct domain values, sorted ascending.
    pub values: Vec<u64>,
    /// `freqs[i]` is the frequency of `values[i]`.
    pub freqs: Vec<u64>,
}

/// Per-column scalar statistics ANALYZE records alongside the
/// histogram: the value range, distinct-value count, and row count —
/// the inputs range estimation needs even before any bucketisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSummary {
    /// Smallest value in the column.
    pub min: u64,
    /// Largest value in the column.
    pub max: u64,
    /// Distinct-value count `M`.
    pub distinct: u64,
    /// Total rows (Σ frequencies).
    pub rows: u64,
}

impl FrequencyTable {
    /// Number of distinct values `M`.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The column's scalar summary (min/max/distinct/rows), or `None`
    /// for an empty column.
    pub fn summary(&self) -> Option<ColumnSummary> {
        Some(ColumnSummary {
            min: *self.values.first()?,
            max: *self.values.last()?,
            distinct: self.values.len() as u64,
            rows: self.freqs.iter().sum(),
        })
    }

    /// The frequency of a specific value (0 when absent).
    pub fn frequency_of(&self, value: u64) -> u64 {
        match self.values.binary_search(&value) {
            Ok(i) => self.freqs[i],
            Err(_) => 0,
        }
    }

    /// Forgets the value attachment, yielding the frequency set.
    pub fn frequency_set(&self) -> FrequencySet {
        FrequencySet::new(self.freqs.clone())
    }

    /// The frequencies as a horizontal `1 × M` vector (the shape of the
    /// first relation in a chain query).
    pub fn as_horizontal(&self) -> FreqMatrix {
        FreqMatrix::horizontal(self.freqs.clone())
    }

    /// The frequencies as a vertical `M × 1` vector (the shape of the
    /// last relation in a chain query).
    pub fn as_vertical(&self) -> FreqMatrix {
        FreqMatrix::vertical(self.freqs.clone())
    }
}

/// Pair frequencies of two attributes: the dense frequency matrix plus
/// the row/column value dictionaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyMatrixTable {
    /// Distinct values of the first attribute, sorted ascending (rows).
    pub row_values: Vec<u64>,
    /// Distinct values of the second attribute, sorted ascending (cols).
    pub col_values: Vec<u64>,
    /// `matrix[(k, l)]` = frequency of the pair
    /// `(row_values[k], col_values[l])`.
    pub matrix: FreqMatrix,
}

/// Algorithm *Matrix* for one attribute: a single instrumented scan of
/// `column`, counted by [`count_frequencies`].
pub fn frequency_table(relation: &Relation, column: &str) -> Result<FrequencyTable> {
    let _span = obs::span("frequency_table");
    let col = relation.column_by_name(column)?;
    obs::counter("relstore_scan_rows_total").add(col.len() as u64);
    Ok(count_frequencies(col))
}

/// The per-value frequencies of `col`, with no instrumentation: a dense
/// count when `col`'s span is compact (see the module docs), the FxHash
/// counter and a sort otherwise. Both give the same table.
pub fn count_frequencies(col: &[u64]) -> FrequencyTable {
    match dense_range(col) {
        Some((min, span)) => count_dense(col, min, span),
        None => count_hashed(col),
    }
}

/// `(min, max − min + 1)` of `col`, found in one pass, when that span is
/// at most `col.len()`: one u64 counter per value of the span then
/// takes no more memory than the column. `None` for an empty column, a
/// wider span, and a span that overflows `u64`.
fn dense_range(col: &[u64]) -> Option<(u64, usize)> {
    let &first = col.first()?;
    let (min, max) = col
        .iter()
        .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = (max - min).checked_add(1)?;
    (span <= col.len() as u64).then_some((min, span as usize))
}

/// Counts `col`, whose values all lie in `min..min + span`, into
/// `counts[v − min]`, then reads the nonzero counts off in ascending
/// value order.
fn count_dense(col: &[u64], min: u64, span: usize) -> FrequencyTable {
    let mut counts = vec![0u64; span];
    for &v in col {
        counts[(v - min) as usize] += 1;
    }
    let (values, freqs) = (min..).zip(counts).filter(|&(_, freq)| freq > 0).unzip();
    FrequencyTable { values, freqs }
}

/// The hash-table counter of the paper's Algorithm *Matrix*, then a
/// sort of the distinct values.
fn count_hashed(col: &[u64]) -> FrequencyTable {
    let mut counts: FxHashMap<u64, u64> = fx_map_with_capacity(col.len().min(1 << 16));
    for &v in col {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut pairs: Vec<(u64, u64)> = counts.into_iter().collect();
    pairs.sort_unstable_by_key(|&(v, _)| v);
    let (values, freqs) = pairs.into_iter().unzip();
    FrequencyTable { values, freqs }
}

/// Algorithm *Matrix* for an attribute pair: a single scan counting pair
/// occurrences, then densification into the paper's frequency matrix.
///
/// Pairs of distinct values that never co-occur get frequency 0, exactly
/// as in the dense matrix formulation of §2.2.
pub fn frequency_matrix_table(
    relation: &Relation,
    first: &str,
    second: &str,
) -> Result<FrequencyMatrixTable> {
    let _span = obs::span("frequency_matrix_table");
    let a = relation.column_by_name(first)?;
    let b = relation.column_by_name(second)?;
    obs::counter("relstore_scan_rows_total").add(a.len() as u64);
    let mut counts: FxHashMap<(u64, u64), u64> = fx_map_with_capacity(a.len().min(1 << 16));
    for (&x, &y) in a.iter().zip(b) {
        *counts.entry((x, y)).or_insert(0) += 1;
    }

    let mut row_values: Vec<u64> = counts.keys().map(|&(x, _)| x).collect();
    row_values.sort_unstable();
    row_values.dedup();
    let mut col_values: Vec<u64> = counts.keys().map(|&(_, y)| y).collect();
    col_values.sort_unstable();
    col_values.dedup();

    let row_index: FxHashMap<u64, usize> = row_values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    let col_index: FxHashMap<u64, usize> = col_values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();

    let mut matrix = FreqMatrix::zeros(row_values.len(), col_values.len());
    for ((x, y), c) in counts {
        *matrix.get_mut(row_index[&x], col_index[&y]) = c;
    }
    Ok(FrequencyMatrixTable {
        row_values,
        col_values,
        matrix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use proptest::prelude::*;

    fn sample_relation() -> Relation {
        let schema = Schema::new(["a", "b"]).unwrap();
        let mut r = Relation::empty("r", schema);
        for row in [[1u64, 7], [1, 7], [1, 8], [2, 7], [3, 9], [3, 9], [3, 9]] {
            r.push_row(&row).unwrap();
        }
        r
    }

    #[test]
    fn frequency_table_counts_and_sorts() {
        let t = frequency_table(&sample_relation(), "a").unwrap();
        assert_eq!(t.values, vec![1, 2, 3]);
        assert_eq!(t.freqs, vec![3, 1, 3]);
        assert_eq!(t.frequency_of(2), 1);
        assert_eq!(t.frequency_of(42), 0);
        assert_eq!(t.frequency_set().total(), 7);
    }

    #[test]
    fn summary_reports_range_and_counts() {
        let t = frequency_table(&sample_relation(), "a").unwrap();
        assert_eq!(
            t.summary(),
            Some(ColumnSummary {
                min: 1,
                max: 3,
                distinct: 3,
                rows: 7
            })
        );
        let empty = FrequencyTable {
            values: vec![],
            freqs: vec![],
        };
        assert_eq!(empty.summary(), None);
    }

    #[test]
    fn frequency_table_vectors() {
        let t = frequency_table(&sample_relation(), "a").unwrap();
        assert_eq!(t.as_horizontal().rows(), 1);
        assert_eq!(t.as_vertical().cols(), 1);
        assert_eq!(t.as_horizontal().cells(), t.as_vertical().cells());
    }

    #[test]
    fn matrix_table_densifies_pairs() {
        let t = frequency_matrix_table(&sample_relation(), "a", "b").unwrap();
        assert_eq!(t.row_values, vec![1, 2, 3]);
        assert_eq!(t.col_values, vec![7, 8, 9]);
        // (1,7)=2 (1,8)=1 (2,7)=1 (3,9)=3, rest 0.
        assert_eq!(t.matrix.get(0, 0), 2);
        assert_eq!(t.matrix.get(0, 1), 1);
        assert_eq!(t.matrix.get(1, 0), 1);
        assert_eq!(t.matrix.get(2, 2), 3);
        assert_eq!(t.matrix.get(0, 2), 0);
        assert_eq!(t.matrix.total(), 7);
    }

    #[test]
    fn matrix_row_sums_match_single_column_frequencies() {
        let r = sample_relation();
        let t1 = frequency_table(&r, "a").unwrap();
        let t2 = frequency_matrix_table(&r, "a", "b").unwrap();
        for (k, &v) in t2.row_values.iter().enumerate() {
            let row_sum: u64 = t2.matrix.row(k).iter().sum();
            assert_eq!(row_sum, t1.frequency_of(v));
        }
    }

    #[test]
    fn unknown_column_errors() {
        let r = sample_relation();
        assert!(frequency_table(&r, "nope").is_err());
        assert!(frequency_matrix_table(&r, "a", "nope").is_err());
    }

    /// Counts `col` both ways and checks the tables are equal, through
    /// the public kernel and, when it applies, the dense path itself.
    /// Returns whether the kernel took the dense path.
    fn paths_agree(col: &[u64]) -> bool {
        let hashed = count_hashed(col);
        assert_eq!(count_frequencies(col), hashed);
        let Some((min, span)) = dense_range(col) else {
            return false;
        };
        assert!(span <= col.len(), "counters outgrow the column");
        assert_eq!(count_dense(col, min, span), hashed);
        true
    }

    /// A column of `rows` values spanning exactly `base..base + span`:
    /// both ends present, the rest drawn from `fill`.
    fn spanning(base: u64, span: u64, rows: usize, fill: &[u64]) -> Vec<u64> {
        let mut col = vec![base, base + span - 1];
        col.extend(fill.iter().map(|f| base + f % span));
        col.truncate(rows);
        col
    }

    #[test]
    fn empty_columns_take_the_hash_path() {
        assert!(!paths_agree(&[]));
        assert_eq!(count_frequencies(&[]).num_values(), 0);
    }

    #[test]
    fn single_value_columns_count_densely() {
        for rows in 1..=5 {
            assert!(paths_agree(&vec![u64::MAX - 3; rows]), "{rows} rows");
        }
    }

    #[test]
    fn a_span_overflowing_u64_falls_back_to_hashing() {
        let col = [0, u64::MAX, 0, 7, u64::MAX, 0, 0, 0];
        assert!(!paths_agree(&col));
        let t = count_frequencies(&col);
        assert_eq!(t.values, vec![0, 7, u64::MAX]);
        assert_eq!(t.freqs, vec![5, 1, 2]);
        // The widest span that does not overflow still cannot fit.
        assert!(!paths_agree(&[0, u64::MAX - 1]));
    }

    #[test]
    fn the_bound_is_the_columns_own_size() {
        let fill: Vec<u64> = (0..4096).map(|i| i * 2_654_435_761 % 977).collect();
        for rows in [2usize, 3, 64, 1000, 4096] {
            assert!(paths_agree(&spanning(9, rows as u64, rows, &fill)));
            assert!(!paths_agree(&spanning(9, rows as u64 + 1, rows, &fill)));
        }
    }

    proptest! {
        #[test]
        fn compact_columns_count_densely_and_agree(
            base in prop_oneof![Just(0u64), any::<u64>().prop_map(|b| b >> 1)],
            col in proptest::collection::vec(0u64..40, 40..600),
        ) {
            let col: Vec<u64> = col.iter().map(|v| base + v).collect();
            prop_assert!(paths_agree(&col));
        }

        #[test]
        fn sparse_columns_hash_and_agree(
            col in proptest::collection::vec(0u64..1_000_000, 1..200),
        ) {
            let mut col = col;
            col.push(1_000_000 + col.len() as u64);
            prop_assert!(!paths_agree(&col));
        }
    }

    #[test]
    fn empty_relation_gives_empty_tables() {
        let r = Relation::empty("e", Schema::new(["x"]).unwrap());
        let t = frequency_table(&r, "x").unwrap();
        assert_eq!(t.num_values(), 0);
        assert!(t.frequency_set().is_empty());
    }
}
