//! Abstract syntax of the supported query shape.
//!
//! `SELECT COUNT(*) FROM t₁, t₂, … WHERE <conjunction>` — the paper's
//! tree function-free equality-join queries with the selection forms of
//! §2.2/§6 (`=`, `<>`, `IN`, `BETWEEN`), the comparison filters (`<`,
//! `<=`, `>`, `>=`) the value-carrying buckets estimate by
//! interpolation, and band joins `abs(l.a - r.b) <= w`.

/// A qualified column reference `table.column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// The relation name.
    pub table: String,
    /// The column name.
    pub column: String,
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// A join predicate: equality `t₁.a = t₂.b`, or — when `band` is set —
/// the band join `abs(t₁.a - t₂.b) <= w`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinPredicate {
    /// Left side.
    pub left: ColumnRef,
    /// Right side.
    pub right: ColumnRef,
    /// `None` for an equality join; `Some(w)` for the band join
    /// `abs(left - right) <= w`.
    pub band: Option<u64>,
}

impl JoinPredicate {
    /// Whether a concrete pair of values joins under this predicate.
    pub fn matches(&self, l: u64, r: u64) -> bool {
        match self.band {
            None => l == r,
            Some(w) => l.abs_diff(r) <= w,
        }
    }
}

impl std::fmt::Display for JoinPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.band {
            None => write!(f, "{} = {}", self.left, self.right),
            Some(w) => write!(f, "abs({} - {}) <= {w}", self.left, self.right),
        }
    }
}

/// A single-table filter predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FilterOp {
    /// `col = v`.
    Equals(u64),
    /// `col <> v`.
    NotEquals(u64),
    /// `col IN (v₁, v₂, …)`.
    In(Vec<u64>),
    /// `col BETWEEN lo AND hi` (inclusive, on the stored values).
    Between(u64, u64),
    /// `col < v`.
    Lt(u64),
    /// `col <= v`.
    Le(u64),
    /// `col > v`.
    Gt(u64),
    /// `col >= v`.
    Ge(u64),
}

impl FilterOp {
    /// The value-level [`query::Predicate`] this filter lowers to —
    /// the single source of truth for both its executable semantics
    /// ([`query::Predicate::matches`]) and its estimation dispatch
    /// (equality path vs. interval interpolation). It copies an `IN`
    /// list, so callers build it once per filter, not once per value.
    pub fn to_predicate(&self) -> query::Predicate {
        match self {
            FilterOp::Equals(v) => query::Predicate::Equals(*v),
            FilterOp::NotEquals(v) => query::Predicate::NotEquals(*v),
            FilterOp::In(vs) => query::Predicate::In(vs.clone()),
            FilterOp::Between(lo, hi) => query::Predicate::Between(*lo, *hi),
            FilterOp::Lt(v) => query::Predicate::Lt(*v),
            FilterOp::Le(v) => query::Predicate::Le(*v),
            FilterOp::Gt(v) => query::Predicate::Gt(*v),
            FilterOp::Ge(v) => query::Predicate::Ge(*v),
        }
    }

    /// Whether this filter is estimated by interval interpolation (after
    /// `BETWEEN c AND c` normalises to equality) rather than the exact
    /// per-value equality path.
    pub fn is_range_shaped(&self) -> bool {
        self.to_predicate().normalize().is_range_shaped()
    }
}

/// A filter applied to one column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterPredicate {
    /// The filtered column.
    pub column: ColumnRef,
    /// The predicate.
    pub op: FilterOp,
}

impl std::fmt::Display for FilterPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.column;
        match &self.op {
            FilterOp::Equals(v) => write!(f, "{c} = {v}"),
            FilterOp::NotEquals(v) => write!(f, "{c} <> {v}"),
            FilterOp::In(vs) => {
                write!(f, "{c} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            FilterOp::Between(lo, hi) => write!(f, "{c} BETWEEN {lo} AND {hi}"),
            FilterOp::Lt(v) => write!(f, "{c} < {v}"),
            FilterOp::Le(v) => write!(f, "{c} <= {v}"),
            FilterOp::Gt(v) => write!(f, "{c} > {v}"),
            FilterOp::Ge(v) => write!(f, "{c} >= {v}"),
        }
    }
}

/// A parsed `SELECT COUNT(*)` query.
///
/// Derives `Hash` because the estimation cache keys on a structural
/// fingerprint of the whole query (see `cache::fingerprint`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Relations in the FROM clause, in order.
    pub tables: Vec<String>,
    /// Equality join predicates.
    pub joins: Vec<JoinPredicate>,
    /// Single-table filters.
    pub filters: Vec<FilterPredicate>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matching() {
        // Each filter op lowers to a predicate with its SQL semantics.
        for (op, yes, no) in [
            (FilterOp::Equals(5), 5, 6),
            (FilterOp::NotEquals(5), 6, 5),
            (FilterOp::In(vec![1, 3]), 3, 2),
            (FilterOp::Between(2, 4), 2, 1),
            (FilterOp::Between(2, 4), 4, 5),
            (FilterOp::Lt(5), 4, 5),
            (FilterOp::Le(5), 5, 6),
            (FilterOp::Gt(5), 6, 5),
            (FilterOp::Ge(5), 5, 4),
        ] {
            let p = op.to_predicate();
            assert!(p.matches(yes), "{op:?} at {yes}");
            assert!(!p.matches(no), "{op:?} at {no}");
        }
    }

    #[test]
    fn range_shape_classification() {
        assert!(!FilterOp::Equals(1).is_range_shaped());
        assert!(!FilterOp::NotEquals(1).is_range_shaped());
        assert!(!FilterOp::In(vec![1]).is_range_shaped());
        assert!(FilterOp::Lt(1).is_range_shaped());
        assert!(FilterOp::Between(1, 3).is_range_shaped());
        // A point BETWEEN normalises to equality: not range-shaped.
        assert!(!FilterOp::Between(2, 2).is_range_shaped());
    }

    #[test]
    fn predicate_display_forms() {
        let col = ColumnRef {
            table: "t".into(),
            column: "a".into(),
        };
        let show = |op: FilterOp| {
            FilterPredicate {
                column: col.clone(),
                op,
            }
            .to_string()
        };
        assert_eq!(show(FilterOp::Equals(5)), "t.a = 5");
        assert_eq!(show(FilterOp::In(vec![1, 2])), "t.a IN (1, 2)");
        assert_eq!(show(FilterOp::Between(2, 4)), "t.a BETWEEN 2 AND 4");
        assert_eq!(show(FilterOp::Ge(7)), "t.a >= 7");
        let j = JoinPredicate {
            left: col.clone(),
            right: ColumnRef {
                table: "s".into(),
                column: "b".into(),
            },
            band: None,
        };
        assert_eq!(j.to_string(), "t.a = s.b");
        let band = JoinPredicate {
            band: Some(3),
            ..j.clone()
        };
        assert_eq!(band.to_string(), "abs(t.a - s.b) <= 3");
        assert!(band.matches(10, 13) && !band.matches(10, 14));
        assert!(j.matches(10, 10) && !j.matches(10, 11));
    }

    #[test]
    fn column_ref_display() {
        let c = ColumnRef {
            table: "orders".into(),
            column: "part".into(),
        };
        assert_eq!(c.to_string(), "orders.part");
    }
}
