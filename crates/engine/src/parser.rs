//! Recursive-descent parser for the SQL-ish query language.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query      := SELECT COUNT ( * ) FROM tables [ WHERE conjunction ]
//! tables     := ident { , ident }
//! conjunction:= predicate { AND predicate }
//! predicate  := colref = colref            -- join
//!             | ABS ( colref - colref ) <= number   -- band join
//!             | colref = number            -- equality filter
//!             | colref <> number           -- not-equals filter
//!             | colref < number | colref <= number
//!             | colref > number | colref >= number
//!             | colref IN ( number { , number } )
//!             | colref BETWEEN number AND number
//! colref     := ident . ident
//! ```

use crate::ast::{ColumnRef, FilterOp, FilterPredicate, JoinPredicate, Query};
use crate::error::{EngineError, Result};
use crate::token::{tokenize, Token};

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> EngineError {
        EngineError::Parse {
            position: self.pos,
            message: message.into(),
        }
    }

    fn expect(&mut self, want: Token<'_>) -> Result<()> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(self.error(format!(
                "expected {}, found {}",
                want.describe(),
                t.describe()
            ))),
            None => Err(self.error(format!("expected {}, found end of input", want.describe()))),
        }
    }

    fn expect_keyword(&mut self, word: &str) -> Result<()> {
        match self.next() {
            Some(t) if t.is_keyword(word) => Ok(()),
            Some(t) => Err(self.error(format!("expected {word}, found {}", t.describe()))),
            None => Err(self.error(format!("expected {word}, found end of input"))),
        }
    }

    fn at_keyword(&self, word: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(word))
    }

    /// A name the returned AST owns: the one place the parser copies
    /// text out of the input.
    fn identifier(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => {
                // Reserved words may not be used as names (keeps the
                // grammar unambiguous).
                const RESERVED: [&str; 9] = [
                    "select", "count", "from", "where", "and", "in", "between", "not", "abs",
                ];
                if RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)) {
                    Err(self.error(format!("'{s}' is a reserved word, expected {what}")))
                } else {
                    Ok(s.to_owned())
                }
            }
            Some(t) => Err(self.error(format!("expected {what}, found {}", t.describe()))),
            None => Err(self.error(format!("expected {what}, found end of input"))),
        }
    }

    fn number(&mut self) -> Result<u64> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            Some(t) => Err(self.error(format!("expected a number, found {}", t.describe()))),
            None => Err(self.error("expected a number, found end of input")),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let table = self.identifier("a table name")?;
        self.expect(Token::Dot)?;
        let column = self.identifier("a column name")?;
        Ok(ColumnRef { table, column })
    }

    /// `ABS ( colref - colref ) <= number` — a band join. The leading
    /// ABS keyword has already been consumed.
    fn band_join(&mut self, query: &mut Query) -> Result<()> {
        self.expect(Token::LParen)?;
        let left = self.column_ref()?;
        self.expect(Token::Minus)?;
        let right = self.column_ref()?;
        self.expect(Token::RParen)?;
        self.expect(Token::Le)?;
        let band = self.number()?;
        query.joins.push(JoinPredicate {
            left,
            right,
            band: Some(band),
        });
        Ok(())
    }

    fn predicate(&mut self, query: &mut Query) -> Result<()> {
        if self.at_keyword("abs") {
            self.next();
            return self.band_join(query);
        }
        let left = self.column_ref()?;
        match self.next() {
            Some(Token::Eq) => match self.peek() {
                Some(Token::Number(_)) => {
                    let v = self.number()?;
                    query.filters.push(FilterPredicate {
                        column: left,
                        op: FilterOp::Equals(v),
                    });
                    Ok(())
                }
                Some(Token::Ident(_)) => {
                    let right = self.column_ref()?;
                    query.joins.push(JoinPredicate {
                        left,
                        right,
                        band: None,
                    });
                    Ok(())
                }
                other => Err(self.error(format!(
                    "expected a number or column after '=', found {}",
                    other.map_or("end of input".into(), Token::describe)
                ))),
            },
            Some(Token::Neq) => {
                let v = self.number()?;
                query.filters.push(FilterPredicate {
                    column: left,
                    op: FilterOp::NotEquals(v),
                });
                Ok(())
            }
            Some(tok @ (Token::Lt | Token::Le | Token::Gt | Token::Ge)) => {
                let v = self.number()?;
                let op = match tok {
                    Token::Lt => FilterOp::Lt(v),
                    Token::Le => FilterOp::Le(v),
                    Token::Gt => FilterOp::Gt(v),
                    _ => FilterOp::Ge(v),
                };
                query.filters.push(FilterPredicate { column: left, op });
                Ok(())
            }
            Some(t) if t.is_keyword("in") => {
                self.expect(Token::LParen)?;
                let mut values = Vec::new();
                values.push(self.number()?);
                while self.peek() == Some(Token::Comma) {
                    self.next();
                    values.push(self.number()?);
                }
                self.expect(Token::RParen)?;
                query.filters.push(FilterPredicate {
                    column: left,
                    op: FilterOp::In(values),
                });
                Ok(())
            }
            Some(t) if t.is_keyword("between") => {
                let lo = self.number()?;
                self.expect_keyword("and")?;
                let hi = self.number()?;
                if lo > hi {
                    return Err(self.error(format!("empty BETWEEN range {lo} AND {hi}")));
                }
                query.filters.push(FilterPredicate {
                    column: left,
                    op: FilterOp::Between(lo, hi),
                });
                Ok(())
            }
            Some(t) => Err(self.error(format!(
                "expected '=', '<>', a comparison, IN, or BETWEEN, found {}",
                t.describe()
            ))),
            None => Err(self.error("expected a predicate operator, found end of input")),
        }
    }
}

/// Parses one `SELECT COUNT(*)` query.
pub fn parse(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    p.expect_keyword("select")?;
    p.expect_keyword("count")?;
    p.expect(Token::LParen)?;
    p.expect(Token::Star)?;
    p.expect(Token::RParen)?;
    p.expect_keyword("from")?;

    // The first push reserves room for four tables; `vec![first]` would
    // reallocate at the second.
    let mut query = Query {
        tables: Vec::new(),
        joins: Vec::new(),
        filters: Vec::new(),
    };
    query.tables.push(p.identifier("a table name")?);
    while p.peek() == Some(Token::Comma) {
        p.next();
        query.tables.push(p.identifier("a table name")?);
    }

    if p.at_keyword("where") {
        p.next();
        p.predicate(&mut query)?;
        while p.at_keyword("and") {
            p.next();
            p.predicate(&mut query)?;
        }
    }
    if let Some(t) = p.peek() {
        return Err(p.error(format!("unexpected trailing {}", t.describe())));
    }
    // Duplicate table names would make column references ambiguous.
    for (i, t) in query.tables.iter().enumerate() {
        if query.tables[..i].contains(t) {
            return Err(EngineError::Parse {
                position: 0,
                message: format!("table '{t}' listed twice (aliases are not supported)"),
            });
        }
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_table_count() {
        let q = parse("SELECT COUNT(*) FROM orders").unwrap();
        assert_eq!(q.tables, vec!["orders"]);
        assert!(q.joins.is_empty());
        assert!(q.filters.is_empty());
    }

    #[test]
    fn parses_join_and_filters() {
        let q = parse(
            "select count(*) from r0, r1 \
             where r0.a = r1.a and r0.b = 5 and r1.c <> 7 \
             and r1.d in (1, 2, 3) and r0.e between 10 and 20",
        )
        .unwrap();
        assert_eq!(q.tables, vec!["r0", "r1"]);
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].left.to_string(), "r0.a");
        assert_eq!(q.joins[0].right.to_string(), "r1.a");
        assert_eq!(q.filters.len(), 4);
        assert_eq!(q.filters[0].op, FilterOp::Equals(5));
        assert_eq!(q.filters[1].op, FilterOp::NotEquals(7));
        assert_eq!(q.filters[2].op, FilterOp::In(vec![1, 2, 3]));
        assert_eq!(q.filters[3].op, FilterOp::Between(10, 20));
    }

    #[test]
    fn parses_comparison_filters() {
        let q = parse(
            "SELECT COUNT(*) FROM t \
             WHERE t.a < 5 AND t.b <= 6 AND t.c > 7 AND t.d >= 8",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 4);
        assert_eq!(q.filters[0].op, FilterOp::Lt(5));
        assert_eq!(q.filters[1].op, FilterOp::Le(6));
        assert_eq!(q.filters[2].op, FilterOp::Gt(7));
        assert_eq!(q.filters[3].op, FilterOp::Ge(8));
    }

    #[test]
    fn parses_band_join() {
        let q = parse("SELECT COUNT(*) FROM r, s WHERE ABS(r.a - s.b) <= 3").unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].left.to_string(), "r.a");
        assert_eq!(q.joins[0].right.to_string(), "s.b");
        assert_eq!(q.joins[0].band, Some(3));
        // Mixes with other predicate shapes.
        let q = parse(
            "select count(*) from r, s \
             where abs(r.a - s.b) <= 0 and r.a between 1 and 9",
        )
        .unwrap();
        assert_eq!(q.joins[0].band, Some(0));
        assert_eq!(q.filters[0].op, FilterOp::Between(1, 9));
    }

    #[test]
    fn malformed_band_joins_rejected() {
        for sql in [
            "SELECT COUNT(*) FROM r, s WHERE ABS(r.a - s.b) < 3", // strict < unsupported
            "SELECT COUNT(*) FROM r, s WHERE ABS(r.a + s.b) <= 3",
            "SELECT COUNT(*) FROM r, s WHERE ABS(r.a - s.b) <= s.c",
            "SELECT COUNT(*) FROM r, s WHERE ABS(r.a - 5) <= 3",
            "SELECT COUNT(*) FROM r, s WHERE ABS r.a - s.b <= 3",
        ] {
            assert!(parse(sql).is_err(), "{sql} parsed");
        }
    }

    #[test]
    fn comparison_filters_require_number_rhs() {
        assert!(parse("SELECT COUNT(*) FROM t, s WHERE t.a < s.b").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE t.a >= ").is_err());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("SeLeCt CoUnT(*) FrOm t WhErE t.a = 1").is_ok());
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("SELECT * FROM t").is_err());
        assert!(parse("SELECT COUNT(*) FROM").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE a = 1").is_err()); // unqualified
        assert!(parse("SELECT COUNT(*) FROM t WHERE t.a = ").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE t.a BETWEEN 5 AND 2").is_err());
        assert!(parse("SELECT COUNT(*) FROM t extra").is_err());
        assert!(parse("SELECT COUNT(*) FROM t, t").is_err());
        assert!(parse("SELECT COUNT(*) FROM select").is_err());
    }

    #[test]
    fn number_on_left_is_rejected() {
        assert!(parse("SELECT COUNT(*) FROM t WHERE 5 = t.a").is_err());
    }

    #[test]
    fn in_list_requires_parens_and_values() {
        assert!(parse("SELECT COUNT(*) FROM t WHERE t.a IN ()").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE t.a IN (1,)").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WHERE t.a IN (1, 2)").is_ok());
    }
}
