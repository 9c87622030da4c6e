//! Tokenizer for the SQL-ish query language.
//!
//! A [`Token`] borrows from the SQL text: an identifier or keyword is a
//! `&str` slice of the input, and every token is `Copy`. [`tokenize`]
//! lexes the whole text into one pre-sized `Vec` before the parser
//! starts, so lexing a query of up to 256 tokens makes one heap
//! allocation, and a lex error anywhere in the text is reported ahead of
//! any parse error. Keywords
//! are not a token kind of their own: the parser compares an
//! identifier's slice with `eq_ignore_ascii_case`, and only the names
//! the parsed [`Query`](crate::ast::Query) owns are copied out of the
//! text.

use crate::error::{EngineError, Result};

/// A lexical token, borrowing from the text it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// Keyword or identifier (keywords are matched case-insensitively by
    /// the parser; the original spelling is preserved here).
    Ident(&'a str),
    /// Unsigned integer literal.
    Number(u64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `-`
    Minus,
}

impl Token<'_> {
    /// Human-readable rendering for error messages.
    pub fn describe(self) -> String {
        match self {
            Token::Ident(s) => format!("'{s}'"),
            Token::Number(n) => format!("number {n}"),
            Token::LParen => "'('".into(),
            Token::RParen => "')'".into(),
            Token::Comma => "','".into(),
            Token::Dot => "'.'".into(),
            Token::Star => "'*'".into(),
            Token::Eq => "'='".into(),
            Token::Neq => "'<>'".into(),
            Token::Lt => "'<'".into(),
            Token::Le => "'<='".into(),
            Token::Gt => "'>'".into(),
            Token::Ge => "'>='".into(),
            Token::Minus => "'-'".into(),
        }
    }

    /// Whether this is an identifier spelling `word`, ignoring ASCII
    /// case.
    pub(crate) fn is_keyword(self, word: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(word))
    }
}

/// Token slots reserved up front: one per input byte (every token is at
/// least one byte long), capped so that a long input of mostly
/// whitespace does not reserve memory in proportion to its length.
const PRESIZED_TOKENS: usize = 256;

/// The end of the run of bytes from `start` that satisfy `keep`.
fn run_end(bytes: &[u8], start: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[start..]
        .iter()
        .position(|&b| !keep(b))
        .map_or(bytes.len(), |n| start + n)
}

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::with_capacity(input.len().min(PRESIZED_TOKENS));
    let mut i = 0usize;
    while i < bytes.len() {
        let (token, len) = match bytes[i] {
            b if (b as char).is_whitespace() => {
                i += 1;
                continue;
            }
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b'.' => (Token::Dot, 1),
            b'*' => (Token::Star, 1),
            b'=' => (Token::Eq, 1),
            b'-' => (Token::Minus, 1),
            b'<' => match bytes.get(i + 1) {
                Some(b'>') => (Token::Neq, 2),
                Some(b'=') => (Token::Le, 2),
                _ => (Token::Lt, 1),
            },
            b'>' if bytes.get(i + 1) == Some(&b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'!' if bytes.get(i + 1) == Some(&b'=') => (Token::Neq, 2),
            b'!' => {
                return Err(EngineError::Lex {
                    position: i,
                    message: "expected '!='".into(),
                })
            }
            b if b.is_ascii_digit() => {
                let text = &input[i..run_end(bytes, i, |b| b.is_ascii_digit())];
                let value = text.parse::<u64>().map_err(|e| EngineError::Lex {
                    position: i,
                    message: format!("bad number '{text}': {e}"),
                })?;
                (Token::Number(value), text.len())
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let end = run_end(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'_');
                (Token::Ident(&input[i..end]), end - i)
            }
            _ => {
                // Every byte consumed so far is ASCII, so `i` starts a
                // character: name all of it, not its first UTF-8 byte.
                let c = input[i..].chars().next().expect("i < input.len()");
                return Err(EngineError::Lex {
                    position: i,
                    message: format!("unexpected character '{c}'"),
                });
            }
        };
        tokens.push(token);
        i += len;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_query() {
        let tokens = tokenize("SELECT COUNT(*) FROM t WHERE t.a = 5 AND t.b <> 7").unwrap();
        assert_eq!(tokens[0], Token::Ident("SELECT"));
        assert_eq!(tokens[1], Token::Ident("COUNT"));
        assert_eq!(tokens[2], Token::LParen);
        assert_eq!(tokens[3], Token::Star);
        assert_eq!(tokens[4], Token::RParen);
        assert!(tokens.contains(&Token::Number(5)));
        assert!(tokens.contains(&Token::Neq));
    }

    #[test]
    fn neq_spellings() {
        assert_eq!(tokenize("<>").unwrap(), vec![Token::Neq]);
        assert_eq!(tokenize("!=").unwrap(), vec![Token::Neq]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(tokenize("a $ b"), Err(EngineError::Lex { .. })));
        assert!(matches!(tokenize("a ! b"), Err(EngineError::Lex { .. })));
    }

    #[test]
    fn comparison_spellings() {
        assert_eq!(tokenize("<").unwrap(), vec![Token::Lt]);
        assert_eq!(tokenize("<=").unwrap(), vec![Token::Le]);
        assert_eq!(tokenize(">").unwrap(), vec![Token::Gt]);
        assert_eq!(tokenize(">=").unwrap(), vec![Token::Ge]);
        assert_eq!(tokenize("-").unwrap(), vec![Token::Minus]);
        // Maximal munch: `<=` is one token, not `<` then `=`.
        assert_eq!(
            tokenize("t.a <= 5").unwrap(),
            vec![
                Token::Ident("t"),
                Token::Dot,
                Token::Ident("a"),
                Token::Le,
                Token::Number(5),
            ]
        );
    }

    #[test]
    fn numbers_and_identifiers_split_correctly() {
        let tokens = tokenize("t1.a=42").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("t1"),
                Token::Dot,
                Token::Ident("a"),
                Token::Eq,
                Token::Number(42),
            ]
        );
    }

    #[test]
    fn overlong_number_is_an_error() {
        assert!(tokenize("99999999999999999999999999").is_err());
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(tokenize("   ").unwrap().is_empty());
    }
}
