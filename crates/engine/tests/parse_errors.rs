//! The SQL front end's error text, pinned: kind, position and message of
//! the `EngineError` that `parser::parse` returns for malformed input,
//! compared through `Display`.

use engine::parser::parse;

fn error_text(sql: &str) -> String {
    match parse(sql) {
        Ok(q) => panic!("{sql:?} parsed as {q:?}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn malformed_input_reports_pinned_error_text() {
    let cases: &[(&str, &str)] = &[
        (
            "SELECT COUNT(*) FROM t WHERE t.a = $",
            "lex error at byte 35: unexpected character '$'",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE t.a ! 5",
            "lex error at byte 33: expected '!='",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE t.a = 99999999999999999999",
            "lex error at byte 35: bad number '99999999999999999999': \
             number too large to fit in target type",
        ),
        (
            "SELECT COUNT(*) FROM select",
            "parse error at token 7: 'select' is a reserved word, expected a table name",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE t.In = 1",
            "parse error at token 11: 'In' is a reserved word, expected a column name",
        ),
        (
            "SELECT * FROM t",
            "parse error at token 2: expected count, found '*'",
        ),
        (
            "",
            "parse error at token 0: expected select, found end of input",
        ),
        (
            "SELECT COUNT(*) FROM t extra",
            "parse error at token 7: unexpected trailing 'extra'",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE t.a =",
            "parse error at token 12: expected a number or column after '=', \
             found end of input",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE t.a BETWEEN 5 AND 2",
            "parse error at token 15: empty BETWEEN range 5 AND 2",
        ),
        (
            "SELECT COUNT(*) FROM t, t",
            "parse error at token 0: table 't' listed twice (aliases are not supported)",
        ),
        (
            "SELECT COUNT(*) FROM r, s WHERE ABS(r.a + s.b) <= 3",
            "lex error at byte 40: unexpected character '+'",
        ),
        (
            "SELECT COUNT(*) FROM r, s WHERE ABS(r.a - s.b) < 3",
            "parse error at token 21: expected '<=', found '<'",
        ),
        (
            "SELECT COUNT(*) FROM t, s WHERE t.a < s.b",
            "parse error at token 15: expected a number, found 's'",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE t.a IN (1,)",
            "parse error at token 16: expected a number, found ')'",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE a = 1",
            "parse error at token 10: expected '.', found '='",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE t.a",
            "parse error at token 11: expected a predicate operator, found end of input",
        ),
        // Lexing runs over the whole text before parsing starts, so a lex
        // error after an earlier parse error is the one reported.
        (
            "SELECT * FROM t WHERE t.a = $",
            "lex error at byte 28: unexpected character '$'",
        ),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(sql, want)| {
            let got = error_text(sql);
            (got != want).then(|| format!("{sql:?}\n  want: {want}\n  got:  {got}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn non_ascii_input_names_the_whole_character() {
    // The position stays a byte offset; the message names the decoded
    // character, not the first byte of its UTF-8 encoding.
    assert_eq!(
        error_text("SELECT COUNT(*) FROM tà"),
        "lex error at byte 22: unexpected character 'à'"
    );
    assert_eq!(
        error_text("SELECT COUNT(*) FROM t WHERE t.é = 1"),
        "lex error at byte 31: unexpected character 'é'"
    );
    assert_eq!(
        error_text("SELECT COUNT(*) FROM t WHERE t.a = 1 → 2"),
        "lex error at byte 37: unexpected character '→'"
    );
}
