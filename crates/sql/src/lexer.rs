//! A dialect-tolerant, total SQL lexer.
//!
//! Totality is the design requirement: Querc sits in front of databases it
//! does not control, so the lexer must produce *some* token stream for any
//! byte sequence — malformed queries are exactly the ones error-prediction
//! applications care about. Unterminated strings/comments lex to the end of
//! input, and unclassifiable characters come out as [`TokenKind::Other`].

use crate::dialect::{is_keyword, Dialect};
use crate::token::{Token, TokenKind};
use std::cell::Cell;
use std::ops::Range;

thread_local! {
    static LEX_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Number of lexing passes ([`Lexer::run`], which [`tokenize`] and
/// [`tokenize_with_comments`] go through) made by **this thread** since
/// it started. A diagnostic counter for asserting
/// single-parse invariants on hot paths (e.g. "a serving chunk lexes each
/// query exactly once") — thread-local so concurrent tests don't see each
/// other's lexing. Compare two readings; the absolute value is
/// meaningless.
pub fn lex_calls_this_thread() -> u64 {
    LEX_CALLS.with(Cell::get)
}

/// Tokenize `sql` under `dialect`, dropping whitespace and comments.
pub fn tokenize(sql: &str, dialect: Dialect) -> Vec<Token> {
    tokens(sql, dialect, false)
}

/// Tokenize keeping comment tokens (for auditing / lineage applications).
pub fn tokenize_with_comments(sql: &str, dialect: Dialect) -> Vec<Token> {
    tokens(sql, dialect, true)
}

fn tokens(sql: &str, dialect: Dialect, keep_comments: bool) -> Vec<Token> {
    let mut out = Vec::new();
    Lexer::new(sql, dialect, keep_comments)
        .run(|kind, span| out.push(Token::new(kind, &sql[span])));
    out
}

/// The span lexer: one pass over the bytes of a SQL string that reports
/// each token as its [`TokenKind`] and byte range, building no strings.
/// [`tokenize`] turns the spans into owned [`Token`]s; the normalizer and
/// the template fingerprint read the source text through them directly.
///
/// Every range starts and ends on a `char` boundary of the source, so
/// `&sql[range]` never panics: a token ends after an ASCII byte, before
/// an ASCII byte, or at the end of the input, and a run of non-ASCII
/// bytes is never split.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    dialect: Dialect,
    keep_comments: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer over `sql` under `dialect`; comments are reported only
    /// when `keep_comments` is set.
    pub fn new(sql: &'a str, dialect: Dialect, keep_comments: bool) -> Self {
        Lexer {
            src: sql.as_bytes(),
            pos: 0,
            dialect,
            keep_comments,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    /// Lex the whole input, calling `emit(kind, byte range)` once per
    /// token in source order. Counts one call of
    /// [`lex_calls_this_thread`].
    pub fn run(mut self, mut emit: impl FnMut(TokenKind, Range<usize>)) {
        LEX_CALLS.with(|c| c.set(c.get() + 1));
        while let Some(c) = self.peek() {
            let start = self.pos;
            let kind = match c {
                b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => {
                    self.pos += 1;
                    continue;
                }
                b'-' if self.peek2() == Some(b'-') => self.line_comment(),
                b'#' if self.dialect.hash_comments() => self.line_comment(),
                b'/' if self.peek2() == Some(b'*') => self.block_comment(),
                b'\'' => self.string_lit(),
                b'"' => self.quoted_ident(b'"', b'"'),
                b'`' if self.dialect.backtick_idents() => self.quoted_ident(b'`', b'`'),
                b'[' if self.dialect.bracket_idents() => self.quoted_ident(b'[', b']'),
                b'0'..=b'9' => self.number(),
                b'.' if matches!(self.peek2(), Some(b'0'..=b'9')) => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.word(start),
                b'?' => {
                    self.pos += 1;
                    TokenKind::Param
                }
                b':' if matches!(self.peek2(), Some(b'a'..=b'z' | b'A'..=b'Z' | b'_')) => {
                    self.named_param()
                }
                b'$' if self.dialect.dollar_params()
                    && matches!(
                        self.peek2(),
                        Some(b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_')
                    ) =>
                {
                    self.named_param()
                }
                b'@' if self.dialect.at_params()
                    && matches!(self.peek2(), Some(b'a'..=b'z' | b'A'..=b'Z' | b'_')) =>
                {
                    self.named_param()
                }
                b'%' if self.peek2() == Some(b's') => {
                    // printf-style placeholder common in logged Python SQL.
                    self.pos += 2;
                    TokenKind::Param
                }
                b'(' | b')' | b',' | b';' | b'.' => {
                    self.pos += 1;
                    TokenKind::Punct
                }
                _ => self.operator_or_other(),
            };
            if kind != TokenKind::Comment || self.keep_comments {
                emit(kind, start..self.pos);
            }
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.pos += 1;
        }
        TokenKind::Comment
    }

    fn block_comment(&mut self) -> TokenKind {
        self.pos += 2; // consume /*
        while self.pos < self.src.len() {
            if self.peek() == Some(b'*') && self.peek2() == Some(b'/') {
                self.pos += 2;
                break;
            }
            self.pos += 1;
        }
        TokenKind::Comment
    }

    fn string_lit(&mut self) -> TokenKind {
        self.pos += 1; // opening quote
        while let Some(c) = self.bump() {
            if c == b'\'' {
                if self.peek() == Some(b'\'') {
                    self.pos += 1; // escaped quote, keep going
                } else {
                    break;
                }
            }
        }
        TokenKind::StringLit
    }

    fn quoted_ident(&mut self, open: u8, close: u8) -> TokenKind {
        self.pos += 1; // opening delimiter
        while let Some(c) = self.bump() {
            if c == close {
                // Doubling escapes for " and `, not for ].
                if close == open && self.peek() == Some(close) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        TokenKind::QuotedIdent
    }

    fn number(&mut self) -> TokenKind {
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    self.pos += 1;
                }
                b'.' if !seen_dot && !seen_exp && matches!(self.peek2(), Some(b'0'..=b'9')) => {
                    seen_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !seen_exp => {
                    // Only an exponent if followed by digits or sign+digits.
                    let next = self.peek2();
                    let after_sign = self.src.get(self.pos + 2).copied();
                    let ok = matches!(next, Some(b'0'..=b'9'))
                        || (matches!(next, Some(b'+') | Some(b'-'))
                            && matches!(after_sign, Some(b'0'..=b'9')));
                    if !ok {
                        break;
                    }
                    seen_exp = true;
                    self.pos += 2; // consume e and the digit/sign
                }
                _ => break,
            }
        }
        TokenKind::Number
    }

    fn consume_word_chars(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'$' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// `:name`, `$1` / `$name` or `@name`: the marker, then word chars.
    fn named_param(&mut self) -> TokenKind {
        self.pos += 1;
        self.consume_word_chars();
        TokenKind::Param
    }

    fn word(&mut self, start: usize) -> TokenKind {
        self.consume_word_chars();
        if is_keyword(&self.src[start..self.pos]) {
            TokenKind::Keyword
        } else {
            TokenKind::Ident
        }
    }

    fn operator_or_other(&mut self) -> TokenKind {
        const TWO: &[&[u8]] = &[
            b"<=", b">=", b"<>", b"!=", b"||", b"::", b"->", b"=>", b"**",
        ];
        let rest = &self.src[self.pos..];
        if TWO.iter().any(|op| rest.starts_with(op)) {
            self.pos += 2;
            return TokenKind::Operator;
        }
        match self.bump() {
            Some(
                b'=' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' | b'~'
                | b'!',
            ) => TokenKind::Operator,
            _ => {
                // Swallow a maximal run of unclassifiable bytes (e.g. a
                // multi-byte UTF-8 character) into one Other token.
                while let Some(c) = self.peek() {
                    if c >= 0x80 {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                TokenKind::Other
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql, Dialect::Generic)
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    fn texts(sql: &str) -> Vec<String> {
        tokenize(sql, Dialect::Generic)
            .into_iter()
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a = 1", Dialect::Generic);
        let texts: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["SELECT", "a", ",", "b", "FROM", "t", "WHERE", "a", "=", "1"]
        );
        assert_eq!(toks[0].kind, TokenKind::Keyword);
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[8].kind, TokenKind::Operator);
        assert_eq!(toks[9].kind, TokenKind::Number);
    }

    #[test]
    fn string_literals_with_doubling() {
        let toks = tokenize("select 'it''s' from t", Dialect::Generic);
        assert_eq!(toks[1].kind, TokenKind::StringLit);
        assert_eq!(toks[1].text, "'it''s'");
    }

    #[test]
    fn unterminated_string_reaches_eof() {
        let toks = tokenize("select 'oops", Dialect::Generic);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].kind, TokenKind::StringLit);
        assert_eq!(toks[1].text, "'oops");
    }

    #[test]
    fn numbers_int_decimal_scientific() {
        assert_eq!(
            kinds("1 2.5 .5 1e10 3.14e-2 1.e"),
            vec![
                TokenKind::Number,
                TokenKind::Number,
                TokenKind::Number,
                TokenKind::Number,
                TokenKind::Number,
                TokenKind::Number, // "1"
                TokenKind::Punct,  // "."
                TokenKind::Ident,  // "e"
            ]
        );
        assert_eq!(texts("3.14e-2")[0], "3.14e-2");
    }

    #[test]
    fn qualified_column_is_three_tokens() {
        assert_eq!(
            texts("t.a"),
            vec!["t".to_string(), ".".to_string(), "a".to_string()]
        );
    }

    #[test]
    fn comments_dropped_by_default_kept_on_request() {
        let sql = "select 1 -- trailing\n/* block */ from t # mysql";
        let plain = tokenize(sql, Dialect::Generic);
        assert!(plain.iter().all(|t| t.kind != TokenKind::Comment));
        let kept = tokenize_with_comments(sql, Dialect::Generic);
        let comments: Vec<_> = kept
            .iter()
            .filter(|t| t.kind == TokenKind::Comment)
            .collect();
        assert_eq!(comments.len(), 3);
        assert_eq!(comments[1].text, "/* block */");
    }

    #[test]
    fn unterminated_block_comment() {
        let toks = tokenize_with_comments("select /* never closed", Dialect::Generic);
        assert_eq!(toks.last().unwrap().kind, TokenKind::Comment);
    }

    #[test]
    fn dialect_quoted_identifiers() {
        let t = tokenize("select [col name] from [dbo].[t]", Dialect::TSql);
        assert_eq!(t[1].kind, TokenKind::QuotedIdent);
        assert_eq!(t[1].ident_name(), "col name");

        let m = tokenize("select `weird col` from `db`.`t`", Dialect::MySql);
        assert_eq!(m[1].kind, TokenKind::QuotedIdent);

        // Brackets are NOT identifiers in Postgres — '[' becomes Other.
        let p = tokenize("select [x]", Dialect::Postgres);
        assert!(p.iter().any(|t| t.kind == TokenKind::Other));
    }

    #[test]
    fn params_by_dialect() {
        let g = tokenize(
            "where a = ? and b = :name and c = $1 and d = @p",
            Dialect::Generic,
        );
        let params: Vec<_> = g
            .iter()
            .filter(|t| t.kind == TokenKind::Param)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(params, ["?", ":name", "$1", "@p"]);

        // In MySQL, @ is not recognized as a param marker by our table.
        let m = tokenize("set x = @v", Dialect::MySql);
        assert!(m.iter().all(|t| t.kind != TokenKind::Param));
    }

    #[test]
    fn multi_char_operators() {
        let toks = tokenize("a <= b >= c <> d != e || f :: g", Dialect::Generic);
        let ops: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Operator)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ops, ["<=", ">=", "<>", "!=", "||", "::"]);
    }

    #[test]
    fn never_panics_on_garbage() {
        for garbage in [
            "",
            "🙂🙂🙂",
            "\u{0}\u{1}\u{2}",
            "SELECT \u{feff} FROM",
            "'''",
            "((((",
            "\\\\\\",
            "select * from t where x = 'u\u{308}ber'",
        ] {
            let _ = tokenize(garbage, Dialect::Generic);
        }
    }

    #[test]
    fn keywords_recognized_any_case() {
        let toks = tokenize("sElEcT FrOm WhErE", Dialect::Generic);
        assert!(toks.iter().all(|t| t.kind == TokenKind::Keyword));
    }

    #[test]
    fn snowflake_tolerates_tsql_text_degraded() {
        // A bracketed identifier under the Snowflake dialect still lexes
        // (as Other + ident + Other) — totality over fidelity.
        let toks = tokenize("select [a] from t", Dialect::Snowflake);
        assert!(!toks.is_empty());
    }

    #[test]
    fn whole_tpch_style_query_lexes() {
        let sql = "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty \
                   from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day \
                   group by l_returnflag, l_linestatus order by l_returnflag";
        let toks = tokenize(sql, Dialect::Generic);
        assert!(toks.iter().any(|t| t.is_kw("group")));
        assert!(toks.iter().any(|t| t.kind == TokenKind::StringLit));
        assert!(toks.len() > 25);
    }
}
