//! Query normalization for representation learning.
//!
//! The embedders in `querc-embed` consume *normalized token streams*, the
//! same preprocessing Jain et al. apply before Doc2Vec / LSTM training:
//!
//! * keywords and identifiers lowercased (identifiers are **kept**, not
//!   masked — schema vocabulary is precisely the signal that makes account
//!   prediction work in the paper's §5.2);
//! * literals collapsed to class placeholders (`<num>`, `<str>`) so the
//!   embedding reflects query *shape*, not parameter values;
//! * bind parameters collapsed to `<param>`;
//! * comments dropped, punctuation and operators kept as their own tokens.

use crate::dialect::Dialect;
use crate::lexer::Lexer;
use crate::token::{quoted_body, Token, TokenKind};

/// Placeholder token for numeric literals.
pub const NUM: &str = "<num>";
/// Placeholder token for string literals.
pub const STR: &str = "<str>";
/// Placeholder token for bind parameters.
pub const PARAM: &str = "<param>";
/// Placeholder token for text the lexer could not classify.
const OTHER: &str = "<other>";

/// One normalized token, borrowed from the source text it came from.
///
/// The single definition of normalization: [`normalize_tokens`] and
/// [`normalize_sql`] build strings from it, and
/// [`crate::fingerprint::template_fingerprint`] streams its bytes
/// without building any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormToken<'a> {
    /// Keyword or identifier text, ASCII-lowercased.
    Folded(&'a str),
    /// Operator or punctuation text, kept verbatim.
    Verbatim(&'a str),
    /// A quoted identifier's body, ASCII-lowercased, with each doubled
    /// `quote` collapsed to one (the normalized form of
    /// [`Token::ident_name`]).
    Unquoted {
        /// The text between the quotes.
        body: &'a str,
        /// The quote byte whose doubling is an escape, if any.
        quote: Option<u8>,
    },
    /// A literal, parameter or unclassifiable run, collapsed to a fixed
    /// placeholder.
    Placeholder(&'static str),
}

impl<'a> NormToken<'a> {
    /// The normalized form of a token of class `kind` with source text
    /// `text`; `None` for comments, which normalization drops.
    pub fn of(kind: TokenKind, text: &'a str) -> Option<NormToken<'a>> {
        Some(match kind {
            TokenKind::Keyword | TokenKind::Ident => NormToken::Folded(text),
            TokenKind::QuotedIdent => {
                let (body, quote) = quoted_body(text);
                NormToken::Unquoted { body, quote }
            }
            TokenKind::Number => NormToken::Placeholder(NUM),
            TokenKind::StringLit => NormToken::Placeholder(STR),
            TokenKind::Param => NormToken::Placeholder(PARAM),
            TokenKind::Operator | TokenKind::Punct => NormToken::Verbatim(text),
            TokenKind::Comment => return None,
            TokenKind::Other => NormToken::Placeholder(OTHER),
        })
    }

    /// Feed the normalized bytes to `f`, in order, without building them.
    pub(crate) fn for_each_byte(&self, mut f: impl FnMut(u8)) {
        match *self {
            NormToken::Folded(s) => s.bytes().for_each(|b| f(b.to_ascii_lowercase())),
            NormToken::Verbatim(s) | NormToken::Placeholder(s) => s.bytes().for_each(f),
            NormToken::Unquoted { body, quote } => {
                let b = body.as_bytes();
                let mut i = 0;
                while i < b.len() {
                    let c = b[i];
                    // Left to right, non-overlapping — `str::replace`.
                    i += if Some(c) == quote && b.get(i + 1) == Some(&c) {
                        2
                    } else {
                        1
                    };
                    f(c.to_ascii_lowercase());
                }
            }
        }
    }

    /// Length in bytes of the normalized text.
    pub(crate) fn len(&self) -> usize {
        match *self {
            NormToken::Folded(s) | NormToken::Verbatim(s) | NormToken::Placeholder(s) => s.len(),
            NormToken::Unquoted { .. } => {
                let mut n = 0;
                self.for_each_byte(|_| n += 1);
                n
            }
        }
    }

    /// The normalized text as an owned string.
    pub fn to_owned_string(&self) -> String {
        match *self {
            NormToken::Folded(s) => s.to_ascii_lowercase(),
            NormToken::Verbatim(s) | NormToken::Placeholder(s) => s.to_string(),
            NormToken::Unquoted { .. } => {
                let mut bytes = Vec::with_capacity(self.len());
                self.for_each_byte(|b| bytes.push(b));
                // Lowercasing ASCII and dropping one byte of an ASCII
                // pair both keep UTF-8 valid.
                String::from_utf8(bytes).expect("normalized text stays UTF-8")
            }
        }
    }
}

/// Normalize an already-lexed token stream into embedder tokens.
pub fn normalize_tokens(tokens: &[Token]) -> Vec<String> {
    let mut out = Vec::with_capacity(tokens.len());
    out.extend(
        tokens
            .iter()
            .filter_map(|t| NormToken::of(t.kind, &t.text))
            .map(|t| t.to_owned_string()),
    );
    out
}

/// Lex and normalize in one step: each normalized token is built once,
/// straight from its span in `sql`, with no intermediate [`Token`]s.
/// Equal to `normalize_tokens(&tokenize(sql, dialect))`.
pub fn normalize_sql(sql: &str, dialect: Dialect) -> Vec<String> {
    let mut out = Vec::new();
    Lexer::new(sql, dialect, false).run(|kind, span| {
        out.extend(NormToken::of(kind, &sql[span]).map(|t| t.to_owned_string()));
    });
    // Callers keep whole corpora of these; don't carry doubling slack.
    out.shrink_to_fit();
    out
}

/// Canonical single-line text form of a normalized query (tokens joined by
/// single spaces). Two queries with the same shape and schema references
/// have identical normalized text, which is how the security-audit
/// experiment detects verbatim-identical queries across users.
pub fn normalized_text(sql: &str, dialect: Dialect) -> String {
    normalize_sql(sql, dialect).join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_become_placeholders() {
        let toks = normalize_sql(
            "SELECT * FROM orders WHERE o_totalprice > 100.5 AND o_comment = 'x'",
            Dialect::Generic,
        );
        assert!(toks.contains(&NUM.to_string()));
        assert!(toks.contains(&STR.to_string()));
        assert!(!toks.iter().any(|t| t == "100.5" || t == "'x'"));
    }

    #[test]
    fn identifiers_survive_lowercased() {
        let toks = normalize_sql("SELECT C_Name FROM Customer", Dialect::Generic);
        assert_eq!(toks, ["select", "c_name", "from", "customer"]);
    }

    #[test]
    fn params_unify_across_dialect_markers() {
        let a = normalized_text("select * from t where x = ?", Dialect::Generic);
        let b = normalized_text("select * from t where x = $1", Dialect::Postgres);
        let c = normalized_text("select * from t where x = @p", Dialect::TSql);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn same_shape_different_literals_normalize_identically() {
        let a = normalized_text(
            "select o_orderkey from orders where o_totalprice > 100",
            Dialect::Generic,
        );
        let b = normalized_text(
            "SELECT o_orderkey FROM orders WHERE o_totalprice > 99999",
            Dialect::Generic,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn quoted_identifiers_unquoted_and_folded() {
        let t = normalized_text("select \"My Col\" from [My Table]", Dialect::Generic);
        assert_eq!(t, "select my col from my table");
    }

    #[test]
    fn unquoted_tokens_match_ident_name() {
        for text in [
            "\"a\"\"B\"",
            "\"\"\"\"",
            "`x``Y`",
            "[Dbo]",
            "\"open",
            "\"é",
            "",
        ] {
            let t = Token::new(TokenKind::QuotedIdent, text);
            let n = NormToken::of(t.kind, &t.text).unwrap();
            let expect = t.ident_name().to_ascii_lowercase();
            assert_eq!(n.to_owned_string(), expect, "{text:?}");
            assert_eq!(n.len(), expect.len(), "{text:?}");
        }
    }

    #[test]
    fn comments_removed() {
        let t = normalized_text("select 1 -- hi\n from t", Dialect::Generic);
        assert_eq!(t, "select <num> from t");
    }

    #[test]
    fn normalization_is_idempotent_on_its_own_output() {
        let once = normalized_text(
            "SELECT a, b FROM t WHERE a = 5 AND b LIKE 'x%'",
            Dialect::Generic,
        );
        let twice = normalized_text(&once, Dialect::Generic);
        // `<num>` style placeholders re-lex as operator '<' etc., so exact
        // idempotence needs the placeholders to survive. They do not re-lex
        // to themselves, so we instead require stability of the alphabetic
        // skeleton — the property the embedders rely on.
        let skeleton = |s: &str| {
            s.split_whitespace()
                .filter(|w| w.chars().all(|c| c.is_ascii_alphabetic() || c == '_'))
                // Re-lexed placeholder fragments (`<num>` → `num`) are not
                // part of the alphabetic skeleton either.
                .filter(|w| !matches!(*w, "num" | "str" | "param" | "other"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(skeleton(&once), skeleton(&twice));
    }

    #[test]
    fn empty_input() {
        assert!(normalize_sql("", Dialect::Generic).is_empty());
        assert_eq!(normalized_text("", Dialect::Generic), "");
    }
}
