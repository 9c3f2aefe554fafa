//! Front-end golden digest: one order-dependent 64-bit digest over every
//! lexer, normalizer and fingerprint output on a fixed input set, under
//! all six dialects.
//!
//! The inputs are the conformance corpus, grammar-generated queries from
//! fixed byte seeds, token soup, and byte soup built from hostile
//! fragments: multi-byte characters, unterminated quotes and comments,
//! `[`/backtick identifiers and `$1`/`@p`/`:x`/`%s` parameters. Any change
//! to a token's kind or text, to a normalized token, or to a template
//! fingerprint moves the digest, so a lexer rewrite that passes this test
//! is bit-identical to the one that recorded [`GOLDEN`].

#[allow(dead_code)]
#[path = "common/corpus.rs"]
mod corpus;
#[path = "common/grammar.rs"]
mod grammar;

use querc_sql::normalize::normalize_sql;
use querc_sql::{template_fingerprint, tokenize, Dialect, Token};

/// (inputs, digest) recorded before the span lexer replaced the
/// token-building one.
const GOLDEN: (usize, u64) = (1093, 0xc571_4d46_acbd_1c31);

/// FNV-1a over length-prefixed fields, so field boundaries count.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, b: &[u8]) {
        for x in (b.len() as u64).to_le_bytes().iter().chain(b) {
            self.0 ^= u64::from(*x);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn tokens(&mut self, tokens: &[Token]) {
        self.bytes(&(tokens.len() as u64).to_le_bytes());
        for t in tokens {
            self.bytes(format!("{:?}", t.kind).as_bytes());
            self.bytes(t.text.as_bytes());
        }
    }
}

/// SplitMix64: a fixed, dependency-free stream for the generated inputs.
struct Seq(u64);

impl Seq {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Byte-soup fragments: every lexer branch, its unterminated form, and
/// text the lexer can only call `Other`.
const FRAGMENTS: &[&str] = &[
    "SELECT",
    "from",
    "WhErE",
    "straight_join",
    "tablesample",
    "x",
    "_a$1",
    "Éa",
    " ",
    "\t",
    "\n",
    "\r\n",
    "\u{b}",
    "\u{c}",
    "'",
    "''",
    "'it''s'",
    "\"",
    "\"\"",
    "\"My Col\"",
    "\"a\"\"b\"",
    "`",
    "``",
    "`b`",
    "[",
    "]",
    "[dbo]",
    "[x",
    "--",
    "-- c\n",
    "/*",
    "*/",
    "/* b */",
    "#",
    "# h\n",
    "?",
    "$1",
    "$name",
    "$",
    "@p",
    "@",
    ":x",
    ":",
    "::",
    "%s",
    "%",
    "1",
    "2.5",
    ".5",
    "1e10",
    "3.14e-2",
    "1.e",
    "1e+",
    "0x1F",
    "<=",
    ">=",
    "<>",
    "!=",
    "||",
    "->",
    "=>",
    "**",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "&",
    "|",
    "^",
    "~",
    "!",
    "(",
    ")",
    ",",
    ";",
    ".",
    "\\",
    "{",
    "}",
    "é",
    "ü",
    "u\u{308}",
    "🙂",
    "日本",
    "\u{feff}",
    "\u{0}",
    "\u{1f}",
    "\u{7f}",
    "\u{80}",
];

/// Hand-picked edge cases the generators are unlikely to hit whole.
const EDGES: &[&str] = &[
    "",
    " ",
    "'",
    "\"",
    "`",
    "[",
    "/*",
    "--",
    "#",
    "select \"unterminated",
    "select `unterminated",
    "select [unterminated",
    "select 'unterminated",
    "select \"ab\"\"",
    "select \"é",
    "select [é",
    "select `é``",
    "select /* never closed",
    "select 1 -- trailing",
    "SELECT \"a\u{1f}b\" FROM t",
    "where a = ? and b = :name and c = $1 and d = @p and e = %s",
    "select 1.5e3, .25, 7e, 8e-, 9e+1 from t",
    "SELECT [My Table].[Col] FROM [dbo].[My Table]",
    "SELECT `weird col` FROM `db`.`t`",
    "select * from t where x = 'u\u{308}ber' and y = '🙂'",
    "🙂🙂🙂",
    "\u{0}\u{1}\u{2}",
    "SELECT \u{feff} FROM",
];

/// The fixed input set, in digest order.
fn inputs() -> Vec<String> {
    let mut out: Vec<String> = corpus::cases().iter().map(|c| c.sql.to_string()).collect();
    out.extend(EDGES.iter().map(|s| s.to_string()));
    let mut seq = Seq(0x5eed_f00d);
    for _ in 0..300 {
        let len = seq.below(96);
        let bytes: Vec<u8> = (0..len).map(|_| seq.next() as u8).collect();
        out.push(grammar::build_query(&bytes));
    }
    for i in 0..200 {
        let sep = if i % 2 == 0 { " " } else { "" };
        let n = seq.below(48);
        let picks: Vec<&str> = (0..n)
            .map(|_| grammar::SOUP[seq.below(grammar::SOUP.len())])
            .collect();
        out.push(picks.join(sep));
    }
    for _ in 0..400 {
        let n = seq.below(40);
        let mut s = String::new();
        for _ in 0..n {
            if seq.below(8) == 0 {
                // Any Unicode scalar value, not just the curated ones.
                let c = char::from_u32(seq.next() as u32 % 0x11_0000).unwrap_or('\u{fffd}');
                s.push(c);
            } else {
                s.push_str(FRAGMENTS[seq.below(FRAGMENTS.len())]);
            }
        }
        out.push(s);
    }
    out
}

#[test]
fn front_end_outputs_match_the_golden_digest() {
    let inputs = inputs();
    let mut d = Digest(0xcbf29ce484222325);
    for sql in &inputs {
        d.bytes(sql.as_bytes());
        for dialect in Dialect::all() {
            d.bytes(dialect.name().as_bytes());
            d.tokens(&tokenize(sql, dialect));
            d.tokens(&querc_sql::lexer::tokenize_with_comments(sql, dialect));
            let normalized = normalize_sql(sql, dialect);
            d.bytes(&(normalized.len() as u64).to_le_bytes());
            for t in &normalized {
                d.bytes(t.as_bytes());
            }
            d.bytes(&template_fingerprint(sql, dialect).to_le_bytes());
        }
    }
    println!(
        "frontend golden: {} inputs, digest {:#018x}",
        inputs.len(),
        d.0
    );
    assert_eq!(
        (inputs.len(), d.0),
        GOLDEN,
        "front-end outputs changed: a token, a normalized token or a fingerprint differs"
    );
}
