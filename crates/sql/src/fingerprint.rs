//! Template fingerprinting — a stable 64-bit identity for a query's *shape*.
//!
//! Cloud workloads are overwhelmingly templated: the same statement
//! structure recurs with only literals varying (the SnowCloud corpus the
//! paper trains on, and the "few distinct intents, many concrete
//! instances" pattern). A template fingerprint hashes the *normalized*
//! token stream — literals collapsed to placeholders, identifiers
//! case-folded, whitespace and comments gone — so every instantiation of
//! a template maps to one `u64`. That key is what the serving plane's
//! vector cache (`querc::embed_plane`) is indexed by: embed a template
//! once, serve every repetition from the cache.
//!
//! Properties (enforced by `tests/prop.rs`):
//!
//! * **literal-blind** — `where x = 1` and `where x = 99` fingerprint
//!   identically, as do `'a'` vs `'b'` string literals and `?`/`$1`/`@p`
//!   bind markers;
//! * **layout-blind** — whitespace, case, and comments don't matter;
//! * **structure-sensitive** — different identifiers, different clause
//!   structure, or different token order produce different fingerprints
//!   (modulo 64-bit hash collisions);
//! * **total** — any byte sequence fingerprints without panicking, like
//!   the lexer it is built on.
//!
//! ```
//! use querc_sql::{template_fingerprint, Dialect};
//!
//! let a = template_fingerprint("SELECT * FROM t WHERE x = 1", Dialect::Generic);
//! let b = template_fingerprint("select *  from t where x = 42 -- hi", Dialect::Generic);
//! let c = template_fingerprint("select * from u where x = 1", Dialect::Generic);
//! assert_eq!(a, b);
//! assert_ne!(a, c);
//! ```

use crate::dialect::Dialect;
use crate::lexer::Lexer;
use crate::normalize::NormToken;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;
const FNV_PRIME_POW7: u64 = {
    let mut p = 1u64;
    let mut i = 0;
    while i < 7 {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// The fingerprint as a stream: FNV-1a over each normalized token's
/// length (8 bytes, little-endian) followed by its bytes. A
/// length-prefixed encoding is injective over token streams, so no byte
/// value *inside* a token (quoted identifiers can smuggle in arbitrary
/// bytes, separators included) can make two different streams hash as
/// one.
#[derive(Debug, Clone, Copy)]
pub struct TemplateHasher(u64);

impl Default for TemplateHasher {
    fn default() -> Self {
        TemplateHasher(FNV_OFFSET)
    }
}

impl TemplateHasher {
    /// Fold one normalized token into the fingerprint, reading its bytes
    /// straight from the source text.
    pub fn write(&mut self, token: NormToken<'_>) {
        let len = token.len() as u64;
        if len < 0x100 {
            // The seven zero high bytes leave the xor a no-op, so their
            // multiplies fold into one by PRIME^7 (wrapping
            // multiplication is associative): same hash, one step.
            self.byte(len as u8);
            self.0 = self.0.wrapping_mul(FNV_PRIME_POW7);
        } else {
            for b in len.to_le_bytes() {
                self.byte(b);
            }
        }
        token.for_each_byte(|b| self.byte(b));
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// The fingerprint of the tokens written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint an already-normalized token stream (the output of
/// [`crate::normalize::normalize_sql`]); see [`TemplateHasher`] for the
/// encoding.
///
/// Callers that already hold the normalized tokens (e.g. a memoized
/// `EnrichedQuery`) use this directly and skip re-lexing the SQL.
pub fn fingerprint_tokens<S: AsRef<str>>(tokens: &[S]) -> u64 {
    let mut h = TemplateHasher::default();
    for t in tokens {
        h.write(NormToken::Verbatim(t.as_ref()));
    }
    h.finish()
}

/// The template fingerprint of raw SQL text under `dialect`. One lexing
/// pass streams each normalized token (literals → placeholders,
/// identifiers case-folded, comments dropped) into a [`TemplateHasher`]
/// without building it, so the result equals
/// `fingerprint_tokens(&normalize_sql(sql, dialect))` at no allocation.
pub fn template_fingerprint(sql: &str, dialect: Dialect) -> u64 {
    let mut h = TemplateHasher::default();
    Lexer::new(sql, dialect, false).run(|kind, span| {
        if let Some(t) = NormToken::of(kind, &sql[span]) {
            h.write(t);
        }
    });
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_sql;

    #[test]
    fn literal_substitution_is_invariant() {
        let a = template_fingerprint(
            "select o_orderkey from orders where o_totalprice > 100",
            Dialect::Generic,
        );
        let b = template_fingerprint(
            "select o_orderkey from orders where o_totalprice > 99999.5",
            Dialect::Generic,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn whitespace_case_and_comments_are_invariant() {
        let a = template_fingerprint("select a from t where x = 'v'", Dialect::Generic);
        let b = template_fingerprint(
            "SELECT  A\n FROM t /* c */ WHERE x = 'other'",
            Dialect::Generic,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn bind_markers_unify_across_dialects() {
        let a = template_fingerprint("select * from t where x = ?", Dialect::Generic);
        let b = template_fingerprint("select * from t where x = $1", Dialect::Postgres);
        let c = template_fingerprint("select * from t where x = @p", Dialect::TSql);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn structure_changes_the_fingerprint() {
        let base = template_fingerprint("select a from t", Dialect::Generic);
        for other in [
            "select b from t",
            "select a from u",
            "select a, b from t",
            "select a from t where a = 1",
            "from t select a",
        ] {
            assert_ne!(
                base,
                template_fingerprint(other, Dialect::Generic),
                "{other} must not collide with the base template"
            );
        }
    }

    #[test]
    fn token_boundaries_matter() {
        assert_ne!(
            fingerprint_tokens(&["ab", "c"]),
            fingerprint_tokens(&["a", "bc"])
        );
        assert_ne!(fingerprint_tokens(&["a"]), fingerprint_tokens(&["a", ""]));
    }

    #[test]
    fn separator_bytes_inside_tokens_cannot_forge_boundaries() {
        // A quoted identifier smuggles a control byte into a token: the
        // stream ["a\u{1f}b"] must not collide with ["a", "b"] (the
        // former boundary-separator scheme collided here).
        assert_ne!(
            fingerprint_tokens(&["a\u{1f}b"]),
            fingerprint_tokens(&["a", "b"])
        );
        assert_ne!(
            template_fingerprint("select \"a\u{1f}b\" from t", Dialect::Generic),
            template_fingerprint("select a b from t", Dialect::Generic)
        );
    }

    #[test]
    fn matches_the_token_level_entry_point() {
        let sql = "SELECT revenue FROM finance_reports WHERE q = 7";
        assert_eq!(
            template_fingerprint(sql, Dialect::Generic),
            fingerprint_tokens(&normalize_sql(sql, Dialect::Generic))
        );
    }

    #[test]
    fn long_tokens_hash_their_full_length_prefix() {
        // A quoted identifier longer than 255 bytes takes the byte-wise
        // length-prefix path; both entry points must still agree.
        let name = "x".repeat(300);
        let sql = format!("select \"{name}\", \"{}\" from t", &name[..255]);
        let plain = |tokens: &[String]| {
            let mut h = FNV_OFFSET;
            for t in tokens {
                for b in (t.len() as u64).to_le_bytes().iter().chain(t.as_bytes()) {
                    h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
                }
            }
            h
        };
        let tokens = normalize_sql(&sql, Dialect::Generic);
        assert_eq!(tokens[1].len(), 300);
        assert_eq!(fingerprint_tokens(&tokens), plain(&tokens));
        assert_eq!(template_fingerprint(&sql, Dialect::Generic), plain(&tokens));
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(template_fingerprint("", Dialect::Generic), FNV_OFFSET);
        assert_eq!(fingerprint_tokens::<&str>(&[]), FNV_OFFSET);
    }
}
