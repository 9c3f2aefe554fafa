//! Coverage-guided fuzz plane for the parser.
//!
//! Two generators feed the parser:
//!
//! 1. A *grammar-directed* builder that consumes a random decision-byte
//!    stream and emits syntactically plausible SQL (CTEs, joins, derived
//!    tables, set operations, subquery predicates, window QUALIFY). Every
//!    emitted query must parse to a `Select` shape whose base-table reads
//!    stay inside the generator's table pool — CTE names must never leak
//!    into lineage.
//! 2. Raw token-soup and byte-soup streams that exercise recovery paths.
//!
//! All inputs are parsed under all six dialects and must uphold parser
//! totality: no panics, `subquery_depth` bounded by [`MAX_PARSE_DEPTH`],
//! deterministic output, and (for dialect-neutral text) identical
//! template fingerprints in every dialect.

#[path = "common/grammar.rs"]
mod grammar;

use grammar::{build_query, SOUP, TABLES};
use proptest::prelude::*;
use querc_sql::parser::MAX_PARSE_DEPTH;
use querc_sql::{parse_query, template_fingerprint, Dialect, StatementKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Grammar-directed fuzz: every generated query parses as a Select in
    /// every dialect, stays depth-bounded, keeps `distinct_tables` sorted
    /// and unique, and never leaks a CTE name into lineage reads.
    #[test]
    fn grammar_fuzz_totality(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let sql = build_query(&bytes);
        for d in Dialect::all() {
            let shape = parse_query(&sql, d);
            prop_assert!(shape.kind == Some(StatementKind::Select), "{}", sql);
            prop_assert!(
                shape.subquery_depth <= MAX_PARSE_DEPTH + 1,
                "depth {} for {}", shape.subquery_depth, sql
            );
            let dt = shape.distinct_tables();
            prop_assert!(dt.windows(2).all(|w| w[0] < w[1]), "{:?} from {}", dt, sql);
            let lin = shape.lineage();
            for r in &lin.reads {
                prop_assert!(
                    TABLES.contains(&r.as_str()),
                    "read {:?} outside table pool for {}", r, sql
                );
            }
            prop_assert!(lin.writes.is_empty() && lin.views.is_empty(), "{}", sql);
        }
    }

    /// Generated SQL is dialect-neutral text, so its template fingerprint
    /// must be identical under all six dialects (cross-dialect routing
    /// stability: the same workload hashes to the same template).
    #[test]
    fn grammar_fuzz_cross_dialect_fingerprint(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let sql = build_query(&bytes);
        let expect = template_fingerprint(&sql, Dialect::Generic);
        for d in Dialect::all() {
            prop_assert!(expect == template_fingerprint(&sql, d), "{}", sql);
        }
    }

    /// Parsing is a pure function of (sql, dialect).
    #[test]
    fn grammar_fuzz_deterministic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let sql = build_query(&bytes);
        for d in Dialect::all() {
            prop_assert_eq!(parse_query(&sql, d), parse_query(&sql, d));
        }
    }

    /// Token soup: valid SQL fragments in arbitrary order must never
    /// panic or blow the depth bound, in any dialect.
    #[test]
    fn token_soup_fuzz(picks in prop::collection::vec(0usize..SOUP.len(), 0..48)) {
        let sql = picks.iter().map(|&i| SOUP[i]).collect::<Vec<_>>().join(" ");
        for d in Dialect::all() {
            let shape = parse_query(&sql, d);
            prop_assert!(shape.subquery_depth <= MAX_PARSE_DEPTH + 1, "{}", sql);
            let dt = shape.distinct_tables();
            prop_assert!(dt.windows(2).all(|w| w[0] < w[1]), "{:?} from {}", dt, sql);
        }
    }

    /// Byte soup: totally arbitrary text is handled by every dialect,
    /// deterministically and depth-bounded.
    #[test]
    fn byte_soup_fuzz(s in ".{0,240}") {
        for d in Dialect::all() {
            let shape = parse_query(&s, d);
            prop_assert!(shape.subquery_depth <= MAX_PARSE_DEPTH + 1);
            prop_assert_eq!(&shape, &parse_query(&s, d));
        }
    }

    /// `distinct_tables` equals the sorted, deduplicated table list for a
    /// FROM clause built from arbitrary picks out of the table pool.
    #[test]
    fn distinct_tables_matches_sorted_dedup(
        picks in prop::collection::vec(0usize..TABLES.len(), 1..8),
    ) {
        let from = picks.iter().map(|&i| TABLES[i]).collect::<Vec<_>>().join(", ");
        let sql = format!("SELECT a FROM {from}");
        let shape = parse_query(&sql, Dialect::Generic);
        let mut expect: Vec<String> = picks.iter().map(|&i| TABLES[i].to_string()).collect();
        expect.sort();
        expect.dedup();
        prop_assert_eq!(shape.distinct_tables(), expect);
    }
}
