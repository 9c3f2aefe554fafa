//! Golden conformance corpus for the multi-dialect SQL front-end.
//!
//! Every case pins the *shape* (statement kind, set-operation count) and
//! the *lineage* (base tables read, tables written, views defined, CTE
//! names) the parser must extract, across every dialect the case applies
//! to (an empty dialect list means all six). The companion gate test
//! measures which grammar productions the corpus exercises via the
//! parser's per-production hit counters (`coverage` feature) and fails
//! if the corpus covers less than [`COVERAGE_THRESHOLD`] of them.

#[path = "common/corpus.rs"]
mod corpus;

use corpus::{cases, dialects_for};
use querc_sql::parser::{coverage, MAX_PARSE_DEPTH};
use querc_sql::{parse_query, Dialect};

/// Minimum fraction of grammar productions the corpus must exercise.
const COVERAGE_THRESHOLD: f64 = 0.90;

/// Parse the whole corpus once (used by both the conformance assertions
/// and the coverage gate).
fn run_corpus(check: bool) -> usize {
    let mut parses = 0usize;
    for (i, case) in cases().iter().enumerate() {
        for &d in dialects_for(case) {
            let shape = parse_query(case.sql, d);
            parses += 1;
            if !check {
                continue;
            }
            let ctx = format!("case {i} [{}] {:?}", d.name(), case.sql);
            assert_eq!(shape.kind, Some(case.kind), "kind: {ctx}");
            assert_eq!(shape.set_ops, case.set_ops, "set_ops: {ctx}");
            let lin = shape.lineage();
            assert_eq!(lin.reads, case.reads, "lineage reads: {ctx}");
            assert_eq!(lin.writes, case.writes, "lineage writes: {ctx}");
            assert_eq!(lin.views, case.views, "lineage views: {ctx}");
            assert_eq!(lin.ctes, case.ctes, "lineage ctes: {ctx}");
            // distinct_tables invariants hold on every corpus shape.
            let dt = shape.distinct_tables();
            assert!(dt.windows(2).all(|w| w[0] < w[1]), "distinct_tables: {ctx}");
        }
    }
    parses
}

#[test]
fn corpus_is_at_least_120_cases() {
    assert!(
        cases().len() >= 120,
        "conformance corpus shrank to {} cases",
        cases().len()
    );
}

#[test]
fn conformance_corpus_passes() {
    let parses = run_corpus(true);
    assert!(parses >= 6 * 120, "corpus ran only {parses} parses");
}

/// Lineage keys are deterministic and CTE-free for the whole corpus.
#[test]
fn corpus_lineage_keys_stable() {
    for case in cases() {
        for &d in dialects_for(&case) {
            let a = parse_query(case.sql, d).lineage();
            let b = parse_query(case.sql, d).lineage();
            assert_eq!(a.key(), b.key(), "{:?}", case.sql);
            for cte in &a.ctes {
                assert!(!a.reads.contains(cte), "CTE {cte} leaked into reads");
            }
        }
    }
}

/// The gate: the corpus must exercise at least [`COVERAGE_THRESHOLD`] of
/// the parser's grammar productions. Prints the measured coverage and
/// every production never taken, so additions to the grammar that the
/// corpus misses fail loudly here.
#[test]
fn production_coverage_gate() {
    run_corpus(false);
    // The depth-limit production needs adversarial nesting the literal
    // corpus strings keep out of the table above.
    let deep = format!(
        "SELECT * FROM t WHERE {}a = 1{}",
        "(".repeat(MAX_PARSE_DEPTH + 8),
        ")".repeat(MAX_PARSE_DEPTH + 8)
    );
    parse_query(&deep, Dialect::Generic);
    let mut nested = String::from("SELECT 1");
    for _ in 0..MAX_PARSE_DEPTH + 8 {
        nested = format!("SELECT * FROM ({nested}) x");
    }
    parse_query(&nested, Dialect::Generic);

    let (frac, missed) = coverage::coverage();
    println!(
        "parser production coverage: {:.1}% ({} of {} productions), threshold {:.0}%",
        frac * 100.0,
        coverage::COUNT - missed.len(),
        coverage::COUNT,
        COVERAGE_THRESHOLD * 100.0
    );
    if !missed.is_empty() {
        println!("productions never exercised: {missed:?}");
    }
    assert!(
        frac >= COVERAGE_THRESHOLD,
        "corpus exercises only {:.1}% of parser productions (< {:.0}%); missing: {missed:?}",
        frac * 100.0,
        COVERAGE_THRESHOLD * 100.0
    );
}
