//! SQL dialect descriptions.
//!
//! The paper's setting is a multi-tenant cloud where each application may
//! speak a different SQL dialect (T-SQL for the SQL Server experiments,
//! Snowflake SQL for the workload experiments). The lexer only needs a few
//! dialect facts: identifier quoting styles, comment styles and parameter
//! markers. Keyword recognition is shared, with a small per-dialect extra
//! set.

/// A SQL dialect the lexer can be configured for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dialect {
    /// Accepts the union of all quoting/comment styles — the right choice
    /// when the source system is unknown, and the default for embedders.
    #[default]
    Generic,
    /// Microsoft SQL Server (T-SQL): `[bracket]` identifiers, `@params`.
    TSql,
    /// Snowflake SQL: double-quoted identifiers, `$$` strings tolerated.
    Snowflake,
    /// PostgreSQL: double-quoted identifiers, `$1` params, `::` casts.
    Postgres,
    /// MySQL: backtick identifiers, `#` comments.
    MySql,
    /// BigQuery standard SQL: backtick identifiers.
    BigQuery,
}

impl Dialect {
    /// Does `[ident]` denote a quoted identifier?
    pub fn bracket_idents(&self) -> bool {
        matches!(self, Dialect::TSql | Dialect::Generic)
    }

    /// Does `` `ident` `` denote a quoted identifier?
    pub fn backtick_idents(&self) -> bool {
        matches!(self, Dialect::MySql | Dialect::BigQuery | Dialect::Generic)
    }

    /// Is `#` a line-comment starter?
    pub fn hash_comments(&self) -> bool {
        matches!(self, Dialect::MySql | Dialect::Generic)
    }

    /// Is `@name` a bind-parameter / variable marker?
    pub fn at_params(&self) -> bool {
        matches!(self, Dialect::TSql | Dialect::BigQuery | Dialect::Generic)
    }

    /// Is `$1` / `$name` a bind-parameter marker?
    pub fn dollar_params(&self) -> bool {
        matches!(
            self,
            Dialect::Postgres | Dialect::Snowflake | Dialect::Generic
        )
    }

    /// All dialect values, for exhaustive tests.
    pub fn all() -> [Dialect; 6] {
        [
            Dialect::Generic,
            Dialect::TSql,
            Dialect::Snowflake,
            Dialect::Postgres,
            Dialect::MySql,
            Dialect::BigQuery,
        ]
    }

    /// Human-readable name (used in workload logs).
    pub fn name(&self) -> &'static str {
        match self {
            Dialect::Generic => "generic",
            Dialect::TSql => "tsql",
            Dialect::Snowflake => "snowflake",
            Dialect::Postgres => "postgres",
            Dialect::MySql => "mysql",
            Dialect::BigQuery => "bigquery",
        }
    }

    /// Inverse of [`Dialect::name`]: resolve a workload log's dialect
    /// string. Unknown names fall back to `Generic`, matching the
    /// lexer's accept-everything posture.
    pub fn from_name(name: &str) -> Dialect {
        match name.to_ascii_lowercase().as_str() {
            "tsql" => Dialect::TSql,
            "snowflake" => Dialect::Snowflake,
            "postgres" => Dialect::Postgres,
            "mysql" => Dialect::MySql,
            "bigquery" => Dialect::BigQuery,
            _ => Dialect::Generic,
        }
    }
}

/// Shared SQL keyword list (uppercase). Deliberately broad: a workload
/// manager sees DDL, DML, session commands and vendor extensions.
pub const KEYWORDS: &[&str] = &[
    "ALL",
    "ALTER",
    "AND",
    "ANY",
    "AS",
    "ASC",
    "BEGIN",
    "BETWEEN",
    "BY",
    "CASE",
    "CAST",
    "CHECK",
    "COLUMN",
    "COMMIT",
    "COPY",
    "CREATE",
    "CROSS",
    "CUBE",
    "CURRENT",
    "DATABASE",
    "DEFAULT",
    "DELETE",
    "DESC",
    "DISTINCT",
    "DROP",
    "ELSE",
    "END",
    "ESCAPE",
    "EXCEPT",
    "EXISTS",
    "EXTRACT",
    "FALSE",
    "FETCH",
    "FILTER",
    "FIRST",
    "FOLLOWING",
    "FOR",
    "FOREIGN",
    "FROM",
    "FULL",
    "GRANT",
    "GROUP",
    "GROUPING",
    "HAVING",
    "ILIKE",
    "IN",
    "INDEX",
    "INNER",
    "INSERT",
    "INTERSECT",
    "INTERVAL",
    "INTO",
    "IS",
    "JOIN",
    "KEY",
    "LAST",
    "LATERAL",
    "LEFT",
    "LIKE",
    "LIMIT",
    "MERGE",
    "NATURAL",
    "NOT",
    "NULL",
    "NULLS",
    "OFFSET",
    "ON",
    "OR",
    "ORDER",
    "OUTER",
    "OVER",
    "PARTITION",
    "PRECEDING",
    "PRIMARY",
    "QUALIFY",
    "RANGE",
    "RECURSIVE",
    "REFERENCES",
    "REVOKE",
    "RIGHT",
    "ROLLBACK",
    "ROLLUP",
    "ROW",
    "ROWS",
    "SAMPLE",
    "SELECT",
    "SET",
    "SHOW",
    "SOME",
    "STRAIGHT_JOIN",
    "TABLE",
    "TABLESAMPLE",
    "THEN",
    "TOP",
    "TRUE",
    "TRUNCATE",
    "UNION",
    "UNIQUE",
    "UNNEST",
    "UPDATE",
    "USE",
    "USING",
    "VALUES",
    "VIEW",
    "WHEN",
    "WHERE",
    "WINDOW",
    "WITH",
];

/// Length of the longest entry in [`KEYWORDS`].
const MAX_KEYWORD_LEN: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < KEYWORDS.len() {
        if KEYWORDS[i].len() > max {
            max = KEYWORDS[i].len();
        }
        i += 1;
    }
    max
};

/// Slots of the keyword hash table: a power of two over 4× the keyword
/// count, so linear probes stay short.
const SLOTS: usize = 512;

/// FNV-1a over the ASCII-uppercased bytes of `word`, as a slot index.
const fn keyword_slot(word: &[u8]) -> usize {
    let mut h: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < word.len() {
        h ^= word[i].to_ascii_uppercase() as u32;
        h = h.wrapping_mul(0x0100_0193);
        i += 1;
    }
    h as usize & (SLOTS - 1)
}

/// Open-addressed table of [`KEYWORDS`] indices plus one (0 = empty),
/// built at compile time.
static KEYWORD_TABLE: [u8; SLOTS] = {
    assert!(KEYWORDS.len() < u8::MAX as usize && KEYWORDS.len() * 4 <= SLOTS);
    let mut table = [0u8; SLOTS];
    let mut k = 0;
    while k < KEYWORDS.len() {
        let mut slot = keyword_slot(KEYWORDS[k].as_bytes());
        while table[slot] != 0 {
            slot = (slot + 1) & (SLOTS - 1);
        }
        table[slot] = k as u8 + 1;
        k += 1;
    }
    table
};

/// Is `word` a keyword (any dialect)? Case-insensitive. One hash of the
/// case-folded bytes and a short probe of a compile-time table; nothing
/// is allocated or copied, so the lexer's hot path stays free of both.
pub fn is_keyword(word: impl AsRef<[u8]>) -> bool {
    let word = word.as_ref();
    if word.len() > MAX_KEYWORD_LEN {
        return false;
    }
    let mut slot = keyword_slot(word);
    loop {
        match KEYWORD_TABLE[slot] {
            0 => return false,
            k if KEYWORDS[k as usize - 1]
                .as_bytes()
                .eq_ignore_ascii_case(word) =>
            {
                return true
            }
            _ => slot = (slot + 1) & (SLOTS - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_list_is_sorted_for_binary_search() {
        let mut sorted = KEYWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KEYWORDS, "KEYWORDS must stay sorted");
    }

    #[test]
    fn every_keyword_is_found_in_any_case() {
        for k in KEYWORDS {
            assert!(is_keyword(k) && is_keyword(k.to_ascii_lowercase()), "{k}");
            assert!(
                !is_keyword(format!("{k}X")) && !is_keyword(format!("Q{k}")),
                "{k}"
            );
        }
    }

    #[test]
    fn keyword_lookup_case_insensitive() {
        assert!(is_keyword("select"));
        assert!(is_keyword("SELECT"));
        assert!(is_keyword("Select"));
        assert!(!is_keyword("lineitem"));
        assert!(!is_keyword(""));
        assert!(is_keyword("straight_join") && is_keyword("TABLESAMPLE"));
        assert!(!is_keyword("straight_joins") && !is_keyword("sélect"));
        assert!(is_keyword(b"wHeRe"));
    }

    #[test]
    fn dialect_quoting_rules() {
        assert!(Dialect::TSql.bracket_idents());
        assert!(!Dialect::Postgres.bracket_idents());
        assert!(Dialect::MySql.backtick_idents());
        assert!(!Dialect::Snowflake.backtick_idents());
        // Generic accepts everything.
        let g = Dialect::Generic;
        assert!(g.bracket_idents() && g.backtick_idents() && g.hash_comments());
    }

    #[test]
    fn name_roundtrips_through_from_name() {
        for d in Dialect::all() {
            assert_eq!(Dialect::from_name(d.name()), d);
        }
        assert_eq!(Dialect::from_name("SNOWFLAKE"), Dialect::Snowflake);
        assert_eq!(Dialect::from_name("???"), Dialect::Generic);
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = Dialect::all().iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), Dialect::all().len());
    }
}
