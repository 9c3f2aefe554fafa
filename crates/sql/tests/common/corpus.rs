//! The conformance corpus: SQL cases with the shape and lineage the
//! parser must extract, shared by the conformance gate
//! (`conformance.rs`) and the front-end golden digest
//! (`frontend_golden.rs`).

use querc_sql::ast::StatementKind as K;
use querc_sql::Dialect;

/// One corpus case and the shape and lineage it must parse to.
pub struct Case {
    pub sql: &'static str,
    /// Dialects the case runs under; empty means all six.
    pub dialects: &'static [Dialect],
    pub kind: K,
    pub reads: &'static [&'static str],
    pub writes: &'static [&'static str],
    pub views: &'static [&'static str],
    pub ctes: &'static [&'static str],
    pub set_ops: usize,
}

/// Plain read-only select: expected lineage is just `reads`.
pub const fn c(sql: &'static str, kind: K, reads: &'static [&'static str]) -> Case {
    Case {
        sql,
        dialects: &[],
        kind,
        reads,
        writes: &[],
        views: &[],
        ctes: &[],
        set_ops: 0,
    }
}

const SNOW: &[Dialect] = &[Dialect::Snowflake];
const BQ: &[Dialect] = &[Dialect::BigQuery];
const MY: &[Dialect] = &[Dialect::MySql];
const TS: &[Dialect] = &[Dialect::TSql];
const PG: &[Dialect] = &[Dialect::Postgres];
const GEN: &[Dialect] = &[Dialect::Generic];

#[rustfmt::skip]
pub fn cases() -> Vec<Case> {
    vec![
        // ----- basic selects ------------------------------------------------
        c("SELECT 1", K::Select, &[]),
        c("SELECT a FROM t", K::Select, &["t"]),
        c("SELECT a, b, c FROM t", K::Select, &["t"]),
        c("SELECT * FROM sch.t", K::Select, &["t"]),
        c("SELECT t.a FROM t WHERE t.b = 1", K::Select, &["t"]),
        c("SELECT DISTINCT region FROM customers", K::Select, &["customers"]),
        c("SELECT a AS x, b AS y FROM t", K::Select, &["t"]),
        c("SELECT * FROM t1, t2, t3", K::Select, &["t1", "t2", "t3"]),
        c("SELECT count(*) FROM logs", K::Select, &["logs"]),
        c("SELECT a FROM t;", K::Select, &["t"]),
        c("SELECT", K::Select, &[]),
        c("SELECT upper(name), length(name) FROM users", K::Select, &["users"]),
        c("SELECT 'lit', 42, a FROM t", K::Select, &["t"]),
        c("SELECT /* hint */ a FROM t -- trailing", K::Select, &["t"]),
        c("SELECT (SELECT max(v) FROM metrics) AS peak, a FROM t", K::Select, &["metrics", "t"]),
        // ----- joins --------------------------------------------------------
        c("SELECT * FROM a JOIN b ON a.k = b.k", K::Select, &["a", "b"]),
        c("SELECT * FROM a INNER JOIN b ON a.k = b.k", K::Select, &["a", "b"]),
        c("SELECT * FROM a LEFT JOIN b ON a.k = b.k", K::Select, &["a", "b"]),
        c("SELECT * FROM a LEFT OUTER JOIN b ON a.k = b.k", K::Select, &["a", "b"]),
        c("SELECT * FROM a RIGHT JOIN b ON a.k = b.k", K::Select, &["a", "b"]),
        c("SELECT * FROM a FULL OUTER JOIN b ON a.k = b.k", K::Select, &["a", "b"]),
        c("SELECT * FROM a CROSS JOIN b", K::Select, &["a", "b"]),
        c("SELECT * FROM a NATURAL JOIN b", K::Select, &["a", "b"]),
        c("SELECT * FROM a JOIN b USING (k)", K::Select, &["a", "b"]),
        c("SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.j = c.j", K::Select, &["a", "b", "c"]),
        c("SELECT * FROM customer c, orders o WHERE c.id = o.cid", K::Select, &["customer", "orders"]),
        c("SELECT * FROM (a JOIN b ON a.k = b.k) g", K::Select, &["a", "b"]),
        c("SELECT * FROM (a JOIN b ON a.k = b.k) g JOIN c ON a.j = c.j", K::Select, &["a", "b", "c"]),
        c("SELECT * FROM ((a JOIN b ON a.k = b.k) JOIN c ON b.j = c.j) g", K::Select, &["a", "b", "c"]),
        c("SELECT * FROM a JOIN b ON a.k = b.k AND a.region = 'EU'", K::Select, &["a", "b"]),
        c("SELECT * FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey, nation n", K::Select, &["lineitem", "nation", "orders"]),
        // ----- predicates ---------------------------------------------------
        c("SELECT * FROM t WHERE a = 1", K::Select, &["t"]),
        c("SELECT * FROM t WHERE a = 'x'", K::Select, &["t"]),
        c("SELECT * FROM t WHERE a > 1.5 AND b <= 2", K::Select, &["t"]),
        c("SELECT * FROM t WHERE a <> 3 OR b != 4", K::Select, &["t"]),
        c("SELECT * FROM t WHERE a BETWEEN 5 AND 10", K::Select, &["t"]),
        c("SELECT * FROM t WHERE d BETWEEN '1995-01-01' AND '1995-03-31'", K::Select, &["t"]),
        c("SELECT * FROM t WHERE a IN (1, 2, 3)", K::Select, &["t"]),
        c("SELECT * FROM t WHERE a NOT IN (4, 5)", K::Select, &["t"]),
        c("SELECT * FROM t WHERE k IN (SELECT k FROM u)", K::Select, &["t", "u"]),
        c("SELECT * FROM t WHERE name LIKE '%ann%'", K::Select, &["t"]),
        c("SELECT * FROM t WHERE name NOT LIKE 'x%' ESCAPE '!'", K::Select, &["t"]),
        c("SELECT * FROM t WHERE deleted_at IS NULL", K::Select, &["t"]),
        c("SELECT * FROM t WHERE deleted_at IS NOT NULL", K::Select, &["t"]),
        c("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3", K::Select, &["t"]),
        c("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)", K::Select, &["t"]),
        c("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)", K::Select, &["t", "u"]),
        c("SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.k)", K::Select, &["t", "u"]),
        c("SELECT * FROM items WHERE price > (SELECT avg(price) FROM items)", K::Select, &["items"]),
        c("SELECT * FROM t WHERE 100 < total", K::Select, &["t"]),
        c("SELECT * FROM t WHERE delta > -5", K::Select, &["t"]),
        c("SELECT * FROM t WHERE active = true AND hidden = false", K::Select, &["t"]),
        c("SELECT * FROM t WHERE flag = NULL", K::Select, &["t"]),
        c("SELECT * FROM t WHERE discount BETWEEN 0.05 - 0.01 AND 0.07", K::Select, &["t"]),
        c("SELECT * FROM t WHERE o_orderdate >= date '1995-01-01'", K::Select, &["t"]),
        c("SELECT * FROM t WHERE d < date '1995-01-01' + interval '3' month", K::Select, &["t"]),
        c("SELECT * FROM t WHERE d >= timestamp '1995-01-01 00:00:00'", K::Select, &["t"]),
        c("SELECT * FROM t WHERE span > interval '7' day", K::Select, &["t"]),
        c("SELECT * FROM t WHERE lower(name) = 'x'", K::Select, &["t"]),
        c("SELECT * FROM t WHERE x = (1 + 2)", K::Select, &["t"]),
        c("SELECT * FROM t WHERE CASE WHEN a > 0 THEN 1 ELSE 0 END = 1", K::Select, &["t"]),
        c("SELECT * FROM t WHERE cast(a AS int) > 5 AND b = 1", K::Select, &["t"]),
        c("SELECT * FROM t WHERE extract(year FROM d) = 1995 AND b = 1", K::Select, &["t"]),
        c("SELECT * FROM t WHERE >= 3 AND x = 1", K::Select, &["t"]),
        c("SELECT * FROM t WHERE x = (SELECT max(y) FROM u)", K::Select, &["t", "u"]),
        // ----- parameters (dialect-gated markers) ---------------------------
        Case { dialects: GEN, ..c("SELECT * FROM t WHERE id = ?", K::Select, &["t"]) },
        Case { dialects: PG, ..c("SELECT * FROM t WHERE id = $1", K::Select, &["t"]) },
        Case { dialects: TS, ..c("SELECT * FROM t WHERE id = @p", K::Select, &["t"]) },
        Case { dialects: BQ, ..c("SELECT * FROM t WHERE ts > @start", K::Select, &["t"]) },
        // ----- aggregation --------------------------------------------------
        c("SELECT region, sum(total) FROM orders GROUP BY region", K::Select, &["orders"]),
        c("SELECT region, count(*) FROM orders GROUP BY region HAVING count(*) > 10", K::Select, &["orders"]),
        c("SELECT a, b, sum(c) FROM t GROUP BY a, b", K::Select, &["t"]),
        c("SELECT a, b, sum(c) FROM t GROUP BY ROLLUP (a, b)", K::Select, &["t"]),
        c("SELECT a, sum(c) FROM t GROUP BY CUBE (a)", K::Select, &["t"]),
        c("SELECT avg(x), min(x), max(x), stddev(x) FROM samples", K::Select, &["samples"]),
        c("SELECT count(DISTINCT user_id) FROM events", K::Select, &["events"]),
        c("SELECT g, sum(v) FROM t GROUP BY g HAVING sum(v) >= 100 AND count(*) < 5", K::Select, &["t"]),
        c("SELECT g, avg(v) FROM t GROUP BY g HAVING avg(v) > (SELECT avg(v) FROM t)", K::Select, &["t"]),
        c("SELECT g FROM t GROUP BY g HAVING min(v) IS NOT NULL", K::Select, &["t"]),
        c("SELECT variance(v) FROM t GROUP BY k HAVING variance(v) < 2", K::Select, &["t"]),
        c("SELECT o_orderpriority, count(*) FROM orders WHERE o_orderdate >= date '1993-07-01' GROUP BY o_orderpriority ORDER BY o_orderpriority", K::Select, &["orders"]),
        // ----- ordering and limits ------------------------------------------
        c("SELECT a FROM t ORDER BY a", K::Select, &["t"]),
        c("SELECT a FROM t ORDER BY a DESC, b ASC", K::Select, &["t"]),
        c("SELECT a FROM t ORDER BY a NULLS LAST", K::Select, &["t"]),
        c("SELECT a FROM t ORDER BY 1", K::Select, &["t"]),
        c("SELECT a FROM t LIMIT 10", K::Select, &["t"]),
        c("SELECT a FROM t LIMIT 10 OFFSET 5", K::Select, &["t"]),
        c("SELECT a FROM t ORDER BY a OFFSET 5 ROWS", K::Select, &["t"]),
        c("SELECT a FROM t ORDER BY a FETCH FIRST 5 ROWS ONLY", K::Select, &["t"]),
        // ----- CTEs ---------------------------------------------------------
        Case { ctes: &["c"], ..c("WITH c AS (SELECT * FROM base) SELECT * FROM c", K::Select, &["base"]) },
        Case { ctes: &["c"], ..c("WITH c AS (SELECT * FROM base) SELECT * FROM c WHERE c.v > 1", K::Select, &["base"]) },
        Case { ctes: &["c1", "c2"], ..c("WITH c1 AS (SELECT * FROM b1), c2 AS (SELECT * FROM b2) SELECT * FROM c1 JOIN c2 ON c1.k = c2.k", K::Select, &["b1", "b2"]) },
        Case { ctes: &["c1", "c2", "c3"], ..c("WITH c1 AS (SELECT * FROM b1), c2 AS (SELECT * FROM c1), c3 AS (SELECT * FROM c2) SELECT * FROM c3", K::Select, &["b1"]) },
        Case { ctes: &["r"], ..c("WITH RECURSIVE r AS (SELECT 1 AS n UNION ALL SELECT n + 1 FROM r WHERE n < 10) SELECT * FROM r", K::Select, &[]) },
        Case { ctes: &["c"], ..c("WITH c (a, b) AS (SELECT x, y FROM t) SELECT * FROM c", K::Select, &["t"]) },
        Case { ctes: &["inner_c", "outer_c"], ..c("WITH outer_c AS (WITH inner_c AS (SELECT * FROM t) SELECT * FROM inner_c) SELECT * FROM outer_c", K::Select, &["t"]) },
        Case { ctes: &["c"], ..c("WITH c AS (SELECT * FROM t) SELECT * FROM c c1 JOIN c c2 ON c1.k = c2.k", K::Select, &["t"]) },
        Case { ctes: &["revenue"], ..c("WITH revenue AS (SELECT l_suppkey, sum(l_extendedprice) AS total FROM lineitem GROUP BY l_suppkey) SELECT * FROM supplier, revenue WHERE s_suppkey = l_suppkey", K::Select, &["lineitem", "supplier"]) },
        Case { ctes: &["c"], ..c("WITH c AS (SELECT k FROM t1 UNION SELECT k FROM t2) SELECT * FROM c", K::Select, &["t1", "t2"]) },
        // ----- set operations -----------------------------------------------
        Case { set_ops: 1, ..c("SELECT a FROM t UNION SELECT a FROM u", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("SELECT a FROM t UNION ALL SELECT a FROM u", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("SELECT a FROM t UNION DISTINCT SELECT a FROM u", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("SELECT a FROM t INTERSECT SELECT a FROM u", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("SELECT a FROM t EXCEPT SELECT a FROM u", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("SELECT 1 UNION SELECT 2", K::Select, &[]) },
        Case { set_ops: 1, ..c("SELECT a FROM t EXCEPT (SELECT a FROM u)", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("(SELECT a FROM t) UNION SELECT a FROM u", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("(SELECT a FROM t) UNION ALL (SELECT a FROM u)", K::Select, &["t", "u"]) },
        Case { set_ops: 1, ..c("SELECT a FROM t WHERE a > 0 UNION SELECT a FROM u WHERE a < 0 ORDER BY a", K::Select, &["t", "u"]) },
        // multi-operand chains and nesting
        Case { set_ops: 2, ..c("SELECT a FROM t1 UNION SELECT a FROM t2 UNION SELECT a FROM t3", K::Select, &["t1", "t2", "t3"]) },
        Case { set_ops: 2, ..c("SELECT a FROM t1 UNION ALL SELECT a FROM t2 EXCEPT SELECT a FROM t3", K::Select, &["t1", "t2", "t3"]) },
        Case { set_ops: 2, ..c("SELECT a FROM t1 UNION (SELECT a FROM t2 INTERSECT SELECT a FROM t3)", K::Select, &["t1", "t2", "t3"]) },
        Case { set_ops: 2, ..c("((SELECT a FROM t1) UNION ALL (SELECT a FROM t2)) EXCEPT SELECT a FROM t3", K::Select, &["t1", "t2", "t3"]) },
        // ----- derived tables and subqueries --------------------------------
        c("SELECT * FROM (SELECT a FROM t) x", K::Select, &["t"]),
        c("SELECT * FROM (SELECT a FROM t) AS x", K::Select, &["t"]),
        c("SELECT * FROM (SELECT a, b FROM t) x (c1, c2)", K::Select, &["t"]),
        c("SELECT * FROM (SELECT a FROM t) x JOIN (SELECT b FROM u) y ON x.a = y.b", K::Select, &["t", "u"]),
        c("SELECT * FROM (SELECT * FROM (SELECT a FROM deep) m) o", K::Select, &["deep"]),
        Case { ctes: &["c"], ..c("SELECT * FROM (WITH c AS (SELECT * FROM t) SELECT * FROM c) x", K::Select, &["t"]) },
        c("SELECT * FROM t JOIN (SELECT k, count(*) AS n FROM u GROUP BY k) agg ON t.k = agg.k", K::Select, &["t", "u"]),
        c("SELECT * FROM (SELECT a FROM t WHERE a > 0) x WHERE x.a < 10", K::Select, &["t"]),
        c("SELECT * FROM (VALUES (1, 2), (3, 4)) v", K::Select, &[]),
        c("SELECT avg(sub.total) FROM (SELECT o_custkey, sum(o_totalprice) AS total FROM orders GROUP BY o_custkey) sub", K::Select, &["orders"]),
        // ----- DML / DDL ----------------------------------------------------
        Case { writes: &["t"], ..c("INSERT INTO t VALUES (1, 'x')", K::Insert, &[]) },
        Case { writes: &["t"], ..c("INSERT INTO t (a, b) VALUES (1, 2)", K::Insert, &[]) },
        Case { writes: &["sink"], ..c("INSERT INTO sink SELECT * FROM src", K::Insert, &["src"]) },
        Case { writes: &["sink"], ..c("INSERT INTO sink SELECT * FROM s1 JOIN s2 ON s1.k = s2.k", K::Insert, &["s1", "s2"]) },
        Case { writes: &["accounts"], ..c("UPDATE accounts SET balance = 0 WHERE id = 7", K::Update, &[]) },
        Case { writes: &["t"], ..c("UPDATE t SET x = 1 WHERE k IN (SELECT k FROM u)", K::Update, &["u"]) },
        Case { writes: &["t"], ..c("DELETE FROM t WHERE created < date '2020-01-01'", K::Delete, &[]) },
        Case { writes: &["t"], ..c("DELETE FROM t WHERE k IN (SELECT k FROM dead)", K::Delete, &["dead"]) },
        Case { writes: &["t"], ..c("CREATE TABLE t (a int, b varchar)", K::CreateTable, &[]) },
        Case { writes: &["copy1"], ..c("CREATE TABLE copy1 AS SELECT * FROM base", K::CreateTable, &["base"]) },
        Case { writes: &["copy2"], ctes: &["c"], ..c("CREATE TABLE copy2 AS WITH c AS (SELECT * FROM base) SELECT * FROM c", K::CreateTable, &["base"]) },
        Case { views: &["v"], ..c("CREATE VIEW v AS SELECT * FROM base WHERE x > 0", K::CreateView, &["base"]) },
        Case { views: &["v2"], ..c("CREATE OR REPLACE VIEW v2 AS SELECT a, b FROM base", K::CreateView, &["base"]) },
        Case { views: &["rollup_v"], ..c("CREATE VIEW rollup_v AS SELECT region, sum(total) FROM orders GROUP BY region", K::CreateView, &["orders"]) },
        Case { writes: &["old_t"], ..c("DROP TABLE old_t", K::Drop, &[]) },
        Case { writes: &["old_v"], ..c("DROP VIEW old_v", K::Drop, &[]) },
        Case { writes: &["lineitem"], ..c("COPY lineitem FROM 's3://bucket/file.csv'", K::Copy, &[]) },
        c("SHOW TABLES", K::Show, &[]),
        c("SET warehouse = 'XL'", K::Set, &[]),
        c("USE db1", K::Set, &[]),
        c("CREATE INDEX idx ON t (col)", K::Other, &["idx"]),
        c("EXPLAIN SELECT 1", K::Other, &[]),
        c("BEGIN", K::Other, &[]),
        c("MERGE INTO tgt USING src ON tgt.k = src.k", K::Other, &[]),
        // ----- dialect-specific forms ---------------------------------------
        Case { dialects: TS, ..c("SELECT TOP 10 * FROM orders ORDER BY total DESC", K::Select, &["orders"]) },
        Case { dialects: TS, ..c("SELECT TOP 5 name FROM [dbo].[orders]", K::Select, &["orders"]) },
        Case { dialects: SNOW, ..c("SELECT name FROM users WHERE name ILIKE '%ann%'", K::Select, &["users"]) },
        Case { dialects: SNOW, ..c("SELECT * FROM t QUALIFY row_number() OVER (PARTITION BY k ORDER BY ts DESC) = 1", K::Select, &["t"]) },
        Case { dialects: SNOW, ..c("SELECT k, v, rank() OVER (ORDER BY v) rnk FROM t QUALIFY rnk <= 3", K::Select, &["t"]) },
        Case { dialects: SNOW, ..c("SELECT * FROM \"Schema\".\"Orders\"", K::Select, &["orders"]) },
        Case { dialects: BQ, ..c("SELECT * EXCEPT(secret) FROM events", K::Select, &["events"]) },
        Case { dialects: BQ, ..c("SELECT * EXCEPT(a, b) FROM ds.events WHERE x = 1", K::Select, &["events"]) },
        Case { dialects: BQ, ..c("SELECT * FROM `proj.ds.events` WHERE x = 1", K::Select, &["proj.ds.events"]) },
        Case { dialects: MY, ..c("SELECT * FROM a STRAIGHT_JOIN b ON a.k = b.k", K::Select, &["a", "b"]) },
        Case { dialects: MY, ..c("SELECT * FROM `db`.`orders` # comment", K::Select, &["orders"]) },
        Case { dialects: PG, ..c("SELECT * FROM t WHERE a::int > 5 AND b = 2", K::Select, &["t"]) },
        // ----- adversarial / recovery ---------------------------------------
        c("?????", K::Other, &[]),
        c("; ; ;", K::Other, &[]),
        c("SELECT * FROM t WHERE ((((a = 1))))", K::Select, &["t"]),
        c("SELECT a FROM t WHERE (a = 1", K::Select, &["t"]),
        c("SELECT a FROM t WHERE a = 1)))", K::Select, &["t"]),
        c("SELECT * FROM t WHERE garbage !!! more garbage", K::Select, &["t"]),
    ]
}

pub fn dialects_for(case: &Case) -> &'static [Dialect] {
    if case.dialects.is_empty() {
        const ALL: [Dialect; 6] = [
            Dialect::Generic,
            Dialect::TSql,
            Dialect::Snowflake,
            Dialect::Postgres,
            Dialect::MySql,
            Dialect::BigQuery,
        ];
        &ALL
    } else {
        case.dialects
    }
}
