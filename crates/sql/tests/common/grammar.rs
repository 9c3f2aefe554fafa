//! Grammar-directed SQL generator and fragment pools, shared by the
//! parser fuzz plane (`fuzz.rs`) and the front-end golden digest
//! (`frontend_golden.rs`).

pub const TABLES: [&str; 6] = ["t0", "t1", "t2", "t3", "t4", "t5"];
pub const COLS: [&str; 6] = ["a", "b", "k", "v", "ts", "region"];
/// Token soup pool: SQL fragments in hostile orders.
pub const SOUP: [&str; 24] = [
    "SELECT", "FROM", "WHERE", "JOIN", "ON", "GROUP", "BY", "UNION", "ALL", "WITH", "AS", "(", ")",
    ",", "=", "<", "'x'", "42", "t0", "a", "*", "QUALIFY", "EXCEPT", "TOP",
];

/// Deterministic decision stream: yields the next byte, 0 once exhausted.
struct Decisions<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decisions<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Decisions { bytes, pos: 0 }
    }
    fn next(&mut self) -> usize {
        let v = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        v as usize
    }
    fn table(&mut self) -> &'static str {
        TABLES[self.next() % TABLES.len()]
    }
    fn col(&mut self) -> &'static str {
        COLS[self.next() % COLS.len()]
    }
}

fn gen_predicate(g: &mut Decisions, depth: usize) -> String {
    match g.next() % 7 {
        0 => format!("{} = {}", g.col(), g.next()),
        1 => format!("{} > {}", g.col(), g.next() % 100),
        2 => format!("{} = 'v{}'", g.col(), g.next() % 10),
        3 => format!(
            "{} BETWEEN {} AND {}",
            g.col(),
            g.next() % 50,
            50 + g.next() % 50
        ),
        4 => format!("{} IN ({}, {})", g.col(), g.next() % 9, g.next() % 9),
        5 if depth < 4 => format!("EXISTS ({})", gen_select(g, depth + 1)),
        _ => format!("{} IS NOT NULL", g.col()),
    }
}

fn gen_from_item(g: &mut Decisions, depth: usize, cte: Option<&str>) -> String {
    match g.next() % 5 {
        0 | 1 => g.table().to_string(),
        2 => format!("{} x{}", g.table(), g.next() % 4),
        3 if depth < 4 => format!("({}) d{}", gen_select(g, depth + 1), g.next() % 4),
        _ => cte.unwrap_or_else(|| g.table()).to_string(),
    }
}

fn gen_select(g: &mut Decisions, depth: usize) -> String {
    gen_select_with(g, depth, None)
}

fn gen_select_with(g: &mut Decisions, depth: usize, cte: Option<&str>) -> String {
    let mut s = String::from("SELECT ");
    if g.next().is_multiple_of(4) {
        s.push_str("DISTINCT ");
    }
    for i in 0..1 + g.next() % 3 {
        if i > 0 {
            s.push_str(", ");
        }
        match g.next() % 4 {
            0 => s.push_str(&format!("sum({})", g.col())),
            1 => s.push_str("count(*)"),
            _ => s.push_str(g.col()),
        }
    }
    s.push_str(" FROM ");
    s.push_str(&gen_from_item(g, depth, cte));
    if g.next().is_multiple_of(3) {
        let join = ["JOIN", "LEFT JOIN", "CROSS JOIN"][g.next() % 3];
        s.push_str(&format!(" {join} {}", gen_from_item(g, depth, cte)));
        if !join.starts_with("CROSS") {
            s.push_str(&format!(" ON {} = {}", g.col(), g.col()));
        }
    }
    if g.next().is_multiple_of(2) {
        s.push_str(" WHERE ");
        s.push_str(&gen_predicate(g, depth));
        if g.next().is_multiple_of(3) {
            let conj = if g.next().is_multiple_of(2) {
                "AND"
            } else {
                "OR"
            };
            s.push_str(&format!(" {conj} {}", gen_predicate(g, depth)));
        }
    }
    if g.next().is_multiple_of(4) {
        s.push_str(&format!(" GROUP BY {}", g.col()));
        if g.next().is_multiple_of(2) {
            s.push_str(&format!(" HAVING count(*) > {}", g.next() % 10));
        }
    }
    if depth == 0 && g.next().is_multiple_of(5) {
        s.push_str(&format!(
            " QUALIFY row_number() OVER (PARTITION BY {} ORDER BY {}) = 1",
            g.col(),
            g.col()
        ));
    }
    if depth == 0 && g.next().is_multiple_of(3) {
        s.push_str(&format!(
            " ORDER BY {} LIMIT {}",
            g.col(),
            1 + g.next() % 100
        ));
    }
    s
}

/// Top-level statement: optional CTE prelude, select core, set-op tail.
pub fn build_query(bytes: &[u8]) -> String {
    let g = &mut Decisions::new(bytes);
    let mut s = String::new();
    let cte = if g.next().is_multiple_of(3) {
        s.push_str(&format!("WITH c0 AS ({}) ", gen_select(g, 1)));
        Some("c0")
    } else {
        None
    };
    s.push_str(&gen_select_with(g, 0, cte));
    let mut ops = 0;
    while ops < 3 && g.next().is_multiple_of(4) {
        let op = ["UNION", "UNION ALL", "INTERSECT", "EXCEPT"][g.next() % 4];
        s.push_str(&format!(" {op} {}", gen_select(g, 1)));
        ops += 1;
    }
    s
}
