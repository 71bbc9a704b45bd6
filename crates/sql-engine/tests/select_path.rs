//! The SELECT path's row handling: joined rows borrowed part by part and
//! filtered in place, and DISTINCT / set operations keyed by each value's
//! dedup identity.
//!
//! A joined row is one borrowed part per FROM item, and WHERE keeps the
//! survivors of the whole FROM. That must give the rows and the error text
//! of filtering one concatenated copy of each joined row: a join-condition
//! error anywhere in FROM wins over a WHERE error, NULL-padded outer-join
//! parts read as NULL wherever they sit, and a correlated subquery reads
//! every part. The tables of pinned outcomes below were recorded from the
//! engine that concatenated its joined rows.

use sql_ast::Value;
use sql_engine::{Database, EngineConfig, ExecutionMode};
use sql_parser::parse_statements;

fn run_script(db: &mut Database, script: &str) {
    for stmt in parse_statements(script).unwrap() {
        db.execute(&stmt).unwrap();
    }
}

fn sample_db() -> Database {
    let mut db = Database::new(EngineConfig::dynamic());
    run_script(
        &mut db,
        "
        CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT, c2 BOOLEAN);
        CREATE TABLE t1 (c0 INTEGER, c3 INTEGER);
        INSERT INTO t0 (c0, c1, c2) VALUES (1, 'alpha', TRUE), (2, 'beta', FALSE), (3, NULL, TRUE);
        INSERT INTO t1 (c0, c3) VALUES (1, 10), (1, 20), (3, 30), (NULL, 40);
        ",
    );
    db
}

/// The rows of `sql` on both execution paths, which must agree.
fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let select = match parse_statements(sql).unwrap().remove(0) {
        sql_ast::Statement::Select(select) => select,
        other => panic!("not a query: {other}"),
    };
    let optimized = db.query(&select, ExecutionMode::Optimized).unwrap().rows;
    let reference = db.query(&select, ExecutionMode::Reference).unwrap().rows;
    assert_eq!(optimized, reference, "paths disagree on {sql}");
    optimized
}

/// The error message `sql` fails with on both execution paths.
fn error(db: &mut Database, sql: &str) -> String {
    let select = match parse_statements(sql).unwrap().remove(0) {
        sql_ast::Statement::Select(select) => select,
        other => panic!("not a query: {other}"),
    };
    let optimized = db.query(&select, ExecutionMode::Optimized).unwrap_err();
    let reference = db.query(&select, ExecutionMode::Reference).unwrap_err();
    assert_eq!(optimized, reference, "paths disagree on {sql}");
    optimized.message
}

/// `t0`, `t1` and `t2` sharing a column `c0`, and a view `v0` over `t0`.
fn three_tables(config: EngineConfig) -> Database {
    let mut db = Database::new(config);
    run_script(
        &mut db,
        "
        CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT, c2 BOOLEAN);
        CREATE TABLE t1 (c0 INTEGER, c3 INTEGER);
        CREATE TABLE t2 (c0 INTEGER, c4 TEXT);
        INSERT INTO t0 (c0, c1, c2) VALUES (1, 'alpha', TRUE), (2, 'beta', FALSE), (3, NULL, TRUE);
        INSERT INTO t1 (c0, c3) VALUES (1, 10), (1, 20), (3, 30), (NULL, 40);
        INSERT INTO t2 (c0, c4) VALUES (2, 'x'), (3, 'y'), (5, 'z');
        CREATE VIEW v0 (k, label) AS SELECT c0, c1 FROM t0 WHERE c0 > 1;
        ",
    );
    db
}

/// `sql`'s outcome on both execution paths, which must agree: its rows,
/// `; `-separated with `|` between values, or `error: ` and its message.
fn outcome(db: &Database, sql: &str) -> String {
    let select = match parse_statements(sql).unwrap().remove(0) {
        sql_ast::Statement::Select(select) => select,
        other => panic!("not a query: {other}"),
    };
    let show = |mode| match db.query(&select, mode) {
        Ok(rs) => rs
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect::<Vec<_>>()
            .join("; "),
        Err(err) => format!("error: {}", err.message),
    };
    let optimized = show(ExecutionMode::Optimized);
    assert_eq!(
        optimized,
        show(ExecutionMode::Reference),
        "paths disagree on {sql}"
    );
    optimized
}

/// Checks each `(sql, pinned outcome)` pair.
fn check(db: &Database, cases: &[(&str, &str)]) {
    for (sql, expected) in cases {
        assert_eq!(outcome(db, sql), *expected, "{sql}");
    }
}

fn int(i: i64) -> Value {
    Value::Integer(i)
}

#[test]
fn distinct_and_set_operations_keep_rows_that_differ_inside_their_text() {
    let mut db = Database::new(EngineConfig::dynamic());
    run_script(
        &mut db,
        "CREATE TABLE t0 (c0 TEXT, c1 TEXT);
         CREATE TABLE t1 (c0 TEXT, c1 TEXT);",
    );
    // Joined with U+0001 as a separator, the two rows' value keys read
    // the same: "Ta\u{1}Tb\u{1}Tc".
    db.execute_sql("INSERT INTO t0 (c0, c1) VALUES ('a\u{1}Tb', 'c'), ('a', 'b\u{1}Tc')")
        .unwrap();
    db.execute_sql("INSERT INTO t1 (c0, c1) VALUES ('a', 'b\u{1}Tc')")
        .unwrap();
    let both = vec![
        vec![Value::text("a\u{1}Tb"), Value::text("c")],
        vec![Value::text("a"), Value::text("b\u{1}Tc")],
    ];
    assert_eq!(rows(&db, "SELECT DISTINCT c0, c1 FROM t0"), both);
    assert_eq!(
        rows(
            &db,
            "SELECT c0, c1 FROM t0 WHERE c1 = 'c' UNION SELECT c0, c1 FROM t0 WHERE c0 = 'a'"
        ),
        both
    );
    assert_eq!(
        rows(&db, "SELECT c0, c1 FROM t0 INTERSECT SELECT c0, c1 FROM t1"),
        both[1..]
    );
    assert_eq!(
        rows(&db, "SELECT c0, c1 FROM t0 EXCEPT SELECT c0, c1 FROM t1"),
        both[..1]
    );
    // Values that are one identity still merge: 1, 1.0 and TRUE.
    assert_eq!(
        rows(
            &db,
            "SELECT 1 UNION SELECT 1.0 UNION SELECT TRUE UNION SELECT '1'"
        ),
        vec![vec![int(1)], vec![Value::text("1")]]
    );
}

#[test]
fn a_join_condition_error_on_a_later_pair_wins_over_an_earlier_where_error() {
    let mut db = Database::new(EngineConfig::strict());
    run_script(
        &mut db,
        "CREATE TABLE t0 (c0 INTEGER, c1 TEXT);
         CREATE TABLE t1 (c0 INTEGER, c1 TEXT);
         INSERT INTO t0 (c0, c1) VALUES (1, 'x');
         INSERT INTO t1 (c0, c1) VALUES (10, NULL), (20, 'z');",
    );
    // The first pair joins (its ON is TRUE OR UNKNOWN) and its WHERE fails;
    // the second pair's ON compares INTEGER with TEXT.
    let sql = "SELECT * FROM t0 INNER JOIN t1 ON t1.c1 IS NULL OR t0.c0 = t1.c1 \
               WHERE t0.c1 + 1 > 0";
    assert_eq!(error(&mut db, sql), "cannot compare INTEGER with TEXT");
    // Without the second pair, the WHERE error is the statement's.
    db.execute_sql("DELETE FROM t1 WHERE c0 = 20").unwrap();
    assert_eq!(error(&mut db, sql), "expected a numeric value, got TEXT");
}

#[test]
fn outer_joins_filter_their_null_padded_rows() {
    let db = sample_db();
    assert_eq!(
        rows(
            &db,
            "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c0 IS NULL"
        ),
        vec![vec![
            int(2),
            Value::text("beta"),
            Value::Boolean(false),
            Value::Null,
            Value::Null,
        ]]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT t0.c0, t1.c3 FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c0 IS NULL"
        ),
        vec![vec![Value::Null, int(40)]]
    );
    // FULL JOIN: the unmatched left row in place, the unmatched right row
    // last.
    assert_eq!(
        rows(
            &db,
            "SELECT t0.c0, t1.c3 FROM t0 FULL JOIN t1 ON t0.c0 = t1.c0 \
             WHERE t0.c0 IS NULL OR t1.c3 IS NULL OR t1.c3 = 30"
        ),
        vec![
            vec![int(2), Value::Null],
            vec![int(3), int(30)],
            vec![Value::Null, int(40)],
        ]
    );
    // A WHERE that rejects every padded row leaves the inner join.
    assert_eq!(
        rows(
            &db,
            "SELECT t0.c0, t1.c3 FROM t0 FULL JOIN t1 ON t0.c0 = t1.c0 \
             WHERE t0.c0 IS NOT NULL AND t1.c3 IS NOT NULL"
        ),
        vec![
            vec![int(1), int(10)],
            vec![int(1), int(20)],
            vec![int(3), int(30)],
        ]
    );
}

#[test]
fn only_the_last_step_of_a_longer_from_is_filtered() {
    let db = sample_db();
    assert_eq!(
        rows(
            &db,
            "SELECT a.c0, b.c0, c.c0 FROM t0 AS a, t0 AS b, t0 AS c \
             WHERE a.c0 < b.c0 AND b.c0 < c.c0"
        ),
        vec![vec![int(1), int(2), int(3)]]
    );
    // The first item's join is built whole; WHERE runs on the product.
    assert_eq!(
        rows(
            &db,
            "SELECT t0.c0, t1.c3, x.c0 FROM t0 JOIN t1 ON t0.c0 = t1.c0, t0 AS x \
             WHERE x.c0 * 10 = t1.c3"
        ),
        vec![
            vec![int(1), int(10), int(1)],
            vec![int(1), int(20), int(2)],
            vec![int(3), int(30), int(3)],
        ]
    );
    // A chain of joins is filtered at its last join.
    assert_eq!(
        rows(
            &db,
            "SELECT t0.c0, t1.c3, x.c0 FROM t0 JOIN t1 ON t0.c0 = t1.c0 \
             LEFT JOIN t0 AS x ON x.c0 = 2 WHERE t1.c3 > 15"
        ),
        vec![vec![int(1), int(20), int(2)], vec![int(3), int(30), int(2)]]
    );
    assert_eq!(
        rows(&db, "SELECT COUNT(*) FROM t0, t1, t0 AS x WHERE x.c0 = 1"),
        vec![vec![int(12)]]
    );
}

#[test]
fn a_correlated_subquery_reads_the_right_half_of_a_split_row() {
    let db = sample_db();
    let expected = vec![vec![int(1), int(20)]];
    assert_eq!(
        rows(
            &db,
            "SELECT t0.c0, t1.c3 FROM t0 JOIN t1 ON t0.c0 = t1.c0 \
             WHERE (SELECT COUNT(*) FROM t1 AS u WHERE u.c3 > t1.c3) = 2"
        ),
        expected
    );
    assert_eq!(
        rows(
            &db,
            "SELECT t0.c0, t1.c3 FROM t0, t1 WHERE t0.c0 = t1.c0 \
             AND EXISTS (SELECT 1 FROM t1 AS u WHERE u.c3 = t1.c3 + 10 AND u.c0 IS NULL)"
        ),
        vec![vec![int(3), int(30)]]
    );
}

#[test]
fn count_distinct_keys_values_by_their_dedup_identity() {
    let mut db = Database::new(EngineConfig::dynamic());
    // `1`, `1.0` and `TRUE` are one value, `'1'` another; NULL is not
    // counted.
    let values = "SELECT 1 AS x, 0 AS g UNION ALL SELECT 1.0, 1 UNION ALL SELECT '1', 0 \
                  UNION ALL SELECT NULL, 1 UNION ALL SELECT 1, 0 UNION ALL SELECT TRUE, 1 \
                  UNION ALL SELECT '1', 1 UNION ALL SELECT NULL, 0 UNION ALL SELECT 2.5, 0";
    assert_eq!(
        rows(
            &db,
            &format!("SELECT COUNT(DISTINCT x), COUNT(x), COUNT(*) FROM ({values}) AS d")
        ),
        [[int(3), int(7), int(9)]]
    );
    assert_eq!(
        rows(
            &db,
            &format!(
                "SELECT g, COUNT(DISTINCT x), COUNT(*), SUM(DISTINCT x) FROM ({values}) AS d \
                 GROUP BY g ORDER BY g"
            )
        ),
        [
            [int(0), int(3), int(5), Value::Real(4.5)],
            [int(1), int(2), int(4), Value::Real(2.0)],
        ]
    );
    run_script(
        &mut db,
        "CREATE TABLE t0 (c0 INTEGER); INSERT INTO t0 (c0) VALUES (1), (2), (1);",
    );
    assert_eq!(
        rows(&db, "SELECT COUNT(*) FROM t0 WHERE c0 > 5"),
        [[int(0)]]
    );
    assert_eq!(
        error(
            &mut db,
            "SELECT COUNT(DISTINCT (SELECT c0 FROM t0)) FROM t0"
        ),
        "scalar subquery returned more than one row"
    );
}

/// Three-item comma products: every part of a row read in place, rows in nested-loop order.
#[test]
fn comma_products_of_three_tables_keep_nested_loop_order() {
    check(
        &three_tables(EngineConfig::dynamic()),
        &[
        (
            "SELECT * FROM t0, t1, t2 WHERE t1.c3 < 25 AND t2.c0 < 4",
            "1|'alpha'|TRUE|1|10|2|'x'; 1|'alpha'|TRUE|1|10|3|'y'; 1|'alpha'|TRUE|1|20|2|'x'; 1|'alpha'|TRUE|1|20|3|'y'; 2|'beta'|FALSE|1|10|2|'x'; 2|'beta'|FALSE|1|10|3|'y'; 2|'beta'|FALSE|1|20|2|'x'; 2|'beta'|FALSE|1|20|3|'y'; 3|NULL|TRUE|1|10|2|'x'; 3|NULL|TRUE|1|10|3|'y'; 3|NULL|TRUE|1|20|2|'x'; 3|NULL|TRUE|1|20|3|'y'",
        ),
        (
            "SELECT t2.c4, t1.c3, t0.c1 FROM t2, t0, t1 WHERE t0.c0 = t2.c0 OR t1.c0 IS NULL",
            "'x'|40|'alpha'; 'x'|10|'beta'; 'x'|20|'beta'; 'x'|30|'beta'; 'x'|40|'beta'; 'x'|40|NULL; 'y'|40|'alpha'; 'y'|40|'beta'; 'y'|10|NULL; 'y'|20|NULL; 'y'|30|NULL; 'y'|40|NULL; 'z'|40|'alpha'; 'z'|40|'beta'; 'z'|40|NULL",
        ),
        (
            "SELECT COUNT(*), SUM(t1.c3) FROM t0, t1, t2",
            "36|900",
        ),
        (
            "SELECT * FROM t2 AS a, t2 AS b, t2 AS c WHERE a.c0 < b.c0 AND b.c0 < c.c0",
            "2|'x'|3|'y'|5|'z'",
        ),
        ],
    );
}

/// LEFT, RIGHT and FULL joins in a chain, with the NULL-padded part first, in the middle or last.
#[test]
fn join_chains_pad_their_first_middle_and_last_parts() {
    check(
        &three_tables(EngineConfig::dynamic()),
        &[
        (
            "SELECT * FROM t0 JOIN t1 ON t0.c0 = t1.c0 LEFT JOIN t2 ON t2.c0 = t0.c0",
            "1|'alpha'|TRUE|1|10|NULL|NULL; 1|'alpha'|TRUE|1|20|NULL|NULL; 3|NULL|TRUE|3|30|3|'y'",
        ),
        (
            "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c0 JOIN t2 ON t2.c0 + 1 > t1.c3 / 10",
            "1|'alpha'|TRUE|1|10|2|'x'; 1|'alpha'|TRUE|1|10|3|'y'; 1|'alpha'|TRUE|1|10|5|'z'; 1|'alpha'|TRUE|1|20|2|'x'; 1|'alpha'|TRUE|1|20|3|'y'; 1|'alpha'|TRUE|1|20|5|'z'; 3|NULL|TRUE|3|30|3|'y'; 3|NULL|TRUE|3|30|5|'z'; NULL|NULL|NULL|NULL|40|5|'z'",
        ),
        (
            "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 JOIN t2 ON t2.c0 >= t0.c0",
            "1|'alpha'|TRUE|1|10|2|'x'; 1|'alpha'|TRUE|1|10|3|'y'; 1|'alpha'|TRUE|1|10|5|'z'; 1|'alpha'|TRUE|1|20|2|'x'; 1|'alpha'|TRUE|1|20|3|'y'; 1|'alpha'|TRUE|1|20|5|'z'; 2|'beta'|FALSE|NULL|NULL|2|'x'; 2|'beta'|FALSE|NULL|NULL|3|'y'; 2|'beta'|FALSE|NULL|NULL|5|'z'; 3|NULL|TRUE|3|30|3|'y'; 3|NULL|TRUE|3|30|5|'z'",
        ),
        (
            "SELECT t0.c0, t1.c3, t2.c4 FROM t0 FULL JOIN t1 ON t0.c0 = t1.c0 FULL JOIN t2 ON t2.c0 = t0.c0",
            "1|10|NULL; 1|20|NULL; 2|NULL|'x'; 3|30|'y'; NULL|40|NULL; NULL|NULL|'z'",
        ),
        (
            "SELECT t0.c0, t1.c3, t2.c4 FROM t2 RIGHT JOIN t0 ON t2.c0 = t0.c0 RIGHT JOIN t1 ON t1.c0 = t0.c0",
            "1|10|NULL; 1|20|NULL; 3|30|'y'; NULL|40|NULL",
        ),
        (
            "SELECT * FROM t1 LEFT JOIN t0 ON t0.c0 = t1.c0 LEFT JOIN t2 ON t2.c0 = t0.c0 WHERE t2.c4 IS NULL",
            "1|10|1|'alpha'|TRUE|NULL|NULL; 1|20|1|'alpha'|TRUE|NULL|NULL; NULL|40|NULL|NULL|NULL|NULL|NULL",
        ),
        (
            "SELECT t1.c3, t2.c4 FROM t0 FULL JOIN t2 ON t0.c0 = t2.c0, t1 WHERE t1.c3 = 40 OR t1.c0 = t2.c0",
            "40|NULL; 40|'x'; 30|'y'; 40|'y'; 40|'z'",
        ),
        ],
    );
}

/// NATURAL joins, chained and against a view.
#[test]
fn natural_joins_match_every_shared_column() {
    check(
        &three_tables(EngineConfig::dynamic()),
        &[
            (
                "SELECT * FROM t0 NATURAL JOIN t1",
                "1|'alpha'|TRUE|1|10; 1|'alpha'|TRUE|1|20; 3|NULL|TRUE|3|30",
            ),
            ("SELECT * FROM t1 NATURAL JOIN t2", "3|30|3|'y'"),
            (
                "SELECT * FROM t0 NATURAL JOIN t1 NATURAL JOIN t2",
                "3|NULL|TRUE|3|30|3|'y'",
            ),
            (
                "SELECT * FROM t1 AS a NATURAL JOIN t1 AS b",
                "1|10|1|10; 1|20|1|20; 3|30|3|30",
            ),
            ("SELECT COUNT(*) FROM t2 NATURAL JOIN v0", "6"),
        ],
    );
}

/// Views and derived tables as join parts, padded and unpadded.
#[test]
fn views_and_derived_tables_join_like_tables() {
    check(
        &three_tables(EngineConfig::dynamic()),
        &[
        (
            "SELECT * FROM v0 JOIN t1 ON v0.k = t1.c0",
            "3|NULL|3|30",
        ),
        (
            "SELECT * FROM t1 LEFT JOIN v0 ON v0.k = t1.c0",
            "1|10|NULL|NULL; 1|20|NULL|NULL; 3|30|3|NULL; NULL|40|NULL|NULL",
        ),
        (
            "SELECT * FROM t0 JOIN v0 ON v0.k = t0.c0 FULL JOIN t2 ON t2.c4 = 'z' AND t2.c0 = v0.k",
            "2|'beta'|FALSE|2|'beta'|NULL|NULL; 3|NULL|TRUE|3|NULL|NULL|NULL; NULL|NULL|NULL|NULL|NULL|2|'x'; NULL|NULL|NULL|NULL|NULL|3|'y'; NULL|NULL|NULL|NULL|NULL|5|'z'",
        ),
        (
            "SELECT v0.label, d.n FROM v0, (SELECT c3 / 10 AS n FROM t1) AS d WHERE v0.k = d.n",
            "'beta'|2; NULL|3",
        ),
        (
            "SELECT * FROM (SELECT c0, c4 FROM t2 WHERE c0 > 2) AS d FULL JOIN v0 ON d.c0 = v0.k",
            "3|'y'|3|NULL; 5|'z'|NULL|NULL; NULL|NULL|2|'beta'",
        ),
        (
            "SELECT d.x, e.y FROM (SELECT c0 AS x FROM t0) AS d, (SELECT c3 AS y FROM t1 WHERE c3 > 15) AS e, v0 WHERE v0.k = d.x",
            "2|20; 2|30; 2|40; 3|20; 3|30; 3|40",
        ),
        (
            "SELECT * FROM v0 AS a, v0 AS b",
            "2|'beta'|2|'beta'; 2|'beta'|3|NULL; 3|NULL|2|'beta'; 3|NULL|3|NULL",
        ),
        ],
    );
}

/// Correlated subqueries that read each part of a joined row, padded parts included.
#[test]
fn correlated_subqueries_read_each_part_of_a_joined_row() {
    check(
        &three_tables(EngineConfig::dynamic()),
        &[
        (
            "SELECT t0.c0, t1.c3, t2.c4 FROM t0, t1, t2 WHERE (SELECT COUNT(*) FROM t1 AS u WHERE u.c0 = t0.c0 AND u.c3 <= t1.c3 AND t2.c0 > u.c0) > 1",
            "1|20|'x'; 1|20|'y'; 1|20|'z'; 1|30|'x'; 1|30|'y'; 1|30|'z'; 1|40|'x'; 1|40|'y'; 1|40|'z'",
        ),
        (
            "SELECT t0.c0, (SELECT MAX(u.c3) FROM t1 AS u WHERE u.c0 = t2.c0) FROM t0 JOIN t2 ON t0.c0 = t2.c0",
            "2|NULL; 3|30",
        ),
        (
            "SELECT t1.c3, (SELECT COUNT(*) FROM t2 AS u WHERE u.c0 = t0.c0) FROM t1 LEFT JOIN t0 ON t0.c0 = t1.c0",
            "10|0; 20|0; 30|1; 40|0",
        ),
        (
            "SELECT t0.c0, t2.c4 FROM t0, t2 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.c0 = t0.c0 AND t1.c3 > t2.c0 * 5)",
            "1|'x'; 1|'y'; 3|'x'; 3|'y'; 3|'z'",
        ),
        (
            "SELECT v0.k FROM v0, t1 WHERE t1.c3 = (SELECT MIN(u.c3) FROM t1 AS u WHERE u.c0 + 0 = v0.k)",
            "3",
        ),
        ],
    );
}

/// GROUP BY and aggregates over joined rows, including an empty group's representative.
#[test]
fn aggregates_group_joined_rows() {
    check(
        &three_tables(EngineConfig::dynamic()),
        &[
        (
            "SELECT t0.c0, COUNT(*), SUM(t1.c3), MAX(t2.c4) FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 LEFT JOIN t2 ON t2.c0 = t0.c0 GROUP BY t0.c0 ORDER BY t0.c0",
            "1|2|30|NULL; 2|1|NULL|'x'; 3|1|30|'y'",
        ),
        (
            "SELECT t2.c4, COUNT(t1.c3), AVG(t1.c3) FROM t1, t2 WHERE t1.c0 IS NOT NULL GROUP BY t2.c4 HAVING COUNT(*) > 1 ORDER BY 1 DESC",
            "'z'|3|20.0; 'y'|3|20.0; 'x'|3|20.0",
        ),
        (
            "SELECT COUNT(*), t0.c1, MIN(t1.c3) FROM t0, t1 WHERE t0.c0 > 100",
            "0|NULL|NULL",
        ),
        (
            "SELECT t1.c0, COUNT(DISTINCT t0.c2), TOTAL(t1.c3) FROM t0 FULL JOIN t1 ON t0.c0 = t1.c0 GROUP BY t1.c0",
            "NULL|1|40.0; 1|1|30.0; 3|1|30.0",
        ),
        (
            "SELECT v0.label, COUNT(*) FROM v0, t1, (SELECT c0 FROM t2) AS d GROUP BY v0.label",
            "NULL|12; 'beta'|12",
        ),
        ],
    );
}

/// DISTINCT, ORDER BY, LIMIT and a set operation over projected join rows.
#[test]
fn distinct_order_and_limit_apply_to_projected_join_rows() {
    check(
        &three_tables(EngineConfig::dynamic()),
        &[
        (
            "SELECT DISTINCT t0.c2, t1.c0 FROM t0, t1 ORDER BY 1, 2 LIMIT 4 OFFSET 1",
            "FALSE|1; FALSE|3; TRUE|NULL; TRUE|1",
        ),
        (
            "SELECT DISTINCT * FROM t1 AS a JOIN t1 AS b ON a.c0 = b.c0",
            "1|10|1|10; 1|10|1|20; 1|20|1|10; 1|20|1|20; 3|30|3|30",
        ),
        (
            "SELECT t0.c1, t2.c4 FROM t0 LEFT JOIN t2 ON t2.c0 = t0.c0 ORDER BY t2.c4 DESC, t0.c0 LIMIT 2",
            "NULL|'y'; 'beta'|'x'",
        ),
        (
            "SELECT t1.c3 FROM t0, t1 WHERE t0.c0 = 1 ORDER BY t0.c1, t1.c3 DESC LIMIT 3",
            "40; 30; 20",
        ),
        (
            "SELECT t0.c0 FROM t0, t2 UNION SELECT t1.c0 FROM t1, t2 ORDER BY 1",
            "1; 2; 3; NULL",
        ),
        ],
    );
}

/// Every join condition of FROM is decided before WHERE sees a row: an ON error on a later pair or in a later item wins over an earlier WHERE error.
#[test]
fn join_condition_errors_win_over_where_errors() {
    check(
        &three_tables(EngineConfig::strict()),
        &[
        (
            "SELECT * FROM t0 JOIN t1 ON t1.c0 = t0.c0 JOIN t2 ON t2.c0 = t0.c0 OR t2.c4 = t0.c0 WHERE t0.c1 + 1 > 0",
            "error: cannot compare TEXT with INTEGER",
        ),
        (
            "SELECT * FROM t0 JOIN t1 ON t1.c0 = t0.c0 JOIN t2 ON t2.c0 > t0.c0 WHERE t0.c1 + 1 > 0",
            "error: expected a numeric value, got TEXT",
        ),
        (
            "SELECT * FROM t0 LEFT JOIN t1 ON t1.c3 = t0.c1, t2 WHERE t2.c4 > 1",
            "error: cannot compare INTEGER with TEXT",
        ),
        (
            "SELECT * FROM t0, t2 JOIN t1 ON t1.c3 > t2.c4 WHERE t0.c1 > 1",
            "error: cannot compare INTEGER with TEXT",
        ),
        (
            "SELECT * FROM t2 JOIN t0 ON t0.c0 = t2.c0 WHERE t0.c1 > 1",
            "error: cannot compare TEXT with INTEGER",
        ),
        (
            "SELECT COUNT(*) FROM t0 JOIN t1 ON t1.c0 = t0.c0 WHERE t0.c1 + 1 > 0",
            "error: expected a numeric value, got TEXT",
        ),
        ],
    );
}

/// An outer join pads a part wider than the engine's shared NULL row from
/// a NULL row of its own.
#[test]
fn a_padded_part_of_any_width_reads_null() {
    let mut db = Database::new(EngineConfig::dynamic());
    let columns: Vec<String> = (0..40).map(|i| format!("c{i} INTEGER")).collect();
    run_script(
        &mut db,
        &format!(
            "CREATE TABLE w ({});
             CREATE TABLE t (c0 INTEGER);
             INSERT INTO t (c0) VALUES (1), (2);
             INSERT INTO w (c0, c39) VALUES (2, 39);",
            columns.join(", ")
        ),
    );
    check(
        &db,
        &[
            (
                "SELECT t.c0, w.c0, w.c39 FROM t LEFT JOIN w ON w.c0 = t.c0",
                "1|NULL|NULL; 2|2|39",
            ),
            (
                "SELECT w.c39, t.c0 FROM w RIGHT JOIN t ON w.c0 = t.c0 WHERE w.c39 IS NULL",
                "NULL|1",
            ),
            (
                "SELECT COUNT(*), COUNT(w.c39) FROM t FULL JOIN w ON FALSE",
                "3|1",
            ),
        ],
    );
}
