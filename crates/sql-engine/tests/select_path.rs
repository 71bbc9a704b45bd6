//! The SELECT path's row handling: WHERE fused into the last step of FROM,
//! and DISTINCT / set operations keyed by each value's dedup identity.
//!
//! The fused filter must give the rows and the error text of filtering the
//! fully joined relation: a join-condition error anywhere in the step wins
//! over a WHERE error, NULL-padded outer-join rows are filtered like any
//! other, only the last step of a longer FROM is fused, and a correlated
//! subquery reads the right half of a split join row.

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
