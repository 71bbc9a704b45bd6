//! Integration tests for the in-memory engine: DDL/DML, joins, aggregation,
//! views, index access paths, and the equivalence of the optimized and
//! reference execution paths on a fault-free configuration.

use sql_ast::{Select, Statement, Value};
use sql_engine::{Database, EngineConfig, ExecutionMode, Fault, TypingMode};
use sql_parser::parse_statements;

fn run_script(db: &mut Database, script: &str) {
    for stmt in parse_statements(script).unwrap() {
        db.execute(&stmt).unwrap();
    }
}

fn query(db: &mut Database, sql: &str) -> Vec<Vec<Value>> {
    db.query_sql(sql).unwrap().rows
}

fn sample_db(config: EngineConfig) -> Database {
    let mut db = Database::new(config);
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

#[test]
fn basic_select_and_filter() {
    let mut db = sample_db(EngineConfig::dynamic());
    assert_eq!(
        query(&mut db, "SELECT COUNT(*) FROM t0"),
        vec![vec![Value::Integer(3)]]
    );
    assert_eq!(
        query(&mut db, "SELECT c1 FROM t0 WHERE c0 > 1 ORDER BY c0"),
        vec![vec![Value::text("beta")], vec![Value::Null]]
    );
}

#[test]
fn where_clause_excludes_unknown_rows() {
    let mut db = sample_db(EngineConfig::dynamic());
    // c1 = 'alpha' is unknown for the NULL row, so only one row survives.
    assert_eq!(
        query(&mut db, "SELECT c0 FROM t0 WHERE c1 = 'alpha'").len(),
        1
    );
    // The negation also excludes the NULL row.
    assert_eq!(
        query(&mut db, "SELECT c0 FROM t0 WHERE NOT (c1 = 'alpha')").len(),
        1
    );
    // IS NULL picks up exactly the remaining row: the TLP partition property.
    assert_eq!(
        query(&mut db, "SELECT c0 FROM t0 WHERE (c1 = 'alpha') IS NULL").len(),
        1
    );
}

#[test]
fn inner_and_outer_joins() {
    let mut db = sample_db(EngineConfig::dynamic());
    assert_eq!(
        query(
            &mut db,
            "SELECT t0.c0, t1.c3 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0"
        )
        .len(),
        3
    );
    // LEFT JOIN preserves the unmatched t0 row (c0 = 2).
    assert_eq!(
        query(
            &mut db,
            "SELECT t0.c0, t1.c3 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0"
        )
        .len(),
        4
    );
    // RIGHT JOIN preserves the unmatched t1 row (c0 IS NULL).
    assert_eq!(
        query(
            &mut db,
            "SELECT t0.c0, t1.c3 FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c0"
        )
        .len(),
        4
    );
    // FULL JOIN preserves both.
    assert_eq!(
        query(
            &mut db,
            "SELECT t0.c0, t1.c3 FROM t0 FULL JOIN t1 ON t0.c0 = t1.c0"
        )
        .len(),
        5
    );
    // CROSS JOIN is the full product.
    assert_eq!(query(&mut db, "SELECT * FROM t0 CROSS JOIN t1").len(), 12);
}

#[test]
fn aggregation_group_by_and_having() {
    let mut db = sample_db(EngineConfig::dynamic());
    let rows = query(
        &mut db,
        "SELECT t1.c0, SUM(t1.c3) FROM t1 GROUP BY t1.c0 HAVING COUNT(*) >= 1 ORDER BY 2",
    );
    assert_eq!(rows.len(), 3);
    // SUM over the group with two rows is 30.
    assert!(rows.iter().any(|r| r[1] == Value::Integer(30)));
    // SUM over an empty relation is NULL; COUNT is 0.
    assert_eq!(
        query(&mut db, "SELECT SUM(c3), COUNT(c3) FROM t1 WHERE c3 > 1000"),
        vec![vec![Value::Null, Value::Integer(0)]]
    );
    // DISTINCT aggregation.
    assert_eq!(
        query(&mut db, "SELECT COUNT(DISTINCT c0) FROM t1"),
        vec![vec![Value::Integer(2)]]
    );
}

#[test]
fn views_expand_with_their_predicates() {
    let mut db = sample_db(EngineConfig::dynamic());
    run_script(
        &mut db,
        "CREATE VIEW v0 (a) AS SELECT c0 FROM t0 WHERE c2 = TRUE;",
    );
    assert_eq!(query(&mut db, "SELECT a FROM v0 ORDER BY a").len(), 2);
    // Views are addressable by alias too.
    assert_eq!(
        query(&mut db, "SELECT x.a FROM v0 AS x WHERE x.a = 3"),
        vec![vec![Value::Integer(3)]]
    );
}

#[test]
fn subqueries_scalar_exists_and_in() {
    let mut db = sample_db(EngineConfig::dynamic());
    assert_eq!(
        query(
            &mut db,
            "SELECT c0 FROM t0 WHERE c0 IN (SELECT c0 FROM t1) ORDER BY c0"
        ),
        vec![vec![Value::Integer(1)], vec![Value::Integer(3)]]
    );
    assert_eq!(
        query(
            &mut db,
            "SELECT (SELECT MAX(c3) FROM t1) FROM t0 WHERE c0 = 1"
        ),
        vec![vec![Value::Integer(40)]]
    );
    assert_eq!(
        query(
            &mut db,
            "SELECT c0 FROM t0 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.c0 = t0.c0)"
        )
        .len(),
        2
    );
}

#[test]
fn set_operations() {
    let mut db = sample_db(EngineConfig::dynamic());
    assert_eq!(
        query(&mut db, "SELECT c0 FROM t0 UNION SELECT c0 FROM t1").len(),
        4 // 1, 2, 3, NULL
    );
    assert_eq!(
        query(&mut db, "SELECT c0 FROM t0 UNION ALL SELECT c0 FROM t1").len(),
        7
    );
    assert_eq!(
        query(&mut db, "SELECT c0 FROM t0 INTERSECT SELECT c0 FROM t1").len(),
        2
    );
    assert_eq!(
        query(&mut db, "SELECT c0 FROM t0 EXCEPT SELECT c0 FROM t1"),
        vec![vec![Value::Integer(2)]]
    );
}

#[test]
fn constraints_are_enforced() {
    let mut db = sample_db(EngineConfig::dynamic());
    // Duplicate primary key.
    assert!(db
        .execute_sql("INSERT INTO t0 (c0, c1, c2) VALUES (1, 'dup', TRUE)")
        .is_err());
    // OR IGNORE skips the bad row.
    let res = db
        .execute_sql(
            "INSERT OR IGNORE INTO t0 (c0, c1, c2) VALUES (1, 'dup', TRUE), (9, 'ok', FALSE)",
        )
        .unwrap();
    assert_eq!(res, sql_engine::StatementResult::RowsAffected(1));
    // NOT NULL via primary key.
    assert!(db
        .execute_sql("INSERT INTO t0 (c0, c1, c2) VALUES (NULL, 'x', TRUE)")
        .is_err());
    // Unique index creation fails when data already violates it.
    assert!(db
        .execute_sql("CREATE UNIQUE INDEX i_bad ON t1(c0)")
        .is_err());
    assert!(db.execute_sql("CREATE INDEX i_ok ON t1(c0)").is_ok());
}

#[test]
fn update_delete_and_analyze() {
    let mut db = sample_db(EngineConfig::dynamic());
    let res = db
        .execute_sql("UPDATE t1 SET c3 = c3 + 1 WHERE c0 = 1")
        .unwrap();
    assert_eq!(res, sql_engine::StatementResult::RowsAffected(2));
    assert_eq!(
        query(&mut db, "SELECT SUM(c3) FROM t1"),
        vec![vec![Value::Integer(102)]]
    );
    db.execute_sql("ANALYZE t1").unwrap();
    assert_eq!(db.stats("t1").unwrap().row_count, 4);
    let res = db.execute_sql("DELETE FROM t1 WHERE c0 IS NULL").unwrap();
    assert_eq!(res, sql_engine::StatementResult::RowsAffected(1));
    assert_eq!(
        query(&mut db, "SELECT COUNT(*) FROM t1"),
        vec![vec![Value::Integer(3)]]
    );
}

#[test]
fn strict_typing_rejects_what_dynamic_accepts() {
    let mut strict = sample_db(EngineConfig::strict());
    let mut dynamic = sample_db(EngineConfig::dynamic());
    // Text/integer comparison.
    assert!(strict.query_sql("SELECT c0 FROM t0 WHERE c1 = 1").is_err());
    assert!(dynamic.query_sql("SELECT c0 FROM t0 WHERE c1 = 1").is_ok());
    // Non-boolean WHERE.
    assert!(strict.query_sql("SELECT c0 FROM t0 WHERE c0").is_err());
    assert!(dynamic.query_sql("SELECT c0 FROM t0 WHERE c0").is_ok());
    // Ill-typed insert.
    assert!(strict
        .execute_sql("INSERT INTO t0 (c0, c1, c2) VALUES (7, 42, TRUE)")
        .is_err());
    assert!(dynamic
        .execute_sql("INSERT INTO t0 (c0, c1, c2) VALUES (7, 42, TRUE)")
        .is_ok());
}

#[test]
fn index_lookup_matches_seq_scan_when_fault_free() {
    let mut db = sample_db(EngineConfig::dynamic());
    db.execute_sql("CREATE INDEX i0 ON t0(c0)").unwrap();
    // Index path (optimized) and reference path agree.
    let select = match sql_parser::parse_statement("SELECT c1 FROM t0 WHERE c0 = '2'").unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let optimized = db.query(&select, ExecutionMode::Optimized).unwrap();
    let reference = db.query(&select, ExecutionMode::Reference).unwrap();
    assert_eq!(
        optimized.multiset_fingerprint(),
        reference.multiset_fingerprint()
    );
    assert_eq!(optimized.row_count(), 1);
}

#[test]
fn optimized_and_reference_agree_on_fault_free_engine() {
    // A mini differential test: the optimized path must agree with the
    // reference path for a battery of queries when no faults are injected.
    let mut db = sample_db(EngineConfig::dynamic());
    db.execute_sql("CREATE INDEX i0 ON t0(c0)").unwrap();
    let queries = [
        "SELECT * FROM t0 WHERE NOT (c1 = 'alpha')",
        "SELECT * FROM t0 WHERE c0 <=> NULL",
        "SELECT * FROM t0 WHERE c0 IN (1, NULL, 3)",
        "SELECT * FROM t0 WHERE c0 BETWEEN 3 AND 1",
        "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c3 > 15",
        "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c2 WHERE t1.c3 IS NOT NULL",
        "SELECT DISTINCT c2 FROM t0 WHERE c0 = 1 OR c0 = 3",
        "SELECT COUNT(*) FROM t0 WHERE c1 IS NULL",
        "SELECT c2, COUNT(c1) FROM t0 GROUP BY c2",
        "SELECT * FROM t0 WHERE CASE WHEN c1 THEN 1 ELSE 0 END = 1",
    ];
    for sql in queries {
        let select: Select = match sql_parser::parse_statement(sql).unwrap() {
            Statement::Select(s) => *s,
            _ => unreachable!(),
        };
        let optimized = db.query(&select, ExecutionMode::Optimized).unwrap();
        let reference = db.query(&select, ExecutionMode::Reference).unwrap();
        assert_eq!(
            optimized.multiset_fingerprint(),
            reference.multiset_fingerprint(),
            "optimized and reference paths disagree on: {sql}"
        );
    }
}

#[test]
fn injected_faults_make_paths_disagree() {
    // Each (fault, query) pair is detectable: the optimized path diverges
    // from the reference path — the property the NoREC oracle exploits.
    let cases = [
        (
            Fault::BadNotElimination,
            "SELECT * FROM t0 WHERE NOT (c1 = 'alpha')",
        ),
        (
            Fault::BadPredicatePushdown,
            "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c3 > 15",
        ),
        (
            Fault::BadJoinFlattening,
            // The ON condition never matches, so the RIGHT JOIN null-extends
            // every t1 row; flattening the ON term into WHERE loses them all.
            "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c3 WHERE t1.c3 IS NOT NULL",
        ),
        (
            Fault::BadInListRewrite,
            "SELECT * FROM t0 WHERE NOT (c0 IN (5, NULL))",
        ),
        (
            Fault::BadIndexLookupCoercion,
            "SELECT c1 FROM t0 WHERE c0 = '2'",
        ),
    ];
    for (fault, sql) in cases {
        let mut db = sample_db(EngineConfig::dynamic().with_faults(&[fault]));
        db.execute_sql("CREATE INDEX i0 ON t0(c0)").unwrap();
        let select: Select = match sql_parser::parse_statement(sql).unwrap() {
            Statement::Select(s) => *s,
            _ => unreachable!(),
        };
        let optimized = db.query(&select, ExecutionMode::Optimized).unwrap();
        let reference = db.query(&select, ExecutionMode::Reference).unwrap();
        assert_ne!(
            optimized.multiset_fingerprint(),
            reference.multiset_fingerprint(),
            "fault {fault:?} was not observable on: {sql}"
        );
    }
}

#[test]
fn coverage_accumulates_during_execution() {
    let mut db = sample_db(EngineConfig::dynamic());
    db.reset_coverage();
    let _ = query(
        &mut db,
        "SELECT SIN(c0), UPPER(c1) FROM t0 WHERE c0 + 1 > 0",
    );
    let cov = db.coverage_snapshot();
    assert!(cov.functions.contains("SIN"));
    assert!(cov.functions.contains("UPPER"));
    assert!(cov.plan_operators.contains("seq_scan"));
    assert!(cov.points() > 5);
}

#[test]
fn typing_mode_affects_strictness_of_functions() {
    let mut strict = Database::new(EngineConfig {
        typing: TypingMode::Strict,
        ..EngineConfig::strict()
    });
    strict.execute_sql("CREATE TABLE t (c0 INTEGER)").unwrap();
    strict.execute_sql("INSERT INTO t (c0) VALUES (1)").unwrap();
    assert!(strict.query_sql("SELECT SIN(c0) FROM t").is_ok());
    assert!(strict.query_sql("SELECT UPPER(c0) FROM t").is_err());
}

#[test]
fn limit_offset_and_order() {
    let mut db = sample_db(EngineConfig::dynamic());
    let rows = query(
        &mut db,
        "SELECT c0 FROM t0 ORDER BY c0 DESC LIMIT 2 OFFSET 1",
    );
    assert_eq!(rows, vec![vec![Value::Integer(2)], vec![Value::Integer(1)]]);
}

#[test]
fn drop_and_recreate_objects() {
    let mut db = sample_db(EngineConfig::dynamic());
    db.execute_sql("CREATE VIEW v0 AS SELECT c0 FROM t0")
        .unwrap();
    db.execute_sql("DROP VIEW v0").unwrap();
    db.execute_sql("DROP TABLE t1").unwrap();
    assert!(db.query_sql("SELECT * FROM t1").is_err());
    assert!(db.execute_sql("DROP TABLE t1").is_err());
    assert!(db.execute_sql("DROP TABLE IF EXISTS t1").is_ok());
    // Recreating under the old name works.
    db.execute_sql("CREATE TABLE t1 (c0 INTEGER)").unwrap();
    assert_eq!(
        query(&mut db, "SELECT COUNT(*) FROM t1"),
        vec![vec![Value::Integer(0)]]
    );
}
