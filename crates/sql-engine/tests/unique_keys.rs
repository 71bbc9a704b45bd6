//! Unique-key enforcement and coverage accounting on the statement path:
//! the positional key comparator must keep exactly the semantics of
//! comparing each key column's `dedup_key`, and coverage points must be
//! stable across reset and checkpoint/restore cycles.

use sql_ast::Value;
use sql_engine::{CoverageTracker, Database, Engine, EngineConfig, StatementResult};
use sql_parser::parse_statements;

fn db_with(script: &str) -> Database {
    let mut db = Database::new(EngineConfig::dynamic());
    for stmt in parse_statements(script).unwrap() {
        db.execute(&stmt).unwrap();
    }
    db
}

fn rows(db: &mut Database, sql: &str) -> Vec<Vec<Value>> {
    db.query_sql(sql).unwrap().rows
}

fn ints(values: &[i64]) -> Vec<Vec<Value>> {
    values.iter().map(|&v| vec![Value::Integer(v)]).collect()
}

#[test]
fn a_duplicate_inside_one_multi_row_insert_fails_the_statement() {
    let mut db = db_with("CREATE TABLE t0 (c0 INTEGER UNIQUE)");
    let err = db
        .execute_sql("INSERT INTO t0 (c0) VALUES (1), (2), (1)")
        .unwrap_err();
    assert!(err.message.contains("UNIQUE"), "{err}");
    assert!(rows(&mut db, "SELECT c0 FROM t0").is_empty());
    // TRUE, 1 and 1.0 share one identity.
    let mut db = db_with("CREATE TABLE t0 (c0 REAL UNIQUE)");
    assert!(db
        .execute_sql("INSERT INTO t0 (c0) VALUES (1.0), (1)")
        .is_err());
}

#[test]
fn nulls_never_conflict() {
    let mut db = db_with("CREATE TABLE t0 (c0 INTEGER UNIQUE, c1 TEXT, UNIQUE (c0, c1))");
    let res = db
        .execute_sql("INSERT INTO t0 (c0, c1) VALUES (NULL, 'a'), (NULL, 'a'), (NULL, NULL)")
        .unwrap();
    assert_eq!(res, StatementResult::RowsAffected(3));
    // A composite key with one NULL column never conflicts either.
    let mut db = db_with("CREATE TABLE t0 (c0 INTEGER, c1 TEXT, UNIQUE (c0, c1))");
    let res = db
        .execute_sql("INSERT INTO t0 (c0, c1) VALUES (1, NULL), (1, NULL)")
        .unwrap();
    assert_eq!(res, StatementResult::RowsAffected(2));
    // The text spelling of the NULL identity is an ordinary value.
    let mut db = db_with("CREATE TABLE t0 (c0 TEXT UNIQUE)");
    let res = db
        .execute_sql("INSERT INTO t0 (c0) VALUES (NULL), ('\u{0}N'), (NULL)")
        .unwrap();
    assert_eq!(res, StatementResult::RowsAffected(3));
}

#[test]
fn composite_keys_conflict_only_when_every_column_matches() {
    let mut db = db_with("CREATE TABLE t0 (c0 INTEGER, c1 TEXT, UNIQUE (c0, c1))");
    db.execute_sql("INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (1, 'b'), (2, 'a')")
        .unwrap();
    assert!(db
        .execute_sql("INSERT INTO t0 (c0, c1) VALUES (1, 'a')")
        .is_err());
    // Text that spells another column's identity is not that value.
    db.execute_sql("INSERT INTO t0 (c0, c1) VALUES (1, 'I1')")
        .unwrap();
}

#[test]
fn a_unique_index_created_after_the_data_checks_the_existing_rows() {
    let mut db = db_with(
        "CREATE TABLE t0 (c0 INTEGER, c1 INTEGER);
         INSERT INTO t0 (c0, c1) VALUES (1, 10), (2, 20), (1, 30)",
    );
    let err = db
        .execute_sql("CREATE UNIQUE INDEX i0 ON t0 (c0)")
        .unwrap_err();
    assert!(err.message.contains("violated by existing rows"), "{err}");
    db.execute_sql("CREATE UNIQUE INDEX i1 ON t0 (c0, c1)")
        .unwrap();
    // The index is enforced from now on.
    assert!(db
        .execute_sql("INSERT INTO t0 (c0, c1) VALUES (2, 20)")
        .is_err());
    db.execute_sql("INSERT INTO t0 (c0, c1) VALUES (2, 21)")
        .unwrap();
}

/// Two distinct composite keys whose per-column identities join to the same
/// string once separated by `|`: `T` + `a|Tb` | `Tc` and `Ta` | `Tb|Tc`.
/// A separator-joined key made the index reject rows that a declared
/// `UNIQUE (c0, c1)` constraint accepts.
#[test]
fn a_unique_index_compares_composite_keys_column_by_column() {
    let insert = "INSERT INTO t0 (c0, c1) VALUES ('a|Tb', 'c'), ('a', 'b|Tc')";
    let mut db = db_with("CREATE TABLE t0 (c0 TEXT, c1 TEXT)");
    db.execute_sql(insert).unwrap();
    db.execute_sql("CREATE UNIQUE INDEX i0 ON t0 (c0, c1)")
        .unwrap();

    let mut declared = db_with("CREATE TABLE t0 (c0 TEXT, c1 TEXT, UNIQUE (c0, c1))");
    assert_eq!(
        declared.execute_sql(insert).unwrap(),
        StatementResult::RowsAffected(2)
    );
}

#[test]
fn an_update_that_creates_a_duplicate_fails_and_leaves_the_table_unchanged() {
    let mut db = db_with(
        "CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT);
         INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (2, 'b'), (3, 'c')",
    );
    let before = rows(&mut db, "SELECT c0, c1 FROM t0");
    let err = db
        .execute_sql("UPDATE t0 SET c0 = 2 WHERE c1 = 'c'")
        .unwrap_err();
    assert!(err.message.contains("UNIQUE"), "{err}");
    assert_eq!(rows(&mut db, "SELECT c0, c1 FROM t0"), before);
    // A unique index counts too.
    db.execute_sql("CREATE UNIQUE INDEX i0 ON t0 (c1)").unwrap();
    assert!(db.execute_sql("UPDATE t0 SET c1 = 'a'").is_err());
    assert_eq!(rows(&mut db, "SELECT c0, c1 FROM t0"), before);
}

#[test]
fn shifting_a_unique_column_by_one_succeeds() {
    let mut db = db_with(
        "CREATE TABLE t0 (c0 INTEGER UNIQUE);
         INSERT INTO t0 (c0) VALUES (1), (2), (3)",
    );
    // Row by row the new values overlap the old ones; the statement's
    // result relation is unique, which is all that is checked.
    let res = db.execute_sql("UPDATE t0 SET c0 = c0 + 1").unwrap();
    assert_eq!(res, StatementResult::RowsAffected(3));
    assert_eq!(rows(&mut db, "SELECT c0 FROM t0"), ints(&[2, 3, 4]));
}

#[test]
fn or_ignore_skips_conflicting_rows() {
    let mut db = db_with(
        "CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT);
         INSERT INTO t0 (c0, c1) VALUES (1, 'a')",
    );
    let res = db
        .execute_sql(
            "INSERT OR IGNORE INTO t0 (c0, c1) VALUES (1, 'x'), (2, 'b'), (2, 'y'), (3, 'c')",
        )
        .unwrap();
    assert_eq!(res, StatementResult::RowsAffected(2));
    assert_eq!(
        rows(&mut db, "SELECT c1 FROM t0"),
        vec![
            vec![Value::text("a")],
            vec![Value::text("b")],
            vec![Value::text("c")]
        ]
    );
}

const WORKLOAD: &str = "
    CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT, c2 BOOLEAN);
    INSERT INTO t0 (c0, c1, c2) VALUES (1, 'a', TRUE), (2, '2', FALSE), (3, NULL, TRUE);
    CREATE UNIQUE INDEX i0 ON t0 (c1);
    UPDATE t0 SET c1 = c0 WHERE c2;
    SELECT DISTINCT c0 + 1, UPPER(c1) FROM t0 WHERE c1 > 1 ORDER BY 1;
    SELECT c2, COUNT(*) FROM t0 GROUP BY c2;
    SELECT CAST(c1 AS INTEGER) FROM t0 WHERE c0 IN (SELECT c0 FROM t0);
    DELETE FROM t0 WHERE c0 = 2;
    ANALYZE t0;
";

fn run_workload(engine: &Engine) {
    let mut session = engine.session();
    for stmt in parse_statements(WORKLOAD).unwrap() {
        // Re-running over existing state fails some statements; coverage
        // records what they reached either way.
        let _ = session.execute(&stmt);
    }
}

fn coverage(engine: &Engine) -> CoverageTracker {
    engine.committed().coverage_snapshot()
}

#[test]
fn coverage_points_are_identical_after_reset_and_restore_cycles() {
    let engine = Engine::new(EngineConfig::dynamic());
    run_workload(&engine);
    let first = coverage(&engine);
    assert!(first.coercions.iter().any(|p| p.contains("->")));
    assert!(first.plan_operators.contains("distinct"));

    // Reset: the same statements record the same points again, even
    // though their compiled plans were cached before the reset.
    for _ in 0..2 {
        engine.committed().reset_coverage();
        run_workload(&engine);
        assert_eq!(coverage(&engine), first);
    }

    // Restore: a checkpoint clone rewinds to the checkpoint's coverage and
    // re-running the workload reaches the same points.
    let checkpoint = engine.checkpoint_clone();
    run_workload(&engine);
    let restored = checkpoint.clone();
    assert_eq!(coverage(&restored), first);
    run_workload(&restored);
    assert_eq!(coverage(&restored), first);
    assert_eq!(coverage(&engine), first);

    // A fresh engine reaches them too.
    let fresh = Engine::new(EngineConfig::dynamic());
    run_workload(&fresh);
    assert_eq!(coverage(&fresh), first);
}
