//! # sql-parser
//!
//! A hand-written lexer and recursive-descent parser that turns SQL text
//! into the [`sql_ast`] types.
//!
//! In the SQLancer++ architecture the platform and the DBMS under test
//! communicate exclusively through SQL *text* (the platform has no access to
//! DBMS internals). The simulated DBMS fleet in `dbms-sim` therefore parses
//! incoming statements with this crate, exactly as a real server would, and
//! produces syntax errors that feed the adaptive generator's validity
//! feedback.
//!
//! # Examples
//!
//! ```
//! use sql_parser::parse_statement;
//!
//! let stmt = parse_statement("SELECT c0 FROM t0 WHERE NULLIF(2, c0) != 1").unwrap();
//! assert_eq!(stmt.to_string(), "SELECT c0 FROM t0 WHERE (NULLIF(2, c0) != 1)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod lexer;
mod parser;

pub use error::ParseError;
pub use lexer::{tokenize, SpannedToken, Token};
pub use parser::{parse_expression, parse_statement, parse_statements, Parser, MAX_NESTING};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let parens =
            |levels: usize| format!("SELECT {}1{}", "(".repeat(levels), ")".repeat(levels));
        assert!(parse_statements(&parens(100)).is_ok());
        // 600 levels used to overflow a 2 MiB test-thread stack and abort.
        for levels in [600, 10_000] {
            let deep = [
                parens(levels),
                format!("SELECT {}1", "NOT ".repeat(levels)),
                format!("SELECT {}1", "- ".repeat(levels)),
                format!(
                    "SELECT {}1{}",
                    "(SELECT ".repeat(levels),
                    ")".repeat(levels)
                ),
            ];
            for sql in &deep {
                let err = parse_statements(sql).expect_err("nesting past the cap is rejected");
                assert!(
                    err.message.contains("nesting deeper than"),
                    "{levels} levels: {err}"
                );
            }
        }
    }

    #[test]
    fn round_trips_paper_listing_2() {
        // Listing 2 of the paper (the 10-year-old SQLite REPLACE bug).
        let script = "
            CREATE TABLE t0(c0 TEXT, PRIMARY KEY (c0));
            INSERT INTO t0 (c0) VALUES (1);
            SELECT * FROM t0 WHERE t0.c0 = REPLACE(1, ' ', 0);
            SELECT * FROM t0 WHERE NOT t0.c0 = REPLACE(1, ' ', 0);
        ";
        let stmts = parse_statements(script).unwrap();
        assert_eq!(stmts.len(), 4);
        assert!(stmts[0].is_ddl());
        assert!(stmts[1].is_dml());
        assert!(stmts[2].is_query());
    }

    #[test]
    fn round_trips_paper_listing_3() {
        // Listing 3 of the paper (query-flattener bug with subqueries).
        let script = "
            CREATE TABLE t0(c0 INT);
            CREATE TABLE t1(c0 INT);
            INSERT INTO t0 (c0) VALUES (1);
            CREATE VIEW v0(c0) AS SELECT 0 FROM t1 RIGHT JOIN t0 ON 1;
            SELECT t0.c0 FROM v0 LEFT JOIN (SELECT 'a' AS col0 FROM v0 WHERE FALSE) AS sub0 ON v0.c0,
                t0 RIGHT JOIN (SELECT NULL AS col0 FROM v0) AS sub1 ON t0.c0 WHERE t0.c0;
        ";
        let stmts = parse_statements(script).unwrap();
        assert_eq!(stmts.len(), 5);
        let rendered = stmts[4].to_string();
        assert!(rendered.contains("RIGHT JOIN"));
        assert!(rendered.contains("WHERE t0.c0"));
    }

    #[test]
    fn round_trips_transaction_control_statements() {
        use sql_ast::Statement;
        let script = "
            BEGIN;
            INSERT INTO t0 (c0) VALUES (1);
            SAVEPOINT sp1;
            DELETE FROM t0;
            ROLLBACK TO sp1;
            RELEASE SAVEPOINT sp1;
            COMMIT;
            BEGIN TRANSACTION;
            ROLLBACK;
        ";
        let stmts = parse_statements(script).unwrap();
        assert_eq!(stmts[0], Statement::begin());
        assert_eq!(stmts[2], Statement::Savepoint("sp1".into()));
        assert_eq!(stmts[4], Statement::RollbackTo("sp1".into()));
        assert_eq!(stmts[5], Statement::ReleaseSavepoint("sp1".into()));
        assert_eq!(stmts[6], Statement::Commit);
        assert_eq!(stmts[7], Statement::begin());
        assert_eq!(stmts[8], Statement::Rollback);
        // Rendered forms parse back to the same AST.
        for stmt in &stmts {
            assert_eq!(&parse_statement(&stmt.to_string()).unwrap(), stmt);
        }
        // Noise words are accepted.
        assert_eq!(parse_statement("BEGIN WORK").unwrap(), Statement::begin());
        assert_eq!(
            parse_statement("ROLLBACK TO SAVEPOINT a").unwrap(),
            Statement::RollbackTo("a".into())
        );
        assert_eq!(
            parse_statement("RELEASE a").unwrap(),
            Statement::ReleaseSavepoint("a".into())
        );
    }

    #[test]
    fn begin_modes_parse_and_round_trip() {
        use sql_ast::{BeginMode, Statement};
        assert_eq!(
            parse_statement("BEGIN DEFERRED").unwrap(),
            Statement::Begin(BeginMode::Deferred)
        );
        assert_eq!(
            parse_statement("BEGIN IMMEDIATE").unwrap(),
            Statement::Begin(BeginMode::Immediate)
        );
        // Mode keywords compose with the noise words.
        assert_eq!(
            parse_statement("BEGIN IMMEDIATE TRANSACTION").unwrap(),
            Statement::Begin(BeginMode::Immediate)
        );
        assert_eq!(
            parse_statement("BEGIN DEFERRED WORK").unwrap(),
            Statement::Begin(BeginMode::Deferred)
        );
        for stmt in [
            Statement::Begin(BeginMode::Deferred),
            Statement::Begin(BeginMode::Immediate),
        ] {
            assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
        }
    }
}
