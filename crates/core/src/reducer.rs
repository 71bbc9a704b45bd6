//! Bug-inducing test-case reduction.
//!
//! Before a bug-inducing test case is handed to a human (or counted in the
//! experiments), SQLancer++ reduces it: statements that are not needed to
//! reproduce the discrepancy are removed, and the predicate is shrunk by
//! replacing sub-expressions with their children (a simple syntactic
//! delta-debugging pass). Reduction re-validates the oracle verdict after
//! every candidate simplification.
//!
//! Transactional test cases ([`TxnCase`]) get their own pass
//! ([`BugReducer::reduce_txn`]): setup statements and session mutations are
//! dropped one at a time while the rollback oracle still flags the session.
//! The `BEGIN`/`COMMIT`/`ROLLBACK` bracketing is supplied by the oracle
//! itself and therefore can never be reduced away, and `SAVEPOINT` /
//! `ROLLBACK TO` / `RELEASE SAVEPOINT` pairs are kept consistent: a
//! candidate that would orphan a `ROLLBACK TO` or `RELEASE` is never
//! proposed, and dropping a `SAVEPOINT` drops its dependents in the same
//! candidate.
//!
//! Concurrent schedules ([`ScheduleCase`]) get a third pass
//! ([`BugReducer::reduce_schedule`]): setup statements and per-session body
//! statements are dropped one at a time while the isolation oracle still
//! flags the schedule. Dropping a body statement removes exactly its step
//! from the explicit interleaving, so the session bracketing (`BEGIN` and
//! the closer, which are oracle-supplied) and the **relative order** of
//! every surviving step are preserved — a reduced schedule is always a
//! subsequence of the original interleaving.

use crate::dbms::DbmsConnection;
use crate::feature::FeatureSet;
use crate::json::{json_name, json_record};
use crate::oracle::{
    check_isolation, check_norec, check_rollback, check_tlp, OracleKind, OracleOutcome, Schedule,
};
use sql_ast::{Expr, Select, Statement};

/// A reducible bug-inducing test case: the database-construction statements
/// plus the query and predicate the oracle flagged.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducibleCase {
    /// SQL statements that build the database state.
    pub setup: Vec<String>,
    /// The flagged query (its `where_clause` holds the predicate).
    pub query: Select,
    /// The predicate the oracle transformed.
    pub predicate: Expr,
    /// The oracle that flagged the case.
    pub oracle: OracleKind,
    /// The feature set recorded at generation time.
    pub features: FeatureSet,
}

json_name!(Select: Select::to_string, |sql: &str| match sql_parser::parse_statement(sql) {
    Ok(Statement::Select(select)) => Some(*select),
    _ => None,
});
json_name!(Expr: Expr::to_string, |sql: &str| sql_parser::parse_expression(sql).ok());
json_record!(struct ReducibleCase { oracle, setup, query, predicate, features });

/// A reducible transactional test case: the setup plus the mutation session
/// the rollback oracle flagged (the oracle re-adds the outer transaction
/// bracketing on every re-validation).
#[derive(Debug, Clone, PartialEq)]
pub struct TxnCase {
    /// SQL statements that build the database state.
    pub setup: Vec<String>,
    /// The table the session mutates (and the oracle fingerprints).
    pub table: String,
    /// The session body: DML and `SAVEPOINT`/`ROLLBACK TO` statements.
    pub statements: Vec<Statement>,
    /// The feature set recorded at generation time.
    pub features: FeatureSet,
}

json_record!(struct TxnCase { table, setup, statements, features });

impl TxnCase {
    /// Renders the full replay script of the rollback oracle's transactional
    /// arms: the session bracketed by `BEGIN…ROLLBACK` and by
    /// `BEGIN…COMMIT`, each followed by the `SELECT *` probe whose
    /// fingerprint the oracle compares. This is what a bug report's
    /// `queries` carry so a human can reproduce the discrepancy verbatim.
    pub fn replay_script(&self) -> Vec<String> {
        let probe = format!("SELECT * FROM {}", self.table);
        let mut out = Vec::with_capacity(2 * (self.statements.len() + 3));
        for closer in [Statement::Rollback, Statement::Commit] {
            out.push(Statement::begin().to_string());
            out.extend(self.statements.iter().map(Statement::to_string));
            out.push(closer.to_string());
            out.push(probe.clone());
        }
        out
    }
}

/// A reducible concurrent-schedule test case: the setup plus the two-session
/// schedule the isolation oracle flagged (the oracle re-runs the schedule's
/// explicit interleaving on every re-validation).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleCase {
    /// SQL statements that build the database state.
    pub setup: Vec<String>,
    /// The concurrent schedule: session scripts plus the interleaving.
    pub schedule: Schedule,
    /// The feature set recorded at generation time.
    pub features: FeatureSet,
}

json_record!(struct ScheduleCase { setup, schedule, features });

/// Statistics about a reduction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Setup statements before/after.
    pub setup_before: usize,
    /// Setup statements after reduction.
    pub setup_after: usize,
    /// Predicate AST nodes before reduction.
    pub predicate_nodes_before: usize,
    /// Predicate AST nodes after reduction.
    pub predicate_nodes_after: usize,
    /// Number of oracle re-validations performed.
    pub checks: usize,
}

/// Reduces a bug-inducing test case against a live connection.
pub struct BugReducer<'a> {
    conn: &'a mut dyn DbmsConnection,
    checks: usize,
    max_checks: usize,
}

impl<'a> BugReducer<'a> {
    /// Creates a reducer bounded to `max_checks` oracle re-validations.
    pub fn new(conn: &'a mut dyn DbmsConnection, max_checks: usize) -> BugReducer<'a> {
        BugReducer {
            conn,
            checks: 0,
            max_checks,
        }
    }

    /// Checks whether a candidate case still reproduces the bug.
    fn reproduces(&mut self, case: &ReducibleCase) -> bool {
        if self.checks >= self.max_checks {
            return false;
        }
        self.checks += 1;
        self.conn.reset();
        for sql in &case.setup {
            // Failed setup statements are tolerated: the remaining ones may
            // still reproduce the bug.
            let _ = self.conn.execute(sql);
        }
        let outcome = match case.oracle {
            OracleKind::Tlp => check_tlp(
                self.conn,
                &case.query,
                &case.predicate,
                &case.features,
                &case.setup,
            ),
            OracleKind::NoRec => check_norec(
                self.conn,
                &case.query,
                &case.predicate,
                &case.features,
                &case.setup,
            ),
            // Rollback-oracle cases are transactional sessions, reduced via
            // [`BugReducer::reduce_txn`] on a [`TxnCase`]; isolation cases
            // are schedules, reduced via [`BugReducer::reduce_schedule`] on
            // a [`ScheduleCase`]. A single-query `ReducibleCase` carries
            // neither.
            OracleKind::Rollback | OracleKind::Isolation => return false,
        };
        matches!(outcome, OracleOutcome::Bug(_))
    }

    /// Runs the reduction. Returns the reduced case and statistics; the
    /// returned case is guaranteed to still reproduce the bug (or, if the
    /// budget ran out, to be the best known reproducer).
    pub fn reduce(&mut self, case: &ReducibleCase) -> (ReducibleCase, ReductionStats) {
        let mut current = case.clone();
        let mut stats = ReductionStats {
            setup_before: case.setup.len(),
            predicate_nodes_before: case.predicate.node_count(),
            ..ReductionStats::default()
        };

        // Phase 1: drop setup statements one at a time (last to first, so
        // that later statements which depend on earlier ones go first).
        let mut i = current.setup.len();
        while i > 0 {
            i -= 1;
            let mut candidate = current.clone();
            candidate.setup.remove(i);
            if self.reproduces(&candidate) {
                current = candidate;
            }
        }

        // Phase 2: shrink the predicate by replacing it with each of its
        // children (transitively) while the bug still reproduces.
        loop {
            let children: Vec<Expr> = current.predicate.children().into_iter().cloned().collect();
            let mut replaced = false;
            for child in children {
                let mut candidate = current.clone();
                candidate.predicate = child.clone();
                candidate.query.where_clause = Some(child.clone());
                if self.reproduces(&candidate) {
                    current = candidate;
                    replaced = true;
                    break;
                }
            }
            if !replaced {
                break;
            }
        }

        stats.setup_after = current.setup.len();
        stats.predicate_nodes_after = current.predicate.node_count();
        stats.checks = self.checks;
        (current, stats)
    }

    /// Checks whether a candidate transactional case still reproduces the
    /// bug under the rollback oracle.
    fn reproduces_txn(&mut self, case: &TxnCase) -> bool {
        if self.checks >= self.max_checks {
            return false;
        }
        self.checks += 1;
        let outcome = check_rollback(
            self.conn,
            &case.table,
            &case.statements,
            &case.features,
            &case.setup,
        );
        matches!(outcome, OracleOutcome::Bug(_))
    }

    /// Whether every `ROLLBACK TO` / `RELEASE SAVEPOINT` in the session
    /// still has a matching earlier `SAVEPOINT` — candidates violating this
    /// would turn the bug into an unrelated "no such savepoint" error, so
    /// they are never proposed. `RELEASE` retires its savepoint (and every
    /// later one), mirroring the engine's frame merge.
    fn savepoints_consistent(statements: &[Statement]) -> bool {
        let mut names: Vec<String> = Vec::new();
        for stmt in statements {
            match stmt {
                Statement::Savepoint(n) => names.push(n.to_ascii_lowercase()),
                Statement::RollbackTo(n) if !names.contains(&n.to_ascii_lowercase()) => {
                    return false;
                }
                Statement::ReleaseSavepoint(n) => {
                    let key = n.to_ascii_lowercase();
                    let Some(at) = names.iter().rposition(|name| *name == key) else {
                        return false;
                    };
                    names.truncate(at);
                }
                _ => {}
            }
        }
        true
    }

    /// Reduces a transactional test case: setup statements first, then
    /// session statements, preserving the oracle-supplied transaction
    /// bracketing and the savepoint pairing throughout. The statistics
    /// reuse the predicate-node fields for the session statement counts.
    pub fn reduce_txn(&mut self, case: &TxnCase) -> (TxnCase, ReductionStats) {
        let mut current = case.clone();
        let mut stats = ReductionStats {
            setup_before: case.setup.len(),
            predicate_nodes_before: case.statements.len(),
            ..ReductionStats::default()
        };

        // Phase 1: drop setup statements (last to first).
        let mut i = current.setup.len();
        while i > 0 {
            i -= 1;
            let mut candidate = current.clone();
            candidate.setup.remove(i);
            if self.reproduces_txn(&candidate) {
                current = candidate;
            }
        }

        // Phase 2: drop session statements (last to first). Dropping a
        // SAVEPOINT also drops every ROLLBACK TO and RELEASE that names it,
        // so a candidate is always a well-formed session.
        let mut i = current.statements.len();
        while i > 0 {
            i -= 1;
            let mut candidate = current.clone();
            let removed = candidate.statements.remove(i);
            if let Statement::Savepoint(name) = &removed {
                let key = name.to_ascii_lowercase();
                candidate.statements.retain(|s| {
                    !matches!(s,
                        Statement::RollbackTo(n) | Statement::ReleaseSavepoint(n)
                            if n.to_ascii_lowercase() == key)
                });
            }
            if !Self::savepoints_consistent(&candidate.statements) {
                continue;
            }
            if self.reproduces_txn(&candidate) {
                i = i.min(candidate.statements.len());
                current = candidate;
            }
        }

        stats.setup_after = current.setup.len();
        stats.predicate_nodes_after = current.statements.len();
        stats.checks = self.checks;
        (current, stats)
    }

    /// Checks whether a candidate schedule still reproduces the bug under
    /// the isolation oracle.
    fn reproduces_schedule(&mut self, case: &ScheduleCase) -> bool {
        if self.checks >= self.max_checks {
            return false;
        }
        self.checks += 1;
        check_isolation(self.conn, &case.schedule, &case.features, &case.setup)
            .outcome
            .is_bug()
    }

    /// Removes session `session`'s body statement `index` from a schedule,
    /// dropping exactly its step from the interleaving so the relative
    /// order of every surviving step (and the oracle-supplied `BEGIN` /
    /// closer bracketing) is preserved. Body statement `index` is the
    /// `(index + 1)`-th interleaving occurrence of the session (occurrence
    /// 0 is its `BEGIN`).
    fn drop_schedule_statement(schedule: &mut Schedule, session: usize, index: usize) {
        schedule.sessions[session].statements.remove(index);
        let mut seen = 0usize;
        let target = index + 1;
        let position = schedule
            .interleaving
            .iter()
            .position(|&s| {
                if s as usize == session {
                    let here = seen == target;
                    seen += 1;
                    here
                } else {
                    false
                }
            })
            .expect("well-formed interleaving covers every step");
        schedule.interleaving.remove(position);
    }

    /// Reduces a concurrent-schedule test case: setup statements first,
    /// then each session's body statements (last to first, session by
    /// session), preserving the bracketing and the interleaving's relative
    /// order throughout. The statistics reuse the predicate-node fields for
    /// the total session statement counts.
    pub fn reduce_schedule(&mut self, case: &ScheduleCase) -> (ScheduleCase, ReductionStats) {
        let mut current = case.clone();
        let body_len =
            |c: &ScheduleCase| c.schedule.sessions.iter().map(|s| s.statements.len()).sum();
        let mut stats = ReductionStats {
            setup_before: case.setup.len(),
            predicate_nodes_before: body_len(case),
            ..ReductionStats::default()
        };

        // Phase 1: drop setup statements (last to first).
        let mut i = current.setup.len();
        while i > 0 {
            i -= 1;
            let mut candidate = current.clone();
            candidate.setup.remove(i);
            if self.reproduces_schedule(&candidate) {
                current = candidate;
            }
        }

        // Phase 2: drop body statements per session (last to first).
        for session in 0..current.schedule.sessions.len() {
            let mut i = current.schedule.sessions[session].statements.len();
            while i > 0 {
                i -= 1;
                let mut candidate = current.clone();
                Self::drop_schedule_statement(&mut candidate.schedule, session, i);
                if self.reproduces_schedule(&candidate) {
                    current = candidate;
                }
            }
        }

        stats.setup_after = current.setup.len();
        stats.predicate_nodes_after = body_len(&current);
        stats.checks = self.checks;
        (current, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbms::{QueryResult, StatementOutcome};
    use sql_ast::{SelectItem, TableWithJoins, Value};

    /// A mock DBMS whose "bug" fires whenever the predicate SQL contains the
    /// token `NULLIF` — regardless of the setup statements, so the reducer
    /// should strip the setup entirely and shrink the predicate to the
    /// NULLIF-containing subtree.
    struct TokenBugDbms;

    impl DbmsConnection for TokenBugDbms {
        fn name(&self) -> &str {
            "token-bug"
        }
        fn execute(&mut self, _sql: &str) -> StatementOutcome {
            StatementOutcome::Success
        }
        fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
            // The "base" (no WHERE) query returns one row. Partition queries
            // return one row each when they contain NULLIF (so the union has
            // three rows — a mismatch), and behave consistently otherwise
            // (only the NOT-partition returns the row).
            let rows =
                if !sql.contains("WHERE") || sql.contains("NULLIF") || sql.contains("WHERE (NOT") {
                    vec![vec![Value::Integer(1)]]
                } else {
                    vec![]
                };
            Ok(QueryResult {
                columns: vec!["c0".into()],
                rows,
            })
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn reducer_strips_setup_and_shrinks_predicate() {
        let predicate = Expr::Function {
            func: sql_ast::ScalarFunction::Nullif,
            args: vec![Expr::integer(2), Expr::column("c0")],
        }
        .binary(sql_ast::BinaryOp::Neq, Expr::integer(1))
        .and(Expr::column("c0").eq(Expr::column("c0")));
        let query = Select {
            projections: vec![SelectItem::expr(Expr::column("c0"))],
            from: vec![TableWithJoins::table("t0")],
            where_clause: Some(predicate.clone()),
            ..Select::new()
        };
        let case = ReducibleCase {
            setup: vec![
                "CREATE TABLE t0 (c0 INT)".into(),
                "CREATE TABLE t_unused (c0 INT)".into(),
                "INSERT INTO t0 (c0) VALUES (1)".into(),
            ],
            query,
            predicate,
            oracle: OracleKind::Tlp,
            features: FeatureSet::new(),
        };
        let mut conn = TokenBugDbms;
        let mut reducer = BugReducer::new(&mut conn, 200);
        let (reduced, stats) = reducer.reduce(&case);
        // The mock bug does not depend on setup at all.
        assert!(reduced.setup.is_empty(), "{:?}", reduced.setup);
        // The predicate shrank to (a subtree containing) the NULLIF call.
        assert!(reduced.predicate.to_string().contains("NULLIF"));
        assert!(stats.predicate_nodes_after < stats.predicate_nodes_before);
        assert!(stats.checks > 0);
    }

    #[test]
    fn reducer_respects_check_budget() {
        let case = ReducibleCase {
            setup: (0..50)
                .map(|i| format!("CREATE TABLE t{i} (c0 INT)"))
                .collect(),
            query: Select {
                projections: vec![SelectItem::expr(Expr::column("c0"))],
                from: vec![TableWithJoins::table("t0")],
                where_clause: Some(Expr::column("c0").is_null()),
                ..Select::new()
            },
            predicate: Expr::column("c0").is_null(),
            oracle: OracleKind::Tlp,
            features: FeatureSet::new(),
        };
        let mut conn = TokenBugDbms;
        let mut reducer = BugReducer::new(&mut conn, 10);
        let (_, stats) = reducer.reduce(&case);
        assert!(stats.checks <= 10);
    }
}
