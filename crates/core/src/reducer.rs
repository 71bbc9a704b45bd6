//! Kept test cases and their reduction.
//!
//! Every test case the campaign checks is one of three [`OracleCase`]
//! types: a single query ([`ReducibleCase`], TLP or NoREC), a
//! transactional session ([`TxnCase`], the rollback oracle) or a
//! concurrent schedule ([`ScheduleCase`], the isolation oracle). Each type
//! owns the one call that checks it, so the campaign, the reducer and
//! ground-truth bisection all re-run a case through [`OracleCase::check`]
//! or [`OracleCase::replay`].
//!
//! A case's setup is typed, like the campaign's setup log it is copied
//! from: the campaign copies the log into a case only when the
//! prioritizer keeps it, and every replay hands the backend those
//! statements through [`DbmsConnection::execute_ast`]. Setup SQL text is
//! produced only where a case leaves the program: its JSON encoding
//! (reports and checkpoints) and text-only backends.
//!
//! Before a bug-inducing test case is handed to a human (or counted in the
//! experiments), SQLancer++ reduces it ([`BugReducer::reduce`]): statements
//! that are not needed to reproduce the discrepancy are removed, and the
//! oracle verdict is re-validated after every candidate simplification.
//! Every kind first drops setup statements, last to first; then each kind
//! shrinks its own body:
//!
//! * a query case replaces its predicate with each of its children (a
//!   simple syntactic delta-debugging pass);
//! * a transactional session drops session mutations one at a time. The
//!   `BEGIN`/`COMMIT`/`ROLLBACK` bracketing is supplied by the oracle
//!   itself and therefore can never be reduced away, and `SAVEPOINT` /
//!   `ROLLBACK TO` / `RELEASE SAVEPOINT` pairs are kept consistent: a
//!   candidate that would orphan a `ROLLBACK TO` or `RELEASE` is never
//!   proposed, and dropping a `SAVEPOINT` drops its dependents in the same
//!   candidate;
//! * a concurrent schedule drops per-session body statements one at a
//!   time. Dropping a body statement removes exactly its step from the
//!   explicit interleaving, so the session bracketing (`BEGIN` and the
//!   closer, which are oracle-supplied) and the **relative order** of every
//!   surviving step are preserved — a reduced schedule is always a
//!   subsequence of the original interleaving.

use crate::campaign::CampaignReport;
use crate::dbms::{replay_setup, DbmsConnection};
use crate::feature::FeatureSet;
use crate::json::{json_name, json_record};
use crate::oracle::{
    check_isolation, check_norec, check_rollback, check_tlp, render_session, CaseVerdict,
    OracleKind, OracleOutcome, Schedule,
};
use sql_ast::{Expr, Select, Statement};

/// A test case in replayable form, and the one contract the campaign, the
/// reducer and ground-truth bisection share: check it, prioritize it,
/// reduce it, record it, bisect it.
///
/// The campaign builds each case at generation with an empty setup, checks
/// it against its setup log, and copies the log into the case (and its bug
/// report) only when the prioritizer keeps it.
pub trait OracleCase: Clone {
    /// The oracle that checks the case.
    fn oracle(&self) -> OracleKind;
    /// The feature set recorded at generation time.
    fn features(&self) -> &FeatureSet;
    /// The statements that build the case's database state.
    fn setup(&self) -> &[Statement];
    /// The setup, for the reducer to drop statements from.
    fn setup_mut(&mut self) -> &mut Vec<Statement>;
    /// The size of the case's own body: predicate AST nodes, or session
    /// statements (the `predicate_nodes_*` fields of [`ReductionStats`]).
    fn body_size(&self) -> usize;
    /// Setup plus case statements, for reduction telemetry.
    fn statement_count(&self) -> usize {
        self.setup().len() + self.body_size()
    }
    /// Runs the case's oracle against `setup`. The single-query oracles
    /// expect the connection to hold `setup`'s state already; the stateful
    /// ones rebuild it themselves and restore it before returning.
    fn check(&self, conn: &mut dyn DbmsConnection, setup: &[Statement]) -> CaseVerdict;
    /// Rebuilds the case's own setup and re-runs its oracle: the one replay
    /// behind reduction and ground-truth bisection.
    fn replay(&self, conn: &mut dyn DbmsConnection) -> OracleOutcome {
        self.check(conn, self.setup()).outcome
    }
    /// Shrinks the case's body while `reducer` still reproduces the bug
    /// (the phase after the shared setup phase of [`BugReducer::reduce`]).
    fn reduce_body(self, reducer: &mut BugReducer<'_>) -> Self;
    /// The report's queries, rendered with any oracle bracketing and probes
    /// so the report stays replayable verbatim.
    fn replay_queries(&self) -> Vec<String>;
    /// Files the case in the report's list for its oracle.
    fn record(self, report: &mut CampaignReport);
}

/// A reducible bug-inducing test case: the database-construction statements
/// plus the query and predicate the oracle flagged.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducibleCase {
    /// The statements that build the database state.
    pub setup: Vec<Statement>,
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

impl OracleCase for ReducibleCase {
    fn oracle(&self) -> OracleKind {
        self.oracle
    }
    fn features(&self) -> &FeatureSet {
        &self.features
    }
    fn setup(&self) -> &[Statement] {
        &self.setup
    }
    fn setup_mut(&mut self) -> &mut Vec<Statement> {
        &mut self.setup
    }
    fn body_size(&self) -> usize {
        self.predicate.node_count()
    }
    /// The query counts as one statement, whatever its predicate's size.
    fn statement_count(&self) -> usize {
        self.setup.len() + 1
    }
    /// NoREC checks a case tagged with it; TLP checks every other query
    /// case (the campaign's stateful slots fall back to TLP queries).
    /// The single-query oracles read the connection's state as it is, so
    /// `setup` is not replayed here.
    fn check(&self, conn: &mut dyn DbmsConnection, _setup: &[Statement]) -> CaseVerdict {
        let (query, predicate, features) = (&self.query, &self.predicate, &self.features);
        CaseVerdict::from(match self.oracle {
            OracleKind::NoRec => check_norec(conn, query, predicate, features),
            _ => check_tlp(conn, query, predicate, features),
        })
    }
    /// The single-query oracles read the connection's state as it is, so
    /// the replay rebuilds it first. Failed setup statements are tolerated
    /// (the remaining ones may still reproduce the bug), but an
    /// infrastructure failure leaves a half-built state no verdict may be
    /// taken on: the replay is then invalid.
    fn replay(&self, conn: &mut dyn DbmsConnection) -> OracleOutcome {
        match replay_setup(conn, &self.setup) {
            Ok(()) => self.check(conn, &self.setup).outcome,
            Err(message) => OracleOutcome::Invalid(message),
        }
    }
    /// Replaces the predicate with each of its children (transitively)
    /// while the bug still reproduces.
    fn reduce_body(mut self, reducer: &mut BugReducer<'_>) -> Self {
        loop {
            let children: Vec<Expr> = self.predicate.children().into_iter().cloned().collect();
            let mut replaced = false;
            for child in children {
                let mut candidate = self.clone();
                candidate.predicate = child.clone();
                candidate.query.where_clause = Some(child);
                if reducer.reproduces(&candidate) {
                    self = candidate;
                    replaced = true;
                    break;
                }
            }
            if !replaced {
                return self;
            }
        }
    }
    fn replay_queries(&self) -> Vec<String> {
        vec![self.query.to_string()]
    }
    fn record(self, report: &mut CampaignReport) {
        report.prioritized_cases.push(self);
    }
}

/// A reducible transactional test case: the setup plus the mutation session
/// the rollback oracle flagged (the oracle re-adds the outer transaction
/// bracketing on every re-validation).
#[derive(Debug, Clone, PartialEq)]
pub struct TxnCase {
    /// The statements that build the database state.
    pub setup: Vec<Statement>,
    /// The table the session mutates (and the oracle fingerprints).
    pub table: String,
    /// The session body: DML and `SAVEPOINT`/`ROLLBACK TO` statements.
    pub statements: Vec<Statement>,
    /// The feature set recorded at generation time — always includes the
    /// transaction-control statement features, which is how the Bayesian
    /// support model learns per-dialect transaction support.
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
        let mut out = render_session(&self.table, &self.statements, Statement::Rollback);
        out.extend(render_session(
            &self.table,
            &self.statements,
            Statement::Commit,
        ));
        out
    }
}

impl OracleCase for TxnCase {
    fn oracle(&self) -> OracleKind {
        OracleKind::Rollback
    }
    fn features(&self) -> &FeatureSet {
        &self.features
    }
    fn setup(&self) -> &[Statement] {
        &self.setup
    }
    fn setup_mut(&mut self) -> &mut Vec<Statement> {
        &mut self.setup
    }
    fn body_size(&self) -> usize {
        self.statements.len()
    }
    fn check(&self, conn: &mut dyn DbmsConnection, setup: &[Statement]) -> CaseVerdict {
        CaseVerdict::from(check_rollback(
            conn,
            &self.table,
            &self.statements,
            &self.features,
            setup,
        ))
    }
    /// Drops session statements, last to first. Dropping a `SAVEPOINT`
    /// also drops every `ROLLBACK TO` and `RELEASE` that names it, so a
    /// candidate is always a well-formed session.
    fn reduce_body(mut self, reducer: &mut BugReducer<'_>) -> Self {
        let mut i = self.statements.len();
        while i > 0 {
            i -= 1;
            let mut candidate = self.clone();
            let removed = candidate.statements.remove(i);
            if let Statement::Savepoint(name) = &removed {
                let key = name.to_ascii_lowercase();
                candidate.statements.retain(|s| {
                    !matches!(s,
                        Statement::RollbackTo(n) | Statement::ReleaseSavepoint(n)
                            if n.to_ascii_lowercase() == key)
                });
            }
            if !savepoints_consistent(&candidate.statements) {
                continue;
            }
            if reducer.reproduces(&candidate) {
                i = i.min(candidate.statements.len());
                self = candidate;
            }
        }
        self
    }
    fn replay_queries(&self) -> Vec<String> {
        self.replay_script()
    }
    fn record(self, report: &mut CampaignReport) {
        report.txn_cases.push(self);
    }
}

/// Whether every `ROLLBACK TO` / `RELEASE SAVEPOINT` in the session still
/// has a matching earlier `SAVEPOINT` — candidates violating this would
/// turn the bug into an unrelated "no such savepoint" error, so they are
/// never proposed. `RELEASE` retires its savepoint (and every later one),
/// mirroring the engine's frame merge.
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

/// A reducible concurrent-schedule test case: the setup plus the two-session
/// schedule the isolation oracle flagged (the oracle re-runs the schedule's
/// explicit interleaving on every re-validation).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleCase {
    /// The statements that build the database state.
    pub setup: Vec<Statement>,
    /// The concurrent schedule: session scripts plus the interleaving.
    pub schedule: Schedule,
    /// The feature set recorded at generation time (transaction-control
    /// features included, so dialect transaction support is learned from
    /// schedule outcomes too).
    pub features: FeatureSet,
}

json_record!(struct ScheduleCase { setup, schedule, features });

impl OracleCase for ScheduleCase {
    fn oracle(&self) -> OracleKind {
        OracleKind::Isolation
    }
    fn features(&self) -> &FeatureSet {
        &self.features
    }
    fn setup(&self) -> &[Statement] {
        &self.setup
    }
    fn setup_mut(&mut self) -> &mut Vec<Statement> {
        &mut self.setup
    }
    fn body_size(&self) -> usize {
        self.schedule
            .sessions
            .iter()
            .map(|session| session.statements.len())
            .sum()
    }
    fn check(&self, conn: &mut dyn DbmsConnection, setup: &[Statement]) -> CaseVerdict {
        check_isolation(conn, &self.schedule, &self.features, setup)
    }
    /// Drops each session's body statements, last to first, session by
    /// session.
    fn reduce_body(mut self, reducer: &mut BugReducer<'_>) -> Self {
        for session in 0..self.schedule.sessions.len() {
            let mut i = self.schedule.sessions[session].statements.len();
            while i > 0 {
                i -= 1;
                let mut candidate = self.clone();
                drop_schedule_statement(&mut candidate.schedule, session, i);
                if reducer.reproduces(&candidate) {
                    self = candidate;
                }
            }
        }
        self
    }
    fn replay_queries(&self) -> Vec<String> {
        self.schedule.replay_script()
    }
    fn record(self, report: &mut CampaignReport) {
        report.schedule_cases.push(self);
    }
}

/// Removes session `session`'s body statement `index` from a schedule,
/// dropping exactly its step from the interleaving so the relative order of
/// every surviving step (and the oracle-supplied `BEGIN` / closer
/// bracketing) is preserved. Body statement `index` is the `(index + 1)`-th
/// interleaving occurrence of the session (occurrence 0 is its `BEGIN`).
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

/// Statistics about a reduction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Setup statements before/after.
    pub setup_before: usize,
    /// Setup statements after reduction.
    pub setup_after: usize,
    /// Body size before reduction: predicate AST nodes for a query case,
    /// session statements for a transactional or concurrent case.
    pub predicate_nodes_before: usize,
    /// Body size after reduction.
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

    /// Whether a candidate case still reproduces the bug. Every call counts
    /// against the check budget; once it is spent, no candidate does.
    fn reproduces<C: OracleCase>(&mut self, case: &C) -> bool {
        if self.checks >= self.max_checks {
            return false;
        }
        self.checks += 1;
        case.replay(self.conn).is_bug()
    }

    /// Runs the reduction. Returns the reduced case and statistics; the
    /// returned case is guaranteed to still reproduce the bug (or, if the
    /// budget ran out, to be the best known reproducer).
    pub fn reduce<C: OracleCase>(&mut self, case: &C) -> (C, ReductionStats) {
        let mut current = case.clone();
        // Phase 1: drop setup statements one at a time (last to first, so
        // that later statements which depend on earlier ones go first).
        let mut i = current.setup().len();
        while i > 0 {
            i -= 1;
            let mut candidate = current.clone();
            candidate.setup_mut().remove(i);
            if self.reproduces(&candidate) {
                current = candidate;
            }
        }
        // Phase 2: the kind's own body.
        let current = current.reduce_body(self);
        let stats = ReductionStats {
            setup_before: case.setup().len(),
            setup_after: current.setup().len(),
            predicate_nodes_before: case.body_size(),
            predicate_nodes_after: current.body_size(),
            checks: self.checks,
        };
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

    fn parse(sql: &str) -> Statement {
        sql_parser::parse_statement(sql).expect("test setup parses")
    }

    /// A three-statement setup and a NULLIF predicate [`TokenBugDbms`]
    /// flags.
    fn nullif_case() -> ReducibleCase {
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
        ReducibleCase {
            setup: vec![
                parse("CREATE TABLE t0 (c0 INT)"),
                parse("CREATE TABLE t_unused (c0 INT)"),
                parse("INSERT INTO t0 (c0) VALUES (1)"),
            ],
            query,
            predicate,
            oracle: OracleKind::Tlp,
            features: FeatureSet::new(),
        }
    }

    #[test]
    fn reducer_strips_setup_and_shrinks_predicate() {
        let case = nullif_case();
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
                .map(|i| parse(&format!("CREATE TABLE t{i} (c0 INT)")))
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

    /// [`TokenBugDbms`] with one setup statement garbled in transit.
    struct GarblingDbms;

    impl DbmsConnection for GarblingDbms {
        fn name(&self) -> &str {
            "garbling"
        }
        fn execute(&mut self, sql: &str) -> StatementOutcome {
            if sql.starts_with("INSERT") {
                StatementOutcome::Failure(format!(
                    "{} result checksum mismatch",
                    crate::INFRA_MARKER
                ))
            } else {
                StatementOutcome::Success
            }
        }
        fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
            TokenBugDbms.query(sql)
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn query_case_replay_takes_no_verdict_on_a_half_built_state() {
        let case = nullif_case();
        // Intact, the replay reports the TLP mismatch...
        assert!(case.replay(&mut TokenBugDbms).is_bug());
        // ...but a garbled setup statement leaves the state half-built, and
        // the mismatch must not count as a reproduction.
        let OracleOutcome::Invalid(message) = case.replay(&mut GarblingDbms) else {
            panic!("a verdict was taken on a half-built state");
        };
        assert!(message.contains(crate::INFRA_MARKER), "{message}");
    }
}
