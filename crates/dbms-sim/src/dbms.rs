//! A simulated DBMS: engine + dialect profile + injected bugs.

use crate::bugs::{bugs_for_faults, InjectedBug};
use crate::profile::DialectProfile;
use sql_ast::{Select, Statement};
use sql_engine::{
    CoverageTracker, CowStats, Database, Engine, EngineConfig, EngineSession, EvalStrategy,
    ExecutionMode,
};
use sqlancer_core::{
    check_isolation, check_norec, check_rollback, check_tlp, DbmsConnection, DialectQuirks,
    EngineCoverage, OracleKind, OracleOutcome, QueryResult, ReducibleCase, ScheduleCase,
    StateCheckpoint, StatementOutcome, StorageMetrics, TxnCase,
};
use std::sync::Arc;

/// A simulated DBMS under test: a dialect profile layered over the
/// in-memory engine, with a set of injected bugs as ground truth.
///
/// The DBMS owns a shared [`Engine`] core and drives it through a primary
/// [`EngineSession`]; [`SimulatedDbms::connect`] opens additional sessions
/// over the same core, which is how the isolation oracle interleaves two
/// connections on one engine.
#[derive(Debug)]
pub struct SimulatedDbms {
    /// Immutable for the connection's lifetime and shared with every
    /// session it opens and every clone of it.
    profile: Arc<DialectProfile>,
    faults: Vec<&'static str>,
    engine: Engine,
    session: EngineSession,
    /// Storage counters accumulated from engines already retired by
    /// [`DbmsConnection::reset`]; the live engine's counters are added on
    /// read, so [`DbmsConnection::storage_metrics`] is cumulative for the
    /// connection's lifetime.
    retired_cow: CowStats,
    /// Coverage points accumulated from engines already retired by `reset`
    /// or `restore` — same lifecycle as `retired_cow`, so the coverage the
    /// connection reports is **monotone** for its whole lifetime (the
    /// contract [`DbmsConnection::engine_coverage`] demands: unions over
    /// polls must be independent of poll cadence).
    retired_coverage: CoverageTracker,
    /// Virtual clock: one tick per statement or query, charged at the
    /// shared funnel of the text and AST paths so both execution paths cost
    /// identically. Monotone for the connection's lifetime — `reset` and
    /// `restore` replace the engine but never rewind the clock, exactly
    /// like `retired_cow`.
    ticks: u64,
}

impl Clone for SimulatedDbms {
    /// Clones the committed state into an independent engine (open
    /// transactions of other sessions are not carried over) — the
    /// semantics ground-truth bisection relies on. With CoW storage the
    /// clone shares table versions until either side writes.
    fn clone(&self) -> SimulatedDbms {
        let engine = self.engine.clone();
        let session = engine.session();
        SimulatedDbms {
            profile: Arc::clone(&self.profile),
            faults: self.faults.clone(),
            engine,
            session,
            retired_cow: self.retired_cow,
            retired_coverage: self.retired_coverage.clone(),
            ticks: self.ticks,
        }
    }
}

impl SimulatedDbms {
    /// Creates a simulated DBMS from a profile and a set of engine fault
    /// names (the injected bugs), using the default (compiled) expression
    /// evaluator.
    pub fn new(
        profile: impl Into<Arc<DialectProfile>>,
        faults: Vec<&'static str>,
    ) -> SimulatedDbms {
        SimulatedDbms::with_eval(profile, faults, EvalStrategy::default())
    }

    /// Creates a simulated DBMS with an explicit expression evaluation
    /// strategy — [`EvalStrategy::TreeWalk`] is the reference arm of the
    /// compiled↔tree parity suite and the throughput benchmark.
    pub fn with_eval(
        profile: impl Into<Arc<DialectProfile>>,
        faults: Vec<&'static str>,
        eval: EvalStrategy,
    ) -> SimulatedDbms {
        let profile = profile.into();
        let engine = Engine::new(Self::engine_config(&profile, &faults, eval));
        let session = engine.session();
        SimulatedDbms {
            profile,
            faults,
            engine,
            session,
            retired_cow: CowStats::default(),
            retired_coverage: CoverageTracker::new(),
            ticks: 0,
        }
    }

    /// The evaluation strategy this DBMS's engine runs with. Read from the
    /// engine configuration (the single source of truth) so rebuilds in
    /// [`DbmsConnection::reset`] can never drift from it.
    fn eval(&self) -> EvalStrategy {
        self.engine.config().eval
    }

    fn engine_config(
        profile: &DialectProfile,
        faults: &[&'static str],
        eval: EvalStrategy,
    ) -> EngineConfig {
        let mut config = EngineConfig {
            typing: profile.typing,
            eval,
            ..EngineConfig::default()
        };
        for fault in faults {
            config.faults.enable(fault);
        }
        config
    }

    /// The dialect profile.
    pub fn profile(&self) -> &DialectProfile {
        &self.profile
    }

    /// The injected bugs, with their ground-truth metadata.
    pub fn injected_bugs(&self) -> Vec<InjectedBug> {
        bugs_for_faults(&self.faults)
    }

    /// The committed engine database (for inspection in experiments, e.g.
    /// coverage accounting for Table 3). Uncommitted session workspaces are
    /// not visible here.
    pub fn engine(&self) -> std::cell::Ref<'_, Database> {
        self.engine.committed()
    }

    /// Number of commit attempts the engine rejected with a serialization
    /// failure (first-committer-wins conflict aborts).
    pub fn conflict_aborts(&self) -> u64 {
        self.engine.conflict_aborts()
    }

    /// Opens an additional connection over the same engine. The returned
    /// session shares the committed state with this DBMS, holds its own
    /// transaction state, and applies the same dialect gating; its `reset`
    /// is a no-op (only the owning DBMS may wipe shared state).
    pub fn connect(&self) -> SimulatedSession {
        SimulatedSession {
            profile: Arc::clone(&self.profile),
            session: self.engine.session(),
        }
    }

    /// A copy of this DBMS with one fault disabled — the "fixed version"
    /// used for ground-truth bug identification.
    fn without_fault(&self, fault: &str) -> SimulatedDbms {
        let faults: Vec<&'static str> = self
            .faults
            .iter()
            .copied()
            .filter(|f| *f != fault)
            .collect();
        SimulatedDbms::with_eval(Arc::clone(&self.profile), faults, self.eval())
    }

    /// Executes a profile-gated query through the engine — the shared tail
    /// of the text path and the AST fast path. Mirrors what
    /// `Statement::Select` execution does in the engine (statement coverage
    /// plus the optimized pipeline) without constructing a [`Statement`].
    /// Charges one virtual tick: text and AST queries land here after
    /// identical gating, so both paths cost the same.
    fn run_query(&mut self, select: &Select) -> Result<QueryResult, String> {
        self.ticks += 1;
        run_session_query(&self.session, select)
    }

    /// Identifies which injected bugs a test case triggers, by replaying it
    /// against variants of this DBMS with one fault disabled at a time (the
    /// in-silico analogue of bisecting to a fix commit, which is how the
    /// paper establishes uniqueness on CrateDB in Section 5.5). `replay`
    /// runs the case's oracle on a DBMS; a fault is a cause when the case
    /// flags a bug here but not on the variant without that fault.
    fn bisect(&self, replay: impl Fn(&mut SimulatedDbms) -> OracleOutcome) -> Vec<&'static str> {
        let flags_bug = |dbms: &mut SimulatedDbms| matches!(replay(dbms), OracleOutcome::Bug(_));
        if !flags_bug(&mut self.clone()) {
            return Vec::new();
        }
        self.faults
            .iter()
            .filter(|&fault| !flags_bug(&mut self.without_fault(fault)))
            .filter_map(|fault| bugs_for_faults(&[fault]).first().map(|bug| bug.id))
            .collect()
    }

    /// Identifies which injected bugs a reduced TLP/NoREC test case
    /// triggers, by replaying it against variants of this DBMS with one
    /// fault disabled at a time. Each replay resets the DBMS and runs the
    /// case's setup first.
    pub fn ground_truth_bugs(&self, case: &ReducibleCase) -> Vec<&'static str> {
        self.bisect(|dbms| {
            dbms.reset();
            for sql in &case.setup {
                let _ = dbms.execute(sql);
            }
            match case.oracle {
                OracleKind::Tlp => check_tlp(
                    dbms,
                    &case.query,
                    &case.predicate,
                    &case.features,
                    &case.setup,
                ),
                OracleKind::NoRec => check_norec(
                    dbms,
                    &case.query,
                    &case.predicate,
                    &case.features,
                    &case.setup,
                ),
                // Rollback-oracle cases are transactional sessions
                // ([`TxnCase`]) and isolation cases are schedules
                // ([`ScheduleCase`]), each with its own ground truth.
                OracleKind::Rollback => {
                    OracleOutcome::Invalid("rollback cases replay as TxnCase".into())
                }
                OracleKind::Isolation => {
                    OracleOutcome::Invalid("isolation cases replay as ScheduleCase".into())
                }
            }
        })
    }

    /// [`SimulatedDbms::ground_truth_bugs`] for a transactional test case
    /// flagged by the rollback oracle.
    pub fn ground_truth_txn_bugs(&self, case: &TxnCase) -> Vec<&'static str> {
        self.bisect(|dbms| {
            check_rollback(
                dbms,
                &case.table,
                &case.statements,
                &case.features,
                &case.setup,
            )
        })
    }

    /// [`SimulatedDbms::ground_truth_bugs`] for a concurrent schedule
    /// flagged by the isolation oracle.
    pub fn ground_truth_schedule_bugs(&self, case: &ScheduleCase) -> Vec<&'static str> {
        self.bisect(|dbms| {
            check_isolation(dbms, &case.schedule, &case.features, &case.setup).outcome
        })
    }
}

/// Executes a profile-gated query through a session — the shared tail of
/// the text path and the AST fast path for both the primary connection and
/// the extra sessions [`SimulatedDbms::connect`] opens.
fn run_session_query(session: &EngineSession, select: &Select) -> Result<QueryResult, String> {
    session.record_coverage(|cov| cov.statement("STMT_SELECT"));
    match session.query(select, ExecutionMode::Optimized) {
        Ok(rs) => Ok(QueryResult {
            columns: rs.columns,
            rows: rs.rows,
        }),
        Err(err) => Err(err.to_string()),
    }
}

/// An additional connection over a [`SimulatedDbms`]'s engine, opened with
/// [`SimulatedDbms::connect`]: same dialect gating, same committed state,
/// independent transaction state.
#[derive(Debug)]
pub struct SimulatedSession {
    profile: Arc<DialectProfile>,
    session: EngineSession,
}

impl DbmsConnection for SimulatedSession {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        let stmt: Statement = match sql_parser::parse_statement(sql) {
            Ok(stmt) => stmt,
            Err(err) => return StatementOutcome::Failure(format!("syntax error: {err}")),
        };
        self.execute_ast(&stmt)
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        let stmt: Statement =
            sql_parser::parse_statement(sql).map_err(|e| format!("syntax error: {e}"))?;
        if let Some(feature) = self.profile.first_unsupported(&stmt) {
            return Err(format!(
                "{}: unsupported feature {feature}",
                self.profile.name
            ));
        }
        match &stmt {
            Statement::Select(select) => run_session_query(&self.session, select),
            _ => Err("not a query".to_string()),
        }
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        if let Some(feature) = self.profile.first_unsupported(stmt) {
            return StatementOutcome::Failure(format!(
                "{}: unsupported feature {feature}",
                self.profile.name
            ));
        }
        match self.session.execute(stmt) {
            Ok(_) => StatementOutcome::Success,
            Err(err) => StatementOutcome::Failure(err.to_string()),
        }
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        if let Some(feature) = self.profile.first_unsupported_select(select) {
            return Err(format!(
                "{}: unsupported feature {feature}",
                self.profile.name
            ));
        }
        run_session_query(&self.session, select)
    }

    /// A no-op: only the owning [`SimulatedDbms`] may wipe the shared
    /// engine. (Oracles never reset the extra sessions they open.)
    fn reset(&mut self) {}

    fn quirks(&self) -> DialectQuirks {
        DialectQuirks {
            requires_refresh: self.profile.requires_refresh,
            requires_commit: self.profile.requires_commit,
        }
    }
}

impl DbmsConnection for SimulatedDbms {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        let stmt: Statement = match sql_parser::parse_statement(sql) {
            Ok(stmt) => stmt,
            Err(err) => return StatementOutcome::Failure(format!("syntax error: {err}")),
        };
        self.execute_ast(&stmt)
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        let stmt: Statement =
            sql_parser::parse_statement(sql).map_err(|e| format!("syntax error: {e}"))?;
        if let Some(feature) = self.profile.first_unsupported(&stmt) {
            return Err(format!(
                "{}: unsupported feature {feature}",
                self.profile.name
            ));
        }
        match &stmt {
            Statement::Select(select) => self.run_query(select),
            _ => Err("not a query".to_string()),
        }
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        // AST fast path: no lexing or parsing — the statement goes straight
        // into profile gating and the engine. One tick per statement: the
        // text path funnels here after parsing, so both paths cost the same.
        self.ticks += 1;
        if let Some(feature) = self.profile.first_unsupported(stmt) {
            return StatementOutcome::Failure(format!(
                "{}: unsupported feature {feature}",
                self.profile.name
            ));
        }
        match self.session.execute(stmt) {
            Ok(_) => StatementOutcome::Success,
            Err(err) => StatementOutcome::Failure(err.to_string()),
        }
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        // Gating traverses features in the same order as the text path, so
        // rejected queries produce byte-identical error messages.
        if let Some(feature) = self.profile.first_unsupported_select(select) {
            return Err(format!(
                "{}: unsupported feature {feature}",
                self.profile.name
            ));
        }
        self.run_query(select)
    }

    fn reset(&mut self) {
        // A fresh engine core: sessions opened over the previous core keep
        // their (now detached) shared state and die with it. The retired
        // engine's storage counters and coverage points fold into the
        // cumulative totals first.
        self.retired_cow.merge(&self.engine.cow_stats());
        self.retired_coverage
            .merge(&self.engine.committed().coverage_snapshot());
        self.engine = Engine::new(Self::engine_config(
            &self.profile,
            &self.faults,
            self.eval(),
        ));
        self.session = self.engine.session();
    }

    fn quirks(&self) -> DialectQuirks {
        DialectQuirks {
            requires_refresh: self.profile.requires_refresh,
            requires_commit: self.profile.requires_commit,
        }
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        // Extra sessions do not advance the primary connection's virtual
        // clock, which keeps the supervisor's watchdog accounting
        // single-sourced (mirrors [`crate::faulty::FaultyConnection`]).
        Some(Box::new(self.connect()))
    }

    fn virtual_ticks(&self) -> u64 {
        self.ticks
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        let mut cow = self.retired_cow;
        cow.merge(&self.engine.cow_stats());
        Ok(Some(StorageMetrics {
            txn_begins: cow.txn_begins,
            tables_snapshotted: cow.tables_snapshotted,
            tables_cow_cloned: cow.tables_cow_cloned,
            conflicts_avoided: cow.conflicts_avoided,
        }))
    }

    fn engine_coverage(&self) -> Option<EngineCoverage> {
        let mut tracker = self.retired_coverage.clone();
        tracker.merge(&self.engine.committed().coverage_snapshot());
        let mut coverage = EngineCoverage::default();
        for (plane, points) in [
            ("plan_operators", &tracker.plan_operators),
            ("functions", &tracker.functions),
            ("operators", &tracker.operators),
            ("coercions", &tracker.coercions),
            ("statements", &tracker.statements),
        ] {
            for point in points.iter() {
                coverage.record(plane, point);
            }
        }
        Some(coverage)
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        // An O(tables) CoW engine clone with zeroed counters: restoring
        // must not re-report storage work the live engine already counted.
        Some(StateCheckpoint(Box::new(self.engine.checkpoint_clone())))
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        let Some(engine) = checkpoint.0.downcast_ref::<Engine>() else {
            return false;
        };
        // The replaced engine's counters fold into the cumulative total,
        // exactly like `reset`; the restored clone starts from zero (its
        // coverage rewinds to the checkpoint's, so folding the live
        // engine's points first is what keeps the report monotone).
        self.retired_cow.merge(&self.engine.cow_stats());
        self.retired_coverage
            .merge(&self.engine.committed().coverage_snapshot());
        self.engine = engine.clone();
        self.session = self.engine.session();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql_ast::{Expr, Select, SelectItem, TableWithJoins};
    use sql_engine::TypingMode;
    use sqlancer_core::FeatureSet;

    fn permissive_with(faults: Vec<&'static str>) -> SimulatedDbms {
        SimulatedDbms::new(
            DialectProfile::permissive("testdb", TypingMode::Dynamic),
            faults,
        )
    }

    #[test]
    fn executes_sql_and_answers_queries() {
        let mut dbms = permissive_with(vec![]);
        assert!(dbms.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
        assert!(dbms
            .execute("INSERT INTO t0 (c0) VALUES (1), (2)")
            .is_success());
        let rs = dbms.query("SELECT c0 FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(rs.row_count(), 1);
        assert!(dbms.query("SELECT broken FROM").is_err());
        dbms.reset();
        assert!(
            dbms.query("SELECT c0 FROM t0").is_err(),
            "reset drops state"
        );
    }

    #[test]
    fn profile_gating_rejects_unsupported_features() {
        let profile = DialectProfile::permissive("no-index", TypingMode::Dynamic)
            .without(&["STMT_CREATE_INDEX", "FN_SIN"]);
        let mut dbms = SimulatedDbms::new(profile, vec![]);
        dbms.execute("CREATE TABLE t0 (c0 INTEGER)");
        assert!(!dbms.execute("CREATE INDEX i0 ON t0(c0)").is_success());
        assert!(dbms.query("SELECT SIN(c0) FROM t0").is_err());
        assert!(dbms.query("SELECT COS(c0) FROM t0").is_ok());
    }

    #[test]
    fn ground_truth_identifies_the_injected_bug() {
        // A NULL-dropping NOT-elimination bug, replayed as a reducible test
        // case against a DBMS with two injected faults: only the
        // NOT-elimination fault is identified as the cause (the analogue of
        // bisecting a CrateDB bug to its fix commit in Section 5.5).
        let dbms = permissive_with(vec!["bad_not_elimination", "bad_bitwise_inversion"]);
        let predicate = Expr::qualified_column("t0", "c0").eq(Expr::integer(1));
        let case = ReducibleCase {
            setup: vec![
                "CREATE TABLE t0 (c0 INTEGER)".to_string(),
                "INSERT INTO t0 (c0) VALUES (1), (NULL)".to_string(),
            ],
            query: Select {
                projections: vec![SelectItem::Wildcard],
                from: vec![TableWithJoins::table("t0")],
                where_clause: Some(predicate.clone()),
                ..Select::new()
            },
            predicate,
            oracle: OracleKind::Tlp,
            features: FeatureSet::new(),
        };
        let causes = dbms.ground_truth_bugs(&case);
        assert_eq!(causes, vec!["BUG-NOT-NULL-SEMANTICS"]);
    }

    #[test]
    fn fault_free_dbms_has_no_ground_truth_bugs() {
        let dbms = permissive_with(vec![]);
        let case = ReducibleCase {
            setup: vec!["CREATE TABLE t0 (c0 INTEGER)".to_string()],
            query: Select {
                projections: vec![SelectItem::Wildcard],
                from: vec![TableWithJoins::table("t0")],
                where_clause: Some(Expr::column("c0").is_null()),
                ..Select::new()
            },
            predicate: Expr::column("c0").is_null(),
            oracle: OracleKind::Tlp,
            features: FeatureSet::new(),
        };
        assert!(dbms.ground_truth_bugs(&case).is_empty());
    }
}
