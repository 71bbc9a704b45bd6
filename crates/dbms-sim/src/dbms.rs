//! A simulated DBMS: engine + dialect profile + injected bugs.

use crate::bugs::{bugs_for_faults, InjectedBug};
use crate::profile::DialectProfile;
use sql_ast::{Select, Statement, StatementKind};
use sql_engine::{
    CoverageTracker, CowStats, Engine, EngineConfig, EngineSession, EvalStrategy, ExecutionMode,
    Fault, FaultConfig,
};
use sqlancer_core::{
    DbmsConnection, DialectQuirks, EngineCoverage, OracleCase, QueryResult, ScheduleCase,
    StateCheckpoint, StatementOutcome, StorageMetrics, TxnCase,
};
use std::sync::Arc;

/// A simulated DBMS under test: a dialect profile layered over the
/// in-memory engine, with a set of injected bugs as ground truth. The
/// engine's configuration is the one record of which faults are armed.
///
/// The DBMS owns a shared [`Engine`] core and drives it through a primary
/// [`SimulatedSession`], which does the dialect gating and keeps the
/// virtual clock; [`SimulatedDbms::connect`] opens additional sessions
/// over the same core, which is how the isolation oracle interleaves two
/// connections on one engine.
#[derive(Debug)]
pub struct SimulatedDbms {
    engine: Engine,
    /// The primary connection. Its profile is immutable for the DBMS's
    /// lifetime and shared with every session it opens and every clone of
    /// it; its clock is the DBMS's virtual clock.
    primary: SimulatedSession,
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
}

impl Clone for SimulatedDbms {
    /// Clones the committed state into an independent engine (open
    /// transactions of other sessions are not carried over) — the
    /// semantics ground-truth bisection relies on. With CoW storage the
    /// clone shares table versions until either side writes.
    fn clone(&self) -> SimulatedDbms {
        let engine = self.engine.clone();
        SimulatedDbms {
            primary: SimulatedSession {
                profile: Arc::clone(&self.primary.profile),
                session: engine.session(),
                ticks: self.primary.ticks,
            },
            engine,
            retired_cow: self.retired_cow,
            retired_coverage: self.retired_coverage,
        }
    }
}

impl SimulatedDbms {
    /// Creates a simulated DBMS from a profile and a set of engine faults
    /// (the injected bugs), using the default (compiled) expression
    /// evaluator.
    pub fn new(profile: impl Into<Arc<DialectProfile>>, faults: FaultConfig) -> SimulatedDbms {
        SimulatedDbms::with_eval(profile, faults, EvalStrategy::default())
    }

    /// Creates a simulated DBMS with an explicit expression evaluation
    /// strategy — [`EvalStrategy::TreeWalk`] is the reference arm of the
    /// compiled↔tree parity suite and the throughput benchmark.
    pub fn with_eval(
        profile: impl Into<Arc<DialectProfile>>,
        faults: FaultConfig,
        eval: EvalStrategy,
    ) -> SimulatedDbms {
        let profile = profile.into();
        let config = EngineConfig {
            typing: profile.typing,
            faults,
            eval,
        };
        SimulatedDbms::from_config(profile, config)
    }

    fn from_config(profile: Arc<DialectProfile>, config: EngineConfig) -> SimulatedDbms {
        let engine = Engine::new(config);
        SimulatedDbms {
            primary: SimulatedSession {
                profile,
                session: engine.session(),
                ticks: 0,
            },
            engine,
            retired_cow: CowStats::default(),
            retired_coverage: CoverageTracker::new(),
        }
    }

    /// The dialect profile.
    pub fn profile(&self) -> &DialectProfile {
        &self.primary.profile
    }

    /// The injected bugs, with their ground-truth metadata.
    pub fn injected_bugs(&self) -> Vec<InjectedBug> {
        bugs_for_faults(self.engine.config().faults)
    }

    /// The engine coverage reached over the DBMS's lifetime: the points of
    /// every engine [`DbmsConnection::reset`] and
    /// [`DbmsConnection::restore`] retired, plus the live engine's. Table 3
    /// reads it; bug reduction and recovery reset the engine, so the live
    /// engine's points alone under-count.
    pub fn coverage(&self) -> CoverageTracker {
        let mut tracker = self.retired_coverage;
        tracker.merge(&self.engine.committed().coverage_snapshot());
        tracker
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
            profile: Arc::clone(&self.primary.profile),
            session: self.engine.session(),
            ticks: 0,
        }
    }

    /// A copy of this DBMS with one fault disabled — the "fixed version"
    /// used for ground-truth bug identification.
    fn without_fault(&self, fault: Fault) -> SimulatedDbms {
        let mut config = self.engine.config();
        config.faults = config.faults.without(fault);
        SimulatedDbms::from_config(Arc::clone(&self.primary.profile), config)
    }

    /// Identifies which injected bugs a test case triggers, by replaying it
    /// against variants of this DBMS with one fault disabled at a time (the
    /// in-silico analogue of bisecting to a fix commit, which is how the
    /// paper establishes uniqueness on CrateDB in Section 5.5). Each replay
    /// rebuilds the case's own setup and runs its oracle
    /// ([`OracleCase::replay`]); a fault is a cause when the case flags a
    /// bug here but not on the variant without that fault.
    pub fn ground_truth_bugs<C: OracleCase>(&self, case: &C) -> Vec<&'static str> {
        let flags_bug = |mut dbms: SimulatedDbms| case.replay(&mut dbms).is_bug();
        if !flags_bug(self.clone()) {
            return Vec::new();
        }
        self.injected_bugs()
            .into_iter()
            .filter(|bug| !flags_bug(self.without_fault(bug.fault)))
            .map(|bug| bug.id)
            .collect()
    }

    /// [`SimulatedDbms::ground_truth_bugs`] for a transactional case.
    pub fn ground_truth_txn_bugs(&self, case: &TxnCase) -> Vec<&'static str> {
        self.ground_truth_bugs(case)
    }

    /// [`SimulatedDbms::ground_truth_bugs`] for a concurrent schedule.
    pub fn ground_truth_schedule_bugs(&self, case: &ScheduleCase) -> Vec<&'static str> {
        self.ground_truth_bugs(case)
    }
}

/// A connection over a [`SimulatedDbms`]'s engine: the DBMS's primary
/// connection, or an additional one opened with [`SimulatedDbms::connect`].
/// Every session applies the same dialect gating to the same committed
/// state and holds its own transaction state.
#[derive(Debug)]
pub struct SimulatedSession {
    profile: Arc<DialectProfile>,
    session: EngineSession,
    /// The owning DBMS's virtual clock, when this is its primary: one tick
    /// per statement and per query that passes gating, charged where the
    /// text path funnels into the AST path, so both paths cost identically.
    /// The DBMS's `reset` and `restore` replace the engine session but
    /// never rewind the clock. An opened session's count is never read: it
    /// reports the default clock of 0, so its statements do not advance the
    /// watchdog's.
    ticks: u64,
}

impl SimulatedSession {
    /// The dialect gate: the error text for the first feature the dialect
    /// does not support, if any.
    fn gate(&self, unsupported: Option<String>) -> Result<(), String> {
        match unsupported {
            Some(feature) => Err(format!(
                "{}: unsupported feature {feature}",
                self.profile.name
            )),
            None => Ok(()),
        }
    }
}

fn parse(sql: &str) -> Result<Statement, String> {
    sql_parser::parse_statement(sql).map_err(|err| format!("syntax error: {err}"))
}

impl DbmsConnection for SimulatedSession {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        match parse(sql) {
            Ok(stmt) => self.execute_ast(&stmt),
            Err(message) => StatementOutcome::Failure(message),
        }
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        match parse(sql)? {
            Statement::Select(select) => self.query_ast(&select),
            stmt => {
                self.gate(self.profile.first_unsupported(&stmt))?;
                Err("not a query".to_string())
            }
        }
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        // AST fast path: no lexing or parsing — the statement goes straight
        // into profile gating and the engine.
        self.ticks += 1;
        if let Err(message) = self.gate(self.profile.first_unsupported(stmt)) {
            return StatementOutcome::Failure(message);
        }
        match self.session.execute(stmt) {
            Ok(_) => StatementOutcome::Success,
            Err(err) => StatementOutcome::Failure(err.to_string()),
        }
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        // Gating traverses features in the same order as the statement
        // walk, so rejected queries produce byte-identical error messages
        // on both paths. Execution mirrors what `Statement::Select` does in
        // the engine (statement coverage plus the optimized pipeline)
        // without constructing a [`Statement`].
        self.gate(self.profile.first_unsupported_select(select))?;
        self.ticks += 1;
        self.session
            .record_coverage(|cov| cov.statement(StatementKind::Select));
        match self.session.query(select, ExecutionMode::Optimized) {
            Ok(rs) => Ok(QueryResult {
                columns: rs.columns,
                rows: rs.rows,
            }),
            Err(err) => Err(err.to_string()),
        }
    }

    /// A no-op for an opened session: only the owning [`SimulatedDbms`]
    /// may wipe the shared engine. (Oracles never reset the extra sessions
    /// they open.)
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
        self.primary.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        self.primary.execute(sql)
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.primary.query(sql)
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        self.primary.execute_ast(stmt)
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        self.primary.query_ast(select)
    }

    fn reset(&mut self) {
        // A fresh engine core: sessions opened over the previous core keep
        // their (now detached) shared state and die with it. The retired
        // engine's storage counters and coverage points fold into the
        // cumulative totals first.
        self.retired_cow.merge(&self.engine.cow_stats());
        self.retired_coverage
            .merge(&self.engine.committed().coverage_snapshot());
        self.engine = Engine::new(self.engine.config());
        self.primary.session = self.engine.session();
    }

    fn quirks(&self) -> DialectQuirks {
        self.primary.quirks()
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        // Extra sessions do not advance the primary connection's virtual
        // clock, which keeps the supervisor's watchdog accounting
        // single-sourced (mirrors [`crate::faulty::FaultyConnection`]).
        Some(Box::new(self.connect()))
    }

    fn virtual_ticks(&self) -> u64 {
        self.primary.ticks
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
        let mut coverage = EngineCoverage::default();
        for (plane, points) in self.coverage().planes() {
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
        self.primary.session = self.engine.session();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql_ast::{Expr, Select, SelectItem, TableWithJoins};
    use sql_engine::TypingMode;
    use sqlancer_core::{FeatureSet, OracleKind, ReducibleCase};

    fn permissive_with(faults: &[Fault]) -> SimulatedDbms {
        SimulatedDbms::new(
            DialectProfile::permissive("testdb", TypingMode::Dynamic),
            FaultConfig::of(faults),
        )
    }

    #[test]
    fn executes_sql_and_answers_queries() {
        let mut dbms = permissive_with(&[]);
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
        let mut dbms = SimulatedDbms::new(profile, FaultConfig::none());
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
        let dbms = permissive_with(&[Fault::BadNotElimination, Fault::BadBitwiseInversion]);
        let predicate = Expr::qualified_column("t0", "c0").eq(Expr::integer(1));
        let case = ReducibleCase {
            setup: vec![
                parse("CREATE TABLE t0 (c0 INTEGER)").unwrap(),
                parse("INSERT INTO t0 (c0) VALUES (1), (NULL)").unwrap(),
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
        let dbms = permissive_with(&[]);
        let case = ReducibleCase {
            setup: vec![parse("CREATE TABLE t0 (c0 INTEGER)").unwrap()],
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
