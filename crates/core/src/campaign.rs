//! The end-to-end testing campaign (Figure 2).
//!
//! A campaign repeatedly (1) builds a database state with generated DDL/DML,
//! (2) generates random queries, (3) applies the configured oracles,
//! (4) records validity feedback, (5) reduces and prioritizes bug-inducing
//! test cases, and (6) reports metrics — the same pipeline the paper runs
//! against each DBMS.

use crate::dbms::{DbmsConnection, StorageMetrics};
use crate::feature::FeatureSet;
use crate::generator::{AdaptiveGenerator, GeneratorConfig};
use crate::json::json_record;
use crate::oracle::{BugReport, OracleKind, OracleOutcome};
use crate::prioritizer::{BugPrioritizer, PriorityDecision};
use crate::reducer::{BugReducer, OracleCase, ReducibleCase, ScheduleCase, TxnCase};
use crate::resume::{save_checkpoint, CampaignCheckpoint};
use crate::stats::FeatureKind;
use crate::supervisor::{
    CampaignIncident, IncidentKind, RobustnessCounters, Supervisor, SupervisorConfig,
};
use crate::trace::{emit_backend, FlushReason, TraceEventKind, TraceHandle, TracedConnection};
use sql_ast::{fnv1a64, splitmix64, Statement};

/// Configuration of a testing campaign.
///
/// Construct with [`CampaignConfig::builder`]: the struct is
/// `#[non_exhaustive]`, so downstream crates cannot use struct literals
/// (fields may be added between releases without breaking them). Existing
/// fields remain `pub` for read/mutate access.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Seed for the generator's RNG.
    pub seed: u64,
    /// Generator configuration (feedback on/off, depth schedule, ...).
    pub generator: GeneratorConfig,
    /// Database states to build over the course of the campaign.
    pub databases: usize,
    /// DDL/DML statements issued per database state.
    pub ddl_per_database: usize,
    /// Queries (test cases) issued per database state.
    pub queries_per_database: usize,
    /// The oracles to alternate between.
    pub oracles: Vec<OracleKind>,
    /// Whether to reduce prioritized bug-inducing test cases.
    pub reduce_bugs: bool,
    /// Budget of oracle re-validations per reduction.
    pub max_reduction_checks: usize,
    /// Coverage-directed mode: features the current database's cases have
    /// not exercised yet get a seed-stable weight boost in generation (the
    /// boost derives from the case seed — no wall clock), re-aiming the
    /// generator at cold regions. Off by default; the A/B knob that compares
    /// directed vs. uniform time-to-coverage.
    pub coverage_directed: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0,
            generator: GeneratorConfig::default(),
            databases: 5,
            ddl_per_database: 12,
            queries_per_database: 200,
            oracles: vec![OracleKind::Tlp, OracleKind::NoRec],
            reduce_bugs: true,
            max_reduction_checks: 64,
            coverage_directed: false,
        }
    }
}

impl CampaignConfig {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            config: CampaignConfig::default(),
        }
    }
}

/// Builder for [`CampaignConfig`] (see [`CampaignConfig::builder`]).
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    config: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Seed for the generator's RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Generator configuration (feedback on/off, depth schedule, ...).
    pub fn generator(mut self, generator: GeneratorConfig) -> Self {
        self.config.generator = generator;
        self
    }

    /// Database states to build over the course of the campaign.
    pub fn databases(mut self, databases: usize) -> Self {
        self.config.databases = databases;
        self
    }

    /// DDL/DML statements issued per database state.
    pub fn ddl_per_database(mut self, ddl: usize) -> Self {
        self.config.ddl_per_database = ddl;
        self
    }

    /// Queries (test cases) issued per database state.
    pub fn queries_per_database(mut self, queries: usize) -> Self {
        self.config.queries_per_database = queries;
        self
    }

    /// Alias for [`queries_per_database`](Self::queries_per_database):
    /// test cases per database state.
    pub fn cases(self, cases: usize) -> Self {
        self.queries_per_database(cases)
    }

    /// The oracles to alternate between.
    pub fn oracles(mut self, oracles: Vec<OracleKind>) -> Self {
        self.config.oracles = oracles;
        self
    }

    /// Whether to reduce prioritized bug-inducing test cases.
    pub fn reduce_bugs(mut self, reduce: bool) -> Self {
        self.config.reduce_bugs = reduce;
        self
    }

    /// Budget of oracle re-validations per reduction.
    pub fn max_reduction_checks(mut self, checks: usize) -> Self {
        self.config.max_reduction_checks = checks;
        self
    }

    /// Coverage-directed mode: boost generation of features the current
    /// database's cases have not exercised yet (seed-stable weights, see
    /// [`CampaignConfig::coverage_directed`]).
    pub fn coverage_directed(mut self, directed: bool) -> Self {
        self.config.coverage_directed = directed;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> CampaignConfig {
        self.config
    }
}

/// Aggregate metrics of a campaign, mirroring the quantities reported in
/// Tables 2, 4 and 5 of the paper. The case counts (`test_cases` through
/// `isolation_schedules`) are folded from the campaign's events by
/// [`crate::Ledger::fold`]; the campaign writes the rest directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignMetrics {
    /// DDL/DML statements sent to the DBMS.
    pub ddl_statements: u64,
    /// DDL/DML statements that executed successfully.
    pub ddl_successes: u64,
    /// Oracle test cases executed (each involves several queries).
    pub test_cases: u64,
    /// Test cases whose derived queries all executed successfully.
    pub valid_test_cases: u64,
    /// Bug-inducing test cases detected (before prioritization).
    pub detected_bug_cases: u64,
    /// Bug-inducing test cases kept by the prioritizer.
    pub prioritized_bugs: u64,
    /// Bug-inducing test cases marked as potential duplicates.
    pub deduplicated_bugs: u64,
    /// Concurrent schedules executed by the isolation oracle.
    pub isolation_schedules: u64,
    /// Commits rejected by the DBMS's write-write conflict detection during
    /// isolation-oracle schedules (first-committer-wins aborts — a
    /// legitimate outcome, reported as the conflict-abort rate).
    pub conflict_aborts: u64,
    /// `BEGIN` snapshots the backend's engine took over the campaign
    /// (zero for backends that expose no storage metrics).
    pub txn_begins: u64,
    /// Table versions shared into those snapshots by pointer.
    pub tables_snapshotted: u64,
    /// Table versions actually deep-cloned on first write (CoW detaches) —
    /// the snapshot work the copy-on-write storage could not avoid.
    pub tables_cow_cloned: u64,
    /// Commits admitted by row-range write intent that table-level
    /// first-committer-wins validation would have aborted.
    pub conflicts_avoided: u64,
}

json_record!(struct CampaignMetrics {
    ddl_statements, ddl_successes, test_cases, valid_test_cases, detected_bug_cases,
    prioritized_bugs, deduplicated_bugs, isolation_schedules, conflict_aborts, txn_begins,
    tables_snapshotted, tables_cow_cloned, conflicts_avoided
});

impl CampaignMetrics {
    /// Validity rate of oracle test cases (Table 4).
    pub fn validity_rate(&self) -> f64 {
        if self.test_cases == 0 {
            return 0.0;
        }
        self.valid_test_cases as f64 / self.test_cases as f64
    }

    /// Accumulates another campaign's metrics into this one (used by the
    /// fleet runner to report fleet-wide totals).
    pub fn merge(&mut self, other: &CampaignMetrics) {
        self.ddl_statements += other.ddl_statements;
        self.ddl_successes += other.ddl_successes;
        self.test_cases += other.test_cases;
        self.valid_test_cases += other.valid_test_cases;
        self.detected_bug_cases += other.detected_bug_cases;
        self.prioritized_bugs += other.prioritized_bugs;
        self.deduplicated_bugs += other.deduplicated_bugs;
        self.isolation_schedules += other.isolation_schedules;
        self.conflict_aborts += other.conflict_aborts;
        self.txn_begins += other.txn_begins;
        self.tables_snapshotted += other.tables_snapshotted;
        self.tables_cow_cloned += other.tables_cow_cloned;
        self.conflicts_avoided += other.conflicts_avoided;
    }

    /// Fraction of isolation-oracle schedules in which at least one commit
    /// was rejected by conflict detection. (Schedules can abort more than
    /// once only with more than two sessions, so this is a rate in
    /// practice.)
    pub fn conflict_abort_rate(&self) -> f64 {
        if self.isolation_schedules == 0 {
            return 0.0;
        }
        self.conflict_aborts as f64 / self.isolation_schedules as f64
    }

    /// Validity rate of DDL/DML statements.
    pub fn ddl_validity_rate(&self) -> f64 {
        if self.ddl_statements == 0 {
            return 0.0;
        }
        self.ddl_successes as f64 / self.ddl_statements as f64
    }

    /// Fraction of snapshotted table versions that were actually
    /// deep-cloned (lower is better; `BEGIN` work CoW storage avoided is
    /// `1 - rate`).
    pub fn cow_clone_rate(&self) -> f64 {
        if self.tables_snapshotted == 0 {
            return 0.0;
        }
        self.tables_cow_cloned as f64 / self.tables_snapshotted as f64
    }
}

/// The report produced by a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// The DBMS the campaign ran against.
    pub dbms_name: String,
    /// Aggregate metrics.
    pub metrics: CampaignMetrics,
    /// The prioritized (and, if configured, reduced) bug reports.
    pub reports: Vec<BugReport>,
    /// The prioritized bug-inducing cases in replayable form.
    pub prioritized_cases: Vec<ReducibleCase>,
    /// The prioritized transactional cases flagged by the rollback oracle,
    /// in replayable form.
    pub txn_cases: Vec<TxnCase>,
    /// The prioritized concurrent schedules flagged by the isolation
    /// oracle, in replayable form (deterministic interleavings included).
    pub schedule_cases: Vec<ScheduleCase>,
    /// Validity-rate series sampled every 50 test cases (used to
    /// show the convergence behaviour described in Section 5.4).
    pub validity_series: Vec<f64>,
    /// Supervision incidents recorded over the campaign (infrastructure
    /// failures, watchdog trips, isolated panics). Incidents are operational
    /// bookkeeping — they never appear in [`CampaignReport::reports`].
    pub incidents: Vec<CampaignIncident>,
    /// Aggregate robustness counters (retries, watchdog trips, quarantines,
    /// ...). All zero for a campaign over a healthy backend.
    pub robustness: RobustnessCounters,
    /// `true` when the campaign was quarantined after too many consecutive
    /// infrastructure failures and this report covers only the cases that
    /// ran before the cut-off.
    pub degraded: bool,
    /// The coverage atlas: per-oracle feature coverage, the engine-plane
    /// point union, and the saturation curve. Byte-identical (under
    /// [`crate::atlas::render_atlas_report`]) for any worker count, pool
    /// size and execution path, and across kill-and-resume.
    pub coverage: crate::atlas::CampaignCoverage,
}

// The report's scalars. Its lists are records of their own in
// `render_report`; the coverage atlas travels in the checkpoint only.
json_record!(struct CampaignReport {
    dbms_name: "dialect", degraded, metrics, robustness, validity_series: "validity", ..
});

/// Derives the per-case fault/supervision seed from the campaign seed and
/// the case's position. Deterministic, stable across resume (the position is
/// the global case counter), and never zero — zero is reserved as the
/// "safe mode" sentinel of [`DbmsConnection::begin_case`].
pub fn derive_case_seed(campaign_seed: u64, database: u64, case_index: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&database.to_le_bytes());
    bytes[8..].copy_from_slice(&case_index.to_le_bytes());
    let seed = splitmix64(campaign_seed ^ fnv1a64(&bytes));
    if seed == 0 {
        1
    } else {
        seed
    }
}

/// The generated case of one oracle slot, produced exactly once per case so
/// the generator's RNG position is independent of supervision retries. Its
/// setup stays empty unless the prioritizer keeps it. One payload exists at
/// a time, so the variant size spread is irrelevant.
#[allow(clippy::large_enum_variant)]
enum CasePayload {
    /// A single-query oracle case (TLP or NoREC).
    Query(ReducibleCase),
    /// A rollback-oracle transactional session.
    Txn(TxnCase),
    /// An isolation-oracle concurrent schedule.
    Schedule(ScheduleCase),
}

/// The validity series samples the campaign's validity rate every this many
/// test cases (the convergence behaviour described in Section 5.4).
const SAMPLE_EVERY: u64 = 50;

/// Where to pick the campaign loop back up after a checkpoint restore.
struct ResumePoint {
    database: usize,
    next_case: usize,
    oracle_index: usize,
    setup_log: Vec<Statement>,
    storage_accum: StorageMetrics,
    report: CampaignReport,
}

/// A running testing campaign.
#[derive(Clone)]
pub struct Campaign {
    config: CampaignConfig,
    /// The adaptive generator (exposed so experiments can inspect the
    /// learned profile after a run).
    pub generator: AdaptiveGenerator,
    prioritizer: BugPrioritizer,
    trace: Option<TraceHandle>,
    /// The last capability report applied via [`Campaign::apply_capability`],
    /// re-applied at every database boundary so a probed downgrade stays
    /// suppressed even after the generator's per-database resets.
    applied_capability: Option<crate::driver::Capability>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("config", &self.config)
            .field("generator", &self.generator)
            .field("prioritizer", &self.prioritizer)
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(config: CampaignConfig) -> Campaign {
        let generator = AdaptiveGenerator::new(config.seed, config.generator.clone());
        Campaign {
            config,
            generator,
            prioritizer: BugPrioritizer::new(),
            trace: None,
            applied_capability: None,
        }
    }

    /// Creates a campaign whose generator starts from a pre-built generator
    /// (e.g. a perfect-knowledge baseline or a loaded profile).
    pub fn with_generator(config: CampaignConfig, generator: AdaptiveGenerator) -> Campaign {
        Campaign {
            config,
            generator,
            prioritizer: BugPrioritizer::new(),
            trace: None,
            applied_capability: None,
        }
    }

    /// Attaches a telemetry sink (see [`crate::trace`]): subsequent runs
    /// stream structured case-lifecycle events into it from the campaign
    /// loop, the supervisor and every traced statement. Pass `None` to
    /// detach. Tracing never changes a campaign's report — the
    /// deterministic plane observes the run, the wall-clock plane lives
    /// outside the determinism contract entirely.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Applies a driver's [`Capability`](crate::driver::Capability) report
    /// to the generator: statement features the backend rules out are
    /// suppressed before learning starts, and concurrent-schedule
    /// generation is disabled for single-session backends. Idempotent —
    /// call it again with the same capability when resuming.
    pub fn apply_capability(&mut self, capability: &crate::driver::Capability) {
        self.applied_capability = Some(capability.clone());
        self.generator.apply_capability(capability);
    }

    /// Runs the campaign over a connection [`Pool`](crate::driver::Pool):
    /// applies the pool's capability report to the generator, then runs
    /// supervised with checkout-per-case through the pool. Reports are
    /// byte-identical for any pool size.
    pub fn run_pooled(
        &mut self,
        pool: &mut crate::driver::Pool,
        supervision: &SupervisorConfig,
    ) -> CampaignReport {
        self.apply_capability(&pool.capability().clone());
        self.run_supervised(pool, supervision)
    }

    /// Runs the campaign against a DBMS and produces a report.
    ///
    /// Every campaign runs under the default [`SupervisorConfig`], which is
    /// inert for well-behaved backends: no checkpointing, and a
    /// watchdog/retry machinery that only acts on panics, virtual-clock
    /// overruns and [`crate::INFRA_MARKER`] messages — so this is
    /// behaviourally identical to the historical unsupervised loop for any
    /// backend that produces none of those.
    pub fn run(&mut self, conn: &mut dyn DbmsConnection) -> CampaignReport {
        self.run_supervised(conn, &SupervisorConfig::default())
    }

    /// Runs the campaign under an explicit supervision policy: deadline
    /// watchdog, bounded deterministic retry, quarantine, and (when
    /// configured) periodic crash-safe checkpoints.
    pub fn run_supervised(
        &mut self,
        conn: &mut dyn DbmsConnection,
        supervision: &SupervisorConfig,
    ) -> CampaignReport {
        let mut supervisor = Supervisor::new(supervision.clone());
        supervisor.set_trace(self.trace.clone());
        self.run_inner(conn, &mut supervisor, None)
    }

    /// Resumes a campaign from a checkpoint and runs it to completion.
    ///
    /// The campaign must have been created with the same
    /// [`CampaignConfig`] that produced the checkpoint; the final report is
    /// then byte-identical (under [`crate::resume::render_report`]) to the
    /// report of an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's seed disagrees with the campaign
    /// config's — resuming under a different configuration cannot reproduce
    /// the original run and would silently produce garbage.
    pub fn resume(
        &mut self,
        conn: &mut dyn DbmsConnection,
        supervision: &SupervisorConfig,
        checkpoint: CampaignCheckpoint,
    ) -> CampaignReport {
        assert_eq!(
            checkpoint.config_seed, self.config.seed,
            "resume: checkpoint was written by a campaign with a different seed"
        );
        // Restore the generator: schema and statistics verbatim, then the
        // private runtime state (RNG position, schedules, suppression).
        self.generator.schema = checkpoint.schema;
        self.generator.stats = checkpoint.stats;
        self.generator.restore_runtime_state(
            checkpoint.rng_state,
            checkpoint.recorded,
            checkpoint.current_depth,
            checkpoint.suppressed_query,
            checkpoint.suppressed_ddl,
        );
        self.prioritizer =
            BugPrioritizer::restore(checkpoint.kept_sets, &checkpoint.report.metrics);
        let mut supervisor = Supervisor::with_state(
            supervision.clone(),
            &checkpoint.report,
            checkpoint.consecutive_infra,
        );
        supervisor.set_trace(self.trace.clone());
        // Rebuild the backend to the state the checkpoint describes (its
        // setup log was parsed once, when the checkpoint loaded). The
        // storage baseline is sampled *after* this replay inside
        // `run_inner`, so replayed setup work never double-counts into the
        // accumulated delta.
        supervisor.recover(conn, &checkpoint.setup_log);
        // Restore the connection layer's breaker/backoff ledger so the
        // resumed run routes checkouts exactly like the uninterrupted one
        // would have. A connection without resilience state (unpooled)
        // ignores it — breaker routing is verdict-neutral, so the report
        // stays byte-identical either way.
        if let Some(data) = &checkpoint.resilience {
            let _ = conn.restore_resilience(data);
        }
        let resume_point = ResumePoint {
            database: checkpoint.database,
            next_case: checkpoint.next_case,
            oracle_index: checkpoint.oracle_index,
            setup_log: checkpoint.setup_log,
            storage_accum: checkpoint.storage_delta,
            report: checkpoint.report,
        };
        self.run_inner(conn, &mut supervisor, Some(resume_point))
    }

    #[allow(clippy::too_many_lines)]
    fn run_inner(
        &mut self,
        conn: &mut dyn DbmsConnection,
        supervisor: &mut Supervisor,
        resume: Option<ResumePoint>,
    ) -> CampaignReport {
        // When tracing, wrap the connection so every statement streams a
        // deterministic-plane event stamped with its virtual-tick cost.
        // The wrapper is transparent to the campaign: same outcomes, same
        // clock, same quirks.
        let trace = self.trace.clone();
        let mut traced;
        let conn: &mut dyn DbmsConnection = match &trace {
            Some(sink) => {
                sink.borrow_mut().begin_campaign(conn.name());
                traced = TracedConnection::new(conn, sink.clone());
                &mut traced
            }
            None => conn,
        };
        let (mut report, start_db, resumed_case, mut oracle_index, mut resumed_setup, mut accum) =
            match resume {
                Some(r) => (
                    r.report,
                    r.database,
                    r.next_case,
                    r.oracle_index,
                    Some(r.setup_log),
                    r.storage_accum,
                ),
                None => (
                    CampaignReport {
                        dbms_name: conn.name().to_string(),
                        ..CampaignReport::default()
                    },
                    0,
                    0,
                    0,
                    None,
                    StorageMetrics::default(),
                ),
            };
        // Baseline for the storage-metric delta. A backend error here is an
        // incident (satellite of the fault model: backend errors surface as
        // incident counters, never as silently-zero metrics), and the
        // campaign proceeds with a default baseline exactly as the legacy
        // swallow did.
        let mut storage_baseline = read_storage(conn, supervisor, start_db).unwrap_or_default();
        let quirks = conn.quirks();
        let mut quarantined = false;

        'campaign: for db in start_db..self.config.databases {
            // Phase 1: build the database state (skipped when resuming
            // mid-database — the resume path already replayed the
            // checkpointed setup log and the generator's schema model and
            // RNG carry the phase's effects).
            let setup_log: Vec<Statement> = match resumed_setup.take() {
                Some(log) => log,
                None => {
                    // A fresh database starts a fresh novelty stream in the
                    // atlas (the resumed branch above restored the stream's
                    // mid-database state from the checkpoint instead).
                    report.coverage.begin_database();
                    // Database boundary: the connection layer resets its
                    // breaker ledger (so breaker state is a pure function of
                    // this database's case schedule, not of pool history) and
                    // re-announces any static-vs-probed capability drift.
                    // Re-applying the stored capability keeps probed
                    // downgrades suppressed across the generator's
                    // per-database resets — graceful degradation, not an
                    // invalid-case storm.
                    conn.note_database_boundary();
                    if let Some(capability) = self.applied_capability.clone() {
                        self.generator.apply_capability(&capability);
                    }
                    conn.reset();
                    // The fresh database replaces whatever a cut-short
                    // rebuild left behind.
                    supervisor.half_built = None;
                    self.generator.reset_schema();
                    let mut setup_log: Vec<Statement> = Vec::new();
                    for _ in 0..self.config.ddl_per_database {
                        let generated = self.generator.generate_ddl_statement();
                        // AST fast path: the generator already holds the
                        // typed statement, so backends that can consume it
                        // skip the render→lex→parse round-trip. The setup
                        // log keeps the same typed statement, so every
                        // rebuild replays it without re-parsing either.
                        let outcome = conn.execute_ast(&generated.statement);
                        let success = outcome.is_success();
                        let metrics = supervisor.metrics_mut();
                        metrics.ddl_statements += 1;
                        if success {
                            metrics.ddl_successes += 1;
                            self.generator.apply_success(&generated.statement);
                            setup_log.push(generated.statement);
                            if let Some(Statement::Insert(insert)) = setup_log.last() {
                                if quirks.requires_refresh {
                                    let refresh = Statement::Refresh(insert.table.clone());
                                    if conn.execute_ast(&refresh).is_success() {
                                        setup_log.push(refresh);
                                    }
                                }
                                if quirks.requires_commit {
                                    let _ = conn.execute_ast(&Statement::Commit);
                                }
                            }
                        }
                        self.generator.record_outcome(
                            &generated.features,
                            FeatureKind::DdlDml,
                            success,
                        );
                    }
                    setup_log
                }
            };

            // Phase 2: issue oracle-checked test cases under supervision.
            let start_case = if db == start_db { resumed_case } else { 0 };
            for case_no in start_case..self.config.queries_per_database {
                let oracle = self.config.oracles[oracle_index % self.config.oracles.len()];
                oracle_index += 1;
                let case_index = supervisor.metrics().test_cases;
                // The case seed is a pure function of the cursor, so it is
                // available *before* generation — coverage-directed weight
                // boosts derive from it (seed-stable, no wall clock).
                let case_seed = derive_case_seed(self.config.seed, db as u64, case_index);
                if self.config.coverage_directed {
                    let cold = report.coverage.cold_features(&FeatureSet::universe());
                    let boost = 2 + (splitmix64(case_seed) % 3) as usize;
                    self.generator.set_coverage_direction(cold, boost);
                }
                // Generate the case once, before supervision: the generator's
                // RNG must advance exactly once per case regardless of how
                // many attempts the supervisor needs.
                let payload = match oracle {
                    OracleKind::Rollback => {
                        self.generator.generate_txn_session().map(CasePayload::Txn)
                    }
                    OracleKind::Isolation => self
                        .generator
                        .generate_schedule()
                        .map(CasePayload::Schedule),
                    OracleKind::Tlp | OracleKind::NoRec => None,
                }
                .or_else(|| {
                    // A stateful slot with no session or schedule available
                    // (no base table yet, or the learned profile says the
                    // dialect rejects transactions) falls back to a
                    // TLP-checked query so the slot is not wasted.
                    let oracle = match oracle {
                        OracleKind::NoRec => OracleKind::NoRec,
                        _ => OracleKind::Tlp,
                    };
                    let query = self.generator.generate_query()?;
                    Some(CasePayload::Query(ReducibleCase {
                        setup: Vec::new(),
                        query: query.select,
                        predicate: query.predicate,
                        oracle,
                        features: query.features,
                    }))
                });
                // Direction is per-case: clear it before anything else runs
                // (DDL of the next database must stay uniform).
                if self.config.coverage_directed {
                    self.generator.clear_coverage_direction();
                }
                let Some(payload) = payload else { break };
                let slot = (db, case_no, case_seed);
                let cases_done = match payload {
                    CasePayload::Query(case) => {
                        self.run_case(conn, supervisor, &mut report, &setup_log, slot, case)
                    }
                    CasePayload::Txn(case) => {
                        self.run_case(conn, supervisor, &mut report, &setup_log, slot, case)
                    }
                    CasePayload::Schedule(case) => {
                        self.run_case(conn, supervisor, &mut report, &setup_log, slot, case)
                    }
                };
                // Drain wall-clock-plane backend telemetry (pool checkout
                // counters, wire bytes) accumulated during the case.
                emit_backend(&trace, conn);
                if supervisor.should_quarantine() {
                    // Too many consecutive infrastructure failures: the
                    // backend is effectively down. Mark the partial report
                    // degraded and stop this dialect — the fleet keeps
                    // running the others.
                    supervisor.emit(case_seed, 0, TraceEventKind::Quarantined);
                    quarantined = true;
                    break 'campaign;
                }
                // Read by value per case; the path is borrowed only when a
                // checkpoint is due.
                let checkpoint_every = supervisor.config().checkpoint_every;
                if checkpoint_every > 0
                    && cases_done.is_multiple_of(checkpoint_every)
                    && supervisor.config().checkpoint_path.is_some()
                {
                    self.settle_storage(conn, supervisor, db, &mut storage_baseline, &mut accum);
                    // Fold the backend's engine coverage into the atlas
                    // before snapshotting: the checkpoint must carry
                    // every point reached so far, or a resumed run
                    // (whose fresh connection re-reaches only the
                    // replayed setup's points) would under-report.
                    // Reported sets are monotone, so the union is
                    // idempotent across polls.
                    if let Some(coverage) = conn.engine_coverage() {
                        report.coverage.absorb_engine(&coverage);
                    }
                    let checkpoint = self.make_checkpoint(
                        &report,
                        supervisor,
                        db,
                        case_no + 1,
                        oracle_index,
                        &setup_log,
                        accum,
                        conn.resilience_checkpoint(),
                    );
                    // A failed checkpoint write costs resumability, not
                    // correctness: the campaign continues and the
                    // previous checkpoint (if any) stays valid thanks to
                    // the atomic temp-file+rename protocol.
                    if let Some(path) = &supervisor.config().checkpoint_path {
                        let _ = save_checkpoint(&checkpoint, path);
                    }
                    // The flight recorder flushes alongside the
                    // checkpoint, so post-mortem forensics survive the
                    // same crashes resume does. The atlas travels the
                    // same path: its JSONL snapshot lands in the flushed
                    // file.
                    if let Some(sink) = &trace {
                        let mut sink = sink.borrow_mut();
                        sink.coverage(&report.dbms_name, &report.coverage);
                        sink.flush(FlushReason::Checkpoint);
                    }
                }
                if let Some(budget) = supervisor.config().stop_after_cases {
                    if cases_done >= budget {
                        // Simulated kill: return the in-flight state as-is,
                        // with no finalisation and no extra checkpoint —
                        // exactly what a crash leaves behind. Resume re-runs
                        // everything after the last cadence checkpoint.
                        supervisor.fill_report(&mut report);
                        return report;
                    }
                }
            }
        }
        self.settle_storage(
            conn,
            supervisor,
            self.config.databases.saturating_sub(1),
            &mut storage_baseline,
            &mut accum,
        );
        let metrics = supervisor.metrics_mut();
        metrics.txn_begins = accum.txn_begins;
        metrics.tables_snapshotted = accum.tables_snapshotted;
        metrics.tables_cow_cloned = accum.tables_cow_cloned;
        metrics.conflicts_avoided = accum.conflicts_avoided;
        supervisor.fill_report(&mut report);
        report.degraded = report.degraded || quarantined;
        // Final atlas accounting: the engine-point union (monotone sets, so
        // this one poll sees everything this process reached) and the last
        // database's trailing dry run.
        if let Some(coverage) = conn.engine_coverage() {
            report.coverage.absorb_engine(&coverage);
        }
        report.coverage.finish();
        emit_backend(&trace, conn);
        if let Some(sink) = &trace {
            let mut sink = sink.borrow_mut();
            sink.coverage(&report.dbms_name, &report.coverage);
            sink.flush(FlushReason::CampaignEnd);
        }
        report
    }

    /// Folds the backend's storage-counter delta since `baseline` into
    /// `accum` and advances the baseline. A backend error becomes a
    /// recorded incident (the legacy code swallowed it into zeros).
    #[allow(clippy::unused_self)]
    fn settle_storage(
        &self,
        conn: &mut dyn DbmsConnection,
        supervisor: &mut Supervisor,
        database: usize,
        baseline: &mut StorageMetrics,
        accum: &mut StorageMetrics,
    ) {
        if let Some(now) = read_storage(conn, supervisor, database) {
            accum.merge(&now.since(baseline));
            *baseline = now;
        }
    }

    /// Builds the resume checkpoint describing the campaign's exact state:
    /// cursor, generator, prioritizer kept sets and the partial report
    /// (which carries the supervisor's ledger and incident history).
    #[allow(clippy::too_many_arguments)]
    fn make_checkpoint(
        &self,
        report: &CampaignReport,
        supervisor: &Supervisor,
        database: usize,
        next_case: usize,
        oracle_index: usize,
        setup_log: &[Statement],
        storage_accum: StorageMetrics,
        resilience: Option<String>,
    ) -> CampaignCheckpoint {
        let mut snapshot = report.clone();
        supervisor.fill_report(&mut snapshot);
        CampaignCheckpoint {
            config_seed: self.config.seed,
            database,
            next_case,
            oracle_index,
            rng_state: self.generator.rng_state(),
            recorded: self.generator.recorded_executions(),
            current_depth: self.generator.current_depth(),
            schema: self.generator.schema.clone(),
            stats: self.generator.stats.clone(),
            suppressed_query: self.generator.suppressed_query_features().clone(),
            suppressed_ddl: self.generator.suppressed_ddl_features().clone(),
            kept_sets: self.prioritizer.kept_sets().to_vec(),
            setup_log: setup_log.to_vec(),
            storage_delta: storage_accum,
            consecutive_infra: supervisor.consecutive_infra(),
            resilience,
            report: snapshot,
        }
    }

    /// Runs one generated case under supervision and gives it the
    /// treatment every case gets, whichever oracle checks it: the atlas and
    /// the validity series observe it, the generator learns from its
    /// outcome, and a detected bug goes to the prioritizer (traced). Only a
    /// kept bug gets a copy of the setup log. It is reduced when configured
    /// — its report's queries re-rendered from the reduced case and the
    /// campaign's database state rebuilt, since reduction leaves the DBMS
    /// at a reduced setup — and its report takes the case's setup before
    /// both are recorded. `slot` is the case's database, position in it and
    /// seed. Returns the campaign's case count after the case.
    fn run_case<C: OracleCase>(
        &mut self,
        conn: &mut dyn DbmsConnection,
        supervisor: &mut Supervisor,
        report: &mut CampaignReport,
        setup_log: &[Statement],
        (database, case_no, case_seed): (usize, usize, u64),
        mut case: C,
    ) -> u64 {
        let case_index = supervisor.metrics().test_cases;
        let oracle = case.oracle();
        supervisor.emit(
            case_seed,
            0,
            TraceEventKind::CaseStarted {
                database,
                case_index,
                oracle,
            },
        );
        let mut conflict_aborts = 0u64;
        let (verdict, outcome) = supervisor.run_case(
            conn,
            setup_log,
            database,
            case_index,
            case_seed,
            &mut |conn| {
                let checked = case.check(conn, setup_log);
                // Only the attempt that completes contributes its conflict
                // aborts (overwrite, not add): retried attempts were rolled
                // back wholesale.
                conflict_aborts = checked.conflict_aborts;
                checked.outcome
            },
        );
        // The verdict event has counted the case. Every case, abandoned or
        // not, is observed by the atlas: its features were generated, and
        // counting them keeps the novelty stream identical across
        // configurations that retry differently.
        let cases_done = supervisor.metrics().test_cases;
        report
            .coverage
            .observe_case(oracle, verdict, case.features(), case_no as u64);
        if cases_done.is_multiple_of(SAMPLE_EVERY) {
            report
                .validity_series
                .push(supervisor.metrics().validity_rate());
        }
        // Abandoned cases carry no outcome and are never fed to the
        // generator's learning: an infrastructure failure says nothing about
        // dialect feature support.
        let Some(outcome) = outcome else {
            return cases_done;
        };
        supervisor.metrics_mut().conflict_aborts += conflict_aborts;
        self.generator
            .record_outcome(case.features(), FeatureKind::Query, outcome.is_valid());
        let OracleOutcome::Bug(mut bug) = outcome else {
            return cases_done;
        };
        let kept = self.prioritizer.classify(case.features()) == PriorityDecision::New;
        supervisor.emit(case_seed, 0, TraceEventKind::Prioritized { kept });
        if !kept {
            return cases_done;
        }
        *case.setup_mut() = setup_log.to_vec();
        if self.config.reduce_bugs {
            let statements_before = case.statement_count();
            case = BugReducer::new(conn, self.config.max_reduction_checks)
                .reduce(&case)
                .0;
            supervisor.emit(
                case_seed,
                0,
                TraceEventKind::Reduced {
                    statements_before,
                    statements_after: case.statement_count(),
                },
            );
            bug.queries = case.replay_queries();
            supervisor.recover(conn, setup_log);
        }
        bug.setup = case.setup().to_vec();
        report.reports.push(*bug);
        case.record(report);
        cases_done
    }
}

/// Reads the backend's storage counters. A backend error is recorded as a
/// [`IncidentKind::StorageMetricsError`] incident against `database` and
/// reads as `None`, like a backend that keeps no counters.
fn read_storage(
    conn: &mut dyn DbmsConnection,
    supervisor: &mut Supervisor,
    database: usize,
) -> Option<StorageMetrics> {
    match conn.storage_metrics() {
        Ok(metrics) => metrics,
        Err(message) => {
            let case_index = supervisor.metrics().test_cases;
            supervisor.record(CampaignIncident {
                kind: IncidentKind::StorageMetricsError,
                database,
                case_index,
                attempt: 0,
                deadline_ticks: 0,
                observed_ticks: 0,
                detail: message,
            });
            None
        }
    }
}

/// Replays a bug-inducing test case's statements on another DBMS and returns
/// the fraction that executed successfully — the quantity plotted in the
/// Figure 6 heatmap (the SQL feature study).
pub fn replay_validity(conn: &mut dyn DbmsConnection, case: &ReducibleCase) -> f64 {
    conn.reset();
    let mut total = 0usize;
    let mut ok = 0usize;
    for stmt in &case.setup {
        total += 1;
        if conn.execute_ast(stmt).is_success() {
            ok += 1;
        }
    }
    total += 1;
    if conn.query_ast(&case.query).is_ok() {
        ok += 1;
    }
    if total == 0 {
        return 0.0;
    }
    ok as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbms::{DialectQuirks, QueryResult, StatementOutcome};
    use crate::feature::FeatureSet;
    use sql_ast::Value;

    /// A minimal scriptable DBMS: accepts all DDL, answers every query with
    /// a fixed single row, and (optionally) "loses" rows for NOT-queries to
    /// simulate a logic bug.
    struct ToyDbms {
        buggy: bool,
        reject_nullsafe: bool,
    }

    impl DbmsConnection for ToyDbms {
        fn name(&self) -> &str {
            "toy"
        }
        fn execute(&mut self, sql: &str) -> StatementOutcome {
            if self.reject_nullsafe && sql.contains("<=>") {
                StatementOutcome::Failure("operator <=> not supported".into())
            } else {
                StatementOutcome::Success
            }
        }
        fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
            if self.reject_nullsafe && sql.contains("<=>") {
                return Err("operator <=> not supported".into());
            }
            // The toy "table" is empty, so a sound DBMS returns no rows for
            // any query; the buggy variant spuriously returns a row for
            // negated partitions, which TLP flags as an inconsistency.
            let rows = if self.buggy && sql.contains("(NOT ") {
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
        fn quirks(&self) -> DialectQuirks {
            DialectQuirks::default()
        }
    }

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            seed: 3,
            databases: 1,
            ddl_per_database: 6,
            queries_per_database: 40,
            oracles: vec![OracleKind::Tlp],
            reduce_bugs: false,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_runs_and_reports_metrics() {
        let mut campaign = Campaign::new(small_config());
        let mut conn = ToyDbms {
            buggy: false,
            reject_nullsafe: false,
        };
        let report = campaign.run(&mut conn);
        assert_eq!(report.dbms_name, "toy");
        assert_eq!(report.metrics.ddl_statements, 6);
        assert!(report.metrics.test_cases > 0);
        assert!(report.metrics.validity_rate() > 0.0);
        assert_eq!(report.metrics.detected_bug_cases, 0);
    }

    #[test]
    fn campaign_detects_and_prioritizes_bugs() {
        let mut campaign = Campaign::new(small_config());
        let mut conn = ToyDbms {
            buggy: true,
            reject_nullsafe: false,
        };
        let report = campaign.run(&mut conn);
        assert!(report.metrics.detected_bug_cases > 0);
        assert!(report.metrics.prioritized_bugs > 0);
        assert!(report.metrics.prioritized_bugs <= report.metrics.detected_bug_cases);
        assert_eq!(
            report.metrics.prioritized_bugs + report.metrics.deduplicated_bugs,
            report.metrics.detected_bug_cases
        );
        assert_eq!(report.reports.len() as u64, report.metrics.prioritized_bugs);
    }

    #[test]
    fn feedback_learns_to_avoid_rejected_operator() {
        let mut config = small_config();
        config.queries_per_database = 600;
        config.generator.update_interval = 25;
        config.generator.stats.min_attempts = 10;
        // With a few hundred test cases the Bayesian test cannot push below
        // the paper's 1% threshold (that needs ~300 observations per
        // feature), so this test uses a higher threshold, as a user of the
        // platform would for short runs.
        config.generator.stats.query_threshold = 0.2;
        let mut campaign = Campaign::new(config);
        let mut conn = ToyDbms {
            buggy: false,
            reject_nullsafe: true,
        };
        let report = campaign.run(&mut conn);
        // After the campaign the null-safe operator must be suppressed.
        campaign.generator.refresh_suppression();
        assert!(campaign
            .generator
            .suppressed_query_features()
            .iter()
            .any(|f| f.name() == "OP_NULLSAFE_EQ"));
        // And the validity rate should have improved over the campaign.
        let series = &report.validity_series;
        assert!(series.len() >= 2);
        assert!(series.last().unwrap() >= series.first().unwrap());
    }

    #[test]
    fn replay_validity_counts_successful_statements() {
        let case = ReducibleCase {
            setup: ["CREATE TABLE t0 (c0 INT)", "SELECT 1 <=> 1"]
                .map(|sql| sql_parser::parse_statement(sql).unwrap())
                .to_vec(),
            query: sql_ast::Select::from_table(
                "t0",
                vec![sql_ast::SelectItem::expr(sql_ast::Expr::column("c0"))],
            ),
            predicate: sql_ast::Expr::boolean(true),
            oracle: OracleKind::Tlp,
            features: FeatureSet::new(),
        };
        let mut conn = ToyDbms {
            buggy: false,
            reject_nullsafe: true,
        };
        let validity = replay_validity(&mut conn, &case);
        assert!((validity - 2.0 / 3.0).abs() < 1e-9);
    }
}
