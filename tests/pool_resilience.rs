//! Self-healing connection layer: a driver that lies about its
//! capabilities is probed at connect time and downgraded before the
//! generator learns anything, and a wire fault inside the pool's
//! sync-log replay surfaces as a supervision incident plus a retry —
//! never as a half-built slot leaking into verdicts or checkpoints.

use sqlancerpp::core::supervisor::IncidentKind;
use sqlancerpp::core::{
    load_checkpoint, render_report, silence_infra_panics, BackendEvent, Campaign, CampaignConfig,
    Capability, DbmsConnection, DialectQuirks, Driver, EngineCoverage, OracleKind, Pool,
    QueryResult, ResilienceEvent, StateCheckpoint, StatementOutcome, StorageMetrics,
    SupervisorConfig, INFRA_MARKER,
};
use sqlancerpp::sim::{preset_by_name, ExecutionPath, FaultyConfig, RunPlan};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn resilience_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(seed)
        .databases(3)
        .ddl_per_database(8)
        .queries_per_database(25)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(false)
        .build()
}

/// A backend whose static capability claims transaction support but whose
/// runtime rejects every transaction-control statement — the capability
/// lie, with no other fault armed.
fn lying_only() -> FaultyConfig {
    FaultyConfig {
        lie_transactions: true,
        ..FaultyConfig::default()
    }
}

#[test]
fn lying_driver_is_probed_downgraded_and_fuzzed_clean() {
    silence_infra_panics();
    let preset = preset_by_name("sqlite")
        .expect("sqlite preset exists")
        .with_infra_faults(lying_only());
    let driver = preset.driver(ExecutionPath::Ast);

    // The static claim says transactions; the connect-time probe says no.
    assert!(
        driver.capability().transactions,
        "the lie needs a static transaction claim to contradict"
    );
    let pool = Pool::new(Arc::clone(&driver), 2).expect("a lying backend still connects");
    assert!(
        !pool.capability().transactions,
        "the probe must downgrade the lied-about transaction support"
    );
    // Savepoints have no portable probe without transactions, so the
    // static claim stands — they are unreachable anyway once transaction
    // statements are suppressed.
    assert_eq!(pool.capability().savepoints, driver.capability().savepoints);
    assert!(
        pool.drift_details()
            .iter()
            .any(|detail| detail.starts_with("transactions:")),
        "the static-vs-probed disagreement must be recorded, got {:?}",
        pool.drift_details()
    );
    drop(pool);

    // The campaign runs to completion on the downgraded capability: the
    // rollback oracle self-suppresses instead of spraying rejected BEGINs.
    let config = resilience_config(0x11E5);
    let sharded = |threads, pool_size| {
        let plan = RunPlan {
            pool_size,
            threads,
            shard_by_database: true,
            ..RunPlan::new(vec![Arc::clone(&driver)])
        };
        plan.run(&config).reports.remove(0)
    };
    let run = sharded(1, 2);
    assert!(run.metrics.test_cases > 0, "the campaign must actually run");
    assert!(
        !run.degraded && run.robustness.quarantines == 0 && run.robustness.infra_failures == 0,
        "a probed-and-downgraded campaign must not degrade (quarantines {}, infra_failures {})",
        run.robustness.quarantines,
        run.robustness.infra_failures
    );
    for bug in &run.reports {
        assert!(
            !bug.description.contains(INFRA_MARKER)
                && !bug.description.contains("infra_capability_lie"),
            "the capability lie surfaced as a logic bug: {}",
            bug.description
        );
    }
    // The drift is re-announced once per database boundary, so resumed
    // and partitioned runs ledger it identically.
    assert_eq!(
        run.robustness.capability_drifts, config.databases as u64,
        "expected one capability-drift incident per database"
    );
    assert!(run
        .incidents
        .iter()
        .any(|incident| incident.kind == IncidentKind::CapabilityDrift));

    // Pool size and worker count stay non-observables while drifting.
    let baseline = render_report(&run);
    for (threads, pool_size) in [(1usize, 1usize), (2, 4)] {
        assert_eq!(
            baseline,
            render_report(&sharded(threads, pool_size)),
            "lying-driver report drifted at {threads} workers, pool size {pool_size}"
        );
    }
}

/// Wraps a driver and injects exactly one `infra:`-marked statement
/// failure into the first statement replayed during a pool re-sync of a
/// secondary slot (the `begin_case(0)` → `reset` → `execute` sequence on
/// any connection after the pool's first) — a dropped wire frame inside
/// the sync-log replay itself.
struct DroppedFrameDriver {
    inner: Arc<dyn Driver>,
    armed: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
}

impl DroppedFrameDriver {
    fn new(inner: Arc<dyn Driver>) -> DroppedFrameDriver {
        DroppedFrameDriver {
            inner,
            armed: Arc::new(AtomicBool::new(true)),
            connections: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl Driver for DroppedFrameDriver {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capability(&self) -> Capability {
        self.inner.capability()
    }
    fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
        let index = self.connections.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(DroppedFrameConnection {
            inner: self.inner.connect()?,
            armed: Arc::clone(&self.armed),
            secondary: index > 0,
            safe_mode: true,
            replaying: false,
        }))
    }
}

struct DroppedFrameConnection {
    inner: Box<dyn DbmsConnection>,
    armed: Arc<AtomicBool>,
    secondary: bool,
    safe_mode: bool,
    replaying: bool,
}

impl DroppedFrameConnection {
    /// The armed drop, on whichever entry point the replay uses (typed
    /// setup entries replay through `execute_ast`, text ones through
    /// `execute`).
    fn dropped_frame(&mut self) -> Option<StatementOutcome> {
        (self.secondary && self.replaying && self.armed.swap(false, Ordering::Relaxed)).then(|| {
            StatementOutcome::Failure(format!(
                "{INFRA_MARKER} wire frame dropped inside sync replay (injected)"
            ))
        })
    }
}

impl DbmsConnection for DroppedFrameConnection {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn execute(&mut self, sql: &str) -> StatementOutcome {
        if let Some(dropped) = self.dropped_frame() {
            return dropped;
        }
        self.inner.execute(sql)
    }
    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.inner.query(sql)
    }
    fn reset(&mut self) {
        // Only a safe-mode reset precedes a sync-log replay; an oracle's
        // in-case rebuild resets under the case's own seed.
        self.replaying = self.safe_mode;
        self.inner.reset();
    }
    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }
    fn execute_ast(&mut self, stmt: &sqlancerpp::ast::Statement) -> StatementOutcome {
        if let Some(dropped) = self.dropped_frame() {
            return dropped;
        }
        self.inner.execute_ast(stmt)
    }
    fn query_ast(&mut self, select: &sqlancerpp::ast::Select) -> Result<QueryResult, String> {
        self.inner.query_ast(select)
    }
    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        self.inner.open_session()
    }
    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        self.inner.storage_metrics()
    }
    fn begin_case(&mut self, case_seed: u64) {
        self.safe_mode = case_seed == 0;
        if !self.safe_mode {
            self.replaying = false;
        }
        self.inner.begin_case(case_seed);
    }
    fn virtual_ticks(&self) -> u64 {
        self.inner.virtual_ticks()
    }
    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        self.inner.checkpoint()
    }
    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        self.inner.restore(checkpoint)
    }
    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        self.inner.drain_backend_events()
    }
    fn engine_coverage(&self) -> Option<EngineCoverage> {
        self.inner.engine_coverage()
    }
    fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        self.inner.drain_resilience_events()
    }
    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        self.inner.note_case_outcome(case_seed, infra_failed);
    }
    fn resilience_checkpoint(&self) -> Option<String> {
        self.inner.resilience_checkpoint()
    }
    fn restore_resilience(&mut self, data: &str) -> bool {
        self.inner.restore_resilience(data)
    }
    fn note_database_boundary(&mut self) {
        self.inner.note_database_boundary();
    }
}

#[test]
fn dropped_frame_inside_sync_replay_raises_incident_and_never_leaks_into_verdicts() {
    silence_infra_panics();
    let preset = preset_by_name("sqlite").expect("sqlite preset exists");
    let config = resilience_config(0xD20F);
    let supervision = SupervisorConfig::default();

    // Clean reference: same campaign, same pool size, no wire fault.
    let mut pool = Pool::new(preset.driver(ExecutionPath::Ast), 2).expect("clean pool connects");
    let clean = Campaign::new(config.clone()).run_pooled(&mut pool, &supervision);

    // Faulty run: the first sync-log replay of the secondary slot drops
    // a frame mid-replay.
    let faulty_driver: Arc<dyn Driver> =
        Arc::new(DroppedFrameDriver::new(preset.driver(ExecutionPath::Ast)));
    let mut pool = Pool::new(Arc::clone(&faulty_driver), 2).expect("faulty pool connects");
    let faulty = Campaign::new(config.clone()).run_pooled(&mut pool, &supervision);

    // The dropped frame is an incident plus a retry, and the campaign
    // absorbs it completely.
    assert!(
        faulty.robustness.incidents > clean.robustness.incidents,
        "the mid-replay drop must be ledgered as an incident"
    );
    assert!(
        faulty.robustness.retries > clean.robustness.retries,
        "the interrupted case must be retried"
    );
    assert!(
        !faulty.degraded
            && faulty.robustness.quarantines == 0
            && faulty.robustness.infra_failures == 0,
        "one dropped frame must not degrade the campaign"
    );
    // The interrupted sync never leaks a half-built slot into verdicts:
    // everything the oracles concluded matches the clean run exactly.
    assert_eq!(clean.reports, faulty.reports);
    assert_eq!(clean.validity_series, faulty.validity_series);
    assert_eq!(clean.metrics.test_cases, faulty.metrics.test_cases);
    assert_eq!(
        clean.metrics.valid_test_cases,
        faulty.metrics.valid_test_cases
    );
    assert_eq!(
        clean.metrics.detected_bug_cases,
        faulty.metrics.detected_bug_cases
    );

    // Checkpoints written around the incident never contain half-built
    // slot state: kill after the fault, resume on a clean driver, and the
    // final report is byte-identical to the uninterrupted faulty run.
    let path =
        std::env::temp_dir().join(format!("sqlancerpp_pool_resilience_{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let checkpointing = SupervisorConfig {
        checkpoint_every: 5,
        checkpoint_path: Some(path.clone()),
        ..SupervisorConfig::default()
    };
    let killed = SupervisorConfig {
        stop_after_cases: Some(20),
        ..checkpointing.clone()
    };
    let killed_driver: Arc<dyn Driver> =
        Arc::new(DroppedFrameDriver::new(preset.driver(ExecutionPath::Ast)));
    let mut pool = Pool::new(killed_driver, 2).expect("pool connects");
    let _ = Campaign::new(config.clone()).run_pooled(&mut pool, &killed);
    let checkpoint = load_checkpoint(&path).expect("cadence checkpoint was written");
    assert!(
        checkpoint.resilience.is_some(),
        "the checkpoint must carry the pool's breaker/backoff state"
    );
    let mut pool = Pool::new(preset.driver(ExecutionPath::Ast), 2).expect("pool connects");
    let mut campaign = Campaign::new(config.clone());
    campaign.apply_capability(&pool.capability().clone());
    let resumed = campaign.resume(&mut pool, &checkpointing, checkpoint);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        render_report(&resumed),
        render_report(&faulty),
        "resume after the mid-replay drop diverged from the uninterrupted run"
    );
}
