//! Crash-safe resume determinism: a campaign killed at an arbitrary case
//! index and resumed from its checkpoint file must converge to a report
//! **byte-identical** (under `render_report`) to an uninterrupted run —
//! serially and for any partitioned worker count — and the stateful
//! oracles must reach the same verdicts whether the backend offers a
//! snapshot facility or forces the SQL-text setup-replay fallback.

use sqlancerpp::core::{
    load_checkpoint, render_report, Campaign, CampaignConfig, CampaignReport, DbmsConnection,
    DialectQuirks, Driver, IncidentKind, OracleKind, Pool, QueryResult, StateCheckpoint,
    StatementOutcome, StorageMetrics, SupervisorConfig, INFRA_MARKER,
};
use sqlancerpp::sim::{
    observed_infra_kinds, preset_by_name, shard_checkpoint_path, DialectPreset, ExecutionPath,
    FaultyConfig, RunPlan,
};
use std::path::PathBuf;
use std::sync::Arc;

fn storm_preset(dialect: &str) -> DialectPreset {
    preset_by_name(dialect)
        .unwrap()
        .with_infra_faults(FaultyConfig::storm())
}

fn resume_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(seed)
        .databases(2)
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

/// One driver's campaign, sharded by database across `threads` workers.
fn sharded(
    driver: &Arc<dyn Driver>,
    config: &CampaignConfig,
    threads: usize,
    pool_size: usize,
    supervision: &SupervisorConfig,
) -> CampaignReport {
    let plan = RunPlan {
        pool_size,
        threads,
        shard_by_database: true,
        supervision: supervision.clone(),
        ..RunPlan::new(vec![Arc::clone(driver)])
    };
    plan.run(config).reports.remove(0)
}

/// Every per-kind robustness counter equals the number of ledgered
/// incidents of its kind: the supervisor folds both from the same incident
/// events.
fn assert_counters_match_incidents(report: &CampaignReport) {
    let robustness = report.robustness;
    assert_eq!(robustness.incidents, report.incidents.len() as u64);
    for (kind, counter) in [
        (IncidentKind::WatchdogTimeout, robustness.watchdog_trips),
        (IncidentKind::OraclePanic, robustness.oracle_panics),
        (
            IncidentKind::StorageMetricsError,
            robustness.storage_metric_errors,
        ),
        (IncidentKind::ProbeFailure, robustness.probe_failures),
        (IncidentKind::CapabilityDrift, robustness.capability_drifts),
        (IncidentKind::BreakerTrip, robustness.breaker_trips),
        (IncidentKind::BreakerRecovery, robustness.breaker_recoveries),
        (IncidentKind::WorkerPanic, robustness.recovered_workers),
    ] {
        let ledgered = report
            .incidents
            .iter()
            .filter(|incident| incident.kind == kind)
            .count() as u64;
        assert_eq!(
            ledgered, counter,
            "{kind:?} counter disagrees with the ledger"
        );
    }
}

/// A unique scratch path for one test's checkpoint file.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sqlancerpp_resume_{}_{name}", std::process::id()))
}

fn cleanup(base: &PathBuf, shards: usize) {
    let _ = std::fs::remove_file(base);
    for index in 0..shards {
        let _ = std::fs::remove_file(shard_checkpoint_path(base, index));
    }
}

#[test]
fn killed_serial_campaign_resumes_to_byte_identical_report() {
    let config = resume_config(0xC0FFEE);
    let path = scratch("serial");
    cleanup(&path, 0);

    // The uninterrupted reference: supervised, but never checkpointed.
    let mut conn = storm_preset("sqlite").instantiate_for_path(ExecutionPath::Ast);
    let reference =
        Campaign::new(config.clone()).run_supervised(&mut conn, &SupervisorConfig::default());
    let reference_text = render_report(&reference);
    assert!(
        reference.robustness.incidents > 0,
        "the storm should land at least one fault in this campaign"
    );
    assert_counters_match_incidents(&reference);

    for kill_at in [7u64, 23u64] {
        let checkpointing = SupervisorConfig {
            checkpoint_every: 5,
            checkpoint_path: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        // Run until the simulated kill. Like a real crash, everything since
        // the last cadence checkpoint is lost with the process.
        let killed = SupervisorConfig {
            stop_after_cases: Some(kill_at),
            ..checkpointing.clone()
        };
        let mut conn = storm_preset("sqlite").instantiate_for_path(ExecutionPath::Ast);
        let partial = Campaign::new(config.clone()).run_supervised(&mut conn, &killed);
        assert!(partial.metrics.test_cases <= kill_at + config.databases as u64);
        assert_counters_match_incidents(&partial);

        // A new process: fresh campaign, fresh connection, checkpoint file.
        let checkpoint = load_checkpoint(&path).expect("cadence checkpoint was written");
        let mut conn = storm_preset("sqlite").instantiate_for_path(ExecutionPath::Ast);
        let resumed = Campaign::new(config.clone()).resume(&mut conn, &checkpointing, checkpoint);
        assert_eq!(
            render_report(&resumed),
            reference_text,
            "kill at case {kill_at}: resumed report diverged from the uninterrupted run"
        );
        assert_counters_match_incidents(&resumed);
        cleanup(&path, 0);
    }
}

#[test]
fn killed_partitioned_campaign_resumes_identically_for_any_worker_count() {
    let mut config = resume_config(0xFEED);
    config.databases = 3;
    let driver = storm_preset("mariadb").driver(ExecutionPath::Ast);
    let reference = sharded(&driver, &config, 1, 1, &SupervisorConfig::default());
    let reference_text = render_report(&reference);

    for threads in [1usize, 3usize] {
        let path = scratch(&format!("partitioned_{threads}"));
        cleanup(&path, config.databases);
        let checkpointing = SupervisorConfig {
            checkpoint_every: 4,
            checkpoint_path: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let killed = SupervisorConfig {
            stop_after_cases: Some(9),
            ..checkpointing.clone()
        };
        let partial = sharded(&driver, &config, threads, 1, &killed);
        assert!(partial.metrics.test_cases < reference.metrics.test_cases);

        // Re-invoking the same partitioned campaign finds the per-shard
        // checkpoint files and resumes each shard to completion.
        let resumed = sharded(&driver, &config, threads, 1, &checkpointing);
        assert_eq!(
            render_report(&resumed),
            reference_text,
            "{threads}-thread partitioned resume diverged from the uninterrupted run"
        );
        cleanup(&path, config.databases);
    }
}

/// Forwards everything but denies the snapshot facility, forcing the
/// stateful oracles onto the SQL-text setup-replay fallback.
struct NoSnapshot(Box<dyn DbmsConnection>);

impl DbmsConnection for NoSnapshot {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn execute(&mut self, sql: &str) -> StatementOutcome {
        self.0.execute(sql)
    }
    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.0.query(sql)
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn quirks(&self) -> DialectQuirks {
        self.0.quirks()
    }
    fn execute_ast(&mut self, stmt: &sqlancerpp::ast::Statement) -> StatementOutcome {
        self.0.execute_ast(stmt)
    }
    fn query_ast(&mut self, select: &sqlancerpp::ast::Select) -> Result<QueryResult, String> {
        self.0.query_ast(select)
    }
    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        self.0.open_session()
    }
    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        self.0.storage_metrics()
    }
    fn begin_case(&mut self, case_seed: u64) {
        self.0.begin_case(case_seed);
    }
    fn virtual_ticks(&self) -> u64 {
        self.0.virtual_ticks()
    }
    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        None
    }
    fn restore(&mut self, _checkpoint: &StateCheckpoint) -> bool {
        false
    }
}

#[test]
fn setup_replay_fallback_reaches_the_same_verdicts_as_snapshot_restore() {
    let config = CampaignConfig::builder()
        .seed(0xAB5E)
        .databases(2)
        .ddl_per_database(8)
        .queries_per_database(20)
        .oracles(vec![OracleKind::Rollback, OracleKind::Isolation])
        .reduce_bugs(false)
        .build();
    let run = |deny_snapshots: bool| -> CampaignReport {
        let preset = preset_by_name("sqlite").unwrap();
        let inner = preset.instantiate_for_path(ExecutionPath::Ast);
        if deny_snapshots {
            let mut conn = NoSnapshot(inner);
            Campaign::new(config.clone()).run(&mut conn)
        } else {
            let mut conn = inner;
            Campaign::new(config.clone()).run(&mut conn)
        }
    };
    let with_snapshots = run(false);
    let without_snapshots = run(true);
    // Verdicts, case counts and bug reports must agree exactly. (The
    // storage counters legitimately differ: the fallback path re-executes
    // the setup SQL where the snapshot path restores a clone, and that
    // extra engine work is precisely what the counters measure.)
    assert_eq!(with_snapshots.reports, without_snapshots.reports);
    assert_eq!(
        with_snapshots.validity_series,
        without_snapshots.validity_series
    );
    assert_eq!(
        with_snapshots.metrics.test_cases,
        without_snapshots.metrics.test_cases
    );
    assert_eq!(
        with_snapshots.metrics.valid_test_cases,
        without_snapshots.metrics.valid_test_cases
    );
    assert_eq!(
        with_snapshots.metrics.detected_bug_cases,
        without_snapshots.metrics.detected_bug_cases
    );
    assert_eq!(
        with_snapshots.metrics.prioritized_bugs,
        without_snapshots.metrics.prioritized_bugs
    );
    assert_eq!(
        with_snapshots.metrics.isolation_schedules,
        without_snapshots.metrics.isolation_schedules
    );
    assert_eq!(
        with_snapshots.metrics.conflict_aborts,
        without_snapshots.metrics.conflict_aborts
    );
    assert!(with_snapshots.metrics.test_cases > 0);
}

#[test]
fn killed_pooled_flaky_campaign_resumes_with_breaker_state() {
    let mut config = resume_config(0xB4EA);
    config.databases = 3;
    let preset = preset_by_name("sqlite")
        .unwrap()
        .with_infra_faults(FaultyConfig::flaky());
    let driver = preset.driver(ExecutionPath::Ast);

    // The uninterrupted reference must actually exercise the breakers:
    // probe crashes and post-respawn flapping trip them and the backoff
    // schedule recovers them.
    let reference = sharded(&driver, &config, 1, 2, &SupervisorConfig::default());
    let reference_text = render_report(&reference);
    assert!(
        reference.robustness.breaker_trips > 0,
        "the flaky storm should trip at least one breaker in this campaign"
    );
    assert_counters_match_incidents(&reference);
    // The self-healing layer absorbs the whole storm: exactly the armed
    // kinds are ledgered, every breaker trip and recovery is an incident,
    // nothing degrades or surfaces as a logic bug, and neither the pool
    // size nor the execution path is observable while breakers trip and
    // recover.
    let robustness = reference.robustness;
    assert_eq!(
        observed_infra_kinds(&reference),
        ["infra_probe", "infra_flap", "infra_capability_lie"]
    );
    assert!(robustness.capability_drifts > 0 && robustness.breaker_recoveries > 0);
    let ledgered = |kind: IncidentKind| {
        reference
            .incidents
            .iter()
            .filter(|incident| incident.kind == kind)
            .count() as u64
    };
    assert_eq!(
        ledgered(IncidentKind::BreakerTrip),
        robustness.breaker_trips
    );
    assert_eq!(
        ledgered(IncidentKind::BreakerRecovery),
        robustness.breaker_recoveries
    );
    assert!(!reference.degraded);
    assert_eq!((robustness.quarantines, robustness.infra_failures), (0, 0));
    assert!(reference
        .reports
        .iter()
        .all(|bug| !bug.description.contains(INFRA_MARKER)));
    for (path, pool_size) in [
        (ExecutionPath::Ast, 1usize),
        (ExecutionPath::Ast, 4),
        (ExecutionPath::Text, 2),
    ] {
        let run = sharded(
            &preset.driver(path),
            &config,
            1,
            pool_size,
            &SupervisorConfig::default(),
        );
        assert_eq!(
            render_report(&run),
            reference_text,
            "{path:?} flaky report drifted at pool size {pool_size}"
        );
    }

    for threads in [1usize, 3usize] {
        let path = scratch(&format!("pooled_flaky_{threads}"));
        cleanup(&path, config.databases);
        let checkpointing = SupervisorConfig {
            checkpoint_every: 4,
            checkpoint_path: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let killed = SupervisorConfig {
            stop_after_cases: Some(9),
            ..checkpointing.clone()
        };
        let partial = sharded(&driver, &config, threads, 2, &killed);
        assert!(partial.metrics.test_cases < reference.metrics.test_cases);

        // The checkpoint files written mid-storm carry the pool's breaker
        // and backoff state, so the resumed pool re-opens mid-backoff
        // instead of forgetting the slot was misbehaving.
        let carried = (0..config.databases)
            .filter_map(|index| load_checkpoint(&shard_checkpoint_path(&path, index)).ok())
            .any(|checkpoint| checkpoint.resilience.is_some());
        assert!(
            carried,
            "at least one shard checkpoint must carry the breaker ledger"
        );

        let resumed = sharded(&driver, &config, threads, 2, &checkpointing);
        assert_eq!(
            render_report(&resumed),
            reference_text,
            "{threads}-thread pooled flaky resume diverged from the uninterrupted run"
        );
        cleanup(&path, config.databases);
    }
}

#[test]
fn killed_and_checkpointed_reports_count_every_prioritizer_ruling() {
    // Regression: the prioritizer's counts used to be copied into the
    // report only when a campaign finished, so a killed run's report (and
    // the partial report inside every checkpoint) read 0 prioritized and 0
    // deduplicated bugs next to a nonzero detected count.
    let config = CampaignConfig::builder()
        .seed(1)
        .databases(2)
        .queries_per_database(30)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
            OracleKind::Isolation,
        ])
        .reduce_bugs(false)
        .build();
    let path = scratch("prioritizer_counts");
    cleanup(&path, 0);
    let killed = SupervisorConfig {
        checkpoint_every: 20,
        checkpoint_path: Some(path.clone()),
        stop_after_cases: Some(30),
        ..SupervisorConfig::default()
    };
    let driver = preset_by_name("dolt").unwrap().driver(ExecutionPath::Ast);
    let mut pool = Pool::new(driver, 1).unwrap();
    let partial = Campaign::new(config).run_pooled(&mut pool, &killed);
    let checkpoint = load_checkpoint(&path).expect("cadence checkpoint was written");
    cleanup(&path, 0);
    for (report, which) in [(&partial, "killed"), (&checkpoint.report, "checkpointed")] {
        let metrics = report.metrics;
        assert!(
            metrics.detected_bug_cases > 0,
            "{which}: dolt should detect bugs"
        );
        assert_eq!(
            metrics.prioritized_bugs + metrics.deduplicated_bugs,
            metrics.detected_bug_cases,
            "{which} report: every detected bug case has a prioritizer ruling"
        );
    }
    assert_eq!(
        partial.reports.len() as u64,
        partial.metrics.prioritized_bugs
    );
}
