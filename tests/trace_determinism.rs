//! Two-plane observability contracts.
//!
//! Deterministic plane: the trace summary (statement/verdict counters and
//! virtual-tick latency histograms) is assembled from per-event tick
//! *deltas*, so its rendering must be **byte-identical** for any worker
//! count, any pool size and both execution paths — tracing observes the
//! campaign, it never becomes an observable itself.
//!
//! Flight recorder: a campaign killed at an arbitrary case and resumed
//! from its checkpoint replays the same deterministic event stream, so
//! every bug case's recorded history in the reference run must reappear —
//! event for event — in the killed or resumed run's recorder.

use sqlancerpp::core::{
    load_checkpoint, render_trace_summary, validate_jsonl, Campaign, CampaignConfig,
    CampaignReport, CaseRecord, Driver, FlightRecorder, OracleKind, SupervisorConfig,
    TraceCounters, TraceEventKind, TraceHandle, Tracer,
};
use sqlancerpp::sim::{
    preset_by_name, DialectPreset, ExecutionPath, FaultyConfig, FleetReport, RunPlan,
};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

fn storm_preset(dialect: &str) -> DialectPreset {
    preset_by_name(dialect)
        .unwrap()
        .with_infra_faults(FaultyConfig::storm())
}

fn trace_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(8)
        .queries_per_database(40)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .max_reduction_checks(16)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

/// Runs a supervised serial campaign with a flight-recorder tracer and
/// returns the report plus the (sealed) tracer.
fn run_traced_supervised(
    preset: &DialectPreset,
    config: &CampaignConfig,
    supervision: &SupervisorConfig,
) -> (CampaignReport, Tracer) {
    let tracer = Rc::new(RefCell::new(Tracer::new().with_flight_recorder(16)));
    let handle: TraceHandle = tracer.clone();
    let mut campaign = Campaign::new(config.clone());
    campaign.set_trace(Some(handle));
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    let report = campaign.run_supervised(&mut conn, supervision);
    drop(campaign);
    let tracer = Rc::try_unwrap(tracer)
        .expect("campaign released its trace handle")
        .into_inner();
    (report, tracer)
}

/// Resumes a killed campaign from its checkpoint with a fresh tracer (a
/// new process has no memory of the old one's recorder).
fn resume_traced(
    preset: &DialectPreset,
    config: &CampaignConfig,
    supervision: &SupervisorConfig,
    path: &std::path::Path,
) -> (CampaignReport, Tracer) {
    let checkpoint = load_checkpoint(path).expect("cadence checkpoint was written");
    let tracer = Rc::new(RefCell::new(Tracer::new().with_flight_recorder(16)));
    let handle: TraceHandle = tracer.clone();
    let mut campaign = Campaign::new(config.clone());
    campaign.set_trace(Some(handle));
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    let report = campaign.resume(&mut conn, supervision, checkpoint);
    drop(campaign);
    let tracer = Rc::try_unwrap(tracer)
        .expect("campaign released its trace handle")
        .into_inner();
    (report, tracer)
}

/// One driver's traced campaign, sharded by database across `threads`
/// workers.
fn sharded_traced(
    driver: &Arc<dyn Driver>,
    config: &CampaignConfig,
    threads: usize,
    pool_size: usize,
) -> FleetReport {
    let plan = RunPlan {
        pool_size,
        threads,
        shard_by_database: true,
        trace: true,
        ..RunPlan::new(vec![Arc::clone(driver)])
    };
    plan.run(config)
}

/// The tracer's counters with the statement, tick and reduction tallies
/// zeroed: the part a report's ledger also counts.
fn ledger_part(tracer: &Tracer) -> TraceCounters {
    let mut counters = TraceCounters::default();
    for dialect in tracer.summary().dialects.values() {
        counters.merge(&dialect.counters);
    }
    TraceCounters {
        case_ticks: 0,
        statements: 0,
        statement_errors: 0,
        setup_statements: 0,
        setup_errors: 0,
        reduced_bugs: 0,
        reduced_statements_removed: 0,
        ..counters
    }
}

/// A report's ledger as the tracer would count it: the supervisor and the
/// tracer fold the same events, so for a traced run the two agree.
fn traced_view(report: &CampaignReport) -> TraceCounters {
    let (metrics, robustness) = (&report.metrics, &report.robustness);
    let abandoned = robustness.infra_failures + robustness.oracle_panics;
    TraceCounters {
        cases: metrics.test_cases,
        verdict_pass: metrics.valid_test_cases - metrics.detected_bug_cases,
        verdict_invalid: metrics.test_cases - metrics.valid_test_cases - abandoned,
        verdict_bug: metrics.detected_bug_cases,
        verdict_infra: robustness.infra_failures,
        verdict_panic: robustness.oracle_panics,
        retries: robustness.retries,
        backoff_ticks: robustness.backoff_ticks,
        incidents: robustness.incidents,
        watchdog_trips: robustness.watchdog_trips,
        quarantines: robustness.quarantines,
        prioritized_kept: metrics.prioritized_bugs,
        prioritized_dropped: metrics.deduplicated_bugs,
        ..TraceCounters::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sqlancerpp_trace_{}_{name}", std::process::id()))
}

#[test]
fn trace_summary_is_byte_identical_for_any_worker_and_pool_count() {
    let config = trace_config(0x7ACE);
    let preset = storm_preset("dolt");
    let mut baselines = Vec::new();
    for path in [ExecutionPath::Ast, ExecutionPath::Text] {
        let driver = preset.driver(path);
        let baseline = render_trace_summary(&sharded_traced(&driver, &config, 1, 1).trace);
        assert!(
            baseline.contains("verdicts"),
            "summary should render verdict counters:\n{baseline}"
        );
        for threads in [1usize, 2] {
            for pool_size in [1usize, 2, 4] {
                let run = sharded_traced(&driver, &config, threads, pool_size);
                assert_eq!(
                    baseline,
                    render_trace_summary(&run.trace),
                    "{path:?} trace summary drifted at {threads} threads, pool size {pool_size}"
                );
            }
        }
        baselines.push(baseline);
    }
    // Statement costs are charged at the shared text/AST funnel, so the
    // execution path is not an observable either.
    assert_eq!(
        baselines[0], baselines[1],
        "text and AST paths must produce identical trace summaries"
    );
}

#[test]
fn storm_fault_hitting_an_oracle_rebuild_does_not_break_pool_invariance() {
    // Regression: a garble/drop fault whose trigger landed inside the
    // rollback oracle's in-case setup rebuild used to be silently
    // swallowed, leaving a half-built state checkpointed on one slot. The
    // sync log never saw the corruption, so re-synced slots diverged and
    // reports (and trace summaries) depended on the pool size. This budget
    // and seed reproduced the drift at pool size 2.
    let mut config = trace_config(0x7247CE);
    config.ddl_per_database = 10;
    config.queries_per_database = 120;
    config.max_reduction_checks = 24;
    let preset = storm_preset("dolt");
    let driver = preset.driver(ExecutionPath::Ast);
    let serial = sharded_traced(&driver, &config, 1, 1);
    let sharded = sharded_traced(&driver, &config, 2, 2);
    assert_eq!(
        sqlancerpp::core::render_report(&serial.reports[0]),
        sqlancerpp::core::render_report(&sharded.reports[0]),
        "campaign reports must not depend on worker or pool counts"
    );
    assert_eq!(
        render_trace_summary(&serial.trace),
        render_trace_summary(&sharded.trace),
        "trace summaries must not depend on worker or pool counts"
    );
}

/// Every pinned (bug/incident) case of the reference recorder, by seed.
fn pinned_by_seed(recorder: &FlightRecorder) -> Vec<&CaseRecord> {
    recorder.pinned().iter().collect()
}

#[test]
fn flight_recorder_replays_identical_bug_histories_across_kill_and_resume() {
    let config = trace_config(0xF117);
    let preset = storm_preset("dolt");
    let path = scratch("kill_resume");
    let _ = std::fs::remove_file(&path);

    let (reference, reference_tracer) =
        run_traced_supervised(&preset, &config, &SupervisorConfig::default());
    let reference_recorder = reference_tracer.recorder().unwrap();
    assert!(
        reference.metrics.detected_bug_cases > 0,
        "this campaign should detect bugs"
    );
    assert!(
        !reference_recorder.pinned().is_empty(),
        "bug cases must be pinned in the flight recorder"
    );
    assert!(
        reference.robustness.retries > 0,
        "the storm should force retries"
    );
    assert_eq!(ledger_part(&reference_tracer), traced_view(&reference));

    let checkpointing = SupervisorConfig {
        checkpoint_every: 5,
        checkpoint_path: Some(path.clone()),
        ..SupervisorConfig::default()
    };
    let killed_config = SupervisorConfig {
        stop_after_cases: Some(11),
        ..checkpointing.clone()
    };
    let (killed, killed_tracer) = run_traced_supervised(&preset, &config, &killed_config);
    assert_eq!(ledger_part(&killed_tracer), traced_view(&killed));
    let resumed_from = load_checkpoint(&path).expect("cadence checkpoint was written");
    let (resumed, resumed_tracer) = resume_traced(&preset, &config, &checkpointing, &path);
    // The resumed tracer saw only the cases after the checkpoint; the
    // checkpoint's report carries the ledger of the cases before it.
    let mut resumed_view = traced_view(&resumed_from.report);
    resumed_view.merge(&ledger_part(&resumed_tracer));
    assert_eq!(resumed_view, traced_view(&resumed));
    assert_eq!(
        sqlancerpp::core::render_report(&resumed),
        sqlancerpp::core::render_report(&reference),
        "resume must converge to the reference report"
    );

    let killed_recorder = killed_tracer.recorder().unwrap();
    let resumed_recorder = resumed_tracer.recorder().unwrap();
    for record in pinned_by_seed(reference_recorder) {
        let replayed = killed_recorder
            .pinned_by_seed(record.case_seed)
            .into_iter()
            .chain(resumed_recorder.pinned_by_seed(record.case_seed))
            .any(|candidate| candidate == record);
        assert!(
            replayed,
            "case seed {:#x} ({} at case {}): no identical record in the killed or resumed \
             flight recorder",
            record.case_seed,
            record.outcome(),
            record.case_index
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_detected_bug_has_a_complete_jsonl_history() {
    let mut config = trace_config(0x0B5E);
    config.reduce_bugs = false;
    let preset = storm_preset("dolt");
    let jsonl_path = scratch("jsonl");
    let _ = std::fs::remove_file(&jsonl_path);

    let progress_calls = Rc::new(RefCell::new(0u64));
    let calls = progress_calls.clone();
    let tracer = Rc::new(RefCell::new(
        Tracer::new()
            .with_jsonl_path(jsonl_path.clone())
            .with_progress(5, move |snapshot| {
                assert!(!snapshot.dialect.is_empty());
                *calls.borrow_mut() += 1;
            }),
    ));
    let handle: TraceHandle = tracer.clone();
    let mut campaign = Campaign::new(config.clone());
    campaign.set_trace(Some(handle));
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    let report = campaign.run_supervised(&mut conn, &SupervisorConfig::default());
    drop(campaign);
    let tracer = Rc::try_unwrap(tracer).ok().unwrap().into_inner();

    assert!(report.metrics.detected_bug_cases > 0);
    assert!(
        *progress_calls.borrow() > 0,
        "progress callback never fired"
    );

    // In-memory recorder: one pinned bug record per detected bug case, and
    // the prioritizer's keep/drop decisions are part of the history.
    let recorder = tracer.recorder().unwrap();
    let bug_records: Vec<_> = recorder
        .pinned()
        .iter()
        .filter(|record| record.outcome() == "bug")
        .collect();
    assert_eq!(
        bug_records.len() as u64,
        report.metrics.detected_bug_cases,
        "every detected bug case must have a pinned flight-recorder history"
    );
    let kept: u64 = bug_records
        .iter()
        .filter(|record| {
            record
                .events
                .iter()
                .any(|event| matches!(event.kind, TraceEventKind::Prioritized { kept: true }))
        })
        .count() as u64;
    assert_eq!(
        kept, report.metrics.prioritized_bugs,
        "kept prioritization decisions must match the report"
    );

    // The JSONL flush at campaign end wrote a self-consistent document.
    let text = std::fs::read_to_string(&jsonl_path).expect("jsonl was flushed at campaign end");
    let lines = validate_jsonl(&text).expect("flight-recorder JSONL must be well-formed");
    // Header + one line per sealed record + telemetry footer.
    assert!(lines as usize >= 2 + bug_records.len());
    assert_eq!(
        text,
        tracer.jsonl().unwrap(),
        "file matches the in-memory document"
    );
    // The last coverage-atlas line flushed is the final report's atlas.
    let atlas_line = text
        .lines()
        .rfind(|line| line.starts_with("{\"type\":\"coverage_atlas\""))
        .expect("the campaign-end flush carries the atlas");
    assert_eq!(
        atlas_line,
        report.coverage.to_json_line(&report.dbms_name).trim_end()
    );
    let _ = std::fs::remove_file(&jsonl_path);

    // Tracing observes, never perturbs: the summary accounts for every
    // case, and the untraced campaign renders the same report.
    let traced_cases: u64 = tracer
        .summary()
        .dialects
        .values()
        .map(|dialect| dialect.counters.cases)
        .sum();
    assert_eq!(traced_cases, report.metrics.test_cases);
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    let untraced = Campaign::new(config).run_supervised(&mut conn, &SupervisorConfig::default());
    assert_eq!(
        sqlancerpp::core::render_report(&untraced),
        sqlancerpp::core::render_report(&report)
    );
}
