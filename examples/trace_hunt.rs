//! A traced bug hunt: the two-plane campaign flight recorder in action.
//!
//! Runs a fault-storm campaign with a [`Tracer`] attached and shows both
//! telemetry planes:
//!
//! * **deterministic plane** — per-case lifecycle events aggregated into
//!   statement/verdict counters and virtual-tick latency histograms per
//!   oracle. The rendered summary is byte-identical for any worker count
//!   or pool size (demonstrated at the end against the partitioned
//!   runner);
//! * **wall-clock plane** — live progress snapshots while the campaign
//!   runs, operational backend telemetry, and a JSONL flight-recorder
//!   dump holding the complete event history of every bug case.
//!
//! ```bash
//! cargo run --example trace_hunt
//! ```

use sqlancerpp::core::{
    render_trace_summary, silence_infra_panics, validate_jsonl, Campaign, CampaignConfig,
    OracleKind, SupervisorConfig, TraceHandle, Tracer,
};
use sqlancerpp::sim::{preset_by_name, ExecutionPath, FaultyConfig, RunPlan};
use std::cell::RefCell;
use std::rc::Rc;

fn hunt_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(10)
        .queries_per_database(120)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .max_reduction_checks(24)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

fn main() {
    silence_infra_panics();

    let jsonl_path = std::env::temp_dir().join("trace_hunt_flight_recorder.jsonl");
    let tracer = Rc::new(RefCell::new(
        Tracer::new()
            .with_flight_recorder(32)
            .with_jsonl_path(jsonl_path.clone())
            .with_progress(50, |snapshot| {
                println!(
                    "  [live] {:>4} cases  {:>2} bugs  validity {:>5.1}%  {:>7.0} cases/s",
                    snapshot.cases,
                    snapshot.bugs,
                    snapshot.validity_rate * 100.0,
                    snapshot.cases_per_sec,
                );
            }),
    ));
    let handle: TraceHandle = tracer.clone();

    println!("== traced fault-storm campaign (dolt, every infra fault armed) ==");
    let preset = preset_by_name("dolt")
        .expect("known preset")
        .with_infra_faults(FaultyConfig::storm());
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    let mut campaign = Campaign::new(hunt_config(0x7247CE));
    campaign.set_trace(Some(handle));
    let report = campaign.run_supervised(&mut *conn, &SupervisorConfig::default());
    drop(campaign);
    let tracer = Rc::try_unwrap(tracer)
        .expect("campaign released its trace handle")
        .into_inner();
    println!();

    // Deterministic plane: the latency/verdict dashboard.
    println!("{}", render_trace_summary(tracer.summary()));

    // Wall-clock plane: operational backend telemetry.
    let telemetry = tracer.telemetry();
    println!(
        "backend telemetry: {} slot checkouts, {} re-syncs ({} stmts replayed), {} respawns",
        telemetry.slot_checkouts,
        telemetry.slot_resyncs,
        telemetry.resync_statements,
        telemetry.respawns,
    );
    println!();

    // Flight-recorder forensics: every bug case keeps its complete
    // deterministic event history, pinned past any ring eviction.
    let recorder = tracer.recorder().expect("recorder configured");
    println!(
        "flight recorder: {} pinned case(s), {} recent in the ring",
        recorder.pinned().len(),
        recorder.recent().count(),
    );
    for record in recorder.pinned().iter().take(3) {
        println!(
            "  case #{} (seed {:#x}, {} oracle) -> {}:",
            record.case_index,
            record.case_seed,
            record.oracle.name(),
            record.outcome(),
        );
        for event in &record.events {
            println!("    +{:>6} ticks  {:?}", event.ticks, event.kind);
        }
    }
    println!();

    // The JSONL dump written at campaign end is self-validating.
    let text = std::fs::read_to_string(&jsonl_path).expect("JSONL flushed at campaign end");
    let lines = validate_jsonl(&text).expect("well-formed JSONL");
    println!(
        "flight recorder JSONL: {lines} lines at {}",
        jsonl_path.display()
    );
    println!();

    // Determinism: the merged trace summary of the partitioned runner is
    // byte-identical for any worker count and pool size.
    let config = hunt_config(0x7247CE);
    let serial = RunPlan {
        shard_by_database: true,
        trace: true,
        ..RunPlan::new(vec![preset.driver(ExecutionPath::Ast)])
    };
    let sharded = RunPlan {
        threads: 4,
        pool_size: 2,
        ..serial.clone()
    };
    assert_eq!(
        render_trace_summary(&serial.run(&config).trace),
        render_trace_summary(&sharded.run(&config).trace),
        "trace summaries must not depend on worker or pool counts"
    );
    println!(
        "partitioned trace summaries: 1 worker x pool 1 == 4 workers x pool 2 (byte-identical)"
    );
    println!(
        "campaign: {} cases, {} detected bug cases, {} prioritized, degraded={}",
        report.metrics.test_cases,
        report.metrics.detected_bug_cases,
        report.metrics.prioritized_bugs,
        report.degraded,
    );
}
