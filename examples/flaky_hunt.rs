//! A flaky-backend hunt through the self-healing connection layer: the
//! backend lies about transaction support, crashes during capability
//! probes and flaps after respawns — and the pool absorbs all of it.
//!
//! The walk-through:
//!
//! 1. **probe** — `Pool::new` runs the deterministic capability probe
//!    script on connect; the lied-about transaction claim is downgraded
//!    and the static-vs-probed disagreement recorded as drift;
//! 2. **breakers** — probe crashes and post-respawn flapping trip
//!    per-slot circuit breakers; backoff on the virtual clock re-admits
//!    the slots, and every trip and recovery lands in the incident ledger;
//! 3. **clean verdicts** — the campaign completes undegraded with zero
//!    infrastructure faults surfacing as logic-bug reports, and the
//!    rendered report is byte-identical for any pool size.
//!
//! ```bash
//! cargo run --example flaky_hunt
//! ```

use sqlancerpp::core::{
    render_report, silence_infra_panics, CampaignConfig, IncidentKind, OracleKind, Pool,
    INFRA_MARKER,
};
use sqlancerpp::sim::{observed_infra_kinds, preset_by_name, ExecutionPath, FaultyConfig, RunPlan};
use std::sync::Arc;

fn hunt_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(seed)
        .databases(3)
        .ddl_per_database(10)
        .queries_per_database(60)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(false)
        .build()
}

fn main() {
    // Injected probe crashes are panics the supervisor catches; keep the
    // default hook from spraying their backtraces over the output.
    silence_infra_panics();

    let preset = preset_by_name("sqlite")
        .expect("known preset")
        .with_infra_faults(FaultyConfig::flaky());
    let driver = preset.driver(ExecutionPath::Ast);

    // 1. The probe catches the capability lie before the generator ever
    //    sees the backend.
    println!(
        "static capability: transactions = {}",
        driver.capability().transactions
    );
    let pool = Pool::new(Arc::clone(&driver), 2).expect("flaky backend still connects");
    println!(
        "probed capability: transactions = {}",
        pool.capability().transactions
    );
    for detail in pool.drift_details() {
        println!("  drift: {detail}");
    }
    drop(pool);
    println!();

    // 2. + 3. The supervised pooled campaign rides out the storm.
    let config = hunt_config(0xF1AC);
    let plan = RunPlan {
        pool_size: 2,
        shard_by_database: true,
        ..RunPlan::new(vec![driver])
    };
    let run = plan.run(&config);
    let report = &run.reports[0];
    println!(
        "campaign: {} cases, degraded = {}, logic bugs = {}",
        report.metrics.test_cases, report.degraded, report.metrics.prioritized_bugs
    );
    println!(
        "resilience: {} capability drift(s), {} probe failure(s), {} breaker trip(s), {} recovery(ies)",
        report.robustness.capability_drifts,
        report.robustness.probe_failures,
        report.robustness.breaker_trips,
        report.robustness.breaker_recoveries,
    );
    println!(
        "observed infra kinds: {}",
        observed_infra_kinds(report).join(", ")
    );
    let sample = report
        .incidents
        .iter()
        .find(|incident| incident.kind == IncidentKind::BreakerTrip);
    if let Some(incident) = sample {
        println!("sample breaker incident: {}", incident.detail);
    }
    println!();

    // The guarantees, asserted: undegraded, no false positives, and the
    // report is a pure function of the seed — not of the pool size.
    assert!(!report.degraded && report.robustness.quarantines == 0);
    for bug in &report.reports {
        assert!(
            !bug.description.contains(INFRA_MARKER),
            "infrastructure fault surfaced as a logic bug: {}",
            bug.description
        );
    }
    let other_pool = RunPlan {
        pool_size: 4,
        ..plan
    }
    .run(&config);
    assert_eq!(
        render_report(report),
        render_report(&other_pool.reports[0]),
        "report must not depend on pool size"
    );
    println!("flaky hunt OK: campaign self-healed with zero false positives");
}
