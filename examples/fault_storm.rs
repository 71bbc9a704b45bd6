//! A fault-storm campaign: every infrastructure fault armed, the
//! supervisor riding out crashes, hangs, drops and garbled results.
//!
//! Runs a supervised campaign against dialects whose connections inject
//! seed-planned infrastructure faults, prints the incident ledger and the
//! robustness counters, and closes with the two checks the platform
//! guarantees at fleet scale:
//!
//! 1. **attribution** — every armed fault kind shows up as incidents, and
//!    disarming a kind (the ground-truth bisection) makes exactly that
//!    kind's incidents vanish;
//! 2. **no false positives** — no infrastructure failure ever surfaces as
//!    a logic-bug report.
//!
//! ```bash
//! cargo run --example fault_storm
//! ```

use sqlancerpp::core::{
    silence_infra_panics, Campaign, CampaignConfig, OracleKind, SupervisorConfig,
};
use sqlancerpp::sim::{
    infra_catalog, observed_infra_kinds, preset_by_name, ExecutionPath, FaultyConfig,
    InfraFaultKind,
};

fn storm_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(10)
        .queries_per_database(120)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(false)
        .build()
}

fn run_with_faults(dialect: &str, faults: FaultyConfig) -> sqlancerpp::core::CampaignReport {
    let preset = preset_by_name(dialect)
        .expect("known preset")
        .with_infra_faults(faults);
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    Campaign::new(storm_config(0x57042)).run_supervised(&mut *conn, &SupervisorConfig::default())
}

fn main() {
    // Injected backend crashes are panics the supervisor catches; keep the
    // default hook from spraying their backtraces over the output.
    silence_infra_panics();

    println!("injected infrastructure fault catalog:");
    for fault in infra_catalog() {
        println!("  {} ({}) — {}", fault.id, fault.fault, fault.description);
    }
    println!();

    println!(
        "| DBMS | cases | incidents | retries | watchdog | infra kinds observed | logic bugs |"
    );
    println!("|---|---|---|---|---|---|---|");
    for dialect in ["sqlite", "mariadb", "duckdb"] {
        let report = run_with_faults(dialect, FaultyConfig::storm());
        let kinds = observed_infra_kinds(&report);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            dialect,
            report.metrics.test_cases,
            report.robustness.incidents,
            report.robustness.retries,
            report.robustness.watchdog_trips,
            kinds.join(", "),
            report.metrics.prioritized_bugs,
        );
        // No false positives: infrastructure faults are incidents, never
        // logic-bug reports.
        assert!(
            report
                .reports
                .iter()
                .all(|bug| !bug.description.contains("infra:")),
            "an injected infrastructure fault leaked into the bug reports"
        );
    }
    println!();

    // Ground-truth bisection on one dialect: re-run the identical campaign
    // with one fault kind disarmed; exactly that kind's incidents vanish.
    let storm = run_with_faults("sqlite", FaultyConfig::storm());
    println!(
        "bisection (sqlite): storm observes {:?}",
        observed_infra_kinds(&storm)
    );
    for kind in InfraFaultKind::all() {
        let without = run_with_faults("sqlite", FaultyConfig::storm().without(kind));
        let observed = observed_infra_kinds(&without);
        assert!(
            !observed.contains(&kind.id()),
            "disarming {} must remove its incidents",
            kind.id()
        );
        println!("  without {:<12} observes {:?}", kind.id(), observed);
    }
    println!();

    let storm = run_with_faults("sqlite", FaultyConfig::storm());
    println!("sample incidents (sqlite storm):");
    for incident in storm.incidents.iter().take(6) {
        println!(
            "  db{} case{} attempt{} {:?}: {}",
            incident.database,
            incident.case_index,
            incident.attempt,
            incident.kind,
            incident.detail
        );
    }
    println!(
        "\nstorm campaign finished degraded={} quarantines={} infra_failures={}",
        storm.degraded, storm.robustness.quarantines, storm.robustness.infra_failures
    );
}
