//! Hunting transaction bugs with the rollback oracle.
//!
//! Walkthrough of the transaction subsystem end to end: the adaptive
//! generator emits multi-statement transactional sessions, the rollback
//! oracle brackets them in `BEGIN…ROLLBACK` / `BEGIN…COMMIT` and compares
//! 128-bit table fingerprints against the auto-commit reference, the
//! reducer shrinks flagged sessions while keeping `SAVEPOINT`/`ROLLBACK TO`
//! pairs intact, and ground-truth bisection names the injected fault.
//!
//! The three designated transaction-bug dialects are hunted here:
//!
//! * `dolt` — `Fault::TxnLostRollback` (ROLLBACK keeps the writes),
//! * `monetdb` — `Fault::TxnPhantomCommit` (COMMIT discards them),
//! * `firebird` — `Fault::TxnSavepointCollapse` (ROLLBACK TO rewinds too far).
//!
//! The example asserts that each designated dialect bisects to exactly its
//! injected bug and that the clean `sqlite` flags nothing, so it exits
//! non-zero when detection, reduction or bisection regresses.
//!
//! ```bash
//! cargo run --example txn_hunt
//! ```

use sqlancerpp::core::{Campaign, CampaignConfig, OracleKind};
use sqlancerpp::sim::preset_by_name;
use std::collections::BTreeSet;

fn main() {
    println!("== Transaction-rollback oracle hunt ==\n");
    for (name, expected) in [
        ("dolt", Some("BUG-LOST-ROLLBACK")),
        ("monetdb", Some("BUG-PHANTOM-COMMIT")),
        ("firebird", Some("BUG-SAVEPOINT-COLLAPSE")),
        ("sqlite", None),
    ] {
        let preset = preset_by_name(name).expect("known preset");
        let mut dbms = preset.instantiate();
        // Rollback-only schedule: every test case is a transactional
        // session (mixed schedules alternate it with TLP/NoREC).
        let mut config = CampaignConfig::builder()
            .seed(0xAC1D)
            .databases(1)
            .ddl_per_database(10)
            .queries_per_database(80)
            .oracles(vec![OracleKind::Rollback])
            .reduce_bugs(true)
            .max_reduction_checks(32)
            .build();
        config.generator.stats.query_threshold = 0.05;
        config.generator.stats.min_attempts = 30;
        let mut campaign = Campaign::new(config);
        let report = campaign.run(&mut dbms);

        let unique: BTreeSet<&'static str> = report
            .txn_cases
            .iter()
            .flat_map(|case| dbms.ground_truth_bugs(case))
            .collect();
        println!(
            "{name}: {} test cases, {} flagged, {} prioritized, ground truth: {:?}",
            report.metrics.test_cases,
            report.metrics.detected_bug_cases,
            report.txn_cases.len(),
            unique
        );
        if let Some(case) = report.txn_cases.first() {
            println!("  first reduced session (oracle adds BEGIN/COMMIT/ROLLBACK):");
            for stmt in &case.statements {
                println!("    {stmt}");
            }
        }
        // Each designated dialect bisects to exactly its injected bug;
        // the clean dialect flags nothing.
        assert_eq!(unique, expected.into_iter().collect(), "{name}");
        if expected.is_none() {
            assert_eq!(report.metrics.detected_bug_cases, 0, "{name}");
        }
        println!();
    }
    println!("(sqlite carries no transaction fault: the oracle stays silent there)");
}
