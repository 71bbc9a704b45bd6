//! Hunting isolation bugs with concurrent-session schedules.
//!
//! Walkthrough of the concurrent-session subsystem end to end: the adaptive
//! generator emits two-session mutation scripts with an explicit,
//! seed-derived interleaving (deterministic — no real threads), the
//! isolation oracle runs each schedule over two connections of one engine
//! and compares the final 128-bit table fingerprints against serial
//! replays of the committed sessions in both commit orders, the reducer
//! shrinks flagged schedules while preserving the bracketing and the
//! interleaving's relative order, and ground-truth bisection names the
//! injected fault. Commits rejected by first-committer-wins conflict
//! detection are counted as conflict aborts — a legitimate outcome, never
//! a bug.
//!
//! The three designated isolation-bug dialects are hunted here:
//!
//! * `mysql` — `Fault::IsoDirtyRead` (snapshots leak uncommitted writes),
//! * `mariadb` — `Fault::IsoLostUpdate` (COMMIT skips conflict validation),
//! * `tidb` — `Fault::IsoNonrepeatableRead` (reads chase the committed state).
//!
//! The example asserts that each designated dialect bisects to exactly its
//! injected bug and that the clean `sqlite` flags nothing, so it exits
//! non-zero when detection, reduction or bisection regresses.
//!
//! ```bash
//! cargo run --example isolation_hunt
//! ```

use sqlancerpp::core::{Campaign, CampaignConfig, OracleKind};
use sqlancerpp::sim::preset_by_name;
use std::collections::BTreeSet;

fn main() {
    println!("== Snapshot-isolation oracle hunt ==\n");
    for (name, expected) in [
        ("mysql", Some("BUG-DIRTY-READ")),
        ("mariadb", Some("BUG-LOST-UPDATE")),
        ("tidb", Some("BUG-NONREPEATABLE-READ")),
        ("sqlite", None),
    ] {
        let preset = preset_by_name(name).expect("known preset");
        let mut dbms = preset.instantiate();
        // Isolation-only schedule: every test case is a concurrent
        // two-session schedule (mixed schedules alternate it with the
        // single-connection oracles).
        let mut config = CampaignConfig::builder()
            .seed(0x150)
            .databases(2)
            .ddl_per_database(10)
            .queries_per_database(120)
            .oracles(vec![OracleKind::Isolation])
            .reduce_bugs(true)
            .max_reduction_checks(32)
            .build();
        config.generator.stats.query_threshold = 0.05;
        config.generator.stats.min_attempts = 30;
        let mut campaign = Campaign::new(config);
        let report = campaign.run(&mut dbms);

        let unique: BTreeSet<&'static str> = report
            .schedule_cases
            .iter()
            .flat_map(|case| dbms.ground_truth_bugs(case))
            .collect();
        println!(
            "{name}: {} schedules, {:.0}% conflict-abort rate, {} flagged, \
             {} prioritized, ground truth: {:?}",
            report.metrics.isolation_schedules,
            report.metrics.conflict_abort_rate() * 100.0,
            report.metrics.detected_bug_cases,
            report.schedule_cases.len(),
            unique
        );
        if let Some(case) = report.schedule_cases.first() {
            println!("  first reduced schedule (explicit interleaving):");
            for line in case.schedule.replay_script() {
                println!("    {line}");
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
    println!("(sqlite carries no isolation fault: the oracle stays silent there)");
}
