//! Differential suite for the concurrent-session subsystem and the
//! snapshot-isolation oracle.
//!
//! Four guarantees are enforced here:
//!
//! 1. **Serial-replay determinism** — isolation-oracle campaigns produce
//!    identical reports (schedules included) across all three execution
//!    tiers (text, AST-compiled, AST-tree-walking) and across the serial
//!    and parallel fleet runners.
//! 2. **Detection** — handcrafted and campaign-generated schedules detect
//!    all three injected isolation bugs (dirty-read on `mysql`, lost-update
//!    on `mariadb`, non-repeatable-read on `tidb`), each bisected back to
//!    its ground-truth fault.
//! 3. **Soundness** — fleet-wide, every isolation-oracle report bisects to
//!    at least one injected fault, and dialects carrying neither an
//!    isolation nor a transaction fault produce zero isolation reports.
//! 4. **Reduction validity** — schedule reduction preserves the session
//!    bracketing and the interleaving's relative order, and the reduced
//!    schedule still reproduces the bug.

use sqlancerpp::ast::{BeginMode, Statement};
use sqlancerpp::core::{
    check_isolation, BugReducer, Campaign, CampaignConfig, DbmsConnection, FeatureSet, OracleKind,
    Schedule, ScheduleCase, SessionScript, TextOnlyConnection,
};
use sqlancerpp::engine::{EvalStrategy, Fault};
use sqlancerpp::parser::parse_statement;
use sqlancerpp::sim::{fleet, preset_by_name, ExecutionPath, RunPlan};

fn stmts(sql: &[&str]) -> Vec<Statement> {
    sql.iter()
        .map(|s| parse_statement(s).expect("test SQL parses"))
        .collect()
}

fn isolation_campaign_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(10)
        .queries_per_database(120)
        .oracles(vec![OracleKind::Isolation])
        .reduce_bugs(true)
        .max_reduction_checks(24)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

/// The handcrafted ground-truth schedule for each injected isolation fault.
/// Each is deterministic: the interleaving is an explicit step list, so the
/// same schedule replays identically forever.
fn crafted_schedule(fault: Fault) -> ScheduleCase {
    let two_tables = stmts(&[
        "CREATE TABLE t0 (c0 INTEGER)",
        "CREATE TABLE t1 (c0 INTEGER)",
    ]);
    let observer = "INSERT INTO t0 (c0) VALUES ((SELECT COUNT(*) FROM t1))";
    let (setup, sessions, interleaving, tables) = match fault {
        // Session 1 writes t1 uncommitted; session 0 begins (dirty
        // snapshot), observes t1's count into t0 and commits; session 1
        // rolls back. Serial replay of the only committed session sees an
        // empty t1.
        Fault::IsoDirtyRead => (
            two_tables,
            vec![
                SessionScript {
                    begin: BeginMode::Plain,
                    statements: stmts(&[observer]),
                    commit: true,
                },
                SessionScript {
                    begin: BeginMode::Plain,
                    statements: stmts(&["INSERT INTO t1 (c0) VALUES (7)"]),
                    commit: false,
                },
            ],
            vec![1, 1, 0, 0, 1, 0],
            vec!["t0".to_string(), "t1".to_string()],
        ),
        // Both sessions insert into t0 and both commit; sound
        // first-committer-wins aborts the second, the fault lets it clobber
        // the first committer's row.
        Fault::IsoLostUpdate => (
            stmts(&["CREATE TABLE t0 (c0 INTEGER)"]),
            vec![
                SessionScript {
                    begin: BeginMode::Plain,
                    statements: stmts(&["INSERT INTO t0 (c0) VALUES (10)"]),
                    commit: true,
                },
                SessionScript {
                    begin: BeginMode::Plain,
                    statements: stmts(&["INSERT INTO t0 (c0) VALUES (20)"]),
                    commit: true,
                },
            ],
            vec![0, 1, 0, 1, 0, 1],
            vec!["t0".to_string()],
        ),
        // Session 0 observes t1's count twice, sandwiching session 1's
        // committed insert; under sound snapshot isolation both reads see
        // the begin snapshot.
        Fault::IsoNonrepeatableRead => (
            two_tables,
            vec![
                SessionScript {
                    begin: BeginMode::Plain,
                    statements: stmts(&[observer, observer]),
                    commit: true,
                },
                SessionScript {
                    begin: BeginMode::Plain,
                    statements: stmts(&["INSERT INTO t1 (c0) VALUES (7)"]),
                    commit: true,
                },
            ],
            vec![0, 0, 1, 1, 1, 0, 0],
            vec!["t0".to_string(), "t1".to_string()],
        ),
        other => panic!("no crafted schedule for {other:?}"),
    };
    ScheduleCase {
        setup,
        schedule: Schedule {
            tables,
            sessions,
            interleaving,
        },
        features: FeatureSet::new(),
    }
}

/// Handcrafted schedules detect each injected isolation fault on its
/// designated dialect, bisect to the right ground-truth id, and pass on a
/// fault-free engine.
#[test]
fn crafted_schedules_detect_each_isolation_fault() {
    let designated = [
        (Fault::IsoDirtyRead, "mysql", "BUG-DIRTY-READ"),
        (Fault::IsoLostUpdate, "mariadb", "BUG-LOST-UPDATE"),
        (
            Fault::IsoNonrepeatableRead,
            "tidb",
            "BUG-NONREPEATABLE-READ",
        ),
    ];
    for (fault, dialect, bug_id) in designated {
        let case = crafted_schedule(fault);
        assert!(case.schedule.is_well_formed(), "{fault:?}: malformed");
        let mut dbms = preset_by_name(dialect).unwrap().instantiate();
        dbms.reset();
        for stmt in &case.setup {
            assert!(dbms.execute_ast(stmt).is_success());
        }
        let verdict = check_isolation(&mut dbms, &case.schedule, &case.features, &case.setup);
        assert!(
            verdict.outcome.is_bug(),
            "{dialect}: crafted {fault:?} schedule not flagged: {:?}",
            verdict.outcome
        );
        let causes = dbms.ground_truth_schedule_bugs(&case);
        assert!(
            causes.contains(&bug_id),
            "{dialect}: ground truth {causes:?} does not include {bug_id}"
        );
        // The same schedule passes on a sound engine (sqlite carries no
        // isolation or transaction fault).
        let mut clean = preset_by_name("sqlite").unwrap().instantiate();
        clean.reset();
        for stmt in &case.setup {
            assert!(clean.execute_ast(stmt).is_success());
        }
        let verdict = check_isolation(&mut clean, &case.schedule, &case.features, &case.setup);
        assert!(
            matches!(
                verdict.outcome,
                sqlancerpp::core::OracleOutcome::Passed
                    | sqlancerpp::core::OracleOutcome::Invalid(_)
            ),
            "sqlite flagged a sound schedule: {:?}",
            verdict.outcome
        );
        assert!(
            verdict.outcome.is_valid(),
            "crafted schedules are valid on sqlite"
        );
    }
    // Row-range write intent on the sound engine: the lost-update schedule
    // is two blind appenders, whose claims are disjoint — both commits
    // merge instead of conflicting (pre-CoW table-level intent aborted one
    // of them here).
    let case = crafted_schedule(Fault::IsoLostUpdate);
    let mut clean = preset_by_name("sqlite").unwrap().instantiate();
    clean.reset();
    for stmt in &case.setup {
        assert!(clean.execute_ast(stmt).is_success());
    }
    let verdict = check_isolation(&mut clean, &case.schedule, &case.features, &case.setup);
    assert_eq!(
        verdict.conflict_aborts, 0,
        "disjoint appends merge under row-range intent"
    );
    assert_eq!(verdict.outcome, sqlancerpp::core::OracleOutcome::Passed);

    // Existing-row contention still aborts: the same schedule with both
    // sessions *updating* t0 claims overlapping row ranges, so sound
    // first-committer-wins rejects the second commit.
    let mut update_case = crafted_schedule(Fault::IsoLostUpdate);
    for session in &mut update_case.schedule.sessions {
        session.statements = stmts(&["UPDATE t0 SET c0 = c0 + 1"]);
    }
    update_case
        .setup
        .extend(stmts(&["INSERT INTO t0 (c0) VALUES (1)"]));
    let mut clean = preset_by_name("sqlite").unwrap().instantiate();
    clean.reset();
    for stmt in &update_case.setup {
        assert!(clean.execute_ast(stmt).is_success());
    }
    let verdict = check_isolation(
        &mut clean,
        &update_case.schedule,
        &update_case.features,
        &update_case.setup,
    );
    assert_eq!(verdict.conflict_aborts, 1, "sound FCW aborts one commit");
    assert!(verdict.outcome.is_valid());
    assert!(!verdict.outcome.is_bug());
}

/// Acceptance criterion: isolation-oracle campaigns detect all three
/// injected isolation bugs on their designated dialects, every flagged
/// schedule fleet-wide bisects to an injected fault (zero false positives),
/// and clean dialects produce zero isolation reports.
#[test]
fn isolation_campaigns_detect_bugs_with_zero_false_positives() {
    let expected = |name: &str| match name {
        "mysql" => Some("BUG-DIRTY-READ"),
        "mariadb" => Some("BUG-LOST-UPDATE"),
        "tidb" => Some("BUG-NONREPEATABLE-READ"),
        _ => None,
    };
    // Dialects whose single-connection transaction faults can legitimately
    // surface through a concurrent schedule (e.g. a lost rollback leaves a
    // rolled-back session's writes behind).
    let txn_faulted = ["dolt", "monetdb", "firebird"];
    for preset in fleet() {
        let name = preset.profile.name.clone();
        let mut dbms = preset.instantiate();
        let mut campaign = Campaign::new(isolation_campaign_config(0x150));
        let report = campaign.run(&mut dbms);
        // Zero false positives: every flagged schedule has a ground-truth
        // cause.
        for case in &report.schedule_cases {
            let causes = dbms.ground_truth_schedule_bugs(case);
            assert!(
                !causes.is_empty(),
                "{name}: isolation report with empty ground truth:\n{:?}",
                case.schedule.replay_script()
            );
        }
        match expected(&name) {
            Some(bug_id) => {
                assert!(
                    !report.schedule_cases.is_empty(),
                    "isolation oracle found nothing on {name} (expected {bug_id})"
                );
                let causes: Vec<&str> = report
                    .schedule_cases
                    .iter()
                    .flat_map(|case| dbms.ground_truth_schedule_bugs(case))
                    .collect();
                assert!(
                    causes.contains(&bug_id),
                    "{name}: ground truth {causes:?} does not include {bug_id}"
                );
            }
            None if txn_faulted.contains(&name.as_str()) => {
                // Any reports already validated as true positives above.
            }
            None => {
                let isolation_reports: Vec<_> = report
                    .reports
                    .iter()
                    .filter(|r| r.oracle == OracleKind::Isolation)
                    .collect();
                assert!(
                    isolation_reports.is_empty(),
                    "false positives on clean dialect {name}: {isolation_reports:#?}"
                );
            }
        }
    }
}

/// Serial-replay determinism: the same isolation campaign produces
/// identical reports through the text path, the AST-compiled path and the
/// AST-tree-walking path.
#[test]
fn isolation_campaigns_are_identical_across_execution_tiers() {
    let mut config = isolation_campaign_config(0xD1CE);
    config.databases = 1;
    config.queries_per_database = 60;
    config.oracles = vec![OracleKind::Tlp, OracleKind::Isolation];
    for name in ["mysql", "mariadb", "tidb", "sqlite"] {
        let preset = preset_by_name(name).unwrap();
        let mut ast_conn = preset.instantiate();
        let mut tree_conn = preset.instantiate_with_eval(EvalStrategy::TreeWalk);
        let mut text_conn = TextOnlyConnection::new(preset.instantiate());
        let ast_report = Campaign::new(config.clone()).run(&mut ast_conn);
        let tree_report = Campaign::new(config.clone()).run(&mut tree_conn);
        let text_report = Campaign::new(config.clone()).run(&mut text_conn);
        assert_eq!(ast_report.metrics, text_report.metrics, "{name} metrics");
        assert_eq!(ast_report.metrics, tree_report.metrics, "{name} metrics");
        assert_eq!(ast_report.reports, text_report.reports, "{name} reports");
        assert_eq!(ast_report.reports, tree_report.reports, "{name} reports");
        assert_eq!(
            ast_report.schedule_cases, text_report.schedule_cases,
            "{name} schedules"
        );
        assert_eq!(
            ast_report.schedule_cases, tree_report.schedule_cases,
            "{name} schedules"
        );
        assert_eq!(
            ast_report.validity_series, text_report.validity_series,
            "{name} validity series"
        );
    }
}

/// A fixed seed reproduces the identical campaign report — schedules
/// included — across repeated runs and across the serial and parallel
/// fleet runners.
#[test]
fn fixed_seed_reproduces_schedules_across_runners() {
    let mut config = isolation_campaign_config(0xFEED);
    config.databases = 1;
    config.queries_per_database = 40;
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Isolation];
    let serial = RunPlan::new(
        fleet()
            .iter()
            .filter(|p| {
                ["mysql", "mariadb", "tidb", "sqlite", "dolt", "cratedb"]
                    .contains(&p.profile.name.as_str())
            })
            .map(|p| p.driver(ExecutionPath::Ast))
            .collect(),
    );
    let serial_a = serial.run(&config);
    let serial_b = serial.run(&config);
    let parallel = RunPlan {
        threads: 4,
        ..serial
    }
    .run(&config);
    for ((a, b), p) in serial_a
        .reports
        .iter()
        .zip(&serial_b.reports)
        .zip(&parallel.reports)
    {
        assert_eq!(a.dbms_name, p.dbms_name);
        assert_eq!(a.metrics, b.metrics, "{} run-to-run", a.dbms_name);
        assert_eq!(a.metrics, p.metrics, "{} serial-vs-parallel", a.dbms_name);
        assert_eq!(a.reports, p.reports, "{} reports", a.dbms_name);
        assert_eq!(
            a.schedule_cases, p.schedule_cases,
            "{} schedules",
            a.dbms_name
        );
    }
    assert_eq!(serial_a.totals, parallel.totals);
}

/// Within-dialect partitioned campaigns (databases sharded across workers)
/// are byte-identical for any worker count — reports, replayable schedule
/// cases, validity series and the merged learned profile — and still
/// detect the designated isolation bug with a valid ground-truth cause.
#[test]
fn partitioned_campaigns_are_identical_and_still_detect_bugs() {
    let preset = preset_by_name("mariadb").unwrap();
    let mut config = isolation_campaign_config(0xC0C0);
    config.databases = 3;
    config.queries_per_database = 90;
    let sharded = |threads| {
        let plan = RunPlan {
            threads,
            shard_by_database: true,
            ..RunPlan::new(vec![preset.driver(ExecutionPath::Ast)])
        };
        let mut run = plan.run(&config);
        (run.reports.remove(0), run.profiles.remove(0))
    };
    let (serial, serial_profile) = sharded(1);
    let (parallel, parallel_profile) = sharded(3);
    assert_eq!(serial.metrics, parallel.metrics);
    assert_eq!(serial.reports, parallel.reports);
    assert_eq!(serial.schedule_cases, parallel.schedule_cases);
    assert_eq!(serial.validity_series, parallel.validity_series);
    assert!(serial_profile
        .iter_query()
        .eq(parallel_profile.iter_query()));
    assert!(serial_profile.iter_ddl().eq(parallel_profile.iter_ddl()));
    // The sharded campaign still finds the injected lost update, and every
    // kept schedule bisects to a real fault.
    let dbms = preset.instantiate();
    assert!(
        !serial.schedule_cases.is_empty(),
        "partitioned campaign found no schedules on mariadb"
    );
    let causes: Vec<&str> = serial
        .schedule_cases
        .iter()
        .flat_map(|case| dbms.ground_truth_schedule_bugs(case))
        .collect();
    assert!(
        causes.contains(&"BUG-LOST-UPDATE"),
        "ground truth {causes:?} does not include BUG-LOST-UPDATE"
    );
    // Merged prioritization tallies keep the campaign invariant.
    assert_eq!(
        serial.metrics.prioritized_bugs + serial.metrics.deduplicated_bugs,
        serial.metrics.detected_bug_cases
    );
}

/// Schedule reduction drops setup and body statements while preserving the
/// bracketing (BEGIN + closer never reducible) and the interleaving's
/// relative order; the reduced schedule still reproduces the bug.
#[test]
fn schedule_reduction_preserves_bracketing_and_order() {
    let mut case = crafted_schedule(Fault::IsoLostUpdate);
    // Pad with reducible noise: an unused setup table and extra mutations.
    case.setup.extend(stmts(&[
        "CREATE TABLE unused (c0 INTEGER)",
        "INSERT INTO t0 (c0) VALUES (1)",
    ]));
    for session in 0..2 {
        case.schedule.sessions[session]
            .statements
            .push(parse_statement("DELETE FROM t0 WHERE c0 = 999").unwrap());
        // Register the extra step just before the session's closer.
        let closer_at = case
            .schedule
            .interleaving
            .iter()
            .rposition(|&s| s as usize == session)
            .unwrap();
        case.schedule.interleaving.insert(closer_at, session as u8);
    }
    assert!(case.schedule.is_well_formed());
    let mut dbms = preset_by_name("mariadb").unwrap().instantiate();
    let (reduced, stats) = {
        let mut reducer = BugReducer::new(&mut dbms, 64);
        reducer.reduce(&case)
    };
    assert!(stats.checks > 0);
    assert!(reduced.schedule.is_well_formed(), "reduction broke steps");
    assert!(
        stats.predicate_nodes_after < stats.predicate_nodes_before,
        "no-op mutations were not reduced away"
    );
    assert!(
        stats.setup_after < stats.setup_before,
        "unused setup was not reduced away"
    );
    // Bracketing survives: each session still has BEGIN + body + closer
    // steps in the interleaving.
    for (i, session) in reduced.schedule.sessions.iter().enumerate() {
        let count = reduced
            .schedule
            .interleaving
            .iter()
            .filter(|&&s| s as usize == i)
            .count();
        assert_eq!(count, session.step_count());
        assert!(session.step_count() >= 2, "bracketing reduced away");
    }
    // The reduced schedule still reproduces the lost update.
    let causes = dbms.ground_truth_schedule_bugs(&reduced);
    assert_eq!(causes, vec!["BUG-LOST-UPDATE"]);
}

/// `SimulatedDbms::connect` sessions share the committed state, apply the
/// dialect's feature gating, and surface serialization failures as plain
/// statement errors (the learnable outcome).
#[test]
fn connect_opens_gated_sessions_over_one_engine() {
    let mut dbms = preset_by_name("sqlite").unwrap().instantiate();
    assert!(dbms.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
    let mut session = dbms.connect();
    assert_eq!(session.name(), "sqlite");
    // Shared committed state, both directions.
    assert!(session
        .execute("INSERT INTO t0 (c0) VALUES (1)")
        .is_success());
    assert_eq!(dbms.query("SELECT * FROM t0").unwrap().row_count(), 1);
    // Dialect gating applies to sessions too (sqlite lacks <=>).
    match session.execute("INSERT INTO t0 (c0) VALUES (1 <=> 1)") {
        sqlancerpp::core::StatementOutcome::Failure(msg) => {
            assert!(msg.contains("OP_NULLSAFE_EQ"), "{msg}");
        }
        other => panic!("gating bypassed: {other:?}"),
    }
    // Concurrent blind appends merge under row-range intent: both commits
    // succeed and both rows land.
    let mut a = dbms.connect();
    let mut b = dbms.connect();
    assert!(a.execute("BEGIN").is_success());
    assert!(b.execute("BEGIN").is_success());
    assert!(a.execute("INSERT INTO t0 (c0) VALUES (2)").is_success());
    assert!(b.execute("INSERT INTO t0 (c0) VALUES (3)").is_success());
    assert!(a.execute("COMMIT").is_success());
    assert!(b.execute("COMMIT").is_success());
    assert_eq!(dbms.query("SELECT * FROM t0").unwrap().row_count(), 3);
    assert_eq!(dbms.conflict_aborts(), 0);
    // Overlapping existing-row claims still conflict-abort, surfacing as
    // failure text containing the marker.
    assert!(a.execute("BEGIN").is_success());
    assert!(b.execute("BEGIN").is_success());
    assert!(a.execute("UPDATE t0 SET c0 = 7").is_success());
    assert!(b.execute("UPDATE t0 SET c0 = 8").is_success());
    assert!(a.execute("COMMIT").is_success());
    match b.execute("COMMIT") {
        sqlancerpp::core::StatementOutcome::Failure(msg) => assert!(
            msg.contains(sqlancerpp::core::SERIALIZATION_FAILURE_MARKER),
            "{msg}"
        ),
        other => panic!("expected a serialization failure, got {other:?}"),
    }
    assert_eq!(dbms.conflict_aborts(), 1);
    // Transactionless dialects reject schedules entirely — validity
    // feedback, not a crash.
    let mut crate_db = preset_by_name("cratedb").unwrap().instantiate();
    crate_db.reset();
    assert!(crate_db
        .execute("CREATE TABLE t0 (c0 INTEGER)")
        .is_success());
    let case = crafted_schedule(Fault::IsoLostUpdate);
    let verdict = check_isolation(&mut crate_db, &case.schedule, &case.features, &case.setup);
    assert!(!verdict.outcome.is_valid(), "BEGIN rejection is invalidity");
    assert!(!verdict.outcome.is_bug());
}
