//! Workspace-level integration tests: the full SQLancer++ pipeline running
//! against the simulated DBMS fleet.

use sqlancerpp::core::{
    check_norec, check_tlp, replay_validity, Campaign, CampaignConfig, DbmsConnection, FeatureKind,
    GeneratorConfig, OracleKind,
};
use sqlancerpp::sim::{fleet, preset_by_name};

fn quick_config(seed: u64, queries: usize) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(1)
        .ddl_per_database(12)
        .queries_per_database(queries)
        .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

#[test]
fn campaign_runs_against_every_fleet_dialect() {
    for preset in fleet() {
        let mut dbms = preset.instantiate();
        let mut campaign = Campaign::new(quick_config(1, 30));
        let report = campaign.run(&mut dbms);
        assert!(
            report.metrics.ddl_statements > 0 && report.metrics.test_cases > 0,
            "campaign did nothing on {}",
            preset.profile.name
        );
        assert!(
            report.metrics.ddl_successes > 0,
            "no DDL succeeded on {}",
            preset.profile.name
        );
    }
}

#[test]
fn oracles_find_no_bugs_on_a_fault_free_dialect() {
    // A permissive dialect with no injected faults must never trigger the
    // oracles, whatever the generator produces (a soundness property of the
    // whole pipeline: engine, oracles and generator together).
    let profile = sqlancerpp::sim::DialectProfile::permissive(
        "faultfree",
        sqlancerpp::engine::TypingMode::Dynamic,
    );
    let mut dbms = sqlancerpp::sim::SimulatedDbms::new(profile, vec![]);
    let mut campaign = Campaign::new(quick_config(17, 200));
    let report = campaign.run(&mut dbms);
    assert_eq!(
        report.metrics.detected_bug_cases, 0,
        "false positives on a fault-free DBMS: {:#?}",
        report.reports
    );
    assert!(report.metrics.validity_rate() > 0.5);
}

#[test]
fn buggy_dialects_yield_prioritized_and_reduced_bug_reports() {
    // Across a few buggy dialects and seeds, the pipeline should find at
    // least one bug and every prioritized report should come with setup and
    // queries.
    let mut found = 0;
    for (seed, name) in [(2u64, "dolt"), (3, "umbra"), (5, "monetdb")] {
        let preset = preset_by_name(name).unwrap();
        let mut dbms = preset.instantiate();
        let mut campaign = Campaign::new(quick_config(seed, 250));
        let report = campaign.run(&mut dbms);
        found += report.metrics.detected_bug_cases;
        for bug in &report.reports {
            assert!(!bug.queries.is_empty());
            assert!(!bug.features.is_empty());
        }
        assert!(report.metrics.prioritized_bugs <= report.metrics.detected_bug_cases);
    }
    assert!(found > 0, "no bugs found across three buggy dialects");
}

#[test]
fn ground_truth_resolution_matches_injected_bugs() {
    let preset = preset_by_name("umbra").unwrap();
    let mut dbms = preset.instantiate();
    let mut campaign = Campaign::new(quick_config(8, 300));
    let report = campaign.run(&mut dbms);
    let injected: Vec<&str> = dbms.injected_bugs().iter().map(|b| b.id).collect();
    for case in &report.prioritized_cases {
        for cause in dbms.ground_truth_bugs(case) {
            assert!(
                injected.contains(&cause),
                "resolved cause {cause} is not an injected bug of umbra"
            );
        }
    }
}

#[test]
fn listing_2_replace_bug_scenario_round_trips_through_the_stack() {
    // The paper's Listing 2 script parses, executes on the SQLite-like
    // dialect, and the oracles agree with the engine's reference behaviour
    // when the REPLACE fault is absent.
    let profile = sqlancerpp::sim::DialectProfile::permissive(
        "sqlite-sound",
        sqlancerpp::engine::TypingMode::Dynamic,
    );
    let mut dbms = sqlancerpp::sim::SimulatedDbms::new(profile, vec![]);
    assert!(dbms
        .execute("CREATE TABLE t0(c0 TEXT, PRIMARY KEY (c0))")
        .is_success());
    assert!(dbms.execute("INSERT INTO t0 (c0) VALUES (1)").is_success());
    let with_pred = dbms
        .query("SELECT * FROM t0 WHERE t0.c0 = REPLACE(1, ' ', 0)")
        .unwrap();
    let negated = dbms
        .query("SELECT * FROM t0 WHERE NOT t0.c0 = REPLACE(1, ' ', 0)")
        .unwrap();
    assert_eq!(with_pred.row_count() + negated.row_count(), 1);
}

#[test]
fn replaying_cases_across_dialects_reports_partial_validity() {
    let source = preset_by_name("dolt").unwrap();
    let mut dbms = source.instantiate();
    let mut campaign = Campaign::new(quick_config(21, 250));
    let report = campaign.run(&mut dbms);
    if report.prioritized_cases.is_empty() {
        // Nothing to replay with this seed; the dedicated experiment binary
        // uses larger budgets.
        return;
    }
    let mut target = preset_by_name("cratedb").unwrap().instantiate();
    for case in &report.prioritized_cases {
        let validity = replay_validity(&mut target, case);
        assert!((0.0..=1.0).contains(&validity));
    }
}

#[test]
fn adaptive_generator_learns_profile_that_transfers_across_runs() {
    // Learn a profile on one campaign, persist it, reload it, and verify the
    // learned counts survive the round trip (Figure 5's "persisted in a file
    // and loaded in future executions").
    let preset = preset_by_name("cratedb").unwrap();
    let mut dbms = preset.instantiate();
    let mut campaign = Campaign::new(quick_config(4, 200));
    let _ = campaign.run(&mut dbms);
    let text = sqlancerpp::core::profile_to_string(&campaign.generator.stats);
    let restored = sqlancerpp::core::profile_from_string(&text).unwrap();
    let (attempts, _) = restored.query_totals();
    assert!(attempts > 0);
}

#[test]
fn oracle_checks_are_deterministic_for_a_fixed_state() {
    let preset = preset_by_name("sqlite").unwrap();
    let mut dbms = preset.instantiate();
    dbms.execute("CREATE TABLE t0 (c0 INTEGER, c1 TEXT)");
    dbms.execute("INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (NULL, 'b')");
    let mut generator = sqlancerpp::core::AdaptiveGenerator::new(10, GeneratorConfig::default());
    generator.apply_success(
        &sqlancerpp::parser::parse_statement("CREATE TABLE t0 (c0 INTEGER, c1 TEXT)").unwrap(),
    );
    for _ in 0..50 {
        let Some(query) = generator.generate_query() else {
            break;
        };
        let a = check_tlp(
            &mut dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        );
        let b = check_tlp(
            &mut dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        );
        assert_eq!(a, b);
        let c = check_norec(
            &mut dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        );
        let d = check_norec(
            &mut dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        );
        assert_eq!(c, d);
        generator.record_outcome(&query.features, FeatureKind::Query, a.is_valid());
    }
}
