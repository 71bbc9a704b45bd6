//! Execution-path parity: the AST fast path must be observationally
//! identical to the legacy text path on the entire simulated fleet, and the
//! parallel fleet runner must be byte-identical to the serial one.
//!
//! The text path renders every statement to SQL and re-parses it inside the
//! simulated DBMS (what a real wire-protocol backend requires); the AST
//! fast path hands the typed statement straight to the engine. If the two
//! ever disagree — verdicts, metrics, bug reports or learned suppression —
//! the fast path is changing test semantics, not just speed.

use sqlancerpp::core::{
    check_norec, check_tlp, Campaign, CampaignConfig, DbmsConnection, OracleKind,
    TextOnlyConnection,
};
use sqlancerpp::sim::{fleet, fleet_drivers, ExecutionPath, RunPlan, SimulatedDbms};

fn parity_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(10)
        .queries_per_database(30)
        .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
        .reduce_bugs(true)
        .max_reduction_checks(16)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

/// Campaign verdicts, metrics and bug reports are identical between the
/// text path and the AST fast path on every fleet preset.
#[test]
fn campaign_outcomes_identical_between_text_and_ast_paths() {
    for preset in fleet() {
        let name = &preset.profile.name;

        let mut ast_campaign = Campaign::new(parity_config(11));
        let ast_report = ast_campaign.run(&mut preset.instantiate());

        let mut text_campaign = Campaign::new(parity_config(11));
        let text_report = text_campaign.run(&mut TextOnlyConnection::new(preset.instantiate()));

        assert_eq!(
            ast_report.metrics, text_report.metrics,
            "metrics diverge on {name}"
        );
        assert_eq!(
            ast_report.reports, text_report.reports,
            "bug reports diverge on {name}"
        );
        assert_eq!(
            ast_report.prioritized_cases, text_report.prioritized_cases,
            "prioritized cases diverge on {name}"
        );
        assert_eq!(
            ast_report.validity_series, text_report.validity_series,
            "validity series diverge on {name}"
        );
        // The adaptive generator must have learned the same profile through
        // both paths (same suppressed features), otherwise later test cases
        // would silently drift.
        ast_campaign.generator.refresh_suppression();
        text_campaign.generator.refresh_suppression();
        assert_eq!(
            ast_campaign.generator.suppressed_query_features(),
            text_campaign.generator.suppressed_query_features(),
            "learned suppression diverges on {name}"
        );
    }
}

/// Single-oracle spot check: TLP and NoREC verdicts agree query by query
/// between the paths, including the Invalid error messages.
#[test]
fn oracle_verdicts_identical_per_query() {
    use sqlancerpp::core::{AdaptiveGenerator, GeneratorConfig};

    for preset in fleet() {
        let mut ast_conn: SimulatedDbms = preset.instantiate();
        let mut text_conn = TextOnlyConnection::new(preset.instantiate());
        let mut generator = AdaptiveGenerator::new(77, GeneratorConfig::default());
        for _ in 0..10 {
            let stmt = generator.generate_ddl_statement();
            let a = ast_conn.execute_ast(&stmt.statement);
            let t = text_conn.execute_ast(&stmt.statement);
            assert_eq!(a, t, "DDL outcome diverges on {}", preset.profile.name);
            if a.is_success() {
                generator.apply_success(&stmt.statement);
            }
        }
        for i in 0..25 {
            let Some(query) = generator.generate_query() else {
                break;
            };
            let (ast_outcome, text_outcome) = if i % 2 == 0 {
                (
                    check_tlp(
                        &mut ast_conn,
                        &query.select,
                        &query.predicate,
                        &query.features,
                    ),
                    check_tlp(
                        &mut text_conn,
                        &query.select,
                        &query.predicate,
                        &query.features,
                    ),
                )
            } else {
                (
                    check_norec(
                        &mut ast_conn,
                        &query.select,
                        &query.predicate,
                        &query.features,
                    ),
                    check_norec(
                        &mut text_conn,
                        &query.select,
                        &query.predicate,
                        &query.features,
                    ),
                )
            };
            assert_eq!(
                ast_outcome, text_outcome,
                "oracle verdict diverges on {} for query {}",
                preset.profile.name, query.select
            );
        }
    }
}

/// The closure-compiled expression evaluator (the default engine
/// configuration, `ExecutionPath::Ast`) is observationally identical to
/// the tree-walking reference evaluator (`ExecutionPath::AstTreeWalk`) on
/// the full 18-dialect fleet: same metrics, same bug reports, same
/// prioritized cases, same validity series. This is the end-to-end arm of
/// the compiled↔tree parity contract (the expression-level arm lives in
/// `tests/compile_parity.rs`).
#[test]
fn campaign_outcomes_identical_between_compiled_and_treewalk_evaluators() {
    let config = parity_config(31);
    let compiled = RunPlan::new(fleet_drivers(ExecutionPath::Ast)).run(&config);
    let tree = RunPlan::new(fleet_drivers(ExecutionPath::AstTreeWalk)).run(&config);
    assert_eq!(compiled.reports.len(), tree.reports.len());
    for (c, t) in compiled.reports.iter().zip(&tree.reports) {
        assert_eq!(c.dbms_name, t.dbms_name, "dialect order diverges");
        assert_eq!(
            c.metrics, t.metrics,
            "metrics diverge on {} — compiled evaluator changed semantics",
            c.dbms_name
        );
        assert_eq!(
            c.reports, t.reports,
            "bug reports diverge on {}",
            c.dbms_name
        );
        assert_eq!(
            c.prioritized_cases, t.prioritized_cases,
            "prioritized cases diverge on {}",
            c.dbms_name
        );
        assert_eq!(
            c.validity_series, t.validity_series,
            "validity series diverge on {}",
            c.dbms_name
        );
    }
    assert_eq!(compiled.totals, tree.totals);
}

/// The parallel fleet runner produces exactly the serial runner's output on
/// the full 18-dialect fleet: same dialect order, same metrics, same bug
/// reports, same totals.
#[test]
fn parallel_fleet_run_is_byte_identical_to_serial() {
    let config = parity_config(23);
    let serial = RunPlan::new(fleet_drivers(ExecutionPath::Ast)).run(&config);
    let parallel = RunPlan {
        threads: 8,
        ..RunPlan::new(fleet_drivers(ExecutionPath::Ast))
    }
    .run(&config);
    assert_eq!(serial.reports.len(), parallel.reports.len());
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(s.dbms_name, p.dbms_name, "dialect order diverges");
        assert_eq!(s.metrics, p.metrics, "metrics diverge on {}", s.dbms_name);
        assert_eq!(
            s.reports, p.reports,
            "bug reports diverge on {}",
            s.dbms_name
        );
        assert_eq!(
            s.prioritized_cases, p.prioritized_cases,
            "prioritized cases diverge on {}",
            s.dbms_name
        );
        assert_eq!(
            s.validity_series, p.validity_series,
            "validity series diverge on {}",
            s.dbms_name
        );
    }
    assert_eq!(serial.totals, parallel.totals);
}
