//! Differential suite for the transaction tier.
//!
//! Three guarantees are enforced here:
//!
//! 1. **Tier parity** — the text path, the AST fast path and both
//!    expression-evaluation strategies (compiled, tree-walking) observe
//!    identical commit/rollback/savepoint outcomes, statement for statement
//!    and row for row, including under injected evaluation faults.
//! 2. **Detection** — a fleet campaign with the rollback oracle enabled
//!    detects all three injected transaction bugs (lost-rollback on `dolt`,
//!    phantom-commit on `monetdb`, savepoint-collapse on `firebird`), each
//!    bisected back to its ground-truth fault.
//! 3. **Soundness** — the same campaign produces zero rollback-oracle
//!    reports on every dialect that does not carry a transaction fault.

use sqlancerpp::ast::splitmix64;
use sqlancerpp::core::{Campaign, CampaignConfig, DbmsConnection, OracleKind, TextOnlyConnection};
use sqlancerpp::engine::{
    Database, Engine, EngineConfig, EvalStrategy, ExecutionMode, Fault, FaultConfig, TypingMode,
};
use sqlancerpp::parser::parse_statement;
use sqlancerpp::sim::{fleet, DialectProfile, SimulatedDbms};

/// Transactional scripts covering commit, rollback, savepoints, DDL inside
/// transactions, and statements that fail mid-session.
fn txn_scripts() -> Vec<Vec<&'static str>> {
    vec![
        vec![
            "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
            "INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (2, 'b')",
            "BEGIN",
            "INSERT INTO t0 (c0, c1) VALUES (3, 'c')",
            "UPDATE t0 SET c1 = 'x' WHERE c0 = 1",
            "ROLLBACK",
        ],
        vec![
            "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
            "INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (2, 'b')",
            "BEGIN",
            "DELETE FROM t0 WHERE c0 = 2",
            "COMMIT",
        ],
        vec![
            "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
            "INSERT INTO t0 (c0, c1) VALUES (1, 'a')",
            "BEGIN",
            "INSERT INTO t0 (c0, c1) VALUES (2, 'b')",
            "SAVEPOINT sp1",
            "DELETE FROM t0",
            "UPDATE t0 SET c0 = 99 WHERE c1 = 'zzz'",
            "ROLLBACK TO sp1",
            "INSERT INTO t0 (c0, c1) VALUES (3, 'c')",
            "COMMIT",
        ],
        vec![
            "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
            "BEGIN",
            "CREATE TABLE t1 (c0 INTEGER)",
            "INSERT INTO t1 (c0) VALUES (7)",
            "ANALYZE t1",
            "ROLLBACK",
            // Errors after the rollback: t1 must be gone again.
            "INSERT INTO t1 (c0) VALUES (8)",
        ],
        vec![
            "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
            "INSERT INTO t0 (c0, c1) VALUES (1, 'a')",
            "BEGIN",
            "SAVEPOINT a",
            "UPDATE t0 SET c1 = 'b'",
            "SAVEPOINT b",
            "UPDATE t0 SET c1 = 'c'",
            "ROLLBACK TO a",
            "COMMIT",
            // Failing statements inside and outside transactions.
            "ROLLBACK",
            "SAVEPOINT ghost",
        ],
    ]
}

/// Runs a script on a connection, returning the per-statement success bits
/// and the final probe rows of every table the script created.
fn run_script(
    conn: &mut dyn DbmsConnection,
    script: &[&str],
    ast: bool,
) -> (Vec<bool>, Vec<String>) {
    conn.reset();
    let mut outcomes = Vec::new();
    for sql in script {
        let ok = if ast {
            let stmt = parse_statement(sql).expect("script statement parses");
            conn.execute_ast(&stmt).is_success()
        } else {
            conn.execute(sql).is_success()
        };
        outcomes.push(ok);
    }
    let mut probes = Vec::new();
    for table in ["t0", "t1"] {
        let probe = format!("SELECT * FROM {table}");
        match conn.query(&probe) {
            Ok(rs) => {
                let mut rows: Vec<String> = rs
                    .rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|v| v.dedup_key())
                            .collect::<Vec<_>>()
                            .join("|")
                    })
                    .collect();
                rows.sort();
                probes.push(format!("{table}: {rows:?}"));
            }
            Err(err) => probes.push(format!("{table}: ERR {err}")),
        }
    }
    (outcomes, probes)
}

/// Text vs AST vs compiled vs tree-walking: all four tier combinations must
/// agree on every script, with and without injected evaluation faults.
#[test]
fn all_execution_tiers_agree_on_transactional_scripts() {
    let fault_sets: Vec<Vec<Fault>> = vec![
        vec![],
        // Evaluation-level faults: parity must survive them (they fire
        // identically on every tier).
        vec![
            Fault::BadCollationComparison,
            Fault::BadIntegerDivision,
            Fault::BadTextCoercionSign,
        ],
        // Transaction faults themselves: wrong, but *consistently* wrong
        // across tiers.
        vec![Fault::TxnLostRollback],
        vec![Fault::TxnPhantomCommit],
        vec![Fault::TxnSavepointCollapse],
    ];
    for typing in [TypingMode::Dynamic, TypingMode::Strict] {
        for faults in &fault_sets {
            for (si, script) in txn_scripts().iter().enumerate() {
                let profile = DialectProfile::permissive("tierparity", typing);
                let make = |eval: EvalStrategy| {
                    SimulatedDbms::with_eval(profile.clone(), FaultConfig::of(faults), eval)
                };
                let mut text = TextOnlyConnection::new(make(EvalStrategy::Compiled));
                let mut ast = make(EvalStrategy::Compiled);
                let mut tree = make(EvalStrategy::TreeWalk);
                let reference = run_script(&mut text, script, false);
                let got_ast = run_script(&mut ast, script, true);
                let got_tree = run_script(&mut tree, script, true);
                let ctx = format!("script {si}, typing {typing:?}, faults {faults:?}");
                assert_eq!(reference, got_ast, "text vs AST diverged: {ctx}");
                assert_eq!(
                    reference, got_tree,
                    "AST-compiled vs tree-walk diverged: {ctx}"
                );
            }
        }
    }
}

/// Property test: copy-on-write versioned storage is semantically
/// invisible. A pseudo-random transactional script executed through an
/// [`Engine`] session (the CoW snapshot-workspace path) must match, error
/// for error and row for row, the same script executed on a plain
/// [`Database`] (its own transaction frames, no engine and no sessions) —
/// under every typing mode and every transaction/evaluation fault set.
#[test]
fn cow_engine_sessions_match_plain_database_semantics() {
    let pool: Vec<&str> = vec![
        "INSERT INTO t0 (c0, c1) VALUES (1, 'a')",
        "INSERT INTO t0 (c0, c1) VALUES (2, 'b'), (3, 'c')",
        "INSERT INTO t1 (c0) VALUES ((SELECT COUNT(*) FROM t0))",
        "UPDATE t0 SET c1 = 'x' WHERE c0 > 1",
        "UPDATE t1 SET c0 = c0 + 10",
        "DELETE FROM t0 WHERE c0 = 2",
        "DELETE FROM t1",
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
        "SAVEPOINT sp1",
        "ROLLBACK TO sp1",
        "RELEASE SAVEPOINT sp1",
        "ANALYZE t0",
        "CREATE TABLE t2 (c0 INTEGER)",
        "DROP TABLE t2",
        "INSERT INTO t2 (c0) VALUES (9)",
    ];
    let fault_sets: Vec<Vec<Fault>> = vec![
        vec![],
        vec![Fault::TxnLostRollback],
        vec![Fault::TxnPhantomCommit],
        vec![Fault::TxnSavepointCollapse],
        vec![Fault::BadIntegerDivision, Fault::BadTextCoercionSign],
    ];
    let probe = |table: &str| -> sqlancerpp::ast::Select {
        match parse_statement(&format!("SELECT * FROM {table}")).unwrap() {
            sqlancerpp::ast::Statement::Select(q) => *q,
            _ => unreachable!(),
        }
    };
    for typing in [TypingMode::Dynamic, TypingMode::Strict] {
        for faults in &fault_sets {
            for seed in 0..24u64 {
                let config = {
                    let mut config = EngineConfig {
                        typing,
                        ..EngineConfig::default()
                    };
                    for &fault in faults {
                        config.faults.enable(fault);
                    }
                    config
                };
                // Draw a deterministic script from the pool.
                let mut state = splitmix64(0xC04E_u64 ^ seed);
                let mut script = vec![
                    "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)".to_string(),
                    "CREATE TABLE t1 (c0 INTEGER)".to_string(),
                ];
                for _ in 0..14 {
                    state = splitmix64(state);
                    script.push(pool[(state % pool.len() as u64) as usize].to_string());
                }

                // Arm 1: the plain single-connection database (transaction
                // frames over storage, no engine, no sessions).
                let mut plain = Database::new(config.clone());
                let plain_outcomes: Vec<bool> = script
                    .iter()
                    .map(|sql| plain.execute_sql(sql).is_ok())
                    .collect();

                // Arm 2: an engine session over CoW versioned storage.
                let engine = Engine::new(config);
                let mut session = engine.session();
                let session_outcomes: Vec<bool> = script
                    .iter()
                    .map(|sql| {
                        session
                            .execute(&parse_statement(sql).expect("script parses"))
                            .is_ok()
                    })
                    .collect();

                let ctx = format!("typing {typing:?}, faults {faults:?}, seed {seed}");
                assert_eq!(plain_outcomes, session_outcomes, "outcomes diverged: {ctx}");
                for table in ["t0", "t1", "t2"] {
                    let plain_rows = plain
                        .query(&probe(table), ExecutionMode::Optimized)
                        .map(|rs| rs.multiset_fingerprint());
                    let session_rows = session
                        .query(&probe(table), ExecutionMode::Optimized)
                        .map(|rs| rs.multiset_fingerprint());
                    assert_eq!(
                        plain_rows.is_ok(),
                        session_rows.is_ok(),
                        "{table} existence diverged: {ctx}"
                    );
                    if let (Ok(plain_rows), Ok(session_rows)) = (plain_rows, session_rows) {
                        assert_eq!(plain_rows, session_rows, "{table} rows diverged: {ctx}");
                    }
                }
            }
        }
    }
}

fn rollback_campaign_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(1)
        .ddl_per_database(10)
        .queries_per_database(80)
        .oracles(vec![OracleKind::Rollback])
        .reduce_bugs(true)
        .max_reduction_checks(24)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

/// Acceptance criterion: a fleet campaign with the rollback oracle enabled
/// detects all three injected transaction bugs, each on its designated
/// dialect and bisected to the right ground-truth id — and produces zero
/// rollback reports (false positives) on every clean dialect.
#[test]
fn rollback_oracle_detects_injected_txn_bugs_with_zero_false_positives() {
    let expected = |name: &str| match name {
        "dolt" => Some("BUG-LOST-ROLLBACK"),
        "monetdb" => Some("BUG-PHANTOM-COMMIT"),
        "firebird" => Some("BUG-SAVEPOINT-COLLAPSE"),
        _ => None,
    };
    for preset in fleet() {
        let name = preset.profile.name.clone();
        let mut dbms = preset.instantiate();
        let mut campaign = Campaign::new(rollback_campaign_config(0xAC1D));
        let report = campaign.run(&mut dbms);
        match expected(&name) {
            Some(bug_id) => {
                assert!(
                    !report.txn_cases.is_empty(),
                    "rollback oracle found nothing on {name} (expected {bug_id})"
                );
                let causes: Vec<&str> = report
                    .txn_cases
                    .iter()
                    .flat_map(|case| dbms.ground_truth_txn_bugs(case))
                    .collect();
                assert!(
                    causes.contains(&bug_id),
                    "{name}: ground truth {causes:?} does not include {bug_id}"
                );
            }
            None => {
                let rollback_reports: Vec<_> = report
                    .reports
                    .iter()
                    .filter(|r| r.oracle == OracleKind::Rollback)
                    .collect();
                assert!(
                    rollback_reports.is_empty(),
                    "false positives on clean dialect {name}: {rollback_reports:#?}"
                );
            }
        }
    }
}

/// Dialects that reject transactions teach the support model to suppress
/// transactional sessions: after a campaign against `cratedb` (no
/// transactions at all), `STMT_BEGIN` is suppressed and
/// `generate_txn_session` returns `None`.
#[test]
fn support_model_learns_transactionless_dialects() {
    let preset = sqlancerpp::sim::preset_by_name("cratedb").unwrap();
    let mut dbms = preset.instantiate();
    let mut config = rollback_campaign_config(7);
    config.queries_per_database = 200;
    config.generator.update_interval = 25;
    config.generator.stats.query_threshold = 0.2;
    config.generator.stats.min_attempts = 10;
    let mut campaign = Campaign::new(config);
    let report = campaign.run(&mut dbms);
    assert_eq!(report.metrics.detected_bug_cases, 0);
    campaign.generator.refresh_suppression();
    assert!(
        campaign
            .generator
            .suppressed_query_features()
            .iter()
            .any(|f| f.name() == "STMT_BEGIN"),
        "STMT_BEGIN not suppressed after a transactionless campaign"
    );
    assert!(campaign.generator.generate_txn_session().is_none());
}

/// The reducer shrinks transactional sessions while keeping savepoint
/// pairing intact (the oracle supplies the BEGIN/COMMIT bracketing, which
/// is therefore structurally irreducible).
#[test]
fn txn_reduction_preserves_savepoint_pairing() {
    use sqlancerpp::ast::Statement;
    use sqlancerpp::core::{BugReducer, FeatureSet, TxnCase};
    let mut dbms = SimulatedDbms::new(
        DialectProfile::permissive("reduce-txn", TypingMode::Dynamic),
        FaultConfig::of(&[Fault::TxnSavepointCollapse]),
    );
    let case = TxnCase {
        setup: vec![
            parse_statement("CREATE TABLE t0 (c0 INTEGER)").unwrap(),
            parse_statement("CREATE TABLE unused (c0 INTEGER)").unwrap(),
            parse_statement("INSERT INTO t0 (c0) VALUES (1)").unwrap(),
        ],
        table: "t0".to_string(),
        statements: vec![
            parse_statement("INSERT INTO t0 (c0) VALUES (2)").unwrap(),
            parse_statement("SAVEPOINT sp1").unwrap(),
            parse_statement("DELETE FROM t0").unwrap(),
            parse_statement("ROLLBACK TO sp1").unwrap(),
            parse_statement("INSERT INTO t0 (c0) VALUES (3)").unwrap(),
        ],
        features: FeatureSet::new(),
    };
    let mut reducer = BugReducer::new(&mut dbms, 200);
    let (reduced, stats) = reducer.reduce(&case);
    assert!(stats.checks > 0);
    assert!(
        reduced.statements.len() < case.statements.len(),
        "session did not shrink: {:?}",
        reduced.statements
    );
    // Savepoint pairing is intact: every ROLLBACK TO has its SAVEPOINT.
    let mut names: Vec<String> = Vec::new();
    for stmt in &reduced.statements {
        match stmt {
            Statement::Savepoint(n) => names.push(n.clone()),
            Statement::RollbackTo(n) => assert!(
                names.contains(n),
                "orphaned ROLLBACK TO {n} in {:?}",
                reduced.statements
            ),
            _ => {}
        }
    }
    // The reduced case still reproduces the collapse bug.
    let causes = dbms.ground_truth_txn_bugs(&reduced);
    assert_eq!(causes, vec!["BUG-SAVEPOINT-COLLAPSE"]);
}

/// Text-path and AST-path fleet campaigns with the rollback oracle in the
/// mix produce identical reports — the transport tiers stay byte-identical
/// even for stateful transactional workloads.
#[test]
fn txn_campaigns_are_identical_across_transport_tiers() {
    let mut config = rollback_campaign_config(0xBEEF);
    config.oracles = vec![OracleKind::Tlp, OracleKind::Rollback];
    config.queries_per_database = 40;
    for name in ["dolt", "monetdb", "sqlite"] {
        let preset = sqlancerpp::sim::preset_by_name(name).unwrap();
        let mut ast_conn = preset.instantiate();
        let mut text_conn = TextOnlyConnection::new(preset.instantiate());
        let ast_report = Campaign::new(config.clone()).run(&mut ast_conn);
        let text_report = Campaign::new(config.clone()).run(&mut text_conn);
        assert_eq!(ast_report.metrics, text_report.metrics, "{name} metrics");
        assert_eq!(ast_report.reports, text_report.reports, "{name} reports");
        assert_eq!(ast_report.txn_cases, text_report.txn_cases, "{name} cases");
        assert_eq!(
            ast_report.validity_series, text_report.validity_series,
            "{name} validity series"
        );
    }
}
