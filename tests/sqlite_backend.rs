//! Tests against the first real wire backend: the system `sqlite3` binary
//! driven over a subprocess pipe.
//!
//! Two properties are pinned here:
//!
//! 1. **Parity** — on dialect-neutral SQL, the text-only path over the
//!    simulated engine and the real sqlite3 subprocess reach the same
//!    verdicts (same accept/reject decisions, same rows).
//! 2. **Zero false positives** — a clean campaign against real sqlite3
//!    reports no bugs, and killing the sqlite3 child mid-campaign produces
//!    `BackendCrash` incidents and retries, never a logic-bug report (the
//!    bar the fault-storm suite holds the simulated infra faults to).
//!
//! Both tests self-skip with a visible notice when no working `sqlite3`
//! binary is on `PATH`.

use sqlancerpp::core::{
    Campaign, CampaignConfig, Capability, DbmsConnection, Driver, IncidentKind, OracleKind, Pool,
    QueryResult, StatementOutcome, SupervisorConfig,
};
use sqlancerpp::sim::{preset_by_name, ExecutionPath};
use sqlancerpp::sqlite::{SqliteProcConnection, SqliteProcDriver};
use std::sync::Arc;

fn sqlite_available() -> bool {
    let available = SqliteProcDriver::system().available();
    if !available {
        eprintln!("sqlite_backend tests: SKIPPED (no working sqlite3 binary on PATH)");
    }
    available
}

/// Dialect-neutral statements: plain integer/text tables, literal inserts,
/// and queries whose semantics are fixed by the SQL standard. Both backends
/// must agree on every accept/reject verdict and on every row set.
const NEUTRAL_SETUP: &[&str] = &[
    "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
    "INSERT INTO t0 VALUES (1, 'a')",
    "INSERT INTO t0 VALUES (2, 'b')",
    "INSERT INTO t0 VALUES (NULL, 'a')",
    "INSERT INTO t0 VALUES (-3, NULL)",
    "CREATE TABLE t1 (c0 INTEGER)",
    "INSERT INTO t1 VALUES (1)",
    "INSERT INTO t1 VALUES (2)",
];

const NEUTRAL_QUERIES: &[&str] = &[
    "SELECT c0 FROM t0 WHERE c0 > 0 ORDER BY c0",
    "SELECT c1 FROM t0 WHERE c1 = 'a' ORDER BY c1",
    "SELECT c0 FROM t0 WHERE c0 IS NULL",
    "SELECT COUNT(*) FROM t0",
    "SELECT t0.c0 FROM t0, t1 WHERE t0.c0 = t1.c0 ORDER BY t0.c0",
    "SELECT c0 + 1 FROM t1 ORDER BY c0",
    "SELECT DISTINCT c1 FROM t0 WHERE c1 IS NOT NULL ORDER BY c1",
];

/// Statements both dialects must reject (the error *messages* may differ;
/// the verdict may not).
const NEUTRAL_REJECTS: &[&str] = &[
    "SELECT c0 FROM missing_table",
    "CREATE TABLE t0 (c0 INTEGER)",
    "SELECT FROM WHERE",
];

fn sorted_rows(result: QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = result.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn real_sqlite_and_simulated_text_path_agree_on_neutral_statements() {
    if !sqlite_available() {
        return;
    }
    let preset = preset_by_name("sqlite").expect("sqlite preset exists");
    let mut sim = preset.instantiate_for_path(ExecutionPath::Text);
    let mut real: Box<dyn DbmsConnection> = Box::new(
        SqliteProcConnection::spawn("sqlite3").expect("sqlite3 spawns after availability probe"),
    );

    for stmt in NEUTRAL_SETUP {
        let sim_ok = matches!(sim.execute(stmt), StatementOutcome::Success);
        let real_ok = matches!(real.execute(stmt), StatementOutcome::Success);
        assert!(sim_ok, "simulated engine rejected neutral setup: {stmt}");
        assert!(real_ok, "real sqlite3 rejected neutral setup: {stmt}");
    }
    for query in NEUTRAL_QUERIES {
        let sim_rows = sorted_rows(sim.query(query).unwrap_or_else(|err| {
            panic!("simulated engine rejected neutral query {query}: {err}")
        }));
        let real_rows =
            sorted_rows(real.query(query).unwrap_or_else(|err| {
                panic!("real sqlite3 rejected neutral query {query}: {err}")
            }));
        assert_eq!(sim_rows, real_rows, "row divergence on: {query}");
    }
    for stmt in NEUTRAL_REJECTS {
        assert!(
            matches!(sim.execute(stmt), StatementOutcome::Failure(_)),
            "simulated engine accepted a statement sqlite rejects: {stmt}"
        );
        assert!(
            matches!(real.execute(stmt), StatementOutcome::Failure(_)),
            "real sqlite3 accepted: {stmt}"
        );
    }
}

/// Wraps the subprocess connection and kills the `sqlite3` child on a fixed
/// in-case statement cadence, simulating a backend that segfaults under
/// load. Kills only fire inside test cases (never during setup replay), the
/// same discipline the simulated fault injector follows.
struct KillerConnection {
    inner: SqliteProcConnection,
    in_case: bool,
    statements: u64,
    period: u64,
}

impl KillerConnection {
    fn maybe_kill(&mut self) {
        if !self.in_case {
            return;
        }
        self.statements += 1;
        if self.statements.is_multiple_of(self.period) {
            self.inner.kill_backend();
        }
    }
}

impl DbmsConnection for KillerConnection {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        self.maybe_kill();
        self.inner.execute(sql)
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.maybe_kill();
        self.inner.query(sql)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn begin_case(&mut self, case_seed: u64) {
        self.in_case = case_seed != 0;
        self.inner.begin_case(case_seed);
    }
}

struct KillerDriver {
    period: u64,
}

impl Driver for KillerDriver {
    fn name(&self) -> &str {
        "sqlite-proc-killer"
    }

    fn capability(&self) -> Capability {
        Capability::text_only()
    }

    fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
        Ok(Box::new(KillerConnection {
            inner: SqliteProcConnection::spawn("sqlite3")?,
            in_case: false,
            statements: 0,
            period: self.period,
        }))
    }
}

#[test]
fn killing_the_sqlite_child_yields_backend_crashes_and_zero_logic_bugs() {
    if !sqlite_available() {
        return;
    }
    let mut config = CampaignConfig::builder()
        .seed(0x1CE9)
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

    // The same campaign against a clean child and against one killed every
    // 37 in-case statements. Real sqlite3 has none of the logic bugs this
    // generator can expose, so any bug report is a false positive.
    let clean: Arc<dyn Driver> = Arc::new(SqliteProcDriver::system());
    let killer: Arc<dyn Driver> = Arc::new(KillerDriver { period: 37 });
    for (driver, kills) in [(clean, false), (killer, true)] {
        let mut pool = Pool::new(driver, 2).expect("sqlite3 pool connects");
        let report =
            Campaign::new(config.clone()).run_pooled(&mut pool, &SupervisorConfig::default());
        assert!(
            report.reports.is_empty(),
            "real sqlite3 must never yield a bug report (kills: {kills}): {:?}",
            report
                .reports
                .iter()
                .map(|r| r.description.as_str())
                .collect::<Vec<_>>()
        );
        assert!(!report.degraded, "sporadic crashes must not quarantine");
        assert!(report.metrics.valid_test_cases > 0);
        if kills {
            assert!(
                report
                    .incidents
                    .iter()
                    .any(|incident| incident.kind == IncidentKind::BackendCrash),
                "expected BackendCrash incidents, got {:?}",
                report.incidents
            );
            assert!(
                report.robustness.retries > 0,
                "crashed cases must be retried"
            );
        }
    }
}
