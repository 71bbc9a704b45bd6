//! Typed setup replay: every state rebuild (pool re-sync, supervisor
//! recovery, oracle setup capture) hands the backend the typed statement
//! the campaign already holds, so an AST-capable backend never re-parses
//! setup SQL — and a text-only backend still receives exactly the SQL text
//! the statements render to.

use sqlancerpp::core::{
    render_report, silence_infra_panics, BackendEvent, Campaign, CampaignConfig, CampaignReport,
    Capability, DbmsConnection, DialectQuirks, Driver, EngineCoverage, OracleKind, Pool,
    QueryResult, ResilienceEvent, StateCheckpoint, StatementOutcome, StorageMetrics,
    SupervisorConfig, TextOnlyConnection,
};
use sqlancerpp::sim::{preset_by_name, ExecutionPath, FaultyConfig};
use std::sync::{Arc, Mutex};

/// What the backend below the pool received.
#[derive(Debug, Default)]
struct Traffic {
    /// Every statement and query, as the SQL it carries, in arrival order.
    sql: Vec<String>,
    /// `execute(&str)` calls.
    text_executes: usize,
    /// `execute_ast` calls.
    ast_executes: usize,
    /// Resets issued inside a case: the stateful oracles' setup rebuilds.
    in_case_resets: usize,
}

/// Records the traffic reaching the wrapped connection.
struct Recorder {
    inner: Box<dyn DbmsConnection>,
    traffic: Arc<Mutex<Traffic>>,
    in_case: bool,
}

impl Recorder {
    fn log(&self, sql: String, text_execute: bool, ast_execute: bool) {
        let mut traffic = self.traffic.lock().unwrap();
        traffic.sql.push(sql);
        traffic.text_executes += usize::from(text_execute);
        traffic.ast_executes += usize::from(ast_execute);
    }
}

impl DbmsConnection for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn execute(&mut self, sql: &str) -> StatementOutcome {
        self.log(sql.to_string(), true, false);
        self.inner.execute(sql)
    }
    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.log(sql.to_string(), false, false);
        self.inner.query(sql)
    }
    fn reset(&mut self) {
        if self.in_case {
            self.traffic.lock().unwrap().in_case_resets += 1;
        }
        self.inner.reset();
    }
    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }
    fn execute_ast(&mut self, stmt: &sqlancerpp::ast::Statement) -> StatementOutcome {
        self.log(stmt.to_string(), false, true);
        self.inner.execute_ast(stmt)
    }
    fn query_ast(&mut self, select: &sqlancerpp::ast::Select) -> Result<QueryResult, String> {
        self.log(select.to_string(), false, false);
        self.inner.query_ast(select)
    }
    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        self.inner.open_session()
    }
    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        self.inner.storage_metrics()
    }
    fn begin_case(&mut self, case_seed: u64) {
        self.in_case = case_seed != 0;
        self.inner.begin_case(case_seed);
    }
    fn virtual_ticks(&self) -> u64 {
        self.inner.virtual_ticks()
    }
    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        self.inner.checkpoint()
    }
    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        self.inner.restore(checkpoint)
    }
    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        self.inner.drain_backend_events()
    }
    fn engine_coverage(&self) -> Option<EngineCoverage> {
        self.inner.engine_coverage()
    }
    fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        self.inner.drain_resilience_events()
    }
    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        self.inner.note_case_outcome(case_seed, infra_failed);
    }
    fn resilience_checkpoint(&self) -> Option<String> {
        self.inner.resilience_checkpoint()
    }
    fn restore_resilience(&mut self, data: &str) -> bool {
        self.inner.restore_resilience(data)
    }
    fn note_database_boundary(&mut self) {
        self.inner.note_database_boundary();
    }
}

/// Wraps every connection of `inner` in a [`Recorder`]; with `text_only`,
/// the recorder sits below a [`TextOnlyConnection`], where a wire backend
/// would.
struct RecordingDriver {
    inner: Arc<dyn Driver>,
    text_only: bool,
    traffic: Arc<Mutex<Traffic>>,
}

impl Driver for RecordingDriver {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capability(&self) -> Capability {
        self.inner.capability()
    }
    fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
        let recorder = Recorder {
            inner: self.inner.connect()?,
            traffic: Arc::clone(&self.traffic),
            in_case: false,
        };
        Ok(if self.text_only {
            Box::new(TextOnlyConnection::new(recorder))
        } else {
            Box::new(recorder)
        })
    }
}

/// A storm campaign over a pool of 2: infra faults force supervisor
/// recoveries, two slots force re-syncs, the rollback oracle rebuilds its
/// setup state in every case. Reduction is off: the reducer's input is SQL
/// text by design.
fn run(text_only: bool) -> (CampaignReport, Traffic, u64) {
    silence_infra_panics();
    let preset = preset_by_name("sqlite")
        .expect("sqlite preset exists")
        .with_infra_faults(FaultyConfig::storm());
    let traffic = Arc::new(Mutex::new(Traffic::default()));
    let driver = Arc::new(RecordingDriver {
        inner: preset.driver(ExecutionPath::Ast),
        text_only,
        traffic: Arc::clone(&traffic),
    });
    let config = CampaignConfig::builder()
        .seed(0x7E9D)
        .databases(3)
        .ddl_per_database(10)
        .queries_per_database(30)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(false)
        .build();
    let mut pool = Pool::new(driver, 2).expect("pool connects");
    let report = Campaign::new(config).run_pooled(&mut pool, &SupervisorConfig::default());
    let resyncs = pool
        .drain_backend_events()
        .iter()
        .map(|event| match event {
            BackendEvent::SlotResyncs { count, .. } => *count,
            _ => 0,
        })
        .sum();
    drop(pool);
    let traffic = Arc::try_unwrap(traffic).unwrap().into_inner().unwrap();
    (report, traffic, resyncs)
}

#[test]
fn rebuilds_replay_typed_statements_and_text_backends_see_the_same_sql() {
    let (ast_report, ast, resyncs) = run(false);
    // Every rebuild path ran...
    assert!(resyncs > 0, "the pool must re-sync stale slots");
    assert!(
        ast_report.robustness.retries > 0,
        "storm faults must force supervisor recoveries"
    );
    assert!(
        ast.in_case_resets > 0,
        "the rollback oracle rebuilds in-case"
    );
    // ...and none of them handed the AST-capable backend SQL text.
    assert_eq!(ast.text_executes, 0, "a rebuild re-sent SQL text");
    assert!(ast.ast_executes > 0);

    // The same campaign through a text-only wire contract: the backend
    // receives the rendering of every typed statement, in the same order.
    let (text_report, text, _) = run(true);
    assert_eq!(text.ast_executes, 0);
    assert_eq!(text.text_executes, ast.ast_executes);
    assert_eq!(text.sql.len(), ast.sql.len());
    if let Some(at) = (0..text.sql.len()).find(|&i| text.sql[i] != ast.sql[i]) {
        panic!(
            "statement {at} differs: text path {:?}, typed path {:?}",
            text.sql[at], ast.sql[at]
        );
    }
    assert_eq!(render_report(&text_report), render_report(&ast_report));
}
