//! Campaign-throughput timing gate: release-mode timings of fixed-seed
//! campaigns run in pairs that differ in one variable. Each ratio is the
//! measured arm's throughput relative to its base arm — both do the same
//! work, so base seconds over arm seconds:
//!
//! * `ast_over_text` — the **dispatch** workload (1-row tables, so
//!   per-statement cost dominates): the AST fast path vs the
//!   render → lex → parse text path;
//! * `compiled_over_tree` — the **eval** workload (24-row inserts, so
//!   per-row cost dominates): the closure-compiled evaluator vs the tree
//!   walker;
//! * `txn_throughput_ratio` — the eval workload with the rollback oracle
//!   in the schedule vs without, per test case;
//! * `isolation_throughput_ratio` — the eval workload with the isolation
//!   oracle in the schedule vs without, per test case;
//! * `traced_throughput_ratio` — one dialect's txn workload with the full
//!   tracing stack attached (summary, flight recorder, JSONL) vs untraced;
//! * `probed_throughput_ratio` — a campaign through a probing 2-connection
//!   pool against a flaky backend (capability lie, probe-time crash,
//!   post-respawn flapping) vs a healthy one;
//! * `partitioned_speedup` — one dialect's database-sharded campaign on
//!   every available CPU vs one worker.
//!
//! Every ratio uses one estimator: its arms run interleaved for [`ROUNDS`]
//! rounds, and the ratio is the median of the per-round ratios, reported
//! with its quartiles. `--gate` compares each median with its `FLOOR_*`
//! constant and exits non-zero on a miss. The bench only times:
//! properties (parity between arms, determinism, zero false positives)
//! are asserted by `cargo test`, and counted end-to-end rates come from
//! the repository benchmark in `benchmark/`.
//!
//! A `snapshot` micro-workload also reports `begin_ns_per_table`:
//! `BEGIN`/`ROLLBACK` churn over a row-heavy engine database, which
//! copy-on-write storage keeps at O(1) per table with zero row clones.
//!
//! Writes `BENCH_campaign.json` as JSON Lines (`schema_version` 10,
//! written by the core's one JSON codec): a
//! header, one record per ratio, the snapshot micro-workload and the
//! concurrency workload's copy-on-write counters, checked with
//! [`validate_jsonl`] before it is written.
//!
//! Usage: `campaign_throughput [--gate] [queries_per_database] [output_path]`

use dbms_sim::{
    available_threads, fleet, fleet_drivers, preset_by_name, DialectPreset, ExecutionPath,
    FaultyConfig, RunPlan,
};
use sqlancer_core::{
    silence_infra_panics, validate_jsonl, Campaign, CampaignConfig, CampaignMetrics, Json,
    OracleKind, SupervisorConfig, TraceHandle, Tracer,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The version of the artifact layout this binary writes.
const SCHEMA_VERSION: u32 = 10;

/// Interleaved rounds per ratio. Five rounds give a median and two
/// quartiles drawn from distinct samples.
const ROUNDS: usize = 5;

/// Committed regression floors, enforced by `--gate`. Deliberately
/// conservative: the CI machine is shared, so the floors sit well below
/// the ratios recorded in `BENCH_campaign.json`.
const FLOOR_AST_OVER_TEXT: f64 = 1.4;
const FLOOR_COMPILED_OVER_TREE: f64 = 1.02;
/// The txn workload (rollback oracle every third case, with its
/// reset-and-replay arms) must keep at least this fraction of the eval
/// workload's test-case throughput. `BEGIN` snapshots are O(tables), so
/// the ratio sits near 1.0; the floor catches any return of the
/// per-`BEGIN` deep clone.
const FLOOR_TXN_THROUGHPUT_RATIO: f64 = 0.45;
/// The concurrency workload (isolation oracle every third case: two
/// concurrent sessions plus up to two serial replays) must keep at least
/// this fraction of the eval workload's test-case throughput, for the
/// same reason as the txn floor.
const FLOOR_ISOLATION_THROUGHPUT_RATIO: f64 = 0.45;
/// A campaign with the full tracing stack attached must keep at least
/// this fraction of the untraced campaign's throughput. The deterministic
/// plane is counter bumps and bounded event pushes, so the median sits
/// at 0.97–1.0, but the per-round ratio's quartiles span about 0.1 on a
/// shared 2-CPU machine: a floor at the 5% observability budget would
/// fail a quarter of clean runs, so the floor sits one spread below 1.0.
const FLOOR_TRACED_THROUGHPUT_RATIO: f64 = 0.90;
/// The flaky-backend campaign pays for real recovery work (retries with
/// setup replay after probe-time crashes, double retries while the
/// backend flaps, the capability downgrade reshaping the workload), so
/// this floor only arms against the self-healing layer becoming
/// pathologically expensive, e.g. re-probing per case instead of per
/// connect or re-sync.
const FLOOR_PROBED_THROUGHPUT_RATIO: f64 = 0.25;
/// Sharding must not make the campaign slower: at most 10% slower than
/// one worker. Demonstrating scaling is a wider machine's job; the floor
/// applies only where more than one CPU is available.
const FLOOR_PARTITIONED_SPEEDUP: f64 = 0.91;

fn base_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(0xBE)
        .databases(2)
        .ddl_per_database(12)
        .queries_per_database(queries_per_database)
        .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
        .reduce_bugs(false)
        .max_reduction_checks(24)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

/// The dispatch workload: 1-row tables, so each statement's cost is
/// dominated by how it reaches the engine (render/lex/parse vs direct
/// AST).
fn dispatch_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = base_config(queries_per_database);
    config.generator.max_insert_rows = 1;
    config
}

/// The eval workload: row-heavy tables, so each statement's cost is
/// dominated by per-row expression evaluation — the regime the compiled
/// evaluator targets.
fn eval_config(queries_per_database: usize) -> CampaignConfig {
    let mut config = base_config(queries_per_database);
    config.generator.max_insert_rows = 24;
    config
}

/// The eval workload with one stateful oracle added to the schedule, so
/// every third test case is a transactional session (rollback) or a
/// two-session concurrent schedule (isolation).
fn stateful_config(queries_per_database: usize, oracle: OracleKind) -> CampaignConfig {
    let mut config = eval_config(queries_per_database);
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, oracle];
    config
}

/// Wall seconds of interleaved arms, `secs[round][arm]`.
struct Rounds(Vec<Vec<f64>>);

/// Runs every arm once per round for [`ROUNDS`] rounds and records its
/// wall time. The arm order reverses every round: under cgroup CPU-quota
/// throttling the first arm of a round tends to get the burst and the
/// last the throttle, so a fixed order would bias every ratio one way.
fn interleave(arms: &mut [&mut dyn FnMut()]) -> Rounds {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut secs = vec![0.0; arms.len()];
        let mut order: Vec<usize> = (0..arms.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for index in order {
            let start = Instant::now();
            arms[index]();
            secs[index] = start.elapsed().as_secs_f64();
        }
        rounds.push(secs);
    }
    Rounds(rounds)
}

/// The 25th, 50th and 75th percentiles (nearest rank).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

/// One timed ratio with its spread and floor.
struct Ratio {
    name: &'static str,
    base: &'static str,
    arm: &'static str,
    /// Median wall seconds of the base and measured arms.
    base_s: f64,
    arm_s: f64,
    median: f64,
    q1: f64,
    q3: f64,
    floor: f64,
    /// Whether the floor applies on this machine.
    gated: bool,
}

impl Ratio {
    fn missed(&self) -> bool {
        self.gated && (self.median.is_nan() || self.median < self.floor)
    }

    fn json(&self) -> Json {
        Json::obj([
            ("type", "ratio".into()),
            ("name", self.name.into()),
            ("base", self.base.into()),
            ("arm", self.arm.into()),
            ("base_s", fixed(self.base_s, 4)),
            ("arm_s", fixed(self.arm_s, 4)),
            ("median", fixed(self.median, 3)),
            ("q1", fixed(self.q1, 3)),
            ("q3", fixed(self.q3, 3)),
            ("floor", self.floor.into()),
            ("gated", self.gated.into()),
        ])
    }
}

/// `x` rounded to `decimals` places, so the artifact carries only the
/// digits the measurement supports.
fn fixed(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::F64((x * scale).round() / scale)
}

impl Rounds {
    /// Arm `arm`'s throughput relative to arm `base`'s: the median and
    /// quartiles of the per-round `base / arm` elapsed ratios. The arms of
    /// a round run seconds apart at most, so a sustained load spike slows
    /// both and the round's ratio stays unbiased.
    fn ratio(
        &self,
        name: &'static str,
        (base_label, base): (&'static str, usize),
        (arm_label, arm): (&'static str, usize),
        floor: f64,
    ) -> Ratio {
        let column = |index: usize| -> Vec<f64> { self.0.iter().map(|r| r[index]).collect() };
        let per_round: Vec<f64> = self.0.iter().map(|r| r[base] / r[arm]).collect();
        let [q1, median, q3] = quartiles(&per_round);
        Ratio {
            name,
            base: base_label,
            arm: arm_label,
            base_s: quartiles(&column(base))[1],
            arm_s: quartiles(&column(arm))[1],
            median,
            q1,
            q3,
            floor,
            gated: true,
        }
    }
}

// ------------------------------------------------------- snapshot micro ----

/// Result of the `BEGIN`/`ROLLBACK` churn micro-workload.
struct SnapshotMicro {
    tables: usize,
    rows_per_table: usize,
    iterations: usize,
    begin_ns_per_table: f64,
    tables_snapshotted: u64,
    tables_cow_cloned: u64,
}

/// Measures pure snapshot cost: `BEGIN`/`ROLLBACK` churn over a row-heavy
/// database. With copy-on-write storage every `BEGIN` shares table
/// versions by pointer, so the per-table cost is row-count-independent and
/// the churn performs zero CoW row clones — asserted, since a clone would
/// mean the timing measures something else.
fn snapshot_micro() -> SnapshotMicro {
    use sql_engine::{Engine, EngineConfig};
    use sql_parser::parse_statement;
    const TABLES: usize = 8;
    const ROWS_PER_TABLE: usize = 384;
    const BATCH: usize = 32;
    const ITERATIONS: usize = 4000;
    let engine = Engine::new(EngineConfig::dynamic());
    let mut session = engine.session();
    let mut run = |sql: &str| {
        session
            .execute(&parse_statement(sql).expect("bench SQL parses"))
            .expect("bench SQL executes");
    };
    for t in 0..TABLES {
        run(&format!("CREATE TABLE t{t} (c0 INTEGER, c1 TEXT)"));
        for batch in 0..(ROWS_PER_TABLE / BATCH) {
            let rows: Vec<String> = (0..BATCH)
                .map(|i| format!("({}, 'r{}')", batch * BATCH + i, i))
                .collect();
            run(&format!(
                "INSERT INTO t{t} (c0, c1) VALUES {}",
                rows.join(", ")
            ));
        }
    }
    let before = engine.cow_stats();
    let start = Instant::now();
    for _ in 0..ITERATIONS {
        run("BEGIN");
        run("ROLLBACK");
    }
    let elapsed = start.elapsed();
    let after = engine.cow_stats();
    assert_eq!(
        after.tables_cow_cloned, before.tables_cow_cloned,
        "BEGIN/ROLLBACK churn must not clone row data"
    );
    SnapshotMicro {
        tables: TABLES,
        rows_per_table: ROWS_PER_TABLE,
        iterations: ITERATIONS,
        begin_ns_per_table: elapsed.as_nanos() as f64 / (ITERATIONS * TABLES) as f64,
        tables_snapshotted: after.tables_snapshotted - before.tables_snapshotted,
        tables_cow_cloned: after.tables_cow_cloned - before.tables_cow_cloned,
    }
}

// ------------------------------------------------------------ workloads ----

fn preset(dialect: &str) -> DialectPreset {
    preset_by_name(dialect).expect("the bench names fleet dialects")
}

/// The fleet ratios: dispatch (text vs AST), then eval (tree vs compiled)
/// with the txn and concurrency workloads in the same rounds, timed
/// against the eval workload's compiled arm. Returns the concurrency
/// workload's metrics for the copy-on-write record.
fn fleet_ratios(queries: usize) -> (Vec<Ratio>, CampaignMetrics) {
    let run = |config: &CampaignConfig, path| RunPlan::new(fleet_drivers(path)).run(config).totals;
    let dispatch = dispatch_config(queries);
    let eval = eval_config(queries);
    let txn = stateful_config(queries, OracleKind::Rollback);
    let concurrency = stateful_config(queries, OracleKind::Isolation);

    let dispatch_rounds = interleave(&mut [
        &mut || {
            run(&dispatch, ExecutionPath::Text);
        },
        &mut || {
            run(&dispatch, ExecutionPath::Ast);
        },
    ]);
    let (mut eval_cases, mut txn_cases) = (0, 0);
    let mut concurrency_totals = CampaignMetrics::default();
    let eval_rounds = interleave(&mut [
        &mut || {
            run(&eval, ExecutionPath::AstTreeWalk);
        },
        &mut || eval_cases = run(&eval, ExecutionPath::Ast).test_cases,
        &mut || txn_cases = run(&txn, ExecutionPath::Ast).test_cases,
        &mut || concurrency_totals = run(&concurrency, ExecutionPath::Ast),
    ]);
    // The txn and isolation ratios compare elapsed times as per-case
    // throughput, which holds only while every schedule runs its full case
    // budget.
    assert!(
        eval_cases == txn_cases && eval_cases == concurrency_totals.test_cases,
        "eval, txn and concurrency workloads ran different case counts"
    );
    let ratios = vec![
        dispatch_rounds.ratio(
            "ast_over_text",
            ("text", 0),
            ("ast", 1),
            FLOOR_AST_OVER_TEXT,
        ),
        eval_rounds.ratio(
            "compiled_over_tree",
            ("ast_tree", 0),
            ("ast", 1),
            FLOOR_COMPILED_OVER_TREE,
        ),
        eval_rounds.ratio(
            "txn_throughput_ratio",
            ("eval", 1),
            ("txn", 2),
            FLOOR_TXN_THROUGHPUT_RATIO,
        ),
        eval_rounds.ratio(
            "isolation_throughput_ratio",
            ("eval", 1),
            ("concurrency", 3),
            FLOOR_ISOLATION_THROUGHPUT_RATIO,
        ),
    ];
    (ratios, concurrency_totals)
}

/// Untraced vs fully traced (summary, 32-slot flight recorder, JSONL
/// flushed to a scratch file) supervised campaigns of the txn schedule on
/// one dialect.
fn traced_ratio() -> Ratio {
    let dolt = preset("dolt");
    let mut config = stateful_config(400, OracleKind::Rollback);
    config.seed = 0x7247CE;
    let jsonl_path = std::env::temp_dir().join(format!(
        "sqlancerpp_trace_overhead_{}.jsonl",
        std::process::id()
    ));
    let run = |trace: Option<TraceHandle>| {
        let mut conn = dolt.instantiate_for_path(ExecutionPath::Ast);
        let mut campaign = Campaign::new(config.clone());
        campaign.set_trace(trace);
        campaign.run_supervised(&mut *conn, &SupervisorConfig::default());
    };
    let rounds = interleave(&mut [&mut || run(None), &mut || {
        let tracer = Tracer::new()
            .with_flight_recorder(32)
            .with_jsonl_path(jsonl_path.clone());
        run(Some(Rc::new(RefCell::new(tracer))));
    }]);
    let _ = std::fs::remove_file(&jsonl_path);
    rounds.ratio(
        "traced_throughput_ratio",
        ("untraced", 0),
        ("traced", 1),
        FLOOR_TRACED_THROUGHPUT_RATIO,
    )
}

/// Healthy vs flaky backend, each through a probing 2-connection pool:
/// the storm schedule (TLP + NoREC + rollback, so transaction control is
/// generated and the capability lie matters) over three databases, so the
/// per-database breaker reset and drift re-announcement run too.
fn probed_ratio() -> Ratio {
    let mut config = base_config(400);
    config.seed = 0xF1AC;
    config.databases = 3;
    config.oracles = vec![OracleKind::Tlp, OracleKind::NoRec, OracleKind::Rollback];
    let sharded = |preset: DialectPreset| RunPlan {
        pool_size: 2,
        shard_by_database: true,
        ..RunPlan::new(vec![preset.driver(ExecutionPath::Ast)])
    };
    let healthy = sharded(preset("sqlite"));
    let flaky = sharded(preset("sqlite").with_infra_faults(FaultyConfig::flaky()));
    let rounds = interleave(&mut [
        &mut || {
            healthy.run(&config);
        },
        &mut || {
            flaky.run(&config);
        },
    ]);
    rounds.ratio(
        "probed_throughput_ratio",
        ("healthy", 0),
        ("flaky", 1),
        FLOOR_PROBED_THROUGHPUT_RATIO,
    )
}

/// One worker vs every available CPU (at least two) on one dialect's
/// database-sharded campaign, sized to run about half a second serially so
/// thread start-up stays small against the work. Shard cost follows the
/// seed: at this size the eight databases split evenly across two
/// workers, where six or sixteen left one worker with most of the work.
fn partitioned_ratio(threads: usize) -> Ratio {
    let mut config = stateful_config(150, OracleKind::Isolation);
    config.databases = 8;
    let serial = RunPlan {
        shard_by_database: true,
        ..RunPlan::new(vec![preset("mariadb").driver(ExecutionPath::Ast)])
    };
    let sharded = RunPlan {
        threads: threads.max(2),
        ..serial.clone()
    };
    let mut ratio = interleave(&mut [
        &mut || {
            serial.run(&config);
        },
        &mut || {
            sharded.run(&config);
        },
    ])
    .ratio(
        "partitioned_speedup",
        ("serial", 0),
        ("sharded", 1),
        FLOOR_PARTITIONED_SPEEDUP,
    );
    ratio.gated = threads > 1;
    ratio
}

fn usage() -> ! {
    eprintln!("usage: campaign_throughput [--gate] [queries_per_database] [output_path]");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.first().is_some_and(|arg| arg == "--gate");
    if gate {
        args.remove(0);
    }
    if args.len() > 2 {
        usage();
    }
    let queries: usize = match args.first() {
        Some(arg) => arg.parse().unwrap_or_else(|_| usage()),
        None => 400,
    };
    let output = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "BENCH_campaign.json".to_string());
    silence_infra_panics();
    let threads = available_threads();

    // Warm-up: touch every preset once so first-run effects (page faults,
    // lazy allocations) don't land on the first measured arm.
    let mut warm = dispatch_config(5);
    warm.databases = 1;
    let _ = RunPlan::new(fleet_drivers(ExecutionPath::Ast)).run(&warm);

    let (mut ratios, cow) = fleet_ratios(queries);
    ratios.push(traced_ratio());
    ratios.push(probed_ratio());
    ratios.push(partitioned_ratio(threads));
    let snapshot = snapshot_micro();

    let mut records = vec![Json::obj([
        ("type", "header".into()),
        ("schema_version", SCHEMA_VERSION.into()),
        ("seed", base_config(queries).seed.into()),
        ("dialects", fleet().len().into()),
        ("queries_per_database", queries.into()),
        ("rounds", ROUNDS.into()),
        ("threads", threads.into()),
    ])];
    records.extend(ratios.iter().map(Ratio::json));
    records.push(Json::obj([
        ("type", "snapshot".into()),
        ("tables", snapshot.tables.into()),
        ("rows_per_table", snapshot.rows_per_table.into()),
        ("begin_rollback_iters", snapshot.iterations.into()),
        ("begin_ns_per_table", fixed(snapshot.begin_ns_per_table, 1)),
        ("tables_snapshotted", snapshot.tables_snapshotted.into()),
        ("tables_cow_cloned", snapshot.tables_cow_cloned.into()),
    ]));
    records.push(Json::obj([
        ("type", "cow".into()),
        ("workload", "concurrency".into()),
        ("txn_begins", cow.txn_begins.into()),
        ("tables_snapshotted", cow.tables_snapshotted.into()),
        ("tables_cow_cloned", cow.tables_cow_cloned.into()),
        ("cow_clone_rate", fixed(cow.cow_clone_rate(), 4)),
        ("conflicts_avoided", cow.conflicts_avoided.into()),
        ("isolation_schedules", cow.isolation_schedules.into()),
        ("conflict_abort_rate", fixed(cow.conflict_abort_rate(), 3)),
    ]));
    let artifact: String = records.iter().map(Json::line).collect();
    if let Err(why) = validate_jsonl(&artifact) {
        eprintln!("{output}: artifact is not valid JSON Lines: {why}");
        std::process::exit(2);
    }
    std::fs::write(&output, &artifact).expect("write benchmark output");

    println!(
        "{:<28} {:>7}  {:>15}  {:>9} {:>9}  {:>5}",
        "ratio (arm / base)", "median", "[q1, q3]", "base_s", "arm_s", "floor"
    );
    for ratio in &ratios {
        println!(
            "{:<28} {:>7.3}  [{:>5.3}, {:>5.3}]  {:>9.4} {:>9.4}  {:>5.2}  {}",
            ratio.name,
            ratio.median,
            ratio.q1,
            ratio.q3,
            ratio.base_s,
            ratio.arm_s,
            ratio.floor,
            match (ratio.gated, ratio.missed()) {
                (false, _) => "not gated (1 CPU)",
                (true, false) => "ok",
                (true, true) => "MISS",
            },
        );
    }
    println!(
        "snapshot micro ({} tables x {} rows): BEGIN {:.0} ns/table, {} cow clones; \
         concurrency workload: {:.1}% conflict aborts, {:.1}% cow clone rate",
        snapshot.tables,
        snapshot.rows_per_table,
        snapshot.begin_ns_per_table,
        snapshot.tables_cow_cloned,
        cow.conflict_abort_rate() * 100.0,
        cow.cow_clone_rate() * 100.0,
    );
    println!("wrote {output} ({threads} threads available, {ROUNDS} rounds per ratio)");
    let missed: Vec<&str> = ratios
        .iter()
        .filter(|ratio| ratio.missed())
        .map(|ratio| ratio.name)
        .collect();
    if gate && !missed.is_empty() {
        eprintln!("FAIL: below floor: {}", missed.join(", "));
        std::process::exit(1);
    }
}
