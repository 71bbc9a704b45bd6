//! Micro-benchmark for the expression evaluators and the SELECT path.
//!
//! The first section compares tree-walking with closure-compiled
//! evaluation, plus the one-time compile and plan-cache-key costs: mean
//! nanoseconds per operation for a few representative predicate shapes
//! over a small in-memory row set. It attributes `campaign_throughput`
//! deltas to per-row evaluation vs per-statement compilation.
//!
//! The second section times the engine's SELECT path (the "plan/compile"
//! and "execute" stages of a case) on a seeded mix of generated queries
//! and their TLP partitions over the `sqlite` fleet preset: nanoseconds and
//! heap allocations per query, by the number of relations in FROM, and
//! allocations per `optimize_select` call. A counting global allocator
//! counts this thread's allocations.
//!
//! The third section times the "generate" stage's per-case feature work
//! on the same seeded generator: generating a case (the four oracles'
//! shapes in rotation), recording its outcome in the support model, and
//! observing it in the coverage atlas — nanoseconds and allocations per
//! case for each. It prints only; no figure here is gated.
//!
//! Run with `cargo run --release -p bench --bin eval_micro`.

use sql_ast::{Expr, Select, SelectItem};
use sql_engine::{
    compile_expr, optimize_select, Database, EngineConfig, EvalStrategy, Evaluator, ExecutionMode,
    RelationBinding, Scope,
};
use sqlancer_core::trace::TraceVerdict;
use sqlancer_core::{
    AdaptiveGenerator, CampaignCoverage, FeatureKind, FeatureSet, GeneratorConfig, OracleKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; counting only touches
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..32 {
        f();
    }
    let budget = Duration::from_millis(150);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        for _ in 0..64 {
            f();
        }
        iters += 64;
    }
    let nanos = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<48} {nanos:>10.1} ns/iter");
}

fn main() {
    evaluators();
    query_path();
    generate_stage();
}

fn evaluators() {
    let db = Database::new(EngineConfig::dynamic());
    let bindings = vec![RelationBinding::new(
        "t0",
        vec!["c0".to_string(), "c1".to_string(), "c2".to_string()],
    )];
    let rows: Vec<Vec<sql_ast::Value>> = (0..8)
        .map(|i| {
            vec![
                sql_ast::Value::Integer(i),
                sql_ast::Value::text(format!("v{i}")),
                sql_ast::Value::Real(i as f64 * 0.5),
            ]
        })
        .collect();
    let evaluator = Evaluator::new(&db, ExecutionMode::Optimized);

    for (label, sql) in [
        ("simple", "c0 = 3"),
        ("medium", "(c0 > 1 AND c1 LIKE 'v%') OR c2 IS NULL"),
        (
            "wide",
            "c0 + 1 = 4 AND c2 * 2.0 < 10.0 AND UPPER(c1) = 'V3'",
        ),
        ("const", "1 + 2 * 3 = 7"),
    ] {
        let expr = sql_parser::parse_expression(sql).unwrap();
        bench(&format!("tree/{label} (8 rows)"), || {
            for row in &rows {
                let scope = Scope::new(&bindings, row);
                std::hint::black_box(evaluator.eval(&expr, &scope).ok());
            }
        });
        let compiled = compile_expr(&db, ExecutionMode::Optimized, &bindings, &expr);
        bench(&format!("compiled/{label} (8 rows)"), || {
            for row in &rows {
                let scope = Scope::new(&bindings, row);
                std::hint::black_box(compiled.eval(&evaluator, &scope).ok());
            }
        });
        bench(&format!("compile+cache-hit/{label}"), || {
            std::hint::black_box(compile_expr(
                &db,
                ExecutionMode::Optimized,
                &bindings,
                &expr,
            ));
        });
        // Dropping the cached plans before each compile makes every
        // iteration a cold one-time compile (plus the cache insert) without
        // timing the construction of a fresh database.
        bench(&format!("compile-cold/{label}"), || {
            db.reset_coverage();
            std::hint::black_box(compile_expr(
                &db,
                ExecutionMode::Optimized,
                &bindings,
                &expr,
            ));
        });
    }
}

/// Seed of the generated schema and query mix.
const QUERY_SEED: u64 = 0x5E1EC7;
/// DDL/DML statements generated before the queries, as many as a
/// campaign runs per database by default.
const SETUP_STATEMENTS: usize = 12;
/// Generated queries; each adds itself and its three TLP partitions.
const GENERATED_QUERIES: usize = 200;

/// The number of relations in a query's FROM.
fn from_arity(select: &Select) -> usize {
    select.from.iter().map(|twj| 1 + twj.joins.len()).sum()
}

/// A `sqlite`-preset database and the seeded generator that built its
/// schema.
fn seeded_database() -> (Database, AdaptiveGenerator) {
    let preset = dbms_sim::preset_by_name("sqlite").expect("the sqlite preset");
    let mut db = Database::new(EngineConfig {
        typing: preset.profile.typing,
        faults: preset.faults,
        eval: EvalStrategy::Compiled,
    });
    let mut generator = AdaptiveGenerator::new(QUERY_SEED, GeneratorConfig::default());
    for _ in 0..SETUP_STATEMENTS {
        let generated = generator.generate_ddl_statement();
        if db.execute(&generated.statement).is_ok() {
            generator.apply_success(&generated.statement);
        }
    }
    (db, generator)
}

fn query_path() {
    let (db, mut generator) = seeded_database();
    // The mix, by FROM arity: each query as TLP sends it (`SELECT *`, no
    // WHERE) and its three partitions.
    let mut by_arity: [Vec<Select>; 3] = Default::default();
    for _ in 0..GENERATED_QUERIES {
        let Some(query) = generator.generate_query() else {
            break;
        };
        let base = Select {
            projections: vec![SelectItem::Wildcard],
            where_clause: None,
            ..query.select
        };
        let arity = from_arity(&base).clamp(1, 3);
        let p = query.predicate;
        let partitions: [Option<Expr>; 4] = [
            None,
            Some(p.clone()),
            Some(p.clone().not()),
            Some(p.is_null()),
        ];
        for where_clause in partitions {
            by_arity[arity - 1].push(Select {
                where_clause,
                ..base.clone()
            });
        }
    }
    println!();
    for (i, queries) in by_arity.iter().enumerate() {
        if queries.is_empty() {
            continue;
        }
        let run = || {
            for select in queries {
                std::hint::black_box(db.query(select, ExecutionMode::Optimized).ok());
            }
        };
        // Warm up: compiles and caches every predicate.
        run();
        let before = allocations();
        run();
        let per_query = (allocations() - before) as f64 / queries.len() as f64;
        let name = format!(
            "query-path/{} relation(s) ({} queries)",
            i + 1,
            queries.len()
        );
        let budget = Duration::from_millis(300);
        let start = Instant::now();
        let mut passes = 0u64;
        while start.elapsed() < budget {
            run();
            passes += 1;
        }
        let nanos = start.elapsed().as_nanos() as f64 / (passes * queries.len() as u64) as f64;
        println!("{name:<48} {nanos:>10.1} ns/query {per_query:>8.1} allocs/query");
    }
    let all: Vec<&Select> = by_arity.iter().flatten().collect();
    let before = allocations();
    for select in &all {
        std::hint::black_box(optimize_select(&db, select));
    }
    let per_call = (allocations() - before) as f64 / all.len() as f64;
    println!(
        "{:<48} {per_call:>28.2} allocs/call",
        format!("optimize_select ({} queries)", all.len())
    );
}

/// Cases the generate section records and observes per pass.
const STAGE_CASES: usize = 1024;

/// The oracles in campaign rotation.
const ORACLES: [OracleKind; 4] = [
    OracleKind::Tlp,
    OracleKind::NoRec,
    OracleKind::Rollback,
    OracleKind::Isolation,
];

/// Generates the `index`-th case of the rotation, falling back to a
/// query as the campaign does, and returns its features.
fn generate_case(generator: &mut AdaptiveGenerator, index: usize) -> FeatureSet {
    match ORACLES[index % ORACLES.len()] {
        OracleKind::Rollback => generator.generate_txn_session().map(|case| case.features),
        OracleKind::Isolation => generator.generate_schedule().map(|case| case.features),
        _ => None,
    }
    .or_else(|| generator.generate_query().map(|query| query.features))
    .expect("the seeded schema has a table")
}

/// Runs `pass` (which handles `cases` cases) for a fixed budget after one
/// warm-up pass, and prints nanoseconds and allocations per case.
fn per_case(name: &str, cases: usize, mut pass: impl FnMut()) {
    pass();
    let before = allocations();
    pass();
    let allocs = (allocations() - before) as f64 / cases as f64;
    let budget = Duration::from_millis(300);
    let start = Instant::now();
    let mut passes = 0u64;
    while start.elapsed() < budget {
        pass();
        passes += 1;
    }
    let nanos = start.elapsed().as_nanos() as f64 / (passes * cases as u64) as f64;
    println!("{name:<48} {nanos:>10.1} ns/case {allocs:>9.1} allocs/case");
}

fn generate_stage() {
    let (_, mut generator) = seeded_database();
    // Record every warm-up case so the depth schedule reaches its cap.
    let mut features = Vec::with_capacity(STAGE_CASES);
    for index in 0..STAGE_CASES {
        let case = generate_case(&mut generator, index);
        generator.record_outcome(&case, FeatureKind::Query, index % 4 != 0);
        features.push(case);
    }
    println!();
    let mut next = 0usize;
    let mut stage = generator.clone();
    per_case("generate/case (four oracles in rotation)", 64, || {
        for _ in 0..64 {
            std::hint::black_box(generate_case(&mut stage, next));
            next += 1;
        }
    });
    per_case("generate/record_outcome", STAGE_CASES, || {
        for (index, case) in features.iter().enumerate() {
            generator.record_outcome(case, FeatureKind::Query, index % 4 != 0);
        }
    });
    let verdicts = [TraceVerdict::Pass, TraceVerdict::Invalid, TraceVerdict::Bug];
    let mut atlas = CampaignCoverage::default();
    per_case("generate/observe_case", STAGE_CASES, || {
        atlas.begin_database();
        for (index, case) in features.iter().enumerate() {
            let (oracle, verdict) = (ORACLES[index % 4], verdicts[index % 3]);
            atlas.observe_case(oracle, verdict, case, index as u64);
        }
    });
}
