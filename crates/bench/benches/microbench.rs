//! Micro-benchmarks for the SQLancer++ core components: statement
//! generation throughput, Bayesian feedback updates, oracle checking against
//! a simulated dialect (text path vs AST fast path), and bug prioritization.
//!
//! The offline build has no `criterion`, so this is a self-contained harness
//! (`harness = false`): each benchmark warms up, then reports the mean
//! nanoseconds per iteration over a fixed wall-clock budget.

use dbms_sim::preset_by_name;
use sqlancer_core::{
    check_tlp, AdaptiveGenerator, BugPrioritizer, DbmsConnection, Feature, FeatureKind, FeatureSet,
    FeatureStats, GeneratorConfig, StatsConfig, TextOnlyConnection,
};
use std::time::{Duration, Instant};

/// Runs `f` repeatedly for ~200 ms after a short warm-up and prints the mean
/// time per iteration.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..10 {
        f();
    }
    let budget = Duration::from_millis(200);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        for _ in 0..16 {
            f();
        }
        iters += 16;
    }
    let nanos = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<40} {nanos:>12.0} ns/iter ({iters} iters)");
}

fn generator_with_schema() -> AdaptiveGenerator {
    let mut generator = AdaptiveGenerator::new(7, GeneratorConfig::default());
    for sql in [
        "CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT, c2 BOOLEAN)",
        "CREATE TABLE t1 (c0 INTEGER, c3 INTEGER)",
    ] {
        generator.apply_success(&sql_parser::parse_statement(sql).unwrap());
    }
    generator
}

fn bench_generation() {
    let mut generator = generator_with_schema();
    bench("generation/generate_query", || {
        std::hint::black_box(generator.generate_query());
    });
    let mut generator = generator_with_schema();
    bench("generation/generate_ddl", || {
        std::hint::black_box(generator.generate_ddl_statement());
    });
}

fn bench_feedback() {
    let features: FeatureSet = ["OP_EQ", "FN_SIN", "JOIN_LEFT", "CLAUSE_WHERE"]
        .iter()
        .map(|n| Feature::new(*n))
        .collect();
    let mut stats = FeatureStats::new();
    let config = StatsConfig::default();
    bench("feedback/record_and_query_posterior", || {
        stats.record(&features, FeatureKind::Query, true);
        std::hint::black_box(stats.is_unsupported(
            &Feature::new("FN_SIN"),
            FeatureKind::Query,
            &config,
        ));
    });
}

fn bench_oracle() {
    let mut dbms = preset_by_name("sqlite").unwrap().instantiate();
    dbms.execute("CREATE TABLE t0 (c0 INTEGER, c1 TEXT)");
    dbms.execute("INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (2, 'b'), (NULL, 'c')");
    let mut generator = generator_with_schema();
    let query = generator.generate_query().unwrap();
    bench("oracle/tlp_check_ast_path", || {
        std::hint::black_box(check_tlp(
            &mut dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        ));
    });
    let mut text_dbms = TextOnlyConnection::new(preset_by_name("sqlite").unwrap().instantiate());
    text_dbms.execute("CREATE TABLE t0 (c0 INTEGER, c1 TEXT)");
    text_dbms.execute("INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (2, 'b'), (NULL, 'c')");
    bench("oracle/tlp_check_text_path", || {
        std::hint::black_box(check_tlp(
            &mut text_dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        ));
    });
}

fn bench_prioritizer() {
    let sets: Vec<FeatureSet> = (0..200)
        .map(|i| {
            [
                format!("F{}", i % 17),
                format!("G{}", i % 5),
                "OP_EQ".to_string(),
            ]
            .iter()
            .map(|n| Feature::new(n.clone()))
            .collect()
        })
        .collect();
    bench("prioritizer/classify_200_cases", || {
        let mut prioritizer = BugPrioritizer::new();
        for set in &sets {
            std::hint::black_box(prioritizer.classify(set));
        }
    });
}

fn main() {
    bench_generation();
    bench_feedback();
    bench_oracle();
    bench_prioritizer();
}
