//! Watch the adaptive generator learn a dialect's supported features.
//!
//! The example runs the generator against the strictly-typed, index-less
//! `cratedb` dialect and prints which features the Bayesian feedback
//! mechanism marks as unsupported over time, together with the validity
//! rate — the behaviour behind Table 4 and Section 5.4 of the paper.
//!
//! ```bash
//! cargo run --example adaptive_learning
//! ```

use sqlancerpp::core::{
    check_tlp, AdaptiveGenerator, DbmsConnection, FeatureKind, GeneratorConfig,
};
use sqlancerpp::sim::preset_by_name;

fn main() {
    let preset = preset_by_name("cratedb").expect("cratedb preset exists");
    let mut dbms = preset.instantiate();

    let mut config = GeneratorConfig::default();
    config.stats.query_threshold = 0.05;
    config.stats.min_attempts = 30;
    config.update_interval = 50;
    let mut generator = AdaptiveGenerator::new(7, config);

    // Build a database state, learning from DDL feedback along the way.
    for _ in 0..16 {
        let stmt = generator.generate_ddl_statement();
        let sql = stmt.statement.to_string();
        let ok = dbms.execute(&sql).is_success();
        if ok {
            generator.apply_success(&stmt.statement);
        }
        generator.record_outcome(&stmt.features, FeatureKind::DdlDml, ok);
    }

    // Issue oracle-checked queries in batches and report progress.
    let mut attempted = 0u64;
    let mut valid = 0u64;
    for batch in 1..=8 {
        for _ in 0..100 {
            let Some(query) = generator.generate_query() else {
                break;
            };
            let outcome = check_tlp(&mut dbms, &query.select, &query.predicate, &query.features);
            attempted += 1;
            if outcome.is_valid() {
                valid += 1;
            }
            generator.record_outcome(&query.features, FeatureKind::Query, outcome.is_valid());
        }
        generator.refresh_suppression();
        let suppressed: Vec<String> = generator
            .suppressed_query_features()
            .iter()
            .map(|f| f.name().to_string())
            .collect();
        println!(
            "after {:4} test cases: validity {:.1}%, {} features marked unsupported",
            attempted,
            100.0 * valid as f64 / attempted as f64,
            suppressed.len()
        );
        if batch == 8 {
            println!(
                "\nfeatures the generator learned to avoid on `{}`:",
                dbms.name()
            );
            for name in suppressed {
                println!("  - {name}");
            }
        }
    }
}
