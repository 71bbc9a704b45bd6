//! The dialect gate rejects a statement for the first unsupported feature in
//! walk order.
//!
//! For every fleet preset, statements, queries and transactional sessions
//! from the core generator (feedback off, so every dialect sees features it
//! rejects) are gated two ways: by the profile's gate, and by a reference
//! that collects the statement's feature names and takes the first one the
//! preset's unsupported set holds. The two must agree on both entry points,
//! so the rejection message (`<dialect>: unsupported feature <name>`) that
//! the adaptive generator learns from is exactly the one the name list
//! dictates.

use dbms_sim::{collect_query_features, collect_statement_features, fleet, DialectProfile};
use sql_ast::Statement;
use sqlancer_core::{AdaptiveGenerator, GeneratorConfig};

fn reference(profile: &DialectProfile, features: Vec<String>) -> Option<String> {
    features
        .into_iter()
        .find(|feature| profile.unsupported().contains(feature))
}

/// Gates `stmt` both ways; returns whether it was rejected.
fn check_statement(profile: &DialectProfile, stmt: &Statement) -> bool {
    let expected = reference(profile, collect_statement_features(stmt));
    assert_eq!(
        profile.first_unsupported(stmt),
        expected,
        "{} on {stmt}",
        profile.name
    );
    expected.is_some()
}

#[test]
fn the_gate_rejects_the_first_unsupported_feature_in_walk_order() {
    let mut checked = 0usize;
    let mut rejected = 0usize;
    for preset in fleet() {
        let profile = &preset.profile;
        for seed in 1..=4 {
            let mut generator = AdaptiveGenerator::new(seed, GeneratorConfig::random_baseline());
            for _database in 0..3 {
                generator.reset_schema();
                for _ in 0..25 {
                    let stmt = generator.generate_ddl_statement().statement;
                    checked += 1;
                    if check_statement(profile, &stmt) {
                        rejected += 1;
                    } else {
                        generator.apply_success(&stmt);
                    }
                }
                for _ in 0..40 {
                    let Some(query) = generator.generate_query() else {
                        continue;
                    };
                    let expected = reference(profile, collect_query_features(&query.select));
                    assert_eq!(
                        profile.first_unsupported_select(&query.select),
                        expected,
                        "{} on {}",
                        profile.name,
                        query.select
                    );
                    let stmt = Statement::Select(Box::new(query.select));
                    assert_eq!(check_statement(profile, &stmt), expected.is_some());
                    checked += 1;
                    rejected += usize::from(expected.is_some());
                }
                if let Some(case) = generator.generate_txn_session() {
                    let control = [Statement::begin(), Statement::Commit, Statement::Rollback];
                    for stmt in case.statements.iter().chain(&control) {
                        checked += 1;
                        rejected += usize::from(check_statement(profile, stmt));
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "only {checked} statements gated");
    assert!(
        rejected * 20 > checked,
        "only {rejected} of {checked} statements rejected: the check is vacuous"
    );
}
