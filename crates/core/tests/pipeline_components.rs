//! Integration tests for the sqlancer-core pipeline components working
//! together against scripted mock DBMSs (no simulated engine needed).

use sql_ast::{Expr, Select, SelectItem, TableWithJoins, Value};
use sqlancer_core::{
    check_norec, check_tlp, profile_from_string, profile_to_string, AdaptiveGenerator,
    BugPrioritizer, DbmsConnection, Feature, FeatureKind, FeatureSet, GeneratorConfig, OracleKind,
    PriorityDecision, QueryResult, ReducibleCase, StatementOutcome,
};

/// A mock DBMS whose tables are always empty and that rejects a configurable
/// list of SQL substrings — enough to exercise generator learning, oracles
/// and reduction without the full engine.
struct RejectingDbms {
    rejected_tokens: Vec<&'static str>,
}

impl DbmsConnection for RejectingDbms {
    fn name(&self) -> &str {
        "rejecting-mock"
    }
    fn execute(&mut self, sql: &str) -> StatementOutcome {
        if self.rejected_tokens.iter().any(|t| sql.contains(t)) {
            StatementOutcome::Failure("unsupported feature".into())
        } else {
            StatementOutcome::Success
        }
    }
    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        if self.rejected_tokens.iter().any(|t| sql.contains(t)) {
            return Err("unsupported feature".into());
        }
        Ok(QueryResult {
            columns: vec!["c0".into()],
            rows: Vec::new(),
        })
    }
    fn reset(&mut self) {}
}

fn seeded_generator() -> AdaptiveGenerator {
    let mut config = GeneratorConfig::default();
    config.stats.query_threshold = 0.2;
    config.stats.min_attempts = 10;
    config.update_interval = 20;
    let mut generator = AdaptiveGenerator::new(123, config);
    generator.apply_success(
        &sql_parser::parse_statement("CREATE TABLE t0 (c0 INTEGER, c1 TEXT, c2 BOOLEAN)").unwrap(),
    );
    generator
}

#[test]
fn generator_oracle_loop_learns_rejected_functions() {
    // The DBMS rejects every statement containing a SIN call (the substring
    // also matches ASIN — collateral learning is acceptable and realistic).
    let mut dbms = RejectingDbms {
        rejected_tokens: vec!["SIN("],
    };
    let mut generator = seeded_generator();
    // 3000 test cases give the SIN feature comfortably more observations
    // than `min_attempts` under the workspace's deterministic RNG (function
    // calls only appear once the depth schedule opens up, so the feature is
    // rare early in the run).
    for _ in 0..3000 {
        let Some(query) = generator.generate_query() else {
            break;
        };
        let outcome = check_tlp(
            &mut dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        );
        generator.record_outcome(&query.features, FeatureKind::Query, outcome.is_valid());
    }
    generator.refresh_suppression();
    let suppressed: Vec<&str> = generator
        .suppressed_query_features()
        .iter()
        .map(|f| f.name())
        .collect();
    assert!(
        suppressed.contains(&"FN_SIN"),
        "suppressed = {suppressed:?}"
    );
    assert!(
        !suppressed.contains(&"FN_ABS"),
        "suppressed = {suppressed:?}"
    );
    assert!(
        !suppressed.contains(&"OP_EQ"),
        "suppressed = {suppressed:?}"
    );
}

#[test]
fn learned_profile_survives_persistence_and_keeps_decisions() {
    let mut dbms = RejectingDbms {
        rejected_tokens: vec!["<=>"],
    };
    let mut generator = seeded_generator();
    for _ in 0..800 {
        let Some(query) = generator.generate_query() else {
            break;
        };
        let outcome = check_norec(
            &mut dbms,
            &query.select,
            &query.predicate,
            &query.features,
            &[] as &[String],
        );
        generator.record_outcome(&query.features, FeatureKind::Query, outcome.is_valid());
    }
    let text = profile_to_string(&generator.stats);
    let restored = profile_from_string(&text).unwrap();
    let feature = Feature::new("OP_NULLSAFE_EQ");
    let config = generator.config().stats.clone();
    assert_eq!(
        restored.is_unsupported(&feature, FeatureKind::Query, &config),
        generator
            .stats
            .is_unsupported(&feature, FeatureKind::Query, &config),
        "persistence must preserve the unsupported decision"
    );
}

#[test]
fn prioritizer_and_oracles_compose_over_a_stream_of_reports() {
    // Simulate a stream of bug-inducing feature sets as a campaign would
    // produce and verify the dedup ratio grows with repeated root causes.
    let mut prioritizer = BugPrioritizer::new();
    let mut kept = 0;
    for i in 0..200 {
        let set: FeatureSet = [
            Feature::new("OP_NEQ"),
            Feature::new(format!("FN_{}", ["NULLIF", "COALESCE", "ABS"][i % 3])),
        ]
        .into_iter()
        .collect();
        if prioritizer.classify(&set) == PriorityDecision::New {
            kept += 1;
        }
    }
    assert_eq!(kept, 3, "three distinct root-cause signatures");
    assert_eq!(prioritizer.stats().seen, 200);
    assert_eq!(prioritizer.stats().deduplicated, 197);
}

#[test]
fn reducible_case_round_trips_through_sql_text() {
    // The setup + query of a reducible case must be valid SQL text that
    // parses back — bug reports are handed to humans as plain SQL.
    let predicate = Expr::column("c0").eq(Expr::integer(1));
    let case = ReducibleCase {
        setup: vec![
            "CREATE TABLE t0 (c0 INTEGER)".to_string(),
            "INSERT INTO t0 (c0) VALUES (1), (NULL)".to_string(),
        ],
        query: Select {
            projections: vec![SelectItem::expr(Expr::column("c0"))],
            from: vec![TableWithJoins::table("t0")],
            where_clause: Some(predicate.clone()),
            ..Select::new()
        },
        predicate,
        oracle: OracleKind::Tlp,
        features: FeatureSet::new(),
    };
    for sql in case
        .setup
        .iter()
        .chain(std::iter::once(&case.query.to_string()))
    {
        assert!(
            sql_parser::parse_statement(sql).is_ok(),
            "unparseable: {sql}"
        );
    }
    assert_eq!(
        case.query.where_clause.as_ref().map(|w| w.to_string()),
        Some("(c0 = 1)".to_string())
    );
    let _ = Value::Null;
}
