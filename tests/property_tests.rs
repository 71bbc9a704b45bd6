//! Randomized property tests over the whole stack: SQL rendering/parsing
//! round-trips, three-valued-logic invariants, optimizer semantics
//! preservation, result-fingerprint equivalence, prioritizer
//! monotonicity, and robustness of the owned decoders against mutated
//! checkpoints and flight-recorder JSONL, and of the SQL lexer/parser
//! against mutated generator SQL.
//!
//! The offline build environment has no `proptest`, so these tests drive the
//! same properties with a seeded RNG and explicit case loops: every run
//! checks the same deterministic case set, and a failing case prints enough
//! context to be replayed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlancerpp::ast::{row_fingerprint, BinaryOp, Expr, TruthValue, Value};
use sqlancerpp::core::{
    checkpoint_from_string, checkpoint_to_string, regularized_incomplete_beta,
    silence_infra_panics, validate_jsonl, AdaptiveGenerator, BugPrioritizer, Campaign,
    CampaignConfig, Feature, FeatureSet, GeneratorConfig, OracleKind, PriorityDecision,
    SupervisorConfig, TraceHandle, Tracer,
};
use sqlancerpp::engine::{Database, EngineConfig, Evaluator, ExecutionMode, Scope};
use sqlancerpp::parser::{parse_expression, parse_statement, parse_statements, tokenize};
use sqlancerpp::sim::{preset_by_name, ExecutionPath, FaultyConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u8) {
        0 => Value::Null,
        1 => Value::Integer(rng.gen_range(-1000i64..1000)),
        2 => Value::Boolean(rng.gen_bool(0.5)),
        3 => {
            let len = rng.gen_range(0..=6usize);
            let alphabet: Vec<char> = ('a'..='z')
                .chain('A'..='Z')
                .chain('0'..='9')
                .chain([' '])
                .collect();
            Value::Text(
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect(),
            )
        }
        _ => {
            // Mix integral and fractional reals so fingerprint normalisation
            // (1 vs 1.0) is exercised often.
            if rng.gen_bool(0.4) {
                Value::Real(rng.gen_range(-1000i64..1000) as f64)
            } else {
                Value::Real(rng.gen_range(-1000.0f64..1000.0))
            }
        }
    }
}

fn arb_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return Expr::Literal(arb_value(rng));
    }
    match rng.gen_range(0..7u8) {
        0 => arb_expr(rng, depth - 1).binary(BinaryOp::Add, arb_expr(rng, depth - 1)),
        1 => arb_expr(rng, depth - 1).binary(BinaryOp::Eq, arb_expr(rng, depth - 1)),
        2 => arb_expr(rng, depth - 1).and(arb_expr(rng, depth - 1)),
        3 => arb_expr(rng, depth - 1).or(arb_expr(rng, depth - 1)),
        4 => arb_expr(rng, depth - 1).not(),
        5 => arb_expr(rng, depth - 1).is_null(),
        _ => Expr::Between {
            expr: Box::new(arb_expr(rng, depth - 1)),
            low: Box::new(arb_expr(rng, depth - 1)),
            high: Box::new(arb_expr(rng, depth - 1)),
            negated: false,
        },
    }
}

/// Every expression the AST can express renders to SQL that the parser
/// accepts and that renders back to the same text (idempotent round-trip).
#[test]
fn expression_rendering_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xA57);
    for case in 0..256 {
        let expr = arb_expr(&mut rng, 3);
        let sql = expr.to_string();
        let reparsed = parse_expression(&sql)
            .unwrap_or_else(|e| panic!("case {case}: rendered SQL must parse: {sql} ({e})"));
        assert_eq!(reparsed.to_string(), sql, "case {case}");
    }
}

/// Three-valued logic: double negation is the identity, AND/OR are
/// commutative, and De Morgan's law holds.
#[test]
fn three_valued_logic_invariants() {
    let truths = [TruthValue::True, TruthValue::False, TruthValue::Unknown];
    for a in truths {
        for b in truths {
            assert_eq!(a.not().not(), a);
            assert_eq!(a.and(b), b.and(a));
            assert_eq!(a.or(b), b.or(a));
            assert_eq!(a.and(b).not(), a.not().or(b.not()));
        }
    }
}

/// Constant predicates keep their truth value across the optimizer's
/// predicate rewrites on a fault-free engine (the NoREC soundness property
/// at expression granularity). The rewriter is only ever applied in
/// predicate positions, so truth-value equivalence — not value equality —
/// is the preserved property.
#[test]
fn optimizer_is_semantics_preserving_without_faults() {
    let mut rng = StdRng::seed_from_u64(0x0B7);
    let db = Database::new(EngineConfig::dynamic());
    let evaluator = Evaluator::new(&db, ExecutionMode::Reference);
    let optimized_eval = Evaluator::new(&db, ExecutionMode::Optimized);
    for case in 0..256 {
        let expr = arb_expr(&mut rng, 3);
        let reference = evaluator.eval(&expr, &Scope::EMPTY);
        let rewritten = sqlancerpp::engine::rewrite_predicate(&db, expr.clone());
        let optimized = optimized_eval.eval(&rewritten, &Scope::EMPTY);
        match (reference, optimized) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    evaluator.truthiness(&a).unwrap(),
                    optimized_eval.truthiness(&b).unwrap(),
                    "case {case}: {expr}"
                );
            }
            (Err(_), _) | (_, Err(_)) => {
                // Domain errors (e.g. ASIN out of range) may be hit by one
                // side only when folding reorders evaluation; both sides
                // failing or one failing is acceptable, silent wrong values
                // are not.
            }
        }
    }
}

/// The hashed 128-bit row fingerprint agrees with the legacy string-based
/// `dedup_key` fingerprint on equality *and* inequality across randomized
/// rows — including the `1` vs `1.0` vs `true` normalisation the oracles
/// rely on.
#[test]
fn hashed_fingerprint_agrees_with_legacy_dedup_key() {
    let mut rng = StdRng::seed_from_u64(0xF1B);
    let legacy = |row: &[Value]| -> String {
        row.iter()
            .map(Value::dedup_key)
            .collect::<Vec<_>>()
            .join("\u{1}")
    };
    let mut equal_pairs = 0usize;
    for case in 0..4096 {
        let len = rng.gen_range(1..=3usize);
        let row_a: Vec<Value> = (0..len).map(|_| arb_value(&mut rng)).collect();
        // Half the time derive row_b from row_a (often equal under
        // normalisation), otherwise draw it independently.
        let row_b: Vec<Value> = if rng.gen_bool(0.5) {
            row_a
                .iter()
                .map(|v| match v {
                    // Swap equivalent representations to stress normalisation.
                    Value::Integer(i) if rng.gen_bool(0.5) => Value::Real(*i as f64),
                    Value::Boolean(b) if rng.gen_bool(0.5) => Value::Integer(i64::from(*b)),
                    other => other.clone(),
                })
                .collect()
        } else {
            (0..len).map(|_| arb_value(&mut rng)).collect()
        };
        let legacy_equal = legacy(&row_a) == legacy(&row_b);
        let hashed_equal = row_fingerprint(&row_a) == row_fingerprint(&row_b);
        assert_eq!(
            legacy_equal, hashed_equal,
            "case {case}: fingerprint disagreement on {row_a:?} vs {row_b:?}"
        );
        if legacy_equal {
            equal_pairs += 1;
        }
    }
    // Sanity: the generator actually produced a healthy mix of equal and
    // unequal rows, otherwise the property is vacuous.
    assert!(equal_pairs > 100, "too few equal pairs: {equal_pairs}");
}

/// Explicit normalisation cases: `1`, `1.0` and `true` fingerprint
/// identically; `1.5`, `'1'` and `NULL` do not.
#[test]
fn fingerprint_normalises_integral_reals_and_booleans() {
    let one = row_fingerprint(&[Value::Integer(1)]);
    assert_eq!(row_fingerprint(&[Value::Real(1.0)]), one);
    assert_eq!(row_fingerprint(&[Value::Boolean(true)]), one);
    assert_ne!(row_fingerprint(&[Value::Real(1.5)]), one);
    assert_ne!(row_fingerprint(&[Value::Text("1".into())]), one);
    assert_ne!(row_fingerprint(&[Value::Null]), one);
    assert_eq!(
        row_fingerprint(&[Value::Real(f64::NAN)]),
        row_fingerprint(&[Value::Real(-f64::NAN)]),
        "all NaNs fingerprint identically, as in the legacy key"
    );
}

/// The regularised incomplete beta function is a CDF: bounded by [0, 1] and
/// monotone in x.
#[test]
fn incomplete_beta_is_a_cdf() {
    let mut rng = StdRng::seed_from_u64(0xBE7A);
    for _ in 0..256 {
        let x = rng.gen_range(0.0f64..1.0);
        let y = rng.gen_range(0.0f64..1.0);
        let a = rng.gen_range(1.0f64..50.0);
        let b = rng.gen_range(1.0f64..50.0);
        let lo = x.min(y);
        let hi = x.max(y);
        let f_lo = regularized_incomplete_beta(lo, a, b);
        let f_hi = regularized_incomplete_beta(hi, a, b);
        assert!((0.0..=1.0 + 1e-9).contains(&f_lo));
        assert!(f_lo <= f_hi + 1e-9);
    }
}

/// Prioritizer invariant: a feature set identical to an already-kept one is
/// always classified as a duplicate, and adding features to a kept set never
/// makes it "new".
#[test]
fn prioritizer_subset_rule_is_monotone() {
    let mut rng = StdRng::seed_from_u64(0x9817);
    for _ in 0..128 {
        let n = rng.gen_range(1..6usize);
        let base: FeatureSet = (0..n)
            .map(|_| {
                let c = (b'A' + rng.gen_range(0..6u8)) as char;
                Feature::new(c.to_string())
            })
            .collect();
        let extra = (b'G' + rng.gen_range(0..5u8)) as char;
        let mut superset = base.clone();
        superset.insert(Feature::new(extra.to_string()));
        let mut prioritizer = BugPrioritizer::new();
        assert_eq!(prioritizer.classify(&base), PriorityDecision::New);
        assert_eq!(
            prioritizer.classify(&base),
            PriorityDecision::PotentialDuplicate
        );
        assert_eq!(
            prioritizer.classify(&superset),
            PriorityDecision::PotentialDuplicate
        );
    }
}

/// Every statement the adaptive generator emits is parseable SQL — the
/// platform never sends garbage to the DBMS under test.
#[test]
fn generated_statements_always_parse() {
    for seed in 0..64u64 {
        let mut generator = AdaptiveGenerator::new(seed, GeneratorConfig::default());
        for _ in 0..6 {
            let stmt = generator.generate_ddl_statement();
            let sql = stmt.statement.to_string();
            assert!(parse_statement(&sql).is_ok(), "unparseable: {sql}");
            generator.apply_success(&stmt.statement);
        }
        for _ in 0..6 {
            if let Some(query) = generator.generate_query() {
                let sql = query.select.to_string();
                assert!(parse_statement(&sql).is_ok(), "unparseable: {sql}");
            }
        }
    }
}

/// The render → parse round-trip reaches a fixpoint after one iteration for
/// generated queries: the first parse may normalise (e.g. `(- 7)` folds into
/// the literal `-7`), but from then on render and parse are exact inverses.
/// Together with the execution parity suite this is what makes the text
/// path and the AST fast path interchangeable on the simulated fleet.
#[test]
fn generated_queries_round_trip_to_a_fixpoint() {
    for seed in 0..32u64 {
        let mut generator = AdaptiveGenerator::new(seed, GeneratorConfig::default());
        for _ in 0..8 {
            let stmt = generator.generate_ddl_statement();
            generator.apply_success(&stmt.statement);
        }
        for _ in 0..8 {
            if let Some(query) = generator.generate_query() {
                let sql = query.select.to_string();
                let normalized = parse_statement(&sql)
                    .expect("generated SQL parses")
                    .to_string();
                let reparsed = parse_statement(&normalized)
                    .expect("normalised SQL parses")
                    .to_string();
                assert_eq!(
                    reparsed, normalized,
                    "round-trip not a fixpoint for seed {seed}: {sql}"
                );
            }
        }
    }
}

/// A real checkpoint and flight-recorder JSONL document, from a traced
/// fault-storm campaign that checkpoints every 10 cases.
fn real_checkpoint_and_jsonl() -> (String, String) {
    silence_infra_panics();
    let dir = std::env::temp_dir().join(format!("sqlancerpp-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (checkpoint, jsonl) = (dir.join("campaign.ckpt"), dir.join("recorder.jsonl"));
    let tracer = Rc::new(RefCell::new(
        Tracer::new()
            .with_flight_recorder(8)
            .with_jsonl_path(jsonl.clone()),
    ));
    let handle: TraceHandle = tracer.clone();
    let preset = preset_by_name("sqlite")
        .unwrap()
        .with_infra_faults(FaultyConfig::storm());
    let config = CampaignConfig::builder()
        .seed(0xC0DEC)
        .databases(2)
        .queries_per_database(40)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .build();
    let mut campaign = Campaign::new(config);
    campaign.set_trace(Some(handle));
    let supervision = SupervisorConfig {
        checkpoint_every: 10,
        checkpoint_path: Some(checkpoint.clone()),
        ..SupervisorConfig::default()
    };
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    campaign.run_supervised(&mut *conn, &supervision);
    let texts = (
        std::fs::read_to_string(&checkpoint).unwrap(),
        std::fs::read_to_string(&jsonl).unwrap(),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    texts
}

/// One seeded mutation: truncate, flip one bit, or insert one byte.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..3u8) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        _ => bytes.insert(at, rng.gen_range(0..=255u8)),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The owned decoders never panic on damaged input, and a damaged
/// checkpoint never loads as anything but the original: every decode that
/// succeeds re-encodes to the exact original text.
#[test]
fn owned_decoders_survive_seeded_mutation() {
    let (checkpoint, jsonl) = real_checkpoint_and_jsonl();
    let loaded = checkpoint_from_string(&checkpoint).expect("the real checkpoint loads");
    assert_eq!(checkpoint_to_string(&loaded), checkpoint);
    assert!(validate_jsonl(&jsonl).expect("the real JSONL validates") > 2);
    let mut rng = StdRng::seed_from_u64(0xBADB17);
    for round in 0..1_500 {
        let damaged = mutate(&mut rng, &checkpoint);
        if let Ok(decoded) = checkpoint_from_string(&damaged) {
            assert_eq!(
                checkpoint_to_string(&decoded),
                checkpoint,
                "mutation {round} loaded as a different checkpoint"
            );
        }
        let _ = validate_jsonl(&mutate(&mut rng, &jsonl));
    }
}

/// Renderings of generator DDL and queries: the SQL the text path feeds the
/// lexer and parser.
fn rendered_generator_sql() -> Vec<String> {
    let mut rendered = Vec::new();
    for seed in 0..40u64 {
        let mut generator = AdaptiveGenerator::new(seed, GeneratorConfig::default());
        for _ in 0..15 {
            let stmt = generator.generate_ddl_statement();
            rendered.push(stmt.statement.to_string());
            generator.apply_success(&stmt.statement);
        }
        for _ in 0..15 {
            if let Some(query) = generator.generate_query() {
                rendered.push(query.select.to_string());
            }
        }
    }
    rendered
}

/// The lexer and parser never panic on damaged SQL: truncations, bit flips
/// and stray bytes in real generator output come back as tokens, a
/// statement or a `ParseError`. The undamaged renderings parse back to
/// exactly the text they came from.
#[test]
fn sql_lexer_and_parser_survive_seeded_mutation() {
    let rendered = rendered_generator_sql();
    assert!(rendered.len() > 1_000, "only {} statements", rendered.len());
    let mut rng = StdRng::seed_from_u64(0x5E9A_A7E5);
    for sql in &rendered {
        let parsed = parse_statements(sql).expect("generated SQL parses");
        let reparsed: Vec<String> = parsed.iter().map(ToString::to_string).collect();
        assert_eq!(reparsed, [sql.as_str()], "round trip changed the text");
        for _ in 0..160 {
            let damaged = mutate(&mut rng, sql);
            let _ = tokenize(&damaged);
            let _ = parse_statements(&damaged);
        }
    }
}
