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
use sqlancerpp::core::json::{self, Json};
use sqlancerpp::core::{
    checkpoint_from_string, checkpoint_to_string, profile_to_string, regularized_incomplete_beta,
    silence_infra_panics, validate_jsonl, AdaptiveGenerator, BugPrioritizer, Campaign,
    CampaignConfig, Feature, FeatureKind, FeatureSet, GeneratorConfig, OracleKind,
    PriorityDecision, SupervisorConfig, TraceHandle, Tracer,
};
use sqlancerpp::engine::{Database, EngineConfig, Evaluator, ExecutionMode, Scope};
use sqlancerpp::parser::{parse_expression, parse_statement, parse_statements, tokenize};
use sqlancerpp::sim::{preset_by_name, ExecutionPath, FaultyConfig};
use std::cell::RefCell;
use std::collections::BTreeSet;
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
        let feature = |index: usize| Feature::all().nth(index).unwrap();
        let base: FeatureSet = (0..n).map(|_| feature(rng.gen_range(0..6))).collect();
        let mut superset = base.clone();
        superset.insert(feature(rng.gen_range(6..11)));
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

/// The bitset `FeatureSet` behaves as a set of names: on random sets over
/// the whole vocabulary, insert, extend, subset, equality, iteration order
/// and `Display` agree with a `BTreeSet<String>` reference.
#[test]
fn feature_set_matches_a_name_set_reference() {
    let mut rng = StdRng::seed_from_u64(0xfea7);
    let vocabulary: Vec<Feature> = Feature::all().collect();
    let arb_set = |rng: &mut StdRng| {
        // Small pools make overlaps, subsets and equal sets common.
        let pool = rng.gen_range(1..=vocabulary.len());
        let mut set = FeatureSet::new();
        let mut names = BTreeSet::new();
        for _ in 0..rng.gen_range(0..12usize) {
            let feature = vocabulary[rng.gen_range(0..pool.min(16))];
            set.insert(feature);
            names.insert(feature.name().to_string());
        }
        (set, names)
    };
    for _ in 0..2000 {
        let (mut a, mut a_names) = arb_set(&mut rng);
        let (b, b_names) = arb_set(&mut rng);
        let names = |set: &FeatureSet| set.iter().map(|f| f.name().to_string()).collect::<Vec<_>>();
        assert_eq!(names(&a), a_names.iter().cloned().collect::<Vec<_>>());
        assert_eq!(a.len(), a_names.len());
        assert_eq!(a.is_empty(), a_names.is_empty());
        assert_eq!(a == b, a_names == b_names);
        assert_eq!(a.is_subset_of(&b), a_names.is_subset(&b_names));
        let display = format!(
            "{{{}}}",
            a_names.iter().cloned().collect::<Vec<_>>().join(", ")
        );
        assert_eq!(a.to_string(), display);
        for feature in &vocabulary[..16] {
            assert_eq!(a.contains(*feature), a_names.contains(feature.name()));
        }
        a.extend(&b);
        a_names.extend(b_names.iter().cloned());
        assert_eq!(names(&a), a_names.iter().cloned().collect::<Vec<_>>());
        assert!(b.is_subset_of(&a));
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
fn real_checkpoint_and_jsonl(tag: &str) -> (String, String) {
    silence_infra_panics();
    let dir = std::env::temp_dir().join(format!("sqlancerpp-{tag}-{}", std::process::id()));
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
    let (checkpoint, jsonl) = real_checkpoint_and_jsonl("mutation");
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

/// Adds every feature-shaped name in `json` to `out`: strings and object
/// keys, outside the engine coverage planes (whose points are not
/// features).
fn collect_feature_names(json: &Json, out: &mut BTreeSet<String>) {
    const PREFIXES: [&str; 9] = [
        "STMT_", "TYPE_", "JOIN_", "OP_", "FN_", "AGG_", "KW_", "CLAUSE_", "PROP_",
    ];
    let feature_shaped = |s: &str| {
        PREFIXES.iter().any(|prefix| s.starts_with(prefix))
            && s.bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
    };
    match json {
        Json::Str(s) if feature_shaped(s) => {
            out.insert(s.clone());
        }
        Json::Arr(items) => items
            .iter()
            .for_each(|item| collect_feature_names(item, out)),
        Json::Obj(fields) => {
            for (key, value) in fields.iter().filter(|(key, _)| key != "engine") {
                if feature_shaped(key) {
                    out.insert(key.clone());
                }
                collect_feature_names(value, out);
            }
        }
        _ => {}
    }
}

/// Every feature name on the wire resolves in the vocabulary — the names a
/// real checkpoint carries (learned counts, suppression tables, kept sets,
/// bug reports, the atlas) and its learned profile — and every feature the
/// generator records, in every mode, is a vocabulary id whose name resolves
/// back to it. The four expression forms the generator does not record
/// stay unrecorded.
#[test]
fn feature_names_on_the_wire_and_from_the_generator_resolve() {
    let (checkpoint, _) = real_checkpoint_and_jsonl("vocabulary");
    let loaded = checkpoint_from_string(&checkpoint).expect("the real checkpoint loads");
    let profile = profile_to_string(&loaded.stats);
    let mut names = BTreeSet::new();
    for line in checkpoint.lines().chain(profile.lines()) {
        collect_feature_names(&json::parse(line).unwrap(), &mut names);
    }
    assert!(names.len() > 40, "only {} names: {names:?}", names.len());
    for name in &names {
        assert!(
            Feature::from_name(name).is_some(),
            "{name} does not resolve"
        );
    }

    let unrecorded = ["OP_IN", "OP_BETWEEN", "OP_LIKE", "OP_IS_NULL"]
        .map(|name| Feature::from_name(name).unwrap());
    for seed in 0..8u64 {
        let generators = [
            AdaptiveGenerator::new(seed, GeneratorConfig::default()),
            AdaptiveGenerator::new(seed, GeneratorConfig::random_baseline()),
            AdaptiveGenerator::with_knowledge(
                seed,
                GeneratorConfig::default(),
                FeatureSet::universe(),
            ),
        ];
        for mut generator in generators {
            let mut recorded = Vec::new();
            for _ in 0..20 {
                let stmt = generator.generate_ddl_statement();
                generator.apply_success(&stmt.statement);
                recorded.push(stmt.features);
            }
            for _ in 0..30 {
                if let Some(query) = generator.generate_query() {
                    generator.record_outcome(&query.features, FeatureKind::Query, true);
                    recorded.push(query.features);
                }
                if let Some(case) = generator.generate_txn_session() {
                    recorded.push(case.features);
                }
                if let Some(case) = generator.generate_schedule() {
                    recorded.push(case.features);
                }
            }
            for features in &recorded {
                for feature in features.iter() {
                    assert_eq!(Feature::from_name(feature.name()), Some(feature));
                }
                assert!(
                    unrecorded.iter().all(|f| !features.contains(*f)),
                    "{features}"
                );
            }
        }
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
