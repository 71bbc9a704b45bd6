//! Compiled↔tree-walker differential property suite.
//!
//! The closure-compiled expression evaluator must be observationally
//! identical to the tree-walking reference evaluator: same values, same
//! errors (kind *and* message), and the same final coverage sets —
//! otherwise the compiled fast path would change test semantics, not just
//! speed, and the paper's metamorphic-oracle guarantees would silently
//! rot. This suite drives randomized expressions over randomized rows
//! through both evaluators under every typing discipline, execution mode
//! and a battery of injected evaluation faults, asserting value-for-value
//! and error-for-error equivalence.
//!
//! The offline build environment has no `proptest`, so the tests use a
//! seeded RNG and explicit case loops (same convention as
//! `property_tests.rs`): every run checks the same deterministic case set.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlancerpp::ast::{
    row_fingerprint, BinaryOp, CaseBranch, DataType, Expr, ScalarFunction, Value,
};
use sqlancerpp::engine::{
    compile_expr, Database, EngineConfig, Evaluator, ExecutionMode, Fault, RelationBinding, Scope,
};

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u8) {
        0 => Value::Null,
        1 => Value::Integer(rng.gen_range(-100i64..100)),
        2 => Value::Boolean(rng.gen_bool(0.5)),
        3 => {
            let len = rng.gen_range(0..=5usize);
            let alphabet = ['a', 'b', 'A', '%', '_', '1', ' '];
            Value::Text(
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect(),
            )
        }
        _ => {
            if rng.gen_bool(0.4) {
                Value::Real(rng.gen_range(-100i64..100) as f64)
            } else {
                Value::Real(rng.gen_range(-100.0f64..100.0))
            }
        }
    }
}

/// A column leaf: usually resolvable, occasionally qualified, occasionally
/// unknown (so constant-error plans are exercised too).
fn arb_column(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..8u8) {
        0 => Expr::qualified_column("t0", "c1"),
        1 => Expr::column("missing"),
        2 => Expr::qualified_column("t9", "c0"),
        n => Expr::column(format!("c{}", n % 3)),
    }
}

fn arb_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return if rng.gen_bool(0.5) {
            Expr::Literal(arb_value(rng))
        } else {
            arb_column(rng)
        };
    }
    match rng.gen_range(0..13u8) {
        0 => {
            let op = [
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::Mod,
                BinaryOp::Concat,
                BinaryOp::BitAnd,
                BinaryOp::ShiftLeft,
            ][rng.gen_range(0..8usize)];
            arb_expr(rng, depth - 1).binary(op, arb_expr(rng, depth - 1))
        }
        1 => {
            let op = [
                BinaryOp::Eq,
                BinaryOp::Neq,
                BinaryOp::Lt,
                BinaryOp::Le,
                BinaryOp::Gt,
                BinaryOp::Ge,
                BinaryOp::NullSafeEq,
                BinaryOp::IsDistinctFrom,
            ][rng.gen_range(0..8usize)];
            arb_expr(rng, depth - 1).binary(op, arb_expr(rng, depth - 1))
        }
        2 => arb_expr(rng, depth - 1).and(arb_expr(rng, depth - 1)),
        3 => arb_expr(rng, depth - 1).or(arb_expr(rng, depth - 1)),
        4 => arb_expr(rng, depth - 1).not(),
        5 => arb_expr(rng, depth - 1).is_null(),
        6 => Expr::IsBool {
            expr: Box::new(arb_expr(rng, depth - 1)),
            target: rng.gen_bool(0.5),
            negated: rng.gen_bool(0.5),
        },
        7 => {
            let func = [
                ScalarFunction::Abs,
                ScalarFunction::Upper,
                ScalarFunction::Length,
                ScalarFunction::Coalesce,
                ScalarFunction::Nullif,
                ScalarFunction::Sqrt,
                ScalarFunction::Substr,
                ScalarFunction::Replace,
            ][rng.gen_range(0..8usize)];
            let arity = rng.gen_range(func.min_args()..=func.max_args().min(3));
            Expr::Function {
                func,
                args: (0..arity).map(|_| arb_expr(rng, depth - 1)).collect(),
            }
        }
        8 => Expr::Cast {
            expr: Box::new(arb_expr(rng, depth - 1)),
            data_type: [
                DataType::Integer,
                DataType::Real,
                DataType::Text,
                DataType::Boolean,
            ][rng.gen_range(0..4usize)],
        },
        9 => Expr::Between {
            expr: Box::new(arb_expr(rng, depth - 1)),
            low: Box::new(arb_expr(rng, depth - 1)),
            high: Box::new(arb_expr(rng, depth - 1)),
            negated: rng.gen_bool(0.5),
        },
        10 => Expr::InList {
            expr: Box::new(arb_expr(rng, depth - 1)),
            list: (0..rng.gen_range(1..=3usize))
                .map(|_| arb_expr(rng, depth - 1))
                .collect(),
            negated: rng.gen_bool(0.5),
        },
        11 => Expr::Like {
            expr: Box::new(arb_expr(rng, depth - 1)),
            pattern: Box::new(arb_expr(rng, depth - 1)),
            negated: rng.gen_bool(0.5),
        },
        _ => Expr::Case {
            operand: rng
                .gen_bool(0.5)
                .then(|| Box::new(arb_expr(rng, depth - 1))),
            branches: (0..rng.gen_range(1..=2usize))
                .map(|_| CaseBranch {
                    when: arb_expr(rng, depth - 1),
                    then: arb_expr(rng, depth - 1),
                })
                .collect(),
            else_expr: rng
                .gen_bool(0.5)
                .then(|| Box::new(arb_expr(rng, depth - 1))),
        },
    }
}

/// Two values agree when they are equal, or indistinguishable under the
/// oracle's row identity with the same storage class (covers NaN, which is
/// never `==` itself but must fingerprint identically on both paths).
fn values_agree(a: &Value, b: &Value) -> bool {
    a == b
        || (a.data_type() == b.data_type()
            && row_fingerprint(std::slice::from_ref(a)) == row_fingerprint(std::slice::from_ref(b)))
}

fn bindings() -> Vec<RelationBinding> {
    vec![
        RelationBinding::new(
            "t0",
            vec!["c0".to_string(), "c1".to_string(), "c2".to_string()],
        ),
        // A second relation that shares `c1`, so unqualified `c1` is
        // ambiguous — the compiled path must bake in the identical error.
        RelationBinding::new("t1", vec!["c1".to_string()]),
    ]
}

/// Drives `cases` random expressions over `rows_per_case` random rows
/// through both evaluators on separate databases with identical
/// configuration, asserting identical values, identical errors and —
/// because coverage is recorded on actual evaluation on both paths —
/// identical final coverage sets.
fn run_differential(seed: u64, config: &EngineConfig, mode: ExecutionMode, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree_db = Database::new(config.clone());
    let compiled_db = Database::new(config.clone());
    let bindings = bindings();
    for case in 0..cases {
        let expr = arb_expr(&mut rng, 3);
        let compiled = compile_expr(&compiled_db, mode, &bindings, &expr);
        for _ in 0..4 {
            let row: Vec<Value> = (0..4).map(|_| arb_value(&mut rng)).collect();
            let scope = Scope::new(&bindings, &row);
            // Fresh evaluators per row, as the engine's sites do per
            // statement; both paths share the per-evaluator coercion gate
            // behaviour through `Evaluator` itself.
            let tree_ev = Evaluator::new(&tree_db, mode);
            let compiled_ev = Evaluator::new(&compiled_db, mode);
            let tree = tree_ev.eval(&expr, &scope);
            let fast = compiled.eval(&compiled_ev, &scope);
            match (&tree, &fast) {
                (Ok(a), Ok(b)) => assert!(
                    values_agree(a, b),
                    "case {case}: value divergence on {expr}\n  row: {row:?}\n  tree: {a:?}\n  compiled: {b:?}"
                ),
                (Err(a), Err(b)) => assert_eq!(
                    a, b,
                    "case {case}: error divergence on {expr} (row {row:?})"
                ),
                _ => panic!(
                    "case {case}: outcome divergence on {expr}\n  row: {row:?}\n  tree: {tree:?}\n  compiled: {fast:?}"
                ),
            }
        }
    }
    assert_eq!(
        tree_db.coverage_snapshot(),
        compiled_db.coverage_snapshot(),
        "coverage sets diverged between evaluators"
    );
}

#[test]
fn compiled_matches_tree_dynamic_typing() {
    run_differential(
        0xC0DE,
        &EngineConfig::dynamic(),
        ExecutionMode::Optimized,
        512,
    );
}

#[test]
fn compiled_matches_tree_strict_typing() {
    run_differential(
        0x51C7,
        &EngineConfig::strict(),
        ExecutionMode::Optimized,
        512,
    );
}

#[test]
fn compiled_matches_tree_reference_mode() {
    run_differential(
        0x4EF0,
        &EngineConfig::dynamic(),
        ExecutionMode::Reference,
        256,
    );
}

/// Evaluation-level injected faults (the ones that fire inside the
/// evaluator rather than the rewriter) must fire identically on both
/// paths, in both execution modes.
#[test]
fn compiled_matches_tree_under_evaluation_faults() {
    let faults = [
        Fault::BadLikeUnderscore,
        Fault::BadIntegerDivision,
        Fault::BadBitwiseInversion,
        Fault::BadTextCoercionSign,
        Fault::BadCollationComparison,
        Fault::BadNullifNullHandling,
        Fault::BadReplaceTypeAffinity,
    ];
    for (i, fault) in faults.iter().enumerate() {
        for mode in [ExecutionMode::Optimized, ExecutionMode::Reference] {
            let config = EngineConfig::dynamic().with_faults(&[*fault]);
            run_differential(0xFA17 + i as u64, &config, mode, 128);
        }
    }
}
