//! Scalar function implementations.
//!
//! Every member of [`ScalarFunction`] is implemented here. Argument handling
//! follows the typing discipline: the dynamic mode coerces freely (SQLite
//! style), the strict mode raises type errors for ill-typed arguments
//! (PostgreSQL style) — which is exactly what makes the composite
//! `FN1TYPE`-style features of the paper (e.g. `SIN1INT`) learnable.

use crate::config::TypingMode;
use crate::error::{EngineError, EngineResult};
use crate::faults::{Fault, FaultConfig};
use sql_ast::{format_real, DataType, ScalarFunction, Value};

fn null_in(args: &[Value]) -> bool {
    args.iter().any(Value::is_null)
}

fn num(v: &Value, typing: TypingMode) -> EngineResult<f64> {
    match typing {
        TypingMode::Dynamic => Ok(v.coerce_f64().unwrap_or(0.0)),
        TypingMode::Strict => v
            .as_f64_strict()
            .filter(|_| !matches!(v, Value::Boolean(_)))
            .ok_or_else(|| {
                EngineError::type_error(format!(
                    "function argument must be numeric, got {}",
                    v.data_type()
                ))
            }),
    }
}

fn int(v: &Value, typing: TypingMode) -> EngineResult<i64> {
    match typing {
        TypingMode::Dynamic => Ok(v.coerce_i64().unwrap_or(0)),
        TypingMode::Strict => match v {
            Value::Integer(i) => Ok(*i),
            _ => Err(EngineError::type_error(format!(
                "function argument must be INTEGER, got {}",
                v.data_type()
            ))),
        },
    }
}

fn text(v: &Value, typing: TypingMode) -> EngineResult<String> {
    match typing {
        TypingMode::Dynamic => Ok(v.coerce_text().unwrap_or_default()),
        TypingMode::Strict => match v {
            Value::Text(s) => Ok(s.clone()),
            _ => Err(EngineError::type_error(format!(
                "function argument must be TEXT, got {}",
                v.data_type()
            ))),
        },
    }
}

fn real(v: f64) -> Value {
    Value::Real(v)
}

fn finite(v: f64, what: &str) -> EngineResult<Value> {
    if v.is_nan() || v.is_infinite() {
        Err(EngineError::runtime(format!(
            "{what}: argument out of range"
        )))
    } else {
        Ok(real(v))
    }
}

/// Builds the arity error for calling `func` with `got` arguments.
///
/// Shared between the per-call arity check of [`eval_function`] and the
/// compiled evaluator, which performs the check once at compile time and
/// bakes the resulting error into the plan.
pub fn arity_error(func: ScalarFunction, got: usize) -> EngineError {
    EngineError::type_error(format!(
        "wrong number of arguments to {} (got {}, expected {}..={})",
        func.name(),
        got,
        func.min_args(),
        func.max_args()
    ))
}

/// Whether a function handles `NULL` arguments itself instead of
/// propagating `NULL` (a per-function constant; the compiled evaluator
/// hoists it out of the per-row path).
pub fn handles_nulls(func: ScalarFunction) -> bool {
    use ScalarFunction::*;
    matches!(
        func,
        Coalesce | Nullif | Ifnull | Nvl | Iif | IfFn | Concat | ConcatWs | Typeof
    )
}

/// Evaluates a scalar function on already-evaluated arguments.
///
/// # Errors
///
/// Returns an error for wrong arity, ill-typed arguments under strict
/// typing, or domain errors (e.g. `SQRT(-1)`, `ASIN(2)`).
pub fn eval_function(
    func: ScalarFunction,
    args: &[Value],
    typing: TypingMode,
    faults: &FaultConfig,
) -> EngineResult<Value> {
    if args.len() < func.min_args() || args.len() > func.max_args() {
        return Err(arity_error(func, args.len()));
    }
    // Conditional functions have their own NULL handling; everything else
    // propagates NULL.
    if !handles_nulls(func) && null_in(args) {
        return Ok(Value::Null);
    }
    eval_function_unchecked(func, args, typing, faults)
}

/// Evaluates a scalar function whose arity and NULL-propagation class have
/// already been checked — the direct entry the compiled evaluator dispatches
/// to after hoisting both checks to compile time.
///
/// # Errors
///
/// Returns an error for ill-typed arguments under strict typing or domain
/// errors (e.g. `SQRT(-1)`, `ASIN(2)`).
pub fn eval_function_unchecked(
    func: ScalarFunction,
    args: &[Value],
    typing: TypingMode,
    faults: &FaultConfig,
) -> EngineResult<Value> {
    use ScalarFunction::*;
    match func {
        // ---- numeric ----
        Abs => Ok(match &args[0] {
            Value::Integer(i) => Value::Integer(i.wrapping_abs()),
            other => real(num(other, typing)?.abs()),
        }),
        Sin => Ok(real(num(&args[0], typing)?.sin())),
        Cos => Ok(real(num(&args[0], typing)?.cos())),
        Tan => Ok(real(num(&args[0], typing)?.tan())),
        Asin => finite(num(&args[0], typing)?.asin(), "ASIN"),
        Acos => finite(num(&args[0], typing)?.acos(), "ACOS"),
        Atan => Ok(real(num(&args[0], typing)?.atan())),
        Atan2 => Ok(real(num(&args[0], typing)?.atan2(num(&args[1], typing)?))),
        Exp => Ok(real(num(&args[0], typing)?.exp())),
        Ln => finite(num(&args[0], typing)?.ln(), "LN"),
        Log10 => finite(num(&args[0], typing)?.log10(), "LOG10"),
        Log2 => finite(num(&args[0], typing)?.log2(), "LOG2"),
        Sqrt => finite(num(&args[0], typing)?.sqrt(), "SQRT"),
        Power => Ok(real(num(&args[0], typing)?.powf(num(&args[1], typing)?))),
        ModFn => {
            let b = num(&args[1], typing)?;
            if b == 0.0 {
                return match typing {
                    TypingMode::Dynamic => Ok(Value::Null),
                    TypingMode::Strict => Err(EngineError::runtime("division by zero")),
                };
            }
            let a = num(&args[0], typing)?;
            if matches!(args[0], Value::Integer(_)) && matches!(args[1], Value::Integer(_)) {
                Ok(Value::Integer((a as i64).wrapping_rem(b as i64)))
            } else {
                Ok(real(a % b))
            }
        }
        Floor => Ok(Value::Integer(num(&args[0], typing)?.floor() as i64)),
        Ceil => Ok(Value::Integer(num(&args[0], typing)?.ceil() as i64)),
        Round => {
            let a = num(&args[0], typing)?;
            let digits = if args.len() > 1 {
                int(&args[1], typing)?
            } else {
                0
            };
            let factor = 10f64.powi(digits.clamp(-12, 12) as i32);
            Ok(real((a * factor).round() / factor))
        }
        Sign => Ok(Value::Integer(match num(&args[0], typing)? {
            v if v > 0.0 => 1,
            v if v < 0.0 => -1,
            _ => 0,
        })),
        Radians => Ok(real(num(&args[0], typing)?.to_radians())),
        Degrees => Ok(real(num(&args[0], typing)?.to_degrees())),
        Pi => Ok(real(std::f64::consts::PI)),
        Greatest => fold_extreme(args, typing, true),
        Least => fold_extreme(args, typing, false),
        Trunc => Ok(Value::Integer(num(&args[0], typing)?.trunc() as i64)),
        // ---- string ----
        Length | CharLength => Ok(Value::Integer(
            text(&args[0], typing)?.chars().count() as i64
        )),
        Unhexable => Ok(Value::Integer(
            (text(&args[0], typing)?.chars().count() * 8) as i64,
        )),
        Upper => Ok(Value::Text(text(&args[0], typing)?.to_uppercase())),
        Lower => Ok(Value::Text(text(&args[0], typing)?.to_lowercase())),
        Trim => Ok(Value::Text(text(&args[0], typing)?.trim().to_string())),
        Ltrim => Ok(Value::Text(
            text(&args[0], typing)?.trim_start().to_string(),
        )),
        Rtrim => Ok(Value::Text(text(&args[0], typing)?.trim_end().to_string())),
        Substr | Substring => {
            let s = text(&args[0], typing)?;
            let chars: Vec<char> = s.chars().collect();
            let start = int(&args[1], typing)?;
            let len = if args.len() > 2 {
                int(&args[2], typing)?.max(0) as usize
            } else {
                chars.len()
            };
            // SQL SUBSTR is 1-based; non-positive starts clamp to the
            // beginning with the window shortened accordingly.
            let begin = if start > 0 { (start - 1) as usize } else { 0 };
            let taken: String = chars.into_iter().skip(begin).take(len).collect();
            Ok(Value::Text(taken))
        }
        Replace => {
            if faults.has(Fault::BadReplaceTypeAffinity) && !matches!(args[0], Value::Text(_)) {
                // Injected fault (SQLite Listing 2): a non-text first
                // argument is returned unconverted instead of as TEXT.
                return Ok(args[0].clone());
            }
            let s = text(&args[0], typing)?;
            let from = text(&args[1], typing)?;
            let to = text(&args[2], typing)?;
            if from.is_empty() {
                return Ok(Value::Text(s));
            }
            Ok(Value::Text(s.replace(&from, &to)))
        }
        Instr | Strpos => {
            let s = text(&args[0], typing)?;
            let needle = text(&args[1], typing)?;
            let pos = if needle.is_empty() {
                1
            } else {
                s.find(&needle)
                    .map(|i| s[..i].chars().count() + 1)
                    .unwrap_or(0)
            };
            Ok(Value::Integer(pos as i64))
        }
        LeftFn => {
            let s = text(&args[0], typing)?;
            let n = int(&args[1], typing)?.max(0) as usize;
            Ok(Value::Text(s.chars().take(n).collect()))
        }
        RightFn => {
            let s = text(&args[0], typing)?;
            let n = int(&args[1], typing)?.max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let skip = chars.len().saturating_sub(n);
            Ok(Value::Text(chars.into_iter().skip(skip).collect()))
        }
        Reverse => Ok(Value::Text(text(&args[0], typing)?.chars().rev().collect())),
        Repeat => {
            let s = text(&args[0], typing)?;
            let n = int(&args[1], typing)?.clamp(0, 1000) as usize;
            Ok(Value::Text(s.repeat(n)))
        }
        Concat => {
            // CONCAT skips NULLs (MySQL returns NULL, PostgreSQL skips;
            // we follow the skip behaviour, which is also what CONCAT_WS
            // does, so the two stay consistent).
            let mut out = String::new();
            for a in args {
                if !a.is_null() {
                    out.push_str(&text_lossy(a));
                }
            }
            Ok(Value::Text(out))
        }
        ConcatWs => {
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let sep = text_lossy(&args[0]);
            let parts: Vec<String> = args[1..]
                .iter()
                .filter(|a| !a.is_null())
                .map(text_lossy)
                .collect();
            Ok(Value::Text(parts.join(&sep)))
        }
        Lpad | Rpad => {
            let s = text(&args[0], typing)?;
            let n = int(&args[1], typing)?.clamp(0, 10_000) as usize;
            let pad = text(&args[2], typing)?;
            let cur = s.chars().count();
            if cur >= n {
                return Ok(Value::Text(s.chars().take(n).collect()));
            }
            if pad.is_empty() {
                return Ok(Value::Text(s));
            }
            let mut fill = String::new();
            while fill.chars().count() < n - cur {
                fill.push_str(&pad);
            }
            let fill: String = fill.chars().take(n - cur).collect();
            Ok(Value::Text(if func == Lpad {
                format!("{fill}{s}")
            } else {
                format!("{s}{fill}")
            }))
        }
        Ascii => Ok(Value::Integer(
            text(&args[0], typing)?
                .chars()
                .next()
                .map(|c| c as i64)
                .unwrap_or(0),
        )),
        Chr => {
            let code = int(&args[0], typing)?;
            let c = u32::try_from(code.clamp(1, 0x10FFFF) as u64)
                .ok()
                .and_then(char::from_u32)
                .unwrap_or('\u{FFFD}');
            Ok(Value::Text(c.to_string()))
        }
        Hex => {
            let s = text_lossy(&args[0]);
            Ok(Value::Text(
                s.bytes().map(|b| format!("{b:02X}")).collect::<String>(),
            ))
        }
        Space => {
            let n = int(&args[0], typing)?.clamp(0, 10_000) as usize;
            Ok(Value::Text(" ".repeat(n)))
        }
        Md5Stub => Ok(Value::Text(format!(
            "'{}'",
            text_lossy(&args[0]).replace('\'', "''")
        ))),
        // ---- conditional ----
        Coalesce => Ok(args
            .iter()
            .find(|a| !a.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        Nullif => {
            let equal = loose_equal(&args[0], &args[1], typing)?;
            if faults.has(Fault::BadNullifNullHandling) && args[1].is_null() {
                // Injected fault: a NULL second argument makes NULLIF return
                // NULL instead of the first argument.
                return Ok(Value::Null);
            }
            Ok(match equal {
                Some(true) => Value::Null,
                _ => args[0].clone(),
            })
        }
        Ifnull | Nvl => Ok(if args[0].is_null() {
            args[1].clone()
        } else {
            args[0].clone()
        }),
        Iif | IfFn => {
            let cond = match typing {
                TypingMode::Dynamic => args[0].truthiness_dynamic(),
                TypingMode::Strict => args[0]
                    .truthiness_strict()
                    .ok_or_else(|| EngineError::type_error("IIF condition must be BOOLEAN"))?,
            };
            Ok(if cond.is_true() {
                args[1].clone()
            } else {
                args[2].clone()
            })
        }
        // ---- type / introspection ----
        Typeof => Ok(Value::Text(
            match args[0].data_type() {
                DataType::Integer => "integer",
                DataType::Real => "real",
                DataType::Text => "text",
                DataType::Boolean => "boolean",
                DataType::Null => "null",
            }
            .to_string(),
        )),
        ToChar => Ok(Value::Text(text_lossy(&args[0]))),
    }
}

fn text_lossy(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Text(s) => s.clone(),
        Value::Integer(i) => i.to_string(),
        Value::Real(r) => format_real(*r),
        Value::Boolean(b) => if *b { "1" } else { "0" }.to_string(),
    }
}

fn loose_equal(a: &Value, b: &Value, typing: TypingMode) -> EngineResult<Option<bool>> {
    if a.is_null() || b.is_null() {
        return Ok(None);
    }
    match typing {
        TypingMode::Strict => {
            // NULLIF in strict mode still compares across numeric types but
            // rejects cross-family comparisons.
            let compatible = matches!(
                (a, b),
                (
                    Value::Integer(_) | Value::Real(_),
                    Value::Integer(_) | Value::Real(_)
                ) | (Value::Text(_), Value::Text(_))
                    | (Value::Boolean(_), Value::Boolean(_))
            );
            if !compatible {
                return Err(EngineError::type_error(format!(
                    "cannot compare {} with {}",
                    a.data_type(),
                    b.data_type()
                )));
            }
            Ok(Some(a.total_cmp(b) == std::cmp::Ordering::Equal))
        }
        TypingMode::Dynamic => {
            let fa = a.coerce_f64();
            let fb = b.coerce_f64();
            if a.data_type().is_numeric() || b.data_type().is_numeric() {
                Ok(Some(fa == fb))
            } else {
                Ok(Some(a.total_cmp(b) == std::cmp::Ordering::Equal))
            }
        }
    }
}

/// Shared implementation for `GREATEST` / `LEAST`.
fn fold_extreme(args: &[Value], typing: TypingMode, greatest: bool) -> EngineResult<Value> {
    let mut best: Option<f64> = None;
    let mut best_value: Option<Value> = None;
    for a in args {
        let n = num(a, typing)?;
        let better = match best {
            None => true,
            Some(b) => {
                if greatest {
                    n > b
                } else {
                    n < b
                }
            }
        };
        if better {
            best = Some(n);
            best_value = Some(a.clone());
        }
    }
    Ok(best_value.unwrap_or(Value::Null))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(func: ScalarFunction, args: &[Value]) -> EngineResult<Value> {
        eval_function(func, args, TypingMode::Dynamic, &FaultConfig::none())
    }

    fn f_strict(func: ScalarFunction, args: &[Value]) -> EngineResult<Value> {
        eval_function(func, args, TypingMode::Strict, &FaultConfig::none())
    }

    #[test]
    fn null_propagates_except_for_conditionals() {
        assert_eq!(f(ScalarFunction::Sin, &[Value::Null]).unwrap(), Value::Null);
        assert_eq!(
            f(ScalarFunction::Coalesce, &[Value::Null, Value::Integer(2)]).unwrap(),
            Value::Integer(2)
        );
        assert_eq!(
            f(ScalarFunction::Ifnull, &[Value::Null, Value::Integer(7)]).unwrap(),
            Value::Integer(7)
        );
    }

    #[test]
    fn arity_is_checked() {
        assert!(f(ScalarFunction::Sin, &[]).is_err());
        assert!(f(ScalarFunction::Sin, &[Value::Integer(1), Value::Integer(2)]).is_err());
    }

    #[test]
    fn string_functions_behave() {
        assert_eq!(
            f(ScalarFunction::Upper, &[Value::text("abc")]).unwrap(),
            Value::text("ABC")
        );
        assert_eq!(
            f(
                ScalarFunction::Substr,
                &[Value::text("hello"), Value::Integer(2), Value::Integer(3)]
            )
            .unwrap(),
            Value::text("ell")
        );
        assert_eq!(
            f(
                ScalarFunction::Replace,
                &[Value::text("a b"), Value::text(" "), Value::text("0")]
            )
            .unwrap(),
            Value::text("a0b")
        );
        assert_eq!(
            f(
                ScalarFunction::Instr,
                &[Value::text("hello"), Value::text("ll")]
            )
            .unwrap(),
            Value::Integer(3)
        );
        assert_eq!(
            f(
                ScalarFunction::Lpad,
                &[Value::text("7"), Value::Integer(3), Value::text("0")]
            )
            .unwrap(),
            Value::text("007")
        );
        assert_eq!(
            f(ScalarFunction::Length, &[Value::text("héllo")]).unwrap(),
            Value::Integer(5)
        );
    }

    #[test]
    fn replace_coerces_numeric_first_argument_when_sound() {
        // Sound behaviour: REPLACE(1, ' ', 0) is the text '1'.
        assert_eq!(
            f(
                ScalarFunction::Replace,
                &[Value::Integer(1), Value::text(" "), Value::Integer(0)]
            )
            .unwrap(),
            Value::text("1")
        );
        // Injected fault: the intermediate value keeps its numeric type.
        let mut faults = FaultConfig::none();
        faults.enable(Fault::BadReplaceTypeAffinity);
        assert_eq!(
            eval_function(
                ScalarFunction::Replace,
                &[Value::Integer(1), Value::text(" "), Value::Integer(0)],
                TypingMode::Dynamic,
                &faults
            )
            .unwrap(),
            Value::Integer(1)
        );
    }

    #[test]
    fn strict_mode_rejects_ill_typed_arguments() {
        assert!(f_strict(ScalarFunction::Sin, &[Value::text("a")]).is_err());
        assert!(f_strict(ScalarFunction::Upper, &[Value::Integer(1)]).is_err());
        assert_eq!(
            f_strict(ScalarFunction::Sin, &[Value::Integer(0)]).unwrap(),
            Value::Real(0.0)
        );
    }

    #[test]
    fn domain_errors_are_runtime_errors() {
        assert!(f(ScalarFunction::Asin, &[Value::Integer(2)]).is_err());
        assert!(f(ScalarFunction::Sqrt, &[Value::Integer(-1)]).is_err());
        assert!(f(ScalarFunction::Ln, &[Value::Integer(0)]).is_err());
    }

    #[test]
    fn conditional_functions() {
        assert_eq!(
            f(
                ScalarFunction::Nullif,
                &[Value::Integer(2), Value::Integer(2)]
            )
            .unwrap(),
            Value::Null
        );
        assert_eq!(
            f(
                ScalarFunction::Nullif,
                &[Value::Integer(2), Value::Integer(3)]
            )
            .unwrap(),
            Value::Integer(2)
        );
        assert_eq!(
            f(
                ScalarFunction::Iif,
                &[Value::Boolean(false), Value::Integer(1), Value::Integer(2)]
            )
            .unwrap(),
            Value::Integer(2)
        );
        assert_eq!(
            f(
                ScalarFunction::Greatest,
                &[Value::Integer(3), Value::Integer(9)]
            )
            .unwrap(),
            Value::Integer(9)
        );
        assert_eq!(
            f(
                ScalarFunction::Least,
                &[Value::Integer(3), Value::Integer(9)]
            )
            .unwrap(),
            Value::Integer(3)
        );
    }

    #[test]
    fn typeof_reports_storage_class() {
        assert_eq!(
            f(ScalarFunction::Typeof, &[Value::text("x")]).unwrap(),
            Value::text("text")
        );
        assert_eq!(
            f(ScalarFunction::Typeof, &[Value::Null]).unwrap(),
            Value::text("null")
        );
    }

    #[test]
    fn every_function_is_callable_with_min_arity_integers() {
        // Smoke test: no function panics on plain integer arguments in
        // dynamic mode (errors are fine, panics are not).
        for func in ScalarFunction::ALL {
            let args: Vec<Value> = (0..func.min_args())
                .map(|i| Value::Integer(i as i64 + 1))
                .collect();
            let _ = f(func, &args);
        }
    }
}
