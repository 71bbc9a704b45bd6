//! Scalar and aggregate SQL functions.
//!
//! The paper's generator implements 58 scalar functions (Table 6). The
//! [`ScalarFunction`] enum enumerates the function universe used by this
//! reproduction; every function listed here is implemented by the evaluation
//! engine (`sql-engine`) and is individually gateable per dialect
//! (`dbms-sim`), which is exactly what makes functions interesting *features*
//! for the adaptive generator.

use crate::DataType;
use std::fmt;

/// Category of a scalar function; used both to organise generation and as a
/// coarse-grained feature granularity ("a class of functions", Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionCategory {
    /// Numeric/math functions (`SIN`, `ABS`, ...).
    Numeric,
    /// String functions (`UPPER`, `REPLACE`, ...).
    String,
    /// Conditional functions (`COALESCE`, `NULLIF`, ...).
    Conditional,
    /// Type/introspection functions (`TYPEOF`, ...).
    Type,
}

/// The sixteen `FN_<NAME>_ARG<i>_<TYPE>` names of one function, argument
/// position major, types in [`DataType::ALL`] order.
macro_rules! arg_type_feature_names {
    ($name:literal) => {
        arg_type_feature_names!(@args $name [1 2 3 4])
    };
    (@args $name:literal [$($i:literal)+]) => {
        [$(
            concat!("FN_", $name, "_ARG", $i, "_INTEGER"),
            concat!("FN_", $name, "_ARG", $i, "_REAL"),
            concat!("FN_", $name, "_ARG", $i, "_TEXT"),
            concat!("FN_", $name, "_ARG", $i, "_BOOLEAN"),
        )+]
    };
}

macro_rules! scalar_functions {
    ($( $variant:ident => ($name:literal, $min:literal, $max:literal, $cat:ident) ),+ $(,)?) => {
        /// A scalar SQL function supported by the generator and the engine.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum ScalarFunction {
            $(
                #[doc = concat!("The `", $name, "` function.")]
                $variant,
            )+
        }

        impl ScalarFunction {
            /// Every scalar function, in a canonical order.
            pub const ALL: [ScalarFunction; scalar_functions!(@count $($variant)+)] = [
                $(ScalarFunction::$variant,)+
            ];

            /// The largest [`ScalarFunction::max_args`] of any function.
            pub const MAX_ARGS: usize = 4;

            /// The SQL name of the function.
            pub const fn name(self) -> &'static str {
                match self {
                    $(ScalarFunction::$variant => $name,)+
                }
            }

            /// Canonical feature name used by the feature model
            /// (`FN_<NAME>`), as a static string — the generator consults
            /// the whole function universe per generated function call, so
            /// this must not allocate.
            pub const fn feature_name(self) -> &'static str {
                match self {
                    $(ScalarFunction::$variant => concat!("FN_", $name),)+
                }
            }

            /// Composite feature name of an argument position and type,
            /// `FN_<NAME>_ARG<i + 1>_<TYPE>` (the paper's `SIN1INT`):
            /// `arg_index < MAX_ARGS` and `ty` one of [`DataType::ALL`].
            pub const fn arg_type_feature_name(self, arg_index: usize, ty: DataType) -> &'static str {
                assert!(arg_index < Self::MAX_ARGS, "argument index out of range");
                assert!(!matches!(ty, DataType::Null), "NULL has no argument-type feature");
                let names: [&'static str; Self::MAX_ARGS * DataType::ALL.len()] = match self {
                    $(ScalarFunction::$variant => arg_type_feature_names!($name),)+
                };
                names[arg_index * DataType::ALL.len() + ty as usize]
            }

            /// Minimum number of arguments.
            pub fn min_args(self) -> usize {
                match self {
                    $(ScalarFunction::$variant => $min,)+
                }
            }

            /// Maximum number of arguments.
            pub fn max_args(self) -> usize {
                match self {
                    $(ScalarFunction::$variant => $max,)+
                }
            }

            /// Coarse category of the function.
            pub fn category(self) -> FunctionCategory {
                match self {
                    $(ScalarFunction::$variant => FunctionCategory::$cat,)+
                }
            }

            /// Looks a function up by its (case-insensitive) SQL name.
            pub fn from_name(name: &str) -> Option<ScalarFunction> {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    $($name => Some(ScalarFunction::$variant),)+
                    _ => None,
                }
            }
        }
    };
    (@count $($x:ident)+) => { [$(scalar_functions!(@unit $x)),+].len() };
    (@unit $x:ident) => { () };
}

scalar_functions! {
    // Numeric functions.
    Abs => ("ABS", 1, 1, Numeric),
    Sin => ("SIN", 1, 1, Numeric),
    Cos => ("COS", 1, 1, Numeric),
    Tan => ("TAN", 1, 1, Numeric),
    Asin => ("ASIN", 1, 1, Numeric),
    Acos => ("ACOS", 1, 1, Numeric),
    Atan => ("ATAN", 1, 1, Numeric),
    Atan2 => ("ATAN2", 2, 2, Numeric),
    Exp => ("EXP", 1, 1, Numeric),
    Ln => ("LN", 1, 1, Numeric),
    Log10 => ("LOG10", 1, 1, Numeric),
    Log2 => ("LOG2", 1, 1, Numeric),
    Sqrt => ("SQRT", 1, 1, Numeric),
    Power => ("POWER", 2, 2, Numeric),
    ModFn => ("MOD", 2, 2, Numeric),
    Floor => ("FLOOR", 1, 1, Numeric),
    Ceil => ("CEIL", 1, 1, Numeric),
    Round => ("ROUND", 1, 2, Numeric),
    Sign => ("SIGN", 1, 1, Numeric),
    Radians => ("RADIANS", 1, 1, Numeric),
    Degrees => ("DEGREES", 1, 1, Numeric),
    Pi => ("PI", 0, 0, Numeric),
    Greatest => ("GREATEST", 2, 4, Numeric),
    Least => ("LEAST", 2, 4, Numeric),
    Trunc => ("TRUNC", 1, 1, Numeric),
    // String functions.
    Length => ("LENGTH", 1, 1, String),
    CharLength => ("CHAR_LENGTH", 1, 1, String),
    Upper => ("UPPER", 1, 1, String),
    Lower => ("LOWER", 1, 1, String),
    Trim => ("TRIM", 1, 1, String),
    Ltrim => ("LTRIM", 1, 1, String),
    Rtrim => ("RTRIM", 1, 1, String),
    Substr => ("SUBSTR", 2, 3, String),
    Substring => ("SUBSTRING", 2, 3, String),
    Replace => ("REPLACE", 3, 3, String),
    Instr => ("INSTR", 2, 2, String),
    Strpos => ("STRPOS", 2, 2, String),
    LeftFn => ("LEFT", 2, 2, String),
    RightFn => ("RIGHT", 2, 2, String),
    Reverse => ("REVERSE", 1, 1, String),
    Repeat => ("REPEAT", 2, 2, String),
    Concat => ("CONCAT", 2, 4, String),
    ConcatWs => ("CONCAT_WS", 3, 4, String),
    Lpad => ("LPAD", 3, 3, String),
    Rpad => ("RPAD", 3, 3, String),
    Ascii => ("ASCII", 1, 1, String),
    Chr => ("CHR", 1, 1, String),
    Hex => ("HEX", 1, 1, String),
    Space => ("SPACE", 1, 1, String),
    Md5Stub => ("QUOTE", 1, 1, String),
    // Conditional functions.
    Coalesce => ("COALESCE", 2, 4, Conditional),
    Nullif => ("NULLIF", 2, 2, Conditional),
    Ifnull => ("IFNULL", 2, 2, Conditional),
    Nvl => ("NVL", 2, 2, Conditional),
    Iif => ("IIF", 3, 3, Conditional),
    IfFn => ("IF", 3, 3, Conditional),
    // Type / introspection functions.
    Typeof => ("TYPEOF", 1, 1, Type),
    ToChar => ("TO_CHAR", 1, 1, Type),
    Unhexable => ("BIT_LENGTH", 1, 1, Type),
}

impl fmt::Display for ScalarFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An aggregate SQL function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggregateFunction {
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `TOTAL(expr)` — SQLite's never-NULL sum.
    Total,
}

impl AggregateFunction {
    /// Every aggregate function.
    pub const ALL: [AggregateFunction; 6] = [
        AggregateFunction::Count,
        AggregateFunction::Sum,
        AggregateFunction::Avg,
        AggregateFunction::Min,
        AggregateFunction::Max,
        AggregateFunction::Total,
    ];

    /// SQL name.
    pub const fn name(self) -> &'static str {
        match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
            AggregateFunction::Total => "TOTAL",
        }
    }

    /// Canonical feature name (`AGG_<NAME>`), static like
    /// [`ScalarFunction::feature_name`].
    pub const fn feature_name(self) -> &'static str {
        match self {
            AggregateFunction::Count => "AGG_COUNT",
            AggregateFunction::Sum => "AGG_SUM",
            AggregateFunction::Avg => "AGG_AVG",
            AggregateFunction::Min => "AGG_MIN",
            AggregateFunction::Max => "AGG_MAX",
            AggregateFunction::Total => "AGG_TOTAL",
        }
    }

    /// Looks an aggregate up by its (case-insensitive) SQL name.
    pub fn from_name(name: &str) -> Option<AggregateFunction> {
        let upper = name.to_ascii_uppercase();
        Self::ALL.into_iter().find(|agg| agg.name() == upper)
    }
}

impl fmt::Display for AggregateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn function_universe_has_paper_scale() {
        // The paper reports 58 scalar functions; we implement the same order
        // of magnitude (>= 55) so feature-learning behaves comparably.
        assert!(
            ScalarFunction::ALL.len() >= 55,
            "{}",
            ScalarFunction::ALL.len()
        );
    }

    #[test]
    fn names_unique_and_resolvable() {
        let names: HashSet<_> = ScalarFunction::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), ScalarFunction::ALL.len());
        for f in ScalarFunction::ALL {
            assert_eq!(ScalarFunction::from_name(f.name()), Some(f));
            assert_eq!(ScalarFunction::from_name(&f.name().to_lowercase()), Some(f));
        }
        assert_eq!(ScalarFunction::from_name("NO_SUCH_FN"), None);
    }

    #[test]
    fn arities_are_consistent() {
        for f in ScalarFunction::ALL {
            assert!(f.min_args() <= f.max_args(), "{f:?}");
            assert!(f.max_args() <= ScalarFunction::MAX_ARGS, "{f:?}");
        }
    }

    #[test]
    fn arg_type_feature_names_spell_position_and_type() {
        assert_eq!(
            ScalarFunction::Sin.arg_type_feature_name(0, DataType::Integer),
            "FN_SIN_ARG1_INTEGER"
        );
        for f in ScalarFunction::ALL {
            for arg in 0..ScalarFunction::MAX_ARGS {
                for ty in DataType::ALL {
                    let name = format!("{}_ARG{}_{}", f.feature_name(), arg + 1, ty.sql_keyword());
                    assert_eq!(f.arg_type_feature_name(arg, ty), name);
                }
            }
        }
    }

    #[test]
    fn aggregates_resolve_by_name() {
        for agg in AggregateFunction::ALL {
            assert_eq!(AggregateFunction::from_name(agg.name()), Some(agg));
        }
        assert_eq!(
            AggregateFunction::from_name("count"),
            Some(AggregateFunction::Count)
        );
        assert_eq!(AggregateFunction::from_name("median"), None);
    }

    #[test]
    fn every_category_is_populated() {
        for cat in [
            FunctionCategory::Numeric,
            FunctionCategory::String,
            FunctionCategory::Conditional,
            FunctionCategory::Type,
        ] {
            assert!(ScalarFunction::ALL.iter().any(|f| f.category() == cat));
        }
    }
}
