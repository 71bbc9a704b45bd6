//! Runtime SQL values and SQL three-valued logic.
//!
//! [`Value`] is the currency of the whole reproduction: the engine evaluates
//! expressions to values, result sets are grids of values, and the oracles
//! compare multisets of value rows.

use crate::hash::Fingerprint128;
use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;

/// A runtime SQL value.
///
/// # Examples
///
/// ```
/// use sql_ast::Value;
///
/// let v = Value::Integer(42);
/// assert_eq!(v.to_string(), "42");
/// assert!(Value::Null.is_null());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// A 64-bit signed integer.
    Integer(i64),
    /// A double-precision float.
    Real(f64),
    /// A character string.
    Text(String),
    /// A boolean.
    Boolean(bool),
}

/// A value's canonical dedup identity (see `Value::identity`): the one
/// definition behind [`Value::dedup_eq`] and [`Value::fingerprint_into`].
/// [`Value::dedup_key`] renders the same identity on its own and stays the
/// reference that tests hold both to.
#[derive(PartialEq, Eq)]
enum Identity<'a> {
    Null,
    Integer(i64),
    Real(u64),
    Text(&'a str),
}

/// SQL three-valued logic truth value.
///
/// Predicates in SQL evaluate to one of three outcomes; `WHERE` keeps a row
/// only when its predicate is [`TruthValue::True`]. Ternary Logic
/// Partitioning (TLP) exploits exactly this trichotomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruthValue {
    /// The predicate holds.
    True,
    /// The predicate does not hold.
    False,
    /// The predicate result is unknown (involves `NULL`).
    Unknown,
}

impl TruthValue {
    /// Three-valued `AND`.
    pub fn and(self, other: TruthValue) -> TruthValue {
        use TruthValue::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Three-valued `OR`.
    pub fn or(self, other: TruthValue) -> TruthValue {
        use TruthValue::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Three-valued `NOT`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> TruthValue {
        match self {
            TruthValue::True => TruthValue::False,
            TruthValue::False => TruthValue::True,
            TruthValue::Unknown => TruthValue::Unknown,
        }
    }

    /// `true` only for [`TruthValue::True`] — the `WHERE`-clause filter rule.
    pub fn is_true(self) -> bool {
        self == TruthValue::True
    }

    /// Converts back to a nullable boolean [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            TruthValue::True => Value::Boolean(true),
            TruthValue::False => Value::Boolean(false),
            TruthValue::Unknown => Value::Null,
        }
    }

    /// Builds a truth value from a boolean.
    pub fn from_bool(b: bool) -> TruthValue {
        if b {
            TruthValue::True
        } else {
            TruthValue::False
        }
    }
}

impl Value {
    /// Returns `true` if the value is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The concrete data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Integer(_) => DataType::Integer,
            Value::Real(_) => DataType::Real,
            Value::Text(_) => DataType::Text,
            Value::Boolean(_) => DataType::Boolean,
        }
    }

    /// Convenience constructor for a text value.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Numeric view of the value, if it has one without any coercion:
    /// integers, reals and booleans (0/1) are numeric, text is not.
    pub fn as_f64_strict(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// SQLite-style numeric coercion: text is parsed as a leading numeric
    /// prefix (defaulting to 0), booleans become 0/1.
    pub fn coerce_f64(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Text(s) => Some(parse_numeric_prefix(s)),
        }
    }

    /// SQLite-style integer coercion.
    pub fn coerce_i64(&self) -> Option<i64> {
        self.coerce_f64().map(|f| f as i64)
    }

    /// Text rendering used for implicit casts to `TEXT`.
    pub fn coerce_text(&self) -> Option<String> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(i.to_string()),
            Value::Real(r) => Some(format_real(*r)),
            Value::Boolean(b) => Some(if *b { "1".to_string() } else { "0".to_string() }),
            Value::Text(s) => Some(s.clone()),
        }
    }

    /// Dynamic truthiness as used by dynamically-typed dialects (SQLite):
    /// numbers are true when non-zero, text is parsed numerically first.
    pub fn truthiness_dynamic(&self) -> TruthValue {
        match self {
            Value::Null => TruthValue::Unknown,
            Value::Boolean(b) => TruthValue::from_bool(*b),
            Value::Integer(i) => TruthValue::from_bool(*i != 0),
            Value::Real(r) => TruthValue::from_bool(*r != 0.0),
            Value::Text(s) => TruthValue::from_bool(parse_numeric_prefix(s) != 0.0),
        }
    }

    /// Strict truthiness as used by statically-typed dialects (PostgreSQL):
    /// only booleans and `NULL` are acceptable in a boolean context.
    pub fn truthiness_strict(&self) -> Option<TruthValue> {
        match self {
            Value::Null => Some(TruthValue::Unknown),
            Value::Boolean(b) => Some(TruthValue::from_bool(*b)),
            _ => None,
        }
    }

    /// Total ordering used for `ORDER BY`, `GROUP BY` and result-set
    /// comparison. `NULL` sorts first, then booleans, then numbers, then text
    /// (the SQLite storage-class order, which is a convenient total order for
    /// heterogeneous values).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Boolean(_) => 1,
                Value::Integer(_) | Value::Real(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Boolean(a), Value::Boolean(b)) => a.cmp(b),
            (Value::Integer(a), Value::Integer(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let fa = a.as_f64_strict().unwrap_or(0.0);
                let fb = b.as_f64_strict().unwrap_or(0.0);
                fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL equality between two non-`NULL` values of the same "family".
    /// Returns [`TruthValue::Unknown`] when either side is `NULL`.
    pub fn sql_eq(&self, other: &Value) -> TruthValue {
        if self.is_null() || other.is_null() {
            return TruthValue::Unknown;
        }
        TruthValue::from_bool(self.total_cmp(other) == Ordering::Equal)
    }

    /// The canonical dedup identity of this value, borrowed: integral
    /// reals (below the 9.0e15 cut-off) and booleans collapse onto the
    /// integer identity, every `NaN` shares one bit pattern, and `-0.0`
    /// is the integer 0. The variants stay apart, so `1` and `'1'` differ.
    fn identity(&self) -> Identity<'_> {
        match self {
            Value::Null => Identity::Null,
            Value::Integer(i) => Identity::Integer(*i),
            Value::Real(r) if r.fract() == 0.0 && r.is_finite() && r.abs() < 9.0e15 => {
                Identity::Integer(*r as i64)
            }
            Value::Real(r) if r.is_nan() => Identity::Real(f64::NAN.to_bits()),
            Value::Real(r) => Identity::Real(r.to_bits()),
            Value::Text(s) => Identity::Text(s),
            Value::Boolean(b) => Identity::Integer(i64::from(*b)),
        }
    }

    /// Exact, allocation-free equality of canonical dedup identities:
    /// `a.dedup_eq(b)` holds exactly when `a.dedup_key() == b.dedup_key()`.
    /// Unique-key enforcement compares key columns with it, one column at a
    /// time.
    pub fn dedup_eq(&self, other: &Value) -> bool {
        self.identity() == other.identity()
    }

    /// Feeds this value's canonical dedup identity into a fingerprint
    /// hasher, without allocating.
    ///
    /// The identity matches [`Value::dedup_key`] exactly: integral reals and
    /// booleans collapse onto the integer encoding (so `1`, `1.0` and `TRUE`
    /// fingerprint identically, as SQL equality demands), every `NaN` is
    /// canonicalised to one bit pattern, and each variant is tagged so that
    /// e.g. `1` and `'1'` stay distinct. The hasher itself lives in
    /// [`crate::hash`] alongside the other shared hash primitives.
    pub fn fingerprint_into(&self, hasher: &mut Fingerprint128) {
        match self.identity() {
            Identity::Null => hasher.write_u8(0),
            Identity::Integer(i) => {
                hasher.write_u8(1);
                hasher.write_u64(i as u64);
            }
            Identity::Real(bits) => {
                hasher.write_u8(2);
                hasher.write_u64(bits);
            }
            Identity::Text(s) => {
                hasher.write_u8(3);
                hasher.write_u64(s.len() as u64);
                hasher.write_bytes(s.as_bytes());
            }
        }
    }

    /// A stable key usable for hashing/dedup in result multisets. Reals are
    /// rendered with full precision; `NULL` has a dedicated tag.
    ///
    /// This is the legacy string form of the row identity; the execution hot
    /// path uses the allocation-free [`crate::row_fingerprint`] /
    /// [`Value::fingerprint_into`] instead, and property tests assert the
    /// two agree.
    pub fn dedup_key(&self) -> String {
        match self {
            Value::Null => "\u{0}N".to_string(),
            Value::Integer(i) => format!("I{i}"),
            Value::Real(r) => {
                // Integral reals compare equal to integers in SQL; normalise
                // them so multiset comparison is not confused by 1 vs 1.0.
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 9.0e15 {
                    format!("I{}", *r as i64)
                } else {
                    format!("R{r:?}")
                }
            }
            Value::Text(s) => format!("T{s}"),
            Value::Boolean(b) => format!("I{}", i64::from(*b)),
        }
    }
}

/// Parses the longest numeric prefix of a string, as SQLite does when
/// coercing text to a number; returns `0.0` when there is none.
pub fn parse_numeric_prefix(s: &str) -> f64 {
    let trimmed = s.trim_start();
    let mut end = 0;
    let bytes = trimmed.as_bytes();
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'+' | b'-' if i == 0 => end = i + 1,
            b'+' | b'-' if seen_exp && matches!(bytes.get(i - 1), Some(b'e') | Some(b'E')) => {
                end = i + 1
            }
            b'0'..=b'9' => {
                seen_digit = true;
                end = i + 1;
            }
            b'.' if !seen_dot && !seen_exp => {
                seen_dot = true;
                end = i + 1;
            }
            b'e' | b'E' if seen_digit && !seen_exp => {
                seen_exp = true;
                end = i + 1;
            }
            _ => break,
        }
    }
    if !seen_digit {
        return 0.0;
    }
    trimmed[..end].parse::<f64>().unwrap_or_else(|_| {
        // Trailing 'e' or sign without exponent digits: retry without it.
        let cleaned: &str = trimmed[..end].trim_end_matches(['e', 'E', '+', '-']);
        cleaned.parse::<f64>().unwrap_or(0.0)
    })
}

/// Renders a real number the way the engine prints it in result sets.
pub fn format_real(r: f64) -> String {
    if r.fract() == 0.0 && r.is_finite() && r.abs() < 1.0e15 {
        format!("{:.1}", r)
    } else {
        format!("{r}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Real(r) => f.write_str(&format_real(*r)),
            Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Boolean(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::row_fingerprint;

    #[test]
    fn three_valued_logic_tables() {
        use TruthValue::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
    }

    #[test]
    fn null_propagates_in_equality() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), TruthValue::Unknown);
        assert_eq!(
            Value::Integer(1).sql_eq(&Value::Integer(1)),
            TruthValue::True
        );
        assert_eq!(
            Value::Integer(1).sql_eq(&Value::Integer(2)),
            TruthValue::False
        );
    }

    #[test]
    fn numeric_prefix_parsing() {
        assert_eq!(parse_numeric_prefix("12abc"), 12.0);
        assert_eq!(parse_numeric_prefix("  -3.5xyz"), -3.5);
        assert_eq!(parse_numeric_prefix("abc"), 0.0);
        assert_eq!(parse_numeric_prefix(""), 0.0);
        assert_eq!(parse_numeric_prefix("1e2"), 100.0);
        assert_eq!(parse_numeric_prefix("1e"), 1.0);
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Value::text("it's").to_string(), "'it''s'");
    }

    #[test]
    fn dedup_key_normalises_integral_reals() {
        assert_eq!(Value::Real(1.0).dedup_key(), Value::Integer(1).dedup_key());
        assert_ne!(Value::Real(1.5).dedup_key(), Value::Integer(1).dedup_key());
        assert_eq!(
            Value::Boolean(true).dedup_key(),
            Value::Integer(1).dedup_key()
        );
    }

    #[test]
    fn row_fingerprint_matches_dedup_key_identity() {
        let samples = [
            Value::Null,
            Value::Integer(0),
            Value::Integer(1),
            Value::Real(0.0),
            Value::Real(1.0),
            Value::Real(1.5),
            Value::Real(-0.0),
            Value::Real(f64::INFINITY),
            Value::Real(f64::NEG_INFINITY),
            Value::Real(f64::NAN),
            Value::Real(-f64::NAN),
            Value::Real(f64::from_bits(f64::NAN.to_bits() | 1)),
            // Each side of the 9.0e15 integral-real cut-off.
            Value::Real(8_999_999_999_999_999.0),
            Value::Integer(8_999_999_999_999_999),
            Value::Real(9.0e15),
            Value::Integer(9_000_000_000_000_000),
            Value::Real(-9.0e15),
            Value::Integer(-9_000_000_000_000_000),
            Value::Boolean(true),
            Value::Boolean(false),
            Value::text("1"),
            Value::text("I1"),
            Value::text("\u{0}N"),
            Value::text(""),
            Value::text("a'b"),
        ];
        for a in &samples {
            for b in &samples {
                let legacy = a.dedup_key() == b.dedup_key();
                assert_eq!(
                    legacy,
                    row_fingerprint(std::slice::from_ref(a))
                        == row_fingerprint(std::slice::from_ref(b)),
                    "fingerprint disagreement: {a:?} vs {b:?}"
                );
                assert_eq!(
                    legacy,
                    a.dedup_eq(b),
                    "comparator disagreement: {a:?} vs {b:?}"
                );
            }
        }
        // The pairs the identity is built around, spelled out.
        assert!(Value::Boolean(true).dedup_eq(&Value::Integer(1)));
        assert!(Value::Integer(1).dedup_eq(&Value::Real(1.0)));
        assert!(Value::Real(-0.0).dedup_eq(&Value::Integer(0)));
        assert!(Value::Real(f64::NAN).dedup_eq(&Value::Real(-f64::NAN)));
        assert!(!Value::Real(9.0e15).dedup_eq(&Value::Integer(9_000_000_000_000_000)));
        assert!(!Value::text("I1").dedup_eq(&Value::Integer(1)));
        assert!(!Value::text("\u{0}N").dedup_eq(&Value::Null));
    }

    #[test]
    fn row_fingerprint_distinguishes_row_shapes() {
        // Concatenation ambiguity: ["ab"] vs ["a", "b"] must differ.
        let joined = row_fingerprint(&[Value::text("ab")]);
        let split = row_fingerprint(&[Value::text("a"), Value::text("b")]);
        assert_ne!(joined, split);
        assert_ne!(
            row_fingerprint(&[Value::Null]),
            row_fingerprint(&[Value::Null, Value::Null])
        );
    }

    #[test]
    fn total_order_is_stable_across_types() {
        let mut values = [
            Value::text("a"),
            Value::Integer(5),
            Value::Null,
            Value::Boolean(true),
            Value::Real(2.5),
        ];
        values.sort_by(|a, b| a.total_cmp(b));
        assert!(values[0].is_null());
        assert_eq!(values[1], Value::Boolean(true));
        assert_eq!(values.last().unwrap(), &Value::text("a"));
    }

    #[test]
    fn truthiness_modes_differ_on_text() {
        assert_eq!(Value::text("1").truthiness_dynamic(), TruthValue::True);
        assert_eq!(Value::text("1").truthiness_strict(), None);
        assert_eq!(
            Value::Boolean(false).truthiness_strict(),
            Some(TruthValue::False)
        );
    }
}
