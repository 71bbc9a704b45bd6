//! The one JSON codec behind every file the system writes: the campaign
//! checkpoint (v5), the report records of [`crate::render_report`], the
//! learned profile, the pool's resilience ledger, the flight-recorder
//! JSONL with its coverage-atlas line, and the bench artifact.
//!
//! Std-only: a value type ([`Json`]), a compact writer (no whitespace,
//! fields in insertion order, so equal values write equal bytes) and a
//! reader with a fixed nesting cap ([`MAX_DEPTH`]), so hostile input
//! yields `Err`, never a stack overflow. Integers round-trip as exact
//! `u64`; only negative or fractional numbers become `f64`.
//!
//! Typed values implement [`Codec`]. The `json_record!` macro derives both
//! directions from one field list, so a writer and its reader cannot drift
//! apart; decoders range-check every integer into its field type.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// Deepest array/object nesting the reader accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over all 64 bits.
    U64(u64),
    /// Any other number. Non-finite values write as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in order.
    Obj(Vec<(String, Json)>),
}

/// The error of an accessor that met the wrong kind of value.
fn expected(what: &str, got: &Json) -> String {
    format!("expected {what}, got {got}")
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value as one JSON Lines record: compact text plus `\n`.
    pub fn line(&self) -> String {
        format!("{self}\n")
    }

    /// The value of an object's field `key`.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        match self.as_obj()?.iter().find(|(k, _)| k == key) {
            Some((_, value)) => Ok(value),
            None => Err(format!("missing field '{key}'")),
        }
    }

    /// The value of a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::U64(n) => Ok(*n),
            other => Err(expected("an integer", other)),
        }
    }

    /// The value of a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(expected("a string", other)),
        }
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(expected("an array", other)),
        }
    }

    /// The fields of an object.
    pub fn as_obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(expected("an object", other)),
        }
    }

    /// This object with `head`'s fields in front (a non-object is returned
    /// as is).
    pub fn prefixed<'a>(self, head: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let Json::Obj(fields) = self else { return self };
        let head = head.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Obj(head.chain(fields).collect())
    }
}

/// A JSON Lines record `{"<kind>":<value>}`: one line of a checkpoint,
/// report or profile file. Read it back with [`Json::field`] when the kind
/// is known.
pub fn record(kind: &str, value: Json) -> Json {
    Json::Obj(vec![(kind.to_string(), value)])
}

/// The compact encoding: no whitespace, fields in order.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => b.fmt(f),
            Json::U64(n) => n.fmt(f),
            Json::F64(x) if x.is_finite() => x.fmt(f),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (index, item) in items.iter().enumerate() {
                    f.write_str(if index > 0 { "," } else { "" })?;
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (index, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if index > 0 { "," } else { "" })?;
                    write_str(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

macro_rules! from_impls {
    ($($ty:ty => |$v:ident| $json:expr),+ $(,)?) => {$(
        impl From<$ty> for Json {
            fn from($v: $ty) -> Json {
                $json
            }
        }
    )+};
}
from_impls!(
    bool => |b| Json::Bool(b),
    u64 => |n| Json::U64(n),
    u32 => |n| Json::U64(n.into()),
    usize => |n| Json::U64(n as u64),
    f64 => |x| Json::F64(x),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    Vec<Json> => |items| Json::Arr(items),
);

fn write_str(out: &mut impl Write, s: &str) -> std::fmt::Result {
    out.write_char('"')?;
    let mut start = 0;
    for (index, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1F => None,
            _ => continue,
        };
        out.write_str(&s[start..index])?;
        match escaped {
            Some(escaped) => out.write_str(escaped)?,
            None => write!(out, "\\u{byte:04x}")?,
        }
        start = index + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

// ----------------------------------------------------------------- reader ----

/// Parses one JSON value (surrounding whitespace allowed).
///
/// # Errors
///
/// Malformed input, nesting deeper than [`MAX_DEPTH`], or trailing bytes.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(value)
}

/// Checks that every non-empty line of `text` parses. Returns the number
/// of such lines.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut lines = text.lines().enumerate();
    lines.try_fold(0, |validated, (index, line)| match line.trim() {
        "" => Ok(validated),
        _ => parse(line)
            .map(|_| validated + 1)
            .map_err(|err| format!("line {}: {err}", index + 1)),
    })
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then requires `byte`.
    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        let found = self.eat(byte).then_some(());
        found.ok_or_else(|| format!("expected '{}' at byte {}", byte as char, self.pos))
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.container(depth + 1, b'}'),
            Some(b'[') => self.container(depth + 1, b']'),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected byte {other:#04x} at {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// An object (`close` is `}`) or an array (`]`).
    fn container(&mut self, depth: usize, close: u8) -> Result<Json, String> {
        self.pos += 1;
        let (mut fields, mut items) = (Vec::new(), Vec::new());
        self.skip_ws();
        if !self.eat(close) {
            loop {
                if close == b'}' {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth)?));
                } else {
                    items.push(self.value(depth)?);
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(if close == b'}' {
            Json::Obj(fields)
        } else {
            Json::Arr(items)
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run ends at an ASCII byte, so it is whole UTF-8.
            let run = std::str::from_utf8(&self.bytes[start..self.pos]);
            out.push_str(run.map_err(|e| e.to_string())?);
            let escape = match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.bytes.get(self.pos + 1).copied(),
                Some(_) => return Err(format!("raw control byte in string at {}", self.pos)),
                None => return Err("unterminated string".to_string()),
            };
            self.pos += 2;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }

    /// The code point of a `\u` escape whose `\u` is consumed, joining a
    /// UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = match self.hex4() {
            Some(high @ 0xD800..=0xDBFF) if self.eat(b'\\') && self.eat(b'u') => self
                .hex4()
                .filter(|low| (0xDC00..0xE000).contains(low))
                .map(|low| 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)),
            code => code,
        };
        code.and_then(char::from_u32)
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = std::str::from_utf8(self.bytes.get(self.pos..self.pos + 4)?).ok()?;
        self.pos += 4;
        let hex = Some(digits).filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))?;
        u32::from_str_radix(hex, 16).ok()
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let digits = self.digits();
        let mut ok = digits > 0 && !(leading_zero && digits > 1);
        let mut integral = !negative;
        if self.eat(b'.') {
            integral = false;
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        match text.parse::<u64>() {
            Ok(n) if ok && integral => Ok(Json::U64(n)),
            _ if ok => text.parse().map(Json::F64).map_err(|e| e.to_string()),
            _ => Err(format!("malformed number at byte {start}")),
        }
    }

    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            return Err(format!("malformed literal at byte {}", self.pos));
        }
        self.pos += literal.len();
        Ok(value)
    }
}

// ------------------------------------------------------------------ codec ----

/// A type with one JSON encoding, written and read by the same code.
pub trait Codec: Sized {
    /// The value's JSON encoding.
    fn encode(&self) -> Json;

    /// Rebuilds the value, rejecting anything out of range.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with `json`.
    fn decode(json: &Json) -> Result<Self, String>;
}

/// Derives [`Codec`] for a struct from one field list:
///
/// * `json_record!(struct T { a, b: "key" })` — an object; `b` travels
///   under `"key"`;
/// * `json_record!(struct T [a, b])` — a positional array, for
///   high-volume rows;
/// * `json_record!(struct T(a))` — transparent: `T` travels as its one
///   field `a`.
///
/// A trailing `..` leaves the remaining fields out of the encoding; they
/// decode as `Default::default()`.
macro_rules! json_record {
    (struct $ty:ident { $($field:ident $(: $key:literal)?),+ $(,)? }) => {
        $crate::json::json_record!(@object $ty { $($field $(: $key)?),+ } []);
    };
    (struct $ty:ident { $($field:ident $(: $key:literal)?),+ , .. }) => {
        $crate::json::json_record!(@object $ty { $($field $(: $key)?),+ } [..Default::default()]);
    };
    (struct $ty:ident [ $($field:ident),+ $(,)? ]) => {
        $crate::json::json_record!(@array $ty [$($field),+] []);
    };
    (struct $ty:ident [ $($field:ident),+ , .. ]) => {
        $crate::json::json_record!(@array $ty [$($field),+] [..Default::default()]);
    };
    (struct $ty:ident ($field:ident)) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Codec::encode(&self.$field)
            }

            fn decode(json: &$crate::json::Json) -> Result<Self, String> {
                Ok(Self { $field: $crate::json::Codec::decode(json)? })
            }
        }
    };
    (@object $ty:ident { $($field:ident $(: $key:literal)?),+ } [$($rest:tt)*]) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![$((
                    $crate::json::json_record!(@key $field $($key)?).to_string(),
                    $crate::json::Codec::encode(&self.$field),
                )),+])
            }

            fn decode(json: &$crate::json::Json) -> Result<Self, String> {
                Ok(Self {
                    $($field: {
                        let key = $crate::json::json_record!(@key $field $($key)?);
                        $crate::json::Codec::decode(json.field(key)?)
                            .map_err(|err| format!("{key}: {err}"))?
                    },)+
                    $($rest)*
                })
            }
        }
    };
    (@array $ty:ident [ $($field:ident),+ ] [$($rest:tt)*]) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::Arr(vec![$($crate::json::Codec::encode(&self.$field)),+])
            }

            fn decode(json: &$crate::json::Json) -> Result<Self, String> {
                let names = [$(stringify!($field)),+];
                let items = json.as_arr()?;
                if items.len() != names.len() {
                    return Err(format!("expected {} items, got {}", names.len(), items.len()));
                }
                let mut items = items.iter();
                Ok(Self {
                    $($field: $crate::json::Codec::decode(items.next().expect("length checked"))
                        .map_err(|err| format!("{}: {err}", stringify!($field)))?,)+
                    $($rest)*
                })
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}
pub(crate) use json_record;

/// Derives [`Codec`] for a type that travels as its name:
/// `json_name!(T: name, parse)`, where `name` maps a value to its text and
/// `parse` maps the text back (`None` rejects it).
macro_rules! json_name {
    ($ty:ty: $name:expr, $parse:expr) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::from(($name)(self))
            }

            fn decode(json: &$crate::json::Json) -> Result<Self, String> {
                let name = json.as_str()?;
                ($parse)(name).ok_or_else(|| format!("unknown {} '{name}'", stringify!($ty)))
            }
        }
    };
}
pub(crate) use json_name;

json_name!(String: String::as_str, |s: &str| Some(s.to_string()));

impl Codec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(json: &Json) -> Result<bool, String> {
        match json {
            Json::Bool(b) => Ok(*b),
            other => Err(expected("a boolean", other)),
        }
    }
}

macro_rules! integer_codec {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            fn encode(&self) -> Json {
                Json::U64(u64::try_from(*self).expect("fits in u64"))
            }

            fn decode(json: &Json) -> Result<$ty, String> {
                let n = json.as_u64()?;
                <$ty>::try_from(n)
                    .map_err(|_| format!("{n} is out of range for {}", stringify!($ty)))
            }
        }
    )+};
}
integer_codec!(u8, u32, u64, usize);

/// An `f64` travels as its IEEE-754 bits, so it round-trips exactly.
impl Codec for f64 {
    fn encode(&self) -> Json {
        Json::U64(self.to_bits())
    }

    fn decode(json: &Json) -> Result<f64, String> {
        json.as_u64().map(f64::from_bits)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Codec::encode).collect())
    }

    fn decode(json: &Json) -> Result<Vec<T>, String> {
        json.as_arr()?.iter().map(T::decode).collect()
    }
}

/// A set travels as an array, ascending.
impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Codec::encode).collect())
    }

    fn decode(json: &Json) -> Result<BTreeSet<T>, String> {
        json.as_arr()?.iter().map(T::decode).collect()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Codec::encode)
    }

    fn decode(json: &Json) -> Result<Option<T>, String> {
        (*json != Json::Null).then(|| T::decode(json)).transpose()
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self) -> Json {
        Json::Arr(vec![self.0.encode(), self.1.encode()])
    }

    fn decode(json: &Json) -> Result<(A, B), String> {
        match json.as_arr()? {
            [a, b] => Ok((A::decode(a)?, B::decode(b)?)),
            _ => Err(expected("a pair", json)),
        }
    }
}

/// A map travels as an object; its keys are values that encode as strings.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self) -> Json {
        let key = |k: &K| match k.encode() {
            Json::Str(key) => key,
            other => other.to_string(),
        };
        Json::Obj(self.iter().map(|(k, v)| (key(k), v.encode())).collect())
    }

    fn decode(json: &Json) -> Result<BTreeMap<K, V>, String> {
        let entry = |(k, v): &(String, Json)| {
            let value = V::decode(v).map_err(|e| format!("{k}: {e}"))?;
            Ok((K::decode(&Json::Str(k.clone()))?, value))
        };
        json.as_obj()?.iter().map(entry).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let value = Json::obj([
            ("u", Json::U64(u64::MAX)),
            ("f", Json::F64(-3.5e2)),
            ("s", Json::from("quote\" back\\ nl\n tab\t ctl\u{1} é 🦀")),
            (
                "a",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Arr(vec![])]),
            ),
            ("o", Json::obj::<&str>([])),
        ]);
        let text = value.to_string();
        assert!(!text.contains('\n'));
        assert_eq!(parse(&text).unwrap(), value);
        assert_eq!(parse(&text).unwrap().to_string(), text);
        assert_eq!(
            parse(r#""\u00e9\ud83e\udd80\/""#).unwrap(),
            Json::from("é🦀/")
        );
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(validate_jsonl("{\"ok\":true}").is_ok());
        for bad in [
            "{\"ok\":true,}",
            "{'single':1}",
            "{\"x\":1} trailing",
            "{\"x\":01}",
            "{\"x\":1e}",
            "{\"x\":01e}",
            "[1,]",
            "\"\\ud800\"",
            "\"raw\u{1}control\"",
            "",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(validate_jsonl("[1, 2, {\"y\":-3.5e+2}, null, \"s\\u00e9\"]\n\n").is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(validate_jsonl(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn integers_are_range_checked_into_their_field_type() {
        assert_eq!(u32::decode(&Json::U64(u64::from(u32::MAX))), Ok(u32::MAX));
        assert!(u32::decode(&Json::U64(u64::from(u32::MAX) + 1)).is_err());
        assert!(u8::decode(&Json::U64(256)).is_err());
        assert!(u64::decode(&Json::F64(1.5)).is_err());
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::F64(2f64.powi(64))
        );
    }
}
