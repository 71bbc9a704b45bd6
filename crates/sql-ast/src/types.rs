//! SQL data types used by the generator, the parser, and the engine.
//!
//! The paper's generator produces columns of three data types (integer, string
//! and boolean, see Table 6); expression evaluation may additionally produce
//! real numbers (e.g. `SIN(1)`), so the type lattice here contains a `Real`
//! member even though column generation never uses it directly.

use std::fmt;

/// A SQL data type.
///
/// # Examples
///
/// ```
/// use sql_ast::DataType;
///
/// assert_eq!(DataType::Integer.to_string(), "INTEGER");
/// assert!(DataType::Integer.is_numeric());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// 64-bit signed integer (`INTEGER`).
    Integer,
    /// Double-precision floating point (`REAL`). Only produced by evaluation,
    /// never by the column generator.
    Real,
    /// Variable-length character string (`TEXT`).
    Text,
    /// Boolean (`BOOLEAN`).
    Boolean,
    /// The type of the `NULL` literal before any context assigns it a type.
    Null,
}

impl DataType {
    /// All types the statement generator may use for column definitions.
    pub const COLUMN_TYPES: [DataType; 3] = [DataType::Integer, DataType::Text, DataType::Boolean];

    /// All concrete (non-`Null`) types.
    pub const ALL: [DataType; 4] = [
        DataType::Integer,
        DataType::Real,
        DataType::Text,
        DataType::Boolean,
    ];

    /// Returns `true` for `INTEGER` and `REAL`.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Integer | DataType::Real)
    }

    /// Returns the keyword used in SQL text for this type.
    pub fn sql_keyword(self) -> &'static str {
        match self {
            DataType::Integer => "INTEGER",
            DataType::Real => "REAL",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
            DataType::Null => "NULL",
        }
    }

    /// Canonical feature name of the type (`TYPE_<KEYWORD>`), shared by the
    /// feature model and dialect profile gating so the two can never drift.
    pub const fn feature_name(self) -> &'static str {
        match self {
            DataType::Integer => "TYPE_INTEGER",
            DataType::Real => "TYPE_REAL",
            DataType::Text => "TYPE_TEXT",
            DataType::Boolean => "TYPE_BOOLEAN",
            DataType::Null => "TYPE_NULL",
        }
    }

    /// Parses a type keyword as it appears in SQL text.
    ///
    /// Accepts the common dialect synonyms (`INT`, `BIGINT`, `VARCHAR`,
    /// `DOUBLE`, `BOOL`, ...) so that SQL produced for one dialect can be
    /// replayed on another.
    pub fn from_keyword(word: &str) -> Option<DataType> {
        let upper = word.to_ascii_uppercase();
        Some(match upper.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" | "INT2" | "INT4" | "INT8" => {
                DataType::Integer
            }
            "REAL" | "DOUBLE" | "FLOAT" | "FLOAT4" | "FLOAT8" | "NUMERIC" | "DECIMAL" => {
                DataType::Real
            }
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" | "CHARACTER" | "CLOB" => DataType::Text,
            "BOOLEAN" | "BOOL" => DataType::Boolean,
            "NULL" => DataType::Null,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for ty in DataType::ALL {
            assert_eq!(DataType::from_keyword(ty.sql_keyword()), Some(ty));
        }
    }

    #[test]
    fn synonyms_resolve() {
        assert_eq!(DataType::from_keyword("int"), Some(DataType::Integer));
        assert_eq!(DataType::from_keyword("VARCHAR"), Some(DataType::Text));
        assert_eq!(DataType::from_keyword("bool"), Some(DataType::Boolean));
        assert_eq!(DataType::from_keyword("double"), Some(DataType::Real));
        assert_eq!(DataType::from_keyword("blob"), None);
    }

    #[test]
    fn numeric_classification() {
        assert!(DataType::Integer.is_numeric());
        assert!(DataType::Real.is_numeric());
        assert!(!DataType::Text.is_numeric());
        assert!(!DataType::Boolean.is_numeric());
        assert!(!DataType::Null.is_numeric());
    }

    #[test]
    fn column_types_subset_of_all() {
        for ty in DataType::COLUMN_TYPES {
            assert!(DataType::ALL.contains(&ty));
        }
    }
}
