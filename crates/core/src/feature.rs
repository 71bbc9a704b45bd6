//! The SQL *feature* universe.
//!
//! A feature is "an element or property in the query language, which we
//! expect to be either supported or unsupported by a given DBMS"
//! (Section 3). Features drive two mechanisms:
//!
//! 1. the adaptive generator learns, per feature, whether statements using
//!    it succeed, and suppresses unsupported features;
//! 2. the bug prioritizer compares the feature *sets* of bug-inducing test
//!    cases to flag likely duplicates.
//!
//! Granularities follow Table 6 of the paper: statements, clauses &
//! keywords, expressions (functions and operators), data types, plus
//! *abstract properties* (typing discipline) and *composite* features such
//! as `SIN1INT` ("the first argument of `SIN` had type INTEGER").

use crate::json::{json_name, json_record};
use sql_ast::{AggregateFunction, BinaryOp, DataType, JoinType, ScalarFunction, UnaryOp};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// An identified SQL feature.
///
/// Features are interned as strings so that composite features (which are
/// data-dependent, e.g. `FN_SIN_ARG1_INTEGER`) and structural features share
/// one representation. Structural features with fixed names (operators,
/// join types, clauses, data types) are borrowed `'static` strings, so
/// constructing and cloning them on the generation hot path never
/// allocates; only data-dependent names are owned.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Feature(Cow<'static, str>);

impl Feature {
    /// Creates a feature from its canonical name.
    pub fn new(name: impl Into<String>) -> Feature {
        Feature(Cow::Owned(name.into()))
    }

    /// Creates a feature from a `'static` canonical name, without
    /// allocating.
    pub const fn from_static(name: &'static str) -> Feature {
        Feature(Cow::Borrowed(name))
    }

    /// The canonical name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Statement-kind feature (e.g. `STMT_CREATE_INDEX`).
    pub fn statement(name: &'static str) -> Feature {
        Feature(Cow::Borrowed(name))
    }

    /// Clause/keyword feature (e.g. `CLAUSE_WHERE`, `KW_UNIQUE`).
    pub fn clause(name: &str) -> Feature {
        match clause_feature_static(name) {
            Some(feature) => Feature(Cow::Borrowed(feature)),
            None => Feature(Cow::Owned(format!("CLAUSE_{name}"))),
        }
    }

    /// Keyword feature.
    pub fn keyword(name: &str) -> Feature {
        match keyword_feature_static(name) {
            Some(feature) => Feature(Cow::Borrowed(feature)),
            None => Feature(Cow::Owned(format!("KW_{name}"))),
        }
    }

    /// Binary operator feature.
    pub fn binary_op(op: BinaryOp) -> Feature {
        Feature(Cow::Borrowed(op.feature_name()))
    }

    /// Unary operator feature.
    pub fn unary_op(op: UnaryOp) -> Feature {
        Feature(Cow::Borrowed(op.feature_name()))
    }

    /// Scalar function feature.
    pub fn function(func: ScalarFunction) -> Feature {
        Feature(Cow::Borrowed(func.feature_name()))
    }

    /// Aggregate function feature.
    pub fn aggregate(func: AggregateFunction) -> Feature {
        Feature(Cow::Borrowed(func.feature_name()))
    }

    /// Join type feature.
    pub fn join(join: JoinType) -> Feature {
        Feature(Cow::Borrowed(join.feature_name()))
    }

    /// Data type feature (for column definitions).
    pub fn data_type(ty: DataType) -> Feature {
        Feature(Cow::Borrowed(ty.feature_name()))
    }

    /// Composite function-argument-type feature, e.g. `FN_SIN_ARG1_INTEGER`
    /// (the paper's `SIN1INT`).
    pub fn function_arg_type(func: ScalarFunction, arg_index: usize, ty: DataType) -> Feature {
        Feature(Cow::Owned(format!(
            "FN_{}_ARG{}_{}",
            func.name(),
            arg_index + 1,
            ty.sql_keyword()
        )))
    }

    /// Abstract property feature (e.g. `PROP_DYNAMIC_TYPING`).
    pub fn property(name: &str) -> Feature {
        Feature(Cow::Owned(format!("PROP_{name}")))
    }
}

/// Static names for the clauses the generator emits, so the hot path avoids
/// `format!`. Unknown names fall back to an owned string.
fn clause_feature_static(name: &str) -> Option<&'static str> {
    Some(match name {
        "WHERE" => "CLAUSE_WHERE",
        "DISTINCT" => "CLAUSE_DISTINCT",
        "GROUP_BY" => "CLAUSE_GROUP_BY",
        "HAVING" => "CLAUSE_HAVING",
        "ORDER_BY" => "CLAUSE_ORDER_BY",
        "LIMIT" => "CLAUSE_LIMIT",
        "OFFSET" => "CLAUSE_OFFSET",
        "CASE" => "CLAUSE_CASE",
        "SUBQUERY" => "CLAUSE_SUBQUERY",
        "SET_OPERATION" => "CLAUSE_SET_OPERATION",
        _ => return None,
    })
}

/// Static names for the keywords the generator emits.
fn keyword_feature_static(name: &str) -> Option<&'static str> {
    Some(match name {
        "PRIMARY_KEY" => "KW_PRIMARY_KEY",
        "NOT_NULL" => "KW_NOT_NULL",
        "UNIQUE" => "KW_UNIQUE",
        "UNIQUE_INDEX" => "KW_UNIQUE_INDEX",
        "DEFAULT" => "KW_DEFAULT",
        "OR_IGNORE" => "KW_OR_IGNORE",
        "PARTIAL_INDEX" => "KW_PARTIAL_INDEX",
        _ => return None,
    })
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Feature {
    fn from(s: &str) -> Feature {
        Feature::new(s)
    }
}

/// A set of features recorded while generating a statement or test case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeatureSet {
    features: BTreeSet<Feature>,
}

impl FeatureSet {
    /// Creates an empty set.
    pub fn new() -> FeatureSet {
        FeatureSet::default()
    }

    /// Adds a feature.
    pub fn insert(&mut self, feature: Feature) {
        self.features.insert(feature);
    }

    /// Adds every feature of another set.
    pub fn extend(&mut self, other: &FeatureSet) {
        self.features.extend(other.features.iter().cloned());
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Whether the set contains a feature.
    pub fn contains(&self, feature: &Feature) -> bool {
        self.features.contains(feature)
    }

    /// Whether `self` is a subset of `other` — the prioritizer's duplicate
    /// criterion (Fig. 4).
    pub fn is_subset_of(&self, other: &FeatureSet) -> bool {
        self.features.is_subset(&other.features)
    }

    /// Iterates over the features.
    pub fn iter(&self) -> impl Iterator<Item = &Feature> {
        self.features.iter()
    }
}

impl FromIterator<Feature> for FeatureSet {
    fn from_iter<T: IntoIterator<Item = Feature>>(iter: T) -> FeatureSet {
        FeatureSet {
            features: iter.into_iter().collect(),
        }
    }
}

json_name!(Feature: Feature::name, |name: &str| Some(Feature::new(name)));

json_record!(struct FeatureSet(features));

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, feat) in self.features.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{feat}")?;
        }
        write!(f, "}}")
    }
}

/// Enumerates the complete feature universe of the generator: every
/// statement kind, clause, operator, function, join type and data type the
/// generator can emit, plus the abstract typing properties.
///
/// Figure 7 of the paper counts this universe against the features
/// hand-written generators implement; the `fig7_feature_overlap` bench
/// binary reproduces that comparison.
pub fn feature_universe() -> Vec<Feature> {
    let mut out = Vec::new();
    for stmt in [
        "STMT_CREATE_TABLE",
        "STMT_CREATE_INDEX",
        "STMT_CREATE_VIEW",
        "STMT_INSERT",
        "STMT_ANALYZE",
        "STMT_SELECT",
        "STMT_UPDATE",
        "STMT_DELETE",
        // Transaction control — the `transactions` capability the rollback
        // and isolation oracles exercise and the support model learns per
        // dialect.
        "STMT_BEGIN",
        "STMT_COMMIT",
        "STMT_ROLLBACK",
        "STMT_SAVEPOINT",
        "STMT_ROLLBACK_TO",
        "STMT_RELEASE_SAVEPOINT",
    ] {
        out.push(Feature::statement(stmt));
    }
    for clause in [
        "WHERE",
        "GROUP_BY",
        "HAVING",
        "ORDER_BY",
        "LIMIT",
        "OFFSET",
        "DISTINCT",
        "SUBQUERY",
        "SET_OPERATION",
        "CASE",
    ] {
        out.push(Feature::clause(clause));
    }
    for kw in [
        "UNIQUE_INDEX",
        "PARTIAL_INDEX",
        "PRIMARY_KEY",
        "NOT_NULL",
        "DEFAULT",
        "OR_IGNORE",
    ] {
        out.push(Feature::keyword(kw));
    }
    for op in BinaryOp::ALL {
        out.push(Feature::binary_op(op));
    }
    for op in UnaryOp::ALL {
        out.push(Feature::unary_op(op));
    }
    for func in ScalarFunction::ALL {
        out.push(Feature::function(func));
    }
    for agg in AggregateFunction::ALL {
        out.push(Feature::aggregate(agg));
    }
    for join in JoinType::ALL {
        out.push(Feature::join(join));
    }
    for ty in DataType::COLUMN_TYPES {
        out.push(Feature::data_type(ty));
    }
    out.push(Feature::property("DYNAMIC_TYPING"));
    out.push(Feature::property("IMPLICIT_CAST"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_relation_matches_paper_example() {
        // Figure 4: a prior bug with {NULLIF, !=} makes {NULLIF, !=, +} a
        // potential duplicate but not {CASE, !=}.
        let prior: FeatureSet = [
            Feature::function(ScalarFunction::Nullif),
            Feature::binary_op(BinaryOp::Neq),
        ]
        .into_iter()
        .collect();
        let with_plus: FeatureSet = [
            Feature::function(ScalarFunction::Nullif),
            Feature::binary_op(BinaryOp::Neq),
            Feature::binary_op(BinaryOp::Add),
        ]
        .into_iter()
        .collect();
        let with_case: FeatureSet = [Feature::binary_op(BinaryOp::Neq), Feature::clause("CASE")]
            .into_iter()
            .collect();
        assert!(prior.is_subset_of(&with_plus));
        assert!(!prior.is_subset_of(&with_case));
    }

    #[test]
    fn universe_is_large_and_unique() {
        let universe = feature_universe();
        let set: BTreeSet<_> = universe.iter().collect();
        assert_eq!(set.len(), universe.len());
        // Statements + clauses + 27 operators + ~60 functions + aggregates +
        // joins + types: comfortably above 100 distinct features.
        assert!(universe.len() > 100, "{}", universe.len());
    }

    #[test]
    fn composite_feature_names_follow_convention() {
        let f = Feature::function_arg_type(ScalarFunction::Sin, 0, DataType::Integer);
        assert_eq!(f.name(), "FN_SIN_ARG1_INTEGER");
    }

    #[test]
    fn feature_set_display_is_readable() {
        let set: FeatureSet = [Feature::new("A"), Feature::new("B")].into_iter().collect();
        assert_eq!(set.to_string(), "{A, B}");
    }
}
