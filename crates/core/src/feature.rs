//! The SQL *feature* vocabulary.
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
//!
//! The vocabulary is closed: every feature is a [`Feature`] id indexing one
//! compile-time name table built from the AST enums' `ALL` lists, so a
//! [`FeatureSet`] is a fixed-width bitset. Names only matter on the wire:
//! every encoded or rendered set iterates in name order.

use crate::json::{json_name, Codec, Json};
use sql_ast::{
    AggregateFunction, BinaryOp, DataType, JoinType, ScalarFunction, StatementKind, UnaryOp,
};
use std::fmt;

macro_rules! keywords {
    ($($variant:ident => $name:literal,)+) => {
        /// A feature named by a fixed word rather than by an AST vocabulary:
        /// clauses and keywords, the expression forms without an operator
        /// enum, and the abstract typing properties.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $(
                #[doc = concat!("`", $name, "`.")]
                $variant,
            )+
        }

        impl Keyword {
            /// Every keyword, in declaration order (`ALL[k as usize] == k`).
            pub const ALL: [Keyword; [$($name),+].len()] = [$(Keyword::$variant),+];

            /// Canonical feature name.
            pub const fn feature_name(self) -> &'static str {
                match self {
                    $(Keyword::$variant => $name,)+
                }
            }
        }
    };
}

keywords! {
    PrimaryKey => "KW_PRIMARY_KEY",
    NotNull => "KW_NOT_NULL",
    Unique => "KW_UNIQUE",
    Default => "KW_DEFAULT",
    UniqueIndex => "KW_UNIQUE_INDEX",
    PartialIndex => "KW_PARTIAL_INDEX",
    OrIgnore => "KW_OR_IGNORE",
    Distinct => "CLAUSE_DISTINCT",
    Where => "CLAUSE_WHERE",
    GroupBy => "CLAUSE_GROUP_BY",
    Having => "CLAUSE_HAVING",
    OrderBy => "CLAUSE_ORDER_BY",
    Limit => "CLAUSE_LIMIT",
    Offset => "CLAUSE_OFFSET",
    SetOperation => "CLAUSE_SET_OPERATION",
    Subquery => "CLAUSE_SUBQUERY",
    Case => "CLAUSE_CASE",
    Cast => "OP_CAST",
    Between => "OP_BETWEEN",
    In => "OP_IN",
    IsNull => "OP_IS_NULL",
    IsBool => "OP_IS_BOOL",
    Like => "OP_LIKE",
    DynamicTyping => "PROP_DYNAMIC_TYPING",
    ImplicitCast => "PROP_IMPLICIT_CAST",
}

// The ranges of the name table, one per closed vocabulary.
const STATEMENTS: usize = 0;
const TYPES: usize = STATEMENTS + StatementKind::ALL.len();
/// `DataType::ALL` plus `Null`, which is declared last.
const JOINS: usize = TYPES + DataType::ALL.len() + 1;
const UNARIES: usize = JOINS + JoinType::ALL.len();
const BINARIES: usize = UNARIES + UnaryOp::ALL.len();
const FUNCTIONS: usize = BINARIES + BinaryOp::ALL.len();
const AGGREGATES: usize = FUNCTIONS + ScalarFunction::ALL.len();
const KEYWORDS: usize = AGGREGATES + AggregateFunction::ALL.len();
const COMPOSITES: usize = KEYWORDS + Keyword::ALL.len();
/// Composite slots per function: every argument position times every
/// concrete type.
const ARG_SLOTS: usize = ScalarFunction::MAX_ARGS * DataType::ALL.len();
const COUNT: usize = COMPOSITES + ScalarFunction::ALL.len() * ARG_SLOTS;

/// Every feature name, indexed by [`Feature`] id.
static NAMES: [&str; COUNT] = {
    let mut names = [""; COUNT];
    let mut i = 0;
    while i < COUNT {
        names[i] = if i < TYPES {
            StatementKind::ALL[i - STATEMENTS].feature_name()
        } else if i < JOINS - 1 {
            DataType::ALL[i - TYPES].feature_name()
        } else if i < JOINS {
            DataType::Null.feature_name()
        } else if i < UNARIES {
            JoinType::ALL[i - JOINS].feature_name()
        } else if i < BINARIES {
            UnaryOp::ALL[i - UNARIES].feature_name()
        } else if i < FUNCTIONS {
            BinaryOp::ALL[i - BINARIES].feature_name()
        } else if i < AGGREGATES {
            ScalarFunction::ALL[i - FUNCTIONS].feature_name()
        } else if i < KEYWORDS {
            AggregateFunction::ALL[i - AGGREGATES].feature_name()
        } else if i < COMPOSITES {
            Keyword::ALL[i - KEYWORDS].feature_name()
        } else {
            let slot = (i - COMPOSITES) % ARG_SLOTS;
            ScalarFunction::ALL[(i - COMPOSITES) / ARG_SLOTS].arg_type_feature_name(
                slot / DataType::ALL.len(),
                DataType::ALL[slot % DataType::ALL.len()],
            )
        };
        i += 1;
    }
    names
};

/// Byte-wise `a < b`, the order of `str`'s `Ord`.
const fn name_less(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// Every feature id in name order (a bottom-up merge sort of the name
/// table): the order every encoded or rendered set iterates in.
static BY_NAME: [u16; COUNT] = {
    let mut run = [0u16; COUNT];
    let mut i = 0;
    while i < COUNT {
        run[i] = i as u16;
        i += 1;
    }
    let mut merged = [0u16; COUNT];
    let mut width = 1;
    while width < COUNT {
        let mut lo = 0;
        while lo < COUNT {
            let mid = if lo + width < COUNT {
                lo + width
            } else {
                COUNT
            };
            let hi = if lo + 2 * width < COUNT {
                lo + 2 * width
            } else {
                COUNT
            };
            let (mut left, mut right, mut out) = (lo, mid, lo);
            while out < hi {
                let take_left = right >= hi
                    || (left < mid
                        && !name_less(NAMES[run[right] as usize], NAMES[run[left] as usize]));
                if take_left {
                    merged[out] = run[left];
                    left += 1;
                } else {
                    merged[out] = run[right];
                    right += 1;
                }
                out += 1;
            }
            lo = hi;
        }
        let previous = run;
        run = merged;
        merged = previous;
        width *= 2;
    }
    run
};

/// An identified SQL feature: an index into the closed vocabulary, so
/// constructing, copying and comparing one never allocates. Its canonical
/// name is [`Feature::name`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Feature(u16);

impl Feature {
    /// Size of the vocabulary.
    pub const COUNT: usize = COUNT;

    const fn at(index: usize) -> Feature {
        Feature(index as u16)
    }

    /// Statement-kind feature (e.g. `STMT_CREATE_INDEX`).
    pub const fn statement(kind: StatementKind) -> Feature {
        Feature::at(STATEMENTS + kind as usize)
    }

    /// Data type feature (`TYPE_<KEYWORD>`, including `TYPE_NULL`).
    pub const fn data_type(ty: DataType) -> Feature {
        Feature::at(TYPES + ty as usize)
    }

    /// Join type feature.
    pub const fn join(join: JoinType) -> Feature {
        Feature::at(JOINS + join as usize)
    }

    /// Unary operator feature.
    pub const fn unary_op(op: UnaryOp) -> Feature {
        Feature::at(UNARIES + op as usize)
    }

    /// Binary operator feature.
    pub const fn binary_op(op: BinaryOp) -> Feature {
        Feature::at(BINARIES + op as usize)
    }

    /// Scalar function feature.
    pub const fn function(func: ScalarFunction) -> Feature {
        Feature::at(FUNCTIONS + func as usize)
    }

    /// Aggregate function feature.
    pub const fn aggregate(func: AggregateFunction) -> Feature {
        Feature::at(AGGREGATES + func as usize)
    }

    /// Clause, keyword, expression-form or property feature (e.g.
    /// `CLAUSE_WHERE`, `KW_UNIQUE`, `PROP_IMPLICIT_CAST`).
    pub const fn keyword(keyword: Keyword) -> Feature {
        Feature::at(KEYWORDS + keyword as usize)
    }

    /// Composite function-argument-type feature, e.g. `FN_SIN_ARG1_INTEGER`
    /// (the paper's `SIN1INT`). `arg_index` is zero-based and below
    /// [`ScalarFunction::MAX_ARGS`]; `ty` is not `Null`.
    pub const fn function_arg_type(
        func: ScalarFunction,
        arg_index: usize,
        ty: DataType,
    ) -> Feature {
        assert!(
            arg_index < ScalarFunction::MAX_ARGS,
            "argument index out of range"
        );
        assert!(
            !matches!(ty, DataType::Null),
            "NULL has no argument-type feature"
        );
        Feature::at(
            COMPOSITES + func as usize * ARG_SLOTS + arg_index * DataType::ALL.len() + ty as usize,
        )
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        NAMES[usize::from(self.0)]
    }

    /// The feature with canonical name `name`, if the vocabulary has one.
    pub fn from_name(name: &str) -> Option<Feature> {
        BY_NAME
            .binary_search_by(|&id| NAMES[usize::from(id)].cmp(name))
            .ok()
            .map(|at| Feature(BY_NAME[at]))
    }

    /// Every feature of the vocabulary, in id order.
    pub fn all() -> impl Iterator<Item = Feature> {
        (0..COUNT).map(Feature::at)
    }

    /// The feature's id: its index in the vocabulary.
    pub(crate) fn index(self) -> usize {
        usize::from(self.0)
    }

    const fn word(self) -> (usize, u64) {
        ((self.0 / 64) as usize, 1 << (self.0 % 64))
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

json_name!(Feature: |feature: &Feature| feature.name(), Feature::from_name);

const WORDS: usize = COUNT.div_ceil(64);

/// A set of features recorded while generating a statement or test case:
/// one bit per vocabulary entry, so union and subset tests are a few word
/// operations and the set never allocates.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct FeatureSet([u64; WORDS]);

/// The generator's feature universe (see [`FeatureSet::universe`]).
const UNIVERSE: FeatureSet = {
    let mut set = FeatureSet::new();
    let statements = [
        StatementKind::CreateTable,
        StatementKind::CreateIndex,
        StatementKind::CreateView,
        StatementKind::Insert,
        StatementKind::Analyze,
        StatementKind::Select,
        StatementKind::Update,
        StatementKind::Delete,
        // Transaction control — the `transactions` capability the rollback
        // and isolation oracles exercise and the support model learns per
        // dialect.
        StatementKind::Begin,
        StatementKind::Commit,
        StatementKind::Rollback,
        StatementKind::Savepoint,
        StatementKind::RollbackTo,
        StatementKind::ReleaseSavepoint,
    ];
    let mut i = 0;
    while i < statements.len() {
        set.insert(Feature::statement(statements[i]));
        i += 1;
    }
    let keywords = [
        Keyword::Where,
        Keyword::GroupBy,
        Keyword::Having,
        Keyword::OrderBy,
        Keyword::Limit,
        Keyword::Offset,
        Keyword::Distinct,
        Keyword::Subquery,
        Keyword::SetOperation,
        Keyword::Case,
        Keyword::UniqueIndex,
        Keyword::PartialIndex,
        Keyword::PrimaryKey,
        Keyword::NotNull,
        Keyword::Default,
        Keyword::OrIgnore,
        Keyword::DynamicTyping,
        Keyword::ImplicitCast,
    ];
    let mut i = 0;
    while i < keywords.len() {
        set.insert(Feature::keyword(keywords[i]));
        i += 1;
    }
    let mut i = 0;
    while i < DataType::COLUMN_TYPES.len() {
        set.insert(Feature::data_type(DataType::COLUMN_TYPES[i]));
        i += 1;
    }
    // Joins, operators, functions and aggregates: whole ranges.
    let mut i = JOINS;
    while i < KEYWORDS {
        set.insert(Feature::at(i));
        i += 1;
    }
    set
};

impl FeatureSet {
    /// Creates an empty set.
    pub const fn new() -> FeatureSet {
        FeatureSet([0; WORDS])
    }

    /// The complete feature universe of the generator: every statement
    /// kind, clause, operator, function, join type and column data type
    /// the generator can emit, plus the abstract typing properties — no
    /// composites. It is what the perfect-knowledge baseline is told and
    /// what coverage direction counts as cold.
    ///
    /// Figure 7 of the paper counts this universe against the features
    /// hand-written generators implement; the `fig7_feature_overlap` bench
    /// binary reproduces that comparison.
    pub const fn universe() -> FeatureSet {
        UNIVERSE
    }

    /// Adds a feature.
    #[inline]
    pub const fn insert(&mut self, feature: Feature) {
        let (word, bit) = feature.word();
        self.0[word] |= bit;
    }

    /// Adds every feature of another set.
    #[inline]
    pub fn extend(&mut self, other: &FeatureSet) {
        for (word, theirs) in self.0.iter_mut().zip(other.0) {
            *word |= theirs;
        }
    }

    /// The features of `self` that are not in `other`.
    pub fn difference(&self, other: &FeatureSet) -> FeatureSet {
        let mut out = self.clone();
        for (word, theirs) in out.0.iter_mut().zip(other.0) {
            *word &= !theirs;
        }
        out
    }

    /// Every vocabulary feature not in the set.
    pub fn complement(&self) -> FeatureSet {
        let mut out = FeatureSet::new();
        for (index, (word, mine)) in out.0.iter_mut().zip(self.0).enumerate() {
            let in_vocabulary = match COUNT - index * 64 {
                bits @ 0..64 => (1 << bits) - 1,
                _ => u64::MAX,
            };
            *word = !mine & in_vocabulary;
        }
        out
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|word| *word == 0)
    }

    /// Whether the set contains a feature.
    #[inline]
    pub fn contains(&self, feature: Feature) -> bool {
        let (word, bit) = feature.word();
        self.0[word] & bit != 0
    }

    /// Whether `self` is a subset of `other` — the prioritizer's duplicate
    /// criterion (Fig. 4).
    pub fn is_subset_of(&self, other: &FeatureSet) -> bool {
        self.0
            .iter()
            .zip(other.0)
            .all(|(mine, theirs)| mine & !theirs == 0)
    }

    /// Iterates over the features in name order.
    pub fn iter(&self) -> impl Iterator<Item = Feature> + '_ {
        BY_NAME
            .iter()
            .map(|&id| Feature(id))
            .filter(|feature| self.contains(*feature))
    }

    /// Iterates over the features in id order — cheaper than
    /// [`FeatureSet::iter`], for callers the order does not reach.
    pub(crate) fn ids(&self) -> impl Iterator<Item = Feature> + '_ {
        self.0.iter().enumerate().flat_map(|(index, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(Feature::at(index * 64 + bit))
            })
        })
    }
}

impl FromIterator<Feature> for FeatureSet {
    fn from_iter<T: IntoIterator<Item = Feature>>(iter: T) -> FeatureSet {
        let mut set = FeatureSet::new();
        for feature in iter {
            set.insert(feature);
        }
        set
    }
}

/// A set travels as an array of names, ascending.
impl Codec for FeatureSet {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(|feature| feature.encode()).collect())
    }

    fn decode(json: &Json) -> Result<FeatureSet, String> {
        json.as_arr()?.iter().map(Feature::decode).collect()
    }
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, feat) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{feat}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn named(name: &str) -> Feature {
        Feature::from_name(name).unwrap_or_else(|| panic!("{name} is not a feature"))
    }

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
        let with_case: FeatureSet = [
            Feature::binary_op(BinaryOp::Neq),
            Feature::keyword(Keyword::Case),
        ]
        .into_iter()
        .collect();
        assert!(prior.is_subset_of(&with_plus));
        assert!(!prior.is_subset_of(&with_case));
    }

    #[test]
    fn names_are_unique_and_resolve_to_their_id() {
        let names: BTreeSet<_> = NAMES.iter().collect();
        assert_eq!(names.len(), COUNT, "a feature is named twice");
        assert!(NAMES.iter().all(|name| !name.is_empty()));
        for feature in Feature::all() {
            assert_eq!(Feature::from_name(feature.name()), Some(feature));
        }
        assert_eq!(Feature::from_name("KW_NOT_A_FEATURE"), None);
        assert_eq!(Feature::from_name(""), None);
        let sorted: Vec<_> = BY_NAME.iter().map(|&id| NAMES[usize::from(id)]).collect();
        assert!(sorted.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn each_constructor_names_its_feature() {
        for kind in StatementKind::ALL {
            assert_eq!(Feature::statement(kind).name(), kind.feature_name());
        }
        for ty in DataType::ALL.into_iter().chain([DataType::Null]) {
            assert_eq!(Feature::data_type(ty).name(), ty.feature_name());
        }
        for join in JoinType::ALL {
            assert_eq!(Feature::join(join).name(), join.feature_name());
        }
        for op in UnaryOp::ALL {
            assert_eq!(Feature::unary_op(op).name(), op.feature_name());
        }
        for op in BinaryOp::ALL {
            assert_eq!(Feature::binary_op(op).name(), op.feature_name());
        }
        for func in ScalarFunction::ALL {
            assert_eq!(Feature::function(func).name(), func.feature_name());
            for arg in 0..ScalarFunction::MAX_ARGS {
                for ty in DataType::ALL {
                    assert_eq!(
                        Feature::function_arg_type(func, arg, ty).name(),
                        func.arg_type_feature_name(arg, ty)
                    );
                }
            }
        }
        for agg in AggregateFunction::ALL {
            assert_eq!(Feature::aggregate(agg).name(), agg.feature_name());
        }
        for keyword in Keyword::ALL {
            assert_eq!(Feature::keyword(keyword).name(), keyword.feature_name());
        }
    }

    #[test]
    fn universe_is_large_and_has_no_composites() {
        let universe = FeatureSet::universe();
        // Statements + clauses + 27 operators + ~60 functions + aggregates +
        // joins + types: comfortably above 100 distinct features.
        assert_eq!(universe.len(), 133);
        assert!(universe.iter().all(|f| !f.name().contains("_ARG")));
        for name in [
            "OP_IN",
            "OP_BETWEEN",
            "OP_LIKE",
            "OP_IS_NULL",
            "OP_CAST",
            "KW_UNIQUE",
        ] {
            assert!(!universe.contains(named(name)), "{name}");
        }
        for name in ["STMT_DROP", "STMT_REFRESH", "TYPE_REAL", "TYPE_NULL"] {
            assert!(!universe.contains(named(name)), "{name}");
        }
        for name in [
            "PROP_IMPLICIT_CAST",
            "KW_OR_IGNORE",
            "JOIN_NATURAL",
            "AGG_TOTAL",
        ] {
            assert!(universe.contains(named(name)), "{name}");
        }
    }

    #[test]
    fn composite_feature_names_follow_convention() {
        let f = Feature::function_arg_type(ScalarFunction::Sin, 0, DataType::Integer);
        assert_eq!(f.name(), "FN_SIN_ARG1_INTEGER");
        assert_eq!(
            named("FN_GREATEST_ARG4_BOOLEAN").name(),
            "FN_GREATEST_ARG4_BOOLEAN"
        );
    }

    #[test]
    fn feature_set_display_is_readable() {
        let set: FeatureSet = [named("OP_EQ"), named("FN_ABS")].into_iter().collect();
        assert_eq!(set.to_string(), "{FN_ABS, OP_EQ}");
        assert_eq!(format!("{set:?}"), "{FN_ABS, OP_EQ}");
    }

    #[test]
    fn an_unknown_name_fails_to_decode_and_names_itself() {
        let json = crate::json::parse(r#"["OP_EQ","OP_WARP"]"#).unwrap();
        let err = FeatureSet::decode(&json).unwrap_err();
        assert!(err.contains("OP_WARP"), "{err}");
    }
}
