//! Execution coverage accounting.
//!
//! The paper (Section 5.3, Table 3) compares line/branch coverage of the
//! C/C++ DBMSs under different generator configurations. The simulated
//! engine cannot be measured with `gcov`, so it records which of its own
//! *plan operators*, *scalar functions*, *binary/unary operators* and
//! *coercion paths* were exercised. The comparison the paper makes is
//! relative (feedback vs no feedback vs hand-written generator), which this
//! proxy preserves.
//!
//! Every plane's vocabulary is closed at compile time, so each plane is a
//! bitset over a static table of point names: [`PlanOperator::ALL`], the
//! scalar then aggregate functions, the binary then unary operators, the
//! 25 `FROM->TO` coercions of the [`DataType`] pairs plus `mixed->numeric`,
//! and [`StatementKind::ALL`]. Call sites pass the typed point, so
//! recording is one OR, merging is one OR per plane, and a tracker is a
//! plain `Copy` value: a `BEGIN` snapshot or an engine clone copies it and
//! never allocates. Point names are read from the tables only when a plane
//! is listed ([`CoveragePoints::iter`]).

use sql_ast::{
    AggregateFunction, BinaryOp, DataType, JoinType, ScalarFunction, StatementKind, UnaryOp,
};
use std::fmt;

/// A plan operator the engine records when it runs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOperator {
    /// A full scan of a stored table (`seq_scan`).
    SeqScan,
    /// An index probe on an equality predicate (`index_lookup`).
    IndexLookup,
    /// A view expanded into its query (`view_expansion`).
    ViewExpansion,
    /// A subquery in FROM (`derived_table`).
    DerivedTable,
    /// A comma product of FROM factors (`cross_product`).
    CrossProduct,
    /// A join, recorded as its join type's feature name (`JOIN_<KIND>`).
    Join(JoinType),
    /// A WHERE predicate applied to rows (`filter`).
    Filter,
    /// Grouping and aggregation of a query (`group_by`).
    GroupBy,
    /// One aggregate function evaluated over a group (`aggregate`).
    Aggregate,
    /// The SELECT list evaluated per row (`projection`).
    Projection,
    /// `SELECT DISTINCT` (`distinct`).
    Distinct,
    /// `UNION`/`INTERSECT`/`EXCEPT` (`set_operation`).
    SetOperation,
    /// `ORDER BY` (`sort`).
    Sort,
}

impl PlanOperator {
    /// Every plan operator, in the order of the plane's table.
    pub const ALL: [PlanOperator; 18] = [
        PlanOperator::SeqScan,
        PlanOperator::IndexLookup,
        PlanOperator::ViewExpansion,
        PlanOperator::DerivedTable,
        PlanOperator::CrossProduct,
        PlanOperator::Join(JoinType::Inner),
        PlanOperator::Join(JoinType::Left),
        PlanOperator::Join(JoinType::Right),
        PlanOperator::Join(JoinType::Full),
        PlanOperator::Join(JoinType::Cross),
        PlanOperator::Join(JoinType::Natural),
        PlanOperator::Filter,
        PlanOperator::GroupBy,
        PlanOperator::Aggregate,
        PlanOperator::Projection,
        PlanOperator::Distinct,
        PlanOperator::SetOperation,
        PlanOperator::Sort,
    ];

    /// The operator's position in [`PlanOperator::ALL`].
    const fn index(self) -> usize {
        match self {
            PlanOperator::SeqScan => 0,
            PlanOperator::IndexLookup => 1,
            PlanOperator::ViewExpansion => 2,
            PlanOperator::DerivedTable => 3,
            PlanOperator::CrossProduct => 4,
            PlanOperator::Join(join) => 5 + join as usize,
            PlanOperator::Filter => 11,
            PlanOperator::GroupBy => 12,
            PlanOperator::Aggregate => 13,
            PlanOperator::Projection => 14,
            PlanOperator::Distinct => 15,
            PlanOperator::SetOperation => 16,
            PlanOperator::Sort => 17,
        }
    }

    /// The coverage point's name.
    pub const fn name(self) -> &'static str {
        match self {
            PlanOperator::SeqScan => "seq_scan",
            PlanOperator::IndexLookup => "index_lookup",
            PlanOperator::ViewExpansion => "view_expansion",
            PlanOperator::DerivedTable => "derived_table",
            PlanOperator::CrossProduct => "cross_product",
            PlanOperator::Join(join) => join.feature_name(),
            PlanOperator::Filter => "filter",
            PlanOperator::GroupBy => "group_by",
            PlanOperator::Aggregate => "aggregate",
            PlanOperator::Projection => "projection",
            PlanOperator::Distinct => "distinct",
            PlanOperator::SetOperation => "set_operation",
            PlanOperator::Sort => "sort",
        }
    }
}

const SCALARS: usize = ScalarFunction::ALL.len();
const BINARIES: usize = BinaryOp::ALL.len();
/// The five [`DataType`]s, `Null` last (`DataType::Null as usize == 4`).
const TYPES: usize = DataType::ALL.len() + 1;
const MIXED_NUMERIC: usize = TYPES * TYPES;

static PLAN_OPERATOR_NAMES: [&str; PlanOperator::ALL.len()] = {
    let mut names = [""; PlanOperator::ALL.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PlanOperator::ALL[i].name();
        i += 1;
    }
    names
};

static FUNCTION_NAMES: [&str; SCALARS + AggregateFunction::ALL.len()] = {
    let mut names = [""; SCALARS + AggregateFunction::ALL.len()];
    let mut i = 0;
    while i < SCALARS {
        names[i] = ScalarFunction::ALL[i].name();
        i += 1;
    }
    while i < names.len() {
        names[i] = AggregateFunction::ALL[i - SCALARS].name();
        i += 1;
    }
    names
};

static OPERATOR_NAMES: [&str; BINARIES + UnaryOp::ALL.len()] = {
    let mut names = [""; BINARIES + UnaryOp::ALL.len()];
    let mut i = 0;
    while i < BINARIES {
        names[i] = BinaryOp::ALL[i].feature_name();
        i += 1;
    }
    while i < names.len() {
        names[i] = UnaryOp::ALL[i - BINARIES].feature_name();
        i += 1;
    }
    names
};

/// `FROM->TO` over the types' SQL keywords, indexed by
/// `from as usize * 5 + to as usize`, then the dynamic-typing comparison of
/// a number with a non-number.
static COERCION_NAMES: [&str; MIXED_NUMERIC + 1] = [
    "INTEGER->INTEGER",
    "INTEGER->REAL",
    "INTEGER->TEXT",
    "INTEGER->BOOLEAN",
    "INTEGER->NULL",
    "REAL->INTEGER",
    "REAL->REAL",
    "REAL->TEXT",
    "REAL->BOOLEAN",
    "REAL->NULL",
    "TEXT->INTEGER",
    "TEXT->REAL",
    "TEXT->TEXT",
    "TEXT->BOOLEAN",
    "TEXT->NULL",
    "BOOLEAN->INTEGER",
    "BOOLEAN->REAL",
    "BOOLEAN->TEXT",
    "BOOLEAN->BOOLEAN",
    "BOOLEAN->NULL",
    "NULL->INTEGER",
    "NULL->REAL",
    "NULL->TEXT",
    "NULL->BOOLEAN",
    "NULL->NULL",
    "mixed->numeric",
];

static STATEMENT_NAMES: [&str; StatementKind::ALL.len()] = {
    let mut names = [""; StatementKind::ALL.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = StatementKind::ALL[i].feature_name();
        i += 1;
    }
    names
};

const _: () = assert!(
    PLAN_OPERATOR_NAMES.len() <= 128
        && FUNCTION_NAMES.len() <= 128
        && OPERATOR_NAMES.len() <= 128
        && COERCION_NAMES.len() <= 128
        && STATEMENT_NAMES.len() <= 128,
    "a coverage plane holds at most 128 points"
);

/// One coverage plane's points: a bitset over the plane's static table of
/// point names. Two planes are equal when they hold the same points.
#[derive(Clone, Copy)]
pub struct CoveragePoints {
    bits: u128,
    names: &'static [&'static str],
}

impl CoveragePoints {
    const fn empty(names: &'static [&'static str]) -> CoveragePoints {
        CoveragePoints { bits: 0, names }
    }

    #[inline]
    fn insert(&mut self, index: usize) {
        self.bits |= 1 << index;
    }

    /// Number of points recorded.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// `true` when no point is recorded.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Whether the point named `name` is recorded.
    pub fn contains(&self, name: &str) -> bool {
        self.names
            .iter()
            .position(|n| *n == name)
            .is_some_and(|i| self.bits & (1 << i) != 0)
    }

    /// The recorded points' names, in table order.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        let names = self.names;
        (0..names.len())
            .filter(|&i| self.bits & (1 << i) != 0)
            .map(move |i| names[i])
    }
}

impl PartialEq for CoveragePoints {
    /// Compares the recorded points; a plane's table is fixed by which
    /// [`CoverageTracker`] field holds it.
    fn eq(&self, other: &CoveragePoints) -> bool {
        self.bits == other.bits
    }
}

impl Eq for CoveragePoints {}

impl fmt::Debug for CoveragePoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Accumulates which engine facilities have been exercised: five
/// [`CoveragePoints`] planes, copied by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageTracker {
    /// Plan operators exercised (e.g. `seq_scan`, `index_lookup`,
    /// `group_by`, `JOIN_LEFT`).
    pub plan_operators: CoveragePoints,
    /// Scalar and aggregate functions evaluated, by SQL name.
    pub functions: CoveragePoints,
    /// Unary/binary operators evaluated.
    pub operators: CoveragePoints,
    /// Coercion paths taken (e.g. `TEXT->INTEGER`).
    pub coercions: CoveragePoints,
    /// Statement kinds executed.
    pub statements: CoveragePoints,
}

impl Default for CoverageTracker {
    fn default() -> CoverageTracker {
        CoverageTracker::new()
    }
}

impl CoverageTracker {
    /// Creates an empty tracker.
    pub const fn new() -> CoverageTracker {
        CoverageTracker {
            plan_operators: CoveragePoints::empty(&PLAN_OPERATOR_NAMES),
            functions: CoveragePoints::empty(&FUNCTION_NAMES),
            operators: CoveragePoints::empty(&OPERATOR_NAMES),
            coercions: CoveragePoints::empty(&COERCION_NAMES),
            statements: CoveragePoints::empty(&STATEMENT_NAMES),
        }
    }

    /// Records a plan operator.
    #[inline]
    pub fn plan_operator(&mut self, op: PlanOperator) {
        self.plan_operators.insert(op.index());
    }

    /// Records a scalar function evaluation.
    #[inline]
    pub fn scalar_function(&mut self, func: ScalarFunction) {
        self.functions.insert(func as usize);
    }

    /// Records an aggregate function evaluation.
    #[inline]
    pub fn aggregate_function(&mut self, func: AggregateFunction) {
        self.functions.insert(SCALARS + func as usize);
    }

    /// Records a binary operator evaluation.
    #[inline]
    pub fn binary_operator(&mut self, op: BinaryOp) {
        self.operators.insert(op as usize);
    }

    /// Records a unary operator evaluation.
    #[inline]
    pub fn unary_operator(&mut self, op: UnaryOp) {
        self.operators.insert(BINARIES + op as usize);
    }

    /// Records the coercion path of a `from` value converted to `to`.
    #[inline]
    pub fn coercion(&mut self, from: DataType, to: DataType) {
        self.coercions.insert(from as usize * TYPES + to as usize);
    }

    /// Records the dynamic-typing comparison of a number with a non-number,
    /// both sides compared numerically (`mixed->numeric`).
    #[inline]
    pub fn mixed_numeric_coercion(&mut self) {
        self.coercions.insert(MIXED_NUMERIC);
    }

    /// Records a statement kind.
    #[inline]
    pub fn statement(&mut self, kind: StatementKind) {
        self.statements.insert(kind as usize);
    }

    /// Number of distinct coverage points hit.
    pub fn points(&self) -> usize {
        self.plan_operators.len()
            + self.functions.len()
            + self.operators.len()
            + self.coercions.len()
            + self.statements.len()
    }

    /// Coverage percentage: the points hit out of every point the five
    /// planes' tables hold.
    pub fn percentage(&self) -> f64 {
        let total: usize = self.planes().iter().map(|(_, p)| p.names.len()).sum();
        self.points() as f64 / total as f64 * 100.0
    }

    /// "Branch-style" coverage: the mean of the five planes' hit fractions,
    /// scaled by 0.8, so each plane weighs the same however many points its
    /// table holds. This second, stricter metric plays the role of branch
    /// coverage in Table 3.
    pub fn strict_percentage(&self) -> f64 {
        let planes = self.planes();
        let score: f64 = planes
            .iter()
            .map(|(_, p)| p.len() as f64 / p.names.len() as f64)
            .sum();
        score / planes.len() as f64 * 100.0 * 0.8
    }

    /// Merges another tracker into this one (a union per plane).
    pub fn merge(&mut self, other: &CoverageTracker) {
        self.plan_operators.bits |= other.plan_operators.bits;
        self.functions.bits |= other.functions.bits;
        self.operators.bits |= other.operators.bits;
        self.coercions.bits |= other.coercions.bits;
        self.statements.bits |= other.statements.bits;
    }

    /// Each plane with the name reports give it (`plan_operators`,
    /// `functions`, `operators`, `coercions`, `statements`).
    pub fn planes(&self) -> [(&'static str, CoveragePoints); 5] {
        [
            ("plan_operators", self.plan_operators),
            ("functions", self.functions),
            ("operators", self.operators),
            ("coercions", self.coercions),
            ("statements", self.statements),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(points: CoveragePoints) -> Vec<&'static str> {
        points.iter().collect()
    }

    #[test]
    fn coverage_accumulates_distinct_points() {
        let mut c = CoverageTracker::new();
        c.plan_operator(PlanOperator::SeqScan);
        c.plan_operator(PlanOperator::SeqScan);
        c.scalar_function(ScalarFunction::Sin);
        c.binary_operator(BinaryOp::Add);
        c.coercion(DataType::Text, DataType::Integer);
        c.coercion(DataType::Text, DataType::Integer);
        c.statement(StatementKind::Select);
        assert_eq!(c.points(), 5);
        assert!(c.functions.contains("SIN"));
        assert!(!c.functions.contains("COS"));
        assert!(!c.functions.contains("no such point"));
    }

    /// A tracker holding every point the typed recorders can record.
    fn every_point() -> CoverageTracker {
        let mut c = CoverageTracker::new();
        for op in PlanOperator::ALL {
            c.plan_operator(op);
        }
        for f in ScalarFunction::ALL {
            c.scalar_function(f);
        }
        for f in AggregateFunction::ALL {
            c.aggregate_function(f);
        }
        for op in BinaryOp::ALL {
            c.binary_operator(op);
        }
        for op in UnaryOp::ALL {
            c.unary_operator(op);
        }
        let types = DataType::ALL.into_iter().chain([DataType::Null]);
        for from in types.clone() {
            for to in types.clone() {
                c.coercion(from, to);
            }
        }
        c.mixed_numeric_coercion();
        for kind in StatementKind::ALL {
            c.statement(kind);
        }
        c
    }

    #[test]
    fn percentages_divide_by_every_reachable_point() {
        let empty = CoverageTracker::new();
        assert_eq!(empty.percentage(), 0.0);
        assert_eq!(empty.strict_percentage(), 0.0);
        let full = every_point();
        assert_eq!(full.points(), 152, "18 + 65 + 27 + 26 + 16 points");
        assert_eq!(full.percentage(), 100.0);
        assert_eq!(full.strict_percentage(), 80.0);
        let mut one = CoverageTracker::new();
        one.statement(StatementKind::Select);
        assert_eq!(one.percentage(), 1.0 / 152.0 * 100.0);
        // The statement plane holds 16 points.
        assert_eq!(one.strict_percentage(), 1.0 / 16.0 / 5.0 * 100.0 * 0.8);
    }

    #[test]
    fn coercion_names_spell_the_type_keywords() {
        let types = [
            DataType::Integer,
            DataType::Real,
            DataType::Text,
            DataType::Boolean,
            DataType::Null,
        ];
        for from in types {
            for to in types {
                let mut c = CoverageTracker::new();
                c.coercion(from, to);
                assert_eq!(
                    names(c.coercions),
                    [format!("{}->{}", from.sql_keyword(), to.sql_keyword())]
                );
            }
        }
        let mut c = CoverageTracker::new();
        c.mixed_numeric_coercion();
        assert_eq!(names(c.coercions), ["mixed->numeric"]);
    }

    #[test]
    fn each_typed_point_records_exactly_its_name() {
        for op in PlanOperator::ALL {
            let mut c = CoverageTracker::new();
            c.plan_operator(op);
            assert_eq!(names(c.plan_operators), [op.name()]);
        }
        for f in ScalarFunction::ALL {
            let mut c = CoverageTracker::new();
            c.scalar_function(f);
            assert_eq!(names(c.functions), [f.name()]);
        }
        for f in AggregateFunction::ALL {
            let mut c = CoverageTracker::new();
            c.aggregate_function(f);
            assert_eq!(names(c.functions), [f.name()]);
        }
        for op in BinaryOp::ALL {
            let mut c = CoverageTracker::new();
            c.binary_operator(op);
            assert_eq!(names(c.operators), [op.feature_name()]);
        }
        for op in UnaryOp::ALL {
            let mut c = CoverageTracker::new();
            c.unary_operator(op);
            assert_eq!(names(c.operators), [op.feature_name()]);
        }
        for kind in StatementKind::ALL {
            let mut c = CoverageTracker::new();
            c.statement(kind);
            assert_eq!(names(c.statements), [kind.feature_name()]);
        }
    }

    /// Every plane's point names, pinned: a renamed or dropped point changes
    /// what Table 3 and the coverage atlas report, so it must fail here.
    #[test]
    fn each_plane_table_is_pinned() {
        assert_eq!(
            PLAN_OPERATOR_NAMES,
            [
                "seq_scan",
                "index_lookup",
                "view_expansion",
                "derived_table",
                "cross_product",
                "JOIN_INNER",
                "JOIN_LEFT",
                "JOIN_RIGHT",
                "JOIN_FULL",
                "JOIN_CROSS",
                "JOIN_NATURAL",
                "filter",
                "group_by",
                "aggregate",
                "projection",
                "distinct",
                "set_operation",
                "sort",
            ]
        );
        assert_eq!(
            FUNCTION_NAMES,
            [
                "ABS",
                "SIN",
                "COS",
                "TAN",
                "ASIN",
                "ACOS",
                "ATAN",
                "ATAN2",
                "EXP",
                "LN",
                "LOG10",
                "LOG2",
                "SQRT",
                "POWER",
                "MOD",
                "FLOOR",
                "CEIL",
                "ROUND",
                "SIGN",
                "RADIANS",
                "DEGREES",
                "PI",
                "GREATEST",
                "LEAST",
                "TRUNC",
                "LENGTH",
                "CHAR_LENGTH",
                "UPPER",
                "LOWER",
                "TRIM",
                "LTRIM",
                "RTRIM",
                "SUBSTR",
                "SUBSTRING",
                "REPLACE",
                "INSTR",
                "STRPOS",
                "LEFT",
                "RIGHT",
                "REVERSE",
                "REPEAT",
                "CONCAT",
                "CONCAT_WS",
                "LPAD",
                "RPAD",
                "ASCII",
                "CHR",
                "HEX",
                "SPACE",
                "QUOTE",
                "COALESCE",
                "NULLIF",
                "IFNULL",
                "NVL",
                "IIF",
                "IF",
                "TYPEOF",
                "TO_CHAR",
                "BIT_LENGTH",
                "COUNT",
                "SUM",
                "AVG",
                "MIN",
                "MAX",
                "TOTAL",
            ]
        );
        assert_eq!(
            OPERATOR_NAMES,
            [
                "OP_ADD",
                "OP_SUB",
                "OP_MUL",
                "OP_DIV",
                "OP_MOD",
                "OP_EQ",
                "OP_NEQ",
                "OP_NEQ_LTGT",
                "OP_LT",
                "OP_LE",
                "OP_GT",
                "OP_GE",
                "OP_NULLSAFE_EQ",
                "OP_AND",
                "OP_OR",
                "OP_BITAND",
                "OP_BITOR",
                "OP_BITXOR",
                "OP_SHL",
                "OP_SHR",
                "OP_CONCAT",
                "OP_IS_DISTINCT",
                "OP_IS_NOT_DISTINCT",
                "OP_UNARY_MINUS",
                "OP_UNARY_PLUS",
                "OP_NOT",
                "OP_BITNOT",
            ]
        );
        assert_eq!(COERCION_NAMES.len(), 26);
        assert_eq!(
            STATEMENT_NAMES,
            [
                "STMT_CREATE_TABLE",
                "STMT_CREATE_INDEX",
                "STMT_CREATE_VIEW",
                "STMT_INSERT",
                "STMT_UPDATE",
                "STMT_DELETE",
                "STMT_ANALYZE",
                "STMT_SELECT",
                "STMT_DROP",
                "STMT_REFRESH",
                "STMT_BEGIN",
                "STMT_COMMIT",
                "STMT_ROLLBACK",
                "STMT_SAVEPOINT",
                "STMT_ROLLBACK_TO",
                "STMT_RELEASE_SAVEPOINT",
            ]
        );
        for (plane, points) in CoverageTracker::new().planes() {
            let table = points.names;
            let unique: std::collections::BTreeSet<_> = table.iter().collect();
            assert_eq!(unique.len(), table.len(), "{plane} names a point twice");
        }
    }

    #[test]
    fn merge_unions_points() {
        let mut a = CoverageTracker::new();
        a.scalar_function(ScalarFunction::Sin);
        let mut b = CoverageTracker::new();
        b.scalar_function(ScalarFunction::Cos);
        b.plan_operator(PlanOperator::SeqScan);
        a.merge(&b);
        assert_eq!(a.points(), 3);
        assert_eq!(names(a.functions), ["SIN", "COS"]);
    }

    #[test]
    fn strict_percentage_below_plain_percentage_for_small_hits() {
        let mut c = CoverageTracker::new();
        c.scalar_function(ScalarFunction::Sin);
        assert!(c.strict_percentage() < c.percentage() + 1.0);
    }
}
