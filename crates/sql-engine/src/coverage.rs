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
//! Every coverage point is a `&'static str`: plan operators and statement
//! kinds are literals, functions and operators record their feature names,
//! and a coercion path is looked up in a static table indexed by its
//! [`DataType`] pair (`coercion_name`). Recording a point therefore never
//! allocates a string, in a fresh engine or a long-lived one.

use sql_ast::DataType;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One coverage plane's points.
pub type CoveragePoints = Arc<BTreeSet<&'static str>>;

/// Accumulates which engine facilities have been exercised.
///
/// The point sets live behind `Arc`s and detach copy-on-write: cloning a
/// tracker — which every `BEGIN` snapshot and engine clone does through
/// [`crate::Database`] — bumps five pointers, and a clone only copies a
/// set when it records a point the shared version lacks. On the campaign
/// hot path almost every statement hits already-recorded points, so
/// snapshots never copy coverage at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageTracker {
    /// Plan operators exercised (e.g. `seq_scan`, `index_lookup`,
    /// `hash_group_by`, `left_join`).
    pub plan_operators: CoveragePoints,
    /// Scalar functions evaluated.
    pub functions: CoveragePoints,
    /// Unary/binary operators evaluated.
    pub operators: CoveragePoints,
    /// Coercion paths taken (e.g. `TEXT->INTEGER`).
    pub coercions: CoveragePoints,
    /// Statement kinds executed.
    pub statements: CoveragePoints,
}

/// The coercion point of a value of type `from` converted to `to`, as
/// `FROM->TO` over the types' SQL keywords. Exhaustive over every pair.
fn coercion_name(from: DataType, to: DataType) -> &'static str {
    const NAMES: [[&str; 5]; 5] = [
        [
            "INTEGER->INTEGER",
            "INTEGER->REAL",
            "INTEGER->TEXT",
            "INTEGER->BOOLEAN",
            "INTEGER->NULL",
        ],
        [
            "REAL->INTEGER",
            "REAL->REAL",
            "REAL->TEXT",
            "REAL->BOOLEAN",
            "REAL->NULL",
        ],
        [
            "TEXT->INTEGER",
            "TEXT->REAL",
            "TEXT->TEXT",
            "TEXT->BOOLEAN",
            "TEXT->NULL",
        ],
        [
            "BOOLEAN->INTEGER",
            "BOOLEAN->REAL",
            "BOOLEAN->TEXT",
            "BOOLEAN->BOOLEAN",
            "BOOLEAN->NULL",
        ],
        [
            "NULL->INTEGER",
            "NULL->REAL",
            "NULL->TEXT",
            "NULL->BOOLEAN",
            "NULL->NULL",
        ],
    ];
    fn slot(t: DataType) -> usize {
        match t {
            DataType::Integer => 0,
            DataType::Real => 1,
            DataType::Text => 2,
            DataType::Boolean => 3,
            DataType::Null => 4,
        }
    }
    NAMES[slot(from)][slot(to)]
}

/// The number of distinct coverage points in each category; used to turn a
/// [`CoverageTracker`] into a percentage comparable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageUniverse {
    /// Total distinct plan operators the engine can emit.
    pub plan_operators: usize,
    /// Total scalar functions implemented.
    pub functions: usize,
    /// Total operators implemented.
    pub operators: usize,
    /// Total coercion paths.
    pub coercions: usize,
    /// Total statement kinds.
    pub statements: usize,
}

impl CoverageUniverse {
    /// The universe for the engine as implemented in this crate.
    pub fn engine_default() -> CoverageUniverse {
        CoverageUniverse {
            plan_operators: 22,
            functions: sql_ast::ScalarFunction::ALL.len() + sql_ast::AggregateFunction::ALL.len(),
            operators: sql_ast::BinaryOp::ALL.len() + sql_ast::UnaryOp::ALL.len(),
            coercions: 10,
            statements: 11,
        }
    }

    /// Sum of all coverage points.
    pub fn total(&self) -> usize {
        self.plan_operators + self.functions + self.operators + self.coercions + self.statements
    }
}

impl CoverageTracker {
    /// Creates an empty tracker.
    pub fn new() -> CoverageTracker {
        CoverageTracker::default()
    }

    /// Inserts without touching a shared set when the point was already
    /// recorded — the common case on the campaign hot path, where the same
    /// few coverage points are hit millions of times. A shared set is only
    /// detached (copied) when it actually gains a point.
    fn record(set: &mut CoveragePoints, name: &'static str) {
        if !set.contains(name) {
            Arc::make_mut(set).insert(name);
        }
    }

    /// Records a plan operator.
    pub fn plan_operator(&mut self, name: &'static str) {
        Self::record(&mut self.plan_operators, name);
    }

    /// Records a scalar or aggregate function evaluation.
    pub fn function(&mut self, name: &'static str) {
        Self::record(&mut self.functions, name);
    }

    /// Records an operator evaluation.
    pub fn operator(&mut self, name: &'static str) {
        Self::record(&mut self.operators, name);
    }

    /// Records the coercion path of a `from` value converted to `to`.
    pub fn coercion(&mut self, from: DataType, to: DataType) {
        Self::record(&mut self.coercions, coercion_name(from, to));
    }

    /// Records the dynamic-typing comparison of a number with a non-number,
    /// both sides compared numerically (`mixed->numeric`).
    pub fn mixed_numeric_coercion(&mut self) {
        Self::record(&mut self.coercions, "mixed->numeric");
    }

    /// Records a statement kind.
    pub fn statement(&mut self, name: &'static str) {
        Self::record(&mut self.statements, name);
    }

    /// Number of distinct coverage points hit.
    pub fn points(&self) -> usize {
        self.plan_operators.len()
            + self.functions.len()
            + self.operators.len()
            + self.coercions.len()
            + self.statements.len()
    }

    /// Coverage percentage relative to a universe (clamped to 100%).
    pub fn percentage(&self, universe: &CoverageUniverse) -> f64 {
        if universe.total() == 0 {
            return 0.0;
        }
        (self.points() as f64 / universe.total() as f64 * 100.0).min(100.0)
    }

    /// "Branch-style" coverage: the fraction of (plan operator, operator)
    /// categories where more than half of the universe was exercised. This
    /// second, stricter metric plays the role of branch coverage in Table 3.
    pub fn strict_percentage(&self, universe: &CoverageUniverse) -> f64 {
        let cats = [
            (self.plan_operators.len(), universe.plan_operators),
            (self.functions.len(), universe.functions),
            (self.operators.len(), universe.operators),
            (self.coercions.len(), universe.coercions),
            (self.statements.len(), universe.statements),
        ];
        let mut score = 0.0;
        for (hit, total) in cats {
            if total > 0 {
                score += (hit as f64 / total as f64).min(1.0);
            }
        }
        score / cats.len() as f64 * 100.0 * 0.8
    }

    /// Merges another tracker into this one. Sets that are literally the
    /// same shared version — the common case when a snapshot workspace
    /// recorded nothing new — or that bring no new points are skipped
    /// without copying.
    pub fn merge(&mut self, other: &CoverageTracker) {
        fn merge_set(into: &mut CoveragePoints, from: &CoveragePoints) {
            if Arc::ptr_eq(into, from) || from.is_subset(into) {
                return;
            }
            Arc::make_mut(into).extend(from.iter().copied());
        }
        merge_set(&mut self.plan_operators, &other.plan_operators);
        merge_set(&mut self.functions, &other.functions);
        merge_set(&mut self.operators, &other.operators);
        merge_set(&mut self.coercions, &other.coercions);
        merge_set(&mut self.statements, &other.statements);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_accumulates_distinct_points() {
        let mut c = CoverageTracker::new();
        c.plan_operator("seq_scan");
        c.plan_operator("seq_scan");
        c.function("SIN");
        c.operator("OP_ADD");
        c.coercion(DataType::Text, DataType::Integer);
        c.coercion(DataType::Text, DataType::Integer);
        c.statement("STMT_SELECT");
        assert_eq!(c.points(), 5);
    }

    #[test]
    fn percentage_is_bounded() {
        let mut c = CoverageTracker::new();
        let universe = CoverageUniverse::engine_default();
        assert_eq!(c.percentage(&universe), 0.0);
        for f in sql_ast::ScalarFunction::ALL {
            c.function(f.name());
        }
        assert!(c.percentage(&universe) > 0.0);
        let tiny = CoverageUniverse {
            plan_operators: 0,
            functions: 1,
            operators: 0,
            coercions: 0,
            statements: 0,
        };
        assert_eq!(c.percentage(&tiny), 100.0, "clamped at 100%");
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
                assert_eq!(
                    coercion_name(from, to),
                    format!("{}->{}", from.sql_keyword(), to.sql_keyword())
                );
            }
        }
    }

    #[test]
    fn merge_unions_points() {
        let mut a = CoverageTracker::new();
        a.function("SIN");
        let mut b = CoverageTracker::new();
        b.function("COS");
        b.plan_operator("seq_scan");
        a.merge(&b);
        assert_eq!(a.points(), 3);
    }

    #[test]
    fn strict_percentage_below_plain_percentage_for_small_hits() {
        let mut c = CoverageTracker::new();
        c.function("SIN");
        let universe = CoverageUniverse::engine_default();
        assert!(c.strict_percentage(&universe) < c.percentage(&universe) + 1.0);
    }
}
