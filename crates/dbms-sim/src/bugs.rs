//! The injected-bug catalog: ground truth for the fleet's logic bugs.
//!
//! Each entry ties one engine fault ([`sql_engine::Fault`]) to
//! a stable bug identifier, a human-readable description, the SQL features
//! involved, and whether it is a *logic* bug (silently wrong results) or an
//! *other* bug (internal error / crash) — the two classes Table 2 of the
//! paper distinguishes.

use sql_ast::{
    AggregateFunction, BinaryOp, DataType, JoinType, ScalarFunction, StatementKind, UnaryOp,
};
use sql_engine::{Fault, FaultConfig};
use sqlancer_core::{Feature, Keyword};

/// A `'static` trigger list built from vocabulary ids at compile time.
macro_rules! features {
    ($($feature:expr),* $(,)?) => {
        const { &[$($feature),*] }
    };
}

/// One injectable bug, keyed by the fault that enables it: an engine
/// [`Fault`] in [`catalog`], an infrastructure fault id in
/// [`infra_catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedBug<F = Fault> {
    /// Stable identifier (used as the ground truth for "unique bugs").
    pub id: &'static str,
    /// The fault that enables it.
    pub fault: F,
    /// Whether this is a logic bug (vs. an internal-error/crash bug).
    pub is_logic: bool,
    /// The SQL features involved in triggering it.
    pub features: &'static [Feature],
    /// One-line description.
    pub description: &'static str,
}

/// The full catalog of injectable bugs.
pub fn catalog() -> Vec<InjectedBug> {
    vec![
        InjectedBug {
            id: "BUG-NOT-NULL-SEMANTICS",
            fault: Fault::BadNotElimination,
            is_logic: true,
            features: features![Feature::unary_op(UnaryOp::Not), Feature::binary_op(BinaryOp::Eq)],
            description: "NOT (a = b) rewritten to IS DISTINCT FROM, changing NULL semantics",
        },
        InjectedBug {
            id: "BUG-RANGE-NEGATION",
            fault: Fault::BadRangeNegation,
            is_logic: true,
            features: features![Feature::unary_op(UnaryOp::Not), Feature::binary_op(BinaryOp::Lt)],
            description: "NOT (a < b) rewritten to a > b, dropping equality",
        },
        InjectedBug {
            id: "BUG-PREDICATE-PUSHDOWN",
            fault: Fault::BadPredicatePushdown,
            is_logic: true,
            features: features![Feature::join(JoinType::Left), Feature::keyword(Keyword::Where)],
            description: "WHERE predicate pushed into LEFT JOIN ON clause",
        },
        InjectedBug {
            id: "BUG-JOIN-FLATTENING",
            fault: Fault::BadJoinFlattening,
            is_logic: true,
            features: features![
                Feature::join(JoinType::Right),
                Feature::join(JoinType::Left),
                Feature::keyword(Keyword::Where),
            ],
            description: "outer-join ON term flattened into WHERE (SQLite Listing 3)",
        },
        InjectedBug {
            id: "BUG-CONST-FOLD-TEXT",
            fault: Fault::BadConstantFoldingText,
            is_logic: true,
            features: features![
                Feature::data_type(DataType::Text),
                Feature::binary_op(BinaryOp::Eq),
            ],
            description: "constant folding coerces text literals numerically",
        },
        InjectedBug {
            id: "BUG-NOTNULL-ISNULL-FOLD",
            fault: Fault::BadNotnullIsnullFolding,
            is_logic: true,
            features: features![
                Feature::keyword(Keyword::IsNull),
                Feature::keyword(Keyword::NotNull),
            ],
            description: "IS NULL on NOT NULL columns folded to FALSE despite outer joins",
        },
        InjectedBug {
            id: "BUG-IN-LIST-NULL",
            fault: Fault::BadInListRewrite,
            is_logic: true,
            features: features![Feature::keyword(Keyword::In)],
            description: "IN-list rewrite drops NULL elements",
        },
        InjectedBug {
            id: "BUG-BETWEEN-SWAP",
            fault: Fault::BadBetweenRewrite,
            is_logic: true,
            features: features![Feature::keyword(Keyword::Between)],
            description: "BETWEEN with reversed literal bounds gets its bounds swapped",
        },
        InjectedBug {
            id: "BUG-DISTINCT-ELIM",
            fault: Fault::BadDistinctElimination,
            is_logic: true,
            features: features![
                Feature::keyword(Keyword::Distinct),
                Feature::binary_op(BinaryOp::Eq),
            ],
            description: "DISTINCT dropped when an equality predicate is present",
        },
        InjectedBug {
            id: "BUG-NULLSAFE-EQ",
            fault: Fault::BadNullsafeEqRewrite,
            is_logic: true,
            features: features![Feature::binary_op(BinaryOp::NullSafeEq)],
            description: "<=> rewritten to plain equality",
        },
        InjectedBug {
            id: "BUG-CASE-FOLD",
            fault: Fault::BadCaseFolding,
            is_logic: true,
            features: features![Feature::keyword(Keyword::Case)],
            description: "CASE folded on a constant-true first branch",
        },
        InjectedBug {
            id: "BUG-INDEX-COERCION",
            fault: Fault::BadIndexLookupCoercion,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::CreateIndex),
                Feature::binary_op(BinaryOp::Eq),
            ],
            description: "index lookup skips text-to-numeric coercion",
        },
        InjectedBug {
            id: "BUG-UNIQUE-INDEX-SHORTCUT",
            fault: Fault::BadUniqueIndexShortcut,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::CreateIndex),
                Feature::keyword(Keyword::UniqueIndex),
                Feature::binary_op(BinaryOp::Eq),
            ],
            description: "unique-index lookup stops at the first match",
        },
        InjectedBug {
            id: "BUG-PARTIAL-INDEX",
            fault: Fault::BadPartialIndexScan,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::CreateIndex),
                Feature::keyword(Keyword::PartialIndex),
            ],
            description: "partial index used without checking its predicate",
        },
        InjectedBug {
            id: "BUG-STALE-COUNT",
            fault: Fault::BadStaleCountStatistics,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::Analyze),
                Feature::aggregate(AggregateFunction::Count),
            ],
            description: "COUNT(*) answered from stale ANALYZE statistics",
        },
        InjectedBug {
            id: "BUG-REPLACE-AFFINITY",
            fault: Fault::BadReplaceTypeAffinity,
            is_logic: true,
            features: features![
                Feature::function(ScalarFunction::Replace),
                Feature::binary_op(BinaryOp::Eq),
            ],
            description:
                "REPLACE returns a non-text intermediate (SQLite Listing 2, hidden ten years)",
        },
        InjectedBug {
            id: "BUG-BITWISE-INVERSION",
            fault: Fault::BadBitwiseInversion,
            is_logic: true,
            features: features![Feature::unary_op(UnaryOp::BitNot)],
            description: "bitwise inversion mishandles negative operands (TiDB ~ bug)",
        },
        InjectedBug {
            id: "BUG-NULLIF-NULL",
            fault: Fault::BadNullifNullHandling,
            is_logic: true,
            features: features![Feature::function(ScalarFunction::Nullif)],
            description: "NULLIF returns NULL when its second argument is NULL",
        },
        InjectedBug {
            id: "BUG-COLLATION-COMPARE",
            fault: Fault::BadCollationComparison,
            is_logic: true,
            features: features![
                Feature::data_type(DataType::Text),
                Feature::binary_op(BinaryOp::Eq),
            ],
            description: "optimized text comparison is case-insensitive",
        },
        InjectedBug {
            id: "BUG-LIKE-UNDERSCORE",
            fault: Fault::BadLikeUnderscore,
            is_logic: true,
            features: features![Feature::keyword(Keyword::Like)],
            description: "LIKE treats _ as a literal in the optimized path",
        },
        InjectedBug {
            id: "BUG-INTEGER-DIVISION",
            fault: Fault::BadIntegerDivision,
            is_logic: true,
            features: features![Feature::binary_op(BinaryOp::Div)],
            description: "integer division rounds instead of truncating",
        },
        InjectedBug {
            id: "BUG-TEXT-COERCION-SIGN",
            fault: Fault::BadTextCoercionSign,
            is_logic: true,
            features: features![
                Feature::data_type(DataType::Text),
                Feature::binary_op(BinaryOp::Lt),
            ],
            description: "text-to-number coercion ignores a leading minus sign",
        },
        InjectedBug {
            id: "BUG-SUM-EMPTY-GROUP",
            fault: Fault::BadSumEmptyGroup,
            is_logic: true,
            features: features![Feature::aggregate(AggregateFunction::Sum)],
            description: "SUM over an empty group returns 0 instead of NULL",
        },
        InjectedBug {
            id: "BUG-COUNT-NULLS",
            fault: Fault::BadCountNulls,
            is_logic: true,
            features: features![Feature::aggregate(AggregateFunction::Count)],
            description: "COUNT(col) counts NULLs",
        },
        InjectedBug {
            id: "BUG-VIEW-PREDICATE",
            fault: Fault::BadViewPredicateDrop,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::CreateView),
                Feature::keyword(Keyword::Where),
            ],
            description: "view expansion drops the view's WHERE predicate",
        },
        InjectedBug {
            id: "BUG-GROUPBY-COLLATION",
            fault: Fault::BadGroupByCollation,
            is_logic: true,
            features: features![
                Feature::keyword(Keyword::GroupBy),
                Feature::data_type(DataType::Text),
            ],
            description: "GROUP BY on text keys groups case-insensitively",
        },
        InjectedBug {
            id: "BUG-HAVING-PUSHDOWN",
            fault: Fault::BadHavingPushdown,
            is_logic: true,
            features: features![Feature::keyword(Keyword::Having)],
            description: "HAVING without aggregates evaluated before grouping",
        },
        InjectedBug {
            id: "BUG-LOST-ROLLBACK",
            fault: Fault::TxnLostRollback,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::Begin),
                Feature::statement(StatementKind::Rollback),
            ],
            description:
                "ROLLBACK discards the undo log, leaving the transaction's writes in place",
        },
        InjectedBug {
            id: "BUG-PHANTOM-COMMIT",
            fault: Fault::TxnPhantomCommit,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::Begin),
                Feature::statement(StatementKind::Commit),
            ],
            description:
                "COMMIT applies the undo log, silently discarding the transaction's writes",
        },
        InjectedBug {
            id: "BUG-SAVEPOINT-COLLAPSE",
            fault: Fault::TxnSavepointCollapse,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::Savepoint),
                Feature::statement(StatementKind::RollbackTo),
            ],
            description:
                "ROLLBACK TO SAVEPOINT rewinds to transaction start, collapsing the savepoint stack",
        },
        InjectedBug {
            id: "BUG-DIRTY-READ",
            fault: Fault::IsoDirtyRead,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::Begin),
                Feature::statement(StatementKind::Commit),
            ],
            description:
                "a transaction's begin-time snapshot includes other sessions' uncommitted writes",
        },
        InjectedBug {
            id: "BUG-LOST-UPDATE",
            fault: Fault::IsoLostUpdate,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::Begin),
                Feature::statement(StatementKind::Commit),
            ],
            description:
                "COMMIT skips first-committer-wins validation, clobbering concurrent committed writes",
        },
        InjectedBug {
            id: "BUG-NONREPEATABLE-READ",
            fault: Fault::IsoNonrepeatableRead,
            is_logic: true,
            features: features![
                Feature::statement(StatementKind::Begin),
                Feature::statement(StatementKind::Commit),
            ],
            description:
                "in-transaction reads of unwritten tables see the latest committed state, not the snapshot",
        },
        InjectedBug {
            id: "BUG-DEEP-EXPR-CRASH",
            fault: Fault::CrashOnDeepExpressions,
            is_logic: false,
            features: features![Feature::keyword(Keyword::Where)],
            description: "internal error on deeply nested expressions",
        },
        InjectedBug {
            id: "BUG-MANY-JOINS-OOM",
            fault: Fault::CrashOnManyJoins,
            is_logic: false,
            features: features![Feature::join(JoinType::Inner), Feature::join(JoinType::Left)],
            description: "out-of-memory style internal error on three-way joins",
        },
    ]
}

/// The catalog of injectable **infrastructure** faults: environmental
/// failures of the connection layer (crashes, hangs, drops, corruption),
/// not bugs in the DBMS's query processing. They are deliberately kept out
/// of [`catalog`] — a testing platform must *never* report them as logic
/// bugs; the campaign supervisor turns them into incidents instead. The
/// `fault` names here are the ids [`crate::FaultyConfig`] arms and the
/// substrings [`sqlancer_core::classify_infra_message`] keys on.
pub fn infra_catalog() -> Vec<InjectedBug<&'static str>> {
    vec![
        InjectedBug {
            id: "INFRA-BACKEND-CRASH",
            fault: "infra_crash",
            is_logic: false,
            features: &[],
            description: "backend process crashes (panic) mid-statement and stays down \
                          until the connection is re-established",
        },
        InjectedBug {
            id: "INFRA-QUERY-HANG",
            fault: "infra_hang",
            is_logic: false,
            features: &[],
            description: "statement hangs past the watchdog deadline (virtual-clock overrun)",
        },
        InjectedBug {
            id: "INFRA-CONNECTION-DROP",
            fault: "infra_drop",
            is_logic: false,
            features: &[],
            description: "transient connection drop: one statement fails, the next attempt \
                          succeeds",
        },
        InjectedBug {
            id: "INFRA-GARBLED-RESULT",
            fault: "infra_garble",
            is_logic: false,
            features: &[],
            description: "result set is truncated/garbled in transit and flagged by the \
                          wire-protocol checksum",
        },
        InjectedBug {
            id: "INFRA-PROBE-CRASH",
            fault: "infra_probe",
            is_logic: false,
            features: &[],
            description: "backend dies during the runtime capability probe; the next \
                          connection attempt succeeds",
        },
        InjectedBug {
            id: "INFRA-RESPAWN-FLAP",
            fault: "infra_flap",
            is_logic: false,
            features: &[],
            description: "backend flaps after a respawn: two consecutive attempts fail \
                          before it stabilises — enough to open a pool slot's circuit \
                          breaker",
        },
        InjectedBug {
            id: "INFRA-CAPABILITY-LIE",
            fault: "infra_capability_lie",
            is_logic: false,
            features: &[],
            description: "driver statically claims transaction support but the backend \
                          rejects BEGIN/COMMIT/ROLLBACK at runtime; the capability probe \
                          downgrades the claim and records the drift",
        },
    ]
}

/// The catalog entries of the enabled faults, in catalog order.
pub fn bugs_for_faults(faults: FaultConfig) -> Vec<InjectedBug> {
    catalog()
        .into_iter()
        .filter(|b| faults.has(b.fault))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_unique_and_catalog_covers_every_fault() {
        let bugs = catalog();
        let ids: BTreeSet<_> = bugs.iter().map(|b| b.id).collect();
        assert_eq!(ids.len(), bugs.len());
        let faults: Vec<Fault> = bugs.iter().map(|b| b.fault).collect();
        let every_fault = (1u64 << (Fault::CrashOnManyJoins as u32 + 1)) - 1;
        assert_eq!(FaultConfig::of(&faults).bits(), every_fault);
        assert_eq!(bugs.len(), every_fault.count_ones() as usize);
    }

    #[test]
    fn logic_and_other_bugs_are_both_present() {
        let bugs = catalog();
        assert!(bugs.iter().filter(|b| b.is_logic).count() >= 25);
        assert!(bugs.iter().filter(|b| !b.is_logic).count() >= 2);
    }

    #[test]
    fn lookup_by_fault_names() {
        let found = bugs_for_faults(FaultConfig::of(&[
            Fault::BadReplaceTypeAffinity,
            Fault::BadBitwiseInversion,
        ]));
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn triggers_render_their_canonical_names() {
        let rendered = |id: &str| {
            let bug = catalog().into_iter().find(|b| b.id == id).unwrap();
            bug.features.iter().map(|f| f.name()).collect::<Vec<_>>()
        };
        assert_eq!(rendered("BUG-NOT-NULL-SEMANTICS"), ["OP_NOT", "OP_EQ"]);
        assert_eq!(
            rendered("BUG-SAVEPOINT-COLLAPSE"),
            ["STMT_SAVEPOINT", "STMT_ROLLBACK_TO"]
        );
    }

    #[test]
    fn infra_catalog_is_disjoint_from_the_logic_catalog() {
        let logic_ids: BTreeSet<_> = catalog().iter().map(|b| b.id).collect();
        for infra in infra_catalog() {
            assert!(!logic_ids.contains(infra.id));
            assert!(
                !infra.is_logic,
                "infrastructure faults are never logic bugs"
            );
            assert!(infra.fault.starts_with("infra_"));
        }
    }
}
