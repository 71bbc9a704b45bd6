//! Fault-injection switches for the engine.
//!
//! The paper evaluates SQLancer++ against real DBMSs containing real,
//! unknown logic bugs. A self-contained reproduction needs a substitute:
//! each variant of [`Fault`] is one *injected logic bug* at a specific
//! point in the engine (an optimizer rewrite, an index access path, a
//! scalar function, a coercion rule). Several of the faults are modeled
//! directly on bugs discussed in the paper (the SQLite `REPLACE` affinity
//! bug of Listing 2, the `ON`→`WHERE` flattening bug of Listing 3, the TiDB
//! `~` bug, ...).
//!
//! All faults default to *off*; `dbms-sim` arms subsets per simulated
//! dialect and records, for each fault, a ground-truth bug identifier and
//! the SQL features involved — which is what makes Table 5-style
//! "unique bugs" measurable.

/// One injectable logic bug. Declaration order is the bit order of
/// [`FaultConfig::bits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    // ---- optimizer / rewrite faults (detected by TLP and NoREC) ----
    /// `NOT (a = b)` is rewritten to `a != b`, dropping the `NULL` case.
    BadNotElimination,
    /// `NOT (a < b)` is rewritten to `a > b` (instead of `a >= b`).
    BadRangeNegation,
    /// A `WHERE` predicate is pushed below a `LEFT JOIN` into the `ON`
    /// clause, changing which rows survive the join.
    BadPredicatePushdown,
    /// An `ON` clause term of an outer join is flattened into the `WHERE`
    /// clause (the SQLite query-flattener bug of Listing 3).
    BadJoinFlattening,
    /// Constant folding treats the text literal `'0'` as false/0 even under
    /// strict typing where it should be an error or distinct value.
    BadConstantFoldingText,
    /// `x IS NULL` on a column declared `NOT NULL` is folded to `FALSE`,
    /// even when outer joins can still introduce `NULL`s for that column.
    BadNotnullIsnullFolding,
    /// `x IN (a, b, ...)` is rewritten into an equality chain that ignores
    /// `NULL` list elements.
    BadInListRewrite,
    /// `BETWEEN` is rewritten with the bounds swapped when both bounds are
    /// literals and the lower bound is greater (should yield empty instead).
    BadBetweenRewrite,
    /// `DISTINCT` is dropped when an equality predicate on a unique column
    /// is present — wrong when the predicate involves coercion.
    BadDistinctElimination,
    /// Expressions of the form `x <=> y` are rewritten to `x = y`,
    /// losing null-safety.
    BadNullsafeEqRewrite,
    /// `CASE WHEN p THEN a ELSE b END` with a constant-true `p` is folded to
    /// `a` even when `p` actually evaluates to `NULL` at runtime.
    BadCaseFolding,

    // ---- access-path faults (detected primarily by NoREC) ----
    /// Index equality lookups skip text→numeric coercion, missing rows that
    /// a full scan (and the reference executor) would return.
    BadIndexLookupCoercion,
    /// Unique-index lookups return at most one row even when the residual
    /// predicate matches more rows.
    BadUniqueIndexShortcut,
    /// Partial-index lookups ignore the index predicate, returning rows the
    /// index does not actually cover.
    BadPartialIndexScan,
    /// After `ANALYZE`, `COUNT(*)` without predicates is answered from stale
    /// statistics instead of the table data.
    BadStaleCountStatistics,

    // ---- evaluation faults (detected by TLP through inconsistency) ----
    /// `REPLACE` returns its first argument unconverted when it is numeric
    /// (the 10-year-old SQLite bug of Listing 2): comparisons against text
    /// columns then behave inconsistently between optimized and reference
    /// paths.
    BadReplaceTypeAffinity,
    /// Bitwise inversion `~x` mishandles negative inputs (the TiDB bug cited
    /// in the paper's discussion section).
    BadBitwiseInversion,
    /// `NULLIF(a, b)` compares with plain equality and returns `a` when the
    /// comparison is `NULL` instead of returning `a` only when it is
    /// not-equal (subtly wrong for `NULL` arguments) — but only in the
    /// optimized path's constant-argument fast path.
    BadNullifNullHandling,
    /// String comparison in the optimized path compares case-insensitively.
    BadCollationComparison,
    /// `LIKE` treats `_` as a literal underscore in the optimized prefix
    /// fast path.
    BadLikeUnderscore,
    /// Integer division in the optimized path rounds instead of truncating.
    BadIntegerDivision,
    /// Text-to-integer coercion in the optimized comparison path parses only
    /// leading digits and ignores a leading minus sign.
    BadTextCoercionSign,

    // ---- aggregation / view faults ----
    /// `SUM` over an empty group returns `0` instead of `NULL` (only in the
    /// optimized path).
    BadSumEmptyGroup,
    /// `COUNT(col)` counts `NULL`s (only in the optimized path).
    BadCountNulls,
    /// View expansion drops the view's own `WHERE` predicate.
    BadViewPredicateDrop,
    /// `GROUP BY` on a text key groups case-insensitively in the optimized
    /// path.
    BadGroupByCollation,
    /// `HAVING` predicates are evaluated before grouping in the optimized
    /// path when they reference no aggregate.
    BadHavingPushdown,

    // ---- transaction faults (detected by the rollback oracle) ----
    /// `ROLLBACK` drops the transaction's frames without restoring the
    /// `BEGIN` snapshot, leaving every write of the transaction in place —
    /// the transaction effectively commits ("lost rollback").
    TxnLostRollback,
    /// `COMMIT` restores the `BEGIN` snapshot before dropping the frames,
    /// silently throwing the transaction's writes away — the commit reports
    /// success but the data never lands ("phantom commit").
    TxnPhantomCommit,
    /// `ROLLBACK TO SAVEPOINT` rewinds to the start of the transaction
    /// instead of to the named savepoint, collapsing the whole savepoint
    /// stack ("savepoint collapse").
    TxnSavepointCollapse,

    // ---- isolation faults (concurrent sessions; detected by the
    // ---- isolation oracle) ----
    /// A transaction's begin-time snapshot includes the *uncommitted*
    /// writes of other open sessions ("dirty read"): data another session
    /// later rolls back can leak into a committed transaction.
    IsoDirtyRead,
    /// `COMMIT` skips first-committer-wins conflict validation: the later
    /// committer blindly installs its snapshot-based writes, silently
    /// clobbering a concurrent committed update to the same table
    /// ("lost update").
    IsoLostUpdate,
    /// Inside a transaction, tables the session has not itself written are
    /// re-read from the latest *committed* state at every statement instead
    /// of from the begin snapshot — read-committed visibility masquerading
    /// as snapshot isolation ("non-repeatable read").
    IsoNonrepeatableRead,

    // ---- "other bug" faults (crashes / internal errors, not logic bugs) ----
    /// Deeply nested expressions (depth > 2) above a size threshold cause an
    /// internal error, modelling the paper's non-logic "unexpected error"
    /// bug class.
    CrashOnDeepExpressions,
    /// Queries touching more than two relations intermittently fail with an
    /// internal error, modelling connection/OOM-style failures (CrateDB ran
    /// out of memory during the paper's experiments).
    CrashOnManyJoins,
}

impl Fault {
    const fn bit(self) -> u64 {
        1 << self as u32
    }
}

/// The set of enabled [`Fault`]s. The default enables none (a correct
/// engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig(u64);

impl FaultConfig {
    /// A configuration with every fault disabled (a correct engine).
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// A configuration with exactly the given faults enabled.
    pub fn of(faults: &[Fault]) -> FaultConfig {
        let mut config = FaultConfig::none();
        for &fault in faults {
            config.enable(fault);
        }
        config
    }

    /// Whether `fault` is enabled.
    pub fn has(self, fault: Fault) -> bool {
        self.0 & fault.bit() != 0
    }

    /// Enables `fault`.
    pub fn enable(&mut self, fault: Fault) {
        self.0 |= fault.bit();
    }

    /// A copy with `fault` disabled — the "fixed version" ground-truth
    /// bisection replays against.
    pub fn without(self, fault: Fault) -> FaultConfig {
        FaultConfig(self.0 & !fault.bit())
    }

    /// Every enabled fault as one bit, in [`Fault`] declaration order. The
    /// compiled-plan cache key mixes this in so an in-place configuration
    /// change can never serve a stale plan.
    pub fn bits(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fault_free() {
        assert_eq!(FaultConfig::none().bits(), 0);
    }

    #[test]
    fn enable_without_and_bits_follow_declaration_order() {
        let mut cfg = FaultConfig::none();
        cfg.enable(Fault::BadNotElimination);
        cfg.enable(Fault::CrashOnManyJoins);
        assert_eq!(cfg.bits(), 1 | 1 << 34);
        assert!(cfg.has(Fault::CrashOnManyJoins));
        assert!(!cfg.has(Fault::BadRangeNegation));
        let fixed = cfg.without(Fault::CrashOnManyJoins);
        assert_eq!(fixed, FaultConfig::of(&[Fault::BadNotElimination]));
        assert_eq!(cfg.without(Fault::BadRangeNegation), cfg);
    }
}
