//! Fault-injection switches for the engine.
//!
//! The paper evaluates SQLancer++ against real DBMSs containing real,
//! unknown logic bugs. A self-contained reproduction needs a substitute:
//! each field of [`FaultConfig`] enables one *injected logic bug* at a
//! specific point in the engine (an optimizer rewrite, an index access path,
//! a scalar function, a coercion rule). Several of the faults are modeled
//! directly on bugs discussed in the paper (the SQLite `REPLACE` affinity
//! bug of Listing 2, the `ON`→`WHERE` flattening bug of Listing 3, the TiDB
//! `~` bug, ...).
//!
//! All faults default to *off*; `dbms-sim` turns subsets on per simulated
//! dialect and records, for each fault, a ground-truth bug identifier and
//! the SQL features involved — which is what makes Table 5-style
//! "unique bugs" measurable.

/// Switches enabling individual injected logic bugs. All default to `false`
/// (a correct engine).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[allow(clippy::struct_excessive_bools)]
pub struct FaultConfig {
    // ---- optimizer / rewrite faults (detected by TLP and NoREC) ----
    /// `NOT (a = b)` is rewritten to `a != b`, dropping the `NULL` case.
    pub bad_not_elimination: bool,
    /// `NOT (a < b)` is rewritten to `a > b` (instead of `a >= b`).
    pub bad_range_negation: bool,
    /// A `WHERE` predicate is pushed below a `LEFT JOIN` into the `ON`
    /// clause, changing which rows survive the join.
    pub bad_predicate_pushdown: bool,
    /// An `ON` clause term of an outer join is flattened into the `WHERE`
    /// clause (the SQLite query-flattener bug of Listing 3).
    pub bad_join_flattening: bool,
    /// Constant folding treats the text literal `'0'` as false/0 even under
    /// strict typing where it should be an error or distinct value.
    pub bad_constant_folding_text: bool,
    /// `x IS NULL` on a column declared `NOT NULL` is folded to `FALSE`,
    /// even when outer joins can still introduce `NULL`s for that column.
    pub bad_notnull_isnull_folding: bool,
    /// `x IN (a, b, ...)` is rewritten into an equality chain that ignores
    /// `NULL` list elements.
    pub bad_in_list_rewrite: bool,
    /// `BETWEEN` is rewritten with the bounds swapped when both bounds are
    /// literals and the lower bound is greater (should yield empty instead).
    pub bad_between_rewrite: bool,
    /// `DISTINCT` is dropped when an equality predicate on a unique column
    /// is present — wrong when the predicate involves coercion.
    pub bad_distinct_elimination: bool,
    /// `LIMIT` is pushed below an outer join, truncating rows too early.
    pub bad_limit_pushdown: bool,
    /// Expressions of the form `x <=> y` are rewritten to `x = y`,
    /// losing null-safety.
    pub bad_nullsafe_eq_rewrite: bool,
    /// `CASE WHEN p THEN a ELSE b END` with a constant-true `p` is folded to
    /// `a` even when `p` actually evaluates to `NULL` at runtime.
    pub bad_case_folding: bool,

    // ---- access-path faults (detected primarily by NoREC) ----
    /// Index equality lookups skip text→numeric coercion, missing rows that
    /// a full scan (and the reference executor) would return.
    pub bad_index_lookup_coercion: bool,
    /// Unique-index lookups return at most one row even when the residual
    /// predicate matches more rows.
    pub bad_unique_index_shortcut: bool,
    /// Partial-index lookups ignore the index predicate, returning rows the
    /// index does not actually cover.
    pub bad_partial_index_scan: bool,
    /// After `ANALYZE`, `COUNT(*)` without predicates is answered from stale
    /// statistics instead of the table data.
    pub bad_stale_count_statistics: bool,

    // ---- evaluation faults (detected by TLP through inconsistency) ----
    /// `REPLACE` returns its first argument unconverted when it is numeric
    /// (the 10-year-old SQLite bug of Listing 2): comparisons against text
    /// columns then behave inconsistently between optimized and reference
    /// paths.
    pub bad_replace_type_affinity: bool,
    /// Bitwise inversion `~x` mishandles negative inputs (the TiDB bug cited
    /// in the paper's discussion section).
    pub bad_bitwise_inversion: bool,
    /// `NULLIF(a, b)` compares with plain equality and returns `a` when the
    /// comparison is `NULL` instead of returning `a` only when it is
    /// not-equal (subtly wrong for `NULL` arguments) — but only in the
    /// optimized path's constant-argument fast path.
    pub bad_nullif_null_handling: bool,
    /// String comparison in the optimized path compares case-insensitively.
    pub bad_collation_comparison: bool,
    /// `LIKE` treats `_` as a literal underscore in the optimized prefix
    /// fast path.
    pub bad_like_underscore: bool,
    /// Integer division in the optimized path rounds instead of truncating.
    pub bad_integer_division: bool,
    /// Text-to-integer coercion in the optimized comparison path parses only
    /// leading digits and ignores a leading minus sign.
    pub bad_text_coercion_sign: bool,

    // ---- aggregation / view faults ----
    /// `SUM` over an empty group returns `0` instead of `NULL` (only in the
    /// optimized path).
    pub bad_sum_empty_group: bool,
    /// `COUNT(col)` counts `NULL`s (only in the optimized path).
    pub bad_count_nulls: bool,
    /// View expansion drops the view's own `WHERE` predicate.
    pub bad_view_predicate_drop: bool,
    /// `GROUP BY` on a text key groups case-insensitively in the optimized
    /// path.
    pub bad_group_by_collation: bool,
    /// `HAVING` predicates are evaluated before grouping in the optimized
    /// path when they reference no aggregate.
    pub bad_having_pushdown: bool,

    // ---- transaction faults (detected by the rollback oracle) ----
    /// `ROLLBACK` discards the undo log without applying it, leaving every
    /// write of the transaction in place — the transaction effectively
    /// commits ("lost rollback").
    pub txn_lost_rollback: bool,
    /// `COMMIT` applies the undo log before discarding it, silently throwing
    /// the transaction's writes away — the commit reports success but the
    /// data never lands ("phantom commit").
    pub txn_phantom_commit: bool,
    /// `ROLLBACK TO SAVEPOINT` rewinds to the start of the transaction
    /// instead of to the named savepoint, collapsing the whole savepoint
    /// stack ("savepoint collapse").
    pub txn_savepoint_collapse: bool,

    // ---- isolation faults (concurrent sessions; detected by the
    // ---- isolation oracle) ----
    /// A transaction's begin-time snapshot includes the *uncommitted*
    /// writes of other open sessions ("dirty read"): data another session
    /// later rolls back can leak into a committed transaction.
    pub iso_dirty_read: bool,
    /// `COMMIT` skips first-committer-wins conflict validation: the later
    /// committer blindly installs its snapshot-based writes, silently
    /// clobbering a concurrent committed update to the same table
    /// ("lost update").
    pub iso_lost_update: bool,
    /// Inside a transaction, tables the session has not itself written are
    /// re-read from the latest *committed* state at every statement instead
    /// of from the begin snapshot — read-committed visibility masquerading
    /// as snapshot isolation ("non-repeatable read").
    pub iso_nonrepeatable_read: bool,

    // ---- "other bug" faults (crashes / internal errors, not logic bugs) ----
    /// Deeply nested expressions (depth > 2) above a size threshold cause an
    /// internal error, modelling the paper's non-logic "unexpected error"
    /// bug class.
    pub crash_on_deep_expressions: bool,
    /// Queries touching more than two relations intermittently fail with an
    /// internal error, modelling connection/OOM-style failures (CrateDB ran
    /// out of memory during the paper's experiments).
    pub crash_on_many_joins: bool,
}

impl FaultConfig {
    /// A configuration with every fault disabled (a correct engine).
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// Whether any fault that the optimizer's `apply_structural_faults`
    /// can apply is enabled — the gate for
    /// `optimize_select`'s clone-free fast path. Keep in sync with the
    /// faults that function reads.
    pub fn has_structural_rewrite(&self) -> bool {
        self.bad_predicate_pushdown
            || self.bad_join_flattening
            || self.bad_distinct_elimination
            || self.bad_having_pushdown
    }

    /// Returns the number of enabled faults.
    pub fn enabled_count(&self) -> usize {
        self.enabled_names().len()
    }

    /// Returns the names of all enabled faults (stable, snake_case).
    pub fn enabled_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (name, on) in self.iter_flags() {
            if on {
                out.push(name);
            }
        }
        out
    }

    /// Packs every fault flag into a bitset, in the stable order of
    /// [`FaultConfig::iter_flags`] (a unit test keeps the two in sync).
    /// Allocation-free; the compiled-plan cache key mixes this in so an
    /// in-place configuration change can never serve a stale plan.
    pub fn bits(&self) -> u64 {
        let flags = [
            self.bad_not_elimination,
            self.bad_range_negation,
            self.bad_predicate_pushdown,
            self.bad_join_flattening,
            self.bad_constant_folding_text,
            self.bad_notnull_isnull_folding,
            self.bad_in_list_rewrite,
            self.bad_between_rewrite,
            self.bad_distinct_elimination,
            self.bad_limit_pushdown,
            self.bad_nullsafe_eq_rewrite,
            self.bad_case_folding,
            self.bad_index_lookup_coercion,
            self.bad_unique_index_shortcut,
            self.bad_partial_index_scan,
            self.bad_stale_count_statistics,
            self.bad_replace_type_affinity,
            self.bad_bitwise_inversion,
            self.bad_nullif_null_handling,
            self.bad_collation_comparison,
            self.bad_like_underscore,
            self.bad_integer_division,
            self.bad_text_coercion_sign,
            self.bad_sum_empty_group,
            self.bad_count_nulls,
            self.bad_view_predicate_drop,
            self.bad_group_by_collation,
            self.bad_having_pushdown,
            self.txn_lost_rollback,
            self.txn_phantom_commit,
            self.txn_savepoint_collapse,
            self.iso_dirty_read,
            self.iso_lost_update,
            self.iso_nonrepeatable_read,
            self.crash_on_deep_expressions,
            self.crash_on_many_joins,
        ];
        flags
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &on)| acc | (u64::from(on) << i))
    }

    /// Iterates over `(name, enabled)` pairs for every fault flag.
    pub fn iter_flags(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("bad_not_elimination", self.bad_not_elimination),
            ("bad_range_negation", self.bad_range_negation),
            ("bad_predicate_pushdown", self.bad_predicate_pushdown),
            ("bad_join_flattening", self.bad_join_flattening),
            ("bad_constant_folding_text", self.bad_constant_folding_text),
            (
                "bad_notnull_isnull_folding",
                self.bad_notnull_isnull_folding,
            ),
            ("bad_in_list_rewrite", self.bad_in_list_rewrite),
            ("bad_between_rewrite", self.bad_between_rewrite),
            ("bad_distinct_elimination", self.bad_distinct_elimination),
            ("bad_limit_pushdown", self.bad_limit_pushdown),
            ("bad_nullsafe_eq_rewrite", self.bad_nullsafe_eq_rewrite),
            ("bad_case_folding", self.bad_case_folding),
            ("bad_index_lookup_coercion", self.bad_index_lookup_coercion),
            ("bad_unique_index_shortcut", self.bad_unique_index_shortcut),
            ("bad_partial_index_scan", self.bad_partial_index_scan),
            (
                "bad_stale_count_statistics",
                self.bad_stale_count_statistics,
            ),
            ("bad_replace_type_affinity", self.bad_replace_type_affinity),
            ("bad_bitwise_inversion", self.bad_bitwise_inversion),
            ("bad_nullif_null_handling", self.bad_nullif_null_handling),
            ("bad_collation_comparison", self.bad_collation_comparison),
            ("bad_like_underscore", self.bad_like_underscore),
            ("bad_integer_division", self.bad_integer_division),
            ("bad_text_coercion_sign", self.bad_text_coercion_sign),
            ("bad_sum_empty_group", self.bad_sum_empty_group),
            ("bad_count_nulls", self.bad_count_nulls),
            ("bad_view_predicate_drop", self.bad_view_predicate_drop),
            ("bad_group_by_collation", self.bad_group_by_collation),
            ("bad_having_pushdown", self.bad_having_pushdown),
            ("txn_lost_rollback", self.txn_lost_rollback),
            ("txn_phantom_commit", self.txn_phantom_commit),
            ("txn_savepoint_collapse", self.txn_savepoint_collapse),
            ("iso_dirty_read", self.iso_dirty_read),
            ("iso_lost_update", self.iso_lost_update),
            ("iso_nonrepeatable_read", self.iso_nonrepeatable_read),
            ("crash_on_deep_expressions", self.crash_on_deep_expressions),
            ("crash_on_many_joins", self.crash_on_many_joins),
        ]
    }

    /// Enables a fault by name. Returns `false` if the name is unknown.
    pub fn enable(&mut self, name: &str) -> bool {
        match name {
            "bad_not_elimination" => self.bad_not_elimination = true,
            "bad_range_negation" => self.bad_range_negation = true,
            "bad_predicate_pushdown" => self.bad_predicate_pushdown = true,
            "bad_join_flattening" => self.bad_join_flattening = true,
            "bad_constant_folding_text" => self.bad_constant_folding_text = true,
            "bad_notnull_isnull_folding" => self.bad_notnull_isnull_folding = true,
            "bad_in_list_rewrite" => self.bad_in_list_rewrite = true,
            "bad_between_rewrite" => self.bad_between_rewrite = true,
            "bad_distinct_elimination" => self.bad_distinct_elimination = true,
            "bad_limit_pushdown" => self.bad_limit_pushdown = true,
            "bad_nullsafe_eq_rewrite" => self.bad_nullsafe_eq_rewrite = true,
            "bad_case_folding" => self.bad_case_folding = true,
            "bad_index_lookup_coercion" => self.bad_index_lookup_coercion = true,
            "bad_unique_index_shortcut" => self.bad_unique_index_shortcut = true,
            "bad_partial_index_scan" => self.bad_partial_index_scan = true,
            "bad_stale_count_statistics" => self.bad_stale_count_statistics = true,
            "bad_replace_type_affinity" => self.bad_replace_type_affinity = true,
            "bad_bitwise_inversion" => self.bad_bitwise_inversion = true,
            "bad_nullif_null_handling" => self.bad_nullif_null_handling = true,
            "bad_collation_comparison" => self.bad_collation_comparison = true,
            "bad_like_underscore" => self.bad_like_underscore = true,
            "bad_integer_division" => self.bad_integer_division = true,
            "bad_text_coercion_sign" => self.bad_text_coercion_sign = true,
            "bad_sum_empty_group" => self.bad_sum_empty_group = true,
            "bad_count_nulls" => self.bad_count_nulls = true,
            "bad_view_predicate_drop" => self.bad_view_predicate_drop = true,
            "bad_group_by_collation" => self.bad_group_by_collation = true,
            "bad_having_pushdown" => self.bad_having_pushdown = true,
            "txn_lost_rollback" => self.txn_lost_rollback = true,
            "txn_phantom_commit" => self.txn_phantom_commit = true,
            "txn_savepoint_collapse" => self.txn_savepoint_collapse = true,
            "iso_dirty_read" => self.iso_dirty_read = true,
            "iso_lost_update" => self.iso_lost_update = true,
            "iso_nonrepeatable_read" => self.iso_nonrepeatable_read = true,
            "crash_on_deep_expressions" => self.crash_on_deep_expressions = true,
            "crash_on_many_joins" => self.crash_on_many_joins = true,
            _ => return false,
        }
        true
    }

    /// All known fault names.
    pub fn all_names() -> Vec<&'static str> {
        FaultConfig::default()
            .iter_flags()
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn default_is_fault_free() {
        assert_eq!(FaultConfig::none().enabled_count(), 0);
    }

    #[test]
    fn enable_by_name_round_trips() {
        let mut cfg = FaultConfig::none();
        for name in FaultConfig::all_names() {
            assert!(cfg.enable(name), "{name} should be known");
        }
        assert_eq!(cfg.enabled_count(), FaultConfig::all_names().len());
        assert!(!cfg.enable("no_such_fault"));
    }

    #[test]
    fn names_are_unique_and_plentiful() {
        let names = FaultConfig::all_names();
        let set: HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert!(
            names.len() >= 30,
            "need a rich bug catalog, got {}",
            names.len()
        );
    }

    #[test]
    fn bits_agree_with_iter_flags_for_every_single_fault() {
        assert_eq!(FaultConfig::none().bits(), 0);
        for (i, name) in FaultConfig::all_names().into_iter().enumerate() {
            let mut cfg = FaultConfig::none();
            cfg.enable(name);
            assert_eq!(cfg.bits(), 1u64 << i, "bit order diverges at {name}");
            let flagged = cfg.iter_flags().iter().position(|(_, on)| *on);
            assert_eq!(flagged, Some(i), "iter_flags order diverges at {name}");
        }
    }
}
