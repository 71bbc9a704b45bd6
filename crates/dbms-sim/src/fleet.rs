//! The simulated DBMS fleet: 18 dialect presets mirroring the systems in
//! Table 2 of the paper.
//!
//! Each preset combines a typing discipline, an unsupported-feature list and
//! a set of injected bugs. The presets are *modeled on* the real systems —
//! e.g. the `sqlite` preset is dynamically typed and accepts almost
//! everything, the `postgres`-like presets are strictly typed, `cratedb`
//! rejects `CREATE INDEX` and needs `REFRESH TABLE`, `duckdb` has a handful
//! of optimizer bugs — but they are simulations, not the systems themselves
//! (see DESIGN.md §1 for the substitution rationale).

use std::sync::Arc;

use crate::dbms::SimulatedDbms;
use crate::faulty::{FaultyConfig, FaultyConnection};
use crate::profile::DialectProfile;
use crate::runner::ExecutionPath;
use sql_engine::{EvalStrategy, TypingMode};
use sqlancer_core::driver::{Capability, Driver};

/// A named preset of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectPreset {
    /// The dialect profile, shared with every connection the preset
    /// instantiates.
    pub profile: Arc<DialectProfile>,
    /// Names of the injected engine faults.
    pub faults: Vec<&'static str>,
    /// Injected *infrastructure* faults (crashes, hangs, drops, garbled
    /// results), layered as a [`FaultyConnection`] decorator when set.
    /// `None` for the stock fleet — robustness experiments arm them with
    /// [`DialectPreset::with_infra_faults`].
    pub infra: Option<FaultyConfig>,
}

impl DialectPreset {
    /// Instantiates a fresh simulated DBMS from the preset.
    ///
    /// Note this is the bare engine, without the infrastructure-fault
    /// decorator — ground-truth bisection replays cases on it directly.
    /// The campaign runners go through [`DialectPreset::instantiate_for_path`],
    /// which layers the decorator when [`DialectPreset::infra`] is set.
    pub fn instantiate(&self) -> SimulatedDbms {
        SimulatedDbms::new(Arc::clone(&self.profile), self.faults.clone())
    }

    /// Instantiates a fresh simulated DBMS with an explicit expression
    /// evaluation strategy (the tree walker is the benchmark baseline and
    /// parity reference arm).
    pub fn instantiate_with_eval(&self, eval: EvalStrategy) -> SimulatedDbms {
        SimulatedDbms::with_eval(Arc::clone(&self.profile), self.faults.clone(), eval)
    }

    /// This preset with the given infrastructure faults armed: connections
    /// built by [`DialectPreset::instantiate_for_path`] come wrapped in a
    /// [`FaultyConnection`].
    pub fn with_infra_faults(mut self, config: FaultyConfig) -> DialectPreset {
        self.infra = Some(config);
        self
    }

    /// This preset with every injected *engine* fault removed (the
    /// logic-bug-free variant used by the fault-storm CI gate, where any
    /// reported logic bug is by construction a false positive).
    pub fn without_engine_faults(mut self) -> DialectPreset {
        self.faults.clear();
        self
    }

    /// Instantiates a fresh connection configured for the given execution
    /// path — the shared setup of the serial, fleet-parallel and
    /// within-dialect partitioned campaign runners. When the preset arms
    /// infrastructure faults, the connection is wrapped in a
    /// [`FaultyConnection`] (outermost, so faults hit the text and AST
    /// paths alike).
    pub fn instantiate_for_path(
        &self,
        path: crate::runner::ExecutionPath,
    ) -> Box<dyn sqlancer_core::DbmsConnection> {
        use crate::runner::ExecutionPath;
        let conn: Box<dyn sqlancer_core::DbmsConnection> = match path {
            ExecutionPath::Ast => Box::new(self.instantiate()),
            ExecutionPath::AstTreeWalk => {
                Box::new(self.instantiate_with_eval(EvalStrategy::TreeWalk))
            }
            ExecutionPath::Text => {
                Box::new(sqlancer_core::TextOnlyConnection::new(self.instantiate()))
            }
        };
        match &self.infra {
            Some(config) => Box::new(FaultyConnection::new(conn, config.clone())),
            None => conn,
        }
    }

    /// The [`Capability`] report of this preset under the given execution
    /// path, derived from the dialect profile: what were hardcoded
    /// dialect-name facts (cratedb/risingwave reject transactions, vitess
    /// rejects savepoints, CrateDB needs `REFRESH TABLE`) now flow through
    /// capability fields. The AST fast path is a capability of the
    /// simulated fleet, not an assumption — the `Text` path reports a
    /// text-only wire contract for statements.
    pub fn capability_for_path(&self, path: ExecutionPath) -> Capability {
        let supports_all = |names: &[&str]| names.iter().all(|name| self.profile.supports(name));
        let transactions = supports_all(&["STMT_BEGIN", "STMT_COMMIT", "STMT_ROLLBACK"]);
        Capability::default()
            .with_transactions(transactions)
            .with_savepoints(
                transactions
                    && supports_all(&[
                        "STMT_SAVEPOINT",
                        "STMT_ROLLBACK_TO",
                        "STMT_RELEASE_SAVEPOINT",
                    ]),
            )
            .with_ast_statements(path != ExecutionPath::Text)
            .with_requires_refresh(self.profile.requires_refresh)
            .with_requires_commit(self.profile.requires_commit)
    }

    /// Re-exposes the preset through the platform's [`Driver`] interface:
    /// a factory for connections built by
    /// [`DialectPreset::instantiate_for_path`] (infrastructure-fault
    /// decorator included, so `FaultyConnection`s wrap pooled connections
    /// individually), plus the capability report.
    pub fn driver(&self, path: ExecutionPath) -> Arc<dyn Driver> {
        Arc::new(SimDriver {
            preset: self.clone(),
            path,
        })
    }
}

/// A [`DialectPreset`] behind the platform's [`Driver`] interface (see
/// [`DialectPreset::driver`]).
pub struct SimDriver {
    preset: DialectPreset,
    path: ExecutionPath,
}

impl Driver for SimDriver {
    fn name(&self) -> &str {
        &self.preset.profile.name
    }

    fn capability(&self) -> Capability {
        self.preset.capability_for_path(self.path)
    }

    fn connect(&self) -> Result<Box<dyn sqlancer_core::DbmsConnection>, String> {
        Ok(self.preset.instantiate_for_path(self.path))
    }
}

/// The whole fleet as drivers, in fleet order — the fleet runners'
/// native input.
pub fn fleet_drivers(path: ExecutionPath) -> Vec<Arc<dyn Driver>> {
    fleet().iter().map(|preset| preset.driver(path)).collect()
}

fn preset(
    name: &str,
    typing: TypingMode,
    unsupported: &[&str],
    faults: &[&'static str],
    requires_refresh: bool,
) -> DialectPreset {
    let mut profile = DialectProfile::permissive(name, typing).without(unsupported);
    profile.requires_refresh = requires_refresh;
    DialectPreset {
        profile: Arc::new(profile),
        faults: faults.to_vec(),
        infra: None,
    }
}

/// The 18-dialect fleet, in the alphabetical order of Table 2.
pub fn fleet() -> Vec<DialectPreset> {
    vec![
        preset(
            "cedardb",
            TypingMode::Strict,
            &[
                "OP_NULLSAFE_EQ",
                "FN_IIF",
                "FN_IF",
                "JOIN_NATURAL",
                "STMT_ANALYZE",
            ],
            &["bad_case_folding", "crash_on_deep_expressions"],
            false,
        ),
        preset(
            "cratedb",
            TypingMode::Strict,
            // CrateDB has no multi-statement transactions: every
            // transaction-control statement is rejected, which is what the
            // adaptive generator's `transactions` feature learns.
            &[
                "STMT_CREATE_INDEX",
                "STMT_BEGIN",
                "STMT_ROLLBACK",
                "STMT_SAVEPOINT",
                "STMT_ROLLBACK_TO",
                "STMT_RELEASE_SAVEPOINT",
                "OP_NULLSAFE_EQ",
                "FN_IIF",
                "FN_IF",
                "FN_TOTAL",
                "JOIN_NATURAL",
                "KW_OR_IGNORE",
            ],
            &[
                "bad_not_elimination",
                "bad_predicate_pushdown",
                "bad_in_list_rewrite",
                "bad_sum_empty_group",
                "bad_view_predicate_drop",
                "bad_text_coercion_sign",
                "crash_on_many_joins",
            ],
            true,
        ),
        preset(
            "cubrid",
            TypingMode::Strict,
            &[
                "JOIN_FULL",
                "FN_CONCAT_WS",
                "OP_IS_DISTINCT",
                "OP_IS_NOT_DISTINCT",
            ],
            &["bad_between_rewrite"],
            false,
        ),
        preset(
            "dolt",
            TypingMode::Dynamic,
            &["JOIN_FULL", "OP_BITXOR", "FN_STRPOS", "STMT_ANALYZE"],
            &[
                "bad_join_flattening",
                "bad_group_by_collation",
                "bad_like_underscore",
                "bad_count_nulls",
                "txn_lost_rollback",
                "crash_on_deep_expressions",
                "crash_on_many_joins",
            ],
            false,
        ),
        preset(
            "duckdb",
            TypingMode::Dynamic,
            &[
                "OP_NULLSAFE_EQ",
                "FN_IF",
                "FN_IIF",
                "FN_TOTAL",
                "FN_SPACE",
                "FN_INSTR",
                "KW_OR_IGNORE",
                "KW_PARTIAL_INDEX",
                "JOIN_NATURAL",
            ],
            &[
                "bad_range_negation",
                "bad_limit_pushdown",
                "bad_stale_count_statistics",
                "bad_integer_division",
            ],
            false,
        ),
        preset(
            "firebird",
            TypingMode::Strict,
            &[
                "OP_NULLSAFE_EQ",
                "OP_BITXOR",
                "FN_GREATEST",
                "FN_LEAST",
                "KW_PARTIAL_INDEX",
            ],
            &[
                "bad_notnull_isnull_folding",
                "bad_having_pushdown",
                "txn_savepoint_collapse",
                "crash_on_deep_expressions",
            ],
            false,
        ),
        preset(
            "h2",
            TypingMode::Strict,
            &["OP_NULLSAFE_EQ", "FN_STRPOS"],
            &["bad_nullif_null_handling"],
            false,
        ),
        preset(
            "mariadb",
            TypingMode::Dynamic,
            &[
                "JOIN_FULL",
                "OP_IS_DISTINCT",
                "OP_IS_NOT_DISTINCT",
                "FN_GREATEST",
            ],
            // Isolation fault: COMMIT skips first-committer-wins
            // validation (lost update).
            &["bad_collation_comparison", "iso_lost_update"],
            false,
        ),
        preset(
            "monetdb",
            TypingMode::Strict,
            &[
                "OP_NULLSAFE_EQ",
                "FN_IIF",
                "KW_PARTIAL_INDEX",
                "KW_OR_IGNORE",
            ],
            &[
                "bad_predicate_pushdown",
                "bad_distinct_elimination",
                "bad_unique_index_shortcut",
                "bad_case_folding",
                "bad_sum_empty_group",
                "bad_having_pushdown",
                "txn_phantom_commit",
                "crash_on_many_joins",
            ],
            false,
        ),
        preset(
            "mysql",
            TypingMode::Dynamic,
            &[
                "JOIN_FULL",
                "OP_IS_DISTINCT",
                "OP_IS_NOT_DISTINCT",
                "FN_TOTAL",
            ],
            // Isolation fault: the begin-time snapshot leaks other
            // sessions' uncommitted writes (dirty read).
            &["bad_bitwise_inversion", "iso_dirty_read"],
            false,
        ),
        preset(
            "oracle",
            TypingMode::Strict,
            &[
                "TYPE_BOOLEAN",
                "OP_NULLSAFE_EQ",
                "FN_IF",
                "KW_OR_IGNORE",
                "CLAUSE_LIMIT",
            ],
            &["bad_constant_folding_text"],
            false,
        ),
        preset(
            "percona",
            TypingMode::Dynamic,
            &["JOIN_FULL", "OP_IS_DISTINCT", "OP_IS_NOT_DISTINCT"],
            &["bad_bitwise_inversion", "bad_collation_comparison"],
            false,
        ),
        preset(
            "risingwave",
            TypingMode::Strict,
            // Streaming system: no interactive transactions.
            &[
                "STMT_CREATE_INDEX",
                "STMT_BEGIN",
                "STMT_ROLLBACK",
                "STMT_SAVEPOINT",
                "STMT_ROLLBACK_TO",
                "STMT_RELEASE_SAVEPOINT",
                "OP_NULLSAFE_EQ",
                "STMT_ANALYZE",
                "FN_IIF",
            ],
            &[
                "bad_predicate_pushdown",
                "bad_sum_empty_group",
                "crash_on_many_joins",
            ],
            true,
        ),
        preset(
            "sqlite",
            TypingMode::Dynamic,
            // SQLite's dialect is permissive but still misses a number of the
            // generator's features (no null-safe equality, no RIGHT/FULL JOIN
            // before 3.39, few padding/char functions, no GREATEST/LEAST).
            &[
                "OP_NULLSAFE_EQ",
                "JOIN_RIGHT",
                "JOIN_FULL",
                "FN_LPAD",
                "FN_RPAD",
                "FN_REPEAT",
                "FN_CHR",
                "FN_SPACE",
                "FN_GREATEST",
                "FN_LEAST",
                "FN_STRPOS",
                "FN_CONCAT_WS",
                "FN_TO_CHAR",
                "FN_IF",
            ],
            &["bad_replace_type_affinity", "bad_join_flattening"],
            false,
        ),
        preset(
            "tidb",
            TypingMode::Dynamic,
            &["JOIN_FULL", "OP_IS_DISTINCT", "OP_IS_NOT_DISTINCT"],
            // Isolation fault: in-transaction reads of unwritten tables
            // see the latest committed state (non-repeatable read).
            &[
                "bad_bitwise_inversion",
                "bad_index_lookup_coercion",
                "iso_nonrepeatable_read",
            ],
            false,
        ),
        preset(
            "umbra",
            TypingMode::Strict,
            &["OP_NULLSAFE_EQ", "FN_IF", "FN_TOTAL", "JOIN_NATURAL"],
            &[
                "bad_not_elimination",
                "bad_range_negation",
                "bad_in_list_rewrite",
                "bad_between_rewrite",
                "bad_limit_pushdown",
                "bad_distinct_elimination",
                "bad_nullif_null_handling",
                "bad_text_coercion_sign",
                "bad_count_nulls",
                "crash_on_deep_expressions",
            ],
            false,
        ),
        preset(
            "virtuoso",
            TypingMode::Dynamic,
            &["JOIN_FULL", "FN_CONCAT_WS", "FN_STRPOS", "KW_PARTIAL_INDEX"],
            &[
                "bad_view_predicate_drop",
                "bad_group_by_collation",
                "crash_on_deep_expressions",
            ],
            false,
        ),
        preset(
            "vitess",
            TypingMode::Dynamic,
            // Sharded MySQL: transactions work, savepoints do not.
            &[
                "JOIN_FULL",
                "OP_IS_DISTINCT",
                "OP_IS_NOT_DISTINCT",
                "STMT_CREATE_VIEW",
                "STMT_SAVEPOINT",
                "STMT_ROLLBACK_TO",
                "STMT_RELEASE_SAVEPOINT",
            ],
            &["bad_index_lookup_coercion"],
            false,
        ),
    ]
}

/// Looks a preset up by name.
pub fn preset_by_name(name: &str) -> Option<DialectPreset> {
    fleet()
        .into_iter()
        .find(|p| p.profile.name.eq_ignore_ascii_case(name))
}

/// Names of the three dialects used in the coverage / validity experiments
/// (Tables 3 and 4 of the paper): SQLite-, PostgreSQL- and DuckDB-like.
pub fn validity_experiment_dialects() -> Vec<DialectPreset> {
    // The paper measures validity on SQLite and PostgreSQL; the fleet has no
    // dialect literally named "postgresql", its closest strictly-typed
    // stand-in is `umbra` (a textbook strict dialect). We also include
    // DuckDB per Table 4.
    vec![
        preset_by_name("sqlite").expect("sqlite preset"),
        preset_by_name("umbra").expect("umbra preset"),
        preset_by_name("duckdb").expect("duckdb preset"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlancer_core::DbmsConnection;
    use std::collections::BTreeSet;

    #[test]
    fn fleet_matches_paper_scale() {
        let fleet = fleet();
        assert_eq!(fleet.len(), 18);
        let names: BTreeSet<_> = fleet.iter().map(|p| p.profile.name.clone()).collect();
        assert_eq!(names.len(), 18);
        // Every preset instantiates and accepts a trivial statement.
        for preset in &fleet {
            let mut dbms = preset.instantiate();
            assert!(
                dbms.execute("CREATE TABLE smoke (c0 INTEGER)").is_success(),
                "{} rejects trivial DDL",
                preset.profile.name
            );
        }
    }

    #[test]
    fn cratedb_preset_mirrors_paper_quirks() {
        let preset = preset_by_name("cratedb").unwrap();
        assert!(preset.profile.requires_refresh);
        assert!(!preset.profile.supports("STMT_CREATE_INDEX"));
        let mut dbms = preset.instantiate();
        dbms.execute("CREATE TABLE t0 (c0 INTEGER)");
        assert!(!dbms.execute("CREATE INDEX i0 ON t0(c0)").is_success());
    }

    #[test]
    fn most_presets_inject_at_least_one_logic_bug() {
        let with_bugs = fleet().iter().filter(|p| !p.faults.is_empty()).count();
        assert_eq!(with_bugs, 18, "every dialect carries injected bugs");
    }

    #[test]
    fn dialects_differ_in_supported_features() {
        let sqlite = preset_by_name("sqlite")
            .unwrap()
            .profile
            .supported_universe();
        let mysql = preset_by_name("mysql")
            .unwrap()
            .profile
            .supported_universe();
        let cratedb = preset_by_name("cratedb")
            .unwrap()
            .profile
            .supported_universe();
        assert!(mysql.len() > cratedb.len());
        assert_ne!(sqlite, mysql);
    }
}
