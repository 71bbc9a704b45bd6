//! The simulated DBMS fleet: 18 dialect presets mirroring the systems in
//! Table 2 of the paper.
//!
//! Each preset combines a typing discipline, an unsupported-feature list and
//! a set of injected bugs. The presets are *modeled on* the real systems —
//! e.g. the `sqlite` preset is dynamically typed and accepts almost
//! everything, the `postgres`-like presets are strictly typed, `cratedb`
//! rejects `CREATE INDEX` and needs `REFRESH TABLE`, `duckdb` has a handful
//! of optimizer bugs — but they are simulations, not the systems themselves:
//! each injected bug is known, so every campaign is scored against ground
//! truth.

use std::sync::Arc;

use crate::dbms::SimulatedDbms;
use crate::faulty::{FaultyConfig, FaultyConnection};
use crate::profile::DialectProfile;
use crate::runner::ExecutionPath;
use sql_engine::{EvalStrategy, Fault, FaultConfig, TypingMode};
use sqlancer_core::driver::{Capability, Driver};

/// A named preset of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectPreset {
    /// The dialect profile, shared with every connection the preset
    /// instantiates.
    pub profile: Arc<DialectProfile>,
    /// The injected engine faults.
    pub faults: FaultConfig,
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
        SimulatedDbms::new(Arc::clone(&self.profile), self.faults)
    }

    /// Instantiates a fresh simulated DBMS with an explicit expression
    /// evaluation strategy (the tree walker is the benchmark baseline and
    /// parity reference arm).
    pub fn instantiate_with_eval(&self, eval: EvalStrategy) -> SimulatedDbms {
        SimulatedDbms::with_eval(Arc::clone(&self.profile), self.faults, eval)
    }

    /// This preset with the given infrastructure faults armed: connections
    /// built by [`DialectPreset::instantiate_for_path`] come wrapped in a
    /// [`FaultyConnection`].
    pub fn with_infra_faults(mut self, config: FaultyConfig) -> DialectPreset {
        self.infra = Some(config);
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

    /// Derived from the dialect profile: cratedb and risingwave reject
    /// transactions, vitess rejects savepoints.
    fn capability(&self) -> Capability {
        let profile = &self.preset.profile;
        let supports_all = |names: &[&str]| names.iter().all(|name| profile.supports(name));
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
    faults: &[Fault],
    requires_refresh: bool,
) -> DialectPreset {
    let mut profile = DialectProfile::permissive(name, typing).without(unsupported);
    profile.requires_refresh = requires_refresh;
    DialectPreset {
        profile: Arc::new(profile),
        faults: FaultConfig::of(faults),
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
            &[Fault::BadCaseFolding, Fault::CrashOnDeepExpressions],
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
                "AGG_TOTAL",
                "JOIN_NATURAL",
                "KW_OR_IGNORE",
            ],
            &[
                Fault::BadNotElimination,
                Fault::BadPredicatePushdown,
                Fault::BadInListRewrite,
                Fault::BadSumEmptyGroup,
                Fault::BadViewPredicateDrop,
                Fault::BadTextCoercionSign,
                Fault::CrashOnManyJoins,
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
            &[Fault::BadBetweenRewrite],
            false,
        ),
        preset(
            "dolt",
            TypingMode::Dynamic,
            &["JOIN_FULL", "OP_BITXOR", "FN_STRPOS", "STMT_ANALYZE"],
            &[
                Fault::BadJoinFlattening,
                Fault::BadGroupByCollation,
                Fault::BadLikeUnderscore,
                Fault::BadCountNulls,
                Fault::TxnLostRollback,
                Fault::CrashOnDeepExpressions,
                Fault::CrashOnManyJoins,
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
                "AGG_TOTAL",
                "FN_SPACE",
                "FN_INSTR",
                "KW_OR_IGNORE",
                "KW_PARTIAL_INDEX",
                "JOIN_NATURAL",
            ],
            &[
                Fault::BadRangeNegation,
                Fault::BadStaleCountStatistics,
                Fault::BadIntegerDivision,
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
                Fault::BadNotnullIsnullFolding,
                Fault::BadHavingPushdown,
                Fault::TxnSavepointCollapse,
                Fault::CrashOnDeepExpressions,
            ],
            false,
        ),
        preset(
            "h2",
            TypingMode::Strict,
            &["OP_NULLSAFE_EQ", "FN_STRPOS"],
            &[Fault::BadNullifNullHandling],
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
            &[Fault::BadCollationComparison, Fault::IsoLostUpdate],
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
                Fault::BadPredicatePushdown,
                Fault::BadDistinctElimination,
                Fault::BadUniqueIndexShortcut,
                Fault::BadCaseFolding,
                Fault::BadSumEmptyGroup,
                Fault::BadHavingPushdown,
                Fault::TxnPhantomCommit,
                Fault::CrashOnManyJoins,
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
                "AGG_TOTAL",
            ],
            // Isolation fault: the begin-time snapshot leaks other
            // sessions' uncommitted writes (dirty read).
            &[Fault::BadBitwiseInversion, Fault::IsoDirtyRead],
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
            &[Fault::BadConstantFoldingText],
            false,
        ),
        preset(
            "percona",
            TypingMode::Dynamic,
            &["JOIN_FULL", "OP_IS_DISTINCT", "OP_IS_NOT_DISTINCT"],
            &[Fault::BadBitwiseInversion, Fault::BadCollationComparison],
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
                Fault::BadPredicatePushdown,
                Fault::BadSumEmptyGroup,
                Fault::CrashOnManyJoins,
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
            &[Fault::BadReplaceTypeAffinity, Fault::BadJoinFlattening],
            false,
        ),
        preset(
            "tidb",
            TypingMode::Dynamic,
            &["JOIN_FULL", "OP_IS_DISTINCT", "OP_IS_NOT_DISTINCT"],
            // Isolation fault: in-transaction reads of unwritten tables
            // see the latest committed state (non-repeatable read).
            &[
                Fault::BadBitwiseInversion,
                Fault::BadIndexLookupCoercion,
                Fault::IsoNonrepeatableRead,
            ],
            false,
        ),
        preset(
            "umbra",
            TypingMode::Strict,
            &["OP_NULLSAFE_EQ", "FN_IF", "AGG_TOTAL", "JOIN_NATURAL"],
            &[
                Fault::BadNotElimination,
                Fault::BadRangeNegation,
                Fault::BadInListRewrite,
                Fault::BadBetweenRewrite,
                Fault::BadDistinctElimination,
                Fault::BadNullifNullHandling,
                Fault::BadTextCoercionSign,
                Fault::BadCountNulls,
                Fault::CrashOnDeepExpressions,
            ],
            false,
        ),
        preset(
            "virtuoso",
            TypingMode::Dynamic,
            &["JOIN_FULL", "FN_CONCAT_WS", "FN_STRPOS", "KW_PARTIAL_INDEX"],
            &[
                Fault::BadViewPredicateDrop,
                Fault::BadGroupByCollation,
                Fault::CrashOnDeepExpressions,
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
            &[Fault::BadIndexLookupCoercion],
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
    fn every_preset_pool_reports_its_profile_quirks() {
        let mut refreshing = Vec::new();
        for preset in fleet() {
            let expected = sqlancer_core::DialectQuirks {
                requires_refresh: preset.profile.requires_refresh,
                requires_commit: preset.profile.requires_commit,
            };
            for path in [ExecutionPath::Ast, ExecutionPath::Text] {
                let pool = sqlancer_core::Pool::new(preset.driver(path), 2).expect("pool connects");
                assert_eq!(
                    pool.quirks(),
                    expected,
                    "{} on {path:?}",
                    preset.profile.name
                );
            }
            if expected.requires_refresh {
                refreshing.push(preset.profile.name.clone());
            }
        }
        assert_eq!(refreshing, ["cratedb", "risingwave"]);
    }

    #[test]
    fn most_presets_inject_at_least_one_logic_bug() {
        let with_bugs = fleet()
            .iter()
            .filter(|p| p.faults != FaultConfig::none())
            .count();
        assert_eq!(with_bugs, 18, "every dialect carries injected bugs");
    }

    #[test]
    fn every_unsupported_feature_is_in_the_generator_universe() {
        let universe: BTreeSet<&str> = sqlancer_core::FeatureSet::universe()
            .iter()
            .map(|f| f.name())
            .collect();
        for preset in fleet() {
            for feature in preset.profile.unsupported() {
                assert!(
                    universe.contains(feature.as_str()),
                    "{} rejects {feature}, which the generator never records",
                    preset.profile.name
                );
            }
        }
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
