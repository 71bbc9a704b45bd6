//! The adaptive SQL statement generator (Section 4, Figure 5).
//!
//! The generator produces random DDL/DML statements and queries over its own
//! [`SchemaModel`], records the [`FeatureSet`] used by each statement, and —
//! when feedback is enabled — suppresses features that the Bayesian support
//! model ([`FeatureStats`]) deems unsupported. Probability mass from
//! suppressed alternatives is redistributed uniformly over the remaining
//! ones, which is exactly the update rule of step ④ in Figure 5.
//!
//! Three operating modes reproduce the paper's experimental arms:
//!
//! * **Adaptive** (feedback on) — the paper's *SQLancer++*;
//! * **Random** (feedback off) — the paper's *SQLancer++ Rand*;
//! * **Perfect knowledge** — the generator is told the dialect's supported
//!   feature set up front, standing in for the hand-written, DBMS-specific
//!   generators of *SQLancer*.

use crate::feature::{Feature, FeatureSet};
use crate::oracle::{Schedule, SessionScript};
use crate::schema::{ModelTable, SchemaModel};
use crate::stats::{FeatureKind, FeatureStats, StatsConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sql_ast::{
    AggregateFunction, BeginMode, BinaryOp, CaseBranch, ColumnConstraint, ColumnDef, CreateIndex,
    CreateTable, CreateView, DataType, Expr, Insert, Join, JoinType, OrderByItem, ScalarFunction,
    Select, SelectItem, SortOrder, Statement, TableConstraint, TableFactor, TableWithJoins,
    UnaryOp,
};
use std::collections::BTreeSet;

/// Tuning knobs of the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Maximum expression depth (the paper uses 3).
    pub max_expr_depth: usize,
    /// Maximum number of base tables to create per database (paper: 2).
    pub max_tables: usize,
    /// Maximum number of views to create per database (paper: 1).
    pub max_views: usize,
    /// Maximum rows per `INSERT`.
    pub max_insert_rows: usize,
    /// Whether validity feedback steers generation (`false` = "Rand").
    pub feedback_enabled: bool,
    /// Statistics/threshold configuration for the support model.
    pub stats: StatsConfig,
    /// Number of recorded executions between suppression-table updates
    /// (step ③/④ of Figure 5 run every `update_interval` cases).
    pub update_interval: u64,
    /// Number of recorded executions after which the expression depth grows
    /// by one (the paper's execution strategy starts at depth 1).
    pub depth_schedule_interval: u64,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            max_expr_depth: 3,
            max_tables: 2,
            max_views: 1,
            max_insert_rows: 3,
            feedback_enabled: true,
            stats: StatsConfig::default(),
            update_interval: 50,
            depth_schedule_interval: 200,
        }
    }
}

impl GeneratorConfig {
    /// The "SQLancer++ Rand" configuration: no feedback.
    pub fn random_baseline() -> GeneratorConfig {
        GeneratorConfig {
            feedback_enabled: false,
            ..GeneratorConfig::default()
        }
    }
}

/// A generated statement together with its SQL text and feature set.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedStatement {
    /// The statement AST.
    pub statement: Statement,
    /// Its SQL rendering (what is sent to the DBMS).
    pub sql: String,
    /// The features enabled while generating it.
    pub features: FeatureSet,
    /// Which feedback category it belongs to.
    pub kind: FeatureKind,
}

/// A generated query (always a `SELECT` with an explicit predicate so the
/// oracles can transform it).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedQuery {
    /// The query.
    pub select: Select,
    /// The predicate the query filters on (also present as `where_clause`).
    pub predicate: Expr,
    /// The features enabled while generating it.
    pub features: FeatureSet,
}

/// A generated multi-statement transactional session for the rollback
/// oracle: mutations (and optional savepoint regions) against one table.
/// The oracle supplies the outer `BEGIN`/`COMMIT`/`ROLLBACK` bracketing.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedTxnSession {
    /// The table the mutations target (and the oracle fingerprints).
    pub table: String,
    /// The session body: DML, possibly interleaved with
    /// `SAVEPOINT`/`ROLLBACK TO` pairs.
    pub statements: Vec<Statement>,
    /// The features enabled while generating it — always includes the
    /// transaction-control statement features, which is how the Bayesian
    /// support model learns per-dialect transaction support.
    pub features: FeatureSet,
}

/// A generated two-session concurrent schedule for the isolation oracle:
/// per-session mutation scripts plus an explicit, seed-derived interleaving
/// (a deterministic step list — campaigns stay byte-reproducible, no real
/// threads involved).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedSchedule {
    /// The schedule: session scripts, closers, begin modes, interleaving.
    pub schedule: Schedule,
    /// The features enabled while generating it (transaction-control
    /// features included, so dialect transaction support is learned from
    /// schedule outcomes too).
    pub features: FeatureSet,
}

/// The adaptive statement generator.
#[derive(Debug, Clone)]
pub struct AdaptiveGenerator {
    rng: StdRng,
    /// The internal schema model (Figure 3).
    pub schema: SchemaModel,
    /// Validity-feedback statistics.
    pub stats: FeatureStats,
    config: GeneratorConfig,
    suppressed_query: BTreeSet<Feature>,
    suppressed_ddl: BTreeSet<Feature>,
    known_supported: Option<BTreeSet<Feature>>,
    /// Features the backend's [`Capability`] report rules out up front
    /// (e.g. a driver without transactions). Unlike the learned suppression
    /// tables this set is configuration, not state: it is not checkpointed
    /// and is re-applied from the driver on resume.
    capability_suppressed: BTreeSet<Feature>,
    /// Whether the backend can open concurrent sessions; when `false`,
    /// schedule generation degrades to `None` (the campaign falls back to
    /// a single-query oracle) instead of burning invalid cases.
    multi_session: bool,
    /// Coverage direction for the next statement: `(cold features, extra
    /// weight)`. When set, [`AdaptiveGenerator::pick`] draws weighted —
    /// cold options count `1 + boost` — instead of uniformly. Like
    /// capability suppression this is per-case configuration, not
    /// checkpointed state: the campaign derives it from the atlas and the
    /// case seed before every case and clears it after. A hash set, not a
    /// tree: the pick path probes it once per candidate option, and only
    /// membership is ever observed (iteration order never matters, so the
    /// hasher cannot leak into the campaign's determinism contract).
    coverage_direction: Option<(std::collections::HashSet<Feature>, usize)>,
    /// Reusable weight buffer for the directed draw (pick is the
    /// generator's hottest loop; no per-pick allocation).
    direction_scratch: Vec<usize>,
    recorded: u64,
    current_depth: usize,
}

impl AdaptiveGenerator {
    /// Creates a generator with the given seed and configuration.
    pub fn new(seed: u64, config: GeneratorConfig) -> AdaptiveGenerator {
        AdaptiveGenerator {
            rng: StdRng::seed_from_u64(seed),
            schema: SchemaModel::new(),
            stats: FeatureStats::new(),
            suppressed_query: BTreeSet::new(),
            suppressed_ddl: BTreeSet::new(),
            known_supported: None,
            capability_suppressed: BTreeSet::new(),
            multi_session: true,
            coverage_direction: None,
            direction_scratch: Vec::new(),
            recorded: 0,
            current_depth: 1,
            config,
        }
    }

    /// Creates a perfect-knowledge generator: only features in `supported`
    /// are ever generated. Stands in for a hand-written DBMS-specific
    /// generator (the SQLancer baseline).
    pub fn with_knowledge(
        seed: u64,
        config: GeneratorConfig,
        supported: BTreeSet<Feature>,
    ) -> AdaptiveGenerator {
        let mut generator = AdaptiveGenerator::new(seed, config);
        generator.known_supported = Some(supported);
        generator.current_depth = generator.config.max_expr_depth;
        generator
    }

    /// The generator configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Applies a driver's [`Capability`](crate::driver::Capability) report:
    /// statement features the backend rules out up front are suppressed
    /// before any learning happens, and schedule generation is disabled
    /// when the backend cannot open concurrent sessions. Idempotent;
    /// callers re-apply the same capability when resuming a campaign
    /// (capability suppression is configuration, not checkpointed state).
    pub fn apply_capability(&mut self, capability: &crate::driver::Capability) {
        self.capability_suppressed = capability.unsupported_statement_features();
        self.multi_session = capability.multi_session;
    }

    /// Features suppressed by the applied capability report (empty when no
    /// capability has been applied).
    pub fn capability_suppressed_features(&self) -> &BTreeSet<Feature> {
        &self.capability_suppressed
    }

    /// Steers the next statement toward `cold` features: every cold option
    /// in a weighted pick among alternatives counts `1 + boost` tickets
    /// instead of one. The campaign sets this right before generating a
    /// case (boost derived from the case seed, so directed runs are as
    /// reproducible as uniform ones) and clears it right after.
    pub fn set_coverage_direction(&mut self, cold: BTreeSet<Feature>, boost: usize) {
        self.coverage_direction = Some((cold.into_iter().collect(), boost));
    }

    /// Returns picks to uniform draws (see
    /// [`AdaptiveGenerator::set_coverage_direction`]).
    pub fn clear_coverage_direction(&mut self) {
        self.coverage_direction = None;
    }

    /// Current expression-depth budget (grows over time).
    pub fn current_depth(&self) -> usize {
        self.current_depth
    }

    /// Number of executions recorded so far.
    pub fn recorded_executions(&self) -> u64 {
        self.recorded
    }

    /// Features currently suppressed for query generation.
    pub fn suppressed_query_features(&self) -> &BTreeSet<Feature> {
        &self.suppressed_query
    }

    /// Features currently suppressed for DDL/DML generation.
    pub fn suppressed_ddl_features(&self) -> &BTreeSet<Feature> {
        &self.suppressed_ddl
    }

    /// The raw RNG state, for campaign checkpoints. Together with
    /// [`AdaptiveGenerator::restore_runtime_state`] (and direct restoration
    /// of the public `schema` and `stats` fields) this reconstructs the
    /// generator mid-campaign exactly.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restores the private runtime state captured by a campaign
    /// checkpoint: the RNG position, the execution counter driving the
    /// update/depth schedules, the depth budget, and the suppression
    /// tables.
    ///
    /// The suppression tables must be restored verbatim rather than
    /// recomputed from `stats`: they only refresh at `update_interval`
    /// boundaries, so between boundaries they lag the statistics by design
    /// — recomputing them on load would make a resumed campaign diverge
    /// from an uninterrupted one.
    pub fn restore_runtime_state(
        &mut self,
        rng_state: u64,
        recorded: u64,
        current_depth: usize,
        suppressed_query: BTreeSet<Feature>,
        suppressed_ddl: BTreeSet<Feature>,
    ) {
        self.rng = StdRng::seed_from_u64(rng_state);
        self.recorded = recorded;
        self.current_depth = current_depth;
        self.suppressed_query = suppressed_query;
        self.suppressed_ddl = suppressed_ddl;
    }

    /// Whether a feature may currently be generated (the paper's
    /// `shouldGenerate`, Listing 4).
    pub fn should_generate(&self, feature: &Feature, kind: FeatureKind) -> bool {
        if self.capability_suppressed.contains(feature) {
            return false;
        }
        if let Some(known) = &self.known_supported {
            return known.contains(feature);
        }
        if !self.config.feedback_enabled {
            return true;
        }
        match kind {
            FeatureKind::Query => !self.suppressed_query.contains(feature),
            FeatureKind::DdlDml => !self.suppressed_ddl.contains(feature),
        }
    }

    /// Records the execution outcome of a generated statement and updates
    /// the support model, the suppression tables and the depth schedule.
    pub fn record_outcome(&mut self, features: &FeatureSet, kind: FeatureKind, success: bool) {
        self.stats.record(features, kind, success);
        self.recorded += 1;
        if self.config.feedback_enabled && self.recorded.is_multiple_of(self.config.update_interval)
        {
            self.refresh_suppression();
        }
        if self
            .recorded
            .is_multiple_of(self.config.depth_schedule_interval)
            && self.current_depth < self.config.max_expr_depth
        {
            self.current_depth += 1;
        }
    }

    /// Recomputes the suppression tables from the support model (steps ③/④
    /// of Figure 5).
    pub fn refresh_suppression(&mut self) {
        self.suppressed_query = self
            .stats
            .unsupported_features(FeatureKind::Query, &self.config.stats)
            .into_iter()
            .collect();
        self.suppressed_ddl = self
            .stats
            .unsupported_features(FeatureKind::DdlDml, &self.config.stats)
            .into_iter()
            .collect();
    }

    /// Informs the schema model that a statement succeeded.
    pub fn apply_success(&mut self, stmt: &Statement) {
        self.schema.apply_success(stmt);
    }

    /// Clears the schema model (called when the DBMS is reset).
    pub fn reset_schema(&mut self) {
        self.schema.clear();
    }

    // ------------------------------------------------------- choices ----

    fn pick<'a, T>(
        &mut self,
        options: &'a [(T, Feature)],
        kind: FeatureKind,
    ) -> Option<&'a (T, Feature)> {
        let allowed: Vec<&(T, Feature)> = options
            .iter()
            .filter(|(_, f)| self.should_generate(f, kind))
            .collect();
        if allowed.is_empty() {
            return None;
        }
        if let Some((cold, boost)) = &self.coverage_direction {
            if !cold.is_empty() {
                // Coverage-directed draw: cold features carry `1 + boost`
                // tickets each, weighed in a single pass into the reusable
                // scratch buffer. One gen_range call per pick keeps the
                // RNG stream seed-stable regardless of which option wins.
                self.direction_scratch.clear();
                let mut total = 0usize;
                for option in &allowed {
                    let w = 1 + if cold.contains(&option.1) { *boost } else { 0 };
                    total += w;
                    self.direction_scratch.push(w);
                }
                let mut ticket = self.rng.gen_range(0..total);
                for (index, w) in self.direction_scratch.iter().enumerate() {
                    if ticket < *w {
                        return Some(allowed[index]);
                    }
                    ticket -= w;
                }
                unreachable!("ticket within total weight");
            }
            // An exhausted cold set makes every weight 1, and an all-ones
            // weighted draw is exactly the uniform draw below — same RNG
            // consumption, same winner — so fall through to the fast path.
        }
        let idx = self.rng.gen_range(0..allowed.len());
        Some(allowed[idx])
    }

    fn bool_with(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    // ---------------------------------------------------- DDL / DML ----

    /// Generates the next database-construction statement: tables first,
    /// then a mix of inserts, indexes, views and `ANALYZE`.
    pub fn generate_ddl_statement(&mut self) -> GeneratedStatement {
        let base_tables = self.schema.base_tables().len();
        let views = self.schema.tables().len() - base_tables;
        if base_tables < self.config.max_tables {
            return self.generate_create_table();
        }
        let mut options: Vec<(u8, Feature)> = vec![
            (0, Feature::statement("STMT_INSERT")),
            (0, Feature::statement("STMT_INSERT")),
            (0, Feature::statement("STMT_INSERT")),
            (1, Feature::statement("STMT_CREATE_INDEX")),
            (3, Feature::statement("STMT_ANALYZE")),
        ];
        if views < self.config.max_views {
            options.push((2, Feature::statement("STMT_CREATE_VIEW")));
        }
        let choice = self
            .pick(&options, FeatureKind::DdlDml)
            .map(|(c, _)| *c)
            .unwrap_or(0);
        match choice {
            1 => self.generate_create_index(),
            2 => self.generate_create_view(),
            3 => self.generate_analyze(),
            _ => self.generate_insert(),
        }
    }

    fn generate_create_table(&mut self) -> GeneratedStatement {
        let mut features = FeatureSet::new();
        features.insert(Feature::statement("STMT_CREATE_TABLE"));
        let name = self.schema.free_name("t");
        let n_columns = self.rng.gen_range(1..=4usize);
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        for i in 0..n_columns {
            let type_options: Vec<(DataType, Feature)> = DataType::COLUMN_TYPES
                .iter()
                .map(|&ty| (ty, Feature::data_type(ty)))
                .collect();
            let (data_type, feature) = self
                .pick(&type_options, FeatureKind::DdlDml)
                .cloned()
                .unwrap_or((DataType::Integer, Feature::data_type(DataType::Integer)));
            features.insert(feature);
            let mut def = ColumnDef::new(format!("c{i}"), data_type);
            if self.bool_with(0.2)
                && self.should_generate(&Feature::keyword("NOT_NULL"), FeatureKind::DdlDml)
            {
                def.constraints.push(ColumnConstraint::NotNull);
                features.insert(Feature::keyword("NOT_NULL"));
            }
            if self.bool_with(0.1)
                && self.should_generate(&Feature::keyword("DEFAULT"), FeatureKind::DdlDml)
            {
                def.constraints
                    .push(ColumnConstraint::Default(self.literal_of(data_type)));
                features.insert(Feature::keyword("DEFAULT"));
            }
            columns.push(def);
        }
        if self.bool_with(0.5)
            && self.should_generate(&Feature::keyword("PRIMARY_KEY"), FeatureKind::DdlDml)
        {
            let pk_col = columns[self.rng.gen_range(0..columns.len())].name.clone();
            constraints.push(TableConstraint::PrimaryKey(vec![pk_col]));
            features.insert(Feature::keyword("PRIMARY_KEY"));
        }
        let statement = Statement::CreateTable(CreateTable {
            name,
            if_not_exists: false,
            columns,
            constraints,
        });
        self.finish(statement, features, FeatureKind::DdlDml)
    }

    fn generate_create_index(&mut self) -> GeneratedStatement {
        let mut features = FeatureSet::new();
        features.insert(Feature::statement("STMT_CREATE_INDEX"));
        let Some(table) = self
            .schema
            .random_base_table(&mut self.rng.clone())
            .cloned()
        else {
            return self.generate_create_table();
        };
        let name = self.schema.free_name("i");
        let n = self.rng.gen_range(1..=table.columns.len().min(2));
        let mut cols: Vec<String> = table.column_names();
        cols.shuffle(&mut self.rng);
        cols.truncate(n);
        let unique = self.bool_with(0.3)
            && self.should_generate(&Feature::keyword("UNIQUE_INDEX"), FeatureKind::DdlDml);
        if unique {
            features.insert(Feature::keyword("UNIQUE_INDEX"));
        }
        let where_clause = if self.bool_with(0.2)
            && self.should_generate(&Feature::keyword("PARTIAL_INDEX"), FeatureKind::DdlDml)
        {
            features.insert(Feature::keyword("PARTIAL_INDEX"));
            let (pred, pred_features) = self.generate_predicate(std::slice::from_ref(&table), 2);
            features.extend(&pred_features);
            Some(pred)
        } else {
            None
        };
        let statement = Statement::CreateIndex(CreateIndex {
            name,
            table: table.name.clone(),
            columns: cols,
            unique,
            where_clause,
        });
        self.finish(statement, features, FeatureKind::DdlDml)
    }

    fn generate_create_view(&mut self) -> GeneratedStatement {
        let mut features = FeatureSet::new();
        features.insert(Feature::statement("STMT_CREATE_VIEW"));
        let Some(table) = self
            .schema
            .random_base_table(&mut self.rng.clone())
            .cloned()
        else {
            return self.generate_create_table();
        };
        let name = self.schema.free_name("v");
        let n_proj = self.rng.gen_range(1..=2usize);
        let mut projections = Vec::new();
        for _ in 0..n_proj {
            let (expr, expr_features) = self.generate_expr(std::slice::from_ref(&table), 2);
            features.extend(&expr_features);
            projections.push(SelectItem::expr(expr));
        }
        let mut query = Select::from_table(table.name.clone(), projections);
        if self.bool_with(0.4) {
            let (pred, pred_features) = self.generate_predicate(std::slice::from_ref(&table), 2);
            features.extend(&pred_features);
            features.insert(Feature::clause("WHERE"));
            query.where_clause = Some(pred);
        }
        let columns = (0..n_proj).map(|i| format!("c{i}")).collect();
        let statement = Statement::CreateView(CreateView {
            name,
            columns,
            query: Box::new(query),
        });
        self.finish(statement, features, FeatureKind::DdlDml)
    }

    fn generate_insert(&mut self) -> GeneratedStatement {
        let mut features = FeatureSet::new();
        features.insert(Feature::statement("STMT_INSERT"));
        let Some(table) = self
            .schema
            .random_base_table(&mut self.rng.clone())
            .cloned()
        else {
            return self.generate_create_table();
        };
        let n_rows = self.rng.gen_range(1..=self.config.max_insert_rows);
        let columns = table.column_names();
        let mut values = Vec::new();
        for _ in 0..n_rows {
            let mut row = Vec::new();
            for col in &table.columns {
                let value = if self.bool_with(0.1) && !col.not_null {
                    Expr::null()
                } else if self.bool_with(0.12)
                    && self
                        .should_generate(&Feature::property("IMPLICIT_CAST"), FeatureKind::DdlDml)
                {
                    // Deliberately ill-typed literal: learns the abstract
                    // implicit-cast property of the dialect.
                    features.insert(Feature::property("IMPLICIT_CAST"));
                    let other = match col.data_type {
                        DataType::Integer => DataType::Text,
                        _ => DataType::Integer,
                    };
                    self.literal_of(other)
                } else {
                    self.literal_of(col.data_type)
                };
                row.push(value);
            }
            values.push(row);
        }
        let or_ignore = self.bool_with(0.25)
            && self.should_generate(&Feature::keyword("OR_IGNORE"), FeatureKind::DdlDml);
        if or_ignore {
            features.insert(Feature::keyword("OR_IGNORE"));
        }
        let statement = Statement::Insert(Insert {
            table: table.name.clone(),
            columns,
            values,
            or_ignore,
        });
        self.finish(statement, features, FeatureKind::DdlDml)
    }

    fn generate_analyze(&mut self) -> GeneratedStatement {
        let mut features = FeatureSet::new();
        features.insert(Feature::statement("STMT_ANALYZE"));
        let table = self
            .schema
            .random_base_table(&mut self.rng.clone())
            .map(|t| t.name.clone());
        let statement = Statement::Analyze(if self.bool_with(0.5) { table } else { None });
        self.finish(statement, features, FeatureKind::DdlDml)
    }

    fn finish(
        &mut self,
        statement: Statement,
        features: FeatureSet,
        kind: FeatureKind,
    ) -> GeneratedStatement {
        let sql = statement.to_string();
        GeneratedStatement {
            statement,
            sql,
            features,
            kind,
        }
    }

    // ----------------------------------------------- transactional DML ----

    /// Generates a transactional session for the rollback oracle: 1–4
    /// mutations against one base table, optionally wrapped in a
    /// `SAVEPOINT … ROLLBACK TO` region. Returns `None` when there is no
    /// base table yet or when the learned profile says the dialect does not
    /// support transactions (the `STMT_BEGIN`/`STMT_ROLLBACK`/`STMT_COMMIT`
    /// features are suppressed) — the campaign then falls back to a
    /// single-query oracle.
    pub fn generate_txn_session(&mut self) -> Option<GeneratedTxnSession> {
        for name in ["STMT_BEGIN", "STMT_ROLLBACK", "STMT_COMMIT"] {
            if !self.should_generate(&Feature::statement(name), FeatureKind::Query) {
                return None;
            }
        }
        let table = self
            .schema
            .random_base_table(&mut self.rng.clone())?
            .clone();
        let mut features = FeatureSet::new();
        // The bracketing statements the oracle will issue are part of the
        // test case's feature set even though the generator does not emit
        // them itself: a dialect rejecting BEGIN fails the whole session,
        // and that evidence must land on the right features.
        features.insert(Feature::statement("STMT_BEGIN"));
        features.insert(Feature::statement("STMT_COMMIT"));
        features.insert(Feature::statement("STMT_ROLLBACK"));
        let mut statements = Vec::new();
        for _ in 0..self.rng.gen_range(1..=2usize) {
            let stmt = self.generate_mutation(&table, &mut features);
            statements.push(stmt);
        }
        if self.bool_with(0.5)
            && self.should_generate(&Feature::statement("STMT_SAVEPOINT"), FeatureKind::Query)
            && self.should_generate(&Feature::statement("STMT_ROLLBACK_TO"), FeatureKind::Query)
        {
            features.insert(Feature::statement("STMT_SAVEPOINT"));
            features.insert(Feature::statement("STMT_ROLLBACK_TO"));
            statements.push(Statement::Savepoint("sp1".into()));
            for _ in 0..self.rng.gen_range(1..=2usize) {
                let stmt = self.generate_mutation(&table, &mut features);
                statements.push(stmt);
            }
            statements.push(Statement::RollbackTo("sp1".into()));
            if self.bool_with(0.4) {
                let stmt = self.generate_mutation(&table, &mut features);
                statements.push(stmt);
            }
            // Sometimes retire the savepoint with RELEASE — the frame-merge
            // path, learnable per dialect like the rest of txn control.
            if self.bool_with(0.35)
                && self.should_generate(
                    &Feature::statement("STMT_RELEASE_SAVEPOINT"),
                    FeatureKind::Query,
                )
            {
                features.insert(Feature::statement("STMT_RELEASE_SAVEPOINT"));
                statements.push(Statement::ReleaseSavepoint("sp1".into()));
            }
        }
        Some(GeneratedTxnSession {
            table: table.name.clone(),
            statements,
            features,
        })
    }

    // ------------------------------------------------ concurrent schedules ----

    /// Generates a two-session concurrent schedule for the isolation
    /// oracle, or `None` when no base table exists yet or the learned
    /// profile says the dialect rejects transactions (the campaign then
    /// falls back to a single-query oracle).
    ///
    /// Session 1 is a plain writer: every statement targets one table and
    /// reads nothing else. Session 0 may additionally carry **observer
    /// inserts** — `INSERT … VALUES ((SELECT COUNT(*) FROM <other>))` —
    /// which deposit a cross-table read into its own table. Restricting
    /// foreign reads to one session keeps the oracle sound: under correct
    /// snapshot isolation with first-committer-wins, the concurrent outcome
    /// always equals one of the serial replays (write skew needs *both*
    /// sessions to read tables the other writes), so every mismatch is a
    /// genuine isolation bug.
    pub fn generate_schedule(&mut self) -> Option<GeneratedSchedule> {
        if !self.multi_session {
            return None;
        }
        for name in ["STMT_BEGIN", "STMT_COMMIT", "STMT_ROLLBACK"] {
            if !self.should_generate(&Feature::statement(name), FeatureKind::Query) {
                return None;
            }
        }
        let table_a = self
            .schema
            .random_base_table(&mut self.rng.clone())?
            .clone();
        // Half the schedules contend on one table (conflict pressure), half
        // run on distinct tables when the schema has them.
        let table_b = if self.bool_with(0.5) {
            table_a.clone()
        } else {
            self.schema
                .random_base_table(&mut self.rng.clone())?
                .clone()
        };
        let mut features = FeatureSet::new();
        features.insert(Feature::statement("STMT_BEGIN"));
        features.insert(Feature::statement("STMT_COMMIT"));
        features.insert(Feature::statement("STMT_ROLLBACK"));

        // Session 1: plain writer on `table_b`.
        let mut body1 = Vec::new();
        for _ in 0..self.rng.gen_range(1..=2usize) {
            body1.push(self.generate_mutation(&table_b, &mut features));
        }

        // Session 0: writer on `table_a`, usually sandwiching observer
        // inserts around the other session's steps so visibility faults
        // (dirty read, non-repeatable read) leave a committed trace.
        let observing = self.bool_with(0.65)
            && self.should_generate(&Feature::clause("SUBQUERY"), FeatureKind::Query);
        let mut body0 = Vec::new();
        if observing {
            body0.push(self.generate_observer_insert(&table_a, &table_b.name, &mut features));
        }
        for _ in 0..self.rng.gen_range(1..=2usize) {
            body0.push(self.generate_mutation(&table_a, &mut features));
        }
        if observing {
            body0.push(self.generate_observer_insert(&table_a, &table_b.name, &mut features));
        }

        let begin_mode = |generator: &mut Self| {
            if generator.bool_with(0.12) {
                BeginMode::Immediate
            } else if generator.bool_with(0.2) {
                BeginMode::Deferred
            } else {
                BeginMode::Plain
            }
        };
        let sessions = vec![
            SessionScript {
                begin: begin_mode(self),
                statements: body0,
                commit: self.bool_with(0.85),
            },
            SessionScript {
                begin: begin_mode(self),
                statements: body1,
                commit: self.bool_with(0.85),
            },
        ];

        // The interleaving: mostly a "sandwich" (session 1 runs to
        // completion strictly inside session 0's span — the shape that
        // exposes visibility anomalies), otherwise a random merge.
        let steps0 = sessions[0].step_count();
        let steps1 = sessions[1].step_count();
        let interleaving = if self.bool_with(0.55) {
            let split = self.rng.gen_range(1..steps0);
            let mut steps = Vec::with_capacity(steps0 + steps1);
            steps.extend(std::iter::repeat_n(0u8, split));
            steps.extend(std::iter::repeat_n(1u8, steps1));
            steps.extend(std::iter::repeat_n(0u8, steps0 - split));
            steps
        } else {
            let mut remaining = [steps0, steps1];
            let mut steps = Vec::with_capacity(steps0 + steps1);
            while remaining[0] + remaining[1] > 0 {
                let pick = if remaining[0] == 0 {
                    1
                } else if remaining[1] == 0 {
                    0
                } else {
                    usize::from(self.bool_with(0.5))
                };
                remaining[pick] -= 1;
                steps.push(pick as u8);
            }
            steps
        };

        let mut tables = vec![table_a.name.clone(), table_b.name.clone()];
        tables.sort();
        tables.dedup();
        Some(GeneratedSchedule {
            schedule: Schedule {
                tables,
                sessions,
                interleaving,
            },
            features,
        })
    }

    /// An "observer" insert: deposits `(SELECT COUNT(*) FROM <observed>)`
    /// into one column of `target`, turning a cross-table read into
    /// committed, fingerprintable state.
    fn generate_observer_insert(
        &mut self,
        target: &ModelTable,
        observed: &str,
        features: &mut FeatureSet,
    ) -> Statement {
        features.insert(Feature::statement("STMT_INSERT"));
        features.insert(Feature::clause("SUBQUERY"));
        features.insert(Feature::aggregate(AggregateFunction::Count));
        let count = Expr::ScalarSubquery(Box::new(Select {
            projections: vec![SelectItem::expr(Expr::Aggregate {
                func: AggregateFunction::Count,
                arg: None,
                distinct: false,
            })],
            from: vec![TableWithJoins::table(observed.to_string())],
            ..Select::new()
        }));
        // Deposit the count into a numeric column when one exists; other
        // columns get plain literals.
        let slot = target
            .columns
            .iter()
            .position(|c| c.data_type == DataType::Integer)
            .or_else(|| {
                target
                    .columns
                    .iter()
                    .position(|c| c.data_type == DataType::Real)
            })
            .or_else(|| {
                target
                    .columns
                    .iter()
                    .position(|c| c.data_type == DataType::Text)
            })
            .unwrap_or(0);
        let row: Vec<Expr> = target
            .columns
            .iter()
            .enumerate()
            .map(|(i, col)| {
                if i == slot {
                    if col.data_type == DataType::Integer {
                        count.clone()
                    } else {
                        features.insert(Feature::new("OP_CAST"));
                        Expr::Cast {
                            expr: Box::new(count.clone()),
                            data_type: col.data_type,
                        }
                    }
                } else {
                    self.literal_of(col.data_type)
                }
            })
            .collect();
        Statement::Insert(Insert {
            table: target.name.clone(),
            columns: target.column_names(),
            values: vec![row],
            or_ignore: false,
        })
    }

    /// Generates one mutation statement against `table`: mostly `INSERT`,
    /// sometimes `UPDATE` or `DELETE` (which only transactional sessions
    /// exercise — the database-construction phase never destroys state).
    fn generate_mutation(&mut self, table: &ModelTable, features: &mut FeatureSet) -> Statement {
        let choice = self.rng.gen_range(0..5u8);
        match choice {
            0 if self.should_generate(&Feature::statement("STMT_UPDATE"), FeatureKind::Query)
                && !table.columns.is_empty() =>
            {
                features.insert(Feature::statement("STMT_UPDATE"));
                let col = &table.columns[self.rng.gen_range(0..table.columns.len())];
                let value = self.literal_of(col.data_type);
                let (pred, pred_features) = self.generate_predicate(std::slice::from_ref(table), 2);
                features.extend(&pred_features);
                Statement::Update(sql_ast::Update {
                    table: table.name.clone(),
                    assignments: vec![(col.name.clone(), value)],
                    where_clause: Some(pred),
                })
            }
            1 if self.should_generate(&Feature::statement("STMT_DELETE"), FeatureKind::Query) => {
                features.insert(Feature::statement("STMT_DELETE"));
                let where_clause = if self.bool_with(0.8) {
                    let (pred, pred_features) =
                        self.generate_predicate(std::slice::from_ref(table), 2);
                    features.extend(&pred_features);
                    Some(pred)
                } else {
                    None
                };
                Statement::Delete(sql_ast::Delete {
                    table: table.name.clone(),
                    where_clause,
                })
            }
            _ => {
                features.insert(Feature::statement("STMT_INSERT"));
                let mut values = Vec::new();
                for _ in 0..self.rng.gen_range(1..=2usize) {
                    let row: Vec<Expr> = table
                        .columns
                        .iter()
                        .map(|col| {
                            if self.bool_with(0.1) && !col.not_null {
                                Expr::null()
                            } else {
                                self.literal_of(col.data_type)
                            }
                        })
                        .collect();
                    values.push(row);
                }
                Statement::Insert(Insert {
                    table: table.name.clone(),
                    columns: table.column_names(),
                    values,
                    or_ignore: false,
                })
            }
        }
    }

    // -------------------------------------------------------- queries ----

    /// Generates a random query over the current schema model, always with a
    /// predicate so the oracles can transform it.
    pub fn generate_query(&mut self) -> Option<GeneratedQuery> {
        let mut features = FeatureSet::new();
        features.insert(Feature::statement("STMT_SELECT"));
        // Only the (up to three) tables actually referenced are cloned out
        // of the schema model — copying the whole model per query dominated
        // generation cost as schemas grew.
        let table_count = self.schema.tables().len();
        if table_count == 0 {
            return None;
        }
        // FROM: one base relation, optionally joined with another.
        let first_index = self.rng.gen_range(0..table_count);
        let mut in_scope = vec![self.schema.tables()[first_index].clone()];
        let mut from = TableWithJoins::table(in_scope[0].name.clone());
        if table_count > 1 && self.bool_with(0.45) {
            let join_options: Vec<(JoinType, Feature)> = JoinType::ALL
                .iter()
                .map(|&j| (j, Feature::join(j)))
                .collect();
            if let Some((join_type, feature)) =
                self.pick(&join_options, FeatureKind::Query).cloned()
            {
                features.insert(feature);
                let second_index = self.rng.gen_range(0..table_count);
                in_scope.push(self.schema.tables()[second_index].clone());
                let on = if join_type.takes_constraint() {
                    let (pred, pred_features) = self.generate_predicate(&in_scope, 2);
                    features.extend(&pred_features);
                    Some(pred)
                } else {
                    None
                };
                from.joins.push(Join {
                    join_type,
                    relation: TableFactor::table(in_scope[1].name.clone()),
                    on,
                });
            }
        }
        // Optional derived-table subquery as an extra FROM item.
        let mut from_items = vec![from];
        if self.bool_with(0.15)
            && self.should_generate(&Feature::clause("SUBQUERY"), FeatureKind::Query)
        {
            features.insert(Feature::clause("SUBQUERY"));
            let inner_index = self.rng.gen_range(0..table_count);
            let inner_table = self.schema.tables()[inner_index].clone();
            let (inner_expr, inner_features) =
                self.generate_expr(std::slice::from_ref(&inner_table), 2);
            features.extend(&inner_features);
            let sub = Select::from_table(
                inner_table.name,
                vec![SelectItem::aliased(inner_expr, "sc0")],
            );
            let alias = self.schema.free_name("sub");
            from_items.push(TableWithJoins {
                relation: TableFactor::Derived {
                    subquery: Box::new(sub),
                    alias: alias.clone(),
                },
                joins: Vec::new(),
            });
            in_scope.push(ModelTable {
                name: alias,
                columns: vec![crate::schema::ModelColumn {
                    name: "sc0".into(),
                    data_type: DataType::Integer,
                    not_null: false,
                    primary_key: false,
                }],
                is_view: true,
                approx_rows: 0,
            });
        }

        // Projections.
        let mut projections = Vec::new();
        if self.bool_with(0.25) {
            projections.push(SelectItem::Wildcard);
        } else {
            let n = self.rng.gen_range(1..=2usize);
            for _ in 0..n {
                let (expr, expr_features) = self.generate_expr(&in_scope, self.current_depth);
                features.extend(&expr_features);
                projections.push(SelectItem::expr(expr));
            }
        }

        // Predicate.
        let depth = self.current_depth;
        let (predicate, pred_features) = self.generate_predicate(&in_scope, depth);
        features.extend(&pred_features);
        features.insert(Feature::clause("WHERE"));

        let mut select = Select {
            projections,
            from: from_items,
            where_clause: Some(predicate.clone()),
            ..Select::new()
        };
        if self.bool_with(0.12)
            && self.should_generate(&Feature::clause("DISTINCT"), FeatureKind::Query)
        {
            features.insert(Feature::clause("DISTINCT"));
            select.distinct = true;
        }
        if self.bool_with(0.15)
            && self.should_generate(&Feature::clause("ORDER_BY"), FeatureKind::Query)
        {
            features.insert(Feature::clause("ORDER_BY"));
            if let Some(table) = in_scope.first() {
                if let Some(col) = table.columns.first() {
                    select.order_by.push(OrderByItem {
                        expr: Expr::qualified_column(table.name.clone(), col.name.clone()),
                        order: if self.bool_with(0.5) {
                            SortOrder::Asc
                        } else {
                            SortOrder::Desc
                        },
                    });
                }
            }
        }
        if self.bool_with(0.1)
            && self.should_generate(&Feature::clause("LIMIT"), FeatureKind::Query)
        {
            features.insert(Feature::clause("LIMIT"));
            select.limit = Some(self.rng.gen_range(1..=10));
        }
        Some(GeneratedQuery {
            select,
            predicate,
            features,
        })
    }

    /// Generates a predicate expression: usually a comparison, sometimes a
    /// compound boolean expression.
    pub fn generate_predicate(
        &mut self,
        tables: &[ModelTable],
        depth: usize,
    ) -> (Expr, FeatureSet) {
        let mut features = FeatureSet::new();
        let expr = self.gen_bool_expr(tables, depth, &mut features);
        (expr, features)
    }

    /// Generates an arbitrary expression (used for projections and function
    /// arguments).
    pub fn generate_expr(&mut self, tables: &[ModelTable], depth: usize) -> (Expr, FeatureSet) {
        let mut features = FeatureSet::new();
        let expr = self.gen_value_expr(tables, depth, &mut features);
        (expr, features)
    }

    fn gen_bool_expr(
        &mut self,
        tables: &[ModelTable],
        depth: usize,
        features: &mut FeatureSet,
    ) -> Expr {
        if depth <= 1 {
            return self.gen_comparison(tables, 1, features);
        }
        match self.rng.gen_range(0..10) {
            0 | 1 => {
                // Logical connective.
                let ops = [
                    (BinaryOp::And, Feature::binary_op(BinaryOp::And)),
                    (BinaryOp::Or, Feature::binary_op(BinaryOp::Or)),
                ];
                match self.pick(&ops, FeatureKind::Query).cloned() {
                    Some((op, feature)) => {
                        features.insert(feature);
                        let left = self.gen_bool_expr(tables, depth - 1, features);
                        let right = self.gen_bool_expr(tables, depth - 1, features);
                        left.binary(op, right)
                    }
                    None => self.gen_comparison(tables, depth, features),
                }
            }
            2 | 7 => {
                if self.should_generate(&Feature::unary_op(UnaryOp::Not), FeatureKind::Query) {
                    features.insert(Feature::unary_op(UnaryOp::Not));
                    self.gen_bool_expr(tables, depth - 1, features).not()
                } else {
                    self.gen_comparison(tables, depth, features)
                }
            }
            3 => {
                // IS NULL / IS TRUE.
                let inner = self.gen_value_expr(tables, depth - 1, features);
                if self.bool_with(0.5) {
                    Expr::IsNull {
                        expr: Box::new(inner),
                        negated: self.bool_with(0.3),
                    }
                } else {
                    Expr::IsBool {
                        expr: Box::new(inner),
                        target: self.bool_with(0.5),
                        negated: self.bool_with(0.2),
                    }
                }
            }
            4 => {
                // BETWEEN.
                let expr = self.gen_value_expr(tables, depth - 1, features);
                let low = self.gen_value_expr(tables, 1, features);
                let high = self.gen_value_expr(tables, 1, features);
                Expr::Between {
                    expr: Box::new(expr),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated: self.bool_with(0.3),
                }
            }
            5 => {
                // IN list.
                let expr = self.gen_value_expr(tables, depth - 1, features);
                let n = self.rng.gen_range(1..=3usize);
                let list = (0..n)
                    .map(|_| self.gen_value_expr(tables, 1, features))
                    .collect();
                Expr::InList {
                    expr: Box::new(expr),
                    list,
                    negated: self.bool_with(0.3),
                }
            }
            6 => {
                // LIKE on a text-ish operand.
                let expr = self.gen_value_expr(tables, depth - 1, features);
                let patterns = ["%a%", "a_", "%", "_%b", "abc"];
                let pattern = patterns[self.rng.gen_range(0..patterns.len())];
                Expr::Like {
                    expr: Box::new(expr),
                    pattern: Box::new(Expr::text(pattern)),
                    negated: self.bool_with(0.3),
                }
            }
            _ => self.gen_comparison(tables, depth, features),
        }
    }

    fn gen_comparison(
        &mut self,
        tables: &[ModelTable],
        depth: usize,
        features: &mut FeatureSet,
    ) -> Expr {
        let comparison_ops: Vec<(BinaryOp, Feature)> = BinaryOp::COMPARISONS
            .iter()
            .map(|&op| (op, Feature::binary_op(op)))
            .collect();
        let Some((op, feature)) = self.pick(&comparison_ops, FeatureKind::Query).cloned() else {
            // Everything suppressed: fall back to a literal truth value.
            return Expr::boolean(true);
        };
        features.insert(feature);
        let left = self.gen_value_expr(tables, depth.saturating_sub(1).max(1), features);
        let right = self.gen_value_expr(tables, 1, features);
        left.binary(op, right)
    }

    fn gen_value_expr(
        &mut self,
        tables: &[ModelTable],
        depth: usize,
        features: &mut FeatureSet,
    ) -> Expr {
        if depth <= 1 || tables.is_empty() {
            return self.gen_leaf(tables, features);
        }
        match self.rng.gen_range(0..10) {
            0..=2 => {
                // Arithmetic / bitwise / concat binary expression.
                let mut ops: Vec<(BinaryOp, Feature)> = BinaryOp::ARITHMETIC
                    .iter()
                    .chain(BinaryOp::BITWISE.iter())
                    .map(|&op| (op, Feature::binary_op(op)))
                    .collect();
                ops.push((BinaryOp::Concat, Feature::binary_op(BinaryOp::Concat)));
                match self.pick(&ops, FeatureKind::Query).cloned() {
                    Some((op, feature)) => {
                        features.insert(feature);
                        let left = self.gen_value_expr(tables, depth - 1, features);
                        let right = self.gen_value_expr(tables, depth - 1, features);
                        left.binary(op, right)
                    }
                    None => self.gen_leaf(tables, features),
                }
            }
            3 | 4 => self.gen_function_call(tables, depth, features),
            5 => {
                // Unary.
                let ops: Vec<(UnaryOp, Feature)> = [UnaryOp::Neg, UnaryOp::Plus, UnaryOp::BitNot]
                    .iter()
                    .map(|&op| (op, Feature::unary_op(op)))
                    .collect();
                match self.pick(&ops, FeatureKind::Query).cloned() {
                    Some((op, feature)) => {
                        features.insert(feature);
                        Expr::Unary {
                            op,
                            expr: Box::new(self.gen_value_expr(tables, depth - 1, features)),
                        }
                    }
                    None => self.gen_leaf(tables, features),
                }
            }
            6 => {
                // CASE.
                if !self.should_generate(&Feature::clause("CASE"), FeatureKind::Query) {
                    return self.gen_leaf(tables, features);
                }
                features.insert(Feature::clause("CASE"));
                let with_operand = self.bool_with(0.5);
                let operand = with_operand
                    .then(|| Box::new(self.gen_value_expr(tables, depth - 1, features)));
                let when = if with_operand {
                    self.gen_value_expr(tables, 1, features)
                } else {
                    self.gen_bool_expr(tables, depth - 1, features)
                };
                let then = self.gen_value_expr(tables, depth - 1, features);
                let else_expr = self
                    .bool_with(0.6)
                    .then(|| Box::new(self.gen_value_expr(tables, 1, features)));
                Expr::Case {
                    operand,
                    branches: vec![CaseBranch { when, then }],
                    else_expr,
                }
            }
            7 => {
                // CAST.
                let target = DataType::COLUMN_TYPES[self.rng.gen_range(0..3)];
                Expr::Cast {
                    expr: Box::new(self.gen_value_expr(tables, depth - 1, features)),
                    data_type: target,
                }
            }
            _ => self.gen_leaf(tables, features),
        }
    }

    fn gen_function_call(
        &mut self,
        tables: &[ModelTable],
        depth: usize,
        features: &mut FeatureSet,
    ) -> Expr {
        let function_options: Vec<(ScalarFunction, Feature)> = ScalarFunction::ALL
            .iter()
            .map(|&f| (f, Feature::function(f)))
            .collect();
        let Some((func, feature)) = self.pick(&function_options, FeatureKind::Query).cloned()
        else {
            return self.gen_leaf(tables, features);
        };
        features.insert(feature);
        let arity = self.rng.gen_range(func.min_args()..=func.max_args());
        let mut args = Vec::with_capacity(arity);
        for i in 0..arity {
            let arg = self.gen_value_expr(tables, (depth - 1).max(1), features);
            // Composite FN/arg-type feature (the paper's `SIN1INT`): recorded
            // for syntactically obvious argument types only.
            let arg_type = match &arg {
                Expr::Literal(v) => Some(v.data_type()),
                Expr::Column(c) => tables.iter().find_map(|t| {
                    t.columns
                        .iter()
                        .find(|col| col.name.eq_ignore_ascii_case(&c.column))
                        .map(|col| col.data_type)
                }),
                _ => None,
            };
            if let Some(ty) = arg_type {
                if ty != DataType::Null {
                    let composite = Feature::function_arg_type(func, i, ty);
                    if self.should_generate(&composite, FeatureKind::Query) {
                        features.insert(composite);
                    } else {
                        // The learned profile says this argument type fails
                        // for this function; fall back to a literal of a
                        // type that is still believed to work, if any.
                        let replacement = DataType::COLUMN_TYPES.iter().copied().find(|&t| {
                            t != ty
                                && self.should_generate(
                                    &Feature::function_arg_type(func, i, t),
                                    FeatureKind::Query,
                                )
                        });
                        if let Some(t) = replacement {
                            features.insert(Feature::function_arg_type(func, i, t));
                            args.push(self.literal_of(t));
                            continue;
                        }
                    }
                }
            }
            args.push(arg);
        }
        Expr::Function { func, args }
    }

    fn gen_leaf(&mut self, tables: &[ModelTable], features: &mut FeatureSet) -> Expr {
        if !tables.is_empty() && self.bool_with(0.55) {
            let table = &tables[self.rng.gen_range(0..tables.len())];
            if !table.columns.is_empty() {
                let col = &table.columns[self.rng.gen_range(0..table.columns.len())];
                return Expr::qualified_column(table.name.clone(), col.name.clone());
            }
        }
        if self.bool_with(0.14) {
            return Expr::null();
        }
        let ty = DataType::COLUMN_TYPES[self.rng.gen_range(0..3)];
        let _ = features;
        self.literal_of(ty)
    }

    fn literal_of(&mut self, ty: DataType) -> Expr {
        match ty {
            DataType::Integer | DataType::Real | DataType::Null => {
                Expr::integer(self.rng.gen_range(-3i64..=9))
            }
            DataType::Text => {
                let words = ["a", "b", "abc", "A", "", " ", "1", "-1", "x y"];
                Expr::text(words[self.rng.gen_range(0..words.len())])
            }
            DataType::Boolean => Expr::boolean(self.rng.gen_bool(0.5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator_with_schema(feedback: bool) -> AdaptiveGenerator {
        let config = GeneratorConfig {
            feedback_enabled: feedback,
            ..GeneratorConfig::default()
        };
        let mut generator = AdaptiveGenerator::new(42, config);
        for sql in [
            "CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT, c2 BOOLEAN)",
            "CREATE TABLE t1 (c0 INTEGER, c3 INTEGER)",
        ] {
            generator.apply_success(&sql_parser::parse_statement(sql).unwrap());
        }
        generator
    }

    #[test]
    fn ddl_generation_builds_schema_bottom_up() {
        let mut generator = AdaptiveGenerator::new(1, GeneratorConfig::default());
        let first = generator.generate_ddl_statement();
        assert!(matches!(first.statement, Statement::CreateTable(_)));
        assert!(first
            .features
            .contains(&Feature::statement("STMT_CREATE_TABLE")));
        // Until tables exist, the generator keeps proposing CREATE TABLE.
        let second = generator.generate_ddl_statement();
        assert!(matches!(second.statement, Statement::CreateTable(_)));
    }

    #[test]
    fn generated_statements_parse_back() {
        let mut generator = generator_with_schema(true);
        for _ in 0..200 {
            let stmt = generator.generate_ddl_statement();
            let reparsed = sql_parser::parse_statement(&stmt.sql);
            assert!(reparsed.is_ok(), "unparseable SQL: {}", stmt.sql);
            generator.apply_success(&stmt.statement);
        }
        for _ in 0..200 {
            let query = generator.generate_query().unwrap();
            let sql = query.select.to_string();
            assert!(
                sql_parser::parse_statement(&sql).is_ok(),
                "unparseable SQL: {sql}"
            );
            assert!(!query.features.is_empty());
        }
    }

    #[test]
    fn queries_always_carry_a_predicate() {
        let mut generator = generator_with_schema(true);
        for _ in 0..50 {
            let query = generator.generate_query().unwrap();
            assert!(query.select.where_clause.is_some());
            assert!(query.features.contains(&Feature::clause("WHERE")));
        }
    }

    #[test]
    fn suppression_removes_feature_from_generation() {
        let mut generator = generator_with_schema(true);
        // Report the null-safe operator as always failing.
        let feature = Feature::binary_op(BinaryOp::NullSafeEq);
        let features: FeatureSet = [feature.clone()].into_iter().collect();
        for _ in 0..500 {
            generator.record_outcome(&features, FeatureKind::Query, false);
        }
        generator.refresh_suppression();
        assert!(!generator.should_generate(&feature, FeatureKind::Query));
        // Other comparison operators remain available.
        assert!(generator.should_generate(&Feature::binary_op(BinaryOp::Eq), FeatureKind::Query));
        // Generated queries no longer contain the suppressed operator.
        for _ in 0..100 {
            let query = generator.generate_query().unwrap();
            assert!(
                !query.features.contains(&feature),
                "suppressed feature still generated: {}",
                query.select
            );
        }
    }

    #[test]
    fn random_mode_ignores_feedback() {
        let mut generator = generator_with_schema(false);
        let feature = Feature::binary_op(BinaryOp::NullSafeEq);
        let features: FeatureSet = [feature.clone()].into_iter().collect();
        for _ in 0..500 {
            generator.record_outcome(&features, FeatureKind::Query, false);
        }
        assert!(generator.should_generate(&feature, FeatureKind::Query));
    }

    #[test]
    fn perfect_knowledge_only_generates_known_features() {
        let supported: BTreeSet<Feature> = [
            Feature::statement("STMT_SELECT"),
            Feature::clause("WHERE"),
            Feature::binary_op(BinaryOp::Eq),
            Feature::binary_op(BinaryOp::And),
        ]
        .into_iter()
        .collect();
        let mut generator =
            AdaptiveGenerator::with_knowledge(7, GeneratorConfig::default(), supported.clone());
        {
            let sql = "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)";
            generator.apply_success(&sql_parser::parse_statement(sql).unwrap());
        }
        for _ in 0..100 {
            let query = generator.generate_query().unwrap();
            for feature in query.features.iter() {
                let name = feature.name();
                // Structural features that have no alternatives are exempt.
                if name.starts_with("OP_") || name.starts_with("FN_") || name.starts_with("JOIN_") {
                    assert!(
                        supported.contains(feature),
                        "unknown feature generated: {feature}"
                    );
                }
            }
        }
    }

    #[test]
    fn depth_schedule_grows_with_recorded_executions() {
        let mut generator = generator_with_schema(true);
        assert_eq!(generator.current_depth(), 1);
        let features = FeatureSet::new();
        for _ in 0..generator.config().depth_schedule_interval {
            generator.record_outcome(&features, FeatureKind::Query, true);
        }
        assert_eq!(generator.current_depth(), 2);
        for _ in 0..(2 * generator.config().depth_schedule_interval) {
            generator.record_outcome(&features, FeatureKind::Query, true);
        }
        assert_eq!(generator.current_depth(), generator.config().max_expr_depth);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let mut a = generator_with_schema(true);
        let mut b = generator_with_schema(true);
        for _ in 0..20 {
            assert_eq!(
                a.generate_query().unwrap().select.to_string(),
                b.generate_query().unwrap().select.to_string()
            );
        }
    }
}
