//! Top-level SQL statements (DDL, DML and queries).

use crate::expr::Expr;
use crate::select::Select;
use crate::types::DataType;
use std::fmt;

/// A constraint attached to a single column definition.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnConstraint {
    /// `PRIMARY KEY`
    PrimaryKey,
    /// `NOT NULL`
    NotNull,
    /// `UNIQUE`
    Unique,
    /// `DEFAULT <expr>`
    Default(Expr),
}

impl fmt::Display for ColumnConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnConstraint::PrimaryKey => f.write_str("PRIMARY KEY"),
            ColumnConstraint::NotNull => f.write_str("NOT NULL"),
            ColumnConstraint::Unique => f.write_str("UNIQUE"),
            ColumnConstraint::Default(e) => write!(f, "DEFAULT {e}"),
        }
    }
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Column constraints, in declaration order.
    pub constraints: Vec<ColumnConstraint>,
}

impl ColumnDef {
    /// A plain column with no constraints.
    pub fn new(name: impl Into<String>, data_type: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            data_type,
            constraints: Vec::new(),
        }
    }

    /// Whether the column definition carries a given constraint kind.
    pub fn has_primary_key(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| matches!(c, ColumnConstraint::PrimaryKey))
    }

    /// Whether the column is declared `NOT NULL` (directly or via PK).
    pub fn is_not_null(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| matches!(c, ColumnConstraint::NotNull | ColumnConstraint::PrimaryKey))
    }

    /// Whether the column is declared `UNIQUE` (directly or via PK).
    pub fn is_unique(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| matches!(c, ColumnConstraint::Unique | ColumnConstraint::PrimaryKey))
    }
}

impl fmt::Display for ColumnDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)?;
        for c in &self.constraints {
            write!(f, " {c}")?;
        }
        Ok(())
    }
}

/// A table-level constraint in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    /// `PRIMARY KEY (cols...)`
    PrimaryKey(Vec<String>),
    /// `UNIQUE (cols...)`
    Unique(Vec<String>),
}

impl fmt::Display for TableConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kw, cols) = match self {
            TableConstraint::PrimaryKey(c) => ("PRIMARY KEY", c),
            TableConstraint::Unique(c) => ("UNIQUE", c),
        };
        write!(f, "{kw} ({})", cols.join(", "))
    }
}

/// `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// `IF NOT EXISTS` flag.
    pub if_not_exists: bool,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Table-level constraints.
    pub constraints: Vec<TableConstraint>,
}

impl fmt::Display for CreateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE TABLE ")?;
        if self.if_not_exists {
            f.write_str("IF NOT EXISTS ")?;
        }
        write!(f, "{} (", self.name)?;
        let mut first = true;
        for c in &self.columns {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        for c in &self.constraints {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        f.write_str(")")
    }
}

/// `CREATE [UNIQUE] INDEX`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name.
    pub name: String,
    /// Table being indexed.
    pub table: String,
    /// Indexed columns.
    pub columns: Vec<String>,
    /// `UNIQUE` flag.
    pub unique: bool,
    /// Optional partial-index predicate (`WHERE ...`).
    pub where_clause: Option<Expr>,
}

impl fmt::Display for CreateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CREATE ")?;
        if self.unique {
            f.write_str("UNIQUE ")?;
        }
        write!(
            f,
            "INDEX {} ON {}({})",
            self.name,
            self.table,
            self.columns.join(", ")
        )?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// `CREATE VIEW`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateView {
    /// View name.
    pub name: String,
    /// Optional explicit column names.
    pub columns: Vec<String>,
    /// The defining query.
    pub query: Box<Select>,
}

impl fmt::Display for CreateView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE VIEW {}", self.name)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        write!(f, " AS {}", self.query)
    }
}

/// `INSERT INTO`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Vec<String>,
    /// Rows of value expressions.
    pub values: Vec<Vec<Expr>>,
    /// Whether to silently skip constraint-violating rows (`OR IGNORE`).
    pub or_ignore: bool,
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("INSERT ")?;
        if self.or_ignore {
            f.write_str("OR IGNORE ")?;
        }
        write!(f, "INTO {}", self.table)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        f.write_str(" VALUES ")?;
        for (i, row) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str("(")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{v}")?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// `UPDATE ... SET ... [WHERE ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// `SET` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {} SET ", self.table)?;
        for (i, (col, val)) in self.assignments.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{col} = {val}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// `DELETE FROM ... [WHERE ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
}

impl fmt::Display for Delete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", self.table)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// The kind of object dropped by a `DROP` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropKind {
    /// `DROP TABLE`
    Table,
    /// `DROP VIEW`
    View,
    /// `DROP INDEX`
    Index,
}

impl DropKind {
    /// SQL keyword.
    pub fn sql(self) -> &'static str {
        match self {
            DropKind::Table => "TABLE",
            DropKind::View => "VIEW",
            DropKind::Index => "INDEX",
        }
    }
}

/// How `BEGIN` acquires its write intent.
///
/// SQLite's `BEGIN DEFERRED | IMMEDIATE` distinction, carried on the AST so
/// the concurrent-session engine can honour it: `IMMEDIATE` declares eager
/// write intent on the whole database at `BEGIN` time (its commit conflicts
/// with *any* concurrent commit under first-committer-wins), while
/// `DEFERRED` — and a bare `BEGIN` — accumulates write intent lazily as the
/// transaction mutates tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BeginMode {
    /// Bare `BEGIN`: deferred semantics, rendered without a mode keyword.
    #[default]
    Plain,
    /// `BEGIN DEFERRED`: semantically identical to [`BeginMode::Plain`],
    /// kept distinct so rendering round-trips.
    Deferred,
    /// `BEGIN IMMEDIATE`: eager write intent on every table.
    Immediate,
}

impl BeginMode {
    /// Whether the transaction declares write intent eagerly at `BEGIN`.
    pub fn is_immediate(self) -> bool {
        matches!(self, BeginMode::Immediate)
    }
}

/// A top-level SQL statement.
///
/// The paper's generator implements six statements (`CREATE TABLE`,
/// `CREATE INDEX`, `CREATE VIEW`, `INSERT`, `ANALYZE`, `SELECT`); this
/// reproduction additionally models `UPDATE`, `DELETE`, `DROP`, `REFRESH`
/// and the transaction-control statements (`BEGIN [DEFERRED | IMMEDIATE]`,
/// `COMMIT`, `ROLLBACK`, `SAVEPOINT`, `ROLLBACK TO`, `RELEASE SAVEPOINT`)
/// because several dialect quirks (Section 6, "Manual effort") involve them
/// and the rollback and isolation oracles drive multi-statement
/// transactional sessions through them.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable(CreateTable),
    /// `CREATE INDEX`.
    CreateIndex(CreateIndex),
    /// `CREATE VIEW`.
    CreateView(CreateView),
    /// `INSERT`.
    Insert(Insert),
    /// `UPDATE`.
    Update(Update),
    /// `DELETE`.
    Delete(Delete),
    /// `ANALYZE [table]`.
    Analyze(Option<String>),
    /// A query.
    Select(Box<Select>),
    /// `DROP TABLE/VIEW/INDEX`.
    Drop {
        /// What kind of object is dropped.
        kind: DropKind,
        /// Object name.
        name: String,
        /// `IF EXISTS` flag.
        if_exists: bool,
    },
    /// `REFRESH TABLE <name>` (CrateDB-style eventual-consistency flush).
    Refresh(String),
    /// `BEGIN [DEFERRED | IMMEDIATE]` — opens an explicit transaction.
    Begin(BeginMode),
    /// `COMMIT` — makes the open transaction's writes permanent (a no-op in
    /// autocommit, which is what JDBC-autocommit-off dialects rely on).
    /// Under concurrent sessions a commit can fail with a serialization
    /// error when first-committer-wins conflict detection rejects it.
    Commit,
    /// `ROLLBACK` — discards the open transaction's writes.
    Rollback,
    /// `SAVEPOINT <name>` — marks a point within the open transaction.
    Savepoint(String),
    /// `ROLLBACK TO <name>` — rewinds the open transaction to a savepoint,
    /// keeping the transaction (and the savepoint) active.
    RollbackTo(String),
    /// `RELEASE SAVEPOINT <name>` — removes the savepoint (and every later
    /// one), keeping the changes made since it was established.
    ReleaseSavepoint(String),
}

impl Statement {
    /// Is this statement DDL (schema-changing)?
    pub fn is_ddl(&self) -> bool {
        matches!(
            self,
            Statement::CreateTable(_)
                | Statement::CreateIndex(_)
                | Statement::CreateView(_)
                | Statement::Drop { .. }
        )
    }

    /// Is this statement DML (data-changing)?
    pub fn is_dml(&self) -> bool {
        matches!(
            self,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
        )
    }

    /// Is this a query?
    pub fn is_query(&self) -> bool {
        matches!(self, Statement::Select(_))
    }

    /// A bare `BEGIN` ([`BeginMode::Plain`]).
    pub fn begin() -> Statement {
        Statement::Begin(BeginMode::Plain)
    }

    /// Is this a transaction-control statement (`BEGIN`, `COMMIT`,
    /// `ROLLBACK`, `SAVEPOINT`, `ROLLBACK TO`, `RELEASE SAVEPOINT`)?
    pub fn is_txn_control(&self) -> bool {
        matches!(
            self,
            Statement::Begin(_)
                | Statement::Commit
                | Statement::Rollback
                | Statement::Savepoint(_)
                | Statement::RollbackTo(_)
                | Statement::ReleaseSavepoint(_)
        )
    }

    /// The statement's kind.
    pub fn kind(&self) -> StatementKind {
        match self {
            Statement::CreateTable(_) => StatementKind::CreateTable,
            Statement::CreateIndex(_) => StatementKind::CreateIndex,
            Statement::CreateView(_) => StatementKind::CreateView,
            Statement::Insert(_) => StatementKind::Insert,
            Statement::Update(_) => StatementKind::Update,
            Statement::Delete(_) => StatementKind::Delete,
            Statement::Analyze(_) => StatementKind::Analyze,
            Statement::Select(_) => StatementKind::Select,
            Statement::Drop { .. } => StatementKind::Drop,
            Statement::Refresh(_) => StatementKind::Refresh,
            Statement::Begin(_) => StatementKind::Begin,
            Statement::Commit => StatementKind::Commit,
            Statement::Rollback => StatementKind::Rollback,
            Statement::Savepoint(_) => StatementKind::Savepoint,
            Statement::RollbackTo(_) => StatementKind::RollbackTo,
            Statement::ReleaseSavepoint(_) => StatementKind::ReleaseSavepoint,
        }
    }

    /// Canonical feature name of the statement kind (`STMT_<KIND>`).
    pub fn feature_name(&self) -> &'static str {
        self.kind().feature_name()
    }
}

/// The kind of a [`Statement`], one per variant: the closed vocabulary that
/// coverage accounting and dialect gating index their tables by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StatementKind {
    /// `CREATE TABLE`.
    CreateTable,
    /// `CREATE INDEX`.
    CreateIndex,
    /// `CREATE VIEW`.
    CreateView,
    /// `INSERT`.
    Insert,
    /// `UPDATE`.
    Update,
    /// `DELETE`.
    Delete,
    /// `ANALYZE`.
    Analyze,
    /// A query.
    Select,
    /// `DROP TABLE/VIEW/INDEX`.
    Drop,
    /// `REFRESH TABLE`.
    Refresh,
    /// `BEGIN`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
    /// `SAVEPOINT`.
    Savepoint,
    /// `ROLLBACK TO`.
    RollbackTo,
    /// `RELEASE SAVEPOINT`.
    ReleaseSavepoint,
}

impl StatementKind {
    /// Every statement kind, in declaration order (`ALL[k as usize] == k`).
    pub const ALL: [StatementKind; 16] = [
        StatementKind::CreateTable,
        StatementKind::CreateIndex,
        StatementKind::CreateView,
        StatementKind::Insert,
        StatementKind::Update,
        StatementKind::Delete,
        StatementKind::Analyze,
        StatementKind::Select,
        StatementKind::Drop,
        StatementKind::Refresh,
        StatementKind::Begin,
        StatementKind::Commit,
        StatementKind::Rollback,
        StatementKind::Savepoint,
        StatementKind::RollbackTo,
        StatementKind::ReleaseSavepoint,
    ];

    /// Canonical feature name (`STMT_<KIND>`).
    pub const fn feature_name(self) -> &'static str {
        match self {
            StatementKind::CreateTable => "STMT_CREATE_TABLE",
            StatementKind::CreateIndex => "STMT_CREATE_INDEX",
            StatementKind::CreateView => "STMT_CREATE_VIEW",
            StatementKind::Insert => "STMT_INSERT",
            StatementKind::Update => "STMT_UPDATE",
            StatementKind::Delete => "STMT_DELETE",
            StatementKind::Analyze => "STMT_ANALYZE",
            StatementKind::Select => "STMT_SELECT",
            StatementKind::Drop => "STMT_DROP",
            StatementKind::Refresh => "STMT_REFRESH",
            StatementKind::Begin => "STMT_BEGIN",
            StatementKind::Commit => "STMT_COMMIT",
            StatementKind::Rollback => "STMT_ROLLBACK",
            StatementKind::Savepoint => "STMT_SAVEPOINT",
            StatementKind::RollbackTo => "STMT_ROLLBACK_TO",
            StatementKind::ReleaseSavepoint => "STMT_RELEASE_SAVEPOINT",
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable(s) => write!(f, "{s}"),
            Statement::CreateIndex(s) => write!(f, "{s}"),
            Statement::CreateView(s) => write!(f, "{s}"),
            Statement::Insert(s) => write!(f, "{s}"),
            Statement::Update(s) => write!(f, "{s}"),
            Statement::Delete(s) => write!(f, "{s}"),
            Statement::Analyze(t) => match t {
                Some(t) => write!(f, "ANALYZE {t}"),
                None => f.write_str("ANALYZE"),
            },
            Statement::Select(q) => write!(f, "{q}"),
            Statement::Drop {
                kind,
                name,
                if_exists,
            } => {
                write!(f, "DROP {} ", kind.sql())?;
                if *if_exists {
                    f.write_str("IF EXISTS ")?;
                }
                f.write_str(name)
            }
            Statement::Refresh(t) => write!(f, "REFRESH TABLE {t}"),
            Statement::Begin(mode) => match mode {
                BeginMode::Plain => f.write_str("BEGIN"),
                BeginMode::Deferred => f.write_str("BEGIN DEFERRED"),
                BeginMode::Immediate => f.write_str("BEGIN IMMEDIATE"),
            },
            Statement::Commit => f.write_str("COMMIT"),
            Statement::Rollback => f.write_str("ROLLBACK"),
            Statement::Savepoint(name) => write!(f, "SAVEPOINT {name}"),
            Statement::RollbackTo(name) => write!(f, "ROLLBACK TO {name}"),
            Statement::ReleaseSavepoint(name) => write!(f, "RELEASE SAVEPOINT {name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::select::SelectItem;

    #[test]
    fn closed_vocabularies_list_their_variants_in_declaration_order() {
        // Coverage planes and the dialect gate index their tables by
        // `variant as usize`, so each `ALL` must be in declaration order.
        fn in_order<T: Copy>(all: &[T], index: impl Fn(T) -> usize) -> bool {
            all.iter().enumerate().all(|(i, &v)| index(v) == i)
        }
        assert!(in_order(&StatementKind::ALL, |k| k as usize));
        assert!(in_order(&crate::BinaryOp::ALL, |op| op as usize));
        assert!(in_order(&crate::UnaryOp::ALL, |op| op as usize));
        assert!(in_order(&crate::ScalarFunction::ALL, |f| f as usize));
        assert!(in_order(&crate::AggregateFunction::ALL, |f| f as usize));
        assert!(in_order(&crate::JoinType::ALL, |j| j as usize));
        assert!(in_order(&DataType::ALL, |t| t as usize));
        assert_eq!(DataType::Null as usize, DataType::ALL.len());
    }

    #[test]
    fn statement_kinds_name_their_statements() {
        for (sql_kind, stmt) in [
            (StatementKind::Commit, Statement::Commit),
            (StatementKind::Begin, Statement::begin()),
            (StatementKind::Analyze, Statement::Analyze(None)),
            (StatementKind::RollbackTo, Statement::RollbackTo("s".into())),
        ] {
            assert_eq!(stmt.kind(), sql_kind);
            assert_eq!(stmt.feature_name(), sql_kind.feature_name());
        }
        let names: std::collections::BTreeSet<_> = StatementKind::ALL
            .iter()
            .map(|k| k.feature_name())
            .collect();
        assert_eq!(names.len(), StatementKind::ALL.len());
    }

    #[test]
    fn create_table_renders() {
        let stmt = Statement::CreateTable(CreateTable {
            name: "t0".into(),
            if_not_exists: false,
            columns: vec![
                ColumnDef {
                    name: "c0".into(),
                    data_type: DataType::Integer,
                    constraints: vec![ColumnConstraint::NotNull],
                },
                ColumnDef::new("c1", DataType::Text),
            ],
            constraints: vec![TableConstraint::PrimaryKey(vec!["c0".into()])],
        });
        assert_eq!(
            stmt.to_string(),
            "CREATE TABLE t0 (c0 INTEGER NOT NULL, c1 TEXT, PRIMARY KEY (c0))"
        );
        assert!(stmt.is_ddl());
        assert!(!stmt.is_dml());
    }

    #[test]
    fn create_index_renders_with_partial_predicate() {
        let stmt = Statement::CreateIndex(CreateIndex {
            name: "i0".into(),
            table: "t0".into(),
            columns: vec!["c0".into(), "c1".into()],
            unique: true,
            where_clause: Some(Expr::column("c0").is_null()),
        });
        assert_eq!(
            stmt.to_string(),
            "CREATE UNIQUE INDEX i0 ON t0(c0, c1) WHERE (c0 IS NULL)"
        );
    }

    #[test]
    fn insert_renders_multiple_rows() {
        let stmt = Statement::Insert(Insert {
            table: "t0".into(),
            columns: vec!["c0".into()],
            values: vec![vec![Expr::integer(1)], vec![Expr::null()]],
            or_ignore: true,
        });
        assert_eq!(
            stmt.to_string(),
            "INSERT OR IGNORE INTO t0 (c0) VALUES (1), (NULL)"
        );
        assert!(stmt.is_dml());
    }

    #[test]
    fn view_and_misc_statements_render() {
        let view = Statement::CreateView(CreateView {
            name: "v0".into(),
            columns: vec!["c0".into()],
            query: Box::new(Select::from_table(
                "t0",
                vec![SelectItem::expr(Expr::column("c0"))],
            )),
        });
        assert_eq!(view.to_string(), "CREATE VIEW v0 (c0) AS SELECT c0 FROM t0");
        assert_eq!(Statement::Analyze(None).to_string(), "ANALYZE");
        assert_eq!(
            Statement::Analyze(Some("t0".into())).to_string(),
            "ANALYZE t0"
        );
        assert_eq!(
            Statement::Refresh("t0".into()).to_string(),
            "REFRESH TABLE t0"
        );
        assert_eq!(Statement::Commit.to_string(), "COMMIT");
        assert_eq!(Statement::begin().to_string(), "BEGIN");
        assert_eq!(
            Statement::Begin(BeginMode::Deferred).to_string(),
            "BEGIN DEFERRED"
        );
        assert_eq!(
            Statement::Begin(BeginMode::Immediate).to_string(),
            "BEGIN IMMEDIATE"
        );
        assert!(BeginMode::Immediate.is_immediate());
        assert!(!BeginMode::Deferred.is_immediate());
        assert_eq!(Statement::Rollback.to_string(), "ROLLBACK");
        assert_eq!(
            Statement::Savepoint("sp1".into()).to_string(),
            "SAVEPOINT sp1"
        );
        assert_eq!(
            Statement::RollbackTo("sp1".into()).to_string(),
            "ROLLBACK TO sp1"
        );
        assert_eq!(
            Statement::ReleaseSavepoint("sp1".into()).to_string(),
            "RELEASE SAVEPOINT sp1"
        );
        assert!(Statement::begin().is_txn_control());
        assert!(Statement::ReleaseSavepoint("s".into()).is_txn_control());
        assert!(!Statement::Analyze(None).is_txn_control());
        assert_eq!(
            Statement::Drop {
                kind: DropKind::Table,
                name: "t0".into(),
                if_exists: true
            }
            .to_string(),
            "DROP TABLE IF EXISTS t0"
        );
    }

    #[test]
    fn column_def_constraint_queries() {
        let mut col = ColumnDef::new("c0", DataType::Integer);
        assert!(!col.is_not_null());
        col.constraints.push(ColumnConstraint::PrimaryKey);
        assert!(col.is_not_null());
        assert!(col.is_unique());
        assert!(col.has_primary_key());
    }

    #[test]
    fn statement_feature_names_are_distinct() {
        use std::collections::HashSet;
        let stmts = [
            Statement::begin(),
            Statement::Commit,
            Statement::Rollback,
            Statement::Savepoint("s".into()),
            Statement::RollbackTo("s".into()),
            Statement::ReleaseSavepoint("s".into()),
            Statement::Analyze(None),
            Statement::Refresh("t".into()),
        ];
        let names: HashSet<_> = stmts.iter().map(|s| s.feature_name()).collect();
        assert_eq!(names.len(), stmts.len());
    }
}
