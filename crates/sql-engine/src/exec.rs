//! Statement and query execution.
//!
//! Queries run through a single pipeline in one of two modes:
//!
//! * [`ExecutionMode::Optimized`] — the query is first rewritten by the
//!   [`crate::optimizer`] and base-table scans may use index lookups. This
//!   is the path a normal client exercises and the path in which most
//!   injected faults live.
//! * [`ExecutionMode::Reference`] — the query is executed exactly as
//!   written, with naive nested-loop evaluation and no rewrites. This is the
//!   "non-optimizing reference engine" that the NoREC oracle conceptually
//!   relies on; the engine itself uses it as its ground truth in tests.

use crate::catalog::{IndexDef, TableSchema, ViewDef};
use crate::compile::SiteExpr;
use crate::config::TypingMode;
use crate::coverage::PlanOperator;
use crate::error::{EngineError, EngineResult};
use crate::eval::{Evaluator, RelationBinding, Scope};
use crate::faults::Fault;
use crate::optimizer::optimize_select;
use crate::storage::{ColumnStats, Database, ResultSet, Row, TableStats};
use sql_ast::{
    row_fingerprint, AggregateFunction, BinaryOp, DataType, Expr, Insert, JoinType, Select,
    SelectItem, SetOperator, SortOrder, Statement, TableFactor, TableWithJoins, Value,
};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Whether a query runs through the optimizer or as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Optimized execution (rewrites + index access paths).
    Optimized,
    /// Naive reference execution (no rewrites, sequential scans only).
    Reference,
}

/// The result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// DDL or utility statement executed successfully.
    Ok,
    /// DML statement affected this many rows.
    RowsAffected(usize),
    /// A query produced a result set.
    Rows(ResultSet),
}

impl StatementResult {
    /// The result set, if this was a query.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            StatementResult::Rows(rs) => Some(rs),
            _ => None,
        }
    }
}

impl Database {
    /// Parses and executes a single SQL statement (optimized mode).
    ///
    /// # Errors
    ///
    /// Returns the engine error or a parse error wrapped as an engine error.
    pub fn execute_sql(&mut self, sql: &str) -> EngineResult<StatementResult> {
        let stmt = sql_parser::parse_statement(sql)
            .map_err(|e| EngineError::new(crate::error::ErrorKind::Unsupported, e.to_string()))?;
        self.execute(&stmt)
    }

    /// Parses and executes a query, returning its rows (optimized mode).
    ///
    /// # Errors
    ///
    /// Fails if the SQL is not a query or execution fails.
    pub fn query_sql(&mut self, sql: &str) -> EngineResult<ResultSet> {
        match self.execute_sql(sql)? {
            StatementResult::Rows(rs) => Ok(rs),
            _ => Err(EngineError::runtime("statement did not produce rows")),
        }
    }

    /// Executes an already-parsed statement (optimized mode for queries).
    ///
    /// # Errors
    ///
    /// Propagates catalog, type, constraint and runtime errors.
    pub fn execute(&mut self, stmt: &Statement) -> EngineResult<StatementResult> {
        execute_statement(self, stmt)
    }

    /// Executes a query in an explicit execution mode without mutating the
    /// database.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn query(&self, select: &Select, mode: ExecutionMode) -> EngineResult<ResultSet> {
        execute_select(self, select, mode)
    }
}

/// Executes a statement against a database.
///
/// # Errors
///
/// Propagates catalog, type, constraint and runtime errors.
pub fn execute_statement(db: &mut Database, stmt: &Statement) -> EngineResult<StatementResult> {
    db.record_coverage(|cov| cov.statement(stmt.kind()));
    match stmt {
        Statement::CreateTable(create) => {
            let schema = TableSchema::from_create(create)?;
            if create.if_not_exists && db.catalog.table(&create.name).is_some() {
                return Ok(StatementResult::Ok);
            }
            db.catalog.add_table(schema)?;
            db.create_storage(&create.name);
            Ok(StatementResult::Ok)
        }
        Statement::CreateIndex(create) => {
            let index = IndexDef::from_create(create);
            let schema = db
                .catalog
                .shared_table(&create.table)
                .ok_or_else(|| EngineError::catalog(format!("no such table: {}", create.table)))?;
            for col in &create.columns {
                if schema.column(col).is_none() {
                    return Err(EngineError::catalog(format!(
                        "no such column in {}: {col}",
                        create.table
                    )));
                }
            }
            if create.unique {
                ensure_unique(db, &schema, &create.columns, "unique index")?;
            }
            db.catalog.add_index(index)?;
            Ok(StatementResult::Ok)
        }
        Statement::CreateView(create) => {
            if db.catalog.name_in_use(&create.name) {
                return Err(EngineError::catalog(format!(
                    "object '{}' already exists",
                    create.name
                )));
            }
            // Validate the defining query by executing it once.
            let rs = execute_select(db, &create.query, ExecutionMode::Reference)?;
            if !create.columns.is_empty() && create.columns.len() != rs.columns.len() {
                return Err(EngineError::catalog(format!(
                    "view '{}' declares {} columns but its query produces {}",
                    create.name,
                    create.columns.len(),
                    rs.columns.len()
                )));
            }
            db.catalog.add_view(ViewDef::from_create(create))?;
            Ok(StatementResult::Ok)
        }
        Statement::Insert(insert) => execute_insert(db, insert),
        Statement::Update(update) => execute_update(db, update),
        Statement::Delete(delete) => execute_delete(db, delete),
        Statement::Analyze(table) => {
            let names: Vec<String> = match table {
                Some(t) => {
                    if db.catalog.table(t).is_none() {
                        return Err(EngineError::catalog(format!("no such table: {t}")));
                    }
                    vec![t.clone()]
                }
                None => db.catalog.table_names(),
            };
            for name in names {
                let schema = db.catalog.shared_table(&name);
                let rows = db.shared_rows(&name)?;
                let mut stats = TableStats {
                    row_count: rows.len(),
                    columns: Vec::new(),
                };
                if let Some(schema) = schema {
                    stats.columns.reserve_exact(schema.columns.len());
                    // Distinct values by dedup identity, in one set sized
                    // once and reused for every column.
                    let mut distinct = RowSet::with_capacity(rows.len());
                    for i in 0..schema.columns.len() {
                        distinct.clear();
                        let mut nulls = 0;
                        for row in rows.iter() {
                            match row.get(i) {
                                Some(Value::Null) | None => nulls += 1,
                                Some(v) => {
                                    distinct.insert(std::slice::from_ref(v));
                                }
                            }
                        }
                        stats.columns.push(ColumnStats {
                            distinct: distinct.len(),
                            nulls,
                        });
                    }
                }
                db.set_stats(&name, stats);
            }
            Ok(StatementResult::Ok)
        }
        Statement::Select(query) => {
            let rs = execute_select(db, query, ExecutionMode::Optimized)?;
            Ok(StatementResult::Rows(rs))
        }
        Statement::Drop {
            kind,
            name,
            if_exists,
        } => {
            let dropped = match kind {
                sql_ast::DropKind::Table => {
                    let d = db.catalog.drop_table(name);
                    if d {
                        db.drop_storage(name);
                    }
                    d
                }
                sql_ast::DropKind::View => db.catalog.drop_view(name),
                sql_ast::DropKind::Index => db.catalog.drop_index(name),
            };
            if !dropped && !if_exists {
                return Err(EngineError::catalog(format!("no such object: {name}")));
            }
            Ok(StatementResult::Ok)
        }
        Statement::Refresh(table) => {
            if db.catalog.table(table).is_none() {
                return Err(EngineError::catalog(format!("no such table: {table}")));
            }
            Ok(StatementResult::Ok)
        }
        // The begin mode only matters under concurrent sessions (the
        // `session` module turns IMMEDIATE into eager write intent); a
        // single-connection database treats every mode like a plain BEGIN.
        Statement::Begin(_) => {
            db.txn_begin()?;
            Ok(StatementResult::Ok)
        }
        Statement::Commit => {
            db.txn_commit()?;
            Ok(StatementResult::Ok)
        }
        Statement::Rollback => {
            db.txn_rollback()?;
            Ok(StatementResult::Ok)
        }
        Statement::Savepoint(name) => {
            db.txn_savepoint(name)?;
            Ok(StatementResult::Ok)
        }
        Statement::RollbackTo(name) => {
            db.txn_rollback_to(name)?;
            Ok(StatementResult::Ok)
        }
        Statement::ReleaseSavepoint(name) => {
            db.txn_release(name)?;
            Ok(StatementResult::Ok)
        }
    }
}

fn ensure_unique(
    db: &Database,
    schema: &TableSchema,
    columns: &[String],
    what: &str,
) -> EngineResult<()> {
    let rows = db.rows(&schema.name)?;
    if has_duplicate_key(rows, &schema.positions(columns)) {
        return Err(EngineError::constraint(format!(
            "{what} violated by existing rows on ({})",
            columns.join(", ")
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------- DML ----

fn coerce_for_column(
    db: &Database,
    value: Value,
    data_type: DataType,
    column: &str,
) -> EngineResult<Value> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    match db.config.typing {
        TypingMode::Dynamic => {
            // SQLite-style affinity: coerce when lossless, otherwise store
            // the value as given.
            db.record_coverage(|cov| cov.coercion(value.data_type(), data_type));
            Ok(match (data_type, &value) {
                (DataType::Integer, Value::Text(s)) => match s.trim().parse::<i64>() {
                    Ok(i) => Value::Integer(i),
                    Err(_) => value,
                },
                (DataType::Integer, Value::Boolean(b)) => Value::Integer(i64::from(*b)),
                (DataType::Integer, Value::Real(r)) if r.fract() == 0.0 => {
                    Value::Integer(*r as i64)
                }
                (DataType::Text, v) => Value::Text(v.coerce_text().unwrap_or_default()),
                (DataType::Boolean, Value::Integer(i)) => Value::Boolean(*i != 0),
                (DataType::Real, Value::Integer(i)) => Value::Real(*i as f64),
                _ => value,
            })
        }
        TypingMode::Strict => {
            let ok = matches!(
                (data_type, &value),
                (DataType::Integer, Value::Integer(_))
                    | (DataType::Real, Value::Real(_) | Value::Integer(_))
                    | (DataType::Text, Value::Text(_))
                    | (DataType::Boolean, Value::Boolean(_))
            );
            if !ok {
                return Err(EngineError::type_error(format!(
                    "column {column} is of type {data_type} but expression is of type {}",
                    value.data_type()
                )));
            }
            Ok(match (data_type, value) {
                (DataType::Real, Value::Integer(i)) => Value::Real(i as f64),
                (_, v) => v,
            })
        }
    }
}

/// Every enforced unique key of a table, as column positions: the schema's
/// declared keys (borrowed, see [`TableSchema::unique_keys`]) plus each
/// full, non-partial unique index.
pub(crate) fn unique_key_sets<'s>(db: &Database, schema: &'s TableSchema) -> Vec<Cow<'s, [usize]>> {
    let mut sets: Vec<Cow<'s, [usize]>> = schema
        .unique_keys()
        .iter()
        .map(|key| Cow::Borrowed(key.as_slice()))
        .collect();
    for index in db.catalog.indexes_on(&schema.name) {
        if index.unique && index.predicate.is_none() {
            let key = schema.positions(&index.columns);
            if !key.is_empty() {
                sets.push(Cow::Owned(key));
            }
        }
    }
    sets
}

/// Whether [`unique_key_sets`] would be non-empty, without building it.
pub(crate) fn has_unique_keys(db: &Database, schema: &TableSchema) -> bool {
    !schema.unique_keys().is_empty()
        || db.catalog.indexes_on(&schema.name).any(|index| {
            index.unique
                && index.predicate.is_none()
                && index
                    .columns
                    .iter()
                    .any(|c| schema.column_index(c).is_some())
        })
}

/// Do two rows collide under a unique key? The exact, allocation-free form
/// of comparing the key columns' [`Value::dedup_key`]s one column at a
/// time: a key tuple holding a `NULL` never collides (NULL ≠ NULL under
/// uniqueness), and a column missing from a short row reads as `NULL`.
pub(crate) fn keys_conflict(a: &[Value], b: &[Value], key: &[usize]) -> bool {
    key.iter().all(|&i| {
        let value = a.get(i).unwrap_or(&Value::Null);
        !value.is_null() && value.dedup_eq(b.get(i).unwrap_or(&Value::Null))
    })
}

/// Does any pair of `rows` collide under `key`? Compared pairwise in
/// place, so the check allocates nothing.
fn has_duplicate_key<R: AsRef<[Value]>>(rows: &[R], key: &[usize]) -> bool {
    rows.iter().enumerate().any(|(i, a)| {
        rows[i + 1..]
            .iter()
            .any(|b| keys_conflict(a.as_ref(), b.as_ref(), key))
    })
}

fn row_violates_unique(
    existing: &[Row],
    candidate: &[Value],
    key_sets: &[Cow<'_, [usize]>],
) -> bool {
    key_sets.iter().any(|key| {
        existing
            .iter()
            .any(|row| keys_conflict(candidate, row, key))
    })
}

fn execute_insert(db: &mut Database, insert: &Insert) -> EngineResult<StatementResult> {
    let schema = db
        .catalog
        .shared_table(&insert.table)
        .ok_or_else(|| EngineError::catalog(format!("no such table: {}", insert.table)))?;
    // Map the statement's column list onto schema positions.
    let positions: Vec<usize> = if insert.columns.is_empty() {
        (0..schema.columns.len()).collect()
    } else {
        insert
            .columns
            .iter()
            .map(|c| {
                schema
                    .column_index(c)
                    .ok_or_else(|| EngineError::catalog(format!("no such column: {c}")))
            })
            .collect::<EngineResult<Vec<usize>>>()?
    };
    let key_sets = unique_key_sets(db, &schema);
    let evaluator = Evaluator::new(db, ExecutionMode::Reference);
    let mut new_rows: Vec<Row> = Vec::new();
    let mut inserted = 0usize;
    for value_row in &insert.values {
        if value_row.len() != positions.len() {
            return Err(EngineError::type_error(format!(
                "INSERT has {} values but {} columns",
                value_row.len(),
                positions.len()
            )));
        }
        let mut row: Row = vec![Value::Null; schema.columns.len()];
        let mut provided = vec![false; schema.columns.len()];
        for (expr, &pos) in value_row.iter().zip(&positions) {
            let raw = evaluator.eval(expr, &Scope::EMPTY)?;
            let coerced = coerce_for_column(
                db,
                raw,
                schema.columns[pos].data_type,
                &schema.columns[pos].name,
            )?;
            row[pos] = coerced;
            provided[pos] = true;
        }
        // Fill defaults for unprovided columns.
        for (i, col) in schema.columns.iter().enumerate() {
            if !provided[i] {
                if let Some(default) = &col.default {
                    let raw = evaluator.eval(default, &Scope::EMPTY)?;
                    row[i] = coerce_for_column(db, raw, col.data_type, &col.name)?;
                }
            }
        }
        // NOT NULL checks.
        let mut violation: Option<EngineError> = None;
        for (i, col) in schema.columns.iter().enumerate() {
            if col.not_null && row[i].is_null() {
                violation = Some(EngineError::constraint(format!(
                    "NOT NULL constraint failed: {}.{}",
                    schema.name, col.name
                )));
                break;
            }
        }
        if violation.is_none() {
            let existing = db.rows(&insert.table)?;
            if row_violates_unique(existing, &row, &key_sets)
                || row_violates_unique(&new_rows, &row, &key_sets)
            {
                violation = Some(EngineError::constraint(format!(
                    "UNIQUE constraint failed on table {}",
                    schema.name
                )));
            }
        }
        match violation {
            Some(err) => {
                if insert.or_ignore {
                    continue;
                }
                return Err(err);
            }
            None => {
                new_rows.push(row);
                inserted += 1;
            }
        }
    }
    db.rows_mut(&insert.table)?.extend(new_rows);
    Ok(StatementResult::RowsAffected(inserted))
}

fn execute_update(db: &mut Database, update: &sql_ast::Update) -> EngineResult<StatementResult> {
    let schema = db
        .catalog
        .shared_table(&update.table)
        .ok_or_else(|| EngineError::catalog(format!("no such table: {}", update.table)))?;
    let bindings = vec![RelationBinding::new(
        schema.name.clone(),
        schema.shared_column_names(),
    )];
    let rows = db.shared_rows(&update.table)?;
    // The matched rows' new versions, by position, in table order.
    let mut changes: Vec<(usize, Row)> = Vec::new();
    {
        let evaluator = Evaluator::new(db, ExecutionMode::Reference);
        // Per-statement plans: the WHERE predicate and the assignment value
        // expressions are compiled once, then run per row.
        let pred_plan = update
            .where_clause
            .as_ref()
            .map(|p| SiteExpr::new(db, ExecutionMode::Reference, &bindings, p));
        let value_plans: Vec<SiteExpr<'_>> = update
            .assignments
            .iter()
            .map(|(_, e)| SiteExpr::new(db, ExecutionMode::Reference, &bindings, e))
            .collect();
        // An unknown target column only fails once a row matches.
        let targets: Vec<Option<usize>> = update
            .assignments
            .iter()
            .map(|(col, _)| schema.column_index(col))
            .collect();
        for (pos, row) in rows.iter().enumerate() {
            let scope = Scope::new(&bindings, row);
            let matches = match &pred_plan {
                Some(pred) => pred.eval_truth(&evaluator, &scope)?.is_true(),
                None => true,
            };
            if !matches {
                continue;
            }
            let mut new_row = row.clone();
            for (((col, _), plan), target) in
                update.assignments.iter().zip(&value_plans).zip(&targets)
            {
                let idx =
                    target.ok_or_else(|| EngineError::catalog(format!("no such column: {col}")))?;
                let raw = plan.eval(&evaluator, &scope)?;
                let coerced = coerce_for_column(db, raw, schema.columns[idx].data_type, col)?;
                if schema.columns[idx].not_null && coerced.is_null() {
                    return Err(EngineError::constraint(format!(
                        "NOT NULL constraint failed: {}.{}",
                        schema.name, col
                    )));
                }
                new_row[idx] = coerced;
            }
            changes.push((pos, new_row));
        }
    }
    // Verify uniqueness over the updated relation, pairwise and in place.
    let key_sets = unique_key_sets(db, &schema);
    if !key_sets.is_empty() {
        let mut updated: Vec<&Row> = rows.iter().collect();
        for (pos, row) in &changes {
            updated[*pos] = row;
        }
        if key_sets.iter().any(|key| has_duplicate_key(&updated, key)) {
            return Err(EngineError::constraint(format!(
                "UNIQUE constraint failed on table {}",
                schema.name
            )));
        }
    }
    // Release the read handle first: the write must see the same sharing
    // (and so the same copy-on-write detach) as any other mutation.
    drop(rows);
    let affected = changes.len();
    let stored = db.rows_mut(&update.table)?;
    for (pos, row) in changes {
        stored[pos] = row;
    }
    Ok(StatementResult::RowsAffected(affected))
}

fn execute_delete(db: &mut Database, delete: &sql_ast::Delete) -> EngineResult<StatementResult> {
    let schema = db
        .catalog
        .shared_table(&delete.table)
        .ok_or_else(|| EngineError::catalog(format!("no such table: {}", delete.table)))?;
    let bindings = vec![RelationBinding::new(
        schema.name.clone(),
        schema.shared_column_names(),
    )];
    let rows = db.shared_rows(&delete.table)?;
    let mut doomed: Vec<bool> = Vec::with_capacity(rows.len());
    {
        let evaluator = Evaluator::new(db, ExecutionMode::Reference);
        let pred_plan = delete
            .where_clause
            .as_ref()
            .map(|p| SiteExpr::new(db, ExecutionMode::Reference, &bindings, p));
        for row in rows.iter() {
            let scope = Scope::new(&bindings, row);
            doomed.push(match &pred_plan {
                Some(pred) => pred.eval_truth(&evaluator, &scope)?.is_true(),
                None => true,
            });
        }
    }
    drop(rows);
    let removed = doomed.iter().filter(|d| **d).count();
    let stored = db.rows_mut(&delete.table)?;
    if removed > 0 {
        let mut doomed = doomed.into_iter();
        stored.retain(|_| !doomed.next().unwrap_or(false));
    }
    Ok(StatementResult::RowsAffected(removed))
}

// ------------------------------------------------------------- queries ----

/// A relation during query processing: its bindings and its rows.
#[derive(Debug)]
struct Relation<'a> {
    bindings: Vec<RelationBinding>,
    rows: Rows<'a>,
}

/// The rows of a [`Relation`]. Nothing here copies a value: a row is built
/// only when the projection or aggregation outputs it.
#[derive(Debug)]
enum Rows<'a> {
    /// One FROM item's rows, one part each: a base table's, borrowed from
    /// storage, or a view's or derived table's result rows, owned.
    Table(Cow<'a, [Row]>),
    /// `stride` parts per row, flat: a join's or product's rows (one part
    /// per binding, each borrowed where it lies), or the survivors of a
    /// filtered base table.
    Parts {
        stride: usize,
        parts: Vec<&'a [Value]>,
    },
}

/// One row of a [`Relation`]: `head` followed by each part of `tail`, as a
/// [`Scope`] reads it.
#[derive(Debug, Clone, Copy)]
struct RowRef<'r> {
    head: &'r [Value],
    tail: &'r [&'r [Value]],
}

impl<'r> RowRef<'r> {
    /// The row with no values: every column reads as `NULL`.
    const EMPTY: RowRef<'static> = RowRef {
        head: &[],
        tail: &[],
    };

    fn scope(self, relations: &'r [RelationBinding], parent: Option<&'r Scope<'r>>) -> Scope<'r> {
        Scope {
            relations,
            row: self.head,
            tail: self.tail,
            parent,
        }
    }
}

/// The rows of a query level with no FROM: one row with no columns.
static NO_FROM: [Row; 1] = [Vec::new()];

/// The NULL row outer joins pad with: a padded binding of width `w` reads
/// `NULL_ROW[..w]`. A wider binding pads from a row in the [`FromStore`].
static NULL_ROW: [Value; 32] = [const { Value::Null }; 32];

impl<'a> Rows<'a> {
    fn len(&self) -> usize {
        match self {
            Rows::Table(rows) => rows.len(),
            Rows::Parts { stride, parts } => parts.len() / stride,
        }
    }

    fn row(&self, i: usize) -> RowRef<'_> {
        match self {
            Rows::Table(rows) => RowRef {
                head: &rows[i],
                tail: &[],
            },
            Rows::Parts { stride, parts } => {
                let row = &parts[i * stride..(i + 1) * stride];
                RowRef {
                    head: row[0],
                    tail: &row[1..],
                }
            }
        }
    }

    /// The rows as a join input, borrowed for `'a`: owned rows move into
    /// `store` first.
    fn into_side(self, store: &'a FromStore) -> Side<'a> {
        match self {
            Rows::Parts { stride, parts } => Side::Parts(stride, parts),
            Rows::Table(Cow::Borrowed(rows)) => Side::Table(rows),
            Rows::Table(Cow::Owned(rows)) => Side::Table(store.keep(rows)),
        }
    }

    /// Keeps the rows `keep` accepts, in order. `keep` sees every row until
    /// its first error, which ends the scan. Owned rows and parts are
    /// compacted in place; a borrowed table's survivors become parts.
    fn retain(
        &mut self,
        mut keep: impl FnMut(RowRef<'_>) -> EngineResult<bool>,
    ) -> EngineResult<()> {
        match self {
            Rows::Table(Cow::Borrowed(rows)) => {
                let rows: &'a [Row] = rows;
                let mut parts = Vec::new();
                for row in rows {
                    if keep(RowRef {
                        head: row,
                        tail: &[],
                    })? {
                        parts.push(row.as_slice());
                    }
                }
                *self = Rows::Parts { stride: 1, parts };
            }
            Rows::Table(Cow::Owned(rows)) => {
                let mut kept = 0;
                for i in 0..rows.len() {
                    if keep(RowRef {
                        head: &rows[i],
                        tail: &[],
                    })? {
                        rows.swap(kept, i);
                        kept += 1;
                    }
                }
                rows.truncate(kept);
            }
            Rows::Parts { stride, parts } => {
                let stride = *stride;
                let mut kept = 0;
                for i in 0..parts.len() / stride {
                    let row = &parts[i * stride..(i + 1) * stride];
                    if keep(RowRef {
                        head: row[0],
                        tail: &row[1..],
                    })? {
                        parts.copy_within(i * stride..(i + 1) * stride, kept * stride);
                        kept += 1;
                    }
                }
                parts.truncate(kept * stride);
            }
        }
        Ok(())
    }
}

/// One input of a join step, borrowed for `'a`: a table's rows, one part
/// each, or `stride` parts per row.
enum Side<'a> {
    Table(&'a [Row]),
    Parts(usize, Vec<&'a [Value]>),
}

impl<'a> Side<'a> {
    fn len(&self) -> usize {
        match self {
            Side::Table(rows) => rows.len(),
            Side::Parts(stride, parts) => parts.len() / stride,
        }
    }

    fn stride(&self) -> usize {
        match self {
            Side::Table(_) => 1,
            Side::Parts(stride, _) => *stride,
        }
    }

    /// Appends row `i`'s parts to `out`.
    fn push_row(&self, i: usize, out: &mut Vec<&'a [Value]>) {
        match self {
            Side::Table(rows) => out.push(&rows[i]),
            Side::Parts(stride, parts) => {
                out.extend_from_slice(&parts[i * stride..(i + 1) * stride]);
            }
        }
    }
}

/// What a query level's FROM owns while its joined rows borrow it: the
/// result rows of each view or derived table that takes part in a join,
/// and any NULL row wider than [`NULL_ROW`]. Each goes into its own slot,
/// filled once, so it never moves while it is borrowed. A FROM of base
/// tables and inner joins needs no slot and allocates nothing here.
struct FromStore {
    slots: Vec<OnceCell<Vec<Row>>>,
    used: Cell<usize>,
}

impl FromStore {
    /// One slot per view or derived table that a join can adopt and per
    /// outer join that can pad.
    fn new(db: &Database, select: &Select) -> FromStore {
        let joins = select.from.len() > 1 || select.from.iter().any(|t| !t.joins.is_empty());
        let slots = if joins {
            select
                .from
                .iter()
                .map(|twj| {
                    let owned = std::iter::once(&twj.relation)
                        .chain(twj.joins.iter().map(|j| &j.relation))
                        .filter(|factor| match factor {
                            TableFactor::Derived { .. } => true,
                            TableFactor::Table { name, .. } => db.catalog.view(name).is_some(),
                        })
                        .count();
                    owned + twj.joins.iter().filter(|j| j.join_type.is_outer()).count()
                })
                .sum()
        } else {
            0
        };
        FromStore {
            slots: (0..slots).map(|_| OnceCell::new()).collect(),
            used: Cell::new(0),
        }
    }

    /// Moves `rows` into the next free slot and lends them back.
    fn keep(&self, rows: Vec<Row>) -> &[Row] {
        let slot = &self.slots[self.used.get()];
        self.used.set(self.used.get() + 1);
        slot.get_or_init(|| rows)
    }
}

/// Executes a query with no outer scope.
///
/// # Errors
///
/// Propagates execution errors.
pub fn execute_select(
    db: &Database,
    select: &Select,
    mode: ExecutionMode,
) -> EngineResult<ResultSet> {
    execute_select_in_scope(db, select, mode, None)
}

/// Executes a query, optionally giving it access to an outer scope for
/// correlated subqueries.
///
/// # Errors
///
/// Propagates execution errors.
pub fn execute_select_in_scope(
    db: &Database,
    select: &Select,
    mode: ExecutionMode,
    outer: Option<&Scope<'_>>,
) -> EngineResult<ResultSet> {
    let optimized;
    let select = if mode == ExecutionMode::Optimized {
        optimized = optimize_select(db, select);
        &optimized
    } else {
        select
    };
    check_crash_faults(db, select)?;

    // Resolve FROM into one relation and filter it (WHERE).
    let store = FromStore::new(db, select);
    let filtered = filtered_from(db, &store, select, mode, outer)?;

    // Aggregate or project.
    let mut produced = if is_aggregate_query(select) {
        aggregate_and_project(db, select, mode, &filtered, outer)?
    } else {
        project_rows(db, select, mode, filtered, outer)?
    };

    // DISTINCT.
    if select.distinct {
        db.record_coverage(|cov| cov.plan_operator(PlanOperator::Distinct));
        let keep = first_occurrences(produced.rows.iter().map(|(row, _)| row.as_slice()));
        retain_marked(&mut produced.rows, &keep);
    }

    // Set operations.
    if let Some(set_op) = &select.set_op {
        db.record_coverage(|cov| cov.plan_operator(PlanOperator::SetOperation));
        let right = execute_select_in_scope(db, &set_op.right, mode, outer)?;
        if right.columns.len() != produced.columns.len() {
            return Err(EngineError::type_error(
                "set operation requires matching column counts",
            ));
        }
        produced = combine_set_op(produced, right, set_op.op, set_op.all);
    }

    // ORDER BY.
    if !select.order_by.is_empty() {
        db.record_coverage(|cov| cov.plan_operator(PlanOperator::Sort));
        sort_rows(db, select, &mut produced)?;
    }

    // LIMIT / OFFSET.
    let mut rows: Vec<Row> = produced.rows.into_iter().map(|(r, _)| r).collect();
    if let Some(offset) = select.offset {
        rows.drain(..rows.len().min(offset as usize));
    }
    if let Some(limit) = select.limit {
        rows.truncate(limit as usize);
    }

    Ok(ResultSet {
        columns: produced.columns,
        rows,
    })
}

/// Intermediate projected output: column names plus rows carrying their
/// ORDER BY keys.
struct Produced {
    columns: Vec<String>,
    rows: Vec<(Row, Vec<Value>)>,
}

fn check_crash_faults(db: &Database, select: &Select) -> EngineResult<()> {
    let faults = &db.config.faults;
    if faults.has(Fault::CrashOnDeepExpressions) {
        let deep = select
            .where_clause
            .iter()
            .chain(select.having.iter())
            .any(|e| e.depth() >= 3 && e.node_count() > 24);
        if deep {
            return Err(EngineError::runtime(
                "internal error: expression evaluator stack exhausted",
            ));
        }
    }
    if faults.has(Fault::CrashOnManyJoins) {
        let relations: usize = select.from.iter().map(|t| 1 + t.joins.len()).sum();
        if relations >= 3 {
            return Err(EngineError::runtime(
                "internal error: circuit breaker tripped (out of memory)",
            ));
        }
    }
    Ok(())
}

fn is_aggregate_query(select: &Select) -> bool {
    select.is_aggregate()
        || select
            .having
            .as_ref()
            .map(Expr::contains_aggregate)
            .unwrap_or(false)
}

/// Resolves FROM into one relation and applies WHERE to it.
///
/// Joins and comma products run left to right in nested-loop order and
/// borrow every input row (see [`join_step`]); WHERE then keeps the
/// survivors in place. So every join condition is decided before WHERE
/// sees a row, and no row is copied before the projection outputs it.
fn filtered_from<'a>(
    db: &'a Database,
    store: &'a FromStore,
    select: &Select,
    mode: ExecutionMode,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation<'a>> {
    let relation = match select.from.split_first() {
        None => Relation {
            bindings: Vec::new(),
            rows: Rows::Table(Cow::Borrowed(&NO_FROM)),
        },
        Some((first, rest)) => {
            let mut combined = joined_factor(db, store, first, mode, outer)?;
            for twj in rest {
                let current = joined_factor(db, store, twj, mode, outer)?;
                combined = join_step(db, store, mode, combined, current, None, outer)?;
            }
            combined
        }
    };
    apply_where(db, select, mode, relation, outer)
}

/// One comma-separated FROM item with its join chain applied.
fn joined_factor<'a>(
    db: &'a Database,
    store: &'a FromStore,
    twj: &TableWithJoins,
    mode: ExecutionMode,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation<'a>> {
    let mut current = resolve_factor(db, &twj.relation, mode, outer)?;
    for join in &twj.joins {
        let right = resolve_factor(db, &join.relation, mode, outer)?;
        current = join_step(db, store, mode, current, right, Some(join), outer)?;
    }
    Ok(current)
}

fn resolve_factor<'a>(
    db: &'a Database,
    factor: &TableFactor,
    mode: ExecutionMode,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation<'a>> {
    match factor {
        TableFactor::Table { name, alias } => {
            let visible = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(view) = db.catalog.view(name) {
                db.record_coverage(|cov| cov.plan_operator(PlanOperator::ViewExpansion));
                // The view's query runs as stored; only the injected fault
                // needs a modified copy.
                let query = if db.config.faults.has(Fault::BadViewPredicateDrop)
                    && view.query.where_clause.is_some()
                {
                    // Injected fault: the view's own filter is lost when the
                    // view is expanded into the outer query.
                    Cow::Owned(Select {
                        where_clause: None,
                        ..view.query.clone()
                    })
                } else {
                    Cow::Borrowed(&view.query)
                };
                let rs = execute_select_in_scope(db, &query, mode, outer)?;
                let columns = if view.columns.is_empty() {
                    rs.columns
                } else {
                    view.columns.clone()
                };
                return Ok(Relation {
                    bindings: vec![RelationBinding::new(visible, columns)],
                    rows: Rows::Table(Cow::Owned(rs.rows)),
                });
            }
            let schema = db
                .catalog
                .table(name)
                .ok_or_else(|| EngineError::catalog(format!("no such table: {name}")))?;
            db.record_coverage(|cov| cov.plan_operator(PlanOperator::SeqScan));
            Ok(Relation {
                bindings: vec![RelationBinding::new(visible, schema.shared_column_names())],
                rows: Rows::Table(Cow::Borrowed(db.rows(name)?)),
            })
        }
        TableFactor::Derived { subquery, alias } => {
            db.record_coverage(|cov| cov.plan_operator(PlanOperator::DerivedTable));
            let rs = execute_select_in_scope(db, subquery, mode, outer)?;
            Ok(Relation {
                bindings: vec![RelationBinding::new(alias.clone(), rs.columns)],
                rows: Rows::Table(Cow::Owned(rs.rows)),
            })
        }
    }
}

/// The equality over the column names two sides of a NATURAL JOIN share,
/// or `None` when they share none.
fn natural_join_condition(left: &[RelationBinding], right: &[RelationBinding]) -> Option<Expr> {
    let mut cond: Option<Expr> = None;
    for lb in left {
        for lc in lb.columns.iter() {
            for rb in right {
                for rc in rb.columns.iter() {
                    if lc.eq_ignore_ascii_case(rc) {
                        let eq = Expr::qualified_column(lb.name.clone(), lc.clone())
                            .eq(Expr::qualified_column(rb.name.clone(), rc.clone()));
                        cond = Some(match cond {
                            None => eq,
                            Some(c) => c.and(eq),
                        });
                    }
                }
            }
        }
    }
    cond
}

/// One step of FROM: `left` joined with `right` by `join`, or their comma
/// product when `join` is `None`. Output rows come in nested-loop order —
/// left-major for INNER, NATURAL, CROSS, LEFT and FULL (FULL's unmatched
/// right rows last), right-major for RIGHT — with an outer join's
/// NULL-padded rows in place.
///
/// An output row is its inputs' parts side by side, borrowed; a padded
/// side reads the shared NULL row. Each candidate pair is laid out where it
/// would be kept and tested there, so the join condition reads it without
/// a copy; its first error ends the join.
fn join_step<'a>(
    db: &Database,
    store: &'a FromStore,
    mode: ExecutionMode,
    left: Relation<'a>,
    right: Relation<'a>,
    join: Option<&sql_ast::Join>,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation<'a>> {
    db.record_coverage(|cov| {
        cov.plan_operator(join.map_or(PlanOperator::CrossProduct, |j| {
            PlanOperator::Join(j.join_type)
        }))
    });
    let join_type = join.map_or(JoinType::Cross, |j| j.join_type);
    let natural_condition = (join_type == JoinType::Natural)
        .then(|| natural_join_condition(&left.bindings, &right.bindings))
        .flatten();
    let split = left.bindings.len();
    let mut bindings = left.bindings;
    bindings.extend(right.bindings);
    let l = left.rows.into_side(store);
    let r = right.rows.into_side(store);
    let (nl, nr) = (l.len(), r.len());
    let stride = l.stride() + r.stride();
    let condition: Option<&Expr> = match join_type {
        JoinType::Cross => None,
        JoinType::Natural => natural_condition.as_ref(),
        _ => join.and_then(|j| j.on.as_ref()),
    };
    let evaluator = Evaluator::new(db, mode);
    // The join condition is compiled once and evaluated per row pair.
    let condition = condition.map(|c| SiteExpr::new(db, mode, &bindings, c));
    // A padded side reads one NULL part per binding, of the binding's
    // width.
    let widest = || bindings.iter().map(|b| b.columns.len()).max().unwrap_or(0);
    let nulls: &'a [Value] = if join_type.is_outer() && widest() > NULL_ROW.len() {
        store.keep(vec![vec![Value::Null; widest()]])[0].as_slice()
    } else {
        &NULL_ROW
    };
    let (left_bindings, right_bindings) = bindings.split_at(split);
    let pad = |rows: &mut Vec<&'a [Value]>, padded: &[RelationBinding]| {
        rows.extend(padded.iter().map(|b| &nulls[..b.columns.len()]));
    };

    let mut rows: Vec<&'a [Value]> = Vec::new();
    if condition.is_none() && !join_type.is_outer() {
        rows.reserve(nl * nr * stride);
    }
    // Lays out the pair `(li, ri)` and keeps it if the condition holds.
    let pair = |rows: &mut Vec<&'a [Value]>, li: usize, ri: usize| -> EngineResult<bool> {
        let start = rows.len();
        l.push_row(li, rows);
        r.push_row(ri, rows);
        let Some(cond) = &condition else {
            return Ok(true);
        };
        let row = &rows[start..];
        let scope = Scope {
            relations: &bindings,
            row: row[0],
            tail: &row[1..],
            parent: outer,
        };
        let holds = cond.eval_truth(&evaluator, &scope)?.is_true();
        if !holds {
            rows.truncate(start);
        }
        Ok(holds)
    };
    match join_type {
        JoinType::Inner | JoinType::Natural | JoinType::Cross => {
            for li in 0..nl {
                for ri in 0..nr {
                    pair(&mut rows, li, ri)?;
                }
            }
        }
        JoinType::Left | JoinType::Full => {
            // Only FULL tracks which right rows matched.
            let mut matched_right = vec![false; if join_type == JoinType::Full { nr } else { 0 }];
            for li in 0..nl {
                let mut matched = false;
                for ri in 0..nr {
                    if pair(&mut rows, li, ri)? {
                        matched = true;
                        if let Some(m) = matched_right.get_mut(ri) {
                            *m = true;
                        }
                    }
                }
                if !matched {
                    l.push_row(li, &mut rows);
                    pad(&mut rows, right_bindings);
                }
            }
            for (ri, matched) in matched_right.into_iter().enumerate() {
                if !matched {
                    pad(&mut rows, left_bindings);
                    r.push_row(ri, &mut rows);
                }
            }
        }
        JoinType::Right => {
            for ri in 0..nr {
                let mut matched = false;
                for li in 0..nl {
                    matched |= pair(&mut rows, li, ri)?;
                }
                if !matched {
                    pad(&mut rows, left_bindings);
                    r.push_row(ri, &mut rows);
                }
            }
        }
    }
    drop(condition);
    Ok(Relation {
        bindings,
        rows: Rows::Parts {
            stride,
            parts: rows,
        },
    })
}

/// Splits a predicate into its top-level conjuncts.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Applies WHERE to the relation FROM resolved to, keeping the survivors in
/// order and in place. The predicate is compiled once per statement and
/// meets the rows in order, stopping at its first error. In optimized
/// mode, an equality conjunct on an indexed column of a single base table
/// first narrows the rows to the index's candidates.
fn apply_where<'a>(
    db: &Database,
    select: &Select,
    mode: ExecutionMode,
    relation: Relation<'a>,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation<'a>> {
    let Some(pred) = &select.where_clause else {
        return Ok(relation);
    };
    db.record_coverage(|cov| cov.plan_operator(PlanOperator::Filter));
    let Relation { bindings, mut rows } = relation;
    let evaluator = Evaluator::new(db, mode);

    // Index access path: optimized mode, single base table, equality
    // conjunct on an indexed column.
    if mode == ExecutionMode::Optimized && bindings.len() == 1 {
        if let Some((index, col_idx, literal)) = find_index_access(db, select, &bindings[0], pred) {
            db.record_coverage(|cov| cov.plan_operator(PlanOperator::IndexLookup));
            let faults = &db.config.faults;
            let mut done = false;
            rows.retain(|row| {
                if done {
                    return Ok(false);
                }
                let value = row.head.get(col_idx).unwrap_or(&Value::Null);
                let matches = if faults.has(Fault::BadIndexLookupCoercion) {
                    // Injected fault: raw key comparison, skipping the
                    // coercion a full scan would perform.
                    value.dedup_eq(literal) && value.data_type() == literal.data_type()
                } else {
                    evaluator.equals(value, literal)?.is_true()
                };
                if !matches {
                    return Ok(false);
                }
                if faults.has(Fault::BadPartialIndexScan) {
                    if let Some(ipred) = &index.predicate {
                        // Injected fault: rows not covered by the partial
                        // index are silently dropped.
                        if !evaluator
                            .eval_truth(ipred, &row.scope(&bindings, outer))
                            .unwrap_or(sql_ast::TruthValue::False)
                            .is_true()
                        {
                            return Ok(false);
                        }
                    }
                }
                // Injected fault: a unique index lookup stops after the
                // first match even when coercion makes more rows match.
                done = faults.has(Fault::BadUniqueIndexShortcut) && index.unique;
                Ok(true)
            })?;
        }
    }

    let plan = SiteExpr::new(db, mode, &bindings, pred);
    rows.retain(|row| {
        Ok(plan
            .eval_truth(&evaluator, &row.scope(&bindings, outer))?
            .is_true())
    })?;
    drop(plan);
    Ok(Relation { bindings, rows })
}

/// Finds an applicable index access path: returns the index, the column's
/// flat position in the relation and the literal being matched.
fn find_index_access<'a>(
    db: &'a Database,
    select: &'a Select,
    binding: &RelationBinding,
    pred: &'a Expr,
) -> Option<(&'a IndexDef, usize, &'a Value)> {
    // Only simple single-table scans (not views/derived tables) qualify.
    let table_name = match &select.from.first()?.relation {
        TableFactor::Table { name, .. } if db.catalog.table(name).is_some() => name,
        _ => return None,
    };
    // No index, no access path: skip splitting the predicate.
    db.catalog.indexes_on(table_name).next()?;
    let allow_partial = db.config.faults.has(Fault::BadPartialIndexScan);
    for conjunct in conjuncts(pred) {
        if let Expr::Binary { left, op, right } = conjunct {
            if *op != BinaryOp::Eq {
                continue;
            }
            let (col, literal) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => (c, v),
                (Expr::Literal(v), Expr::Column(c)) => (c, v),
                _ => continue,
            };
            if let Some(table) = &col.table {
                if !table.eq_ignore_ascii_case(&binding.name) {
                    continue;
                }
            }
            for index in db.catalog.indexes_on(table_name) {
                if index.predicate.is_some() && !allow_partial {
                    continue;
                }
                if index
                    .columns
                    .first()
                    .map(|c| c.eq_ignore_ascii_case(&col.column))
                    .unwrap_or(false)
                {
                    if let Some(pos) = binding
                        .columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(&col.column))
                    {
                        return Some((index, pos, literal));
                    }
                }
            }
        }
    }
    None
}

// ----------------------------------------------------------- projection ----

/// The output column name of a projection item: its alias, the column name
/// for plain column references, or a positional `exprN` name otherwise.
/// Unaliased complex expressions are deliberately NOT named by rendering
/// their SQL — naming runs for every executed query, and text rendering is
/// a serialization concern that stays off the execution path.
fn output_name(item: &SelectItem, index: usize) -> Option<String> {
    match item {
        SelectItem::Expr { expr, alias } => Some(match alias {
            Some(a) => a.clone(),
            None => match expr {
                Expr::Column(c) => c.column.clone(),
                _ => format!("expr{index}"),
            },
        }),
        _ => None,
    }
}

/// The output columns of a projection list, each with the source of its
/// values: wildcards expand to flat input positions, and expressions are
/// borrowed from the SELECT.
fn expand_projections<'s>(
    select: &'s Select,
    bindings: &[RelationBinding],
) -> EngineResult<(Vec<String>, Vec<ProjectionSource<'s>>)> {
    let mut columns = Vec::new();
    let mut sources = Vec::new();
    for (index, item) in select.projections.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                let mut offset = 0;
                for b in bindings {
                    for (i, col) in b.columns.iter().enumerate() {
                        columns.push(col.clone());
                        sources.push(ProjectionSource::Position(offset + i));
                    }
                    offset += b.columns.len();
                }
                if bindings.is_empty() {
                    return Err(EngineError::catalog("SELECT * with no FROM clause"));
                }
            }
            SelectItem::QualifiedWildcard(table) => {
                let mut offset = 0;
                let mut found = false;
                for b in bindings {
                    if b.name.eq_ignore_ascii_case(table) {
                        for (i, col) in b.columns.iter().enumerate() {
                            columns.push(col.clone());
                            sources.push(ProjectionSource::Position(offset + i));
                        }
                        found = true;
                    }
                    offset += b.columns.len();
                }
                if !found {
                    return Err(EngineError::catalog(format!("no such table: {table}")));
                }
            }
            SelectItem::Expr { expr, .. } => {
                columns.push(output_name(item, index).unwrap_or_default());
                sources.push(ProjectionSource::Expr(expr));
            }
        }
    }
    Ok((columns, sources))
}

enum ProjectionSource<'s> {
    Position(usize),
    Expr(&'s Expr),
}

/// A projection item's per-statement plan: a flat input position or a
/// compiled expression.
enum ProjPlan<'e> {
    Position(usize),
    Expr(SiteExpr<'e>),
}

fn projection_plans<'e>(
    db: &Database,
    mode: ExecutionMode,
    bindings: &[RelationBinding],
    sources: Vec<ProjectionSource<'e>>,
) -> Vec<ProjPlan<'e>> {
    let compiled = db.config.eval == crate::config::EvalStrategy::Compiled;
    sources
        .into_iter()
        .map(|source| match source {
            ProjectionSource::Position(i) => ProjPlan::Position(i),
            ProjectionSource::Expr(e) => {
                // Plain column projections that bind locally need no closure
                // at all: a pre-resolved offset copy is exactly what the
                // compiled column plan would do per row. Columns that do not
                // bind locally (correlated references) fall through to the
                // compiled plan, which defers to the parent scope at
                // evaluation time.
                if compiled {
                    if let Expr::Column(c) = e {
                        if let Some(i) = crate::compile::local_column_offset(bindings, c) {
                            return ProjPlan::Position(i);
                        }
                    }
                }
                ProjPlan::Expr(SiteExpr::new(db, mode, bindings, e))
            }
        })
        .collect()
}

fn project_rows(
    db: &Database,
    select: &Select,
    mode: ExecutionMode,
    relation: Relation<'_>,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Produced> {
    db.record_coverage(|cov| cov.plan_operator(PlanOperator::Projection));
    let Relation { bindings, rows } = relation;
    let (columns, sources) = expand_projections(select, &bindings)?;
    let evaluator = Evaluator::new(db, mode);
    // Per-statement plans: projection expressions and ORDER BY keys are
    // compiled once, then run per row.
    let plans = projection_plans(db, mode, &bindings, sources);
    let order_plan = OrderPlan::new(db, select, mode, &bindings, &columns);
    // Every input column in order, as `SELECT *` projects: a view's or
    // derived table's own result row is its output row, moved.
    let identity = plans
        .iter()
        .enumerate()
        .all(|(k, plan)| matches!(plan, ProjPlan::Position(i) if *i == k));
    let mut out = Vec::with_capacity(rows.len());
    if let Rows::Table(Cow::Owned(owned)) = rows {
        for row in owned {
            let scope = Scope::with_parent(&bindings, &row, outer);
            if identity && row.len() == plans.len() {
                let order_keys = order_plan.keys(&evaluator, &scope, &row)?;
                out.push((row, order_keys));
            } else {
                let out_row = project_row(&evaluator, &plans, scope)?;
                let order_keys = order_plan.keys(&evaluator, &scope, &out_row)?;
                out.push((out_row, order_keys));
            }
        }
        return Ok(Produced { columns, rows: out });
    }
    for i in 0..rows.len() {
        let scope = rows.row(i).scope(&bindings, outer);
        let out_row = project_row(&evaluator, &plans, scope)?;
        let order_keys = order_plan.keys(&evaluator, &scope, &out_row)?;
        out.push((out_row, order_keys));
    }
    Ok(Produced { columns, rows: out })
}

/// Builds one output row: each value copied once, from its input position
/// or from its compiled expression.
fn project_row(
    evaluator: &Evaluator<'_>,
    plans: &[ProjPlan<'_>],
    scope: Scope<'_>,
) -> EngineResult<Row> {
    let mut out_row = Vec::with_capacity(plans.len());
    for plan in plans {
        out_row.push(match plan {
            ProjPlan::Position(i) => scope.value(*i).cloned().unwrap_or(Value::Null),
            ProjPlan::Expr(e) => e.eval(evaluator, &scope)?,
        });
    }
    Ok(out_row)
}

// ----------------------------------------------------------- aggregation ----

fn collect_aggregate_exprs(select: &Select) -> Vec<&Expr> {
    fn walk<'s>(expr: &'s Expr, out: &mut Vec<&'s Expr>) {
        if let Expr::Aggregate { .. } = expr {
            out.push(expr);
            return;
        }
        for c in expr.children() {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, &mut out);
        }
    }
    if let Some(h) = &select.having {
        walk(h, &mut out);
    }
    for o in &select.order_by {
        walk(&o.expr, &mut out);
    }
    out
}

/// One aggregate expression's per-statement plan: its pre-rendered lookup
/// key (the tree walker re-renders this per row; here it is rendered once)
/// and its compiled argument.
struct AggPlan<'e> {
    key: String,
    func: AggregateFunction,
    arg: Option<SiteExpr<'e>>,
    distinct: bool,
}

impl<'e> AggPlan<'e> {
    fn new(
        db: &Database,
        mode: ExecutionMode,
        bindings: &[RelationBinding],
        agg: &'e Expr,
    ) -> EngineResult<AggPlan<'e>> {
        let Expr::Aggregate {
            func,
            arg,
            distinct,
        } = agg
        else {
            return Err(EngineError::runtime("not an aggregate expression"));
        };
        Ok(AggPlan {
            key: agg.to_string(),
            func: *func,
            arg: arg.as_deref().map(|a| SiteExpr::new(db, mode, bindings, a)),
            distinct: *distinct,
        })
    }
}

fn compute_aggregate(
    db: &Database,
    mode: ExecutionMode,
    evaluator: &Evaluator<'_>,
    plan: &AggPlan<'_>,
    bindings: &[RelationBinding],
    group_rows: &[RowRef<'_>],
    outer: Option<&Scope<'_>>,
) -> EngineResult<Value> {
    let func = plan.func;
    db.record_coverage(|cov| {
        cov.plan_operator(PlanOperator::Aggregate);
        cov.aggregate_function(func);
    });
    let faults = &db.config.faults;
    let optimized = mode == ExecutionMode::Optimized;

    if func == AggregateFunction::Count && plan.arg.is_none() {
        // COUNT(*) counts the group's rows; there is no argument to evaluate.
        return Ok(Value::Integer(group_rows.len() as i64));
    }
    // Evaluate the argument per row, in row order, so the first error wins.
    let mut values: Vec<Value> = Vec::with_capacity(group_rows.len());
    for &row in group_rows {
        let scope = row.scope(bindings, outer);
        match &plan.arg {
            None => values.push(Value::Integer(1)),
            Some(a) => values.push(a.eval(evaluator, &scope)?),
        }
    }
    if plan.distinct {
        let keep = first_occurrences(values.iter().map(std::slice::from_ref));
        retain_marked(&mut values, &keep);
    }
    if func == AggregateFunction::Count {
        let counted = if optimized && faults.has(Fault::BadCountNulls) {
            // Injected fault: COUNT(col) counts NULLs.
            values.len()
        } else {
            values.iter().filter(|v| !v.is_null()).count()
        };
        return Ok(Value::Integer(counted as i64));
    }
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    Ok(match func {
        AggregateFunction::Count => unreachable!("COUNT is answered above"),
        AggregateFunction::Sum => {
            if non_null.is_empty() {
                if optimized && faults.has(Fault::BadSumEmptyGroup) {
                    // Injected fault: SUM over no rows yields 0 instead of NULL.
                    Value::Integer(0)
                } else {
                    Value::Null
                }
            } else {
                sum_values(&non_null)
            }
        }
        AggregateFunction::Total => {
            if non_null.is_empty() {
                Value::Real(0.0)
            } else {
                let s: f64 = non_null.iter().map(|v| v.coerce_f64().unwrap_or(0.0)).sum();
                Value::Real(s)
            }
        }
        AggregateFunction::Avg => {
            if non_null.is_empty() {
                Value::Null
            } else {
                let s: f64 = non_null.iter().map(|v| v.coerce_f64().unwrap_or(0.0)).sum();
                Value::Real(s / non_null.len() as f64)
            }
        }
        AggregateFunction::Min => non_null
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        AggregateFunction::Max => non_null
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
    })
}

fn sum_values(non_null: &[&Value]) -> Value {
    let all_int = non_null
        .iter()
        .all(|v| matches!(v, Value::Integer(_) | Value::Boolean(_)));
    if all_int {
        Value::Integer(non_null.iter().map(|v| v.coerce_i64().unwrap_or(0)).sum())
    } else {
        Value::Real(non_null.iter().map(|v| v.coerce_f64().unwrap_or(0.0)).sum())
    }
}

fn aggregate_and_project(
    db: &Database,
    select: &Select,
    mode: ExecutionMode,
    relation: &Relation<'_>,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Produced> {
    db.record_coverage(|cov| cov.plan_operator(PlanOperator::GroupBy));
    let evaluator = Evaluator::new(db, mode);
    let faults = &db.config.faults;
    let optimized = mode == ExecutionMode::Optimized;

    // Strict typing requires every non-aggregate projection to be a grouping
    // expression.
    if db.config.typing == TypingMode::Strict {
        let group_keys: BTreeSet<String> = select.group_by.iter().map(Expr::to_string).collect();
        for item in &select.projections {
            match item {
                SelectItem::Expr { expr, .. } => {
                    if !expr.contains_aggregate()
                        && !group_keys.contains(&expr.to_string())
                        && !matches!(expr, Expr::Literal(_))
                    {
                        return Err(EngineError::type_error(format!(
                            "column \"{expr}\" must appear in the GROUP BY clause or be used in an aggregate function"
                        )));
                    }
                }
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(EngineError::type_error(
                        "SELECT * is not allowed in an aggregate query",
                    ));
                }
            }
        }
    }

    // Group rows, by reference. Grouping keys are compiled once and
    // evaluated per row.
    let rows = &relation.rows;
    let mut groups: BTreeMap<Vec<String>, Vec<RowRef<'_>>> = BTreeMap::new();
    if select.group_by.is_empty() {
        groups.insert(Vec::new(), (0..rows.len()).map(|i| rows.row(i)).collect());
    } else {
        let group_plans: Vec<SiteExpr<'_>> = select
            .group_by
            .iter()
            .map(|g| SiteExpr::new(db, mode, &relation.bindings, g))
            .collect();
        for i in 0..rows.len() {
            let row = rows.row(i);
            let scope = row.scope(&relation.bindings, outer);
            let mut key = Vec::with_capacity(group_plans.len());
            for g in &group_plans {
                let v = g.eval(&evaluator, &scope)?;
                let mut k = v.dedup_key();
                if optimized && faults.has(Fault::BadGroupByCollation) {
                    // Injected fault: text grouping keys compare
                    // case-insensitively.
                    k = k.to_lowercase();
                }
                key.push(k);
            }
            groups.entry(key).or_default().push(row);
        }
    }

    // `SELECT COUNT(*) FROM t` fast path answered from stale statistics.
    if optimized && faults.has(Fault::BadStaleCountStatistics) {
        if let Some(stale) = stale_count_shortcut(db, select) {
            return Ok(Produced {
                columns: vec![output_name(&select.projections[0], 0).unwrap_or_default()],
                rows: vec![(vec![Value::Integer(stale as i64)], Vec::new())],
            });
        }
    }

    let (columns, sources) = expand_projections(select, &relation.bindings)?;

    // Per-statement plans shared by every group: aggregate arguments, the
    // HAVING predicate, projection expressions and ORDER BY keys.
    let agg_plans: Vec<AggPlan<'_>> = collect_aggregate_exprs(select)
        .into_iter()
        .map(|agg| AggPlan::new(db, mode, &relation.bindings, agg))
        .collect::<EngineResult<_>>()?;
    let having_plan = select
        .having
        .as_ref()
        .map(|h| SiteExpr::new(db, mode, &relation.bindings, h));
    let proj_plans = projection_plans(db, mode, &relation.bindings, sources);
    let order_plan = OrderPlan::new(db, select, mode, &relation.bindings, &columns);

    let mut rows = Vec::new();
    for (_, group_rows) in groups {
        // Aggregate values for this group.
        let mut agg_values: BTreeMap<String, Value> = BTreeMap::new();
        for plan in &agg_plans {
            let v = compute_aggregate(
                db,
                mode,
                &evaluator,
                plan,
                &relation.bindings,
                &group_rows,
                outer,
            )?;
            agg_values.insert(plan.key.clone(), v);
        }
        // An empty group's representative reads every column as NULL.
        let representative = group_rows.first().copied().unwrap_or(RowRef::EMPTY);
        let scope = representative.scope(&relation.bindings, outer);
        let group_evaluator = Evaluator::with_aggregates(db, mode, Some(&agg_values));
        // HAVING filter.
        if let Some(having) = &having_plan {
            if !having.eval_truth(&group_evaluator, &scope)?.is_true() {
                continue;
            }
        }
        let out_row = project_row(&group_evaluator, &proj_plans, scope)?;
        let order_keys = order_plan.keys(&group_evaluator, &scope, &out_row)?;
        rows.push((out_row, order_keys));
    }
    Ok(Produced { columns, rows })
}

/// Detects the `SELECT COUNT(*) FROM <single table>` shape and returns the
/// stale statistics count if statistics exist.
fn stale_count_shortcut(db: &Database, select: &Select) -> Option<usize> {
    if select.where_clause.is_some()
        || !select.group_by.is_empty()
        || select.having.is_some()
        || select.projections.len() != 1
        || select.from.len() != 1
        || !select.from[0].joins.is_empty()
    {
        return None;
    }
    let is_count_star = matches!(
        &select.projections[0],
        SelectItem::Expr {
            expr: Expr::Aggregate {
                func: AggregateFunction::Count,
                arg: None,
                ..
            },
            ..
        }
    );
    if !is_count_star {
        return None;
    }
    match &select.from[0].relation {
        TableFactor::Table { name, .. } => db.stats(name).map(|s| s.row_count),
        TableFactor::Derived { .. } => None,
    }
}

// ---------------------------------------------------------------- sorting ----

/// Per-statement plan for a row's ORDER BY keys. Ordinal and output-column
/// references are resolved to output positions once; everything else is a
/// compiled expression evaluated against the input scope — the tree walker
/// re-ran this whole resolution (and built a fresh evaluator) per row.
struct OrderPlan<'e> {
    items: Vec<OrderKeySource<'e>>,
}

enum OrderKeySource<'e> {
    /// The key is a copy of an output column.
    Output(usize),
    /// The key is computed from the input row.
    Eval(SiteExpr<'e>),
}

impl<'e> OrderPlan<'e> {
    fn new(
        db: &Database,
        select: &'e Select,
        mode: ExecutionMode,
        bindings: &[RelationBinding],
        columns: &[String],
    ) -> OrderPlan<'e> {
        if select.order_by.is_empty() || select.set_op.is_some() {
            return OrderPlan { items: Vec::new() };
        }
        let items = select
            .order_by
            .iter()
            .map(|item| match &item.expr {
                Expr::Literal(Value::Integer(n)) if *n >= 1 && (*n as usize) <= columns.len() => {
                    OrderKeySource::Output((*n - 1) as usize)
                }
                Expr::Column(c) if c.table.is_none() => {
                    match columns
                        .iter()
                        .position(|name| name.eq_ignore_ascii_case(&c.column))
                    {
                        Some(i) => OrderKeySource::Output(i),
                        None => OrderKeySource::Eval(SiteExpr::new(db, mode, bindings, &item.expr)),
                    }
                }
                _ => OrderKeySource::Eval(SiteExpr::new(db, mode, bindings, &item.expr)),
            })
            .collect();
        OrderPlan { items }
    }

    fn keys(
        &self,
        evaluator: &Evaluator<'_>,
        scope: &Scope<'_>,
        out_row: &[Value],
    ) -> EngineResult<Vec<Value>> {
        let mut keys = Vec::with_capacity(self.items.len());
        for item in &self.items {
            keys.push(match item {
                OrderKeySource::Output(i) => out_row[*i].clone(),
                OrderKeySource::Eval(plan) => plan.eval(evaluator, scope)?,
            });
        }
        Ok(keys)
    }
}

fn sort_rows(db: &Database, select: &Select, produced: &mut Produced) -> EngineResult<()> {
    // When keys were not computed per row (set operations), resolve them
    // from the output row by ordinal or column name.
    if produced
        .rows
        .iter()
        .any(|(_, k)| k.len() != select.order_by.len())
    {
        let columns = produced.columns.clone();
        for (row, keys) in &mut produced.rows {
            keys.clear();
            for item in &select.order_by {
                let v = match &item.expr {
                    Expr::Literal(Value::Integer(n)) if *n >= 1 && (*n as usize) <= row.len() => {
                        row[(*n - 1) as usize].clone()
                    }
                    Expr::Column(c) if c.table.is_none() => {
                        match columns
                            .iter()
                            .position(|name| name.eq_ignore_ascii_case(&c.column))
                        {
                            Some(i) => row[i].clone(),
                            None => {
                                return Err(EngineError::catalog(format!(
                                    "ORDER BY column {} not in result set",
                                    c.column
                                )))
                            }
                        }
                    }
                    _ => return Err(EngineError::unsupported(
                        "ORDER BY expression must reference an output column in a compound query",
                    )),
                };
                keys.push(v);
            }
        }
    }
    let _ = db;
    let directions: Vec<SortOrder> = select.order_by.iter().map(|o| o.order).collect();
    produced.rows.sort_by(|(_, a), (_, b)| {
        for (i, dir) in directions.iter().enumerate() {
            let av = a.get(i).unwrap_or(&Value::Null);
            let bv = b.get(i).unwrap_or(&Value::Null);
            let ord = av.total_cmp(bv);
            let ord = match dir {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

// ------------------------------------------------------------- set ops ----

/// A set of rows under the per-value dedup identity: two rows are one
/// member when they have the same length and each pair of their values is
/// [`Value::dedup_eq`]. Members are keyed by their 128-bit
/// [`row_fingerprint`] and compared in full on a hit, so distinct rows never
/// merge; unequal rows that share a fingerprint probe the next key.
#[derive(Default)]
struct RowSet<'r> {
    members: HashMap<u128, &'r [Value]>,
}

fn same_row(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.dedup_eq(y))
}

impl<'r> RowSet<'r> {
    /// An empty set with room for `members` rows.
    fn with_capacity(members: usize) -> RowSet<'r> {
        RowSet {
            members: HashMap::with_capacity(members),
        }
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    /// Empties the set, keeping its room.
    fn clear(&mut self) {
        self.members.clear();
    }

    /// Adds `row`; `false` when an equal row is already a member.
    fn insert(&mut self, row: &'r [Value]) -> bool {
        let mut key = row_fingerprint(row);
        loop {
            match self.members.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(row);
                    return true;
                }
                Entry::Occupied(member) if same_row(member.get(), row) => return false,
                Entry::Occupied(_) => key = key.wrapping_add(1),
            }
        }
    }

    fn contains(&self, row: &[Value]) -> bool {
        let mut key = row_fingerprint(row);
        while let Some(member) = self.members.get(&key) {
            if same_row(member, row) {
                return true;
            }
            key = key.wrapping_add(1);
        }
        false
    }
}

/// For each row in order, whether it is the first of its equal rows.
fn first_occurrences<'r>(rows: impl Iterator<Item = &'r [Value]>) -> Vec<bool> {
    let mut seen = RowSet::default();
    rows.map(|row| seen.insert(row)).collect()
}

/// Keeps the items whose mark is `true`.
fn retain_marked<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut keep = keep.iter();
    items.retain(|_| *keep.next().expect("one mark per item"));
}

fn combine_set_op(left: Produced, right: ResultSet, op: SetOperator, all: bool) -> Produced {
    let mut out: Vec<Row> = left.rows.into_iter().map(|(r, _)| r).collect();
    match op {
        SetOperator::Union => out.extend(right.rows),
        SetOperator::Intersect | SetOperator::Except => {
            let mut right_rows = RowSet::default();
            for row in &right.rows {
                right_rows.insert(row);
            }
            let wanted = op == SetOperator::Intersect;
            let keep: Vec<bool> = out
                .iter()
                .map(|row| right_rows.contains(row) == wanted)
                .collect();
            retain_marked(&mut out, &keep);
        }
    }
    if !all {
        let keep = first_occurrences(out.iter().map(Vec::as_slice));
        retain_marked(&mut out, &keep);
    }
    Produced {
        columns: left.columns,
        rows: out.into_iter().map(|r| (r, Vec::new())).collect(),
    }
}
