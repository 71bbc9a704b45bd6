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
use crate::error::{EngineError, EngineResult};
use crate::eval::{Evaluator, RelationBinding, Scope};
use crate::faults::Fault;
use crate::optimizer::optimize_select;
use crate::storage::{ColumnStats, Database, ResultSet, Row, TableStats};
use sql_ast::{
    AggregateFunction, BinaryOp, DataType, Expr, Insert, JoinType, Select, SelectItem, SetOperator,
    SortOrder, Statement, TableFactor, Value,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

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
    db.record_coverage(|cov| cov.statement(stmt.feature_name()));
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
                    for (i, _) in schema.columns.iter().enumerate() {
                        let mut distinct = BTreeSet::new();
                        let mut nulls = 0;
                        for row in rows.iter() {
                            match row.get(i) {
                                Some(Value::Null) | None => nulls += 1,
                                Some(v) => {
                                    distinct.insert(v.dedup_key());
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

/// A relation during query processing. Base-table scans *borrow* the
/// stored rows (the common case on the oracle hot path — a full scan with
/// no surviving WHERE clause never copies a row); joins, views and derived
/// tables own their materialised rows.
#[derive(Debug, Clone)]
struct Relation<'a> {
    bindings: Vec<RelationBinding>,
    rows: Cow<'a, [Row]>,
}

impl Relation<'_> {
    fn width(&self) -> usize {
        self.bindings.iter().map(|b| b.columns.len()).sum()
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

    // Resolve FROM into a single joined relation.
    let relation = build_from(db, select, mode, outer)?;

    // Filter (WHERE), possibly via an index access path.
    let filtered = apply_where(db, select, mode, relation, outer)?;

    // Aggregate or project.
    let mut produced = if is_aggregate_query(select) {
        aggregate_and_project(db, select, mode, &filtered, outer)?
    } else {
        project_rows(db, select, mode, &filtered, outer)?
    };

    // DISTINCT.
    if select.distinct {
        db.record_coverage(|cov| cov.plan_operator("distinct"));
        let mut seen = BTreeSet::new();
        produced.rows.retain(|(row, _)| {
            let key = row
                .iter()
                .map(Value::dedup_key)
                .collect::<Vec<_>>()
                .join("\u{1}");
            seen.insert(key)
        });
    }

    // Set operations.
    if let Some(set_op) = &select.set_op {
        db.record_coverage(|cov| cov.plan_operator("set_operation"));
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
        db.record_coverage(|cov| cov.plan_operator("sort"));
        sort_rows(db, select, &mut produced)?;
    }

    // LIMIT / OFFSET.
    let mut rows: Vec<Row> = produced.rows.into_iter().map(|(r, _)| r).collect();
    if let Some(offset) = select.offset {
        let offset = offset as usize;
        rows = rows.into_iter().skip(offset).collect();
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

fn build_from<'a>(
    db: &'a Database,
    select: &Select,
    mode: ExecutionMode,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation<'a>> {
    if select.from.is_empty() {
        return Ok(Relation {
            bindings: Vec::new(),
            rows: Cow::Owned(vec![Vec::new()]),
        });
    }
    let mut combined: Option<Relation<'a>> = None;
    for twj in &select.from {
        let mut current = resolve_factor(db, &twj.relation, mode, outer)?;
        for join in &twj.joins {
            let right = resolve_factor(db, &join.relation, mode, outer)?;
            current = join_relations(db, mode, current, right, join, outer)?;
        }
        combined = Some(match combined {
            None => current,
            Some(left) => {
                db.record_coverage(|cov| cov.plan_operator("cross_product"));
                cross_product(left, current)
            }
        });
    }
    Ok(combined.expect("non-empty FROM"))
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
                db.record_coverage(|cov| cov.plan_operator("view_expansion"));
                let mut query = view.query.clone();
                if db.config.faults.has(Fault::BadViewPredicateDrop) {
                    // Injected fault: the view's own filter is lost when the
                    // view is expanded into the outer query.
                    query.where_clause = None;
                }
                let rs = execute_select_in_scope(db, &query, mode, outer)?;
                let columns = if view.columns.is_empty() {
                    rs.columns.clone()
                } else {
                    view.columns.clone()
                };
                return Ok(Relation {
                    bindings: vec![RelationBinding::new(visible, columns)],
                    rows: Cow::Owned(rs.rows),
                });
            }
            let schema = db
                .catalog
                .table(name)
                .ok_or_else(|| EngineError::catalog(format!("no such table: {name}")))?;
            db.record_coverage(|cov| cov.plan_operator("seq_scan"));
            Ok(Relation {
                bindings: vec![RelationBinding::new(visible, schema.shared_column_names())],
                rows: Cow::Borrowed(db.rows(name)?),
            })
        }
        TableFactor::Derived { subquery, alias } => {
            db.record_coverage(|cov| cov.plan_operator("derived_table"));
            let rs = execute_select_in_scope(db, subquery, mode, outer)?;
            Ok(Relation {
                bindings: vec![RelationBinding::new(alias.clone(), rs.columns)],
                rows: Cow::Owned(rs.rows),
            })
        }
    }
}

fn cross_product<'a>(left: Relation<'_>, right: Relation<'_>) -> Relation<'a> {
    let mut bindings = left.bindings;
    bindings.extend(right.bindings);
    let mut rows = Vec::with_capacity(left.rows.len() * right.rows.len());
    for l in left.rows.iter() {
        for r in right.rows.iter() {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            rows.push(row);
        }
    }
    Relation {
        bindings,
        rows: Cow::Owned(rows),
    }
}

fn join_relations<'a>(
    db: &Database,
    mode: ExecutionMode,
    left: Relation<'_>,
    right: Relation<'_>,
    join: &sql_ast::Join,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation<'a>> {
    db.record_coverage(|cov| cov.plan_operator(join.join_type.feature_name()));
    let left_width = left.width();
    let right_width = right.width();
    let mut bindings = left.bindings.clone();
    bindings.extend(right.bindings.clone());

    // NATURAL JOIN: equality over common column names.
    let natural_condition: Option<Expr> = if join.join_type == JoinType::Natural {
        let left_cols: Vec<(String, String)> = left
            .bindings
            .iter()
            .flat_map(|b| b.columns.iter().map(move |c| (b.name.clone(), c.clone())))
            .collect();
        let right_cols: Vec<(String, String)> = right
            .bindings
            .iter()
            .flat_map(|b| b.columns.iter().map(move |c| (b.name.clone(), c.clone())))
            .collect();
        let mut cond: Option<Expr> = None;
        for (lt, lc) in &left_cols {
            for (rt, rc) in &right_cols {
                if lc.eq_ignore_ascii_case(rc) {
                    let eq = Expr::qualified_column(lt.clone(), lc.clone())
                        .eq(Expr::qualified_column(rt.clone(), rc.clone()));
                    cond = Some(match cond {
                        None => eq,
                        Some(c) => c.and(eq),
                    });
                }
            }
        }
        cond
    } else {
        None
    };

    let evaluator = Evaluator::new(db, mode);
    let condition: Option<&Expr> = match join.join_type {
        JoinType::Cross => None,
        JoinType::Natural => natural_condition.as_ref(),
        _ => join.on.as_ref(),
    };
    // The join condition is compiled once and evaluated per row pair.
    let condition: Option<SiteExpr<'_>> = condition.map(|c| SiteExpr::new(db, mode, &bindings, c));
    let condition = condition.as_ref();

    let mut rows: Vec<Row> = Vec::new();
    match join.join_type {
        JoinType::Cross => {
            for l in left.rows.iter() {
                for r in right.rows.iter() {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    rows.push(row);
                }
            }
        }
        JoinType::Inner | JoinType::Natural => {
            for l in left.rows.iter() {
                for r in right.rows.iter() {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    if join_condition_holds(&evaluator, condition, &bindings, &row, outer)? {
                        rows.push(row);
                    }
                }
            }
        }
        JoinType::Left | JoinType::Full => {
            let mut matched_right = vec![false; right.rows.len()];
            for l in left.rows.iter() {
                let mut matched = false;
                for (ri, r) in right.rows.iter().enumerate() {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    if join_condition_holds(&evaluator, condition, &bindings, &row, outer)? {
                        matched = true;
                        matched_right[ri] = true;
                        rows.push(row);
                    }
                }
                if !matched {
                    let mut row = l.clone();
                    row.extend(std::iter::repeat_n(Value::Null, right_width));
                    rows.push(row);
                }
            }
            if join.join_type == JoinType::Full {
                for (ri, r) in right.rows.iter().enumerate() {
                    if !matched_right[ri] {
                        let mut row: Row = std::iter::repeat_n(Value::Null, left_width).collect();
                        row.extend(r.iter().cloned());
                        rows.push(row);
                    }
                }
            }
        }
        JoinType::Right => {
            for r in right.rows.iter() {
                let mut matched = false;
                for l in left.rows.iter() {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    if join_condition_holds(&evaluator, condition, &bindings, &row, outer)? {
                        matched = true;
                        rows.push(row);
                    }
                }
                if !matched {
                    let mut row: Row = std::iter::repeat_n(Value::Null, left_width).collect();
                    row.extend(r.iter().cloned());
                    rows.push(row);
                }
            }
        }
    }
    Ok(Relation {
        bindings,
        rows: Cow::Owned(rows),
    })
}

fn join_condition_holds(
    evaluator: &Evaluator<'_>,
    condition: Option<&SiteExpr<'_>>,
    bindings: &[RelationBinding],
    row: &[Value],
    outer: Option<&Scope<'_>>,
) -> EngineResult<bool> {
    match condition {
        None => Ok(true),
        Some(cond) => {
            let scope = Scope {
                relations: bindings,
                row,
                parent: outer,
            };
            Ok(cond.eval_truth(evaluator, &scope)?.is_true())
        }
    }
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
    db.record_coverage(|cov| cov.plan_operator("filter"));

    // Index access path: optimized mode, single base table, equality
    // conjunct on an indexed column.
    let mut candidate_rows: Option<Vec<Row>> = None;
    if mode == ExecutionMode::Optimized && relation.bindings.len() == 1 {
        if let Some((index, col_idx, literal)) = find_index_access(db, select, &relation, pred) {
            db.record_coverage(|cov| cov.plan_operator("index_lookup"));
            let evaluator = Evaluator::new(db, mode);
            let faults = &db.config.faults;
            let mut rows = Vec::new();
            for row in relation.rows.iter() {
                let value = row.get(col_idx).unwrap_or(&Value::Null);
                let matches = if faults.has(Fault::BadIndexLookupCoercion) {
                    // Injected fault: raw key comparison, skipping the
                    // coercion a full scan would perform.
                    value.dedup_eq(&literal) && value.data_type() == literal.data_type()
                } else {
                    evaluator.equals(value, &literal)?.is_true()
                };
                if !matches {
                    continue;
                }
                if faults.has(Fault::BadPartialIndexScan) {
                    if let Some(ipred) = &index.predicate {
                        // Injected fault: rows not covered by the partial
                        // index are silently dropped.
                        let scope = Scope {
                            relations: &relation.bindings,
                            row,
                            parent: outer,
                        };
                        if !evaluator
                            .eval_truth(ipred, &scope)
                            .unwrap_or(sql_ast::TruthValue::False)
                            .is_true()
                        {
                            continue;
                        }
                    }
                }
                rows.push(row.clone());
                if faults.has(Fault::BadUniqueIndexShortcut) && index.unique {
                    // Injected fault: a unique index lookup stops after the
                    // first match even when coercion makes more rows match.
                    break;
                }
            }
            candidate_rows = Some(rows);
        }
    }

    let rows_in = match candidate_rows {
        Some(rows) => Cow::Owned(rows),
        None => relation.rows,
    };
    let evaluator = Evaluator::new(db, mode);
    // The predicate is compiled once per statement and run per row.
    let plan = SiteExpr::new(db, mode, &relation.bindings, pred);
    // Owned rows are filtered by move; borrowed rows clone survivors only.
    let rows: Vec<Row> = match rows_in {
        Cow::Owned(owned) => {
            let mut rows = Vec::new();
            for row in owned {
                let scope = Scope {
                    relations: &relation.bindings,
                    row: &row,
                    parent: outer,
                };
                if plan.eval_truth(&evaluator, &scope)?.is_true() {
                    rows.push(row);
                }
            }
            rows
        }
        Cow::Borrowed(borrowed) => {
            let mut rows = Vec::new();
            for row in borrowed {
                let scope = Scope {
                    relations: &relation.bindings,
                    row,
                    parent: outer,
                };
                if plan.eval_truth(&evaluator, &scope)?.is_true() {
                    rows.push(row.clone());
                }
            }
            rows
        }
    };
    Ok(Relation {
        bindings: relation.bindings,
        rows: Cow::Owned(rows),
    })
}

/// Finds an applicable index access path: returns the index, the column's
/// flat position in the relation and the literal being matched.
fn find_index_access(
    db: &Database,
    select: &Select,
    relation: &Relation<'_>,
    pred: &Expr,
) -> Option<(IndexDef, usize, Value)> {
    // Only simple single-table scans (not views/derived tables) qualify.
    let factor = select.from.first()?.relation.clone();
    let table_name = match factor {
        TableFactor::Table { name, .. } if db.catalog.table(&name).is_some() => name,
        _ => return None,
    };
    let binding = relation.bindings.first()?;
    let allow_partial = db.config.faults.has(Fault::BadPartialIndexScan);
    for conjunct in conjuncts(pred) {
        if let Expr::Binary { left, op, right } = conjunct {
            if *op != BinaryOp::Eq {
                continue;
            }
            let (col, literal) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => (c, v.clone()),
                (Expr::Literal(v), Expr::Column(c)) => (c, v.clone()),
                _ => continue,
            };
            if let Some(table) = &col.table {
                if !table.eq_ignore_ascii_case(&binding.name) {
                    continue;
                }
            }
            for index in db.catalog.indexes_on(&table_name) {
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
                        return Some((index.clone(), pos, literal));
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

fn expand_projections(
    select: &Select,
    bindings: &[RelationBinding],
) -> EngineResult<Vec<(String, ProjectionSource)>> {
    let mut out = Vec::new();
    for (index, item) in select.projections.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                let mut offset = 0;
                for b in bindings {
                    for (i, col) in b.columns.iter().enumerate() {
                        out.push((col.clone(), ProjectionSource::Position(offset + i)));
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
                            out.push((col.clone(), ProjectionSource::Position(offset + i)));
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
                out.push((
                    output_name(item, index).unwrap_or_default(),
                    ProjectionSource::Expr(expr.clone()),
                ));
            }
        }
    }
    Ok(out)
}

enum ProjectionSource {
    Position(usize),
    Expr(Expr),
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
    projections: &'e [(String, ProjectionSource)],
) -> Vec<ProjPlan<'e>> {
    let compiled = db.config.eval == crate::config::EvalStrategy::Compiled;
    projections
        .iter()
        .map(|(_, source)| match source {
            ProjectionSource::Position(i) => ProjPlan::Position(*i),
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
    relation: &Relation<'_>,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Produced> {
    db.record_coverage(|cov| cov.plan_operator("projection"));
    let projections = expand_projections(select, &relation.bindings)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();
    let evaluator = Evaluator::new(db, mode);
    // Per-statement plans: projection expressions and ORDER BY keys are
    // compiled once, then run per row.
    let plans = projection_plans(db, mode, &relation.bindings, &projections);
    let order_plan = OrderPlan::new(db, select, mode, &relation.bindings, &columns);
    let mut rows = Vec::with_capacity(relation.rows.len());
    for row in relation.rows.iter() {
        let scope = Scope {
            relations: &relation.bindings,
            row,
            parent: outer,
        };
        let mut out_row = Vec::with_capacity(plans.len());
        for plan in &plans {
            let v = match plan {
                ProjPlan::Position(i) => row.get(*i).cloned().unwrap_or(Value::Null),
                ProjPlan::Expr(e) => e.eval(&evaluator, &scope)?,
            };
            out_row.push(v);
        }
        let order_keys = order_plan.keys(&evaluator, &scope, &out_row)?;
        rows.push((out_row, order_keys));
    }
    Ok(Produced { columns, rows })
}

// ----------------------------------------------------------- aggregation ----

fn collect_aggregate_exprs(select: &Select) -> Vec<Expr> {
    fn walk(expr: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Aggregate { .. } = expr {
            out.push(expr.clone());
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
    group_rows: &[Row],
    outer: Option<&Scope<'_>>,
) -> EngineResult<Value> {
    let func = plan.func;
    db.record_coverage(|cov| {
        cov.plan_operator("aggregate");
        cov.function(func.name());
    });
    let faults = &db.config.faults;
    let optimized = mode == ExecutionMode::Optimized;

    // Evaluate the argument per row (or count rows for COUNT(*)).
    let mut values: Vec<Value> = Vec::new();
    for row in group_rows {
        let scope = Scope {
            relations: bindings,
            row,
            parent: outer,
        };
        match &plan.arg {
            None => values.push(Value::Integer(1)),
            Some(a) => values.push(a.eval(evaluator, &scope)?),
        }
    }
    if plan.distinct {
        let mut seen = BTreeSet::new();
        values.retain(|v| seen.insert(v.dedup_key()));
    }
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    Ok(match func {
        AggregateFunction::Count => {
            if plan.arg.is_none() {
                Value::Integer(group_rows.len() as i64)
            } else if optimized && faults.has(Fault::BadCountNulls) {
                // Injected fault: COUNT(col) counts NULLs.
                Value::Integer(values.len() as i64)
            } else {
                Value::Integer(non_null.len() as i64)
            }
        }
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
    db.record_coverage(|cov| cov.plan_operator("group_by"));
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

    // Group rows. Grouping keys are compiled once and evaluated per row.
    let mut groups: BTreeMap<Vec<String>, Vec<Row>> = BTreeMap::new();
    if select.group_by.is_empty() {
        groups.insert(Vec::new(), relation.rows.to_vec());
    } else {
        let group_plans: Vec<SiteExpr<'_>> = select
            .group_by
            .iter()
            .map(|g| SiteExpr::new(db, mode, &relation.bindings, g))
            .collect();
        for row in relation.rows.iter() {
            let scope = Scope {
                relations: &relation.bindings,
                row,
                parent: outer,
            };
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
            groups.entry(key).or_default().push(row.clone());
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

    let aggregate_exprs = collect_aggregate_exprs(select);
    let projections = expand_projections(select, &relation.bindings)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();
    let empty_row: Row = vec![Value::Null; relation.width()];

    // Per-statement plans shared by every group: aggregate arguments, the
    // HAVING predicate, projection expressions and ORDER BY keys.
    let agg_plans: Vec<AggPlan<'_>> = aggregate_exprs
        .iter()
        .map(|agg| AggPlan::new(db, mode, &relation.bindings, agg))
        .collect::<EngineResult<_>>()?;
    let having_plan = select
        .having
        .as_ref()
        .map(|h| SiteExpr::new(db, mode, &relation.bindings, h));
    let proj_plans = projection_plans(db, mode, &relation.bindings, &projections);
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
        let representative = group_rows
            .first()
            .cloned()
            .unwrap_or_else(|| empty_row.clone());
        let scope = Scope {
            relations: &relation.bindings,
            row: &representative,
            parent: outer,
        };
        let group_evaluator = Evaluator::with_aggregates(db, mode, Some(&agg_values));
        // HAVING filter.
        if let Some(having) = &having_plan {
            if !having.eval_truth(&group_evaluator, &scope)?.is_true() {
                continue;
            }
        }
        let mut out_row = Vec::with_capacity(proj_plans.len());
        for plan in &proj_plans {
            let v = match plan {
                ProjPlan::Position(i) => representative.get(*i).cloned().unwrap_or(Value::Null),
                ProjPlan::Expr(e) => e.eval(&group_evaluator, &scope)?,
            };
            out_row.push(v);
        }
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
            let av = a.get(i).cloned().unwrap_or(Value::Null);
            let bv = b.get(i).cloned().unwrap_or(Value::Null);
            let ord = av.total_cmp(&bv);
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

fn combine_set_op(left: Produced, right: ResultSet, op: SetOperator, all: bool) -> Produced {
    let key = |row: &Row| -> String {
        row.iter()
            .map(Value::dedup_key)
            .collect::<Vec<_>>()
            .join("\u{1}")
    };
    let left_rows: Vec<Row> = left.rows.into_iter().map(|(r, _)| r).collect();
    let mut out: Vec<Row> = Vec::new();
    match op {
        SetOperator::Union => {
            out.extend(left_rows);
            out.extend(right.rows);
            if !all {
                let mut seen = BTreeSet::new();
                out.retain(|r| seen.insert(key(r)));
            }
        }
        SetOperator::Intersect => {
            let right_keys: BTreeSet<String> = right.rows.iter().map(&key).collect();
            out = left_rows
                .into_iter()
                .filter(|r| right_keys.contains(&key(r)))
                .collect();
            if !all {
                let mut seen = BTreeSet::new();
                out.retain(|r| seen.insert(key(r)));
            }
        }
        SetOperator::Except => {
            let right_keys: BTreeSet<String> = right.rows.iter().map(&key).collect();
            out = left_rows
                .into_iter()
                .filter(|r| !right_keys.contains(&key(r)))
                .collect();
            if !all {
                let mut seen = BTreeSet::new();
                out.retain(|r| seen.insert(key(r)));
            }
        }
    }
    Produced {
        columns: left.columns,
        rows: out.into_iter().map(|r| (r, Vec::new())).collect(),
    }
}
