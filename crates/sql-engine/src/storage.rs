//! Row storage, table statistics and the [`Database`] instance type.
//!
//! Storage is **copy-on-write versioned**: each table's rows live behind an
//! `Arc<Vec<Row>>` and its statistics behind an `Arc<TableStats>`, and each
//! of the two table maps sits behind one more `Arc` (a `TableMap`). Cloning
//! a [`Database`] — which is how a session snapshot, a transaction frame or
//! an [`crate::Engine`] clone is taken — therefore copies one pointer per
//! map, never a key or row data; the first write through a shared map
//! copies its keys and one pointer per table. The first mutation of a
//! table through [`Database::rows_mut`] triggers the one deep clone
//! ([`Arc::make_mut`]) that detaches the mutated version from every
//! snapshot still holding the old `Arc`; unwritten tables are shared for
//! the lifetime of the snapshot.
//! [`Database::cow_clones`] counts those detach events, which is how the
//! campaign reports CoW effectiveness (tables snapshotted vs. tables
//! actually cloned).

use crate::catalog::Catalog;
use crate::config::EngineConfig;
use crate::coverage::CoverageTracker;
use crate::error::{EngineError, EngineResult};
use sql_ast::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A stored row: one [`Value`] per column, in schema order.
pub type Row = Vec<Value>;

/// A result set returned by a query: column names plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// A canonical multiset fingerprint of the rows (order-insensitive).
    /// Two result sets with the same fingerprint contain the same rows with
    /// the same multiplicities — this is how the oracles compare results.
    ///
    /// Rows collapse to allocation-free 128-bit hashes of their canonical
    /// dedup identity (see [`sql_ast::row_fingerprint`]); string rendering
    /// is reserved for the bug-report path.
    pub fn multiset_fingerprint(&self) -> Vec<u128> {
        let mut keys: Vec<u128> = self
            .rows
            .iter()
            .map(|row| sql_ast::row_fingerprint(row))
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Per-column statistics collected by `ANALYZE`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Number of distinct non-`NULL` values.
    pub distinct: usize,
    /// Number of `NULL`s.
    pub nulls: usize,
}

/// Per-table statistics collected by `ANALYZE`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Row count at the time of `ANALYZE`.
    pub row_count: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// A table-keyed map whose clones share one `Arc`. Cloning it — for a
/// session workspace, a transaction frame or a checkpoint — is a pointer
/// bump; the first write through a shared clone detaches the map (its keys
/// and one version pointer per table) exactly once. An empty map holds no
/// `Arc`, so a fresh database allocates nothing for it.
#[derive(Debug)]
pub(crate) struct TableMap<V>(Option<Arc<BTreeMap<String, V>>>);

impl<V> Default for TableMap<V> {
    fn default() -> TableMap<V> {
        TableMap(None)
    }
}

impl<V> Clone for TableMap<V> {
    fn clone(&self) -> TableMap<V> {
        TableMap(self.0.clone())
    }
}

impl<V: Clone> TableMap<V> {
    pub(crate) fn get(&self, table: &str) -> Option<&V> {
        self.0.as_deref()?.get(table)
    }

    pub(crate) fn len(&self) -> usize {
        self.0.as_deref().map_or(0, BTreeMap::len)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&String, &V)> {
        self.0.iter().flat_map(|map| map.iter())
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &String> {
        self.iter().map(|(table, _)| table)
    }

    /// The map, detached from every other clone.
    fn make_mut(&mut self) -> &mut BTreeMap<String, V> {
        Arc::make_mut(self.0.get_or_insert_with(Arc::default))
    }

    pub(crate) fn get_mut(&mut self, table: &str) -> Option<&mut V> {
        self.get(table)?;
        self.make_mut().get_mut(table)
    }

    pub(crate) fn insert(&mut self, table: String, value: V) {
        self.make_mut().insert(table, value);
    }

    /// Removes `table`, detaching the map only when it holds the table.
    pub(crate) fn remove(&mut self, table: &str) {
        if self.get(table).is_some() {
            self.make_mut().remove(table);
        }
    }
}

/// An in-memory database instance: catalog, row storage, statistics,
/// execution configuration and coverage accounting.
///
/// # Examples
///
/// ```
/// use sql_engine::{Database, EngineConfig};
///
/// let mut db = Database::new(EngineConfig::dynamic());
/// db.execute_sql("CREATE TABLE t0 (c0 INTEGER)").unwrap();
/// db.execute_sql("INSERT INTO t0 (c0) VALUES (1), (2)").unwrap();
/// let rs = db.query_sql("SELECT c0 FROM t0 WHERE c0 > 1").unwrap();
/// assert_eq!(rs.row_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// The schema catalog.
    pub catalog: Catalog,
    /// Execution behaviour (typing discipline, injected faults).
    pub config: EngineConfig,
    pub(crate) data: TableMap<Arc<Vec<Row>>>,
    pub(crate) stats: TableMap<Arc<TableStats>>,
    /// Open-transaction state: empty in autocommit, one frame per
    /// `BEGIN`/`SAVEPOINT` otherwise (see [`crate::txn`]).
    pub(crate) txn: crate::txn::TxnStack,
    /// Number of copy-on-write table detaches performed by this instance
    /// (shared `Arc` deep-cloned on first mutation).
    cow_clones: Cell<u64>,
    coverage: RefCell<CoverageTracker>,
    plans: crate::compile::PlanCache,
}

impl Database {
    /// Creates an empty database with the given behaviour configuration.
    pub fn new(config: EngineConfig) -> Database {
        Database {
            config,
            ..Database::default()
        }
    }

    fn key(name: &str) -> std::borrow::Cow<'_, str> {
        crate::catalog::lowercase_key(name)
    }

    /// Registers storage for a newly created table.
    pub(crate) fn create_storage(&mut self, name: &str) {
        self.data
            .insert(Self::key(name).into_owned(), Arc::new(Vec::new()));
    }

    /// Removes storage (and stats) for a dropped table.
    pub(crate) fn drop_storage(&mut self, name: &str) {
        self.data.remove(Self::key(name).as_ref());
        self.stats.remove(Self::key(name).as_ref());
    }

    /// Rows of a stored table.
    ///
    /// # Errors
    ///
    /// Fails when the table has no storage (unknown table).
    pub fn rows(&self, name: &str) -> EngineResult<&Vec<Row>> {
        self.data
            .get(Self::key(name).as_ref())
            .map(Arc::as_ref)
            .ok_or_else(|| EngineError::catalog(format!("no such table: {name}")))
    }

    /// The shared version handle of a stored table's rows (a pointer bump,
    /// never a row copy).
    ///
    /// # Errors
    ///
    /// Fails when the table has no storage (unknown table).
    pub fn shared_rows(&self, name: &str) -> EngineResult<Arc<Vec<Row>>> {
        self.data
            .get(Self::key(name).as_ref())
            .cloned()
            .ok_or_else(|| EngineError::catalog(format!("no such table: {name}")))
    }

    /// Mutable rows of a stored table. The version is detached
    /// copy-on-write: a version still shared with a snapshot (an open
    /// transaction frame, a session's committed state, an engine clone) is
    /// deep-cloned exactly once, a private one is mutated in place.
    ///
    /// # Errors
    ///
    /// Fails when the table has no storage (unknown table).
    pub fn rows_mut(&mut self, name: &str) -> EngineResult<&mut Vec<Row>> {
        let version = self
            .data
            .get_mut(Self::key(name).as_ref())
            .ok_or_else(|| EngineError::catalog(format!("no such table: {name}")))?;
        if Arc::strong_count(version) > 1 {
            self.cow_clones.set(self.cow_clones.get() + 1);
        }
        Ok(Arc::make_mut(version))
    }

    /// Statistics recorded for a table by the last `ANALYZE`, if any.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(Self::key(name).as_ref()).map(Arc::as_ref)
    }

    /// Records statistics for a table.
    pub(crate) fn set_stats(&mut self, name: &str, stats: TableStats) {
        self.stats
            .insert(Self::key(name).into_owned(), Arc::new(stats));
    }

    /// Total number of stored rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.data.iter().map(|(_, rows)| rows.len()).sum()
    }

    /// Number of copy-on-write detaches this instance has performed: the
    /// tables whose shared version actually had to be deep-cloned before a
    /// mutation. Snapshotted-but-unwritten tables never appear here.
    pub fn cow_clones(&self) -> u64 {
        self.cow_clones.get()
    }

    /// Resets the copy-on-write detach counter (used when a fresh snapshot
    /// workspace starts accounting from zero).
    pub(crate) fn reset_cow_clones(&self) {
        self.cow_clones.set(0);
    }

    /// The compiled-plan cache for this database instance.
    pub(crate) fn plan_cache(&self) -> &crate::compile::PlanCache {
        &self.plans
    }

    /// Records coverage information. Execution code calls this; it is
    /// interior-mutable because queries only hold a shared borrow of the
    /// database.
    pub fn record_coverage(&self, f: impl FnOnce(&mut CoverageTracker)) {
        f(&mut self.coverage.borrow_mut());
    }

    /// A snapshot of the coverage accumulated so far.
    pub fn coverage_snapshot(&self) -> CoverageTracker {
        *self.coverage.borrow()
    }

    /// Resets coverage accounting (used between experiment runs). Also
    /// drops cached compiled plans: a plan records each coverage point only
    /// on its first evaluation, so plans from before the reset would never
    /// re-record their features.
    pub fn reset_coverage(&self) {
        *self.coverage.borrow_mut() = CoverageTracker::new();
        self.plans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_set_fingerprint_is_order_insensitive() {
        let a = ResultSet {
            columns: vec!["c0".into()],
            rows: vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
        };
        let b = ResultSet {
            columns: vec!["c0".into()],
            rows: vec![vec![Value::Integer(2)], vec![Value::Integer(1)]],
        };
        assert_eq!(a.multiset_fingerprint(), b.multiset_fingerprint());
    }

    #[test]
    fn result_set_fingerprint_respects_multiplicity() {
        let a = ResultSet {
            columns: vec!["c0".into()],
            rows: vec![vec![Value::Integer(1)], vec![Value::Integer(1)]],
        };
        let b = ResultSet {
            columns: vec!["c0".into()],
            rows: vec![vec![Value::Integer(1)]],
        };
        assert_ne!(a.multiset_fingerprint(), b.multiset_fingerprint());
    }

    #[test]
    fn storage_is_case_insensitive() {
        let mut db = Database::new(EngineConfig::dynamic());
        db.create_storage("T0");
        assert!(db.rows("t0").is_ok());
        db.rows_mut("t0").unwrap().push(vec![Value::Integer(1)]);
        assert_eq!(db.total_rows(), 1);
        db.drop_storage("t0");
        assert!(db.rows("t0").is_err());
    }
}
