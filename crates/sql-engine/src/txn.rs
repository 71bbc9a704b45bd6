//! Snapshot-isolated transactions over the in-memory storage.
//!
//! The engine executes in autocommit by default; `BEGIN` opens an explicit
//! transaction that buffers undo information until `COMMIT` discards it or
//! `ROLLBACK` applies it. The design is a classic **per-table undo log**
//! layered as a stack of frames:
//!
//! * `BEGIN` pushes the bottom frame; `SAVEPOINT <name>` pushes another
//!   frame on top of it.
//! * Each frame snapshots the catalog eagerly (it is small — a handful of
//!   table/view/index definitions) and captures row/statistics **pre-images
//!   lazily**: the first time a table is mutated under a frame, that
//!   frame records the table's rows and stats as of frame open
//!   ([`Database::txn_touch`], called from every storage mutation point).
//!   Tables the transaction never touches are never copied.
//! * `ROLLBACK TO <name>` pops frames above the savepoint (applying their
//!   undo), then applies and clears the savepoint frame's own undo — the
//!   savepoint survives, exactly like SQL says.
//! * `ROLLBACK` applies every frame's undo top-to-bottom and restores the
//!   bottom frame's catalog; `COMMIT` simply drops the stack.
//!
//! All three execution tiers observe identical transactional behaviour for
//! free: the text path parses to the same [`sql_ast::Statement`] variants
//! the AST fast path receives, and the compiled-expression tier only caches
//! plans keyed by structure — rolling row data back never invalidates a
//! plan.
//!
//! Three injected transaction faults live here (see [`crate::faults`]):
//! `Fault::TxnLostRollback` (ROLLBACK keeps the writes), `Fault::TxnPhantomCommit`
//! (COMMIT discards them) and `Fault::TxnSavepointCollapse` (ROLLBACK TO rewinds
//! to transaction start). They are the ground truth the rollback oracle is
//! measured against.

use crate::catalog::{lowercase_key, Catalog};
use crate::error::{EngineError, EngineResult};
use crate::faults::Fault;
use crate::storage::{Database, Row, TableStats};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pre-image of one table at the moment a frame first touched it. With
/// copy-on-write storage this is a pair of shared version pointers: taking
/// a pre-image bumps two refcounts, and applying undo swaps the pointers
/// back — row data is never copied by the undo log itself.
#[derive(Debug, Clone)]
struct TableImage {
    rows: Arc<Vec<Row>>,
    stats: Option<Arc<TableStats>>,
}

/// One transaction frame: the `BEGIN` frame or a savepoint frame.
#[derive(Debug, Clone)]
struct TxnFrame {
    /// `None` for the `BEGIN` frame, the (lowercased) savepoint name
    /// otherwise.
    savepoint: Option<String>,
    /// Catalog as of frame open (restored on rollback; DDL is rare inside
    /// transactions, so an eager snapshot of the small catalog beats
    /// per-object undo bookkeeping).
    catalog: Catalog,
    /// Lazily captured per-table pre-images, keyed by lowercased table
    /// name. `None` means the table had no storage at frame open (it was
    /// created inside the frame and must be dropped on rollback).
    undo: BTreeMap<String, Option<TableImage>>,
}

impl TxnFrame {
    fn open(catalog: &Catalog, savepoint: Option<String>) -> TxnFrame {
        TxnFrame {
            savepoint,
            catalog: catalog.clone(),
            undo: BTreeMap::new(),
        }
    }
}

/// The transaction state of a [`Database`]: empty in autocommit, one frame
/// per `BEGIN`/`SAVEPOINT` otherwise.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnStack {
    frames: Vec<TxnFrame>,
}

impl Database {
    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        !self.txn.frames.is_empty()
    }

    /// Depth of the savepoint stack (0 outside a transaction, 1 right after
    /// `BEGIN`, +1 per active savepoint). Exposed for tests and tooling.
    pub fn transaction_depth(&self) -> usize {
        self.txn.frames.len()
    }

    /// `BEGIN`.
    ///
    /// # Errors
    ///
    /// Fails when a transaction is already open (no nested transactions).
    pub(crate) fn txn_begin(&mut self) -> EngineResult<()> {
        if self.in_transaction() {
            return Err(EngineError::runtime(
                "cannot start a transaction within a transaction",
            ));
        }
        self.txn.frames.push(TxnFrame::open(&self.catalog, None));
        Ok(())
    }

    /// `COMMIT`. A no-op outside a transaction — autocommit-off dialects
    /// send `COMMIT` after every DML statement and expect it to succeed.
    pub(crate) fn txn_commit(&mut self) -> EngineResult<()> {
        if !self.in_transaction() {
            return Ok(());
        }
        if self.config.faults.has(Fault::TxnPhantomCommit) {
            // Injected fault: the commit path runs the abort path's undo
            // application, so the transaction's writes silently vanish.
            self.apply_undo_all();
        }
        self.txn.frames.clear();
        Ok(())
    }

    /// `ROLLBACK`.
    ///
    /// # Errors
    ///
    /// Fails when no transaction is open.
    pub(crate) fn txn_rollback(&mut self) -> EngineResult<()> {
        if !self.in_transaction() {
            return Err(EngineError::runtime("no transaction is active"));
        }
        if !self.config.faults.has(Fault::TxnLostRollback) {
            self.apply_undo_all();
        }
        // Injected fault `Fault::TxnLostRollback`: the undo log is discarded
        // without being applied, so the writes stay — a silent commit.
        self.txn.frames.clear();
        Ok(())
    }

    /// `SAVEPOINT <name>`.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction.
    pub(crate) fn txn_savepoint(&mut self, name: &str) -> EngineResult<()> {
        if !self.in_transaction() {
            return Err(EngineError::runtime(
                "SAVEPOINT can only be used inside a transaction",
            ));
        }
        let key = lowercase_key(name).into_owned();
        self.txn
            .frames
            .push(TxnFrame::open(&self.catalog, Some(key)));
        Ok(())
    }

    /// `ROLLBACK TO <name>`.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction or for an unknown savepoint name.
    pub(crate) fn txn_rollback_to(&mut self, name: &str) -> EngineResult<()> {
        if !self.in_transaction() {
            return Err(EngineError::runtime("no transaction is active"));
        }
        let key = lowercase_key(name).into_owned();
        let Some(target) = self
            .txn
            .frames
            .iter()
            .rposition(|f| f.savepoint.as_deref() == Some(key.as_str()))
        else {
            return Err(EngineError::runtime(format!("no such savepoint: {name}")));
        };
        if self.config.faults.has(Fault::TxnSavepointCollapse) {
            // Injected fault: the savepoint stack is collapsed and the
            // whole transaction is rewound to its start; the transaction
            // stays open but every savepoint (including the target) is
            // gone.
            self.apply_undo_down_to(0);
            let bottom = &mut self.txn.frames[0];
            bottom.undo.clear();
            self.txn.frames.truncate(1);
            return Ok(());
        }
        // Pop and undo the frames strictly above the savepoint, then rewind
        // the savepoint frame itself — but keep it: the savepoint remains
        // valid for another ROLLBACK TO.
        self.apply_undo_down_to(target);
        let frame = &mut self.txn.frames[target];
        frame.undo.clear();
        let catalog = frame.catalog.clone();
        self.catalog = catalog;
        self.txn.frames.truncate(target + 1);
        Ok(())
    }

    /// `RELEASE SAVEPOINT <name>`.
    ///
    /// Removes the named savepoint and every later one while **keeping** the
    /// changes made since: the released frames' undo logs are merged
    /// downward into the frame below the savepoint. For each table, the
    /// receiving frame keeps its own (older) pre-image when it has one;
    /// otherwise it adopts the pre-image from the *lowest* released frame
    /// that recorded the table — which is exactly the table's state as of
    /// the receiving frame's span, because any earlier mutation would have
    /// been recorded by the receiving frame itself.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction or for an unknown savepoint name.
    pub(crate) fn txn_release(&mut self, name: &str) -> EngineResult<()> {
        if !self.in_transaction() {
            return Err(EngineError::runtime("no transaction is active"));
        }
        let key = lowercase_key(name).into_owned();
        let Some(target) = self
            .txn
            .frames
            .iter()
            .rposition(|f| f.savepoint.as_deref() == Some(key.as_str()))
        else {
            return Err(EngineError::runtime(format!("no such savepoint: {name}")));
        };
        // Savepoint frames always sit above the `BEGIN` frame, so a
        // receiving frame exists.
        let released: Vec<TxnFrame> = self.txn.frames.split_off(target);
        let receiver = self
            .txn
            .frames
            .last_mut()
            .expect("BEGIN frame below every savepoint");
        // Bottom-up: the lowest released frame holds the oldest pre-images.
        for frame in released {
            for (table, image) in frame.undo {
                receiver.undo.entry(table).or_insert(image);
            }
        }
        Ok(())
    }

    /// Applies every frame's undo (newest first) and restores the bottom
    /// frame's catalog. Leaves the frame stack untouched.
    fn apply_undo_all(&mut self) {
        self.apply_undo_down_to(0);
        if let Some(bottom) = self.txn.frames.first() {
            self.catalog = bottom.catalog.clone();
        }
    }

    /// Applies the undo of every frame with index >= `floor`, newest first.
    /// Older frames hold older pre-images, so applying top-down converges on
    /// the state as of frame `floor`'s open.
    fn apply_undo_down_to(&mut self, floor: usize) {
        for i in (floor..self.txn.frames.len()).rev() {
            let undo = std::mem::take(&mut self.txn.frames[i].undo);
            for (table, image) in undo {
                match image {
                    Some(image) => {
                        self.data.insert(table.clone(), image.rows);
                        match image.stats {
                            Some(stats) => {
                                self.stats.insert(table, stats);
                            }
                            None => {
                                self.stats.remove(&table);
                            }
                        }
                    }
                    None => {
                        // The table did not exist at frame open.
                        self.data.remove(&table);
                        self.stats.remove(&table);
                    }
                }
            }
        }
    }

    /// Records the pre-image of a table in the innermost frame before a
    /// mutation, unless that frame already holds one. Called by every
    /// storage mutation point ([`Database::rows_mut`],
    /// `create_storage`/`drop_storage`, `set_stats`); a no-op in
    /// autocommit.
    pub(crate) fn txn_touch(&mut self, name: &str) {
        let Some(frame) = self.txn.frames.last_mut() else {
            return;
        };
        let key = lowercase_key(name);
        if frame.undo.contains_key(key.as_ref()) {
            return;
        }
        let image = self.data.get(key.as_ref()).map(|rows| TableImage {
            rows: Arc::clone(rows),
            stats: self.stats.get(key.as_ref()).cloned(),
        });
        frame.undo.insert(key.into_owned(), image);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::EngineConfig;
    use crate::faults::Fault;
    use crate::storage::Database;
    use sql_ast::Value;

    fn db_with_rows() -> Database {
        let mut db = Database::new(EngineConfig::dynamic());
        db.execute_sql("CREATE TABLE t0 (c0 INTEGER)").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (1), (2)")
            .unwrap();
        db
    }

    fn count(db: &mut Database, table: &str) -> usize {
        db.query_sql(&format!("SELECT * FROM {table}"))
            .unwrap()
            .row_count()
    }

    #[test]
    fn rollback_restores_rows_and_commit_keeps_them() {
        let mut db = db_with_rows();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (3)").unwrap();
        db.execute_sql("DELETE FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(count(&mut db, "t0"), 2);
        db.execute_sql("ROLLBACK").unwrap();
        assert_eq!(count(&mut db, "t0"), 2);
        let rs = db.query_sql("SELECT c0 FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(rs.row_count(), 1, "deleted row restored");

        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (3)").unwrap();
        db.execute_sql("COMMIT").unwrap();
        assert_eq!(count(&mut db, "t0"), 3);
        assert!(!db.in_transaction());
    }

    #[test]
    fn rollback_undoes_ddl_and_update() {
        let mut db = db_with_rows();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("CREATE TABLE t1 (c0 INTEGER)").unwrap();
        db.execute_sql("INSERT INTO t1 (c0) VALUES (9)").unwrap();
        db.execute_sql("UPDATE t0 SET c0 = 100").unwrap();
        db.execute_sql("ROLLBACK").unwrap();
        assert!(db.query_sql("SELECT * FROM t1").is_err(), "t1 rolled back");
        let rs = db.query_sql("SELECT c0 FROM t0 WHERE c0 = 100").unwrap();
        assert_eq!(rs.row_count(), 0, "update rolled back");
    }

    #[test]
    fn savepoints_rewind_partially_and_survive() {
        let mut db = db_with_rows();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (3)").unwrap();
        db.execute_sql("SAVEPOINT sp1").unwrap();
        db.execute_sql("DELETE FROM t0").unwrap();
        assert_eq!(count(&mut db, "t0"), 0);
        db.execute_sql("ROLLBACK TO sp1").unwrap();
        assert_eq!(count(&mut db, "t0"), 3, "rewound to the savepoint only");
        // The savepoint is still usable.
        db.execute_sql("DELETE FROM t0 WHERE c0 = 3").unwrap();
        db.execute_sql("ROLLBACK TO sp1").unwrap();
        assert_eq!(count(&mut db, "t0"), 3);
        db.execute_sql("COMMIT").unwrap();
        assert_eq!(count(&mut db, "t0"), 3);
    }

    #[test]
    fn release_savepoint_keeps_changes_and_merges_undo() {
        let mut db = db_with_rows();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (3)").unwrap();
        db.execute_sql("SAVEPOINT sp1").unwrap();
        db.execute_sql("DELETE FROM t0 WHERE c0 = 1").unwrap();
        db.execute_sql("SAVEPOINT sp2").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (4)").unwrap();
        assert_eq!(db.transaction_depth(), 3);
        // Releasing sp1 removes sp1 and sp2, keeping every change.
        db.execute_sql("RELEASE SAVEPOINT sp1").unwrap();
        assert_eq!(db.transaction_depth(), 1);
        assert_eq!(count(&mut db, "t0"), 3);
        assert!(
            db.execute_sql("ROLLBACK TO sp1").is_err(),
            "released savepoint is gone"
        );
        // The merged undo still rewinds the whole transaction faithfully.
        db.execute_sql("ROLLBACK").unwrap();
        assert_eq!(count(&mut db, "t0"), 2);
        let rs = db.query_sql("SELECT c0 FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(rs.row_count(), 1, "pre-savepoint delete rolled back");
    }

    #[test]
    fn release_survives_noise_words_and_reports_errors() {
        let mut db = db_with_rows();
        assert!(
            db.execute_sql("RELEASE SAVEPOINT s").is_err(),
            "outside txn"
        );
        db.execute_sql("BEGIN").unwrap();
        assert!(
            db.execute_sql("RELEASE SAVEPOINT ghost").is_err(),
            "unknown savepoint"
        );
        db.execute_sql("SAVEPOINT s").unwrap();
        // Bare `RELEASE s` (noise word omitted) works too.
        db.execute_sql("RELEASE s").unwrap();
        db.execute_sql("COMMIT").unwrap();
    }

    #[test]
    fn transaction_errors_are_reported() {
        let mut db = db_with_rows();
        assert!(db.execute_sql("ROLLBACK").is_err(), "no txn to roll back");
        assert!(
            db.execute_sql("SAVEPOINT s").is_err(),
            "savepoint outside txn"
        );
        db.execute_sql("BEGIN").unwrap();
        assert!(db.execute_sql("BEGIN").is_err(), "no nested transactions");
        assert!(
            db.execute_sql("ROLLBACK TO nope").is_err(),
            "unknown savepoint"
        );
        db.execute_sql("COMMIT").unwrap();
        // COMMIT outside a transaction is the autocommit no-op.
        db.execute_sql("COMMIT").unwrap();
    }

    #[test]
    fn stats_are_rolled_back_with_rows() {
        let mut db = db_with_rows();
        db.execute_sql("ANALYZE t0").unwrap();
        let before = db.stats("t0").cloned();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (3)").unwrap();
        db.execute_sql("ANALYZE t0").unwrap();
        assert_ne!(db.stats("t0").cloned(), before);
        db.execute_sql("ROLLBACK").unwrap();
        assert_eq!(db.stats("t0").cloned(), before);
    }

    #[test]
    fn lost_rollback_fault_keeps_the_writes() {
        let mut db = Database::new(EngineConfig::dynamic().with_faults(&[Fault::TxnLostRollback]));
        db.execute_sql("CREATE TABLE t0 (c0 INTEGER)").unwrap();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (1)").unwrap();
        db.execute_sql("ROLLBACK").unwrap();
        assert_eq!(count(&mut db, "t0"), 1, "fault: rollback lost");
        assert!(!db.in_transaction());
    }

    #[test]
    fn phantom_commit_fault_discards_the_writes() {
        let mut db = Database::new(EngineConfig::dynamic().with_faults(&[Fault::TxnPhantomCommit]));
        db.execute_sql("CREATE TABLE t0 (c0 INTEGER)").unwrap();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (1)").unwrap();
        db.execute_sql("COMMIT").unwrap();
        assert_eq!(count(&mut db, "t0"), 0, "fault: commit turned into abort");
    }

    #[test]
    fn savepoint_collapse_fault_rewinds_to_txn_start() {
        let mut db =
            Database::new(EngineConfig::dynamic().with_faults(&[Fault::TxnSavepointCollapse]));
        db.execute_sql("CREATE TABLE t0 (c0 INTEGER)").unwrap();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (1)").unwrap();
        db.execute_sql("SAVEPOINT sp1").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES (2)").unwrap();
        db.execute_sql("ROLLBACK TO sp1").unwrap();
        // Sound semantics would keep row 1; the fault rewinds everything.
        assert_eq!(count(&mut db, "t0"), 0, "fault: collapsed to txn start");
        db.execute_sql("COMMIT").unwrap();
        assert_eq!(count(&mut db, "t0"), 0);
    }

    #[test]
    fn text_rows_round_trip_through_savepoints() {
        let mut db = Database::new(EngineConfig::strict());
        db.execute_sql("CREATE TABLE t0 (c0 TEXT)").unwrap();
        db.execute_sql("INSERT INTO t0 (c0) VALUES ('a')").unwrap();
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("UPDATE t0 SET c0 = 'b'").unwrap();
        db.execute_sql("SAVEPOINT s").unwrap();
        db.execute_sql("UPDATE t0 SET c0 = 'c'").unwrap();
        db.execute_sql("ROLLBACK TO s").unwrap();
        db.execute_sql("COMMIT").unwrap();
        let rs = db.query_sql("SELECT c0 FROM t0").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::text("b")]]);
    }
}
