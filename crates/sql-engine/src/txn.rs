//! Snapshot-isolated transactions over the in-memory storage.
//!
//! The engine executes in autocommit by default; `BEGIN` opens an explicit
//! transaction as a stack of **snapshot frames**:
//!
//! * `BEGIN` pushes the bottom frame; `SAVEPOINT <name>` pushes another
//!   frame on top of it.
//! * Each frame is a snapshot of the database's catalog, rows and
//!   statistics as of frame open. With copy-on-write storage (see
//!   [`crate::storage`]) that is one pointer bump per map, never a key or
//!   row copy: a frame still holds the version its tables had at open, so
//!   the first write under it detaches the written table exactly once, and
//!   tables the transaction never writes are never copied.
//! * `ROLLBACK TO <name>` drops the frames above the savepoint and restores
//!   the savepoint's own snapshot, which it keeps — the savepoint survives,
//!   exactly like SQL says. `RELEASE` drops the savepoint and every later
//!   frame and keeps the changes made since.
//! * `ROLLBACK` restores the bottom frame's snapshot; `COMMIT` simply drops
//!   the stack.
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
use crate::storage::{Database, Row, TableMap, TableStats};
use std::sync::Arc;

/// One transaction frame — the `BEGIN` frame or a savepoint frame — and
/// the database state as of its open.
#[derive(Debug, Clone)]
struct TxnFrame {
    /// `None` for the `BEGIN` frame, the (lowercased) savepoint name
    /// otherwise.
    savepoint: Option<String>,
    catalog: Catalog,
    data: TableMap<Arc<Vec<Row>>>,
    stats: TableMap<Arc<TableStats>>,
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
        self.open_frame(None);
        Ok(())
    }

    /// `COMMIT`. A no-op outside a transaction — autocommit-off dialects
    /// send `COMMIT` after every DML statement and expect it to succeed.
    pub(crate) fn txn_commit(&mut self) -> EngineResult<()> {
        // Injected fault `Fault::TxnPhantomCommit`: the commit path runs the
        // abort path, so the transaction's writes silently vanish.
        self.close_frames(self.config.faults.has(Fault::TxnPhantomCommit));
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
        // Injected fault `Fault::TxnLostRollback`: the frames are dropped
        // without restoring the `BEGIN` snapshot, so the writes stay — a
        // silent commit.
        self.close_frames(!self.config.faults.has(Fault::TxnLostRollback));
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
        self.open_frame(Some(lowercase_key(name).into_owned()));
        Ok(())
    }

    /// `ROLLBACK TO <name>`: restores the savepoint's snapshot and keeps the
    /// savepoint, valid for another `ROLLBACK TO`.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction or for an unknown savepoint name.
    pub(crate) fn txn_rollback_to(&mut self, name: &str) -> EngineResult<()> {
        let mut target = self.savepoint_frame(name)?;
        if self.config.faults.has(Fault::TxnSavepointCollapse) {
            // Injected fault: the savepoint stack is collapsed and the
            // whole transaction is rewound to its start; the transaction
            // stays open but every savepoint (including the target) is
            // gone.
            target = 0;
        }
        self.txn.frames.truncate(target + 1);
        self.restore(self.txn.frames[target].clone());
        Ok(())
    }

    /// `RELEASE SAVEPOINT <name>`: removes the named savepoint and every
    /// later one while **keeping** the changes made since.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction or for an unknown savepoint name.
    pub(crate) fn txn_release(&mut self, name: &str) -> EngineResult<()> {
        let target = self.savepoint_frame(name)?;
        self.txn.frames.truncate(target);
        Ok(())
    }

    /// Pushes a frame holding the current state: one pointer bump for the
    /// catalog and each table map.
    fn open_frame(&mut self, savepoint: Option<String>) {
        self.txn.frames.push(TxnFrame {
            savepoint,
            catalog: self.catalog.clone(),
            data: self.data.clone(),
            stats: self.stats.clone(),
        });
    }

    /// Ends the transaction, restoring the `BEGIN` frame's snapshot when
    /// `rewind` is set. A no-op outside a transaction.
    fn close_frames(&mut self, rewind: bool) {
        let mut frames = std::mem::take(&mut self.txn.frames);
        if rewind && !frames.is_empty() {
            self.restore(frames.swap_remove(0));
        }
    }

    /// Makes a frame's snapshot the current state.
    fn restore(&mut self, frame: TxnFrame) {
        self.catalog = frame.catalog;
        self.data = frame.data;
        self.stats = frame.stats;
    }

    /// The index of the innermost frame of the savepoint named `name`.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction or for an unknown savepoint name.
    fn savepoint_frame(&self, name: &str) -> EngineResult<usize> {
        if !self.in_transaction() {
            return Err(EngineError::runtime("no transaction is active"));
        }
        let key = lowercase_key(name);
        self.txn
            .frames
            .iter()
            .rposition(|f| f.savepoint.as_deref() == Some(key.as_ref()))
            .ok_or_else(|| EngineError::runtime(format!("no such savepoint: {name}")))
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
    fn release_savepoint_keeps_changes_and_begin_still_rewinds() {
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
        // The BEGIN snapshot still rewinds the whole transaction.
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
    fn savepoint_collapse_fault_rewinds_the_catalog_too() {
        let mut db =
            Database::new(EngineConfig::dynamic().with_faults(&[Fault::TxnSavepointCollapse]));
        db.execute_sql("BEGIN").unwrap();
        db.execute_sql("CREATE TABLE t1 (c0 INTEGER)").unwrap();
        db.execute_sql("INSERT INTO t1 (c0) VALUES (1)").unwrap();
        db.execute_sql("SAVEPOINT s").unwrap();
        db.execute_sql("INSERT INTO t1 (c0) VALUES (2)").unwrap();
        db.execute_sql("ROLLBACK TO s").unwrap();
        db.execute_sql("COMMIT").unwrap();
        // The collapse rewinds to transaction start, before t1 existed: the
        // catalog and the storage agree that it is gone, so it can be made
        // again.
        assert!(db.catalog.table("t1").is_none(), "no zombie table");
        db.execute_sql("CREATE TABLE t1 (c0 INTEGER)").unwrap();
        assert_eq!(count(&mut db, "t1"), 0);
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
