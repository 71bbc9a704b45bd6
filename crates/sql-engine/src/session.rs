//! Concurrent sessions over one shared storage core.
//!
//! [`Engine`] splits the monolithic [`Database`] into a **shared committed
//! state** and per-session handles ([`Engine::session`]). Autocommit
//! statements run directly against the committed state; `BEGIN` gives the
//! session a private transaction built from the single-connection frame stack
//! (see [`crate::txn`]) plus two concurrency guarantees:
//!
//! * **Begin-time snapshot reads** — `BEGIN` snapshots the committed state
//!   into a private workspace. With copy-on-write storage (see
//!   [`crate::storage`]) the snapshot is a pointer bump per map, never a
//!   key or row copy. Every statement of the
//!   transaction executes against that workspace (its own writes included),
//!   so concurrent commits by other sessions are invisible until the next
//!   transaction; the first mutation of a table inside the transaction
//!   triggers the one clone-on-write that detaches its version.
//!   The workspace's own `BEGIN` frame is a snapshot of the same versions,
//!   and `SAVEPOINT`/`ROLLBACK TO`/`RELEASE` push, restore and drop further
//!   snapshot frames on it, inheriting the single-connection semantics (and
//!   injected transaction faults) verbatim.
//! * **First-committer-wins conflict detection over row-range write
//!   intent** — the engine tracks per-table commit clocks. Write intent is
//!   derived from statement shape and forms a small lattice of row-id
//!   claims per table:
//!
//!   * *append* — an `INSERT` into a table with no unique key sets
//!     occupies only **fresh row-ids allocated at install**, so two
//!     appenders' claims are disjoint by construction;
//!   * *keyed append* — an `INSERT` into a unique-keyed table additionally
//!     claims the key tuples it inserts: its commit value-checks them
//!     against rows appended concurrently (mirroring the engine's
//!     insert-time uniqueness rule, `NULL` never colliding);
//!   * *existing* — `UPDATE`/`DELETE`/`ANALYZE` (and `INSERT OR IGNORE`,
//!     whose row-dropping depends on the base contents) claim the row-ids
//!     visible in the begin snapshot, `[0, base_len)`;
//!   * *structural* — `CREATE`/`DROP` claim every row-id including future
//!     ones, `[0, ∞)`.
//!
//!   `COMMIT` validates the claims against every commit installed since
//!   its snapshot: overlapping claims abort with a *serialization failure*
//!   error — a learnable statement outcome (the platform sees only the
//!   error text, preserving the SQL-text-only contract). Disjoint claims
//!   **merge**: appenders commit over concurrent appends (fresh rows are
//!   spliced onto the latest committed version), a *pure appender* — a
//!   transaction that read nothing at all — serializes last and merges
//!   even over concurrent `UPDATE`/`DELETE` commits, and an existing-rows
//!   writer merges over concurrent appends whose replay after its
//!   mutations stays unique. Reads performed by a transaction (queries,
//!   observer subqueries) revoke its pure-appender status, which is what
//!   keeps every admitted merge serializable. `BEGIN IMMEDIATE` still
//!   declares eager whole-table intent on every table, so its commit
//!   conflicts with any concurrent commit; `BEGIN [DEFERRED]` accumulates
//!   intent lazily.
//!
//! Three injected **isolation faults** live here (see [`crate::faults`]):
//!
//! * `Fault::IsoDirtyRead` — the begin-time snapshot overlays other sessions'
//!   *uncommitted* workspace writes;
//! * `Fault::IsoLostUpdate` — `COMMIT` skips first-committer-wins validation
//!   *and* installs whole-table snapshot clobbers instead of merges, so
//!   the later committer silently loses concurrent committed writes;
//! * `Fault::IsoNonrepeatableRead` — tables the session has not itself written
//!   are refreshed from the latest committed state before every statement
//!   (read-committed visibility masquerading as snapshot isolation).
//!
//! With a single session and no concurrent commits, every path below
//! reduces to the single-connection observables: snapshots equal the live
//! state, commits never conflict, and the `txn_*` faults keep their
//! single-connection behaviour (the workspace carries the same
//! [`FaultConfig`], and a lost rollback installs the writes it failed to
//! rewind).
//!
//! [`FaultConfig`]: crate::faults::FaultConfig

use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::exec::{ExecutionMode, StatementResult};
use crate::faults::Fault;
use crate::storage::{Database, ResultSet};
use sql_ast::{BeginMode, Select, Statement, StatementKind};
use std::borrow::Cow;
use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// The marker substring carried by every commit-time conflict error. The
/// testing platform (which sees only SQL text and error strings) recognises
/// conflict aborts by it.
pub const SERIALIZATION_FAILURE: &str = "serialization failure";

/// What part of a table's row-id space one statement claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    /// Fresh row-ids only (a blind `INSERT`): disjoint from every other
    /// append and from claims on the begin-snapshot rows.
    Append,
    /// Fresh row-ids plus the table's unique-key space: a literal `INSERT`
    /// into a table with unique key sets reads those keys to check
    /// uniqueness, so its commit additionally validates that no concurrent
    /// append occupied the same key tuples.
    KeyedAppend,
    /// The row-ids visible in the begin snapshot (`UPDATE`, `DELETE`,
    /// `ANALYZE`, and inserts that must read the base relation).
    Existing,
    /// Every row-id, including future ones (`CREATE`/`DROP`).
    Structural,
}

/// The accumulated claim of a transaction on one table — the join of the
/// per-statement [`WriteKind`]s over the `{append ⊑ existing ⊑ structural}`
/// lattice. A table is present in [`OpenTxn::writes`] as soon as any
/// statement wrote it, so "append-only" is the default claim.
#[derive(Debug, Clone, Copy, Default)]
struct TableClaim {
    /// The transaction touched rows that existed at `BEGIN`.
    existing: bool,
    /// The transaction created or dropped the table (installed wholesale).
    structural: bool,
    /// The transaction's appends occupy unique-key space (their commit
    /// validates key disjointness against concurrent appends).
    keyed: bool,
}

impl TableClaim {
    fn raise(&mut self, kind: WriteKind) {
        match kind {
            WriteKind::Append => {}
            WriteKind::KeyedAppend => self.keyed = true,
            WriteKind::Existing => self.existing = true,
            WriteKind::Structural => {
                self.existing = true;
                self.structural = true;
            }
        }
    }
}

/// One open transaction: the session's private snapshot workspace plus the
/// bookkeeping first-committer-wins validation needs.
struct OpenTxn {
    /// Snapshot of the committed state as of `BEGIN` (plus fault overlays),
    /// with its own `BEGIN` frame pushed so savepoints work unchanged. With
    /// CoW storage this shares every table version with the committed
    /// state until first mutation.
    workspace: Database,
    /// Commit clock at `BEGIN`; commits installed after it may conflict.
    begin_clock: u64,
    /// Catalog version at `BEGIN` (DDL transactions conflict coarsely).
    begin_catalog: u64,
    /// Eager whole-table intent (`BEGIN IMMEDIATE`): validated against any
    /// concurrent commit but never installed.
    intent: BTreeSet<String>,
    /// Tables actually written (lowercased), with the row-range claim the
    /// transaction holds on each; validated *and* installed.
    writes: BTreeMap<String, TableClaim>,
    /// Committed row count per table as of `BEGIN` — the boundary between
    /// the snapshot's row-ids and the fresh row-ids appends occupy.
    begin_lens: BTreeMap<String, usize>,
    /// Tables (lowercased) on which an `INSERT` statement *failed* inside
    /// this transaction. A failure read the snapshot (e.g. a uniqueness
    /// check against rows another transaction may delete), so installs
    /// touching these tables poison existing-rows merges (`keyed_dirty`).
    failed_inserts: BTreeSet<String>,
    /// `true` while the transaction has read nothing at all: every
    /// statement so far was a blind literal `INSERT`. Pure appenders
    /// serialize last and merge over any concurrent non-structural commit.
    pure: bool,
    /// Whether the transaction ran DDL (catalog installed wholesale).
    ddl: bool,
}

/// Per-table commit clocks: when the table was last touched at all, last
/// touched by a transaction that read something, and last structurally
/// replaced. The three tiers are what make row-range validation a set of
/// integer comparisons instead of a row-id interval scan.
#[derive(Debug, Clone, Copy, Default)]
struct TableVersion {
    /// Clock of the last installed commit touching the table.
    any: u64,
    /// Clock of the last installed commit by a non-pure transaction (one
    /// whose writes could depend on what it read).
    impure: u64,
    /// Clock of the last installed commit that appended into the table's
    /// unique-key space (existing-row claims cannot merge past it: an
    /// update could collide with the appended keys in the serial order).
    keyed: u64,
    /// Clock of the last keyed install whose transaction also had a
    /// *failed* insert on this table. That failure's verdict read the base
    /// rows, so no existing-rows claim may merge past it — serially after
    /// the merge the rejected insert might have succeeded.
    keyed_dirty: u64,
    /// Clock of the last structural (create/drop, or clobber-faulted)
    /// install.
    structural: u64,
}

/// Counters for copy-on-write effectiveness and row-range conflict
/// avoidance, reported per campaign (see `CampaignMetrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// `BEGIN` snapshots taken.
    pub txn_begins: u64,
    /// Table versions shared into snapshots at `BEGIN` (pointer bumps).
    pub tables_snapshotted: u64,
    /// Table versions actually deep-cloned on first write (CoW detaches),
    /// across workspaces and the committed state.
    pub tables_cow_cloned: u64,
    /// Commits that row-range validation admitted (and merged) but
    /// table-level first-committer-wins would have aborted.
    pub conflicts_avoided: u64,
}

impl CowStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &CowStats) {
        self.txn_begins += other.txn_begins;
        self.tables_snapshotted += other.tables_snapshotted;
        self.tables_cow_cloned += other.tables_cow_cloned;
        self.conflicts_avoided += other.conflicts_avoided;
    }
}

/// The shared core behind an [`Engine`]: the committed database plus the
/// commit clocks, per-table versions and the open-transaction registry.
struct EngineCore {
    committed: Database,
    /// Bumped once per installed commit (including autocommit writes).
    clock: u64,
    /// Per-table (lowercased) clocks of the last installed commits.
    versions: BTreeMap<String, TableVersion>,
    /// Clock value of the last committed catalog change.
    catalog_version: u64,
    /// Open transactions, keyed by session id (deterministic iteration).
    open: BTreeMap<u64, OpenTxn>,
    next_session: u64,
    conflict_aborts: u64,
    cow: CowStats,
}

/// Tables a statement writes (lowercased storage keys) and the row-range
/// claim each write takes, used for both lazy write intent and autocommit
/// version bumps. Intent is declared by statement shape — an `UPDATE`
/// matching zero rows still claims the snapshot rows, which is
/// deterministic and strictly conservative. Single-table statements yield
/// one borrowed name; only a bare `ANALYZE` walks every table.
fn write_targets<'a>(
    stmt: &'a Statement,
    db: &'a Database,
) -> impl Iterator<Item = (Cow<'a, str>, WriteKind)> + 'a {
    let key = crate::catalog::lowercase_key;
    let single = match stmt {
        Statement::Insert(i) => Some((key(&i.table), insert_kind(i, db))),
        Statement::Update(u) => Some((key(&u.table), WriteKind::Existing)),
        Statement::Delete(d) => Some((key(&d.table), WriteKind::Existing)),
        Statement::CreateTable(c) => Some((key(&c.name), WriteKind::Structural)),
        Statement::Drop {
            kind: sql_ast::DropKind::Table,
            name,
            ..
        } => Some((key(name), WriteKind::Structural)),
        Statement::Analyze(Some(t)) => Some((key(t), WriteKind::Existing)),
        _ => None,
    };
    let every = matches!(stmt, Statement::Analyze(None)).then(|| db.data.keys());
    single.into_iter().chain(
        every
            .into_iter()
            .flatten()
            .map(|t| (Cow::Borrowed(t.as_str()), WriteKind::Existing)),
    )
}

/// The entry of `map` for `table`, allocating its owned key only when the
/// table is new to the map.
fn entry_for<'m, V: Default>(map: &'m mut BTreeMap<String, V>, table: Cow<'_, str>) -> &'m mut V {
    if map.contains_key(table.as_ref()) {
        return map.get_mut(table.as_ref()).expect("key is present");
    }
    map.entry(table.into_owned()).or_default()
}

/// The claim an `INSERT` takes on its target table. Inserts only ever
/// occupy fresh row-ids, so the claim is *append*-shaped regardless of
/// what the insert's value expressions read — reads are accounted for by
/// transaction purity, and key-space reads by the *keyed* variant. Only
/// `OR IGNORE` demotes to an existing-rows claim: its row-dropping effect
/// depends on the base relation's full contents, which merging could
/// change.
fn insert_kind(insert: &sql_ast::Insert, db: &Database) -> WriteKind {
    if insert.or_ignore {
        return WriteKind::Existing;
    }
    match db.catalog.table(&insert.table) {
        Some(schema) if crate::exec::has_unique_keys(db, schema) => WriteKind::KeyedAppend,
        Some(_) => WriteKind::Append,
        None => WriteKind::Existing,
    }
}

/// Whether a statement's effect can depend on state it reads arbitrarily.
/// Blind literal inserts keep a transaction *pure* — including inserts
/// into unique-keyed tables, whose key reads are validated separately by
/// the keyed-append machinery; inserts evaluating subqueries (and
/// everything that is not an insert) break purity.
fn statement_reads_rows(stmt: &Statement, _db: &Database) -> bool {
    match stmt {
        Statement::Insert(i) => {
            i.or_ignore
                || i.values
                    .iter()
                    .flatten()
                    .any(sql_ast::Expr::contains_subquery)
        }
        _ => true,
    }
}

/// Do the transaction's rows on `table` collide with rows appended to the
/// committed table since `BEGIN`, under any of the table's unique key
/// sets? For an append claim, "our" rows are the transaction's fresh rows
/// (`[base_len..]`) — would merging install a duplicate key? For an
/// existing-rows claim, the *whole* workspace table is compared — would
/// the concurrent appends, replayed after this transaction's
/// updates/deletes, have failed their uniqueness checks? Mirrors the
/// engine's insert-time enforcement exactly: key tuples containing `NULL`
/// never collide, and partial unique indexes are not enforced. A missing
/// table or schema is reported as a collision (the caller then conflicts
/// conservatively).
fn append_keys_collide(
    txn: &OpenTxn,
    committed: &Database,
    table: &str,
    ours_whole_table: bool,
) -> bool {
    let base_len = txn.begin_lens.get(table).copied().unwrap_or(0);
    let Some(schema) = txn.workspace.catalog.table(table) else {
        return true;
    };
    let key_sets = crate::exec::unique_key_sets(&txn.workspace, schema);
    let (Some(workspace), Some(current)) =
        (txn.workspace.data.get(table), committed.data.get(table))
    else {
        return true;
    };
    let ours = if ours_whole_table {
        &workspace[..]
    } else {
        workspace.get(base_len..).unwrap_or(&[])
    };
    let theirs = current.get(base_len..).unwrap_or(&[]);
    if ours.is_empty() || theirs.is_empty() {
        return false;
    }
    key_sets.iter().any(|key| {
        theirs.iter().any(|their| {
            ours.iter()
                .any(|our| crate::exec::keys_conflict(our, their, key))
        })
    })
}

/// `Fault::IsoNonrepeatableRead`: refresh every table the transaction has not
/// itself written from the latest committed state (version-pointer bumps
/// under CoW storage). It runs before every statement, so an unwritten
/// table that a `ROLLBACK TO` rewinds to its savepoint snapshot is refreshed
/// again before the next statement reads it; a written table stays pinned
/// at the snapshot.
fn refresh_unwritten(committed: &Database, txn: &mut OpenTxn) {
    let tables: Vec<String> = txn
        .workspace
        .data
        .keys()
        .filter(|t| !txn.writes.contains_key(*t))
        .cloned()
        .collect();
    for t in tables {
        if let Some(rows) = committed.data.get(&t) {
            txn.workspace.data.insert(t.clone(), rows.clone());
            match committed.stats.get(&t) {
                Some(stats) => {
                    txn.workspace.stats.insert(t, stats.clone());
                }
                None => {
                    txn.workspace.stats.remove(&t);
                }
            }
        }
    }
}

impl EngineCore {
    fn merge_workspace_coverage(&mut self, txn: &OpenTxn) {
        let cov = txn.workspace.coverage_snapshot();
        self.committed.record_coverage(|c| c.merge(&cov));
        // The workspace's CoW detaches happened on behalf of this engine's
        // transactions; fold them into the engine-wide counters.
        self.cow.tables_cow_cloned += txn.workspace.cow_clones();
    }

    /// Installs a transaction's written tables (and, for DDL, its catalog)
    /// into the committed state, bumping the commit clock.
    ///
    /// Validated claims install by their row-range shape:
    ///
    /// * *structural* — the workspace version replaces the committed one
    ///   wholesale (create/drop; also every table when the
    ///   `Fault::IsoLostUpdate` fault degrades installs to snapshot clobbers,
    ///   which is that bug's observable);
    /// * *existing* — the workspace version, with any rows appended to the
    ///   committed table since `BEGIN` spliced back on top (those appends
    ///   were validated disjoint);
    /// * *append-only* — the current committed version with the
    ///   workspace's fresh rows (`[base_len..]`) appended, so concurrent
    ///   appenders compose instead of clobbering each other.
    ///
    /// In the common no-concurrent-commit case every branch degenerates to
    /// an `Arc` pointer bump. Faulted installs (`Fault::TxnLostRollback`,
    /// `Fault::IsoLostUpdate`) skip validation, so the splice points are
    /// saturating — deterministic even when the committed table shrank
    /// underneath the transaction.
    fn install(&mut self, txn: &OpenTxn) {
        self.clock += 1;
        let clobber = self.committed.config.faults.has(Fault::IsoLostUpdate);
        if txn.ddl {
            self.committed.catalog = txn.workspace.catalog.clone();
            self.catalog_version = self.clock;
        }
        for (t, claim) in &txn.writes {
            let base_len = txn.begin_lens.get(t).copied().unwrap_or(0);
            let workspace = txn.workspace.data.get(t);
            let committed = self.committed.data.get(t);
            // Was the committed table touched by any commit since this
            // transaction's snapshot? If not, the workspace version can be
            // installed by pointer; otherwise the disjoint row ranges are
            // spliced. (`self.clock` was already bumped for this install.)
            let touched_since = self
                .versions
                .get(t)
                .is_some_and(|v| v.any > txn.begin_clock);
            // `None` rows drop the table; `Some(None)` for stats keeps the
            // committed entry untouched (append-only installs never carry
            // new statistics — `ANALYZE` raises the claim to *existing*).
            let (rows, stats) = match committed {
                Some(current) if !clobber && !claim.structural && claim.existing => {
                    let rows = match workspace {
                        Some(workspace) if touched_since => {
                            // Concurrent (validated: pure append) commits
                            // grew the table past the snapshot boundary;
                            // splice the fresh committed rows onto the
                            // workspace version.
                            let mut rows = workspace.as_ref().clone();
                            rows.extend_from_slice(current.get(base_len..).unwrap_or(&[]));
                            Some(Arc::new(rows))
                        }
                        Some(workspace) => Some(Arc::clone(workspace)),
                        None => None,
                    };
                    (rows, Some(txn.workspace.stats.get(t).cloned()))
                }
                Some(current) if !clobber && !claim.structural => {
                    let rows = match workspace {
                        Some(workspace) if touched_since => {
                            // Append onto whatever is committed now — the
                            // fresh rows are this transaction's only claim.
                            let fresh = workspace.get(base_len..).unwrap_or(&[]);
                            let mut rows = current.as_ref().clone();
                            rows.extend_from_slice(fresh);
                            Some(Arc::new(rows))
                        }
                        Some(workspace) => Some(Arc::clone(workspace)),
                        None => None,
                    };
                    (rows, None)
                }
                // Structural/clobber installs, and tables the committed
                // state no longer holds, replace the version wholesale.
                _ => (
                    workspace.cloned(),
                    Some(txn.workspace.stats.get(t).cloned()),
                ),
            };
            match rows {
                Some(rows) => {
                    self.committed.data.insert(t.clone(), rows);
                }
                None => {
                    self.committed.data.remove(t);
                }
            }
            if let Some(stats) = stats {
                match stats {
                    Some(stats) => {
                        self.committed.stats.insert(t.clone(), stats);
                    }
                    None => {
                        self.committed.stats.remove(t);
                    }
                }
            }
            let version = self.versions.entry(t.clone()).or_default();
            version.any = self.clock;
            if !txn.pure || clobber {
                version.impure = self.clock;
            }
            if claim.keyed {
                version.keyed = self.clock;
                if txn.failed_inserts.contains(t) {
                    version.keyed_dirty = self.clock;
                }
            }
            if claim.structural || clobber {
                version.structural = self.clock;
            }
        }
    }

    fn begin_session(&mut self, id: u64, mode: BeginMode) -> EngineResult<StatementResult> {
        if self.open.contains_key(&id) {
            return Err(EngineError::runtime(
                "cannot start a transaction within a transaction",
            ));
        }
        self.committed
            .record_coverage(|cov| cov.statement(StatementKind::Begin));
        // The snapshot shares the committed maps (one Arc bump each), never
        // keys or row data. The workspace's CoW counter starts from zero so
        // the per-transaction clone count can be merged back on close.
        let workspace = self.committed.clone();
        workspace.reset_cow_clones();
        self.cow.txn_begins += 1;
        self.cow.tables_snapshotted += workspace.data.len() as u64;
        let begin_lens: BTreeMap<String, usize> = self
            .committed
            .data
            .iter()
            .map(|(t, rows)| (t.clone(), rows.len()))
            .collect();
        let mut workspace = workspace;
        if self.committed.config.faults.has(Fault::IsoDirtyRead) {
            // Injected fault: the snapshot overlays the *uncommitted*
            // workspace writes of every other open session.
            for (other_id, other) in &self.open {
                if *other_id == id {
                    continue;
                }
                for t in other.writes.keys() {
                    match other.workspace.data.get(t) {
                        Some(rows) => {
                            workspace.data.insert(t.clone(), Arc::clone(rows));
                        }
                        None => {
                            workspace.data.remove(t);
                        }
                    }
                }
            }
        }
        workspace.txn_begin()?;
        let intent: BTreeSet<String> = if mode.is_immediate() {
            workspace.data.keys().cloned().collect()
        } else {
            BTreeSet::new()
        };
        self.open.insert(
            id,
            OpenTxn {
                workspace,
                begin_clock: self.clock,
                begin_catalog: self.catalog_version,
                intent,
                writes: BTreeMap::new(),
                begin_lens,
                failed_inserts: BTreeSet::new(),
                pure: true,
                ddl: false,
            },
        );
        Ok(StatementResult::Ok)
    }

    fn commit_session(&mut self, id: u64) -> EngineResult<StatementResult> {
        let Some(mut txn) = self.open.remove(&id) else {
            // Autocommit COMMIT is the usual no-op.
            return self.committed.execute(&Statement::Commit);
        };
        self.committed
            .record_coverage(|cov| cov.statement(StatementKind::Commit));
        if !self.committed.config.faults.has(Fault::IsoLostUpdate) {
            // First-committer-wins validation over row-range claims and
            // eager intent. A claim conflicts only when a commit installed
            // since `BEGIN` could overlap it:
            //
            // * eager (IMMEDIATE) intent and structural claims span the
            //   whole table — any concurrent commit conflicts;
            // * an existing-rows claim conflicts with concurrent impure or
            //   structural commits, but merges over concurrent appends —
            //   pure appends unconditionally, keyed appends when replaying
            //   them after this transaction's updates/deletes would not
            //   collide with its unique keys;
            // * a keyed append read the table's unique-key space: it
            //   conflicts with impure/structural commits outright, and
            //   with concurrent appends only when the actually-inserted
            //   key tuples collide;
            // * a pure plain append occupies only fresh row-ids — it
            //   conflicts solely with structural replacements.
            let overlaps = |t: &String, claim: Option<&TableClaim>| -> bool {
                let version = self.versions.get(t).copied().unwrap_or_default();
                let since = txn.begin_clock;
                match claim {
                    // Eager IMMEDIATE intent: whole-table, like PR 4.
                    None => version.any > since,
                    Some(claim) if claim.structural => version.any > since,
                    Some(claim) if claim.existing => {
                        version.impure > since
                            || version.structural > since
                            || version.keyed_dirty > since
                            || (version.keyed > since
                                && append_keys_collide(&txn, &self.committed, t, true))
                    }
                    Some(claim) if claim.keyed => {
                        version.impure > since
                            || version.structural > since
                            || (version.any > since
                                && append_keys_collide(&txn, &self.committed, t, false))
                    }
                    Some(_) if txn.pure => version.structural > since,
                    Some(_) => version.impure > since || version.structural > since,
                }
            };
            let conflict: Option<String> = txn
                .writes
                .iter()
                .map(|(t, claim)| (t, Some(claim)))
                .chain(txn.intent.iter().map(|t| (t, None)))
                .find(|(t, claim)| overlaps(t, *claim))
                .map(|(t, _)| t.clone());
            let catalog_conflict = txn.ddl && self.catalog_version > txn.begin_catalog;
            if conflict.is_some() || catalog_conflict {
                // The transaction is rewound: its workspace is discarded and
                // the session returns to autocommit.
                self.conflict_aborts += 1;
                self.merge_workspace_coverage(&txn);
                let what = conflict.unwrap_or_else(|| "the catalog".to_string());
                return Err(EngineError::runtime(format!(
                    "{SERIALIZATION_FAILURE}: concurrent update to {what} (first committer wins)"
                )));
            }
            // The commit stands. Record when table-level intent (the PR 4
            // rule: any concurrent commit to a written table conflicts)
            // would have aborted it — the throughput row-range intent buys.
            let table_level = txn
                .writes
                .keys()
                .any(|t| self.versions.get(t).copied().unwrap_or_default().any > txn.begin_clock);
            if table_level {
                self.cow.conflicts_avoided += 1;
            }
        }
        // Close the workspace's frame stack through its own machinery so
        // the single-connection faults (e.g. `Fault::TxnPhantomCommit`, which
        // reverts the workspace before install) keep their observables.
        txn.workspace.txn_commit()?;
        self.merge_workspace_coverage(&txn);
        self.install(&txn);
        Ok(StatementResult::Ok)
    }

    fn rollback_session(&mut self, id: u64) -> EngineResult<StatementResult> {
        let Some(mut txn) = self.open.remove(&id) else {
            // Matches the single-connection "no transaction is active".
            return self.committed.execute(&Statement::Rollback);
        };
        self.committed
            .record_coverage(|cov| cov.statement(StatementKind::Rollback));
        let lost = self.committed.config.faults.has(Fault::TxnLostRollback);
        txn.workspace.txn_rollback()?;
        self.merge_workspace_coverage(&txn);
        if lost {
            // Injected fault: the rollback is lost — the writes land as if
            // committed (no conflict validation; the frames are gone).
            self.install(&txn);
        }
        Ok(StatementResult::Ok)
    }

    fn execute_session(&mut self, id: u64, stmt: &Statement) -> EngineResult<StatementResult> {
        let faults = self.committed.config.faults;
        match stmt {
            Statement::Begin(mode) => self.begin_session(id, *mode),
            Statement::Commit => self.commit_session(id),
            Statement::Rollback => self.rollback_session(id),
            Statement::Savepoint(_) | Statement::RollbackTo(_) | Statement::ReleaseSavepoint(_) => {
                match self.open.get_mut(&id) {
                    // Inside a transaction the workspace's own frame stack
                    // implements savepoints (single-connection semantics and
                    // faults).
                    Some(txn) => txn.workspace.execute(stmt),
                    // Outside one, the committed database produces the
                    // canonical "outside a transaction" errors.
                    None => self.committed.execute(stmt),
                }
            }
            other => match self.open.get_mut(&id) {
                Some(txn) => {
                    if faults.has(Fault::IsoNonrepeatableRead) {
                        refresh_unwritten(&self.committed, txn);
                    }
                    let result = txn.workspace.execute(other);
                    if result.is_ok() {
                        for (t, kind) in write_targets(other, &txn.workspace) {
                            entry_for(&mut txn.writes, t).raise(kind);
                        }
                        if statement_reads_rows(other, &txn.workspace) {
                            txn.pure = false;
                        }
                        if other.is_ddl() {
                            txn.ddl = true;
                            txn.pure = false;
                        }
                    } else if let Statement::Insert(insert) = other {
                        // The rejection read the snapshot (uniqueness
                        // checks); remember it so installs touching this
                        // table poison existing-rows merges.
                        txn.failed_inserts
                            .insert(crate::catalog::lowercase_key(&insert.table).into_owned());
                    }
                    result
                }
                None => {
                    let result = self.committed.execute(other);
                    if result.is_ok() {
                        let mut targets = write_targets(other, &self.committed).peekable();
                        if targets.peek().is_some() || other.is_ddl() {
                            self.clock += 1;
                            let impure = statement_reads_rows(other, &self.committed);
                            for (t, kind) in targets {
                                let version = entry_for(&mut self.versions, t);
                                version.any = self.clock;
                                if impure {
                                    version.impure = self.clock;
                                }
                                if kind == WriteKind::KeyedAppend {
                                    version.keyed = self.clock;
                                }
                                if kind == WriteKind::Structural {
                                    version.structural = self.clock;
                                }
                            }
                            if other.is_ddl() {
                                self.catalog_version = self.clock;
                            }
                        }
                    }
                    result
                }
            },
        }
    }

    fn query_session(
        &mut self,
        id: u64,
        select: &Select,
        mode: ExecutionMode,
    ) -> EngineResult<ResultSet> {
        let faults = self.committed.config.faults;
        match self.open.get_mut(&id) {
            Some(txn) => {
                if faults.has(Fault::IsoNonrepeatableRead) {
                    refresh_unwritten(&self.committed, txn);
                }
                // The transaction observed database state: its later writes
                // may depend on it, so it loses pure-appender merging.
                txn.pure = false;
                txn.workspace.query(select, mode)
            }
            None => self.committed.query(select, mode),
        }
    }
}

/// A shared storage core serving any number of concurrent sessions.
///
/// # Examples
///
/// ```
/// use sql_engine::{Engine, EngineConfig};
/// use sql_parser::parse_statement;
///
/// let engine = Engine::new(EngineConfig::dynamic());
/// let mut alice = engine.session();
/// let mut bob = engine.session();
/// let run = |s: &mut sql_engine::EngineSession, sql: &str| {
///     s.execute(&parse_statement(sql).unwrap()).map(|_| ())
/// };
/// run(&mut alice, "CREATE TABLE t0 (c0 INTEGER)").unwrap();
/// run(&mut alice, "BEGIN").unwrap();
/// run(&mut alice, "INSERT INTO t0 (c0) VALUES (1)").unwrap();
/// // Bob's snapshot cannot see Alice's uncommitted insert.
/// run(&mut bob, "BEGIN").unwrap();
/// let rs = bob.query(&match parse_statement("SELECT * FROM t0").unwrap() {
///     sql_ast::Statement::Select(q) => *q,
///     _ => unreachable!(),
/// }, sql_engine::ExecutionMode::Optimized).unwrap();
/// assert_eq!(rs.row_count(), 0);
/// ```
pub struct Engine {
    core: Rc<RefCell<EngineCore>>,
}

impl Engine {
    /// Creates an engine with an empty committed database.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::from_database(Database::new(config))
    }

    /// Wraps an existing database as the committed state. The database must
    /// not have an open single-connection transaction (a later session
    /// `BEGIN` would fail).
    pub fn from_database(committed: Database) -> Engine {
        Engine {
            core: Rc::new(RefCell::new(EngineCore {
                committed,
                clock: 0,
                versions: BTreeMap::new(),
                catalog_version: 0,
                open: BTreeMap::new(),
                next_session: 0,
                conflict_aborts: 0,
                cow: CowStats::default(),
            })),
        }
    }

    /// Opens a new session over the shared core.
    pub fn session(&self) -> EngineSession {
        let mut core = self.core.borrow_mut();
        let id = core.next_session;
        core.next_session += 1;
        EngineSession {
            core: Rc::clone(&self.core),
            id,
        }
    }

    /// The committed database (for inspection: coverage, catalog, rows).
    /// Sessions' uncommitted workspaces are not visible here.
    pub fn committed(&self) -> Ref<'_, Database> {
        Ref::map(self.core.borrow(), |core| &core.committed)
    }

    /// Number of commit attempts rejected by first-committer-wins
    /// validation since the engine was created.
    pub fn conflict_aborts(&self) -> u64 {
        self.core.borrow().conflict_aborts
    }

    /// A clone whose storage counters start from zero — the shape a
    /// *checkpoint* wants: restoring from it must not re-report work the
    /// original engine already counted. Shares committed table versions
    /// exactly like [`Engine::clone`].
    pub fn checkpoint_clone(&self) -> Engine {
        let engine = self.clone();
        {
            let mut core = engine.core.borrow_mut();
            core.cow = CowStats::default();
            core.conflict_aborts = 0;
            core.committed.reset_cow_clones();
        }
        engine
    }

    /// Copy-on-write effectiveness and row-range conflict-avoidance
    /// counters since the engine was created: `BEGIN` snapshots taken,
    /// table versions shared vs. actually deep-cloned (workspaces and the
    /// committed state combined), and commits that row-range intent
    /// admitted where table-level intent would have aborted.
    pub fn cow_stats(&self) -> CowStats {
        let core = self.core.borrow();
        let mut stats = core.cow;
        // Autocommit writes detach the committed version from any open
        // snapshot still sharing it; those clones count too.
        stats.tables_cow_cloned += core.committed.cow_clones();
        stats
    }

    /// Number of sessions currently holding an open transaction.
    pub fn open_transactions(&self) -> usize {
        self.core.borrow().open.len()
    }

    /// The engine configuration (shared by every session's workspace).
    pub fn config(&self) -> EngineConfig {
        self.core.borrow().committed.config.clone()
    }
}

impl Clone for Engine {
    /// Clones the committed state and bookkeeping into an independent core.
    /// With CoW storage this **shares** the committed table maps (one `Arc`
    /// bump each) instead of deep-copying rows; the first write
    /// on either side detaches its copy, so mutations never leak between a
    /// clone and the original. Open transactions are **not** carried over
    /// (their session handles would dangle); clones serve fleet setup and
    /// ground-truth bisection, which always start from a quiescent engine —
    /// both cost O(tables) for the commit-clock map instead of O(rows).
    fn clone(&self) -> Engine {
        let core = self.core.borrow();
        Engine {
            core: Rc::new(RefCell::new(EngineCore {
                committed: core.committed.clone(),
                clock: core.clock,
                versions: core.versions.clone(),
                catalog_version: core.catalog_version,
                open: BTreeMap::new(),
                next_session: core.next_session,
                conflict_aborts: core.conflict_aborts,
                cow: core.cow,
            })),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.borrow();
        write!(
            f,
            "Engine(clock {}, {} open txns)",
            core.clock,
            core.open.len()
        )
    }
}

/// One connection's handle onto a shared [`Engine`].
///
/// Outside a transaction, statements execute directly against the committed
/// state (autocommit). `BEGIN` opens a snapshot-isolated transaction; see
/// the module documentation for the semantics. Dropping a session rolls its
/// open transaction back.
pub struct EngineSession {
    core: Rc<RefCell<EngineCore>>,
    id: u64,
}

impl EngineSession {
    /// Executes one statement in this session.
    ///
    /// # Errors
    ///
    /// Engine errors as usual; additionally, `COMMIT` fails with a
    /// `serialization failure` runtime error when first-committer-wins
    /// validation rejects the transaction (which is then rolled back).
    pub fn execute(&mut self, stmt: &Statement) -> EngineResult<StatementResult> {
        self.core.borrow_mut().execute_session(self.id, stmt)
    }

    /// Runs a query in this session: against the transaction's snapshot
    /// workspace when one is open, against the committed state otherwise.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn query(&self, select: &Select, mode: ExecutionMode) -> EngineResult<ResultSet> {
        self.core.borrow_mut().query_session(self.id, select, mode)
    }

    /// Whether this session has an open transaction.
    pub fn in_transaction(&self) -> bool {
        self.core.borrow().open.contains_key(&self.id)
    }

    /// Records coverage on the shared committed tracker (workspace coverage
    /// is merged into it when a transaction closes).
    pub fn record_coverage(&self, f: impl FnOnce(&mut crate::coverage::CoverageTracker)) {
        self.core.borrow().committed.record_coverage(f);
    }
}

impl Drop for EngineSession {
    fn drop(&mut self) {
        // A dropped session rolls back: its workspace (and any uncommitted
        // writes) simply disappears from the registry.
        if let Ok(mut core) = self.core.try_borrow_mut() {
            if let Some(txn) = core.open.remove(&self.id) {
                core.merge_workspace_coverage(&txn);
            }
        }
    }
}

impl std::fmt::Debug for EngineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineSession#{}", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql_parser::parse_statement;

    fn run(session: &mut EngineSession, sql: &str) -> EngineResult<StatementResult> {
        session.execute(&parse_statement(sql).expect("test SQL parses"))
    }

    fn rows(session: &EngineSession, table: &str) -> Vec<Vec<sql_ast::Value>> {
        let stmt = parse_statement(&format!("SELECT * FROM {table}")).unwrap();
        let Statement::Select(q) = stmt else {
            unreachable!()
        };
        session.query(&q, ExecutionMode::Optimized).unwrap().rows
    }

    fn engine_with_table(faults: &[Fault]) -> Engine {
        let engine = Engine::new(EngineConfig::dynamic().with_faults(faults));
        let mut setup = engine.session();
        run(&mut setup, "CREATE TABLE t0 (c0 INTEGER)").unwrap();
        run(&mut setup, "CREATE TABLE t1 (c0 INTEGER)").unwrap();
        run(&mut setup, "INSERT INTO t0 (c0) VALUES (1)").unwrap();
        engine
    }

    #[test]
    fn snapshot_isolation_hides_concurrent_writes() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        // A's snapshot predates B's autocommit insert.
        assert_eq!(rows(&a, "t0").len(), 1);
        // A's own writes are visible to A but not to B.
        run(&mut a, "INSERT INTO t1 (c0) VALUES (9)").unwrap();
        assert_eq!(rows(&a, "t1").len(), 1);
        assert_eq!(rows(&b, "t1").len(), 0);
        run(&mut a, "COMMIT").unwrap();
        assert_eq!(rows(&b, "t1").len(), 1);
        assert_eq!(rows(&b, "t0").len(), 2);
    }

    #[test]
    fn first_committer_wins_aborts_the_second_existing_row_writer() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "UPDATE t0 SET c0 = 10").unwrap();
        run(&mut b, "UPDATE t0 SET c0 = 20").unwrap();
        run(&mut a, "COMMIT").unwrap();
        let err = run(&mut b, "COMMIT").unwrap_err();
        assert!(
            err.message.contains(SERIALIZATION_FAILURE),
            "unexpected error: {err}"
        );
        // B was rewound: only A's update landed, and B is back in autocommit.
        assert!(!b.in_transaction());
        assert_eq!(rows(&b, "t0"), vec![vec![sql_ast::Value::Integer(10)]]);
        assert_eq!(engine.conflict_aborts(), 1);
        assert_eq!(engine.cow_stats().conflicts_avoided, 0);
    }

    #[test]
    fn concurrent_appends_merge_instead_of_aborting() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (10)").unwrap();
        run(&mut b, "INSERT INTO t0 (c0) VALUES (20)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        // Table-level intent would abort B here; append claims are
        // disjoint, so B's fresh row is spliced onto A's commit.
        run(&mut b, "COMMIT").unwrap();
        let mut landed: Vec<i64> = rows(&b, "t0")
            .into_iter()
            .map(|r| match r[0] {
                sql_ast::Value::Integer(i) => i,
                _ => panic!("integer column"),
            })
            .collect();
        landed.sort_unstable();
        assert_eq!(landed, vec![1, 10, 20]);
        assert_eq!(engine.conflict_aborts(), 0);
        assert_eq!(engine.cow_stats().conflicts_avoided, 1);
    }

    #[test]
    fn pure_appender_merges_over_concurrent_update() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "UPDATE t0 SET c0 = 5").unwrap();
        run(&mut b, "INSERT INTO t0 (c0) VALUES (20)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        // B read nothing (a blind literal insert), so it serializes after
        // A's update and merges.
        run(&mut b, "COMMIT").unwrap();
        let mut landed: Vec<i64> = rows(&b, "t0")
            .into_iter()
            .map(|r| match r[0] {
                sql_ast::Value::Integer(i) => i,
                _ => panic!("integer column"),
            })
            .collect();
        landed.sort_unstable();
        assert_eq!(landed, vec![5, 20]);
        assert_eq!(engine.conflict_aborts(), 0);
    }

    #[test]
    fn observing_appender_conflicts_with_concurrent_update() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "DELETE FROM t0").unwrap();
        // B's insert *reads* t0 through its subquery: its appended value
        // depends on the snapshot, so it cannot serialize after A.
        run(
            &mut b,
            "INSERT INTO t0 (c0) VALUES ((SELECT COUNT(*) FROM t0))",
        )
        .unwrap();
        run(&mut a, "COMMIT").unwrap();
        let err = run(&mut b, "COMMIT").unwrap_err();
        assert!(err.message.contains(SERIALIZATION_FAILURE));
        assert_eq!(rows(&a, "t0").len(), 0, "only the delete landed");
    }

    #[test]
    fn keyed_appends_merge_on_disjoint_keys_and_conflict_on_collisions() {
        let engine = Engine::new(EngineConfig::dynamic());
        let mut setup = engine.session();
        run(&mut setup, "CREATE TABLE u0 (c0 INTEGER PRIMARY KEY)").unwrap();
        // Disjoint primary keys: both appenders commit and merge.
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO u0 (c0) VALUES (1)").unwrap();
        run(&mut b, "INSERT INTO u0 (c0) VALUES (2)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        run(&mut b, "COMMIT").unwrap();
        assert_eq!(rows(&a, "u0").len(), 2);
        assert_eq!(engine.conflict_aborts(), 0);
        // Colliding keys: blind merging would install a duplicate primary
        // key, so the second committer aborts.
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO u0 (c0) VALUES (7)").unwrap();
        run(&mut b, "INSERT INTO u0 (c0) VALUES (7)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        let err = run(&mut b, "COMMIT").unwrap_err();
        assert!(err.message.contains(SERIALIZATION_FAILURE));
        assert_eq!(rows(&a, "u0").len(), 3);
        // An existing-rows writer merges past a concurrent keyed append
        // when replaying the append after its updates stays unique...
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO u0 (c0) VALUES (9)").unwrap();
        run(&mut b, "UPDATE u0 SET c0 = c0 + 100").unwrap();
        run(&mut a, "COMMIT").unwrap();
        run(&mut b, "COMMIT").unwrap();
        let mut landed: Vec<i64> = rows(&a, "u0")
            .into_iter()
            .map(|r| match r[0] {
                sql_ast::Value::Integer(i) => i,
                _ => panic!("integer column"),
            })
            .collect();
        landed.sort_unstable();
        assert_eq!(landed, vec![9, 101, 102, 107]);
        // ...but conflicts when its updates collide with the appended key
        // (serially the append would have failed its uniqueness check).
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO u0 (c0) VALUES (55)").unwrap();
        run(&mut b, "UPDATE u0 SET c0 = 55 WHERE c0 = 9").unwrap();
        run(&mut a, "COMMIT").unwrap();
        let err = run(&mut b, "COMMIT").unwrap_err();
        assert!(err.message.contains(SERIALIZATION_FAILURE));
    }

    #[test]
    fn begin_shares_versions_and_first_write_clones_once() {
        let engine = engine_with_table(&[]);
        let baseline = engine.cow_stats();
        assert_eq!(
            baseline.tables_cow_cloned, 0,
            "autocommit writes on a quiescent engine never clone"
        );
        let mut a = engine.session();
        run(&mut a, "BEGIN").unwrap();
        let after_begin = engine.cow_stats();
        assert_eq!(after_begin.txn_begins, baseline.txn_begins + 1);
        assert_eq!(
            after_begin.tables_snapshotted,
            baseline.tables_snapshotted + 2,
            "both tables snapshotted by pointer"
        );
        run(&mut a, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (3)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        let after_commit = engine.cow_stats();
        assert_eq!(
            after_commit.tables_cow_cloned,
            baseline.tables_cow_cloned + 1,
            "t0 detached once, t1 never copied"
        );
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (10)").unwrap();
        run(&mut b, "INSERT INTO t1 (c0) VALUES (20)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        run(&mut b, "COMMIT").unwrap();
        assert_eq!(rows(&a, "t0").len(), 2);
        assert_eq!(rows(&a, "t1").len(), 1);
        assert_eq!(engine.conflict_aborts(), 0);
    }

    #[test]
    fn immediate_mode_declares_eager_write_intent() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN IMMEDIATE").unwrap();
        // A never touches t1, but IMMEDIATE intends to write everything.
        run(&mut a, "INSERT INTO t0 (c0) VALUES (10)").unwrap();
        run(&mut b, "INSERT INTO t1 (c0) VALUES (20)").unwrap();
        let err = run(&mut a, "COMMIT").unwrap_err();
        assert!(err.message.contains(SERIALIZATION_FAILURE));
        // DEFERRED intent is lazy: the same schedule commits.
        let mut c = engine.session();
        run(&mut c, "BEGIN DEFERRED").unwrap();
        run(&mut c, "INSERT INTO t0 (c0) VALUES (10)").unwrap();
        run(&mut b, "INSERT INTO t1 (c0) VALUES (21)").unwrap();
        run(&mut c, "COMMIT").unwrap();
    }

    #[test]
    fn rollback_discards_and_savepoints_work_in_sessions() {
        let engine = engine_with_table(&[]);
        let mut a = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        run(&mut a, "SAVEPOINT sp1").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (3)").unwrap();
        run(&mut a, "ROLLBACK TO sp1").unwrap();
        run(&mut a, "RELEASE SAVEPOINT sp1").unwrap();
        assert_eq!(rows(&a, "t0").len(), 2);
        run(&mut a, "ROLLBACK").unwrap();
        assert_eq!(rows(&a, "t0").len(), 1, "rollback discarded the insert");
        // Transaction-control errors match the single-connection wording.
        assert!(run(&mut a, "ROLLBACK").is_err());
        assert!(run(&mut a, "SAVEPOINT s").is_err());
        run(&mut a, "COMMIT").unwrap(); // autocommit no-op
    }

    #[test]
    fn dropped_session_rolls_its_transaction_back() {
        let engine = engine_with_table(&[]);
        {
            let mut a = engine.session();
            run(&mut a, "BEGIN").unwrap();
            run(&mut a, "INSERT INTO t0 (c0) VALUES (7)").unwrap();
            assert_eq!(engine.open_transactions(), 1);
        }
        assert_eq!(engine.open_transactions(), 0);
        let b = engine.session();
        assert_eq!(rows(&b, "t0").len(), 1);
    }

    #[test]
    fn dirty_read_fault_leaks_uncommitted_writes_into_snapshots() {
        let engine = engine_with_table(&[Fault::IsoDirtyRead]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (666)").unwrap();
        run(&mut b, "BEGIN").unwrap();
        // B's snapshot sees A's uncommitted row.
        assert_eq!(rows(&b, "t0").len(), 2, "dirty read");
        run(&mut a, "ROLLBACK").unwrap();
        run(&mut b, "INSERT INTO t1 (c0) VALUES (1)").unwrap();
        run(&mut b, "COMMIT").unwrap();
        // Sound semantics would leave t0 with one row — and they do here
        // (B never wrote t0, so the dirty copy was not installed), but B's
        // reads were poisoned, which is what the isolation oracle flags.
        assert_eq!(rows(&a, "t0").len(), 1);
    }

    #[test]
    fn lost_update_fault_lets_the_second_committer_clobber() {
        let engine = engine_with_table(&[Fault::IsoLostUpdate]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut b, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (10)").unwrap();
        run(&mut b, "INSERT INTO t0 (c0) VALUES (20)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        run(&mut b, "COMMIT").unwrap();
        // Sound first-committer-wins would abort B; the fault installs B's
        // snapshot-based t0, losing A's row.
        let remaining: Vec<i64> = rows(&a, "t0")
            .into_iter()
            .map(|r| match r[0] {
                sql_ast::Value::Integer(i) => i,
                _ => panic!("integer column"),
            })
            .collect();
        assert_eq!(remaining, vec![1, 20], "A's committed insert was lost");
    }

    #[test]
    fn nonrepeatable_read_fault_refreshes_unwritten_tables() {
        let engine = engine_with_table(&[Fault::IsoNonrepeatableRead]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        assert_eq!(rows(&a, "t0").len(), 1);
        run(&mut b, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        // Sound snapshot reads would still see one row; the fault re-reads
        // the committed state.
        assert_eq!(rows(&a, "t0").len(), 2, "non-repeatable read");
        // Once A writes t0, its own version pins.
        run(&mut a, "DELETE FROM t0").unwrap();
        run(&mut b, "INSERT INTO t0 (c0) VALUES (3)").unwrap();
        assert_eq!(rows(&a, "t0").len(), 0);
        run(&mut a, "ROLLBACK").unwrap();
    }

    #[test]
    fn nonrepeatable_read_fault_rewinds_a_refreshed_table_to_its_savepoint() {
        let engine = engine_with_table(&[Fault::IsoNonrepeatableRead]);
        let mut a = engine.session();
        let mut b = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut a, "SAVEPOINT s").unwrap();
        run(&mut b, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        assert_eq!(rows(&a, "t0").len(), 2, "refreshed after the savepoint");
        run(&mut a, "INSERT INTO t0 (c0) VALUES (3)").unwrap();
        run(&mut a, "ROLLBACK TO s").unwrap();
        assert_eq!(rows(&a, "t0").len(), 1, "t0 as of the savepoint");
        // A's only write was rewound, so its commit appends nothing: B's
        // row is not installed a second time.
        run(&mut a, "COMMIT").unwrap();
        assert_eq!(rows(&b, "t0").len(), 2);
    }

    #[test]
    fn single_session_txn_faults_keep_their_observables() {
        // Lost rollback: the writes land despite ROLLBACK.
        let engine = engine_with_table(&[Fault::TxnLostRollback]);
        let mut a = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        run(&mut a, "ROLLBACK").unwrap();
        assert_eq!(rows(&a, "t0").len(), 2, "fault: rollback lost");

        // Phantom commit: the writes vanish despite COMMIT.
        let engine = engine_with_table(&[Fault::TxnPhantomCommit]);
        let mut a = engine.session();
        run(&mut a, "BEGIN").unwrap();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        run(&mut a, "COMMIT").unwrap();
        assert_eq!(rows(&a, "t0").len(), 1, "fault: commit turned into abort");
    }

    #[test]
    fn engine_clone_is_deep() {
        let engine = engine_with_table(&[]);
        let copy = engine.clone();
        let mut a = engine.session();
        run(&mut a, "INSERT INTO t0 (c0) VALUES (2)").unwrap();
        assert_eq!(rows(&a, "t0").len(), 2);
        let b = copy.session();
        assert_eq!(rows(&b, "t0").len(), 1, "clone does not share storage");
    }
}
