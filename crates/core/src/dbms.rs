//! The platform's only view of a DBMS under test.
//!
//! SQLancer++ is designed to test *any* SQL-based DBMS: the platform sends
//! SQL text, observes whether the statement succeeded or failed, and — for
//! queries — retrieves result rows. Nothing else (no schema metadata
//! queries, no query plans, no DBMS-specific interfaces). The
//! [`DbmsConnection`] trait captures exactly that interface; the paper's
//! ~16-lines-per-DBMS "manual effort" corresponds to [`DialectQuirks`].

use crate::json::json_record;
use sql_ast::{row_fingerprint, Select, Statement, Value};

/// The marker substring by which the platform recognises a commit rejected
/// by the DBMS's write-write conflict detection (first-committer-wins under
/// snapshot isolation). The platform sees only SQL text and error strings —
/// this convention is the whole interface: a `COMMIT` failure whose message
/// contains this marker is a *conflict abort* (the transaction was rewound;
/// a legitimate, learnable outcome), not a dialect rejection and never a
/// bug.
pub const SERIALIZATION_FAILURE_MARKER: &str = "serialization failure";

/// The execution status of a non-query statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementOutcome {
    /// The statement executed successfully.
    Success,
    /// The statement failed; the message is opaque to the platform (only
    /// used for logging and bug reports).
    Failure(String),
}

impl StatementOutcome {
    /// `true` for [`StatementOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, StatementOutcome::Success)
    }
}

/// A query result as observed through the driver: column names and rows of
/// values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// An order-insensitive fingerprint of the result rows, used by the
    /// oracles to compare two queries' results as multisets.
    ///
    /// Each row collapses to a 128-bit hash of its canonical dedup identity
    /// (integral-real and boolean normalisation included, see
    /// [`Value::fingerprint_into`](sql_ast::Value::fingerprint_into)); the
    /// sorted hashes form the multiset key. This is allocation-free per row,
    /// unlike the legacy `Vec<String>` fingerprint it replaced — result
    /// strings are only ever rendered on the bug-report path.
    pub fn multiset_fingerprint(&self) -> Vec<u128> {
        let mut keys: Vec<u128> = self.rows.iter().map(|row| row_fingerprint(row)).collect();
        keys.sort_unstable();
        keys
    }
}

/// The per-DBMS adaptations the paper describes as "manual effort"
/// (Section 6): connection parameters aside, a handful of behavioural
/// quirks. Everything else is learned by the adaptive generator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DialectQuirks {
    /// The DBMS requires an explicit `REFRESH TABLE <t>` before inserted
    /// rows become visible to queries (CrateDB-style eventual consistency).
    pub requires_refresh: bool,
    /// The DBMS requires an explicit `COMMIT` after DML (JDBC-autocommit-off
    /// style).
    pub requires_commit: bool,
}

/// Storage-versioning effectiveness counters a backend may expose:
/// copy-on-write snapshot accounting plus the commits its row-range
/// conflict detection admitted where table-level intent would have
/// aborted. Purely observational — campaigns report them ([`crate::CampaignMetrics`])
/// but never branch on them, so the SQL-text-only testing contract is
/// untouched (a wire-protocol backend simply reports none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetrics {
    /// `BEGIN` snapshots taken by the backend's engine.
    pub txn_begins: u64,
    /// Table versions shared into snapshots at `BEGIN` (pointer bumps).
    pub tables_snapshotted: u64,
    /// Table versions actually deep-cloned on first write (CoW detaches).
    pub tables_cow_cloned: u64,
    /// Commits admitted by row-range write intent that table-level
    /// first-committer-wins validation would have aborted.
    pub conflicts_avoided: u64,
}

json_record!(struct StorageMetrics {
    txn_begins, tables_snapshotted, tables_cow_cloned, conflicts_avoided
});

impl StorageMetrics {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &StorageMetrics) {
        self.txn_begins += other.txn_begins;
        self.tables_snapshotted += other.tables_snapshotted;
        self.tables_cow_cloned += other.tables_cow_cloned;
        self.conflicts_avoided += other.conflicts_avoided;
    }

    /// Counter-wise difference against an earlier sample of the same
    /// backend (saturating, so a backend swap mid-run cannot underflow).
    pub fn since(&self, earlier: &StorageMetrics) -> StorageMetrics {
        StorageMetrics {
            txn_begins: self.txn_begins.saturating_sub(earlier.txn_begins),
            tables_snapshotted: self
                .tables_snapshotted
                .saturating_sub(earlier.tables_snapshotted),
            tables_cow_cloned: self
                .tables_cow_cloned
                .saturating_sub(earlier.tables_cow_cloned),
            conflicts_avoided: self
                .conflicts_avoided
                .saturating_sub(earlier.conflicts_avoided),
        }
    }
}

/// Engine-side coverage a backend may expose: named planes (plan
/// operators, functions, operators, coercions, statements for the
/// simulated engine; statement kinds for a wire backend) each holding the
/// set of distinct points reached.
///
/// The contract that makes the coverage atlas deterministic: the sets a
/// connection reports are **cumulative for the connection's whole
/// lifetime** — monotone across `reset`, `restore` and database
/// boundaries. A point once reached never disappears, so a union over
/// pool slots, shards or polls is exactly "every point any execution
/// reached", independent of pool size, worker count and poll cadence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineCoverage {
    /// Plane name → distinct points reached on that plane.
    pub planes: std::collections::BTreeMap<String, std::collections::BTreeSet<String>>,
}

// Engine coverage travels as its plane map: `{"plane":["point",..]}`.
json_record!(struct EngineCoverage(planes));

impl EngineCoverage {
    /// Adds every point of `other` (pure set union, order-independent).
    pub fn merge(&mut self, other: &EngineCoverage) {
        for (plane, points) in &other.planes {
            let mine = self.planes.entry(plane.clone()).or_default();
            for point in points {
                if !mine.contains(point) {
                    mine.insert(point.clone());
                }
            }
        }
    }

    /// Records a single point on a plane.
    pub fn record(&mut self, plane: &str, point: &str) {
        let mine = self.planes.entry(plane.to_string()).or_default();
        if !mine.contains(point) {
            mine.insert(point.to_string());
        }
    }

    /// Total distinct points across all planes.
    pub fn total_points(&self) -> usize {
        self.planes.values().map(|points| points.len()).sum()
    }

    /// `true` when no plane holds a point.
    pub fn is_empty(&self) -> bool {
        self.planes.values().all(|points| points.is_empty())
    }
}

/// A connection to a DBMS under test.
///
/// The platform drives the DBMS exclusively through this trait; the
/// `dbms-sim` crate implements it for the simulated dialect fleet, and a
/// real deployment would implement it over a wire protocol.
pub trait DbmsConnection {
    /// A short name identifying the DBMS (used in reports and tables).
    fn name(&self) -> &str;

    /// Executes a statement for its side effects, returning its status.
    fn execute(&mut self, sql: &str) -> StatementOutcome;

    /// Executes a query and retrieves its rows.
    ///
    /// # Errors
    ///
    /// Returns the DBMS error message when the query is rejected or fails.
    fn query(&mut self, sql: &str) -> Result<QueryResult, String>;

    /// Drops all state so a fresh database can be generated.
    fn reset(&mut self);

    /// The dialect quirks the platform must account for.
    fn quirks(&self) -> DialectQuirks {
        DialectQuirks::default()
    }

    /// Executes an already-built statement for its side effects.
    ///
    /// This is the AST fast path: backends that can consume the AST
    /// directly (the simulated fleet) override it to skip SQL rendering,
    /// lexing and parsing entirely. The default renders the statement to
    /// text and goes through [`DbmsConnection::execute`], preserving the
    /// paper's SQL-text-only contract for real wire-protocol backends.
    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        self.execute(&stmt.to_string())
    }

    /// Executes an already-built query and retrieves its rows.
    ///
    /// AST fast path analogue of [`DbmsConnection::query`]; the default
    /// renders to SQL text. Overrides must behave exactly like rendering
    /// followed by [`DbmsConnection::query`] — the parity test suite holds
    /// the simulated fleet to that contract.
    ///
    /// # Errors
    ///
    /// Returns the DBMS error message when the query is rejected or fails.
    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        self.query(&select.to_string())
    }

    /// Opens an **additional concurrent session** over the same engine, for
    /// oracles that interleave statements across connections (the isolation
    /// oracle). The returned connection shares the committed database with
    /// this one but holds its own transaction state; `reset` on a session
    /// is a no-op (only the owning connection may wipe shared state).
    ///
    /// The default returns `None`: a single-connection backend. Campaigns
    /// treat that as "multi-session workloads unsupported" (validity
    /// feedback, not a bug).
    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        None
    }

    /// Cumulative storage-versioning counters for this connection's
    /// backend, when it can observe them (the simulated fleet reads its
    /// engine's CoW accounting; wire-protocol backends return `Ok(None)`,
    /// the default). Counters are cumulative across `reset`, so campaigns
    /// difference two samples.
    ///
    /// # Errors
    ///
    /// Returns the backend error when the counters exist but cannot be read
    /// (e.g. the backend is down). Campaigns surface such errors as
    /// supervision incidents — they are never silently treated as zeros.
    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        Ok(None)
    }

    /// Marks the start of (one attempt at) an oracle test case.
    ///
    /// `case_seed` is derived deterministically from the campaign seed and
    /// the case cursor, and is **never 0**; the campaign passes `0` for
    /// non-case work (setup replay, recovery rebuilds). Backends use this
    /// purely as an observability/fault-injection hook — the default is a
    /// no-op, and implementations must not let it affect query semantics.
    fn begin_case(&mut self, case_seed: u64) {
        let _ = case_seed;
    }

    /// The connection's **virtual clock**: a monotone tick counter advanced
    /// by backend activity (the fault-injecting test decorator charges one
    /// tick per statement and jumps the clock on a hang). The supervisor's
    /// deadline watchdog samples this around each case attempt, so watchdog
    /// decisions are deterministic — wall time never enters them. The
    /// default (a constant `0`) makes the watchdog inert for backends that
    /// don't model time.
    fn virtual_ticks(&self) -> u64 {
        0
    }

    /// Captures the backend's current committed state as an opaque
    /// checkpoint that [`DbmsConnection::restore`] can return to, or `None`
    /// when the backend has no cheap snapshot facility (the default).
    ///
    /// Oracles use this as a fast path for their reset-to-setup-state
    /// bookkeeping: the simulated fleet backs it with an O(tables)
    /// copy-on-write engine clone, while wire-protocol backends fall back
    /// to the setup replay ([`replay_setup`]) — the testing contract itself
    /// never depends on checkpoints, and a restored state is observably
    /// identical to a replayed one.
    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        None
    }

    /// Returns the backend to a state previously captured by
    /// [`DbmsConnection::checkpoint`] on the *same* connection. Returns
    /// `false` when unsupported or when the checkpoint is foreign — the
    /// caller must then rebuild by replaying SQL.
    ///
    /// Restoring **orphans** any session previously obtained from
    /// [`DbmsConnection::open_session`]: such sessions may keep executing
    /// against the discarded pre-restore state without error. Callers
    /// must drop open sessions before restoring (the oracles do, between
    /// arms).
    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        let _ = checkpoint;
        false
    }

    /// Drains accumulated **operational** backend events (wall-clock-plane
    /// telemetry: pool slot checkouts and re-syncs, wire bytes, child
    /// respawns). The campaign polls this when a trace sink is attached and
    /// forwards the events to [`crate::trace::TraceSink::backend_event`].
    ///
    /// These events are explicitly *outside* the determinism contract —
    /// they may vary with pool size, wire buffering and scheduling — which
    /// is why they travel on a separate channel from the deterministic
    /// trace events. The default returns nothing (allocation-free).
    fn drain_backend_events(&mut self) -> Vec<crate::trace::BackendEvent> {
        Vec::new()
    }

    /// The engine-side coverage points this connection's backend has
    /// reached over its whole lifetime, or `None` for backends that cannot
    /// observe any (the default). Implementations must keep the sets
    /// **monotone** — cumulative across `reset` and `restore` — per the
    /// [`EngineCoverage`] contract; the coverage atlas relies on that to
    /// stay byte-identical across pool sizes and poll cadences.
    fn engine_coverage(&self) -> Option<EngineCoverage> {
        None
    }

    /// Drains accumulated **deterministic** resilience events: capability
    /// drift detected by the runtime probe, circuit-breaker trips and
    /// recoveries. Unlike [`DbmsConnection::drain_backend_events`], these
    /// travel on the deterministic plane — the campaign records each one as
    /// a supervision incident, so implementations must only emit events
    /// whose occurrence and order are invariant across pool sizes and
    /// worker counts. The default returns nothing.
    fn drain_resilience_events(&mut self) -> Vec<crate::driver::ResilienceEvent> {
        Vec::new()
    }

    /// Reports the final supervised outcome of a test case back to the
    /// connection layer: `infra_failed` is `true` when every attempt of the
    /// case was lost to infrastructure faults. The pool's circuit breakers
    /// consume this to settle their consecutive-failure accounting *eagerly*
    /// at the case boundary (a checkpoint taken between cases must capture
    /// fully resolved breaker state). The default is a no-op.
    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        let _ = (case_seed, infra_failed);
    }

    /// Serializes the connection layer's resilience state (circuit-breaker
    /// counters, backoff clock) as an opaque single-line string for the
    /// campaign checkpoint, or `None` when the layer carries none (the
    /// default). Must only be called between cases, when breaker state is
    /// settled.
    fn resilience_checkpoint(&self) -> Option<String> {
        None
    }

    /// Restores resilience state previously captured by
    /// [`DbmsConnection::resilience_checkpoint`]. Returns `false` when the
    /// payload is foreign or the layer carries no such state (the default).
    fn restore_resilience(&mut self, data: &str) -> bool {
        let _ = data;
        false
    }

    /// Marks a database boundary in the campaign loop. The pool resets its
    /// circuit-breaker ledger here (each database state starts with healthy
    /// slots, which keeps breaker incidents invariant between a multi-database
    /// campaign and its per-database partitioned shards) and enqueues one
    /// [`crate::driver::ResilienceEvent::CapabilityDrift`] per probed
    /// downgrade, so drift lands in the incident ledger once per database.
    /// The default is a no-op.
    fn note_database_boundary(&mut self) {}
}

/// One entry of a setup log: a statement that built the database state and
/// can be replayed to rebuild it.
///
/// Campaigns keep their setup logs typed ([`Statement`]): a rebuild hands
/// the backend the AST it already executed once, so backends with the AST
/// fast path skip the render → lex → parse round trip, and text-only
/// backends receive exactly the rendering they received the first time.
/// Text entries (`String`) serve the places where SQL has left the
/// program: bug reports, the reducer's input and hand-written scripts.
pub trait SetupStatement {
    /// Executes the entry on `conn`: typed entries take the AST fast path,
    /// text entries the text path.
    fn replay_on(&self, conn: &mut dyn DbmsConnection) -> StatementOutcome;

    /// The entry's SQL text.
    fn sql(&self) -> String;
}

impl SetupStatement for Statement {
    fn replay_on(&self, conn: &mut dyn DbmsConnection) -> StatementOutcome {
        conn.execute_ast(self)
    }

    fn sql(&self) -> String {
        self.to_string()
    }
}

impl SetupStatement for String {
    fn replay_on(&self, conn: &mut dyn DbmsConnection) -> StatementOutcome {
        conn.execute(self)
    }

    fn sql(&self) -> String {
        self.clone()
    }
}

/// Renders a setup log to SQL text, the form it takes in bug reports and
/// reducer input.
pub fn setup_sql<S: SetupStatement>(setup: &[S]) -> Vec<String> {
    setup.iter().map(SetupStatement::sql).collect()
}

/// Rebuilds the database state a setup log describes: reset, then replay
/// every entry in order. This is the one replay helper behind every
/// rebuild (oracle setup capture, supervisor recovery, pool re-sync,
/// resume and post-reduction rebuilds), and it applies one rule.
///
/// Ordinary replay failures are tolerated: they mirror the original
/// outcomes, which the log recorded too. An *infrastructure* failure
/// ([`crate::INFRA_MARKER`]) aborts the replay: the statement it hit was
/// skipped, so the state no longer matches the log and any verdict or
/// checkpoint taken from it would bake the corruption in.
///
/// # Errors
///
/// Returns the marked failure message; the connection is then half-built.
pub fn replay_setup<S: SetupStatement>(
    conn: &mut dyn DbmsConnection,
    setup: &[S],
) -> Result<(), String> {
    conn.reset();
    for entry in setup {
        if let StatementOutcome::Failure(message) = entry.replay_on(conn) {
            if message.contains(crate::supervisor::INFRA_MARKER) {
                return Err(message);
            }
        }
    }
    Ok(())
}

/// An opaque committed-state snapshot produced by
/// [`DbmsConnection::checkpoint`]. The payload is backend-defined (the
/// simulated fleet stores a CoW-shared engine clone); callers only hold
/// and return it.
pub struct StateCheckpoint(pub Box<dyn std::any::Any>);

impl std::fmt::Debug for StateCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StateCheckpoint(..)")
    }
}

/// Boxed trait objects forward every method — including the AST fast path
/// and session opening — so a `Box<dyn DbmsConnection>` (what
/// [`DbmsConnection::open_session`] yields) behaves exactly like the
/// concrete connection it wraps.
impl DbmsConnection for Box<dyn DbmsConnection> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        (**self).execute(sql)
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        (**self).query(sql)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn quirks(&self) -> DialectQuirks {
        (**self).quirks()
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        (**self).execute_ast(stmt)
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        (**self).query_ast(select)
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        (**self).open_session()
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        (**self).storage_metrics()
    }

    fn begin_case(&mut self, case_seed: u64) {
        (**self).begin_case(case_seed);
    }

    fn virtual_ticks(&self) -> u64 {
        (**self).virtual_ticks()
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        (**self).checkpoint()
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        (**self).restore(checkpoint)
    }

    fn drain_backend_events(&mut self) -> Vec<crate::trace::BackendEvent> {
        (**self).drain_backend_events()
    }

    fn engine_coverage(&self) -> Option<EngineCoverage> {
        (**self).engine_coverage()
    }

    fn drain_resilience_events(&mut self) -> Vec<crate::driver::ResilienceEvent> {
        (**self).drain_resilience_events()
    }

    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        (**self).note_case_outcome(case_seed, infra_failed);
    }

    fn resilience_checkpoint(&self) -> Option<String> {
        (**self).resilience_checkpoint()
    }

    fn restore_resilience(&mut self, data: &str) -> bool {
        (**self).restore_resilience(data)
    }

    fn note_database_boundary(&mut self) {
        (**self).note_database_boundary();
    }
}

/// Forces the text path of a connection: the AST fast-path methods are
/// routed through SQL rendering and the wrapped connection's text entry
/// points, exactly as a real wire-protocol backend would behave.
///
/// Used by the parity tests (text path and AST path must agree verdict for
/// verdict) and by the throughput benchmark as the baseline arm.
#[derive(Debug, Clone)]
pub struct TextOnlyConnection<C> {
    inner: C,
}

impl<C: DbmsConnection> TextOnlyConnection<C> {
    /// Wraps a connection.
    pub fn new(inner: C) -> TextOnlyConnection<C> {
        TextOnlyConnection { inner }
    }

    /// Consumes the wrapper and returns the underlying connection.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// The underlying connection.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: DbmsConnection> DbmsConnection for TextOnlyConnection<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        self.inner.execute(sql)
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.inner.query(sql)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        // Sessions opened through a text-only connection are text-only too:
        // their AST entry points must also render to SQL.
        self.inner
            .open_session()
            .map(|session| Box::new(TextOnlyConnection::new(session)) as Box<dyn DbmsConnection>)
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        self.inner.storage_metrics()
    }

    fn begin_case(&mut self, case_seed: u64) {
        self.inner.begin_case(case_seed);
    }

    fn virtual_ticks(&self) -> u64 {
        self.inner.virtual_ticks()
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        // Checkpoints capture committed state, not transport: restoring
        // through a text-only connection is observably identical to
        // replaying the setup SQL, so the wrapper forwards both.
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        self.inner.restore(checkpoint)
    }

    fn drain_backend_events(&mut self) -> Vec<crate::trace::BackendEvent> {
        self.inner.drain_backend_events()
    }

    fn engine_coverage(&self) -> Option<EngineCoverage> {
        self.inner.engine_coverage()
    }

    fn drain_resilience_events(&mut self) -> Vec<crate::driver::ResilienceEvent> {
        self.inner.drain_resilience_events()
    }

    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        self.inner.note_case_outcome(case_seed, infra_failed);
    }

    fn resilience_checkpoint(&self) -> Option<String> {
        self.inner.resilience_checkpoint()
    }

    fn restore_resilience(&mut self, data: &str) -> bool {
        self.inner.restore_resilience(data)
    }

    fn note_database_boundary(&mut self) {
        self.inner.note_database_boundary();
    }

    // `execute_ast` and `query_ast` are deliberately NOT overridden: the
    // trait defaults render to SQL text, which is the whole point of this
    // wrapper.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_insensitive_and_multiset() {
        let a = QueryResult {
            columns: vec!["c".into()],
            rows: vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
        };
        let b = QueryResult {
            columns: vec!["c".into()],
            rows: vec![vec![Value::Integer(2)], vec![Value::Integer(1)]],
        };
        assert_eq!(a.multiset_fingerprint(), b.multiset_fingerprint());
        let c = QueryResult {
            columns: vec!["c".into()],
            rows: vec![vec![Value::Integer(1)]],
        };
        assert_ne!(a.multiset_fingerprint(), c.multiset_fingerprint());
    }

    #[test]
    fn outcome_helpers() {
        assert!(StatementOutcome::Success.is_success());
        assert!(!StatementOutcome::Failure("x".into()).is_success());
    }
}
