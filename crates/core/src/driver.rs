//! Driver / Pool / Capability: the backend-agnostic connection layer.
//!
//! The campaign engine historically ran against a single
//! [`DbmsConnection`] handed to it by the caller. This module splits that
//! contract into three pieces, following the classic driver/pool shape:
//!
//! * [`Driver`] — a factory for connections to one backend, plus a
//!   [`Capability`] report describing what the backend supports. Drivers
//!   are cheap, `Send + Sync`, and shareable (`Arc<dyn Driver>`), so a
//!   fleet is just a `Vec<Arc<dyn Driver>>`.
//! * [`Capability`] — the static feature report: transactions, savepoints,
//!   multi-session support, the AST fast path, state checkpoints, storage
//!   metrics and dialect quirks. Generator gating and oracle scheduling
//!   consult capabilities (and the learned profile) instead of matching on
//!   backend names.
//! * [`Pool`] — a fixed-size, deterministic connection pool that itself
//!   implements [`DbmsConnection`], so the whole campaign stack (generator
//!   feedback, oracles, reducer, supervisor, resume) runs over it
//!   unchanged.
//!
//! # Deterministic checkout
//!
//! The pool checks out one connection per test case, chosen purely from
//! the case seed (`slot = case_seed % pool_size`). Campaign reports must
//! stay byte-identical for any pool size, which works because of a
//! campaign invariant: **between test cases the backend state is exactly
//! the replayed setup log** — the stateful oracles capture setup state on
//! entry and restore it on exit, and the read-only oracles never mutate.
//! The pool records every safe-mode statement into a *sync log*, as the
//! typed [`Statement`] it was handed (or the SQL text, for statements that
//! arrived as text); when a case checks out a slot that has not observed
//! the latest log, the slot is first re-synced by reset + replay through
//! [`replay_setup`], the helper every rebuild uses. Typed entries replay
//! through [`DbmsConnection::execute_ast`], so a backend with the AST fast
//! path never re-parses them and a text-only backend receives exactly the
//! SQL it received the first time. Re-syncs only ever replay setup DDL/DML
//! onto a freshly reset connection, so they contribute no storage-counter
//! drift and no verdict-relevant state differences.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::dbms::{
    replay_setup, DbmsConnection, DialectQuirks, QueryResult, SetupStatement, StateCheckpoint,
    StatementOutcome, StorageMetrics,
};
use crate::feature::Feature;
use crate::json::{self, json_record, Codec, Json};
use crate::supervisor::INFRA_MARKER;
use sql_ast::Statement;

/// Static feature report for one backend, returned by [`Driver::capability`].
///
/// Capabilities describe what a backend *can* do at the wire level; the
/// adaptive generator still learns the backend's SQL dialect (which
/// functions, operators and clauses parse) from validity feedback. The
/// two compose: capabilities pre-suppress whole subsystems (transactions,
/// savepoints, concurrent schedules) that the driver knows are absent,
/// and learning handles everything else.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Capability {
    /// Transaction control (`BEGIN`/`COMMIT`/`ROLLBACK`) is supported.
    pub transactions: bool,
    /// `SAVEPOINT`/`ROLLBACK TO`/`RELEASE SAVEPOINT` are supported.
    pub savepoints: bool,
    /// The backend can open additional concurrent sessions
    /// ([`DbmsConnection::open_session`]), enabling the isolation oracle.
    pub multi_session: bool,
    /// The backend accepts ASTs directly (`execute_ast`/`query_ast` do not
    /// fall back to text rendering). Descriptive: the simulated fleet keeps
    /// its AST fast path as a capability, wire backends are text-only.
    pub ast_statements: bool,
    /// The backend supports O(1) state checkpoints
    /// ([`DbmsConnection::checkpoint`]). When `false` the stateful oracles
    /// use the setup-replay fallback.
    pub state_checkpoints: bool,
    /// The backend reports storage-layer metrics
    /// ([`DbmsConnection::storage_metrics`]).
    pub storage_metrics: bool,
    /// Dialect quirk: reads only see writes after `REFRESH TABLE`.
    pub requires_refresh: bool,
    /// Dialect quirk: autocommit is off; setup writes need `COMMIT`.
    pub requires_commit: bool,
}

impl Default for Capability {
    /// The full-featured profile the campaign historically assumed
    /// (everything supported, no quirks).
    fn default() -> Capability {
        Capability {
            transactions: true,
            savepoints: true,
            multi_session: true,
            ast_statements: true,
            state_checkpoints: true,
            storage_metrics: true,
            requires_refresh: false,
            requires_commit: false,
        }
    }
}

impl Capability {
    /// The conservative profile for a text-only wire backend: SQL text in,
    /// rows out, nothing else assumed. Transactions and savepoints stay on
    /// (most real DBMSs have them; validity feedback suppresses them where
    /// they fail to parse), everything engine-internal is off.
    pub fn text_only() -> Capability {
        Capability {
            transactions: true,
            savepoints: true,
            multi_session: false,
            ast_statements: false,
            state_checkpoints: false,
            storage_metrics: false,
            requires_refresh: false,
            requires_commit: false,
        }
    }

    /// Returns the capability with transaction support set (chainable —
    /// the struct is `#[non_exhaustive]`, so foreign crates build reports
    /// from [`Capability::default`]/[`Capability::text_only`] plus these).
    pub fn with_transactions(mut self, transactions: bool) -> Capability {
        self.transactions = transactions;
        self
    }

    /// Returns the capability with savepoint support set.
    pub fn with_savepoints(mut self, savepoints: bool) -> Capability {
        self.savepoints = savepoints;
        self
    }

    /// Returns the capability with multi-session support set.
    pub fn with_multi_session(mut self, multi_session: bool) -> Capability {
        self.multi_session = multi_session;
        self
    }

    /// Returns the capability with the AST fast path set.
    pub fn with_ast_statements(mut self, ast_statements: bool) -> Capability {
        self.ast_statements = ast_statements;
        self
    }

    /// Returns the capability with checkpoint support set.
    pub fn with_state_checkpoints(mut self, state_checkpoints: bool) -> Capability {
        self.state_checkpoints = state_checkpoints;
        self
    }

    /// Returns the capability with storage-metrics support set.
    pub fn with_storage_metrics(mut self, storage_metrics: bool) -> Capability {
        self.storage_metrics = storage_metrics;
        self
    }

    /// Returns the capability with the `REFRESH TABLE` quirk set.
    pub fn with_requires_refresh(mut self, requires_refresh: bool) -> Capability {
        self.requires_refresh = requires_refresh;
        self
    }

    /// Returns the capability with the explicit-`COMMIT` quirk set.
    pub fn with_requires_commit(mut self, requires_commit: bool) -> Capability {
        self.requires_commit = requires_commit;
        self
    }

    /// The dialect quirks implied by this capability report.
    pub fn quirks(&self) -> DialectQuirks {
        DialectQuirks {
            requires_refresh: self.requires_refresh,
            requires_commit: self.requires_commit,
        }
    }

    /// Statement features the generator should never draw against this
    /// backend, derived from the capability flags. These seed the
    /// generator's capability suppression set; learned suppression handles
    /// the rest of the dialect.
    pub fn unsupported_statement_features(&self) -> BTreeSet<Feature> {
        let mut out = BTreeSet::new();
        if !self.transactions {
            for name in ["STMT_BEGIN", "STMT_COMMIT", "STMT_ROLLBACK"] {
                out.insert(Feature::statement(name));
            }
        }
        if !self.savepoints {
            for name in [
                "STMT_SAVEPOINT",
                "STMT_ROLLBACK_TO",
                "STMT_RELEASE_SAVEPOINT",
            ] {
                out.insert(Feature::statement(name));
            }
        }
        out
    }
}

/// A factory for connections to one backend.
///
/// A driver is the fleet-level handle for a backend: it knows the
/// backend's name, reports its [`Capability`], and mints fresh
/// connections. Drivers are shared across runner threads as
/// `Arc<dyn Driver>`; connections themselves stay thread-local.
pub trait Driver: Send + Sync {
    /// Stable backend name (used in reports and checkpoints).
    fn name(&self) -> &str;
    /// The backend's static capability report.
    fn capability(&self) -> Capability;
    /// Opens a fresh connection to the backend.
    fn connect(&self) -> Result<Box<dyn DbmsConnection>, String>;
}

/// A deterministic-plane resilience event produced by the pool's
/// self-healing layer and drained by the supervisor at every case boundary
/// ([`DbmsConnection::drain_resilience_events`]). Each event becomes a
/// supervision incident, so everything here must be invariant across pool
/// sizes and worker counts: capability drift derives from the probe (same
/// backend, same script), breaker accounting is keyed to *virtual* slots
/// and a checkout-counting clock, never to physical connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceEvent {
    /// The runtime probe contradicted the driver's static capability claim
    /// for one feature family. Enqueued once per database boundary.
    CapabilityDrift {
        /// Family plus the backend's rejection message.
        detail: String,
    },
    /// A virtual slot accumulated [`BREAKER_THRESHOLD`] consecutive
    /// infrastructure-classified case failures and opened its breaker.
    BreakerTripped {
        /// The virtual slot (case seed modulo [`BREAKER_SLOTS`]).
        vslot: usize,
        /// The resilience clock (checkouts this database) at the trip.
        clock: u64,
        /// The clock value at which the breaker half-opens for a probe.
        until: u64,
    },
    /// A half-open breaker's probe case completed and the slot was
    /// readmitted.
    BreakerRecovered {
        /// The virtual slot.
        vslot: usize,
        /// The resilience clock at readmission.
        clock: u64,
    },
}

/// Number of virtual breaker slots. Breakers guard *virtual* slots
/// (`case_seed % BREAKER_SLOTS`) rather than physical connections so that
/// trip/recovery sequences — which become incidents — are identical for
/// every pool size. Physical routing folds the virtual slot onto the pool
/// (`vslot % size`), which coincides with the historical `seed % size`
/// checkout for the pool sizes the determinism gates exercise (divisors of
/// `BREAKER_SLOTS`).
pub const BREAKER_SLOTS: usize = 4;

/// Consecutive infra-classified case failures that open a virtual slot's
/// breaker. Two is deliberately aggressive: the injected persistent faults
/// (crash-persist, post-respawn flap) lose exactly two attempts, so the
/// chaos gates exercise both the trip and the recovery path.
pub const BREAKER_THRESHOLD: u32 = 2;

/// Base backoff, in resilience-clock ticks (checkouts), before an open
/// breaker half-opens. Doubles per consecutive re-trip.
pub const BREAKER_BACKOFF_BASE: u64 = 8;

/// Cap on the backoff doubling exponent.
pub const BREAKER_MAX_BACKOFF_LEVEL: u32 = 6;

/// Circuit-breaker state of one virtual slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: cases route to the slot normally.
    #[default]
    Closed,
    /// Tripped: checkout detours around the slot until the clock reaches
    /// `until`.
    Open { until: u64 },
    /// Backoff expired: the next case on this virtual slot is the
    /// readmission probe.
    HalfOpen,
}

/// One virtual slot's breaker.
#[derive(Debug, Clone, Default)]
struct Breaker {
    state: BreakerState,
    /// Consecutive infra-classified case failures while closed.
    consecutive: u32,
    /// Backoff doubling exponent (grows on half-open re-trips).
    backoff_level: u32,
    /// Wall-clock-plane telemetry: trips since the last drain.
    trips: u64,
    /// Wall-clock-plane telemetry: recoveries since the last drain.
    recoveries: u64,
}

/// The ledger form of a breaker state: `"closed"`, `"half"`, or an open
/// breaker's half-open tick.
impl Codec for BreakerState {
    fn encode(&self) -> Json {
        match self {
            BreakerState::Closed => "closed".into(),
            BreakerState::HalfOpen => "half".into(),
            BreakerState::Open { until } => (*until).into(),
        }
    }

    fn decode(json: &Json) -> Result<BreakerState, String> {
        match json {
            Json::U64(until) => Ok(BreakerState::Open { until: *until }),
            _ if json.as_str()? == "closed" => Ok(BreakerState::Closed),
            _ if json.as_str()? == "half" => Ok(BreakerState::HalfOpen),
            _ => Err(format!("unknown breaker state {json}")),
        }
    }
}

// The deterministic fields only: trips/recoveries are wall-plane telemetry.
json_record!(struct Breaker [consecutive, state, backoff_level, ..]);

/// The pool's resilience ledger, as checkpointed: the breaker clock and
/// every virtual slot's breaker.
struct Ledger {
    clock: u64,
    breakers: Vec<Breaker>,
}
json_record!(struct Ledger { clock, breakers });

impl Breaker {
    /// Resets the deterministic fields at a database boundary, keeping the
    /// wall-plane telemetry counters for the next drain.
    fn reset_deterministic(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive = 0;
        self.backoff_level = 0;
    }
}

/// The in-flight case the pool is tracking for breaker accounting.
#[derive(Debug, Clone, Copy)]
struct PendingCase {
    seed: u64,
    /// The physical slot the case's first attempt was routed to. Retries
    /// stay on it: backends meter injected-fault persistence by
    /// per-connection attempt counts, so hopping a retry to a sibling slot
    /// would reset that meter and let the verdict vary with the pool size.
    physical: usize,
    /// Whether the current attempt's failure was already counted (an
    /// infra-marked statement outcome was observed inline). Attempts that
    /// die by panic are counted at the retry checkout or the final
    /// [`DbmsConnection::note_case_outcome`] instead.
    noted: bool,
}

/// The savepoint name the capability probe takes and releases.
const PROBE_SAVEPOINT: &str = "pool_probe";

/// Runs the deterministic capability probe script against a connection and
/// returns the downgraded capability plus one drift detail per family the
/// backend rejected at runtime. Statements run directly on the slot
/// connection (never through the pool), in safe mode, and only *claimed*
/// families are probed — the probe downgrades, it never upgrades.
///
/// # Errors
///
/// An [`INFRA_MARKER`] statement outcome is a transport failure, not a
/// family rejection: the probe aborts with the backend's message.
fn run_probe(
    conn: &mut dyn DbmsConnection,
    claimed: &Capability,
) -> Result<(Capability, Vec<String>), String> {
    fn exec(conn: &mut dyn DbmsConnection, stmt: Statement) -> Result<Result<(), String>, String> {
        match conn.execute_ast(&stmt) {
            StatementOutcome::Success => Ok(Ok(())),
            StatementOutcome::Failure(msg) if msg.contains(INFRA_MARKER) => Err(msg),
            StatementOutcome::Failure(msg) => Ok(Err(msg)),
        }
    }
    let mut probed = claimed.clone();
    let mut drift: Vec<String> = Vec::new();
    if claimed.transactions {
        match exec(conn, Statement::begin())? {
            Ok(()) => {
                if let Err(msg) = exec(conn, Statement::Rollback)? {
                    probed.transactions = false;
                    drift.push(format!(
                        "transactions: static capability claims support but the probe's ROLLBACK was rejected: {msg}"
                    ));
                }
            }
            Err(msg) => {
                probed.transactions = false;
                drift.push(format!(
                    "transactions: static capability claims support but the probe's BEGIN was rejected: {msg}"
                ));
            }
        }
    }
    // Savepoints are probed inside a transaction, exactly as the oracles
    // use them; without transaction support there is no portable probe, so
    // the claim stands and validity feedback handles the rest.
    if claimed.savepoints && probed.transactions && exec(conn, Statement::begin())?.is_ok() {
        match exec(conn, Statement::Savepoint(PROBE_SAVEPOINT.into()))? {
            Ok(()) => {
                if let Err(msg) = exec(conn, Statement::ReleaseSavepoint(PROBE_SAVEPOINT.into()))? {
                    probed.savepoints = false;
                    drift.push(format!(
                        "savepoints: static capability claims support but the probe's RELEASE SAVEPOINT was rejected: {msg}"
                    ));
                }
            }
            Err(msg) => {
                probed.savepoints = false;
                drift.push(format!(
                    "savepoints: static capability claims support but the probe's SAVEPOINT was rejected: {msg}"
                ));
            }
        }
        let _ = exec(conn, Statement::Rollback)?;
    }
    if claimed.state_checkpoints && conn.checkpoint().is_none() {
        probed.state_checkpoints = false;
        drift.push(
            "state_checkpoints: static capability claims support but the checkpoint probe returned no snapshot"
                .to_string(),
        );
    }
    if claimed.multi_session && conn.open_session().is_none() {
        probed.multi_session = false;
        drift.push(
            "multi_session: static capability claims support but the probe could not open a second session"
                .to_string(),
        );
    }
    Ok((probed, drift))
}

/// One entry of the pool's sync log: a safe-mode statement as the pool was
/// handed it, replayed through the same entry point.
enum SyncEntry {
    /// Arrived through [`DbmsConnection::execute_ast`].
    Typed(Statement),
    /// Arrived as SQL text through [`DbmsConnection::execute`].
    Text(String),
}

impl SetupStatement for SyncEntry {
    fn replay_on(&self, conn: &mut dyn DbmsConnection) -> StatementOutcome {
        match self {
            SyncEntry::Typed(stmt) => conn.execute_ast(stmt),
            SyncEntry::Text(sql) => conn.execute(sql),
        }
    }

    fn sql(&self) -> String {
        match self {
            SyncEntry::Typed(stmt) => stmt.to_string(),
            SyncEntry::Text(sql) => sql.clone(),
        }
    }
}

/// One pooled connection slot.
struct Slot {
    conn: Option<Box<dyn DbmsConnection>>,
    /// The sync-log epoch this slot last synced at.
    epoch: u64,
    /// How many sync-log statements this slot has observed.
    synced: usize,
    /// Wall-clock-plane telemetry: checkouts since the last drain.
    checkouts: u64,
    /// Wall-clock-plane telemetry: re-syncs since the last drain.
    resyncs: u64,
    /// Wall-clock-plane telemetry: statements replayed by those re-syncs.
    replayed: u64,
    /// Storage-counter deltas caused by capability probes on this slot.
    /// Probes run real statements (`BEGIN`/`ROLLBACK` bump engine
    /// counters), and how often a slot is probed depends on the pool size,
    /// so [`Pool::storage_metrics`] subtracts this accumulator to keep the
    /// reported sum invariant.
    probe_overhead: StorageMetrics,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            conn: None,
            epoch: 0,
            synced: 0,
            checkouts: 0,
            resyncs: 0,
            replayed: 0,
            probe_overhead: StorageMetrics::default(),
        }
    }
}

/// A fixed-size, deterministic connection pool over one [`Driver`].
///
/// The pool implements [`DbmsConnection`], so campaigns run over it
/// unchanged. [`DbmsConnection::begin_case`] doubles as the checkout
/// point: a non-zero case seed selects slot `seed % size` (seed-ordered
/// checkout), re-syncing the slot from the recorded setup log first if it
/// is stale. See the module docs for why this keeps reports byte-identical
/// across pool sizes.
pub struct Pool {
    driver: Arc<dyn Driver>,
    capability: Capability,
    name: String,
    slots: Vec<Slot>,
    active: usize,
    /// Safe-mode statement log: the statements that, replayed onto a fresh
    /// connection, reproduce the between-cases backend state.
    sync_log: Vec<SyncEntry>,
    /// Bumped on every safe-mode reset; slots with an older epoch are
    /// stale and re-sync on checkout.
    epoch: u64,
    /// Whether a test case is active (between `begin_case(seed)` and the
    /// next `begin_case(0)`). In-case statements are oracle-internal and
    /// are not recorded: stateful oracles restore setup state on exit.
    in_case: bool,
    /// Per-virtual-slot circuit breakers (see [`BREAKER_SLOTS`]).
    breakers: Vec<Breaker>,
    /// The resilience clock: non-zero checkouts since the last database
    /// boundary. Drives breaker backoff — virtual time, never wall clock.
    resilience_clock: u64,
    /// The case currently being tracked for breaker accounting.
    pending_case: Option<PendingCase>,
    /// Deterministic-plane events awaiting a drain.
    resilience_events: Vec<ResilienceEvent>,
    /// Drift details from the connect-time probe: one per capability family
    /// the backend rejected despite the driver's static claim. Re-announced
    /// as [`ResilienceEvent::CapabilityDrift`] at every database boundary.
    drift_details: Vec<String>,
    /// Wall-clock-plane telemetry: probes run since the last drain.
    probes_run: u64,
    /// Wall-clock-plane telemetry: family downgrades observed by those
    /// probes.
    probe_downgrades: u64,
}

impl Pool {
    /// Creates a pool of `size` connections over `driver`. The first slot
    /// connects eagerly and runs the capability probe, so configuration
    /// errors and transport-dead backends surface here; the remaining
    /// slots connect (and are probed) lazily on first checkout.
    pub fn new(driver: Arc<dyn Driver>, size: usize) -> Result<Pool, String> {
        let size = size.max(1);
        let mut slots: Vec<Slot> = (0..size).map(|_| Slot::empty()).collect();
        let mut conn = driver.connect()?;
        // Runtime capability probing: trust the backend's observed behavior
        // over the driver's static claim. The probed (downgraded-only)
        // capability is what `Campaign::apply_capability` sees, so a lying
        // driver degrades gracefully instead of spraying invalid cases.
        let claimed = driver.capability();
        conn.begin_case(0);
        let before = conn.storage_metrics().ok().flatten();
        let (capability, drift_details) = run_probe(conn.as_mut(), &claimed)
            .map_err(|msg| format!("capability probe failed: {msg}"))?;
        let after = conn.storage_metrics().ok().flatten();
        if let (Some(b), Some(a)) = (before, after) {
            slots[0].probe_overhead.merge(&a.since(&b));
        }
        conn.reset();
        slots[0].conn = Some(conn);
        Ok(Pool {
            probe_downgrades: drift_details.len() as u64,
            capability,
            name: driver.name().to_string(),
            driver,
            slots,
            active: 0,
            sync_log: Vec::new(),
            epoch: 0,
            in_case: false,
            breakers: vec![Breaker::default(); BREAKER_SLOTS],
            resilience_clock: 0,
            pending_case: None,
            resilience_events: Vec::new(),
            drift_details,
            probes_run: 1,
        })
    }

    /// The pool size.
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// The backend's capability report: the driver's static claim minus
    /// every family the connect-time probe saw the backend reject.
    pub fn capability(&self) -> &Capability {
        &self.capability
    }

    /// Drift details from the connect-time probe (empty for a backend that
    /// honors its static claim).
    pub fn drift_details(&self) -> &[String] {
        &self.drift_details
    }

    /// The slot index the last checkout selected.
    pub fn active_slot(&self) -> usize {
        self.active
    }

    /// Ensures slot `index` has a live connection and returns it.
    fn connected(&mut self, index: usize) -> &mut Box<dyn DbmsConnection> {
        if self.slots[index].conn.is_none() {
            match self.driver.connect() {
                Ok(conn) => self.slots[index].conn = Some(conn),
                // Connection loss mid-campaign is an infra incident, not a
                // logic bug: panic with the marker so the supervisor
                // classifies and retries.
                Err(err) => panic!("{INFRA_MARKER} pool connect failed: {err}"),
            }
        }
        self.slots[index]
            .conn
            .as_mut()
            .expect("slot connected above")
    }

    /// Brings slot `index` up to date with the sync log: probe the
    /// connection's capabilities if it was just connected, then reset and
    /// replay the recorded setup statements (the checkpoint fallback path).
    ///
    /// The sync stamp is only written after a fully successful replay: a
    /// replay statement failing with an [`INFRA_MARKER`] outcome panics
    /// (marked, so the supervisor classifies and retries) *without*
    /// marking the slot synced — a half-built slot must never masquerade
    /// as current.
    fn sync_slot(&mut self, index: usize) {
        let stale = self.slots[index].epoch != self.epoch
            || self.slots[index].synced != self.sync_log.len();
        let fresh = self.slots[index].conn.is_none();
        if !stale && !fresh {
            return;
        }
        self.connected(index);
        if fresh {
            self.probe_fresh_slot(index);
        }
        let Pool {
            slots, sync_log, ..
        } = self;
        let slot = &mut slots[index];
        let conn = slot.conn.as_mut().expect("connected above");
        // Safe mode for the replay: an armed fault must not fire mid-sync.
        conn.begin_case(0);
        // Replay outcomes mirror the original safe-mode outcomes; ordinary
        // failures were recorded too and fail identically here. A *marked*
        // outcome is a garbled/dropped frame inside the replay itself —
        // infrastructure, not history.
        if let Err(msg) = replay_setup(conn.as_mut(), sync_log) {
            panic!("{INFRA_MARKER} pool re-sync replay failed: {msg}");
        }
        slot.epoch = self.epoch;
        slot.synced = sync_log.len();
        slot.resyncs += 1;
        slot.replayed += sync_log.len() as u64;
    }

    /// Probes a just-connected slot. Probe results here feed the wall-clock
    /// telemetry plane only — the *applied* capability is fixed at
    /// construction, because how often slots connect depends on the pool
    /// size — so a slot that merely fell behind the sync log is not
    /// re-probed. A transport failure inside the probe is still a marked
    /// panic (deterministically absent for the in-process backends, whose
    /// faults stay dormant in safe mode).
    fn probe_fresh_slot(&mut self, index: usize) {
        let slot = &mut self.slots[index];
        let conn = slot.conn.as_mut().expect("connected before probing");
        conn.begin_case(0);
        let before = conn.storage_metrics().ok().flatten();
        let result = run_probe(conn.as_mut(), &self.capability);
        let after = conn.storage_metrics().ok().flatten();
        if let (Some(b), Some(a)) = (before, after) {
            slot.probe_overhead.merge(&a.since(&b));
        }
        self.probes_run += 1;
        match result {
            Ok((_probed, drift)) => self.probe_downgrades += drift.len() as u64,
            Err(msg) => panic!("{INFRA_MARKER} capability probe failed on re-sync: {msg}"),
        }
    }

    /// The virtual breaker slot guarding a case.
    fn vslot(case_seed: u64) -> usize {
        (case_seed % BREAKER_SLOTS as u64) as usize
    }

    /// Checkout-time routing query: returns `true` when the virtual slot's
    /// breaker is open (detour), transitioning expired breakers to
    /// half-open first.
    fn breaker_is_open(&mut self, vslot: usize) -> bool {
        let clock = self.resilience_clock;
        let breaker = &mut self.breakers[vslot];
        if let BreakerState::Open { until } = breaker.state {
            if clock >= until {
                breaker.state = BreakerState::HalfOpen;
                return false;
            }
            return true;
        }
        false
    }

    /// Counts one infra-classified case failure against a virtual slot.
    fn breaker_note_failure(&mut self, vslot: usize) {
        let clock = self.resilience_clock;
        let breaker = &mut self.breakers[vslot];
        match breaker.state {
            BreakerState::Closed => {
                breaker.consecutive += 1;
                if breaker.consecutive >= BREAKER_THRESHOLD {
                    let until = clock + (BREAKER_BACKOFF_BASE << breaker.backoff_level);
                    breaker.state = BreakerState::Open { until };
                    breaker.consecutive = 0;
                    breaker.trips += 1;
                    self.resilience_events
                        .push(ResilienceEvent::BreakerTripped {
                            vslot,
                            clock,
                            until,
                        });
                }
            }
            BreakerState::HalfOpen => {
                // The readmission probe failed: reopen with doubled backoff.
                breaker.backoff_level = (breaker.backoff_level + 1).min(BREAKER_MAX_BACKOFF_LEVEL);
                let until = clock + (BREAKER_BACKOFF_BASE << breaker.backoff_level);
                breaker.state = BreakerState::Open { until };
                breaker.trips += 1;
                self.resilience_events
                    .push(ResilienceEvent::BreakerTripped {
                        vslot,
                        clock,
                        until,
                    });
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Counts one successfully completed case on a virtual slot.
    fn breaker_note_success(&mut self, vslot: usize) {
        let clock = self.resilience_clock;
        let breaker = &mut self.breakers[vslot];
        breaker.consecutive = 0;
        if breaker.state == BreakerState::HalfOpen {
            breaker.state = BreakerState::Closed;
            breaker.backoff_level = 0;
            breaker.recoveries += 1;
            self.resilience_events
                .push(ResilienceEvent::BreakerRecovered { vslot, clock });
        }
    }

    /// Records an infra-marked statement outcome observed mid-case: the
    /// current attempt has failed, count it once.
    fn note_infra_outcome(&mut self, message: &str) {
        if !self.in_case || !message.contains(INFRA_MARKER) {
            return;
        }
        let Some(pending) = self.pending_case else {
            return;
        };
        if pending.noted {
            return;
        }
        if let Some(pending) = self.pending_case.as_mut() {
            pending.noted = true;
        }
        self.breaker_note_failure(Self::vslot(pending.seed));
    }

    /// Marks the active slot as having observed the full sync log.
    fn mark_active_synced(&mut self) {
        let active = self.active;
        self.slots[active].epoch = self.epoch;
        self.slots[active].synced = self.sync_log.len();
    }
}

impl DbmsConnection for Pool {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        let active = self.active;
        let outcome = self.connected(active).execute(sql);
        if !self.in_case {
            self.sync_log.push(SyncEntry::Text(sql.to_string()));
            self.mark_active_synced();
        }
        if let StatementOutcome::Failure(msg) = &outcome {
            self.note_infra_outcome(msg);
        }
        outcome
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        let active = self.active;
        let result = self.connected(active).query(sql);
        if let Err(msg) = &result {
            self.note_infra_outcome(msg);
        }
        result
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        let active = self.active;
        let outcome = self.connected(active).execute_ast(stmt);
        if !self.in_case {
            self.sync_log.push(SyncEntry::Typed(stmt.clone()));
            self.mark_active_synced();
        }
        if let StatementOutcome::Failure(msg) = &outcome {
            self.note_infra_outcome(msg);
        }
        outcome
    }

    fn query_ast(&mut self, select: &sql_ast::Select) -> Result<QueryResult, String> {
        let active = self.active;
        let result = self.connected(active).query_ast(select);
        if let Err(msg) = &result {
            self.note_infra_outcome(msg);
        }
        result
    }

    fn reset(&mut self) {
        if self.in_case {
            // Oracle-internal rebuild: state is restored before the case
            // ends, so the between-cases log stays authoritative.
            let active = self.active;
            self.connected(active).reset();
        } else {
            self.epoch += 1;
            self.sync_log.clear();
            let active = self.active;
            self.connected(active).reset();
            self.mark_active_synced();
        }
    }

    fn quirks(&self) -> DialectQuirks {
        self.capability.quirks()
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        let active = self.active;
        self.connected(active).open_session()
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        // Deterministic across pool sizes: per-case contributions land on
        // seed-chosen slots, re-syncs (reset + replay onto a fresh engine)
        // contribute zero, and probe-caused counter bumps — whose count
        // *does* depend on the pool size — are subtracted per slot.
        let mut total: Option<StorageMetrics> = None;
        for slot in &self.slots {
            if let Some(conn) = slot.conn.as_ref() {
                if let Some(metrics) = conn.storage_metrics()? {
                    let metrics = metrics.since(&slot.probe_overhead);
                    match total.as_mut() {
                        Some(sum) => sum.merge(&metrics),
                        None => total = Some(metrics),
                    }
                }
            }
        }
        Ok(total)
    }

    fn begin_case(&mut self, case_seed: u64) {
        if case_seed == 0 {
            self.in_case = false;
            let active = self.active;
            if self.slots[active].conn.is_some() {
                self.connected(active).begin_case(0);
            }
        } else {
            // The resilience clock ticks once per checkout (retries
            // included) — pure virtual time, identical for every pool size
            // and worker count.
            self.resilience_clock += 1;
            // A repeated seed is a supervisor retry: the previous attempt
            // died without an observable statement outcome (a panic or a
            // watchdog overrun). Settle it against the breaker before
            // routing the retry, and pin the retry to the slot the first
            // attempt ran on (see [`PendingCase::physical`]).
            let retry_slot = match self.pending_case.take() {
                Some(pending) if pending.seed == case_seed => {
                    if !pending.noted {
                        self.breaker_note_failure(Self::vslot(case_seed));
                    }
                    Some(pending.physical.min(self.slots.len() - 1))
                }
                _ => None,
            };
            // Seed-ordered checkout through the virtual breaker slot: the
            // physical slot is a pure function of the seed and the breaker
            // state (itself seed-planned under injected faults), so retries
            // land deterministically and reports are identical for any pool
            // size. An open breaker detours fresh cases to the next slot;
            // detours are verdict-neutral because every synced slot serves
            // identical state.
            let vslot = Self::vslot(case_seed);
            let base = vslot % self.slots.len();
            let target = match retry_slot {
                Some(slot) => slot,
                None if self.breaker_is_open(vslot) => (base + 1) % self.slots.len(),
                None => base,
            };
            self.pending_case = Some(PendingCase {
                seed: case_seed,
                physical: target,
                noted: false,
            });
            self.sync_slot(target);
            self.active = target;
            self.in_case = true;
            self.slots[target].checkouts += 1;
            self.connected(target).begin_case(case_seed);
        }
    }

    fn virtual_ticks(&self) -> u64 {
        self.slots[self.active]
            .conn
            .as_ref()
            .map(|conn| conn.virtual_ticks())
            .unwrap_or(0)
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        let active = self.active;
        self.connected(active).checkpoint()
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        let active = self.active;
        self.connected(active).restore(checkpoint)
    }

    fn engine_coverage(&self) -> Option<crate::dbms::EngineCoverage> {
        // Deterministic across pool sizes: each slot's sets are cumulative
        // for the slot's lifetime (the EngineCoverage monotonicity
        // contract), and the first execution to reach a point always
        // records it on whichever slot it ran, so the union over slots is
        // exactly "every point any execution reached".
        let mut total: Option<crate::dbms::EngineCoverage> = None;
        for slot in &self.slots {
            if let Some(conn) = slot.conn.as_ref() {
                if let Some(coverage) = conn.engine_coverage() {
                    match total.as_mut() {
                        Some(sum) => sum.merge(&coverage),
                        None => total = Some(coverage),
                    }
                }
            }
        }
        total
    }

    fn drain_backend_events(&mut self) -> Vec<crate::trace::BackendEvent> {
        // Wall-clock plane only: checkout, re-sync and probe counts depend
        // on the pool size by construction, so they must never feed the
        // deterministic trace summary. (Breaker trips/recoveries *are*
        // deterministic — their authoritative record is the incident
        // ledger; the copies here are telemetry convenience.)
        let mut events = Vec::new();
        if self.probes_run > 0 {
            events.push(crate::trace::BackendEvent::CapabilityProbes {
                count: self.probes_run,
                downgrades: self.probe_downgrades,
            });
            self.probes_run = 0;
            self.probe_downgrades = 0;
        }
        for (vslot, breaker) in self.breakers.iter_mut().enumerate() {
            if breaker.trips > 0 {
                events.push(crate::trace::BackendEvent::BreakerTrips {
                    slot: vslot,
                    count: breaker.trips,
                });
                breaker.trips = 0;
            }
            if breaker.recoveries > 0 {
                events.push(crate::trace::BackendEvent::BreakerRecoveries {
                    slot: vslot,
                    count: breaker.recoveries,
                });
                breaker.recoveries = 0;
            }
        }
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.checkouts > 0 {
                events.push(crate::trace::BackendEvent::SlotCheckouts {
                    slot: index,
                    count: slot.checkouts,
                });
                slot.checkouts = 0;
            }
            if slot.resyncs > 0 {
                events.push(crate::trace::BackendEvent::SlotResyncs {
                    slot: index,
                    count: slot.resyncs,
                    replayed: slot.replayed,
                });
                slot.resyncs = 0;
                slot.replayed = 0;
            }
            if let Some(conn) = slot.conn.as_mut() {
                events.extend(conn.drain_backend_events());
            }
        }
        events
    }

    fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        std::mem::take(&mut self.resilience_events)
    }

    fn note_case_outcome(&mut self, case_seed: u64, infra_failed: bool) {
        let Some(pending) = self.pending_case.take() else {
            return;
        };
        if pending.seed != case_seed {
            // Foreign settlement (a runner that skipped checkout): put the
            // tracked case back and ignore.
            self.pending_case = Some(pending);
            return;
        }
        let vslot = Self::vslot(case_seed);
        if infra_failed {
            if !pending.noted {
                self.breaker_note_failure(vslot);
            }
        } else {
            self.breaker_note_success(vslot);
        }
    }

    fn resilience_checkpoint(&self) -> Option<String> {
        let breakers = self.breakers.clone();
        let ledger = Ledger {
            clock: self.resilience_clock,
            breakers,
        };
        Some(ledger.encode().to_string())
    }

    fn restore_resilience(&mut self, data: &str) -> bool {
        match json::parse(data).and_then(|json| Ledger::decode(&json)) {
            Ok(ledger) if ledger.breakers.len() == BREAKER_SLOTS => {
                self.resilience_clock = ledger.clock;
                self.breakers = ledger.breakers;
                self.pending_case = None;
                true
            }
            _ => false,
        }
    }

    fn note_database_boundary(&mut self) {
        // Each database state starts with healthy slots and a zeroed
        // backoff clock: this keeps breaker incidents invariant between a
        // multi-database campaign and its per-database partitioned shards.
        self.resilience_clock = 0;
        self.pending_case = None;
        for breaker in &mut self.breakers {
            breaker.reset_deterministic();
        }
        // Re-announce capability drift once per database, so the incident
        // ledger carries the lie for every database state it affected.
        for detail in &self.drift_details {
            self.resilience_events
                .push(ResilienceEvent::CapabilityDrift {
                    detail: detail.clone(),
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capability_is_full_featured() {
        let cap = Capability::default();
        assert!(cap.transactions && cap.savepoints && cap.multi_session);
        assert!(cap.ast_statements && cap.state_checkpoints && cap.storage_metrics);
        assert!(cap.unsupported_statement_features().is_empty());
    }

    #[test]
    fn text_only_capability_disables_engine_internals() {
        let cap = Capability::text_only();
        assert!(cap.transactions && cap.savepoints);
        assert!(!cap.multi_session && !cap.ast_statements);
        assert!(!cap.state_checkpoints && !cap.storage_metrics);
    }

    #[test]
    fn capability_without_transactions_suppresses_txn_statements() {
        let cap = Capability {
            transactions: false,
            savepoints: false,
            ..Capability::default()
        };
        let features = cap.unsupported_statement_features();
        for name in [
            "STMT_BEGIN",
            "STMT_COMMIT",
            "STMT_ROLLBACK",
            "STMT_SAVEPOINT",
            "STMT_ROLLBACK_TO",
            "STMT_RELEASE_SAVEPOINT",
        ] {
            assert!(
                features.contains(&Feature::statement(name)),
                "missing {name}"
            );
        }
    }

    #[test]
    fn capability_quirks_round_trip() {
        let cap = Capability {
            requires_refresh: true,
            requires_commit: true,
            ..Capability::default()
        };
        let quirks = cap.quirks();
        assert!(quirks.requires_refresh && quirks.requires_commit);
    }

    /// A scriptable backend for pool tests: accepts everything, except that
    /// the lying variant rejects transaction control at runtime while its
    /// driver still claims support.
    struct ProbeConn {
        lie_transactions: bool,
    }

    impl DbmsConnection for ProbeConn {
        fn name(&self) -> &str {
            "probe-toy"
        }
        fn execute(&mut self, sql: &str) -> StatementOutcome {
            let upper = sql.trim().to_ascii_uppercase();
            if self.lie_transactions
                && (upper.starts_with("BEGIN")
                    || upper.starts_with("COMMIT")
                    || upper.starts_with("ROLLBACK"))
            {
                return StatementOutcome::Failure("transaction control rejected by backend".into());
            }
            StatementOutcome::Success
        }
        fn query(&mut self, _sql: &str) -> Result<QueryResult, String> {
            Ok(QueryResult {
                columns: vec!["c0".into()],
                rows: vec![],
            })
        }
        fn reset(&mut self) {}
        fn quirks(&self) -> DialectQuirks {
            DialectQuirks::default()
        }
    }

    struct ProbeDriver {
        lie_transactions: bool,
    }

    impl Driver for ProbeDriver {
        fn name(&self) -> &str {
            "probe-toy"
        }
        fn capability(&self) -> Capability {
            // Claims transactions and savepoints; the engine-internal
            // families are off so the probe exercises the wire families.
            Capability::text_only().with_ast_statements(false)
        }
        fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
            Ok(Box::new(ProbeConn {
                lie_transactions: self.lie_transactions,
            }))
        }
    }

    fn honest_pool(size: usize) -> Pool {
        Pool::new(
            Arc::new(ProbeDriver {
                lie_transactions: false,
            }),
            size,
        )
        .expect("pool connects")
    }

    #[test]
    fn probe_confirms_honest_capability_claim() {
        let pool = honest_pool(2);
        assert!(pool.capability().transactions);
        assert!(pool.capability().savepoints);
        assert!(pool.drift_details().is_empty());
    }

    #[test]
    fn probe_downgrades_lying_driver_and_reports_drift() {
        let pool = Pool::new(
            Arc::new(ProbeDriver {
                lie_transactions: true,
            }),
            2,
        )
        .expect("pool connects");
        assert!(!pool.capability().transactions, "lie must be probed away");
        assert_eq!(pool.drift_details().len(), 1);
        assert!(pool.drift_details()[0].contains("BEGIN"));
    }

    #[test]
    fn database_boundary_reannounces_drift_as_events() {
        let mut pool = Pool::new(
            Arc::new(ProbeDriver {
                lie_transactions: true,
            }),
            1,
        )
        .expect("pool connects");
        assert!(pool.drain_resilience_events().is_empty());
        pool.note_database_boundary();
        let events = pool.drain_resilience_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            ResilienceEvent::CapabilityDrift { detail } if detail.contains("transactions")
        ));
    }

    /// A seed in virtual slot 1 (any seed ≡ 1 mod `BREAKER_SLOTS`).
    fn vslot1_seed(i: u64) -> u64 {
        1 + i * BREAKER_SLOTS as u64
    }

    #[test]
    fn breaker_trips_after_threshold_and_detours_checkout() {
        let mut pool = honest_pool(2);
        // Two consecutive infra-failed cases on virtual slot 1.
        for i in 0..u64::from(BREAKER_THRESHOLD) {
            let seed = vslot1_seed(i);
            pool.begin_case(seed);
            pool.begin_case(0);
            pool.note_case_outcome(seed, true);
        }
        let events = pool.drain_resilience_events();
        assert!(
            matches!(
                events.as_slice(),
                [ResilienceEvent::BreakerTripped { vslot: 1, .. }]
            ),
            "expected exactly one trip, got {events:?}"
        );
        // While open, a vslot-1 case detours from physical slot 1 to 0.
        pool.begin_case(vslot1_seed(9));
        assert_eq!(pool.active_slot(), 0);
        pool.begin_case(0);
        pool.note_case_outcome(vslot1_seed(9), false);
        // vslot-2 cases are unaffected.
        pool.begin_case(2);
        assert_eq!(pool.active_slot(), 0);
        pool.begin_case(0);
        pool.note_case_outcome(2, false);
    }

    #[test]
    fn breaker_half_open_probe_recovers_slot() {
        let mut pool = honest_pool(2);
        for i in 0..u64::from(BREAKER_THRESHOLD) {
            let seed = vslot1_seed(i);
            pool.begin_case(seed);
            pool.begin_case(0);
            pool.note_case_outcome(seed, true);
        }
        assert_eq!(pool.drain_resilience_events().len(), 1);
        // Burn checkouts until the backoff window passes.
        for i in 0..BREAKER_BACKOFF_BASE {
            let seed = 2 + i * BREAKER_SLOTS as u64;
            pool.begin_case(seed);
            pool.begin_case(0);
            pool.note_case_outcome(seed, false);
        }
        // The next vslot-1 case is the half-open probe: it routes to the
        // slot's own base again and, succeeding, closes the breaker.
        let probe_seed = vslot1_seed(40);
        pool.begin_case(probe_seed);
        assert_eq!(pool.active_slot(), 1);
        pool.begin_case(0);
        pool.note_case_outcome(probe_seed, false);
        let events = pool.drain_resilience_events();
        assert!(
            matches!(
                events.as_slice(),
                [ResilienceEvent::BreakerRecovered { vslot: 1, .. }]
            ),
            "expected a recovery, got {events:?}"
        );
    }

    #[test]
    fn retry_checkout_settles_unobserved_panic_attempt() {
        let mut pool = honest_pool(1);
        let seed = vslot1_seed(0);
        // Two checkouts of the same seed with no outcome in between model
        // a panicked attempt plus its supervisor retry; the second failure
        // is settled through note_case_outcome.
        pool.begin_case(seed);
        pool.begin_case(seed);
        pool.begin_case(0);
        pool.note_case_outcome(seed, true);
        let events = pool.drain_resilience_events();
        assert!(
            matches!(
                events.as_slice(),
                [ResilienceEvent::BreakerTripped { vslot: 1, .. }]
            ),
            "panic retry + final failure must trip at threshold 2, got {events:?}"
        );
    }

    #[test]
    fn resilience_checkpoint_round_trips_through_restore() {
        let mut pool = honest_pool(2);
        for i in 0..u64::from(BREAKER_THRESHOLD) {
            let seed = vslot1_seed(i);
            pool.begin_case(seed);
            pool.begin_case(0);
            pool.note_case_outcome(seed, true);
        }
        pool.drain_resilience_events();
        let snapshot = pool.resilience_checkpoint().expect("pool snapshots");
        let mut fresh = honest_pool(2);
        assert!(fresh.restore_resilience(&snapshot));
        assert_eq!(fresh.resilience_checkpoint().as_deref(), Some(&*snapshot));
        // The restored pool detours exactly like the original.
        fresh.begin_case(vslot1_seed(9));
        assert_eq!(fresh.active_slot(), 0);
        assert!(!fresh.restore_resilience("garbage"));
        assert!(!fresh.restore_resilience(r#"{"clock":1,"breakers":[]}"#));
        assert!(!fresh.restore_resilience(r#"{"clock":1,"breakers":[[4294967296,"closed",0]]}"#));
    }

    /// A [`ProbeDriver`] that counts the connections it mints.
    struct CountingDriver {
        probe: ProbeDriver,
        connects: std::sync::atomic::AtomicUsize,
    }

    impl Driver for CountingDriver {
        fn name(&self) -> &str {
            self.probe.name()
        }
        fn capability(&self) -> Capability {
            self.probe.capability()
        }
        fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
            self.connects
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.probe.connect()
        }
    }

    /// Runs `rounds` rounds of two cases (slots 1 and 0) on a lying pool of
    /// 2, each round after a safe-mode setup statement when `resync` is
    /// set (which leaves slot 1 stale). Returns the pool, its connects and
    /// the probes and re-syncs its telemetry reported.
    fn run_rounds(rounds: u64, resync: bool) -> (Pool, usize, u64, u64) {
        let driver = Arc::new(CountingDriver {
            probe: ProbeDriver {
                lie_transactions: true,
            },
            connects: 0.into(),
        });
        let mut pool = Pool::new(driver.clone(), 2).expect("pool connects");
        let (mut probes, mut resyncs) = (0, 0);
        for round in 0..rounds {
            pool.begin_case(0);
            if resync {
                pool.execute_ast(&Statement::Analyze(None));
            }
            // vslot 1 routes to slot 1, vslot 2 to slot 0.
            for seed in [
                BREAKER_SLOTS as u64 * round + 1,
                BREAKER_SLOTS as u64 * round + 2,
            ] {
                pool.begin_case(seed);
                pool.begin_case(0);
                pool.note_case_outcome(seed, false);
            }
            for event in pool.drain_backend_events() {
                match event {
                    crate::trace::BackendEvent::CapabilityProbes { count, .. } => probes += count,
                    crate::trace::BackendEvent::SlotResyncs { count, .. } => resyncs += count,
                    _ => {}
                }
            }
        }
        let connects = driver.connects.load(std::sync::atomic::Ordering::Relaxed);
        (pool, connects, probes, resyncs)
    }

    #[test]
    fn resync_probes_only_freshly_connected_slots() {
        let (mut pool, connects, probes, resyncs) = run_rounds(6, true);
        assert_eq!(connects, 2);
        assert!(resyncs >= 6, "every round re-syncs slot 1, got {resyncs}");
        assert_eq!(probes, 2, "one probe per connect, none per re-sync");
        // Re-syncs leave the probed drift and the breaker ledger alone: the
        // same checkouts without any re-sync end in the same state.
        let (mut quiet, _, _, quiet_resyncs) = run_rounds(6, false);
        assert_eq!(quiet_resyncs, 1, "only slot 1's first checkout syncs");
        assert_eq!(pool.drift_details(), quiet.drift_details());
        assert_eq!(pool.drift_details().len(), 1);
        assert_eq!(pool.resilience_checkpoint(), quiet.resilience_checkpoint());
        assert!(pool.drain_resilience_events().is_empty());
        assert!(quiet.drain_resilience_events().is_empty());
    }

    #[test]
    fn database_boundary_resets_breaker_state() {
        let mut pool = honest_pool(2);
        for i in 0..u64::from(BREAKER_THRESHOLD) {
            let seed = vslot1_seed(i);
            pool.begin_case(seed);
            pool.begin_case(0);
            pool.note_case_outcome(seed, true);
        }
        pool.drain_resilience_events();
        pool.note_database_boundary();
        pool.drain_resilience_events();
        // Breaker closed again: vslot-1 cases route to their base slot.
        pool.begin_case(vslot1_seed(3));
        assert_eq!(pool.active_slot(), 1);
        let snapshot = pool.resilience_checkpoint().expect("pool snapshots");
        assert!(
            snapshot.starts_with(r#"{"clock":1,"#),
            "boundary resets the clock: {snapshot}"
        );
    }
}
