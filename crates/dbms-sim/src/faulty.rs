//! Injected **infrastructure** faults: a decorator that makes any
//! [`DbmsConnection`] crash, hang, drop connections or garble results on a
//! deterministic, seed-derived schedule.
//!
//! This is the environmental counterpart of the engine's logic-bug switches
//! ([`crate::bugs::catalog`]): where those corrupt *answers*, these faults
//! break the *transport* — and a testing platform at fleet scale must treat
//! them as operational incidents, never as DBMS bugs. The decorator provides
//! the ground truth for that requirement (every fault is planned from the
//! case seed, so tests can predict exactly which cases are hit, and
//! [`crate::bugs::infra_catalog`] names them), while the campaign
//! supervisor provides the machinery (watchdog, retry, quarantine).
//!
//! All fault decisions derive from the `case_seed` passed to
//! [`DbmsConnection::begin_case`] — wall time and global state never enter
//! them — so a faulty campaign is exactly as reproducible as a healthy one.

use sql_ast::{fnv1a64, splitmix64};
use sqlancer_core::{
    BackendEvent, DbmsConnection, DialectQuirks, QueryResult, StateCheckpoint, StatementOutcome,
    StorageMetrics, INFRA_MARKER,
};

/// The injectable infrastructure fault kinds. The ids double as the
/// `fault` names of [`crate::bugs::infra_catalog`] and as the substrings
/// [`sqlancer_core::classify_infra_message`] keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfraFaultKind {
    /// Backend process crash (a panic mid-statement; stays down until the
    /// supervisor re-establishes the connection).
    Crash,
    /// Statement hang: the virtual clock jumps past any sane deadline.
    Hang,
    /// Transient connection drop: this attempt's statements fail, the next
    /// attempt succeeds.
    Drop,
    /// Garbled/truncated result detected by the wire-protocol checksum.
    Garble,
    /// Probe-time crash: the backend dies with a capability-probe
    /// attribution, exercising the `ProbeFailure` classification path.
    Probe,
    /// Post-respawn flapping: the backend bounces between healthy and
    /// broken for two consecutive attempts before stabilising — long
    /// enough to open a slot's circuit breaker, short enough to clear
    /// within the default retry budget.
    Flap,
}

impl InfraFaultKind {
    /// The stable fault id (`infra_crash`, `infra_hang`, ...).
    pub fn id(self) -> &'static str {
        match self {
            InfraFaultKind::Crash => "infra_crash",
            InfraFaultKind::Hang => "infra_hang",
            InfraFaultKind::Drop => "infra_drop",
            InfraFaultKind::Garble => "infra_garble",
            InfraFaultKind::Probe => "infra_probe",
            InfraFaultKind::Flap => "infra_flap",
        }
    }

    /// All kinds, in planning-priority order.
    pub fn all() -> [InfraFaultKind; 6] {
        [
            InfraFaultKind::Crash,
            InfraFaultKind::Hang,
            InfraFaultKind::Drop,
            InfraFaultKind::Garble,
            InfraFaultKind::Probe,
            InfraFaultKind::Flap,
        ]
    }
}

/// Which infrastructure faults are armed, and their shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultyConfig {
    /// Arm crash-on-Nth-statement faults.
    pub crash: bool,
    /// Arm hang (deadline-overrun) faults.
    pub hang: bool,
    /// Arm transient connection-drop faults.
    pub drop: bool,
    /// Arm garbled-result faults.
    pub garble: bool,
    /// Arm probe-time crash faults.
    pub probe: bool,
    /// Arm post-respawn flapping faults.
    pub flap: bool,
    /// Capability lie: the connection rejects every `BEGIN`/`COMMIT`/
    /// `ROLLBACK` (text and AST, even in safe mode) while the driver's
    /// static [`sqlancer_core::Capability`] keeps claiming transactions.
    /// Not a planned per-case fault — it models a *permanently* lying
    /// backend, the input the runtime capability probe exists to catch.
    pub lie_transactions: bool,
    /// Roughly one in `period` cases is hit per armed fault kind.
    pub period: u64,
    /// A planned crash keeps recurring for this many attempts at the same
    /// case before the "backend restart" succeeds. Must stay at or below
    /// the supervisor's retry budget for the campaign to ride it out.
    pub crash_persist_attempts: u32,
    /// Virtual ticks a hung statement burns before timing out.
    pub hang_ticks: u64,
}

impl Default for FaultyConfig {
    /// All faults disarmed; shape parameters at their standard values.
    fn default() -> FaultyConfig {
        FaultyConfig {
            crash: false,
            hang: false,
            drop: false,
            garble: false,
            probe: false,
            flap: false,
            lie_transactions: false,
            period: 5,
            crash_persist_attempts: 2,
            hang_ticks: 1_000_000,
        }
    }
}

impl FaultyConfig {
    /// The fault storm: every infrastructure fault kind armed. With the
    /// default shape parameters and the default supervisor policy, every
    /// planned fault clears within the retry budget, so a storm campaign
    /// completes without quarantining.
    pub fn storm() -> FaultyConfig {
        FaultyConfig {
            crash: true,
            hang: true,
            drop: true,
            garble: true,
            probe: true,
            flap: true,
            ..FaultyConfig::default()
        }
    }

    /// The flaky-backend storm the resilience tests run against: a
    /// capability lie on top of probe-time crashes and post-respawn
    /// flapping — everything the self-healing connection layer exists to
    /// absorb, and nothing else (no hangs/garbles, so every incident in
    /// the ledger is attributable to the resilience layer under test).
    pub fn flaky() -> FaultyConfig {
        FaultyConfig {
            probe: true,
            flap: true,
            lie_transactions: true,
            ..FaultyConfig::default()
        }
    }

    /// This configuration with one fault kind disarmed — the
    /// infrastructure analogue of the "fixed version" used for ground-truth
    /// bug bisection: re-running a campaign without a kind must make
    /// exactly that kind's incidents disappear.
    pub fn without(&self, kind: InfraFaultKind) -> FaultyConfig {
        let mut config = self.clone();
        match kind {
            InfraFaultKind::Crash => config.crash = false,
            InfraFaultKind::Hang => config.hang = false,
            InfraFaultKind::Drop => config.drop = false,
            InfraFaultKind::Garble => config.garble = false,
            InfraFaultKind::Probe => config.probe = false,
            InfraFaultKind::Flap => config.flap = false,
        }
        config
    }

    /// This configuration with one fault kind armed.
    pub fn arm(&self, kind: InfraFaultKind) -> FaultyConfig {
        let mut config = self.clone();
        match kind {
            InfraFaultKind::Crash => config.crash = true,
            InfraFaultKind::Hang => config.hang = true,
            InfraFaultKind::Drop => config.drop = true,
            InfraFaultKind::Garble => config.garble = true,
            InfraFaultKind::Probe => config.probe = true,
            InfraFaultKind::Flap => config.flap = true,
        }
        config
    }

    /// This configuration with exactly one fault kind armed (the rest
    /// disarmed) — the single-fault arm of a bisection sweep.
    pub fn without_all_but(&self, kind: InfraFaultKind) -> FaultyConfig {
        let mut config = FaultyConfig {
            crash: false,
            hang: false,
            drop: false,
            garble: false,
            probe: false,
            flap: false,
            ..self.clone()
        };
        match kind {
            InfraFaultKind::Crash => config.crash = true,
            InfraFaultKind::Hang => config.hang = true,
            InfraFaultKind::Drop => config.drop = true,
            InfraFaultKind::Garble => config.garble = true,
            InfraFaultKind::Probe => config.probe = true,
            InfraFaultKind::Flap => config.flap = true,
        }
        config
    }

    /// Whether a kind is armed.
    pub fn armed(&self, kind: InfraFaultKind) -> bool {
        match kind {
            InfraFaultKind::Crash => self.crash,
            InfraFaultKind::Hang => self.hang,
            InfraFaultKind::Drop => self.drop,
            InfraFaultKind::Garble => self.garble,
            InfraFaultKind::Probe => self.probe,
            InfraFaultKind::Flap => self.flap,
        }
    }

    /// Whether any planned per-case kind is armed (the capability lie is a
    /// standing condition, not a planned fault).
    pub fn any_armed(&self) -> bool {
        self.crash || self.hang || self.drop || self.garble || self.probe || self.flap
    }

    /// The fault planned for a case seed, if any: the first armed kind (in
    /// [`InfraFaultKind::all`] priority order) whose seed-derived hash
    /// lands in the 1-in-`period` window, firing on the `trigger`-th
    /// statement of the attempt. Deterministic in the seed alone.
    pub fn plan(&self, case_seed: u64) -> Option<FaultPlan> {
        if case_seed == 0 {
            return None;
        }
        let period = self.period.max(1);
        for kind in InfraFaultKind::all() {
            if !self.armed(kind) {
                continue;
            }
            let h = splitmix64(case_seed ^ fnv1a64(kind.id().as_bytes()));
            if h.is_multiple_of(period) {
                return Some(FaultPlan {
                    kind,
                    trigger: 1 + (h / period) % 6,
                });
            }
        }
        None
    }
}

/// A planned fault for one test case: which kind, and on which statement of
/// the attempt it fires (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault kind.
    pub kind: InfraFaultKind,
    /// 1-based statement index within the attempt at which the fault fires.
    /// A trigger beyond the case's statement count simply never fires —
    /// and the supervisor returns the connection to safe mode after each
    /// completed case, so an unfired fault can never leak into reduction
    /// or setup replay.
    pub trigger: u64,
}

/// Wraps any [`DbmsConnection`] with seed-planned infrastructure faults and
/// a virtual clock (one tick per statement; a hang jumps the clock).
///
/// Faults only fire while a case is active (after `begin_case` with a
/// non-zero seed); in safe mode (seed 0) the decorator is a transparent
/// pass-through, so setup, recovery replay and reduction are never hit.
#[derive(Debug, Clone)]
pub struct FaultyConnection<C> {
    inner: C,
    config: FaultyConfig,
    /// Safe mode: no case active, faults never fire.
    safe: bool,
    /// The last non-zero case seed seen. Survives the safe-mode recovery
    /// window between attempts, so retries of the same case count up the
    /// attempt number instead of starting over.
    case_seed: u64,
    /// Attempts observed for `case_seed` (0-based).
    attempt: u32,
    /// Statements executed within the current attempt.
    statement: u64,
    /// Virtual clock: monotone, never reset.
    ticks: u64,
    /// The backend crashed and has not been reconnected yet.
    down: bool,
    /// The connection is tainted (dropped) for the rest of this attempt.
    dropped: bool,
}

impl<C: DbmsConnection> FaultyConnection<C> {
    /// Wraps a connection.
    pub fn new(inner: C, config: FaultyConfig) -> FaultyConnection<C> {
        FaultyConnection {
            inner,
            config,
            safe: true,
            case_seed: 0,
            attempt: 0,
            statement: 0,
            ticks: 0,
            down: false,
            dropped: false,
        }
    }

    /// The fault configuration.
    pub fn config(&self) -> &FaultyConfig {
        &self.config
    }

    /// The wrapped connection.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Consumes the wrapper and returns the wrapped connection.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Charges one tick, then decides this statement's fate: `Ok(())` lets
    /// it through to the wrapped connection, `Err` is the infrastructure
    /// failure to surface. A planned crash panics (the supervisor isolates
    /// it with `catch_unwind`), exactly like a lost backend process would
    /// kill a wire-protocol driver call.
    fn on_statement(&mut self) -> Result<(), String> {
        self.ticks += 1;
        if self.safe {
            return Ok(());
        }
        if self.down {
            return Err(format!(
                "{INFRA_MARKER} backend is down after crash (injected infra_crash)"
            ));
        }
        if self.dropped {
            return Err(format!(
                "{INFRA_MARKER} connection dropped (injected infra_drop)"
            ));
        }
        self.statement += 1;
        let Some(plan) = self.config.plan(self.case_seed) else {
            return Ok(());
        };
        if self.statement != plan.trigger {
            return Ok(());
        }
        match plan.kind {
            InfraFaultKind::Crash => {
                if self.attempt < self.config.crash_persist_attempts {
                    self.down = true;
                    panic!("{INFRA_MARKER} backend crashed (injected infra_crash)");
                }
                Ok(())
            }
            InfraFaultKind::Hang => {
                if self.attempt == 0 {
                    self.ticks += self.config.hang_ticks;
                    return Err(format!(
                        "{INFRA_MARKER} statement exceeded deadline (injected infra_hang)"
                    ));
                }
                Ok(())
            }
            InfraFaultKind::Drop => {
                if self.attempt == 0 {
                    self.dropped = true;
                    return Err(format!(
                        "{INFRA_MARKER} connection dropped (injected infra_drop)"
                    ));
                }
                Ok(())
            }
            InfraFaultKind::Garble => {
                if self.attempt == 0 {
                    return Err(format!(
                        "{INFRA_MARKER} result checksum mismatch (injected infra_garble)"
                    ));
                }
                Ok(())
            }
            InfraFaultKind::Probe => {
                if self.attempt == 0 {
                    panic!(
                        "{INFRA_MARKER} backend crashed during capability probe \
                         (injected infra_probe)"
                    );
                }
                Ok(())
            }
            InfraFaultKind::Flap => {
                // Two broken attempts in a row: enough consecutive
                // infra-classified failures to open a slot's circuit
                // breaker (threshold 2), while still clearing inside the
                // default retry budget of 3.
                if self.attempt < 2 {
                    return Err(format!(
                        "{INFRA_MARKER} backend flapping after respawn (injected infra_flap)"
                    ));
                }
                Ok(())
            }
        }
    }

    /// The capability lie: reject transaction control outright, before any
    /// fault planning and even in safe mode — a lying backend lies to the
    /// probe too, which is exactly how the probe catches it. The message
    /// carries no [`INFRA_MARKER`]: to the platform this is an ordinary
    /// statement rejection, indistinguishable from a dialect that simply
    /// has no transactions.
    fn lie_rejection(&mut self, is_txn_control: bool) -> Option<String> {
        if !self.config.lie_transactions || !is_txn_control {
            return None;
        }
        self.ticks += 1;
        Some("transaction control rejected by backend (injected infra_capability_lie)".to_string())
    }
}

/// Whether a text statement is bare transaction control (`BEGIN`/`COMMIT`/
/// `ROLLBACK`, including `ROLLBACK TO`). Savepoint management is not
/// transaction control for the lie's purposes: the lie models a backend
/// whose *transaction* family claim is false.
fn is_txn_control_text(sql: &str) -> bool {
    let head = sql.trim_start();
    ["BEGIN", "COMMIT", "ROLLBACK"].iter().any(|kw| {
        head.len() >= kw.len()
            && head[..kw.len()].eq_ignore_ascii_case(kw)
            && head[kw.len()..]
                .chars()
                .next()
                .is_none_or(|ch| !ch.is_ascii_alphanumeric() && ch != '_')
    })
}

impl<C: DbmsConnection> DbmsConnection for FaultyConnection<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        if let Some(message) = self.lie_rejection(is_txn_control_text(sql)) {
            return StatementOutcome::Failure(message);
        }
        match self.on_statement() {
            Ok(()) => self.inner.execute(sql),
            Err(message) => StatementOutcome::Failure(message),
        }
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        self.on_statement()?;
        self.inner.query(sql)
    }

    fn execute_ast(&mut self, stmt: &sql_ast::Statement) -> StatementOutcome {
        // Mirrors `is_txn_control_text` exactly (text `ROLLBACK TO` matches
        // the `ROLLBACK` prefix, so `RollbackTo` is included): the lie must
        // behave identically on both execution paths or text and AST
        // campaign reports would diverge.
        let is_txn_control = matches!(
            stmt,
            sql_ast::Statement::Begin(_)
                | sql_ast::Statement::Commit
                | sql_ast::Statement::Rollback
                | sql_ast::Statement::RollbackTo(_)
        );
        if let Some(message) = self.lie_rejection(is_txn_control) {
            return StatementOutcome::Failure(message);
        }
        match self.on_statement() {
            Ok(()) => self.inner.execute_ast(stmt),
            Err(message) => StatementOutcome::Failure(message),
        }
    }

    fn query_ast(&mut self, select: &sql_ast::Select) -> Result<QueryResult, String> {
        self.on_statement()?;
        self.inner.query_ast(select)
    }

    fn reset(&mut self) {
        // A reset is a reconnect: it clears transport-level damage.
        self.down = false;
        self.dropped = false;
        self.inner.reset();
    }

    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        // Extra sessions share the backend but not the fault plan: faults
        // model the *primary* connection's transport. (Session statements
        // also don't advance the primary's virtual clock, which keeps the
        // watchdog accounting single-sourced.)
        self.inner.open_session()
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        if self.down {
            return Err(format!(
                "{INFRA_MARKER} backend is down after crash (injected infra_crash)"
            ));
        }
        self.inner.storage_metrics()
    }

    fn begin_case(&mut self, case_seed: u64) {
        // Every begin_case models a fresh (re-)connection attempt: it
        // clears transport-level damage.
        self.down = false;
        self.dropped = false;
        self.statement = 0;
        if case_seed == 0 {
            // Safe mode: faults off, but the case bookkeeping survives — a
            // retry of the same case after the recovery rebuild must count
            // as the next attempt, not start over.
            self.safe = true;
            return;
        }
        self.safe = false;
        if case_seed == self.case_seed {
            self.attempt += 1;
        } else {
            self.case_seed = case_seed;
            self.attempt = 0;
        }
    }

    fn virtual_ticks(&self) -> u64 {
        self.ticks
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        self.inner.restore(checkpoint)
    }

    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        // Transport faults are injected *above* the wrapped connection, so
        // the wrapper has no wall-plane events of its own to report.
        self.inner.drain_backend_events()
    }

    fn engine_coverage(&self) -> Option<sqlancer_core::EngineCoverage> {
        // Coverage is an engine-plane fact; transport faults don't redact
        // it (and the atlas poll only happens at quiescent checkpoints).
        self.inner.engine_coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset_by_name;
    use crate::runner::ExecutionPath;
    use sqlancer_core::{Campaign, CampaignConfig, OracleKind, SupervisorConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A trivially healthy inner connection.
    struct EchoConn;

    impl DbmsConnection for EchoConn {
        fn name(&self) -> &str {
            "echo"
        }
        fn execute(&mut self, _sql: &str) -> StatementOutcome {
            StatementOutcome::Success
        }
        fn query(&mut self, _sql: &str) -> Result<QueryResult, String> {
            Ok(QueryResult::default())
        }
        fn reset(&mut self) {}
        fn quirks(&self) -> DialectQuirks {
            DialectQuirks::default()
        }
    }

    fn seed_with_plan(config: &FaultyConfig, kind: InfraFaultKind) -> u64 {
        (1..100_000u64)
            .find(|seed| config.plan(*seed).is_some_and(|plan| plan.kind == kind))
            .expect("some seed plans the requested fault kind")
    }

    #[test]
    fn plans_are_deterministic_and_respect_arming() {
        let storm = FaultyConfig::storm();
        assert!(storm.any_armed());
        assert_eq!(storm.plan(0), None, "seed 0 is the safe-mode seed");
        for seed in 1..2_000u64 {
            let plan = storm.plan(seed);
            assert_eq!(plan, storm.plan(seed), "planning is a pure function");
            if let Some(plan) = plan {
                assert!(storm.armed(plan.kind));
                assert!((1..=6).contains(&plan.trigger));
                // Bisection contract: disarming the planned kind makes this
                // case either clean or fault a *different* kind.
                let without = storm.without(plan.kind);
                assert!(!without.armed(plan.kind));
                if let Some(other) = without.plan(seed) {
                    assert_ne!(other.kind, plan.kind);
                }
            }
        }
        assert!(!FaultyConfig::default().any_armed());
        assert_eq!(FaultyConfig::default().plan(17), None);
    }

    #[test]
    fn every_kind_fires_somewhere_and_crash_takes_priority() {
        let storm = FaultyConfig::storm();
        for kind in InfraFaultKind::all() {
            let seed = seed_with_plan(&storm.without_all_but(kind), kind);
            assert_eq!(storm.without_all_but(kind).plan(seed).unwrap().kind, kind);
        }
        // A seed that plans garble under a garble-only config plans crash
        // under the storm whenever the crash window also hits that seed.
        let garble_only = FaultyConfig::default().arm(InfraFaultKind::Garble);
        let crash_only = FaultyConfig::default().arm(InfraFaultKind::Crash);
        let seed = (1..1_000_000u64)
            .find(|s| garble_only.plan(*s).is_some() && crash_only.plan(*s).is_some())
            .expect("overlapping fault windows exist");
        assert_eq!(storm.plan(seed).unwrap().kind, InfraFaultKind::Crash);
    }

    #[test]
    fn safe_mode_is_a_transparent_pass_through() {
        let mut config = FaultyConfig::storm();
        config.period = 1; // every case would fault if a case were active
        let mut conn = FaultyConnection::new(EchoConn, config);
        conn.begin_case(0);
        for _ in 0..64 {
            assert!(conn.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
            assert!(conn.query("SELECT 1").is_ok());
        }
        assert_eq!(
            conn.virtual_ticks(),
            128,
            "the clock still runs in safe mode"
        );
    }

    #[test]
    fn crash_persists_across_attempts_then_clears() {
        let config = FaultyConfig::default().arm(InfraFaultKind::Crash);
        let seed = seed_with_plan(&config, InfraFaultKind::Crash);
        let trigger = config.plan(seed).unwrap().trigger;
        let persist = config.crash_persist_attempts;
        let mut conn = FaultyConnection::new(EchoConn, config);
        for attempt in 0..=persist {
            conn.begin_case(seed);
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..trigger {
                    let outcome = conn.execute("SELECT 1");
                    assert!(outcome.is_success(), "pre-trigger statements pass");
                }
            }))
            .is_err();
            if attempt < persist {
                assert!(crashed, "attempt {attempt} should crash at the trigger");
                // While down, every statement fails with the crash marker.
                let failure = conn.query("SELECT 1").unwrap_err();
                assert!(failure.contains(INFRA_MARKER));
                assert!(failure.contains("infra_crash"));
                assert!(conn.storage_metrics().is_err());
                // Supervisor-style recovery: safe mode + reconnect.
                conn.begin_case(0);
                conn.reset();
            } else {
                assert!(!crashed, "the backend restart finally holds");
                assert!(conn.query("SELECT 1").is_ok());
            }
        }
    }

    #[test]
    fn drop_taints_the_rest_of_the_attempt_only() {
        let config = FaultyConfig::default().arm(InfraFaultKind::Drop);
        let seed = seed_with_plan(&config, InfraFaultKind::Drop);
        let trigger = config.plan(seed).unwrap().trigger;
        let mut conn = FaultyConnection::new(EchoConn, config);
        conn.begin_case(seed);
        for _ in 1..trigger {
            assert!(conn.query("SELECT 1").is_ok());
        }
        let failure = conn.query("SELECT 1").unwrap_err();
        assert!(failure.contains("infra_drop"));
        // Tainted for the rest of the attempt...
        assert!(conn.query("SELECT 1").unwrap_err().contains("infra_drop"));
        // ...but the retry (same seed → next attempt) goes through clean.
        conn.begin_case(0);
        conn.reset();
        conn.begin_case(seed);
        for _ in 0..16 {
            assert!(conn.query("SELECT 1").is_ok());
        }
    }

    #[test]
    fn hang_jumps_the_virtual_clock_past_the_deadline() {
        let config = FaultyConfig::default().arm(InfraFaultKind::Hang);
        let seed = seed_with_plan(&config, InfraFaultKind::Hang);
        let trigger = config.plan(seed).unwrap().trigger;
        let mut conn = FaultyConnection::new(EchoConn, config.clone());
        conn.begin_case(seed);
        let before = conn.virtual_ticks();
        for _ in 1..trigger {
            assert!(conn.query("SELECT 1").is_ok());
        }
        let failure = conn.query("SELECT 1").unwrap_err();
        assert!(failure.contains("infra_hang"));
        assert!(conn.virtual_ticks() - before > config.hang_ticks);
    }

    #[test]
    fn fault_hitting_the_oracle_rebuild_surfaces_as_infra_not_corruption() {
        // The rollback oracle replays the setup log *inside the case*
        // (faults armed), so a fault whose trigger lands on a replay
        // statement hits the rebuild, not the session. That must surface
        // as a marked infra failure the supervisor retries — swallowing it
        // silently would checkpoint a half-built state that leaks past the
        // case and makes campaign reports depend on the pool size.
        use sql_ast::Statement;
        use sqlancer_core::{check_rollback, FeatureSet, OracleOutcome};

        let config = FaultyConfig::default().arm(InfraFaultKind::Garble);
        // Six setup statements cover the whole trigger range (1..=6): any
        // planned garble lands inside the capture rebuild.
        let setup: Vec<String> = std::iter::once("CREATE TABLE t0 (c0 INTEGER)".to_string())
            .chain((0..5).map(|v| format!("INSERT INTO t0 (c0) VALUES ({v})")))
            .collect();
        let seed = seed_with_plan(&config, InfraFaultKind::Garble);
        let mut conn = crate::preset_by_name("sqlite")
            .unwrap()
            .with_infra_faults(config.clone())
            .instantiate_for_path(crate::runner::ExecutionPath::Ast);
        // Campaign phase 1: build the state in safe mode.
        conn.begin_case(0);
        for sql in &setup {
            assert!(conn.execute(sql).is_success());
        }
        let session = vec![Statement::Insert(sql_ast::Insert {
            table: "t0".into(),
            columns: vec!["c0".into()],
            values: vec![vec![sql_ast::Expr::integer(7)]],
            or_ignore: false,
        })];
        let features = FeatureSet::new();

        conn.begin_case(seed);
        let outcome = check_rollback(&mut *conn, "t0", &session, &features, &setup);
        let OracleOutcome::Invalid(message) = outcome else {
            panic!("fault-hit rebuild must not produce a verdict: {outcome:?}");
        };
        assert!(
            message.contains(INFRA_MARKER),
            "unmarked failure: {message}"
        );
        assert!(message.contains("infra_garble"), "misattributed: {message}");

        // Supervisor-style recovery, then the retry (attempt 1, fault
        // cleared) completes cleanly on an uncorrupted state.
        conn.begin_case(0);
        conn.reset();
        for sql in &setup {
            assert!(conn.execute(sql).is_success());
        }
        conn.begin_case(seed);
        let retry = check_rollback(&mut *conn, "t0", &session, &features, &setup);
        assert!(
            matches!(retry, OracleOutcome::Passed),
            "retry should pass: {retry:?}"
        );
    }

    #[test]
    fn probe_fault_panics_once_with_probe_attribution() {
        let config = FaultyConfig::default().arm(InfraFaultKind::Probe);
        let seed = seed_with_plan(&config, InfraFaultKind::Probe);
        let trigger = config.plan(seed).unwrap().trigger;
        let mut conn = FaultyConnection::new(EchoConn, config);
        conn.begin_case(seed);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..trigger {
                let _ = conn.execute("SELECT 1");
            }
        }));
        let payload = caught.expect_err("attempt 0 should die at the trigger");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains(INFRA_MARKER));
        assert!(message.contains("infra_probe"));
        // The retry (attempt 1) is clean: a probe-time crash is transient.
        conn.begin_case(0);
        conn.reset();
        conn.begin_case(seed);
        for _ in 0..16 {
            assert!(conn.query("SELECT 1").is_ok());
        }
    }

    #[test]
    fn flap_fault_breaks_two_attempts_then_stabilises() {
        let config = FaultyConfig::default().arm(InfraFaultKind::Flap);
        let seed = seed_with_plan(&config, InfraFaultKind::Flap);
        let trigger = config.plan(seed).unwrap().trigger;
        let mut conn = FaultyConnection::new(EchoConn, config);
        for attempt in 0..3u32 {
            conn.begin_case(seed);
            let mut failed = None;
            for _ in 0..trigger {
                if let Err(message) = conn.query("SELECT 1") {
                    failed = Some(message);
                    break;
                }
            }
            match attempt {
                0 | 1 => {
                    let message = failed.expect("flapping attempts fail at the trigger");
                    assert!(message.contains("infra_flap"), "misattributed: {message}");
                }
                _ => assert!(failed.is_none(), "the backend stabilises on attempt 2"),
            }
            conn.begin_case(0);
            conn.reset();
        }
    }

    #[test]
    fn capability_lie_rejects_txn_control_on_both_paths_even_in_safe_mode() {
        let config = FaultyConfig::flaky();
        assert!(config.lie_transactions);
        let mut conn = FaultyConnection::new(EchoConn, config);
        conn.begin_case(0); // safe mode — the probe runs here
        for sql in [
            "BEGIN",
            "begin immediate",
            "COMMIT",
            "ROLLBACK",
            "ROLLBACK TO sp1",
        ] {
            let outcome = conn.execute(sql);
            let StatementOutcome::Failure(message) = outcome else {
                panic!("lying backend accepted {sql:?}");
            };
            assert!(message.contains("infra_capability_lie"));
            assert!(
                !message.contains(INFRA_MARKER),
                "a lie is a rejection, not a transport failure: {message}"
            );
        }
        for stmt in [
            sql_ast::Statement::Begin(sql_ast::BeginMode::Plain),
            sql_ast::Statement::Commit,
            sql_ast::Statement::Rollback,
            sql_ast::Statement::RollbackTo("sp1".into()),
        ] {
            assert!(
                !conn.execute_ast(&stmt).is_success(),
                "lying backend accepted AST txn control"
            );
        }
        // Everything else passes through untouched — the lie is surgical.
        assert!(conn.execute("SELECT 1").is_success());
        assert!(conn.execute("SAVEPOINT sp1").is_success());
        assert!(conn.execute("RELEASE SAVEPOINT sp1").is_success());
        assert!(conn
            .execute("CREATE TABLE rollbacks (c0 INTEGER)")
            .is_success());
    }

    #[test]
    fn storm_campaign_completes_with_zero_false_positive_bugs() {
        let run = |faults: FaultyConfig| {
            let preset = preset_by_name("sqlite").unwrap().with_infra_faults(faults);
            let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
            let mut campaign = Campaign::new(
                CampaignConfig::builder()
                    .seed(0xFA17)
                    .databases(2)
                    .ddl_per_database(6)
                    .queries_per_database(40)
                    .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
                    .reduce_bugs(false)
                    .build(),
            );
            campaign.run_supervised(&mut conn, &SupervisorConfig::default())
        };
        let report = run(FaultyConfig::storm());
        // The storm actually hit the campaign, with every armed kind...
        assert!(
            report.robustness.incidents > 0,
            "the storm must land faults"
        );
        assert!(report.robustness.retries > 0);
        let all: Vec<&str> = InfraFaultKind::all().iter().map(|k| k.id()).collect();
        assert_eq!(crate::observed_infra_kinds(&report), all);
        // ...every fault cleared within the retry budget...
        assert_eq!(report.robustness.infra_failures, 0);
        assert_eq!(report.robustness.quarantines, 0);
        assert!(!report.degraded);
        // ...and no infrastructure fault leaked into the bug reports.
        for bug in &report.reports {
            assert!(
                !bug.description.contains(INFRA_MARKER),
                "infra fault surfaced as a logic bug: {}",
                bug.description
            );
        }
        // Ground-truth bisection at campaign level: disarming a kind
        // removes its incidents.
        for kind in InfraFaultKind::all() {
            let without = run(FaultyConfig::storm().without(kind));
            assert!(
                !crate::observed_infra_kinds(&without).contains(&kind.id()),
                "disarming {} left its incidents behind",
                kind.id()
            );
        }
    }

    #[test]
    fn supervised_storm_run_is_deterministic() {
        let run = || {
            let preset = preset_by_name("duckdb")
                .unwrap()
                .with_infra_faults(FaultyConfig::storm());
            let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
            let mut campaign = Campaign::new(
                CampaignConfig::builder()
                    .seed(0xBEEF)
                    .databases(1)
                    .ddl_per_database(6)
                    .queries_per_database(30)
                    .oracles(vec![OracleKind::Tlp])
                    .reduce_bugs(false)
                    .build(),
            );
            campaign.run_supervised(&mut conn, &SupervisorConfig::default())
        };
        let first = run();
        let second = run();
        assert_eq!(first.metrics, second.metrics);
        assert_eq!(first.incidents, second.incidents);
        assert_eq!(first.robustness, second.robustness);
        assert_eq!(first.reports, second.reports);
    }
}
