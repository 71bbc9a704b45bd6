//! Fault-tolerant case supervision: deadline watchdog, bounded
//! deterministic retry, panic isolation and dialect quarantine.
//!
//! The paper's platform fuzzes *opaque* backends over a text-only boundary;
//! real backends crash, hang, drop connections and return garbage
//! mid-campaign. The supervisor runs every oracle test case under a
//! recovery protocol so a misbehaving backend degrades the campaign
//! gracefully instead of killing it:
//!
//! * every case attempt is wrapped in [`std::panic::catch_unwind`] — a
//!   panicking oracle (or a backend crash modelled as a panic) becomes a
//!   recorded [`CampaignIncident`], never a dead worker or a poisoned lock;
//! * a **deadline watchdog** samples the connection's *virtual clock*
//!   ([`crate::DbmsConnection::virtual_ticks`]) around each attempt — no
//!   wall time ever enters a supervision decision, which keeps supervised
//!   campaigns byte-identical across machines and runs;
//! * infrastructure failures (recognised by the [`INFRA_MARKER`] message
//!   convention, the same opaque-text contract as
//!   [`crate::SERIALIZATION_FAILURE_MARKER`]) are retried a bounded number
//!   of times with exponential *virtual* backoff, after rebuilding the
//!   backend state from the setup log;
//! * a dialect that fails [`SupervisorConfig::quarantine_threshold`]
//!   consecutive cases on infrastructure errors is **quarantined**: its
//!   partial report is marked degraded and returned, and the rest of the
//!   fleet keeps running.
//!
//! Incidents are bookkeeping, not bugs: an infrastructure failure never
//! reaches the prioritizer or the bug reports, so injected faults cannot
//! surface as false-positive logic bugs.
//!
//! The supervisor also keeps the campaign's **ledger**. Every
//! deterministic case-lifecycle event the campaign and the supervisor emit
//! passes through one `Supervisor::emit`, which folds it into the
//! [`RobustnessCounters`] and the event-carried [`CampaignMetrics`] fields
//! and then forwards it, unchanged, to the optional trace sink. The fold is
//! the only writer of those counts, so the report, the checkpoint and the
//! trace summary cannot drift apart.

use crate::campaign::{CampaignMetrics, CampaignReport};
use crate::dbms::{replay_setup, DbmsConnection};
use crate::driver::ResilienceEvent;
use crate::json::{json_name, json_record};
use crate::oracle::{OracleKind, OracleOutcome};
use crate::trace::{TraceEvent, TraceEventKind, TraceHandle, TraceVerdict};
use sql_ast::Statement;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The marker substring by which the platform recognises an
/// *infrastructure* failure (backend crash, hang, dropped connection,
/// garbled result frame) in an otherwise opaque error message or panic
/// payload. Like [`crate::SERIALIZATION_FAILURE_MARKER`], this convention
/// is the whole interface: the platform never inspects the backend, it
/// only reads error text.
pub const INFRA_MARKER: &str = "infra:";

/// The kind of a supervision incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IncidentKind {
    /// The backend crashed mid-case (a panic carrying [`INFRA_MARKER`]).
    BackendCrash,
    /// A case attempt overran the virtual-clock deadline, or the backend
    /// reported a hang.
    WatchdogTimeout,
    /// The connection was dropped transiently.
    ConnectionDrop,
    /// A result frame arrived garbled/truncated (checksum mismatch).
    GarbledResult,
    /// An oracle panicked without an infrastructure marker: an internal
    /// platform error, isolated and recorded rather than retried.
    OraclePanic,
    /// The backend's storage counters could not be read.
    StorageMetricsError,
    /// A fleet/shard worker thread died and its work was re-run or
    /// abandoned by the runner.
    WorkerPanic,
    /// The runtime capability probe itself failed on a transport error
    /// (backend died mid-probe) — distinct from [`IncidentKind::BackendCrash`]
    /// because a probe-time death points at connect/respawn handling, not
    /// at the case workload.
    ProbeFailure,
    /// The runtime probe contradicted the driver's static capability claim:
    /// the affected feature families were downgraded and re-suppressed.
    CapabilityDrift,
    /// A pool virtual slot opened its circuit breaker after consecutive
    /// infrastructure-classified case failures.
    BreakerTrip,
    /// A half-open breaker's probe case succeeded and the slot was
    /// readmitted.
    BreakerRecovery,
}

impl IncidentKind {
    /// The canonical (checkpoint-file) name.
    pub fn name(&self) -> &'static str {
        match self {
            IncidentKind::BackendCrash => "backend_crash",
            IncidentKind::WatchdogTimeout => "watchdog_timeout",
            IncidentKind::ConnectionDrop => "connection_drop",
            IncidentKind::GarbledResult => "garbled_result",
            IncidentKind::OraclePanic => "oracle_panic",
            IncidentKind::StorageMetricsError => "storage_metrics_error",
            IncidentKind::WorkerPanic => "worker_panic",
            IncidentKind::ProbeFailure => "probe_failure",
            IncidentKind::CapabilityDrift => "capability_drift",
            IncidentKind::BreakerTrip => "breaker_trip",
            IncidentKind::BreakerRecovery => "breaker_recovery",
        }
    }

    /// Parses a canonical name back.
    pub fn parse(name: &str) -> Option<IncidentKind> {
        Some(match name {
            "backend_crash" => IncidentKind::BackendCrash,
            "watchdog_timeout" => IncidentKind::WatchdogTimeout,
            "connection_drop" => IncidentKind::ConnectionDrop,
            "garbled_result" => IncidentKind::GarbledResult,
            "oracle_panic" => IncidentKind::OraclePanic,
            "storage_metrics_error" => IncidentKind::StorageMetricsError,
            "worker_panic" => IncidentKind::WorkerPanic,
            "probe_failure" => IncidentKind::ProbeFailure,
            "capability_drift" => IncidentKind::CapabilityDrift,
            "breaker_trip" => IncidentKind::BreakerTrip,
            "breaker_recovery" => IncidentKind::BreakerRecovery,
            _ => return None,
        })
    }
}

/// Classifies an [`INFRA_MARKER`]-carrying message into an incident kind.
///
/// The injected fault catalog embeds its fault ids (`infra_crash`, ...) in
/// every message it produces, so attribution is exact for injected faults;
/// unknown infrastructure messages default to a connection drop, the most
/// generic transient failure.
pub fn classify_infra_message(message: &str) -> IncidentKind {
    let lower = message.to_ascii_lowercase();
    // Probe/capability attribution runs first: a backend that dies *during
    // the capability probe* is a connect/respawn problem, not a case-workload
    // crash, and a capability lie is a contract violation rather than a
    // transient fault — folding either into `BackendCrash` would hide the
    // self-healing layer's own failure modes from the ledger.
    if message.contains("infra_capability_lie") || lower.contains("capability drift") {
        return IncidentKind::CapabilityDrift;
    }
    if message.contains("infra_probe")
        || lower.contains("capability probe")
        || lower.contains("connect probe")
    {
        return IncidentKind::ProbeFailure;
    }
    if message.contains("infra_crash")
        // Wire backends: a dead subprocess surfaces as an exited child or a
        // broken stdin/stdout pipe. Always a backend crash, never a logic
        // bug.
        || lower.contains("process exited")
        || lower.contains("broken pipe")
        || lower.contains("epipe")
        || lower.contains("unexpected eof")
    {
        IncidentKind::BackendCrash
    } else if message.contains("infra_hang") {
        IncidentKind::WatchdogTimeout
    } else if message.contains("infra_garble") {
        IncidentKind::GarbledResult
    } else {
        IncidentKind::ConnectionDrop
    }
}

/// One recorded supervision incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignIncident {
    /// What happened.
    pub kind: IncidentKind,
    /// The database index the campaign was building when it happened.
    pub database: usize,
    /// The campaign-global test-case counter at the time.
    pub case_index: u64,
    /// Which attempt at the case failed (0 = first try).
    pub attempt: u32,
    /// The watchdog's virtual-tick deadline that governed the attempt
    /// ([`SupervisorConfig::deadline_ticks`]; 0 for incidents recorded
    /// outside a supervised case attempt, e.g. storage-counter failures).
    pub deadline_ticks: u64,
    /// The virtual ticks the attempt was observed to consume. Together
    /// with [`CampaignIncident::deadline_ticks`] this makes hang
    /// incidents diagnosable from the ledger alone — "overran by how
    /// much" survives into checkpoints and merged fleet reports.
    pub observed_ticks: u64,
    /// The opaque backend/panic message (single line).
    pub detail: String,
}

json_name!(IncidentKind: IncidentKind::name, IncidentKind::parse);
// Incidents are the bulk of a fault-storm checkpoint: positional rows.
json_record!(struct CampaignIncident [
    kind, database, case_index, attempt, deadline_ticks, observed_ticks, detail
]);

/// Aggregate robustness counters for a supervised campaign. Reported next
/// to [`CampaignMetrics`]; like them, they merge across shards and
/// dialects. Within a campaign every field except
/// [`RobustnessCounters::recovered_workers`] is written only by the
/// supervisor's event fold (`Supervisor::emit`): the per-kind counts from
/// `Incident` events, `retries`/`backoff_ticks` from `Retry`, `quarantines`
/// from `Quarantined` and `infra_failures` from `InfraFailed` verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessCounters {
    /// Total incidents recorded (of any kind).
    pub incidents: u64,
    /// Case attempts re-run after an infrastructure failure.
    pub retries: u64,
    /// Watchdog incidents ([`IncidentKind::WatchdogTimeout`]): case
    /// attempts that overran the virtual-clock deadline, plus backend hangs
    /// (`infra_hang`) reported inside it. Folded from the same `Incident`
    /// events the trace summary counts, so the two agree.
    pub watchdog_trips: u64,
    /// Virtual ticks spent in retry backoff (exponential, deterministic).
    pub backoff_ticks: u64,
    /// Dialect quarantines (0 or 1 per campaign).
    pub quarantines: u64,
    /// Oracle panics isolated by `catch_unwind`.
    pub oracle_panics: u64,
    /// Cases abandoned after exhausting their retry budget.
    pub infra_failures: u64,
    /// Failed storage-counter reads (previously swallowed as zeros).
    pub storage_metric_errors: u64,
    /// Worker threads whose shard was recovered after a panic or a
    /// poisoned result lock.
    pub recovered_workers: u64,
    /// Pool circuit breakers opened after consecutive infra failures.
    pub breaker_trips: u64,
    /// Half-open breaker probes that readmitted their slot.
    pub breaker_recoveries: u64,
    /// Capability probes that failed on a transport error.
    pub probe_failures: u64,
    /// Static-vs-probed capability disagreements (one per database the
    /// downgrade was re-announced for).
    pub capability_drifts: u64,
}

json_record!(struct RobustnessCounters {
    incidents, retries, watchdog_trips, backoff_ticks, quarantines, oracle_panics, infra_failures,
    storage_metric_errors, recovered_workers, breaker_trips, breaker_recoveries, probe_failures,
    capability_drifts
});

impl RobustnessCounters {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &RobustnessCounters) {
        self.incidents += other.incidents;
        self.retries += other.retries;
        self.watchdog_trips += other.watchdog_trips;
        self.backoff_ticks += other.backoff_ticks;
        self.quarantines += other.quarantines;
        self.oracle_panics += other.oracle_panics;
        self.infra_failures += other.infra_failures;
        self.storage_metric_errors += other.storage_metric_errors;
        self.recovered_workers += other.recovered_workers;
        self.breaker_trips += other.breaker_trips;
        self.breaker_recoveries += other.breaker_recoveries;
        self.probe_failures += other.probe_failures;
        self.capability_drifts += other.capability_drifts;
    }
}

/// Supervision policy for a campaign. The default is deliberately inert
/// for well-behaved backends: no checkpointing, no case budget, and a
/// watchdog/retry machinery that only ever acts on panics, virtual-clock
/// overruns or [`INFRA_MARKER`] messages — none of which a fault-free
/// backend produces — so a supervised campaign over a healthy backend is
/// byte-identical to the unsupervised loop it replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Virtual-tick budget per case attempt; an attempt whose connection
    /// clock advances further trips the watchdog and is retried.
    pub deadline_ticks: u64,
    /// Retries per case after the first attempt (so a case is attempted at
    /// most `max_retries + 1` times).
    pub max_retries: u32,
    /// First retry's backoff in virtual ticks; doubles per attempt.
    pub backoff_base_ticks: u64,
    /// Consecutive retry-exhausted cases after which the dialect is
    /// quarantined (its partial report marked degraded). `0` disables
    /// quarantine.
    pub quarantine_threshold: u32,
    /// Write a resume checkpoint every N completed cases (requires
    /// [`SupervisorConfig::checkpoint_path`]; `0` disables cadence).
    pub checkpoint_every: u64,
    /// Where to write resume checkpoints (atomically: temp file + rename).
    pub checkpoint_path: Option<PathBuf>,
    /// Abort the run (as a crash would) once this many cases completed —
    /// the deterministic "kill at case k" used by resume tests. No final
    /// checkpoint is written at the stop: like a real kill, progress since
    /// the last cadence checkpoint is lost.
    pub stop_after_cases: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            deadline_ticks: 100_000,
            max_retries: 3,
            backoff_base_ticks: 16,
            quarantine_threshold: 8,
            checkpoint_every: 0,
            checkpoint_path: None,
            stop_after_cases: None,
        }
    }
}

/// The verdict of a supervised case execution.
#[derive(Debug)]
pub enum SupervisedCase {
    /// The case ran to an oracle outcome (possibly after retries).
    Completed(OracleOutcome),
    /// Every attempt failed on infrastructure errors; the case was
    /// abandoned and counts toward quarantine.
    InfraFailed,
    /// The oracle panicked without an infrastructure marker; the case was
    /// abandoned (an internal error will not heal by retrying).
    Panicked,
}

/// The per-campaign supervision runtime: policy, the campaign's ledger
/// (metrics and robustness counters folded from its events), accumulated
/// incidents and the consecutive-failure state driving quarantine. The
/// ledger travels in campaign checkpoints as the partial report, so a
/// resumed campaign carries its counts and incident history.
#[derive(Clone)]
pub struct Supervisor {
    config: SupervisorConfig,
    metrics: CampaignMetrics,
    robustness: RobustnessCounters,
    /// Incidents recorded so far, in occurrence order.
    pub incidents: Vec<CampaignIncident>,
    consecutive_infra: u32,
    trace: Option<TraceHandle>,
    /// The seed of the case currently inside [`Supervisor::run_case`]
    /// (0 outside), stamping ledger trace events.
    case_seed: u64,
    /// The infrastructure failure that cut the last rebuild short
    /// ([`Supervisor::recover`]): the connection is half-built, so the
    /// next attempt is spent rebuilding it instead of taking a verdict.
    pub(crate) half_built: Option<String>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("metrics", &self.metrics)
            .field("robustness", &self.robustness)
            .field("incidents", &self.incidents)
            .field("consecutive_infra", &self.consecutive_infra)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Creates a supervisor with empty history.
    pub fn new(config: SupervisorConfig) -> Supervisor {
        Supervisor::with_state(config, &CampaignReport::default(), 0)
    }

    /// Recreates a supervisor from a checkpointed partial report: its
    /// metrics, robustness counters and incidents seed the ledger.
    pub fn with_state(
        config: SupervisorConfig,
        report: &CampaignReport,
        consecutive_infra: u32,
    ) -> Supervisor {
        Supervisor {
            config,
            metrics: report.metrics,
            robustness: report.robustness,
            incidents: report.incidents.clone(),
            consecutive_infra,
            trace: None,
            case_seed: 0,
            half_built: None,
        }
    }

    /// Attaches a trace sink: retry, incident and verdict events stream
    /// into it from every supervised case.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// The supervision policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// The campaign metrics so far.
    pub fn metrics(&self) -> &CampaignMetrics {
        &self.metrics
    }

    /// The metrics fields no event carries (`ddl_*`, `conflict_aborts` and
    /// the storage counters), for the campaign to write directly. The
    /// event-carried fields are the fold's alone.
    pub(crate) fn metrics_mut(&mut self) -> &mut CampaignMetrics {
        &mut self.metrics
    }

    /// The robustness counters so far.
    pub fn counters(&self) -> RobustnessCounters {
        self.robustness
    }

    /// Copies the ledger (metrics, robustness counters and incidents) into
    /// a report.
    pub(crate) fn fill_report(&self, report: &mut CampaignReport) {
        report.metrics = self.metrics;
        report.robustness = self.robustness;
        report.incidents.clone_from(&self.incidents);
    }

    /// Folds one deterministic event into the ledger, then forwards it to
    /// the trace sink unchanged. Every case-lifecycle event of the campaign
    /// and the supervisor passes through here, in emission order.
    pub(crate) fn emit(&mut self, case_seed: u64, ticks: u64, kind: TraceEventKind) {
        let (metrics, robustness) = (&mut self.metrics, &mut self.robustness);
        match kind {
            TraceEventKind::CaseStarted { oracle, .. } => {
                if oracle == OracleKind::Isolation {
                    metrics.isolation_schedules += 1;
                }
            }
            TraceEventKind::Verdict { verdict } => {
                metrics.test_cases += 1;
                match verdict {
                    TraceVerdict::Pass => metrics.valid_test_cases += 1,
                    TraceVerdict::Bug => {
                        metrics.valid_test_cases += 1;
                        metrics.detected_bug_cases += 1;
                    }
                    TraceVerdict::InfraFailed => robustness.infra_failures += 1,
                    TraceVerdict::Invalid | TraceVerdict::Panicked => {}
                }
            }
            TraceEventKind::Prioritized { kept: true } => metrics.prioritized_bugs += 1,
            TraceEventKind::Prioritized { kept: false } => metrics.deduplicated_bugs += 1,
            TraceEventKind::Retry { .. } => {
                robustness.retries += 1;
                robustness.backoff_ticks += ticks;
            }
            TraceEventKind::Quarantined => robustness.quarantines += 1,
            TraceEventKind::Incident { kind } => {
                robustness.incidents += 1;
                match kind {
                    IncidentKind::WatchdogTimeout => robustness.watchdog_trips += 1,
                    IncidentKind::OraclePanic => robustness.oracle_panics += 1,
                    IncidentKind::StorageMetricsError => robustness.storage_metric_errors += 1,
                    IncidentKind::ProbeFailure => robustness.probe_failures += 1,
                    IncidentKind::CapabilityDrift => robustness.capability_drifts += 1,
                    IncidentKind::BreakerTrip => robustness.breaker_trips += 1,
                    IncidentKind::BreakerRecovery => robustness.breaker_recoveries += 1,
                    IncidentKind::BackendCrash
                    | IncidentKind::ConnectionDrop
                    | IncidentKind::GarbledResult
                    | IncidentKind::WorkerPanic => {}
                }
            }
            TraceEventKind::SetupStatement { .. }
            | TraceEventKind::Statement { .. }
            | TraceEventKind::Reduced { .. } => {}
        }
        if let Some(sink) = &self.trace {
            sink.borrow_mut().event(&TraceEvent {
                case_seed,
                ticks,
                kind,
            });
        }
    }

    /// Consecutive cases abandoned on infrastructure errors (quarantine
    /// trigger state).
    pub fn consecutive_infra(&self) -> u32 {
        self.consecutive_infra
    }

    /// Whether the dialect has crossed the quarantine threshold.
    pub fn should_quarantine(&self) -> bool {
        self.config.quarantine_threshold > 0
            && self.consecutive_infra >= self.config.quarantine_threshold
    }

    /// Records an incident in the supervision ledger (and on the trace,
    /// stamped with the incident's `observed_ticks`). The detail text is
    /// flattened to a single line. `deadline_ticks`/`observed_ticks` are
    /// the watchdog budget governing the attempt and the virtual ticks it
    /// was observed to consume (0/0 for incidents recorded outside a case
    /// attempt).
    pub fn record(&mut self, incident: CampaignIncident) {
        self.emit(
            self.case_seed,
            incident.observed_ticks,
            TraceEventKind::Incident {
                kind: incident.kind,
            },
        );
        self.incidents.push(CampaignIncident {
            detail: single_line(&incident.detail),
            ..incident
        });
    }

    /// Runs one oracle case under supervision: panic isolation, the
    /// virtual-clock watchdog, bounded retry with state recovery, and
    /// quarantine accounting. `check` must be re-runnable — the campaign
    /// generates the case data once and the closure only executes it.
    ///
    /// A verdict is only ever taken on a fully rebuilt state: when the last
    /// rebuild was cut short by an infrastructure failure, the attempt is
    /// spent on that failure (an incident, then another rebuild) and the
    /// check does not run.
    pub fn run_case(
        &mut self,
        conn: &mut dyn DbmsConnection,
        setup_log: &[Statement],
        database: usize,
        case_index: u64,
        case_seed: u64,
        check: &mut dyn FnMut(&mut dyn DbmsConnection) -> OracleOutcome,
    ) -> SupervisedCase {
        let mut attempt: u32 = 0;
        self.case_seed = case_seed;
        loop {
            // `begin_case` runs inside the unwind guard: for a pooled
            // connection it performs slot checkout, lazy re-sync and (on a
            // fresh connect) the capability probe, any of which can
            // legitimately panic with an `infra:` message. Outside the guard
            // such a panic would kill the whole campaign instead of becoming
            // an incident.
            let ticks_before: Cell<Option<u64>> = Cell::new(None);
            let caught = match self.half_built.take() {
                // The marked replay message fails the attempt like any other
                // infrastructure outcome, with zero case ticks.
                Some(message) => Ok(OracleOutcome::Invalid(format!(
                    "setup replay failed during recovery: {message}"
                ))),
                None => catch_unwind(AssertUnwindSafe(|| {
                    conn.begin_case(case_seed);
                    ticks_before.set(Some(conn.virtual_ticks()));
                    check(conn)
                })),
            };
            // `None` means the attempt died inside `begin_case` itself —
            // before any case work — so it consumed no case ticks.
            let elapsed = match ticks_before.get() {
                Some(before) => conn.virtual_ticks().saturating_sub(before),
                None => 0,
            };
            let failure: Option<(IncidentKind, String)> = match &caught {
                Err(payload) => {
                    let detail = panic_message(payload.as_ref());
                    if detail.contains(INFRA_MARKER) {
                        Some((classify_infra_message(&detail), detail))
                    } else {
                        // An internal platform error: isolate it, rebuild
                        // the backend state and abandon the case — retrying
                        // deterministic code cannot heal it.
                        self.record(CampaignIncident {
                            kind: IncidentKind::OraclePanic,
                            database,
                            case_index,
                            attempt,
                            deadline_ticks: self.config.deadline_ticks,
                            observed_ticks: elapsed,
                            detail,
                        });
                        self.consecutive_infra = 0;
                        self.recover(conn, setup_log);
                        self.settle_case(conn, case_seed, database, case_index, false);
                        self.finish_case(TraceVerdict::Panicked, elapsed);
                        return SupervisedCase::Panicked;
                    }
                }
                Ok(outcome) if elapsed > self.config.deadline_ticks => {
                    let mut detail = format!(
                        "case attempt overran deadline: {elapsed} virtual ticks > {} budget",
                        self.config.deadline_ticks
                    );
                    // Keep the backend's own failure text (and with it the
                    // injected-fault attribution, e.g. `infra_hang`) when
                    // the overrun came with one.
                    if let Some((_, message)) = infra_failure(outcome) {
                        detail.push_str(": ");
                        detail.push_str(&message);
                    }
                    Some((IncidentKind::WatchdogTimeout, detail))
                }
                Ok(outcome) => infra_failure(outcome),
            };
            let Some((kind, detail)) = failure else {
                self.consecutive_infra = 0;
                // Safe mode for the post-case work (reduction, setup-log
                // replay): a fault planned for a statement index the check
                // never reached must not fire mid-reduction.
                conn.begin_case(0);
                self.settle_case(conn, case_seed, database, case_index, false);
                let outcome = match caught {
                    Ok(outcome) => outcome,
                    Err(_) => unreachable!("non-failure verdicts come from Ok attempts"),
                };
                let verdict = match &outcome {
                    OracleOutcome::Passed => TraceVerdict::Pass,
                    OracleOutcome::Invalid(_) => TraceVerdict::Invalid,
                    OracleOutcome::Bug(_) => TraceVerdict::Bug,
                };
                self.finish_case(verdict, elapsed);
                return SupervisedCase::Completed(outcome);
            };
            self.record(CampaignIncident {
                kind,
                database,
                case_index,
                attempt,
                deadline_ticks: self.config.deadline_ticks,
                observed_ticks: elapsed,
                detail,
            });
            self.recover(conn, setup_log);
            if attempt >= self.config.max_retries {
                self.consecutive_infra += 1;
                self.settle_case(conn, case_seed, database, case_index, true);
                self.finish_case(TraceVerdict::InfraFailed, elapsed);
                return SupervisedCase::InfraFailed;
            }
            // Deterministic exponential backoff on the virtual clock; no
            // wall time is spent or consulted.
            let backoff = self.config.backoff_base_ticks << attempt.min(16);
            self.emit(case_seed, backoff, TraceEventKind::Retry { attempt, kind });
            attempt += 1;
        }
    }

    /// Rebuilds the backend state from the setup log: safe mode (no fault
    /// arming), then [`replay_setup`]. Used after every failed attempt and
    /// for the campaign's resume and post-reduction rebuilds, so a
    /// recovered backend is observably identical to one that never failed.
    /// A replay cut short by an infrastructure failure leaves the
    /// connection half-built; the next [`Supervisor::run_case`] attempt is
    /// then spent on it.
    pub fn recover(&mut self, conn: &mut dyn DbmsConnection, setup_log: &[Statement]) {
        conn.begin_case(0);
        self.half_built = replay_setup(conn, setup_log).err();
    }

    /// Settles the case's final attempt with the connection layer and
    /// drains its resilience events (breaker trips/recoveries, capability
    /// drift re-announcements) into the incident ledger. Called exactly
    /// once per case, on every `run_case` return path, so the breaker
    /// ledger advances in case order — a pure function of the seed
    /// schedule, independent of pool size and worker count.
    fn settle_case(
        &mut self,
        conn: &mut dyn DbmsConnection,
        case_seed: u64,
        database: usize,
        case_index: u64,
        infra_failed: bool,
    ) {
        conn.note_case_outcome(case_seed, infra_failed);
        for event in conn.drain_resilience_events() {
            let (kind, detail) = match event {
                ResilienceEvent::CapabilityDrift { detail } => {
                    (IncidentKind::CapabilityDrift, detail)
                }
                ResilienceEvent::BreakerTripped {
                    vslot,
                    clock,
                    until,
                } => (
                    IncidentKind::BreakerTrip,
                    format!(
                        "slot breaker opened: virtual slot {vslot} tripped at \
                             resilience clock {clock}, detouring checkouts until clock {until}"
                    ),
                ),
                ResilienceEvent::BreakerRecovered { vslot, clock } => (
                    IncidentKind::BreakerRecovery,
                    format!(
                        "slot breaker closed: virtual slot {vslot} readmitted at \
                         resilience clock {clock}"
                    ),
                ),
            };
            self.record(CampaignIncident {
                kind,
                database,
                case_index,
                attempt: 0,
                deadline_ticks: 0,
                observed_ticks: 0,
                detail,
            });
        }
    }

    /// Emits the case's verdict event and leaves case scope.
    fn finish_case(&mut self, verdict: TraceVerdict, elapsed: u64) {
        self.emit(self.case_seed, elapsed, TraceEventKind::Verdict { verdict });
        self.case_seed = 0;
    }
}

/// Extracts the infrastructure failure from an oracle outcome, if any. A
/// `Bug` carrying the marker is treated as an infrastructure failure too —
/// defence in depth for the "incidents never surface as logic bugs"
/// guarantee.
fn infra_failure(outcome: &OracleOutcome) -> Option<(IncidentKind, String)> {
    let message = match outcome {
        OracleOutcome::Invalid(message) if message.contains(INFRA_MARKER) => message.clone(),
        OracleOutcome::Bug(bug) if bug.description.contains(INFRA_MARKER) => {
            bug.description.clone()
        }
        _ => return None,
    };
    Some((classify_infra_message(&message), message))
}

/// Installs a process-global panic hook that silences panics carrying
/// [`INFRA_MARKER`] — injected backend crashes that the supervisor catches,
/// records and recovers from — while delegating every other panic to the
/// previously installed hook. Without this, every caught crash still spews
/// a backtrace to stderr through the default hook. Call it once at process
/// start (examples, benches, CI gates); libraries and tests work fine
/// without it, just noisily.
pub fn silence_infra_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let silenced = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains(INFRA_MARKER))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains(INFRA_MARKER))
            })
            .unwrap_or(false);
        if !silenced {
            previous(info);
        }
    }));
}

/// Renders a panic payload as a single-line string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Collapses a message to one line (checkpoint files are line-oriented and
/// incident details are embedded in them escaped, but keeping details
/// single-line also keeps logs readable).
fn single_line(message: &str) -> String {
    if message.contains('\n') || message.contains('\r') {
        message
            .split(['\n', '\r'])
            .filter(|part| !part.is_empty())
            .collect::<Vec<_>>()
            .join(" | ")
    } else {
        message.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbms::{DialectQuirks, QueryResult, StatementOutcome};

    /// A bookkeeping connection for supervisor tests: the failing
    /// behaviour itself is scripted by each test's check closure; the
    /// connection just counts attempts, resets, ticks and replayed setup.
    struct FlakyConn {
        attempt: u32,
        ticks: u64,
        resets: u64,
        replayed: Vec<String>,
    }

    impl FlakyConn {
        fn new() -> FlakyConn {
            FlakyConn {
                attempt: 0,
                ticks: 0,
                resets: 0,
                replayed: Vec::new(),
            }
        }
    }

    impl DbmsConnection for FlakyConn {
        fn name(&self) -> &str {
            "flaky"
        }
        fn execute(&mut self, sql: &str) -> StatementOutcome {
            self.ticks += 1;
            self.replayed.push(sql.to_string());
            StatementOutcome::Success
        }
        fn query(&mut self, _sql: &str) -> Result<QueryResult, String> {
            self.ticks += 1;
            Ok(QueryResult::default())
        }
        fn reset(&mut self) {
            self.resets += 1;
        }
        fn quirks(&self) -> DialectQuirks {
            DialectQuirks::default()
        }
        fn begin_case(&mut self, case_seed: u64) {
            if case_seed != 0 {
                self.attempt += 1;
            }
        }
        fn virtual_ticks(&self) -> u64 {
            self.ticks
        }
    }

    #[test]
    fn infra_invalid_outcomes_are_retried_until_success() {
        // Script the failure through the check closure instead: first two
        // attempts report an infra drop, third passes.
        let mut conn = FlakyConn::new();
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        let setup: Vec<Statement> = Vec::new();
        let result = supervisor.run_case(&mut conn, &setup, 0, 7, 1, &mut |conn| {
            if conn.virtual_ticks() < 2 {
                conn.query("SELECT 1").ok();
                OracleOutcome::Invalid(
                    "infra: connection reset by peer (injected infra_drop)".into(),
                )
            } else {
                OracleOutcome::Passed
            }
        });
        assert!(matches!(
            result,
            SupervisedCase::Completed(OracleOutcome::Passed)
        ));
        assert_eq!(supervisor.counters().retries, 2);
        assert_eq!(supervisor.counters().incidents, 2);
        assert_eq!(supervisor.incidents[0].kind, IncidentKind::ConnectionDrop);
        assert_eq!(supervisor.consecutive_infra(), 0);
    }

    #[test]
    fn infra_panics_are_caught_and_retried() {
        let mut conn = FlakyConn::new();
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        let setup = vec![sql_parser::parse_statement("CREATE TABLE t0 (c0 INTEGER)").unwrap()];
        let mut attempts = 0u32;
        let result = supervisor.run_case(&mut conn, &setup, 1, 3, 9, &mut |_conn| {
            attempts += 1;
            if attempts <= 2 {
                panic!("infra: backend crashed (injected infra_crash)");
            }
            OracleOutcome::Passed
        });
        assert!(matches!(
            result,
            SupervisedCase::Completed(OracleOutcome::Passed)
        ));
        assert_eq!(supervisor.counters().incidents, 2);
        assert_eq!(supervisor.incidents[0].kind, IncidentKind::BackendCrash);
        // Recovery replayed the setup log after each failure.
        assert_eq!(conn.resets, 2);
        assert_eq!(conn.replayed.len(), 2);
    }

    #[test]
    fn plain_panics_abandon_the_case_without_retry() {
        let mut conn = FlakyConn::new();
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        let setup: Vec<Statement> = Vec::new();
        let result = supervisor.run_case(&mut conn, &setup, 0, 0, 5, &mut |_conn| {
            panic!("index out of bounds: the len is 0")
        });
        assert!(matches!(result, SupervisedCase::Panicked));
        assert_eq!(supervisor.counters().oracle_panics, 1);
        assert_eq!(supervisor.counters().retries, 0);
        assert_eq!(supervisor.incidents[0].kind, IncidentKind::OraclePanic);
    }

    #[test]
    fn watchdog_trips_on_virtual_clock_overrun() {
        let mut conn = FlakyConn::new();
        let mut supervisor = Supervisor::new(SupervisorConfig {
            deadline_ticks: 10,
            ..SupervisorConfig::default()
        });
        let setup: Vec<Statement> = Vec::new();
        let mut first = true;
        let result = supervisor.run_case(&mut conn, &setup, 0, 0, 2, &mut |conn| {
            if first {
                first = false;
                for _ in 0..50 {
                    let _ = conn.query("SELECT 1");
                }
            }
            OracleOutcome::Passed
        });
        assert!(matches!(
            result,
            SupervisedCase::Completed(OracleOutcome::Passed)
        ));
        assert_eq!(supervisor.counters().watchdog_trips, 1);
        assert_eq!(supervisor.incidents[0].kind, IncidentKind::WatchdogTimeout);
    }

    #[test]
    fn a_hang_reported_inside_the_deadline_counts_as_one_watchdog_trip() {
        // A short injected hang: the backend gives up after a few ticks,
        // well inside the deadline, and says so. It is a watchdog incident
        // like an overrun, and counted once, where the incident is recorded.
        let mut conn = FlakyConn::new();
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        let setup: Vec<Statement> = Vec::new();
        let mut first = true;
        let result = supervisor.run_case(&mut conn, &setup, 0, 0, 3, &mut |conn| {
            if std::mem::take(&mut first) {
                let _ = conn.query("SELECT 1");
                return OracleOutcome::Invalid(format!(
                    "{INFRA_MARKER} statement exceeded deadline (injected infra_hang)"
                ));
            }
            OracleOutcome::Passed
        });
        assert!(matches!(
            result,
            SupervisedCase::Completed(OracleOutcome::Passed)
        ));
        assert!(supervisor.incidents[0].observed_ticks < supervisor.config.deadline_ticks);
        assert_eq!(supervisor.incidents[0].kind, IncidentKind::WatchdogTimeout);
        assert_eq!(supervisor.counters().watchdog_trips, 1);
        assert_eq!(supervisor.counters().incidents, 1);
    }

    #[test]
    fn exhausted_retries_count_toward_quarantine() {
        let mut conn = FlakyConn::new();
        let mut supervisor = Supervisor::new(SupervisorConfig {
            max_retries: 1,
            quarantine_threshold: 2,
            ..SupervisorConfig::default()
        });
        let setup: Vec<Statement> = Vec::new();
        for case in 0..2 {
            let result = supervisor.run_case(&mut conn, &setup, 0, case, case + 1, &mut |_conn| {
                OracleOutcome::Invalid("infra: connection reset by peer".into())
            });
            assert!(matches!(result, SupervisedCase::InfraFailed));
        }
        assert!(supervisor.should_quarantine());
        assert_eq!(supervisor.counters().infra_failures, 2);
        // Each case: 1 retry, 2 incidents.
        assert_eq!(supervisor.counters().retries, 2);
        assert_eq!(supervisor.counters().incidents, 4);
    }

    /// A connection whose recovery replay garbles one statement: it tracks
    /// how many setup statements the current state holds, so a test can
    /// see whether any verdict was taken on a half-built state.
    struct GarbledReplayConn {
        safe: bool,
        garble_armed: bool,
        /// Setup statements replayed since the last reset.
        built: usize,
        /// `built` as each in-case query saw it.
        seen_by_checks: Vec<usize>,
    }

    impl DbmsConnection for GarbledReplayConn {
        fn name(&self) -> &str {
            "garbled-replay"
        }
        fn execute(&mut self, _sql: &str) -> StatementOutcome {
            if self.safe && std::mem::take(&mut self.garble_armed) {
                return StatementOutcome::Failure(
                    "infra: result checksum mismatch (injected infra_garble)".into(),
                );
            }
            self.built += 1;
            StatementOutcome::Success
        }
        fn query(&mut self, _sql: &str) -> Result<QueryResult, String> {
            self.seen_by_checks.push(self.built);
            Ok(QueryResult::default())
        }
        fn reset(&mut self) {
            self.built = 0;
        }
        fn begin_case(&mut self, case_seed: u64) {
            self.safe = case_seed == 0;
        }
    }

    #[test]
    fn garbled_recovery_replay_spends_an_attempt_instead_of_a_verdict() {
        let setup: Vec<Statement> = [
            "CREATE TABLE t0 (c0 INTEGER)",
            "INSERT INTO t0 (c0) VALUES (1)",
        ]
        .map(|sql| sql_parser::parse_statement(sql).unwrap())
        .into();
        let mut conn = GarbledReplayConn {
            safe: true,
            garble_armed: true,
            built: setup.len(),
            seen_by_checks: Vec::new(),
        };
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        let mut checks = 0u32;
        let result = supervisor.run_case(&mut conn, &setup, 0, 0, 6, &mut |conn| {
            checks += 1;
            let _ = conn.query("SELECT * FROM t0");
            if checks == 1 {
                OracleOutcome::Invalid("infra: connection reset by peer".into())
            } else {
                OracleOutcome::Passed
            }
        });
        assert!(matches!(
            result,
            SupervisedCase::Completed(OracleOutcome::Passed)
        ));
        // Attempt 0 dropped; its recovery replay was garbled, so attempt 1
        // went to a second recovery and only attempt 2 ran the check again.
        assert_eq!(checks, 2);
        assert_eq!(conn.seen_by_checks, vec![setup.len(); 2]);
        let kinds: Vec<IncidentKind> = supervisor.incidents.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            [IncidentKind::ConnectionDrop, IncidentKind::GarbledResult]
        );
        assert!(supervisor.incidents[1]
            .detail
            .contains("setup replay failed during recovery"));
        assert_eq!(supervisor.counters().retries, 2);

        // With no retries left, the half-built state carries over: the next
        // case spends its attempt rebuilding instead of checking.
        let mut strict = Supervisor::new(SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        });
        conn.garble_armed = true;
        conn.seen_by_checks.clear();
        let mut drop_first = true;
        let first = strict.run_case(&mut conn, &setup, 0, 0, 7, &mut |conn| {
            let _ = conn.query("SELECT * FROM t0");
            if std::mem::take(&mut drop_first) {
                OracleOutcome::Invalid("infra: connection reset by peer".into())
            } else {
                OracleOutcome::Passed
            }
        });
        assert!(matches!(first, SupervisedCase::InfraFailed));
        let second = strict.run_case(&mut conn, &setup, 0, 1, 8, &mut |_conn| {
            panic!("no check may run on a half-built state")
        });
        assert!(matches!(second, SupervisedCase::InfraFailed));
        let third = strict.run_case(&mut conn, &setup, 0, 2, 9, &mut |conn| {
            let _ = conn.query("SELECT * FROM t0");
            OracleOutcome::Passed
        });
        assert!(matches!(
            third,
            SupervisedCase::Completed(OracleOutcome::Passed)
        ));
        assert_eq!(conn.seen_by_checks, vec![setup.len(); 2]);
    }

    #[test]
    fn infra_marked_bug_is_never_reported_as_a_bug() {
        let mut conn = FlakyConn::new();
        let mut supervisor = Supervisor::new(SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        });
        let setup: Vec<Statement> = Vec::new();
        let result = supervisor.run_case(&mut conn, &setup, 0, 0, 4, &mut |_conn| {
            OracleOutcome::Bug(Box::new(crate::oracle::BugReport {
                oracle: crate::oracle::OracleKind::Tlp,
                description: "infra: garbled result frame (injected infra_garble)".into(),
                setup: Vec::new(),
                queries: Vec::new(),
                features: crate::feature::FeatureSet::new(),
            }))
        });
        assert!(matches!(result, SupervisedCase::InfraFailed));
        assert_eq!(supervisor.incidents[0].kind, IncidentKind::GarbledResult);
    }

    #[test]
    fn incident_kind_names_round_trip() {
        for kind in [
            IncidentKind::BackendCrash,
            IncidentKind::WatchdogTimeout,
            IncidentKind::ConnectionDrop,
            IncidentKind::GarbledResult,
            IncidentKind::OraclePanic,
            IncidentKind::StorageMetricsError,
            IncidentKind::WorkerPanic,
            IncidentKind::ProbeFailure,
            IncidentKind::CapabilityDrift,
            IncidentKind::BreakerTrip,
            IncidentKind::BreakerRecovery,
        ] {
            assert_eq!(IncidentKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(IncidentKind::parse("nonsense"), None);
    }

    #[test]
    fn classify_routes_probe_and_drift_messages() {
        assert_eq!(
            classify_infra_message(
                "infra: backend crashed during capability probe (injected infra_probe)"
            ),
            IncidentKind::ProbeFailure
        );
        assert_eq!(
            classify_infra_message("infra: capability probe failed on re-sync: boom"),
            IncidentKind::ProbeFailure
        );
        assert_eq!(
            classify_infra_message(
                "infra: capability drift: transactions claimed but BEGIN rejected \
                 (injected infra_capability_lie)"
            ),
            IncidentKind::CapabilityDrift
        );
        // Flap messages carry no dedicated classification hook — they look
        // like a generic transient drop to the platform, by design.
        assert_eq!(
            classify_infra_message("infra: backend flapping after respawn (injected infra_flap)"),
            IncidentKind::ConnectionDrop
        );
    }
}
