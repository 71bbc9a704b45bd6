//! Two-plane campaign telemetry: the deterministic flight recorder.
//!
//! The campaign's determinism contract (byte-identical reports for any
//! worker count and pool size) makes observability a design problem:
//! naive tracing — wall-clock timestamps, per-worker logs — would be the
//! one output that breaks under parallelism. This module therefore splits
//! telemetry into two planes with different guarantees:
//!
//! * The **deterministic plane**: structured per-case lifecycle events
//!   ([`TraceEvent`] — generate → setup → statement → verdict → reduce →
//!   prioritize, plus supervisor retry/incident/quarantine events), each
//!   stamped with the case seed and **virtual ticks** (never wall time),
//!   aggregated into log2-bucket latency histograms per (oracle kind ×
//!   dialect) ([`TraceSummary`]). Summaries merge across shards by pure
//!   summation, so serial, partitioned and pooled runs of the same
//!   campaign render byte-identical [`render_trace_summary`] dashboards.
//!   Tick stamps are per-case *deltas*, sampled after the pool's slot
//!   checkout/re-sync — absolute slot clocks depend on the pool size,
//!   deltas do not.
//!
//! * The **wall-clock plane**, explicitly *outside* the determinism
//!   contract: a live progress reporter ([`ProgressSnapshot`] via a
//!   periodic callback — cases/sec, validity rate, bug count, quarantine
//!   state), operational backend events ([`BackendEvent`] — pool slot
//!   checkouts and re-syncs, wire bytes, child respawns; all pool-size-
//!   or transport-dependent), and a JSONL **flight recorder**
//!   ([`FlightRecorder`]) keeping a bounded ring of recent cases plus the
//!   *full* event history of every bug-report and infra-incident case,
//!   flushed on campaign end and at every checkpoint so post-mortem
//!   forensics survive a crash.
//!
//! The [`TraceSink`] trait is the seam: campaigns and supervisors emit
//! into any sink ([`Tracer`] is the batteries-included implementation)
//! through a shared [`TraceHandle`]; an untraced campaign holds no handle
//! at all.

use crate::dbms::{
    DbmsConnection, DialectQuirks, QueryResult, StateCheckpoint, StatementOutcome, StorageMetrics,
};
use crate::json::{json_record, Codec, Json};
use crate::oracle::OracleKind;
use crate::supervisor::{IncidentKind, Ledger};
use sql_ast::{Select, Statement};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

// ---------------------------------------------------- deterministic plane ----

/// Compressed oracle verdict as it appears in the trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The derived queries agreed.
    Pass,
    /// The case was invalid for this dialect (validity feedback).
    Invalid,
    /// A bug-inducing test case.
    Bug,
    /// Every attempt failed on infrastructure errors; the case was
    /// abandoned by the supervisor.
    InfraFailed,
    /// The oracle panicked without an infrastructure marker.
    Panicked,
}

impl TraceVerdict {
    /// Canonical lowercase name (JSONL and dashboard rendering).
    pub fn name(self) -> &'static str {
        match self {
            TraceVerdict::Pass => "pass",
            TraceVerdict::Invalid => "invalid",
            TraceVerdict::Bug => "bug",
            TraceVerdict::InfraFailed => "infra_failed",
            TraceVerdict::Panicked => "panicked",
        }
    }
}

/// What happened, within one deterministic-plane trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A test case was generated and is about to run (ticks = 0).
    CaseStarted {
        /// Database index within the campaign.
        database: usize,
        /// Campaign-global test-case counter.
        case_index: u64,
        /// The oracle scheduled for the case.
        oracle: OracleKind,
    },
    /// One statement executed *outside* a case — database setup, recovery
    /// replay or reduction probes (ticks = that statement's virtual cost).
    SetupStatement {
        /// Whether the statement succeeded.
        ok: bool,
    },
    /// One statement executed inside a case attempt (ticks = cost).
    Statement {
        /// Whether the statement succeeded.
        ok: bool,
    },
    /// The supervisor resolved the case (ticks = the final attempt's
    /// elapsed virtual ticks, as the watchdog measured them).
    Verdict {
        /// How the case resolved.
        verdict: TraceVerdict,
    },
    /// The supervisor scheduled a retry after a failed attempt (ticks =
    /// the deterministic virtual backoff charged).
    Retry {
        /// The attempt number that failed (0 = first try).
        attempt: u32,
        /// The failure classification driving the retry.
        kind: IncidentKind,
    },
    /// An incident was recorded in the supervision ledger (ticks = the
    /// observed virtual ticks of the failed attempt; 0 for out-of-case
    /// incidents such as storage-counter read failures).
    Incident {
        /// The incident classification.
        kind: IncidentKind,
    },
    /// The dialect crossed the quarantine threshold; the campaign stops.
    Quarantined,
    /// A detected bug case was minimised by the reducer (ticks = 0).
    Reduced {
        /// Setup + query statements before reduction.
        statements_before: usize,
        /// Statements after reduction.
        statements_after: usize,
    },
    /// The prioritizer ruled on a detected bug (ticks = 0).
    Prioritized {
        /// `true` when the bug was kept (a new feature pattern), `false`
        /// when deduplicated away.
        kept: bool,
    },
}

/// One deterministic-plane trace event: the case seed, a virtual-tick
/// stamp (a per-event *delta*, never wall time and never an absolute
/// slot clock), and what happened. Two campaigns with the same seed emit
/// identical event streams regardless of worker count or pool size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The case seed (0 for out-of-case events: setup, recovery replay).
    pub case_seed: u64,
    /// Virtual ticks attributed to this event.
    pub ticks: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Why a sink is being flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The campaign wrote a resume checkpoint; flushing here means the
    /// flight recorder survives a crash alongside the checkpoint.
    Checkpoint,
    /// The campaign finished (normally, by budget or by quarantine).
    CampaignEnd,
}

/// A telemetry sink for campaign traces.
///
/// [`TraceSink::event`] is the deterministic plane; everything else is
/// wall-clock-plane and has inert defaults. Implementations must never
/// fail the campaign: telemetry errors are swallowed, not propagated.
pub trait TraceSink {
    /// Announces the dialect whose campaign is about to emit events.
    /// Called once per campaign (and once per shard of a partitioned
    /// campaign); subsequent events accrue to this dialect.
    fn begin_campaign(&mut self, dialect: &str) {
        let _ = dialect;
    }

    /// Receives one deterministic-plane event.
    fn event(&mut self, event: &TraceEvent);

    /// Receives one wall-clock-plane backend event (pool/wire telemetry,
    /// outside the determinism contract).
    fn backend_event(&mut self, event: &BackendEvent) {
        let _ = event;
    }

    /// Receives the campaign's current coverage atlas. The campaign calls
    /// this right before every checkpoint flush and once at campaign end,
    /// so a flushed JSONL file always carries the atlas state it was
    /// flushed with. The default discards it.
    fn coverage(&mut self, dialect: &str, atlas: &crate::atlas::CampaignCoverage) {
        let _ = (dialect, atlas);
    }

    /// Flushes buffered state (the flight recorder's JSONL file).
    fn flush(&mut self, reason: FlushReason) {
        let _ = reason;
    }
}

/// A shared, cloneable handle to a trace sink. Campaigns, supervisors and
/// traced connections each hold a clone; the caller keeps the original to
/// extract summaries after the run. `Rc` (not `Arc`): a sink belongs to
/// one campaign worker — partitioned runs build one sink per shard and
/// merge the [`TraceSummary`] values, which are plain `Send` data.
pub type TraceHandle = Rc<RefCell<dyn TraceSink>>;

/// Forwards every drained backend event into an optional handle.
pub(crate) fn emit_backend(trace: &Option<TraceHandle>, conn: &mut dyn DbmsConnection) {
    if let Some(sink) = trace {
        for event in conn.drain_backend_events() {
            sink.borrow_mut().backend_event(&event);
        }
    }
}

// -------------------------------------------------------------- histogram ----

/// A log2-bucket histogram of virtual-tick latencies: the shared
/// [`crate::hist::Log2Histogram`] implementation, which the coverage
/// atlas's novelty-gap counters also use. Bucket-wise summation merges
/// are exact and order-independent — the property that makes partitioned
/// trace summaries byte-identical to serial ones.
pub use crate::hist::Log2Histogram as LatencyHistogram;

// ---------------------------------------------------------- trace summary ----

/// The deterministic-plane counts only the trace keeps, for one dialect:
/// cases started, statements, ticks and reductions. The counts the report
/// also carries live in the dialect's [`Ledger`]. Every field is a plain
/// sum, so counters merge exactly across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Test cases started.
    pub cases: u64,
    /// Virtual ticks of final case attempts, summed (the elapsed value
    /// each verdict was stamped with; retried attempts' ticks stay
    /// visible on their incident events, not here).
    pub case_ticks: u64,
    /// In-case statements executed.
    pub statements: u64,
    /// In-case statements that failed.
    pub statement_errors: u64,
    /// Out-of-case statements (setup, recovery replay, reduction probes).
    pub setup_statements: u64,
    /// Out-of-case statements that failed.
    pub setup_errors: u64,
    /// Bug cases minimised by the reducer.
    pub reduced_bugs: u64,
    /// Statements removed by reduction, summed over bugs.
    pub reduced_statements_removed: u64,
}

impl TraceCounters {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &TraceCounters) {
        self.cases += other.cases;
        self.case_ticks += other.case_ticks;
        self.statements += other.statements;
        self.statement_errors += other.statement_errors;
        self.setup_statements += other.setup_statements;
        self.setup_errors += other.setup_errors;
        self.reduced_bugs += other.reduced_bugs;
        self.reduced_statements_removed += other.reduced_statements_removed;
    }
}

/// The deterministic trace aggregate for one dialect: the trace-only
/// counters, the [`Ledger`] folded from the same events as the campaign's,
/// a case-latency histogram per oracle kind, and an all-statements latency
/// histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DialectTrace {
    /// Summed trace-only counters.
    pub counters: TraceCounters,
    /// Verdicts, supervisor and prioritizer counts: for a full run, the
    /// report's event-carried counts.
    pub ledger: Ledger,
    /// Case-latency histograms (final-attempt elapsed virtual ticks),
    /// keyed by the oracle that ran the case.
    pub oracles: BTreeMap<OracleKind, LatencyHistogram>,
    /// Per-statement virtual-cost histogram (in-case statements).
    pub statements: LatencyHistogram,
}

impl DialectTrace {
    /// Accumulates another dialect trace into this one.
    pub fn merge(&mut self, other: &DialectTrace) {
        self.counters.merge(&other.counters);
        self.ledger.merge(&other.ledger);
        for (oracle, histogram) in &other.oracles {
            self.oracles.entry(*oracle).or_default().merge(histogram);
        }
        self.statements.merge(&other.statements);
    }
}

/// The deterministic-plane trace aggregate: per-dialect traces, keyed by
/// dialect name. Plain `Send` data — partitioned runners build one
/// [`Tracer`] per shard worker and merge the extracted summaries, in any
/// order, to a byte-identical result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Dialect name → its deterministic trace.
    pub dialects: BTreeMap<String, DialectTrace>,
}

impl TraceSummary {
    /// An empty summary.
    pub fn new() -> TraceSummary {
        TraceSummary::default()
    }

    /// Accumulates another summary into this one (exact summation; the
    /// merge is commutative and associative, so shard order is
    /// irrelevant).
    pub fn merge(&mut self, other: &TraceSummary) {
        for (dialect, trace) in &other.dialects {
            self.dialects
                .entry(dialect.clone())
                .or_default()
                .merge(trace);
        }
    }
}

/// Renders the canonical text dashboard for a trace summary. Like
/// [`crate::resume::render_report`], this is the byte-identity witness:
/// two summaries render identically iff every deterministic-plane
/// aggregate matches. Integer-only, fixed field order, no wall time.
pub fn render_trace_summary(summary: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str("=== trace summary ===\n");
    for (dialect, trace) in &summary.dialects {
        let c = &trace.counters;
        let (m, r) = (&trace.ledger.metrics, &trace.ledger.robustness);
        let _ = writeln!(out, "dialect {dialect}");
        let _ = writeln!(out, "  cases {} case-ticks {}", c.cases, c.case_ticks);
        let _ = writeln!(
            out,
            "  statements {} errors {} setup-statements {} setup-errors {}",
            c.statements, c.statement_errors, c.setup_statements, c.setup_errors
        );
        let _ = writeln!(
            out,
            "  verdicts pass {} invalid {} bug {} infra {} panic {}",
            m.valid_test_cases - m.detected_bug_cases,
            trace.ledger.invalid_cases(),
            m.detected_bug_cases,
            r.infra_failures,
            r.oracle_panics
        );
        let _ = writeln!(
            out,
            "  supervisor retries {} backoff-ticks {} incidents {} watchdog {} quarantines {}",
            r.retries, r.backoff_ticks, r.incidents, r.watchdog_trips, r.quarantines
        );
        let _ = writeln!(
            out,
            "  reduce bugs {} statements-removed {}",
            c.reduced_bugs, c.reduced_statements_removed
        );
        let _ = writeln!(
            out,
            "  prioritize kept {} dropped {}",
            m.prioritized_bugs, m.deduplicated_bugs
        );
        for (oracle, histogram) in &trace.oracles {
            render_histogram(&mut out, &format!("latency {}", oracle.name()), histogram);
        }
        render_histogram(&mut out, "latency statement", &trace.statements);
    }
    out
}

fn render_histogram(out: &mut String, label: &str, histogram: &LatencyHistogram) {
    let _ = writeln!(
        out,
        "  {label} count {} ticks {} max {}",
        histogram.count(),
        histogram.sum(),
        histogram.max()
    );
    for (index, lower, count) in histogram.nonzero_buckets() {
        let _ = writeln!(out, "    b{index} ({lower}+) {count}");
    }
}

// ------------------------------------------------------- wall-clock plane ----

/// An operational backend event, drained from connections via
/// [`DbmsConnection::drain_backend_events`]. Counts are aggregates since
/// the previous drain. **Outside the determinism contract**: checkout and
/// re-sync counts depend on the pool size, wire bytes on transport
/// framing — none of it may leak into [`TraceSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendEvent {
    /// A pool slot was checked out for cases.
    SlotCheckouts {
        /// The slot index.
        slot: usize,
        /// Checkouts since the last drain.
        count: u64,
    },
    /// A stale pool slot was re-synced by replaying the sync log.
    SlotResyncs {
        /// The slot index.
        slot: usize,
        /// Re-syncs since the last drain.
        count: u64,
        /// Statements replayed across those re-syncs.
        replayed: u64,
    },
    /// Bytes written to a wire backend.
    WireWrites {
        /// Bytes written since the last drain.
        bytes: u64,
    },
    /// Bytes read from a wire backend.
    WireReads {
        /// Bytes read since the last drain.
        bytes: u64,
    },
    /// Statements framed with an end-of-output sentinel on the wire.
    SentinelFrames {
        /// Frames since the last drain.
        count: u64,
    },
    /// Backend child processes (re)spawned.
    Respawns {
        /// Respawns since the last drain.
        count: u64,
    },
    /// Runtime capability probes executed against pool slots.
    CapabilityProbes {
        /// Probes run since the last drain.
        count: u64,
        /// Probes that downgraded at least one statically claimed family.
        downgrades: u64,
    },
    /// Circuit-breaker trips on a physical pool slot.
    BreakerTrips {
        /// The physical slot index the tripped virtual slot maps to.
        slot: usize,
        /// Trips since the last drain.
        count: u64,
    },
    /// Circuit-breaker recoveries (half-open probe succeeded).
    BreakerRecoveries {
        /// The physical slot index the recovered virtual slot maps to.
        slot: usize,
        /// Recoveries since the last drain.
        count: u64,
    },
}

/// Accumulated wall-clock-plane backend telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendTelemetry {
    /// Pool slot checkouts.
    pub slot_checkouts: u64,
    /// Stale-slot re-syncs.
    pub slot_resyncs: u64,
    /// Statements replayed during re-syncs.
    pub resync_statements: u64,
    /// Bytes written to wire backends.
    pub wire_bytes_written: u64,
    /// Bytes read from wire backends.
    pub wire_bytes_read: u64,
    /// Sentinel-framed statements on the wire.
    pub sentinel_frames: u64,
    /// Backend child respawns.
    pub respawns: u64,
    /// Runtime capability probes executed.
    pub capability_probes: u64,
    /// Capability probes that downgraded a static claim.
    pub capability_downgrades: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries.
    pub breaker_recoveries: u64,
}

// The flight recorder's telemetry footer (the breaker and probe counters
// are summary material).
json_record!(struct BackendTelemetry {
    slot_checkouts, slot_resyncs, resync_statements, wire_bytes_written, wire_bytes_read,
    sentinel_frames, respawns, ..
});

impl BackendTelemetry {
    /// Folds one drained event into the totals.
    pub fn absorb(&mut self, event: &BackendEvent) {
        match event {
            BackendEvent::SlotCheckouts { count, .. } => self.slot_checkouts += count,
            BackendEvent::SlotResyncs {
                count, replayed, ..
            } => {
                self.slot_resyncs += count;
                self.resync_statements += replayed;
            }
            BackendEvent::WireWrites { bytes } => self.wire_bytes_written += bytes,
            BackendEvent::WireReads { bytes } => self.wire_bytes_read += bytes,
            BackendEvent::SentinelFrames { count } => self.sentinel_frames += count,
            BackendEvent::Respawns { count } => self.respawns += count,
            BackendEvent::CapabilityProbes { count, downgrades } => {
                self.capability_probes += count;
                self.capability_downgrades += downgrades;
            }
            BackendEvent::BreakerTrips { count, .. } => self.breaker_trips += count,
            BackendEvent::BreakerRecoveries { count, .. } => self.breaker_recoveries += count,
        }
    }
}

/// A live-progress snapshot, delivered through the [`Tracer`]'s periodic
/// callback. Wall-clock plane: the rates use real elapsed time.
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    /// The dialect under test.
    pub dialect: String,
    /// Cases resolved so far.
    pub cases: u64,
    /// Bug verdicts so far.
    pub bugs: u64,
    /// Invalid verdicts so far.
    pub invalid: u64,
    /// Valid fraction of resolved cases,
    /// [`crate::CampaignMetrics::validity_rate`] of the dialect's ledger.
    pub validity_rate: f64,
    /// Cases per wall-clock second since tracing began.
    pub cases_per_sec: f64,
    /// Wall-clock seconds since tracing began.
    pub elapsed_secs: f64,
    /// Whether the dialect has been quarantined.
    pub quarantined: bool,
    /// Operational backend telemetry accumulated so far.
    pub backend: BackendTelemetry,
}

// --------------------------------------------------------- flight recorder ----

/// The complete event history of one case, as kept by the flight
/// recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRecord {
    /// Database index within the campaign.
    pub database: usize,
    /// Campaign-global test-case counter.
    pub case_index: u64,
    /// The case seed.
    pub case_seed: u64,
    /// The oracle that ran the case.
    pub oracle: OracleKind,
    /// The deterministic-plane events of the case, in emission order.
    pub events: Vec<TraceEvent>,
}

impl CaseRecord {
    /// The case's resolution, from its verdict event (`"open"` if the
    /// case never resolved — e.g. the campaign was killed mid-case).
    pub fn outcome(&self) -> &'static str {
        self.events
            .iter()
            .rev()
            .find_map(|event| match &event.kind {
                TraceEventKind::Verdict { verdict } => Some(verdict.name()),
                _ => None,
            })
            .unwrap_or("open")
    }

    /// Whether the record is pinned (kept forever, never ring-evicted):
    /// bug verdicts and cases with recorded incidents.
    pub fn pinned(&self) -> bool {
        self.events.iter().any(|event| {
            matches!(
                event.kind,
                TraceEventKind::Verdict {
                    verdict: TraceVerdict::Bug
                } | TraceEventKind::Incident { .. }
            )
        })
    }
}

/// A bounded in-memory flight recorder: the last `capacity` ordinary
/// cases plus the full history of every pinned (bug or incident) case.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<CaseRecord>,
    pinned: Vec<CaseRecord>,
    current: Option<CaseRecord>,
    /// The event buffer of the last ring-evicted record, emptied, for the
    /// next case to reuse.
    spare: Vec<TraceEvent>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` non-pinned recent cases.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ..FlightRecorder::default()
        }
    }

    /// Routes one deterministic-plane event.
    fn event(&mut self, event: &TraceEvent) {
        if let TraceEventKind::CaseStarted {
            database,
            case_index,
            oracle,
        } = event.kind
        {
            self.seal();
            let mut events = std::mem::take(&mut self.spare);
            events.push(event.clone());
            self.current = Some(CaseRecord {
                database,
                case_index,
                case_seed: event.case_seed,
                oracle,
                events,
            });
            return;
        }
        // Out-of-case events (setup replay, ledger-only incidents) are
        // summary material, not case history.
        let Some(current) = self.current.as_mut() else {
            return;
        };
        if event.case_seed == current.case_seed {
            current.events.push(event.clone());
        }
    }

    /// Finalises the open case record, if any.
    pub fn seal(&mut self) {
        let Some(record) = self.current.take() else {
            return;
        };
        if record.pinned() {
            self.pinned.push(record);
        } else {
            self.ring.push_back(record);
            while self.ring.len() > self.capacity {
                if let Some(evicted) = self.ring.pop_front() {
                    self.spare = evicted.events;
                    self.spare.clear();
                }
            }
        }
    }

    /// The pinned (bug / incident) case records, in occurrence order.
    pub fn pinned(&self) -> &[CaseRecord] {
        &self.pinned
    }

    /// The ring of recent non-pinned case records, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &CaseRecord> {
        self.ring.iter()
    }

    /// All sealed records: pinned first, then the recent ring.
    pub fn records(&self) -> impl Iterator<Item = &CaseRecord> {
        self.pinned.iter().chain(self.ring.iter())
    }

    /// The pinned record for a case seed, if the recorder kept one.
    pub fn pinned_by_seed(&self, case_seed: u64) -> Option<&CaseRecord> {
        self.pinned
            .iter()
            .find(|record| record.case_seed == case_seed)
    }
}

// ------------------------------------------------------------------ JSONL ----

fn event_json(event: &TraceEvent) -> Json {
    let (kind, fields): (&str, Vec<(&str, Json)>) = match &event.kind {
        TraceEventKind::CaseStarted {
            database,
            case_index,
            oracle,
        } => (
            "case_started",
            vec![
                ("database", (*database).into()),
                ("case_index", (*case_index).into()),
                ("oracle", oracle.name().into()),
            ],
        ),
        TraceEventKind::SetupStatement { ok } => ("setup_statement", vec![("ok", (*ok).into())]),
        TraceEventKind::Statement { ok } => ("statement", vec![("ok", (*ok).into())]),
        TraceEventKind::Verdict { verdict } => {
            ("verdict", vec![("verdict", verdict.name().into())])
        }
        TraceEventKind::Retry { attempt, kind } => (
            "retry",
            vec![
                ("attempt", (*attempt).into()),
                ("incident", kind.name().into()),
            ],
        ),
        TraceEventKind::Incident { kind } => ("incident", vec![("incident", kind.name().into())]),
        TraceEventKind::Quarantined => ("quarantined", vec![]),
        TraceEventKind::Reduced {
            statements_before,
            statements_after,
        } => (
            "reduced",
            vec![
                ("before", (*statements_before).into()),
                ("after", (*statements_after).into()),
            ],
        ),
        TraceEventKind::Prioritized { kept } => ("prioritized", vec![("kept", (*kept).into())]),
    };
    let head = [
        ("seed", event.case_seed.into()),
        ("ticks", event.ticks.into()),
        ("kind", kind.into()),
    ];
    Json::obj(head.into_iter().chain(fields))
}

fn record_json(dialect: &str, record: &CaseRecord) -> Json {
    let events: Vec<Json> = record.events.iter().map(event_json).collect();
    Json::obj([
        ("type", "case".into()),
        ("dialect", dialect.into()),
        ("database", record.database.into()),
        ("case_index", record.case_index.into()),
        ("case_seed", record.case_seed.into()),
        ("oracle", record.oracle.name().into()),
        ("outcome", record.outcome().into()),
        ("pinned", record.pinned().into()),
        ("events", events.into()),
    ])
}

// ----------------------------------------------------------------- tracer ----

struct Progress {
    every: u64,
    callback: Box<dyn FnMut(&ProgressSnapshot)>,
}

/// The batteries-included [`TraceSink`]: builds the deterministic
/// [`TraceSummary`], optionally keeps a [`FlightRecorder`] (with JSONL
/// flushing to a path), accumulates [`BackendTelemetry`], and drives a
/// periodic wall-clock progress callback.
pub struct Tracer {
    summary: TraceSummary,
    dialect: String,
    current_oracle: Option<OracleKind>,
    telemetry: BackendTelemetry,
    recorder: Option<FlightRecorder>,
    jsonl_path: Option<PathBuf>,
    /// The latest coverage-atlas JSON line the campaign handed over
    /// (updated at every checkpoint flush and at campaign end).
    atlas_line: Option<String>,
    progress: Option<Progress>,
    started: Instant,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("dialect", &self.dialect)
            .field("summary", &self.summary)
            .field("telemetry", &self.telemetry)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer building the deterministic summary only.
    pub fn new() -> Tracer {
        Tracer {
            summary: TraceSummary::new(),
            dialect: String::new(),
            current_oracle: None,
            telemetry: BackendTelemetry::default(),
            recorder: None,
            jsonl_path: None,
            atlas_line: None,
            progress: None,
            started: Instant::now(),
        }
    }

    /// Adds a flight recorder keeping `ring_capacity` recent cases (plus
    /// every bug/incident case, unbounded).
    pub fn with_flight_recorder(mut self, ring_capacity: usize) -> Tracer {
        self.recorder = Some(FlightRecorder::new(ring_capacity));
        self
    }

    /// Writes the flight recorder's JSONL to `path` on every flush
    /// (checkpoints and campaign end), atomically (temp file + rename).
    /// Implies a flight recorder (default ring capacity 64 if none was
    /// configured).
    pub fn with_jsonl_path(mut self, path: impl Into<PathBuf>) -> Tracer {
        if self.recorder.is_none() {
            self.recorder = Some(FlightRecorder::new(64));
        }
        self.jsonl_path = Some(path.into());
        self
    }

    /// Invokes `callback` every `every` resolved cases with a live
    /// [`ProgressSnapshot`] (wall-clock plane).
    pub fn with_progress(
        mut self,
        every: u64,
        callback: impl FnMut(&ProgressSnapshot) + 'static,
    ) -> Tracer {
        self.progress = Some(Progress {
            every: every.max(1),
            callback: Box::new(callback),
        });
        self
    }

    /// The deterministic trace summary accumulated so far.
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// The wall-clock backend telemetry accumulated so far.
    pub fn telemetry(&self) -> &BackendTelemetry {
        &self.telemetry
    }

    /// The flight recorder, if one was configured. Call
    /// [`FlightRecorder::seal`] (or [`TraceSink::flush`]) first to
    /// finalise the last case.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// The flight recorder's JSONL document (header line, one line per
    /// sealed case, telemetry footer), if a recorder is configured.
    pub fn jsonl(&self) -> Option<String> {
        let recorder = self.recorder.as_ref()?;
        let mut out = Json::obj([
            ("type", "flight_recorder".into()),
            ("version", 1u64.into()),
            ("dialect", self.dialect.as_str().into()),
            ("pinned", recorder.pinned.len().into()),
            ("recent", recorder.ring.len().into()),
        ])
        .line();
        for record in recorder.records() {
            let _ = writeln!(out, "{}", record_json(&self.dialect, record));
        }
        if let Some(atlas) = &self.atlas_line {
            out.push_str(atlas);
        }
        let telemetry = self.telemetry.encode();
        out.push_str(
            &telemetry
                .prefixed([("type", "backend_telemetry".into())])
                .line(),
        );
        Some(out)
    }

    /// The current dialect's trace. Looked up before inserting, so the
    /// per-event path does not clone the dialect name.
    fn dialect_trace(&mut self) -> &mut DialectTrace {
        let dialects = &mut self.summary.dialects;
        if !dialects.contains_key(&self.dialect) {
            dialects.insert(self.dialect.clone(), DialectTrace::default());
        }
        dialects.get_mut(&self.dialect).expect("inserted above")
    }

    fn maybe_report_progress(&mut self) {
        let Some(progress) = self.progress.as_mut() else {
            return;
        };
        let trace = match self.summary.dialects.get(&self.dialect) {
            Some(trace) => trace,
            None => return,
        };
        let ledger = &trace.ledger;
        let resolved = ledger.metrics.test_cases;
        if resolved == 0 || resolved % progress.every != 0 {
            return;
        }
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        let snapshot = ProgressSnapshot {
            dialect: self.dialect.clone(),
            cases: resolved,
            bugs: ledger.metrics.detected_bug_cases,
            invalid: ledger.invalid_cases(),
            validity_rate: ledger.metrics.validity_rate(),
            cases_per_sec: if elapsed_secs > 0.0 {
                resolved as f64 / elapsed_secs
            } else {
                0.0
            },
            elapsed_secs,
            quarantined: ledger.robustness.quarantines > 0,
            backend: self.telemetry,
        };
        (progress.callback)(&snapshot);
    }
}

impl TraceSink for Tracer {
    fn begin_campaign(&mut self, dialect: &str) {
        self.dialect = dialect.to_string();
        self.dialect_trace();
    }

    fn event(&mut self, event: &TraceEvent) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.event(event);
        }
        if let TraceEventKind::CaseStarted { oracle, .. } = event.kind {
            self.current_oracle = Some(oracle);
        }
        let oracle = self.current_oracle;
        let trace = self.dialect_trace();
        trace.ledger.fold(event);
        let (counters, ticks) = (&mut trace.counters, event.ticks);
        match &event.kind {
            TraceEventKind::CaseStarted { .. } => counters.cases += 1,
            TraceEventKind::SetupStatement { ok } => {
                counters.setup_statements += 1;
                if !ok {
                    counters.setup_errors += 1;
                }
            }
            TraceEventKind::Statement { ok } => {
                counters.statements += 1;
                if !ok {
                    counters.statement_errors += 1;
                }
                trace.statements.record(ticks);
            }
            TraceEventKind::Verdict { .. } => {
                counters.case_ticks += ticks;
                if let Some(oracle) = oracle {
                    trace.oracles.entry(oracle).or_default().record(ticks);
                }
                self.maybe_report_progress();
            }
            TraceEventKind::Reduced {
                statements_before,
                statements_after,
            } => {
                counters.reduced_bugs += 1;
                counters.reduced_statements_removed +=
                    statements_before.saturating_sub(*statements_after) as u64;
            }
            // Counted by the ledger alone.
            TraceEventKind::Retry { .. }
            | TraceEventKind::Incident { .. }
            | TraceEventKind::Quarantined
            | TraceEventKind::Prioritized { .. } => {}
        }
    }

    fn backend_event(&mut self, event: &BackendEvent) {
        self.telemetry.absorb(event);
    }

    fn coverage(&mut self, dialect: &str, atlas: &crate::atlas::CampaignCoverage) {
        self.atlas_line = Some(atlas.to_json_line(dialect));
    }

    fn flush(&mut self, _reason: FlushReason) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.seal();
        }
        // Telemetry must never fail the campaign: write errors are
        // dropped (the in-memory recorder stays available regardless).
        if let (Some(path), Some(text)) = (&self.jsonl_path, self.jsonl()) {
            let _ = crate::resume::write_replacing(path, &text);
        }
    }
}

// ------------------------------------------------------ traced connection ----

/// A [`DbmsConnection`] decorator emitting one deterministic-plane
/// statement event per statement, stamped with the statement's
/// virtual-tick cost (clock delta around the call) and the current case
/// seed (tracked from [`DbmsConnection::begin_case`]; seed 0 classifies
/// the statement as out-of-case setup/replay work).
///
/// Sessions from [`DbmsConnection::open_session`] are deliberately *not*
/// traced: session clocks are independent of the primary connection's,
/// and the supervisor's verdict elapsed already covers the case.
pub struct TracedConnection<'a> {
    inner: &'a mut dyn DbmsConnection,
    trace: TraceHandle,
    case_seed: u64,
}

impl<'a> TracedConnection<'a> {
    /// Wraps a connection so its statements stream into `trace`.
    pub fn new(inner: &'a mut dyn DbmsConnection, trace: TraceHandle) -> TracedConnection<'a> {
        TracedConnection {
            inner,
            trace,
            case_seed: 0,
        }
    }

    fn statement_event(&mut self, ticks: u64, ok: bool) {
        let kind = if self.case_seed == 0 {
            TraceEventKind::SetupStatement { ok }
        } else {
            TraceEventKind::Statement { ok }
        };
        self.trace.borrow_mut().event(&TraceEvent {
            case_seed: self.case_seed,
            ticks,
            kind,
        });
    }
}

impl DbmsConnection for TracedConnection<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        let before = self.inner.virtual_ticks();
        let outcome = self.inner.execute(sql);
        let ticks = self.inner.virtual_ticks().saturating_sub(before);
        self.statement_event(ticks, outcome.is_success());
        outcome
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        let before = self.inner.virtual_ticks();
        let result = self.inner.query(sql);
        let ticks = self.inner.virtual_ticks().saturating_sub(before);
        self.statement_event(ticks, result.is_ok());
        result
    }

    fn execute_ast(&mut self, stmt: &Statement) -> StatementOutcome {
        let before = self.inner.virtual_ticks();
        let outcome = self.inner.execute_ast(stmt);
        let ticks = self.inner.virtual_ticks().saturating_sub(before);
        self.statement_event(ticks, outcome.is_success());
        outcome
    }

    fn query_ast(&mut self, select: &Select) -> Result<QueryResult, String> {
        let before = self.inner.virtual_ticks();
        let result = self.inner.query_ast(select);
        let ticks = self.inner.virtual_ticks().saturating_sub(before);
        self.statement_event(ticks, result.is_ok());
        result
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn quirks(&self) -> DialectQuirks {
        self.inner.quirks()
    }

    fn open_session(&mut self) -> Option<Box<dyn DbmsConnection>> {
        self.inner.open_session()
    }

    fn storage_metrics(&self) -> Result<Option<StorageMetrics>, String> {
        self.inner.storage_metrics()
    }

    fn begin_case(&mut self, case_seed: u64) {
        self.inner.begin_case(case_seed);
        self.case_seed = case_seed;
    }

    fn virtual_ticks(&self) -> u64 {
        self.inner.virtual_ticks()
    }

    fn checkpoint(&mut self) -> Option<StateCheckpoint> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &StateCheckpoint) -> bool {
        self.inner.restore(checkpoint)
    }

    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        self.inner.drain_backend_events()
    }

    fn engine_coverage(&self) -> Option<crate::dbms::EngineCoverage> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_jsonl;

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut h = LatencyHistogram::default();
        for ticks in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(ticks);
        }
        let buckets: Vec<(usize, u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 2, 2),
                (3, 4, 2),
                (4, 8, 1),
                (64, 1 << 63, 1)
            ]
        );
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_merge_is_exact_summation() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut whole = LatencyHistogram::default();
        for ticks in [1u64, 5, 9, 100] {
            a.record(ticks);
            whole.record(ticks);
        }
        for ticks in [0u64, 5, 7, 1000] {
            b.record(ticks);
            whole.record(ticks);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn summary_merge_is_order_independent() {
        let mut left = TraceSummary::new();
        let mut right = TraceSummary::new();
        let mut shard_a = TraceSummary::new();
        shard_a
            .dialects
            .entry("x".into())
            .or_default()
            .counters
            .cases = 3;
        let mut shard_b = TraceSummary::new();
        shard_b
            .dialects
            .entry("x".into())
            .or_default()
            .counters
            .cases = 4;
        shard_b
            .dialects
            .entry("y".into())
            .or_default()
            .counters
            .reduced_bugs = 1;
        left.merge(&shard_a);
        left.merge(&shard_b);
        right.merge(&shard_b);
        right.merge(&shard_a);
        assert_eq!(left, right);
        assert_eq!(render_trace_summary(&left), render_trace_summary(&right));
        assert_eq!(left.dialects["x"].counters.cases, 7);
    }

    #[test]
    fn tracer_aggregates_case_lifecycle() {
        let mut tracer = Tracer::new();
        tracer.begin_campaign("toy");
        tracer.event(&TraceEvent {
            case_seed: 9,
            ticks: 0,
            kind: TraceEventKind::CaseStarted {
                database: 0,
                case_index: 0,
                oracle: OracleKind::Tlp,
            },
        });
        tracer.event(&TraceEvent {
            case_seed: 9,
            ticks: 2,
            kind: TraceEventKind::Statement { ok: true },
        });
        tracer.event(&TraceEvent {
            case_seed: 9,
            ticks: 5,
            kind: TraceEventKind::Verdict {
                verdict: TraceVerdict::Bug,
            },
        });
        tracer.event(&TraceEvent {
            case_seed: 9,
            ticks: 0,
            kind: TraceEventKind::Prioritized { kept: true },
        });
        let trace = &tracer.summary().dialects["toy"];
        assert_eq!(trace.counters.cases, 1);
        assert_eq!(trace.ledger.metrics.detected_bug_cases, 1);
        assert_eq!(trace.counters.case_ticks, 5);
        assert_eq!(trace.ledger.metrics.prioritized_bugs, 1);
        assert_eq!(trace.oracles[&OracleKind::Tlp].count(), 1);
        assert_eq!(trace.statements.count(), 1);
        assert_eq!(trace.statements.sum(), 2);
    }

    #[test]
    fn flight_recorder_pins_bugs_and_evicts_ring() {
        let mut recorder = FlightRecorder::new(2);
        for case in 0..5u64 {
            recorder.event(&TraceEvent {
                case_seed: case + 1,
                ticks: 0,
                kind: TraceEventKind::CaseStarted {
                    database: 0,
                    case_index: case,
                    oracle: OracleKind::Tlp,
                },
            });
            let verdict = if case == 1 {
                TraceVerdict::Bug
            } else {
                TraceVerdict::Pass
            };
            recorder.event(&TraceEvent {
                case_seed: case + 1,
                ticks: 3,
                kind: TraceEventKind::Verdict { verdict },
            });
        }
        recorder.seal();
        assert_eq!(recorder.pinned().len(), 1);
        assert_eq!(recorder.pinned()[0].case_seed, 2);
        assert_eq!(recorder.pinned()[0].outcome(), "bug");
        let recent: Vec<u64> = recorder.recent().map(|r| r.case_seed).collect();
        assert_eq!(recent, vec![4, 5]);
        assert!(recorder.pinned_by_seed(2).is_some());
        assert!(recorder.pinned_by_seed(3).is_none());
    }

    #[test]
    fn jsonl_output_validates() {
        let mut tracer = Tracer::new().with_flight_recorder(4);
        tracer.begin_campaign("toy \"dialect\"");
        tracer.event(&TraceEvent {
            case_seed: 7,
            ticks: 0,
            kind: TraceEventKind::CaseStarted {
                database: 0,
                case_index: 0,
                oracle: OracleKind::NoRec,
            },
        });
        tracer.event(&TraceEvent {
            case_seed: 7,
            ticks: 1,
            kind: TraceEventKind::Incident {
                kind: IncidentKind::BackendCrash,
            },
        });
        tracer.event(&TraceEvent {
            case_seed: 7,
            ticks: 4,
            kind: TraceEventKind::Verdict {
                verdict: TraceVerdict::InfraFailed,
            },
        });
        tracer.backend_event(&BackendEvent::WireWrites { bytes: 128 });
        tracer.flush(FlushReason::CampaignEnd);
        let jsonl = tracer.jsonl().unwrap();
        let lines = validate_jsonl(&jsonl).unwrap();
        assert_eq!(lines, 3); // header + 1 pinned case + telemetry footer
        assert!(jsonl.contains("\"outcome\":\"infra_failed\""));
        assert!(jsonl.contains("\"wire_bytes_written\":128"));
    }

    #[test]
    fn render_is_stable_and_integer_only() {
        let mut tracer = Tracer::new();
        tracer.begin_campaign("toy");
        tracer.event(&TraceEvent {
            case_seed: 1,
            ticks: 0,
            kind: TraceEventKind::CaseStarted {
                database: 0,
                case_index: 0,
                oracle: OracleKind::Tlp,
            },
        });
        tracer.event(&TraceEvent {
            case_seed: 1,
            ticks: 6,
            kind: TraceEventKind::Verdict {
                verdict: TraceVerdict::Pass,
            },
        });
        let rendered = render_trace_summary(tracer.summary());
        assert!(rendered.starts_with("=== trace summary ===\n"));
        assert!(rendered.contains("dialect toy\n"));
        assert!(rendered.contains("  latency TLP count 1 ticks 6 max 6\n"));
        assert!(rendered.contains("    b3 (4+) 1\n"));
        // Re-rendering is byte-identical.
        assert_eq!(rendered, render_trace_summary(tracer.summary()));
    }
}
