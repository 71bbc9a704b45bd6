//! # sqlancer-core
//!
//! The Rust reproduction of **SQLancer++** — the automated DBMS-testing
//! platform of "Scaling Automated Database System Testing" (ASPLOS 2026).
//!
//! The crate contains the paper's technical contributions:
//!
//! * [`generator`] — the **adaptive statement generator** (Section 4): it
//!   generates SQL over its own schema model, records the *feature set* of
//!   every statement, and learns from execution feedback which features the
//!   DBMS under test supports, suppressing the unsupported ones.
//! * [`schema`] — the **internal schema model** (Figure 3): schema state is
//!   tracked by simulating successful DDL, never by querying DBMS-specific
//!   metadata interfaces.
//! * [`stats`] — the **Bayesian support model** (Equations 1–3): a
//!   Beta-posterior test decides when a feature is unsupported.
//! * [`oracle`] — the DBMS-agnostic **TLP** and **NoREC** test oracles.
//! * [`prioritizer`] — the **feature-set subset** bug prioritizer (Figure 4).
//! * [`reducer`] — statement- and expression-level test-case reduction.
//! * [`campaign`] — the end-to-end loop tying everything together
//!   (Figure 2), with the metrics reported in the paper's evaluation.
//!
//! The platform talks to a DBMS only through the [`DbmsConnection`] trait
//! (SQL text in, success/failure and rows out). The `dbms-sim` crate
//! provides a fleet of simulated dialects implementing this trait.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for an end-to-end
//! campaign against a simulated DBMS.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atlas;
pub mod campaign;
pub mod dbms;
pub mod driver;
pub mod feature;
pub mod generator;
pub mod hist;
pub mod json;
pub mod oracle;
pub mod prioritizer;
pub mod profile;
pub mod reducer;
pub mod resume;
pub mod schema;
pub mod stats;
pub mod supervisor;
pub mod trace;

pub use atlas::{render_atlas_report, CampaignCoverage, OracleCoverage, SaturationCurve};
pub use campaign::{
    derive_case_seed, replay_validity, Campaign, CampaignConfig, CampaignConfigBuilder,
    CampaignMetrics, CampaignReport,
};
pub use dbms::{
    DbmsConnection, DialectQuirks, EngineCoverage, QueryResult, StateCheckpoint, StatementOutcome,
    StorageMetrics, TextOnlyConnection, SERIALIZATION_FAILURE_MARKER,
};
pub use driver::{
    Capability, Driver, Pool, ResilienceEvent, BREAKER_BACKOFF_BASE, BREAKER_SLOTS,
    BREAKER_THRESHOLD,
};
pub use feature::{Feature, FeatureSet, Keyword};
pub use generator::{AdaptiveGenerator, GeneratedQuery, GeneratedStatement, GeneratorConfig};
pub use hist::Log2Histogram;
pub use json::{validate_jsonl, Json};
pub use oracle::{
    check_isolation, check_norec, check_rollback, check_tlp, BugReport, CaseVerdict, OracleKind,
    OracleOutcome, Schedule, SessionScript,
};
pub use prioritizer::{BugPrioritizer, PrioritizerStats, PriorityDecision};
pub use profile::{load_profile, profile_from_string, profile_to_string, save_profile};
pub use reducer::{BugReducer, OracleCase, ReducibleCase, ReductionStats, ScheduleCase, TxnCase};
pub use resume::{
    checkpoint_from_string, checkpoint_to_string, load_checkpoint, render_report, save_checkpoint,
    CampaignCheckpoint,
};
pub use schema::{ModelColumn, ModelIndex, ModelTable, SchemaModel};
pub use stats::{
    regularized_incomplete_beta, FeatureCounts, FeatureKind, FeatureStats, StatsConfig,
};
pub use supervisor::{
    classify_infra_message, silence_infra_panics, CampaignIncident, IncidentKind, Ledger,
    RobustnessCounters, Supervisor, SupervisorConfig, INFRA_MARKER,
};
pub use trace::{
    render_trace_summary, BackendEvent, BackendTelemetry, CaseRecord, DialectTrace, FlightRecorder,
    FlushReason, LatencyHistogram, ProgressSnapshot, TraceCounters, TraceEvent, TraceEventKind,
    TraceHandle, TraceSink, TraceSummary, TraceVerdict, TracedConnection, Tracer,
};
