//! # dbms-sim
//!
//! The simulated DBMS fleet for the SQLancer++ reproduction.
//!
//! The paper evaluates SQLancer++ against 18 third-party DBMSs; this crate
//! substitutes them with simulated dialects built on the `sql-engine`
//! substrate:
//!
//! * [`DialectProfile`] — which SQL features a dialect accepts, its typing
//!   discipline and behavioural quirks (the source of the "syntax error"
//!   feedback the adaptive generator learns from);
//! * [`bugs`] — the injected-bug catalog providing *ground truth* for
//!   unique-bug counting;
//! * [`SimulatedDbms`] — a [`sqlancer_core::DbmsConnection`] implementation
//!   combining a profile, the engine and a set of injected bugs;
//! * [`fleet`] — 18 named presets mirroring Table 2 of the paper;
//! * [`RunPlan`] — the one run executor: a set of drivers, a pool size, a
//!   thread count, optional sharding by database, supervision and tracing,
//!   run as seed-derived work units whose merged [`FleetReport`] is
//!   byte-identical for any thread count and pool size.
//!
//! # Examples
//!
//! ```
//! use dbms_sim::preset_by_name;
//! use sqlancer_core::DbmsConnection;
//!
//! let mut dbms = preset_by_name("sqlite").unwrap().instantiate();
//! assert!(dbms.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
//! assert!(dbms.query("SELECT * FROM t0").is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bugs;
mod dbms;
mod faulty;
mod fleet;
mod profile;
mod runner;

pub use bugs::{bugs_for_faults, catalog, infra_catalog, InjectedBug};
pub use dbms::{SimulatedDbms, SimulatedSession};
pub use faulty::{FaultPlan, FaultyConfig, FaultyConnection, InfraFaultKind};
pub use fleet::{
    fleet, fleet_drivers, preset_by_name, validity_experiment_dialects, DialectPreset, SimDriver,
};
pub use profile::{
    collect_query_features, collect_statement_features, function_feature, join_feature,
    operator_feature, unary_feature, DialectProfile,
};
pub use runner::{
    available_threads, derive_dialect_seed, derive_shard_seed, observed_infra_kinds,
    run_fleet_serial_drivers, shard_checkpoint_path, ExecutionPath, FleetReport, RunPlan,
};
