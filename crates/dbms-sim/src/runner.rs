//! The run executor: one [`RunPlan`] for every fleet and partitioned run.
//!
//! The paper's platform tests 18 DBMSs; at fleet scale the campaigns are
//! embarrassingly parallel — each backend gets its own pool, its own
//! adaptive generator and its own prioritizer. A plan splits the run into
//! *work units* — one campaign per driver, or one single-database campaign
//! per database of every driver when sharded — runs every unit under the
//! same panic guard on one claim-from-a-counter scheduler, and merges the
//! units per driver in order. Each unit's seed derives from the campaign
//! seed and the unit's identity, so
//!
//! * reports are **identical** (verdicts, metrics and bug reports, byte for
//!   byte) for any thread count and any pool size, and
//! * adding or removing drivers never perturbs the seeds of the others.

use crate::bugs::infra_catalog;
use sqlancer_core::driver::{Driver, Pool};
use sqlancer_core::stats::FeatureStats;
use sqlancer_core::supervisor::panic_message;
use sqlancer_core::{
    load_checkpoint, BugPrioritizer, Campaign, CampaignCheckpoint, CampaignConfig,
    CampaignIncident, CampaignMetrics, CampaignReport, IncidentKind, Ledger, OracleKind,
    PriorityDecision, RobustnessCounters, SupervisorConfig, TraceEvent, TraceEventKind,
    TraceHandle, TraceSummary, Tracer,
};
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Which execution path the fleet campaign drives the connections through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionPath {
    /// The AST fast path: statements flow into the simulated engines as
    /// typed ASTs, skipping rendering, lexing and parsing, and expressions
    /// run through the closure-compiled evaluator (the default).
    Ast,
    /// The AST fast path with the tree-walking expression evaluator: the
    /// engine re-walks each expression AST per row. This is the
    /// pre-compilation configuration, kept as the baseline arm of the
    /// compiled-vs-tree benchmark and the parity reference.
    AstTreeWalk,
    /// The text path: every statement is rendered to SQL and re-parsed, as
    /// a real wire-protocol backend would require. Used as the baseline arm
    /// in benchmarks and parity tests.
    Text,
}

/// One run over a set of drivers: how each campaign connects, how the work
/// splits into units and across threads, and what each unit records. The
/// fields are public; set the ones that differ from [`RunPlan::new`] with
/// struct-update syntax.
///
/// ```no_run
/// use dbms_sim::{preset_by_name, ExecutionPath, RunPlan};
/// use sqlancer_core::CampaignConfig;
///
/// let driver = preset_by_name("mariadb").unwrap().driver(ExecutionPath::Ast);
/// let plan = RunPlan {
///     threads: 4,
///     shard_by_database: true,
///     ..RunPlan::new(vec![driver])
/// };
/// let fleet = plan.run(&CampaignConfig::default());
/// assert_eq!(fleet.reports.len(), 1);
/// ```
#[derive(Clone)]
pub struct RunPlan {
    /// The backends under test. The run produces one merged report per
    /// driver, in this order.
    pub drivers: Vec<Arc<dyn Driver>>,
    /// Connections per campaign pool (seed-ordered checkout). A throughput
    /// knob only: reports are byte-identical for any pool size.
    pub pool_size: usize,
    /// Workers sharing the units, the calling thread included; bounded by
    /// the number of units. Reports are byte-identical for any count.
    pub threads: usize,
    /// Split each driver's campaign into one single-database unit per
    /// configured database, seeded by [`derive_shard_seed`] and merged in
    /// database order. Unsharded, each driver is one unit seeded by
    /// [`derive_dialect_seed`].
    pub shard_by_database: bool,
    /// The supervision policy of every unit. Its checkpoint path names one
    /// driver's file: an unsharded unit checkpoints to (and resumes from)
    /// the path itself, a sharded unit to [`shard_checkpoint_path`], so a
    /// checkpointing plan holds a single driver.
    pub supervision: SupervisorConfig,
    /// Give every unit its own [`Tracer`] and merge the unit summaries into
    /// [`FleetReport::trace`].
    pub trace: bool,
}

impl RunPlan {
    /// A plan over `drivers`: pool size 1, one thread, unsharded, default
    /// supervision, no tracing.
    pub fn new(drivers: Vec<Arc<dyn Driver>>) -> RunPlan {
        RunPlan {
            drivers,
            pool_size: 1,
            threads: 1,
            shard_by_database: false,
            supervision: SupervisorConfig::default(),
            trace: false,
        }
    }

    /// Runs every unit of the plan and merges the results per driver.
    pub fn run(&self, base: &CampaignConfig) -> FleetReport {
        let units = self.units(base);
        let mut outcomes = run_scheduled(units.len(), self.threads, &|index| {
            self.run_unit(&units[index])
        })
        .into_iter();
        let units_per_driver = if self.shard_by_database {
            base.databases
        } else {
            1
        };
        let mut fleet = FleetReport::default();
        for driver in &self.drivers {
            let driver_units: Vec<UnitOutcome> = outcomes.by_ref().take(units_per_driver).collect();
            for unit in &driver_units {
                fleet.trace.merge(&unit.trace);
            }
            let (report, profile) = if self.shard_by_database {
                merge_shards(driver.name(), driver_units)
            } else {
                let unit = driver_units
                    .into_iter()
                    .next()
                    .expect("one unit per driver");
                (unit.report, unit.profile)
            };
            fleet.totals.merge(&report.metrics);
            fleet.robustness.merge(&report.robustness);
            fleet.reports.push(report);
            fleet.profiles.push(profile);
        }
        fleet
    }

    /// The plan's work units, driver by driver and, when sharded, database
    /// by database.
    fn units(&self, base: &CampaignConfig) -> Vec<Unit<'_>> {
        let mut units = Vec::new();
        for driver in &self.drivers {
            if !self.shard_by_database {
                let mut config = base.clone();
                config.seed = derive_dialect_seed(base.seed, driver.name());
                units.push(Unit {
                    driver,
                    config,
                    supervision: self.supervision.clone(),
                });
                continue;
            }
            for index in 0..base.databases {
                let mut config = base.clone();
                config.databases = 1;
                config.seed = derive_shard_seed(base.seed, index);
                let mut supervision = self.supervision.clone();
                supervision.checkpoint_path = self
                    .supervision
                    .checkpoint_path
                    .as_deref()
                    .map(|path| shard_checkpoint_path(path, index));
                units.push(Unit {
                    driver,
                    config,
                    supervision,
                });
            }
        }
        units
    }

    /// Runs one unit inside the panic guard: pool, campaign, trace sink,
    /// capability, then resume from the unit's checkpoint or a fresh
    /// supervised run. A panic anywhere — a pool that cannot connect, a
    /// failure outside the supervisor's reach — becomes a degraded
    /// [`worker_panic_report`] instead of taking the run down.
    fn run_unit(&self, unit: &Unit<'_>) -> UnitOutcome {
        let name = unit.driver.name();
        catch_unwind(AssertUnwindSafe(|| {
            let mut pool = Pool::new(Arc::clone(unit.driver), self.pool_size)
                .unwrap_or_else(|err| panic!("pool for {name} failed to connect: {err}"));
            let mut campaign = Campaign::new(unit.config.clone());
            let tracer = self.trace.then(|| Rc::new(RefCell::new(Tracer::new())));
            campaign.set_trace(tracer.clone().map(|tracer| tracer as TraceHandle));
            campaign.apply_capability(&pool.capability().clone());
            let report = match resumable_checkpoint(&unit.supervision, unit.config.seed) {
                Some(checkpoint) => campaign.resume(&mut pool, &unit.supervision, checkpoint),
                None => campaign.run_supervised(&mut pool, &unit.supervision),
            };
            UnitOutcome {
                report,
                profile: campaign.generator.stats,
                trace: tracer.map_or_else(TraceSummary::new, |tracer| {
                    tracer.borrow().summary().clone()
                }),
            }
        }))
        .unwrap_or_else(|payload| UnitOutcome {
            report: worker_panic_report(name, &*payload),
            profile: FeatureStats::new(),
            trace: TraceSummary::new(),
        })
    }
}

/// One work unit: a campaign over one driver's pool.
struct Unit<'a> {
    driver: &'a Arc<dyn Driver>,
    config: CampaignConfig,
    supervision: SupervisorConfig,
}

/// What one unit produced.
struct UnitOutcome {
    report: CampaignReport,
    profile: FeatureStats,
    trace: TraceSummary,
}

/// The result of a run: per-driver reports and learned profiles in plan
/// order, plus run-wide totals.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// One report per driver, in the order the drivers were given.
    pub reports: Vec<CampaignReport>,
    /// One validity-feedback profile per driver, index-aligned with
    /// `reports`; a sharded driver's shard profiles fold with
    /// [`FeatureStats::merge`] in database order.
    pub profiles: Vec<FeatureStats>,
    /// Sum of all per-driver metrics.
    pub totals: CampaignMetrics,
    /// Sum of all per-driver robustness counters (retries, watchdog trips,
    /// quarantines, incidents, ...).
    pub robustness: RobustnessCounters,
    /// The unit trace summaries folded together by summation; empty unless
    /// [`RunPlan::trace`] is set. Byte-identical for any thread count and
    /// pool size under [`sqlancer_core::render_trace_summary`].
    pub trace: TraceSummary,
}

/// Runs a fleet of drivers serially, one pooled campaign per driver, in
/// driver order: `RunPlan { pool_size, ..RunPlan::new(drivers) }`. Kept as
/// a function because the repository benchmark (`benchmark/`) calls it.
pub fn run_fleet_serial_drivers(
    drivers: &[Arc<dyn Driver>],
    base: &CampaignConfig,
    pool_size: usize,
) -> FleetReport {
    RunPlan {
        pool_size,
        ..RunPlan::new(drivers.to_vec())
    }
    .run(base)
}

/// Derives the seed for one dialect's campaign from the fleet campaign
/// seed. FNV-1a over the dialect name, mixed with the campaign seed through
/// SplitMix64 finalisation — deterministic, order-independent and stable
/// across runs and thread schedules. The hash primitives live in
/// [`sql_ast::hash`] (shared with the row fingerprints) rather than being
/// re-inlined here.
pub fn derive_dialect_seed(campaign_seed: u64, dialect: &str) -> u64 {
    sql_ast::mix_seed(campaign_seed, dialect)
}

/// Derives the generator seed for one database shard of a sharded run.
/// Like [`derive_dialect_seed`], but over the shard index, so every
/// database's generator stream is independent of how many shards run and
/// on which worker.
pub fn derive_shard_seed(campaign_seed: u64, database_index: usize) -> u64 {
    sql_ast::splitmix64(campaign_seed ^ sql_ast::fnv1a64(&database_index.to_le_bytes()))
}

/// The per-shard checkpoint file of a sharded run: the campaign's
/// checkpoint path with a `.shard<index>` suffix appended, so shards never
/// clobber each other's resume state.
pub fn shard_checkpoint_path(base: &Path, index: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{index}"));
    PathBuf::from(name)
}

/// Loads the checkpoint a unit should resume from, if any: the supervision
/// config names a checkpoint path, the file loads, and the recorded seed
/// matches the unit's seed. A stale or foreign checkpoint (different seed)
/// is ignored rather than trusted — the unit simply runs fresh and
/// overwrites it at the next cadence tick. Killing a checkpointing run and
/// re-running the same plan therefore converges to the report of an
/// uninterrupted run.
fn resumable_checkpoint(supervision: &SupervisorConfig, seed: u64) -> Option<CampaignCheckpoint> {
    let path = supervision.checkpoint_path.as_deref()?;
    let checkpoint = load_checkpoint(path).ok()?;
    (checkpoint.config_seed == seed).then_some(checkpoint)
}

/// The number of worker threads to use by default: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `count` jobs on up to `threads` workers — the calling thread plus
/// scoped helpers — that claim indices from a shared counter and write
/// results back by index, so the output order never depends on the
/// schedule. Poisoned result slots are recovered, not propagated, and a
/// slot whose claiming worker died before writing it is re-run inline.
fn run_scheduled<T: Send>(
    count: usize,
    threads: usize,
    job: &(impl Fn(usize) -> T + Sync),
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(index) else {
            break;
        };
        let result = job(index);
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    };
    // The explicit thread count is honoured (oversubscription is harmless
    // and keeps the helpers exercised on 1-CPU machines), bounded only by
    // the number of jobs.
    let helpers = threads.clamp(1, count.max(1)) - 1;
    // Workers are joined explicitly so that a dead worker's panic does not
    // re-raise when the scope ends: its unwritten slot is re-run below.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(worker)).collect();
        let _ = catch_unwind(AssertUnwindSafe(worker));
        for handle in handles {
            let _ = handle.join();
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| job(index))
        })
        .collect()
}

/// The degraded placeholder report for a unit whose worker panicked outside
/// the supervisor's reach. The driver keeps its slot (reports stay
/// index-aligned with the drivers) and the loss is visible as a
/// [`IncidentKind::WorkerPanic`] incident, counted by the [`Ledger`] fold
/// like any other, instead of a crashed run.
fn worker_panic_report(dialect: &str, payload: &(dyn std::any::Any + Send)) -> CampaignReport {
    let kind = IncidentKind::WorkerPanic;
    let mut ledger = Ledger::default();
    ledger.fold(&TraceEvent {
        case_seed: 0,
        ticks: 0,
        kind: TraceEventKind::Incident { kind },
    });
    CampaignReport {
        dbms_name: dialect.to_string(),
        degraded: true,
        metrics: ledger.metrics,
        robustness: ledger.robustness,
        incidents: vec![CampaignIncident {
            kind,
            database: 0,
            case_index: 0,
            attempt: 0,
            deadline_ticks: 0,
            observed_ticks: 0,
            detail: format!("campaign worker panicked: {}", panic_message(payload)),
        }],
        ..CampaignReport::default()
    }
}

/// The injected infrastructure fault ids whose incidents appear in a
/// report, in catalog order. The ground-truth check for fault-storm
/// campaigns: arm a fault kind, run, and its id must appear here; disarm
/// it (bisection) and it must vanish.
pub fn observed_infra_kinds(report: &CampaignReport) -> Vec<&'static str> {
    infra_catalog()
        .into_iter()
        .map(|bug| bug.fault)
        .filter(|id| report.incidents.iter().any(|i| i.detail.contains(id)))
        .collect()
}

/// Folds one driver's per-database shard results together in database
/// order:
///
/// * metrics sum; the validity series concatenates shard series in order;
/// * bug reports are re-prioritized by a merge-time [`BugPrioritizer`]
///   walking the shards in order, so duplicates across shards are dropped
///   exactly as a serial pass over the same stream would drop them (the
///   `prioritized + deduplicated = detected` invariant holds);
/// * learned profiles fold with [`FeatureStats::merge`].
fn merge_shards(dialect: &str, shards: Vec<UnitOutcome>) -> (CampaignReport, FeatureStats) {
    let mut merged = CampaignReport {
        dbms_name: dialect.to_string(),
        ..CampaignReport::default()
    };
    let mut profile = FeatureStats::new();
    let mut prioritizer = BugPrioritizer::new();
    for (shard_index, unit) in shards.into_iter().enumerate() {
        let shard = unit.report;
        merged.metrics.merge(&shard.metrics);
        merged.validity_series.extend(shard.validity_series);
        merged.robustness.merge(&shard.robustness);
        merged.coverage.merge(&shard.coverage);
        merged.degraded |= shard.degraded;
        // Each shard ran as database 0 of its own single-database campaign;
        // restore the fleet-level view by stamping the shard index back
        // into its incidents.
        merged
            .incidents
            .extend(shard.incidents.into_iter().map(|mut incident| {
                incident.database = shard_index;
                incident
            }));
        // Each shard pushed one replayable case per kept report, in the
        // same order; walk them with per-kind cursors so a merge-time
        // duplicate drops the report *and* its case together.
        let mut cases = shard.prioritized_cases.into_iter();
        let mut txn_cases = shard.txn_cases.into_iter();
        let mut schedule_cases = shard.schedule_cases.into_iter();
        for report in shard.reports {
            let decision = prioritizer.classify(&report.features);
            match report.oracle {
                OracleKind::Tlp | OracleKind::NoRec => {
                    let case = cases.next().expect("one case per single-query report");
                    if decision == PriorityDecision::New {
                        merged.prioritized_cases.push(case);
                        merged.reports.push(report);
                    }
                }
                OracleKind::Rollback => {
                    let case = txn_cases.next().expect("one case per rollback report");
                    if decision == PriorityDecision::New {
                        merged.txn_cases.push(case);
                        merged.reports.push(report);
                    }
                }
                OracleKind::Isolation => {
                    let case = schedule_cases
                        .next()
                        .expect("one case per isolation report");
                    if decision == PriorityDecision::New {
                        merged.schedule_cases.push(case);
                        merged.reports.push(report);
                    }
                }
            }
        }
        profile.merge(&unit.profile);
    }
    // Cross-shard deduplication recomputes the prioritization tallies; the
    // detected count is untouched, preserving the campaign invariant.
    merged.metrics.prioritized_bugs = merged.reports.len() as u64;
    merged.metrics.deduplicated_bugs = merged
        .metrics
        .detected_bug_cases
        .saturating_sub(merged.metrics.prioritized_bugs);
    (merged, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::fleet;
    use sqlancer_core::OracleKind;

    fn small_config() -> CampaignConfig {
        CampaignConfig::builder()
            .seed(0xF1EE7)
            .databases(1)
            .ddl_per_database(6)
            .queries_per_database(12)
            .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
            .reduce_bugs(false)
            .build()
    }

    fn drivers(count: usize) -> Vec<Arc<dyn Driver>> {
        fleet()
            .iter()
            .take(count)
            .map(|preset| preset.driver(ExecutionPath::Ast))
            .collect()
    }

    #[test]
    fn derived_seeds_differ_per_dialect_and_are_stable() {
        let a = derive_dialect_seed(1, "sqlite");
        let b = derive_dialect_seed(1, "mysql");
        assert_ne!(a, b);
        assert_eq!(a, derive_dialect_seed(1, "sqlite"));
        assert_ne!(a, derive_dialect_seed(2, "sqlite"));
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let config = small_config();
        let serial = RunPlan::new(drivers(4)).run(&config);
        let parallel = RunPlan {
            threads: 4,
            ..RunPlan::new(drivers(4))
        }
        .run(&config);
        assert_eq!(serial.reports.len(), parallel.reports.len());
        for (s, p) in serial.reports.iter().zip(&parallel.reports) {
            assert_eq!(s.dbms_name, p.dbms_name);
            assert_eq!(s.metrics, p.metrics);
            assert_eq!(s.reports, p.reports);
            assert_eq!(s.validity_series, p.validity_series);
        }
        assert_eq!(serial.totals, parallel.totals);
    }

    #[test]
    fn partitioned_run_is_identical_for_any_thread_count() {
        let driver = crate::preset_by_name("mariadb")
            .unwrap()
            .driver(ExecutionPath::Ast);
        let mut config = small_config();
        config.databases = 4;
        config.oracles = vec![OracleKind::Tlp, OracleKind::Isolation];
        let sharded = |threads| {
            RunPlan {
                threads,
                shard_by_database: true,
                ..RunPlan::new(vec![Arc::clone(&driver)])
            }
            .run(&config)
        };
        let (serial, parallel) = (sharded(1), sharded(4));
        let (s, p) = (&serial.reports[0], &parallel.reports[0]);
        assert_eq!(s.dbms_name, p.dbms_name);
        assert_eq!(s.metrics, p.metrics);
        assert_eq!(s.reports, p.reports);
        assert_eq!(s.validity_series, p.validity_series);
        assert_eq!(s.schedule_cases, p.schedule_cases);
        let serial_profile: Vec<_> = serial.profiles[0]
            .iter_query()
            .map(|(f, c)| (f, *c))
            .collect();
        let parallel_profile: Vec<_> = parallel.profiles[0]
            .iter_query()
            .map(|(f, c)| (f, *c))
            .collect();
        assert_eq!(serial_profile, parallel_profile);
        // The invariant the merge-time prioritizer must preserve.
        assert_eq!(
            s.metrics.prioritized_bugs + s.metrics.deduplicated_bugs,
            s.metrics.detected_bug_cases
        );
    }

    #[test]
    fn shard_seeds_are_stable_and_distinct() {
        assert_eq!(derive_shard_seed(7, 0), derive_shard_seed(7, 0));
        assert_ne!(derive_shard_seed(7, 0), derive_shard_seed(7, 1));
        assert_ne!(derive_shard_seed(7, 0), derive_shard_seed(8, 0));
    }

    #[test]
    fn totals_accumulate_across_dialects() {
        let report = RunPlan::new(drivers(2)).run(&small_config());
        let sum: u64 = report.reports.iter().map(|r| r.metrics.test_cases).sum();
        assert_eq!(report.totals.test_cases, sum);
        assert!(report.totals.test_cases > 0);
        assert_eq!(report.profiles.len(), 2);
    }

    #[test]
    fn scheduler_returns_results_in_index_order_for_any_thread_count() {
        for threads in [0, 1, 3, 16] {
            let squares = run_scheduled(7, threads, &|index| index * index);
            assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36]);
        }
        assert!(run_scheduled(0, 4, &|index| index).is_empty());
    }
}
