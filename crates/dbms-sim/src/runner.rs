//! The fleet campaign runner: one campaign per dialect, serial or sharded
//! across threads.
//!
//! The paper's platform tests 18 DBMSs; at fleet scale the campaigns are
//! embarrassingly parallel — each dialect gets its own connection, its own
//! adaptive generator and its own prioritizer. The runner derives a
//! deterministic per-dialect seed from the campaign seed, so
//!
//! * serial and parallel runs produce **identical** per-dialect reports
//!   (verdicts, metrics and bug reports, byte for byte), and
//! * adding or removing dialects never perturbs the seeds of the others.

use crate::fleet::DialectPreset;
use sqlancer_core::driver::{Driver, Pool};
use sqlancer_core::stats::FeatureStats;
use sqlancer_core::supervisor::panic_message;
use sqlancer_core::{
    load_checkpoint, BugPrioritizer, Campaign, CampaignCheckpoint, CampaignConfig,
    CampaignIncident, CampaignMetrics, CampaignReport, IncidentKind, OracleKind, PriorityDecision,
    RobustnessCounters, SupervisorConfig, TraceHandle, TraceSummary, Tracer,
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

/// The result of a fleet campaign: per-dialect reports in stable fleet
/// order plus fleet-wide metric totals.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// One report per dialect, in the order the presets were given.
    pub reports: Vec<CampaignReport>,
    /// Sum of all per-dialect metrics.
    pub totals: CampaignMetrics,
    /// Sum of all per-dialect robustness counters (retries, watchdog trips,
    /// quarantines, incidents, ...).
    pub robustness: RobustnessCounters,
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

/// Runs one backend's campaign through the Driver/Pool connection layer:
/// per-backend seed derivation, a fixed-size pool with seed-ordered
/// checkout, and the driver's capability report applied to the generator.
/// Reports are byte-identical for any `pool_size`.
pub fn run_one_driver(
    driver: &Arc<dyn Driver>,
    base: &CampaignConfig,
    pool_size: usize,
) -> CampaignReport {
    let mut config = base.clone();
    config.seed = derive_dialect_seed(base.seed, driver.name());
    let mut campaign = Campaign::new(config);
    let mut pool = Pool::new(Arc::clone(driver), pool_size)
        .unwrap_or_else(|err| panic!("pool for {} failed to connect: {err}", driver.name()));
    campaign.run_pooled(&mut pool, &SupervisorConfig::default())
}

fn merge(reports: Vec<CampaignReport>) -> FleetReport {
    let mut totals = CampaignMetrics::default();
    let mut robustness = RobustnessCounters::default();
    for report in &reports {
        totals.merge(&report.metrics);
        robustness.merge(&report.robustness);
    }
    FleetReport {
        reports,
        totals,
        robustness,
    }
}

/// The degraded placeholder report for a dialect whose worker thread died
/// outside the supervisor's reach. The fleet keeps its slot (reports stay
/// index-aligned with the presets) and the loss is visible as a
/// [`IncidentKind::WorkerPanic`] incident instead of a crashed run.
fn worker_panic_report(dialect: &str, detail: String) -> CampaignReport {
    let mut report = CampaignReport {
        dbms_name: dialect.to_string(),
        ..CampaignReport::default()
    };
    report.degraded = true;
    report.robustness.incidents = 1;
    report.robustness.recovered_workers = 1;
    report.incidents.push(CampaignIncident {
        kind: IncidentKind::WorkerPanic,
        database: 0,
        case_index: 0,
        attempt: 0,
        deadline_ticks: 0,
        observed_ticks: 0,
        detail,
    });
    report
}

/// Runs the fleet serially, one campaign per preset, in preset order.
pub fn run_fleet_serial(
    presets: &[DialectPreset],
    base: &CampaignConfig,
    path: ExecutionPath,
) -> FleetReport {
    run_fleet_serial_drivers(&presets_to_drivers(presets, path), base, 1)
}

/// The presets re-exposed through the [`Driver`] interface, in order.
fn presets_to_drivers(presets: &[DialectPreset], path: ExecutionPath) -> Vec<Arc<dyn Driver>> {
    presets.iter().map(|preset| preset.driver(path)).collect()
}

/// Runs a fleet of drivers serially, one pooled campaign per driver, in
/// driver order.
pub fn run_fleet_serial_drivers(
    drivers: &[Arc<dyn Driver>],
    base: &CampaignConfig,
    pool_size: usize,
) -> FleetReport {
    merge(
        drivers
            .iter()
            .map(|driver| run_one_driver(driver, base, pool_size))
            .collect(),
    )
}

/// Runs the fleet sharded across `threads` scoped worker threads.
///
/// Workers claim dialects from a shared counter; each worker instantiates
/// its own simulated DBMS, so no connection state crosses threads. Results
/// are written back by dialect index, making the output — reports, bug
/// lists and totals — byte-identical to [`run_fleet_serial`] with the same
/// seed, regardless of scheduling.
///
/// Worker panics are contained: a dialect whose campaign escapes the
/// supervisor's `catch_unwind` (or whose worker dies before writing its
/// slot) is recorded as a degraded [`worker_panic_report`] instead of
/// taking the whole fleet down, and a poisoned result slot is recovered
/// rather than propagated — the poisoning worker already produced the
/// panic report, so the slot value (set or not) is still trustworthy.
pub fn run_fleet_parallel(
    presets: &[DialectPreset],
    base: &CampaignConfig,
    path: ExecutionPath,
    threads: usize,
) -> FleetReport {
    run_fleet_parallel_drivers(&presets_to_drivers(presets, path), base, 1, threads)
}

/// [`run_fleet_parallel`] over a fleet of drivers: workers claim drivers
/// from a shared counter and each runs a pooled campaign. Output is
/// byte-identical to [`run_fleet_serial_drivers`] with the same seed and
/// pool size, regardless of scheduling.
pub fn run_fleet_parallel_drivers(
    drivers: &[Arc<dyn Driver>],
    base: &CampaignConfig,
    pool_size: usize,
    threads: usize,
) -> FleetReport {
    // The explicit caller-provided count is honoured (oversubscription is
    // harmless and keeps the parallel path exercised even on 1-CPU
    // machines); only bound it by the number of dialects.
    let threads = threads.max(1).min(drivers.len().max(1));
    if threads <= 1 || drivers.len() <= 1 {
        return run_fleet_serial_drivers(drivers, base, pool_size);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CampaignReport>>> =
        drivers.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(driver) = drivers.get(index) else {
                    break;
                };
                let report =
                    catch_unwind(AssertUnwindSafe(|| run_one_driver(driver, base, pool_size)))
                        .unwrap_or_else(|payload| {
                            worker_panic_report(
                                driver.name(),
                                format!("campaign worker panicked: {}", panic_message(&*payload)),
                            )
                        });
                *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
            });
        }
    });
    merge(
        slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        // The claiming worker died before writing the slot
                        // (a panic outside the catch above, e.g. in the
                        // slot machinery itself): run the dialect inline.
                        run_one_driver(&drivers[index], base, pool_size)
                    })
            })
            .collect(),
    )
}

/// The number of worker threads to use by default: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

// ------------------------------------------------ within-dialect sharding ----

/// The result of a partitioned single-dialect campaign: the merged report
/// plus the learned profile folded together in database order.
#[derive(Debug, Clone)]
pub struct PartitionedCampaign {
    /// The merged campaign report (metrics summed, bug reports deduplicated
    /// across shards in database order).
    pub report: CampaignReport,
    /// The validity-feedback profile, merged shard by shard in database
    /// order ([`FeatureStats::merge`]).
    pub profile: FeatureStats,
}

/// Derives the generator seed for one database shard of a partitioned
/// campaign. Like [`derive_dialect_seed`], but over the shard index, so
/// every database's generator stream is independent of how many shards run
/// and on which worker.
pub fn derive_shard_seed(campaign_seed: u64, database_index: usize) -> u64 {
    sql_ast::splitmix64(campaign_seed ^ sql_ast::fnv1a64(&database_index.to_le_bytes()))
}

/// Runs one dialect's campaign **sharded by database** across `threads`
/// scoped workers and merges the results in database order.
///
/// Each of the configured `databases` becomes an independent
/// single-database campaign: its generator is seeded by
/// [`derive_shard_seed`] and starts from the base configuration (no state
/// chains from earlier databases, which is what makes the shards
/// embarrassingly parallel — the cheap `Engine::clone`/setup path keeps
/// per-shard instantiation negligible). Workers claim shards from a shared
/// counter; results are merged **in database order**:
///
/// * metrics sum; the validity series concatenates shard series in order;
/// * bug reports are re-prioritized by a merge-time [`BugPrioritizer`]
///   walking the shards in order, so duplicates across shards are dropped
///   exactly as a serial pass over the same stream would drop them (the
///   `prioritized + deduplicated = detected` invariant holds);
/// * learned profiles fold with [`FeatureStats::merge`].
///
/// The output is byte-identical for any `threads`, including 1 — the
/// serial reference is this same function with one worker.
pub fn run_campaign_partitioned(
    preset: &DialectPreset,
    base: &CampaignConfig,
    path: ExecutionPath,
    threads: usize,
) -> PartitionedCampaign {
    run_campaign_partitioned_supervised(preset, base, path, threads, &SupervisorConfig::default())
}

/// The per-shard checkpoint file for a partitioned campaign: the campaign's
/// checkpoint path with a `.shard<index>` suffix appended, so shards never
/// clobber each other's resume state.
pub fn shard_checkpoint_path(base: &Path, index: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{index}"));
    PathBuf::from(name)
}

/// Loads the checkpoint a supervised campaign should resume from, if any:
/// the supervision config names a checkpoint path, the file loads, and the
/// recorded seed matches the campaign seed. A stale or foreign checkpoint
/// (different seed) is ignored rather than trusted — the shard simply runs
/// fresh and overwrites it at the next cadence tick.
fn resumable_checkpoint(supervision: &SupervisorConfig, seed: u64) -> Option<CampaignCheckpoint> {
    let path = supervision.checkpoint_path.as_deref()?;
    let checkpoint = load_checkpoint(path).ok()?;
    (checkpoint.config_seed == seed).then_some(checkpoint)
}

/// [`run_campaign_partitioned`] with explicit supervision: every shard runs
/// under the watchdog/retry/quarantine supervisor, shard checkpoints write
/// to `<checkpoint_path>.shard<index>`, and a shard whose checkpoint file
/// already exists (same seed) **resumes** from it instead of starting over.
/// Killing the process mid-campaign and re-invoking with the same
/// configuration therefore converges to the same merged report as an
/// uninterrupted run.
///
/// A shard worker that panics outside the supervisor's reach is recorded as
/// a degraded [`worker_panic_report`] shard; poisoned shard slots are
/// recovered, not propagated.
pub fn run_campaign_partitioned_supervised(
    preset: &DialectPreset,
    base: &CampaignConfig,
    path: ExecutionPath,
    threads: usize,
    supervision: &SupervisorConfig,
) -> PartitionedCampaign {
    run_campaign_partitioned_pooled(&preset.driver(path), base, threads, 1, supervision)
}

/// [`run_campaign_partitioned_supervised`] over a driver: every shard runs
/// a pooled campaign (`pool_size` connections, seed-ordered checkout) with
/// the driver's capability report applied. The merged report is
/// byte-identical for any shard count *and* any pool size.
pub fn run_campaign_partitioned_pooled(
    driver: &Arc<dyn Driver>,
    base: &CampaignConfig,
    threads: usize,
    pool_size: usize,
    supervision: &SupervisorConfig,
) -> PartitionedCampaign {
    let run_shard_guarded = |index: usize| -> (CampaignReport, FeatureStats) {
        catch_unwind(AssertUnwindSafe(|| {
            run_one_shard(driver, base, pool_size, supervision, index, None)
        }))
        .unwrap_or_else(|payload| {
            (
                shard_panic_report(driver.name(), &*payload),
                FeatureStats::new(),
            )
        })
    };
    let results = run_shards_scheduled(base.databases, threads, &run_shard_guarded);
    merge_shards(driver.name(), results)
}

/// [`run_campaign_partitioned_pooled`] with per-shard trace collection:
/// every shard runs with its own [`Tracer`] (trace sinks are
/// single-threaded by design — `Rc`, not `Arc`) and the shard summaries
/// fold into one [`TraceSummary`] by summation. Because shard summaries
/// merge commutatively and per-case tick deltas are sampled inside the
/// case (after pool checkout and re-sync), the merged summary — and its
/// [`sqlancer_core::render_trace_summary`] rendering — is byte-identical
/// for any `threads` and any `pool_size`.
///
/// A shard whose worker panics outside the supervisor's reach contributes
/// a degraded [`worker_panic_report`] and an empty trace summary.
pub fn run_campaign_partitioned_traced(
    driver: &Arc<dyn Driver>,
    base: &CampaignConfig,
    threads: usize,
    pool_size: usize,
    supervision: &SupervisorConfig,
) -> (PartitionedCampaign, TraceSummary) {
    let run_shard_guarded = |index: usize| -> (CampaignReport, FeatureStats, TraceSummary) {
        catch_unwind(AssertUnwindSafe(|| {
            let tracer = Rc::new(RefCell::new(Tracer::new()));
            let handle: TraceHandle = tracer.clone();
            let (report, stats) =
                run_one_shard(driver, base, pool_size, supervision, index, Some(handle));
            let summary = tracer.borrow().summary().clone();
            (report, stats, summary)
        }))
        .unwrap_or_else(|payload| {
            (
                shard_panic_report(driver.name(), &*payload),
                FeatureStats::new(),
                TraceSummary::new(),
            )
        })
    };
    let results = run_shards_scheduled(base.databases, threads, &run_shard_guarded);
    let mut summary = TraceSummary::new();
    let mut shards = Vec::with_capacity(results.len());
    for (report, stats, shard_summary) in results {
        summary.merge(&shard_summary);
        shards.push((report, stats));
    }
    (merge_shards(driver.name(), shards), summary)
}

/// One database shard of a partitioned campaign: single-database config
/// with the shard-derived seed, per-shard checkpoint path, pooled
/// connections, checkpoint resume, and an optional trace sink.
fn run_one_shard(
    driver: &Arc<dyn Driver>,
    base: &CampaignConfig,
    pool_size: usize,
    supervision: &SupervisorConfig,
    index: usize,
    trace: Option<TraceHandle>,
) -> (CampaignReport, FeatureStats) {
    let mut config = base.clone();
    config.databases = 1;
    config.seed = derive_shard_seed(base.seed, index);
    let seed = config.seed;
    let mut shard_sup = supervision.clone();
    if let Some(base_path) = &supervision.checkpoint_path {
        shard_sup.checkpoint_path = Some(shard_checkpoint_path(base_path, index));
    }
    let mut campaign = Campaign::new(config);
    campaign.set_trace(trace);
    let mut pool = Pool::new(Arc::clone(driver), pool_size)
        .unwrap_or_else(|err| panic!("pool for {} failed to connect: {err}", driver.name()));
    let report = match resumable_checkpoint(&shard_sup, seed) {
        Some(checkpoint) => campaign.resume_pooled(&mut pool, &shard_sup, checkpoint),
        None => campaign.run_pooled(&mut pool, &shard_sup),
    };
    (report, campaign.generator.stats.clone())
}

/// The degraded report for a shard worker that panicked outside the
/// supervisor's reach.
fn shard_panic_report(dialect: &str, payload: &(dyn std::any::Any + Send)) -> CampaignReport {
    worker_panic_report(
        dialect,
        format!("shard worker panicked: {}", panic_message(payload)),
    )
}

/// Runs `shards` shard jobs across up to `threads` scoped workers claiming
/// indices from a shared counter, writing results back by shard index.
/// Poisoned result slots are recovered, not propagated, and a slot whose
/// claiming worker died before writing is re-run inline.
fn run_shards_scheduled<T: Send>(
    shards: usize,
    threads: usize,
    run_shard_guarded: &(impl Fn(usize) -> T + Sync),
) -> Vec<T> {
    let threads = threads.max(1).min(shards.max(1));
    if threads <= 1 || shards <= 1 {
        return (0..shards).map(run_shard_guarded).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= shards {
                    break;
                }
                let result = run_shard_guarded(index);
                *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| run_shard_guarded(index))
        })
        .collect()
}

/// The injected infrastructure fault ids whose incidents appear in a
/// report, in catalog order. The ground-truth check for fault-storm
/// campaigns: arm a fault kind, run, and its id must appear here; disarm
/// it (bisection) and it must vanish.
pub fn observed_infra_kinds(report: &CampaignReport) -> Vec<&'static str> {
    [
        "infra_crash",
        "infra_hang",
        "infra_drop",
        "infra_garble",
        "infra_probe",
        "infra_flap",
        "infra_capability_lie",
    ]
    .into_iter()
    .filter(|id| report.incidents.iter().any(|i| i.detail.contains(id)))
    .collect()
}

/// Folds per-database shard results together in database order.
fn merge_shards(dialect: &str, shards: Vec<(CampaignReport, FeatureStats)>) -> PartitionedCampaign {
    let mut merged = CampaignReport {
        dbms_name: dialect.to_string(),
        ..CampaignReport::default()
    };
    let mut profile = FeatureStats::new();
    let mut prioritizer = BugPrioritizer::new();
    for (shard_index, (shard, stats)) in shards.into_iter().enumerate() {
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
        profile.merge(&stats);
    }
    // Cross-shard deduplication recomputes the prioritization tallies; the
    // detected count is untouched, preserving the campaign invariant.
    merged.metrics.prioritized_bugs = merged.reports.len() as u64;
    merged.metrics.deduplicated_bugs = merged
        .metrics
        .detected_bug_cases
        .saturating_sub(merged.metrics.prioritized_bugs);
    PartitionedCampaign {
        report: merged,
        profile,
    }
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
        let presets: Vec<_> = fleet().into_iter().take(4).collect();
        let config = small_config();
        let serial = run_fleet_serial(&presets, &config, ExecutionPath::Ast);
        let parallel = run_fleet_parallel(&presets, &config, ExecutionPath::Ast, 4);
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
        let preset = crate::preset_by_name("mariadb").unwrap();
        let mut config = small_config();
        config.databases = 4;
        config.oracles = vec![OracleKind::Tlp, OracleKind::Isolation];
        let serial = run_campaign_partitioned(&preset, &config, ExecutionPath::Ast, 1);
        let parallel = run_campaign_partitioned(&preset, &config, ExecutionPath::Ast, 4);
        assert_eq!(serial.report.dbms_name, parallel.report.dbms_name);
        assert_eq!(serial.report.metrics, parallel.report.metrics);
        assert_eq!(serial.report.reports, parallel.report.reports);
        assert_eq!(
            serial.report.validity_series,
            parallel.report.validity_series
        );
        assert_eq!(serial.report.schedule_cases, parallel.report.schedule_cases);
        let serial_profile: Vec<_> = serial
            .profile
            .iter_query()
            .map(|(f, c)| (f.clone(), *c))
            .collect();
        let parallel_profile: Vec<_> = parallel
            .profile
            .iter_query()
            .map(|(f, c)| (f.clone(), *c))
            .collect();
        assert_eq!(serial_profile, parallel_profile);
        // The invariant the merge-time prioritizer must preserve.
        assert_eq!(
            serial.report.metrics.prioritized_bugs + serial.report.metrics.deduplicated_bugs,
            serial.report.metrics.detected_bug_cases
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
        let presets: Vec<_> = fleet().into_iter().take(2).collect();
        let report = run_fleet_serial(&presets, &small_config(), ExecutionPath::Ast);
        let sum: u64 = report.reports.iter().map(|r| r.metrics.test_cases).sum();
        assert_eq!(report.totals.test_cases, sum);
        assert!(report.totals.test_cases > 0);
    }
}
