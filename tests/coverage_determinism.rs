//! Coverage-atlas determinism contracts.
//!
//! The rendered atlas ([`render_atlas_report`]) is a pure function of the
//! campaign definition: byte-identical for any worker count, any pool
//! size, both execution paths, and across a kill-at-k resume. The
//! coverage-directed mode keeps the same property — its weight boosts are
//! derived from case seeds, never from wall clock or thread schedule.

use sqlancerpp::core::{
    load_checkpoint, render_atlas_report, render_report, Campaign, CampaignConfig, CampaignReport,
    Driver, OracleKind, SupervisorConfig,
};
use sqlancerpp::sim::{preset_by_name, DialectPreset, ExecutionPath, FaultyConfig, RunPlan};
use std::path::PathBuf;
use std::sync::Arc;

fn storm_preset(dialect: &str) -> DialectPreset {
    preset_by_name(dialect)
        .unwrap()
        .with_infra_faults(FaultyConfig::storm())
}

fn coverage_config(seed: u64) -> CampaignConfig {
    coverage_config_directed(seed, false)
}

fn coverage_config_directed(seed: u64, directed: bool) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(8)
        .queries_per_database(40)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .max_reduction_checks(16)
        .coverage_directed(directed)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

/// One driver's campaign, sharded by database across `threads` workers.
fn sharded(
    driver: &Arc<dyn Driver>,
    config: &CampaignConfig,
    threads: usize,
    pool_size: usize,
) -> CampaignReport {
    let plan = RunPlan {
        pool_size,
        threads,
        shard_by_database: true,
        ..RunPlan::new(vec![Arc::clone(driver)])
    };
    plan.run(config).reports.remove(0)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sqlancerpp_atlas_{}_{name}", std::process::id()))
}

#[test]
fn atlas_is_byte_identical_for_any_worker_pool_and_path() {
    let config = coverage_config(0xA71A5);
    let preset = storm_preset("dolt");
    let mut baselines = Vec::new();
    for path in [ExecutionPath::Ast, ExecutionPath::Text] {
        let driver = preset.driver(path);
        let baseline = render_atlas_report(&sharded(&driver, &config, 1, 1));
        assert!(
            baseline.contains("oracle TLP") && baseline.contains("saturation novel"),
            "atlas should render oracle and saturation sections:\n{baseline}"
        );
        assert!(
            baseline.contains("engine statements"),
            "the simulated backend must surface engine-plane coverage:\n{baseline}"
        );
        for threads in [1usize, 2] {
            for pool_size in [1usize, 2, 4] {
                assert_eq!(
                    baseline,
                    render_atlas_report(&sharded(&driver, &config, threads, pool_size)),
                    "{path:?} atlas drifted at {threads} threads, pool size {pool_size}"
                );
            }
        }
        baselines.push(baseline);
    }
    // Coverage is charged at the shared text/AST funnel, so the execution
    // path is not an observable either.
    assert_eq!(
        baselines[0], baselines[1],
        "text and AST paths must produce identical atlases"
    );
}

fn run_supervised(
    preset: &DialectPreset,
    config: &CampaignConfig,
    supervision: &SupervisorConfig,
) -> CampaignReport {
    let mut campaign = Campaign::new(config.clone());
    let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
    campaign.run_supervised(&mut *conn, supervision)
}

#[test]
fn kill_at_k_resume_reports_the_same_atlas() {
    let config = coverage_config(0xC0FFEE);
    let preset = storm_preset("dolt");
    let path = scratch("kill_resume");
    let _ = std::fs::remove_file(&path);

    let reference = run_supervised(&preset, &config, &SupervisorConfig::default());
    let reference_atlas = render_atlas_report(&reference);
    assert!(
        reference.coverage.saturation.novel_features > 0,
        "the reference campaign should discover features"
    );

    let checkpointing = SupervisorConfig {
        checkpoint_every: 5,
        checkpoint_path: Some(path.clone()),
        ..SupervisorConfig::default()
    };
    // Kill at several depths: each k exercises a different split of the
    // per-database novelty stream (including mid-database kills, where the
    // atlas working state must resume from the checkpoint, not reset).
    // Every k lies past the first checkpoint cadence tick, so a resume
    // file always exists.
    for stop_after in [7u64, 11, 27] {
        let _ = std::fs::remove_file(&path);
        let killed_config = SupervisorConfig {
            stop_after_cases: Some(stop_after),
            ..checkpointing.clone()
        };
        let _ = run_supervised(&preset, &config, &killed_config);
        let checkpoint = load_checkpoint(&path).expect("cadence checkpoint was written");
        let mut campaign = Campaign::new(config.clone());
        let mut conn = preset.instantiate_for_path(ExecutionPath::Ast);
        let resumed = campaign.resume(&mut *conn, &checkpointing, checkpoint);
        assert_eq!(
            render_report(&resumed),
            render_report(&reference),
            "kill at {stop_after}: resume must converge to the reference report"
        );
        assert_eq!(
            render_atlas_report(&resumed),
            reference_atlas,
            "kill at {stop_after}: resumed atlas must match the uninterrupted one"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn coverage_directed_mode_is_seed_stable_and_changes_generation() {
    let preset = storm_preset("dolt");
    let supervision = SupervisorConfig::default();
    let driver = preset.driver(ExecutionPath::Ast);

    let directed = coverage_config_directed(0xD12EC7, true);
    let uniform = coverage_config(0xD12EC7);

    let first = sharded(&driver, &directed, 1, 1);
    let again = sharded(&driver, &directed, 2, 2);
    assert_eq!(
        render_atlas_report(&first),
        render_atlas_report(&again),
        "directed mode must stay deterministic across workers and pools"
    );
    assert_eq!(
        render_report(&first),
        render_report(&again),
        "directed-mode reports must stay deterministic too"
    );

    let baseline = sharded(&driver, &uniform, 1, 1);
    assert_ne!(
        render_atlas_report(&first),
        render_atlas_report(&baseline),
        "the A/B knob must actually steer generation"
    );

    // Steering pays off: at the pinned seed and 120 cases per database,
    // directed mode reaches at least the uniform scheduler's distinct
    // features (106 vs 78).
    let distinct_features = |directed: bool| {
        let mut config = coverage_config_directed(0x5EED1, directed);
        config.ddl_per_database = 12;
        config.queries_per_database = 120;
        config.generator.max_insert_rows = 24;
        config.reduce_bugs = false;
        let dolt = preset_by_name("dolt").unwrap();
        run_supervised(&dolt, &config, &supervision)
            .coverage
            .distinct_features()
    };
    let (directed_features, uniform_features) = (distinct_features(true), distinct_features(false));
    assert!(
        directed_features >= uniform_features,
        "directed mode lost coverage: {directed_features} vs {uniform_features} uniform"
    );
}
