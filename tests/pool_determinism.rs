//! Pool-size invariance: the deterministic connection pool checks a test
//! case out of slot `case_seed % size`, re-syncing stale slots by SQL
//! replay, so the campaign's verdict stream — and therefore the rendered
//! report — must be **byte-identical** for any pool size. The pool size is
//! purely a throughput knob, never an observable.

use sqlancerpp::core::{render_report, CampaignConfig, OracleKind};
use sqlancerpp::sim::{fleet_drivers, preset_by_name, ExecutionPath, RunPlan};

fn pool_config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(10)
        .queries_per_database(40)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .max_reduction_checks(16)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

fn fleet_renderings(path: ExecutionPath, pool_size: usize) -> Vec<String> {
    let fleet = RunPlan {
        pool_size,
        ..RunPlan::new(fleet_drivers(path))
    }
    .run(&pool_config(0xB001));
    fleet.reports.iter().map(render_report).collect()
}

#[test]
fn serial_fleet_reports_are_byte_identical_for_any_pool_size() {
    for path in [ExecutionPath::Ast, ExecutionPath::Text] {
        let baseline = fleet_renderings(path, 1);
        for pool_size in [2, 4] {
            let rendered = fleet_renderings(path, pool_size);
            assert_eq!(
                baseline, rendered,
                "{path:?} fleet report drifted at pool size {pool_size}"
            );
        }
    }
}

#[test]
fn partitioned_campaign_is_byte_identical_for_any_pool_size() {
    let preset = preset_by_name("sqlite").expect("sqlite preset exists");
    let driver = preset.driver(ExecutionPath::Text);
    let config = pool_config(0xB002);
    let partitioned = |threads, pool_size| {
        let plan = RunPlan {
            pool_size,
            threads,
            shard_by_database: true,
            ..RunPlan::new(vec![driver.clone()])
        };
        render_report(&plan.run(&config).reports[0])
    };
    let baseline = partitioned(2, 1);
    for pool_size in [2, 4] {
        for threads in [1, 2] {
            assert_eq!(
                baseline,
                partitioned(threads, pool_size),
                "partitioned report drifted at pool size {pool_size}, {threads} threads"
            );
        }
    }
}
