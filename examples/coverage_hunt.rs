//! A coverage-guided bug hunt: the campaign coverage atlas in action.
//!
//! Runs the same fixed-seed campaign twice — once with the uniform
//! scheduler, once with coverage-directed generation — and reads the
//! atlas out loud:
//!
//! * **per-oracle plane** — which grammar features each oracle exercised
//!   and how its verdicts split;
//! * **engine plane** — which plan operators, functions, coercions and
//!   statement kinds the backend reported executing;
//! * **saturation curve** — novel features per window of generated cases,
//!   the dry-run tail that signals a saturated seed, and the log2
//!   histogram of gaps between discoveries.
//!
//! The rendered atlas is byte-identical for any worker count and pool
//! size (demonstrated at the end against the partitioned runner) — the
//! same determinism contract as the campaign report itself.
//!
//! ```bash
//! cargo run --example coverage_hunt
//! ```

use sqlancerpp::core::{render_atlas_report, silence_infra_panics, CampaignConfig, OracleKind};
use sqlancerpp::sim::{preset_by_name, ExecutionPath, RunPlan};

fn hunt_config(seed: u64, directed: bool) -> CampaignConfig {
    let mut config = CampaignConfig::builder()
        .seed(seed)
        .databases(2)
        .ddl_per_database(10)
        .queries_per_database(120)
        .oracles(vec![
            OracleKind::Tlp,
            OracleKind::NoRec,
            OracleKind::Rollback,
        ])
        .reduce_bugs(true)
        .max_reduction_checks(24)
        .coverage_directed(directed)
        .build();
    config.generator.stats.query_threshold = 0.05;
    config.generator.stats.min_attempts = 30;
    config
}

fn main() {
    silence_infra_panics();

    let preset = preset_by_name("dolt").expect("known preset");
    // One worker, pool of one, the dialect's databases run as shards.
    let plan = RunPlan {
        shard_by_database: true,
        ..RunPlan::new(vec![preset.driver(ExecutionPath::Ast)])
    };

    // The uniform arm: every allowed grammar option drawn with equal
    // weight, coverage recorded but not steering anything.
    println!("== uniform campaign (dolt) ==");
    let uniform = plan.run(&hunt_config(0xA71A5, false)).reports.remove(0);
    println!("{}", render_atlas_report(&uniform));

    // Saturation read-out: when did the campaign stop learning?
    let curve = &uniform.coverage.saturation;
    println!(
        "saturation: {} novel features over {} windows, longest dry run {} cases, \
         {} trailing dry cases",
        curve.novel_features,
        curve.windows.len(),
        curve.longest_dry_run,
        curve.trailing_dry_cases,
    );
    if let Some((last, rest)) = curve.windows.split_last() {
        let early: u64 = rest.iter().take(3).sum();
        println!(
            "  first three windows discovered {early} features, the last window {last} — \
             a flat tail means the seed is mined out and the budget belongs elsewhere"
        );
    }
    println!();

    // The directed arm: the same case budget, but cold features (in the
    // universe, never yet generated for this database) get a seed-stable
    // weight boost. Same determinism contract — the boost is derived from
    // the case seed, never from wall clock or thread schedule.
    println!("== coverage-directed campaign (same seed, same budget) ==");
    let directed = plan.run(&hunt_config(0xA71A5, true)).reports.remove(0);
    let uniform_features = uniform.coverage.distinct_features();
    let directed_features = directed.coverage.distinct_features();
    println!(
        "distinct features: {uniform_features} uniform vs {directed_features} directed \
         ({} engine points vs {})",
        uniform.coverage.engine.total_points(),
        directed.coverage.engine.total_points(),
    );
    println!(
        "directed saturation: {} novel features, longest dry run {} cases",
        directed.coverage.saturation.novel_features, directed.coverage.saturation.longest_dry_run,
    );
    println!();

    // Determinism: the rendered atlas of the partitioned runner is
    // byte-identical for any worker count and pool size.
    let sharded = RunPlan {
        threads: 4,
        pool_size: 2,
        ..plan
    }
    .run(&hunt_config(0xA71A5, false));
    assert_eq!(
        render_atlas_report(&uniform),
        render_atlas_report(&sharded.reports[0]),
        "the atlas must not depend on worker or pool counts"
    );
    println!("partitioned atlases: 1 worker x pool 1 == 4 workers x pool 2 (byte-identical)");
    println!(
        "campaign: {} cases, {} detected bug cases, degraded={}",
        uniform.metrics.test_cases, uniform.metrics.detected_bug_cases, uniform.degraded,
    );
}
