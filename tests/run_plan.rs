//! The run executor contains unit failures the same way at every thread
//! count: a driver that cannot connect becomes a degraded report carrying
//! one `WorkerPanic` incident per unit — in the serial run as in the
//! threaded ones — and the rest of the run is untouched.

use sqlancerpp::core::{
    render_report, CampaignConfig, Capability, DbmsConnection, Driver, IncidentKind, OracleKind,
};
use sqlancerpp::sim::{preset_by_name, ExecutionPath, RunPlan};
use std::sync::Arc;

/// A backend that is down: every connection attempt is refused.
struct UnreachableDriver;

impl Driver for UnreachableDriver {
    fn name(&self) -> &str {
        "unreachable"
    }
    fn capability(&self) -> Capability {
        Capability::default()
    }
    fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
        Err("connection refused".into())
    }
}

fn config() -> CampaignConfig {
    CampaignConfig::builder()
        .seed(0xDEAD)
        .databases(3)
        .ddl_per_database(6)
        .queries_per_database(15)
        .oracles(vec![OracleKind::Tlp, OracleKind::NoRec])
        .reduce_bugs(false)
        .build()
}

#[test]
fn a_driver_that_cannot_connect_degrades_identically_at_every_thread_count() {
    let drivers: Vec<Arc<dyn Driver>> = vec![
        preset_by_name("cedardb")
            .unwrap()
            .driver(ExecutionPath::Ast),
        Arc::new(UnreachableDriver),
    ];
    let config = config();
    for shard_by_database in [false, true] {
        let mut renderings = Vec::new();
        for threads in [1usize, 2, 4] {
            let plan = RunPlan {
                threads,
                shard_by_database,
                ..RunPlan::new(drivers.clone())
            };
            let fleet = plan.run(&config);
            let (healthy, failed) = (&fleet.reports[0], &fleet.reports[1]);
            assert!(!healthy.degraded && healthy.metrics.test_cases > 0);
            assert!(failed.degraded, "the unreachable driver must degrade");
            // One unit per driver, or one per database when sharded: each
            // failed unit leaves exactly one incident, stamped with its
            // database.
            let panics: Vec<usize> = failed
                .incidents
                .iter()
                .filter(|incident| incident.kind == IncidentKind::WorkerPanic)
                .map(|incident| incident.database)
                .collect();
            let expected: Vec<usize> = if shard_by_database {
                (0..config.databases).collect()
            } else {
                vec![0]
            };
            assert_eq!(
                panics, expected,
                "sharded={shard_by_database}, {threads} threads"
            );
            assert_eq!(failed.incidents.len(), expected.len());
            assert!(failed.incidents[0].detail.contains("connection refused"));
            renderings.push(fleet.reports.iter().map(render_report).collect::<Vec<_>>());
        }
        assert_eq!(renderings[0], renderings[1], "sharded={shard_by_database}");
        assert_eq!(renderings[0], renderings[2], "sharded={shard_by_database}");
    }
}
