//! Crash-safe campaign checkpoint/resume.
//!
//! A supervised campaign serialises its complete progress — case cursor,
//! the adaptive generator's learned profile and RNG state, partial report,
//! prioritizer state and incident log — to a *resume file* every
//! [`crate::SupervisorConfig::checkpoint_every`] cases. A campaign killed
//! at any case index resumes from the file and produces a **byte-identical**
//! final report versus an uninterrupted run: every piece of state that
//! feeds generation, classification or reporting is carried verbatim, and
//! the file is written atomically (temp file + rename) so a crash during a
//! checkpoint leaves the previous one intact.
//!
//! # Checkpoint v6
//!
//! The file is JSON Lines written and read by the one codec in
//! [`crate::json`]; each line is a record `{"<kind>":<value>}`:
//!
//! 1. `{"checkpoint":6}` — the header;
//! 2. `{"state":..}` — cursor, RNG, schema model, learned `stats` (the
//!    learned-profile encoding), suppression sets, the prioritizer's kept
//!    sets, storage delta, resilience ledger and setup log;
//! 3. `{"coverage":..}` — the coverage-atlas line's object plus the
//!    resume-only `seen` masks and `dry_run`;
//! 4. the report's records, exactly as [`render_report`] writes them. Its
//!    metrics and robustness counters are the supervisor's ledger (see
//!    [`crate::supervisor`]) and restore it on resume, the prioritizer's
//!    statistics included;
//! 5. `{"end":{"records":N,"fnv":H}}` — the number of records before it
//!    and the [`sql_ast::fnv1a64`] hash of their bytes.
//!
//! The end record is mandatory and must match, so a truncated or
//! bit-flipped file fails to load instead of resuming with defaulted or
//! wrong state. A file of another version fails to load too, and the
//! campaign starts fresh — safe, just slower than resuming. (A v5 report
//! read 0 prioritized bugs, its statistics being a separate record; v4
//! and older were line-oriented text.) SQL travels as its canonical
//! [`std::fmt::Display`] rendering and is re-parsed with `sql-parser` on
//! load; `f64` samples travel as their bits.

use crate::campaign::CampaignReport;
use crate::dbms::StorageMetrics;
use crate::feature::FeatureSet;
use crate::json::{self, json_record, Codec, Json};
use crate::schema::SchemaModel;
use crate::stats::FeatureStats;
use sql_ast::{fnv1a64, Statement};
use std::fmt::Write as _;
use std::path::Path;

/// The checkpoint format version this build writes and accepts.
const VERSION: u64 = 6;

/// A complete snapshot of a running campaign: everything needed to resume
/// it to a byte-identical final report.
#[derive(Debug, Clone, Default)]
pub struct CampaignCheckpoint {
    /// The campaign seed (sanity-checked against the resuming config).
    pub config_seed: u64,
    /// The database index the campaign was working on.
    pub database: usize,
    /// The next case index (within the database) to execute.
    pub next_case: usize,
    /// The campaign-global oracle rotation cursor.
    pub oracle_index: usize,
    /// The generator RNG's raw state word.
    pub rng_state: u64,
    /// Executions recorded by the generator (drives suppression refresh and
    /// the depth schedule).
    pub recorded: u64,
    /// The generator's current expression-depth cap.
    pub current_depth: usize,
    /// The internal schema model, verbatim (its name counter advances even
    /// for rejected DDL, so it cannot be rebuilt by replay).
    pub schema: SchemaModel,
    /// The learned feature statistics.
    pub stats: FeatureStats,
    /// The suppressed query features, verbatim (suppression only refreshes
    /// at update-interval boundaries, so it is state, not derived data).
    pub suppressed_query: FeatureSet,
    /// The suppressed DDL/DML features, verbatim.
    pub suppressed_ddl: FeatureSet,
    /// The prioritizer's kept feature sets, in insertion order. Its
    /// statistics are the report's `prioritized_bugs`/`deduplicated_bugs`.
    pub kept_sets: Vec<FeatureSet>,
    /// The current database's setup log. It travels as SQL text (the
    /// statements' canonical rendering) and is parsed once on load.
    pub setup_log: Vec<Statement>,
    /// Storage-metric delta accumulated over completed work (the resumed
    /// run samples a fresh baseline and adds to this).
    pub storage_delta: StorageMetrics,
    /// The supervisor's consecutive-infrastructure-failure count.
    pub consecutive_infra: u32,
    /// The connection layer's opaque resilience ledger (per-slot breaker
    /// and backoff state plus the resilience clock), as produced by
    /// [`crate::DbmsConnection::resilience_checkpoint`]. `None` for
    /// connections without one (unpooled backends).
    pub resilience: Option<String>,
    /// The partial report: metrics, bug reports, replayable cases,
    /// validity series, incidents, robustness counters, degraded flag.
    pub report: CampaignReport,
}

// The `state` record; the report travels as its own records.
json_record!(struct CampaignCheckpoint {
    config_seed: "seed", database, next_case, oracle_index, rng_state, recorded, current_depth,
    consecutive_infra, schema, stats, suppressed_query, suppressed_ddl, kept_sets,
    storage_delta, resilience, setup_log, ..
});

fn header() -> Json {
    json::record("checkpoint", VERSION.into())
}

/// The end record sealing `body`: its record count and FNV-1a hash.
fn end_record(body: &str) -> Json {
    let records = body.bytes().filter(|&byte| byte == b'\n').count();
    let fnv = fnv1a64(body.as_bytes());
    let end = Json::obj([("records", records.into()), ("fnv", fnv.into())]);
    json::record("end", end)
}

/// Splits a checkpoint into its body and its last line.
fn split_end(text: &str) -> (&str, &str) {
    let last = text
        .strip_suffix('\n')
        .and_then(|rest| rest.rfind('\n'))
        .map_or(0, |at| at + 1);
    text.split_at(last)
}

/// Serialises a checkpoint to the v6 JSON Lines format.
pub fn checkpoint_to_string(checkpoint: &CampaignCheckpoint) -> String {
    let state = json::record("state", checkpoint.encode());
    let coverage = json::record("coverage", checkpoint.report.coverage.encode());
    let mut out = format!("{}\n{state}\n{coverage}\n", header());
    out.push_str(&render_report(&checkpoint.report));
    let end = end_record(&out);
    let _ = writeln!(out, "{end}");
    out
}

/// Parses a checkpoint produced by [`checkpoint_to_string`].
///
/// # Errors
///
/// Returns what is wrong: another format version, a missing or mismatched
/// end record (truncation, corruption), or the first malformed record.
pub fn checkpoint_from_string(text: &str) -> Result<CampaignCheckpoint, String> {
    if !text.starts_with(&header().line()) {
        return Err(format!(
            "not a campaign checkpoint v{VERSION} (another version starts fresh)"
        ));
    }
    let (body, end) = split_end(text);
    if end != end_record(body).line() {
        return Err("checkpoint is truncated or corrupted: its end record does not match".into());
    }
    let mut records = Vec::new();
    for (index, line) in body.lines().enumerate() {
        let record = json::parse(line).map_err(|e| format!("checkpoint line {}: {e}", index + 1));
        records.push(record?);
    }
    let [_, state, coverage, report @ ..] = records.as_slice() else {
        return Err("checkpoint lacks its state and coverage records".into());
    };
    let mut checkpoint = CampaignCheckpoint::decode(state.field("state")?)?;
    checkpoint.report = report_from_records(report)?;
    checkpoint.report.coverage =
        Codec::decode(coverage.field("coverage")?).map_err(|e| format!("coverage: {e}"))?;
    Ok(checkpoint)
}

// ----------------------------------------------------------------- I/O ----

/// Writes a checkpoint: the text goes to `<path>.tmp`, which is renamed
/// over `path`.
///
/// The checkpoint survives a crash of this process: the rename is atomic on
/// POSIX filesystems, so `path` holds either the previous checkpoint or the
/// new one, never half of one. It does not survive an OS crash or a power
/// loss. Neither the file nor its directory is synced (`sync_all`), so after
/// such a crash the rename may be on disk while the new text is not: `path`
/// may read empty or truncated, and the previous checkpoint is lost with
/// the new one. The loader rejects such a file (its end record does not
/// match), and the campaign starts fresh.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_checkpoint(checkpoint: &CampaignCheckpoint, path: &Path) -> std::io::Result<()> {
    write_replacing(path, &checkpoint_to_string(checkpoint))
}

/// Writes `text` to `<path>.tmp` and renames it over `path`, so a reader
/// in a running system never sees a half-written file: the checkpoint and
/// the flight recorder's JSONL both go through here. Nothing is synced to
/// disk, so the replacement is atomic across a process crash but not across
/// an OS crash or power loss (see [`save_checkpoint`]).
pub(crate) fn write_replacing(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Loads a checkpoint from a file.
///
/// # Errors
///
/// Propagates I/O errors and format errors.
pub fn load_checkpoint(path: &Path) -> Result<CampaignCheckpoint, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    checkpoint_from_string(&text)
}

// ---------------------------------------------------- report rendering ----

/// Renders a campaign report as JSON Lines records: `{"report":..}` with
/// the scalars (dialect, degraded flag, metrics, robustness counters,
/// validity series as `f64` bits), then one record per incident, bug
/// report, replayable case, transactional case and schedule, in report
/// order. Two reports render identically **iff** every reported quantity
/// is identical, which is how the resume-determinism tests state their
/// byte-identity claims; checkpoints embed these very records.
pub fn render_report(report: &CampaignReport) -> String {
    let mut out = json::record("report", report.encode()).line();
    push_records(&mut out, "incident", &report.incidents);
    push_records(&mut out, "bug", &report.reports);
    push_records(&mut out, "case", &report.prioritized_cases);
    push_records(&mut out, "txn", &report.txn_cases);
    push_records(&mut out, "schedule", &report.schedule_cases);
    out
}

fn push_records<T: Codec>(out: &mut String, kind: &str, items: &[T]) {
    for item in items {
        let _ = writeln!(out, "{}", json::record(kind, item.encode()));
    }
}

/// Rebuilds a report (coverage aside) from its [`render_report`] records.
fn report_from_records(records: &[Json]) -> Result<CampaignReport, String> {
    let (first, items) = records.split_first().ok_or("missing report record")?;
    let mut report = CampaignReport::decode(first.field("report")?)?;
    for record in items {
        let [(kind, value)] = record.as_obj()? else {
            return Err(format!("expected a one-field record, got {record}"));
        };
        let decoded = match kind.as_str() {
            "incident" => Codec::decode(value).map(|i| report.incidents.push(i)),
            "bug" => Codec::decode(value).map(|b| report.reports.push(b)),
            "case" => Codec::decode(value).map(|c| report.prioritized_cases.push(c)),
            "txn" => Codec::decode(value).map(|c| report.txn_cases.push(c)),
            "schedule" => Codec::decode(value).map(|c| report.schedule_cases.push(c)),
            other => Err(format!("unknown record '{other}'")),
        };
        decoded.map_err(|e| format!("{kind} record: {e}"))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignReport;
    use crate::feature::Feature;
    use crate::oracle::{BugReport, OracleKind, Schedule, SessionScript};
    use crate::reducer::{ReducibleCase, ScheduleCase, TxnCase};
    use crate::stats::FeatureKind;
    use crate::supervisor::{CampaignIncident, IncidentKind};
    use sql_ast::{BeginMode, Expr, Select, SelectItem};
    use sql_parser::parse_statement;

    fn feature_set(names: &[&str]) -> FeatureSet {
        names
            .iter()
            .map(|n| Feature::from_name(n).unwrap())
            .collect()
    }

    fn sample_checkpoint() -> CampaignCheckpoint {
        let mut schema = SchemaModel::new();
        schema.apply_success(&parse_statement("CREATE TABLE t0 (c0 INTEGER, c1 TEXT)").unwrap());
        schema.apply_success(&parse_statement("CREATE INDEX i0 ON t0(c0)").unwrap());
        schema.apply_success(&parse_statement("INSERT INTO t0 (c0, c1) VALUES (1, 'x')").unwrap());
        // Advance the name counter past the object count: rejected DDL and
        // query-time aliases burn names without creating objects, and the
        // checkpoint must carry the counter verbatim, not recompute it.
        let _ = schema.free_name("t");
        let _ = schema.free_name("sub");
        let _ = schema.free_name("alias");

        let mut stats = FeatureStats::new();
        stats.record(&feature_set(&["OP_EQ", "FN_ABS"]), FeatureKind::Query, true);
        stats.record(&feature_set(&["OP_EQ"]), FeatureKind::Query, false);
        stats.record(&feature_set(&["TYPE_TEXT"]), FeatureKind::DdlDml, true);

        let select = Select {
            projections: vec![SelectItem::expr(Expr::column("c0"))],
            from: vec![sql_ast::TableWithJoins::table("t0")],
            where_clause: Some(Expr::column("c0").eq(Expr::integer(1))),
            ..Select::new()
        };
        let predicate = Expr::column("c0").eq(Expr::integer(1));
        let create = parse_statement("CREATE TABLE t0 (c0 INTEGER)").unwrap();

        let mut report = CampaignReport {
            dbms_name: "simdb (mariadb)".to_string(),
            ..CampaignReport::default()
        };
        report.degraded = true;
        report.metrics.test_cases = 42;
        report.metrics.valid_test_cases = 40;
        report.metrics.detected_bug_cases = 5;
        report.metrics.prioritized_bugs = 2;
        report.metrics.deduplicated_bugs = 3;
        report.validity_series = vec![0.5, 0.975, 1.0 / 3.0];
        report.robustness.retries = 3;
        report.robustness.incidents = 2;
        report.incidents.push(CampaignIncident {
            kind: IncidentKind::BackendCrash,
            database: 1,
            case_index: 17,
            attempt: 0,
            deadline_ticks: 100_000,
            observed_ticks: 312,
            detail: "infra: backend crashed (injected infra_crash)".to_string(),
        });
        report.reports.push(BugReport {
            oracle: OracleKind::Tlp,
            description: "TLP mismatch: base 2 rows, partitions 1".to_string(),
            setup: vec![create.clone()],
            queries: vec!["SELECT c0 FROM t0".to_string()],
            features: feature_set(&["OP_EQ"]),
        });
        report.prioritized_cases.push(ReducibleCase {
            setup: vec![create.clone()],
            query: select,
            predicate,
            oracle: OracleKind::Tlp,
            features: feature_set(&["OP_EQ"]),
        });
        report.txn_cases.push(TxnCase {
            setup: vec![create.clone()],
            table: "t0".to_string(),
            statements: vec![
                parse_statement("INSERT INTO t0 (c0) VALUES (1)").unwrap(),
                parse_statement("SAVEPOINT sp1").unwrap(),
                parse_statement("ROLLBACK TO sp1").unwrap(),
            ],
            features: feature_set(&["STMT_SAVEPOINT"]),
        });
        report.coverage.begin_database();
        report.coverage.observe_case(
            OracleKind::Tlp,
            crate::trace::TraceVerdict::Pass,
            &feature_set(&["OP_EQ", "FN_ABS"]),
            0,
        );
        report.coverage.observe_case(
            OracleKind::NoRec,
            crate::trace::TraceVerdict::Invalid,
            &feature_set(&["OP_EQ"]),
            1,
        );
        let mut engine = crate::dbms::EngineCoverage::default();
        engine.record("functions", "ABS");
        engine.record("statements", "STMT_SELECT");
        report.coverage.absorb_engine(&engine);
        report.schedule_cases.push(ScheduleCase {
            setup: vec![create.clone()],
            schedule: Schedule {
                tables: vec!["t0".to_string()],
                sessions: vec![
                    SessionScript {
                        begin: BeginMode::Plain,
                        statements: vec![
                            parse_statement("UPDATE t0 SET c0 = 2 WHERE (c0 = 1)").unwrap()
                        ],
                        commit: true,
                    },
                    SessionScript {
                        begin: BeginMode::Immediate,
                        statements: vec![parse_statement("DELETE FROM t0").unwrap()],
                        commit: false,
                    },
                ],
                interleaving: vec![0, 1, 0, 1, 0, 1],
            },
            features: feature_set(&["STMT_BEGIN"]),
        });

        CampaignCheckpoint {
            config_seed: 0xBEEF,
            database: 1,
            next_case: 17,
            oracle_index: 53,
            rng_state: 0x1234_5678_9ABC_DEF0,
            recorded: 99,
            current_depth: 4,
            schema,
            stats,
            suppressed_query: feature_set(&["OP_NULLSAFE_EQ"]),
            suppressed_ddl: feature_set(&["TYPE_BOOLEAN"]),
            kept_sets: vec![feature_set(&["OP_EQ"]), FeatureSet::new()],
            setup_log: [
                "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
                "INSERT INTO t0 (c0, c1) VALUES (1, 'a\nb\\c')",
            ]
            .map(|sql| sql_parser::parse_statement(sql).unwrap())
            .into(),
            storage_delta: StorageMetrics {
                txn_begins: 7,
                tables_snapshotted: 14,
                tables_cow_cloned: 3,
                conflicts_avoided: 1,
            },
            consecutive_infra: 2,
            resilience: Some(r#"{"clock":42,"breakers":[[1,"closed",0],[0,50,2]]}"#.to_string()),
            report,
        }
    }

    /// Re-seals an edited checkpoint, so only the edit itself is tested.
    fn reseal(text: &str, from: &str, to: &str) -> String {
        let edited = text.replacen(from, to, 1);
        assert_ne!(edited, text, "edit {from:?} must apply");
        let (body, _) = split_end(&edited);
        format!("{body}{}", end_record(body).line())
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let original = sample_checkpoint();
        let text = checkpoint_to_string(&original);
        let loaded = checkpoint_from_string(&text).unwrap();
        // The text format is the equality witness: a second serialisation
        // of the parsed checkpoint must be byte-identical.
        assert_eq!(checkpoint_to_string(&loaded), text);
        // Spot-check the semantically critical fields directly too.
        assert_eq!(loaded.config_seed, original.config_seed);
        assert_eq!(loaded.rng_state, original.rng_state);
        assert_eq!(loaded.schema, original.schema);
        assert_eq!(loaded.setup_log, original.setup_log);
        assert_eq!(loaded.kept_sets, original.kept_sets);
        assert_eq!(loaded.consecutive_infra, original.consecutive_infra);
        assert_eq!(loaded.resilience, original.resilience);
        assert_eq!(loaded.report.degraded, original.report.degraded);
        assert_eq!(loaded.report.metrics, original.report.metrics);
        assert_eq!(loaded.report.robustness, original.report.robustness);
        assert_eq!(loaded.report.incidents, original.report.incidents);
        assert_eq!(loaded.report.reports, original.report.reports);
        // The atlas — including the per-database working state that keeps
        // a resumed novelty stream exact — is carried verbatim.
        assert_eq!(loaded.report.coverage, original.report.coverage);
        // f64 samples round-trip bit-exactly.
        let bits = |c: &CampaignCheckpoint| -> Vec<u64> {
            c.report
                .validity_series
                .iter()
                .map(|s| s.to_bits())
                .collect()
        };
        assert_eq!(bits(&loaded), bits(&original));
    }

    #[test]
    fn schema_name_counter_is_carried_verbatim() {
        let original = sample_checkpoint();
        let text = checkpoint_to_string(&original);
        let loaded = checkpoint_from_string(&text).unwrap();
        assert_eq!(loaded.schema.name_counter(), original.schema.name_counter());
        assert!(loaded.schema.name_counter() > loaded.schema.object_count());
    }

    #[test]
    fn save_and_load_are_atomic_via_rename() {
        let dir =
            std::env::temp_dir().join(format!("sqlancerpp-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let original = sample_checkpoint();
        save_checkpoint(&original, &path).unwrap();
        // The temp file must be gone after a successful save.
        assert!(!dir.join("campaign.ckpt.tmp").exists());
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(
            checkpoint_to_string(&loaded),
            checkpoint_to_string(&original)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        let text = checkpoint_to_string(&sample_checkpoint());
        let v4 = "# sqlancer++ campaign checkpoint v4\nseed 7\n";
        assert!(checkpoint_from_string(v4).is_err(), "v4 starts fresh");
        let v5 = text.replacen(r#"{"checkpoint":6}"#, r#"{"checkpoint":5}"#, 1);
        assert!(checkpoint_from_string(&v5).is_err(), "v5 starts fresh");
        for (from, to, why) in [
            (r#"{"bug":"#, r#"{"bugz":"#, "unknown record"),
            (r#""oracle":"TLP""#, r#""oracle":"NOPE""#, "unknown oracle"),
            (r#""next_case":17,"#, "", "missing field"),
            (r#"["t0"]"#, r#"["t0",,]"#, "malformed JSON"),
        ] {
            assert!(
                checkpoint_from_string(&reseal(&text, from, to)).is_err(),
                "{why}"
            );
        }
        // Header and end alone do not make a checkpoint: the state,
        // coverage and report records are mandatory.
        let header = header().line();
        let bare = format!("{header}{}", end_record(&header).line());
        assert!(checkpoint_from_string(&bare).is_err());
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let text = checkpoint_to_string(&sample_checkpoint());
        for len in 0..text.len() {
            if let Some(prefix) = text.get(..len) {
                assert!(checkpoint_from_string(prefix).is_err(), "prefix of {len} B");
            }
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let text = checkpoint_to_string(&sample_checkpoint());
        let mut state = 0x5EED_u64;
        for _ in 0..3_000 {
            state = sql_ast::splitmix64(state);
            let mut bytes = text.clone().into_bytes();
            bytes[(state % text.len() as u64) as usize] ^= 1 << (state >> 61);
            // Invalid UTF-8 never reaches the decoder (`load_checkpoint`
            // fails to read it).
            if let Ok(flipped) = String::from_utf8(bytes) {
                assert!(checkpoint_from_string(&flipped).is_err(), "{state:#x}");
            }
        }
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        let text = checkpoint_to_string(&sample_checkpoint());
        for (from, to, why) in [
            (
                r#"["backend_crash",1,17,0,"#,
                r#"["backend_crash",1,17,4294967296,"#,
                "incident attempt beyond u32",
            ),
            (
                r#""consecutive_infra":2,"#,
                r#""consecutive_infra":4294967296,"#,
                "consecutive_infra beyond u32",
            ),
            (
                r#""OP_EQ":[2,1,1]"#,
                r#""OP_EQ":[2,3,1]"#,
                "successes > attempts",
            ),
            (
                r#""count":1,"sum":0,"max":0,"buckets":[[0,1]]"#,
                r#""count":0,"sum":0,"max":0,"buckets":[[0,9223372036854775808],[1,9223372036854775808]]"#,
                "gap bucket counts overflow (their wrapped sum matches)",
            ),
        ] {
            let edited = reseal(&text, from, to);
            assert!(checkpoint_from_string(&edited).is_err(), "{why}");
        }
    }

    #[test]
    fn render_report_distinguishes_differing_reports() {
        let base = sample_checkpoint().report;
        let rendered = render_report(&base);
        assert!(rendered.contains(r#""degraded":true"#));
        let mut tweaked = base.clone();
        tweaked.metrics.valid_test_cases += 1;
        assert_ne!(render_report(&tweaked), rendered);
        let mut tweaked = base.clone();
        tweaked.validity_series[0] += 1e-15;
        assert_ne!(render_report(&tweaked), rendered, "bit-exact series");
        assert_eq!(render_report(&base.clone()), rendered);
    }
}
