//! The campaign **coverage atlas**: what the campaign has *explored*.
//!
//! The flight recorder (PR 8) answers what the campaign *did*; the atlas
//! answers what it has *reached* — which grammar features each oracle's
//! cases exercised per dialect, which engine coverage points (plan
//! operators, functions, operators, coercions, statement kinds) any
//! execution hit, and whether generation is **saturating**: how much new
//! coverage each window of cases still discovers, and how long the
//! campaign has gone without anything novel.
//!
//! # Determinism contract
//!
//! The rendered atlas ([`render_atlas_report`]) is **byte-identical for
//! any worker count, pool size and execution path**, and across a
//! kill-and-resume — the same contract as `TraceSummary`. Three design
//! rules make that hold:
//!
//! 1. **Feature novelty is per-database.** A case's novel features are
//!    counted against the features already seen *in its database*; the
//!    seen-set resets at every database boundary. The partitioned runner
//!    shards campaigns at database granularity, so a shard observes
//!    exactly the novelty stream the serial run observes for that
//!    database, and merging is pure summation.
//! 2. **Engine coverage is a union, never a stream.** Per-case first-hit
//!    attribution of engine points is inherently config-dependent across
//!    shard boundaries (a shard cannot know what an earlier database
//!    already reached), so the atlas only claims the invariant quantity:
//!    the set of points ever reached. Backends keep their reported sets
//!    monotone (see [`EngineCoverage`]), which makes the union
//!    independent of pool size and poll cadence.
//! 3. **Every aggregate merges by summation, union or max.** Window
//!    vectors add element-wise, gap histograms add bucket-wise
//!    ([`Log2Histogram`]), feature and point sets union — all
//!    commutative and associative, so shard order cannot matter.
//!
//! The per-database working state (`seen`, `dry_run`) rides along in
//! checkpoints so a resumed campaign continues the novelty stream exactly
//! where the killed one left off (no double-counting of re-executed
//! cases), but it is deliberately excluded from the rendered report: it
//! is positional state, not an invariant aggregate.

use std::fmt::Write as _;

use crate::dbms::EngineCoverage;
use crate::feature::{Feature, FeatureSet};
use crate::hist::Log2Histogram;
use crate::json::{json_record, Codec, Json};
use crate::oracle::OracleKind;
use crate::trace::TraceVerdict;

/// Cases per saturation window: novel-feature counts aggregate over
/// fixed windows of this many cases (indexed within a database), so the
/// decay of discovery is visible without storing per-case data.
pub const SATURATION_WINDOW: u64 = 32;

const ORACLE_COUNT: usize = 4;

/// The oracles in name order: the order per-oracle tables encode and
/// render in.
const ORACLES_BY_NAME: [OracleKind; ORACLE_COUNT] = [
    OracleKind::Isolation,
    OracleKind::NoRec,
    OracleKind::Rollback,
    OracleKind::Tlp,
];

/// The verdicts in name order.
const VERDICTS_BY_NAME: [TraceVerdict; 5] = [
    TraceVerdict::Bug,
    TraceVerdict::InfraFailed,
    TraceVerdict::Invalid,
    TraceVerdict::Panicked,
    TraceVerdict::Pass,
];

/// The verdict with name `name`.
fn verdict_named(name: &str) -> Result<TraceVerdict, String> {
    VERDICTS_BY_NAME
        .into_iter()
        .find(|verdict| verdict.name() == name)
        .ok_or_else(|| format!("unknown verdict '{name}'"))
}

/// The oracle with name `name`.
fn oracle_named(name: &str) -> Result<OracleKind, String> {
    OracleKind::decode(&Json::Str(name.to_string()))
}

/// Per-verdict case tallies, one slot per [`TraceVerdict`]; a slot is
/// empty until its first case (only filled slots encode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts([Option<u64>; 5]);

impl VerdictCounts {
    /// Cases with this verdict.
    pub fn get(&self, verdict: TraceVerdict) -> u64 {
        self.0[verdict as usize].unwrap_or(0)
    }

    fn add(&mut self, verdict: TraceVerdict, count: u64) {
        *self.0[verdict as usize].get_or_insert(0) += count;
    }
}

/// Tallies travel as `{verdict:count}` in name order.
impl Codec for VerdictCounts {
    fn encode(&self) -> Json {
        let filled = VERDICTS_BY_NAME
            .into_iter()
            .filter_map(|verdict| Some((verdict.name(), self.0[verdict as usize]?.into())));
        Json::obj(filled)
    }

    fn decode(json: &Json) -> Result<VerdictCounts, String> {
        let mut counts = VerdictCounts::default();
        for (name, count) in json.as_obj()? {
            let verdict = verdict_named(name)?;
            counts.0[verdict as usize] =
                Some(u64::decode(count).map_err(|err| format!("{name}: {err}"))?);
        }
        Ok(counts)
    }
}

/// Per-oracle coverage: how many cases ran, their verdict tally, and the
/// union of grammar features those cases exercised.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleCoverage {
    /// Cases observed for this oracle.
    pub cases: u64,
    /// Cases per verdict.
    pub verdicts: VerdictCounts,
    /// Union of the feature sets of every observed case.
    pub features: FeatureSet,
}

impl OracleCoverage {
    /// Accumulates another oracle's coverage (summation + union).
    pub fn merge(&mut self, other: &OracleCoverage) {
        self.cases += other.cases;
        for verdict in VERDICTS_BY_NAME {
            if let Some(count) = other.verdicts.0[verdict as usize] {
                self.verdicts.add(verdict, count);
            }
        }
        self.features.extend(&other.features);
    }
}

json_record!(struct OracleCoverage { cases, verdicts, features });

/// The coverage of each oracle that has observed a case, one slot per
/// [`OracleKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleTable([Option<OracleCoverage>; ORACLE_COUNT]);

impl OracleTable {
    /// The coverage of `oracle`, if it observed a case.
    pub fn get(&self, oracle: OracleKind) -> Option<&OracleCoverage> {
        self.0[oracle as usize].as_ref()
    }

    fn entry(&mut self, oracle: OracleKind) -> &mut OracleCoverage {
        self.0[oracle as usize].get_or_insert_with(OracleCoverage::default)
    }

    /// The observed oracles' coverage, in oracle-name order.
    pub fn iter(&self) -> impl Iterator<Item = (OracleKind, &OracleCoverage)> {
        ORACLES_BY_NAME
            .into_iter()
            .filter_map(|oracle| Some((oracle, self.get(oracle)?)))
    }

    /// Whether no oracle observed a case.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(Option::is_none)
    }
}

/// The table travels as `{oracle:coverage}` in name order.
impl Codec for OracleTable {
    fn encode(&self) -> Json {
        Json::obj(
            self.iter()
                .map(|(oracle, coverage)| (oracle.name(), coverage.encode())),
        )
    }

    fn decode(json: &Json) -> Result<OracleTable, String> {
        let mut table = OracleTable::default();
        for (name, coverage) in json.as_obj()? {
            let oracle = oracle_named(name)?;
            table.0[oracle as usize] =
                Some(OracleCoverage::decode(coverage).map_err(|err| format!("{name}: {err}"))?);
        }
        Ok(table)
    }
}

/// The per-database novelty state: for each oracle, the features its
/// cases exercised in the current database. A feature is novel when no
/// oracle's set holds it yet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeenFeatures([FeatureSet; ORACLE_COUNT]);

impl SeenFeatures {
    /// Every feature seen in the current database, by any oracle.
    pub fn any(&self) -> FeatureSet {
        let mut any = self.0[0].clone();
        for seen in &self.0[1..] {
            any.extend(seen);
        }
        any
    }

    fn clear(&mut self) {
        *self = SeenFeatures::default();
    }
}

/// The seen state travels as `{feature:mask}` in name order, where bit
/// `k` of the mask is the oracle with declaration index `k` — so equal
/// states write equal bytes.
impl Codec for SeenFeatures {
    fn encode(&self) -> Json {
        let mask = |feature: Feature| {
            (0..ORACLE_COUNT)
                .filter(|&oracle| self.0[oracle].contains(feature))
                .fold(0u8, |mask, oracle| mask | 1 << oracle)
        };
        Json::Obj(
            self.any()
                .iter()
                .map(|feature| (feature.name().to_string(), mask(feature).encode()))
                .collect(),
        )
    }

    fn decode(json: &Json) -> Result<SeenFeatures, String> {
        let mut seen = SeenFeatures::default();
        for (name, mask) in json.as_obj()? {
            let feature = Feature::decode(&Json::Str(name.clone()))?;
            let mask = u8::decode(mask).map_err(|err| format!("{name}: {err}"))?;
            if mask >> ORACLE_COUNT != 0 {
                return Err(format!("{name}: mask {mask} names no oracle"));
            }
            for (oracle, set) in seen.0.iter_mut().enumerate() {
                if mask & 1 << oracle != 0 {
                    set.insert(feature);
                }
            }
        }
        Ok(seen)
    }
}

/// The windowed saturation curve: how much *new* feature coverage each
/// window of cases discovered, and how dry the tail of the campaign ran.
/// Novelty is counted per database (see the module docs), so every field
/// merges by summation or max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SaturationCurve {
    /// Novel features discovered in window `w` (cases
    /// `[w*SATURATION_WINDOW, (w+1)*SATURATION_WINDOW)` of each
    /// database), summed over databases.
    pub windows: Vec<u64>,
    /// Cases observed in window `w`, summed over databases.
    pub window_cases: Vec<u64>,
    /// Total novel feature observations (equals the sum of `windows`).
    pub novel_features: u64,
    /// Cases after the last novel case, summed over finished databases —
    /// the "cases since anything new" saturation signal.
    pub trailing_dry_cases: u64,
    /// Longest run of consecutive non-novel cases in any database.
    pub longest_dry_run: u64,
    /// Distribution of the gaps (in cases) between consecutive novel
    /// cases within a database.
    pub gaps: Log2Histogram,
}

impl SaturationCurve {
    /// Accumulates another curve (element-wise/bucket-wise summation,
    /// max of maxima).
    pub fn merge(&mut self, other: &SaturationCurve) {
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), 0);
        }
        for (index, count) in other.windows.iter().enumerate() {
            self.windows[index] += count;
        }
        if self.window_cases.len() < other.window_cases.len() {
            self.window_cases.resize(other.window_cases.len(), 0);
        }
        for (index, count) in other.window_cases.iter().enumerate() {
            self.window_cases[index] += count;
        }
        self.novel_features += other.novel_features;
        self.trailing_dry_cases += other.trailing_dry_cases;
        self.longest_dry_run = self.longest_dry_run.max(other.longest_dry_run);
        self.gaps.merge(&other.gaps);
    }
}

json_record!(struct SaturationCurve {
    novel_features: "novel", trailing_dry_cases: "trailing_dry", longest_dry_run: "longest_dry",
    windows, window_cases, gaps
});

/// The coverage atlas of one campaign (or a merged fleet of shards):
/// per-oracle feature coverage, the engine-plane point union, and the
/// saturation curve. Lives inside `CampaignReport`, so checkpoints carry
/// it and the partitioned runner merges it shard-wise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCoverage {
    /// Each oracle's coverage.
    pub oracles: OracleTable,
    /// Engine-side coverage points reached by any execution (union over
    /// pool slots, polls and shards).
    pub engine: EngineCoverage,
    /// The windowed saturation curve.
    pub saturation: SaturationCurve,
    /// Working state: the features each oracle's cases exercised in the
    /// **current database** (resets at every database boundary).
    /// Checkpointed, not rendered.
    pub seen: SeenFeatures,
    /// Working state: consecutive non-novel cases in the current
    /// database. Checkpointed, not rendered.
    pub dry_run: u64,
}

// The checkpoint's coverage object; the atlas line is the same object
// without the working state (`seen`, `dry_run`).
json_record!(struct CampaignCoverage { oracles, engine, saturation, seen, dry_run });

impl CampaignCoverage {
    /// Starts a new database: flushes the previous database's trailing
    /// dry run into the curve and resets the per-database working state.
    /// Idempotent on a fresh atlas, so calling it before the first
    /// database is fine.
    pub fn begin_database(&mut self) {
        self.saturation.trailing_dry_cases += self.dry_run;
        self.dry_run = 0;
        self.seen.clear();
    }

    /// Finishes the campaign: flushes the last database's trailing dry
    /// run. (Identical to [`CampaignCoverage::begin_database`] minus the
    /// reset — kept separate so call sites read as what they mean.)
    pub fn finish(&mut self) {
        self.saturation.trailing_dry_cases += self.dry_run;
        self.dry_run = 0;
    }

    /// Observes one completed case: tallies the verdict under the
    /// oracle, unions the case's features, and advances the saturation
    /// curve. `case_index` is the case's index **within its database**
    /// (the checkpoint cursor), which places it in a window.
    pub fn observe_case(
        &mut self,
        oracle: OracleKind,
        verdict: TraceVerdict,
        features: &FeatureSet,
        case_index: u64,
    ) {
        // Allocation-free: the tallies are arrays and the feature sets
        // bitsets.
        let novel = features.difference(&self.seen.any()).len() as u64;
        self.seen.0[oracle as usize].extend(features);
        let entry = self.oracles.entry(oracle);
        entry.cases += 1;
        entry.verdicts.add(verdict, 1);
        entry.features.extend(features);
        let window = (case_index / SATURATION_WINDOW) as usize;
        if self.saturation.windows.len() <= window {
            self.saturation.windows.resize(window + 1, 0);
            self.saturation.window_cases.resize(window + 1, 0);
        }
        self.saturation.windows[window] += novel;
        self.saturation.window_cases[window] += 1;
        if novel > 0 {
            self.saturation.novel_features += novel;
            self.saturation.gaps.record(self.dry_run);
            self.dry_run = 0;
        } else {
            self.dry_run += 1;
            self.saturation.longest_dry_run = self.saturation.longest_dry_run.max(self.dry_run);
        }
    }

    /// Unions a backend's engine-side coverage into the atlas. Reported
    /// sets are monotone, so polling more or less often cannot change
    /// the final union.
    pub fn absorb_engine(&mut self, coverage: &EngineCoverage) {
        self.engine.merge(coverage);
    }

    /// Accumulates another atlas (shard merge): pure summation/union/max
    /// everywhere, so merge order cannot matter.
    pub fn merge(&mut self, other: &CampaignCoverage) {
        for (oracle, coverage) in other.oracles.iter() {
            self.oracles.entry(oracle).merge(coverage);
        }
        self.engine.merge(&other.engine);
        self.saturation.merge(&other.saturation);
        // Working state: meaningful only while a single campaign is
        // running; merged atlases are final, but carry the union/sum so
        // merge stays lossless.
        for (mine, theirs) in self.seen.0.iter_mut().zip(&other.seen.0) {
            mine.extend(theirs);
        }
        self.dry_run += other.dry_run;
    }

    /// Distinct grammar features reached across all oracles.
    pub fn distinct_features(&self) -> usize {
        let mut union = FeatureSet::new();
        for (_, coverage) in self.oracles.iter() {
            union.extend(&coverage.features);
        }
        union.len()
    }

    /// The features of `universe` no oracle's case has exercised yet in
    /// the current database — the cold set the coverage-directed mode
    /// boosts.
    pub fn cold_features(&self, universe: &FeatureSet) -> FeatureSet {
        universe.difference(&self.seen.any())
    }

    /// `true` when nothing was observed (fresh campaign or a backend
    /// with no coverage at all).
    pub fn is_empty(&self) -> bool {
        self.oracles.is_empty() && self.engine.is_empty() && self.saturation.windows.is_empty()
    }

    /// Renders the atlas body (see [`render_atlas_report`] for the
    /// dialect-stamped entry point). Only invariant aggregates are
    /// rendered, making this the byte-identity witness for the
    /// determinism contract.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (oracle, coverage) in self.oracles.iter() {
            let _ = write!(
                out,
                "oracle {} cases {} features {}",
                oracle.name(),
                coverage.cases,
                coverage.features.len()
            );
            for verdict in [
                TraceVerdict::Pass,
                TraceVerdict::Invalid,
                TraceVerdict::Bug,
                TraceVerdict::InfraFailed,
                TraceVerdict::Panicked,
            ] {
                let _ = write!(
                    out,
                    " {} {}",
                    verdict.name(),
                    coverage.verdicts.get(verdict)
                );
            }
            out.push('\n');
            out.push_str("  features");
            for feature in coverage.features.iter() {
                let _ = write!(out, " {feature}");
            }
            out.push('\n');
        }
        for (plane, points) in &self.engine.planes {
            let _ = write!(out, "engine {plane} points {}", points.len());
            for point in points {
                let _ = write!(out, " {point}");
            }
            out.push('\n');
        }
        let curve = &self.saturation;
        let _ = writeln!(
            out,
            "saturation novel {} trailing_dry {} longest_dry {}",
            curve.novel_features, curve.trailing_dry_cases, curve.longest_dry_run
        );
        for (index, (novel, cases)) in curve
            .windows
            .iter()
            .zip(curve.window_cases.iter())
            .enumerate()
        {
            let _ = writeln!(out, "  w{index} cases {cases} novel {novel}");
        }
        if !curve.gaps.is_empty() {
            let _ = writeln!(
                out,
                "  gaps count {} sum {} max {}",
                curve.gaps.count(),
                curve.gaps.sum(),
                curve.gaps.max()
            );
            for (index, lower, count) in curve.gaps.nonzero_buckets() {
                let _ = writeln!(out, "    b{index} ({lower}+) {count}");
            }
        }
        out
    }

    /// The atlas as one JSON line — the payload the tracer appends to
    /// the flight-recorder JSONL at every checkpoint flush: the
    /// checkpoint's coverage object minus its resume-only working state.
    pub fn to_json_line(&self, dialect: &str) -> String {
        let Json::Obj(mut fields) = self.encode() else {
            unreachable!("a record encodes as an object")
        };
        fields.retain(|(key, _)| key != "seen" && key != "dry_run");
        let head = [
            ("type", "coverage_atlas".into()),
            ("dialect", dialect.into()),
        ];
        Json::Obj(fields).prefixed(head).line()
    }
}

/// Renders a campaign report's coverage atlas: the canonical
/// byte-identity witness (any worker count, pool size, execution path
/// and kill-at-k resume must produce this exact text).
pub fn render_atlas_report(report: &crate::campaign::CampaignReport) -> String {
    format!(
        "=== coverage atlas: {} ===\n{}",
        report.dbms_name,
        report.coverage.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_jsonl;

    fn features(names: &[&str]) -> FeatureSet {
        names
            .iter()
            .map(|name| Feature::from_name(name).unwrap())
            .collect()
    }

    #[test]
    fn novelty_is_per_database_and_windows_accumulate() {
        let mut atlas = CampaignCoverage::default();
        atlas.begin_database();
        atlas.observe_case(
            OracleKind::Tlp,
            TraceVerdict::Pass,
            &features(&["OP_EQ", "FN_ABS"]),
            0,
        );
        atlas.observe_case(
            OracleKind::Tlp,
            TraceVerdict::Invalid,
            &features(&["OP_EQ"]),
            1,
        );
        assert_eq!(atlas.saturation.novel_features, 2);
        assert_eq!(atlas.dry_run, 1);
        // A new database makes old features novel again.
        atlas.begin_database();
        atlas.observe_case(
            OracleKind::NoRec,
            TraceVerdict::Pass,
            &features(&["OP_EQ"]),
            0,
        );
        assert_eq!(atlas.saturation.novel_features, 3);
        assert_eq!(atlas.saturation.trailing_dry_cases, 1);
        atlas.finish();
        assert_eq!(atlas.saturation.windows[0], 3);
        assert_eq!(atlas.saturation.window_cases[0], 3);
        let tlp = atlas.oracles.get(OracleKind::Tlp).unwrap();
        assert_eq!(tlp.cases, 2);
        assert_eq!(tlp.verdicts.get(TraceVerdict::Pass), 1);
        assert_eq!(atlas.oracles.get(OracleKind::NoRec).unwrap().cases, 1);
    }

    #[test]
    fn merge_equals_serial_observation() {
        // Two single-database shards vs one atlas observing both
        // databases: identical rendered output (the shard-merge
        // contract).
        let mut serial = CampaignCoverage::default();
        let mut shard_a = CampaignCoverage::default();
        let mut shard_b = CampaignCoverage::default();
        serial.begin_database();
        shard_a.begin_database();
        for (case, set) in [&["OP_EQ", "FN_ABS"][..], &["FN_ABS"], &["JOIN_LEFT"]]
            .iter()
            .enumerate()
        {
            serial.observe_case(
                OracleKind::Tlp,
                TraceVerdict::Pass,
                &features(set),
                case as u64,
            );
            shard_a.observe_case(
                OracleKind::Tlp,
                TraceVerdict::Pass,
                &features(set),
                case as u64,
            );
        }
        serial.begin_database();
        shard_b.begin_database();
        for (case, set) in [&["OP_EQ"][..], &["AGG_SUM", "CLAUSE_CASE"]]
            .iter()
            .enumerate()
        {
            serial.observe_case(
                OracleKind::Tlp,
                TraceVerdict::Bug,
                &features(set),
                case as u64,
            );
            shard_b.observe_case(
                OracleKind::Tlp,
                TraceVerdict::Bug,
                &features(set),
                case as u64,
            );
        }
        serial.finish();
        shard_a.finish();
        shard_b.finish();
        let mut merged = CampaignCoverage::default();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(merged.render(), serial.render());
        // Merge in the other order too (commutativity).
        let mut swapped = CampaignCoverage::default();
        swapped.merge(&shard_b);
        swapped.merge(&shard_a);
        assert_eq!(swapped.render(), serial.render());
    }

    #[test]
    fn the_checkpoint_object_round_trips_and_rejects_unknown_names() {
        let mut atlas = CampaignCoverage::default();
        atlas.begin_database();
        atlas.observe_case(
            OracleKind::Tlp,
            TraceVerdict::Pass,
            &features(&["OP_EQ"]),
            0,
        );
        atlas.observe_case(
            OracleKind::Isolation,
            TraceVerdict::Bug,
            &features(&["OP_EQ", "FN_ABS"]),
            1,
        );
        let json = atlas.encode();
        assert_eq!(
            json.field("seen").unwrap().to_string(),
            r#"{"FN_ABS":8,"OP_EQ":9}"#
        );
        assert_eq!(
            json.field("oracles").unwrap().as_obj().unwrap()[0].0,
            "ISOLATION"
        );
        assert_eq!(CampaignCoverage::decode(&json).unwrap(), atlas);
        let text = json.to_string();
        for (from, to) in [("FN_ABS", "FN_WARP"), ("\"pass\"", "\"maybe\"")] {
            let bad = crate::json::parse(&text.replace(from, to)).unwrap();
            let err = CampaignCoverage::decode(&bad).unwrap_err();
            assert!(err.contains(&to.replace('"', "")), "{err}");
        }
    }

    #[test]
    fn engine_union_absorbs_duplicates() {
        let mut atlas = CampaignCoverage::default();
        let mut coverage = EngineCoverage::default();
        coverage.record("functions", "SIN");
        coverage.record("plan_operators", "seq_scan");
        atlas.absorb_engine(&coverage);
        atlas.absorb_engine(&coverage);
        assert_eq!(atlas.engine.total_points(), 2);
    }

    #[test]
    fn cold_features_shrink_as_coverage_grows() {
        let universe = features(&["OP_EQ", "FN_ABS", "JOIN_LEFT"]);
        let mut atlas = CampaignCoverage::default();
        atlas.begin_database();
        assert_eq!(atlas.cold_features(&universe).len(), 3);
        atlas.observe_case(
            OracleKind::Tlp,
            TraceVerdict::Pass,
            &features(&["FN_ABS"]),
            0,
        );
        let cold = atlas.cold_features(&universe);
        assert_eq!(cold.len(), 2);
        assert!(!cold.contains(Feature::from_name("FN_ABS").unwrap()));
    }

    #[test]
    fn json_line_validates() {
        let mut atlas = CampaignCoverage::default();
        atlas.begin_database();
        atlas.observe_case(
            OracleKind::Tlp,
            TraceVerdict::Pass,
            &features(&["OP_EQ", "FN_ABS"]),
            0,
        );
        let mut coverage = EngineCoverage::default();
        coverage.record("statements", "STMT_SELECT");
        atlas.absorb_engine(&coverage);
        atlas.finish();
        let line = atlas.to_json_line("sim");
        validate_jsonl(&line).expect("atlas JSON line must validate");
        assert!(line.starts_with("{\"type\":\"coverage_atlas\",\"dialect\":\"sim\""));
        assert!(line.ends_with("}\n"));
    }
}
