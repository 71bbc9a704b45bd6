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

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

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

/// FNV-1a hasher for the per-database seen map. Two things matter on
/// this path: speed on short feature names (std's SipHash costs more
/// than the whole probe should) and a fixed key (SipHash is randomly
/// seeded per process; results would still be deterministic, but a
/// fixed hasher keeps even the map's internal behaviour reproducible).
#[derive(Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The per-database novelty map: feature → oracle-membership bitmask.
pub type SeenMap = HashMap<Feature, u8, BuildHasherDefault<FnvHasher>>;

/// The oracle's bit in a [`CampaignCoverage::seen`] mask.
pub fn oracle_bit(oracle: OracleKind) -> u8 {
    match oracle {
        OracleKind::Tlp => 1 << 0,
        OracleKind::NoRec => 1 << 1,
        OracleKind::Rollback => 1 << 2,
        OracleKind::Isolation => 1 << 3,
    }
}

/// Per-oracle coverage: how many cases ran, their verdict tally, and the
/// union of grammar features those cases exercised.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleCoverage {
    /// Cases observed for this oracle.
    pub cases: u64,
    /// Verdict name (`pass`, `invalid`, `bug`, `infra_failed`,
    /// `panicked`) → count.
    pub verdicts: BTreeMap<String, u64>,
    /// Union of the feature sets of every observed case.
    pub features: FeatureSet,
}

impl OracleCoverage {
    /// Accumulates another oracle's coverage (summation + union).
    pub fn merge(&mut self, other: &OracleCoverage) {
        self.cases += other.cases;
        for (verdict, count) in &other.verdicts {
            *self.verdicts.entry(verdict.clone()).or_default() += count;
        }
        self.features.extend(&other.features);
    }
}

json_record!(struct OracleCoverage { cases, verdicts, features });

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

/// The seen map travels sorted by feature, so equal maps write equal bytes.
impl Codec for SeenMap {
    fn encode(&self) -> Json {
        let sorted: BTreeMap<Feature, u8> = self.iter().map(|(f, m)| (f.clone(), *m)).collect();
        sorted.encode()
    }

    fn decode(json: &Json) -> Result<SeenMap, String> {
        BTreeMap::<Feature, u8>::decode(json).map(|seen| seen.into_iter().collect())
    }
}

/// The coverage atlas of one campaign (or a merged fleet of shards):
/// per-oracle feature coverage, the engine-plane point union, and the
/// saturation curve. Lives inside `CampaignReport`, so checkpoints carry
/// it and the partitioned runner merges it shard-wise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCoverage {
    /// Oracle name (`TLP`, `NoREC`, …) → its coverage.
    pub oracles: BTreeMap<String, OracleCoverage>,
    /// Engine-side coverage points reached by any execution (union over
    /// pool slots, polls and shards).
    pub engine: EngineCoverage,
    /// The windowed saturation curve.
    pub saturation: SaturationCurve,
    /// Working state: features already seen in the **current database**
    /// (resets at every database boundary), each mapped to a bitmask of
    /// the oracles (see [`oracle_bit`]) whose per-oracle feature set is
    /// already known to contain it. The mask is a lookup-avoidance hint:
    /// the hot path pays one hashed probe per feature instead of an
    /// ordered-set walk here plus one in the oracle's set. Checkpointed
    /// (sorted at serialisation time), not rendered.
    pub seen: SeenMap,
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
        // Allocation-light on the hot path: the map keys exist after the
        // first case of each oracle/verdict, and feature inserts only
        // clone on first sight.
        if !self.oracles.contains_key(oracle.name()) {
            self.oracles
                .insert(oracle.name().to_string(), OracleCoverage::default());
        }
        let entry = self.oracles.get_mut(oracle.name()).expect("inserted above");
        entry.cases += 1;
        if !entry.verdicts.contains_key(verdict.name()) {
            entry.verdicts.insert(verdict.name().to_string(), 0);
        }
        *entry
            .verdicts
            .get_mut(verdict.name())
            .expect("inserted above") += 1;
        let bit = oracle_bit(oracle);
        let mut novel = 0u64;
        for feature in features.iter() {
            match self.seen.get_mut(feature) {
                Some(mask) => {
                    // Steady state: one map probe. The oracle-set union
                    // only runs the first time this oracle meets the
                    // feature in this database; afterwards the mask bit
                    // short-circuits it.
                    if *mask & bit == 0 {
                        if !entry.features.contains(feature) {
                            entry.features.insert(feature.clone());
                        }
                        *mask |= bit;
                    }
                }
                None => {
                    self.seen.insert(feature.clone(), bit);
                    novel += 1;
                    if !entry.features.contains(feature) {
                        entry.features.insert(feature.clone());
                    }
                }
            }
        }
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
        for (oracle, coverage) in &other.oracles {
            self.oracles
                .entry(oracle.clone())
                .or_default()
                .merge(coverage);
        }
        self.engine.merge(&other.engine);
        self.saturation.merge(&other.saturation);
        // Working state: meaningful only while a single campaign is
        // running; merged atlases are final, but carry the union/sum so
        // merge stays lossless. Masks OR together: a set bit is a claim
        // the oracle's set contains the feature, which unions preserve.
        for (feature, mask) in &other.seen {
            *self.seen.entry(feature.clone()).or_insert(0) |= mask;
        }
        self.dry_run += other.dry_run;
    }

    /// Distinct grammar features reached across all oracles.
    pub fn distinct_features(&self) -> usize {
        let mut union: BTreeSet<&Feature> = BTreeSet::new();
        for coverage in self.oracles.values() {
            union.extend(coverage.features.iter());
        }
        union.len()
    }

    /// The features of `universe` no oracle's case has exercised yet in
    /// the current database — the cold set the coverage-directed mode
    /// boosts.
    pub fn cold_features(&self, universe: &[Feature]) -> BTreeSet<Feature> {
        universe
            .iter()
            .filter(|feature| !self.seen.contains_key(feature))
            .cloned()
            .collect()
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
        for (oracle, coverage) in &self.oracles {
            let _ = write!(
                out,
                "oracle {oracle} cases {} features {}",
                coverage.cases,
                coverage.features.len()
            );
            for verdict in ["pass", "invalid", "bug", "infra_failed", "panicked"] {
                let count = coverage.verdicts.get(verdict).copied().unwrap_or(0);
                let _ = write!(out, " {verdict} {count}");
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
        names.iter().map(|name| Feature::new(*name)).collect()
    }

    #[test]
    fn novelty_is_per_database_and_windows_accumulate() {
        let mut atlas = CampaignCoverage::default();
        atlas.begin_database();
        atlas.observe_case(
            OracleKind::Tlp,
            TraceVerdict::Pass,
            &features(&["A", "B"]),
            0,
        );
        atlas.observe_case(OracleKind::Tlp, TraceVerdict::Invalid, &features(&["A"]), 1);
        assert_eq!(atlas.saturation.novel_features, 2);
        assert_eq!(atlas.dry_run, 1);
        // A new database makes old features novel again.
        atlas.begin_database();
        atlas.observe_case(OracleKind::NoRec, TraceVerdict::Pass, &features(&["A"]), 0);
        assert_eq!(atlas.saturation.novel_features, 3);
        assert_eq!(atlas.saturation.trailing_dry_cases, 1);
        atlas.finish();
        assert_eq!(atlas.saturation.windows[0], 3);
        assert_eq!(atlas.saturation.window_cases[0], 3);
        assert_eq!(atlas.oracles["TLP"].cases, 2);
        assert_eq!(atlas.oracles["TLP"].verdicts["pass"], 1);
        assert_eq!(atlas.oracles["NoREC"].cases, 1);
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
        for (case, set) in [&["A", "B"][..], &["B"], &["C"]].iter().enumerate() {
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
        for (case, set) in [&["A"][..], &["D", "E"]].iter().enumerate() {
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
        let universe = vec![Feature::new("A"), Feature::new("B"), Feature::new("C")];
        let mut atlas = CampaignCoverage::default();
        atlas.begin_database();
        assert_eq!(atlas.cold_features(&universe).len(), 3);
        atlas.observe_case(OracleKind::Tlp, TraceVerdict::Pass, &features(&["B"]), 0);
        let cold = atlas.cold_features(&universe);
        assert_eq!(cold.len(), 2);
        assert!(!cold.contains(&Feature::new("B")));
    }

    #[test]
    fn json_line_validates() {
        let mut atlas = CampaignCoverage::default();
        atlas.begin_database();
        atlas.observe_case(
            OracleKind::Tlp,
            TraceVerdict::Pass,
            &features(&["A\"quote", "B"]),
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
