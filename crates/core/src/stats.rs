//! Validity-feedback statistics and the Bayesian support model.
//!
//! The adaptive generator records, per feature, how many statements that
//! contained the feature were attempted and how many succeeded. For *query*
//! features it models the per-feature success probability θ with a binomial
//! likelihood and a uniform prior, so that the posterior is
//! `Beta(y + 1, N − y + 1)` (Equations 1–3 of the paper). A feature is
//! deemed **unsupported** when at least `credible_mass` (95%) of the
//! posterior probability lies below the user threshold `p` (default 1%).
//! For *DDL/DML* features a simpler rule is used: a feature that fails more
//! than a fixed number of consecutive times is deemed unsupported.

use crate::feature::{Feature, FeatureSet};
use crate::json::{json_record, Codec, Json};
use std::fmt;

/// Tuning knobs of the feedback mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsConfig {
    /// Minimum acceptable success probability for a query feature (the
    /// paper's user-specified threshold `p`, default 1%).
    pub query_threshold: f64,
    /// Posterior mass that must lie below the threshold before a feature is
    /// declared unsupported (the paper uses a 95% credible interval).
    pub credible_mass: f64,
    /// Number of consecutive failures after which a DDL/DML feature is
    /// deemed unsupported.
    pub ddl_failure_limit: u64,
    /// Minimum number of attempts before a query feature can be declared
    /// unsupported (avoids judging on tiny samples).
    pub min_attempts: u64,
}

impl Default for StatsConfig {
    fn default() -> StatsConfig {
        StatsConfig {
            query_threshold: 0.01,
            credible_mass: 0.95,
            ddl_failure_limit: 10,
            min_attempts: 20,
        }
    }
}

/// Per-feature execution counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureCounts {
    /// Total number of statements containing the feature.
    pub attempts: u64,
    /// Number of those statements that executed successfully.
    pub successes: u64,
    /// Current run of consecutive failures.
    pub consecutive_failures: u64,
}

impl FeatureCounts {
    /// Posterior mean of the success probability under the Beta posterior.
    pub fn posterior_mean(&self) -> f64 {
        (self.successes as f64 + 1.0) / (self.attempts as f64 + 2.0)
    }

    /// Posterior probability that the success probability is below `p`,
    /// i.e. the regularised incomplete beta `I_p(y + 1, N − y + 1)`.
    pub fn posterior_mass_below(&self, p: f64) -> f64 {
        regularized_incomplete_beta(
            p,
            self.successes as f64 + 1.0,
            (self.attempts - self.successes) as f64 + 1.0,
        )
    }
}

/// Whether a feature was used in a DDL/DML statement or a query; the two
/// categories use different unsupported-detection rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Feature observed in a DDL or DML statement.
    DdlDml,
    /// Feature observed in a query.
    Query,
}

// Counts travel as `[attempts, successes, consecutive_failures]`.
json_record!(struct FeatureCounts [attempts, successes, consecutive_failures]);

/// One category's counts: a slot per vocabulary entry, plus the entries
/// observed so far (what encodes, merges and is judged — an entry decoded
/// with zero attempts is still observed).
#[derive(Clone)]
struct CountTable {
    counts: Box<[FeatureCounts]>,
    observed: FeatureSet,
}

impl Default for CountTable {
    fn default() -> CountTable {
        CountTable {
            counts: vec![FeatureCounts::default(); Feature::COUNT].into_boxed_slice(),
            observed: FeatureSet::new(),
        }
    }
}

impl CountTable {
    fn get(&self, feature: Feature) -> FeatureCounts {
        self.counts[feature.index()]
    }

    fn entry(&mut self, feature: Feature) -> &mut FeatureCounts {
        self.observed.insert(feature);
        &mut self.counts[feature.index()]
    }

    /// The observed entries in name order.
    fn iter(&self) -> impl Iterator<Item = (Feature, &FeatureCounts)> {
        self.observed
            .iter()
            .map(|feature| (feature, &self.counts[feature.index()]))
    }

    fn merge(&mut self, other: &CountTable) {
        for feature in other.observed.ids() {
            let counts = other.get(feature);
            let entry = self.entry(feature);
            entry.attempts += counts.attempts;
            entry.successes += counts.successes;
            entry.consecutive_failures = counts.consecutive_failures;
        }
    }
}

/// A table travels as `{feature:counts}` in name order.
impl Codec for CountTable {
    fn encode(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(feature, counts)| (feature.name().to_string(), counts.encode()))
                .collect(),
        )
    }

    fn decode(json: &Json) -> Result<CountTable, String> {
        let mut table = CountTable::default();
        for (name, counts) in json.as_obj()? {
            let feature =
                Feature::from_name(name).ok_or_else(|| format!("unknown Feature '{name}'"))?;
            *table.entry(feature) =
                FeatureCounts::decode(counts).map_err(|err| format!("{name}: {err}"))?;
        }
        Ok(table)
    }
}

impl fmt::Debug for CountTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Aggregated validity feedback across all features: one count table per
/// category, indexed by feature id, so recording an outcome never
/// allocates.
#[derive(Debug, Clone, Default)]
pub struct FeatureStats {
    query: CountTable,
    ddl: CountTable,
}

/// The learned profile's one encoding, shared by profile files and
/// checkpoints: `{"query":{feature:counts},"ddl":{..}}`. The decoder
/// rejects unknown feature names and counts with more successes than
/// attempts.
impl Codec for FeatureStats {
    fn encode(&self) -> Json {
        Json::obj([("query", self.query.encode()), ("ddl", self.ddl.encode())])
    }

    fn decode(json: &Json) -> Result<FeatureStats, String> {
        let query = CountTable::decode(json.field("query")?)?;
        let ddl = CountTable::decode(json.field("ddl")?)?;
        let overcounted = query
            .iter()
            .chain(ddl.iter())
            .find(|(_, c)| c.successes > c.attempts);
        if let Some((feature, _)) = overcounted {
            return Err(format!("{feature}: successes exceed attempts"));
        }
        Ok(FeatureStats { query, ddl })
    }
}

impl FeatureStats {
    /// Creates empty statistics.
    pub fn new() -> FeatureStats {
        FeatureStats::default()
    }

    fn table(&self, kind: FeatureKind) -> &CountTable {
        match kind {
            FeatureKind::Query => &self.query,
            FeatureKind::DdlDml => &self.ddl,
        }
    }

    /// Records the outcome of one statement execution for every feature in
    /// its feature set.
    pub fn record(&mut self, features: &FeatureSet, kind: FeatureKind, success: bool) {
        let table = match kind {
            FeatureKind::Query => &mut self.query,
            FeatureKind::DdlDml => &mut self.ddl,
        };
        for feature in features.ids() {
            let counts = table.entry(feature);
            counts.attempts += 1;
            if success {
                counts.successes += 1;
                counts.consecutive_failures = 0;
            } else {
                counts.consecutive_failures += 1;
            }
        }
    }

    /// The counts recorded for a feature in the given category.
    pub fn counts(&self, feature: Feature, kind: FeatureKind) -> FeatureCounts {
        self.table(kind).get(feature)
    }

    /// Decides whether a feature is unsupported under the configured rules
    /// (Beta-posterior test for queries, consecutive-failure rule for
    /// DDL/DML).
    pub fn is_unsupported(
        &self,
        feature: Feature,
        kind: FeatureKind,
        config: &StatsConfig,
    ) -> bool {
        let counts = self.counts(feature, kind);
        match kind {
            FeatureKind::DdlDml => counts.consecutive_failures >= config.ddl_failure_limit,
            FeatureKind::Query => {
                counts.attempts >= config.min_attempts
                    && counts.posterior_mean() <= posterior_mean_bound(config)
                    && counts.posterior_mass_below(config.query_threshold) >= config.credible_mass
            }
        }
    }

    /// All features currently considered unsupported in a category.
    pub fn unsupported_features(&self, kind: FeatureKind, config: &StatsConfig) -> FeatureSet {
        self.table(kind)
            .observed
            .ids()
            .filter(|&feature| self.is_unsupported(feature, kind, config))
            .collect()
    }

    /// Total attempts and successes across all query features (used for the
    /// validity-rate metrics of Table 4).
    pub fn query_totals(&self) -> (u64, u64) {
        let attempts = self.query.counts.iter().map(|c| c.attempts).sum();
        let successes = self.query.counts.iter().map(|c| c.successes).sum();
        (attempts, successes)
    }

    /// Iterates over all query-feature counts in name order (for
    /// persistence).
    pub fn iter_query(&self) -> impl Iterator<Item = (Feature, &FeatureCounts)> {
        self.query.iter()
    }

    /// Iterates over all DDL/DML-feature counts in name order (for
    /// persistence).
    pub fn iter_ddl(&self) -> impl Iterator<Item = (Feature, &FeatureCounts)> {
        self.ddl.iter()
    }

    /// Merges another profile's observations into this one, reading as if
    /// `other`'s statements were executed *after* this profile's: attempts
    /// and successes add, and the consecutive-failure run is taken from
    /// `other` for every feature it observed (the later run supersedes the
    /// earlier one). This is how the partitioned campaign runner folds
    /// per-database learned profiles together in database order, keeping
    /// the merged result independent of worker scheduling.
    pub fn merge(&mut self, other: &FeatureStats) {
        self.query.merge(&other.query);
        self.ddl.merge(&other.ddl);
    }
}

/// The largest posterior mean a query feature judged unsupported can have.
///
/// With `m` the posterior mass below `p`, the mean is at most
/// `p·m + (1 − m)` (mass below `p` contributes under `p`, the rest at most
/// 1), which falls as `m` grows; so `m ≥ c` forces the mean to at most
/// `p·c + (1 − c)`. A mean above this bound decides "supported" without
/// evaluating the incomplete beta.
fn posterior_mean_bound(config: &StatsConfig) -> f64 {
    config.query_threshold * config.credible_mass + (1.0 - config.credible_mass)
}

/// Natural log of the gamma function (Lanczos approximation).
fn ln_gamma(x: f64) -> f64 {
    // Coefficients for the Lanczos approximation (g = 7, n = 9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Continued-fraction evaluation for the incomplete beta function
/// (Numerical Recipes `betacf`).
fn beta_continued_fraction(x: f64, a: f64, b: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3.0e-12;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// The regularised incomplete beta function `I_x(a, b)`, i.e. the CDF of a
/// `Beta(a, b)` distribution evaluated at `x`.
pub fn regularized_incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_beta = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b);
    let front = (ln_beta + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_continued_fraction(1.0 - x, b, a) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(name: &str) -> Feature {
        Feature::from_name(name).unwrap()
    }

    fn feature_set(names: &[&str]) -> FeatureSet {
        names.iter().map(|n| named(n)).collect()
    }

    #[test]
    fn incomplete_beta_matches_known_values() {
        // I_x(1, 1) is the uniform CDF.
        assert!((regularized_incomplete_beta(0.3, 1.0, 1.0) - 0.3).abs() < 1e-9);
        // Symmetric case: I_0.5(2, 2) = 0.5.
        assert!((regularized_incomplete_beta(0.5, 2.0, 2.0) - 0.5).abs() < 1e-9);
        // Beta(1, 401) at 0.01: the paper's example says more than 95% of
        // the mass lies below 0.01 (the 95% credible interval is roughly
        // [6e-5, 0.009]).
        let mass = regularized_incomplete_beta(0.01, 1.0, 401.0);
        assert!(mass > 0.95, "mass = {mass}");
        // Monotonic in x.
        assert!(
            regularized_incomplete_beta(0.2, 3.0, 5.0) < regularized_incomplete_beta(0.4, 3.0, 5.0)
        );
    }

    #[test]
    fn paper_example_400_failures_is_unsupported() {
        // y = 0, N = 400 with threshold 0.01 → unsupported (Section 4).
        let mut stats = FeatureStats::new();
        let features = feature_set(&["OP_NULLSAFE_EQ"]);
        for _ in 0..400 {
            stats.record(&features, FeatureKind::Query, false);
        }
        let config = StatsConfig::default();
        assert!(stats.is_unsupported(named("OP_NULLSAFE_EQ"), FeatureKind::Query, &config));
    }

    #[test]
    fn frequently_succeeding_feature_stays_supported() {
        let mut stats = FeatureStats::new();
        let features = feature_set(&["OP_EQ"]);
        for i in 0..400 {
            stats.record(&features, FeatureKind::Query, i % 2 == 0);
        }
        let config = StatsConfig::default();
        assert!(!stats.is_unsupported(named("OP_EQ"), FeatureKind::Query, &config));
        let counts = stats.counts(named("OP_EQ"), FeatureKind::Query);
        assert!((counts.posterior_mean() - 0.5).abs() < 0.05);
    }

    #[test]
    fn small_samples_are_never_judged() {
        let mut stats = FeatureStats::new();
        let features = feature_set(&["FN_SIN"]);
        for _ in 0..5 {
            stats.record(&features, FeatureKind::Query, false);
        }
        assert!(!stats.is_unsupported(
            named("FN_SIN"),
            FeatureKind::Query,
            &StatsConfig::default()
        ));
    }

    #[test]
    fn ddl_rule_uses_consecutive_failures() {
        let mut stats = FeatureStats::new();
        let features = feature_set(&["STMT_CREATE_INDEX"]);
        let config = StatsConfig::default();
        for _ in 0..9 {
            stats.record(&features, FeatureKind::DdlDml, false);
        }
        assert!(!stats.is_unsupported(named("STMT_CREATE_INDEX"), FeatureKind::DdlDml, &config));
        stats.record(&features, FeatureKind::DdlDml, false);
        assert!(stats.is_unsupported(named("STMT_CREATE_INDEX"), FeatureKind::DdlDml, &config));
        // One success resets the run.
        stats.record(&features, FeatureKind::DdlDml, true);
        assert!(!stats.is_unsupported(named("STMT_CREATE_INDEX"), FeatureKind::DdlDml, &config));
    }

    /// The posterior-mean prefilter never changes a verdict: every count
    /// pair up to 2000 attempts is judged as the bare incomplete-beta test
    /// judges it, under the default and a looser configuration.
    #[test]
    fn posterior_mean_prefilter_keeps_every_verdict() {
        let loose = StatsConfig {
            query_threshold: 0.05,
            min_attempts: 30,
            ..StatsConfig::default()
        };
        for config in [StatsConfig::default(), loose] {
            let mut skipped = 0u64;
            for attempts in 0..=2000u64 {
                for successes in 0..=attempts {
                    let counts = FeatureCounts {
                        attempts,
                        successes,
                        consecutive_failures: 0,
                    };
                    let old = counts.attempts >= config.min_attempts
                        && counts.posterior_mass_below(config.query_threshold)
                            >= config.credible_mass;
                    let filtered = counts.posterior_mean() > posterior_mean_bound(&config);
                    skipped += u64::from(filtered);
                    let new = counts.attempts >= config.min_attempts
                        && !filtered
                        && counts.posterior_mass_below(config.query_threshold)
                            >= config.credible_mass;
                    assert_eq!(new, old, "{attempts} attempts, {successes} successes");
                }
            }
            assert!(skipped > 1_000_000, "the prefilter decided only {skipped}");
        }
    }

    #[test]
    fn an_entry_with_zero_attempts_still_encodes() {
        let json = crate::json::parse(r#"{"query":{"OP_EQ":[0,0,0]},"ddl":{}}"#).unwrap();
        let stats = FeatureStats::decode(&json).unwrap();
        assert_eq!(stats.encode(), json);
    }

    #[test]
    fn an_unknown_feature_name_is_rejected_by_name() {
        let json = crate::json::parse(r#"{"query":{"OP_WARP":[1,1,0]},"ddl":{}}"#).unwrap();
        let err = FeatureStats::decode(&json).unwrap_err();
        assert!(err.contains("OP_WARP"), "{err}");
    }

    #[test]
    fn query_totals_track_validity_rate() {
        let mut stats = FeatureStats::new();
        let features = feature_set(&["OP_EQ", "FN_SIN"]);
        stats.record(&features, FeatureKind::Query, true);
        stats.record(&features, FeatureKind::Query, false);
        let (attempts, successes) = stats.query_totals();
        assert_eq!(attempts, 4);
        assert_eq!(successes, 2);
    }
}
