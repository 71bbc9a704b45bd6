//! Persistence of the learned feature profile.
//!
//! Figure 5 notes that the probabilities learned in step ④ "can be persisted
//! in a file and loaded in step ① of future executions". A profile file is
//! one JSON record written by the codec in [`crate::json`], with the same
//! encoding as a checkpoint's `stats` field:
//!
//! ```text
//! {"profile":{"query":{"<feature>":[attempts,successes,consecutive_failures],..},"ddl":{..}}}
//! ```
//!
//! The decoder rejects counts whose successes exceed their attempts.

use crate::json::{self, Codec};
use crate::stats::FeatureStats;
use std::path::Path;

/// Serialises learned feature statistics to a profile record.
pub fn profile_to_string(stats: &FeatureStats) -> String {
    json::record("profile", stats.encode()).line()
}

/// Parses a profile produced by [`profile_to_string`].
///
/// # Errors
///
/// Returns what is malformed.
pub fn profile_from_string(text: &str) -> Result<FeatureStats, String> {
    FeatureStats::decode(json::parse(text)?.field("profile")?)
}

/// Saves a profile to a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_profile(stats: &FeatureStats, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, profile_to_string(stats))
}

/// Loads a profile from a file.
///
/// # Errors
///
/// Propagates I/O errors and format errors.
pub fn load_profile(path: &Path) -> Result<FeatureStats, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    profile_from_string(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureSet};
    use crate::stats::FeatureKind;

    #[test]
    fn profile_round_trips() {
        let mut stats = FeatureStats::new();
        let features: FeatureSet = [
            Feature::from_name("OP_EQ").unwrap(),
            Feature::from_name("FN_SIN").unwrap(),
        ]
        .into_iter()
        .collect();
        for i in 0..50 {
            stats.record(&features, FeatureKind::Query, i % 3 != 0);
        }
        stats.record(&features, FeatureKind::DdlDml, false);
        let text = profile_to_string(&stats);
        let loaded = profile_from_string(&text).unwrap();
        assert_eq!(profile_to_string(&loaded), text);
        assert_eq!(
            loaded.counts(Feature::from_name("OP_EQ").unwrap(), FeatureKind::Query),
            stats.counts(Feature::from_name("OP_EQ").unwrap(), FeatureKind::Query)
        );
        assert_eq!(
            loaded.counts(Feature::from_name("FN_SIN").unwrap(), FeatureKind::DdlDml),
            stats.counts(Feature::from_name("FN_SIN").unwrap(), FeatureKind::DdlDml)
        );
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        let ok = r#"{"profile":{"query":{"OP_EQ":[2,1,0]},"ddl":{}}}"#;
        assert!(profile_from_string(ok).is_ok());
        for (bad, why) in [
            (ok.replace("[2,1,0]", "[2,1]"), "arity"),
            (ok.replace("[2,1,0]", r#"["two",1,0]"#), "not a number"),
            (ok.replace("[2,1,0]", "[1,2,0]"), "successes > attempts"),
            (ok.replace("OP_EQ", "OP_WARP"), "unknown feature"),
            (ok.replace("profile", "stats"), "not a profile"),
            ("# sqlancer++ learned profile v1\n".to_string(), "v1 text"),
        ] {
            assert!(profile_from_string(&bad).is_err(), "{why}");
        }
        let err = profile_from_string(&ok.replace("OP_EQ", "OP_WARP")).unwrap_err();
        assert!(err.contains("OP_WARP"), "{err}");
    }
}
