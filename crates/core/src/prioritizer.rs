//! Feature-set based bug prioritization (Section 3, Figure 4).
//!
//! SQLancer++ can trigger tens of thousands of bug-inducing test cases per
//! hour on an untested system (Table 5). The prioritizer keeps the feature
//! sets of previously *prioritized* (i.e. kept-for-reporting) test cases; a
//! new bug-inducing test case is marked a **potential duplicate** when some
//! previously kept feature set is a subset of its feature set — the
//! intuition being that the earlier, smaller feature combination is likely
//! the same root cause.

use crate::campaign::CampaignMetrics;
use crate::feature::FeatureSet;

/// The prioritizer's verdict for one bug-inducing test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityDecision {
    /// No previously kept feature set is a subset: report this one.
    New,
    /// A previously kept feature set is contained in this one: hold it back
    /// until the earlier bugs are fixed.
    PotentialDuplicate,
}

/// Statistics kept by the prioritizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrioritizerStats {
    /// Total bug-inducing test cases seen.
    pub seen: usize,
    /// Test cases prioritized (kept for reporting).
    pub prioritized: usize,
    /// Test cases marked as potential duplicates.
    pub deduplicated: usize,
}

/// The bug prioritizer.
#[derive(Debug, Clone, Default)]
pub struct BugPrioritizer {
    kept: Vec<FeatureSet>,
    stats: PrioritizerStats,
    exact_only: bool,
}

impl BugPrioritizer {
    /// Creates an empty prioritizer using the paper's subset rule.
    pub fn new() -> BugPrioritizer {
        BugPrioritizer::default()
    }

    /// Creates a prioritizer that only deduplicates *exactly equal* feature
    /// sets. Used as an ablation baseline (DESIGN.md §4.4): it keeps far
    /// more cases than the subset rule.
    pub fn exact_match_only() -> BugPrioritizer {
        BugPrioritizer {
            exact_only: true,
            ..BugPrioritizer::default()
        }
    }

    /// Classifies a bug-inducing test case and updates the kept sets.
    pub fn classify(&mut self, features: &FeatureSet) -> PriorityDecision {
        self.stats.seen += 1;
        let duplicate = if self.exact_only {
            self.kept.iter().any(|s| s == features)
        } else {
            self.kept.iter().any(|s| s.is_subset_of(features))
        };
        if duplicate {
            self.stats.deduplicated += 1;
            PriorityDecision::PotentialDuplicate
        } else {
            self.kept.push(features.clone());
            self.stats.prioritized += 1;
            PriorityDecision::New
        }
    }

    /// Reconstructs a subset-rule prioritizer from checkpointed state: the
    /// kept sets drive future classifications, and the statistics come
    /// from the checkpointed report's metrics, which count every ruling
    /// (deduplicated cases' feature sets are not retained anywhere).
    pub fn restore(kept: Vec<FeatureSet>, metrics: &CampaignMetrics) -> BugPrioritizer {
        let prioritized = metrics.prioritized_bugs as usize;
        let deduplicated = metrics.deduplicated_bugs as usize;
        BugPrioritizer {
            kept,
            stats: PrioritizerStats {
                seen: prioritized + deduplicated,
                prioritized,
                deduplicated,
            },
            exact_only: false,
        }
    }

    /// The feature sets currently kept for reporting.
    pub fn kept_sets(&self) -> &[FeatureSet] {
        &self.kept
    }

    /// Running statistics.
    pub fn stats(&self) -> PrioritizerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Feature;

    fn set(names: &[&str]) -> FeatureSet {
        names.iter().map(|n| Feature::new(*n)).collect()
    }

    #[test]
    fn figure_4_scenario() {
        // ① {NULLIF, !=} is new; ② and ③ contain it → duplicates;
        // ④ {CASE, !=} is new again.
        let mut prioritizer = BugPrioritizer::new();
        assert_eq!(
            prioritizer.classify(&set(&["FN_NULLIF", "OP_NEQ"])),
            PriorityDecision::New
        );
        assert_eq!(
            prioritizer.classify(&set(&["FN_NULLIF", "OP_NEQ", "OP_ADD"])),
            PriorityDecision::PotentialDuplicate
        );
        assert_eq!(
            prioritizer.classify(&set(&["FN_NULLIF", "OP_NEQ", "JOIN_INNER"])),
            PriorityDecision::PotentialDuplicate
        );
        assert_eq!(
            prioritizer.classify(&set(&["CLAUSE_CASE", "OP_NEQ"])),
            PriorityDecision::New
        );
        let stats = prioritizer.stats();
        assert_eq!(stats.seen, 4);
        assert_eq!(stats.prioritized, 2);
        assert_eq!(stats.deduplicated, 2);
    }

    #[test]
    fn subset_rule_keeps_fewer_than_exact_rule() {
        let cases = [
            set(&["A", "B"]),
            set(&["A", "B", "C"]),
            set(&["A", "B", "D"]),
            set(&["A", "B"]),
            set(&["E"]),
        ];
        let mut subset = BugPrioritizer::new();
        let mut exact = BugPrioritizer::exact_match_only();
        for case in &cases {
            subset.classify(case);
            exact.classify(case);
        }
        assert_eq!(subset.stats().prioritized, 2);
        assert_eq!(exact.stats().prioritized, 4);
        assert!(subset.stats().prioritized < exact.stats().prioritized);
    }

    #[test]
    fn identical_sets_are_duplicates_under_both_rules() {
        let mut subset = BugPrioritizer::new();
        let mut exact = BugPrioritizer::exact_match_only();
        for p in [&mut subset, &mut exact] {
            assert_eq!(p.classify(&set(&["X", "Y"])), PriorityDecision::New);
            assert_eq!(
                p.classify(&set(&["X", "Y"])),
                PriorityDecision::PotentialDuplicate
            );
        }
    }

    #[test]
    fn empty_feature_set_matches_everything_afterwards() {
        let mut prioritizer = BugPrioritizer::new();
        assert_eq!(
            prioritizer.classify(&FeatureSet::new()),
            PriorityDecision::New
        );
        assert_eq!(
            prioritizer.classify(&set(&["ANYTHING"])),
            PriorityDecision::PotentialDuplicate
        );
    }
}
