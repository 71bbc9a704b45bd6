//! Allocation guard for the feature model's per-case work.
//!
//! A std-only counting global allocator counts the heap allocations each
//! measured call makes on its own thread, so the guard holds while other
//! tests of this binary run in parallel. It pins that, once warmed up,
//!
//! * `FeatureSet` operations allocate nothing (the set is a fixed bitset);
//! * recording an outcome allocates nothing, including the suppression
//!   refresh that runs every `update_interval` records (the support model
//!   is two count arrays and its verdicts a bitset);
//! * observing a case in the coverage atlas allocates nothing once its
//!   saturation window exists (per-oracle and per-verdict tallies are
//!   arrays, the novelty state bitsets).

use sql_ast::{BinaryOp, ScalarFunction};
use sqlancer_core::trace::TraceVerdict;
use sqlancer_core::{
    AdaptiveGenerator, CampaignCoverage, Feature, FeatureKind, FeatureSet, GeneratorConfig,
    OracleKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while a thread's locals are torn
    // down; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting only touches
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// An adaptive generator with a two-table schema and the queries it
/// generated (their feature sets are what the measured calls consume).
fn generator_and_cases() -> (AdaptiveGenerator, Vec<FeatureSet>) {
    let mut generator = AdaptiveGenerator::new(7, GeneratorConfig::default());
    for sql in [
        "CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT, c2 BOOLEAN)",
        "CREATE TABLE t1 (c0 INTEGER, c3 INTEGER)",
    ] {
        generator.apply_success(&sql_parser::parse_statement(sql).unwrap());
    }
    let cases = (0..64)
        .map(|_| generator.generate_query().unwrap().features)
        .collect();
    (generator, cases)
}

#[test]
fn feature_set_operations_allocate_nothing() {
    let (_, cases) = generator_and_cases();
    let eq = Feature::binary_op(BinaryOp::Eq);
    let sin = Feature::function(ScalarFunction::Sin);
    let mut union = FeatureSet::new();
    let mut checksum = 0usize;
    let allocations = allocations_during(|| {
        for case in &cases {
            let mut set = case.clone();
            set.insert(eq);
            set.insert(sin);
            union.extend(&set);
            checksum += set.len() + usize::from(set.contains(eq));
            checksum += usize::from(case.is_subset_of(&union));
            checksum += union.difference(case).len() + case.complement().len();
            checksum += case.iter().count();
            checksum += usize::from(set == *case);
        }
    });
    assert!(checksum > 0);
    assert_eq!(allocations, 0, "FeatureSet operations allocated");
}

#[test]
fn recording_outcomes_allocates_nothing_across_suppression_refreshes() {
    let (mut generator, cases) = generator_and_cases();
    // Warm up: every feature of the cases gets a count, and suppression
    // has refreshed at least once.
    for (index, case) in cases.iter().enumerate() {
        generator.record_outcome(case, FeatureKind::Query, index % 3 != 0);
    }
    let interval = generator.config().update_interval as usize;
    let records = 4 * interval;
    let allocations = allocations_during(|| {
        for index in 0..records {
            let case = &cases[index % cases.len()];
            generator.record_outcome(case, FeatureKind::Query, index % 5 == 0);
            generator.record_outcome(case, FeatureKind::DdlDml, index % 2 == 0);
        }
    });
    assert_eq!(
        allocations, 0,
        "{records} records (with refreshes) allocated"
    );
}

#[test]
fn observing_cases_allocates_nothing_once_the_window_exists() {
    let (_, cases) = generator_and_cases();
    let oracles = [
        OracleKind::Tlp,
        OracleKind::NoRec,
        OracleKind::Rollback,
        OracleKind::Isolation,
    ];
    let verdicts = [
        TraceVerdict::Pass,
        TraceVerdict::Invalid,
        TraceVerdict::Bug,
        TraceVerdict::InfraFailed,
        TraceVerdict::Panicked,
    ];
    let mut atlas = CampaignCoverage::default();
    atlas.begin_database();
    // Warm up: the cases' saturation windows exist.
    for (index, case) in cases.iter().enumerate() {
        atlas.observe_case(oracles[index % 4], verdicts[index % 5], case, index as u64);
    }
    atlas.begin_database();
    let allocations = allocations_during(|| {
        for (index, case) in cases.iter().enumerate() {
            atlas.observe_case(oracles[index % 4], verdicts[index % 5], case, index as u64);
        }
    });
    assert!(atlas.saturation.novel_features > 0);
    assert_eq!(allocations, 0, "observing {} cases allocated", cases.len());
}
