//! Allocation guard for the engine's statement path.
//!
//! A std-only counting global allocator counts the heap allocations each
//! measured call makes on its own thread, so the guard holds while other
//! tests of this binary run in parallel. It pins three properties:
//!
//! * a one-row INSERT into a unique-keyed table allocates the same no matter
//!   how many rows the table already holds (the key check compares values in
//!   place instead of rendering a key string per existing row);
//! * an UPDATE's allocations grow linearly with the table (the uniqueness
//!   check runs pairwise in place instead of cloning every other row once
//!   per row);
//! * cloning a catalog is a pointer bump.

use sql_ast::Statement;
use sql_engine::{Database, EngineConfig};
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

fn parse(sql: &str) -> Statement {
    sql_parser::parse_statement(sql).unwrap()
}

/// A table with a primary key, a unique column and a composite unique
/// constraint, holding `rows` rows.
fn keyed_table(rows: usize) -> Database {
    let mut db = Database::new(EngineConfig::dynamic());
    db.execute_sql(
        "CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT UNIQUE, c2 INTEGER, UNIQUE (c1, c2))",
    )
    .unwrap();
    let values: Vec<String> = (0..rows)
        .map(|i| format!("({i}, 'v{i}', {})", i % 7))
        .collect();
    db.execute_sql(&format!(
        "INSERT INTO t0 (c0, c1, c2) VALUES {}",
        values.join(", ")
    ))
    .unwrap();
    db
}

fn one_row_insert_allocations(rows: usize) -> u64 {
    let mut db = keyed_table(rows);
    // Warm up: the first statement may fill per-database caches.
    db.execute(&parse("INSERT INTO t0 (c0, c1, c2) VALUES (-1, 'w', 0)"))
        .unwrap();
    let insert = parse("INSERT INTO t0 (c0, c1, c2) VALUES (-2, 'new', 1)");
    allocations_during(|| {
        db.execute(&insert).unwrap();
    })
}

#[test]
fn a_one_row_insert_allocates_the_same_at_any_table_size() {
    let small = one_row_insert_allocations(20);
    let large = one_row_insert_allocations(2_000);
    // Room for one storage-vector growth step on either side.
    assert!(
        large.abs_diff(small) <= 2,
        "one-row INSERT allocations: {small} with 20 rows, {large} with 2000 rows"
    );
}

fn full_update_allocations(rows: usize) -> u64 {
    let mut db = keyed_table(rows);
    db.execute(&parse("UPDATE t0 SET c2 = c2 + 1")).unwrap();
    let update = parse("UPDATE t0 SET c2 = c2 + 1");
    allocations_during(|| {
        db.execute(&update).unwrap();
    })
}

#[test]
fn update_allocations_grow_at_most_linearly() {
    let small = full_update_allocations(100);
    let large = full_update_allocations(400);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio < 6.0,
        "UPDATE allocations: {small} with 100 rows, {large} with 400 rows (ratio {ratio:.2})"
    );
}

#[test]
fn cloning_a_catalog_allocates_nothing() {
    let mut db = keyed_table(3);
    for sql in [
        "CREATE TABLE t1 (c0 INTEGER, c1 TEXT)",
        "CREATE VIEW v0 AS SELECT c0 FROM t0 WHERE c2 > 1",
        "CREATE INDEX i0 ON t1 (c1)",
        "CREATE UNIQUE INDEX i1 ON t0 (c2, c0)",
    ] {
        db.execute_sql(sql).unwrap();
    }
    let mut copy = None;
    let allocations = allocations_during(|| copy = Some(db.catalog.clone()));
    assert_eq!(allocations, 0, "Catalog::clone allocated");
    assert_eq!(copy.as_ref(), Some(&db.catalog));
}
