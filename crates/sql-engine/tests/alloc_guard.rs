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
//! * cloning a catalog is a pointer bump;
//! * a filtered comma product allocates for its inputs and its surviving
//!   rows, not for every candidate pair (WHERE is tested on each pair where
//!   it lies instead of on a copied, concatenated row);
//! * `COUNT(*)` allocates the same at any table size (it counts the group's
//!   rows instead of evaluating a value per row);
//! * coverage accounting never allocates: a fresh database, a fresh
//!   engine and a `BEGIN`…`ROLLBACK` churn cost the same whether or not
//!   they record new coverage points;
//! * a transaction frame is a pointer bump: `BEGIN`…`ROLLBACK` costs the
//!   same over three tables as over one;
//! * `ANALYZE` allocates the same at any table size (distinct values are
//!   counted by dedup identity, not by key strings);
//! * the SELECT path copies only what a query returns: optimizing a query
//!   that no rewrite changes allocates nothing, a query over a view does
//!   not copy the view's definition, and a join that projects one column
//!   allocates per output row, not per joined value.

use sql_ast::Statement;
use sql_engine::{optimize_select, Database, Engine, EngineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
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

/// `t0` and `t1` with `rows` integer rows each, none negative.
fn product_tables(rows: usize) -> Database {
    let mut db = Database::new(EngineConfig::dynamic());
    for table in ["t0", "t1"] {
        db.execute_sql(&format!("CREATE TABLE {table} (c0 INTEGER, c1 INTEGER)"))
            .unwrap();
        let values: Vec<String> = (0..rows).map(|i| format!("({i}, {})", i * 3)).collect();
        db.execute_sql(&format!(
            "INSERT INTO {table} (c0, c1) VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }
    db
}

fn empty_product_allocations(rows: usize) -> u64 {
    let mut db = product_tables(rows);
    let select = parse("SELECT * FROM t0, t1 WHERE t0.c0 < 0");
    // Warm up: the first statement compiles and caches the predicate.
    assert!(db.query_sql(&select.to_string()).unwrap().rows.is_empty());
    allocations_during(|| {
        db.execute(&select).unwrap();
    })
}

#[test]
fn a_filtered_product_allocates_for_its_inputs_not_its_pairs() {
    let small = empty_product_allocations(8);
    let large = empty_product_allocations(64);
    // 8x8 -> 64x64 adds 112 input rows and 4,032 pairs. Building every
    // pair as a row costs at least one allocation per pair.
    let added_inputs = 2 * (64 - 8);
    assert!(
        large.saturating_sub(small) <= added_inputs as u64,
        "SELECT over an empty product allocated {small} times at 8x8 rows and {large} at 64x64"
    );
}

fn count_star_allocations(rows: usize) -> u64 {
    let mut db = product_tables(rows);
    let count = parse("SELECT COUNT(*) FROM t0");
    // Warm up: the first statement fills the per-database caches.
    db.execute(&count).unwrap();
    allocations_during(|| {
        db.execute(&count).unwrap();
    })
}

#[test]
fn count_star_allocates_the_same_at_any_table_size() {
    let small = count_star_allocations(8);
    let large = count_star_allocations(512);
    assert_eq!(
        small, large,
        "SELECT COUNT(*) allocated {small} times over 8 rows and {large} over 512"
    );
}

#[test]
fn a_fresh_database_allocates_only_its_shared_cells() {
    let mut db = None;
    let allocations = allocations_during(|| db = Some(Database::new(EngineConfig::dynamic())));
    // The catalog's shared maps and the plan cache's cell; the coverage
    // planes are plain bits and add nothing.
    assert_eq!(
        allocations, 2,
        "Database::new allocated {allocations} times"
    );
    drop(db);
}

/// Allocations of a `BEGIN`…`ROLLBACK` transaction on an engine whose
/// coverage already holds every point the transaction records (`warm`) or
/// none of them (`cold`).
fn begin_rollback_allocations(warm: bool) -> u64 {
    let engine = Engine::new(EngineConfig::dynamic());
    let mut session = engine.session();
    let churn = [
        parse("BEGIN"),
        parse("SAVEPOINT s0"),
        parse("ROLLBACK TO s0"),
        parse("ROLLBACK"),
    ];
    if warm {
        session.record_coverage(|cov| {
            for stmt in &churn {
                cov.statement(stmt.kind());
            }
        });
    }
    allocations_during(|| {
        for stmt in &churn {
            session.execute(stmt).unwrap();
        }
    })
}

#[test]
fn a_fresh_engine_and_a_begin_rollback_churn_allocate_nothing_for_coverage() {
    let mut engine = None;
    let allocations = allocations_during(|| engine = Some(Engine::new(EngineConfig::dynamic())));
    // The database's two shared cells and the engine core's.
    assert_eq!(allocations, 3, "Engine::new allocated {allocations} times");
    drop(engine);
    let cold = begin_rollback_allocations(false);
    let warm = begin_rollback_allocations(true);
    assert_eq!(
        cold, warm,
        "BEGIN…ROLLBACK allocated {cold} times recording new coverage points, {warm} without"
    );
}

/// Allocations of `BEGIN; SAVEPOINT s0; ROLLBACK TO s0; ROLLBACK` over
/// `tables` tables, one of them analyzed.
fn frame_churn_allocations(tables: usize) -> u64 {
    let mut db = Database::new(EngineConfig::dynamic());
    for t in 0..tables {
        db.execute_sql(&format!("CREATE TABLE t{t} (c0 INTEGER, c1 TEXT)"))
            .unwrap();
        db.execute_sql(&format!(
            "INSERT INTO t{t} (c0, c1) VALUES (1, 'a'), (2, 'b')"
        ))
        .unwrap();
    }
    db.execute_sql("ANALYZE t0").unwrap();
    let churn = [
        parse("BEGIN"),
        parse("SAVEPOINT s0"),
        parse("ROLLBACK TO s0"),
        parse("ROLLBACK"),
    ];
    // Warm up: the first transaction records its coverage points.
    for stmt in &churn {
        db.execute(stmt).unwrap();
    }
    allocations_during(|| {
        for stmt in &churn {
            db.execute(stmt).unwrap();
        }
    })
}

#[test]
fn a_transaction_frame_allocates_the_same_over_any_number_of_tables() {
    let one = frame_churn_allocations(1);
    let three = frame_churn_allocations(3);
    assert_eq!(
        one, three,
        "BEGIN…ROLLBACK allocated {one} times over one table and {three} over three"
    );
}

fn analyze_allocations(rows: usize) -> u64 {
    let mut db = product_tables(rows);
    db.execute_sql("INSERT INTO t0 (c0, c1) VALUES (NULL, 1)")
        .unwrap();
    let analyze = parse("ANALYZE t0");
    // Warm up: the first ANALYZE creates the statistics entry.
    db.execute(&analyze).unwrap();
    allocations_during(|| {
        db.execute(&analyze).unwrap();
    })
}

#[test]
fn analyze_allocates_the_same_at_any_table_size() {
    let small = analyze_allocations(8);
    let large = analyze_allocations(512);
    assert_eq!(
        small, large,
        "ANALYZE allocated {small} times over 8 rows and {large} over 512"
    );
}

fn select(sql: &str) -> sql_ast::Select {
    match parse(sql) {
        Statement::Select(select) => *select,
        other => panic!("not a query: {other}"),
    }
}

#[test]
fn optimizing_a_query_no_rewrite_changes_allocates_nothing() {
    let db = product_tables(2);
    let query = select(
        "SELECT t0.c0, t1.c1 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 + 1 \
         WHERE t0.c1 > 2 AND NOT (t1.c0 IS NULL) GROUP BY t0.c0, t1.c1 HAVING COUNT(*) > 0",
    );
    let mut optimized = None;
    let allocations = allocations_during(|| optimized = Some(optimize_select(&db, &query)));
    assert_eq!(
        allocations, 0,
        "optimize_select allocated {allocations} times"
    );
    assert!(matches!(optimized, Some(Cow::Borrowed(_))));
}

/// Allocations of `SELECT * FROM v0` where the view's predicate is
/// `terms` copies of `c0 >= 0` joined by AND.
fn view_query_allocations(terms: usize) -> u64 {
    let mut db = product_tables(4);
    let pred = vec!["c0 >= 0"; terms].join(" AND ");
    db.execute_sql(&format!("CREATE VIEW v0 AS SELECT c0 FROM t0 WHERE {pred}"))
        .unwrap();
    let query = parse("SELECT * FROM v0");
    // Warm up: the first run compiles and caches the view's predicate.
    db.execute(&query).unwrap();
    allocations_during(|| {
        db.execute(&query).unwrap();
    })
}

#[test]
fn a_query_over_a_view_does_not_copy_the_views_definition() {
    let short = view_query_allocations(1);
    let long = view_query_allocations(16);
    assert_eq!(
        short, long,
        "SELECT over a view allocated {short} times with a 1-term predicate and {long} with 16 terms"
    );
}

/// Allocations of a join that projects one TEXT column out of two tables
/// of 8 rows and `columns` TEXT columns each.
fn one_column_join_allocations(columns: usize) -> u64 {
    let mut db = Database::new(EngineConfig::dynamic());
    let names: Vec<String> = (0..columns).map(|i| format!("c{i}")).collect();
    let values: Vec<String> = (0..8)
        .map(|r| {
            let row: Vec<String> = (0..columns).map(|i| format!("'r{r}v{i}'")).collect();
            format!("({})", row.join(", "))
        })
        .collect();
    for table in ["t0", "t1"] {
        let defs: Vec<String> = names.iter().map(|c| format!("{c} TEXT")).collect();
        db.execute_sql(&format!("CREATE TABLE {table} ({})", defs.join(", ")))
            .unwrap();
        db.execute_sql(&format!(
            "INSERT INTO {table} ({}) VALUES {}",
            names.join(", "),
            values.join(", ")
        ))
        .unwrap();
    }
    let query = parse("SELECT t0.c0 FROM t0 CROSS JOIN t1");
    db.execute(&query).unwrap();
    allocations_during(|| {
        db.execute(&query).unwrap();
    })
}

#[test]
fn a_join_that_projects_one_column_allocates_per_output_row() {
    let narrow = one_column_join_allocations(1);
    let wide = one_column_join_allocations(8);
    // 64 output rows: each is one row vector and one copied string,
    // whatever the width of the joined rows.
    assert_eq!(
        narrow, wide,
        "a one-column join allocated {narrow} times over 1-column tables and {wide} over 8-column tables"
    );
    assert!(
        narrow <= 2 * 64 + 16,
        "a one-column join with 64 output rows allocated {narrow} times"
    );
}
