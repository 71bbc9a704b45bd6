//! Transaction frames against a reference model: seeded random scripts of
//! DML, DDL, `ANALYZE` and transaction control, where every `ROLLBACK` and
//! `ROLLBACK TO` must restore exactly the tables (existence, rows in
//! storage order, statistics) observed when its frame opened, and every
//! statement must fail exactly when the model says it must. Each script
//! runs on a plain [`Database`] and on a single [`Engine`] session.

use sql_ast::{Statement, Value};
use sql_engine::{Database, Engine, EngineConfig, EngineSession, StatementResult, TableStats};
use sql_parser::parse_statement;
use std::collections::BTreeMap;

const TABLES: [&str; 3] = ["t0", "t1", "t2"];
const SAVEPOINTS: [&str; 3] = ["s0", "s1", "s2"];

/// What one table looks like from outside: `None` when it does not exist,
/// otherwise its rows in storage order and (where observable) its stats.
type TableState = Option<(Vec<Vec<Value>>, Option<TableStats>)>;
type State = BTreeMap<&'static str, TableState>;

/// A small deterministic generator (splitmix64), so a failing seed replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// One statement of a script, with what the model needs to know about it.
enum Step {
    Begin,
    Commit,
    Rollback,
    Savepoint(&'static str),
    RollbackTo(&'static str),
    Release(&'static str),
    /// DML or `ANALYZE`: fails exactly when the table does not exist.
    Write(String, &'static str),
    Create(&'static str),
    Drop(&'static str),
}

impl Step {
    fn sql(&self) -> String {
        match self {
            Step::Begin => "BEGIN".into(),
            Step::Commit => "COMMIT".into(),
            Step::Rollback => "ROLLBACK".into(),
            Step::Savepoint(s) => format!("SAVEPOINT {s}"),
            Step::RollbackTo(s) => format!("ROLLBACK TO {s}"),
            Step::Release(s) => format!("RELEASE SAVEPOINT {s}"),
            Step::Write(sql, _) => sql.clone(),
            Step::Create(t) => format!("CREATE TABLE {t} (c0 INTEGER, c1 TEXT)"),
            Step::Drop(t) => format!("DROP TABLE {t}"),
        }
    }
}

fn random_step(rng: &mut Rng) -> Step {
    let t = rng.pick(&TABLES);
    let s = rng.pick(&SAVEPOINTS);
    let k = rng.below(6);
    match rng.below(20) {
        0..=1 => Step::Begin,
        2 => Step::Commit,
        3 => Step::Rollback,
        4..=5 => Step::Savepoint(s),
        6..=7 => Step::RollbackTo(s),
        8 => Step::Release(s),
        9 => Step::Create(t),
        10 => Step::Drop(t),
        11..=13 => Step::Write(
            format!(
                "INSERT INTO {t} (c0, c1) VALUES ({k}, 'v{k}'), ({}, NULL)",
                k + 1
            ),
            t,
        ),
        14..=15 => Step::Write(
            format!("UPDATE {t} SET c0 = c0 + 10, c1 = 'u{k}' WHERE c0 <= {k}"),
            t,
        ),
        16..=17 => Step::Write(format!("DELETE FROM {t} WHERE c0 = {k}"), t),
        _ => Step::Write(format!("ANALYZE {t}"), t),
    }
}

/// The system under test: a plain database or one engine session.
enum Target {
    Database(Box<Database>),
    Session(EngineSession),
}

impl Target {
    fn execute(&mut self, sql: &str) -> Result<StatementResult, String> {
        let result = match self {
            Target::Database(db) => db.execute_sql(sql),
            Target::Session(session) => session.execute(&parse_statement(sql).unwrap()),
        };
        result.map_err(|e| e.message)
    }

    fn observe(&mut self) -> State {
        let mut state = State::new();
        for t in TABLES {
            let table = match self.execute(&format!("SELECT * FROM {t}")) {
                Ok(StatementResult::Rows(rs)) => {
                    // A session's in-transaction statistics live in its
                    // private workspace, which is not observable.
                    let stats = match self {
                        Target::Database(db) => db.stats(t).cloned(),
                        Target::Session(_) => None,
                    };
                    Some((rs.rows, stats))
                }
                Ok(other) => panic!("SELECT returned {other:?}"),
                Err(_) => None,
            };
            state.insert(t, table);
        }
        state
    }

    fn depth(&self) -> Option<usize> {
        match self {
            Target::Database(db) => Some(db.transaction_depth()),
            Target::Session(_) => None,
        }
    }
}

/// Runs one seeded script on `target`, checking every statement against the
/// frame model. Returns how many rewinds (`ROLLBACK`, `ROLLBACK TO`) ran.
fn check_script(seed: u64, statements: usize, mut target: Target) -> usize {
    let mut rng = Rng(seed);
    // One model frame per open `BEGIN`/`SAVEPOINT`: its name and the state
    // observed when it opened.
    let mut frames: Vec<(Option<&'static str>, State)> = Vec::new();
    let mut rewinds = 0;
    for i in 0..statements {
        let step = random_step(&mut rng);
        let sql = step.sql();
        let before = target.observe();
        let in_txn = !frames.is_empty();
        let named = |name: &str| frames.iter().rposition(|(s, _)| *s == Some(name));
        let expect_ok = match &step {
            Step::Begin => !in_txn,
            Step::Commit => true,
            Step::Rollback | Step::Savepoint(_) => in_txn,
            Step::RollbackTo(s) | Step::Release(s) => named(s).is_some(),
            Step::Write(_, t) | Step::Drop(t) => before[t].is_some(),
            Step::Create(t) => before[t].is_none(),
        };
        let result = target.execute(&sql);
        let context = format!("seed {seed}, statement {i}: {sql} -> {result:?}");
        assert_eq!(result.is_ok(), expect_ok, "{context}");
        let after = target.observe();
        if result.is_err() {
            assert_eq!(after, before, "{context}: a failed statement changed state");
            continue;
        }
        match step {
            Step::Begin => frames.push((None, before)),
            Step::Savepoint(s) => frames.push((Some(s), before)),
            Step::Commit => {
                frames.clear();
                assert_eq!(after, before, "{context}");
            }
            Step::Rollback => {
                let (_, begin) = frames.swap_remove(0);
                frames.clear();
                assert_eq!(after, begin, "{context}: ROLLBACK");
                rewinds += 1;
            }
            Step::RollbackTo(s) => {
                let index = named(s).unwrap();
                frames.truncate(index + 1);
                assert_eq!(after, frames[index].1, "{context}: ROLLBACK TO");
                rewinds += 1;
            }
            Step::Release(s) => {
                frames.truncate(named(s).unwrap());
                assert_eq!(after, before, "{context}");
            }
            Step::Write(..) | Step::Create(_) | Step::Drop(_) => {}
        }
        if let Some(depth) = target.depth() {
            assert_eq!(depth, frames.len(), "{context}: transaction depth");
        }
    }
    rewinds
}

fn setup() -> Vec<Statement> {
    [
        "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
        "CREATE TABLE t1 (c0 INTEGER, c1 TEXT)",
        "INSERT INTO t0 (c0, c1) VALUES (0, 'a'), (1, 'b'), (2, NULL)",
        "INSERT INTO t1 (c0, c1) VALUES (3, 'c')",
        "ANALYZE t1",
    ]
    .iter()
    .map(|sql| parse_statement(sql).unwrap())
    .collect()
}

#[test]
fn random_scripts_rewind_to_exactly_the_frame_states() {
    let mut rewinds = 0;
    for seed in 0..150 {
        let mut db = Database::new(EngineConfig::dynamic());
        for stmt in setup() {
            db.execute(&stmt).unwrap();
        }
        rewinds += check_script(seed, 80, Target::Database(Box::new(db)));

        let engine = Engine::new(EngineConfig::dynamic());
        let mut session = engine.session();
        for stmt in setup() {
            session.execute(&stmt).unwrap();
        }
        rewinds += check_script(seed, 80, Target::Session(session));
    }
    assert!(rewinds > 500, "only {rewinds} rewinds were checked");
}

/// Copy-on-write detaches of a fixed nested-savepoint session: a table
/// detaches on its first write under a frame that still shares its version
/// (six times here), and is written in place while its version is private.
#[test]
fn nested_savepoints_detach_each_table_version_once() {
    let engine = Engine::new(EngineConfig::dynamic());
    let mut session = engine.session();
    for stmt in setup() {
        session.execute(&stmt).unwrap();
    }
    for sql in [
        "BEGIN",
        "INSERT INTO t0 (c0, c1) VALUES (3, 'd')",
        "INSERT INTO t0 (c0, c1) VALUES (4, 'e')",
        "SAVEPOINT a",
        "UPDATE t0 SET c0 = c0 + 1",
        "SAVEPOINT b",
        "DELETE FROM t1",
        "INSERT INTO t1 (c0, c1) VALUES (5, 'f')",
        "ROLLBACK TO b",
        "INSERT INTO t1 (c0, c1) VALUES (6, 'g')",
        "SAVEPOINT a",
        "DELETE FROM t0 WHERE c0 = 1",
        "RELEASE SAVEPOINT a",
        "INSERT INTO t0 (c0, c1) VALUES (7, 'h')",
        "ANALYZE t0",
        "ROLLBACK TO a",
        "INSERT INTO t1 (c0, c1) VALUES (8, 'i')",
        "RELEASE SAVEPOINT a",
        "DELETE FROM t0 WHERE c0 = 0",
        "COMMIT",
    ] {
        session.execute(&parse_statement(sql).unwrap()).unwrap();
    }
    assert_eq!(engine.cow_stats().tables_cow_cloned, 6);
}
