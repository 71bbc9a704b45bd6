//! # sql-engine
//!
//! A complete in-memory relational engine built for the SQLancer++
//! reproduction ("Scaling Automated Database System Testing", ASPLOS 2026).
//!
//! The paper evaluates its testing platform against 18 third-party DBMSs;
//! this crate is the substrate that stands in for them: it parses SQL text
//! (via `sql-parser`), maintains a catalog, stores rows, evaluates
//! expressions under either a dynamic (SQLite-like) or strict
//! (PostgreSQL-like) typing discipline, and executes queries through two
//! paths:
//!
//! * an **optimizing** path (expression rewrites, predicate handling, index
//!   access paths), and
//! * a **non-optimizing reference** path that executes the query exactly as
//!   written.
//!
//! On both paths, expressions are evaluated by a **closure-compiled**
//! evaluator by default ([`compile_expr`]; plans are cached per
//! [`Database`]), with the tree-walking [`Evaluator`] kept as the
//! observationally-identical reference arm ([`EvalStrategy::TreeWalk`]).
//!
//! The engine is transactional: `BEGIN [DEFERRED | IMMEDIATE]`/`COMMIT`/
//! `ROLLBACK`/`SAVEPOINT`/`ROLLBACK TO`/`RELEASE SAVEPOINT` run against a
//! stack of copy-on-write snapshot frames (see the `txn` module), giving
//! explicit transactions snapshot semantics over the in-memory storage
//! while autocommit remains the default. The `session` module layers
//! **concurrent sessions** on top: [`Engine`] is a shared storage core,
//! [`Engine::session`] hands out per-connection handles with begin-time
//! snapshot reads and first-committer-wins conflict detection (`COMMIT`
//! can fail with a serialization error).
//!
//! Logic bugs can be *injected* via [`FaultConfig`]: each [`Fault`] enables one
//! wrong rewrite, access-path shortcut, or evaluation quirk, several of them
//! modeled on real bugs discussed in the paper. The `dbms-sim` crate layers
//! dialect feature-gating and bug ground truth on top of this engine to
//! build the simulated DBMS fleet that SQLancer++ is evaluated against.
//!
//! # Examples
//!
//! ```
//! use sql_engine::{Database, EngineConfig};
//!
//! let mut db = Database::new(EngineConfig::dynamic());
//! db.execute_sql("CREATE TABLE t0 (c0 INTEGER PRIMARY KEY, c1 TEXT)").unwrap();
//! db.execute_sql("INSERT INTO t0 (c0, c1) VALUES (1, 'a'), (2, 'b')").unwrap();
//! let rs = db.query_sql("SELECT c1 FROM t0 WHERE c0 = 2").unwrap();
//! assert_eq!(rs.rows, vec![vec![sql_ast::Value::text("b")]]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
mod compile;
mod config;
mod coverage;
mod error;
mod eval;
mod exec;
mod faults;
mod functions;
mod optimizer;
mod session;
mod storage;
mod txn;

pub use catalog::{Catalog, Column, IndexDef, TableSchema, ViewDef};
pub use compile::{compile_expr, CompiledExpr, SiteExpr};
pub use config::{EngineConfig, EvalStrategy, TypingMode};
pub use coverage::{CoveragePoints, CoverageTracker, PlanOperator};
pub use error::{EngineError, EngineResult, ErrorKind};
pub use eval::{Evaluator, RelationBinding, Scope};
pub use exec::{
    execute_select, execute_select_in_scope, execute_statement, ExecutionMode, StatementResult,
};
pub use faults::{Fault, FaultConfig};
pub use functions::{eval_function, eval_function_unchecked};
pub use optimizer::{optimize_select, rewrite_predicate};
pub use session::{CowStats, Engine, EngineSession, SERIALIZATION_FAILURE};
pub use storage::{ColumnStats, Database, ResultSet, Row, TableStats};
