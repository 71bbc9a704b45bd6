//! # sql-ast
//!
//! SQL abstract syntax tree, value model and SQL rendering for the
//! SQLancer++ reproduction ("Scaling Automated Database System Testing",
//! ASPLOS 2026).
//!
//! This crate is the shared vocabulary of the whole workspace:
//!
//! * the **adaptive statement generator** (`sqlancer-core`) builds
//!   [`Statement`]s and renders them to SQL text,
//! * the **parser** (`sql-parser`) turns SQL text back into these ASTs,
//! * the **engine** (`sql-engine`) and the **simulated DBMS fleet**
//!   (`dbms-sim`) evaluate them to [`Value`] rows.
//!
//! # Examples
//!
//! ```
//! use sql_ast::{Expr, Select, SelectItem, TableWithJoins};
//!
//! let mut query = Select::new();
//! query.projections.push(SelectItem::expr(Expr::column("c0")));
//! query.from.push(TableWithJoins::table("t0"));
//! query.where_clause = Some(Expr::column("c0").eq(Expr::integer(42)));
//! assert_eq!(query.to_string(), "SELECT c0 FROM t0 WHERE (c0 = 42)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod expr;
mod func;
pub mod hash;
mod ops;
mod select;
mod stmt;
mod types;
mod value;

pub use expr::{CaseBranch, ColumnRef, Expr};
pub use func::{AggregateFunction, FunctionCategory, ScalarFunction};
pub use hash::{fnv1a64, mix_seed, row_fingerprint, splitmix64, Fingerprint128};
pub use ops::{BinaryOp, UnaryOp};
pub use select::{
    Join, JoinType, OrderByItem, Select, SelectItem, SetOperation, SetOperator, SortOrder,
    TableFactor, TableWithJoins,
};
pub use stmt::{
    BeginMode, ColumnConstraint, ColumnDef, CreateIndex, CreateTable, CreateView, Delete, DropKind,
    Insert, Statement, StatementKind, TableConstraint, Update,
};
pub use types::DataType;
pub use value::{format_real, parse_numeric_prefix, TruthValue, Value};
