//! The internal schema model.
//!
//! SQLancer++ never queries `information_schema`, `sqlite_master` or any
//! other DBMS-specific metadata interface (challenge C2 of the paper).
//! Instead it maintains its own model of the schema: whenever a generated
//! DDL statement *succeeds* on the DBMS under test, the corresponding object
//! is added to the model (Figure 3); when it fails, the model is left
//! untouched.

use crate::json::{json_name, json_record};
use rand::seq::SliceRandom;
use rand::Rng;
use sql_ast::{DataType, Statement};

/// A column in the schema model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelColumn {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Whether the column is (directly or via PK) NOT NULL.
    pub not_null: bool,
    /// Whether the column is part of the primary key.
    pub primary_key: bool,
}

/// A table (or view) in the schema model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelTable {
    /// Object name.
    pub name: String,
    /// Columns, in declaration order.
    pub columns: Vec<ModelColumn>,
    /// Whether this object is a view (views are not insert targets).
    pub is_view: bool,
    /// Approximate number of rows successfully inserted so far.
    pub approx_rows: usize,
}

impl ModelTable {
    /// Names of all columns.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

/// An index in the schema model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIndex {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed columns.
    pub columns: Vec<String>,
    /// Whether the index is unique.
    pub unique: bool,
}

/// The internal model of the database schema (Figure 3 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaModel {
    tables: Vec<ModelTable>,
    indexes: Vec<ModelIndex>,
    name_counter: usize,
}

json_name!(DataType: |t: &DataType| t.sql_keyword(), DataType::from_keyword);
json_record!(struct ModelColumn { name, data_type, not_null, primary_key });
json_record!(struct ModelTable { name, is_view, approx_rows, columns });
json_record!(struct ModelIndex { name, table, columns, unique });
// The name counter is carried verbatim: it advances even for DDL the DBMS
// rejected and for query-time subquery aliases, so it cannot be
// recomputed from the surviving objects.
json_record!(struct SchemaModel { name_counter, tables, indexes });

impl SchemaModel {
    /// Creates an empty model.
    pub fn new() -> SchemaModel {
        SchemaModel::default()
    }

    /// The monotone counter behind [`SchemaModel::free_name`].
    pub fn name_counter(&self) -> usize {
        self.name_counter
    }

    /// All tables and views.
    pub fn tables(&self) -> &[ModelTable] {
        &self.tables
    }

    /// All base tables (no views).
    pub fn base_tables(&self) -> Vec<&ModelTable> {
        self.tables.iter().filter(|t| !t.is_view).collect()
    }

    /// All indexes.
    pub fn indexes(&self) -> &[ModelIndex] {
        &self.indexes
    }

    /// Looks up a table or view by name.
    pub fn table(&self, name: &str) -> Option<&ModelTable> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Number of tables and views in the model.
    pub fn object_count(&self) -> usize {
        self.tables.len() + self.indexes.len()
    }

    /// Returns a fresh object name with the given prefix (`t0`, `t1`, ...,
    /// `v0`, `i0`, ... share one counter so names never collide).
    pub fn free_name(&mut self, prefix: &str) -> String {
        let name = format!("{prefix}{}", self.name_counter);
        self.name_counter += 1;
        name
    }

    /// Picks a random table or view.
    pub fn random_table<R: Rng>(&self, rng: &mut R) -> Option<&ModelTable> {
        self.tables.choose(rng)
    }

    /// Picks a random base table (insertable).
    pub fn random_base_table<R: Rng>(&self, rng: &mut R) -> Option<&ModelTable> {
        // The draw `choose` makes over `base_tables()`, without collecting.
        let count = self.base_table_count();
        if count == 0 {
            return None;
        }
        let index = rng.gen_range(0..count);
        self.tables.iter().filter(|t| !t.is_view).nth(index)
    }

    /// The number of base tables (no views).
    pub fn base_table_count(&self) -> usize {
        self.tables.iter().filter(|t| !t.is_view).count()
    }

    /// Applies a *successfully executed* statement to the model. This is the
    /// only way the model changes, mirroring the paper's "add the object to
    /// the model only if the DBMS reports success" rule.
    pub fn apply_success(&mut self, stmt: &Statement) {
        match stmt {
            Statement::CreateTable(create) => {
                if self.table(&create.name).is_some() {
                    return;
                }
                let mut columns: Vec<ModelColumn> = create
                    .columns
                    .iter()
                    .map(|c| ModelColumn {
                        name: c.name.clone(),
                        data_type: c.data_type,
                        not_null: c.is_not_null(),
                        primary_key: c.has_primary_key(),
                    })
                    .collect();
                for constraint in &create.constraints {
                    if let sql_ast::TableConstraint::PrimaryKey(cols) = constraint {
                        for col in cols {
                            if let Some(c) = columns
                                .iter_mut()
                                .find(|c| c.name.eq_ignore_ascii_case(col))
                            {
                                c.primary_key = true;
                                c.not_null = true;
                            }
                        }
                    }
                }
                self.tables.push(ModelTable {
                    name: create.name.clone(),
                    columns,
                    is_view: false,
                    approx_rows: 0,
                });
            }
            Statement::CreateView(create) => {
                if self.table(&create.name).is_some() {
                    return;
                }
                // Column types of a view are unknown to the model; we record
                // names (either declared or positional) and treat types as
                // Integer for generation purposes, which mirrors the paper's
                // conservative handling of view columns.
                let columns: Vec<ModelColumn> = if create.columns.is_empty() {
                    (0..create.query.projections.len())
                        .map(|i| ModelColumn {
                            name: format!("c{i}"),
                            data_type: DataType::Integer,
                            not_null: false,
                            primary_key: false,
                        })
                        .collect()
                } else {
                    create
                        .columns
                        .iter()
                        .map(|name| ModelColumn {
                            name: name.clone(),
                            data_type: DataType::Integer,
                            not_null: false,
                            primary_key: false,
                        })
                        .collect()
                };
                self.tables.push(ModelTable {
                    name: create.name.clone(),
                    columns,
                    is_view: true,
                    approx_rows: 0,
                });
            }
            Statement::CreateIndex(create) => {
                self.indexes.push(ModelIndex {
                    name: create.name.clone(),
                    table: create.table.clone(),
                    columns: create.columns.clone(),
                    unique: create.unique,
                });
            }
            Statement::Insert(insert) => {
                if let Some(t) = self
                    .tables
                    .iter_mut()
                    .find(|t| t.name.eq_ignore_ascii_case(&insert.table))
                {
                    t.approx_rows += insert.values.len();
                }
            }
            Statement::Delete(delete) => {
                if let Some(t) = self
                    .tables
                    .iter_mut()
                    .find(|t| t.name.eq_ignore_ascii_case(&delete.table))
                {
                    t.approx_rows = 0;
                }
            }
            Statement::Drop { kind, name, .. } => match kind {
                sql_ast::DropKind::Table | sql_ast::DropKind::View => {
                    self.tables.retain(|t| !t.name.eq_ignore_ascii_case(name));
                    self.indexes.retain(|i| !i.table.eq_ignore_ascii_case(name));
                }
                sql_ast::DropKind::Index => {
                    self.indexes.retain(|i| !i.name.eq_ignore_ascii_case(name));
                }
            },
            _ => {}
        }
    }

    /// Clears the model (used when the DBMS is reset between test cases).
    pub fn clear(&mut self) {
        self.tables.clear();
        self.indexes.clear();
        self.name_counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql_parser::parse_statement;

    fn apply(model: &mut SchemaModel, sql: &str) {
        model.apply_success(&parse_statement(sql).unwrap());
    }

    #[test]
    fn model_follows_successful_ddl_only() {
        // Mirrors Figure 3: the failed ALTER in the paper never reaches
        // apply_success, so the model keeps the original column.
        let mut model = SchemaModel::new();
        apply(&mut model, "CREATE TABLE t0 (c0 INT, PRIMARY KEY (c0))");
        apply(&mut model, "CREATE VIEW v0 (c0) AS SELECT c0 + 1 FROM t0");
        assert_eq!(model.tables().len(), 2);
        let t0 = model.table("t0").unwrap();
        assert!(t0.columns[0].primary_key);
        assert!(model.table("v0").unwrap().is_view);
        assert_eq!(model.base_tables().len(), 1);
    }

    #[test]
    fn insert_and_delete_track_approximate_rows() {
        let mut model = SchemaModel::new();
        apply(&mut model, "CREATE TABLE t0 (c0 INT)");
        apply(&mut model, "INSERT INTO t0 (c0) VALUES (1), (2)");
        assert_eq!(model.table("t0").unwrap().approx_rows, 2);
        apply(&mut model, "DELETE FROM t0");
        assert_eq!(model.table("t0").unwrap().approx_rows, 0);
    }

    #[test]
    fn drop_removes_objects_and_dependent_indexes() {
        let mut model = SchemaModel::new();
        apply(&mut model, "CREATE TABLE t0 (c0 INT)");
        apply(&mut model, "CREATE INDEX i0 ON t0(c0)");
        assert_eq!(model.indexes().len(), 1);
        apply(&mut model, "DROP TABLE t0");
        assert!(model.tables().is_empty());
        assert!(model.indexes().is_empty());
    }

    #[test]
    fn free_names_never_collide() {
        let mut model = SchemaModel::new();
        let a = model.free_name("t");
        let b = model.free_name("t");
        let c = model.free_name("v");
        assert_ne!(a, b);
        assert!(!c.ends_with(&a[1..]) || a[1..] != c[1..]);
    }

    #[test]
    fn random_pickers_respect_view_distinction() {
        let mut model = SchemaModel::new();
        apply(&mut model, "CREATE TABLE t0 (c0 INT)");
        apply(&mut model, "CREATE VIEW v0 (c0) AS SELECT c0 FROM t0");
        let mut rng = rand::rngs::mock::StepRng::new(0, 7);
        for _ in 0..10 {
            let t = model.random_base_table(&mut rng).unwrap();
            assert_eq!(t.name, "t0");
        }
        assert!(model.random_table(&mut rng).is_some());
    }
}
