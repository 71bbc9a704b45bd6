//! Schema catalog: tables, views and indexes known to the engine.
//!
//! Every definition is immutable once registered and lives behind an `Arc`,
//! and the three name maps themselves sit behind one more `Arc`. Cloning a
//! [`Catalog`] — which every `BEGIN` frame, session snapshot, checkpoint and
//! restore does through [`crate::Database`] — is therefore one pointer bump
//! and allocates nothing; DDL detaches the maps copy-on-write
//! ([`Arc::make_mut`]) before changing them. Statements that read a table's
//! schema take it as a shared [`Arc<TableSchema>`] ([`Catalog::shared_table`])
//! instead of copying it.
//!
//! A [`TableSchema`] also caches its declared unique keys as column
//! positions (primary key, unique columns, unique table constraints), so
//! uniqueness checks never resolve or clone column names.

use crate::error::{EngineError, EngineResult};
use sql_ast::{ColumnDef, CreateIndex, CreateTable, CreateView, DataType, Expr, Select};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A column of a stored table.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// `NOT NULL` (directly or via primary key).
    pub not_null: bool,
    /// Unique (directly, via primary key, or via a single-column unique
    /// table constraint).
    pub unique: bool,
    /// Part of the primary key.
    pub primary_key: bool,
    /// Default expression, if declared.
    pub default: Option<Expr>,
}

/// The schema of a stored table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Columns (by name) forming the primary key, in key order.
    pub primary_key: Vec<String>,
    /// Additional unique constraints (each a list of column names).
    pub unique_constraints: Vec<Vec<String>>,
    /// Cached shared view of the column names, built once at creation and
    /// handed to every scan's [`crate::RelationBinding`] without cloning.
    shared_column_names: Arc<Vec<String>>,
    /// The declared unique keys as column positions, in enforcement order:
    /// the primary key, then each unique column not already the whole
    /// primary key, then each unique table constraint.
    unique_keys: Vec<Vec<usize>>,
}

impl TableSchema {
    /// Builds a schema from a `CREATE TABLE` statement.
    ///
    /// # Errors
    ///
    /// Returns an error for duplicate column names or constraints that
    /// reference unknown columns.
    pub fn from_create(create: &CreateTable) -> EngineResult<TableSchema> {
        let mut columns: Vec<Column> = Vec::new();
        for def in &create.columns {
            if columns
                .iter()
                .any(|c| c.name.eq_ignore_ascii_case(&def.name))
            {
                return Err(EngineError::catalog(format!(
                    "duplicate column name '{}'",
                    def.name
                )));
            }
            columns.push(column_from_def(def));
        }
        if columns.is_empty() {
            return Err(EngineError::catalog("a table requires at least one column"));
        }
        let mut primary_key: Vec<String> = columns
            .iter()
            .filter(|c| c.primary_key)
            .map(|c| c.name.clone())
            .collect();
        let mut unique_constraints = Vec::new();
        for constraint in &create.constraints {
            match constraint {
                sql_ast::TableConstraint::PrimaryKey(cols) => {
                    if !primary_key.is_empty() {
                        return Err(EngineError::catalog("multiple primary keys declared"));
                    }
                    for col in cols {
                        let found = columns
                            .iter_mut()
                            .find(|c| c.name.eq_ignore_ascii_case(col))
                            .ok_or_else(|| {
                                EngineError::catalog(format!(
                                    "primary key references unknown column '{col}'"
                                ))
                            })?;
                        found.primary_key = true;
                        found.not_null = true;
                        if cols.len() == 1 {
                            found.unique = true;
                        }
                    }
                    primary_key = cols.clone();
                }
                sql_ast::TableConstraint::Unique(cols) => {
                    for col in cols {
                        let found = columns
                            .iter_mut()
                            .find(|c| c.name.eq_ignore_ascii_case(col))
                            .ok_or_else(|| {
                                EngineError::catalog(format!(
                                    "unique constraint references unknown column '{col}'"
                                ))
                            })?;
                        if cols.len() == 1 {
                            found.unique = true;
                        }
                    }
                    unique_constraints.push(cols.clone());
                }
            }
        }
        let shared_column_names = Arc::new(columns.iter().map(|c| c.name.clone()).collect());
        let mut schema = TableSchema {
            name: create.name.clone(),
            columns,
            primary_key,
            unique_constraints,
            shared_column_names,
            unique_keys: Vec::new(),
        };
        schema.unique_keys = schema.declared_unique_keys();
        Ok(schema)
    }

    fn declared_unique_keys(&self) -> Vec<Vec<usize>> {
        let mut keys: Vec<Vec<usize>> = Vec::new();
        if !self.primary_key.is_empty() {
            keys.push(self.positions(&self.primary_key));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if c.unique && !keys.iter().any(|k| k == &[i]) {
                keys.push(vec![i]);
            }
        }
        for uc in &self.unique_constraints {
            keys.push(self.positions(uc));
        }
        keys.retain(|k| !k.is_empty());
        keys
    }

    /// Positions of the named columns, skipping unknown names.
    pub(crate) fn positions(&self, names: &[String]) -> Vec<usize> {
        names.iter().filter_map(|c| self.column_index(c)).collect()
    }

    /// The declared unique keys (primary key, unique columns, unique table
    /// constraints) as column positions. Unique indexes live in the catalog
    /// and are added by the uniqueness checks themselves.
    pub(crate) fn unique_keys(&self) -> &[Vec<usize>] {
        &self.unique_keys
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Names of all columns, in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Shared view of the column names (no per-call allocation).
    pub fn shared_column_names(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.shared_column_names)
    }
}

/// Case-insensitive map key shared by the catalog and row storage.
/// Generated identifiers are already lowercase, so the common case borrows;
/// only mixed-case names allocate.
pub(crate) fn lowercase_key(name: &str) -> std::borrow::Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        std::borrow::Cow::Owned(name.to_ascii_lowercase())
    } else {
        std::borrow::Cow::Borrowed(name)
    }
}

fn column_from_def(def: &ColumnDef) -> Column {
    Column {
        name: def.name.clone(),
        data_type: def.data_type,
        not_null: def.is_not_null(),
        unique: def.is_unique(),
        primary_key: def.has_primary_key(),
        default: def.constraints.iter().find_map(|c| match c {
            sql_ast::ColumnConstraint::Default(e) => Some(e.clone()),
            _ => None,
        }),
    }
}

/// A view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// Optional explicit output column names.
    pub columns: Vec<String>,
    /// The defining query.
    pub query: Select,
}

impl ViewDef {
    /// Builds a view definition from a `CREATE VIEW` statement.
    pub fn from_create(create: &CreateView) -> ViewDef {
        ViewDef {
            name: create.name.clone(),
            columns: create.columns.clone(),
            query: (*create.query).clone(),
        }
    }
}

/// An index definition. The engine builds the actual lookup structure on
/// demand during optimized execution; the catalog only records metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed columns, in key order.
    pub columns: Vec<String>,
    /// Whether the index enforces uniqueness.
    pub unique: bool,
    /// Partial-index predicate, if any.
    pub predicate: Option<Expr>,
}

impl IndexDef {
    /// Builds an index definition from a `CREATE INDEX` statement.
    pub fn from_create(create: &CreateIndex) -> IndexDef {
        IndexDef {
            name: create.name.clone(),
            table: create.table.clone(),
            columns: create.columns.clone(),
            unique: create.unique,
            predicate: create.where_clause.clone(),
        }
    }
}

/// The full schema catalog.
///
/// Keys are stored lowercase so lookups are case-insensitive, mirroring how
/// most DBMSs fold unquoted identifiers.
///
/// The maps live behind one `Arc` and every definition behind its own, so
/// cloning a catalog is a single pointer bump; the first DDL on a clone
/// detaches the maps (copying one pointer per object, never a schema, view
/// query or index predicate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    maps: Arc<CatalogMaps>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct CatalogMaps {
    tables: BTreeMap<String, Arc<TableSchema>>,
    views: BTreeMap<String, Arc<ViewDef>>,
    indexes: BTreeMap<String, Arc<IndexDef>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn key(name: &str) -> std::borrow::Cow<'_, str> {
        lowercase_key(name)
    }

    /// The maps, detached from every other clone of this catalog.
    fn maps_mut(&mut self) -> &mut CatalogMaps {
        Arc::make_mut(&mut self.maps)
    }

    /// Is any object (table, view or index) with this name present?
    pub fn name_in_use(&self, name: &str) -> bool {
        let k = Self::key(name);
        self.maps.tables.contains_key(k.as_ref())
            || self.maps.views.contains_key(k.as_ref())
            || self.maps.indexes.contains_key(k.as_ref())
    }

    /// Adds a table schema.
    ///
    /// # Errors
    ///
    /// Fails if an object with the same name already exists.
    pub fn add_table(&mut self, schema: TableSchema) -> EngineResult<()> {
        if self.name_in_use(&schema.name) {
            return Err(EngineError::catalog(format!(
                "object '{}' already exists",
                schema.name
            )));
        }
        self.maps_mut()
            .tables
            .insert(Self::key(&schema.name).into_owned(), Arc::new(schema));
        Ok(())
    }

    /// Adds a view.
    ///
    /// # Errors
    ///
    /// Fails if an object with the same name already exists.
    pub fn add_view(&mut self, view: ViewDef) -> EngineResult<()> {
        if self.name_in_use(&view.name) {
            return Err(EngineError::catalog(format!(
                "object '{}' already exists",
                view.name
            )));
        }
        self.maps_mut()
            .views
            .insert(Self::key(&view.name).into_owned(), Arc::new(view));
        Ok(())
    }

    /// Adds an index.
    ///
    /// # Errors
    ///
    /// Fails if an object with the same name already exists or the indexed
    /// table does not.
    pub fn add_index(&mut self, index: IndexDef) -> EngineResult<()> {
        if self.name_in_use(&index.name) {
            return Err(EngineError::catalog(format!(
                "object '{}' already exists",
                index.name
            )));
        }
        if self.table(&index.table).is_none() {
            return Err(EngineError::catalog(format!(
                "cannot index unknown table '{}'",
                index.table
            )));
        }
        self.maps_mut()
            .indexes
            .insert(Self::key(&index.name).into_owned(), Arc::new(index));
        Ok(())
    }

    /// Looks up a table schema.
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.maps
            .tables
            .get(Self::key(name).as_ref())
            .map(Arc::as_ref)
    }

    /// Looks up a table schema as a shared handle (a pointer bump, never a
    /// schema copy), for statements that hold it while mutating storage.
    pub fn shared_table(&self, name: &str) -> Option<Arc<TableSchema>> {
        self.maps.tables.get(Self::key(name).as_ref()).cloned()
    }

    /// Looks up a view.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.maps
            .views
            .get(Self::key(name).as_ref())
            .map(Arc::as_ref)
    }

    /// Looks up an index.
    pub fn index(&self, name: &str) -> Option<&IndexDef> {
        self.maps
            .indexes
            .get(Self::key(name).as_ref())
            .map(Arc::as_ref)
    }

    /// All indexes on a table.
    pub fn indexes_on<'a>(&'a self, table: &'a str) -> impl Iterator<Item = &'a IndexDef> + 'a {
        self.maps
            .indexes
            .values()
            .map(Arc::as_ref)
            .filter(move |i| i.table.eq_ignore_ascii_case(table))
    }

    /// Removes a table (and its indexes). Returns `false` if absent.
    pub fn drop_table(&mut self, name: &str) -> bool {
        if self.table(name).is_none() {
            return false;
        }
        let maps = self.maps_mut();
        maps.tables.remove(Self::key(name).as_ref());
        maps.indexes
            .retain(|_, i| !i.table.eq_ignore_ascii_case(name));
        true
    }

    /// Removes a view. Returns `false` if absent.
    pub fn drop_view(&mut self, name: &str) -> bool {
        if self.view(name).is_none() {
            return false;
        }
        self.maps_mut().views.remove(Self::key(name).as_ref());
        true
    }

    /// Removes an index. Returns `false` if absent.
    pub fn drop_index(&mut self, name: &str) -> bool {
        if self.index(name).is_none() {
            return false;
        }
        self.maps_mut().indexes.remove(Self::key(name).as_ref());
        true
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.maps.tables.values().map(|t| t.name.clone()).collect()
    }

    /// All table schemas.
    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.maps.tables.values().map(Arc::as_ref)
    }

    /// All views.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.maps.views.values().map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql_ast::Statement;
    use sql_parser::parse_statement;

    fn create_table(sql: &str) -> TableSchema {
        match parse_statement(sql).unwrap() {
            Statement::CreateTable(c) => TableSchema::from_create(&c).unwrap(),
            _ => panic!("not a create table"),
        }
    }

    #[test]
    fn table_constraints_are_propagated_to_columns() {
        let schema =
            create_table("CREATE TABLE t0 (c0 INT, c1 TEXT, PRIMARY KEY (c0), UNIQUE (c1))");
        assert_eq!(schema.primary_key, vec!["c0"]);
        assert!(schema.column("c0").unwrap().not_null);
        assert!(schema.column("c0").unwrap().unique);
        assert!(schema.column("c1").unwrap().unique);
        assert_eq!(schema.unique_constraints.len(), 1);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let c = match parse_statement("CREATE TABLE t0 (c0 INT, c0 TEXT)").unwrap() {
            Statement::CreateTable(c) => c,
            _ => unreachable!(),
        };
        assert!(TableSchema::from_create(&c).is_err());
    }

    #[test]
    fn catalog_prevents_name_collisions_across_kinds() {
        let mut cat = Catalog::new();
        cat.add_table(create_table("CREATE TABLE t0 (c0 INT)"))
            .unwrap();
        let view = ViewDef {
            name: "T0".into(),
            columns: vec![],
            query: Select::new(),
        };
        assert!(cat.add_view(view).is_err());
        assert!(cat.table("T0").is_some(), "lookups are case-insensitive");
    }

    #[test]
    fn dropping_a_table_drops_its_indexes() {
        let mut cat = Catalog::new();
        cat.add_table(create_table("CREATE TABLE t0 (c0 INT)"))
            .unwrap();
        cat.add_index(IndexDef {
            name: "i0".into(),
            table: "t0".into(),
            columns: vec!["c0".into()],
            unique: false,
            predicate: None,
        })
        .unwrap();
        assert_eq!(cat.indexes_on("t0").count(), 1);
        assert!(cat.drop_table("t0"));
        assert!(cat.index("i0").is_none());
    }

    #[test]
    fn index_on_unknown_table_rejected() {
        let mut cat = Catalog::new();
        let err = cat
            .add_index(IndexDef {
                name: "i0".into(),
                table: "missing".into(),
                columns: vec!["c0".into()],
                unique: false,
                predicate: None,
            })
            .unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Catalog);
    }
}
