//! The `SELECT` statement AST (queries).

use crate::expr::Expr;
use std::fmt;

/// A projected item in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS alias`.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Projects an expression without an alias.
    pub fn expr(expr: Expr) -> SelectItem {
        SelectItem::Expr { expr, alias: None }
    }

    /// Projects an expression with an alias.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> SelectItem {
        SelectItem::Expr {
            expr,
            alias: Some(alias.into()),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

/// The type of a join; the paper's generator supports six join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    /// `INNER JOIN`
    Inner,
    /// `LEFT JOIN`
    Left,
    /// `RIGHT JOIN`
    Right,
    /// `FULL JOIN`
    Full,
    /// `CROSS JOIN`
    Cross,
    /// `NATURAL JOIN`
    Natural,
}

impl JoinType {
    /// All join types.
    pub const ALL: [JoinType; 6] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
        JoinType::Cross,
        JoinType::Natural,
    ];

    /// SQL keyword sequence.
    pub fn sql(self) -> &'static str {
        match self {
            JoinType::Inner => "INNER JOIN",
            JoinType::Left => "LEFT JOIN",
            JoinType::Right => "RIGHT JOIN",
            JoinType::Full => "FULL JOIN",
            JoinType::Cross => "CROSS JOIN",
            JoinType::Natural => "NATURAL JOIN",
        }
    }

    /// Canonical feature name (`JOIN_<KIND>`).
    pub const fn feature_name(self) -> &'static str {
        match self {
            JoinType::Inner => "JOIN_INNER",
            JoinType::Left => "JOIN_LEFT",
            JoinType::Right => "JOIN_RIGHT",
            JoinType::Full => "JOIN_FULL",
            JoinType::Cross => "JOIN_CROSS",
            JoinType::Natural => "JOIN_NATURAL",
        }
    }

    /// Does this join type take an `ON` constraint?
    pub fn takes_constraint(self) -> bool {
        !matches!(self, JoinType::Cross | JoinType::Natural)
    }

    /// Is this an outer join (preserves unmatched rows on some side)?
    pub fn is_outer(self) -> bool {
        matches!(self, JoinType::Left | JoinType::Right | JoinType::Full)
    }
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A base relation in a `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// A named table or view, optionally aliased.
    Table {
        /// Table or view name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A derived table `(SELECT ...) AS alias`.
    Derived {
        /// The subquery.
        subquery: Box<Select>,
        /// The mandatory alias.
        alias: String,
    },
}

impl TableFactor {
    /// A named table without an alias.
    pub fn table(name: impl Into<String>) -> TableFactor {
        TableFactor::Table {
            name: name.into(),
            alias: None,
        }
    }
}

impl fmt::Display for TableFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableFactor::Table { name, alias } => match alias {
                Some(a) => write!(f, "{name} AS {a}"),
                None => f.write_str(name),
            },
            TableFactor::Derived { subquery, alias } => write!(f, "({subquery}) AS {alias}"),
        }
    }
}

/// A join attached to a preceding table factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// The kind of join.
    pub join_type: JoinType,
    /// The joined relation.
    pub relation: TableFactor,
    /// The `ON` condition; `None` for `CROSS`/`NATURAL` joins.
    pub on: Option<Expr>,
}

impl fmt::Display for Join {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.join_type, self.relation)?;
        if let Some(on) = &self.on {
            write!(f, " ON {on}")?;
        }
        Ok(())
    }
}

/// One element of the `FROM` list: a base relation plus chained joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableWithJoins {
    /// The base relation.
    pub relation: TableFactor,
    /// Joins applied to it, in order.
    pub joins: Vec<Join>,
}

impl TableWithJoins {
    /// A bare table with no joins.
    pub fn table(name: impl Into<String>) -> TableWithJoins {
        TableWithJoins {
            relation: TableFactor::table(name),
            joins: Vec::new(),
        }
    }
}

impl fmt::Display for TableWithJoins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.relation)?;
        for j in &self.joins {
            write!(f, " {j}")?;
        }
        Ok(())
    }
}

/// Sort direction in `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortOrder {
    /// Ascending (default).
    #[default]
    Asc,
    /// Descending.
    Desc,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// The sort key expression.
    pub expr: Expr,
    /// Direction.
    pub order: SortOrder,
}

impl fmt::Display for OrderByItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        match self.order {
            SortOrder::Asc => f.write_str(" ASC"),
            SortOrder::Desc => f.write_str(" DESC"),
        }
    }
}

/// A set operation combining two `SELECT`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOperator {
    /// `UNION` / `UNION ALL`
    Union,
    /// `INTERSECT`
    Intersect,
    /// `EXCEPT`
    Except,
}

impl SetOperator {
    /// SQL keyword.
    pub fn sql(self) -> &'static str {
        match self {
            SetOperator::Union => "UNION",
            SetOperator::Intersect => "INTERSECT",
            SetOperator::Except => "EXCEPT",
        }
    }
}

/// A compound tail: `UNION [ALL] <select>`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetOperation {
    /// The operator.
    pub op: SetOperator,
    /// Whether `ALL` was specified (keep duplicates).
    pub all: bool,
    /// The right-hand query.
    pub right: Box<Select>,
}

/// A full `SELECT` query.
///
/// # Examples
///
/// ```
/// use sql_ast::{Select, SelectItem, Expr, TableWithJoins};
///
/// let mut q = Select::new();
/// q.projections.push(SelectItem::expr(Expr::column("c0")));
/// q.from.push(TableWithJoins::table("t0"));
/// q.where_clause = Some(Expr::column("c0").eq(Expr::integer(1)));
/// assert_eq!(q.to_string(), "SELECT c0 FROM t0 WHERE (c0 = 1)");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// The projection list.
    pub projections: Vec<SelectItem>,
    /// The `FROM` list (comma-separated table factors with joins).
    pub from: Vec<TableWithJoins>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// Optional `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderByItem>,
    /// Optional `LIMIT` count.
    pub limit: Option<u64>,
    /// Optional `OFFSET`.
    pub offset: Option<u64>,
    /// Optional trailing set operation.
    pub set_op: Option<SetOperation>,
}

impl Select {
    /// Creates an empty query (`SELECT` with nothing selected yet).
    pub fn new() -> Select {
        Select::default()
    }

    /// Convenience: `SELECT <projections> FROM <table>`.
    pub fn from_table(table: impl Into<String>, projections: Vec<SelectItem>) -> Select {
        Select {
            projections,
            from: vec![TableWithJoins::table(table)],
            ..Select::default()
        }
    }

    /// Whether the query (ignoring subqueries) uses aggregation.
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self.projections.iter().any(|p| match p {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
    }

    /// Feeds an exact structural fingerprint of the query into a 128-bit
    /// hasher, covering every clause — projections, `FROM` (including
    /// derived tables, recursively), `WHERE`, grouping, ordering, limits and
    /// set operations. This is what lets [`Expr::fingerprint_into`] descend
    /// into subquery bodies, making subquery-containing expressions
    /// plan-cacheable: two queries hash identically only when they would
    /// compile (and execute) identically.
    pub fn fingerprint_into(&self, hasher: &mut crate::Fingerprint128) {
        hasher.write_word(
            0x5E1Eu64
                | (u64::from(self.distinct) << 16)
                | ((self.projections.len() as u64) << 17)
                | ((self.from.len() as u64) << 40),
        );
        for item in &self.projections {
            match item {
                SelectItem::Wildcard => hasher.write_word(1),
                SelectItem::QualifiedWildcard(t) => {
                    hasher.write_word(2);
                    hasher.write_str_words(t);
                }
                SelectItem::Expr { expr, alias } => {
                    hasher.write_word(3 | (u64::from(alias.is_some()) << 8));
                    expr.fingerprint_into(hasher);
                    if let Some(a) = alias {
                        hasher.write_str_words(a);
                    }
                }
            }
        }
        for twj in &self.from {
            factor_fingerprint(&twj.relation, hasher);
            hasher.write_word(twj.joins.len() as u64);
            for join in &twj.joins {
                hasher.write_word((join.join_type as u64) | (u64::from(join.on.is_some()) << 8));
                factor_fingerprint(&join.relation, hasher);
                if let Some(on) = &join.on {
                    on.fingerprint_into(hasher);
                }
            }
        }
        clause_fingerprint(self.where_clause.as_ref(), hasher);
        hasher.write_word(self.group_by.len() as u64);
        for g in &self.group_by {
            g.fingerprint_into(hasher);
        }
        clause_fingerprint(self.having.as_ref(), hasher);
        hasher.write_word(self.order_by.len() as u64);
        for o in &self.order_by {
            hasher.write_word(o.order as u64);
            o.expr.fingerprint_into(hasher);
        }
        hasher.write_word(match self.limit {
            Some(l) => l | (1 << 63),
            None => 0,
        });
        hasher.write_word(match self.offset {
            Some(o) => o | (1 << 63),
            None => 0,
        });
        match &self.set_op {
            Some(set_op) => {
                hasher.write_word(1 | ((set_op.op as u64) << 8) | (u64::from(set_op.all) << 16));
                set_op.right.fingerprint_into(hasher);
            }
            None => hasher.write_word(0),
        }
    }
}

/// Hashes an optional clause expression with a presence tag.
fn clause_fingerprint(clause: Option<&Expr>, hasher: &mut crate::Fingerprint128) {
    match clause {
        Some(e) => {
            hasher.write_word(1);
            e.fingerprint_into(hasher);
        }
        None => hasher.write_word(0),
    }
}

/// Hashes one `FROM` relation, recursing into derived tables.
fn factor_fingerprint(factor: &TableFactor, hasher: &mut crate::Fingerprint128) {
    match factor {
        TableFactor::Table { name, alias } => {
            hasher.write_word(1 | (u64::from(alias.is_some()) << 8));
            hasher.write_str_words(name);
            if let Some(a) = alias {
                hasher.write_str_words(a);
            }
        }
        TableFactor::Derived { subquery, alias } => {
            hasher.write_word(2);
            subquery.fingerprint_into(hasher);
            hasher.write_str_words(alias);
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        if self.projections.is_empty() {
            f.write_str("*")?;
        } else {
            for (i, p) in self.projections.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{p}")?;
            }
        }
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if let Some(set_op) = &self.set_op {
            write!(f, " {}", set_op.op.sql())?;
            if set_op.all {
                f.write_str(" ALL")?;
            }
            write!(f, " {}", set_op.right)?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{o}")?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::AggregateFunction;

    #[test]
    fn simple_select_renders() {
        let q = Select::from_table("t0", vec![SelectItem::Wildcard]);
        assert_eq!(q.to_string(), "SELECT * FROM t0");
    }

    #[test]
    fn join_select_renders() {
        let mut q = Select::from_table(
            "t0",
            vec![SelectItem::expr(Expr::qualified_column("t0", "c0"))],
        );
        q.from[0].joins.push(Join {
            join_type: JoinType::Left,
            relation: TableFactor::table("t1"),
            on: Some(Expr::boolean(true)),
        });
        assert_eq!(q.to_string(), "SELECT t0.c0 FROM t0 LEFT JOIN t1 ON TRUE");
    }

    #[test]
    fn aggregate_detection_via_projection_and_group_by() {
        let mut q = Select::from_table(
            "t0",
            vec![SelectItem::expr(Expr::Aggregate {
                func: AggregateFunction::Sum,
                arg: Some(Box::new(Expr::column("c0"))),
                distinct: false,
            })],
        );
        assert!(q.is_aggregate());
        q.projections = vec![SelectItem::expr(Expr::column("c0"))];
        assert!(!q.is_aggregate());
        q.group_by.push(Expr::column("c0"));
        assert!(q.is_aggregate());
    }

    #[test]
    fn order_limit_offset_render_in_order() {
        let mut q = Select::from_table("t0", vec![SelectItem::Wildcard]);
        q.order_by.push(OrderByItem {
            expr: Expr::column("c0"),
            order: SortOrder::Desc,
        });
        q.limit = Some(10);
        q.offset = Some(2);
        assert_eq!(
            q.to_string(),
            "SELECT * FROM t0 ORDER BY c0 DESC LIMIT 10 OFFSET 2"
        );
    }

    #[test]
    fn union_renders() {
        let mut q = Select::from_table("t0", vec![SelectItem::Wildcard]);
        q.set_op = Some(SetOperation {
            op: SetOperator::Union,
            all: true,
            right: Box::new(Select::from_table("t1", vec![SelectItem::Wildcard])),
        });
        assert_eq!(q.to_string(), "SELECT * FROM t0 UNION ALL SELECT * FROM t1");
    }

    #[test]
    fn join_type_metadata() {
        assert!(JoinType::Left.is_outer());
        assert!(!JoinType::Inner.is_outer());
        assert!(JoinType::Inner.takes_constraint());
        assert!(!JoinType::Cross.takes_constraint());
        assert_eq!(JoinType::ALL.len(), 6);
    }
}
