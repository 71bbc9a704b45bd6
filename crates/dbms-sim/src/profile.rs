//! Dialect profiles: which SQL features a simulated DBMS accepts.
//!
//! A [`DialectProfile`] is the stand-in for a real DBMS's SQL dialect. The
//! underlying engine (`sql-engine`) implements the full feature set; the
//! profile *rejects* statements that use features outside the dialect,
//! producing exactly the "syntax/semantic error" feedback that the adaptive
//! generator learns from (challenge C1 of the paper).

use sql_ast::{DataType, Expr, Select, SelectItem, Statement, StatementKind, TableFactor};
use sql_engine::TypingMode;
use sqlancer_core::{Feature, FeatureSet, Keyword};
use std::collections::BTreeSet;

/// The feature-support matrix and behavioural quirks of one dialect.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectProfile {
    /// Dialect name (matches the paper's Table 2 naming, lowercased).
    pub name: String,
    /// Typing discipline of the dialect.
    pub typing: TypingMode,
    /// Canonical feature names (see `sqlancer-core`'s naming convention)
    /// this dialect does **not** accept. Only [`DialectProfile::without`]
    /// adds to it, so `gate` always mirrors it.
    unsupported: BTreeSet<String>,
    /// The members of `unsupported` in the feature vocabulary: what
    /// statement gating tests.
    gate: FeatureSet,
    /// Inserted rows are only visible after `REFRESH TABLE` (CrateDB-like).
    pub requires_refresh: bool,
    /// DML must be followed by `COMMIT` (autocommit-off JDBC style).
    pub requires_commit: bool,
}

impl DialectProfile {
    /// A permissive dialect that accepts every feature (used as a baseline
    /// and in tests).
    pub fn permissive(name: impl Into<String>, typing: TypingMode) -> DialectProfile {
        DialectProfile {
            name: name.into(),
            typing,
            unsupported: BTreeSet::new(),
            gate: FeatureSet::new(),
            requires_refresh: false,
            requires_commit: false,
        }
    }

    /// Marks a list of canonical feature names as unsupported.
    pub fn without(mut self, features: &[&str]) -> DialectProfile {
        for f in features {
            if let Some(feature) = Feature::from_name(f) {
                self.gate.insert(feature);
            }
            self.unsupported.insert((*f).to_string());
        }
        self
    }

    /// The canonical feature names this dialect does not accept.
    pub fn unsupported(&self) -> &BTreeSet<String> {
        &self.unsupported
    }

    /// Whether the dialect supports a feature by canonical name.
    pub fn supports(&self, feature: &str) -> bool {
        !self.unsupported.contains(feature)
    }

    /// All features of the generator universe this dialect supports: the
    /// universe minus the gate (used by the perfect-knowledge baseline and
    /// Figures 1 and 7).
    pub fn supported_universe(&self) -> FeatureSet {
        FeatureSet::universe().difference(&self.gate)
    }

    /// Checks a parsed statement against the profile. Returns the name of
    /// the first unsupported feature encountered, if any.
    ///
    /// This runs for every statement on the campaign hot path, so it walks
    /// the AST with an early-exit visitor that tests one bit per visited
    /// feature, and reads the rejected feature's name only when it returns
    /// it. A dialect that rejects nothing the walker emits skips the walk.
    pub fn first_unsupported(&self, stmt: &Statement) -> Option<String> {
        if self.gate.is_empty() {
            return None;
        }
        let mut found = None;
        walk_statement_features(stmt, &mut self.gate_visitor(&mut found));
        found.map(|feature| feature.name().to_string())
    }

    /// [`DialectProfile::first_unsupported`] for a bare query, without
    /// wrapping it in a [`Statement`]. Feature traversal order is identical
    /// to the statement path, so the reported feature (and therefore the
    /// error message) is byte-identical between the text path and the AST
    /// fast path.
    pub fn first_unsupported_select(&self, select: &Select) -> Option<String> {
        if self.gate.is_empty() {
            return None;
        }
        let mut found = None;
        walk_query_features(select, &mut self.gate_visitor(&mut found));
        found.map(|feature| feature.name().to_string())
    }

    /// A walker visitor that stops at the first gated feature and keeps it
    /// in `found`.
    fn gate_visitor<'a>(
        &'a self,
        found: &'a mut Option<Feature>,
    ) -> impl FnMut(Feature) -> bool + 'a {
        move |feature| {
            if self.gate.contains(feature) {
                *found = Some(feature);
                false
            } else {
                true
            }
        }
    }
}

/// Collects the canonical feature names of a bare query, in the same order
/// as [`collect_statement_features`] applied to `Statement::Select`.
pub fn collect_query_features(select: &Select) -> Vec<String> {
    let mut out = Vec::new();
    walk_query_features(select, &mut |feature| {
        out.push(feature.name().to_string());
        true
    });
    out
}

/// Collects the canonical feature names used by a statement (statement kind,
/// clauses, join types, operators, functions, data types).
pub fn collect_statement_features(stmt: &Statement) -> Vec<String> {
    let mut out = Vec::new();
    walk_statement_features(stmt, &mut |feature| {
        out.push(feature.name().to_string());
        true
    });
    out
}

/// Walks every feature of a statement in collection order,
/// calling `f` for each; `f` returns `false` to stop the walk early. The
/// walker returns `false` when the walk was stopped.
fn walk_statement_features(stmt: &Statement, f: &mut impl FnMut(Feature) -> bool) -> bool {
    if !f(Feature::statement(stmt.kind())) {
        return false;
    }
    match stmt {
        Statement::CreateTable(create) => {
            for col in &create.columns {
                if !f(Feature::data_type(col.data_type)) {
                    return false;
                }
                for c in &col.constraints {
                    let ok = match c {
                        sql_ast::ColumnConstraint::PrimaryKey => {
                            f(Feature::keyword(Keyword::PrimaryKey))
                        }
                        sql_ast::ColumnConstraint::NotNull => f(Feature::keyword(Keyword::NotNull)),
                        sql_ast::ColumnConstraint::Unique => f(Feature::keyword(Keyword::Unique)),
                        sql_ast::ColumnConstraint::Default(e) => {
                            f(Feature::keyword(Keyword::Default)) && walk_expr_features(e, f)
                        }
                    };
                    if !ok {
                        return false;
                    }
                }
            }
            for c in &create.constraints {
                let ok = match c {
                    sql_ast::TableConstraint::PrimaryKey(_) => {
                        f(Feature::keyword(Keyword::PrimaryKey))
                    }
                    sql_ast::TableConstraint::Unique(_) => f(Feature::keyword(Keyword::Unique)),
                };
                if !ok {
                    return false;
                }
            }
            true
        }
        Statement::CreateIndex(create) => {
            if create.unique && !f(Feature::keyword(Keyword::UniqueIndex)) {
                return false;
            }
            match &create.where_clause {
                Some(w) => f(Feature::keyword(Keyword::PartialIndex)) && walk_expr_features(w, f),
                None => true,
            }
        }
        Statement::CreateView(create) => walk_select_features(&create.query, f),
        Statement::Insert(insert) => {
            if insert.or_ignore && !f(Feature::keyword(Keyword::OrIgnore)) {
                return false;
            }
            for row in &insert.values {
                for e in row {
                    if !walk_expr_features(e, f) {
                        return false;
                    }
                }
            }
            true
        }
        Statement::Update(update) => {
            for (_, e) in &update.assignments {
                if !walk_expr_features(e, f) {
                    return false;
                }
            }
            match &update.where_clause {
                Some(w) => walk_expr_features(w, f),
                None => true,
            }
        }
        Statement::Delete(delete) => match &delete.where_clause {
            Some(w) => walk_expr_features(w, f),
            None => true,
        },
        Statement::Select(select) => walk_select_features(select, f),
        _ => true,
    }
}

/// Walks the features of a bare query: `STMT_SELECT` plus the select
/// features, in the statement walk's order.
fn walk_query_features(select: &Select, f: &mut impl FnMut(Feature) -> bool) -> bool {
    f(Feature::statement(StatementKind::Select)) && walk_select_features(select, f)
}

fn walk_select_features(select: &Select, f: &mut impl FnMut(Feature) -> bool) -> bool {
    if select.distinct && !f(Feature::keyword(Keyword::Distinct)) {
        return false;
    }
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            if !walk_expr_features(expr, f) {
                return false;
            }
        }
    }
    for twj in &select.from {
        if !walk_factor_features(&twj.relation, f) {
            return false;
        }
        for join in &twj.joins {
            if !f(Feature::join(join.join_type)) || !walk_factor_features(&join.relation, f) {
                return false;
            }
            if let Some(on) = &join.on {
                if !walk_expr_features(on, f) {
                    return false;
                }
            }
        }
    }
    if let Some(w) = &select.where_clause {
        if !f(Feature::keyword(Keyword::Where)) || !walk_expr_features(w, f) {
            return false;
        }
    }
    if !select.group_by.is_empty() {
        if !f(Feature::keyword(Keyword::GroupBy)) {
            return false;
        }
        for g in &select.group_by {
            if !walk_expr_features(g, f) {
                return false;
            }
        }
    }
    if let Some(h) = &select.having {
        if !f(Feature::keyword(Keyword::Having)) || !walk_expr_features(h, f) {
            return false;
        }
    }
    if !select.order_by.is_empty() {
        if !f(Feature::keyword(Keyword::OrderBy)) {
            return false;
        }
        for o in &select.order_by {
            if !walk_expr_features(&o.expr, f) {
                return false;
            }
        }
    }
    if select.limit.is_some() && !f(Feature::keyword(Keyword::Limit)) {
        return false;
    }
    if select.offset.is_some() && !f(Feature::keyword(Keyword::Offset)) {
        return false;
    }
    match &select.set_op {
        Some(set_op) => {
            f(Feature::keyword(Keyword::SetOperation)) && walk_select_features(&set_op.right, f)
        }
        None => true,
    }
}

fn walk_factor_features(factor: &TableFactor, f: &mut impl FnMut(Feature) -> bool) -> bool {
    match factor {
        TableFactor::Derived { subquery, .. } => {
            f(Feature::keyword(Keyword::Subquery)) && walk_select_features(subquery, f)
        }
        _ => true,
    }
}

fn walk_expr_features(expr: &Expr, f: &mut impl FnMut(Feature) -> bool) -> bool {
    let ok = match expr {
        Expr::Literal(v) => {
            let ty = v.data_type();
            ty == DataType::Null || f(Feature::data_type(ty))
        }
        Expr::Unary { op, .. } => f(Feature::unary_op(*op)),
        Expr::Binary { op, .. } => f(Feature::binary_op(*op)),
        Expr::Function { func, .. } => f(Feature::function(*func)),
        Expr::Aggregate { func, .. } => f(Feature::aggregate(*func)),
        Expr::Case { .. } => f(Feature::keyword(Keyword::Case)),
        Expr::Cast { data_type, .. } => {
            f(Feature::keyword(Keyword::Cast)) && f(Feature::data_type(*data_type))
        }
        Expr::Between { .. } => f(Feature::keyword(Keyword::Between)),
        Expr::InList { .. } => f(Feature::keyword(Keyword::In)),
        Expr::InSubquery { .. } => {
            f(Feature::keyword(Keyword::In)) && f(Feature::keyword(Keyword::Subquery))
        }
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => f(Feature::keyword(Keyword::Subquery)),
        Expr::IsNull { .. } => f(Feature::keyword(Keyword::IsNull)),
        Expr::IsBool { .. } => f(Feature::keyword(Keyword::IsBool)),
        Expr::Like { .. } => f(Feature::keyword(Keyword::Like)),
        Expr::Column(_) => true,
    };
    if !ok {
        return false;
    }
    // Recurse into children (allocation-free) and embedded subqueries.
    let mut keep_going = true;
    expr.for_each_child(&mut |child| {
        if keep_going && !walk_expr_features(child, f) {
            keep_going = false;
        }
    });
    if !keep_going {
        return false;
    }
    match expr {
        Expr::InSubquery { subquery, .. } | Expr::ScalarSubquery(subquery) => {
            walk_select_features(subquery, f)
        }
        Expr::Exists { subquery, .. } => walk_select_features(subquery, f),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql_parser::parse_statement;

    #[test]
    fn profile_rejects_unsupported_statement_kind() {
        let profile = DialectProfile::permissive("crate-like", TypingMode::Strict)
            .without(&["STMT_CREATE_INDEX", "OP_NULLSAFE_EQ"]);
        let create_index = parse_statement("CREATE INDEX i0 ON t0(c0)").unwrap();
        assert_eq!(
            profile.first_unsupported(&create_index),
            Some("STMT_CREATE_INDEX".to_string())
        );
        let query = parse_statement("SELECT * FROM t0 WHERE c0 <=> 1").unwrap();
        assert_eq!(
            profile.first_unsupported(&query),
            Some("OP_NULLSAFE_EQ".to_string())
        );
        let fine = parse_statement("SELECT * FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(profile.first_unsupported(&fine), None);
    }

    #[test]
    fn feature_collection_sees_nested_constructs() {
        let stmt = parse_statement(
            "SELECT NULLIF(c0, 1) FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 \
             WHERE (c0 IN (SELECT c0 FROM t2)) AND SIN(1) > 0 GROUP BY c0 LIMIT 3",
        )
        .unwrap();
        let features = collect_statement_features(&stmt);
        for expected in [
            "STMT_SELECT",
            "JOIN_LEFT",
            "CLAUSE_WHERE",
            "CLAUSE_GROUP_BY",
            "CLAUSE_LIMIT",
            "CLAUSE_SUBQUERY",
            "FN_NULLIF",
            "FN_SIN",
            "OP_IN",
            "OP_GT",
            "OP_AND",
        ] {
            assert!(
                features.iter().any(|f| f == expected),
                "missing {expected} in {features:?}"
            );
        }
    }

    #[test]
    fn names_the_walker_never_emits_are_unsupported_but_not_gated() {
        let profile = DialectProfile::permissive("p", TypingMode::Dynamic)
            .without(&["KW_NOT_A_FEATURE", "OP_LIKE"]);
        assert!(!profile.supports("KW_NOT_A_FEATURE"));
        assert!(profile.gate.contains(Feature::keyword(Keyword::Like)));
        let query = parse_statement("SELECT * FROM t0 WHERE c0 LIKE 'a'").unwrap();
        assert_eq!(profile.first_unsupported(&query), Some("OP_LIKE".into()));
        let other = parse_statement("SELECT * FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(profile.first_unsupported(&other), None);
    }

    #[test]
    fn supported_universe_shrinks_with_unsupported_features() {
        let full = DialectProfile::permissive("full", TypingMode::Dynamic).supported_universe();
        let restricted = DialectProfile::permissive("restricted", TypingMode::Dynamic)
            .without(&["JOIN_FULL", "FN_SIN", "OP_NULLSAFE_EQ"])
            .supported_universe();
        assert_eq!(full.len(), restricted.len() + 3);
    }
}
