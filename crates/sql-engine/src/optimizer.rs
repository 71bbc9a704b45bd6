//! The optimizing query rewriter.
//!
//! The engine executes every query through the same pipeline
//! (`exec::execute_select`); the difference between the *optimized* path and
//! the *reference* path — the distinction NoREC exploits — is that the
//! optimized path first runs the query through this rewriter and may use
//! index access paths during scanning.
//!
//! The rewriter only touches predicates in `WHERE`, `ON` and `HAVING`
//! positions, never expressions in the projection list. This mirrors real
//! optimizers (which aggressively rewrite filter predicates) and is what
//! makes the NoREC construction effective: a predicate moved into the
//! projection escapes these rewrites.
//!
//! Correct rewrites are applied unconditionally (constant folding, double
//! negation elimination, trivial conjunct removal). *Injected faults*
//! ([`crate::FaultConfig`]) add semantically wrong rewrites.

use crate::config::EngineConfig;
use crate::eval::Evaluator;
use crate::exec::ExecutionMode;
use crate::faults::Fault;
use crate::storage::Database;
use sql_ast::{BinaryOp, Expr, JoinType, Select, UnaryOp, Value};

/// Rewrites a query for optimized execution.
///
/// Returns the input query unchanged (borrowed, no clone) when it has no
/// WHERE/HAVING/ON predicate: every rewrite, the structural faults
/// included, acts on one. The TLP base query (`SELECT ... FROM t` with no
/// predicate) takes this fast path on every oracle check.
pub fn optimize_select<'a>(db: &Database, select: &'a Select) -> std::borrow::Cow<'a, Select> {
    let has_predicates = select.where_clause.is_some()
        || select.having.is_some()
        || select
            .from
            .iter()
            .any(|twj| twj.joins.iter().any(|j| j.on.is_some()));
    if !has_predicates {
        return std::borrow::Cow::Borrowed(select);
    }
    let mut out = select.clone();
    let config = &db.config;

    // Rewrite predicates (WHERE / ON / HAVING) recursively; subqueries in
    // FROM are optimized independently when they are executed.
    if let Some(w) = out.where_clause.take() {
        out.where_clause = Some(rewrite_predicate(db, w));
    }
    if let Some(h) = out.having.take() {
        out.having = Some(rewrite_predicate(db, h));
    }
    for twj in &mut out.from {
        for join in &mut twj.joins {
            if let Some(on) = join.on.take() {
                join.on = Some(rewrite_predicate(db, on));
            }
        }
    }

    apply_structural_faults(config, &mut out);

    // Remove a literally-TRUE WHERE clause (correct and common).
    if let Some(Expr::Literal(Value::Boolean(true))) = out.where_clause {
        out.where_clause = None;
    }
    std::borrow::Cow::Owned(out)
}

/// Structural (plan-level) faulty rewrites: predicate pushdown, join
/// flattening, DISTINCT elimination and HAVING pushdown. Each one moves or
/// reads a WHERE, ON or HAVING predicate, so none applies to a query
/// without one.
fn apply_structural_faults(config: &EngineConfig, select: &mut Select) {
    let faults = &config.faults;

    // Injected fault: push the WHERE predicate into the ON clause of the
    // first LEFT JOIN when the predicate references no aggregate. This is
    // wrong because the left side's rows survive an outer join regardless of
    // the ON condition.
    if faults.has(Fault::BadPredicatePushdown) {
        if let Some(pred) = select.where_clause.clone() {
            if !pred.contains_aggregate() && !pred.contains_subquery() {
                for twj in &mut select.from {
                    if let Some(join) = twj.joins.iter_mut().find(|j| j.join_type == JoinType::Left)
                    {
                        let existing = join.on.take();
                        join.on = Some(match existing {
                            Some(on) => on.and(pred.clone()),
                            None => pred.clone(),
                        });
                        select.where_clause = None;
                        break;
                    }
                }
            }
        }
    }

    // Injected fault (Listing 3): move the ON term of an outer join into the
    // WHERE clause, as SQLite's query flattener once did.
    if faults.has(Fault::BadJoinFlattening) {
        for twj in &mut select.from {
            for join in &mut twj.joins {
                if join.join_type.is_outer() {
                    if let Some(on) = join.on.take() {
                        let existing = select.where_clause.take();
                        select.where_clause = Some(match existing {
                            Some(w) => w.and(on),
                            None => on,
                        });
                        join.on = Some(Expr::boolean(true));
                    }
                }
            }
        }
    }

    // Injected fault: drop DISTINCT when an equality on some column is
    // present in the WHERE clause (pretending uniqueness).
    if faults.has(Fault::BadDistinctElimination) && select.distinct {
        if let Some(w) = &select.where_clause {
            if contains_equality_on_column(w) {
                select.distinct = false;
            }
        }
    }

    // Injected fault: HAVING without aggregates is evaluated as a WHERE
    // filter (before grouping).
    if faults.has(Fault::BadHavingPushdown) {
        if let Some(h) = &select.having {
            if !h.contains_aggregate() {
                let h = select.having.take().unwrap();
                let existing = select.where_clause.take();
                select.where_clause = Some(match existing {
                    Some(w) => w.and(h),
                    None => h,
                });
            }
        }
    }
}

fn contains_equality_on_column(expr: &Expr) -> bool {
    match expr {
        Expr::Binary { left, op, right } => {
            (*op == BinaryOp::Eq
                && (matches!(**left, Expr::Column(_)) || matches!(**right, Expr::Column(_))))
                || contains_equality_on_column(left)
                || contains_equality_on_column(right)
        }
        _ => expr
            .children()
            .iter()
            .any(|c| contains_equality_on_column(c)),
    }
}

/// Rewrites a filter predicate: correct simplifications plus any enabled
/// faulty rewrites.
pub fn rewrite_predicate(db: &Database, expr: Expr) -> Expr {
    let rewritten = rewrite_expr(db, expr);
    // One evaluator for the whole fold: the previous code built a fresh
    // `Evaluator` per foldable binary node, which showed up in profiles once
    // per-row evaluation was compiled away.
    let evaluator = Evaluator::new(db, ExecutionMode::Optimized);
    constant_fold(db, &evaluator, rewritten)
}

fn rewrite_expr(db: &Database, expr: Expr) -> Expr {
    let faults = &db.config.faults;
    // Rewrite children first (bottom-up).
    let expr = map_children(expr, &mut |child| rewrite_expr(db, child));
    match expr {
        // Double negation elimination (correct).
        Expr::Unary {
            op: UnaryOp::Not,
            expr: inner,
        } => match *inner {
            Expr::Unary {
                op: UnaryOp::Not,
                expr: inner2,
            } => *inner2,
            // Injected fault: NOT (a = b) → a IS DISTINCT FROM b, which is
            // wrong when exactly one operand is NULL.
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } if faults.has(Fault::BadNotElimination) => Expr::Binary {
                left,
                op: BinaryOp::IsDistinctFrom,
                right,
            },
            // Injected fault: NOT (a < b) → a > b, dropping the equal case.
            Expr::Binary {
                left,
                op: BinaryOp::Lt,
                right,
            } if faults.has(Fault::BadRangeNegation) => Expr::Binary {
                left,
                op: BinaryOp::Gt,
                right,
            },
            other => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(other),
            },
        },
        // Injected fault: a <=> b → a = b (drops null-safety).
        Expr::Binary {
            left,
            op: BinaryOp::NullSafeEq,
            right,
        } if faults.has(Fault::BadNullsafeEqRewrite) => Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        },
        // Injected fault: IN-list rewriting that silently drops NULL
        // elements.
        Expr::InList {
            expr,
            list,
            negated,
        } if faults.has(Fault::BadInListRewrite) => {
            let filtered: Vec<Expr> = list
                .into_iter()
                .filter(|e| !matches!(e, Expr::Literal(Value::Null)))
                .collect();
            if filtered.is_empty() {
                Expr::Literal(Value::Boolean(negated))
            } else {
                Expr::InList {
                    expr,
                    list: filtered,
                    negated,
                }
            }
        }
        // Injected fault: BETWEEN with literal bounds in the wrong order is
        // rewritten with the bounds swapped (should be an empty range).
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } if faults.has(Fault::BadBetweenRewrite) => {
            if let (Expr::Literal(l), Expr::Literal(h)) = (low.as_ref(), high.as_ref()) {
                if l.total_cmp(h) == std::cmp::Ordering::Greater {
                    return Expr::Between {
                        expr,
                        low: high,
                        high: low,
                        negated,
                    };
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            }
        }
        // Injected fault: `col IS NULL` folded to FALSE for NOT NULL columns
        // (wrong in the presence of outer joins).
        Expr::IsNull { expr, negated } => {
            if faults.has(Fault::BadNotnullIsnullFolding) {
                if let Expr::Column(col) = expr.as_ref() {
                    if column_is_not_null(db, col) {
                        return Expr::Literal(Value::Boolean(negated));
                    }
                }
            }
            Expr::IsNull { expr, negated }
        }
        other => other,
    }
}

fn column_is_not_null(db: &Database, col: &sql_ast::ColumnRef) -> bool {
    let tables: Vec<String> = match &col.table {
        Some(t) => vec![t.clone()],
        None => db.catalog.table_names(),
    };
    tables.iter().any(|t| {
        db.catalog
            .table(t)
            .and_then(|schema| schema.column(&col.column))
            .map(|c| c.not_null)
            .unwrap_or(false)
    })
}

/// Folds literal-only subexpressions to literals. Correct except where the
/// constant-folding faults are enabled.
fn constant_fold(db: &Database, evaluator: &Evaluator<'_>, expr: Expr) -> Expr {
    let faults = &db.config.faults;
    let expr = map_children(expr, &mut |child| constant_fold(db, evaluator, child));
    match &expr {
        Expr::Binary { left, op, right } => {
            if let (Expr::Literal(lv), Expr::Literal(rv)) = (left.as_ref(), right.as_ref()) {
                // Injected fault: constant folding treats the text '0'/'1'
                // as numbers even under strict typing.
                if faults.has(Fault::BadConstantFoldingText)
                    && matches!(lv, Value::Text(_)) != matches!(rv, Value::Text(_))
                    && op.is_comparison()
                {
                    let a = lv.coerce_f64().unwrap_or(0.0);
                    let b = rv.coerce_f64().unwrap_or(0.0);
                    let out = match op {
                        BinaryOp::Eq => a == b,
                        BinaryOp::Neq | BinaryOp::NeqLtGt => a != b,
                        BinaryOp::Lt => a < b,
                        BinaryOp::Le => a <= b,
                        BinaryOp::Gt => a > b,
                        BinaryOp::Ge => a >= b,
                        _ => return expr,
                    };
                    return Expr::Literal(Value::Boolean(out));
                }
                if let Ok(v) = evaluator.apply_binary(*op, lv, rv) {
                    return Expr::Literal(v);
                }
            }
            expr
        }
        Expr::Case {
            operand: None,
            branches,
            else_expr,
        } if faults.has(Fault::BadCaseFolding) => {
            // Injected fault: a first branch whose condition coerces to a
            // non-zero literal is folded away — wrong when the condition is
            // genuinely NULL at runtime (e.g. references a column).
            if let Some(first) = branches.first() {
                if let Expr::Literal(v) = &first.when {
                    if v.coerce_f64().unwrap_or(0.0) != 0.0 || v.is_null() {
                        return first.then.clone();
                    }
                }
                let _ = else_expr;
            }
            expr
        }
        _ => expr,
    }
}

/// Applies `f` to every immediate child expression, rebuilding the node.
fn map_children(expr: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    match expr {
        Expr::Literal(_) | Expr::Column(_) | Expr::ScalarSubquery(_) | Expr::Exists { .. } => expr,
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(f(*expr)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(f(*left)),
            op,
            right: Box::new(f(*right)),
        },
        Expr::Function { func, args } => Expr::Function {
            func,
            args: args.into_iter().map(f).collect(),
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func,
            arg: arg.map(|a| Box::new(f(*a))),
            distinct,
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: operand.map(|o| Box::new(f(*o))),
            branches: branches
                .into_iter()
                .map(|b| sql_ast::CaseBranch {
                    when: f(b.when),
                    then: f(b.then),
                })
                .collect(),
            else_expr: else_expr.map(|e| Box::new(f(*e))),
        },
        Expr::Cast { expr, data_type } => Expr::Cast {
            expr: Box::new(f(*expr)),
            data_type,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(f(*expr)),
            low: Box::new(f(*low)),
            high: Box::new(f(*high)),
            negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(f(*expr)),
            list: list.into_iter().map(f).collect(),
            negated,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(f(*expr)),
            subquery,
            negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(f(*expr)),
            negated,
        },
        Expr::IsBool {
            expr,
            target,
            negated,
        } => Expr::IsBool {
            expr: Box::new(f(*expr)),
            target,
            negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(f(*expr)),
            pattern: Box::new(f(*pattern)),
            negated,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use sql_parser::{parse_expression, parse_statement};

    fn db_with(faults: &[Fault]) -> Database {
        Database::new(EngineConfig::dynamic().with_faults(faults))
    }

    fn rewrite(db: &Database, sql: &str) -> String {
        rewrite_predicate(db, parse_expression(sql).unwrap()).to_string()
    }

    #[test]
    fn sound_rewrites_preserve_semantics() {
        let db = db_with(&[]);
        assert_eq!(rewrite(&db, "NOT (NOT (c0 = 1))"), "(c0 = 1)");
        assert_eq!(rewrite(&db, "1 + 2 = 3"), "TRUE");
        // Without the fault, NOT (a = b) stays as written.
        assert_eq!(rewrite(&db, "NOT (c0 = 1)"), "(NOT (c0 = 1))");
    }

    #[test]
    fn faulty_not_elimination_changes_shape() {
        let db = db_with(&[Fault::BadNotElimination]);
        assert_eq!(rewrite(&db, "NOT (c0 = 1)"), "(c0 IS DISTINCT FROM 1)");
    }

    #[test]
    fn faulty_range_negation_drops_equality() {
        let db = db_with(&[Fault::BadRangeNegation]);
        assert_eq!(rewrite(&db, "NOT (c0 < 1)"), "(c0 > 1)");
    }

    #[test]
    fn faulty_in_list_rewrite_drops_nulls() {
        let db = db_with(&[Fault::BadInListRewrite]);
        assert_eq!(rewrite(&db, "c0 IN (1, NULL)"), "(c0 IN (1))");
        assert_eq!(rewrite(&db, "c0 IN (NULL)"), "FALSE");
    }

    #[test]
    fn predicate_pushdown_fault_moves_where_into_left_join() {
        let db = db_with(&[Fault::BadPredicatePushdown]);
        let select =
            match parse_statement("SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c0 > 5")
                .unwrap()
            {
                sql_ast::Statement::Select(s) => *s,
                _ => unreachable!(),
            };
        let optimized = optimize_select(&db, &select);
        assert!(optimized.where_clause.is_none());
        assert!(optimized.from[0].joins[0]
            .on
            .as_ref()
            .unwrap()
            .to_string()
            .contains("> 5"));
    }

    #[test]
    fn join_flattening_fault_moves_on_into_where() {
        let db = db_with(&[Fault::BadJoinFlattening]);
        let select =
            match parse_statement("SELECT * FROM t0 RIGHT JOIN t1 ON t0.c0 WHERE t1.c0 = 2")
                .unwrap()
            {
                sql_ast::Statement::Select(s) => *s,
                _ => unreachable!(),
            };
        let optimized = optimize_select(&db, &select).into_owned();
        let where_sql = optimized.where_clause.unwrap().to_string();
        assert!(where_sql.contains("t0.c0"), "{where_sql}");
        assert_eq!(
            optimized.from[0].joins[0].on.as_ref().unwrap().to_string(),
            "TRUE"
        );
    }

    #[test]
    fn predicate_free_query_is_borrowed_under_structural_faults() {
        let db = db_with(&[Fault::BadJoinFlattening]);
        let select = match parse_statement("SELECT * FROM t0 LEFT JOIN t1").unwrap() {
            sql_ast::Statement::Select(s) => *s,
            _ => unreachable!(),
        };
        assert!(matches!(
            optimize_select(&db, &select),
            std::borrow::Cow::Borrowed(_)
        ));
    }

    #[test]
    fn sound_optimizer_never_touches_projections() {
        let db = db_with(&[Fault::BadNotElimination, Fault::BadNullsafeEqRewrite]);
        let select = match parse_statement("SELECT (NOT (c0 = 1)) FROM t0").unwrap() {
            sql_ast::Statement::Select(s) => *s,
            _ => unreachable!(),
        };
        let optimized = optimize_select(&db, &select);
        assert_eq!(
            optimized.projections[0].to_string(),
            "(NOT (c0 = 1))",
            "projection expressions must never be rewritten"
        );
    }
}
