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
use std::borrow::Cow;

/// Rewrites a query for optimized execution.
///
/// The rewrite works by reference: the query is cloned only when a
/// predicate rewrite or a structural fault actually changes it, and is
/// returned borrowed otherwise. Most predicates come through unchanged, so
/// most queries — the TLP base query (no predicate at all) included — cost
/// no copy.
pub fn optimize_select<'a>(db: &Database, select: &'a Select) -> Cow<'a, Select> {
    let mut out = Cow::Borrowed(select);

    // Rewrite predicates (WHERE / ON / HAVING); subqueries in FROM are
    // optimized independently when they are executed.
    if let Some(w) = select.where_clause.as_ref().and_then(|w| rewrite(db, w)) {
        out.to_mut().where_clause = Some(w);
    }
    if let Some(h) = select.having.as_ref().and_then(|h| rewrite(db, h)) {
        out.to_mut().having = Some(h);
    }
    for (t, twj) in select.from.iter().enumerate() {
        for (j, join) in twj.joins.iter().enumerate() {
            if let Some(on) = join.on.as_ref().and_then(|on| rewrite(db, on)) {
                out.to_mut().from[t].joins[j].on = Some(on);
            }
        }
    }

    apply_structural_faults(&db.config, &mut out);

    // Remove a literally-TRUE WHERE clause (correct and common).
    if let Some(Expr::Literal(Value::Boolean(true))) = out.where_clause {
        out.to_mut().where_clause = None;
    }
    out
}

/// Structural (plan-level) faulty rewrites: predicate pushdown, join
/// flattening, DISTINCT elimination and HAVING pushdown. Each one moves or
/// reads a WHERE, ON or HAVING predicate, so none applies to a query
/// without one; each detaches the query only when it applies.
fn apply_structural_faults(config: &EngineConfig, select: &mut Cow<'_, Select>) {
    let faults = &config.faults;

    // Injected fault: push the WHERE predicate into the ON clause of the
    // first LEFT JOIN when the predicate references no aggregate. This is
    // wrong because the left side's rows survive an outer join regardless of
    // the ON condition.
    if faults.has(Fault::BadPredicatePushdown) {
        let target = select.where_clause.as_ref().and_then(|pred| {
            if pred.contains_aggregate() || pred.contains_subquery() {
                return None;
            }
            select.from.iter().enumerate().find_map(|(t, twj)| {
                let j = twj
                    .joins
                    .iter()
                    .position(|j| j.join_type == JoinType::Left)?;
                Some((t, j))
            })
        });
        if let Some((t, j)) = target {
            let select = select.to_mut();
            let pred = select.where_clause.take().expect("a WHERE to push down");
            let join = &mut select.from[t].joins[j];
            join.on = Some(match join.on.take() {
                Some(on) => on.and(pred),
                None => pred,
            });
        }
    }

    // Injected fault (Listing 3): move the ON term of an outer join into the
    // WHERE clause, as SQLite's query flattener once did.
    if faults.has(Fault::BadJoinFlattening)
        && select.from.iter().any(|twj| {
            twj.joins
                .iter()
                .any(|j| j.join_type.is_outer() && j.on.is_some())
        })
    {
        let select = select.to_mut();
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
    if faults.has(Fault::BadDistinctElimination)
        && select.distinct
        && select
            .where_clause
            .as_ref()
            .is_some_and(contains_equality_on_column)
    {
        select.to_mut().distinct = false;
    }

    // Injected fault: HAVING without aggregates is evaluated as a WHERE
    // filter (before grouping).
    if faults.has(Fault::BadHavingPushdown)
        && select
            .having
            .as_ref()
            .is_some_and(|h| !h.contains_aggregate())
    {
        let select = select.to_mut();
        let h = select.having.take().expect("a HAVING to push down");
        let existing = select.where_clause.take();
        select.where_clause = Some(match existing {
            Some(w) => w.and(h),
            None => h,
        });
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
    rewrite(db, &expr).unwrap_or(expr)
}

/// [`rewrite_predicate`] by reference: the rewritten predicate, or `None`
/// when no rewrite changes it.
fn rewrite(db: &Database, expr: &Expr) -> Option<Expr> {
    let rewritten = rewrite_expr(db, expr);
    // One evaluator for the whole fold: the previous code built a fresh
    // `Evaluator` per foldable binary node, which showed up in profiles once
    // per-row evaluation was compiled away.
    let evaluator = Evaluator::new(db, ExecutionMode::Optimized);
    let source = rewritten.as_ref().unwrap_or(expr);
    constant_fold(db, &evaluator, source).or(rewritten)
}

/// Applies `rule` bottom-up: children first, then the node, rebuilt where a
/// child changed. `None` when nothing changed, so an untouched tree is
/// never copied.
fn rewrite_bottom_up(expr: &Expr, rule: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
    match map_children(expr, &mut |child| rewrite_bottom_up(child, rule)) {
        Some(rebuilt) => Some(rule(&rebuilt).unwrap_or(rebuilt)),
        None => rule(expr),
    }
}

fn rewrite_expr(db: &Database, expr: &Expr) -> Option<Expr> {
    rewrite_bottom_up(expr, &mut |node| rewrite_node(db, node))
}

/// One node's rewrite, given its already-rewritten children: the
/// replacement, or `None` to keep the node.
fn rewrite_node(db: &Database, expr: &Expr) -> Option<Expr> {
    let faults = &db.config.faults;
    match expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: inner,
        } => match inner.as_ref() {
            // Double negation elimination (correct).
            Expr::Unary {
                op: UnaryOp::Not,
                expr: inner2,
            } => Some((**inner2).clone()),
            // Injected fault: NOT (a = b) → a IS DISTINCT FROM b, which is
            // wrong when exactly one operand is NULL.
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } if faults.has(Fault::BadNotElimination) => Some(Expr::Binary {
                left: left.clone(),
                op: BinaryOp::IsDistinctFrom,
                right: right.clone(),
            }),
            // Injected fault: NOT (a < b) → a > b, dropping the equal case.
            Expr::Binary {
                left,
                op: BinaryOp::Lt,
                right,
            } if faults.has(Fault::BadRangeNegation) => Some(Expr::Binary {
                left: left.clone(),
                op: BinaryOp::Gt,
                right: right.clone(),
            }),
            _ => None,
        },
        // Injected fault: a <=> b → a = b (drops null-safety).
        Expr::Binary {
            left,
            op: BinaryOp::NullSafeEq,
            right,
        } if faults.has(Fault::BadNullsafeEqRewrite) => Some(Expr::Binary {
            left: left.clone(),
            op: BinaryOp::Eq,
            right: right.clone(),
        }),
        // Injected fault: IN-list rewriting that silently drops NULL
        // elements.
        Expr::InList {
            expr,
            list,
            negated,
        } if faults.has(Fault::BadInListRewrite) => {
            let is_null = |e: &Expr| matches!(e, Expr::Literal(Value::Null));
            if !list.is_empty() && !list.iter().any(is_null) {
                return None;
            }
            let filtered: Vec<Expr> = list.iter().filter(|e| !is_null(e)).cloned().collect();
            Some(if filtered.is_empty() {
                Expr::Literal(Value::Boolean(*negated))
            } else {
                Expr::InList {
                    expr: expr.clone(),
                    list: filtered,
                    negated: *negated,
                }
            })
        }
        // Injected fault: BETWEEN with literal bounds in the wrong order is
        // rewritten with the bounds swapped (should be an empty range).
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } if faults.has(Fault::BadBetweenRewrite) => match (low.as_ref(), high.as_ref()) {
            (Expr::Literal(l), Expr::Literal(h))
                if l.total_cmp(h) == std::cmp::Ordering::Greater =>
            {
                Some(Expr::Between {
                    expr: expr.clone(),
                    low: high.clone(),
                    high: low.clone(),
                    negated: *negated,
                })
            }
            _ => None,
        },
        // Injected fault: `col IS NULL` folded to FALSE for NOT NULL columns
        // (wrong in the presence of outer joins).
        Expr::IsNull { expr, negated } if faults.has(Fault::BadNotnullIsnullFolding) => {
            match expr.as_ref() {
                Expr::Column(col) if column_is_not_null(db, col) => {
                    Some(Expr::Literal(Value::Boolean(*negated)))
                }
                _ => None,
            }
        }
        _ => None,
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
/// constant-folding faults are enabled. `None` when nothing folds.
fn constant_fold(db: &Database, evaluator: &Evaluator<'_>, expr: &Expr) -> Option<Expr> {
    rewrite_bottom_up(expr, &mut |node| fold_node(db, evaluator, node))
}

fn fold_node(db: &Database, evaluator: &Evaluator<'_>, expr: &Expr) -> Option<Expr> {
    let faults = &db.config.faults;
    match expr {
        Expr::Binary { left, op, right } => {
            let (Expr::Literal(lv), Expr::Literal(rv)) = (left.as_ref(), right.as_ref()) else {
                return None;
            };
            // Injected fault: constant folding treats the text '0'/'1' as
            // numbers even under strict typing.
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
                    _ => return None,
                };
                return Some(Expr::Literal(Value::Boolean(out)));
            }
            evaluator.apply_binary(*op, lv, rv).ok().map(Expr::Literal)
        }
        // Injected fault: a first branch whose condition coerces to a
        // non-zero literal is folded away — wrong when the condition is
        // genuinely NULL at runtime (e.g. references a column).
        Expr::Case {
            operand: None,
            branches,
            ..
        } if faults.has(Fault::BadCaseFolding) => match &branches.first()?.when {
            Expr::Literal(v) if v.coerce_f64().unwrap_or(0.0) != 0.0 || v.is_null() => {
                Some(branches[0].then.clone())
            }
            _ => None,
        },
        _ => None,
    }
}

/// Rewrites every immediate child expression with `f` and, when any child
/// changed, rebuilds the node around the new children (cloning the
/// unchanged ones). `None` when no child changed. Subqueries are left
/// alone: they are optimized when they are executed.
fn map_children(expr: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
    // The rewritten form of a boxed child, or `None` when it is unchanged.
    fn child(e: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Box<Expr>> {
        f(e).map(Box::new)
    }
    fn pick(new: Option<Box<Expr>>, old: &Expr) -> Box<Expr> {
        new.unwrap_or_else(|| Box::new(old.clone()))
    }
    // The rewritten list, or `None` when no element changed.
    fn list(items: &[Expr], f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Vec<Expr>> {
        let mut out: Option<Vec<Expr>> = None;
        for (i, item) in items.iter().enumerate() {
            if let Some(new) = f(item) {
                out.get_or_insert_with(|| items[..i].to_vec()).push(new);
            } else if let Some(out) = &mut out {
                out.push(item.clone());
            }
        }
        out
    }
    match expr {
        Expr::Literal(_) | Expr::Column(_) | Expr::ScalarSubquery(_) | Expr::Exists { .. } => None,
        Expr::Unary { op, expr } => Some(Expr::Unary {
            op: *op,
            expr: child(expr, f)?,
        }),
        Expr::Binary { left, op, right } => {
            let (l, r) = (child(left, f), child(right, f));
            if l.is_none() && r.is_none() {
                return None;
            }
            Some(Expr::Binary {
                left: pick(l, left),
                op: *op,
                right: pick(r, right),
            })
        }
        Expr::Function { func, args } => Some(Expr::Function {
            func: *func,
            args: list(args, f)?,
        }),
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Some(Expr::Aggregate {
            func: *func,
            arg: Some(child(arg.as_ref()?, f)?),
            distinct: *distinct,
        }),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let new_operand = operand.as_ref().and_then(|o| child(o, f));
            let mut new_branches: Option<Vec<sql_ast::CaseBranch>> = None;
            for (i, b) in branches.iter().enumerate() {
                let (when, then) = (f(&b.when), f(&b.then));
                if when.is_none() && then.is_none() && new_branches.is_none() {
                    continue;
                }
                let out = new_branches.get_or_insert_with(|| branches[..i].to_vec());
                out.push(sql_ast::CaseBranch {
                    when: when.unwrap_or_else(|| b.when.clone()),
                    then: then.unwrap_or_else(|| b.then.clone()),
                });
            }
            let new_else = else_expr.as_ref().and_then(|e| child(e, f));
            if new_operand.is_none() && new_branches.is_none() && new_else.is_none() {
                return None;
            }
            Some(Expr::Case {
                operand: new_operand.or_else(|| operand.clone()),
                branches: new_branches.unwrap_or_else(|| branches.clone()),
                else_expr: new_else.or_else(|| else_expr.clone()),
            })
        }
        Expr::Cast { expr, data_type } => Some(Expr::Cast {
            expr: child(expr, f)?,
            data_type: *data_type,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let (e, l, h) = (child(expr, f), child(low, f), child(high, f));
            if e.is_none() && l.is_none() && h.is_none() {
                return None;
            }
            Some(Expr::Between {
                expr: pick(e, expr),
                low: pick(l, low),
                high: pick(h, high),
                negated: *negated,
            })
        }
        Expr::InList {
            expr,
            list: items,
            negated,
        } => {
            let (e, l) = (child(expr, f), list(items, f));
            if e.is_none() && l.is_none() {
                return None;
            }
            Some(Expr::InList {
                expr: pick(e, expr),
                list: l.unwrap_or_else(|| items.clone()),
                negated: *negated,
            })
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Some(Expr::InSubquery {
            expr: child(expr, f)?,
            subquery: subquery.clone(),
            negated: *negated,
        }),
        Expr::IsNull { expr, negated } => Some(Expr::IsNull {
            expr: child(expr, f)?,
            negated: *negated,
        }),
        Expr::IsBool {
            expr,
            target,
            negated,
        } => Some(Expr::IsBool {
            expr: child(expr, f)?,
            target: *target,
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (e, p) = (child(expr, f), child(pattern, f));
            if e.is_none() && p.is_none() {
                return None;
            }
            Some(Expr::Like {
                expr: pick(e, expr),
                pattern: pick(p, pattern),
                negated: *negated,
            })
        }
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
    fn a_query_no_rewrite_changes_is_borrowed() {
        // Every structural fault is armed, but none applies: no outer
        // join, no DISTINCT and no HAVING.
        let db = db_with(&[
            Fault::BadPredicatePushdown,
            Fault::BadJoinFlattening,
            Fault::BadDistinctElimination,
            Fault::BadHavingPushdown,
            Fault::BadNotElimination,
        ]);
        let select = match parse_statement(
            "SELECT t0.c0 FROM t0 JOIN t1 ON t0.c0 < t1.c0 WHERE NOT (t0.c0 > 1) AND t1.c0 IN (1, 2)",
        )
        .unwrap()
        {
            sql_ast::Statement::Select(s) => *s,
            _ => unreachable!(),
        };
        assert!(matches!(
            optimize_select(&db, &select),
            std::borrow::Cow::Borrowed(_)
        ));
        // A rewrite that changes one predicate copies the query once.
        let changed = match parse_statement("SELECT c0 FROM t0 WHERE NOT (NOT (c0 = 1))").unwrap() {
            sql_ast::Statement::Select(s) => *s,
            _ => unreachable!(),
        };
        let optimized = optimize_select(&db_with(&[]), &changed);
        assert!(matches!(optimized, std::borrow::Cow::Owned(_)));
        assert_eq!(
            optimized.where_clause.as_ref().unwrap().to_string(),
            "(c0 = 1)"
        );
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
