//! Expression evaluation with SQL three-valued logic, typing disciplines and
//! fault injection.

use crate::config::TypingMode;
use crate::error::{EngineError, EngineResult};
use crate::exec::{execute_select_in_scope, ExecutionMode};
use crate::faults::Fault;
use crate::functions::eval_function;
use crate::storage::Database;
use sql_ast::{BinaryOp, ColumnRef, DataType, Expr, TruthValue, UnaryOp, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A relation visible inside a query scope: its visible name (alias or table
/// name) and its output column names.
///
/// Column names are behind an [`Arc`] so that binding a base table to a
/// scope (which happens for every executed query) shares the schema's name
/// list instead of cloning one `String` per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationBinding {
    /// The name under which the relation's columns are addressable.
    pub name: String,
    /// Column names, in order.
    pub columns: Arc<Vec<String>>,
}

impl RelationBinding {
    /// Creates a binding.
    pub fn new(name: impl Into<String>, columns: impl Into<Arc<Vec<String>>>) -> RelationBinding {
        RelationBinding {
            name: name.into(),
            columns: columns.into(),
        }
    }
}

/// A lexical scope for column resolution: the relations of the current query
/// level, the current row's values (flattened across relations), and an
/// optional parent scope for correlated subqueries.
///
/// The current row may come in parts: a joined row is one part per FROM
/// item, each borrowed where it lies (a stored row, a view's result row or
/// a shared NULL row), instead of one concatenated copy. The row is `row`
/// followed by each part of `tail`, and every read goes through
/// [`Scope::value`], which sees them as one flat row.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// Relations visible at this level.
    pub relations: &'a [RelationBinding],
    /// The current row (or its leading part), flattened in relation order.
    pub row: &'a [Value],
    /// The parts that follow `row` in the flat row, in relation order;
    /// empty unless the row is a joined row.
    pub tail: &'a [&'a [Value]],
    /// Enclosing scope, if evaluating inside a correlated subquery.
    pub parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// An empty scope (constant expressions only).
    pub const EMPTY: Scope<'static> = Scope {
        relations: &[],
        row: &[],
        tail: &[],
        parent: None,
    };

    /// Creates a scope with no parent.
    pub fn new(relations: &'a [RelationBinding], row: &'a [Value]) -> Scope<'a> {
        Scope {
            relations,
            row,
            tail: &[],
            parent: None,
        }
    }

    /// Creates a scope over a whole row, nested in `parent`.
    pub fn with_parent(
        relations: &'a [RelationBinding],
        row: &'a [Value],
        parent: Option<&'a Scope<'a>>,
    ) -> Scope<'a> {
        Scope {
            relations,
            row,
            tail: &[],
            parent,
        }
    }

    /// The value at flat position `i` of the current row: `row`, then each
    /// part of `tail`. `None` past the end, which readers treat as `NULL`.
    #[inline]
    pub fn value(&self, i: usize) -> Option<&'a Value> {
        if let Some(v) = self.row.get(i) {
            return Some(v);
        }
        let mut i = i - self.row.len();
        for part in self.tail {
            match part.get(i) {
                Some(v) => return Some(v),
                None => i -= part.len(),
            }
        }
        None
    }

    /// Resolves a column reference at this level only.
    fn resolve_local(&self, col: &ColumnRef) -> EngineResult<Option<Value>> {
        let mut offset = 0;
        let mut found: Option<Value> = None;
        for rel in self.relations {
            if let Some(table) = &col.table {
                if !rel.name.eq_ignore_ascii_case(table) {
                    offset += rel.columns.len();
                    continue;
                }
            }
            if let Some(i) = rel
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(&col.column))
            {
                let value = self.value(offset + i).cloned().unwrap_or(Value::Null);
                if found.is_some() && col.table.is_none() {
                    return Err(EngineError::catalog(format!(
                        "ambiguous column reference '{}'",
                        col.column
                    )));
                }
                found = Some(value);
                if col.table.is_some() {
                    return Ok(found);
                }
            }
            offset += rel.columns.len();
        }
        Ok(found)
    }

    /// Resolves a column reference, walking outward through parent scopes.
    pub fn resolve(&self, col: &ColumnRef) -> EngineResult<Value> {
        if let Some(v) = self.resolve_local(col)? {
            return Ok(v);
        }
        if let Some(parent) = self.parent {
            return parent.resolve(col);
        }
        Err(EngineError::catalog(format!("no such column: {col}")))
    }

    /// Whether a column reference can be resolved in this scope chain.
    pub fn can_resolve(&self, col: &ColumnRef) -> bool {
        match self.resolve_local(col) {
            Ok(Some(_)) => true,
            Ok(None) | Err(_) => self.parent.map(|p| p.can_resolve(col)).unwrap_or(false),
        }
    }
}

/// Evaluates expressions against a [`Database`] in a given execution mode.
pub struct Evaluator<'a> {
    /// The database (needed for subqueries and fault flags).
    pub db: &'a Database,
    /// Whether the enclosing query runs on the optimized or reference path;
    /// several injected faults only fire on the optimized path.
    pub mode: ExecutionMode,
    /// Pre-computed aggregate values for the current group, keyed by the SQL
    /// rendering of the aggregate expression. `None` outside aggregation.
    pub aggregates: Option<&'a BTreeMap<String, Value>>,
    /// Whether the mixed→numeric comparison coercion has been recorded by
    /// this evaluator — the dynamic comparison path takes it once per row,
    /// so recording is short-circuited after the first.
    mixed_coercion_recorded: std::cell::Cell<bool>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator without aggregate context.
    pub fn new(db: &'a Database, mode: ExecutionMode) -> Evaluator<'a> {
        Evaluator::with_aggregates(db, mode, None)
    }

    /// Creates an evaluator with pre-computed aggregate values in scope.
    pub fn with_aggregates(
        db: &'a Database,
        mode: ExecutionMode,
        aggregates: Option<&'a BTreeMap<String, Value>>,
    ) -> Evaluator<'a> {
        Evaluator {
            db,
            mode,
            aggregates,
            mixed_coercion_recorded: std::cell::Cell::new(false),
        }
    }

    fn typing(&self) -> TypingMode {
        self.db.config.typing
    }

    fn optimized(&self) -> bool {
        self.mode == ExecutionMode::Optimized
    }

    /// Evaluates an expression to a value.
    ///
    /// # Errors
    ///
    /// Returns an error for unresolvable columns, type errors under strict
    /// typing, or runtime errors (e.g. a scalar subquery with several rows).
    pub fn eval(&self, expr: &Expr, scope: &Scope<'_>) -> EngineResult<Value> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(c) => scope.resolve(c),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, scope)?;
                self.db.record_coverage(|cov| cov.unary_operator(*op));
                self.eval_unary(*op, v)
            }
            Expr::Binary { left, op, right } => {
                self.db.record_coverage(|cov| cov.binary_operator(*op));
                self.eval_binary(left, *op, right, scope)
            }
            Expr::Function { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, scope)?);
                }
                self.db.record_coverage(|cov| cov.scalar_function(*func));
                eval_function(*func, &values, self.typing(), &self.db.config.faults)
            }
            Expr::Aggregate { .. } => {
                let key = expr.to_string();
                match self.aggregates.and_then(|m| m.get(&key)) {
                    Some(v) => Ok(v.clone()),
                    None => Err(EngineError::runtime(
                        "aggregate function used outside aggregation context",
                    )),
                }
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => self.eval_case(operand.as_deref(), branches, else_expr.as_deref(), scope),
            Expr::Cast { expr, data_type } => {
                let v = self.eval(expr, scope)?;
                self.cast(v, *data_type)
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.eval(expr, scope)?;
                let lo = self.eval(low, scope)?;
                let hi = self.eval(high, scope)?;
                let ge = self.compare(&v, &lo)?.map(|o| o != Ordering::Less);
                let le = self.compare(&v, &hi)?.map(|o| o != Ordering::Greater);
                let t = match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => TruthValue::False,
                    (Some(true), Some(true)) => TruthValue::True,
                    _ => TruthValue::Unknown,
                };
                Ok(if *negated { t.not() } else { t }.to_value())
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval(expr, scope)?;
                let mut saw_null = false;
                let mut matched = false;
                for item in list {
                    let iv = self.eval(item, scope)?;
                    match self.equals(&v, &iv)? {
                        TruthValue::True => {
                            matched = true;
                            break;
                        }
                        TruthValue::Unknown => saw_null = true,
                        TruthValue::False => {}
                    }
                }
                let t = if matched {
                    TruthValue::True
                } else if saw_null {
                    TruthValue::Unknown
                } else {
                    TruthValue::False
                };
                Ok(if *negated { t.not() } else { t }.to_value())
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let v = self.eval(expr, scope)?;
                let rs = execute_select_in_scope(self.db, subquery, self.mode, Some(scope))?;
                let mut saw_null = false;
                let mut matched = false;
                for row in &rs.rows {
                    let candidate = row.first().cloned().unwrap_or(Value::Null);
                    match self.equals(&v, &candidate)? {
                        TruthValue::True => {
                            matched = true;
                            break;
                        }
                        TruthValue::Unknown => saw_null = true,
                        TruthValue::False => {}
                    }
                }
                let t = if matched {
                    TruthValue::True
                } else if saw_null {
                    TruthValue::Unknown
                } else {
                    TruthValue::False
                };
                Ok(if *negated { t.not() } else { t }.to_value())
            }
            Expr::Exists { subquery, negated } => {
                let rs = execute_select_in_scope(self.db, subquery, self.mode, Some(scope))?;
                let exists = !rs.rows.is_empty();
                Ok(Value::Boolean(if *negated { !exists } else { exists }))
            }
            Expr::ScalarSubquery(subquery) => {
                let rs = execute_select_in_scope(self.db, subquery, self.mode, Some(scope))?;
                match rs.rows.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(rs.rows[0].first().cloned().unwrap_or(Value::Null)),
                    _ => Err(EngineError::runtime(
                        "scalar subquery returned more than one row",
                    )),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, scope)?;
                let is_null = v.is_null();
                Ok(Value::Boolean(if *negated { !is_null } else { is_null }))
            }
            Expr::IsBool {
                expr,
                target,
                negated,
            } => {
                let v = self.eval(expr, scope)?;
                let t = self.truthiness(&v)?;
                let matches = match t {
                    TruthValue::True => *target,
                    TruthValue::False => !*target,
                    TruthValue::Unknown => false,
                };
                Ok(Value::Boolean(if *negated { !matches } else { matches }))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(expr, scope)?;
                let p = self.eval(pattern, scope)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let text = self.to_text(&v)?;
                let pat = self.to_text(&p)?;
                let underscore_is_literal =
                    self.optimized() && self.db.config.faults.has(Fault::BadLikeUnderscore);
                let matched = like_match(&text, &pat, underscore_is_literal);
                Ok(Value::Boolean(if *negated { !matched } else { matched }))
            }
        }
    }

    /// Evaluates an expression to a three-valued truth value, applying the
    /// typing discipline's rules for boolean contexts.
    ///
    /// # Errors
    ///
    /// Under strict typing, non-boolean values in a boolean context are type
    /// errors.
    pub fn eval_truth(&self, expr: &Expr, scope: &Scope<'_>) -> EngineResult<TruthValue> {
        let v = self.eval(expr, scope)?;
        self.truthiness(&v)
    }

    /// Truthiness of a value under the configured typing discipline.
    pub fn truthiness(&self, v: &Value) -> EngineResult<TruthValue> {
        match self.typing() {
            TypingMode::Dynamic => Ok(v.truthiness_dynamic()),
            TypingMode::Strict => v.truthiness_strict().ok_or_else(|| {
                EngineError::type_error(format!(
                    "argument of boolean context must be BOOLEAN, not {}",
                    v.data_type()
                ))
            }),
        }
    }

    fn eval_case(
        &self,
        operand: Option<&Expr>,
        branches: &[sql_ast::CaseBranch],
        else_expr: Option<&Expr>,
        scope: &Scope<'_>,
    ) -> EngineResult<Value> {
        match operand {
            Some(op) => {
                let base = self.eval(op, scope)?;
                for branch in branches {
                    let when = self.eval(&branch.when, scope)?;
                    if self.equals(&base, &when)? == TruthValue::True {
                        return self.eval(&branch.then, scope);
                    }
                }
            }
            None => {
                for branch in branches {
                    if self.eval_truth(&branch.when, scope)?.is_true() {
                        return self.eval(&branch.then, scope);
                    }
                }
            }
        }
        match else_expr {
            Some(e) => self.eval(e, scope),
            None => Ok(Value::Null),
        }
    }

    pub(crate) fn eval_unary(&self, op: UnaryOp, v: Value) -> EngineResult<Value> {
        match op {
            UnaryOp::Not => Ok(self.truthiness(&v)?.not().to_value()),
            UnaryOp::Neg | UnaryOp::Plus => {
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let n = self.to_number(&v)?;
                let n = if op == UnaryOp::Neg { -n } else { n };
                Ok(number_value(
                    n,
                    matches!(v, Value::Integer(_) | Value::Boolean(_)),
                ))
            }
            UnaryOp::BitNot => {
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let n = self.to_integer(&v)?;
                if self.db.config.faults.has(Fault::BadBitwiseInversion) && n < 0 {
                    // Injected fault (TiDB-style): negative operands are
                    // negated instead of bit-inverted.
                    return Ok(Value::Integer(-n));
                }
                Ok(Value::Integer(!n))
            }
        }
    }

    fn eval_binary(
        &self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        scope: &Scope<'_>,
    ) -> EngineResult<Value> {
        // Logical connectives need lazy-ish three-valued handling.
        if op == BinaryOp::And || op == BinaryOp::Or {
            let lt = self.eval_truth(left, scope)?;
            let rt = self.eval_truth(right, scope)?;
            let t = if op == BinaryOp::And {
                lt.and(rt)
            } else {
                lt.or(rt)
            };
            return Ok(t.to_value());
        }
        let lv = self.eval(left, scope)?;
        let rv = self.eval(right, scope)?;
        self.apply_binary(op, &lv, &rv)
    }

    /// Applies a binary operator to two already-evaluated values.
    pub fn apply_binary(&self, op: BinaryOp, lv: &Value, rv: &Value) -> EngineResult<Value> {
        use BinaryOp::*;
        match op {
            And => Ok(self.truthiness(lv)?.and(self.truthiness(rv)?).to_value()),
            Or => Ok(self.truthiness(lv)?.or(self.truthiness(rv)?).to_value()),
            Add | Sub | Mul | Div | Mod => self.arithmetic(op, lv, rv),
            Eq => Ok(self.equals(lv, rv)?.to_value()),
            Neq | NeqLtGt => Ok(self.equals(lv, rv)?.not().to_value()),
            Lt | Le | Gt | Ge => {
                let cmp = self.compare(lv, rv)?;
                let t = match cmp {
                    None => TruthValue::Unknown,
                    Some(ord) => TruthValue::from_bool(match op {
                        Lt => ord == Ordering::Less,
                        Le => ord != Ordering::Greater,
                        Gt => ord == Ordering::Greater,
                        Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    }),
                };
                Ok(t.to_value())
            }
            NullSafeEq => Ok(Value::Boolean(self.null_safe_equal(lv, rv)?)),
            IsDistinctFrom => Ok(Value::Boolean(!self.null_safe_equal(lv, rv)?)),
            IsNotDistinctFrom => Ok(Value::Boolean(self.null_safe_equal(lv, rv)?)),
            BitAnd | BitOr | BitXor | ShiftLeft | ShiftRight => {
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                let a = self.to_integer(lv)?;
                let b = self.to_integer(rv)?;
                let out = match op {
                    BitAnd => a & b,
                    BitOr => a | b,
                    BitXor => a ^ b,
                    ShiftLeft => a.wrapping_shl((b.rem_euclid(64)) as u32),
                    ShiftRight => a.wrapping_shr((b.rem_euclid(64)) as u32),
                    _ => unreachable!(),
                };
                Ok(Value::Integer(out))
            }
            Concat => {
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                let a = self.to_text(lv)?;
                let b = self.to_text(rv)?;
                Ok(Value::Text(format!("{a}{b}")))
            }
        }
    }

    fn arithmetic(&self, op: BinaryOp, lv: &Value, rv: &Value) -> EngineResult<Value> {
        if lv.is_null() || rv.is_null() {
            return Ok(Value::Null);
        }
        let a = self.to_number(lv)?;
        let b = self.to_number(rv)?;
        let both_integral = matches!(lv, Value::Integer(_) | Value::Boolean(_))
            && matches!(rv, Value::Integer(_) | Value::Boolean(_));
        let result = match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    return self.division_by_zero();
                }
                if both_integral {
                    let ai = a as i64;
                    let bi = b as i64;
                    if self.optimized() && self.db.config.faults.has(Fault::BadIntegerDivision) {
                        // Injected fault: rounds to nearest instead of
                        // truncating toward zero.
                        return Ok(Value::Integer((a / b).round() as i64));
                    }
                    return Ok(Value::Integer(ai.wrapping_div(bi)));
                }
                a / b
            }
            BinaryOp::Mod => {
                if b == 0.0 {
                    return self.division_by_zero();
                }
                if both_integral {
                    return Ok(Value::Integer((a as i64).wrapping_rem(b as i64)));
                }
                a % b
            }
            _ => unreachable!(),
        };
        Ok(number_value(result, both_integral))
    }

    fn division_by_zero(&self) -> EngineResult<Value> {
        match self.typing() {
            TypingMode::Dynamic => Ok(Value::Null),
            TypingMode::Strict => Err(EngineError::runtime("division by zero")),
        }
    }

    /// SQL equality under the configured typing discipline.
    pub fn equals(&self, lv: &Value, rv: &Value) -> EngineResult<TruthValue> {
        Ok(match self.compare(lv, rv)? {
            None => TruthValue::Unknown,
            Some(ord) => TruthValue::from_bool(ord == Ordering::Equal),
        })
    }

    fn null_safe_equal(&self, lv: &Value, rv: &Value) -> EngineResult<bool> {
        if lv.is_null() && rv.is_null() {
            return Ok(true);
        }
        if lv.is_null() || rv.is_null() {
            return Ok(false);
        }
        Ok(self.compare(lv, rv)? == Some(Ordering::Equal))
    }

    /// SQL comparison: `None` means the comparison is unknown (`NULL`).
    ///
    /// # Errors
    ///
    /// Under strict typing, comparing incompatible type families is an
    /// error.
    pub fn compare(&self, lv: &Value, rv: &Value) -> EngineResult<Option<Ordering>> {
        if lv.is_null() || rv.is_null() {
            return Ok(None);
        }
        let faults = &self.db.config.faults;
        match self.typing() {
            TypingMode::Strict => {
                let compatible = families_compatible(lv, rv);
                if !compatible {
                    return Err(EngineError::type_error(format!(
                        "cannot compare {} with {}",
                        lv.data_type(),
                        rv.data_type()
                    )));
                }
                Ok(Some(self.ordered_compare(lv, rv, faults)))
            }
            TypingMode::Dynamic => {
                // Dynamic comparison: if either side is numeric, coerce both
                // to numbers; otherwise compare as text.
                if lv.data_type().is_numeric()
                    || rv.data_type().is_numeric()
                    || matches!(lv, Value::Boolean(_))
                    || matches!(rv, Value::Boolean(_))
                {
                    let a = self.coerce_number_for_comparison(lv);
                    let b = self.coerce_number_for_comparison(rv);
                    if !self.mixed_coercion_recorded.get() {
                        self.mixed_coercion_recorded.set(true);
                        self.db.record_coverage(|cov| cov.mixed_numeric_coercion());
                    }
                    return Ok(a.partial_cmp(&b).or(Some(Ordering::Equal)));
                }
                Ok(Some(self.ordered_compare(lv, rv, faults)))
            }
        }
    }

    fn ordered_compare(
        &self,
        lv: &Value,
        rv: &Value,
        faults: &crate::faults::FaultConfig,
    ) -> Ordering {
        if let (Value::Text(a), Value::Text(b)) = (lv, rv) {
            if self.optimized() && faults.has(Fault::BadCollationComparison) {
                // Injected fault: case-insensitive comparison on the
                // optimized path only.
                return a.to_lowercase().cmp(&b.to_lowercase());
            }
            return a.cmp(b);
        }
        lv.total_cmp(rv)
    }

    fn coerce_number_for_comparison(&self, v: &Value) -> f64 {
        if let Value::Text(s) = v {
            if self.optimized() && self.db.config.faults.has(Fault::BadTextCoercionSign) {
                // Injected fault: the optimized coercion path drops a
                // leading minus sign.
                return sql_ast::parse_numeric_prefix(s.trim_start_matches('-'));
            }
        }
        v.coerce_f64().unwrap_or(0.0)
    }

    /// Converts a value to a number according to the typing discipline.
    ///
    /// # Errors
    ///
    /// Under strict typing, text and boolean operands of arithmetic are type
    /// errors.
    pub fn to_number(&self, v: &Value) -> EngineResult<f64> {
        match self.typing() {
            TypingMode::Dynamic => Ok(v.coerce_f64().unwrap_or(0.0)),
            TypingMode::Strict => v
                .as_f64_strict()
                .filter(|_| !matches!(v, Value::Boolean(_)))
                .ok_or_else(|| {
                    EngineError::type_error(format!(
                        "expected a numeric value, got {}",
                        v.data_type()
                    ))
                }),
        }
    }

    /// Converts a value to an integer according to the typing discipline.
    ///
    /// # Errors
    ///
    /// Under strict typing, non-integer operands are type errors.
    pub fn to_integer(&self, v: &Value) -> EngineResult<i64> {
        match self.typing() {
            TypingMode::Dynamic => Ok(v.coerce_i64().unwrap_or(0)),
            TypingMode::Strict => match v {
                Value::Integer(i) => Ok(*i),
                _ => Err(EngineError::type_error(format!(
                    "expected INTEGER, got {}",
                    v.data_type()
                ))),
            },
        }
    }

    /// Converts a value to text according to the typing discipline.
    ///
    /// # Errors
    ///
    /// Under strict typing, non-text operands are type errors.
    pub fn to_text(&self, v: &Value) -> EngineResult<String> {
        match self.typing() {
            TypingMode::Dynamic => Ok(v.coerce_text().unwrap_or_default()),
            TypingMode::Strict => match v {
                Value::Text(s) => Ok(s.clone()),
                _ => Err(EngineError::type_error(format!(
                    "expected TEXT, got {}",
                    v.data_type()
                ))),
            },
        }
    }

    /// Applies an explicit `CAST`.
    ///
    /// # Errors
    ///
    /// Under strict typing, casting text that does not fully parse to a
    /// number is an error.
    pub fn cast(&self, v: Value, target: DataType) -> EngineResult<Value> {
        if v.is_null() {
            return Ok(Value::Null);
        }
        self.db
            .record_coverage(|cov| cov.coercion(v.data_type(), target));
        match target {
            DataType::Integer => match (&v, self.typing()) {
                (Value::Text(s), TypingMode::Strict) => {
                    s.trim().parse::<i64>().map(Value::Integer).map_err(|_| {
                        EngineError::type_error(format!("invalid input for INTEGER: '{s}'"))
                    })
                }
                _ => Ok(Value::Integer(v.coerce_i64().unwrap_or(0))),
            },
            DataType::Real => match (&v, self.typing()) {
                (Value::Text(s), TypingMode::Strict) => {
                    s.trim().parse::<f64>().map(Value::Real).map_err(|_| {
                        EngineError::type_error(format!("invalid input for REAL: '{s}'"))
                    })
                }
                _ => Ok(Value::Real(v.coerce_f64().unwrap_or(0.0))),
            },
            DataType::Text => Ok(Value::Text(v.coerce_text().unwrap_or_default())),
            DataType::Boolean => match (&v, self.typing()) {
                (Value::Text(s), TypingMode::Strict) => {
                    match s.trim().to_ascii_lowercase().as_str() {
                        "true" | "t" | "1" => Ok(Value::Boolean(true)),
                        "false" | "f" | "0" => Ok(Value::Boolean(false)),
                        _ => Err(EngineError::type_error(format!(
                            "invalid input for BOOLEAN: '{s}'"
                        ))),
                    }
                }
                _ => Ok(v.truthiness_dynamic().to_value()),
            },
            DataType::Null => Ok(Value::Null),
        }
    }
}

/// Whether two values belong to comparable type families under strict
/// typing.
fn families_compatible(a: &Value, b: &Value) -> bool {
    use Value::*;
    matches!(
        (a, b),
        (Integer(_) | Real(_), Integer(_) | Real(_))
            | (Text(_), Text(_))
            | (Boolean(_), Boolean(_))
    )
}

/// Wraps an `f64` back into an integer value when the computation stayed
/// integral, otherwise into a real.
fn number_value(n: f64, integral: bool) -> Value {
    if integral && n.fract() == 0.0 && n.abs() < 9.0e18 {
        Value::Integer(n as i64)
    } else {
        Value::Real(n)
    }
}

/// SQL `LIKE` matching with `%` and `_` wildcards.
pub(crate) fn like_match(text: &str, pattern: &str, underscore_is_literal: bool) -> bool {
    fn rec(t: &[char], p: &[char], underscore_literal: bool) -> bool {
        if p.is_empty() {
            return t.is_empty();
        }
        match p[0] {
            '%' => {
                for skip in 0..=t.len() {
                    if rec(&t[skip..], &p[1..], underscore_literal) {
                        return true;
                    }
                }
                false
            }
            '_' if !underscore_literal => {
                !t.is_empty() && rec(&t[1..], &p[1..], underscore_literal)
            }
            c => !t.is_empty() && t[0] == c && rec(&t[1..], &p[1..], underscore_literal),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p, underscore_is_literal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    fn db_dynamic() -> Database {
        Database::new(EngineConfig::dynamic())
    }

    fn db_strict() -> Database {
        Database::new(EngineConfig::strict())
    }

    fn eval_const(db: &Database, sql: &str) -> EngineResult<Value> {
        let expr = sql_parser::parse_expression(sql).unwrap();
        Evaluator::new(db, ExecutionMode::Reference).eval(&expr, &Scope::EMPTY)
    }

    #[test]
    fn arithmetic_and_null_propagation() {
        let db = db_dynamic();
        assert_eq!(eval_const(&db, "1 + 2").unwrap(), Value::Integer(3));
        assert_eq!(eval_const(&db, "7 / 2").unwrap(), Value::Integer(3));
        assert_eq!(eval_const(&db, "7.0 / 2").unwrap(), Value::Real(3.5));
        assert_eq!(eval_const(&db, "1 + NULL").unwrap(), Value::Null);
        assert_eq!(eval_const(&db, "5 % 3").unwrap(), Value::Integer(2));
    }

    #[test]
    fn division_by_zero_differs_by_typing() {
        assert_eq!(eval_const(&db_dynamic(), "1 / 0").unwrap(), Value::Null);
        assert!(eval_const(&db_strict(), "1 / 0").is_err());
    }

    #[test]
    fn dynamic_coerces_text_in_comparison_strict_rejects() {
        let dynamic = db_dynamic();
        assert_eq!(
            eval_const(&dynamic, "'12' = 12").unwrap(),
            Value::Boolean(true)
        );
        assert!(eval_const(&db_strict(), "'12' = 12").is_err());
    }

    #[test]
    fn strict_rejects_arithmetic_on_text() {
        assert!(eval_const(&db_strict(), "'a' + 1").is_err());
        // Dynamic typing coerces the text to 0 and keeps the result numeric.
        assert_eq!(
            eval_const(&db_dynamic(), "'a' + 1").unwrap().coerce_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn three_valued_connectives() {
        let db = db_dynamic();
        assert_eq!(
            eval_const(&db, "NULL AND FALSE").unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(eval_const(&db, "NULL AND TRUE").unwrap(), Value::Null);
        assert_eq!(
            eval_const(&db, "NULL OR TRUE").unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(eval_const(&db, "NOT NULL").unwrap(), Value::Null);
    }

    #[test]
    fn null_safe_operators() {
        let db = db_dynamic();
        assert_eq!(
            eval_const(&db, "NULL <=> NULL").unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_const(&db, "1 <=> NULL").unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            eval_const(&db, "NULL IS DISTINCT FROM NULL").unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(eval_const(&db, "NULL = NULL").unwrap(), Value::Null);
    }

    #[test]
    fn case_between_in_like() {
        let db = db_dynamic();
        assert_eq!(
            eval_const(&db, "CASE WHEN 1 THEN 2 ELSE 3 END").unwrap(),
            Value::Integer(2)
        );
        assert_eq!(
            eval_const(&db, "CASE 5 WHEN 4 THEN 1 WHEN 5 THEN 2 END").unwrap(),
            Value::Integer(2)
        );
        assert_eq!(
            eval_const(&db, "5 BETWEEN 1 AND 10").unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_const(&db, "5 NOT IN (1, 2, 3)").unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(eval_const(&db, "5 IN (1, NULL, 3)").unwrap(), Value::Null);
        assert_eq!(
            eval_const(&db, "'abc' LIKE 'a%'").unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_const(&db, "'abc' LIKE 'a_c'").unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn cast_behaviour_by_mode() {
        let dynamic = db_dynamic();
        assert_eq!(
            eval_const(&dynamic, "CAST('12abc' AS INTEGER)").unwrap(),
            Value::Integer(12)
        );
        let strict = db_strict();
        assert!(eval_const(&strict, "CAST('12abc' AS INTEGER)").is_err());
        assert_eq!(
            eval_const(&strict, "CAST('12' AS INTEGER)").unwrap(),
            Value::Integer(12)
        );
        assert_eq!(
            eval_const(&strict, "CAST(1 AS BOOLEAN)").unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn bitwise_inversion_fault_changes_negative_inputs_only() {
        let mut cfg = EngineConfig::dynamic();
        cfg.faults.enable(Fault::BadBitwiseInversion);
        let buggy = Database::new(cfg);
        let sound = db_dynamic();
        assert_eq!(
            eval_const(&sound, "~5").unwrap(),
            eval_const(&buggy, "~5").unwrap()
        );
        assert_ne!(
            eval_const(&sound, "~(-5)").unwrap(),
            eval_const(&buggy, "~(-5)").unwrap()
        );
    }

    #[test]
    fn scope_resolution_and_ambiguity() {
        let relations = vec![
            RelationBinding::new("t0", vec!["c0".into(), "c1".into()]),
            RelationBinding::new("t1", vec!["c0".into()]),
        ];
        let row = vec![Value::Integer(1), Value::Integer(2), Value::Integer(3)];
        let scope = Scope::new(&relations, &row);
        assert_eq!(
            scope.resolve(&ColumnRef::qualified("t1", "c0")).unwrap(),
            Value::Integer(3)
        );
        assert_eq!(
            scope.resolve(&ColumnRef::unqualified("c1")).unwrap(),
            Value::Integer(2)
        );
        assert!(scope.resolve(&ColumnRef::unqualified("c0")).is_err());
        assert!(scope.resolve(&ColumnRef::unqualified("missing")).is_err());
    }

    #[test]
    fn like_matcher_corner_cases() {
        assert!(like_match("", "%", false));
        assert!(like_match("abc", "%c", false));
        assert!(!like_match("abc", "_", false));
        // Literal-underscore fault: 'a_c' matches only itself.
        assert!(like_match("a_c", "a_c", true));
        assert!(!like_match("abc", "a_c", true));
    }
}
