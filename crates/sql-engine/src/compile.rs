//! Closure-compiled expression evaluation.
//!
//! The tree-walking [`Evaluator`] re-interprets the AST for every row:
//! every column reference re-runs case-insensitive name resolution, every
//! function call re-validates its arity, every aggregate reference
//! re-renders its SQL key, and every node pays a `match` dispatch. This
//! module performs that work **once per statement** instead: an [`Expr`] is
//! compiled into a tree of reusable closures
//! (`Fn(&Evaluator, &Scope) -> EngineResult<Value>`) with
//!
//! * column references resolved to flat row offsets at compile time
//!   (ambiguity and missing-column errors become pre-built constant
//!   results),
//! * scalar-function arity validated at compile time and evaluation
//!   entering [`crate::functions`] through the pre-checked
//!   [`eval_function_unchecked`] door,
//! * aggregate lookup keys rendered once instead of per row, and
//! * constant subtrees memoized after their first evaluation.
//!
//! Compiled plans are cached per [`Database`] keyed by a 128-bit structural
//! fingerprint of `(execution mode, relation bindings, expression)`, so
//! re-executing a statement — which the TLP and NoREC oracles do
//! constantly — reuses the plan. The cache additionally shares the plan of
//! a predicate `p` across the oracle partition shapes `NOT p`, `p IS NULL`
//! and `p IS TRUE`, which is exactly the set of derived queries the oracles
//! issue per check.
//!
//! **Parity contract.** Compiled evaluation must be observationally
//! identical to the tree walker: same values, same errors (kind and
//! message), and the same final coverage sets. Closures therefore mirror
//! the tree walker's structure — including its evaluation order, error
//! short-circuiting and coverage recording points — and delegate all value
//! semantics (comparison, coercion, casts, faults) to the same [`Evaluator`]
//! helpers. The differential property suite and the fleet-level
//! compiled↔tree parity test enforce this contract.

use crate::config::EvalStrategy;
use crate::error::{EngineError, EngineResult};
use crate::eval::{like_match, Evaluator, RelationBinding, Scope};
use crate::exec::ExecutionMode;
use crate::faults::Fault;
use crate::functions::{arity_error, eval_function_unchecked, handles_nulls};
use crate::storage::Database;
use sql_ast::{BinaryOp, ColumnRef, DataType, Expr, Fingerprint128, TruthValue, UnaryOp, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// A compiled evaluation closure. `Send + Sync` so plans can live in the
/// per-database cache without making [`Database`] thread-hostile.
type EvalFn = Arc<dyn Fn(&Evaluator<'_>, &Scope<'_>) -> EngineResult<Value> + Send + Sync>;

/// A compiled expression: evaluate against rows without re-walking the AST.
#[derive(Clone)]
pub struct CompiledExpr {
    run: EvalFn,
}

impl CompiledExpr {
    /// Evaluates the compiled expression for one row.
    ///
    /// # Errors
    ///
    /// Exactly the errors the tree-walking [`Evaluator::eval`] would return
    /// for the same expression, row and configuration.
    pub fn eval(&self, evaluator: &Evaluator<'_>, scope: &Scope<'_>) -> EngineResult<Value> {
        (self.run)(evaluator, scope)
    }

    /// Evaluates to a three-valued truth value, applying the typing
    /// discipline's rules for boolean contexts.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::eval_truth`].
    pub fn eval_truth(
        &self,
        evaluator: &Evaluator<'_>,
        scope: &Scope<'_>,
    ) -> EngineResult<TruthValue> {
        evaluator.truthiness(&self.eval(evaluator, scope)?)
    }
}

impl std::fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CompiledExpr")
    }
}

// ------------------------------------------------------------ plan cache ----

/// Entries kept before the cache is wiped. Campaigns reset their database
/// (and with it this cache) between test databases; the cap only bounds
/// pathological single-database runs, and wiping wholesale keeps eviction
/// deterministic.
const PLAN_CACHE_CAP: usize = 1024;

/// Per-database cache of compiled plans, keyed by the 128-bit structural
/// fingerprint of `(mode, bindings, expression)`.
#[derive(Default)]
pub(crate) struct PlanCache {
    plans: std::rc::Rc<RefCell<BTreeMap<u128, EvalFn>>>,
}

impl PlanCache {
    fn get(&self, key: u128) -> Option<EvalFn> {
        self.plans.borrow().get(&key).cloned()
    }

    fn insert(&self, key: u128, plan: EvalFn) {
        let mut plans = self.plans.borrow_mut();
        if plans.len() >= PLAN_CACHE_CAP {
            plans.clear();
        }
        plans.insert(key, plan);
    }

    /// Drops every cached plan. Called when coverage accounting is reset:
    /// plans record operator/function coverage only on their first
    /// evaluation, so a plan that survived a coverage reset would never
    /// re-record its features.
    pub(crate) fn clear(&self) {
        self.plans.borrow_mut().clear();
    }
}

impl Clone for PlanCache {
    /// A cloned database **shares** the cache: with copy-on-write storage,
    /// clones are the hot `BEGIN` snapshot path, and a workspace that had
    /// to recompile every plan would pay per transaction what the cache
    /// exists to avoid. Sharing is sound because the cache key bakes in
    /// the typing discipline and fault bits alongside the structural
    /// fingerprint (see [`plan_key`]), and compiled plans read all
    /// remaining behaviour from the database they are evaluated against.
    fn clone(&self) -> PlanCache {
        PlanCache {
            plans: std::rc::Rc::clone(&self.plans),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlanCache({} plans)", self.plans.borrow().len())
    }
}

fn plan_key(db: &Database, mode: ExecutionMode, bindings: &[RelationBinding], expr: &Expr) -> u128 {
    let mut h = Fingerprint128::new();
    let mode_tag = match mode {
        ExecutionMode::Optimized => 1,
        ExecutionMode::Reference => 2,
    };
    let typing_tag = match db.config.typing {
        crate::config::TypingMode::Dynamic => 0u64,
        crate::config::TypingMode::Strict => 1,
    };
    // Typing and fault flags are keyed in so that mutating `db.config` in
    // place can never serve a plan (or a memoized constant result) compiled
    // under the previous configuration.
    h.write_word(mode_tag | (typing_tag << 2) | ((bindings.len() as u64) << 8));
    h.write_word(db.config.faults.bits());
    for b in bindings {
        h.write_str_words(&b.name);
        h.write_word(b.columns.len() as u64);
        for c in b.columns.iter() {
            h.write_str_words(c);
        }
    }
    expr.fingerprint_into(&mut h);
    h.finish()
}

// --------------------------------------------------------------- entry ----

/// Compiles an expression for evaluation against rows shaped by `bindings`.
///
/// `mode` selects which plan-cache partition the result lives in (several
/// injected faults read the mode at evaluation time, and memoized constant
/// results must therefore never cross modes). Plans are scope-polymorphic:
/// a column that does not bind locally compiles to a closure that defers to
/// the evaluation scope's parent chain at run time, so the same cached plan
/// serves both correlated (outer scope attached) and top-level evaluation —
/// this is what lets correlated-subquery sites compile **once per
/// statement** and hit the cache on every subsequent outer row instead of
/// falling back to the tree walker per row. Subquery-*containing*
/// expressions cache too: the structural fingerprint descends into subquery
/// bodies ([`sql_ast::Select::fingerprint_into`]), and the subquery nodes
/// themselves compile to closures that re-execute the query per evaluation
/// — structure lives in the cached plan, data is read at run time.
pub fn compile_expr(
    db: &Database,
    mode: ExecutionMode,
    bindings: &[RelationBinding],
    expr: &Expr,
) -> CompiledExpr {
    // Single-node expressions (plain column projections, literals) compile
    // to one closure; going through the cache would cost more than the
    // compile.
    if matches!(expr, Expr::Literal(_) | Expr::Column(_)) {
        let env = CompileEnv { bindings };
        return CompiledExpr {
            run: compile_node(expr, &env).into_root(),
        };
    }
    let key = plan_key(db, mode, bindings, expr);
    if let Some(run) = db.plan_cache().get(key) {
        return CompiledExpr { run };
    }
    // Oracle partition sharing: `NOT p`, `p IS NULL` and `p IS TRUE` — the
    // exact derived-query shapes TLP and NoREC issue — wrap the *cached*
    // plan of `p` instead of recompiling it.
    let run = match expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: inner,
        } => unary_fn(UnaryOp::Not, compile_expr(db, mode, bindings, inner).run),
        Expr::IsNull {
            expr: inner,
            negated,
        } => is_null_fn(
            Operand::Eval(compile_expr(db, mode, bindings, inner).run),
            *negated,
        ),
        Expr::IsBool {
            expr: inner,
            target,
            negated,
        } => is_bool_fn(
            compile_expr(db, mode, bindings, inner).run,
            *target,
            *negated,
        ),
        _ => {
            let env = CompileEnv { bindings };
            compile_node(expr, &env).into_root()
        }
    };
    db.plan_cache().insert(key, run.clone());
    CompiledExpr { run }
}

/// A per-site expression plan: the compiled closure tree by default, or the
/// borrowed AST re-walked by the tree evaluator when the engine is
/// configured as the reference arm.
#[derive(Debug)]
pub enum SiteExpr<'e> {
    /// Closure-compiled plan.
    Compiled(CompiledExpr),
    /// Tree-walking reference evaluation.
    Tree(&'e Expr),
}

impl<'e> SiteExpr<'e> {
    /// Builds the plan for one evaluation site according to the database's
    /// configured [`EvalStrategy`].
    ///
    /// Sites with an outer scope belong to a correlated-subquery execution,
    /// which both evaluators re-run per *outer* row. Compiled plans are
    /// scope-polymorphic (non-local columns defer to the parent scope at
    /// evaluation time), so these sites go through [`compile_expr`] like any
    /// other: the first outer row pays the compile, every later row is a
    /// cache hit — the subquery body is effectively memoized once per
    /// statement instead of tree-walked per outer row.
    /// Subquery-*containing* expressions compile and cache as well (the
    /// structural fingerprint descends into subquery bodies); only the
    /// subquery node itself delegates to the tree walker, so its per-row
    /// re-execution stays identical on both evaluators while every sibling
    /// subtree runs compiled.
    pub fn new(
        db: &Database,
        mode: ExecutionMode,
        bindings: &[RelationBinding],
        expr: &'e Expr,
    ) -> SiteExpr<'e> {
        match db.config.eval {
            EvalStrategy::Compiled => SiteExpr::Compiled(compile_expr(db, mode, bindings, expr)),
            EvalStrategy::TreeWalk => SiteExpr::Tree(expr),
        }
    }

    /// Evaluates the site's expression for one row.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::eval`].
    pub fn eval(&self, evaluator: &Evaluator<'_>, scope: &Scope<'_>) -> EngineResult<Value> {
        match self {
            SiteExpr::Compiled(c) => c.eval(evaluator, scope),
            SiteExpr::Tree(e) => evaluator.eval(e, scope),
        }
    }

    /// Evaluates the site's expression to a truth value.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::eval_truth`].
    pub fn eval_truth(
        &self,
        evaluator: &Evaluator<'_>,
        scope: &Scope<'_>,
    ) -> EngineResult<TruthValue> {
        match self {
            SiteExpr::Compiled(c) => c.eval_truth(evaluator, scope),
            SiteExpr::Tree(e) => evaluator.eval_truth(e, scope),
        }
    }
}

// --------------------------------------------------------- compilation ----

struct CompileEnv<'a> {
    bindings: &'a [RelationBinding],
}

/// A compiled node plus what the compiler knows about it.
struct Node {
    f: EvalFn,
    /// Row- and scope-independent: safe to memoize after first evaluation.
    constant: bool,
    /// So cheap to re-run (literal clone) that memoization would only add
    /// overhead.
    trivial: bool,
}

impl Node {
    fn plain(f: EvalFn) -> Node {
        Node {
            f,
            constant: false,
            trivial: false,
        }
    }

    /// Extracts the closure for use inside a parent node. A constant child
    /// under a non-constant parent is wrapped in a lazy memo: the first
    /// evaluation runs the real closures (recording coverage exactly like
    /// the tree walker's first row would), later rows return the cached
    /// result. Coverage sets stay identical because they are sets — and a
    /// zero-row loop, where the tree walker records nothing, never triggers
    /// the memo either.
    fn into_child(self, parent_constant: bool) -> EvalFn {
        if self.constant && !self.trivial && !parent_constant {
            memoized(self.f)
        } else {
            self.f
        }
    }

    /// Extracts the closure for use as the plan root.
    fn into_root(self) -> EvalFn {
        if self.constant && !self.trivial {
            memoized(self.f)
        } else {
            self.f
        }
    }
}

fn memoized(f: EvalFn) -> EvalFn {
    let cell: OnceLock<EngineResult<Value>> = OnceLock::new();
    Arc::new(move |ev, scope| cell.get_or_init(|| f(ev, scope)).clone())
}

/// Once-per-plan coverage gate. The tree walker re-records the same
/// operator/function coverage point for every row — a `RefCell` borrow plus
/// a bit OR per node per row. Coverage is a *set*, so recording only on
/// a node's first actual evaluation produces the identical final set (a
/// node that is never evaluated — zero rows, untaken CASE branch — records
/// nothing on either path). [`Database::reset_coverage`] drops cached plans
/// so a reset never leaves a plan with a spent gate.
struct CoverageGate(AtomicBool);

impl CoverageGate {
    fn new() -> CoverageGate {
        CoverageGate(AtomicBool::new(false))
    }

    fn record(&self, ev: &Evaluator<'_>, f: impl FnOnce(&mut crate::coverage::CoverageTracker)) {
        if !self.0.load(AtomicOrdering::Relaxed) {
            self.0.store(true, AtomicOrdering::Relaxed);
            ev.db.record_coverage(f);
        }
    }
}

// Shared node constructors (used by both the general compiler and the
// root-level oracle-shape sharing in `compile_expr`). Each mirrors the
// corresponding arm of `Evaluator::eval`, including its coverage-recording
// point and evaluation order.

fn unary_fn(op: UnaryOp, child: EvalFn) -> EvalFn {
    let gate = CoverageGate::new();
    Arc::new(move |ev, scope| {
        let v = child(ev, scope)?;
        gate.record(ev, |cov| cov.unary_operator(op));
        ev.eval_unary(op, v)
    })
}

fn is_null_fn(child: Operand, negated: bool) -> EvalFn {
    Arc::new(move |ev, scope| {
        let is_null = child.read(ev, scope)?.is_null();
        Ok(Value::Boolean(if negated { !is_null } else { is_null }))
    })
}

/// The value a missing column reads as.
static NULL: Value = Value::Null;

/// How a node reads one of its operands. A column that binds locally and a
/// literal are read in place, so comparing, testing or matching them copies
/// no value (a text value would be a fresh `String` per row); any other
/// operand runs its compiled closure. Both in-place forms read exactly what
/// their closures would return, and neither records coverage or fails.
enum Operand {
    Column(usize),
    Literal(Value),
    Eval(EvalFn),
}

impl Operand {
    /// The operand for `expr`, compiled as `node` under a parent whose
    /// constness is `parent_constant`.
    fn new(expr: &Expr, node: Node, parent_constant: bool, env: &CompileEnv<'_>) -> Operand {
        match expr {
            Expr::Literal(v) => Operand::Literal(v.clone()),
            Expr::Column(col) => match resolve_column(env.bindings, col) {
                Resolution::Offset(i) => Operand::Column(i),
                Resolution::Ambiguous | Resolution::NotLocal => {
                    Operand::Eval(node.into_child(parent_constant))
                }
            },
            _ => Operand::Eval(node.into_child(parent_constant)),
        }
    }

    #[inline]
    fn read<'v>(&'v self, ev: &Evaluator<'_>, scope: &Scope<'v>) -> EngineResult<Cow<'v, Value>> {
        Ok(match self {
            Operand::Column(i) => Cow::Borrowed(scope.value(*i).unwrap_or(&NULL)),
            Operand::Literal(v) => Cow::Borrowed(v),
            Operand::Eval(f) => Cow::Owned(f(ev, scope)?),
        })
    }
}

fn is_bool_fn(child: EvalFn, target: bool, negated: bool) -> EvalFn {
    Arc::new(move |ev, scope| {
        let v = child(ev, scope)?;
        let matches = match ev.truthiness(&v)? {
            TruthValue::True => target,
            TruthValue::False => !target,
            TruthValue::Unknown => false,
        };
        Ok(Value::Boolean(if negated { !matches } else { matches }))
    })
}

/// Compile-time column resolution against the site's bindings, mirroring
/// `Scope::resolve_local` (which only ever consults names, never row
/// values, so its outcome is fully determined at compile time).
enum Resolution {
    /// Resolves locally to this flat row offset.
    Offset(usize),
    /// Ambiguous unqualified reference: a constant error.
    Ambiguous,
    /// Not visible locally: defer to the parent scope at evaluation time.
    NotLocal,
}

/// Resolves a plain column to its flat row offset when it binds
/// unambiguously in the local bindings — the allocation-free projection
/// fast path (`SELECT c0, c1 ...` needs no closure at all).
pub(crate) fn local_column_offset(bindings: &[RelationBinding], col: &ColumnRef) -> Option<usize> {
    match resolve_column(bindings, col) {
        Resolution::Offset(i) => Some(i),
        Resolution::Ambiguous | Resolution::NotLocal => None,
    }
}

fn resolve_column(bindings: &[RelationBinding], col: &ColumnRef) -> Resolution {
    let mut offset = 0;
    let mut found: Option<usize> = None;
    for rel in bindings {
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
            if found.is_some() && col.table.is_none() {
                return Resolution::Ambiguous;
            }
            found = Some(offset + i);
            if col.table.is_some() {
                return Resolution::Offset(offset + i);
            }
        }
        offset += rel.columns.len();
    }
    match found {
        Some(i) => Resolution::Offset(i),
        None => Resolution::NotLocal,
    }
}

fn compile_column(col: &ColumnRef, env: &CompileEnv<'_>) -> Node {
    match resolve_column(env.bindings, col) {
        Resolution::Offset(i) => Node::plain(Arc::new(move |_, scope| {
            Ok(scope.value(i).cloned().unwrap_or(Value::Null))
        })),
        Resolution::Ambiguous => {
            let err = EngineError::catalog(format!("ambiguous column reference '{}'", col.column));
            Node::plain(Arc::new(move |_, _| Err(err.clone())))
        }
        Resolution::NotLocal => {
            let col = col.clone();
            Node::plain(Arc::new(move |_, scope| match scope.parent {
                Some(parent) => parent.resolve(&col),
                None => Err(EngineError::catalog(format!("no such column: {col}"))),
            }))
        }
    }
}

#[allow(clippy::too_many_lines)]
fn compile_node(expr: &Expr, env: &CompileEnv<'_>) -> Node {
    match expr {
        Expr::Literal(v) => {
            let v = v.clone();
            Node {
                f: Arc::new(move |_, _| Ok(v.clone())),
                constant: true,
                trivial: true,
            }
        }
        Expr::Column(col) => compile_column(col, env),
        Expr::Unary { op, expr } => {
            let child = compile_node(expr, env);
            let constant = child.constant;
            Node {
                f: unary_fn(*op, child.into_child(constant)),
                constant,
                trivial: false,
            }
        }
        Expr::Binary { left, op, right } => {
            let l = compile_node(left, env);
            let r = compile_node(right, env);
            let constant = l.constant && r.constant;
            let op = *op;
            let gate = CoverageGate::new();
            let f: EvalFn = if matches!(op, BinaryOp::And | BinaryOp::Or) {
                let lf = l.into_child(constant);
                let rf = r.into_child(constant);
                Arc::new(move |ev, scope| {
                    gate.record(ev, |cov| cov.binary_operator(op));
                    let lt = ev.truthiness(&lf(ev, scope)?)?;
                    let rt = ev.truthiness(&rf(ev, scope)?)?;
                    let t = if op == BinaryOp::And {
                        lt.and(rt)
                    } else {
                        lt.or(rt)
                    };
                    Ok(t.to_value())
                })
            } else {
                let lo = Operand::new(left, l, constant, env);
                let ro = Operand::new(right, r, constant, env);
                Arc::new(move |ev, scope| {
                    gate.record(ev, |cov| cov.binary_operator(op));
                    let lv = lo.read(ev, scope)?;
                    let rv = ro.read(ev, scope)?;
                    ev.apply_binary(op, &lv, &rv)
                })
            };
            Node {
                f,
                constant,
                trivial: false,
            }
        }
        Expr::Function { func, args } => {
            let nodes: Vec<Node> = args.iter().map(|a| compile_node(a, env)).collect();
            let constant = nodes.iter().all(|n| n.constant);
            let fns: Vec<EvalFn> = nodes.into_iter().map(|n| n.into_child(constant)).collect();
            let func = *func;
            // Arity is validated here, once; the tree walker re-validates it
            // per row inside `eval_function`. The error still surfaces only
            // after argument evaluation, exactly as on the tree path.
            let bad_arity = (args.len() < func.min_args() || args.len() > func.max_args())
                .then(|| arity_error(func, args.len()));
            let propagates_null = !handles_nulls(func);
            let gate = CoverageGate::new();
            Node {
                f: Arc::new(move |ev, scope| {
                    let mut values = Vec::with_capacity(fns.len());
                    for f in &fns {
                        values.push(f(ev, scope)?);
                    }
                    gate.record(ev, |cov| cov.scalar_function(func));
                    if let Some(err) = &bad_arity {
                        return Err(err.clone());
                    }
                    if propagates_null && values.iter().any(Value::is_null) {
                        return Ok(Value::Null);
                    }
                    eval_function_unchecked(
                        func,
                        &values,
                        ev.db.config.typing,
                        &ev.db.config.faults,
                    )
                }),
                constant,
                trivial: false,
            }
        }
        Expr::Aggregate { .. } => {
            // The lookup key — the SQL rendering of the aggregate — is
            // hoisted to compile time; the tree walker re-renders it per row.
            let key = expr.to_string();
            Node::plain(Arc::new(move |ev, _| {
                match ev.aggregates.and_then(|m| m.get(&key)) {
                    Some(v) => Ok(v.clone()),
                    None => Err(EngineError::runtime(
                        "aggregate function used outside aggregation context",
                    )),
                }
            }))
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let operand_n = operand.as_deref().map(|o| compile_node(o, env));
            let branch_n: Vec<(Node, Node)> = branches
                .iter()
                .map(|b| (compile_node(&b.when, env), compile_node(&b.then, env)))
                .collect();
            let else_n = else_expr.as_deref().map(|e| compile_node(e, env));
            let constant = operand_n.as_ref().is_none_or(|n| n.constant)
                && branch_n.iter().all(|(w, t)| w.constant && t.constant)
                && else_n.as_ref().is_none_or(|n| n.constant);
            let operand_f = operand_n.map(|n| n.into_child(constant));
            let branch_f: Vec<(EvalFn, EvalFn)> = branch_n
                .into_iter()
                .map(|(w, t)| (w.into_child(constant), t.into_child(constant)))
                .collect();
            let else_f = else_n.map(|n| n.into_child(constant));
            Node {
                f: Arc::new(move |ev, scope| {
                    match &operand_f {
                        Some(opf) => {
                            let base = opf(ev, scope)?;
                            for (when_f, then_f) in &branch_f {
                                let when = when_f(ev, scope)?;
                                if ev.equals(&base, &when)? == TruthValue::True {
                                    return then_f(ev, scope);
                                }
                            }
                        }
                        None => {
                            for (when_f, then_f) in &branch_f {
                                if ev.truthiness(&when_f(ev, scope)?)?.is_true() {
                                    return then_f(ev, scope);
                                }
                            }
                        }
                    }
                    match &else_f {
                        Some(e) => e(ev, scope),
                        None => Ok(Value::Null),
                    }
                }),
                constant,
                trivial: false,
            }
        }
        Expr::Cast { expr, data_type } => {
            let child = compile_node(expr, env);
            let constant = child.constant;
            let f = child.into_child(constant);
            let data_type: DataType = *data_type;
            Node {
                f: Arc::new(move |ev, scope| ev.cast(f(ev, scope)?, data_type)),
                constant,
                trivial: false,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let e = compile_node(expr, env);
            let l = compile_node(low, env);
            let h = compile_node(high, env);
            let constant = e.constant && l.constant && h.constant;
            let eo = Operand::new(expr, e, constant, env);
            let lo = Operand::new(low, l, constant, env);
            let ho = Operand::new(high, h, constant, env);
            let negated = *negated;
            Node {
                f: Arc::new(move |ev, scope| {
                    let v = eo.read(ev, scope)?;
                    let lo = lo.read(ev, scope)?;
                    let hi = ho.read(ev, scope)?;
                    let ge = ev.compare(&v, &lo)?.map(|o| o != Ordering::Less);
                    let le = ev.compare(&v, &hi)?.map(|o| o != Ordering::Greater);
                    let t = match (ge, le) {
                        (Some(false), _) | (_, Some(false)) => TruthValue::False,
                        (Some(true), Some(true)) => TruthValue::True,
                        _ => TruthValue::Unknown,
                    };
                    Ok(if negated { t.not() } else { t }.to_value())
                }),
                constant,
                trivial: false,
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let e = compile_node(expr, env);
            let items: Vec<Node> = list.iter().map(|i| compile_node(i, env)).collect();
            let constant = e.constant && items.iter().all(|n| n.constant);
            let eo = Operand::new(expr, e, constant, env);
            let item_o: Vec<Operand> = list
                .iter()
                .zip(items)
                .map(|(item, n)| Operand::new(item, n, constant, env))
                .collect();
            let negated = *negated;
            Node {
                f: Arc::new(move |ev, scope| {
                    let v = eo.read(ev, scope)?;
                    let mut saw_null = false;
                    let mut matched = false;
                    for item in &item_o {
                        let iv = item.read(ev, scope)?;
                        match ev.equals(&v, &iv)? {
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
                    Ok(if negated { t.not() } else { t }.to_value())
                }),
                constant,
                trivial: false,
            }
        }
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {
            // Subquery nodes delegate to the tree walker verbatim: their
            // cost is the subquery re-execution (identical on both
            // evaluators), and delegation makes parity true by
            // construction instead of by a hand-mirrored copy. Sibling
            // subtrees still compile, and the whole plan is cacheable
            // because the structural fingerprint covers the subquery body —
            // the closure re-executes the query against the database's
            // *current* data on every evaluation.
            let expr = expr.clone();
            Node::plain(Arc::new(move |ev, scope| ev.eval(&expr, scope)))
        }
        Expr::IsNull { expr, negated } => {
            let child = compile_node(expr, env);
            let constant = child.constant;
            Node {
                f: is_null_fn(Operand::new(expr, child, constant, env), *negated),
                constant,
                trivial: false,
            }
        }
        Expr::IsBool {
            expr,
            target,
            negated,
        } => {
            let child = compile_node(expr, env);
            let constant = child.constant;
            Node {
                f: is_bool_fn(child.into_child(constant), *target, *negated),
                constant,
                trivial: false,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let e = compile_node(expr, env);
            let p = compile_node(pattern, env);
            let constant = e.constant && p.constant;
            let eo = Operand::new(expr, e, constant, env);
            let po = Operand::new(pattern, p, constant, env);
            let negated = *negated;
            Node {
                f: Arc::new(move |ev, scope| {
                    let v = eo.read(ev, scope)?;
                    let pv = po.read(ev, scope)?;
                    if v.is_null() || pv.is_null() {
                        return Ok(Value::Null);
                    }
                    let text = ev.to_text(&v)?;
                    let pat = ev.to_text(&pv)?;
                    let underscore_is_literal = ev.mode == ExecutionMode::Optimized
                        && ev.db.config.faults.has(Fault::BadLikeUnderscore);
                    let matched = like_match(&text, &pat, underscore_is_literal);
                    Ok(Value::Boolean(if negated { !matched } else { matched }))
                }),
                constant,
                trivial: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use std::sync::Arc as StdArc;

    fn db() -> Database {
        Database::new(EngineConfig::dynamic())
    }

    fn bindings() -> Vec<RelationBinding> {
        vec![RelationBinding::new(
            "t0",
            vec!["c0".to_string(), "c1".to_string()],
        )]
    }

    fn eval_both(
        db: &Database,
        expr: &Expr,
        row: &[Value],
    ) -> (EngineResult<Value>, EngineResult<Value>) {
        let bindings = bindings();
        let scope = Scope::new(&bindings, row);
        let evaluator = Evaluator::new(db, ExecutionMode::Reference);
        let tree = evaluator.eval(expr, &scope);
        let compiled = compile_expr(db, ExecutionMode::Reference, &bindings, expr);
        let fast = compiled.eval(&evaluator, &scope);
        (tree, fast)
    }

    #[test]
    fn compiled_matches_tree_on_columns_and_arithmetic() {
        let db = db();
        let expr = sql_parser::parse_expression("c0 + c1 * 2").unwrap();
        let row = vec![Value::Integer(3), Value::Integer(4)];
        let (tree, fast) = eval_both(&db, &expr, &row);
        assert_eq!(tree, fast);
        assert_eq!(fast.unwrap(), Value::Integer(11));
    }

    #[test]
    fn compiled_reports_identical_errors() {
        let strict = Database::new(EngineConfig::strict());
        let expr = sql_parser::parse_expression("c0 + 'a'").unwrap();
        let row = vec![Value::Integer(1), Value::Null];
        let (tree, fast) = eval_both(&strict, &expr, &row);
        assert_eq!(tree, fast);
        assert!(fast.is_err());
    }

    #[test]
    fn unknown_column_is_a_constant_error() {
        let db = db();
        let expr = sql_parser::parse_expression("missing + 1").unwrap();
        let (tree, fast) = eval_both(&db, &expr, &[Value::Integer(1), Value::Integer(2)]);
        assert_eq!(tree, fast);
        assert!(fast.unwrap_err().message.contains("no such column"));
    }

    #[test]
    fn constant_subtrees_are_memoized_but_error_identically() {
        let strict = Database::new(EngineConfig::strict());
        let expr = sql_parser::parse_expression("1 / 0").unwrap();
        let bindings = bindings();
        let scope = Scope::new(&bindings, &[Value::Null, Value::Null]);
        let evaluator = Evaluator::new(&strict, ExecutionMode::Reference);
        let compiled = compile_expr(&strict, ExecutionMode::Reference, &bindings, &expr);
        for _ in 0..3 {
            let out = compiled.eval(&evaluator, &scope);
            assert_eq!(out, evaluator.eval(&expr, &scope));
        }
    }

    #[test]
    fn plans_are_cached_and_partition_shapes_share_the_predicate() {
        let db = db();
        let bindings = bindings();
        let pred = sql_parser::parse_expression("c0 = 1").unwrap();
        let a = compile_expr(&db, ExecutionMode::Optimized, &bindings, &pred);
        let b = compile_expr(&db, ExecutionMode::Optimized, &bindings, &pred);
        assert!(
            StdArc::ptr_eq(&a.run, &b.run),
            "recompiling the same predicate must hit the cache"
        );
        // The oracle partition shapes compile to wrappers around the cached
        // plan — the predicate itself is not recompiled, so the cache now
        // holds entries for `p`, `NOT p` and `p IS NULL` all sharing `p`.
        let negated = pred.clone().not();
        let _ = compile_expr(&db, ExecutionMode::Optimized, &bindings, &negated);
        let is_null = pred.clone().is_null();
        let _ = compile_expr(&db, ExecutionMode::Optimized, &bindings, &is_null);
        let c = compile_expr(&db, ExecutionMode::Optimized, &bindings, &pred);
        assert!(StdArc::ptr_eq(&a.run, &c.run));
    }

    #[test]
    fn modes_do_not_share_plans() {
        let db = db();
        let bindings = bindings();
        let pred = sql_parser::parse_expression("c0 = 1").unwrap();
        let opt = compile_expr(&db, ExecutionMode::Optimized, &bindings, &pred);
        let refe = compile_expr(&db, ExecutionMode::Reference, &bindings, &pred);
        assert!(!StdArc::ptr_eq(&opt.run, &refe.run));
    }

    #[test]
    fn a_split_row_reads_like_the_concatenated_row() {
        let db = db();
        let bindings = vec![
            RelationBinding::new("t0", vec!["c0".to_string()]),
            RelationBinding::new("t1", vec!["c0".to_string(), "c1".to_string()]),
        ];
        let flat = [Value::Integer(1), Value::Integer(2), Value::Integer(3)];
        let parts: [&[Value]; 2] = [&flat[1..2], &flat[2..]];
        let split = Scope {
            relations: &bindings,
            row: &flat[..1],
            tail: &parts,
            parent: None,
        };
        let whole = Scope::new(&bindings, &flat);
        let evaluator = Evaluator::new(&db, ExecutionMode::Reference);
        for sql in ["t0.c0 + t1.c0 * 10 + c1 * 100", "missing", "c0"] {
            let expr = sql_parser::parse_expression(sql).unwrap();
            let compiled = compile_expr(&db, ExecutionMode::Reference, &bindings, &expr);
            let expected = evaluator.eval(&expr, &whole);
            assert_eq!(evaluator.eval(&expr, &split), expected, "{sql}");
            assert_eq!(compiled.eval(&evaluator, &split), expected, "{sql}");
        }
        assert_eq!(split.value(3), None);
    }

    #[test]
    fn ambiguous_columns_error_like_the_tree_walker() {
        let db = db();
        let bindings = vec![
            RelationBinding::new("t0", vec!["c0".to_string()]),
            RelationBinding::new("t1", vec!["c0".to_string()]),
        ];
        let expr = sql_parser::parse_expression("c0").unwrap();
        let scope = Scope::new(&bindings, &[Value::Integer(1), Value::Integer(2)]);
        let evaluator = Evaluator::new(&db, ExecutionMode::Reference);
        let compiled = compile_expr(&db, ExecutionMode::Reference, &bindings, &expr);
        assert_eq!(
            compiled.eval(&evaluator, &scope),
            evaluator.eval(&expr, &scope)
        );
    }
}
