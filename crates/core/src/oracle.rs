//! Metamorphic test oracles: Ternary Logic Partitioning (TLP),
//! Non-optimizing Reference Engine Construction (NoREC), the
//! transaction-rollback oracle, and the snapshot-isolation oracle.
//!
//! All oracles are DBMS-agnostic (Section 3, "Result validator"): they
//! derive, from a generated test case, equivalent workloads via purely
//! syntactic transformations and compare the results the DBMS returns for
//! them. TLP and NoREC transform a single query; the rollback oracle
//! transforms a multi-statement *session* — the same mutations bracketed by
//! `BEGIN…ROLLBACK`, `BEGIN…COMMIT` and plain autocommit must leave
//! observably identical (respectively: unchanged, identical, identical)
//! table states; the isolation oracle transforms a two-session concurrent
//! *schedule* — replaying its committed sessions serially in both commit
//! orders, the concurrent outcome must match at least one serial outcome.
//! Everything is measured through ordinary `SELECT *` probes so the
//! SQL-text-only contract is preserved.

use crate::dbms::{replay_setup, DbmsConnection, SERIALIZATION_FAILURE_MARKER};
use crate::feature::FeatureSet;
use crate::json::{json_name, json_record};
use sql_ast::{BeginMode, Expr, Select, SelectItem, Statement, TableWithJoins, Value};
use std::borrow::Cow;
use std::fmt;

/// Which oracle produced a verdict.
///
/// The ordering (declaration order) is only used for stable, deterministic
/// grouping — e.g. the trace summary's per-oracle latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OracleKind {
    /// Ternary Logic Partitioning (Rigger & Su, OOPSLA 2020).
    Tlp,
    /// Non-optimizing Reference Engine Construction (Rigger & Su, ESEC/FSE
    /// 2020).
    NoRec,
    /// Transaction-rollback oracle: `BEGIN…ROLLBACK` must be a no-op and
    /// `BEGIN…COMMIT` must match the auto-commit run, compared via 128-bit
    /// table fingerprints.
    Rollback,
    /// Snapshot-isolation oracle: a concurrent two-session schedule's final
    /// table fingerprints must match a serial replay of its committed
    /// sessions in at least one commit order.
    Isolation,
}

impl OracleKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Tlp => "TLP",
            OracleKind::NoRec => "NoREC",
            OracleKind::Rollback => "ROLLBACK",
            OracleKind::Isolation => "ISOLATION",
        }
    }
}

json_name!(OracleKind: |kind: &OracleKind| kind.name(), |name: &str| {
    use OracleKind::{Isolation, NoRec, Rollback, Tlp};
    [Tlp, NoRec, Rollback, Isolation].into_iter().find(|kind| kind.name() == name)
});
// SQL travels as its canonical rendering and is re-parsed on load.
json_name!(Statement: Statement::to_string, |sql: &str| sql_parser::parse_statement(sql).ok());
json_record!(struct BugReport { oracle, description, setup, queries, features });

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A bug-inducing test case as reported by an oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct BugReport {
    /// The oracle that found the discrepancy.
    pub oracle: OracleKind,
    /// What went wrong, in one line.
    pub description: String,
    /// The statements that built the database state. Oracles leave it
    /// empty; the campaign fills it in from the kept (and possibly
    /// reduced) case, so a deduplicated bug never copies its setup.
    pub setup: Vec<Statement>,
    /// The queries whose results disagreed.
    pub queries: Vec<String>,
    /// The feature set of the bug-inducing test case (used by the
    /// prioritizer).
    pub features: FeatureSet,
}

/// The outcome of applying an oracle to one generated query.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleOutcome {
    /// The derived queries agreed: no bug observed.
    Passed,
    /// A derived query failed to execute; the test case is invalid for this
    /// DBMS (this feeds the validity-rate metrics, not the bug list).
    Invalid(String),
    /// The results disagreed: a bug-inducing test case.
    Bug(Box<BugReport>),
}

impl OracleOutcome {
    /// `true` when a bug was found.
    pub fn is_bug(&self) -> bool {
        matches!(self, OracleOutcome::Bug(_))
    }

    /// `true` when every derived query executed successfully.
    pub fn is_valid(&self) -> bool {
        !matches!(self, OracleOutcome::Invalid(_))
    }
}

/// Strips clauses that would break the partitioning property (the original
/// TLP formulation applies to plain filter queries).
fn normalized_base(query: &Select) -> Select {
    let mut base = query.clone();
    base.distinct = false;
    base.order_by.clear();
    base.limit = None;
    base.offset = None;
    base.set_op = None;
    base.group_by.clear();
    base.having = None;
    base
}

/// Applies the TLP oracle: `Q` without a predicate must return the same
/// multiset of rows as the union of `Q WHERE p`, `Q WHERE NOT p` and
/// `Q WHERE p IS NULL`.
pub fn check_tlp(
    conn: &mut dyn DbmsConnection,
    query: &Select,
    predicate: &Expr,
    features: &FeatureSet,
) -> OracleOutcome {
    if query.is_aggregate() {
        return OracleOutcome::Invalid("TLP base oracle skips aggregate queries".into());
    }
    // One reusable query: the four TLP variants only differ in their WHERE
    // clause, so the hot loop mutates it in place instead of cloning the
    // whole `Select` four times. SQL text is only rendered on the (cold)
    // bug path. The partition predicates `p`, `NOT p` and `p IS NULL` are
    // also exactly the root shapes the engine's compiled-plan cache shares:
    // the predicate `p` is closure-compiled once on the first partition and
    // reused — not recompiled, not re-walked — by the remaining ones.
    let mut work = normalized_base(query);
    let mut fingerprints: Vec<Vec<u128>> = Vec::with_capacity(4);
    // The partition predicates are derived by rewrapping ONE clone of the
    // predicate in place (`p` → `NOT p` → `p IS NULL`), so the hot loop
    // costs a single predicate clone per check.
    for step in 0..4u8 {
        work.where_clause = match (step, work.where_clause.take()) {
            (0, _) => None,
            (1, _) => Some(predicate.clone()),
            (2, Some(p)) => Some(p.not()),
            (3, Some(Expr::Unary { expr, .. })) => Some(expr.is_null()),
            _ => unreachable!("TLP partition rotation"),
        };
        match conn.query_ast(&work) {
            Ok(rs) => fingerprints.push(rs.multiset_fingerprint()),
            Err(err) => return OracleOutcome::Invalid(err),
        }
    }
    let mut partitioned: Vec<u128> = fingerprints[1]
        .iter()
        .chain(fingerprints[2].iter())
        .chain(fingerprints[3].iter())
        .copied()
        .collect();
    partitioned.sort_unstable();
    if partitioned == fingerprints[0] {
        OracleOutcome::Passed
    } else {
        OracleOutcome::Bug(Box::new(BugReport {
            oracle: OracleKind::Tlp,
            description: format!(
                "TLP mismatch: base query returned {} rows, the three partitions returned {} rows in total",
                fingerprints[0].len(),
                partitioned.len()
            ),
            setup: Vec::new(),
            queries: {
                // Cold path: rebuild and render the four variants.
                let variants = [
                    None,
                    Some(predicate.clone()),
                    Some(predicate.clone().not()),
                    Some(predicate.clone().is_null()),
                ];
                variants
                    .into_iter()
                    .map(|where_clause| {
                        work.where_clause = where_clause;
                        work.to_string()
                    })
                    .collect()
            },
            features: features.clone(),
        }))
    }
}

/// Applies the NoREC oracle: the number of rows returned by
/// `SELECT * FROM ... WHERE p` (optimizable) must equal the number of rows
/// for which the unoptimizable rewrite `SELECT (p IS TRUE) FROM ...`
/// evaluates the predicate to true.
pub fn check_norec(
    conn: &mut dyn DbmsConnection,
    query: &Select,
    predicate: &Expr,
    features: &FeatureSet,
) -> OracleOutcome {
    if query.is_aggregate() {
        return OracleOutcome::Invalid("NoREC skips aggregate queries".into());
    }
    // One reusable query, as in `check_tlp`: the optimized arm and the
    // non-optimizable rewrite share everything but projections and WHERE.
    // The rewrite projects `(p) IS TRUE`, another root shape the engine's
    // compiled-plan cache unwraps, so the reference arm reuses the plan
    // compiled for `p` whenever the optimizer's predicate rewrite left the
    // optimized arm's WHERE clause unchanged.
    let mut work = normalized_base(query);
    work.projections = vec![SelectItem::Wildcard];
    work.where_clause = Some(predicate.clone());

    let optimized_rows = match conn.query_ast(&work) {
        Ok(rs) => rs.row_count(),
        Err(err) => return OracleOutcome::Invalid(err),
    };
    let optimized_pred = work.where_clause.take().expect("predicate still in place");
    work.projections = vec![SelectItem::aliased(optimized_pred.is_true(), "norec")];

    let reference_rows = match conn.query_ast(&work) {
        Ok(rs) => rs
            .rows
            .iter()
            .filter(|row| {
                matches!(
                    row.first(),
                    Some(Value::Boolean(true)) | Some(Value::Integer(1))
                )
            })
            .count(),
        Err(err) => return OracleOutcome::Invalid(err),
    };
    if optimized_rows == reference_rows {
        OracleOutcome::Passed
    } else {
        OracleOutcome::Bug(Box::new(BugReport {
            oracle: OracleKind::NoRec,
            description: format!(
                "NoREC mismatch: optimized query returned {optimized_rows} rows, non-optimizable rewrite counted {reference_rows}"
            ),
            setup: Vec::new(),
            queries: {
                // Cold path: rebuild and render both arms.
                let reference_sql = work.to_string();
                work.projections = vec![SelectItem::Wildcard];
                work.where_clause = Some(predicate.clone());
                vec![work.to_string(), reference_sql]
            },
            features: features.clone(),
        }))
    }
}

// ------------------------------------------------------ rollback oracle ----

/// The wildcard probe query the rollback oracle fingerprints a table with.
fn probe_query(table: &str) -> Select {
    Select {
        projections: vec![SelectItem::Wildcard],
        from: vec![TableWithJoins::table(table)],
        ..Select::new()
    }
}

/// The session's *net effect* under sound savepoint semantics: the
/// statements that survive once every `SAVEPOINT s … ROLLBACK TO s` region
/// is rewound. This is the auto-commit reference workload the committed
/// transaction is compared against. Returns `None` for malformed sessions
/// (a `ROLLBACK TO` without its savepoint, or stray `BEGIN`/`COMMIT`/
/// `ROLLBACK` — the oracle adds the outer bracketing itself).
fn net_effect(session: &[Statement]) -> Option<Vec<&Statement>> {
    let mut out: Vec<&Statement> = Vec::new();
    // Active savepoints: name (lowercased) plus the length of `out` when
    // the savepoint was taken.
    let mut savepoints: Vec<(String, usize)> = Vec::new();
    for stmt in session {
        match stmt {
            Statement::Savepoint(name) => {
                savepoints.push((name.to_ascii_lowercase(), out.len()));
            }
            Statement::RollbackTo(name) => {
                let key = name.to_ascii_lowercase();
                let at = savepoints.iter().rposition(|(n, _)| *n == key)?;
                out.truncate(savepoints[at].1);
                // The savepoint survives its own ROLLBACK TO; later ones do
                // not.
                savepoints.truncate(at + 1);
            }
            Statement::ReleaseSavepoint(name) => {
                // RELEASE keeps the changes; the savepoint (and every later
                // one) disappears.
                let key = name.to_ascii_lowercase();
                let at = savepoints.iter().rposition(|(n, _)| *n == key)?;
                savepoints.truncate(at);
            }
            Statement::Begin(_) | Statement::Commit | Statement::Rollback => return None,
            other => out.push(other),
        }
    }
    Some(out)
}

/// Executes one statement of a transactional session. Transaction-control
/// rejections abort the check as *invalid* (that is the feedback the
/// adaptive generator learns dialect transaction support from); ordinary
/// DML failures are tolerated — the engine is deterministic, so the same
/// statement fails identically in every arm.
fn run_session_statement(conn: &mut dyn DbmsConnection, stmt: &Statement) -> Result<(), String> {
    let outcome = conn.execute_ast(stmt);
    if stmt.is_txn_control() {
        if let crate::dbms::StatementOutcome::Failure(msg) = outcome {
            return Err(msg);
        }
    }
    Ok(())
}

/// The stateful oracles' reset-to-setup-state bookkeeping.
///
/// `capture` rebuilds the connection from the setup log once and asks the
/// backend for a checkpoint of that state; every later `reset_to` restores
/// the checkpoint — an O(tables) copy-on-write clone on the simulated
/// fleet — and only falls back to the O(rows) setup replay when the
/// backend has no snapshot facility. Restored and replayed states are
/// observably identical, so verdicts never depend on which path ran.
struct SetupState<'a> {
    setup: &'a [Statement],
    checkpoint: Option<crate::dbms::StateCheckpoint>,
}

impl<'a> SetupState<'a> {
    /// Errors carry the infrastructure marker: the capture rebuild ran with
    /// the case's faults armed, and a fault that hit a replay statement must
    /// become an incident, not a checkpointed half-built state (see
    /// [`replay_setup`]).
    fn capture(
        conn: &mut dyn DbmsConnection,
        setup: &'a [Statement],
    ) -> Result<SetupState<'a>, String> {
        replay_setup(conn, setup)?;
        Ok(SetupState {
            setup,
            checkpoint: conn.checkpoint(),
        })
    }

    fn reset_to(&self, conn: &mut dyn DbmsConnection) -> Result<(), String> {
        if let Some(checkpoint) = &self.checkpoint {
            if conn.restore(checkpoint) {
                return Ok(());
            }
        }
        replay_setup(conn, self.setup)
    }
}

/// Applies the transaction-rollback oracle to a mutation session against
/// `table`.
///
/// Three arms run from the identical rebuilt state:
///
/// 1. **auto-commit** — the session's net-effect statements, no transaction:
///    the reference state `A`;
/// 2. **`BEGIN` … session … `ROLLBACK`** — must leave the table fingerprint
///    exactly where it started (a violated identity is a *lost rollback*);
/// 3. **`BEGIN` … session … `COMMIT`** — must reproduce `A` (a divergence is
///    a *phantom commit* or mis-scoped savepoint rewind).
///
/// Fingerprints are the oracles' usual order-insensitive 128-bit row-hash
/// multisets, obtained through plain `SELECT *` probes — the platform never
/// reads engine state directly, preserving the SQL-text-only contract.
pub fn check_rollback(
    conn: &mut dyn DbmsConnection,
    table: &str,
    session: &[Statement],
    features: &FeatureSet,
    setup: &[Statement],
) -> OracleOutcome {
    // Capture the setup state once; the arms and the exit path below
    // restore it (checkpoint-restore when the backend supports it, setup
    // replay otherwise).
    let state = match SetupState::capture(conn, setup) {
        Ok(state) => state,
        Err(message) => return OracleOutcome::Invalid(message),
    };
    let outcome = check_rollback_arms(conn, table, session, features, &state);
    // The campaign's invariant is that between test cases the connection
    // reflects exactly the setup log; the arms above committed mutations,
    // so restore before handing the connection back. A fault-hit restore
    // outranks the verdict: the supervisor recovers and retries the case.
    match state.reset_to(conn) {
        Ok(()) => outcome,
        Err(message) => OracleOutcome::Invalid(message),
    }
}

fn check_rollback_arms(
    conn: &mut dyn DbmsConnection,
    table: &str,
    session: &[Statement],
    features: &FeatureSet,
    state: &SetupState<'_>,
) -> OracleOutcome {
    let Some(reference) = net_effect(session) else {
        return OracleOutcome::Invalid("malformed transactional session".into());
    };
    let probe = probe_query(table);
    let fingerprint =
        |conn: &mut dyn DbmsConnection| conn.query_ast(&probe).map(|rs| rs.multiset_fingerprint());

    // Arm 1: auto-commit reference (the caller's capture just rebuilt the
    // setup state).
    let base = match fingerprint(conn) {
        Ok(fp) => fp,
        Err(err) => return OracleOutcome::Invalid(err),
    };
    for stmt in &reference {
        if let Err(err) = run_session_statement(conn, stmt) {
            return OracleOutcome::Invalid(err);
        }
    }
    let auto_commit = match fingerprint(conn) {
        Ok(fp) => fp,
        Err(err) => return OracleOutcome::Invalid(err),
    };

    // Arm 2: BEGIN … ROLLBACK must be a no-op.
    if let Err(message) = state.reset_to(conn) {
        return OracleOutcome::Invalid(message);
    }
    let begin = Statement::begin();
    for stmt in std::iter::once(&begin)
        .chain(session.iter())
        .chain(std::iter::once(&Statement::Rollback))
    {
        if let Err(err) = run_session_statement(conn, stmt) {
            return OracleOutcome::Invalid(err);
        }
    }
    let rolled_back = match fingerprint(conn) {
        Ok(fp) => fp,
        Err(err) => return OracleOutcome::Invalid(err),
    };
    if rolled_back != base {
        return OracleOutcome::Bug(Box::new(BugReport {
            oracle: OracleKind::Rollback,
            description: format!(
                "rollback oracle: BEGIN…ROLLBACK changed {table} ({} rows before, {} after)",
                base.len(),
                rolled_back.len()
            ),
            setup: Vec::new(),
            queries: render_session(table, session, Statement::Rollback),
            features: features.clone(),
        }));
    }

    // Arm 3: BEGIN … COMMIT must match the auto-commit reference.
    for stmt in std::iter::once(&begin)
        .chain(session.iter())
        .chain(std::iter::once(&Statement::Commit))
    {
        if let Err(err) = run_session_statement(conn, stmt) {
            return OracleOutcome::Invalid(err);
        }
    }
    let committed = match fingerprint(conn) {
        Ok(fp) => fp,
        Err(err) => return OracleOutcome::Invalid(err),
    };
    if committed != auto_commit {
        return OracleOutcome::Bug(Box::new(BugReport {
            oracle: OracleKind::Rollback,
            description: format!(
                "rollback oracle: BEGIN…COMMIT diverged from auto-commit on {table} \
                 ({} rows committed, {} rows expected)",
                committed.len(),
                auto_commit.len()
            ),
            setup: Vec::new(),
            queries: render_session(table, session, Statement::Commit),
            features: features.clone(),
        }));
    }
    OracleOutcome::Passed
}

/// Cold path: renders the bracketed session (plus the probe) for a bug
/// report.
pub(crate) fn render_session(table: &str, session: &[Statement], closer: Statement) -> Vec<String> {
    let mut out = Vec::with_capacity(session.len() + 3);
    out.push(Statement::begin().to_string());
    out.extend(session.iter().map(Statement::to_string));
    out.push(closer.to_string());
    out.push(probe_query(table).to_string());
    out
}

// ----------------------------------------------------- isolation oracle ----

/// One session of a concurrent schedule: its `BEGIN` mode, body statements
/// and closing statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionScript {
    /// The `BEGIN` mode the oracle opens the session with.
    pub begin: BeginMode,
    /// The session body: DML only (the oracle supplies `BEGIN` and the
    /// closer itself, exactly like the rollback oracle's bracketing).
    pub statements: Vec<Statement>,
    /// `true` → the session closes with `COMMIT`; `false` → `ROLLBACK`.
    pub commit: bool,
}

// A session's `BEGIN` travels as the statement it renders to.
json_name!(BeginMode: |mode: &BeginMode| Statement::Begin(*mode).to_string(), |sql: &str| {
    let Ok(Statement::Begin(mode)) = sql_parser::parse_statement(sql) else { return None };
    Some(mode)
});
json_record!(struct SessionScript { begin, commit, statements });

impl SessionScript {
    /// Total steps this session contributes to an interleaving: `BEGIN`,
    /// every body statement, and the closer.
    pub fn step_count(&self) -> usize {
        self.statements.len() + 2
    }

    /// The statement executed at `step` (0 = `BEGIN`, then the body, last
    /// the closer). Body steps borrow the script's statement; only the
    /// bracketing steps are built.
    fn step(&self, step: usize) -> Cow<'_, Statement> {
        if step == 0 {
            Cow::Owned(Statement::Begin(self.begin))
        } else if step <= self.statements.len() {
            Cow::Borrowed(&self.statements[step - 1])
        } else if self.commit {
            Cow::Owned(Statement::Commit)
        } else {
            Cow::Owned(Statement::Rollback)
        }
    }
}

/// A deterministic two-session concurrent schedule: the per-session scripts
/// plus an explicit interleaving (one session index per step), so replaying
/// the schedule is byte-reproducible — no timing, no real threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The tables the oracle probes (sorted, deduplicated).
    pub tables: Vec<String>,
    /// The session scripts (two for every generated schedule).
    pub sessions: Vec<SessionScript>,
    /// The step list: `interleaving[k]` names the session executing its
    /// next pending step at position `k`. Must contain exactly
    /// [`SessionScript::step_count`] occurrences of each session index.
    pub interleaving: Vec<u8>,
}

json_record!(struct Schedule { tables, sessions, interleaving });

impl Schedule {
    /// Whether the interleaving covers every session's steps exactly once.
    pub fn is_well_formed(&self) -> bool {
        let mut counts = vec![0usize; self.sessions.len()];
        for &s in &self.interleaving {
            match counts.get_mut(s as usize) {
                Some(c) => *c += 1,
                None => return false,
            }
        }
        counts
            .iter()
            .zip(&self.sessions)
            .all(|(&c, script)| c == script.step_count())
    }

    /// Cold path: renders the interleaved schedule (with per-step session
    /// labels) plus the probes, for bug reports.
    pub fn replay_script(&self) -> Vec<String> {
        let mut cursors = vec![0usize; self.sessions.len()];
        let mut out = Vec::with_capacity(self.interleaving.len() + self.tables.len());
        for &s in &self.interleaving {
            let s = s as usize;
            let stmt = self.sessions[s].step(cursors[s]);
            cursors[s] += 1;
            out.push(format!("/*session {s}*/ {stmt}"));
        }
        for table in &self.tables {
            out.push(probe_query(table).to_string());
        }
        out
    }
}

/// The result of one oracle check: the verdict plus how many commits were
/// rejected by the DBMS's conflict detection (non-zero only for isolation
/// schedules; reported as the campaign's conflict-abort rate, since aborts
/// are legitimate outcomes, never bugs).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseVerdict {
    /// The oracle verdict.
    pub outcome: OracleOutcome,
    /// Commits rejected with a serialization failure during the concurrent
    /// arm.
    pub conflict_aborts: u64,
}

impl From<OracleOutcome> for CaseVerdict {
    /// A verdict with no conflict aborts.
    fn from(outcome: OracleOutcome) -> CaseVerdict {
        CaseVerdict {
            outcome,
            conflict_aborts: 0,
        }
    }
}

impl CaseVerdict {
    fn invalid(message: impl Into<String>, conflict_aborts: u64) -> CaseVerdict {
        CaseVerdict {
            outcome: OracleOutcome::Invalid(message.into()),
            conflict_aborts,
        }
    }
}

/// Fingerprints every schedule table through `SELECT *` probes.
fn probe_tables(
    conn: &mut dyn DbmsConnection,
    tables: &[String],
) -> Result<Vec<Vec<u128>>, String> {
    tables
        .iter()
        .map(|t| {
            conn.query_ast(&probe_query(t))
                .map(|rs| rs.multiset_fingerprint())
        })
        .collect()
}

/// Applies the snapshot-isolation oracle to a concurrent schedule.
///
/// **Concurrent arm.** From the rebuilt setup state, the oracle opens one
/// extra connection per session ([`DbmsConnection::open_session`]) and
/// executes the schedule's explicit interleaving step by step. A `COMMIT`
/// rejected with a serialization failure marks the session *conflict
/// aborted* — its remaining steps are skipped and the engine has already
/// rewound it; any other transaction-control rejection makes the whole
/// check invalid (that is the validity feedback dialect transaction support
/// is learned from). Ordinary DML failures are tolerated, exactly as in the
/// rollback oracle.
///
/// **Serial arms.** The sessions that actually committed are replayed
/// serially — each one `BEGIN`…body…`COMMIT` to completion — in every
/// commit order (two orders when both committed, one when one did, none
/// when none did, in which case the reference is the untouched setup
/// state).
///
/// **Verdict.** The concurrent arm's per-table 128-bit `SELECT *`
/// fingerprint multisets must equal those of at least one serial arm;
/// matching neither is a bug. Under sound snapshot isolation with
/// first-committer-wins this can never fire for the schedules the generator
/// emits (only session 0 reads tables it does not write), so every flag is
/// a genuine isolation violation — dirty read, lost update, non-repeatable
/// read, or a transaction fault leaking across the schedule.
pub fn check_isolation(
    conn: &mut dyn DbmsConnection,
    schedule: &Schedule,
    features: &FeatureSet,
    setup: &[Statement],
) -> CaseVerdict {
    // Capture the setup state once; the serial arms and the exit path
    // restore it (checkpoint-restore when the backend supports it, setup
    // replay otherwise).
    let state = match SetupState::capture(conn, setup) {
        Ok(state) => state,
        Err(message) => return CaseVerdict::invalid(message, 0),
    };
    let verdict = check_isolation_arms(conn, schedule, features, &state);
    // Restore the campaign invariant: the connection reflects the setup log.
    // A fault-hit restore outranks the verdict (see [`check_rollback`]).
    match state.reset_to(conn) {
        Ok(()) => verdict,
        Err(message) => CaseVerdict::invalid(message, verdict.conflict_aborts),
    }
}

fn check_isolation_arms(
    conn: &mut dyn DbmsConnection,
    schedule: &Schedule,
    features: &FeatureSet,
    state: &SetupState<'_>,
) -> CaseVerdict {
    if !schedule.is_well_formed() {
        return CaseVerdict::invalid("malformed schedule interleaving", 0);
    }
    // Concurrent arm (the caller's capture just rebuilt the setup state).
    let mut sessions: Vec<Box<dyn DbmsConnection>> = Vec::with_capacity(schedule.sessions.len());
    for _ in &schedule.sessions {
        match conn.open_session() {
            Some(session) => sessions.push(session),
            None => {
                return CaseVerdict::invalid(
                    "backend has a single connection: concurrent schedules unsupported",
                    0,
                )
            }
        }
    }
    let mut cursors = vec![0usize; schedule.sessions.len()];
    let mut committed = vec![false; schedule.sessions.len()];
    let mut aborted = vec![false; schedule.sessions.len()];
    let mut conflict_aborts = 0u64;
    for &s in &schedule.interleaving {
        let s = s as usize;
        let script = &schedule.sessions[s];
        let step = cursors[s];
        cursors[s] += 1;
        if aborted[s] {
            // The engine already rewound this session; the rest of its
            // script (including the closer) is moot.
            continue;
        }
        let stmt = script.step(step);
        let outcome = sessions[s].execute_ast(&stmt);
        if let crate::dbms::StatementOutcome::Failure(message) = outcome {
            if matches!(*stmt, Statement::Commit) && message.contains(SERIALIZATION_FAILURE_MARKER)
            {
                // First-committer-wins rejected the commit: a legitimate
                // conflict abort, not a dialect rejection and not a bug.
                conflict_aborts += 1;
                aborted[s] = true;
            } else if stmt.is_txn_control() {
                return CaseVerdict::invalid(message, conflict_aborts);
            }
            // Ordinary DML failures are tolerated: the engine is
            // deterministic, so the same statement fails identically in
            // the serial replays.
        } else if step == script.step_count() - 1 && script.commit {
            committed[s] = true;
        }
    }
    drop(sessions);
    let concurrent = match probe_tables(conn, &schedule.tables) {
        Ok(fp) => fp,
        Err(err) => return CaseVerdict::invalid(err, conflict_aborts),
    };

    // Serial arms: every commit order of the sessions that committed.
    let committed_sessions: Vec<usize> = (0..schedule.sessions.len())
        .filter(|&s| committed[s])
        .collect();
    let orders: Vec<Vec<usize>> = match committed_sessions.as_slice() {
        [] => vec![Vec::new()],
        [one] => vec![vec![*one]],
        [a, b] => vec![vec![*a, *b], vec![*b, *a]],
        more => {
            // Generated schedules have two sessions; handcrafted ones with
            // more get the two boundary orders (full permutation would be
            // factorial).
            let mut fwd = more.to_vec();
            let mut rev = more.to_vec();
            rev.reverse();
            fwd.dedup();
            vec![fwd, rev]
        }
    };
    let mut serial_fingerprints = Vec::with_capacity(orders.len());
    for order in &orders {
        if let Err(message) = state.reset_to(conn) {
            return CaseVerdict::invalid(message, conflict_aborts);
        }
        if !order.is_empty() {
            let Some(mut serial) = conn.open_session() else {
                return CaseVerdict::invalid(
                    "backend has a single connection: concurrent schedules unsupported",
                    conflict_aborts,
                );
            };
            for &s in order {
                let script = &schedule.sessions[s];
                for step in 0..script.step_count() {
                    let stmt = script.step(step);
                    let outcome = serial.execute_ast(&stmt);
                    if let crate::dbms::StatementOutcome::Failure(message) = outcome {
                        if stmt.is_txn_control() {
                            return CaseVerdict::invalid(message, conflict_aborts);
                        }
                    }
                }
            }
        }
        match probe_tables(conn, &schedule.tables) {
            Ok(fp) => serial_fingerprints.push(fp),
            Err(err) => return CaseVerdict::invalid(err, conflict_aborts),
        }
    }
    if serial_fingerprints.contains(&concurrent) {
        return CaseVerdict {
            outcome: OracleOutcome::Passed,
            conflict_aborts,
        };
    }
    let order_names: Vec<String> = orders.iter().map(|order| format!("{order:?}")).collect();
    CaseVerdict {
        outcome: OracleOutcome::Bug(Box::new(BugReport {
            oracle: OracleKind::Isolation,
            description: format!(
                "isolation oracle: concurrent schedule over [{}] diverged from every serial \
                 replay of its committed sessions (orders {})",
                schedule.tables.join(", "),
                order_names.join(", "),
            ),
            setup: Vec::new(),
            queries: schedule.replay_script(),
            features: features.clone(),
        })),
        conflict_aborts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbms::{QueryResult, StatementOutcome};
    use std::collections::BTreeMap;

    /// A scripted mock DBMS: maps SQL text to canned results.
    struct MockDbms {
        canned: BTreeMap<String, Result<QueryResult, String>>,
    }

    impl MockDbms {
        fn new() -> MockDbms {
            MockDbms {
                canned: BTreeMap::new(),
            }
        }

        fn with(mut self, sql: &str, rows: Vec<Vec<Value>>) -> Self {
            self.canned.insert(
                sql.to_string(),
                Ok(QueryResult {
                    columns: vec!["c0".into()],
                    rows,
                }),
            );
            self
        }

        fn with_error(mut self, sql: &str, err: &str) -> Self {
            self.canned.insert(sql.to_string(), Err(err.to_string()));
            self
        }
    }

    impl DbmsConnection for MockDbms {
        fn name(&self) -> &str {
            "mock"
        }
        fn execute(&mut self, _sql: &str) -> StatementOutcome {
            StatementOutcome::Success
        }
        fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
            self.canned
                .get(sql)
                .cloned()
                .unwrap_or_else(|| Err(format!("unexpected query: {sql}")))
        }
        fn reset(&mut self) {}
    }

    fn sample_query() -> (Select, Expr, FeatureSet) {
        let predicate = Expr::column("c0").eq(Expr::integer(1));
        let select = Select {
            projections: vec![SelectItem::expr(Expr::column("c0"))],
            from: vec![TableWithJoins::table("t0")],
            where_clause: Some(predicate.clone()),
            ..Select::new()
        };
        (select, predicate, FeatureSet::new())
    }

    #[test]
    fn tlp_passes_when_partitions_cover_base() {
        let (query, predicate, features) = sample_query();
        let mut mock = MockDbms::new()
            .with(
                "SELECT c0 FROM t0",
                vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
            )
            .with(
                "SELECT c0 FROM t0 WHERE (c0 = 1)",
                vec![vec![Value::Integer(1)]],
            )
            .with(
                "SELECT c0 FROM t0 WHERE (NOT (c0 = 1))",
                vec![vec![Value::Integer(2)]],
            )
            .with("SELECT c0 FROM t0 WHERE ((c0 = 1) IS NULL)", vec![]);
        let outcome = check_tlp(&mut mock, &query, &predicate, &features);
        assert_eq!(outcome, OracleOutcome::Passed);
    }

    #[test]
    fn tlp_reports_bug_when_row_is_lost() {
        let (query, predicate, features) = sample_query();
        // The NOT-partition "loses" row 2 — exactly the REPLACE-style bug
        // shape from Listing 2.
        let mut mock = MockDbms::new()
            .with(
                "SELECT c0 FROM t0",
                vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
            )
            .with(
                "SELECT c0 FROM t0 WHERE (c0 = 1)",
                vec![vec![Value::Integer(1)]],
            )
            .with("SELECT c0 FROM t0 WHERE (NOT (c0 = 1))", vec![])
            .with("SELECT c0 FROM t0 WHERE ((c0 = 1) IS NULL)", vec![]);
        let outcome = check_tlp(&mut mock, &query, &predicate, &features);
        assert!(outcome.is_bug());
        if let OracleOutcome::Bug(report) = outcome {
            assert_eq!(report.oracle, OracleKind::Tlp);
            assert_eq!(report.queries.len(), 4);
        }
    }

    #[test]
    fn tlp_marks_invalid_when_a_partition_fails() {
        let (query, predicate, features) = sample_query();
        let mut mock = MockDbms::new()
            .with("SELECT c0 FROM t0", vec![])
            .with_error("SELECT c0 FROM t0 WHERE (c0 = 1)", "syntax error");
        let outcome = check_tlp(&mut mock, &query, &predicate, &features);
        assert_eq!(outcome, OracleOutcome::Invalid("syntax error".into()));
        assert!(!outcome.is_valid());
    }

    #[test]
    fn norec_compares_row_counts() {
        let (query, predicate, features) = sample_query();
        let mut mock = MockDbms::new()
            .with(
                "SELECT * FROM t0 WHERE (c0 = 1)",
                vec![vec![Value::Integer(1)]],
            )
            .with(
                "SELECT ((c0 = 1) IS TRUE) AS norec FROM t0",
                vec![vec![Value::Boolean(true)], vec![Value::Boolean(false)]],
            );
        assert_eq!(
            check_norec(&mut mock, &query, &predicate, &features),
            OracleOutcome::Passed
        );
        let mut buggy = MockDbms::new()
            .with("SELECT * FROM t0 WHERE (c0 = 1)", vec![])
            .with(
                "SELECT ((c0 = 1) IS TRUE) AS norec FROM t0",
                vec![vec![Value::Boolean(true)]],
            );
        assert!(check_norec(&mut buggy, &query, &predicate, &features).is_bug());
    }

    #[test]
    fn net_effect_rewinds_savepoint_regions() {
        let ins = |v: i64| {
            Statement::Insert(sql_ast::Insert {
                table: "t0".into(),
                columns: vec!["c0".into()],
                values: vec![vec![Expr::integer(v)]],
                or_ignore: false,
            })
        };
        let session = vec![
            ins(1),
            Statement::Savepoint("sp1".into()),
            ins(2),
            Statement::RollbackTo("sp1".into()),
            ins(3),
        ];
        let net = net_effect(&session).unwrap();
        let rendered: Vec<String> = net.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "INSERT INTO t0 (c0) VALUES (1)",
                "INSERT INTO t0 (c0) VALUES (3)"
            ]
        );
        // A savepoint survives its own ROLLBACK TO.
        let twice = vec![
            Statement::Savepoint("s".into()),
            ins(1),
            Statement::RollbackTo("s".into()),
            ins(2),
            Statement::RollbackTo("s".into()),
        ];
        assert!(net_effect(&twice).unwrap().is_empty());
        // Malformed sessions are rejected.
        assert!(net_effect(&[Statement::RollbackTo("ghost".into())]).is_none());
        assert!(net_effect(&[Statement::begin()]).is_none());
        assert!(net_effect(&[Statement::ReleaseSavepoint("ghost".into())]).is_none());
        // RELEASE keeps changes and retires the savepoint (and later ones).
        let released = vec![
            Statement::Savepoint("a".into()),
            ins(1),
            Statement::ReleaseSavepoint("a".into()),
            ins(2),
        ];
        assert_eq!(net_effect(&released).unwrap().len(), 2);
        let after_release = vec![
            Statement::Savepoint("a".into()),
            Statement::ReleaseSavepoint("a".into()),
            Statement::RollbackTo("a".into()),
        ];
        assert!(net_effect(&after_release).is_none(), "savepoint retired");
    }

    #[test]
    fn aggregates_are_skipped() {
        let (mut query, predicate, features) = sample_query();
        query.projections = vec![SelectItem::expr(Expr::Aggregate {
            func: sql_ast::AggregateFunction::Count,
            arg: None,
            distinct: false,
        })];
        let mut mock = MockDbms::new();
        assert!(!check_tlp(&mut mock, &query, &predicate, &features).is_valid());
        assert!(!check_norec(&mut mock, &query, &predicate, &features).is_valid());
    }
}
