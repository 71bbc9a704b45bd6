//! The first real wire backend: the system `sqlite3` binary driven over a
//! subprocess pipe.
//!
//! This crate proves the platform's SQL-text-only contract end to end. The
//! connection implements exactly the four text methods of the platform
//! interface — `execute`, `query`, `reset`, `name` — and nothing else: no
//! AST fast path, no state checkpoints (the stateful oracles take the
//! SQL-replay fallback), no storage metrics, no extra sessions. The whole
//! campaign stack (adaptive generator, oracles, reducer, supervisor,
//! resume) runs unchanged against a backend it cannot see inside.
//!
//! # Wire protocol
//!
//! One long-lived `sqlite3 -batch` child per connection, on an in-memory
//! database. Each statement is written to the child's stdin followed by a
//! sentinel `SELECT` whose output marks the end of the statement's output;
//! stderr is merged into stdout (in program order, via `sh -c 'exec ...
//! 2>&1'`), so error lines arrive inline and are recognised by their
//! `Parse error` / `Runtime error` prefixes. [`DbmsConnection::reset`]
//! re-opens the in-memory database (`.open :memory:`), and respawns the
//! child if it died — a dead subprocess surfaces as an
//! [`INFRA_MARKER`]-tagged error that the campaign supervisor classifies
//! as a [`BackendCrash`](sqlancer_core::supervisor::IncidentKind) infra
//! incident, never a logic bug.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use sql_ast::Value;
use sqlancer_core::dbms::{DbmsConnection, EngineCoverage, QueryResult, StatementOutcome};
use sqlancer_core::driver::{Capability, Driver};
use sqlancer_core::supervisor::INFRA_MARKER;
use sqlancer_core::BackendEvent;

/// Column separator in the child's list-mode output. Printable (recent
/// sqlite3 CLIs caret-escape control characters in output, which would
/// corrupt framing) and absent from every value the generator can render.
const SEPARATOR: &str = "<|>";

/// Token the child prints for SQL NULL, distinguishable from the empty
/// string and from any generated text value.
const NULL_TOKEN: &str = "<NULL>";

/// Driver for the system `sqlite3` binary: each connection is one
/// subprocess on a private in-memory database.
pub struct SqliteProcDriver {
    binary: String,
}

impl SqliteProcDriver {
    /// A driver using the given `sqlite3` binary (a name resolved on
    /// `PATH` or an absolute path).
    pub fn with_binary(binary: impl Into<String>) -> SqliteProcDriver {
        SqliteProcDriver {
            binary: binary.into(),
        }
    }

    /// A driver using the system `sqlite3` from `PATH`.
    pub fn system() -> SqliteProcDriver {
        SqliteProcDriver::with_binary("sqlite3")
    }

    /// Whether the driver can actually reach a working `sqlite3` binary.
    /// CI and tests use this to skip (with a visible notice) on machines
    /// without one, keeping the offline build green.
    pub fn available(&self) -> bool {
        self.connect().is_ok()
    }
}

impl Driver for SqliteProcDriver {
    fn name(&self) -> &str {
        "sqlite-proc"
    }

    fn capability(&self) -> Capability {
        // Text-only wire profile, with one refinement: the sqlite3 CLI is
        // a single session, but transactions and savepoints work.
        Capability::text_only()
    }

    fn connect(&self) -> Result<Box<dyn DbmsConnection>, String> {
        Ok(Box::new(SqliteProcConnection::spawn(&self.binary)?))
    }
}

/// The live subprocess: pipe handles plus the sentinel counter.
struct Wire {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    sentinel: u64,
}

impl Drop for Wire {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A connection to one `sqlite3` subprocess. Implements the four text
/// methods of the platform interface plus wire-statement coverage
/// reporting; everything else keeps the trait's conservative defaults.
pub struct SqliteProcConnection {
    binary: String,
    /// `None` after the subprocess died; [`DbmsConnection::reset`]
    /// respawns. While dead, every statement fails with an
    /// [`INFRA_MARKER`]-tagged crash message so the supervisor retries
    /// through its recovery path instead of observing bogus empty state.
    wire: Option<Wire>,
    /// Wall-clock-plane wire telemetry since the last drain. Transport
    /// accounting only (pipe bytes, sentinel frames, child respawns) —
    /// never part of the deterministic trace summary.
    telemetry: WireCounters,
    /// Statement keywords shipped over the wire, cumulative for the
    /// connection's lifetime (never cleared on reset/respawn — the
    /// [`DbmsConnection::engine_coverage`] monotonicity contract). The
    /// only engine-plane fact a black-box wire backend can attest.
    statement_kinds: BTreeSet<String>,
}

/// Wire-transport counters drained via
/// [`DbmsConnection::drain_backend_events`].
#[derive(Default)]
struct WireCounters {
    /// Bytes written to the child's stdin (statement payloads, including
    /// the sentinel framing).
    bytes_written: u64,
    /// Bytes read from the child's stdout (result rows, error lines and
    /// sentinel echoes).
    bytes_read: u64,
    /// Statements framed with an end-of-output sentinel.
    sentinel_frames: u64,
    /// Child processes respawned after a death (the initial spawn is not
    /// a respawn).
    respawns: u64,
}

impl SqliteProcConnection {
    /// Spawns a fresh subprocess on an in-memory database.
    pub fn spawn(binary: &str) -> Result<SqliteProcConnection, String> {
        let wire = spawn_wire(binary)?;
        let mut conn = SqliteProcConnection {
            binary: binary.to_string(),
            wire: Some(wire),
            telemetry: WireCounters::default(),
            statement_kinds: BTreeSet::new(),
        };
        // Connect-time probe, three stages, each surfacing a structured
        // `infra:` connect error instead of a confusing first-statement
        // failure mid-campaign (the `sh` wrapper itself always spawns, so
        // a missing binary lands here too, as a dead pipe):
        //
        // 1. version banner — an ancient or impostor binary is rejected
        //    before it can mis-execute generated SQL;
        // 2. `.open :memory:` sanity — the reset/re-open path must work at
        //    connect time, or every later `reset()` would silently leak
        //    state between databases;
        // 3. `SELECT 1` — the wire framing round-trips a result row.
        //
        // `run_statement` errors are already `infra:`-tagged and pass
        // through untouched.
        let version = conn.run_statement("SELECT sqlite_version()")?;
        let banner = version.first().map(String::as_str).unwrap_or("");
        if find_error(&version).is_some() || !banner.starts_with("3.") {
            return Err(format!(
                "{INFRA_MARKER} sqlite3 connect probe: broken or unsupported binary \
                 (version banner {version:?}, need 3.x)"
            ));
        }
        match conn.run_statement(".open :memory:") {
            Ok(lines) if lines.is_empty() => {}
            Ok(lines) => {
                return Err(format!(
                    "{INFRA_MARKER} sqlite3 connect probe: `.open :memory:` rejected: {lines:?}"
                ))
            }
            Err(err) => return Err(err),
        }
        match conn.run_statement("SELECT 1") {
            Ok(lines) if lines == vec!["1".to_string()] => Ok(conn),
            Ok(lines) => Err(format!(
                "{INFRA_MARKER} sqlite3 connect probe returned unexpected output: {lines:?}"
            )),
            Err(err) => Err(err),
        }
    }

    /// Kills the backend subprocess, simulating a backend crash. Test
    /// hook for the fault-injection suite: the next statement observes a
    /// broken pipe / EOF and fails with an [`INFRA_MARKER`] message.
    pub fn kill_backend(&mut self) {
        if let Some(wire) = self.wire.as_mut() {
            let _ = wire.child.kill();
            let _ = wire.child.wait();
        }
    }

    fn crash_error(&mut self, detail: &str) -> String {
        self.wire = None;
        format!("{INFRA_MARKER} sqlite3 backend process exited: {detail}")
    }

    /// Sends one statement followed by the sentinel and collects all
    /// output lines up to the sentinel. `Err` means the subprocess is
    /// gone; statement-level SQL errors are ordinary lines in the output.
    fn run_statement(&mut self, sql: &str) -> Result<Vec<String>, String> {
        let Some(wire) = self.wire.as_mut() else {
            return Err(self.crash_error("connection is down"));
        };
        wire.sentinel += 1;
        self.telemetry.sentinel_frames += 1;
        let marker = format!("SQLPROC_SENTINEL_{}", wire.sentinel);
        // Newlines inside the statement would shift the CLI's line-based
        // error reporting; the generator renders single-line SQL, this
        // just keeps the framing robust.
        let flat = sql.replace(['\n', '\r'], " ");
        let payload = format!("{flat}\n;\nSELECT '{marker}';\n");
        self.telemetry.bytes_written += payload.len() as u64;
        if let Err(err) = wire
            .stdin
            .write_all(payload.as_bytes())
            .and_then(|()| wire.stdin.flush())
        {
            return Err(self.crash_error(&format!("write failed: {err}")));
        }
        // The statement reached the backend: record its keyword as a
        // wire-plane coverage point. Dot-commands (`.open`) are CLI
        // framing, not SQL, and are skipped.
        if let Some(keyword) = flat.split_whitespace().next() {
            if keyword
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
            {
                let keyword = keyword.to_ascii_uppercase();
                if !self.statement_kinds.contains(&keyword) {
                    self.statement_kinds.insert(keyword);
                }
            }
        }
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            match wire.stdout.read_line(&mut line) {
                Ok(0) => return Err(self.crash_error("unexpected eof on pipe")),
                Ok(bytes) => {
                    self.telemetry.bytes_read += bytes as u64;
                    let line = line.trim_end_matches('\n');
                    if line == marker {
                        return Ok(lines);
                    }
                    lines.push(line.to_string());
                }
                Err(err) => return Err(self.crash_error(&format!("read failed: {err}"))),
            }
        }
    }
}

/// Spawns `sqlite3 -batch` with stderr merged into stdout in program
/// order, so error lines interleave correctly with result rows.
fn spawn_wire(binary: &str) -> Result<Wire, String> {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"exec "$0" "$@" 2>&1"#)
        .arg(binary)
        .args([
            "-batch",
            "-list",
            "-noheader",
            "-separator",
            SEPARATOR,
            "-nullvalue",
            NULL_TOKEN,
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|err| format!("failed to spawn {binary}: {err}"))?;
    let stdin = child.stdin.take().ok_or("no stdin pipe")?;
    let stdout = BufReader::new(child.stdout.take().ok_or("no stdout pipe")?);
    Ok(Wire {
        child,
        stdin,
        stdout,
        sentinel: 0,
    })
}

/// Whether an output line is a CLI error report rather than a result row.
fn is_error_line(line: &str) -> bool {
    line.starts_with("Parse error")
        || line.starts_with("Runtime error")
        || line.starts_with("Error:")
}

/// Strips the statement-counter-dependent `near line N` from a CLI error
/// so messages are stable across replays of the same statement.
fn normalize_error(line: &str) -> String {
    if let Some(pos) = line.find(" near line ") {
        let rest = &line[pos + " near line ".len()..];
        if let Some(colon) = rest.find(':') {
            return format!("{}:{}", &line[..pos], &rest[colon + 1..]);
        }
    }
    line.to_string()
}

/// First error line (normalized) in a statement's output, if any.
fn find_error(lines: &[String]) -> Option<String> {
    lines
        .iter()
        .find(|line| is_error_line(line))
        .map(|line| normalize_error(line))
}

/// Whether a field could be a numeric literal the CLI printed (digits and
/// numeric punctuation only — keeps `Inf`/`NaN` and ordinary text as text).
fn looks_numeric(field: &str) -> bool {
    let mut has_digit = false;
    for byte in field.bytes() {
        match byte {
            b'0'..=b'9' => has_digit = true,
            b'+' | b'-' | b'.' | b'e' | b'E' => {}
            _ => return false,
        }
    }
    has_digit
}

/// Reconstructs a typed [`Value`] from one list-mode output field.
fn parse_value(field: &str) -> Value {
    if field == NULL_TOKEN {
        return Value::Null;
    }
    if looks_numeric(field) {
        if let Ok(integer) = field.parse::<i64>() {
            return Value::Integer(integer);
        }
        if let Ok(real) = field.parse::<f64>() {
            return Value::Real(real);
        }
    }
    Value::Text(field.to_string())
}

impl DbmsConnection for SqliteProcConnection {
    fn name(&self) -> &str {
        "sqlite-proc"
    }

    fn execute(&mut self, sql: &str) -> StatementOutcome {
        match self.run_statement(sql) {
            Ok(lines) => match find_error(&lines) {
                Some(error) => StatementOutcome::Failure(error),
                None => StatementOutcome::Success,
            },
            Err(infra) => StatementOutcome::Failure(infra),
        }
    }

    fn query(&mut self, sql: &str) -> Result<QueryResult, String> {
        let lines = self.run_statement(sql)?;
        if let Some(error) = find_error(&lines) {
            return Err(error);
        }
        let rows: Vec<Vec<Value>> = lines
            .iter()
            .map(|line| line.split(SEPARATOR).map(parse_value).collect())
            .collect();
        // List mode with headers off never reports column names; the
        // oracles only compare row multisets, so synthesize none.
        Ok(QueryResult {
            columns: Vec::new(),
            rows,
        })
    }

    fn reset(&mut self) {
        // Re-open the in-memory database; respawn if the child is gone or
        // the reset itself fails. Reset must not panic: if the respawn
        // fails too, the connection stays down and every statement reports
        // the infra crash until the supervisor quarantines the backend.
        let reopened = self.wire.is_some()
            && matches!(self.run_statement(".open :memory:"), Ok(ref lines) if lines.is_empty());
        if !reopened {
            self.wire = spawn_wire(&self.binary).ok();
            if self.wire.is_some() {
                self.telemetry.respawns += 1;
            }
        }
    }

    fn engine_coverage(&self) -> Option<EngineCoverage> {
        if self.statement_kinds.is_empty() {
            return None;
        }
        let mut coverage = EngineCoverage::default();
        for keyword in &self.statement_kinds {
            coverage.record("wire_statements", keyword);
        }
        Some(coverage)
    }

    fn drain_backend_events(&mut self) -> Vec<BackendEvent> {
        let drained = std::mem::take(&mut self.telemetry);
        let mut events = Vec::new();
        if drained.bytes_written > 0 {
            events.push(BackendEvent::WireWrites {
                bytes: drained.bytes_written,
            });
        }
        if drained.bytes_read > 0 {
            events.push(BackendEvent::WireReads {
                bytes: drained.bytes_read,
            });
        }
        if drained.sentinel_frames > 0 {
            events.push(BackendEvent::SentinelFrames {
                count: drained.sentinel_frames,
            });
        }
        if drained.respawns > 0 {
            events.push(BackendEvent::Respawns {
                count: drained.respawns,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> SqliteProcDriver {
        SqliteProcDriver::system()
    }

    /// Tests self-skip (with a notice) where no sqlite3 binary exists, so
    /// the offline build stays green.
    fn connection() -> Option<SqliteProcConnection> {
        match SqliteProcConnection::spawn("sqlite3") {
            Ok(conn) => Some(conn),
            Err(err) => {
                eprintln!("SKIP: no working sqlite3 binary on PATH ({err})");
                None
            }
        }
    }

    #[test]
    fn execute_and_query_round_trip() {
        let Some(mut conn) = connection() else { return };
        assert!(conn
            .execute("CREATE TABLE t0 (c0 INTEGER, c1 TEXT)")
            .is_success());
        assert!(conn
            .execute("INSERT INTO t0 VALUES (1, 'a'), (NULL, 'it''s')")
            .is_success());
        let result = conn.query("SELECT c0, c1 FROM t0 ORDER BY c0").unwrap();
        assert_eq!(
            result.rows,
            vec![
                vec![Value::Null, Value::Text("it's".into())],
                vec![Value::Integer(1), Value::Text("a".into())],
            ]
        );
    }

    #[test]
    fn errors_are_reported_without_line_numbers() {
        let Some(mut conn) = connection() else { return };
        let outcome = conn.execute("FROO BAR");
        let StatementOutcome::Failure(message) = outcome else {
            panic!("syntax error not reported")
        };
        assert!(
            message.starts_with("Parse error:"),
            "unexpected message: {message}"
        );
        assert!(
            !message.contains("near line"),
            "line number leaked: {message}"
        );
        // The connection survives statement-level errors.
        assert!(conn.execute("SELECT 1").is_success());
    }

    #[test]
    fn reset_clears_all_state() {
        let Some(mut conn) = connection() else { return };
        assert!(conn.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
        conn.reset();
        assert!(conn.query("SELECT * FROM t0").is_err());
        assert!(conn.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
    }

    #[test]
    fn killed_backend_reports_infra_crash_and_reset_revives() {
        let Some(mut conn) = connection() else { return };
        assert!(conn.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
        conn.kill_backend();
        let StatementOutcome::Failure(message) = conn.execute("INSERT INTO t0 VALUES (1)") else {
            panic!("dead backend reported success")
        };
        assert!(
            message.contains(INFRA_MARKER),
            "not infra-tagged: {message}"
        );
        assert_eq!(
            sqlancer_core::supervisor::classify_infra_message(&message),
            sqlancer_core::supervisor::IncidentKind::BackendCrash,
        );
        // Still down until reset.
        assert!(conn.query("SELECT 1").is_err());
        conn.reset();
        assert!(conn.execute("SELECT 1").is_success());
    }

    #[test]
    fn transactions_and_savepoints_work() {
        let Some(mut conn) = connection() else { return };
        assert!(conn.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
        assert!(conn.execute("BEGIN").is_success());
        assert!(conn.execute("INSERT INTO t0 VALUES (1)").is_success());
        assert!(conn.execute("SAVEPOINT sp1").is_success());
        assert!(conn.execute("INSERT INTO t0 VALUES (2)").is_success());
        assert!(conn.execute("ROLLBACK TO sp1").is_success());
        assert!(conn.execute("COMMIT").is_success());
        let result = conn.query("SELECT COUNT(*) FROM t0").unwrap();
        assert_eq!(result.rows, vec![vec![Value::Integer(1)]]);
    }

    #[test]
    fn driver_reports_text_only_capability() {
        let cap = driver().capability();
        assert!(cap.transactions && cap.savepoints);
        assert!(!cap.multi_session);
    }

    #[test]
    fn wire_telemetry_drains_and_resets() {
        let Some(mut conn) = connection() else { return };
        assert!(conn.execute("CREATE TABLE t0 (c0 INTEGER)").is_success());
        assert!(conn.query("SELECT 1").is_ok());
        let events = conn.drain_backend_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, BackendEvent::WireWrites { bytes } if *bytes > 0)));
        assert!(events
            .iter()
            .any(|e| matches!(e, BackendEvent::WireReads { bytes } if *bytes > 0)));
        // Probe + CREATE + SELECT: one sentinel frame per statement.
        assert!(events
            .iter()
            .any(|e| matches!(e, BackendEvent::SentinelFrames { count } if *count >= 3)));
        assert!(
            conn.drain_backend_events().is_empty(),
            "drain must reset the counters"
        );
        // A killed child surfaces as a respawn at the next reset.
        conn.kill_backend();
        let _ = conn.execute("SELECT 1");
        conn.reset();
        assert!(conn
            .drain_backend_events()
            .iter()
            .any(|e| matches!(e, BackendEvent::Respawns { count: 1 })));
    }

    /// A binary that dies immediately (here `true`) must surface as a
    /// structured `infra:` connect error, not a success followed by a
    /// confusing first-statement failure. The absent-binary self-skip in
    /// [`connection`] rides the same path.
    #[test]
    fn connect_probe_flags_dead_binary_as_infra() {
        let Err(err) = SqliteProcConnection::spawn("true") else {
            panic!("dead binary passed the connect probe")
        };
        assert!(err.contains(INFRA_MARKER), "not infra-tagged: {err}");
    }

    /// An impostor that answers the wire protocol but reports an ancient
    /// version banner is rejected at connect time with a probe-attributed
    /// `infra:` error.
    #[cfg(unix)]
    #[test]
    fn connect_probe_rejects_impostor_version_banner() {
        use std::io::Write as _;
        use std::os::unix::fs::PermissionsExt;

        // A fake sqlite3: echoes sentinel frames so the wire protocol
        // round-trips, but claims to be SQLite 2.x.
        let path = std::env::temp_dir().join(format!("impostor-sqlite3-{}", std::process::id()));
        let script = concat!(
            "#!/bin/sh\n",
            "while IFS= read -r line; do\n",
            "  case \"$line\" in\n",
            "    \"SELECT 'SQLPROC_SENTINEL_\"*)\n",
            "      m=${line#SELECT \\'}\n",
            "      printf '%s\\n' \"${m%\\';}\"\n",
            "      ;;\n",
            "    *sqlite_version*)\n",
            "      printf '2.5.0\\n'\n",
            "      ;;\n",
            "  esac\n",
            "done\n",
        );
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(script.as_bytes()).unwrap();
        file.set_permissions(std::fs::Permissions::from_mode(0o755))
            .unwrap();
        drop(file);

        let spawned = SqliteProcConnection::spawn(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
        let Err(err) = spawned else {
            panic!("impostor binary passed the connect probe")
        };
        assert!(err.contains(INFRA_MARKER), "not infra-tagged: {err}");
        assert!(err.contains("version banner"), "wrong attribution: {err}");
        assert_eq!(
            sqlancer_core::supervisor::classify_infra_message(&err),
            sqlancer_core::supervisor::IncidentKind::ProbeFailure,
        );
    }

    #[test]
    fn null_and_real_values_parse() {
        let Some(mut conn) = connection() else { return };
        let result = conn.query("SELECT NULL, 1.5, '', 'x', -7").unwrap();
        assert_eq!(
            result.rows,
            vec![vec![
                Value::Null,
                Value::Real(1.5),
                Value::Text(String::new()),
                Value::Text("x".into()),
                Value::Integer(-7),
            ]]
        );
    }
}
