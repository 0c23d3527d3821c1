//! Shared driver plumbing for the `rvpredict` CLI and the `rvserved`
//! daemon: report rendering, exit-code mapping, metrics recording, and
//! the daemon's framed session protocol.
//!
//! The daemon's determinism contract — each session's output is
//! byte-identical to the standalone CLI on the same trace — holds *by
//! construction*: every `rv` run, local or served, is a detection session
//! whose outcome [`compose_response`] turns into the one
//! [`SessionResponse`] both binaries print. There is exactly one
//! implementation of the report text, the degradation notes, the
//! consistency gate, the metrics document and the exit-code mapping.
//!
//! # Wire protocol
//!
//! A client connection to `rvserved` is a frame sequence (see
//! [`rvtrace::frame`]): one [`SessionRequest`] JSON frame, any number of
//! raw trace-byte frames (JSON or NDJSON, auto-detected), a zero-length
//! end-of-trace frame — then one [`SessionResponse`] JSON frame back from
//! the server, after which the connection closes.

use std::time::Duration;

use rvcore::session::{SessionConfig, SessionOutcome};
pub use rvcore::Kind;
use rvcore::{
    AtomicityReport, DeadlockReport, DetectionReport, DetectorConfig, Fault, FaultPlan, Metrics,
    WindowMode,
};
use rvtrace::{escape_json, parse_json, IngestStats, JsonError, JsonValue, SalvageReport, Trace};

/// Exit code: detection completed, no violations, nothing undecided.
pub const EXIT_OK: u8 = 0;
/// Exit code: at least one violation found (and witness-validated) —
/// a race, a deadlock cycle or an atomicity violation, per `--kind`.
pub const EXIT_RACES: u8 = 1;
/// Exit code: usage error, unreadable/unparsable trace, or (strict mode)
/// a trace violating the sequential-consistency axioms.
pub const EXIT_USAGE: u8 = 2;
/// Exit code: no races, but some verdicts are missing (undecided COPs or
/// failed windows) — race freedom is not established.
pub const EXIT_DEGRADED: u8 = 3;
/// Exit code: standard output closed before the report was written
/// (`rvpredict T | head`). The run ends quietly; 141 is 128 + SIGPIPE, the
/// status a shell reports for a writer the closed pipe killed.
pub const EXIT_CLOSED_STDOUT: u8 = 141;

/// The value after `flag` on a command line, parsed as `T`. A missing
/// value reads "`flag` needs `what`", a malformed one "`flag`: error".
pub fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = args.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a `W:C:KIND` fault-injection spec (KIND: `panic`, `timeout`,
/// `encode-error`) into a fault coordinate.
pub fn parse_fault_spec(spec: &str) -> Result<(usize, usize, Fault), String> {
    let mut parts = spec.splitn(3, ':');
    let window = parts
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| format!("--inject-fault {spec}: bad window index"))?;
    let cop = parts
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| format!("--inject-fault {spec}: bad COP index"))?;
    let fault = match parts.next() {
        Some("panic") => Fault::Panic,
        Some("timeout") => Fault::Timeout,
        Some("encode-error") => Fault::EncodeError,
        _ => {
            return Err(format!(
                "--inject-fault {spec}: kind must be panic, timeout or encode-error"
            ))
        }
    };
    Ok((window, cop, fault))
}

/// Renders a fault kind back to its spec name (the inverse of
/// [`parse_fault_spec`]'s KIND field).
fn fault_kind(fault: Fault) -> &'static str {
    match fault {
        Fault::Panic => "panic",
        Fault::Timeout => "timeout",
        Fault::EncodeError => "encode-error",
    }
}

/// Parses a `--window-mode` value (`fixed` or `cone`).
pub fn parse_window_mode(name: &str) -> Result<WindowMode, String> {
    match name {
        "fixed" => Ok(WindowMode::Fixed),
        "cone" => Ok(WindowMode::Cone),
        other => Err(format!("--window-mode must be fixed or cone, got {other}")),
    }
}

/// Renders a window mode back to its flag value (the inverse of
/// [`parse_window_mode`]).
fn window_mode_name(mode: WindowMode) -> &'static str {
    match mode {
        WindowMode::Fixed => "fixed",
        WindowMode::Cone => "cone",
    }
}

/// Parses a `--kind` value (`race`, `deadlock`, `atomicity` or `all`).
pub fn parse_kind(name: &str) -> Result<Kind, String> {
    match name {
        "race" => Ok(Kind::Race),
        "deadlock" => Ok(Kind::Deadlock),
        "atomicity" => Ok(Kind::Atomicity),
        "all" => Ok(Kind::All),
        other => Err(format!(
            "--kind must be race, deadlock, atomicity or all, got {other}"
        )),
    }
}

/// Renders a kind back to its flag value (the inverse of [`parse_kind`]).
pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Race => "race",
        Kind::Deadlock => "deadlock",
        Kind::Atomicity => "atomicity",
        Kind::All => "all",
    }
}

/// The `trace:` banner line both binaries print before the report.
pub fn trace_line(trace: &Trace) -> String {
    format!("trace: {}\n", trace.stats())
}

/// The race section's stdout: the report summary and one line per race
/// (plus the witness schedule under `--witnesses`).
fn render_rv_report(report: &DetectionReport, trace: &Trace, witnesses: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!("{report}\n"));
    for race in &report.races {
        out.push_str(&format!("  {}\n", race.display(trace)));
        if witnesses {
            out.push_str(&format!("    witness: {}\n", race.schedule));
        }
    }
    out
}

/// The deadlock analysis stdout: a summary line plus one line per
/// validated cycle (and its witness prefix under `--witnesses`). The
/// rendering contains no timing, so it is byte-identical across runs,
/// `--jobs` values and the CLI/daemon split by construction.
fn render_deadlock_report(report: &DeadlockReport, trace: &Trace, witnesses: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "deadlock: {} cycle(s); candidates={}, sat={}, unsat={}, unknown={}\n",
        report.n_cycles(),
        report.candidates,
        report.sat,
        report.unsat,
        report.unknown
    ));
    for c in &report.cycles {
        let locks = c
            .locks
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let acquires = c
            .acquires
            .iter()
            .map(|&a| trace.event(a).to_string())
            .collect::<Vec<_>>()
            .join(" / ");
        out.push_str(&format!("  cycle {{{locks}}} blocked at {acquires}\n"));
        if witnesses {
            out.push_str(&format!("    witness: {}\n", c.schedule));
        }
    }
    out
}

/// The atomicity analysis stdout: a summary line plus one line per
/// validated violation. Deterministic, like
/// [`render_deadlock_report`].
fn render_atomicity_report(report: &AtomicityReport, trace: &Trace, witnesses: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "atomicity: {} violation(s); candidates={}, sat={}, unsat={}, unknown={}\n",
        report.violations.len(),
        report.candidates,
        report.sat,
        report.unsat,
        report.unknown
    ));
    for v in &report.violations {
        out.push_str(&format!(
            "  violation {}: {} between {} and {}\n",
            v.signature.display(trace),
            trace.event(v.interleaved),
            trace.event(v.pair.first),
            trace.event(v.pair.second),
        ));
        if witnesses {
            out.push_str(&format!("    witness: {}\n", v.schedule));
        }
    }
    out
}

/// Maps a violation count and a count of missing verdicts to the exit
/// code: found violations are sound regardless of missing verdicts;
/// missing verdicts without a violation mean freedom is not established.
pub fn kind_exit_code(violations: usize, unknown: usize) -> u8 {
    if violations > 0 {
        EXIT_RACES
    } else if unknown > 0 {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    }
}

/// The degradation note for a violation-free deadlock/atomicity run with
/// unknown solver verdicts, `None` otherwise.
pub fn kind_degraded_note(kind: Kind, violations: usize, unknown: usize) -> Option<String> {
    section_note(kind, violations, unknown, 0)
}

/// The degradation note of one deadlock/atomicity section: unknown
/// verdicts, and failed window jobs (which degrade every selected class).
fn section_note(kind: Kind, violations: usize, unknown: usize, failed: usize) -> Option<String> {
    let failed = match failed {
        0 => String::new(),
        n => format!(" and {n} window(s) failed"),
    };
    (violations == 0 && (unknown > 0 || !failed.is_empty())).then(|| {
        format!(
            "note: no {} violations found, but {unknown} candidate(s) are undecided{failed} — \
             freedom is not established for those\n",
            kind_name(kind)
        )
    })
}

/// Renders a run's stdout: the selected sections in fixed order (races,
/// deadlocks, atomicity). The single composition point for the CLI and
/// the daemon, so their output is byte-identical by construction. Failed
/// windows are listed in the race summary, or after the sections when
/// races were not analyzed. No section carries timing except the race
/// summary's `, solver …` tail and `window times:` line.
pub fn render_kind_report(report: &DetectionReport, trace: &Trace, witnesses: bool) -> String {
    let mut out = String::new();
    if report.kind.includes(Kind::Race) {
        out.push_str(&render_rv_report(report, trace, witnesses));
    }
    if report.kind.includes(Kind::Deadlock) {
        out.push_str(&render_deadlock_report(&report.deadlock, trace, witnesses));
    }
    if report.kind.includes(Kind::Atomicity) {
        out.push_str(&render_atomicity_report(
            &report.atomicity,
            trace,
            witnesses,
        ));
    }
    if !report.kind.includes(Kind::Race) {
        for fw in &report.failed_windows {
            out.push_str(&format!("  {fw}\n"));
        }
    }
    out
}

/// The concatenated degradation notes of a run (stderr), `None` when
/// every selected section is either clean-and-complete or has found
/// violations.
pub fn kind_run_notes(report: &DetectionReport) -> Option<String> {
    let mut out = String::new();
    if report.kind.includes(Kind::Race) {
        out.extend(degraded_note(report));
    }
    let failed = report.failed_windows.len();
    let (d, a) = (&report.deadlock, &report.atomicity);
    for (kind, violations, unknown) in [
        (Kind::Deadlock, d.n_cycles(), d.unknown),
        (Kind::Atomicity, a.violations.len(), a.unknown),
    ] {
        if report.kind.includes(kind) {
            out.extend(section_note(kind, violations, unknown, failed));
        }
    }
    (!out.is_empty()).then_some(out)
}

/// Maps a run to its exit code: violations in *any* selected section
/// dominate (they are sound regardless of degradation elsewhere), then
/// any missing verdict — an undecided COP or candidate, or a failed
/// window job — degrades, else clean. Unselected sections are empty.
pub fn kind_run_exit(report: &DetectionReport) -> u8 {
    let (d, a) = (&report.deadlock, &report.atomicity);
    let violations = report.n_races() + d.n_cycles() + a.violations.len();
    let missing = usize::from(report.is_degraded()) + d.unknown + a.unknown;
    kind_exit_code(violations, missing)
}

/// The race section's degradation note, printed to stderr when a
/// raceless run is missing verdicts (the [`EXIT_DEGRADED`] case).
fn degraded_note(report: &DetectionReport) -> Option<String> {
    (report.n_races() == 0 && report.is_degraded()).then(|| {
        format!(
            "note: no races found, but {} COP(s) are undecided and {} window(s) \
             failed — race freedom is not established for those\n",
            report.stats.undecided,
            report.failed_windows.len()
        )
    })
}

/// The strict-mode consistency gate: the stderr diagnostics for a trace
/// that violates the sequential-consistency axioms, or `None` when the
/// trace is clean. Both binaries exit [`EXIT_USAGE`] on `Some`.
pub fn consistency_error(trace: &Trace) -> Option<String> {
    let violations = rvtrace::check_consistency(trace);
    if violations.is_empty() {
        return None;
    }
    let mut out = String::from("error: trace is not sequentially consistent:\n");
    for v in violations.iter().take(5) {
        out.push_str(&format!("  {v}\n"));
    }
    if violations.len() > 5 {
        out.push_str(&format!("  ... and {} more\n", violations.len() - 5));
    }
    out.push_str("  (rerun with --lenient to salvage the consistent part)\n");
    Some(out)
}

/// Folds one [`IngestStats`] into the registry (`trace.ingest.*`).
pub fn record_ingest_metrics(ingest: &IngestStats, metrics: &mut Metrics) {
    metrics.inc("trace.ingest.bytes", ingest.bytes as u64);
    metrics.record_time("trace.ingest.parse_time", ingest.parse_time);
}

/// Event totals and the per-kind breakdown of the (possibly salvaged)
/// trace detection ran on (`trace.*`).
pub fn record_trace_metrics(trace: &Trace, metrics: &mut Metrics) {
    metrics.inc("trace.events", trace.len() as u64);
    for (kind, n) in trace.kind_counts() {
        metrics.inc(&format!("trace.kind.{kind}"), n as u64);
    }
}

/// Folds a lenient-mode salvage report into the registry (`salvage.*`).
pub fn record_salvage_metrics(report: &SalvageReport, metrics: &mut Metrics) {
    metrics.inc("salvage.total", report.total as u64);
    metrics.inc("salvage.kept", report.kept as u64);
    metrics.inc(
        "salvage.dangling_wait_links",
        report.dangling_wait_links as u64,
    );
    for (category, &n) in &report.dropped {
        metrics.inc(&format!("salvage.dropped.{category}"), n as u64);
    }
    metrics.record_time("trace.salvage_time", report.elapsed);
}

/// Renders a session's end exactly as the CLI reports a run: stdout,
/// stderr, exit code and — when `req` asks for it — the metrics document.
/// The one composer of every `rv` run, local or served.
///
/// A trace the session could not read yields [`EXIT_USAGE`] and the
/// error, which the client renders against its own file name. The strict
/// consistency gate runs here, after the (speculative) solving: an
/// inconsistent trace yields only its diagnostics and [`EXIT_USAGE`]. A
/// lenient session's salvage diagnostics lead stderr.
pub fn compose_response(
    req: &SessionRequest,
    finished: &Result<SessionOutcome, JsonError>,
) -> SessionResponse {
    let outcome = match finished {
        Ok(outcome) => outcome,
        Err(e) => {
            return SessionResponse {
                exit: EXIT_USAGE,
                error: Some(e.to_string()),
                ..SessionResponse::default()
            }
        }
    };
    let mut metrics = Metrics::new();
    if let Some(ingest) = &outcome.ingest {
        record_ingest_metrics(ingest, &mut metrics);
    }
    // The session's own registry (`session.*` residency/shedding state)
    // rides along in the gauges section, which is exempt from the
    // count-type identity contract.
    metrics.merge(&outcome.metrics);
    let mut stderr = String::new();
    if let Some(salvage) = &outcome.salvage {
        record_salvage_metrics(salvage, &mut metrics);
        if !salvage.is_clean() {
            stderr.push_str(&format!("{salvage}\n"));
        }
    } else if let Some(diag) = consistency_error(&outcome.trace) {
        return SessionResponse {
            exit: EXIT_USAGE,
            stderr: diag,
            ..SessionResponse::default()
        };
    }
    record_trace_metrics(&outcome.trace, &mut metrics);
    let report = &outcome.report;
    let mut stdout = trace_line(&outcome.trace);
    stdout.push_str(&render_kind_report(report, &outcome.trace, req.witnesses));
    metrics.merge(&report.to_metrics());
    stderr.extend(kind_run_notes(report));
    SessionResponse {
        exit: kind_run_exit(report),
        stdout,
        stderr,
        metrics: req.want_metrics.then(|| metrics.to_json()),
        error: None,
    }
}

/// A wire integer narrowed to `T` (a size, a budget, an exit code), or a
/// shape error: `-1` must not wrap to `usize::MAX`, and `256` must not
/// truncate to a `u8` exit code.
fn json_uint<T: TryFrom<i64>>(value: &JsonValue) -> Result<T, JsonError> {
    let n = value.as_int()?;
    T::try_from(n).map_err(|_| wire_error(format!("integer {n} out of range")))
}

/// A protocol field that parsed as JSON but means nothing valid.
fn wire_error(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
        offset: 0,
        snippet: String::new(),
    }
}

/// One session's detector settings on the wire: everything the standalone
/// CLI's flags can express for the `rv` detector, so a daemon session
/// reproduces a CLI run exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRequest {
    /// Window size in events (`--window`).
    pub window: usize,
    /// Per-COP solver budget in seconds (`--budget`).
    pub budget_secs: u64,
    /// Per-window wall-clock budget in milliseconds (`--timeout-ms`).
    pub timeout_ms: Option<u64>,
    /// Print full witness schedules (`--witnesses`).
    pub witnesses: bool,
    /// Salvage a damaged trace instead of rejecting it (`--lenient`).
    pub lenient: bool,
    /// Disable relevance slicing (`--no-slice`).
    pub no_slice: bool,
    /// Disable the tiered cascade (`--no-tiers`).
    pub no_tiers: bool,
    /// Planned fault coordinates (`--inject-fault W:C:KIND`, repeatable).
    pub faults: Vec<(usize, usize, Fault)>,
    /// Window bounding discipline (`--window-mode fixed|cone`).
    pub window_mode: WindowMode,
    /// Byte budget for cone-mode cross-boundary lookback (`--spill-budget`).
    pub spill_budget: usize,
    /// Return the metrics document in the response (`--metrics`).
    pub want_metrics: bool,
    /// Violation class to analyze (`--kind race|deadlock|atomicity|all`).
    pub kind: Kind,
}

impl Default for SessionRequest {
    fn default() -> Self {
        SessionRequest {
            window: 10_000,
            budget_secs: 60,
            timeout_ms: None,
            witnesses: false,
            lenient: false,
            no_slice: false,
            no_tiers: false,
            faults: Vec::new(),
            window_mode: WindowMode::default(),
            spill_budget: DetectorConfig::default().spill_budget,
            want_metrics: false,
            kind: Kind::Race,
        }
    }
}

impl SessionRequest {
    /// The detector configuration this request describes — the exact
    /// mapping the CLI applies to its own flags.
    pub fn detector_config(&self) -> DetectorConfig {
        let mut cfg = DetectorConfig {
            window_size: self.window,
            solver_timeout: Duration::from_secs(self.budget_secs),
            slice: !self.no_slice,
            tiers: !self.no_tiers,
            window_timeout: self.timeout_ms.map(Duration::from_millis),
            window_mode: self.window_mode,
            spill_budget: self.spill_budget,
            kind: self.kind,
            ..Default::default()
        };
        if !self.faults.is_empty() {
            let mut plan = FaultPlan::new();
            for &(w, c, fault) in &self.faults {
                plan = plan.inject(w, c, fault);
            }
            cfg.fault_plan = Some(std::sync::Arc::new(plan));
        }
        cfg
    }

    /// The session configuration for this request, with the server-side
    /// residency cap applied.
    pub fn session_config(&self, max_resident_windows: usize) -> SessionConfig {
        SessionConfig {
            detector: self.detector_config(),
            lenient: self.lenient,
            max_resident_windows,
        }
    }

    /// Serializes the request as the protocol's JSON header frame.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"window\": {}", self.window));
        out.push_str(&format!(", \"budget_secs\": {}", self.budget_secs));
        if let Some(ms) = self.timeout_ms {
            out.push_str(&format!(", \"timeout_ms\": {ms}"));
        }
        out.push_str(&format!(", \"witnesses\": {}", self.witnesses));
        out.push_str(&format!(", \"lenient\": {}", self.lenient));
        out.push_str(&format!(", \"no_slice\": {}", self.no_slice));
        out.push_str(&format!(", \"no_tiers\": {}", self.no_tiers));
        out.push_str(", \"faults\": [");
        for (i, &(w, c, fault)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{w}, {c}, {}]", escape_json(fault_kind(fault))));
        }
        out.push_str("]");
        out.push_str(&format!(
            ", \"window_mode\": {}",
            escape_json(window_mode_name(self.window_mode))
        ));
        out.push_str(&format!(", \"spill_budget\": {}", self.spill_budget));
        out.push_str(&format!(", \"want_metrics\": {}", self.want_metrics));
        out.push_str(&format!(
            ", \"kind\": {}",
            escape_json(kind_name(self.kind))
        ));
        out.push('}');
        out
    }

    /// Parses a request header frame. Unknown fields are rejected — a
    /// client speaking a newer protocol must not be half-understood.
    pub fn from_json(input: &str) -> Result<SessionRequest, String> {
        let v = parse_json(input).map_err(|e| format!("bad session request: {e}"))?;
        let obj = v
            .as_object()
            .map_err(|e| format!("bad session request: {e}"))?;
        let mut req = SessionRequest::default();
        for (key, value) in obj {
            let r: Result<(), JsonError> = (|| {
                match key.as_str() {
                    "window" => {
                        req.window = json_uint(value)?;
                        if req.window == 0 {
                            return Err(wire_error("window 0 out of range"));
                        }
                    }
                    "budget_secs" => req.budget_secs = json_uint(value)?,
                    "timeout_ms" => req.timeout_ms = Some(json_uint(value)?),
                    "witnesses" => req.witnesses = value.as_bool()?,
                    "lenient" => req.lenient = value.as_bool()?,
                    "no_slice" => req.no_slice = value.as_bool()?,
                    "no_tiers" => req.no_tiers = value.as_bool()?,
                    "window_mode" => {
                        req.window_mode = parse_window_mode(value.as_str()?).map_err(wire_error)?
                    }
                    "spill_budget" => req.spill_budget = json_uint(value)?,
                    "want_metrics" => req.want_metrics = value.as_bool()?,
                    "kind" => req.kind = parse_kind(value.as_str()?).map_err(wire_error)?,
                    "faults" => {
                        for f in value.as_array()? {
                            let f = f.as_array()?;
                            if f.len() != 3 {
                                return Err(wire_error("fault needs [window, cop, kind]"));
                            }
                            let spec =
                                format!("{}:{}:{}", f[0].as_int()?, f[1].as_int()?, f[2].as_str()?);
                            req.faults
                                .push(parse_fault_spec(&spec).map_err(wire_error)?);
                        }
                    }
                    other => {
                        return Err(wire_error(format!(
                            "unknown session request field `{other}`"
                        )))
                    }
                }
                Ok(())
            })();
            r.map_err(|e| format!("bad session request: {e}"))?;
        }
        Ok(req)
    }
}

/// The server's one response frame: the exact stdout/stderr/exit the
/// standalone CLI would have produced, plus the metrics document when the
/// request asked for it. `error`, when set, is a parse/teardown failure
/// the *client* renders against its local file name (so even error
/// output matches the CLI byte-for-byte).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionResponse {
    /// Process exit code for the client.
    pub exit: u8,
    /// Bytes for the client's stdout, verbatim.
    pub stdout: String,
    /// Bytes for the client's stderr, verbatim.
    pub stderr: String,
    /// The metrics JSON document, when requested.
    pub metrics: Option<String>,
    /// A trace ingestion error (the [`JsonError`] display text)
    /// or a session teardown reason.
    pub error: Option<String>,
}

impl SessionResponse {
    /// Serializes the response as the protocol's JSON frame.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"exit\": {}", self.exit));
        out.push_str(&format!(", \"stdout\": {}", escape_json(&self.stdout)));
        out.push_str(&format!(", \"stderr\": {}", escape_json(&self.stderr)));
        if let Some(m) = &self.metrics {
            out.push_str(&format!(", \"metrics\": {}", escape_json(m)));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!(", \"error\": {}", escape_json(e)));
        }
        out.push('}');
        out
    }

    /// Parses a response frame.
    pub fn from_json(input: &str) -> Result<SessionResponse, String> {
        let v = parse_json(input).map_err(|e| format!("bad session response: {e}"))?;
        let obj = v
            .as_object()
            .map_err(|e| format!("bad session response: {e}"))?;
        let mut resp = SessionResponse::default();
        for (key, value) in obj {
            let r: Result<(), JsonError> = (|| {
                match key.as_str() {
                    "exit" => resp.exit = json_uint(value)?,
                    "stdout" => resp.stdout = value.as_str()?.to_string(),
                    "stderr" => resp.stderr = value.as_str()?.to_string(),
                    "metrics" => resp.metrics = Some(value.as_str()?.to_string()),
                    "error" => resp.error = Some(value.as_str()?.to_string()),
                    other => {
                        return Err(wire_error(format!(
                            "unknown session response field `{other}`"
                        )))
                    }
                }
                Ok(())
            })();
            r.map_err(|e| format!("bad session response: {e}"))?;
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_request_roundtrips_through_json() {
        let req = SessionRequest {
            window: 300,
            budget_secs: 5,
            timeout_ms: Some(1_500),
            witnesses: true,
            lenient: false,
            no_slice: true,
            no_tiers: false,
            faults: vec![(0, 1, Fault::Panic), (2, 0, Fault::Timeout)],
            window_mode: WindowMode::Fixed,
            spill_budget: 1 << 16,
            want_metrics: true,
            kind: Kind::Deadlock,
        };
        let parsed = SessionRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(
            SessionRequest::from_json(&SessionRequest::default().to_json()).unwrap(),
            SessionRequest::default()
        );
    }

    #[test]
    fn session_request_config_matches_flag_semantics() {
        let req = SessionRequest {
            window: 77,
            budget_secs: 3,
            timeout_ms: Some(250),
            no_slice: true,
            no_tiers: true,
            ..SessionRequest::default()
        };
        let cfg = req.detector_config();
        assert_eq!(cfg.window_size, 77);
        assert_eq!(cfg.solver_timeout, Duration::from_secs(3));
        assert_eq!(cfg.window_timeout, Some(Duration::from_millis(250)));
        assert!(!cfg.slice && !cfg.tiers);
        assert!(cfg.fault_plan.is_none());
        assert_eq!(cfg.kind, Kind::Race);
        let kinds = SessionRequest {
            kind: Kind::All,
            ..SessionRequest::default()
        };
        assert_eq!(
            kinds.detector_config().kind,
            Kind::All,
            "--kind maps onto the config"
        );
        assert_eq!(cfg.window_mode, WindowMode::Cone, "cone is the default");
        assert_eq!(cfg.spill_budget, DetectorConfig::default().spill_budget);

        let fixed = SessionRequest {
            window_mode: WindowMode::Fixed,
            spill_budget: 512,
            ..SessionRequest::default()
        }
        .detector_config();
        assert_eq!(fixed.window_mode, WindowMode::Fixed);
        assert_eq!(fixed.spill_budget, 512);
        assert_eq!(fixed.spill_events(), 0, "fixed mode never looks back");
    }

    #[test]
    fn kind_parses_and_rejects() {
        assert_eq!(parse_kind("race").unwrap(), Kind::Race);
        assert_eq!(parse_kind("deadlock").unwrap(), Kind::Deadlock);
        assert_eq!(parse_kind("atomicity").unwrap(), Kind::Atomicity);
        assert_eq!(parse_kind("all").unwrap(), Kind::All);
        assert!(parse_kind("livelock").is_err());
        for k in [Kind::Race, Kind::Deadlock, Kind::Atomicity, Kind::All] {
            assert_eq!(parse_kind(kind_name(k)).unwrap(), k);
        }
        assert!(
            SessionRequest::from_json("{\"kind\": \"livelock\"}").is_err(),
            "bad kind on the wire is rejected, not defaulted"
        );
        // Absent kind defaults to race (older clients).
        assert_eq!(
            SessionRequest::from_json("{\"window\": 5}").unwrap().kind,
            Kind::Race
        );
    }

    #[test]
    fn kind_exit_codes_and_notes() {
        assert_eq!(kind_exit_code(1, 5), EXIT_RACES);
        assert_eq!(kind_exit_code(0, 2), EXIT_DEGRADED);
        assert_eq!(kind_exit_code(0, 0), EXIT_OK);
        assert!(kind_degraded_note(Kind::Deadlock, 1, 5).is_none());
        assert!(kind_degraded_note(Kind::Deadlock, 0, 0).is_none());
        let note = kind_degraded_note(Kind::Atomicity, 0, 2).unwrap();
        assert!(note.contains("atomicity") && note.contains("2 candidate(s)"));
        // A failed window job degrades every selected section.
        let mut report = DetectionReport {
            kind: Kind::Deadlock,
            ..DetectionReport::default()
        };
        assert_eq!(kind_run_exit(&report), EXIT_OK);
        assert!(kind_run_notes(&report).is_none());
        report.failed_windows.push(rvcore::FailedWindow {
            window_index: 0,
            range: 0..4,
            reason: "deadlock analysis: boom".into(),
        });
        assert_eq!(kind_run_exit(&report), EXIT_DEGRADED);
        let note = kind_run_notes(&report).unwrap();
        assert!(note.contains("deadlock") && note.contains("1 window(s) failed"));
        let empty = rvtrace::TraceBuilder::new().finish();
        assert!(render_kind_report(&report, &empty, false).contains("boom"));
    }

    #[test]
    fn window_mode_parses_and_rejects() {
        assert_eq!(parse_window_mode("fixed").unwrap(), WindowMode::Fixed);
        assert_eq!(parse_window_mode("cone").unwrap(), WindowMode::Cone);
        assert!(parse_window_mode("adaptive").is_err());
        assert!(
            SessionRequest::from_json("{\"window_mode\": \"adaptive\"}").is_err(),
            "bad mode on the wire is rejected, not defaulted"
        );
    }

    #[test]
    fn session_response_roundtrips_with_tricky_strings() {
        let resp = SessionResponse {
            exit: 3,
            stdout: "line one\nline \"two\"\n\ttabbed\n".into(),
            stderr: "unicode: αβγ — ok\n".into(),
            metrics: Some("{\n  \"counters\": {}\n}".into()),
            error: None,
        };
        assert_eq!(SessionResponse::from_json(&resp.to_json()).unwrap(), resp);
    }

    #[test]
    fn unknown_request_fields_rejected() {
        assert!(SessionRequest::from_json("{\"windw\": 3}").is_err());
        assert!(SessionResponse::from_json("{\"exitcode\": 3}").is_err());
        // Fields of removed options are unknown, not silently ignored.
        for removed in [
            "{\"portfolio\": false}",
            "{\"no_incremental\": false}",
            "{\"retry_split\": false}",
        ] {
            assert!(SessionRequest::from_json(removed).is_err(), "{removed}");
        }
    }

    #[test]
    fn negative_or_oversized_integers_are_rejected() {
        for field in ["window", "budget_secs", "timeout_ms", "spill_budget"] {
            let err = SessionRequest::from_json(&format!("{{\"{field}\": -1}}")).expect_err(field);
            assert!(err.contains("out of range"), "{field}: {err}");
        }
        let err = SessionRequest::from_json("{\"window\": 0}").expect_err("window 0");
        assert!(err.contains("out of range"), "{err}");
        assert!(SessionResponse::from_json("{\"exit\": 256}").is_err());
        assert!(SessionResponse::from_json("{\"exit\": -1}").is_err());
        assert_eq!(SessionResponse::from_json("{\"exit\": 3}").unwrap().exit, 3);
    }
}
