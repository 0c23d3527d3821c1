//! The `rvpredict` command-line tool: read a serialized trace, run the
//! maximal race detector (or a baseline), and print the report.
//!
//! ```sh
//! rvpredict [OPTIONS] TRACE
//!
//! OPTIONS:
//!   --detector rv|said|cp|hb   technique to run (default rv)
//!   --kind race|deadlock|atomicity|all
//!                              violation class to predict (default race; rv
//!                              detector only): `deadlock` finds predictable
//!                              circular lock waits, `atomicity` unserializable
//!                              interleavings of intended-atomic blocks, `all`
//!                              every class; each window is cut once and runs
//!                              one job per selected class on the shared pool
//!   --window N                 window size in events (default 10000)
//!   --budget SECS              per-COP solver budget (default 60, as in the paper)
//!   --timeout-ms MS            per-*window* wall-clock budget: when a window has
//!                              spent MS milliseconds, its remaining COPs are
//!                              recorded as undecided (timeout) instead of solved —
//!                              detection degrades (exit 3) rather than stalls;
//!                              every --kind honors it
//!   --jobs N                   solve windows on N worker threads (default: all cores)
//!   --window-mode fixed|cone   window bounding discipline (default cone):
//!                              `cone` grows a boundary-straddling COP's view
//!                              backwards along its cone of influence so races
//!                              astride a window boundary are still predicted;
//!                              `fixed` keeps hard window edges (the pre-cone
//!                              behavior, for A/B checks). On traces with no
//!                              straddling pair the two are byte-identical
//!   --spill-budget BYTES       cap on retained cross-boundary lookback in cone
//!                              mode (default 4194304 = 4 MiB); a straddling COP
//!                              whose partner lies beyond the cap is reported
//!                              undecided (boundary-budget) instead of solved
//!                              on a truncated view
//!   --connect SOCK             run the detection in an rvserved daemon at unix
//!                              socket SOCK instead of in-process: the trace is
//!                              streamed over the socket and the daemon's reply is
//!                              byte-identical to the local run (rv detector only)
//!   --stream                   start solving windows while the tail of the trace is
//!                              still being read; output is byte-identical to the
//!                              whole-file run
//!   --witnesses                print full witness schedules
//!   --lenient                  salvage a damaged trace: drop events violating the
//!                              consistency axioms (with per-category diagnostics)
//!                              instead of rejecting the file
//!   --no-slice                 disable relevance slicing (encode each COP over the
//!                              whole window instead of its cone of influence);
//!                              verdicts and witnesses are identical either way —
//!                              this exists for A/B checking and ablation
//!   --no-tiers                 disable the tiered pre-solver cascade (send every
//!                              COP straight to the SMT encoding instead of letting
//!                              the linear-time screens confirm/refute it first);
//!                              verdicts and witnesses are identical either way —
//!                              this exists for A/B checking and ablation
//!   --inject-fault W:C:KIND    (testing) inject a fault at window W, COP C;
//!                              KIND is panic, timeout or encode-error; repeatable
//!   --metrics OUT.json         write the run's metrics registry (versioned JSON:
//!                              counters, histograms, timings, gauges) to OUT.json
//!   --trace-log                log phase progress to stderr, with timestamps
//!   --demo                     ignore TRACE and run the paper's Figure 1 instead
//! ```
//!
//! `TRACE` is a JSON document or NDJSON (one metadata header object, then
//! one event object per line), with or without `--stream`; the format is
//! auto-detected. It may be `-` to read the trace from standard input.
//!
//! The `--metrics` document separates count-type metrics (counters,
//! histograms — byte-identical at every `--jobs` level and identical
//! between `--stream` and whole-file runs) from wall-clock timings and
//! gauges (`timings_us`, `gauges` — machine- and run-dependent); see
//! DESIGN.md's "Observability" section for the schema and the
//! determinism contract.
//!
//! # Exit codes
//!
//! * `0` — detection completed, no violations found, nothing left undecided;
//! * `1` — at least one violation (race, deadlock cycle or atomicity
//!   violation, per `--kind`) was found and witness-validated;
//! * `2` — usage error, unreadable/unparsable trace file, or (in strict
//!   mode) a trace that violates the sequential-consistency axioms;
//! * `3` — detection completed and found no races, but some verdicts are
//!   missing (undecided COPs or failed windows): "no races" is *not*
//!   proven for the whole trace.
//!
//! Races dominate degradation: a run that both finds races and fails some
//! windows exits `1` (the found races are sound regardless).
//!
//! The trace format is the JSON serialization of [`rvpredict::Trace`]
//! (see [`rvpredict::to_json`]); any instrumentation front-end that can
//! emit the §2 event alphabet can produce it.

use std::io::{Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rvpredict::driver::{self, SessionRequest, EXIT_RACES, EXIT_USAGE};
use rvpredict::{
    read_frame, write_frame, CpDetector, DetectionReport, Fault, HbDetector, Kind, Metrics,
    RaceDetector, RaceDetectorTool, SaidDetector, Trace, TraceData, WindowMode,
};

struct Options {
    detector: String,
    kind: Kind,
    window: usize,
    budget: Duration,
    timeout_ms: Option<u64>,
    jobs: Option<usize>,
    window_mode: WindowMode,
    spill_budget: Option<usize>,
    connect: Option<String>,
    stream: bool,
    witnesses: bool,
    lenient: bool,
    no_slice: bool,
    no_tiers: bool,
    faults: Vec<(usize, usize, Fault)>,
    metrics: Option<String>,
    trace_log: bool,
    demo: bool,
    path: Option<String>,
}

impl Options {
    /// The detector settings as the daemon protocol's request header —
    /// also the single source of the local `rv` configuration, so a
    /// `--connect` run and an in-process run are configured identically.
    fn session_request(&self) -> SessionRequest {
        SessionRequest {
            window: self.window,
            budget_secs: self.budget.as_secs(),
            timeout_ms: self.timeout_ms,
            witnesses: self.witnesses,
            lenient: self.lenient,
            no_slice: self.no_slice,
            no_tiers: self.no_tiers,
            faults: self.faults.clone(),
            window_mode: self.window_mode,
            spill_budget: self
                .spill_budget
                .unwrap_or(SessionRequest::default().spill_budget),
            want_metrics: self.metrics.is_some(),
            kind: self.kind,
        }
    }
}

/// The `--trace-log` phase logger: human-readable progress lines on stderr,
/// stamped with time elapsed since startup. Inert unless enabled, so the
/// default output is unchanged.
struct PhaseLog {
    enabled: bool,
    start: Instant,
}

impl PhaseLog {
    fn new(enabled: bool) -> Self {
        PhaseLog {
            enabled,
            start: Instant::now(),
        }
    }

    fn log(&self, msg: &str) {
        if self.enabled {
            eprintln!("[rvpredict +{:.1?}] {msg}", self.start.elapsed());
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        detector: "rv".into(),
        kind: Kind::default(),
        window: 10_000,
        budget: Duration::from_secs(60),
        timeout_ms: None,
        jobs: None,
        window_mode: WindowMode::default(),
        spill_budget: None,
        connect: None,
        stream: false,
        witnesses: false,
        lenient: false,
        no_slice: false,
        no_tiers: false,
        faults: Vec::new(),
        metrics: None,
        trace_log: false,
        demo: false,
        path: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--detector" => {
                opts.detector = args.get(i + 1).ok_or("--detector needs a value")?.clone();
                i += 2;
            }
            "--kind" => {
                let name = args.get(i + 1).ok_or("--kind needs a value")?;
                opts.kind = driver::parse_kind(name)?;
                i += 2;
            }
            "--window" => {
                opts.window = args
                    .get(i + 1)
                    .ok_or("--window needs a value")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
                if opts.window == 0 {
                    return Err("--window must be at least 1".into());
                }
                i += 2;
            }
            "--budget" => {
                let secs: u64 = args
                    .get(i + 1)
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
                opts.budget = Duration::from_secs(secs);
                i += 2;
            }
            "--timeout-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .ok_or("--timeout-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?;
                opts.timeout_ms = Some(ms);
                i += 2;
            }
            "--connect" => {
                opts.connect = Some(
                    args.get(i + 1)
                        .ok_or("--connect needs a socket path")?
                        .clone(),
                );
                i += 2;
            }
            "--jobs" => {
                let jobs: usize = args
                    .get(i + 1)
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(jobs);
                i += 2;
            }
            "--window-mode" => {
                let name = args.get(i + 1).ok_or("--window-mode needs a value")?;
                opts.window_mode = driver::parse_window_mode(name)?;
                i += 2;
            }
            "--spill-budget" => {
                let bytes: usize = args
                    .get(i + 1)
                    .ok_or("--spill-budget needs a value")?
                    .parse()
                    .map_err(|e| format!("--spill-budget: {e}"))?;
                opts.spill_budget = Some(bytes);
                i += 2;
            }
            "--stream" => {
                opts.stream = true;
                i += 1;
            }
            "--witnesses" => {
                opts.witnesses = true;
                i += 1;
            }
            "--lenient" => {
                opts.lenient = true;
                i += 1;
            }
            "--no-slice" => {
                opts.no_slice = true;
                i += 1;
            }
            "--no-tiers" => {
                opts.no_tiers = true;
                i += 1;
            }
            "--inject-fault" => {
                let spec = args.get(i + 1).ok_or("--inject-fault needs W:C:KIND")?;
                opts.faults.push(driver::parse_fault_spec(spec)?);
                i += 2;
            }
            "--metrics" => {
                opts.metrics = Some(
                    args.get(i + 1)
                        .ok_or("--metrics needs an output path")?
                        .clone(),
                );
                i += 2;
            }
            "--trace-log" => {
                opts.trace_log = true;
                i += 1;
            }
            "--demo" => {
                opts.demo = true;
                i += 1;
            }
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            path => {
                opts.path = Some(path.to_string());
                i += 1;
            }
        }
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: rvpredict [--detector rv|said|cp|hb] [--kind race|deadlock|atomicity|all] \
         [--window N] [--budget SECS] \
         [--timeout-ms MS] [--jobs N] [--window-mode fixed|cone] \
         [--spill-budget BYTES] [--connect SOCK] [--stream] [--witnesses] \
         [--lenient] [--no-slice] [--no-tiers] \
         [--inject-fault W:C:KIND]... [--metrics OUT.json] \
         [--trace-log] (--demo | TRACE | -)\n\
         TRACE is JSON or NDJSON (auto-detected), with or without --stream"
    );
}

/// Opens the trace source for incremental reading; `-` is stdin.
fn open_reader(path: &str) -> Result<Box<dyn std::io::Read>, ExitCode> {
    if path == "-" {
        return Ok(Box::new(std::io::stdin()));
    }
    match std::fs::File::open(path) {
        Ok(f) => Ok(Box::new(std::io::BufReader::new(f))),
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            Err(ExitCode::from(EXIT_USAGE))
        }
    }
}

/// Strict-mode gate: reject a trace that violates the sequential-consistency
/// axioms, with the same diagnostics whether the trace was slurped or
/// streamed (in the streamed case any speculative solving is discarded).
fn reject_inconsistent(trace: &Trace) -> Result<(), ExitCode> {
    match driver::consistency_error(trace) {
        None => Ok(()),
        Some(diag) => {
            eprint!("{diag}");
            Err(ExitCode::from(EXIT_USAGE))
        }
    }
}

/// Lenient-mode repair: salvage the consistent part of a raw trace,
/// recording the `salvage.*` metrics family.
fn salvage(raw: TraceData, metrics: &mut Metrics, log: &PhaseLog) -> Trace {
    let (trace, report) = rvpredict::salvage_trace(raw);
    driver::record_salvage_metrics(&report, metrics);
    log.log(&format!("{report} in {:?}", report.elapsed));
    if !report.is_clean() {
        eprintln!("{report}");
    }
    record_trace_metrics(&trace, metrics);
    trace
}

/// Loads the trace per the options, recording ingestion metrics
/// (`trace.*`, `salvage.*`) as it goes. `Err` carries the exit code
/// (always [`EXIT_USAGE`]: bad file, bad JSON, or strict-mode
/// inconsistency).
///
/// Whole-file runs, `-` (stdin) and `--lenient --stream` read the trace
/// here, through the same parser as the streaming detector. The strict
/// `rv --stream` combination never reaches this function — [`main`]
/// routes it to [`RaceDetector::detect_stream`], which overlaps parsing
/// with solving (for every `--kind`) instead of loading the trace up
/// front.
fn load_trace(opts: &Options, metrics: &mut Metrics, log: &PhaseLog) -> Result<Trace, ExitCode> {
    if opts.demo {
        let trace = rvsim::workloads::figures::figure1().trace;
        record_trace_metrics(&trace, metrics);
        return Ok(trace);
    }
    let Some(path) = &opts.path else {
        usage();
        return Err(ExitCode::from(EXIT_USAGE));
    };
    // JSON or NDJSON, auto-detected, read in chunks: the parser holds
    // the decoded events, one buffered chunk and at most one partly read
    // value.
    let reader = open_reader(path)?;
    let (raw, ingest) = match rvpredict::read_trace_data(reader) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {path} is not a serialized trace: {e}");
            return Err(ExitCode::from(EXIT_USAGE));
        }
    };
    record_ingest_metrics(&ingest, metrics);
    log.log(&format!(
        "parsed {} events from {} bytes in {:?}",
        ingest.events, ingest.bytes, ingest.parse_time
    ));
    if opts.lenient {
        return Ok(salvage(raw, metrics, log));
    }
    if let Err(e) = rvpredict::validate_wait_links(&raw) {
        eprintln!("error: {path} is not a serialized trace: {e}");
        return Err(ExitCode::from(EXIT_USAGE));
    }
    let trace = Trace::from_data(raw);
    reject_inconsistent(&trace)?;
    record_trace_metrics(&trace, metrics);
    Ok(trace)
}

/// Folds one [`rvpredict::IngestStats`] into the registry.
fn record_ingest_metrics(ingest: &rvpredict::IngestStats, metrics: &mut Metrics) {
    driver::record_ingest_metrics(ingest, metrics);
}

/// Event totals and the per-kind breakdown of the (possibly salvaged)
/// trace detection will run on.
fn record_trace_metrics(trace: &Trace, metrics: &mut Metrics) {
    driver::record_trace_metrics(trace, metrics);
}

/// Writes the metrics document, mapping an IO failure to [`EXIT_USAGE`].
fn write_metrics(path: &str, metrics: &Metrics, log: &PhaseLog) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(path, metrics.to_json()) {
        eprintln!("error: cannot write metrics to {path}: {e}");
        return Err(ExitCode::from(EXIT_USAGE));
    }
    log.log(&format!("metrics written to {path}"));
    Ok(())
}

/// Builds the maximal detector's configuration from the CLI options —
/// via the daemon request type, so local and `--connect` runs share one
/// flag-to-config mapping (`--jobs` is the only local-only knob).
fn build_rv_config(opts: &Options) -> rvpredict::DetectorConfig {
    let mut cfg = opts.session_request().detector_config();
    if let Some(jobs) = opts.jobs {
        cfg.parallelism = jobs;
    }
    cfg
}

/// Prints the maximal detector's report (every section `--kind`
/// selects), folds it into the metrics registry, and maps the outcome to
/// an exit code. Shared by the whole-file and streaming drivers so their
/// stdout is byte-identical by construction.
fn report_rv(
    report: &DetectionReport,
    trace: &Trace,
    opts: &Options,
    metrics: &mut Metrics,
    log: &PhaseLog,
) -> ExitCode {
    log.log(&format!(
        "detection finished: {} race(s), {} deadlock cycle(s), {} atomicity violation(s), \
         {} failed window job(s), solver {:?} summed, wall {:?}",
        report.n_races(),
        report.deadlock.n_cycles(),
        report.atomicity.violations.len(),
        report.failed_windows.len(),
        report.stats.solver_time,
        report.stats.wall_time
    ));
    print!(
        "{}",
        driver::render_kind_report(report, trace, opts.witnesses)
    );
    metrics.merge(&report.to_metrics());
    if let Some(path) = &opts.metrics {
        if let Err(code) = write_metrics(path, metrics, log) {
            return code;
        }
    }
    if let Some(note) = driver::kind_run_notes(report) {
        eprint!("{note}");
    }
    ExitCode::from(driver::kind_run_exit(report))
}

/// The strict `rv --stream` driver: windows are dispatched to the worker
/// pool while the trace tail is still being read, so solving overlaps
/// ingestion and peak memory is bounded by the active windows. The
/// sequential-consistency gate still applies — it just runs after the
/// (speculative) solving instead of before it.
fn run_stream_rv(opts: &Options, metrics: &mut Metrics, log: &PhaseLog) -> ExitCode {
    let path = opts.path.as_deref().unwrap_or("-");
    let cfg = build_rv_config(opts);
    log.log(&format!(
        "streaming detection starting: detector=rv kind={} window={} jobs={}",
        driver::kind_name(cfg.kind),
        cfg.window_size,
        cfg.parallelism
    ));
    let reader = match open_reader(path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let detection = match RaceDetector::with_config(cfg).detect_stream(reader) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path} is not a serialized trace: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Err(code) = reject_inconsistent(&detection.trace) {
        return code;
    }
    record_ingest_metrics(&detection.ingest, metrics);
    log.log(&format!(
        "parsed {} events from {} bytes in {:?} (solving overlapped)",
        detection.ingest.events, detection.ingest.bytes, detection.ingest.parse_time
    ));
    record_trace_metrics(&detection.trace, metrics);
    print!("{}", driver::trace_line(&detection.trace));
    report_rv(&detection.report, &detection.trace, opts, metrics, log)
}

/// The `--connect` client: stream the trace bytes to an `rvserved`
/// daemon session and relay its response. The daemon renders stdout and
/// stderr through the same [`driver`] functions as the in-process paths,
/// so the relayed output is byte-identical to a local run; only trace
/// *parse* errors come back structured (the daemon has no idea what the
/// local file is called) and are composed here against `path`.
fn run_client(opts: &Options, log: &PhaseLog) -> ExitCode {
    let sock = opts.connect.as_deref().unwrap();
    if opts.detector != "rv" {
        eprintln!("error: --connect supports only the rv detector");
        return ExitCode::from(EXIT_USAGE);
    }
    if opts.demo {
        eprintln!("error: --connect cannot be combined with --demo");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(path) = opts.path.as_deref() else {
        usage();
        return ExitCode::from(EXIT_USAGE);
    };
    let mut reader = match open_reader(path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut stream = match UnixStream::connect(sock) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot connect to {sock}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    log.log(&format!("connected to daemon at {sock}"));
    let header = opts.session_request().to_json();
    if let Err(e) = write_frame(&mut stream, header.as_bytes()) {
        eprintln!("error: cannot send session request to {sock}: {e}");
        return ExitCode::from(EXIT_USAGE);
    }
    // Ship the trace in bounded chunks. A send error mid-stream usually
    // means the daemon already rejected the trace and closed its read
    // side — fall through and relay whatever response it produced.
    let mut buf = vec![0u8; 64 * 1024];
    let mut sent = 0u64;
    let send_failed = loop {
        let n = match reader.read(&mut buf) {
            Ok(0) => break false,
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        sent += n as u64;
        if write_frame(&mut stream, &buf[..n]).is_err() {
            break true;
        }
    };
    if !send_failed {
        // Zero-length frame: end of trace.
        let _ = write_frame(&mut stream, &[]);
    }
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    log.log(&format!("sent {sent} trace bytes, awaiting response"));
    let frame = match read_frame(&mut stream) {
        Ok(Some(f)) => f,
        Ok(None) | Err(_) => {
            eprintln!("error: daemon at {sock} closed the connection without a response");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let resp = match std::str::from_utf8(&frame)
        .map_err(|e| e.to_string())
        .and_then(rvpredict::driver::SessionResponse::from_json)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: daemon at {sock} sent a malformed response: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    print!("{}", resp.stdout);
    eprint!("{}", resp.stderr);
    if let Some(err) = &resp.error {
        eprintln!("error: {path} is not a serialized trace: {err}");
    }
    if let (Some(out), Some(doc)) = (&opts.metrics, &resp.metrics) {
        if let Err(e) = std::fs::write(out, doc) {
            eprintln!("error: cannot write metrics to {out}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
        log.log(&format!("metrics written to {out}"));
    }
    ExitCode::from(resp.exit)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::from(EXIT_USAGE);
        }
    };

    let log = PhaseLog::new(opts.trace_log);
    let mut metrics = Metrics::new();

    // The deadlock/atomicity analyses are defined over the rv machinery
    // only; the baselines have no notion of them.
    if opts.kind != Kind::Race && opts.detector != "rv" {
        eprintln!(
            "error: --kind {} requires the rv detector",
            driver::kind_name(opts.kind)
        );
        usage();
        return ExitCode::from(EXIT_USAGE);
    }

    // `--connect`: the detection runs in an rvserved daemon; this process
    // only streams the trace over and relays the byte-identical reply.
    if opts.connect.is_some() {
        return run_client(&opts, &log);
    }

    // Strict `rv --stream` overlaps parsing with solving: it goes through
    // the incremental parser feeding the window pool. (`--lenient
    // --stream` must see the whole trace before salvage can run, so it
    // streams the parse, salvages, then solves like a whole-file run.)
    if opts.stream && opts.detector == "rv" && !opts.lenient && !opts.demo {
        if opts.path.is_none() {
            usage();
            return ExitCode::from(EXIT_USAGE);
        }
        return run_stream_rv(&opts, &mut metrics, &log);
    }

    let trace = match load_trace(&opts, &mut metrics, &log) {
        Ok(t) => t,
        Err(code) => return code,
    };
    print!("{}", driver::trace_line(&trace));

    match opts.detector.as_str() {
        "rv" => {
            let cfg = build_rv_config(&opts);
            log.log(&format!(
                "detection starting: detector=rv kind={} window={} jobs={} events={}",
                driver::kind_name(opts.kind),
                cfg.window_size,
                cfg.parallelism,
                trace.len()
            ));
            let report = RaceDetector::with_config(cfg).detect(&trace);
            report_rv(&report, &trace, &opts, &mut metrics, &log)
        }
        name @ ("said" | "cp" | "hb") => {
            let tool: Box<dyn RaceDetectorTool> = match name {
                "said" => {
                    let mut d = SaidDetector::default();
                    d.config.window_size = opts.window;
                    d.config.solver_timeout = opts.budget;
                    Box::new(d)
                }
                "cp" => Box::new(CpDetector {
                    window_size: opts.window,
                    ..Default::default()
                }),
                _ => Box::new(HbDetector {
                    window_size: opts.window,
                    ..Default::default()
                }),
            };
            log.log(&format!(
                "detection starting: detector={} window={} events={}",
                name,
                opts.window,
                trace.len()
            ));
            let r = tool.detect_races(&trace);
            log.log(&format!(
                "detection finished: {} race(s) in {:?}",
                r.n_races(),
                r.time
            ));
            println!(
                "{}: {} race(s), {} pairs checked, {:?}",
                tool.name(),
                r.n_races(),
                r.pairs_checked,
                r.time
            );
            for sig in &r.signatures {
                println!("  {}", sig.display(&trace));
            }
            metrics.inc("detector.races", r.n_races() as u64);
            metrics.inc("detector.pairs_considered", r.pairs_checked as u64);
            metrics.record_time("detector.wall_time", r.time);
            if let Some(path) = &opts.metrics {
                if let Err(code) = write_metrics(path, &metrics, &log) {
                    return code;
                }
            }
            if r.n_races() > 0 {
                ExitCode::from(EXIT_RACES)
            } else {
                ExitCode::SUCCESS
            }
        }
        other => {
            eprintln!("error: unknown detector {other}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}
