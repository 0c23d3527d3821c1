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
//!   proven for the whole trace;
//! * `141` — standard output was closed before the report was written
//!   (for example `rvpredict T | head`): the run ends quietly, with
//!   nothing on stderr and no metrics written (128 + SIGPIPE, as a shell
//!   reports a writer the closed pipe killed).
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

use rvpredict::driver::{
    self, SessionRequest, SessionResponse, EXIT_CLOSED_STDOUT, EXIT_RACES, EXIT_USAGE,
};
use rvpredict::{
    read_frame, write_frame, CpDetector, HbDetector, JsonError, Kind, Metrics, RaceDetectorTool,
    SaidDetector, SessionManager, Trace,
};

struct Options {
    /// The detector settings as the daemon protocol's request header —
    /// also the single source of the local `rv` configuration, so a
    /// `--connect` run and an in-process run are configured identically.
    req: SessionRequest,
    detector: String,
    jobs: Option<usize>,
    connect: Option<String>,
    stream: bool,
    metrics: Option<String>,
    trace_log: bool,
    demo: bool,
    path: Option<String>,
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
        req: SessionRequest::default(),
        detector: "rv".into(),
        jobs: None,
        connect: None,
        stream: false,
        metrics: None,
        trace_log: false,
        demo: false,
        path: None,
    };
    let req = &mut opts.req;
    let mut args = std::env::args().skip(1);
    let args = &mut args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--detector" => opts.detector = driver::flag_value(args, "--detector", "a value")?,
            "--kind" => {
                let name: String = driver::flag_value(args, "--kind", "a value")?;
                req.kind = driver::parse_kind(&name)?;
            }
            "--window" => {
                req.window = driver::flag_value(args, "--window", "a value")?;
                if req.window == 0 {
                    return Err("--window must be at least 1".into());
                }
            }
            "--budget" => req.budget_secs = driver::flag_value(args, "--budget", "a value")?,
            "--timeout-ms" => {
                req.timeout_ms = Some(driver::flag_value(args, "--timeout-ms", "a value")?)
            }
            "--connect" => {
                opts.connect = Some(driver::flag_value(args, "--connect", "a socket path")?)
            }
            "--jobs" => {
                let jobs = driver::flag_value(args, "--jobs", "a value")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(jobs);
            }
            "--window-mode" => {
                let name: String = driver::flag_value(args, "--window-mode", "a value")?;
                req.window_mode = driver::parse_window_mode(&name)?;
            }
            "--spill-budget" => {
                req.spill_budget = driver::flag_value(args, "--spill-budget", "a value")?
            }
            "--stream" => opts.stream = true,
            "--witnesses" => req.witnesses = true,
            "--lenient" => req.lenient = true,
            "--no-slice" => req.no_slice = true,
            "--no-tiers" => req.no_tiers = true,
            "--inject-fault" => {
                let spec: String = driver::flag_value(args, "--inject-fault", "W:C:KIND")?;
                req.faults.push(driver::parse_fault_spec(&spec)?);
            }
            "--metrics" => {
                opts.metrics = Some(driver::flag_value(args, "--metrics", "an output path")?);
                req.want_metrics = true;
            }
            "--trace-log" => opts.trace_log = true,
            "--demo" => opts.demo = true,
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            path => opts.path = Some(path.to_string()),
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

/// Loads the trace a baseline detector (`said`, `cp`, `hb`) runs on,
/// recording the `trace.*` and `salvage.*` metrics. `Err` carries the exit
/// code (always [`EXIT_USAGE`]: bad file, bad JSON, or strict-mode
/// inconsistency). `rv` runs never come here: they are sessions.
fn load_trace(opts: &Options, metrics: &mut Metrics, log: &PhaseLog) -> Result<Trace, ExitCode> {
    if opts.demo {
        let trace = rvsim::workloads::figures::figure1().trace;
        driver::record_trace_metrics(&trace, metrics);
        return Ok(trace);
    }
    let Some(path) = &opts.path else {
        usage();
        return Err(ExitCode::from(EXIT_USAGE));
    };
    let (raw, ingest) = match rvpredict::read_trace_data(open_reader(path)?) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {path} is not a serialized trace: {e}");
            return Err(ExitCode::from(EXIT_USAGE));
        }
    };
    driver::record_ingest_metrics(&ingest, metrics);
    log.log(&format!(
        "parsed {} events from {} bytes in {:?}",
        ingest.events, ingest.bytes, ingest.parse_time
    ));
    let (trace, salvage) = match rvpredict::admit_trace(raw, opts.req.lenient) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {path} is not a serialized trace: {e}");
            return Err(ExitCode::from(EXIT_USAGE));
        }
    };
    if let Some(report) = salvage {
        driver::record_salvage_metrics(&report, metrics);
        if !report.is_clean() {
            eprintln!("{report}");
        }
    } else if let Some(diag) = driver::consistency_error(&trace) {
        eprint!("{diag}");
        return Err(ExitCode::from(EXIT_USAGE));
    }
    driver::record_trace_metrics(&trace, metrics);
    Ok(trace)
}

/// Writes the metrics document, mapping an IO failure to [`EXIT_USAGE`].
fn write_metrics(path: &str, doc: &str, log: &PhaseLog) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("error: cannot write metrics to {path}: {e}");
        return Err(ExitCode::from(EXIT_USAGE));
    }
    log.log(&format!("metrics written to {path}"));
    Ok(())
}

/// Writes `text` to standard output. A closed pipe ends the run quietly
/// with [`EXIT_CLOSED_STDOUT`]; any other write failure is reported and
/// ends it with [`EXIT_USAGE`].
fn emit(text: &str) -> Result<(), ExitCode> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            Err(ExitCode::from(EXIT_CLOSED_STDOUT))
        }
        Err(e) => {
            eprintln!("error: cannot write to standard output: {e}");
            Err(ExitCode::from(EXIT_USAGE))
        }
    }
}

/// Prints an `rv` run's response, composed in-process or relayed from a
/// daemon: stdout, stderr, a trace error against the local `path` (the
/// daemon has no idea what the local file is called), the metrics file,
/// and the exit code.
fn relay(opts: &Options, path: &str, resp: &SessionResponse, log: &PhaseLog) -> ExitCode {
    if let Err(code) = emit(&resp.stdout) {
        return code;
    }
    eprint!("{}", resp.stderr);
    if let Some(err) = &resp.error {
        eprintln!("error: {path} is not a serialized trace: {err}");
    }
    if let (Some(out), Some(doc)) = (&opts.metrics, &resp.metrics) {
        if let Err(code) = write_metrics(out, doc, log) {
            return code;
        }
    }
    ExitCode::from(resp.exit)
}

/// A local `rv` run: one session on an in-process pool of `--jobs`
/// workers, handed the demo trace or the parsed file whole, or — under
/// `--stream` — fed the file's bytes in 64 KiB chunks, as `rvserved`
/// feeds a connection. Its outcome is composed into the response a daemon
/// would send.
fn run_local(opts: &Options, path: &str, log: &PhaseLog) -> Result<SessionResponse, ExitCode> {
    let req = &opts.req;
    let jobs = opts
        .jobs
        .unwrap_or_else(|| req.detector_config().parallelism);
    let manager = SessionManager::new(jobs);
    let config = req.session_config(manager.in_process_residency());
    log.log(&format!(
        "detection starting: detector=rv kind={} window={} jobs={jobs}",
        driver::kind_name(req.kind),
        req.window
    ));
    let finished = if opts.demo {
        let trace = rvsim::workloads::figures::figure1().trace;
        manager
            .open_session(config)
            .finish_parsed(trace.into(), None)
    } else if opts.stream {
        let mut reader = open_reader(path)?;
        // The clock starts before the first chunk: time to first race
        // counts ingest, which solving overlaps.
        let mut session = manager.open_session(config);
        let mut chunk = vec![0u8; 64 * 1024];
        let mut fed = 0;
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => break session.finish(),
                Ok(n) => {
                    fed += n;
                    if let Err(e) = session.feed(&chunk[..n]) {
                        break Err(e);
                    }
                }
                Err(e) => {
                    break Err(JsonError {
                        message: format!("read error: {e}"),
                        offset: fed,
                        snippet: String::new(),
                    })
                }
            }
        }
    } else {
        // Parse first, then open the session: its clock starts once the
        // trace is in memory.
        rvpredict::read_trace_data(open_reader(path)?).and_then(|(data, ingest)| {
            manager
                .open_session(config)
                .finish_parsed(data, Some(ingest))
        })
    };
    if let Ok(outcome) = &finished {
        let report = &outcome.report;
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
    }
    Ok(driver::compose_response(req, &finished))
}

/// The `--connect` client: stream the trace bytes to an `rvserved`
/// daemon session and relay its response. The daemon composes the
/// response with the same [`driver::compose_response`] as a local run,
/// and [`relay`] prints both, so the output is byte-identical.
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
    let header = opts.req.to_json();
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
    match std::str::from_utf8(&frame)
        .map_err(|e| e.to_string())
        .and_then(SessionResponse::from_json)
    {
        Ok(r) => relay(opts, path, &r, log),
        Err(e) => {
            eprintln!("error: daemon at {sock} sent a malformed response: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
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

    // The deadlock/atomicity analyses are defined over the rv machinery
    // only; the baselines have no notion of them.
    if opts.req.kind != Kind::Race && opts.detector != "rv" {
        eprintln!(
            "error: --kind {} requires the rv detector",
            driver::kind_name(opts.req.kind)
        );
        usage();
        return ExitCode::from(EXIT_USAGE);
    }

    // `--connect`: the detection runs in an rvserved daemon; this process
    // only streams the trace over and relays the byte-identical reply.
    if opts.connect.is_some() {
        return run_client(&opts, &log);
    }

    if opts.detector == "rv" {
        let path = match (&opts.path, opts.demo) {
            (Some(path), _) => path.as_str(),
            (None, true) => "",
            (None, false) => {
                usage();
                return ExitCode::from(EXIT_USAGE);
            }
        };
        return match run_local(&opts, path, &log) {
            Ok(resp) => relay(&opts, path, &resp, &log),
            Err(code) => code,
        };
    }

    let mut metrics = Metrics::new();
    let trace = match load_trace(&opts, &mut metrics, &log) {
        Ok(t) => t,
        Err(code) => return code,
    };
    if let Err(code) = emit(&driver::trace_line(&trace)) {
        return code;
    }

    match opts.detector.as_str() {
        name @ ("said" | "cp" | "hb") => {
            let window_size = opts.req.window;
            let tool: Box<dyn RaceDetectorTool> = match name {
                "said" => {
                    let mut d = SaidDetector::default();
                    d.config.window_size = window_size;
                    d.config.solver_timeout = Duration::from_secs(opts.req.budget_secs);
                    Box::new(d)
                }
                "cp" => Box::new(CpDetector {
                    window_size,
                    ..Default::default()
                }),
                _ => Box::new(HbDetector {
                    window_size,
                    ..Default::default()
                }),
            };
            log.log(&format!(
                "detection starting: detector={} window={} events={}",
                name,
                window_size,
                trace.len()
            ));
            let r = tool.detect_races(&trace);
            log.log(&format!(
                "detection finished: {} race(s) in {:?}",
                r.n_races(),
                r.time
            ));
            let mut text = format!(
                "{}: {} race(s), {} pairs checked, {:?}\n",
                tool.name(),
                r.n_races(),
                r.pairs_checked,
                r.time
            );
            for sig in &r.signatures {
                text += &format!("  {}\n", sig.display(&trace));
            }
            if let Err(code) = emit(&text) {
                return code;
            }
            metrics.inc("detector.races", r.n_races() as u64);
            metrics.inc("detector.pairs_considered", r.pairs_checked as u64);
            metrics.record_time("detector.wall_time", r.time);
            if let Some(path) = &opts.metrics {
                if let Err(code) = write_metrics(path, &metrics.to_json(), &log) {
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
