//! The `rvserved` detection daemon: many concurrent trace streams, one
//! shared solver pool, per-session fault isolation.
//!
//! ```sh
//! rvserved --socket PATH [OPTIONS]
//!
//! OPTIONS:
//!   --socket PATH           unix socket to listen on (required; a stale
//!                           socket file at PATH is replaced)
//!   --jobs N                solver worker threads shared by all sessions
//!                           (default: all cores)
//!   --once N                accept exactly N connections, serve them to
//!                           completion, then exit 0 (for tests and CI;
//!                           without it the daemon serves until killed)
//!   --resident-windows N    per-session backpressure cap: at most N windows
//!                           submitted but not yet merged per stream
//!                           (default 32); past it, that stream's ingest
//!                           blocks — co-tenants are unaffected
//!   --shed-pending N        pool saturation threshold: once N windows are
//!                           queued pool-wide, newly submitted windows are
//!                           shed — every COP degrades to undecided
//!                           (timeout), exactly the `--timeout-ms` verdict
//!                           path (default: jobs * 64)
//!   --idle-ms MS            per-connection idle timeout: a session that
//!                           sends nothing for MS milliseconds is torn down
//!                           (default 30000; 0 disables)
//! ```
//!
//! Clients are `rvpredict --connect PATH TRACE.json` invocations; the wire
//! protocol is documented in [`rvpredict::driver`]. Each connection gets a
//! [`rvpredict::DetectionSession`]: its own parser, window cursor,
//! signature state and metrics, multiplexed onto the shared pool with
//! round-robin fairness. The failure domain is the session — a panicking
//! handler or a dead client tears down one session (logged as a
//! deterministic `SessionError` line on stderr) and nothing else.
//!
//! # Exit codes
//!
//! * `0` — `--once N` sessions were accepted and served (individual session
//!   failures are *not* process failures: they are isolated by design and
//!   reported per-session);
//! * `2` — usage error or the socket could not be bound.
//!
//! Without `--once` the daemon runs until killed; in-flight sessions die
//! with the process (clients see a closed connection, exit 2).

use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rvpredict::driver::{self, SessionRequest, SessionResponse, EXIT_USAGE};
use rvpredict::{read_frame, write_frame, SessionError, SessionManager};

struct ServeOptions {
    socket: String,
    jobs: Option<usize>,
    once: Option<u64>,
    resident_windows: usize,
    shed_pending: Option<usize>,
    idle_ms: u64,
}

fn parse_args() -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        socket: String::new(),
        jobs: None,
        once: None,
        resident_windows: 32,
        shed_pending: None,
        idle_ms: 30_000,
    };
    let mut args = std::env::args().skip(1);
    let args = &mut args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => opts.socket = driver::flag_value(args, "--socket", "a path")?,
            "--jobs" => {
                let jobs = driver::flag_value(args, "--jobs", "a value")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(jobs);
            }
            "--once" => opts.once = Some(driver::flag_value(args, "--once", "a connection count")?),
            "--resident-windows" => {
                let n = driver::flag_value(args, "--resident-windows", "a value")?;
                if n == 0 {
                    return Err("--resident-windows must be at least 1".into());
                }
                opts.resident_windows = n;
            }
            "--shed-pending" => {
                opts.shed_pending = Some(driver::flag_value(args, "--shed-pending", "a value")?)
            }
            "--idle-ms" => opts.idle_ms = driver::flag_value(args, "--idle-ms", "a value")?,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.socket.is_empty() {
        return Err("--socket is required".into());
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: rvserved --socket PATH [--jobs N] [--once N] [--resident-windows N] \
         [--shed-pending N] [--idle-ms MS]"
    );
}

/// Sends the one response frame; a send failure means the client is gone,
/// which the caller cannot do anything about.
fn respond(stream: &mut UnixStream, resp: &SessionResponse) {
    let _ = write_frame(stream, resp.to_json().as_bytes());
    let _ = stream.flush();
}

/// A response that is pure stderr + exit code (pre-session failures:
/// malformed request, idle before the header).
fn reject(stream: &mut UnixStream, message: &str) {
    respond(
        stream,
        &SessionResponse {
            exit: EXIT_USAGE,
            stderr: format!("error: {message}\n"),
            ..SessionResponse::default()
        },
    );
}

/// Is this read error the configured idle timeout firing?
fn is_idle(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One connection, one session: request frame, trace frames, empty frame,
/// response frame. `Err` is a torn-down session (disconnect, idle, read
/// failure) — the deterministic record the caller logs.
fn serve_session(
    mut stream: UnixStream,
    manager: &SessionManager,
    opts: &ServeOptions,
) -> Result<(), SessionError> {
    if opts.idle_ms > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(opts.idle_ms)));
    }
    let header = match read_frame(&mut stream) {
        Ok(Some(f)) => f,
        // Connected and went away without a word: not a session yet.
        Ok(None) => return Ok(()),
        Err(e) if is_idle(&e) => {
            reject(&mut stream, "session idle timeout before request");
            return Ok(());
        }
        Err(_) => return Ok(()),
    };
    let req = match std::str::from_utf8(&header)
        .map_err(|e| e.to_string())
        .and_then(|s| SessionRequest::from_json(s))
    {
        Ok(r) => r,
        Err(e) => {
            reject(&mut stream, &e);
            return Ok(());
        }
    };
    let mut session = manager.open_session(req.session_config(opts.resident_windows));
    loop {
        match read_frame(&mut stream) {
            // The zero-length frame ends the trace.
            Ok(Some(f)) if f.is_empty() => break,
            Ok(Some(f)) => {
                if let Err(e) = session.feed(&f) {
                    // Fatal to the session, exactly like the CLI parsers.
                    respond(&mut stream, &driver::compose_response(&req, &Err(e)));
                    return Ok(());
                }
            }
            Ok(None) => return Err(session.abort("client disconnected mid-stream")),
            Err(e) if is_idle(&e) => {
                reject(&mut stream, "session idle timeout");
                return Err(session.abort("idle timeout"));
            }
            Err(e) => return Err(session.abort(format!("read error: {e}"))),
        }
    }
    respond(
        &mut stream,
        &driver::compose_response(&req, &session.finish()),
    );
    Ok(())
}

/// The per-connection thread body: panic-isolated, teardown-logged. A
/// session failing — even by panicking — never takes the daemon or a
/// neighbor session with it.
fn handle_connection(stream: UnixStream, manager: &SessionManager, opts: &ServeOptions) {
    let run = std::panic::AssertUnwindSafe(|| serve_session(stream, manager, opts));
    match std::panic::catch_unwind(run) {
        Ok(Ok(())) => {}
        Ok(Err(teardown)) => eprintln!("rvserved: {teardown}"),
        Err(_) => eprintln!("rvserved: session handler panicked; daemon unaffected"),
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
    let jobs = opts.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    // Replace a stale socket file from a previous run; refuse nothing else.
    if std::fs::metadata(&opts.socket).is_ok() {
        if let Err(e) = std::fs::remove_file(&opts.socket) {
            eprintln!("error: cannot replace stale socket {}: {e}", opts.socket);
            return ExitCode::from(EXIT_USAGE);
        }
    }
    let listener = match UnixListener::bind(&opts.socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.socket);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let manager = Arc::new(match opts.shed_pending {
        Some(threshold) => SessionManager::with_shed_threshold(jobs, threshold),
        None => SessionManager::new(jobs),
    });
    let opts = Arc::new(opts);
    eprintln!(
        "rvserved: listening on {} ({} solver workers)",
        opts.socket,
        manager.worker_count()
    );
    let mut handles = Vec::new();
    let mut accepted = 0u64;
    while opts.once.map_or(true, |n| accepted < n) {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) => {
                eprintln!("rvserved: accept failed: {e}");
                continue;
            }
        };
        accepted += 1;
        let manager = manager.clone();
        let opts = opts.clone();
        handles.push(std::thread::spawn(move || {
            handle_connection(stream, &manager, &opts);
        }));
        // Don't let the handle list grow without bound on a long-running
        // daemon: reap the finished ones.
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
    0u8.into()
}
