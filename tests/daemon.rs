//! Socket-level tests for the `rvserved` daemon and the `rvpredict
//! --connect` client: the multi-tenant determinism gate (each session's
//! relayed output byte-identical to the standalone CLI, under concurrent
//! co-tenants including fault-injected ones), budget degradation through
//! the `--timeout-ms` path, teardown isolation (killed and idle clients),
//! and the daemon's exit-code contract.
//!
//! Comparisons use the same wall-clock stripping as the rest of the
//! equivalence suites: the `window times:` line and the `, solver …`
//! summary suffix are run-dependent; everything else must match byte for
//! byte.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use rvpredict::{write_frame, ThreadId, Trace, TraceBuilder};

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_rvpredict")
}

fn served() -> &'static str {
    env!("CARGO_BIN_EXE_rvserved")
}

fn dir() -> PathBuf {
    let dir = std::env::temp_dir().join("rvpredict-daemon");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A five-window trace (window size 300): one racy COP in window 0, then
/// race-free two-thread filler.
fn multi_window_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t2 = b.fork(ThreadId::MAIN);
    b.write(ThreadId::MAIN, x, 1);
    b.write(t2, x, 2);
    let a = b.var("a");
    let c = b.var("c");
    for i in 0..700i64 {
        b.write(ThreadId::MAIN, a, i);
        b.write(t2, c, i);
    }
    b.finish()
}

/// Writes the shared NDJSON trace once and returns its path.
fn trace_path(name: &str) -> String {
    let path = dir().join(name);
    if !path.exists() {
        std::fs::write(&path, rvpredict::to_ndjson(&multi_window_trace())).unwrap();
    }
    path.to_str().unwrap().to_string()
}

/// Launches the daemon on a test-unique socket and waits until it accepts
/// connections. Returns the child and the socket path.
fn spawn_daemon(tag: &str, extra: &[&str]) -> (Child, String) {
    let sock = dir().join(format!("{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let sock = sock.to_str().unwrap().to_string();
    let child = Command::new(served())
        .args(["--socket", &sock])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if UnixStream::connect(&sock).is_ok() {
            // Probe connections count against --once; tests budget for it.
            break;
        }
        assert!(Instant::now() < deadline, "daemon never bound {sock}");
        std::thread::sleep(Duration::from_millis(10));
    }
    (child, sock)
}

/// Drops the run-dependent parts of stdout.
fn stripped_stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.trim_start().starts_with("window times:"))
        .map(|l| match l.find(", solver ") {
            Some(i) => l[..i].to_string(),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn run(args: &[&str]) -> Output {
    Command::new(cli()).args(args).output().expect("cli runs")
}

/// The daemon's stderr after exit, with its own log lines (`rvserved:`)
/// split out.
fn finish_daemon(child: Child) -> (i32, String) {
    let out = child.wait_with_output().unwrap();
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The headline gate: three concurrent clients — plain, `--no-tiers`, and
/// a fault-injected co-tenant — each relay output byte-identical (modulo
/// wall clock) to their standalone `--stream` runs, and the daemon exits
/// 0 after `--once 3`.
#[test]
fn concurrent_clients_match_standalone_cli() {
    let path = trace_path("daemon-equiv.ndjson");
    let (daemon, sock) = spawn_daemon("equiv", &["--once", "4", "--jobs", "3"]);
    // The probe connection used up one accept; account for it with an
    // extra --once slot above.
    let variants: Vec<Vec<&str>> = vec![
        vec![],
        vec!["--no-tiers"],
        vec!["--inject-fault", "0:0:panic"],
    ];
    let handles: Vec<_> = variants
        .into_iter()
        .map(|extra| {
            let path = path.clone();
            let sock = sock.clone();
            std::thread::spawn(move || {
                let mut solo_args = vec!["--window", "300", "--stream"];
                solo_args.extend(&extra);
                solo_args.push(&path);
                let solo = run(&solo_args);
                let mut conn_args = vec!["--window", "300", "--connect", &sock];
                conn_args.extend(&extra);
                conn_args.push(&path);
                let conn = run(&conn_args);
                (extra, solo, conn)
            })
        })
        .collect();
    for h in handles {
        let (extra, solo, conn) = h.join().unwrap();
        assert_eq!(
            conn.status.code(),
            solo.status.code(),
            "exit code drifted for {extra:?}"
        );
        assert_eq!(
            stripped_stdout(&conn),
            stripped_stdout(&solo),
            "stdout drifted for {extra:?}"
        );
        // The degradation note must relay too (panic noise stays in the
        // process that panicked, so only the `note:` lines are compared).
        let note = |out: &Output| -> Vec<String> {
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .filter(|l| l.starts_with("note: no races"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            note(&conn),
            note(&solo),
            "stderr note drifted for {extra:?}"
        );
    }
    let (code, _log) = finish_daemon(daemon);
    assert_eq!(code, 0, "--once daemon exits 0");
}

/// `--timeout-ms 0` is deterministic (the deadline is always expired), so
/// the daemon run must match the standalone run byte for byte: every COP
/// (or deadlock candidate) undecided, exit 3.
#[test]
fn timeout_budget_degrades_identically_through_daemon() {
    let path = trace_path("daemon-timeout.ndjson");
    let (daemon, sock) = spawn_daemon("timeout", &["--once", "3"]);
    let solo = run(&["--window", "300", "--stream", "--timeout-ms", "0", &path]);
    let conn = run(&[
        "--window",
        "300",
        "--connect",
        &sock,
        "--timeout-ms",
        "0",
        &path,
    ]);
    assert_eq!(solo.status.code(), Some(3), "budget exhausts: degraded");
    assert_eq!(conn.status.code(), Some(3));
    assert_eq!(stripped_stdout(&conn), stripped_stdout(&solo));
    assert!(
        String::from_utf8_lossy(&conn.stderr).contains("race freedom is not established"),
        "degradation note relays"
    );
    // Deadlock sessions honor the same budget: every candidate unknown.
    let w = rvsim::workloads::synthetic::deadlock_workload("deadlock_micro", 1);
    let deadlock = dir().join(format!(
        "daemon-timeout-deadlock-{}.ndjson",
        std::process::id()
    ));
    std::fs::write(&deadlock, rvpredict::to_ndjson(&w.trace)).unwrap();
    let deadlock = deadlock.to_str().unwrap();
    let args = ["--kind", "deadlock", "--timeout-ms", "0"];
    let solo = run(&[&args[..], &["--stream", deadlock]].concat());
    let conn = run(&[&args[..], &["--connect", &sock, deadlock]].concat());
    assert_eq!(solo.status.code(), Some(3), "every candidate unknown");
    assert_eq!(conn.status.code(), Some(3));
    assert_eq!(stripped_stdout(&conn), stripped_stdout(&solo));
    assert!(
        stripped_stdout(&conn)
            .contains("deadlock: 0 cycle(s); candidates=1, sat=0, unsat=0, unknown=1"),
        "{}",
        stripped_stdout(&conn)
    );
    let (code, _) = finish_daemon(daemon);
    assert_eq!(code, 0);
}

/// A client killed mid-stream (frames stop, connection drops) tears down
/// its session — logged as a deterministic record — while a concurrent
/// neighbor still matches the standalone CLI, and the daemon exits 0.
#[test]
fn killed_client_leaves_neighbor_untouched() {
    let path = trace_path("daemon-kill.ndjson");
    let (daemon, sock) = spawn_daemon("kill", &["--once", "3"]);
    // The victim: request header, half the trace, then a dropped socket.
    let victim = {
        let sock = sock.clone();
        let bytes = std::fs::read(&path).unwrap();
        std::thread::spawn(move || {
            let mut s = UnixStream::connect(&sock).unwrap();
            write_frame(&mut s, br#"{"window": 300}"#).unwrap();
            write_frame(&mut s, &bytes[..bytes.len() / 2]).unwrap();
            s.flush().unwrap();
            // Give the daemon time to ingest before the disconnect.
            std::thread::sleep(Duration::from_millis(100));
        })
    };
    let solo = run(&["--window", "300", "--stream", &path]);
    let conn = run(&["--window", "300", "--connect", &sock, &path]);
    victim.join().unwrap();
    assert_eq!(conn.status.code(), solo.status.code());
    assert_eq!(stripped_stdout(&conn), stripped_stdout(&solo));
    let (code, log) = finish_daemon(daemon);
    assert_eq!(code, 0, "a dead client is not a daemon failure");
    assert!(
        log.contains("torn down: client disconnected mid-stream"),
        "teardown record logged: {log}"
    );
}

/// A session that goes idle mid-stream is torn down after `--idle-ms`:
/// the client gets an error response (exit 2), the teardown is logged,
/// and the daemon survives to exit 0.
#[test]
fn idle_session_is_torn_down() {
    let (daemon, sock) = spawn_daemon("idle", &["--once", "2", "--idle-ms", "150"]);
    let mut s = UnixStream::connect(&sock).unwrap();
    write_frame(&mut s, br#"{"window": 300}"#).unwrap();
    s.flush().unwrap();
    // Send nothing further; the daemon must cut us off.
    let resp = rvpredict::read_frame(&mut s)
        .expect("daemon responds before dropping an idle session")
        .expect("a response frame, not EOF");
    let resp =
        rvpredict::driver::SessionResponse::from_json(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(resp.exit, 2);
    assert!(resp.stderr.contains("idle timeout"), "{resp:?}");
    drop(s);
    let (code, log) = finish_daemon(daemon);
    assert_eq!(code, 0);
    assert!(log.contains("torn down: idle timeout"), "{log}");
}

/// A trace parse error comes back composed against the *client's* file
/// name: stderr is byte-identical to the standalone CLI's, exit 2.
#[test]
fn parse_errors_relay_with_local_path() {
    let bad = dir().join("daemon-bad.ndjson");
    std::fs::write(&bad, "{\"events\": [nope").unwrap();
    let bad = bad.to_str().unwrap();
    let (daemon, sock) = spawn_daemon("badtrace", &["--once", "2"]);
    let solo = run(&["--stream", bad]);
    let conn = run(&["--connect", &sock, bad]);
    assert_eq!(solo.status.code(), Some(2));
    assert_eq!(conn.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&conn.stderr),
        String::from_utf8_lossy(&solo.stderr),
        "parse diagnostics must match byte for byte"
    );
    let (code, _) = finish_daemon(daemon);
    assert_eq!(code, 0);
}

/// `--connect` usage errors: non-rv detectors and `--demo` are rejected
/// client-side, and a dead socket is a connection error — all exit 2.
#[test]
fn connect_usage_errors() {
    let path = trace_path("daemon-usage.ndjson");
    let out = run(&["--detector", "hb", "--connect", "/nonexistent.sock", &path]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("only the rv detector"));
    let out = run(&["--connect", "/nonexistent.sock", "--demo"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--connect", "/nonexistent.sock", &path]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot connect"));
}

/// The daemon itself: `--socket` is required (exit 2), an unbindable path
/// is exit 2, and a stale socket file is replaced on startup.
#[test]
fn daemon_exit_code_contract() {
    let out = Command::new(served()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "--socket is required");
    let out = Command::new(served())
        .args(["--socket", "/nonexistent-dir/rv.sock"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unbindable socket");
    // Stale socket replacement: bind, kill, rebind on the same path.
    let (daemon, sock) = spawn_daemon("stale", &["--once", "1"]);
    drop(finish_daemon(daemon));
    assert!(
        std::fs::metadata(&sock).is_ok(),
        "socket file survives the first daemon"
    );
    let (daemon2, _) = spawn_daemon("stale", &["--once", "1"]);
    drop(finish_daemon(daemon2));
}

/// The count-type slice of a metrics document: everything before the
/// `timings_us` section (wall clocks and gauges are run-shape).
fn count_type_prefix(doc: &str) -> &str {
    let cut = doc
        .find("  \"timings_us\": {")
        .unwrap_or_else(|| panic!("no timings_us section in {doc}"));
    &doc[..cut]
}

/// The per-tenant metrics export gate: a `--connect --metrics` client
/// receives its session's registry in the response and writes it locally,
/// with the count-type sections byte-identical to a standalone
/// `--stream --metrics` run of the same trace. Both runs are sessions, so
/// both documents carry the `session.*` gauges.
#[test]
fn connect_metrics_match_standalone_cli() {
    let trace = trace_path("metrics.ndjson");
    let (daemon, sock) = spawn_daemon("metrics", &["--once", "2"]);
    let solo_path = dir().join(format!("solo-metrics-{}.json", std::process::id()));
    let conn_path = dir().join(format!("conn-metrics-{}.json", std::process::id()));
    let solo_path = solo_path.to_str().unwrap();
    let conn_path = conn_path.to_str().unwrap();

    let solo = run(&["--stream", "--metrics", solo_path, &trace]);
    let conn = run(&["--connect", &sock, "--metrics", conn_path, &trace]);
    assert_eq!(conn.status.code(), solo.status.code());
    assert_eq!(stripped_stdout(&conn), stripped_stdout(&solo));

    let solo_doc = std::fs::read_to_string(solo_path).unwrap();
    let conn_doc = std::fs::read_to_string(conn_path).unwrap();
    assert_eq!(
        count_type_prefix(&conn_doc),
        count_type_prefix(&solo_doc),
        "relayed count-type metrics must match the solo CLI"
    );
    assert!(
        conn_doc.contains("\"session.opened\": 1"),
        "daemon session gauges ride along in the gauge section: {conn_doc}"
    );
    assert!(
        solo_doc.contains("\"session.opened\": 1"),
        "a solo run is a one-tenant session: {solo_doc}"
    );

    let (code, stderr) = finish_daemon(daemon);
    assert_eq!(code, 0, "daemon exits clean: {stderr}");
}
