//! Differential equivalence suite for streaming ingestion (the PR-4
//! determinism contract): streamed and whole-file detection must decide
//! identically — same races, same verdict counters, same report text —
//! at every `--jobs` level, for both wire formats, through the CLI and
//! the library drivers, including salvaged and fault-injected runs.
//!
//! Wall-clock output (the `solver …, wall …` suffix and the
//! `window times:` line) is run-dependent by nature; everything else on
//! stdout is compared byte for byte, and the `--metrics` documents are
//! compared byte for byte up to their `timings_us` section (exactly the
//! counter + histogram sections the contract covers).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::{Arc, Barrier};

use rvpredict::{
    DetectorConfig, Fault, FaultPlan, RaceDetector, SessionConfig, SessionManager, ThreadId, Trace,
    TraceBuilder,
};

/// The `--stream` driver: a one-tenant session on a pool of
/// `config.parallelism` workers, fed `input` in 64 KiB chunks.
fn detect_streamed(config: &DetectorConfig, input: &[u8]) -> rvpredict::SessionOutcome {
    let manager = SessionManager::new(config.parallelism);
    let mut session = manager.open_session(SessionConfig {
        detector: config.clone(),
        lenient: false,
        max_resident_windows: manager.in_process_residency(),
    });
    for chunk in input.chunks(64 * 1024) {
        session.feed(chunk).expect("the trace streams");
    }
    session.finish().expect("the trace streams")
}

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rvpredict")
}

fn dir() -> PathBuf {
    let dir = std::env::temp_dir().join("rvpredict-stream-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A five-window trace (window size 300): one racy COP in window 0, then
/// race-free two-thread filler so every window has work to merge.
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

/// One race signature recurring in every window: ~500 events alternating
/// a t1 write and a t2 read of `x`, always at the same two locations, so
/// every 50-event window after the first holds only COPs whose signature
/// an earlier window confirmed.
fn recurring_signature_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    let lw = b.loc("hot-write");
    let lr = b.loc("hot-read");
    for i in 0..248 {
        b.write_at(t1, x, i, lw);
        b.read_at(t2, x, i, lr);
    }
    b.finish()
}

/// Like [`multi_window_trace`], but the only racing pair sits *astride*
/// the 300-event window boundaries: t1's write to `x` lands in window 0
/// and t2's conflicting read lands in the last window, with only
/// thread-private filler in between. Fixed windows cannot see the pair;
/// cone mode must.
fn straddling_multi_window_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t2 = b.fork(ThreadId::MAIN);
    b.write(ThreadId::MAIN, x, 1);
    let a = b.var("a");
    let c = b.var("c");
    for i in 0..700i64 {
        b.write(ThreadId::MAIN, a, i);
        b.write(t2, c, i);
    }
    b.read(t2, x, 1);
    b.finish()
}

/// Same trace with one torn read in window 2 (a value no write produced),
/// so strict mode rejects it and `--lenient` must salvage.
fn damaged_multi_window_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t2 = b.fork(ThreadId::MAIN);
    b.write(ThreadId::MAIN, x, 1);
    b.write(t2, x, 2);
    let a = b.var("a");
    let c = b.var("c");
    for i in 0..350i64 {
        b.write(ThreadId::MAIN, a, i);
        b.write(t2, c, i);
    }
    b.read(ThreadId::MAIN, a, 999_999);
    for i in 350..700i64 {
        b.write(ThreadId::MAIN, a, i);
        b.write(t2, c, i);
    }
    b.finish()
}

/// Drops the run-dependent parts of stdout: the `window times:` line and
/// the `, solver …` wall-clock suffix of the summary line. Everything
/// kept must be byte-identical across drivers and worker counts.
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

/// Runs the binary with `--metrics`, returning (exit code, stripped
/// stdout, count-type metrics prefix — the document up to `timings_us`).
fn run_with_metrics(args: &[&str], trace_path: &str, out_name: &str) -> (i32, String, String) {
    let metrics_path = dir().join(out_name);
    let out = Command::new(bin())
        .args(args)
        .args(["--metrics", metrics_path.to_str().unwrap()])
        .arg(trace_path)
        .output()
        .expect("binary runs");
    let doc = std::fs::read_to_string(&metrics_path).unwrap_or_else(|e| {
        panic!(
            "metrics file missing ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let cut = doc
        .find("  \"timings_us\": {")
        .unwrap_or_else(|| panic!("no timings_us section in {doc}"));
    (
        out.status.code().expect("no signal"),
        stripped_stdout(&out),
        doc[..cut].to_string(),
    )
}

const JOBS: [&str; 4] = ["1", "2", "4", "8"];

/// The driver contract, end to end: whole-file and `--stream` runs over
/// the same JSON file produce identical report text and identical
/// count-type metrics at `--jobs` 1, 2, 4 and 8. Two shapes: later windows
/// without COPs, and later windows whose every COP repeats a signature an
/// earlier window confirmed.
#[test]
fn streamed_cli_is_byte_identical_across_jobs() {
    let cases = [
        ("equiv", multi_window_trace(), "300"),
        ("recur", recurring_signature_trace(), "50"),
    ];
    for (name, trace, window) in cases {
        let path = dir().join(format!("{name}.json"));
        std::fs::write(&path, rvpredict::to_json(&trace)).unwrap();
        let path = path.to_str().unwrap();

        let (base_code, base_out, base_counts) = run_with_metrics(
            &["--window", window, "--jobs", "1"],
            path,
            &format!("m-{name}-base.json"),
        );
        assert_eq!(base_code, 1, "{name}: the head COP races");
        for jobs in JOBS {
            for stream in [false, true] {
                let mut args = vec!["--window", window, "--jobs", jobs];
                if stream {
                    args.push("--stream");
                }
                let metrics = format!("m-{name}-{jobs}-{stream}.json");
                let (code, out, counts) = run_with_metrics(&args, path, &metrics);
                assert_eq!(code, base_code, "{name}: jobs={jobs} stream={stream}");
                assert_eq!(
                    out, base_out,
                    "{name}: stdout drifted at jobs={jobs} stream={stream}"
                );
                assert_eq!(
                    counts, base_counts,
                    "{name}: count-type metrics drifted at jobs={jobs} stream={stream}"
                );
            }
        }
    }
}

/// NDJSON input through `--stream` decides identically; the only
/// count-type metric allowed to differ from the JSON run is the wire-size
/// counter `trace.ingest.bytes`.
#[test]
fn streamed_ndjson_matches_json_modulo_wire_size() {
    let trace = multi_window_trace();
    let json_path = dir().join("equiv-nd.json");
    let nd_path = dir().join("equiv-nd.ndjson");
    std::fs::write(&json_path, rvpredict::to_json(&trace)).unwrap();
    std::fs::write(&nd_path, rvpredict::to_ndjson(&trace)).unwrap();

    let (base_code, base_out, base_counts) = run_with_metrics(
        &["--window", "300", "--jobs", "1"],
        json_path.to_str().unwrap(),
        "m-nd-base.json",
    );
    let strip_wire = |doc: &str| -> String {
        doc.lines()
            .filter(|l| !l.contains("trace.ingest.bytes"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for jobs in ["1", "4"] {
        let (code, out, counts) = run_with_metrics(
            &["--window", "300", "--jobs", jobs, "--stream"],
            nd_path.to_str().unwrap(),
            &format!("m-nd-{jobs}.json"),
        );
        assert_eq!(code, base_code);
        // stdout carries no wire-format trace of its own.
        assert_eq!(out, base_out, "ndjson stdout drifted at jobs={jobs}");
        assert_eq!(strip_wire(&counts), strip_wire(&base_counts));
    }
}

/// `-` reads the trace from stdin, both with and without `--stream`, and
/// decides identically to the file run.
#[test]
fn stdin_matches_file_input() {
    let trace = multi_window_trace();
    let path = dir().join("equiv-stdin.json");
    let json = rvpredict::to_json(&trace);
    std::fs::write(&path, &json).unwrap();

    let file_run = Command::new(bin())
        .args(["--window", "300", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    for stream in [false, true] {
        let mut args = vec!["--window", "300"];
        if stream {
            args.push("--stream");
        }
        args.push("-");
        let mut child = Command::new(bin())
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(json.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), file_run.status.code(), "stream={stream}");
        assert_eq!(
            stripped_stdout(&out),
            stripped_stdout(&file_run),
            "stdin stdout drifted at stream={stream}"
        );
    }
}

/// `--lenient --stream` salvages the damaged trace exactly like the
/// whole-file lenient run: same drops on stderr, same verdicts, same
/// count-type metrics, at several worker counts.
#[test]
fn lenient_salvage_matches_across_modes() {
    let trace = damaged_multi_window_trace();
    let json_path = dir().join("damaged.json");
    let nd_path = dir().join("damaged.ndjson");
    std::fs::write(&json_path, rvpredict::to_json(&trace)).unwrap();
    std::fs::write(&nd_path, rvpredict::to_ndjson(&trace)).unwrap();
    let json_path = json_path.to_str().unwrap();

    // Strict mode rejects the torn read in every ingestion mode.
    for args in [vec![json_path], vec!["--stream", json_path]] {
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "strict must reject: {args:?}");
        let e = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(e.contains("not sequentially consistent"), "{e}");
    }

    let (base_code, base_out, base_counts) = run_with_metrics(
        &["--window", "300", "--jobs", "1", "--lenient"],
        json_path,
        "m-len-base.json",
    );
    assert_eq!(base_code, 1, "salvage keeps the racy head");
    assert!(base_counts.contains("salvage.dropped.inconsistent-read"));
    for jobs in JOBS {
        let (code, out, counts) = run_with_metrics(
            &["--window", "300", "--jobs", jobs, "--lenient", "--stream"],
            json_path,
            &format!("m-len-{jobs}.json"),
        );
        assert_eq!(code, base_code, "jobs={jobs}");
        assert_eq!(out, base_out, "lenient stdout drifted at jobs={jobs}");
        assert_eq!(
            counts, base_counts,
            "lenient metrics drifted at jobs={jobs}"
        );
    }
    // NDJSON wire format: identical modulo the wire-size counter.
    let strip_wire = |doc: &str| -> String {
        doc.lines()
            .filter(|l| !l.contains("trace.ingest.bytes"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (code, out, counts) = run_with_metrics(
        &["--window", "300", "--jobs", "4", "--lenient", "--stream"],
        nd_path.to_str().unwrap(),
        "m-len-nd.json",
    );
    assert_eq!(code, base_code);
    assert_eq!(out, base_out);
    assert_eq!(strip_wire(&counts), strip_wire(&base_counts));
}

/// Fault injection composes with `--stream`: the failed window, the
/// degraded exit code, and the count-type metrics match the whole-file
/// run at every worker count.
#[test]
fn fault_injected_runs_match_across_modes() {
    let trace = multi_window_trace();
    let path = dir().join("faulty.json");
    std::fs::write(&path, rvpredict::to_json(&trace)).unwrap();
    let path = path.to_str().unwrap();

    let fault = ["--window", "300", "--inject-fault", "0:0:panic"];
    let (base_code, base_out, base_counts) = run_with_metrics(
        &[&fault[..], &["--jobs", "1"]].concat(),
        path,
        "m-fault-base.json",
    );
    assert_eq!(base_code, 3, "losing window 0 loses the race: degraded");
    assert!(base_out.contains("failed: injected fault"), "{base_out}");
    for jobs in JOBS {
        for stream in [false, true] {
            let mut args = [&fault[..], &["--jobs", jobs]].concat();
            if stream {
                args.push("--stream");
            }
            let (code, out, counts) =
                run_with_metrics(&args, path, &format!("m-fault-{jobs}-{stream}.json"));
            assert_eq!(code, base_code, "jobs={jobs} stream={stream}");
            assert_eq!(
                out, base_out,
                "fault stdout drifted at jobs={jobs} stream={stream}"
            );
            assert_eq!(
                counts, base_counts,
                "fault metrics drifted at jobs={jobs} stream={stream}"
            );
        }
    }
}

/// `--no-tiers` is report-invisible: stdout is byte-identical with the
/// cascade on and off, across wire formats (file JSON, streamed NDJSON,
/// stdin) and worker counts. Between the two settings only the cascade's
/// own attribution (`detector.tiers.*`) and the effort it saves
/// (`encoder.*`, `solver.*`) may differ in the count-type metrics; every
/// verdict counter must match.
#[test]
fn no_tiers_runs_are_report_identical_across_formats() {
    let trace = multi_window_trace();
    let json_path = dir().join("equiv-tiers.json");
    let nd_path = dir().join("equiv-tiers.ndjson");
    let json = rvpredict::to_json(&trace);
    std::fs::write(&json_path, &json).unwrap();
    std::fs::write(&nd_path, rvpredict::to_ndjson(&trace)).unwrap();
    let json_path = json_path.to_str().unwrap();

    let strip_wire = |doc: &str| -> String {
        doc.lines()
            .filter(|l| !l.contains("trace.ingest.bytes"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let strip_effort = |doc: &str| -> String {
        doc.lines()
            .filter(|l| {
                !l.contains("\"detector.tiers.")
                    && !l.contains("\"encoder.")
                    && !l.contains("\"solver.")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut outs = Vec::new();
    let mut verdict_counts = Vec::new();
    for no_tiers in [false, true] {
        let mut base_args = vec!["--window", "300", "--jobs", "1"];
        if no_tiers {
            base_args.push("--no-tiers");
        }
        let (base_code, base_out, base_counts) = run_with_metrics(
            &base_args,
            json_path,
            &format!("m-tiers-base-{no_tiers}.json"),
        );
        assert_eq!(base_code, 1, "the head COP races either way");
        // The attribution counters follow the flag: the screen confirms
        // the head race when on, and stays entirely silent when off.
        let confirmed = if no_tiers { 0 } else { 1 };
        assert!(
            base_counts.contains(&format!("\"detector.tiers.confirmed\": {confirmed}")),
            "no_tiers={no_tiers}: {base_counts}"
        );
        // Streamed JSON at several worker counts: everything identical.
        for jobs in ["2", "8"] {
            let mut args = vec!["--window", "300", "--jobs", jobs, "--stream"];
            if no_tiers {
                args.push("--no-tiers");
            }
            let (code, out, counts) =
                run_with_metrics(&args, json_path, &format!("m-tiers-{no_tiers}-{jobs}.json"));
            assert_eq!(code, base_code, "no_tiers={no_tiers} jobs={jobs}");
            assert_eq!(out, base_out, "no_tiers={no_tiers} jobs={jobs}: stdout");
            assert_eq!(
                counts, base_counts,
                "no_tiers={no_tiers} jobs={jobs}: metrics"
            );
        }
        // Streamed NDJSON: identical modulo the wire-size counter.
        let mut nd_args = vec!["--window", "300", "--jobs", "4", "--stream"];
        if no_tiers {
            nd_args.push("--no-tiers");
        }
        let (code, out, counts) = run_with_metrics(
            &nd_args,
            nd_path.to_str().unwrap(),
            &format!("m-tiers-nd-{no_tiers}.json"),
        );
        assert_eq!(code, base_code, "no_tiers={no_tiers} ndjson");
        assert_eq!(out, base_out, "no_tiers={no_tiers} ndjson: stdout");
        assert_eq!(strip_wire(&counts), strip_wire(&base_counts));
        // Stdin ingestion: same report text.
        let mut stdin_args = vec!["--window", "300"];
        if no_tiers {
            stdin_args.push("--no-tiers");
        }
        stdin_args.push("-");
        let mut child = Command::new(bin())
            .args(&stdin_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(json.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(base_code), "no_tiers={no_tiers}");
        assert_eq!(
            stripped_stdout(&out),
            base_out,
            "no_tiers={no_tiers} stdin: stdout"
        );
        outs.push(base_out);
        verdict_counts.push(strip_effort(&base_counts));
    }
    // Across the flag: the report and every verdict counter are identical.
    assert_eq!(outs[0], outs[1], "--no-tiers changed the report text");
    assert_eq!(
        verdict_counts[0], verdict_counts[1],
        "--no-tiers changed a verdict counter"
    );
}

/// The cone-mode matrix (PR 8): on a trace whose only racing pair sits
/// astride window boundaries, `--window-mode cone` reports the race
/// byte-identically across wire formats (file JSON, streamed JSON,
/// streamed NDJSON, stdin) and `--jobs` 1/2/4/8 — while `--window-mode
/// fixed` on the same trace stays blind (exit 0, no race), which is
/// exactly the blindness the cone matrix certifies against.
#[test]
fn cone_mode_straddle_runs_are_byte_identical_across_drivers() {
    let trace = straddling_multi_window_trace();
    let json_path = dir().join("straddle.json");
    let nd_path = dir().join("straddle.ndjson");
    let json = rvpredict::to_json(&trace);
    std::fs::write(&json_path, &json).unwrap();
    std::fs::write(&nd_path, rvpredict::to_ndjson(&trace)).unwrap();
    let json_path = json_path.to_str().unwrap();

    // Fixed mode is blind to the straddling pair: clean exit, no race.
    let fixed = Command::new(bin())
        .args(["--window", "300", "--window-mode", "fixed", json_path])
        .output()
        .expect("binary runs");
    assert_eq!(fixed.status.code(), Some(0), "fixed mode sees no race");
    assert!(
        String::from_utf8_lossy(&fixed.stdout).contains("0 race(s)"),
        "{}",
        String::from_utf8_lossy(&fixed.stdout)
    );

    let base_args = ["--window", "300", "--window-mode", "cone", "--jobs", "1"];
    let (base_code, base_out, base_counts) =
        run_with_metrics(&base_args, json_path, "m-straddle-base.json");
    assert_eq!(base_code, 1, "cone mode reports the straddling race");
    assert!(base_out.contains("1 race(s)"), "{base_out}");
    assert!(
        base_counts.contains("\"detector.boundary.straddle_races\": 1"),
        "{base_counts}"
    );
    let strip_wire = |doc: &str| -> String {
        doc.lines()
            .filter(|l| !l.contains("trace.ingest.bytes"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for jobs in JOBS {
        // Whole-file and streamed JSON: everything byte-identical.
        for stream in [false, true] {
            let mut args = vec!["--window", "300", "--window-mode", "cone", "--jobs", jobs];
            if stream {
                args.push("--stream");
            }
            let name = format!("m-straddle-{jobs}-{stream}.json");
            let (code, out, counts) = run_with_metrics(&args, json_path, &name);
            assert_eq!(code, base_code, "jobs={jobs} stream={stream}");
            assert_eq!(
                out, base_out,
                "cone stdout drifted at jobs={jobs} stream={stream}"
            );
            assert_eq!(
                counts, base_counts,
                "cone metrics drifted at jobs={jobs} stream={stream}"
            );
        }
        // Streamed NDJSON: identical modulo the wire-size counter.
        let (code, out, counts) = run_with_metrics(
            &[
                "--window",
                "300",
                "--window-mode",
                "cone",
                "--jobs",
                jobs,
                "--stream",
            ],
            nd_path.to_str().unwrap(),
            &format!("m-straddle-nd-{jobs}.json"),
        );
        assert_eq!(code, base_code, "ndjson jobs={jobs}");
        assert_eq!(out, base_out, "ndjson cone stdout drifted at jobs={jobs}");
        assert_eq!(strip_wire(&counts), strip_wire(&base_counts));
        // Stdin, both ingestion modes: same report text.
        for stream in [false, true] {
            let mut args = vec!["--window", "300", "--window-mode", "cone", "--jobs", jobs];
            if stream {
                args.push("--stream");
            }
            args.push("-");
            let mut child = Command::new(bin())
                .args(&args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("binary spawns");
            child
                .stdin
                .take()
                .unwrap()
                .write_all(json.as_bytes())
                .unwrap();
            let out = child.wait_with_output().unwrap();
            assert_eq!(out.status.code(), Some(base_code), "stdin jobs={jobs}");
            assert_eq!(
                stripped_stdout(&out),
                base_out,
                "stdin cone stdout drifted at jobs={jobs} stream={stream}"
            );
        }
    }
}

/// On a trace with no boundary-straddling conflicting pair, `--window-mode
/// cone` (the default) and `--window-mode fixed` are byte-identical —
/// stdout, exit code and count-type metrics — whole-file and streamed, at
/// several worker counts. Passing no flag at all equals passing `cone`
/// explicitly.
#[test]
fn fixed_and_cone_match_on_non_straddling_traces() {
    let trace = multi_window_trace();
    let path = dir().join("no-straddle.json");
    std::fs::write(&path, rvpredict::to_json(&trace)).unwrap();
    let path = path.to_str().unwrap();

    let (base_code, base_out, base_counts) = run_with_metrics(
        &["--window", "300", "--jobs", "1"],
        path,
        "m-mode-default.json",
    );
    assert_eq!(base_code, 1, "the in-window head COP still races");
    for mode in ["fixed", "cone"] {
        for jobs in ["1", "4"] {
            for stream in [false, true] {
                let mut args = vec!["--window", "300", "--window-mode", mode, "--jobs", jobs];
                if stream {
                    args.push("--stream");
                }
                let name = format!("m-mode-{mode}-{jobs}-{stream}.json");
                let (code, out, counts) = run_with_metrics(&args, path, &name);
                assert_eq!(code, base_code, "mode={mode} jobs={jobs} stream={stream}");
                assert_eq!(
                    out, base_out,
                    "stdout drifted at mode={mode} jobs={jobs} stream={stream}"
                );
                assert_eq!(
                    counts, base_counts,
                    "metrics drifted at mode={mode} jobs={jobs} stream={stream}"
                );
            }
        }
    }
}

/// The CLI degradation contract for a starved `--spill-budget`: the
/// straddling race is not reported, the COP surfaces as undecided, and
/// the exit code says "race freedom not established" (3) instead of 0.
#[test]
fn spill_budget_zero_degrades_via_cli() {
    let trace = straddling_multi_window_trace();
    let path = dir().join("straddle-starved.json");
    std::fs::write(&path, rvpredict::to_json(&trace)).unwrap();
    let out = Command::new(bin())
        .args([
            "--window",
            "300",
            "--window-mode",
            "cone",
            "--spill-budget",
            "0",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "degraded, not falsely clean");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 race(s)"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("undecided") && stderr.contains("race freedom is not established"),
        "{stderr}"
    );
}

/// One tenant's settings for the multi-session suite: a per-session flag
/// mix (the CLI's `--no-tiers` / `--no-slice` / `--lenient` /
/// `--inject-fault` knobs) plus the trace it streams.
struct Tenant {
    tag: &'static str,
    bytes: String,
    config: SessionConfig,
    solo: String,
}

/// Builds the co-tenant mix: plain, `--no-tiers`, `--no-slice`, a
/// fault-injected stream and a `--lenient` session on a damaged trace —
/// each with its solo (standalone-driver) `deterministic_summary`.
fn tenant_mix() -> Vec<Tenant> {
    let clean = multi_window_trace();
    let damaged = damaged_multi_window_trace();
    let base = DetectorConfig {
        window_size: 300,
        parallelism: 1,
        ..Default::default()
    };
    let mut tenants = Vec::new();
    let mut push = |tag, trace: &Trace, lenient: bool, detector: DetectorConfig| {
        let solo_trace = if lenient {
            rvpredict::salvage_trace(trace.data().clone()).0
        } else {
            trace.clone()
        };
        let solo = RaceDetector::with_config(detector.clone())
            .detect(&solo_trace)
            .deterministic_summary();
        tenants.push(Tenant {
            tag,
            bytes: rvpredict::to_ndjson(trace),
            config: SessionConfig {
                detector,
                lenient,
                ..SessionConfig::default()
            },
            solo,
        });
    };
    push("plain", &clean, false, base.clone());
    push(
        "no-tiers",
        &clean,
        false,
        DetectorConfig {
            tiers: false,
            ..base.clone()
        },
    );
    push(
        "no-slice",
        &clean,
        false,
        DetectorConfig {
            slice: false,
            ..base.clone()
        },
    );
    push(
        "faulted",
        &clean,
        false,
        DetectorConfig {
            fault_plan: Some(Arc::new(FaultPlan::new().inject(0, 0, Fault::Panic))),
            ..base.clone()
        },
    );
    push("lenient", &damaged, true, base);
    tenants
}

/// The daemon-session contract at the library layer: N concurrent
/// sessions with different per-tenant flag mixes (including a
/// fault-injected co-tenant) over one shared pool each report exactly
/// what the standalone driver reports for their trace, at every pool
/// size.
#[test]
fn concurrent_sessions_match_solo_at_every_pool_size() {
    let tenants = Arc::new(tenant_mix());
    for workers in [1usize, 2, 4, 8] {
        let manager = Arc::new(SessionManager::new(workers));
        let barrier = Arc::new(Barrier::new(tenants.len()));
        let handles: Vec<_> = (0..tenants.len())
            .map(|i| {
                let tenants = tenants.clone();
                let manager = manager.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let t = &tenants[i];
                    let mut session = manager.open_session(t.config.clone());
                    barrier.wait();
                    // Interleave ingestion so sessions genuinely co-tenant
                    // the pool instead of running back to back.
                    for chunk in t.bytes.as_bytes().chunks(127) {
                        session.feed(chunk).unwrap();
                    }
                    (i, session.finish().unwrap())
                })
            })
            .collect();
        for h in handles {
            let (i, outcome) = h.join().unwrap();
            let t = &tenants[i];
            assert_eq!(
                outcome.report.deterministic_summary(),
                t.solo,
                "tenant {} drifted from its solo run at workers={workers}",
                t.tag
            );
            assert_eq!(outcome.shed_windows, 0, "healthy pool never sheds");
        }
    }
}

/// Tearing one session down mid-stream leaves every co-tenant's report
/// untouched: the survivors still match their solo runs byte for byte.
#[test]
fn killed_session_leaves_neighbors_byte_identical() {
    let tenants = Arc::new(tenant_mix());
    let manager = Arc::new(SessionManager::new(2));
    let barrier = Arc::new(Barrier::new(tenants.len() + 1));
    let victim_bytes = tenants[0].bytes.clone();
    let victim_cfg = tenants[0].config.clone();
    let victim = {
        let manager = manager.clone();
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            let mut session = manager.open_session(victim_cfg);
            barrier.wait();
            session
                .feed(&victim_bytes.as_bytes()[..victim_bytes.len() / 2])
                .unwrap();
            session.abort("client killed mid-stream")
        })
    };
    let handles: Vec<_> = (0..tenants.len())
        .map(|i| {
            let tenants = tenants.clone();
            let manager = manager.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let t = &tenants[i];
                let mut session = manager.open_session(t.config.clone());
                barrier.wait();
                for chunk in t.bytes.as_bytes().chunks(127) {
                    session.feed(chunk).unwrap();
                }
                (i, session.finish().unwrap())
            })
        })
        .collect();
    let err = victim.join().unwrap();
    assert_eq!(err.reason, "client killed mid-stream");
    assert!(err.to_string().contains("torn down"));
    for h in handles {
        let (i, outcome) = h.join().unwrap();
        let t = &tenants[i];
        assert_eq!(
            outcome.report.deterministic_summary(),
            t.solo,
            "tenant {} was disturbed by the killed neighbor",
            t.tag
        );
    }
}

/// Library-level contract: whole-file and streamed detection render
/// byte-identical `deterministic_summary` outputs at every parallelism
/// level, with and without a fault plan.
#[test]
fn drivers_render_identical_deterministic_summaries() {
    let trace = multi_window_trace();
    let json = rvpredict::to_json(&trace);
    for faulty in [false, true] {
        let mut baseline: Option<String> = None;
        for jobs in [1usize, 2, 4, 8] {
            let mut cfg = DetectorConfig {
                window_size: 300,
                parallelism: jobs,
                ..Default::default()
            };
            if faulty {
                cfg.fault_plan = Some(std::sync::Arc::new(FaultPlan::new().inject(
                    0,
                    0,
                    Fault::Timeout,
                )));
            }
            let detector = RaceDetector::with_config(cfg);
            let whole = detector.detect(&trace).deterministic_summary();
            let streamed = detect_streamed(detector.config(), json.as_bytes())
                .report
                .deterministic_summary();
            assert_eq!(whole, streamed, "faulty={faulty} jobs={jobs}");
            let base = baseline.get_or_insert_with(|| whole.clone());
            assert_eq!(*base, whole, "faulty={faulty} jobs={jobs}");
        }
    }
}
