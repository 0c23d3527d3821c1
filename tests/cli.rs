//! End-to-end test of the `rvpredict` CLI binary: serialize a trace to
//! JSON, run the tool on it, and check the report — the adoption surface a
//! downstream instrumentation front-end would use.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rvpredict")
}

#[test]
fn cli_detects_race_in_serialized_trace() {
    let w = rvsim::workloads::figures::figure1();
    let json = rvpredict::to_json(&w.trace);
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1.json");
    std::fs::write(&path, json).unwrap();

    let out = Command::new(bin())
        .arg("--witnesses")
        .arg(&path)
        .output()
        .expect("binary runs");
    // Races found ⇒ exit code 1.
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 race(s)"), "{stdout}");
    assert!(stdout.contains("witness:"), "{stdout}");
}

#[test]
fn cli_baselines_find_nothing_on_figure1() {
    let w = rvsim::workloads::figures::figure1();
    let json = rvpredict::to_json(&w.trace);
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1b.json");
    std::fs::write(&path, json).unwrap();

    for det in ["hb", "cp", "said"] {
        let out = Command::new(bin())
            .args(["--detector", det])
            .arg(&path)
            .output()
            .expect("binary runs");
        // No races, nothing degraded ⇒ exit code 0.
        assert!(out.status.success(), "{det}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("0 race(s)"), "{det}: {stdout}");
    }
}

#[test]
fn cli_jobs_flag_is_accepted_and_output_matches_serial() {
    let w = rvsim::workloads::figures::figure1();
    let json = rvpredict::to_json(&w.trace);
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1c.json");
    std::fs::write(&path, json).unwrap();

    let run = |jobs: &str| {
        let out = Command::new(bin())
            .args(["--jobs", jobs])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let serial = run("1");
    let parallel = run("4");
    assert!(serial.contains("1 race(s)"), "{serial}");
    // Races and counters are deterministic across thread counts; only the
    // timing lines may differ.
    let races = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("race "))
            .map(|l| l.to_string())
            .collect()
    };
    assert_eq!(races(&serial), races(&parallel));

    let out = Command::new(bin())
        .args(["--jobs", "0"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--jobs 0 is a usage error");
}

#[test]
fn cli_demo_mode() {
    let out = Command::new(bin())
        .arg("--demo")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "figure 1 has a race");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 race(s)"));
}

#[test]
fn cli_rejects_garbage() {
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.json");
    std::fs::write(&path, "not json").unwrap();
    let out = Command::new(bin())
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "parse errors are exit 2");
}

#[test]
fn cli_usage_on_missing_args() {
    let out = Command::new(bin()).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// `--kind` admits exactly `race|deadlock|atomicity|all`; anything else is
/// a usage error (exit 2) that names the flag, and a missing value is too.
/// So are the solver-mode flags that no longer exist.
#[test]
fn cli_rejects_unknown_kind() {
    let out = Command::new(bin())
        .args(["--kind", "livelock", "--demo"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown --kind is a usage error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--kind"), "diagnostic names the flag: {err}");

    let out = Command::new(bin())
        .arg("--kind")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "--kind without a value");

    // Removed solver-mode flags are usage errors, not silently ignored.
    for flag in ["--portfolio", "--no-incremental"] {
        let out = Command::new(bin())
            .args([flag, "--demo"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag} is a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "diagnostic names the flag: {err}");
    }
}

#[test]
fn cli_rejects_window_zero_on_every_path() {
    // A zero-event window is a usage error wherever it would have been
    // used: whole-file, other kinds, strict and lenient streams, and the
    // baseline detectors.
    let w = rvsim::workloads::figures::figure1();
    let dir = std::env::temp_dir().join("rvpredict-cli-window-zero");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1.json");
    std::fs::write(&path, rvpredict::to_json(&w.trace)).unwrap();
    let path = path.to_str().unwrap();
    for extra in [
        &[][..],
        &["--kind", "deadlock"],
        &["--kind", "atomicity"],
        &["--stream"],
        &["--stream", "--lenient"],
        &["--detector", "hb"],
    ] {
        let out = Command::new(bin())
            .args(["--window", "0"])
            .args(extra)
            .arg(path)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--window 0 {extra:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--window"), "diagnostic names the flag: {err}");
    }
}

/// Runs `--metrics` and returns (full document, timing-free prefix): the
/// emitted JSON up to but excluding the `timings_us` section, i.e. exactly
/// the counters and histograms — the sections the determinism contract
/// covers.
fn metrics_run(path: &std::path::Path, extra: &[&str], out_name: &str) -> (String, String) {
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join(out_name);
    let out = Command::new(bin())
        .args(extra)
        .args(["--metrics", metrics_path.to_str().unwrap()])
        .arg(path)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let cut = doc
        .find("  \"timings_us\": {")
        .unwrap_or_else(|| panic!("no timings_us section in {doc}"));
    (doc.clone(), doc[..cut].to_string())
}

/// `--metrics` emits a parseable versioned document whose count-type
/// sections are byte-identical at 1, 2, 4 and 8 workers.
#[test]
fn cli_metrics_json_is_identical_across_jobs() {
    let w = rvsim::workloads::figures::figure1();
    let json = rvpredict::to_json(&w.trace);
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1-metrics.json");
    std::fs::write(&path, json).unwrap();

    let mut baseline: Option<String> = None;
    for jobs in ["1", "2", "4", "8"] {
        let (doc, counters) = metrics_run(
            &path,
            &["--jobs", jobs],
            &format!("metrics-jobs{jobs}.json"),
        );
        // The full document is valid JSON for the in-tree parser and
        // carries the schema tag plus real content.
        let parsed = rvpredict::parse_json(&doc).expect("metrics JSON parses");
        assert_eq!(
            parsed
                .field("schema_version")
                .and_then(|v| v.as_int())
                .unwrap(),
            rvpredict::METRICS_SCHEMA_VERSION as i64,
        );
        assert!(doc.contains("\"detector.races\": 1"), "{doc}");
        assert!(doc.contains("\"solver.conflicts_per_cop\":"), "{doc}");
        assert!(doc.contains("\"detector.wall_time\":"), "{doc}");
        assert!(doc.contains("\"trace.events\":"), "{doc}");
        match &baseline {
            None => baseline = Some(counters),
            Some(b) => assert_eq!(
                b, &counters,
                "count-type metrics differ between --jobs 1 and --jobs {jobs}"
            ),
        }
    }
}

/// The `--metrics` determinism contract holds in degraded runs too: with
/// an injected fault the counters sections still agree across thread
/// counts, and the failure is visible in the document.
#[test]
fn cli_metrics_json_is_identical_across_jobs_under_fault() {
    let w = rvsim::workloads::figures::figure1();
    let json = rvpredict::to_json(&w.trace);
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1-metrics-fault.json");
    std::fs::write(&path, json).unwrap();

    let mut baseline: Option<String> = None;
    for jobs in ["1", "2", "4", "8"] {
        let metrics_path = dir.join(format!("metrics-fault-jobs{jobs}.json"));
        let out = Command::new(bin())
            .args(["--jobs", jobs, "--inject-fault", "0:0:timeout"])
            .args(["--metrics", metrics_path.to_str().unwrap()])
            .arg(&path)
            .output()
            .expect("binary runs");
        // The only COP times out ⇒ no races but a degraded report (exit 3).
        assert_eq!(
            out.status.code(),
            Some(3),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(doc.contains("\"detector.undecided\": 1"), "{doc}");
        assert!(doc.contains("\"detector.undecided.timeout\": 1"), "{doc}");
        let cut = doc.find("  \"timings_us\": {").unwrap();
        let counters = doc[..cut].to_string();
        match &baseline {
            None => baseline = Some(counters),
            Some(b) => assert_eq!(
                b, &counters,
                "faulted metrics differ between --jobs 1 and --jobs {jobs}"
            ),
        }
    }
}

/// `--trace-log` narrates phases on stderr without disturbing the report
/// on stdout or the exit code.
#[test]
fn cli_trace_log_writes_phases_to_stderr() {
    let out = Command::new(bin())
        .args(["--demo", "--trace-log"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[rvpredict +"), "{stderr}");
    assert!(stderr.contains("detection"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 race(s)"));
}

/// `--metrics` pointing at an unwritable path is an IO/usage error (exit
/// 2), not a silent success.
#[test]
fn cli_metrics_unwritable_path_is_an_error() {
    let out = Command::new(bin())
        .args(["--demo", "--metrics", "/nonexistent-dir/out.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("metrics"));
}

/// `--timeout-ms`: a zero per-window wall-clock budget deterministically
/// degrades every COP to undecided (timeout) — exit 3 with the
/// degradation note — through both the per-COP and batched solve paths
/// (`--no-slice` shares one encoding per window), and through `--stream`.
/// A generous budget changes nothing.
#[test]
fn cli_timeout_ms_degrades_uniformly() {
    let w = rvsim::workloads::figures::figure1();
    let json = rvpredict::to_json(&w.trace);
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1-timeout.json");
    std::fs::write(&path, json).unwrap();

    for extra in [&[][..], &["--no-slice"][..], &["--stream"][..]] {
        let out = Command::new(bin())
            .args(["--timeout-ms", "0"])
            .args(extra)
            .arg(&path)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(3), "budget 0 degrades: {extra:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("0 race(s)"), "{extra:?}: {stdout}");
        assert!(stdout.contains("undecided=1"), "{extra:?}: {stdout}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("race freedom is not established"),
            "{extra:?}"
        );
    }
    // Every kind honors the window budget: each deadlock and atomicity
    // candidate is reached after the deadline, so all are unknown.
    let micro = [
        ("deadlock", "deadlock_micro"),
        ("atomicity", "atomicity_micro"),
    ];
    for (kind, name) in micro {
        let w = match kind {
            "deadlock" => rvsim::workloads::synthetic::deadlock_workload(name, 1),
            _ => rvsim::workloads::synthetic::atomicity_workload(name, 1),
        };
        let path = dir.join(format!("{name}-timeout.json"));
        std::fs::write(&path, rvpredict::to_json(&w.trace)).unwrap();
        for extra in [&[][..], &["--stream"][..]] {
            let out = Command::new(bin())
                .args(["--kind", kind, "--timeout-ms", "0"])
                .args(extra)
                .arg(&path)
                .output()
                .expect("binary runs");
            assert_eq!(out.status.code(), Some(3), "{kind} {extra:?} degrades");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let summary = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{kind}: 0 ")))
                .unwrap_or_else(|| panic!("{kind}: {stdout}"));
            let field = |name: &str| {
                let at = summary.find(&format!("{name}=")).unwrap() + name.len() + 1;
                summary[at..].split(',').next().unwrap().trim().to_string()
            };
            assert_ne!(field("candidates"), "0", "{summary}");
            assert_eq!(field("unknown"), field("candidates"), "{summary}");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("freedom is not established"),
                "{kind} {extra:?}"
            );
        }
    }
    // A budget that cannot fire leaves the verdict untouched.
    let out = Command::new(bin())
        .args(["--timeout-ms", "600000"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "generous budget still races");
    // Overflowing deadlines mean unbounded, not instantly expired.
    let out = Command::new(bin())
        .args(["--timeout-ms", "18446744073709551615"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "saturating budget is unbounded");
}

/// A reader that closes standard output early (`rvpredict T | head`)
/// ends the run quietly: exit 141, nothing on stderr — no panic message,
/// no backtrace. The report is several pipe buffers long, so the binary
/// is still writing it when the read end closes, whatever the timing.
#[test]
fn cli_closed_stdout_ends_the_run_quietly() {
    use std::io::Read as _;
    use std::process::Stdio;

    let w = rvsim::workloads::synthetic::deadlock_workload("inversions", 150);
    let dir = std::env::temp_dir().join("rvpredict-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("closed-stdout-{}.json", std::process::id()));
    std::fs::write(&path, rvpredict::to_json(&w.trace)).unwrap();
    let args = ["--kind", "all", "--witnesses"];

    let full = Command::new(bin()).args(args).arg(&path).output().unwrap();
    assert_eq!(full.status.code(), Some(1));
    assert!(
        full.stdout.len() > 4 * 65536,
        "the report must outgrow the pipe buffer: {} bytes",
        full.stdout.len()
    );

    let mut child = Command::new(bin())
        .args(args)
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut first = [0u8; 64];
    let n = stdout.read(&mut first).unwrap();
    assert!(String::from_utf8_lossy(&first[..n]).starts_with("trace:"));
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(141));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}
