//! Robustness of the ingestion pipeline and the CLI's degraded modes:
//! damaged trace files (truncated JSON, unknown event kinds, unbalanced
//! locks, torn reads) must produce clean errors in strict mode and usable
//! salvaged traces in lenient mode, and the binary's exit codes must
//! distinguish "no races" (0) from "races" (1), "bad input" (2) and
//! "incomplete verdict" (3).

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rvpredict")
}

fn fixture(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rvpredict-robustness-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A trace with one cross-thread race plus one torn read: strict mode
/// rejects it, lenient mode drops the read and still proves the race.
const RACY_WITH_TORN_READ: &str = r#"{"events":[
  {"thread":0,"kind":{"Fork":{"child":1}},"loc":0},
  {"thread":0,"kind":{"Write":{"var":0,"value":1}},"loc":10},
  {"thread":1,"kind":"Begin","loc":1},
  {"thread":1,"kind":{"Read":{"var":0,"value":9}},"loc":2},
  {"thread":1,"kind":{"Read":{"var":0,"value":1}},"loc":11}
],"initial_values":{},"volatiles":[],"wait_links":[],
"loc_names":{"10":"writer","11":"reader"},"var_names":{"0":"x"}}"#;

/// Double acquire and double release of the same lock on one thread.
const UNBALANCED_LOCKS: &str = r#"{"events":[
  {"thread":0,"kind":{"Acquire":{"lock":0}},"loc":0},
  {"thread":0,"kind":{"Acquire":{"lock":0}},"loc":1},
  {"thread":0,"kind":{"Write":{"var":0,"value":1}},"loc":2},
  {"thread":0,"kind":{"Release":{"lock":0}},"loc":3},
  {"thread":0,"kind":{"Release":{"lock":0}},"loc":4}
],"initial_values":{},"volatiles":[],"wait_links":[],
"loc_names":{},"var_names":{}}"#;

// ------------------------------------------------------------ library level

#[test]
fn truncated_json_is_a_clean_error_with_position() {
    let input = "{\"events\":[{\"thread\":0,\"kind\":{\"Wri";
    let err = rvpredict::from_json(input).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("at byte"), "{msg}");
    assert!(msg.contains("near `"), "{msg}");
    // Lenient parsing fails identically: truncation is not salvageable.
    assert!(rvpredict::read_trace_data(input.as_bytes()).is_err());
}

#[test]
fn unknown_event_kind_is_a_clean_error() {
    let input = r#"{"events":[{"thread":0,"kind":{"Frobnicate":{"var":0}},"loc":0}],
        "initial_values":{},"volatiles":[],"wait_links":[],
        "loc_names":{},"var_names":{}}"#;
    let err = rvpredict::from_json(input).unwrap_err();
    assert!(err.to_string().contains("unknown event kind"), "{err}");
}

#[test]
fn unbalanced_locks_strict_rejects_lenient_salvages() {
    // Strict: the document parses, but the trace violates lock mutual
    // exclusion.
    let trace = rvpredict::from_json(UNBALANCED_LOCKS).unwrap();
    assert!(!rvpredict::check_consistency(&trace).is_empty());

    // Lenient: exactly the two offending events are dropped.
    let (data, _) = rvpredict::read_trace_data(UNBALANCED_LOCKS.as_bytes()).unwrap();
    let (salvaged, report) = rvpredict::salvage_trace(data);
    assert_eq!(salvaged.len(), 3);
    assert_eq!(report.dropped["acquire-held-lock"], 1);
    assert_eq!(report.dropped["release-without-acquire"], 1);
    assert_eq!(report.n_dropped(), 2);
    assert!(rvpredict::check_consistency(&salvaged).is_empty());
}

#[test]
fn torn_read_strict_rejects_lenient_salvages() {
    let trace = rvpredict::from_json(RACY_WITH_TORN_READ).unwrap();
    assert!(!rvpredict::check_consistency(&trace).is_empty());

    let (data, _) = rvpredict::read_trace_data(RACY_WITH_TORN_READ.as_bytes()).unwrap();
    let (salvaged, report) = rvpredict::salvage_trace(data);
    assert_eq!(salvaged.len(), 4);
    assert_eq!(report.dropped["inconsistent-read"], 1);
    // The salvaged sub-trace still carries the race.
    let report = rvpredict::RaceDetector::new().detect(&salvaged);
    assert_eq!(report.n_races(), 1);
}

// ----------------------------------------------------------------- CLI level

#[test]
fn cli_truncated_json_exits_2_with_position() {
    let path = fixture(
        "truncated.json",
        "{\"events\":[{\"thread\":0,\"kind\":{\"Wri",
    );
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let e = stderr(&out);
    assert!(e.contains("error:"), "{e}");
    assert!(e.contains("at byte"), "{e}");
}

#[test]
fn cli_unknown_event_kind_exits_2() {
    let path = fixture(
        "unknown-kind.json",
        r#"{"events":[{"thread":0,"kind":"Frobnicate","loc":0}],
            "initial_values":{},"volatiles":[],"wait_links":[],
            "loc_names":{},"var_names":{}}"#,
    );
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown event kind"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn cli_inconsistent_trace_strict_exits_2_and_suggests_lenient() {
    let path = fixture("unbalanced.json", UNBALANCED_LOCKS);
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let e = stderr(&out);
    assert!(e.contains("not sequentially consistent"), "{e}");
    assert!(e.contains("--lenient"), "{e}");
}

#[test]
fn cli_lenient_salvages_unbalanced_locks_and_exits_0() {
    let path = fixture("unbalanced-lenient.json", UNBALANCED_LOCKS);
    let out = run(&["--lenient", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let e = stderr(&out);
    assert!(e.contains("salvage: kept 3/5 events"), "{e}");
    assert!(e.contains("acquire-held-lock=1"), "{e}");
    assert!(e.contains("release-without-acquire=1"), "{e}");
}

#[test]
fn cli_lenient_salvage_still_finds_the_race() {
    let path = fixture("torn-read.json", RACY_WITH_TORN_READ);
    let out = run(&["--lenient", path.to_str().unwrap()]);
    // Races dominate: exit 1 even though events were dropped.
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("inconsistent-read=1"),
        "{}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 race(s)"), "{stdout}");
}

#[test]
fn cli_injected_timeout_forces_degraded_exit_3() {
    // Figure 1 has exactly one COP; forcing it to time out leaves no races
    // and one undecided verdict — completion without a full answer.
    let out = run(&["--demo", "--inject-fault", "0:0:timeout"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let e = stderr(&out);
    assert!(e.contains("race freedom is not established"), "{e}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 race(s)"), "{stdout}");
}

#[test]
fn cli_injected_panic_fails_window_and_exits_3() {
    let out = run(&["--demo", "--inject-fault", "0:0:panic"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("1 window(s) failed"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn cli_bad_fault_spec_is_a_usage_error() {
    for spec in ["nonsense", "0:0:frob", "x:0:panic", "0"] {
        let out = run(&["--demo", "--inject-fault", spec]);
        assert_eq!(out.status.code(), Some(2), "spec {spec}");
    }
}

#[test]
fn cli_retry_split_flag_is_rejected() {
    // The split-window retry policy is gone: its flag is a usage error
    // naming the flag, not silently ignored.
    let out = run(&["--demo", "--retry-split"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--retry-split"), "{}", stderr(&out));
}
