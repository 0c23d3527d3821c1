//! Streaming-ingestion benchmark: the `BENCH_pr4.json` harness mode.
//!
//! Compares the whole-file detection pipeline (slurp → parse → windowed
//! solve) against the streaming pipeline ([`RaceDetector::detect_stream`]:
//! windows dispatched to the worker pool while the trace tail is still
//! being read) on the two axes the streaming driver is designed to win:
//!
//! * **time-to-first-race** — the racy COP sits in window 0, so the
//!   streamed run reports it after parsing ~one window instead of the
//!   whole document;
//! * **peak window residency** — both pipelines feed the same bounded
//!   window pool, so each holds at most the worker pool plus its queue
//!   (`2 * jobs + 3` windows) however long the trace is.
//!
//! ```sh
//! cargo run -p rvbench --release --bin stream_pipeline -- --out BENCH_pr4.json
//! ```
//!
//! # Document schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "pr4",
//!   "mode": "full",
//!   "jobs": 4,
//!   "window_size": 2000,
//!   "workloads": [
//!     {"name": "stream_large", "events": 100005, "windows": 51,
//!      "whole_file": {"races": 1, "ttfr_us": 81230, "wall_time_us": 95810,
//!                     "peak_window_residency": 51},
//!      "streamed":   {"races": 1, "ttfr_us": 2480, "wall_time_us": 88470,
//!                     "peak_window_residency": 9}}
//!   ]
//! }
//! ```
//!
//! `races` is count-type and must be equal between the two pipelines for
//! every workload (the determinism contract: streaming never changes the
//! verdict), and both pipelines' `peak_window_residency` must stay within
//! the pool bound `2 * jobs + 3`. The `*_us` fields are run-shape
//! dependent; the validator only enforces the *ordering* invariant — in a
//! `"full"` document, the streamed pipeline must be strictly ahead of the
//! whole-file pipeline on TTFR for the largest workload. (`"smoke"`
//! documents run one small workload where the margins are noise-level, so
//! TTFR ordering is not checked there.) Documents from before the two
//! pipelines shared one pool (`BENCH_pr4.json`, whose whole-file run held
//! every window at once) fail the residency bound; they are history.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rvcore::{DetectorConfig, RaceDetector};
use rvsim::workloads::Workload;
use rvtrace::{parse_json, ThreadId, TraceBuilder};

/// Version of the `BENCH_pr4.json` document. Bumped on any incompatible
/// change (key renames, section shape).
pub const STREAM_BENCH_SCHEMA_VERSION: u64 = 1;

/// The suite tag stamped into every document this harness emits.
pub const STREAM_BENCH_SUITE: &str = "pr4";

/// Detection knobs for a streaming-bench run.
#[derive(Debug, Clone, Copy)]
pub struct StreamBenchOptions {
    /// Window size in events (small relative to the traces, so the
    /// streamed run has many windows to overlap).
    pub window_size: usize,
    /// Per-COP solver budget.
    pub solver_timeout: Duration,
    /// Worker threads for both pipelines.
    pub jobs: usize,
}

impl Default for StreamBenchOptions {
    fn default() -> Self {
        StreamBenchOptions {
            window_size: 2_000,
            solver_timeout: Duration::from_secs(5),
            jobs: 4,
        }
    }
}

/// Builds a trace with one racy COP in window 0 followed by `filler`
/// race-free events (two threads on disjoint variables), so detection
/// cost concentrates at the front and ingestion dominates the tail —
/// the regime where pipelining pays.
pub fn racy_stream_workload(name: &str, filler: usize) -> Workload {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t2 = b.fork(ThreadId::MAIN);
    b.write(ThreadId::MAIN, x, 1);
    b.write(t2, x, 2);
    let a = b.var("a");
    let c = b.var("c");
    for i in 0..(filler / 2) as i64 {
        b.write(ThreadId::MAIN, a, i);
        b.write(t2, c, i);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// The smallest streaming workload — a few windows — for smoke runs and
/// the schema test.
pub fn smoke_stream_workloads() -> Vec<Workload> {
    vec![racy_stream_workload("stream_small", 4_000)]
}

/// The full streaming set: three sizes up to ~100K events. The largest is
/// the one the validator holds to the strictly-ahead invariant.
pub fn full_stream_workloads() -> Vec<Workload> {
    vec![
        racy_stream_workload("stream_small", 4_000),
        racy_stream_workload("stream_medium", 20_000),
        racy_stream_workload("stream_large", 100_000),
    ]
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

struct PipelineRun {
    races: u64,
    ttfr: Duration,
    wall: Duration,
    peak: u64,
}

fn write_run(out: &mut String, key: &str, run: &PipelineRun) {
    let _ = write!(
        out,
        "\"{key}\": {{\"races\": {}, \"ttfr_us\": {}, \"wall_time_us\": {}, \
         \"peak_window_residency\": {}}}",
        run.races,
        us(run.ttfr),
        us(run.wall),
        run.peak,
    );
}

/// Runs both pipelines over each workload (each from the same serialized
/// bytes) and returns the versioned comparison document described in the
/// module docs. `mode` is stamped into the document and selects how much
/// the validator enforces (`"full"` adds the strictly-ahead invariant).
pub fn run_stream_pipeline(
    workloads: &[Workload],
    opts: &StreamBenchOptions,
    mode: &str,
) -> String {
    let cfg = || DetectorConfig {
        window_size: opts.window_size,
        solver_timeout: opts.solver_timeout,
        parallelism: opts.jobs,
        ..Default::default()
    };
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {STREAM_BENCH_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"suite\": \"{STREAM_BENCH_SUITE}\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"jobs\": {},", opts.jobs);
    let _ = writeln!(out, "  \"window_size\": {},", opts.window_size);
    out.push_str("  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        let json = rvtrace::to_json(&w.trace);

        // Whole-file pipeline: parse everything, then detect. TTFR is
        // measured from the first byte, so it carries the full parse.
        let t0 = Instant::now();
        let (trace, ingest) =
            rvtrace::from_json_with_stats(&json).expect("round-trip parse cannot fail");
        let report = RaceDetector::with_config(cfg()).detect(&trace);
        let whole = PipelineRun {
            races: report.n_races() as u64,
            ttfr: ingest.parse_time
                + report
                    .stats
                    .time_to_first_race
                    .unwrap_or(report.stats.wall_time),
            wall: t0.elapsed(),
            peak: report.stats.peak_window_residency as u64,
        };
        let windows = report.stats.windows;

        // Streaming pipeline: same bytes through the incremental parser,
        // windows solved while the tail is still being read.
        let t0 = Instant::now();
        let det = RaceDetector::with_config(cfg())
            .detect_stream(json.as_bytes())
            .expect("round-trip stream parse cannot fail");
        let streamed = PipelineRun {
            races: det.report.n_races() as u64,
            ttfr: det
                .report
                .stats
                .time_to_first_race
                .unwrap_or(det.report.stats.wall_time),
            wall: t0.elapsed(),
            peak: det.report.stats.peak_window_residency as u64,
        };

        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"events\": {}, \"windows\": {},\n     ",
            w.name,
            w.trace.len(),
            windows,
        );
        write_run(&mut out, "whole_file", &whole);
        out.push_str(",\n     ");
        write_run(&mut out, "streamed", &streamed);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Integer fields each pipeline sub-object must carry, all non-negative.
const RUN_INT_KEYS: [&str; 4] = ["races", "ttfr_us", "wall_time_us", "peak_window_residency"];

/// Validates a `BENCH_pr4.json` document: version/suite/mode tags,
/// required keys, non-negative integers, `races` equality between the two
/// pipelines and both pipelines' peak window residency within
/// `2 * jobs + 3` on every workload, and — for `"full"` documents — the
/// streamed pipeline strictly ahead on TTFR for the largest workload.
/// Returns a description of the first violation.
pub fn validate_stream_bench_json(json: &str) -> Result<(), String> {
    let doc = parse_json(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = doc
        .field("schema_version")
        .and_then(|v| v.as_int())
        .map_err(|e| e.to_string())?;
    if version != STREAM_BENCH_SCHEMA_VERSION as i64 {
        return Err(format!(
            "schema_version is {version}, expected {STREAM_BENCH_SCHEMA_VERSION}"
        ));
    }
    let suite = doc
        .field("suite")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if suite != STREAM_BENCH_SUITE {
        return Err(format!(
            "suite is `{suite}`, expected `{STREAM_BENCH_SUITE}`"
        ));
    }
    let mode = doc
        .field("mode")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode is `{mode}`, expected `smoke` or `full`"));
    }
    let mut jobs = 0;
    for key in ["jobs", "window_size"] {
        let v = doc
            .field(key)
            .and_then(|v| v.as_int())
            .map_err(|e| format!("{key}: {e}"))?;
        if v <= 0 {
            return Err(format!("{key} must be positive, got {v}"));
        }
        if key == "jobs" {
            jobs = v;
        }
    }
    let residency_bound = 2 * jobs + 3;
    let entries = doc
        .field("workloads")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .map_err(|e| format!("workloads: {e}"))?;
    if entries.is_empty() {
        return Err("workloads array is empty".into());
    }
    let mut largest: Option<(i64, String, i64, i64)> = None;
    for (i, entry) in entries.iter().enumerate() {
        let name = entry
            .field("name")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| format!("workloads[{i}].name: {e}"))?;
        let top = |key: &str| -> Result<i64, String> {
            let v = entry
                .field(key)
                .and_then(|v| v.as_int())
                .map_err(|e| format!("workload `{name}`: {key}: {e}"))?;
            if v < 0 {
                return Err(format!("workload `{name}`: {key} is negative ({v})"));
            }
            Ok(v)
        };
        let events = top("events")?;
        top("windows")?;
        let mut runs = [0i64; 8];
        for (r, run_key) in ["whole_file", "streamed"].into_iter().enumerate() {
            let run = entry
                .field(run_key)
                .map_err(|e| format!("workload `{name}`: {run_key}: {e}"))?;
            for (k, key) in RUN_INT_KEYS.into_iter().enumerate() {
                let v = run
                    .field(key)
                    .and_then(|v| v.as_int())
                    .map_err(|e| format!("workload `{name}`: {run_key}.{key}: {e}"))?;
                if v < 0 {
                    return Err(format!(
                        "workload `{name}`: {run_key}.{key} is negative ({v})"
                    ));
                }
                runs[r * 4 + k] = v;
            }
        }
        let [w_races, w_ttfr, _, w_peak, s_races, s_ttfr, _, s_peak] = runs;
        if w_races != s_races {
            return Err(format!(
                "workload `{name}`: whole_file found {w_races} race(s) but streamed \
                 found {s_races} — streaming must not change the verdict"
            ));
        }
        for (run_key, peak) in [("whole_file", w_peak), ("streamed", s_peak)] {
            if peak > residency_bound {
                return Err(format!(
                    "workload `{name}`: {run_key} peak_window_residency ({peak}) exceeds \
                     the pool bound 2 * jobs + 3 = {residency_bound}"
                ));
            }
        }
        if largest.as_ref().is_none_or(|(e, ..)| events > *e) {
            largest = Some((events, name, w_ttfr, s_ttfr));
        }
    }
    if mode == "full" {
        let (_, name, w_ttfr, s_ttfr) = largest.expect("workloads array checked non-empty");
        if s_ttfr >= w_ttfr {
            return Err(format!(
                "workload `{name}`: streamed ttfr_us ({s_ttfr}) is not strictly ahead \
                 of whole_file ({w_ttfr})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_stream_pipeline_emits_valid_document() {
        let json = run_stream_pipeline(
            &smoke_stream_workloads(),
            &StreamBenchOptions::default(),
            "smoke",
        );
        validate_stream_bench_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"suite\": \"pr4\""), "{json}");
        assert!(json.contains("\"name\": \"stream_small\""), "{json}");
    }

    #[test]
    fn validator_rejects_tampered_documents() {
        let json = run_stream_pipeline(
            &smoke_stream_workloads(),
            &StreamBenchOptions::default(),
            "smoke",
        );
        let wrong_version = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(validate_stream_bench_json(&wrong_version)
            .unwrap_err()
            .contains("schema_version"));
        let wrong_suite = json.replace("\"suite\": \"pr4\"", "\"suite\": \"pr3\"");
        assert!(validate_stream_bench_json(&wrong_suite)
            .unwrap_err()
            .contains("suite"));
        assert!(validate_stream_bench_json("not json").is_err());
        assert!(validate_stream_bench_json("{}").is_err());
    }

    #[test]
    fn validator_enforces_verdict_equality_and_full_mode_ordering() {
        // Hand-built document: races disagree between the pipelines.
        let disagreeing = r#"{
  "schema_version": 1, "suite": "pr4", "mode": "smoke",
  "jobs": 1, "window_size": 10,
  "workloads": [
    {"name": "w", "events": 10, "windows": 1,
     "whole_file": {"races": 1, "ttfr_us": 5, "wall_time_us": 9, "peak_window_residency": 1},
     "streamed": {"races": 2, "ttfr_us": 5, "wall_time_us": 9, "peak_window_residency": 1}}
  ]
}"#;
        assert!(validate_stream_bench_json(disagreeing)
            .unwrap_err()
            .contains("verdict"));
        // Full mode: streamed not ahead on TTFR for the largest workload.
        let not_ahead = r#"{
  "schema_version": 1, "suite": "pr4", "mode": "full",
  "jobs": 1, "window_size": 10,
  "workloads": [
    {"name": "w", "events": 10, "windows": 1,
     "whole_file": {"races": 1, "ttfr_us": 5, "wall_time_us": 9, "peak_window_residency": 4},
     "streamed": {"races": 1, "ttfr_us": 8, "wall_time_us": 9, "peak_window_residency": 1}}
  ]
}"#;
        assert!(validate_stream_bench_json(not_ahead)
            .unwrap_err()
            .contains("ttfr"));
        // Same document in smoke mode passes: ordering is not enforced.
        let smoke = not_ahead.replace("\"mode\": \"full\"", "\"mode\": \"smoke\"");
        validate_stream_bench_json(&smoke).unwrap();
        // Either pipeline past the pool bound (2 * 1 + 3 = 5) is rejected,
        // in every mode.
        for (run, from) in [
            ("whole_file", "\"peak_window_residency\": 4}"),
            ("streamed", "\"peak_window_residency\": 1}"),
        ] {
            let over = smoke.replace(from, "\"peak_window_residency\": 6}");
            let err = validate_stream_bench_json(&over).unwrap_err();
            assert!(
                err.contains(&format!("{run} peak_window_residency (6)")),
                "{err}"
            );
        }
        // The pre-shared-pool history document fails the bound.
        let history = include_str!("../../../BENCH_pr4.json");
        assert!(validate_stream_bench_json(history)
            .unwrap_err()
            .contains("whole_file peak_window_residency (51)"));
    }
}
