//! Document invariants on the synthetic bench workloads: the facts the
//! `BENCH_pr3`–`BENCH_pr7` documents used to carry, checked against what
//! the product itself emits — the CLI's versioned `--metrics` document
//! and the session manager's reports — on the same workloads
//! (`rvsim::workloads::synthetic`) those documents measured.
//!
//! Each test parses the document with the in-tree JSON reader and asserts
//! the verdict counters and their partitions; wall-clock sections are
//! never compared.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Barrier;

use rvpredict::{parse_json, DetectorConfig, RaceDetector, SessionConfig, SessionManager};
use rvsim::workloads::synthetic::{
    flag_handoff_workload, racy_stream_workload, tenant_mix_workload,
};
use rvsim::workloads::Workload;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rvpredict")
}

fn dir() -> PathBuf {
    let dir = std::env::temp_dir().join("rvpredict-document-invariants");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serializes `w` to `<name>.json` and returns the path.
fn write_trace(w: &Workload, name: &str) -> PathBuf {
    let path = dir().join(format!("{name}.json"));
    std::fs::write(&path, rvpredict::to_json(&w.trace)).unwrap();
    path
}

/// Runs the CLI with `--metrics` and returns the raw document.
fn metrics_document(trace: &PathBuf, args: &[&str], out_name: &str) -> String {
    let metrics_path = dir().join(out_name);
    let out = Command::new(bin())
        .args(args)
        .args(["--metrics", metrics_path.to_str().unwrap()])
        .arg(trace)
        .output()
        .expect("binary runs");
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "clean or racy exit expected; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(&metrics_path).expect("metrics file written")
}

/// Parses a `--metrics` document, checks its schema tag and returns an
/// accessor for one of its `counters`.
fn counters(doc: &str) -> impl Fn(&str) -> i64 {
    let parsed = parse_json(doc).expect("metrics document parses with rvtrace::parse_json");
    assert_eq!(
        parsed
            .field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        rvpredict::METRICS_SCHEMA_VERSION as i64
    );
    let counters = parsed.field("counters").expect("counters section").clone();
    move |key: &str| {
        counters
            .field(key)
            .and_then(|v| v.as_int())
            .unwrap_or_else(|e| panic!("counter `{key}`: {e}"))
    }
}

/// The document up to its `timings_us` section: exactly the count-type
/// counters and histograms.
fn count_sections(doc: &str) -> &str {
    let cut = doc
        .find("  \"timings_us\": {")
        .unwrap_or_else(|| panic!("no timings_us section in {doc}"));
    &doc[..cut]
}

/// The smoke run (Figure 1): one predictable race, and the verdict and
/// tier counters each partition the decided COPs.
#[test]
fn smoke_run_parses_and_keeps_invariants() {
    let path = write_trace(&rvsim::workloads::figures::figure1(), "smoke_figure1");
    let doc = metrics_document(&path, &[], "smoke_figure1-metrics.json");
    let c = counters(&doc);
    // Figure 1 is the paper's motivating example: one predictable race.
    assert_eq!(c("detector.races"), 1);
    assert!(c("trace.events") > 0);
    assert_eq!(
        c("detector.cops_solved"),
        c("detector.sat") + c("detector.unsat") + c("detector.undecided")
    );
    assert_eq!(
        c("detector.cops_solved"),
        c("detector.tiers.confirmed") + c("detector.tiers.refuted") + c("detector.tiers.residue")
    );
    assert!(c("solver.decisions") >= 0);
}

/// Count-type sections do not vary run to run: two identical runs over a
/// multi-window trace differ at most in their wall-clock timings.
#[test]
fn smoke_run_counters_are_deterministic() {
    let path = write_trace(&racy_stream_workload("smoke_det", 600), "smoke_det");
    let args = ["--window", "100", "--jobs", "4"];
    let a = metrics_document(&path, &args, "smoke_det-a.json");
    let b = metrics_document(&path, &args, "smoke_det-b.json");
    assert!(counters(&a)("detector.windows") > 1);
    assert_eq!(
        count_sections(&a),
        count_sections(&b),
        "count-type metrics must not vary run to run"
    );
}

/// The streaming workload: whole-file and `--stream` runs find the one
/// planted race over several windows, and each keeps window residency
/// within the worker pool plus its queue.
#[test]
fn stream_run_parses_and_keeps_invariants() {
    let path = write_trace(&racy_stream_workload("schema_tiny", 60), "stream_tiny");
    let jobs = 2;
    let mut races = Vec::new();
    for (mode, extra) in [("whole_file", None), ("streamed", Some("--stream"))] {
        let mut args = vec!["--window", "20", "--jobs", "2"];
        args.extend(extra);
        let doc = metrics_document(&path, &args, &format!("stream_tiny-{mode}.json"));
        let c = counters(&doc);
        assert!(c("trace.events") > 0, "{mode}");
        assert!(c("detector.windows") > 1, "{mode}");
        let parsed = parse_json(&doc).unwrap();
        let peak = parsed
            .field("gauges")
            .and_then(|g| g.field("stream.peak_window_residency"))
            .and_then(|v| v.as_int())
            .unwrap();
        assert!(
            (1..=2 * jobs + 3).contains(&peak),
            "{mode}: residency {peak} exceeds the pool bound"
        );
        races.push(c("detector.races"));
    }
    // Streaming must not change the verdict.
    assert_eq!(races[0], races[1]);
    assert_eq!(races[0], 1, "the workload plants exactly one race");
}

/// The tier workload (flag handoffs): the cascade changes no verdict,
/// its counters partition the decided COPs, and on this workload it
/// leaves the solver idle; without it every COP is solved and the tier
/// counters stay zero.
#[test]
fn tier_run_parses_and_keeps_invariants() {
    let path = write_trace(&flag_handoff_workload("tier_small", 2, 4), "tier_small");
    let tiers_doc = metrics_document(&path, &[], "tier_small-tiers.json");
    let no_tiers_doc = metrics_document(&path, &["--no-tiers"], "tier_small-no-tiers.json");
    let tiers = counters(&tiers_doc);
    let no_tiers = counters(&no_tiers_doc);
    assert!(tiers("trace.events") > 0);
    for what in ["races", "sat", "unsat", "cops_solved"] {
        let key = format!("detector.{what}");
        assert_eq!(tiers(&key), no_tiers(&key), "{what}");
    }
    assert_eq!(tiers("detector.races"), 1, "the workload plants one race");
    assert_eq!(
        tiers("detector.tiers.confirmed")
            + tiers("detector.tiers.refuted")
            + tiers("detector.tiers.residue"),
        tiers("detector.cops_solved")
    );
    assert_eq!(tiers("solver.solves"), 0);
    assert_eq!(no_tiers("solver.solves"), no_tiers("detector.cops_solved"));
    for counter in ["confirmed", "refuted", "residue"] {
        assert_eq!(
            no_tiers(&format!("detector.tiers.{counter}")),
            0,
            "{counter}"
        );
    }
}

/// The tenant-mix workload: two sessions multiplexed over one worker each
/// report exactly their solo run, find the planted race and shed nothing,
/// while a third session killed mid-stream is torn down.
#[test]
fn serve_run_parses_and_keeps_invariants() {
    let tenants = [
        tenant_mix_workload("schema_a", 10),
        tenant_mix_workload("schema_b", 14),
    ];
    let config = |i: usize| DetectorConfig {
        window_size: 300,
        parallelism: 1,
        tiers: i % 2 == 0,
        ..Default::default()
    };
    let solo: Vec<String> = tenants
        .iter()
        .enumerate()
        .map(|(i, w)| {
            RaceDetector::with_config(config(i))
                .detect(&w.trace)
                .deterministic_summary()
        })
        .collect();
    let manager = SessionManager::new(1);
    let start = Barrier::new(tenants.len() + 1);
    let kill_bytes = rvpredict::to_ndjson(&tenants[0].trace);
    std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let (manager, start) = (&manager, &start);
                scope.spawn(move || {
                    let bytes = rvpredict::to_ndjson(&w.trace);
                    let mut session = manager.open_session(SessionConfig {
                        detector: config(i),
                        ..Default::default()
                    });
                    start.wait();
                    for chunk in bytes.as_bytes().chunks(127) {
                        session.feed(chunk).expect("tenant trace is well-formed");
                    }
                    session.finish().expect("tenant session completes")
                })
            })
            .collect();
        let victim = {
            let (manager, start, bytes) = (&manager, &start, &kill_bytes);
            scope.spawn(move || {
                let mut session = manager.open_session(SessionConfig::default());
                start.wait();
                let fed = &bytes.as_bytes()[..bytes.len() / 2];
                assert!(!fed.is_empty());
                let _ = session.feed(fed);
                session.abort("killed mid-stream").to_string()
            })
        };
        for (i, h) in handles.into_iter().enumerate() {
            let outcome = h.join().expect("tenant thread survives");
            assert!(!outcome.trace.is_empty());
            // Every tenant-mix trace plants exactly one real race at the head.
            assert_eq!(outcome.report.n_races(), 1, "tenant {i}");
            assert_eq!(outcome.shed_windows, 0, "tenant {i}");
            // A shared pool must not change any tenant's report.
            assert_eq!(
                outcome.report.deterministic_summary(),
                solo[i],
                "tenant {i} drifted from its solo run"
            );
        }
        let killed = victim.join().expect("victim thread survives");
        assert!(killed.contains("torn down"), "{killed}");
    });
}
