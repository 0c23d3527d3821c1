//! Schema tests for the bench harnesses: `BENCH_pr3.json` (the
//! observability PR's detection pipeline), `BENCH_pr4.json` (the
//! streaming PR's whole-file-vs-streamed comparison), `BENCH_pr5.json`
//! (the relevance-slicing on/off comparison), `BENCH_pr6.json` (the
//! tiered-cascade on/off comparison), `BENCH_pr7.json` (the
//! multi-tenant session manager vs solo runs), `BENCH_pr8.json` (the
//! fixed-vs-cone window-mode comparison on boundary-handoff workloads)
//! and `BENCH_pr9.json` (the multi-class violation benchmark behind the
//! `--kind` axis). Each smoke run must emit a document that validates,
//! parses with the in-tree JSON reader, and carries the invariants the
//! schema documents.
//!
//! When `BENCH_PR3_PATH` / `BENCH_PR4_PATH` / `BENCH_PR5_PATH` /
//! `BENCH_PR6_PATH` / `BENCH_PR7_PATH` / `BENCH_PR8_PATH` /
//! `BENCH_PR9_PATH` are set (CI's bench-smoke steps export them after
//! running the `pipeline`, `stream_pipeline`, `slice_pipeline`,
//! `tier_pipeline`, `serve_pipeline`, `boundary_pipeline` and
//! `kind_pipeline` binaries), the files they name are validated too, so
//! a committed or freshly generated document cannot drift from the
//! schema.

use rvbench::boundary::{
    run_boundary_pipeline, smoke_boundary_workloads, validate_boundary_bench_json,
    BoundaryBenchOptions, BOUNDARY_BENCH_SCHEMA_VERSION, BOUNDARY_BENCH_SUITE,
};
use rvbench::kind::{
    run_kind_pipeline, smoke_kind_workloads, validate_kind_bench_json, KindBenchOptions,
    KIND_BENCH_SCHEMA_VERSION, KIND_BENCH_SUITE,
};
use rvbench::pipeline::{
    run_pipeline, smoke_workloads, validate_bench_json, PipelineOptions, BENCH_SCHEMA_VERSION,
};
use rvbench::serve::{
    run_serve_pipeline, tenant_mix_workload, validate_serve_bench_json, ServeBenchOptions,
    SERVE_BENCH_SCHEMA_VERSION, SERVE_BENCH_SUITE,
};
use rvbench::slice::{
    run_slice_pipeline, validate_slice_bench_json, wide_window_workload, SliceBenchOptions,
    SLICE_BENCH_SCHEMA_VERSION, SLICE_BENCH_SUITE,
};
use rvbench::stream::{
    racy_stream_workload, run_stream_pipeline, validate_stream_bench_json, StreamBenchOptions,
    STREAM_BENCH_SCHEMA_VERSION, STREAM_BENCH_SUITE,
};
use rvbench::tier::{
    run_tier_pipeline, smoke_tier_workloads, validate_tier_bench_json, TierBenchOptions,
    TIER_BENCH_SCHEMA_VERSION, TIER_BENCH_SUITE,
};
use rvtrace::parse_json;

/// Validates the bench document a CI env var points at against the
/// suite's own validator. A no-op when the variable is unset, so plain
/// `cargo test` needs no generated artifacts.
fn validate_env_bench_file(var: &str, validate: fn(&str) -> Result<(), String>) {
    let Ok(path) = std::env::var(var) else {
        return;
    };
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{var}={path} is unreadable: {e}"));
    validate(&json).unwrap_or_else(|e| panic!("{path} violates the schema: {e}"));
}

fn smoke_document() -> String {
    run_pipeline(&smoke_workloads(), &PipelineOptions::default())
}

/// The smoke pipeline (Figure 1 only) emits a valid version-1 document.
#[test]
fn smoke_run_validates_against_schema() {
    let json = smoke_document();
    validate_bench_json(&json).unwrap_or_else(|e| panic!("schema violation: {e}\n{json}"));
}

/// Cross-check the emitted document with the in-tree parser: tags, the
/// verdict partition, and totals consistency — independent of the
/// validator's own logic.
#[test]
fn smoke_run_parses_and_keeps_invariants() {
    let json = smoke_document();
    let doc = parse_json(&json).expect("document must parse with rvtrace::parse_json");
    assert_eq!(
        doc.field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        BENCH_SCHEMA_VERSION as i64
    );
    assert_eq!(doc.field("suite").and_then(|v| v.as_str()).unwrap(), "pr3");
    let entries = doc.field("workloads").and_then(|v| v.as_array()).unwrap();
    assert_eq!(entries.len(), 1, "smoke mode runs exactly Figure 1");
    let w = &entries[0];
    let int = |key: &str| w.field(key).and_then(|v| v.as_int()).unwrap();
    assert!(w
        .field("name")
        .and_then(|v| v.as_str())
        .unwrap()
        .starts_with("example"));
    // Figure 1 is the paper's motivating example: one predictable race.
    assert_eq!(int("races"), 1);
    assert!(int("events") > 0);
    assert_eq!(
        int("cops_solved"),
        int("sat") + int("unsat") + int("undecided")
    );
    assert!(int("solver_decisions") >= 0);
    let totals = doc.field("totals").unwrap();
    let total = |key: &str| totals.field(key).and_then(|v| v.as_int()).unwrap();
    assert_eq!(total("workloads"), 1);
    assert_eq!(total("events"), int("events"));
    assert_eq!(total("races"), int("races"));
    assert_eq!(total("cops_solved"), int("cops_solved"));
}

/// Count-type fields of the document are deterministic for a given build:
/// two runs differ only in the `*_time_us` wall-clock fields.
#[test]
fn smoke_run_counters_are_deterministic() {
    let strip_times = |json: &str| -> String {
        json.lines()
            .map(|l| {
                let mut l = l.to_string();
                for key in ["wall_time_us", "solver_time_us"] {
                    if let Some(start) = l.find(&format!("\"{key}\": ")) {
                        let rest = &l[start..];
                        let end = rest
                            .find(|c: char| c == ',' || c == '}')
                            .unwrap_or(rest.len());
                        l = format!("{}\"{key}\": X{}", &l[..start], &l[start + end..]);
                    }
                }
                l
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = strip_times(&smoke_document());
    let b = strip_times(&smoke_document());
    assert_eq!(a, b, "count-type fields must not vary run to run");
}

/// The validator is load-bearing: corrupted documents must be rejected
/// with a pointed message.
#[test]
fn validator_rejects_corruption() {
    let json = smoke_document();
    for (needle, replacement, expect) in [
        ("\"suite\": \"pr3\"", "\"suite\": \"pr4\"", "suite"),
        (
            "\"schema_version\": 1",
            "\"schema_version\": 2",
            "schema_version",
        ),
        ("\"sat\": 1", "\"sat\": 2", "cops_solved"),
        ("\"workloads\": 1", "\"workloads\": 7", "totals.workloads"),
    ] {
        let tampered = json.replace(needle, replacement);
        assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
        let err = validate_bench_json(&tampered)
            .expect_err(&format!("tampering `{needle}` must be rejected"));
        assert!(
            err.contains(expect),
            "error for `{needle}` should mention `{expect}`, got: {err}"
        );
    }
}

/// When CI (or a developer) points `BENCH_PR3_PATH` at a generated
/// `BENCH_pr3.json`, it must satisfy the same schema. Skipped when the
/// variable is unset so plain `cargo test` needs no artifacts.
#[test]
fn generated_bench_file_validates_when_present() {
    validate_env_bench_file("BENCH_PR3_PATH", validate_bench_json);
}

// ---------------------------------------------------------- BENCH_pr4

/// A deliberately tiny streaming workload: the schema tests need the
/// document's shape, not the smoke workload's scale.
fn stream_document() -> String {
    let w = racy_stream_workload("schema_tiny", 60);
    let opts = StreamBenchOptions {
        window_size: 20,
        ..Default::default()
    };
    run_stream_pipeline(&[w], &opts, "smoke")
}

/// The streaming comparison emits a valid version-1 `pr4` document.
#[test]
fn stream_run_validates_against_schema() {
    let json = stream_document();
    validate_stream_bench_json(&json).unwrap_or_else(|e| panic!("schema violation: {e}\n{json}"));
}

/// Cross-check with the in-tree parser: tags, the races-equality
/// invariant, and per-pipeline key completeness — independent of the
/// validator's own logic.
#[test]
fn stream_run_parses_and_keeps_invariants() {
    let json = stream_document();
    let doc = parse_json(&json).expect("document must parse with rvtrace::parse_json");
    assert_eq!(
        doc.field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        STREAM_BENCH_SCHEMA_VERSION as i64
    );
    assert_eq!(
        doc.field("suite").and_then(|v| v.as_str()).unwrap(),
        STREAM_BENCH_SUITE
    );
    assert_eq!(doc.field("mode").and_then(|v| v.as_str()).unwrap(), "smoke");
    let entries = doc.field("workloads").and_then(|v| v.as_array()).unwrap();
    assert_eq!(entries.len(), 1);
    let w = &entries[0];
    assert!(w.field("events").and_then(|v| v.as_int()).unwrap() > 0);
    assert!(w.field("windows").and_then(|v| v.as_int()).unwrap() > 1);
    let races = |pipeline: &str| {
        w.field(pipeline)
            .and_then(|p| p.field("races"))
            .and_then(|v| v.as_int())
            .unwrap()
    };
    // The determinism contract, measured end to end: streaming must not
    // change the verdict.
    assert_eq!(races("whole_file"), races("streamed"));
    assert_eq!(
        races("whole_file"),
        1,
        "the workload plants exactly one race"
    );
}

/// The streaming validator rejects tampered documents pointedly.
#[test]
fn stream_validator_rejects_corruption() {
    let json = stream_document();
    for (needle, replacement, expect) in [
        ("\"suite\": \"pr4\"", "\"suite\": \"pr3\"", "suite"),
        (
            "\"schema_version\": 1",
            "\"schema_version\": 9",
            "schema_version",
        ),
        ("\"mode\": \"smoke\"", "\"mode\": \"casual\"", "mode"),
    ] {
        let tampered = json.replace(needle, replacement);
        assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
        let err = validate_stream_bench_json(&tampered)
            .expect_err(&format!("tampering `{needle}` must be rejected"));
        assert!(
            err.contains(expect),
            "error for `{needle}` should mention `{expect}`, got: {err}"
        );
    }
    // A verdict mismatch between the pipelines is a determinism violation
    // the validator must catch.
    let tampered = json.replacen("\"races\": 1", "\"races\": 2", 1);
    assert_ne!(tampered, json);
    let err = validate_stream_bench_json(&tampered).expect_err("races mismatch must be rejected");
    assert!(err.contains("must not change the verdict"), "got: {err}");
}

/// When CI (or a developer) points `BENCH_PR4_PATH` at a generated
/// `BENCH_pr4.json`, it must satisfy the same schema — including, for
/// `"full"` documents, the streamed pipeline strictly ahead on the
/// largest workload. Skipped when the variable is unset.
#[test]
fn generated_stream_bench_file_validates_when_present() {
    validate_env_bench_file("BENCH_PR4_PATH", validate_stream_bench_json);
}

// ---------------------------------------------------------- BENCH_pr5

/// A deliberately tiny wide-window workload: shape over scale.
fn slice_document() -> String {
    let w = wide_window_workload("schema_tiny", 2, 3);
    run_slice_pipeline(&[w], &SliceBenchOptions::default(), "smoke")
}

/// The slicing comparison emits a valid version-1 `pr5` document.
#[test]
fn slice_run_validates_against_schema() {
    let json = slice_document();
    validate_slice_bench_json(&json).unwrap_or_else(|e| panic!("schema violation: {e}\n{json}"));
}

/// Cross-check with the in-tree parser: tags, the races-equality
/// invariant, and the cone actually shrinking — independent of the
/// validator's own logic.
#[test]
fn slice_run_parses_and_keeps_invariants() {
    let json = slice_document();
    let doc = parse_json(&json).expect("document must parse with rvtrace::parse_json");
    assert_eq!(
        doc.field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        SLICE_BENCH_SCHEMA_VERSION as i64
    );
    assert_eq!(
        doc.field("suite").and_then(|v| v.as_str()).unwrap(),
        SLICE_BENCH_SUITE
    );
    assert_eq!(doc.field("mode").and_then(|v| v.as_str()).unwrap(), "smoke");
    let entries = doc.field("workloads").and_then(|v| v.as_array()).unwrap();
    assert_eq!(entries.len(), 1);
    let w = &entries[0];
    assert!(w.field("events").and_then(|v| v.as_int()).unwrap() > 0);
    let run = |key: &str, field: &str| {
        w.field(key)
            .and_then(|p| p.field(field))
            .and_then(|v| v.as_int())
            .unwrap()
    };
    // The soundness contract, measured end to end: slicing must not
    // change the verdict.
    assert_eq!(run("sliced", "races"), run("unsliced", "races"));
    assert!(
        run("sliced", "races") >= 1,
        "the workload plants a real race"
    );
    // The cone must actually shrink, and only in the sliced run.
    assert!(run("sliced", "cone_events") < run("sliced", "window_events"));
    assert_eq!(
        run("unsliced", "cone_events"),
        run("unsliced", "window_events")
    );
    assert!(run("sliced", "constraints") < run("unsliced", "constraints"));
}

/// The slicing validator rejects tampered documents pointedly.
#[test]
fn slice_validator_rejects_corruption() {
    let json = slice_document();
    for (needle, replacement, expect) in [
        ("\"suite\": \"pr5\"", "\"suite\": \"pr4\"", "suite"),
        (
            "\"schema_version\": 1",
            "\"schema_version\": 9",
            "schema_version",
        ),
        ("\"mode\": \"smoke\"", "\"mode\": \"casual\"", "mode"),
    ] {
        let tampered = json.replace(needle, replacement);
        assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
        let err = validate_slice_bench_json(&tampered)
            .expect_err(&format!("tampering `{needle}` must be rejected"));
        assert!(
            err.contains(expect),
            "error for `{needle}` should mention `{expect}`, got: {err}"
        );
    }
    // A verdict mismatch between the runs is a soundness violation the
    // validator must catch.
    let tampered = json.replacen("\"races\": 2", "\"races\": 3", 1);
    if tampered != json {
        let err =
            validate_slice_bench_json(&tampered).expect_err("races mismatch must be rejected");
        assert!(err.contains("must not change the verdict"), "got: {err}");
    }
}

/// When CI (or a developer) points `BENCH_PR5_PATH` at a generated
/// `BENCH_pr5.json`, it must satisfy the same schema — including, for
/// `"full"` documents, the ≥2x constraint reduction and ≥1.5x speedup on
/// the largest workload. Skipped when the variable is unset.
#[test]
fn generated_slice_bench_file_validates_when_present() {
    validate_env_bench_file("BENCH_PR5_PATH", validate_slice_bench_json);
}

// ---------------------------------------------------------- BENCH_pr6

/// A deliberately tiny tier-cascade workload: shape over scale.
fn tier_document() -> String {
    run_tier_pipeline(
        &smoke_tier_workloads(),
        &TierBenchOptions::default(),
        "smoke",
    )
}

/// The cascade comparison emits a valid version-1 `pr6` document.
#[test]
fn tier_run_validates_against_schema() {
    let json = tier_document();
    validate_tier_bench_json(&json).unwrap_or_else(|e| panic!("schema violation: {e}\n{json}"));
}

/// Cross-check with the in-tree parser: tags, the verdict-equality
/// invariant, the tier partition, and the solver actually going quiet in
/// the cascaded run — independent of the validator's own logic.
#[test]
fn tier_run_parses_and_keeps_invariants() {
    let json = tier_document();
    let doc = parse_json(&json).expect("document must parse with rvtrace::parse_json");
    assert_eq!(
        doc.field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        TIER_BENCH_SCHEMA_VERSION as i64
    );
    assert_eq!(
        doc.field("suite").and_then(|v| v.as_str()).unwrap(),
        TIER_BENCH_SUITE
    );
    assert_eq!(doc.field("mode").and_then(|v| v.as_str()).unwrap(), "smoke");
    let entries = doc.field("workloads").and_then(|v| v.as_array()).unwrap();
    assert_eq!(entries.len(), 1);
    let w = &entries[0];
    assert!(w.field("events").and_then(|v| v.as_int()).unwrap() > 0);
    let run = |key: &str, field: &str| {
        w.field(key)
            .and_then(|p| p.field(field))
            .and_then(|v| v.as_int())
            .unwrap()
    };
    // The soundness contract, measured end to end: the cascade must not
    // change the verdict.
    for what in ["races", "sat", "unsat", "cops_solved"] {
        assert_eq!(run("tiers", what), run("no_tiers", what), "{what}");
    }
    assert_eq!(run("tiers", "races"), 1, "the workload plants one race");
    // Every COP is attributed to exactly one stage, and on this workload
    // the screens decide everything — zero solver calls.
    assert_eq!(
        run("tiers", "tier_confirmed")
            + run("tiers", "tier_refuted")
            + run("tiers", "tier_residue"),
        run("tiers", "cops_solved")
    );
    assert_eq!(run("tiers", "solver_solves"), 0);
    assert_eq!(
        run("no_tiers", "solver_solves"),
        run("no_tiers", "cops_solved")
    );
    for counter in ["tier_confirmed", "tier_refuted", "tier_residue"] {
        assert_eq!(run("no_tiers", counter), 0, "{counter}");
    }
}

/// The cascade validator rejects tampered documents pointedly.
#[test]
fn tier_validator_rejects_corruption() {
    let json = tier_document();
    for (needle, replacement, expect) in [
        ("\"suite\": \"pr6\"", "\"suite\": \"pr5\"", "suite"),
        (
            "\"schema_version\": 1",
            "\"schema_version\": 9",
            "schema_version",
        ),
        ("\"mode\": \"smoke\"", "\"mode\": \"casual\"", "mode"),
        // A verdict mismatch between the runs is a soundness violation.
        (
            "\"races\": 1",
            "\"races\": 2",
            "must not change the verdict",
        ),
    ] {
        let tampered = json.replacen(needle, replacement, 1);
        assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
        let err = validate_tier_bench_json(&tampered)
            .expect_err(&format!("tampering `{needle}` must be rejected"));
        assert!(
            err.contains(expect),
            "error for `{needle}` should mention `{expect}`, got: {err}"
        );
    }
}

/// When CI (or a developer) points `BENCH_PR6_PATH` at a generated
/// `BENCH_pr6.json`, it must satisfy the same schema — including, for
/// `"full"` documents, the ≥2x solver-call reduction and ≥1.3x speedup on
/// the largest workload. Skipped when the variable is unset.
#[test]
fn generated_tier_bench_file_validates_when_present() {
    validate_env_bench_file("BENCH_PR6_PATH", validate_tier_bench_json);
}

// ---------------------------------------------------------- BENCH_pr7

/// A deliberately tiny tenant pair: shape over scale. Two sessions over
/// one worker so even the schema run genuinely multiplexes.
fn serve_document() -> String {
    let tenants = vec![
        tenant_mix_workload("schema_a", 10),
        tenant_mix_workload("schema_b", 14),
    ];
    let opts = ServeBenchOptions {
        workers: 1,
        ..Default::default()
    };
    run_serve_pipeline(&tenants, &opts, "smoke")
}

/// The multi-tenant comparison emits a valid version-1 `pr7` document.
#[test]
fn serve_run_validates_against_schema() {
    let json = serve_document();
    validate_serve_bench_json(&json).unwrap_or_else(|e| panic!("schema violation: {e}\n{json}"));
}

/// Cross-check with the in-tree parser: tags, every session matching its
/// solo run, the planted race found by every tenant, zero shed windows,
/// zero cross-session diffs, and the killed tenant torn down —
/// independent of the validator's own logic.
#[test]
fn serve_run_parses_and_keeps_invariants() {
    let json = serve_document();
    let doc = parse_json(&json).expect("document must parse with rvtrace::parse_json");
    assert_eq!(
        doc.field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        SERVE_BENCH_SCHEMA_VERSION as i64
    );
    assert_eq!(
        doc.field("suite").and_then(|v| v.as_str()).unwrap(),
        SERVE_BENCH_SUITE
    );
    assert_eq!(doc.field("mode").and_then(|v| v.as_str()).unwrap(), "smoke");
    let entries = doc.field("sessions").and_then(|v| v.as_array()).unwrap();
    assert_eq!(entries.len(), 2);
    for s in entries {
        assert!(s.field("events").and_then(|v| v.as_int()).unwrap() > 0);
        // Every tenant-mix trace plants exactly one real race at the head.
        assert_eq!(s.field("races").and_then(|v| v.as_int()).unwrap(), 1);
        assert_eq!(s.field("shed_windows").and_then(|v| v.as_int()).unwrap(), 0);
        // The determinism contract, measured end to end: a shared pool
        // must not change any tenant's report.
        assert!(s.field("solo_match").and_then(|v| v.as_bool()).unwrap());
    }
    assert_eq!(
        doc.field("cross_session_diffs")
            .and_then(|v| v.as_int())
            .unwrap(),
        0
    );
    let killed = doc.field("killed_session").unwrap();
    assert!(killed.field("torn_down").and_then(|v| v.as_bool()).unwrap());
    assert!(killed.field("fed_bytes").and_then(|v| v.as_int()).unwrap() > 0);
}

/// The serve validator rejects tampered documents pointedly.
#[test]
fn serve_validator_rejects_corruption() {
    let json = serve_document();
    for (needle, replacement, expect) in [
        ("\"suite\": \"pr7\"", "\"suite\": \"pr6\"", "suite"),
        (
            "\"schema_version\": 1",
            "\"schema_version\": 9",
            "schema_version",
        ),
        ("\"mode\": \"smoke\"", "\"mode\": \"casual\"", "mode"),
        // A drifted tenant is a determinism violation.
        (
            "\"solo_match\": true",
            "\"solo_match\": false",
            "drifted from the standalone run",
        ),
        // An un-torn-down kill is an isolation violation.
        (
            "\"torn_down\": true",
            "\"torn_down\": false",
            "must be torn down",
        ),
    ] {
        let tampered = json.replacen(needle, replacement, 1);
        assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
        let err = validate_serve_bench_json(&tampered)
            .expect_err(&format!("tampering `{needle}` must be rejected"));
        assert!(
            err.contains(expect),
            "error for `{needle}` should mention `{expect}`, got: {err}"
        );
    }
}

/// When CI (or a developer) points `BENCH_PR7_PATH` at a generated
/// `BENCH_pr7.json`, it must satisfy the same schema — including, for
/// `"full"` documents, more sessions than workers. Skipped when the
/// variable is unset.
#[test]
fn generated_serve_bench_file_validates_when_present() {
    validate_env_bench_file("BENCH_PR7_PATH", validate_serve_bench_json);
}

// ---------------------------------------------------------- BENCH_pr8

/// The smoke workload set itself: it already contains the oracle micro
/// workload, a small handoff and the non-straddling control, and runs in
/// about a second.
fn boundary_document() -> String {
    run_boundary_pipeline(
        &smoke_boundary_workloads(),
        &BoundaryBenchOptions::default(),
        "smoke",
    )
}

/// The window-mode comparison emits a valid version-1 `pr8` document.
#[test]
fn boundary_run_validates_against_schema() {
    let json = boundary_document();
    validate_boundary_bench_json(&json).unwrap_or_else(|e| panic!("schema violation: {e}\n{json}"));
}

/// Cross-check with the in-tree parser: tags, the fixed-mode blindness
/// and cone-mode recovery on every straddling workload, mode equality on
/// the control, and at least one oracle-confirmed fixed-mode miss —
/// independent of the validator's own logic.
#[test]
fn boundary_run_parses_and_keeps_invariants() {
    let json = boundary_document();
    let doc = parse_json(&json).expect("document must parse with rvtrace::parse_json");
    assert_eq!(
        doc.field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        BOUNDARY_BENCH_SCHEMA_VERSION as i64
    );
    assert_eq!(
        doc.field("suite").and_then(|v| v.as_str()).unwrap(),
        BOUNDARY_BENCH_SUITE
    );
    assert_eq!(doc.field("mode").and_then(|v| v.as_str()).unwrap(), "smoke");
    // The smoke micro workload is oracle-arbitered: at least one race cone
    // mode reports and fixed mode misses is independently proved real.
    assert!(
        doc.field("oracle_confirmed_misses")
            .and_then(|v| v.as_int())
            .unwrap()
            >= 1
    );
    let entries = doc.field("workloads").and_then(|v| v.as_array()).unwrap();
    assert_eq!(entries.len(), 3);
    for w in entries {
        let straddling = w.field("straddling").and_then(|v| v.as_bool()).unwrap();
        let run = |key: &str, field: &str| {
            w.field(key)
                .and_then(|p| p.field(field))
                .and_then(|v| v.as_int())
                .unwrap()
        };
        // Fixed windows never look back: no straddle activity, ever.
        for counter in [
            "straddle_cops",
            "straddle_races",
            "boundary_over_budget",
            "spill_peak_events",
        ] {
            assert_eq!(run("fixed", counter), 0, "{counter}");
        }
        if straddling {
            // Every racing pair is astride a boundary by construction:
            // fixed mode is blind, the straddle pass recovers them all.
            assert_eq!(run("fixed", "races"), 0);
            assert!(run("cone", "races") >= 1);
            assert_eq!(run("cone", "races"), run("cone", "straddle_races"));
            assert_eq!(run("cone", "boundary_over_budget"), 0);
        } else {
            // Off the boundaries the modes must coincide exactly.
            for what in ["races", "straddle_races", "spill_peak_events", "undecided"] {
                assert_eq!(run("fixed", what), run("cone", what), "{what}");
            }
            assert!(run("fixed", "races") >= 1, "the control plants a race");
        }
    }
}

/// The window-mode validator rejects tampered documents pointedly.
#[test]
fn boundary_validator_rejects_corruption() {
    let json = boundary_document();
    for (needle, replacement, expect) in [
        ("\"suite\": \"pr8\"", "\"suite\": \"pr7\"", "suite"),
        (
            "\"schema_version\": 1",
            "\"schema_version\": 9",
            "schema_version",
        ),
        ("\"mode\": \"smoke\"", "\"mode\": \"casual\"", "mode"),
        // A fixed run with straddle activity breaks the mode contract.
        (
            "\"straddle_cops\": 0, \"straddle_races\": 0",
            "\"straddle_cops\": 1, \"straddle_races\": 0",
            "never look back",
        ),
        // Losing every oracle confirmation breaks the evidence chain.
        (
            "\"oracle_confirmed_misses\": 1",
            "\"oracle_confirmed_misses\": 0",
            "oracle_confirmed_misses",
        ),
    ] {
        let tampered = json.replacen(needle, replacement, 1);
        assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
        let err = validate_boundary_bench_json(&tampered)
            .expect_err(&format!("tampering `{needle}` must be rejected"));
        assert!(
            err.contains(expect),
            "error for `{needle}` should mention `{expect}`, got: {err}"
        );
    }
}

/// When CI (or a developer) points `BENCH_PR8_PATH` at a generated
/// `BENCH_pr8.json`, it must satisfy the same schema — fixed runs free of
/// straddle activity, spill residency within budget, cone strictly ahead
/// on straddling workloads, modes identical on the control, and at least
/// one oracle-confirmed miss. Skipped when the variable is unset.
#[test]
fn generated_boundary_bench_file_validates_when_present() {
    validate_env_bench_file("BENCH_PR8_PATH", validate_boundary_bench_json);
}

// ---------------------------------------------------------- BENCH_pr9

/// The smoke workload set itself: one micro workload per violation class
/// plus the gate-lock refutation control and the rwlock/channel
/// vocabulary controls — every one oracle-arbitered, sub-second.
fn kind_document() -> String {
    run_kind_pipeline(
        &smoke_kind_workloads(),
        &KindBenchOptions::default(),
        "smoke",
    )
}

/// The multi-class benchmark emits a valid version-1 `pr9` document.
#[test]
fn kind_run_validates_against_schema() {
    let json = kind_document();
    validate_kind_bench_json(&json).unwrap_or_else(|e| panic!("schema violation: {e}\n{json}"));
}

/// Cross-check with the in-tree parser: tags, full oracle agreement, all
/// three violation classes present, every verdict decided, the gate-lock
/// control refuted rather than missed — independent of the validator's
/// own logic.
#[test]
fn kind_run_parses_and_keeps_invariants() {
    let json = kind_document();
    let doc = parse_json(&json).expect("document must parse with rvtrace::parse_json");
    assert_eq!(
        doc.field("schema_version")
            .and_then(|v| v.as_int())
            .unwrap(),
        KIND_BENCH_SCHEMA_VERSION as i64
    );
    assert_eq!(
        doc.field("suite").and_then(|v| v.as_str()).unwrap(),
        KIND_BENCH_SUITE
    );
    assert_eq!(doc.field("mode").and_then(|v| v.as_str()).unwrap(), "smoke");
    // Every smoke workload is small enough for the brute-force oracle,
    // and the detectors must agree with it on each one.
    let checked = doc
        .field("oracle_checked")
        .and_then(|v| v.as_int())
        .unwrap();
    assert_eq!(checked, 6, "all six smoke workloads are oracle-arbitered");
    assert_eq!(
        doc.field("oracle_agreements")
            .and_then(|v| v.as_int())
            .unwrap(),
        checked
    );
    let entries = doc.field("workloads").and_then(|v| v.as_array()).unwrap();
    assert_eq!(entries.len(), 6);
    for w in entries {
        let name = w.field("name").and_then(|v| v.as_str()).unwrap();
        let expect = w
            .field("expect_violations")
            .and_then(|v| v.as_bool())
            .unwrap();
        let run = |field: &str| {
            w.field("run")
                .and_then(|r| r.field(field))
                .and_then(|v| v.as_int())
                .unwrap()
        };
        assert_eq!(run("unknown"), 0, "{name}: every candidate decided");
        assert_eq!(run("violations") > 0, expect, "{name}");
        if name == "deadlock_gated" {
            // The inverted pair exists syntactically; the gate lock makes
            // it infeasible. Enumeration must surface the candidate and
            // the solver must refute it.
            assert!(run("candidates") >= 1);
            assert!(run("unsat") >= 1);
            assert_eq!(run("sat"), 0);
        }
        if name == "deadlock_micro" {
            assert_eq!(run("violations"), 1, "one inversion, one cycle");
        }
    }
}

/// The kind validator rejects tampered documents pointedly.
#[test]
fn kind_validator_rejects_corruption() {
    let json = kind_document();
    for (needle, replacement, expect) in [
        ("\"suite\": \"pr9\"", "\"suite\": \"pr8\"", "suite"),
        (
            "\"schema_version\": 1",
            "\"schema_version\": 9",
            "schema_version",
        ),
        ("\"mode\": \"smoke\"", "\"mode\": \"casual\"", "mode"),
        // A detector/oracle split is the one thing this suite exists to
        // catch.
        (
            "\"oracle_agreements\": 6",
            "\"oracle_agreements\": 5",
            "oracle",
        ),
        // An undecided candidate on a micro workload breaks the contract.
        (
            "\"violations\": 1, \"candidates\": 1, \"sat\": 1, \"unsat\": 0, \"unknown\": 0",
            "\"violations\": 1, \"candidates\": 1, \"sat\": 1, \"unsat\": 0, \"unknown\": 1",
            "unknown",
        ),
    ] {
        let tampered = json.replacen(needle, replacement, 1);
        assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
        let err = validate_kind_bench_json(&tampered)
            .expect_err(&format!("tampering `{needle}` must be rejected"));
        assert!(
            err.contains(expect),
            "error for `{needle}` should mention `{expect}`, got: {err}"
        );
    }
}

/// When CI (or a developer) points `BENCH_PR9_PATH` at a generated
/// `BENCH_pr9.json`, it must satisfy the same schema — full oracle
/// agreement, every candidate decided, controls refuted rather than
/// missed, all three violation classes present. Skipped when the
/// variable is unset.
#[test]
fn generated_kind_bench_file_validates_when_present() {
    validate_env_bench_file("BENCH_PR9_PATH", validate_kind_bench_json);
}
