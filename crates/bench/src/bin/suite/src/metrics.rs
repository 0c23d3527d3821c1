//! Metric definitions — the single source `BENCHMARK.json` must agree
//! with — and the assembly of per-layer values from spans and counters.

use std::collections::BTreeMap;

use crate::pipeline::Counts;
use crate::spans::Profile;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of `rvpredict` sees, measured with tracing off.
pub const END_TO_END: [Def; 7] = [
    e2e("wall_ms.p50", "ms", Lower, 0.15),
    e2e("wall_ms.p75", "ms", Lower, 0.24),
    e2e("events_per_s", "events/s", Higher, 0.15),
    e2e("ttfr_ms.p50", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("decided_ratio", "ratio", Higher, 0.01),
];

/// Single layers, from the traced run (and `program.*` from the CLI's own
/// `--metrics` documents). Unbounded.
pub const PER_LAYER: [Def; 54] = [
    layer("rvtrace.parse.self_ms", "ms", Lower),
    layer("rvtrace.parse.mb_per_s", "MB/s", Higher),
    layer("rvtrace.parse.chunks", "count", Lower),
    layer("rvtrace.consistency.self_ms", "ms", Lower),
    layer("rvtrace.view.self_ms", "ms", Lower),
    layer("rvtrace.view.windows", "count", Lower),
    layer("rvtrace.view.plan_ms", "ms", Lower),
    layer("rvtrace.view.straddle_windows", "count", Lower),
    layer("rvcore.detector.window_ms.sum", "ms", Lower),
    layer("rvcore.detector.window_ms.max", "ms", Lower),
    layer("rvcore.detector.merge_ms", "ms", Lower),
    layer("rvcore.detector.merge_wait_ms", "ms", Lower),
    layer("rvcore.detector.busy_ratio", "ratio", Higher),
    layer("rvcore.probe.window_ms.sum", "ms", Lower),
    layer("rvcore.cop.self_ms", "ms", Lower),
    layer("rvcore.cop.pairs", "count", Lower),
    layer("rvcore.cop.qc_pass_ratio", "ratio", Lower),
    layer("rvcore.tiers.build_ms", "ms", Lower),
    layer("rvcore.tiers.a_ms", "ms", Lower),
    layer("rvcore.tiers.b_ms", "ms", Lower),
    layer("rvcore.tiers.confirmed", "count", Higher),
    layer("rvcore.tiers.refuted", "count", Higher),
    layer("rvcore.tiers.residue", "count", Lower),
    layer("rvcore.tiers.decided_ratio", "ratio", Higher),
    layer("rvcore.slice.self_ms", "ms", Lower),
    layer("rvcore.slice.kept_ratio", "ratio", Lower),
    layer("rvcore.encoder.self_ms", "ms", Lower),
    layer("rvcore.encoder.constraints", "count", Lower),
    layer("rvsmt.solver.self_ms", "ms", Lower),
    layer("rvsmt.solver.solves", "count", Lower),
    layer("rvsmt.solver.conflicts", "count", Lower),
    layer("rvsmt.solver.decisions", "count", Lower),
    layer("rvsmt.solver.unknown", "count", Lower),
    layer("rvcore.witness.extract_ms", "ms", Lower),
    layer("rvcore.witness.canonical_ms", "ms", Lower),
    layer("rvcore.witness.failures", "count", Lower),
    layer("rvcore.deadlock.self_ms", "ms", Lower),
    layer("rvcore.deadlock.candidates", "count", Lower),
    layer("rvcore.atomicity.self_ms", "ms", Lower),
    layer("rvcore.atomicity.candidates", "count", Lower),
    layer("rvcore.report.render_ms", "ms", Lower),
    layer("program.detector.wall_ms", "ms", Lower),
    layer("program.detector.solver_ms", "ms", Lower),
    layer("program.detector.tier_a_ms", "ms", Lower),
    layer("program.detector.tier_b_ms", "ms", Lower),
    layer("program.trace.parse_ms", "ms", Lower),
    layer("program.stream.peak_window_residency", "count", Lower),
    layer("program.solver.learnt_clauses", "count", Lower),
    layer("harness.traced_wall_ms", "ms", Lower),
    layer("harness.coverage_ratio", "ratio", Higher),
    layer("harness.unattributed_ms", "ms", Lower),
    layer("harness.probe_wall_ms", "ms", Lower),
    layer("harness.raw_wall_ms.p50", "ms", Lower),
    layer("harness.calib_ms.p50", "ms", Lower),
];

/// The `program.*` metrics and where each sits in the CLI's `--metrics`
/// document: (metric, section, key, scale to the metric's unit).
pub const PROGRAM: [(&str, &str, &str, f64); 7] = [
    (
        "program.detector.wall_ms",
        "timings_us",
        "detector.wall_time",
        1e-3,
    ),
    (
        "program.detector.solver_ms",
        "timings_us",
        "detector.solver_time",
        1e-3,
    ),
    (
        "program.detector.tier_a_ms",
        "timings_us",
        "detector.tier_a_time",
        1e-3,
    ),
    (
        "program.detector.tier_b_ms",
        "timings_us",
        "detector.tier_b_time",
        1e-3,
    ),
    (
        "program.trace.parse_ms",
        "timings_us",
        "trace.ingest.parse_time",
        1e-3,
    ),
    (
        "program.stream.peak_window_residency",
        "gauges",
        "stream.peak_window_residency",
        1.0,
    ),
    (
        "program.solver.learnt_clauses",
        "counters",
        "solver.learnt_clauses",
        1.0,
    ),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced-run layer values of one iteration: self times and counts
/// per layer, from the iteration's spans (`p`) and counters (`c`).
/// `coverage` is the share of the traced wall its top-level spans cover.
pub fn layers(p: &Profile, c: &Counts, coverage: f64, jobs: usize) -> BTreeMap<&'static str, f64> {
    // Whichever parser the workload's flags select; the other reads 0.
    let parse_ms = p.self_ms("rvtrace.json") + p.self_ms("rvtrace.stream");
    let decided = c.get("confirmed") + c.get("refuted");
    let window_sum = p.total_ms("rvcore.detector.window");
    BTreeMap::from([
        ("rvtrace.parse.self_ms", parse_ms),
        (
            "rvtrace.parse.mb_per_s",
            ratio(c.get("bytes") / 1e6, parse_ms / 1e3),
        ),
        ("rvtrace.parse.chunks", c.get("chunks")),
        (
            "rvtrace.consistency.self_ms",
            p.self_ms("rvtrace.consistency"),
        ),
        ("rvtrace.view.self_ms", p.self_ms("rvtrace.view")),
        ("rvtrace.view.windows", c.get("windows")),
        ("rvtrace.view.plan_ms", p.total_ms("rvtrace.view.plan")),
        ("rvtrace.view.straddle_windows", c.get("straddle_windows")),
        ("rvcore.detector.window_ms.sum", window_sum),
        (
            "rvcore.detector.window_ms.max",
            p.max_ms("rvcore.detector.window"),
        ),
        (
            "rvcore.detector.merge_ms",
            p.total_ms("rvcore.detector.merge"),
        ),
        (
            "rvcore.detector.merge_wait_ms",
            p.total_ms("rvcore.detector.wait"),
        ),
        (
            "rvcore.detector.busy_ratio",
            ratio(window_sum, jobs as f64 * p.total_ms("rvcore.detector")),
        ),
        (
            "rvcore.probe.window_ms.sum",
            p.total_ms("rvcore.probe.window"),
        ),
        ("rvcore.cop.self_ms", p.self_ms("rvcore.cop")),
        ("rvcore.cop.pairs", c.get("pairs")),
        (
            "rvcore.cop.qc_pass_ratio",
            ratio(c.get("cops"), c.get("pairs")),
        ),
        ("rvcore.tiers.build_ms", p.total_ms("rvcore.tiers.build")),
        ("rvcore.tiers.a_ms", c.get("tier_a_ms")),
        ("rvcore.tiers.b_ms", c.get("tier_b_ms")),
        ("rvcore.tiers.confirmed", c.get("confirmed")),
        ("rvcore.tiers.refuted", c.get("refuted")),
        ("rvcore.tiers.residue", c.get("residue")),
        (
            "rvcore.tiers.decided_ratio",
            ratio(decided, decided + c.get("residue")),
        ),
        ("rvcore.slice.self_ms", p.self_ms("rvcore.slice")),
        (
            "rvcore.slice.kept_ratio",
            ratio(c.get("cone_events"), c.get("cone_window_events")),
        ),
        ("rvcore.encoder.self_ms", p.self_ms("rvcore.encoder")),
        ("rvcore.encoder.constraints", c.get("constraints")),
        ("rvsmt.solver.self_ms", p.self_ms("rvsmt.solver")),
        ("rvsmt.solver.solves", c.get("solves")),
        ("rvsmt.solver.conflicts", c.get("conflicts")),
        ("rvsmt.solver.decisions", c.get("decisions")),
        ("rvsmt.solver.unknown", c.get("unknown")),
        (
            "rvcore.witness.extract_ms",
            p.total_ms("rvcore.witness.extract"),
        ),
        (
            "rvcore.witness.canonical_ms",
            p.total_ms("rvcore.witness.canonical"),
        ),
        ("rvcore.witness.failures", c.get("witness_failures")),
        ("rvcore.deadlock.self_ms", p.self_ms("rvcore.deadlock")),
        ("rvcore.deadlock.candidates", c.get("deadlock_candidates")),
        ("rvcore.atomicity.self_ms", p.self_ms("rvcore.atomicity")),
        ("rvcore.atomicity.candidates", c.get("atomicity_candidates")),
        ("rvcore.report.render_ms", p.total_ms("rvcore.report")),
        ("harness.traced_wall_ms", p.total_ms("pipeline")),
        ("harness.coverage_ratio", coverage),
        ("harness.probe_wall_ms", p.total_ms("rvcore.probe")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let entries = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |e: &Json, k: &str| e.get(k).cloned().unwrap_or(Json::Null);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = entries(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (e, d) in listed.iter().zip(defs) {
                let better = match d.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(field(e, "name"), Json::Str(d.name.into()));
                assert_eq!(field(e, "unit"), Json::Str(d.unit.into()), "{}", d.name);
                assert_eq!(field(e, "better"), Json::Str(better.into()), "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(field(e, "bound"), Json::Num(d.bound), "{}", d.name);
                }
            }
        }
        let largest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END
                .iter()
                .find(|d| d.name == "setup_s")
                .unwrap()
                .bound,
            largest
        );
        let workloads = entries("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
