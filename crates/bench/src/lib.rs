//! # rvbench — the paper's evaluation
//!
//! Regenerates the paper's Table 1 and the ablation/scalability
//! micro-benchmarks. Speed claims are not made here: the seeded suite in
//! `src/bin/suite` (described by `BENCHMARK.json` at the repository root)
//! is the one measurement path for those.
//!
//! * `cargo run -p rvbench --release --bin table1` — the full table
//!   (trace metrics, QC, races per detector, times);
//! * `cargo run -p rvbench --release --bin emit_trace` — serializes a
//!   named workload trace (JSON or NDJSON) for feeding `rvpredict`;
//! * `cargo bench -p rvbench` — micro-benchmarks (see [`micro`]) for the
//!   solver, the four detectors, the windowing sweep, the design-choice
//!   ablations and the parallel-driver scaling curve.

#![warn(missing_docs)]

pub mod micro;

use std::collections::BTreeSet;
use std::time::Duration;

use rvbaselines::{CpDetector, HbDetector, RaceDetectorTool, SaidDetector};
use rvcore::{enumerate_cops, DetectorConfig, RaceDetector};
use rvsim::workloads::Workload;
use rvtrace::{RaceSignature, TraceStats, ViewExt};

/// One Table 1 row: trace metrics, QC, per-detector race counts and times.
#[derive(Debug)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Trace metric columns (3–7).
    pub stats: TraceStats,
    /// Column 8: distinct signatures passing the hybrid quick check.
    pub qc: usize,
    /// Columns 9–12: races (distinct signatures) per technique.
    pub races: [usize; 4],
    /// Columns 13–16: detection times per technique.
    pub times: [Duration; 4],
    /// Soundness-inclusion violations (must be 0: RV ⊇ Said/CP/HB, CP ⊇ HB).
    pub inclusion_violations: usize,
}

impl TableRow {
    /// Formats the row in Table 1's column order.
    pub fn format(&self) -> String {
        format!(
            "{:<14} {:>5} {:>8} {:>8} {:>7} {:>7} {:>5} | {:>4} {:>4} {:>4} {:>4} | {:>9} {:>9} {:>9} {:>9}",
            self.name,
            self.stats.threads,
            self.stats.events,
            self.stats.reads_writes,
            self.stats.syncs,
            self.stats.branches,
            self.qc,
            self.races[0],
            self.races[1],
            self.races[2],
            self.races[3],
            fmt_dur(self.times[0]),
            fmt_dur(self.times[1]),
            fmt_dur(self.times[2]),
            fmt_dur(self.times[3]),
        )
    }
}

/// Table 1's header line, matching [`TableRow::format`].
pub fn table_header() -> String {
    format!(
        "{:<14} {:>5} {:>8} {:>8} {:>7} {:>7} {:>5} | {:>4} {:>4} {:>4} {:>4} | {:>9} {:>9} {:>9} {:>9}",
        "Program", "#Thrd", "#Event", "#RW", "#Sync", "#Br", "QC", "RV", "Said", "CP", "HB",
        "t(RV)", "t(Said)", "t(CP)", "t(HB)"
    )
}

fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.0}s", d.as_secs_f64())
    } else if d.as_millis() >= 100 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}µs", d.as_micros())
    }
}

/// Budget knobs for a harness run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Per-COP solver budget for the SMT-based detectors.
    pub solver_timeout: Duration,
    /// Window size for every technique (paper §5: 10K).
    pub window_size: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            solver_timeout: Duration::from_secs(5),
            window_size: 10_000,
        }
    }
}

/// Runs all four detectors on one workload and assembles the Table 1 row.
pub fn run_row(w: &Workload, cfg: &HarnessConfig) -> TableRow {
    let mut qc = 0;
    for view in w.trace.windows(cfg.window_size) {
        qc += enumerate_cops(&view, true, 10).qc_signatures;
    }

    let rv_cfg = DetectorConfig {
        window_size: cfg.window_size,
        solver_timeout: cfg.solver_timeout,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let rv_report = RaceDetector::with_config(rv_cfg).detect(&w.trace);
    let t_rv = t0.elapsed();
    let rv: BTreeSet<RaceSignature> = rv_report.signatures().into_iter().collect();

    let mut said_det = SaidDetector::default();
    said_det.config.window_size = cfg.window_size;
    said_det.config.solver_timeout = cfg.solver_timeout;
    let t0 = std::time::Instant::now();
    let said = said_det.detect_races(&w.trace);
    let t_said = t0.elapsed();

    let cp_det = CpDetector {
        window_size: cfg.window_size,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let cp = cp_det.detect_races(&w.trace);
    let t_cp = t0.elapsed();

    let hb_det = HbDetector {
        window_size: cfg.window_size,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let hb = hb_det.detect_races(&w.trace);
    let t_hb = t0.elapsed();

    let inclusion_violations = said.signatures.difference(&rv).count()
        + cp.signatures.difference(&rv).count()
        + hb.signatures.difference(&rv).count()
        + hb.signatures.difference(&cp.signatures).count();

    TableRow {
        name: w.name.clone(),
        stats: w.trace.stats(),
        qc,
        races: [rv.len(), said.n_races(), cp.n_races(), hb.n_races()],
        times: [t_rv, t_said, t_cp, t_hb],
        inclusion_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim::workloads;

    #[test]
    fn row_for_figure1_matches_expectations() {
        let w = workloads::figures::figure1();
        let row = run_row(&w, &HarnessConfig::default());
        assert_eq!(row.races, [1, 0, 0, 0]);
        assert_eq!(row.inclusion_violations, 0);
        assert!(row.qc >= 1);
        let s = row.format();
        assert!(s.contains("example"));
    }

    #[test]
    fn header_and_row_align() {
        let w = workloads::figures::figure1();
        let row = run_row(&w, &HarnessConfig::default());
        // Same number of column separators.
        assert_eq!(
            table_header().matches('|').count(),
            row.format().matches('|').count()
        );
    }
}
