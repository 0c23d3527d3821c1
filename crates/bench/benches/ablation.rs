//! Ablations of the design choices the paper calls out:
//!
//! * the hybrid quick check (§4) — prunes COPs before constraint solving;
//! * MHB-based write-set pruning (§3.2, last paragraph) — shrinks `cf`;
//! * signature deduplication (§4) — skips same-signature COPs once racy;
//! * trace-order phase seeding (our solver's counterpart of a warm start).

use std::time::Duration;

use rvbench::micro::Runner;
use rvcore::{DetectorConfig, RaceDetector};
use rvsim::workloads::{self, Workload};

fn workload() -> Workload {
    // Small enough that the unfiltered (no-quick-check) variant stays
    // benchable: without the §4 filter *every* conflicting pair reaches
    // the solver, which is exactly the cost the ablation demonstrates.
    let profile = workloads::systems::profiles()
        .into_iter()
        .find(|p| p.name == "xalan")
        .expect("xalan profile")
        .scaled(0.15);
    workloads::systems::generate(&profile)
}

fn bench_ablations(r: &mut Runner, w: &Workload) {
    let variants: Vec<(&str, DetectorConfig)> = vec![
        ("full", DetectorConfig::default()),
        (
            "no-quick-check",
            DetectorConfig {
                quick_check: false,
                ..Default::default()
            },
        ),
        (
            "no-write-prune",
            DetectorConfig {
                prune_write_sets: false,
                ..Default::default()
            },
        ),
        (
            "no-dedup",
            DetectorConfig {
                dedup_signatures: false,
                ..Default::default()
            },
        ),
        (
            "no-phase-hints",
            DetectorConfig {
                phase_hints: false,
                ..Default::default()
            },
        ),
    ];
    r.sample_target(Duration::from_millis(100));
    for (name, cfg) in variants {
        let det = RaceDetector::with_config(cfg);
        r.bench(&format!("ablation/xalan-0.15x/{name}"), || {
            det.detect(&w.trace).n_races()
        });
    }
}

/// The ablations must not change *what* is detected, only how fast
/// (dedup changes multiplicity only; quick check is a pure filter for the
/// solver, which would reject the same pairs).
fn ablation_results_agree(w: &Workload) {
    let base = RaceDetector::new().detect(&w.trace).signatures();
    for cfg in [
        DetectorConfig {
            quick_check: false,
            ..Default::default()
        },
        DetectorConfig {
            prune_write_sets: false,
            ..Default::default()
        },
        DetectorConfig {
            phase_hints: false,
            ..Default::default()
        },
    ] {
        let got = RaceDetector::with_config(cfg).detect(&w.trace).signatures();
        assert_eq!(got, base, "ablation changed detected signatures");
    }
}

fn main() {
    let w = workload();
    ablation_results_agree(&w);
    let mut r = Runner::from_env("ablation");
    bench_ablations(&mut r, &w);
    r.finish();
}
