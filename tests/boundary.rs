//! Oracle-arbitered differential suite for dependence-bounded windows
//! (`--window-mode cone`, PR 8): on small traces whose racing pairs sit
//! astride window boundaries, the brute-force maximal-causal-model oracle
//! is the ground truth, and
//!
//! * every race cone mode reports is oracle-confirmed (soundness survives
//!   the extended views);
//! * every oracle race is reported by cone mode (the straddle pass
//!   restores the maximality that fixed windows forfeit at boundaries);
//! * every race fixed mode *misses* relative to cone mode is an
//!   oracle-confirmed race — the cone-mode surplus is exactly the real
//!   boundary-straddling races, never noise;
//! * every cone-mode witness schedule re-validates against the §2 axioms
//!   on the extended view the race was attributed to.
//!
//! The generator forces straddling by construction: window sizes far
//! smaller than the trace, and at most one access per (thread, variable,
//! kind) so every conflicting pair is visible to the per-thread
//! last-access summaries the straddle enumeration reads.

use std::collections::BTreeSet;

use rvcore::oracle_races;
use rvpredict::{
    check_schedule, DetectorConfig, RaceDetector, RaceSignature, ThreadId, Trace, TraceBuilder,
    ViewExt, WindowBoundary, WindowMode, SPILL_EVENT_BYTES,
};
use rvsim::rng::SmallRng;
use rvsim::stmts::*;
use rvsim::{execute, ExecConfig, Expr, GlobalId, Local, LockRef, Outcome, ProcId, Program, Stmt};

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u32, i64),
    Read(u32),
    Guarded(u32, u32),
    Locked(u32, u32),
}

/// Random per-thread op lists with at most one access per
/// (variable, kind) in each thread: the straddle candidate enumeration
/// keys on per-thread last-access summaries, so repeated same-kind
/// accesses from one thread would shadow earlier program points and the
/// oracle-equality assertion would test the generator, not the detector.
fn gen_ops(rng: &mut SmallRng) -> Vec<Vec<Op>> {
    (0..rng.gen_range(2..4usize))
        .map(|_| {
            let mut written = [false; 2];
            let mut read = [false; 2];
            let mut ops = Vec::new();
            for _ in 0..rng.gen_range(1..4usize) {
                let v = rng.gen_range(0..2u32);
                let op = match rng.gen_range(0..4u32) {
                    0 => Op::Write(v, rng.gen_range(0..2i64)),
                    1 => Op::Read(v),
                    2 => Op::Guarded(v, rng.gen_range(0..2u32)),
                    _ => Op::Locked(v, rng.gen_range(0..2u32)),
                };
                let (needs_read, writes) = match op {
                    Op::Write(v, _) | Op::Locked(v, _) => (None, Some(v)),
                    Op::Read(v) => (Some(v), None),
                    Op::Guarded(r, w) => (Some(r), Some(w)),
                };
                if needs_read.is_some_and(|v| read[v as usize])
                    || writes.is_some_and(|v| written[v as usize])
                {
                    continue;
                }
                if let Some(v) = needs_read {
                    read[v as usize] = true;
                }
                if let Some(v) = writes {
                    written[v as usize] = true;
                }
                ops.push(op);
            }
            ops
        })
        .collect()
}

fn build(workers: &[Vec<Op>]) -> Program {
    let r = Local(0);
    let body = |ops: &[Op]| -> Vec<Stmt> {
        let mut out = Vec::new();
        for op in ops {
            match *op {
                Op::Write(v, val) => out.push(store(GlobalId(v), val.into())),
                Op::Read(v) => out.push(load(r, GlobalId(v))),
                Op::Guarded(v, w) => out.extend([
                    load(r, GlobalId(v)),
                    if_(
                        Expr::eq(r.into(), 0.into()),
                        vec![store(GlobalId(w), 1.into())],
                        vec![],
                    ),
                ]),
                Op::Locked(v, l) => out.extend([
                    lock(LockRef(l)),
                    store(GlobalId(v), 1.into()),
                    unlock(LockRef(l)),
                ]),
            }
        }
        out
    };
    let procs: Vec<Vec<Stmt>> = workers.iter().map(|w| body(w)).collect();
    let mut main: Vec<Stmt> = (0..procs.len() as u32).map(ProcId).map(fork).collect();
    main.extend((0..procs.len() as u32).map(ProcId).map(join));
    Program::new(vec![scalar("v0", 0), scalar("v1", 0)], 2, main, procs)
}

/// Signature set a detection run reported.
fn sigs(report: &rvpredict::DetectionReport) -> BTreeSet<RaceSignature> {
    report.signatures().into_iter().collect()
}

/// Re-validates every witness on the view the race was attributed to —
/// for straddling races that is the *extended* view (`race.window` is the
/// grown range), rebuilt here from scratch via the boundary recurrence.
fn assert_witnesses_revalidate(trace: &Trace, report: &rvpredict::DetectionReport) {
    assert_eq!(report.stats.witness_failures, 0);
    for race in &report.races {
        let mut boundary = WindowBoundary::initial(trace);
        boundary.advance(trace.events(), 0..race.window.start);
        let view = boundary.view(trace, race.window.clone());
        assert_eq!(
            check_schedule(&view, &race.schedule),
            Ok(()),
            "witness must re-validate on the attributed view {:?} of trace {:?}",
            race.window,
            trace.events()
        );
        let n = race.schedule.0.len();
        assert_eq!(race.schedule.0[n - 2], race.cop.first);
        assert_eq!(race.schedule.0[n - 1], race.cop.second);
    }
}

/// The differential harness proper: randomized small traces, tiny
/// windows, oracle as arbiter. Fixed mode must stay sound-but-blind at
/// boundaries; cone mode must agree with the oracle exactly.
#[test]
fn cone_mode_agrees_with_oracle_where_fixed_goes_blind() {
    let mut rng = SmallRng::seed_from_u64(0xB0DA);
    // `PROPTEST_CASES` kept its name when the suite moved off proptest.
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let mut checked = 0;
    let mut fixed_missed_somewhere = false;
    let mut straddled_somewhere = false;
    for _attempt in 0..cases * 40 {
        if checked == cases {
            break;
        }
        let workers = gen_ops(&mut rng);
        let program = build(&workers);
        let seed = rng.gen_range(0..400u64);
        let exec = execute(&program, &ExecConfig::seeded(seed)).unwrap();
        if exec.outcome != Outcome::Completed || exec.trace.len() > 18 {
            continue;
        }
        checked += 1;
        let trace = &exec.trace;
        let real: BTreeSet<RaceSignature> = oracle_races(&trace.full_view(), 18)
            .into_iter()
            .map(|cop| RaceSignature::of_cop(trace, cop))
            .collect();
        for window in [4usize, 7] {
            let cfg = |mode| DetectorConfig {
                window_size: window,
                window_mode: mode,
                parallelism: 1,
                ..Default::default()
            };
            let cone_report = RaceDetector::with_config(cfg(WindowMode::Cone)).detect(trace);
            let fixed_report = RaceDetector::with_config(cfg(WindowMode::Fixed)).detect(trace);
            assert_eq!(
                cone_report.stats.undecided,
                0,
                "small traces must decide fully: {:?}",
                trace.events()
            );
            let cone = sigs(&cone_report);
            let fixed = sigs(&fixed_report);

            // Soundness: cone ⊆ oracle. Restored maximality: oracle ⊆ cone.
            assert_eq!(
                cone,
                real,
                "cone mode (window {window}) disagrees with the oracle on trace {:?}",
                trace.events()
            );
            // Fixed mode stays sound; whatever it misses is a real race.
            for sig in &fixed {
                assert!(
                    real.contains(sig),
                    "fixed mode reported a non-race {} on trace {:?}",
                    sig.display(trace),
                    trace.events()
                );
            }
            for missed in real.difference(&fixed) {
                fixed_missed_somewhere = true;
                assert!(
                    cone.contains(missed),
                    "fixed-mode miss {} not recovered by cone mode on trace {:?}",
                    missed.display(trace),
                    trace.events()
                );
            }
            if cone_report.stats.straddle_races > 0 {
                straddled_somewhere = true;
            }
            assert_witnesses_revalidate(trace, &cone_report);
        }
    }
    assert_eq!(checked, cases, "not enough small completed executions");
    assert!(
        fixed_missed_somewhere,
        "the workload never forced a boundary-straddling race"
    );
    assert!(
        straddled_somewhere,
        "no cone run ever attributed a race to the straddle pass"
    );
}

/// Deterministic regression: a single racing pair placed astride a window
/// boundary. Fixed mode misses it; the miss is oracle-confirmed; cone
/// mode reports it with a revalidating witness at every worker count.
#[test]
fn forced_straddle_is_oracle_confirmed_and_cone_reported() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let pad = b.var("pad");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    b.write(t1, x, 1);
    for i in 0..8i64 {
        b.write(t1, pad, i); // same-thread filler pushes the read across
    }
    b.read(t2, x, 1);
    let trace = b.finish();

    let real: BTreeSet<RaceSignature> = oracle_races(&trace.full_view(), 18)
        .into_iter()
        .map(|cop| RaceSignature::of_cop(&trace, cop))
        .collect();
    assert_eq!(real.len(), 1, "the pair races under the maximal model");

    for window in [3usize, 4, 5] {
        let fixed = RaceDetector::with_config(DetectorConfig {
            window_size: window,
            window_mode: WindowMode::Fixed,
            ..Default::default()
        })
        .detect(&trace);
        assert_eq!(
            fixed.n_races(),
            0,
            "window {window} keeps the pair apart in fixed mode"
        );
        for jobs in [1usize, 2, 4, 8] {
            let cone = RaceDetector::with_config(DetectorConfig {
                window_size: window,
                window_mode: WindowMode::Cone,
                parallelism: jobs,
                ..Default::default()
            })
            .detect(&trace);
            assert_eq!(sigs(&cone), real, "window {window} jobs {jobs}");
            assert_eq!(cone.stats.straddle_races, 1);
            assert_witnesses_revalidate(&trace, &cone);
        }
    }
}

/// The spill-budget degradation contract, end to end: with a budget too
/// small to reach the straddling partner the race is *not* reported (no
/// truncated-view guessing), the COP surfaces as undecided
/// (boundary-budget), and the run degrades honestly instead of claiming
/// race freedom.
#[test]
fn starved_spill_budget_degrades_instead_of_guessing() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let pad = b.var("pad");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    b.write(t1, x, 1);
    for i in 0..20i64 {
        b.write(t1, pad, i);
    }
    b.read(t2, x, 1);
    let trace = b.finish();

    let report = RaceDetector::with_config(DetectorConfig {
        window_size: 4,
        window_mode: WindowMode::Cone,
        spill_budget: 0,
        ..Default::default()
    })
    .detect(&trace);
    assert_eq!(report.n_races(), 0);
    assert!(report.stats.boundary_over_budget >= 1, "{report}");
    assert!(report.stats.undecided >= 1);
    assert!(report.is_degraded(), "race freedom must not be claimed");
}

/// The named boundary workloads `emit_trace` serves, in both window
/// modes. Fixed windows never look back, so every straddle counter stays
/// zero. Cone mode keeps its spill within the byte budget, recovers every
/// handoff race astride a boundary through the straddle pass, and on the
/// non-straddling control reports exactly what fixed mode reports.
#[test]
fn handoff_and_control_workloads_keep_the_window_mode_contract() {
    use rvsim::workloads::synthetic::{boundary_control_workload, boundary_handoff_workload};

    let config = |window_mode| DetectorConfig {
        window_size: 1_000,
        window_mode,
        ..Default::default()
    };
    let handoff = boundary_handoff_workload("boundary_handoff", 1_000, 4);
    let control = boundary_control_workload("boundary_control", 1_000, 4);
    for (w, straddling) in [(&handoff, true), (&control, false)] {
        let name = &w.name;
        let fixed = RaceDetector::with_config(config(WindowMode::Fixed)).detect(&w.trace);
        let cone_config = config(WindowMode::Cone);
        let spill_cap = cone_config.spill_budget / SPILL_EVENT_BYTES;
        let cone = RaceDetector::with_config(cone_config).detect(&w.trace);
        let boundary = |s: &rvpredict::DetectionStats| {
            [
                s.straddle_cops,
                s.straddle_races,
                s.boundary_over_budget,
                s.spill_peak_events,
            ]
        };
        assert_eq!(
            boundary(&fixed.stats),
            [0; 4],
            "{name}: fixed windows never look back"
        );
        assert!(
            cone.stats.spill_peak_events <= spill_cap,
            "{name}: spill peak {} over the budget cap {spill_cap}",
            cone.stats.spill_peak_events
        );
        if straddling {
            assert_eq!(fixed.n_races(), 0, "{name}: fixed mode is blind astride");
            assert_eq!(cone.n_races(), 4, "{name}: one race per crossing");
            assert_eq!(cone.stats.straddle_races, cone.n_races(), "{name}");
            assert_eq!(cone.stats.boundary_over_budget, 0, "{name}");
        } else {
            assert_eq!(cone.n_races(), 1, "{name}: the planted race");
            assert_eq!(sigs(&cone), sigs(&fixed), "{name}");
            assert_eq!(boundary(&cone.stats), boundary(&fixed.stats), "{name}");
            assert_eq!(cone.stats.undecided, fixed.stats.undecided, "{name}");
        }
    }
}
