//! Tier-soundness tests for the pre-solver cascade: each screen must fire
//! on a trace hand-built for it, the entailment algebra must order exactly
//! what the formula entails, and every tier verdict must agree with the
//! solver oracle.

use rvcore::{encode, oracle_races, EncoderOptions};
use rvpredict::{
    Budget, ConsistencyMode, Cop, DetectorConfig, EventId, RaceDetector, SmtResult, Solver,
    ThreadId, TierAnalysis, TierDecision, Trace, TraceBuilder, ViewExt,
};
use rvsim::rng::SmallRng;

const MODES: [ConsistencyMode; 2] = [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace];

fn config(tiers: bool) -> DetectorConfig {
    DetectorConfig {
        parallelism: 1,
        tiers,
        ..Default::default()
    }
}

fn config_in(mode: ConsistencyMode, tiers: bool) -> DetectorConfig {
    DetectorConfig {
        mode,
        ..config(tiers)
    }
}

/// The solver's verdict on `cop` over the whole trace.
fn solver_verdict(trace: &Trace, cop: Cop, mode: ConsistencyMode) -> SmtResult {
    let view = trace.full_view();
    let enc = encode(
        &view,
        cop,
        EncoderOptions {
            mode,
            ..Default::default()
        },
    );
    let mut s = Solver::new(&enc.fb);
    s.hint_atom_phases(|a| enc.phase_hint(a));
    s.solve(&Budget::UNLIMITED)
}

// ------------------------------------------------------------ Tier A

/// A sync-free racy pair: Tier A must confirm it by construction, with the
/// solver never invoked on the screen's behalf (`solver_totals` sums the
/// per-COP deltas, and a tier confirmation has none).
#[test]
fn tier_a_confirms_race_with_zero_recorded_solves() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t2 = b.fork(rvpredict::ThreadId::MAIN);
    b.write(rvpredict::ThreadId::MAIN, x, 1);
    b.read(t2, x, 1);
    let trace = b.finish();

    let report = RaceDetector::with_config(config(true)).detect(&trace);
    assert_eq!(report.n_races(), 1, "{report}");
    assert_eq!(report.stats.tier_confirmed, 1, "{report}");
    assert_eq!(report.stats.tier_residue, 0, "{report}");
    assert_eq!(
        report.stats.solver_totals.solves, 0,
        "a tier-A confirmation must not record solver effort"
    );
    // The cascade must not change what is reported.
    let baseline = RaceDetector::with_config(config(false)).detect(&trace);
    assert_eq!(report.signatures(), baseline.signatures());
    assert_eq!(report.races[0].schedule, baseline.races[0].schedule);
}

// ------------------------------------------------------------ Tier B

/// One flag-handoff block (the BENCH_pr6 pattern): the payload COP
/// survives the quick check but the branch-forced flag read entails
/// `w y → w f → r f → r y` in every sound reordering. Tier B must refute
/// it without a solver call, matching the solver's `Unsat`.
#[test]
fn tier_b_refutes_flag_handoff_pair() {
    let mut b = TraceBuilder::new();
    let y = b.var("y");
    let f = b.var("f");
    let main = rvpredict::ThreadId::MAIN;
    let t2 = b.fork(main);
    let l = b.new_lock("l");
    b.write(main, y, 1);
    b.acquire(main, l);
    b.write(main, f, 1);
    b.release(main, l);
    b.acquire(t2, l);
    b.read(t2, f, 1);
    b.release(t2, l);
    b.branch(t2);
    b.read(t2, y, 1);
    let trace = b.finish();

    let report = RaceDetector::with_config(config(true)).detect(&trace);
    assert_eq!(report.n_races(), 0, "{report}");
    assert!(report.stats.tier_refuted >= 1, "{report}");
    assert_eq!(report.stats.tier_residue, 0, "{report}");
    assert_eq!(report.stats.solver_totals.solves, 0, "{report}");

    let baseline = RaceDetector::with_config(config(false)).detect(&trace);
    assert_eq!(report.stats.unsat, baseline.stats.unsat);
    assert_eq!(report.stats.cops_solved, baseline.stats.cops_solved);
}

// ------------------------------------------------------------ Residue

/// A COP neither screen can decide must reach the solver: the lock-split
/// exchange needs a reordering that swaps two critical sections, which
/// Tier A's trace-order witness cannot express and Tier B cannot
/// refute. The solver still proves it a race, so the verdicts agree.
#[test]
fn residue_cop_reaches_the_solver() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let y = b.var("y");
    let main = rvpredict::ThreadId::MAIN;
    let l = b.new_lock("l");
    let t2 = b.fork(main);
    b.acquire(main, l);
    b.write(main, x, 7);
    b.write(main, y, 1);
    b.release(main, l);
    b.acquire(t2, l);
    b.read(t2, y, 1);
    b.release(t2, l);
    b.read(t2, x, 7);
    let trace = b.finish();

    let with_tiers = RaceDetector::with_config(config(true)).detect(&trace);
    assert!(with_tiers.stats.tier_residue >= 1, "{with_tiers}");
    let baseline = RaceDetector::with_config(config(false)).detect(&trace);
    assert_eq!(with_tiers.signatures(), baseline.signatures());
    assert_eq!(with_tiers.stats.sat, baseline.stats.sat);
    assert_eq!(with_tiers.stats.unsat, baseline.stats.unsat);
}

/// With the cascade on, every solved COP is attributed to exactly one
/// stage; with it off, no COP is attributed to any.
#[test]
fn tier_counters_partition_cops_solved() {
    let w = rvpredict::workloads::figures::figure1();
    let on = RaceDetector::with_config(config(true)).detect(&w.trace);
    assert_eq!(
        on.stats.tier_confirmed + on.stats.tier_refuted + on.stats.tier_residue,
        on.stats.cops_solved,
        "{on}"
    );
    let off = RaceDetector::with_config(config(false)).detect(&w.trace);
    assert_eq!(
        off.stats.tier_confirmed + off.stats.tier_refuted + off.stats.tier_residue,
        0,
        "{off}"
    );
    assert_eq!(on.signatures(), off.signatures());
}

// ------------------------------------- entailment algebra (Tier B base)

/// Program order, fork and join edges order exactly what MHB orders.
#[test]
fn entailment_orders_program_order_fork_and_join() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let main = rvpredict::ThreadId::MAIN;
    let t2 = b.fork(main);
    let w1 = b.write(main, x, 1);
    let w2 = b.write(t2, x, 2);
    b.end(t2);
    b.join(main, t2);
    let w3 = b.write(main, x, 3);
    let trace = b.finish();
    let views = trace.windows(trace.len());
    let mut tiers = TierAnalysis::new(&views[0], ConsistencyMode::ControlFlow, true);

    // Program order within a thread.
    assert!(tiers.entailed_before(w1, w3));
    assert!(!tiers.entailed_before(w3, w1));
    // The fork edge orders the parent's pre-fork events before the child.
    assert!(!tiers.entailed_before(w1, w2), "post-fork writes race");
    // The join edge orders the whole child before the parent's tail.
    assert!(tiers.entailed_before(w2, w3));
    assert!(!tiers.entailed_before(w3, w2));
    // Entailed-ordered pairs are refuted, concurrent ones are not refuted.
    assert_eq!(tiers.decide(&Cop::new(w2, w3)), TierDecision::Refuted);
    assert_ne!(tiers.decide(&Cop::new(w1, w2)), TierDecision::Refuted);
}

/// A wait/notify link orders the notifier's past before the waiter's
/// future: `release < notify < re-acquire` are entailed edges.
#[test]
fn entailment_orders_across_wait_links() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let main = rvpredict::ThreadId::MAIN;
    let l = b.new_lock("l");
    let t2 = b.fork(main);
    b.acquire(t2, l);
    let token = b.wait_begin(t2, l);
    let wx = b.write(main, x, 1);
    b.acquire(main, l);
    let n = b.notify(main, l);
    b.release(main, l);
    b.wait_end(token, Some(n));
    let rx = b.read(t2, x, 1);
    b.release(t2, l);
    let trace = b.finish();
    let views = trace.windows(trace.len());
    let mut tiers = TierAnalysis::new(&views[0], ConsistencyMode::ControlFlow, true);

    // The write flows to the post-wait read through the wait link.
    assert!(tiers.entailed_before(wx, rx));
    assert_eq!(tiers.decide(&Cop::new(wx, rx)), TierDecision::Refuted);
}

/// A lock disjunction whose one arm is contradicted by entailed order
/// collapses to the other arm: with whole-trace consistency the flag read
/// pins the second critical section after the first, so the sections'
/// `release → acquire` edge becomes entailed.
#[test]
fn entailment_discharges_one_sided_lock_disjunctions() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let flag = b.var("flag");
    let main = rvpredict::ThreadId::MAIN;
    let l = b.new_lock("l");
    let t2 = b.fork(main);
    let a1 = b.acquire(main, l).unwrap();
    b.write(main, x, 1);
    b.write(main, flag, 1);
    let r1 = b.release(main, l).unwrap();
    let a2 = b.acquire(t2, l).unwrap();
    b.read(t2, flag, 1);
    b.read(t2, x, 1);
    b.release(t2, l).unwrap();
    let trace = b.finish();
    let views = trace.windows(trace.len());
    let mut tiers = TierAnalysis::new(&views[0], ConsistencyMode::WholeTrace, true);

    // `rel2 < acq1` would cycle through the flag's unique justifier, so
    // the disjunction's surviving arm `rel1 < acq2` is entailed.
    assert!(tiers.entailed_before(r1, a2));
    assert!(tiers.entailed_before(a1, a2));
}

// ------------------------------- multi-justifier reads (common dominator)

/// A flag handoff whose flag is written by `writers` in turn after the
/// payload write `w y`; the consumer reads the flag under the lock, then
/// branches and reads the payload. Returns the trace and the payload COP.
fn flag_handoff(writers: &[usize], publish_via_read: bool, initial_flag: i64) -> (Trace, Cop) {
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let (p, c, q) = (b.fork(main), b.fork(main), b.fork(main));
    let l = b.new_lock("l");
    let (y, f, g) = (b.var("y"), b.var("f"), b.var("g"));
    b.initial(f, initial_flag);
    let w = b.write(p, y, 1);
    if publish_via_read {
        // `q` learns of the payload only by reading `g`, a read fact.
        b.acquire(p, l);
        b.write(p, g, 1);
        b.release(p, l);
        b.acquire(q, l);
        b.read(q, g, 1);
        b.release(q, l);
    }
    for &k in writers {
        let t = [p, q][k];
        b.acquire(t, l);
        b.write(t, f, 1);
        b.release(t, l);
    }
    b.acquire(c, l);
    b.read(c, f, 1);
    b.release(c, l);
    b.branch(c);
    let r = b.read(c, y, 1);
    (b.finish(), Cop::new(w, r))
}

/// Two same-value flag justifiers on the producer: every match disjunct
/// orders its own write after the payload write, so their common MHB
/// dominator (the first flag write) precedes the read. Tier B refutes the
/// payload COP in both modes with no solver call, as the solver would.
#[test]
fn tier_b_refutes_double_flag_handoff_in_both_modes() {
    let (trace, cop) = flag_handoff(&[0, 0], false, 0);
    for mode in MODES {
        let view = trace.full_view();
        let mut tiers = TierAnalysis::new(&view, mode, true);
        assert_eq!(tiers.decide(&cop), TierDecision::Refuted, "{mode:?}");
        assert_eq!(
            solver_verdict(&trace, cop, mode),
            SmtResult::Unsat,
            "{mode:?}"
        );

        let report = RaceDetector::with_config(config_in(mode, true)).detect(&trace);
        assert_eq!(report.n_races(), 0, "{report}");
        assert!(report.stats.tier_refuted >= 1, "{report}");
        assert_eq!(report.stats.tier_residue, 0, "{report}");
        assert_eq!(report.stats.solver_totals.solves, 0, "{report}");
        let baseline = RaceDetector::with_config(config_in(mode, false)).detect(&trace);
        assert_eq!(report.stats.unsat, baseline.stats.unsat);
    }
}

/// Justifiers on two threads with no common MHB dominator past the
/// payload write: the second writer is ordered after it only through a
/// read fact. Tier B leaves the COP to the solver, which refutes it.
#[test]
fn justifiers_without_common_dominator_stay_residue() {
    let (trace, cop) = flag_handoff(&[1, 0], true, 0);
    for mode in MODES {
        let view = trace.full_view();
        let mut tiers = TierAnalysis::new(&view, mode, true);
        assert_eq!(tiers.decide(&cop), TierDecision::Residue, "{mode:?}");
        assert_eq!(
            solver_verdict(&trace, cop, mode),
            SmtResult::Unsat,
            "{mode:?}"
        );

        let report = RaceDetector::with_config(config_in(mode, true)).detect(&trace);
        assert_eq!(report.n_races(), 0, "{report}");
        assert!(report.stats.tier_residue >= 1, "{report}");
        let baseline = RaceDetector::with_config(config_in(mode, false)).detect(&trace);
        assert_eq!(report.stats.unsat, baseline.stats.unsat);
    }
}

/// When the flag's initial value already matches the read, the virtual
/// initial write is one more disjunct with no write before the read, so
/// no dominator edge is entailed: the consumer may run first and the
/// payload pair is a real race in both modes.
#[test]
fn initial_value_licence_disables_the_dominator_fact() {
    let (trace, cop) = flag_handoff(&[0, 0], false, 1);
    for mode in MODES {
        let view = trace.full_view();
        let mut tiers = TierAnalysis::new(&view, mode, true);
        assert_ne!(tiers.decide(&cop), TierDecision::Refuted, "{mode:?}");
        assert_eq!(
            solver_verdict(&trace, cop, mode),
            SmtResult::Sat,
            "{mode:?}"
        );

        let report = RaceDetector::with_config(config_in(mode, true)).detect(&trace);
        let baseline = RaceDetector::with_config(config_in(mode, false)).detect(&trace);
        assert!(report
            .signatures()
            .contains(&rvpredict::RaceSignature::of_cop(&trace, cop)));
        assert_eq!(report.signatures(), baseline.signatures());
    }
}

/// Seeded differential over small handoffs whose flag has two or three
/// writers (producer, a third thread, or main), a random interleaving
/// with the payload write and an optional `g` publication, and a random
/// initial flag value. Every tier verdict must match the encoder's
/// solver verdict in both modes and the brute-force oracle in the
/// maximal mode, and some COP behind a read with at least two justifiers
/// must have been refuted by Tier B.
#[test]
fn multi_justifier_decisions_agree_with_oracle_and_encoder() {
    let mut rng = SmallRng::seed_from_u64(0x2B1D);
    let (mut checked, mut multi_refuted) = (0, 0);
    while checked < 48 {
        let (trace, payload, justifiers) = random_handoff(&mut rng);
        if trace.len() > 22 {
            continue;
        }
        checked += 1;
        let view = trace.full_view();
        let real = oracle_races(&view, 22);
        let cops = rvcore::enumerate_cops(&view, false, usize::MAX).cops;
        for mode in MODES {
            let mut tiers = TierAnalysis::new(&view, mode, true);
            for &cop in &cops {
                let decision = tiers.decide(&cop);
                let verdict = solver_verdict(&trace, cop, mode);
                let exact = mode == ConsistencyMode::ControlFlow;
                let what = format!("{mode:?} {cop:?} on {:?}", trace.events());
                match decision {
                    TierDecision::Confirmed => {
                        assert_eq!(verdict, SmtResult::Sat, "confirmed {what}");
                        assert!(!exact || real.contains(&cop), "confirmed {what}");
                    }
                    TierDecision::Refuted => {
                        assert_eq!(verdict, SmtResult::Unsat, "refuted {what}");
                        assert!(!exact || !real.contains(&cop), "refuted {what}");
                        if cop == payload && justifiers >= 2 {
                            multi_refuted += 1;
                        }
                    }
                    TierDecision::Residue => {}
                }
            }
        }
    }
    assert!(multi_refuted > 0, "no multi-justifier COP was refuted");
}

/// One random handoff for the differential above: the trace, its
/// payload COP, and the number of same-value justifiers of the flag read.
fn random_handoff(rng: &mut SmallRng) -> (Trace, Cop, usize) {
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let (p, c, q) = (b.fork(main), b.fork(main), b.fork(main));
    let l = b.new_lock("l");
    let (y, f, g) = (b.var("y"), b.var("f"), b.var("g"));
    b.initial(f, rng.gen_range(0..2i64));
    // Steps: 0 the payload write, 1 `p` publishes `g`, 2 `q` reads `g`,
    // 3.. one flag write each, by `p` (twice as likely), `q` or main.
    let mut steps: Vec<usize> = (0..3 + rng.gen_range(2..4usize)).collect();
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.gen_range(0..i + 1));
    }
    let mut w: Option<EventId> = None;
    for step in steps {
        match step {
            0 => w = Some(b.write(p, y, 1)),
            1 => drop(b.write(p, g, 1)),
            2 => drop(b.read_current(q, g)),
            _ => {
                let t = [p, p, q, main][rng.gen_range(0..4usize)];
                let locked = rng.gen_bool();
                if locked {
                    b.acquire(t, l);
                }
                b.write(t, f, 1);
                if locked {
                    b.release(t, l);
                }
            }
        }
    }
    b.acquire(c, l);
    let rf = b.read_current(c, f);
    b.release(c, l);
    b.branch(c);
    let r = b.read(c, y, 1);
    let trace = b.finish();
    let value = trace.event(rf).kind.value();
    let justifiers = if value == Some(trace.initial_value(f)) {
        0
    } else {
        let writes = trace.events().iter().filter(|e| e.kind.is_write());
        writes
            .filter(|e| e.kind.var() == Some(f) && e.kind.value() == value)
            .count()
    };
    (trace, Cop::new(w.expect("payload written"), r), justifiers)
}

/// The double-publish handoff workload `emit_trace` serves: every payload
/// COP is refuted by Tier B, and the report matches solver-only mode.
#[test]
fn double_handoff_workload_is_decided_by_the_screens() {
    let w = rvpredict::workloads::synthetic::double_handoff_workload("tier_double", 2, 3);
    let on = RaceDetector::with_config(config(true)).detect(&w.trace);
    assert_eq!(on.n_races(), 1, "{on}");
    assert_eq!(on.stats.tier_refuted, 6, "{on}");
    assert_eq!(on.stats.tier_residue, 0, "{on}");
    let off = RaceDetector::with_config(config(false)).detect(&w.trace);
    assert_eq!(on.signatures(), off.signatures());
    assert_eq!(on.races[0].schedule, off.races[0].schedule);
}
