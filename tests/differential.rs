//! Differential testing of the SMT-based detector against the brute-force
//! maximal-causal-model oracle (an independent implementation of the §2
//! axioms). Theorem 3 says the constraint system is satisfiable *iff* the
//! COP is a race in the maximal sense — so on small traces the two
//! implementations must agree exactly, in both directions (soundness AND
//! maximality).

use rvcore::{encode, oracle_races, EncoderOptions};
use rvpredict::{
    check_consistency, check_schedule, construct_witness, schedule_read_values, Budget,
    ConsistencyMode, Cop, CpDetector, DetectorConfig, HbDetector, RaceDetector, RaceDetectorTool,
    RaceSignature, SaidDetector, SmtResult, Solver, TierAnalysis, TierDecision, ViewExt,
};
use rvsim::rng::SmallRng;
use rvsim::stmts::*;
use rvsim::{execute, ExecConfig, Expr, GlobalId, Local, LockRef, Outcome, ProcId, Program, Stmt};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Write(u32, i64),
    Read(u32),
    Guarded(u32, u32),
    Locked(u32, u32),
    Branchy,
}

fn gen_ops(rng: &mut SmallRng) -> Vec<Vec<Op>> {
    (0..2)
        .map(|_| {
            (0..rng.gen_range(1..3usize))
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => Op::Write(rng.gen_range(0..2u32), rng.gen_range(0..2i64)),
                    1 => Op::Read(rng.gen_range(0..2u32)),
                    2 => Op::Guarded(rng.gen_range(0..2u32), rng.gen_range(0..2u32)),
                    3 => Op::Locked(rng.gen_range(0..2u32), rng.gen_range(0..2u32)),
                    _ => Op::Branchy,
                })
                .collect()
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
                Op::Branchy => out.push(if_(Expr::Const(1), vec![], vec![])),
            }
        }
        out
    };
    let procs: Vec<Vec<Stmt>> = workers.iter().map(|w| body(w)).collect();
    let mut main: Vec<Stmt> = (0..procs.len() as u32).map(ProcId).map(fork).collect();
    main.extend((0..procs.len() as u32).map(ProcId).map(join));
    Program::new(vec![scalar("v0", 0), scalar("v1", 0)], 2, main, procs)
}

/// All conflicting pairs of a view (no caps, no quick check) decided by the
/// encoder directly.
fn detector_races(trace: &rvpredict::Trace) -> BTreeSet<Cop> {
    let view = trace.full_view();
    let en = rvcore::enumerate_cops(&view, false, usize::MAX);
    let mut out = BTreeSet::new();
    for cop in en.cops {
        let enc = encode(&view, cop, EncoderOptions::default());
        let mut s = Solver::new(&enc.fb);
        s.hint_atom_phases(|a| enc.phase_hint(a));
        if s.solve(&Budget::UNLIMITED) == SmtResult::Sat {
            out.insert(cop);
        }
    }
    out
}

/// On every reachable small trace, the encoder's verdicts equal the
/// oracle's, COP for COP.
#[test]
fn encoder_matches_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    // `PROPTEST_CASES` kept its name when the suite moved off proptest.
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let mut checked = 0;
    for _attempt in 0..cases * 20 {
        if checked == cases {
            break;
        }
        let workers = gen_ops(&mut rng);
        let program = build(&workers);
        let seed = rng.gen_range(0..400u64);
        let exec = execute(&program, &ExecConfig::seeded(seed)).unwrap();
        if exec.outcome != Outcome::Completed || exec.trace.len() > 22 {
            continue;
        }
        checked += 1;
        assert!(check_consistency(&exec.trace).is_empty());
        let got = detector_races(&exec.trace);
        let want = oracle_races(&exec.trace.full_view(), 22);
        assert_eq!(
            got,
            want,
            "encoder vs oracle disagree on trace {:?}",
            exec.trace.events()
        );
    }
    assert_eq!(checked, cases, "not enough small completed executions");
}

/// Like [`gen_ops`] but larger: 2–3 workers, up to 5 ops each. The
/// containment harness has no oracle in the loop, so it can afford traces
/// the brute-force enumeration cannot.
fn gen_ops_sized(rng: &mut SmallRng) -> Vec<Vec<Op>> {
    (0..rng.gen_range(2..4usize))
        .map(|_| {
            (0..rng.gen_range(1..6usize))
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => Op::Write(rng.gen_range(0..2u32), rng.gen_range(0..2i64)),
                    1 => Op::Read(rng.gen_range(0..2u32)),
                    2 => Op::Guarded(rng.gen_range(0..2u32), rng.gen_range(0..2u32)),
                    3 => Op::Locked(rng.gen_range(0..2u32), rng.gen_range(0..2u32)),
                    _ => Op::Branchy,
                })
                .collect()
        })
        .collect()
}

/// Table 1's maximality claim, randomized, with the brute-force oracle as
/// the arbiter of ground truth. On every generated trace:
///
/// * every *truly* predictable race — a COP the oracle proves — is
///   reported by RV (maximality, Thm. 3);
/// * every race HB, CP or Said reports is either reported by RV too, or
///   is an over-approximation the oracle also rejects (the baselines'
///   guarantees cover only the first race; RV must never miss a real one
///   they find);
/// * every RV race ships a witness schedule that re-validates against the
///   §2 axioms, ending in the adjacent COP (soundness, Thm. 1).
#[test]
fn baseline_races_contained_in_rv_and_witnesses_validate() {
    let mut rng = SmallRng::seed_from_u64(0x7AB1E);
    // `PROPTEST_CASES` kept its name when the suite moved off proptest.
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let mut checked = 0;
    for _attempt in 0..cases * 40 {
        if checked == cases {
            break;
        }
        let workers = gen_ops_sized(&mut rng);
        let program = build(&workers);
        let seed = rng.gen_range(0..400u64);
        let exec = execute(&program, &ExecConfig::seeded(seed)).unwrap();
        if exec.outcome != Outcome::Completed || exec.trace.len() > 22 {
            continue;
        }
        checked += 1;
        let trace = &exec.trace;
        assert!(check_consistency(trace).is_empty());
        let view = trace.full_view();

        let rv_report = RaceDetector::with_config(DetectorConfig::default()).detect(trace);
        assert_eq!(
            rv_report.stats.undecided, 0,
            "small traces must decide fully"
        );
        // Soundness: every RV race's witness is a valid reordering ending
        // in the adjacent COP.
        assert_eq!(rv_report.stats.witness_failures, 0);
        for race in &rv_report.races {
            assert_eq!(
                check_schedule(&view, &race.schedule),
                Ok(()),
                "witness must re-validate on trace {:?}",
                trace.events()
            );
            let n = race.schedule.0.len();
            assert_eq!(race.schedule.0[n - 2], race.cop.first);
            assert_eq!(race.schedule.0[n - 1], race.cop.second);
        }
        let rv: BTreeSet<RaceSignature> = rv_report.signatures().into_iter().collect();
        let real: BTreeSet<RaceSignature> = oracle_races(&view, 22)
            .into_iter()
            .map(|cop| RaceSignature::of_cop(trace, cop))
            .collect();

        // Maximality: no truly predictable race escapes RV.
        for sig in &real {
            assert!(
                rv.contains(sig),
                "oracle race {} not reported by RV on trace {:?}",
                sig.display(trace),
                trace.events()
            );
        }

        // Baselines: anything they find that RV does not must be an
        // over-approximation the oracle rejects too.
        let hb = HbDetector::default().detect_races(trace);
        let cp = CpDetector::default().detect_races(trace);
        let mut said_det = SaidDetector::default();
        said_det.config.solver_timeout = std::time::Duration::from_secs(5);
        let said = said_det.detect_races(trace);
        for (name, found) in [
            ("hb", &hb.signatures),
            ("cp", &cp.signatures),
            ("said", &said.signatures),
        ] {
            for sig in found {
                assert!(
                    rv.contains(sig) || !real.contains(sig),
                    "{name} race {} is real (oracle-confirmed) but not reported by RV \
                     on trace {:?}",
                    sig.display(trace),
                    trace.events()
                );
            }
        }
    }
    assert_eq!(checked, cases, "not enough small completed executions");
}

/// Everything the report decided, minus solver-effort numbers (slicing
/// legitimately changes formula sizes and hence conflicts/decisions).
fn verdict_fingerprint(report: &rvpredict::DetectionReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for race in &report.races {
        let _ = writeln!(
            out,
            "race sig={:?} cop=({},{}) window={}..{} schedule={}",
            race.signature,
            race.cop.first,
            race.cop.second,
            race.window.start,
            race.window.end,
            race.schedule
        );
    }
    let s = &report.stats;
    let _ = writeln!(
        out,
        "sat={} unsat={} undecided={} witness_failures={} sigs={:?}",
        s.sat,
        s.unsat,
        s.undecided,
        s.witness_failures,
        report.signatures()
    );
    out
}

/// The `--no-slice` A/B check, randomized: relevance slicing must not
/// change verdicts, witnesses, or dedup signatures, at every worker count. The sliced runs must also demonstrably
/// slice (cone events < window events overall).
#[test]
fn slicing_is_verdict_and_witness_identical() {
    let mut rng = SmallRng::seed_from_u64(0x51 << 8 | 0xCE);
    // `PROPTEST_CASES` kept its name when the suite moved off proptest.
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let mut checked = 0;
    let mut sliced_somewhere = false;
    for _attempt in 0..cases * 40 {
        if checked == cases {
            break;
        }
        let workers = gen_ops_sized(&mut rng);
        let program = build(&workers);
        let seed = rng.gen_range(0..400u64);
        let exec = execute(&program, &ExecConfig::seeded(seed)).unwrap();
        if exec.outcome != Outcome::Completed || exec.trace.len() < 6 || exec.trace.len() > 40 {
            continue;
        }
        checked += 1;
        let trace = &exec.trace;
        // A small window size so multi-window dedup is exercised too.
        let mut baseline: Option<String> = None;
        for slice in [true, false] {
            for jobs in [1usize, 2, 4, 8] {
                let cfg = DetectorConfig {
                    window_size: 16,
                    slice,
                    parallelism: jobs,
                    ..Default::default()
                };
                let report = RaceDetector::with_config(cfg).detect(trace);
                if slice && report.stats.sliced_out > 0 {
                    sliced_somewhere = true;
                }
                assert!(
                    report.stats.cone_events <= report.stats.window_events_encoded,
                    "cone larger than window on trace {:?}",
                    trace.events()
                );
                let fp = verdict_fingerprint(&report);
                match &baseline {
                    None => baseline = Some(fp),
                    Some(b) => assert_eq!(
                        &fp,
                        b,
                        "slice={slice} jobs={jobs} diverged on trace {:?}",
                        trace.events()
                    ),
                }
            }
        }
    }
    assert_eq!(checked, cases, "not enough small completed executions");
    assert!(
        sliced_somewhere,
        "the workload never exercised an actual slice"
    );
}

/// The `--no-tiers` A/B check, randomized: the pre-solver cascade must
/// not change verdicts, witnesses, or dedup signatures, at every worker
/// count. The screens must also demonstrably
/// decide something across the workload.
#[test]
fn tiers_are_verdict_and_witness_identical() {
    let mut rng = SmallRng::seed_from_u64(0x71E5);
    // `PROPTEST_CASES` kept its name when the suite moved off proptest.
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let mut checked = 0;
    let mut screened_somewhere = false;
    for _attempt in 0..cases * 40 {
        if checked == cases {
            break;
        }
        let workers = gen_ops_sized(&mut rng);
        let program = build(&workers);
        let seed = rng.gen_range(0..400u64);
        let exec = execute(&program, &ExecConfig::seeded(seed)).unwrap();
        if exec.outcome != Outcome::Completed || exec.trace.len() < 6 || exec.trace.len() > 40 {
            continue;
        }
        checked += 1;
        let trace = &exec.trace;
        // A small window size so multi-window dedup is exercised too.
        let mut baseline: Option<String> = None;
        for tiers in [true, false] {
            for jobs in [1usize, 2, 4, 8] {
                let cfg = DetectorConfig {
                    window_size: 16,
                    tiers,
                    parallelism: jobs,
                    ..Default::default()
                };
                let report = RaceDetector::with_config(cfg).detect(trace);
                if tiers {
                    assert_eq!(
                        report.stats.tier_confirmed
                            + report.stats.tier_refuted
                            + report.stats.tier_residue,
                        report.stats.cops_solved,
                        "tier counters must partition cops_solved on trace {:?}",
                        trace.events()
                    );
                    if report.stats.tier_confirmed + report.stats.tier_refuted > 0 {
                        screened_somewhere = true;
                    }
                } else {
                    assert_eq!(
                        report.stats.tier_confirmed
                            + report.stats.tier_refuted
                            + report.stats.tier_residue,
                        0,
                        "tiers off must not attribute stages on trace {:?}",
                        trace.events()
                    );
                }
                let fp = verdict_fingerprint(&report);
                match &baseline {
                    None => baseline = Some(fp),
                    Some(b) => assert_eq!(
                        &fp,
                        b,
                        "tiers={tiers} jobs={jobs} diverged on trace {:?}",
                        trace.events()
                    ),
                }
            }
        }
    }
    assert_eq!(checked, cases, "not enough small completed executions");
    assert!(
        screened_somewhere,
        "the workload never exercised an actual tier decision"
    );
}

/// The encoder's verdict on `cop` over the whole trace.
fn encoder_verdict(view: &rvpredict::View<'_>, cop: Cop, mode: ConsistencyMode) -> SmtResult {
    let opts = EncoderOptions {
        mode,
        ..Default::default()
    };
    let enc = encode(view, cop, opts);
    let mut s = Solver::new(&enc.fb);
    s.hint_atom_phases(|a| enc.phase_hint(a));
    s.solve(&Budget::UNLIMITED)
}

/// Checks a witness the constructor accepted for `cop`: it passes the
/// schedule checker, has the race shape (the pair last in control-flow
/// mode, adjacent in whole-trace mode), replays every required read to
/// its original value, and the encoder agrees the COP is a race.
fn assert_constructed_witness_valid(
    view: &rvpredict::View<'_>,
    cop: Cop,
    mode: ConsistencyMode,
    witness: &rvpredict::Witness,
    what: &str,
) {
    let s = &witness.schedule.0;
    check_schedule(view, &witness.schedule)
        .unwrap_or_else(|e| panic!("constructed witness fails check_schedule ({e}): {what}"));
    let shaped = match mode {
        ConsistencyMode::ControlFlow => s.ends_with(&[cop.first, cop.second]),
        ConsistencyMode::WholeTrace => s.windows(2).any(|w| w == [cop.first, cop.second]),
    };
    assert!(shaped, "constructed witness lacks the race shape: {what}");
    let values = schedule_read_values(view, &witness.schedule);
    for &r in &witness.required_reads {
        assert_eq!(
            values.get(&r).copied(),
            view.event(r).kind.value(),
            "constructed witness changes required read {r}: {what}"
        );
    }
    assert_eq!(
        encoder_verdict(view, cop, mode),
        SmtResult::Sat,
        "constructed a witness for a refuted COP: {what}"
    );
}

/// Oracle arbitration of the screens themselves, COP by COP: everything
/// Tier A confirms must be a race the brute-force oracle proves, and
/// nothing Tier B refutes may be one (tier-confirmed ⊆ oracle-confirmed,
/// tier-refuted ∩ oracle-confirmed = ∅). Also checked against the
/// encoder's own verdict in both consistency modes, which is the exact
/// byte-identity contract the detector relies on. Every witness the
/// constructor accepts is replayed and checked, and the constructor
/// accepts exactly the COPs Tier A confirms (unless Tier B refuted them
/// first).
#[test]
fn tier_decisions_agree_with_oracle_and_encoder() {
    let mut rng = SmallRng::seed_from_u64(0x0DD5);
    // `PROPTEST_CASES` kept its name when the suite moved off proptest.
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let mut checked = 0;
    let (mut confirms, mut refutes) = (0usize, 0usize);
    for _attempt in 0..cases * 20 {
        if checked == cases {
            break;
        }
        let workers = gen_ops(&mut rng);
        let program = build(&workers);
        let seed = rng.gen_range(0..400u64);
        let exec = execute(&program, &ExecConfig::seeded(seed)).unwrap();
        if exec.outcome != Outcome::Completed || exec.trace.len() > 22 {
            continue;
        }
        checked += 1;
        let trace = &exec.trace;
        let view = trace.full_view();
        let real = oracle_races(&view, 22);
        let en = rvcore::enumerate_cops(&view, false, usize::MAX);
        for mode in [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace] {
            let mut tiers = TierAnalysis::new(&view, mode, true);
            for &cop in &en.cops {
                let decision = tiers.decide(&cop);
                let verdict = encoder_verdict(&view, cop, mode);
                let what = format!("{mode:?} {cop:?} on trace {:?}", trace.events());
                let built = construct_witness(&view, cop, mode);
                if let Some(w) = &built {
                    assert_constructed_witness_valid(&view, cop, mode, w, &what);
                }
                if decision != TierDecision::Refuted {
                    assert_eq!(
                        built.is_some(),
                        decision == TierDecision::Confirmed,
                        "Tier A is not the constructor: {what}"
                    );
                }
                match decision {
                    TierDecision::Confirmed => {
                        confirms += 1;
                        assert_eq!(
                            verdict,
                            SmtResult::Sat,
                            "tier A confirmed a non-race ({mode:?}) cop {cop:?} on \
                             trace {:?}",
                            trace.events()
                        );
                        if mode == ConsistencyMode::ControlFlow {
                            assert!(
                                real.contains(&cop),
                                "tier A confirmed cop {cop:?} the oracle rejects on \
                                 trace {:?}",
                                trace.events()
                            );
                        }
                    }
                    TierDecision::Refuted => {
                        refutes += 1;
                        assert_eq!(
                            verdict,
                            SmtResult::Unsat,
                            "tier B refuted a satisfiable cop ({mode:?}) {cop:?} on \
                             trace {:?}",
                            trace.events()
                        );
                        if mode == ConsistencyMode::ControlFlow {
                            assert!(
                                !real.contains(&cop),
                                "tier B refuted cop {cop:?} the oracle proves on \
                                 trace {:?}",
                                trace.events()
                            );
                        }
                    }
                    TierDecision::Residue => {}
                }
            }
        }
    }
    assert_eq!(checked, cases, "not enough small completed executions");
    assert!(confirms > 0, "the workload never exercised a confirmation");
    assert!(refutes > 0, "the workload never exercised a refutation");
}

/// One seeded trace of two waiters on one lock, woken in turn by a
/// notifier `n`. The second waiter publishes a flag `f` before it waits,
/// and `n` reads `f` under the lock right before its first notify, then
/// branches. With the waits overlapping (both waiters block before the
/// first notify) that read forces the first notify inside the second
/// wait's release–acquire span whenever the read keeps its value — which
/// the encoder's cross-link constraint forbids, and `check_schedule`
/// alone does not check. Unsynchronized accesses to `y` by main and `n`
/// sit at random points. Returns the trace and whether the waits overlap.
fn two_waits(rng: &mut SmallRng) -> (rvpredict::Trace, bool) {
    use rvpredict::{ThreadId, TraceBuilder};
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let (w1, w2, n) = (b.fork(main), b.fork(main), b.fork(main));
    let l = b.new_lock("l");
    let (x, y, f) = (b.var("x"), b.var("y"), b.var("f"));
    let overlap = rng.gen_bool();
    // Steps: 0/1 waiter 1 waits/wakes, 2/3 waiter 2 waits/wakes, 4/5 the
    // notifies. Main's `y` write and `n`'s `y` access go before the step
    // numbered by their slot.
    let steps: [usize; 6] = if overlap {
        [0, 2, 4, 1, 5, 3]
    } else {
        [0, 4, 1, 2, 5, 3]
    };
    let (main_slot, n_slot) = (rng.gen_range(0..7usize), rng.gen_range(0..7usize));
    let n_writes = rng.gen_bool();
    let (mut tokens, mut notifies) = (Vec::new(), Vec::new());
    for (slot, step) in steps.iter().copied().map(Some).chain([None]).enumerate() {
        if slot == main_slot {
            b.write(main, y, 1);
        }
        if slot == n_slot {
            if n_writes {
                b.write(n, y, 2);
            } else {
                b.read_current(n, y);
            }
        }
        match step {
            Some(0) => {
                b.acquire(w1, l);
                tokens.push(b.wait_begin(w1, l));
            }
            Some(2) => {
                b.acquire(w2, l);
                b.write(w2, f, 1);
                b.write(w2, x, 1);
                tokens.push(b.wait_begin(w2, l));
            }
            Some(4) | Some(5) => {
                b.acquire(n, l);
                if step == Some(4) {
                    b.read_current(n, f);
                }
                notifies.push(b.notify(n, l));
                b.release(n, l);
                if step == Some(4) {
                    b.branch(n);
                }
            }
            Some(1) | Some(3) => {
                let k = usize::from(step == Some(3));
                let (w, token) = ([w1, w2][k], tokens[k]);
                b.wait_end(token, Some(notifies[k]));
                b.read_current(w, x);
                b.release(w, l);
            }
            _ => {}
        }
    }
    (b.finish(), overlap)
}

/// The constructor checks the encoder's cross-link constraint on its
/// schedule's completion: over seeded two-waiter traces, every witness it
/// accepts replays and is confirmed by the encoder in both modes, it
/// accepts exactly what Tier A confirms, and it declines some
/// encoder-refuted COP whose waits overlap as well as confirming some
/// race whose waits do not.
#[test]
fn constructed_witnesses_respect_cross_wait_links() {
    let mut rng = SmallRng::seed_from_u64(0x2A17);
    let (mut declined_overlapping, mut confirmed_disjoint) = (0, 0);
    for _ in 0..24 {
        let (trace, overlap) = two_waits(&mut rng);
        assert!(check_consistency(&trace).is_empty(), "{:?}", trace.events());
        let view = trace.full_view();
        let cops = rvcore::enumerate_cops(&view, false, usize::MAX).cops;
        for mode in [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace] {
            let mut tiers = TierAnalysis::new(&view, mode, true);
            for &cop in &cops {
                let decision = tiers.decide(&cop);
                let what = format!("{mode:?} {cop:?} on trace {:?}", trace.events());
                let built = construct_witness(&view, cop, mode);
                if let Some(w) = &built {
                    assert_constructed_witness_valid(&view, cop, mode, w, &what);
                    confirmed_disjoint += usize::from(!overlap);
                } else if overlap && encoder_verdict(&view, cop, mode) == SmtResult::Unsat {
                    declined_overlapping += 1;
                }
                if decision != TierDecision::Refuted {
                    assert_eq!(
                        built.is_some(),
                        decision == TierDecision::Confirmed,
                        "{what}"
                    );
                }
            }
        }
    }
    assert!(
        declined_overlapping > 0,
        "no overlapping-wait COP was refuted"
    );
    assert!(confirmed_disjoint > 0, "no disjoint-wait COP was confirmed");
}

/// A deterministic regression of the differential harness on Figure 1.
#[test]
fn figure1_differential() {
    let w = rvsim::workloads::figures::figure1();
    let got = detector_races(&w.trace);
    let want = oracle_races(&w.trace.full_view(), 22);
    assert_eq!(got, want);
    assert_eq!(got.len(), 1);
}

/// The learnt-clause poison test: a window whose session first *retires*
/// two refuted COPs (their selector stays un-assumed forever after) and
/// only then checks a satisfiable one. If any clause learnt under a
/// retired COP's pinned race cut were retained unsoundly, the later COP
/// would flip to `Unsat` — so the late race must survive, with the
/// cascade on (the handoff COPs defeat both screens) and off (pure solver
/// order), and both runs must agree.
#[test]
fn retained_clauses_are_inert_after_a_cop_retires() {
    use rvtrace::{ThreadId, TraceBuilder};
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let p = b.fork(main);
    let c = b.fork(main);
    let q = b.fork(main);
    let l = b.new_lock("l");
    // Two two-writer handoff blocks: the flag has a justifier on `p` and
    // one on `q`, and `q` is ordered after the payload write only through
    // its read of `g`, which `p` publishes. That is a read fact, not MHB,
    // so the two justifiers share no MHB dominator after the payload
    // write and Tier B cannot refute. The payload COP survives the quick
    // check, fails Tier A's construction, and the solver refutes it —
    // learning clauses while its selector is assumed.
    for k in 0..2 {
        let y = b.var(&format!("y{k}"));
        let f = b.var(&format!("f{k}"));
        let g = b.var(&format!("g{k}"));
        b.write(p, y, 1);
        b.acquire(p, l);
        b.write(p, g, 1);
        b.release(p, l);
        b.acquire(q, l);
        b.read(q, g, 1);
        b.write(q, f, 1);
        b.release(q, l);
        b.acquire(p, l);
        b.write(p, f, 1);
        b.release(p, l);
        b.acquire(c, l);
        b.read(c, f, 1);
        b.release(c, l);
        b.branch(c);
        b.read(c, y, 1);
    }
    // The late COP: a sync-free racy pair checked *after* both refuted
    // COPs retired. Retained clauses must not be able to refute it.
    let x = b.var("x");
    b.write(p, x, 1);
    b.write(c, x, 2);
    let trace = b.finish();

    let mut baseline: Option<String> = None;
    for tiers in [true, false] {
        let cfg = DetectorConfig {
            tiers,
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(report.n_races(), 1, "the late COP stays a race");
        assert_eq!(report.stats.unsat, 2, "both handoff COPs stay refuted");
        if tiers {
            // Tier A confirms the sync-free late COP directly; the two
            // handoff COPs still retire through the session. The tiers-off
            // leg is the full poison ordering: the same session refutes
            // both handoff COPs and *then* must still find the late COP
            // satisfiable.
            assert_eq!(report.stats.tier_residue, 2);
            assert_eq!(report.stats.tier_confirmed, 1);
        } else {
            assert_eq!(report.stats.sat, 1, "the solver itself finds the race");
        }
        let fp = verdict_fingerprint(&report);
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(&fp, b, "tiers={tiers} diverged"),
        }
    }
}
