//! The `--kind` axis, certified end to end: differential testing of the
//! predictive deadlock and atomicity detectors (and the race detector over
//! the extended rwlock/channel vocabulary) against the brute-force
//! maximal-causal-model oracle, witness re-validation, and byte-identity
//! of every kind's report across worker counts, ingestion modes, the
//! slice/tier ablation flags, and the daemon.
//!
//! The random traces come from a structured generator that schedules
//! per-thread scripts — nested write/read-mode critical sections, shared
//! variables, channel send/recv, and optionally branches on earlier reads
//! — through an explicit lock-state machine, so every recorded
//! interleaving is consistent by construction and the scripts' lock
//! nesting produces real inversion candidates.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use rvcore::{atomicity, deadlock, infer_rmw_pairs, GoalSession};
use rvpredict::{
    check_consistency, check_schedule, oracle_atomicity, oracle_deadlocks, oracle_races,
    AtomicityDetector, AtomicityReport, ConsistencyMode, DeadlockCycle, DeadlockDetector,
    DeadlockReport, DetectorConfig, EventId, EventKind, RaceDetector, RaceSignature, Schedule,
    ThreadId, Trace, TraceBuilder, VarId, View, ViewExt,
};
use rvsim::rng::SmallRng;

// ------------------------------------------------------------ generator

const N_LOCKS: usize = 2;
const N_VARS: usize = 2;
/// The oracle enumerates every reachable interleaving; past ~22 events the
/// state space stops being exhaustively checkable in test time.
const MAX_ORACLE_EVENTS: usize = 22;

/// One step of a thread script. `Acq`/`Rel` pairs are balanced and
/// non-reentrant by construction of [`gen_script`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(usize),
    Read(usize),
    /// Acquire lock `.0`; `.1` selects read (shared) mode.
    Acq(usize, bool),
    /// Release the innermost open critical section.
    Rel,
    Send,
    Recv,
    /// A branch on the thread's earlier reads.
    Branch,
}

/// Generates one thread's script: a flat run of accesses and channel ops
/// with properly nested critical sections (depth ≤ 2, no reentrancy).
fn gen_script(rng: &mut SmallRng, open: &mut Vec<usize>, depth: usize, out: &mut Vec<Op>) {
    for _ in 0..rng.gen_range(1..4usize) {
        match rng.gen_range(0..10u32) {
            0..=2 => out.push(Op::Write(rng.gen_range(0..N_VARS as u32) as usize)),
            3..=4 => out.push(Op::Read(rng.gen_range(0..N_VARS as u32) as usize)),
            5..=7 if depth < 2 => {
                let l = rng.gen_range(0..N_LOCKS as u32) as usize;
                if open.contains(&l) {
                    continue;
                }
                let read_mode = rng.gen_range(0..4u32) == 0;
                out.push(Op::Acq(l, read_mode));
                open.push(l);
                gen_script(rng, open, depth + 1, out);
                open.pop();
                out.push(Op::Rel);
            }
            8 => out.push(Op::Send),
            9 => out.push(Op::Recv),
            _ => {}
        }
    }
}

/// Schedules the scripts through an explicit rwlock state machine: a step
/// is runnable only when its acquire would not violate mutual exclusion
/// and its recv has a sent message to consume, so the recorded trace is a
/// real interleaving. If every remaining thread is blocked — the scripts
/// deadlocked for real — the rest is dropped; the prefix recorded so far
/// is still consistent.
fn schedule(rng: &mut SmallRng, scripts: &[Vec<Op>]) -> Trace {
    #[derive(Default)]
    struct LockState {
        writer: Option<usize>,
        readers: Vec<usize>,
    }
    let mut b = TraceBuilder::new();
    let locks: Vec<_> = (0..N_LOCKS).map(|i| b.new_lock(&format!("l{i}"))).collect();
    let vars: Vec<_> = (0..N_VARS).map(|i| b.var(&format!("x{i}"))).collect();
    let chan = b.new_chan("c");
    let threads: Vec<_> = scripts.iter().map(|_| b.fork(ThreadId::MAIN)).collect();

    let mut pc = vec![0usize; scripts.len()];
    let mut held: Vec<Vec<(usize, bool)>> = vec![Vec::new(); scripts.len()];
    let mut lock_state: Vec<LockState> = (0..N_LOCKS).map(|_| LockState::default()).collect();
    let mut values = vec![0i64; N_VARS];
    let mut pending_sends: Vec<rvpredict::EventId> = Vec::new();
    let mut last: Option<usize> = None;

    loop {
        let runnable: Vec<usize> = (0..scripts.len())
            .filter(|&ti| {
                let Some(op) = scripts[ti].get(pc[ti]) else {
                    return false;
                };
                match *op {
                    Op::Acq(l, false) => {
                        lock_state[l].writer.is_none() && lock_state[l].readers.is_empty()
                    }
                    Op::Acq(l, true) => lock_state[l].writer.is_none(),
                    Op::Recv => !pending_sends.is_empty(),
                    _ => true,
                }
            })
            .collect();
        if runnable.is_empty() {
            break;
        }
        // A sticky (bursty) scheduler: mostly keep running the current
        // thread. A uniform pick would interleave first acquisitions so
        // often that inverted nestings nearly always truncate at the
        // circular wait instead of being recorded in full — leaving the
        // deadlock *predictor* nothing to predict from.
        let ti = match last {
            Some(t) if runnable.contains(&t) && rng.gen_range(0..5u32) < 4 => t,
            _ => runnable[rng.gen_range(0..runnable.len())],
        };
        last = Some(ti);
        let t = threads[ti];
        match scripts[ti][pc[ti]] {
            Op::Write(v) => {
                values[v] += 1;
                b.write(t, vars[v], values[v]);
            }
            Op::Read(v) => {
                b.read(t, vars[v], values[v]);
            }
            Op::Acq(l, false) => {
                lock_state[l].writer = Some(ti);
                held[ti].push((l, false));
                b.acquire(t, locks[l]);
            }
            Op::Acq(l, true) => {
                lock_state[l].readers.push(ti);
                held[ti].push((l, true));
                b.acquire_read(t, locks[l]);
            }
            Op::Rel => {
                let (l, read_mode) = held[ti].pop().expect("balanced by construction");
                if read_mode {
                    lock_state[l].readers.retain(|&r| r != ti);
                    b.release_read(t, locks[l]);
                } else {
                    lock_state[l].writer = None;
                    b.release(t, locks[l]);
                }
            }
            Op::Send => {
                pending_sends.push(b.send(t, chan));
            }
            Op::Recv => {
                let s = pending_sends.remove(0);
                b.recv(t, chan, Some(s));
            }
            Op::Branch => {
                b.branch(t);
            }
        }
        pc[ti] += 1;
    }
    b.finish()
}

fn gen_trace(rng: &mut SmallRng) -> Trace {
    gen_trace_with(rng, false)
}

/// [`gen_trace`], optionally `branchy`: each script then starts by
/// branching on a read of a shared variable and ends by writing one, so a
/// thread scheduled after another often branches on a value the other
/// wrote *after* its critical sections — which pins the reader behind the
/// writer's whole script whenever control flow is respected. Without
/// `branchy` the random stream, and so every trace, is exactly
/// [`gen_trace`]'s.
fn gen_trace_with(rng: &mut SmallRng, branchy: bool) -> Trace {
    let n_threads = rng.gen_range(2..4usize);
    // Half the traces come from lock-heavy scripts — each thread nests two
    // critical sections in a random order — so inversion candidates (and
    // real predictable deadlocks, whenever the scheduler happens to
    // serialize both nestings) show up often enough to exercise the
    // deadlock detector, not just refutations.
    let lock_heavy = rng.gen_range(0..2u32) == 0;
    let scripts: Vec<Vec<Op>> = (0..n_threads)
        .map(|_| {
            let mut s = if lock_heavy {
                let outer = rng.gen_range(0..N_LOCKS as u32) as usize;
                let inner = (outer + 1) % N_LOCKS;
                let mut s = vec![Op::Acq(outer, false)];
                if rng.gen_range(0..2u32) == 0 {
                    s.push(Op::Write(rng.gen_range(0..N_VARS as u32) as usize));
                }
                s.push(Op::Acq(inner, rng.gen_range(0..6u32) == 0));
                s.push(Op::Rel);
                s.push(Op::Rel);
                s
            } else {
                let mut s = Vec::new();
                gen_script(rng, &mut Vec::new(), 0, &mut s);
                s
            };
            if branchy {
                let v = rng.gen_range(0..N_VARS as u32) as usize;
                s.splice(0..0, [Op::Read(v), Op::Branch]);
                s.push(Op::Write(rng.gen_range(0..N_VARS as u32) as usize));
            }
            s
        })
        .collect();
    schedule(rng, &scripts)
}

fn cases_from_env(default: usize) -> usize {
    // `PROPTEST_CASES` kept its name when the suite moved off proptest.
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ----------------------------------------------------- oracle arbitering

/// The certifying differential: on every generated trace, each kind's
/// detector must agree with the brute-force oracle — race signatures
/// exactly, deadlock cycle signatures exactly, atomicity verdicts on
/// existence — every candidate decided, and every reported witness must
/// re-validate against the §2 axioms.
#[test]
fn kind_detectors_match_oracle_on_random_traces() {
    let mut rng = SmallRng::seed_from_u64(0x4B1D);
    let cases = cases_from_env(48);
    let mut checked = 0;
    let (mut races_seen, mut deadlocks_seen, mut atomicity_seen) = (0usize, 0usize, 0usize);
    for _attempt in 0..cases * 30 {
        if checked == cases {
            break;
        }
        let trace = gen_trace(&mut rng);
        if trace.len() < 6 || trace.len() > MAX_ORACLE_EVENTS {
            continue;
        }
        checked += 1;
        assert!(
            check_consistency(&trace).is_empty(),
            "generator must only record consistent traces: {:?}",
            trace.events()
        );
        let view = trace.full_view();

        // Race: exact signature agreement over the extended vocabulary.
        let race = RaceDetector::with_config(DetectorConfig::default()).detect(&trace);
        assert_eq!(
            race.stats.undecided,
            0,
            "small traces must decide fully: {:?} on trace {:?}",
            race.stats.undecided_by_reason,
            trace.events()
        );
        assert_eq!(race.stats.witness_failures, 0);
        for r in &race.races {
            assert_eq!(
                check_schedule(&view, &r.schedule),
                Ok(()),
                "race witness must re-validate on trace {:?}",
                trace.events()
            );
        }
        let got: BTreeSet<RaceSignature> = race.signatures().into_iter().collect();
        let real: BTreeSet<RaceSignature> = oracle_races(&view, MAX_ORACLE_EVENTS)
            .into_iter()
            .map(|cop| RaceSignature::of_cop(&trace, cop))
            .collect();
        assert_eq!(
            got,
            real,
            "race detector vs oracle disagree on trace {:?}",
            trace.events()
        );
        races_seen += real.len();

        // Deadlock: exact cycle-signature agreement, witnesses re-checked.
        let dl = DeadlockDetector {
            config: DetectorConfig::default(),
        }
        .detect(&trace);
        assert_eq!(dl.unknown, 0, "small traces must decide fully");
        for cycle in &dl.cycles {
            assert_eq!(
                check_schedule(&view, &cycle.schedule),
                Ok(()),
                "deadlock witness must re-validate on trace {:?}",
                trace.events()
            );
        }
        let got: BTreeSet<Vec<_>> = dl.cycles.iter().map(|c| c.locks.clone()).collect();
        let real = oracle_deadlocks(&view, MAX_ORACLE_EVENTS);
        assert_eq!(
            got,
            real,
            "deadlock detector vs oracle disagree on trace {:?}",
            trace.events()
        );
        deadlocks_seen += real.len();

        // Atomicity: verdict agreement on existence, witnesses re-checked.
        let at = AtomicityDetector {
            config: DetectorConfig::default(),
        }
        .detect(&trace);
        assert_eq!(at.unknown, 0, "small traces must decide fully");
        for v in &at.violations {
            assert_eq!(
                check_schedule(&view, &v.schedule),
                Ok(()),
                "atomicity witness must re-validate on trace {:?}",
                trace.events()
            );
        }
        let real = oracle_atomicity(&view, MAX_ORACLE_EVENTS);
        assert_eq!(
            !at.violations.is_empty(),
            !real.is_empty(),
            "atomicity detector vs oracle disagree on trace {:?}",
            trace.events()
        );
        atomicity_seen += real.len();
    }
    assert_eq!(checked, cases, "not enough small generated traces");
    assert!(races_seen > 0, "the generator never produced a race");
    assert!(
        deadlocks_seen > 0,
        "the generator never produced a deadlock"
    );
    assert!(
        atomicity_seen > 0,
        "the generator never produced an atomicity violation"
    );
}

// ------------------------------------------------- goal-session differential

/// Replays a deadlock witness and checks the circular wait independently
/// of the detector: after the prefix, each cycle thread's next event is
/// its blocked acquire, and the lock it requests is held by the next
/// cycle thread.
fn reaches_circular_wait(view: &View<'_>, cycle: &DeadlockCycle) -> bool {
    let mut holder = HashMap::new();
    let mut scheduled: HashMap<ThreadId, usize> = HashMap::new();
    for &id in &cycle.schedule.0 {
        let e = view.event(id);
        match e.kind {
            EventKind::Acquire { lock } => {
                holder.insert(lock, e.thread);
            }
            EventKind::Release { lock } => {
                holder.remove(&lock);
            }
            _ => {}
        }
        *scheduled.entry(e.thread).or_default() += 1;
    }
    let k = cycle.acquires.len();
    (0..k).all(|i| {
        let acquire = view.event(cycle.acquires[i]);
        let owner = view.event(cycle.acquires[(i + 1) % k]).thread;
        let next = scheduled.get(&acquire.thread).copied().unwrap_or(0);
        view.thread_events(acquire.thread).get(next) == Some(&cycle.acquires[i])
            && holder.get(&acquire.kind.lock().unwrap()) == Some(&owner)
    })
}

/// The prefix obligation `pf` a deadlock witness must meet, replayed: under
/// control flow every scheduled branch is concretely feasible — each read
/// its thread made before it observes its recorded value, recursively
/// through the writes those reads observe; under whole-trace consistency
/// every scheduled read observes its recorded value.
fn prefix_feasible(view: &View<'_>, schedule: &Schedule, mode: ConsistencyMode) -> bool {
    let mut last: HashMap<VarId, EventId> = HashMap::new();
    let mut observed: HashMap<EventId, Option<EventId>> = HashMap::new();
    for &id in &schedule.0 {
        match view.event(id).kind {
            EventKind::Read { var, .. } => {
                observed.insert(id, last.get(&var).copied());
            }
            EventKind::Write { var, .. } => {
                last.insert(var, id);
            }
            _ => {}
        }
    }
    let keeps_value = |r: EventId| {
        let EventKind::Read { var, value } = view.event(r).kind else {
            unreachable!("only reads observe writes")
        };
        let got = match observed[&r] {
            Some(w) => view.event(w).kind.value(),
            None => Some(view.initial_value(var)),
        };
        got == Some(value)
    };
    if mode == ConsistencyMode::WholeTrace {
        return observed.keys().all(|&r| keeps_value(r));
    }
    let mut pending: Vec<EventId> = schedule
        .0
        .iter()
        .copied()
        .filter(|&e| view.event(e).kind.is_branch())
        .collect();
    let mut done = HashSet::new();
    while let Some(e) = pending.pop() {
        if !done.insert(e) {
            continue;
        }
        if view.event(e).kind.is_read() {
            if !keeps_value(e) {
                return false;
            }
            pending.extend(observed[&e]);
        } else {
            pending.extend(view.thread_reads_before(e));
        }
    }
    true
}

/// One window session serves every deadlock cycle and atomicity triple,
/// so it must decide each exactly as a fresh one-goal session would —
/// in both consistency modes, on branchy generated traces whose reads
/// pin some inversions behind a whole critical section. The production
/// deadlock job (dedup off, so every candidate is solved) must turn every
/// SAT cycle into a reported cycle whose witness re-validates: a
/// consistent schedule, the circular wait, and the prefix obligation
/// `pf`. Under control flow the reported cycles also match the oracle.
#[test]
fn goal_sessions_match_fresh_one_goal_sessions_in_both_modes() {
    let mut rng = SmallRng::seed_from_u64(0x60A1);
    let cases = cases_from_env(128);
    let (mut sat_cycles, mut refuted_cycles, mut sat_triples) = (0usize, 0usize, 0usize);
    let mut checked = 0;
    for _attempt in 0..cases * 30 {
        if checked == cases {
            break;
        }
        let trace = gen_trace_with(&mut rng, true);
        if trace.len() < 6 {
            continue;
        }
        checked += 1;
        let view = trace.full_view();
        for mode in [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace] {
            let config = DetectorConfig {
                mode,
                dedup_signatures: false,
                ..Default::default()
            };
            let pairs = infer_rmw_pairs(&view);
            for goals in [
                deadlock::candidates(&view),
                atomicity::candidates(&view, &pairs),
            ] {
                let mut shared = GoalSession::new(&config, &view, &goals, None);
                for (i, goal) in goals.iter().enumerate() {
                    let verdict = shared.solve(i).0;
                    let fresh = GoalSession::new(&config, &view, std::slice::from_ref(goal), None)
                        .solve(0)
                        .0;
                    assert_eq!(
                        verdict,
                        fresh,
                        "{mode:?}: goal {goal:?} on trace {:?}",
                        trace.events()
                    );
                }
            }

            let mut dl = DeadlockReport::default();
            let detector = DeadlockDetector {
                config: config.clone(),
            };
            detector.detect_in_view(&view, &mut dl);
            assert_eq!(dl.unknown, 0, "small traces must decide fully");
            assert_eq!(
                dl.cycles.len(),
                dl.sat,
                "{mode:?}: every SAT cycle needs a validated witness on trace {:?}",
                trace.events()
            );
            for cycle in &dl.cycles {
                assert_eq!(check_schedule(&view, &cycle.schedule), Ok(()));
                assert!(
                    reaches_circular_wait(&view, cycle),
                    "{mode:?}: {cycle:?} on trace {:?}",
                    trace.events()
                );
                assert!(
                    prefix_feasible(&view, &cycle.schedule, mode),
                    "{mode:?}: infeasible prefix {cycle:?} on trace {:?}",
                    trace.events()
                );
            }
            if mode == ConsistencyMode::ControlFlow && trace.len() <= MAX_ORACLE_EVENTS {
                let got: BTreeSet<Vec<_>> = dl.cycles.iter().map(|c| c.locks.clone()).collect();
                assert_eq!(
                    got,
                    oracle_deadlocks(&view, MAX_ORACLE_EVENTS),
                    "deadlock sessions vs oracle on trace {:?}",
                    trace.events()
                );
            }
            sat_cycles += dl.sat;
            refuted_cycles += dl.unsat;

            let mut at = AtomicityReport::default();
            let detector = AtomicityDetector { config };
            detector.detect_in_view(&view, &pairs, &mut at);
            assert_eq!(at.unknown, 0, "small traces must decide fully");
            for v in &at.violations {
                assert_eq!(check_schedule(&view, &v.schedule), Ok(()));
            }
            sat_triples += at.sat;
        }
    }
    assert_eq!(checked, cases, "not enough generated traces");
    assert!(sat_cycles > 0, "no cycle was ever satisfiable");
    assert!(refuted_cycles > 0, "no cycle was ever refuted");
    assert!(sat_triples > 0, "no triple was ever satisfiable");
}

/// RwLock generator semantics, pinned: concurrent read-mode critical
/// sections never race with each other, write-vs-read mode pairs do —
/// checked through both the full detector and the oracle.
#[test]
fn rwlock_read_mode_is_shared_write_mode_is_exclusive() {
    // Two readers and one write-mode writer over the same variable: the
    // write/read-mode exclusion serializes every conflicting pair.
    let mut b = TraceBuilder::new();
    let l = b.new_lock("l");
    let x = b.var("x");
    let t1 = b.fork(ThreadId::MAIN);
    let t2 = b.fork(ThreadId::MAIN);
    b.acquire(ThreadId::MAIN, l);
    b.write(ThreadId::MAIN, x, 1);
    b.release(ThreadId::MAIN, l);
    for t in [t1, t2] {
        b.acquire_read(t, l);
        b.read(t, x, 1);
        b.release_read(t, l);
    }
    let guarded = b.finish();
    assert!(check_consistency(&guarded).is_empty());
    let report = RaceDetector::with_config(DetectorConfig::default()).detect(&guarded);
    assert_eq!(report.n_races(), 0, "write mode excludes read mode");
    assert!(oracle_races(&guarded.full_view(), MAX_ORACLE_EVENTS).is_empty());

    // The writer drops to read mode: two read-mode sections may overlap,
    // so the write/read pair is a predictable race — and the oracle
    // confirms it.
    let mut b = TraceBuilder::new();
    let l = b.new_lock("l");
    let x = b.var("x");
    let t = b.fork(ThreadId::MAIN);
    b.acquire_read(ThreadId::MAIN, l);
    b.write(ThreadId::MAIN, x, 1);
    b.release_read(ThreadId::MAIN, l);
    b.acquire_read(t, l);
    b.read(t, x, 1);
    b.release_read(t, l);
    let shared = b.finish();
    assert!(check_consistency(&shared).is_empty());
    let report = RaceDetector::with_config(DetectorConfig::default()).detect(&shared);
    assert_eq!(report.n_races(), 1, "read mode is shared, the pair races");
    assert_eq!(
        oracle_races(&shared.full_view(), MAX_ORACLE_EVENTS).len(),
        1
    );
}

/// The named micro workloads `emit_trace` serves for every kind: each
/// class's detector reports the expected number of violations, decides
/// every candidate and agrees with the oracle. The gate-lock control must
/// show a refutation (`unsat ≥ 1`), so a cycle the enumeration missed
/// cannot pass for one the solver ruled out.
#[test]
fn micro_workloads_report_expected_violation_counts() {
    use rvsim::workloads::synthetic::{
        atomicity_workload, channel_workload, deadlock_workload, gated_deadlock_workload,
        rwlock_racy_workload, rwlock_workload,
    };
    for (w, kind, expected) in [
        (deadlock_workload("deadlock_micro", 1), "deadlock", 1),
        (gated_deadlock_workload("deadlock_gated"), "deadlock", 0),
        (atomicity_workload("atomicity_micro", 1), "atomicity", 3),
        (rwlock_workload("rwlock_guarded", 2), "race", 0),
        (rwlock_racy_workload("rwlock_shared_readers"), "race", 1),
        (channel_workload("channel_pipeline", 2), "race", 0),
    ] {
        let (trace, name) = (&w.trace, w.name.as_str());
        let view = trace.full_view();
        let config = DetectorConfig::default();
        // (violations, unsat, unknown, agrees with the oracle)
        let (violations, unsat, unknown, agrees) = match kind {
            "deadlock" => {
                let r = DeadlockDetector { config }.detect(trace);
                let got: BTreeSet<Vec<_>> = r.cycles.iter().map(|c| c.locks.clone()).collect();
                let agrees = got == oracle_deadlocks(&view, MAX_ORACLE_EVENTS);
                (r.n_cycles(), r.unsat, r.unknown, agrees)
            }
            "atomicity" => {
                let r = AtomicityDetector { config }.detect(trace);
                let real = oracle_atomicity(&view, MAX_ORACLE_EVENTS);
                let agrees = r.violations.is_empty() == real.is_empty();
                (r.violations.len(), r.unsat, r.unknown, agrees)
            }
            _ => {
                let r = RaceDetector::with_config(config).detect(trace);
                let got: BTreeSet<RaceSignature> = r.signatures().into_iter().collect();
                let real: BTreeSet<RaceSignature> = oracle_races(&view, MAX_ORACLE_EVENTS)
                    .into_iter()
                    .map(|cop| RaceSignature::of_cop(trace, cop))
                    .collect();
                (r.n_races(), r.stats.unsat, r.stats.undecided, got == real)
            }
        };
        assert_eq!(violations, expected, "{name}: violation count");
        assert_eq!(unknown, 0, "{name}: every candidate decided");
        assert!(agrees, "{name}: detector and oracle disagree");
        if name == "deadlock_gated" {
            assert!(unsat >= 1, "{name}: the cycle was missed, not refuted");
        }
    }
}

// -------------------------------------------------------- byte identity

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_rvpredict")
}

fn served() -> &'static str {
    env!("CARGO_BIN_EXE_rvserved")
}

fn dir() -> PathBuf {
    let dir = std::env::temp_dir().join("rvpredict-kinds");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One trace carrying all three violation classes — a lock inversion
/// (deadlock), unprotected read-modify-writes (atomicity) and a bare
/// write/write pair (race) — so every `--kind` prints a non-trivial
/// report. The inversion and the read-modify-writes repeat in three
/// blocks, so under [`SPLIT_WINDOW`] the same deadlock and atomicity
/// signatures recur in several windows and only the merge's
/// cross-window replay keeps one of each.
fn all_kinds_trace() -> Trace {
    rvsim::workloads::synthetic::repeated_kinds_workload("kinds", 3).trace
}

/// A `--window` that cuts [`all_kinds_trace`] into four windows.
const SPLIT_WINDOW: &str = "12";

/// Writes the shared fixture once in the given format (`json` or
/// `ndjson`) and returns its path.
fn fixture_path(format: &str) -> String {
    let path = dir().join(format!("kinds-{}.{format}", std::process::id()));
    if !path.exists() {
        let trace = all_kinds_trace();
        let serialized = match format {
            "ndjson" => rvpredict::to_ndjson(&trace),
            _ => rvpredict::to_json(&trace),
        };
        std::fs::write(&path, serialized).unwrap();
    }
    path.to_str().unwrap().to_string()
}

/// Drops the run-dependent parts of stdout (the `window times:` line and
/// the `, solver …` wall-clock suffix of the race summary; the deadlock
/// and atomicity renderings carry no timing by design).
fn stripped_stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.trim_start().starts_with("window times:"))
        .map(|l| match l.find(", solver ") {
            Some(i) => l[..i].to_string(),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn run(args: &[&str]) -> Output {
    Command::new(cli()).args(args).output().expect("cli runs")
}

/// Every kind's report is byte-identical (modulo wall clock) across
/// worker counts, whole-file vs streamed ingestion, and the `--no-slice`
/// / `--no-tiers` ablations — the determinism contract extended to the
/// whole axis — both in one window and cut into [`SPLIT_WINDOW`]
/// windows, where the repeated deadlock and atomicity signatures go
/// through the merge's cross-window replay.
#[test]
fn kind_reports_are_identical_across_jobs_stream_and_ablations() {
    let json_path = fixture_path("json");
    let ndjson_path = fixture_path("ndjson");
    for kind in ["race", "deadlock", "atomicity", "all"] {
        for window in [None, Some(SPLIT_WINDOW)] {
            let mut baseline: Option<(Option<i32>, String)> = None;
            for extra in [
                &[][..],
                &["--stream"][..],
                &["--no-slice"][..],
                &["--no-tiers"][..],
            ] {
                for jobs in ["1", "2", "4", "8"] {
                    let mut args = vec!["--kind", kind, "--witnesses", "--jobs", jobs];
                    if let Some(w) = window {
                        args.extend(["--window", w]);
                    }
                    args.extend(extra);
                    args.push(if extra.contains(&"--stream") {
                        &ndjson_path
                    } else {
                        &json_path
                    });
                    let out = run(&args);
                    let got = (out.status.code(), stripped_stdout(&out));
                    match &baseline {
                        None => {
                            assert_eq!(
                                got.0,
                                Some(1),
                                "the fixture carries every violation class; stderr: {}",
                                String::from_utf8_lossy(&out.stderr)
                            );
                            baseline = Some(got);
                        }
                        Some(b) => assert_eq!(
                            &got, b,
                            "--kind {kind} diverged at window={window:?} jobs={jobs} \
                             extra={extra:?}"
                        ),
                    }
                }
            }
            let (_, stdout) = baseline.unwrap();
            match kind {
                "race" => assert!(stdout.contains("race(s)"), "{stdout}"),
                "deadlock" => assert!(stdout.contains("deadlock:"), "{stdout}"),
                "atomicity" => assert!(stdout.contains("atomicity:"), "{stdout}"),
                _ => {
                    // `all` composes every section in a fixed order.
                    assert!(stdout.contains("race(s)"), "{stdout}");
                    assert!(stdout.contains("deadlock:"), "{stdout}");
                    assert!(stdout.contains("atomicity:"), "{stdout}");
                }
            }
            // One report per signature, however many windows repeat it:
            // the inversion is a candidate in three windows, and the
            // atomicity signatures recur in each block.
            if kind == "deadlock" || kind == "all" {
                assert_eq!(stdout.matches("  cycle {").count(), 1, "{stdout}");
                if window.is_some() {
                    assert!(stdout.contains("candidates=3,"), "{stdout}");
                }
            }
            if kind == "atomicity" || kind == "all" {
                let signatures: Vec<&str> = stdout
                    .lines()
                    .filter_map(|l| l.strip_prefix("  violation "))
                    .map(|l| l.split(':').next().unwrap())
                    .collect();
                let unique: BTreeSet<&str> = signatures.iter().copied().collect();
                assert_eq!(unique.len(), signatures.len(), "{stdout}");
                assert_eq!(unique.len(), 2, "{stdout}");
            }
        }
    }
}

/// Launches the daemon on a test-unique socket and waits until it accepts
/// connections.
fn spawn_daemon(tag: &str, extra: &[&str]) -> (Child, String) {
    let sock = dir().join(format!("{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let sock = sock.to_str().unwrap().to_string();
    let child = Command::new(served())
        .args(["--socket", &sock])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if UnixStream::connect(&sock).is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never bound {sock}");
        std::thread::sleep(Duration::from_millis(10));
    }
    (child, sock)
}

/// Every kind relays through the daemon byte-identical (modulo wall
/// clock) to the standalone streamed CLI run, with the same exit code —
/// and a session runs only the analyses its kind selects: no race
/// counters in a deadlock session's metrics.
#[test]
fn kind_reports_relay_identically_through_daemon() {
    let path = fixture_path("ndjson");
    // One accept slot per kind plus the readiness probe.
    let (daemon, sock) = spawn_daemon("kinds", &["--once", "5"]);
    let metrics = dir().join(format!("kinds-daemon-{}.metrics", std::process::id()));
    let metrics = metrics.to_str().unwrap();
    for kind in ["race", "deadlock", "atomicity", "all"] {
        let solo = run(&["--kind", kind, "--witnesses", "--stream", &path]);
        let conn = run(&[
            "--kind",
            kind,
            "--witnesses",
            "--metrics",
            metrics,
            "--connect",
            &sock,
            &path,
        ]);
        let doc = std::fs::read_to_string(metrics).unwrap();
        // Every kind records the run-level `detector.wall_time`; only
        // race sessions record the race counters.
        let race_counters = doc.contains("\"detector.races\"") || doc.contains("\"solver.");
        assert_eq!(
            race_counters,
            kind == "race" || kind == "all",
            "--kind {kind} metrics: {doc}"
        );
        assert_eq!(
            doc.contains("\"deadlock.cycles\""),
            kind == "deadlock" || kind == "all"
        );
        assert_eq!(
            conn.status.code(),
            solo.status.code(),
            "--kind {kind} exit code drifted; stderr: {}",
            String::from_utf8_lossy(&conn.stderr)
        );
        assert_eq!(
            stripped_stdout(&conn),
            stripped_stdout(&solo),
            "--kind {kind} stdout drifted through the daemon"
        );
    }
    let out = daemon.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "--once daemon exits 0");
}

/// An unknown `kind` in a raw `SessionRequest` frame is rejected by the
/// daemon with a composed error response (exit 2), not a crash or a
/// silent default.
#[test]
fn daemon_rejects_unknown_kind_in_session_request() {
    // One accept slot for the request plus the readiness probe.
    let (daemon, sock) = spawn_daemon("badkind", &["--once", "2"]);
    let mut s = UnixStream::connect(&sock).unwrap();
    rvpredict::write_frame(&mut s, br#"{"kind": "livelock"}"#).unwrap();
    s.flush().unwrap();
    let resp = rvpredict::read_frame(&mut s)
        .expect("daemon responds to a malformed request")
        .expect("a response frame, not EOF");
    let resp =
        rvpredict::driver::SessionResponse::from_json(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(resp.exit, 2, "unknown kind is a usage error: {resp:?}");
    assert!(resp.stderr.contains("kind"), "{resp:?}");
    drop(s);
    let out = daemon.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
}
