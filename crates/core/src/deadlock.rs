//! Predictive deadlock detection on the maximal causal model.
//!
//! Paper §2.5 names other violation classes definable over the same
//! feasibility closure; this module does it for resource deadlocks. A
//! window witnesses a *predictable deadlock* when some feasible reordering
//! reaches a state with a circular wait: threads `t₁ … tₖ` where each `tᵢ`
//! holds lock `lᵢ` and its next event is a (write-mode) acquire of
//! `l_{i+1 mod k}`.
//!
//! This module enumerates the candidates and validates the witnesses; the
//! solving is the window's one [`GoalSession`](crate::GoalSession), with one
//! [`Goal::Deadlock`] per candidate cycle. The goal is the
//! `Φ_race`-analogue over `Φ_mhb ∧ Φ_lock ∧ Φ_cf`: the session's cut `D`
//! marks the deadlock point, `Φ_lock` is *conditional* (spans acquired
//! after `D` are exempt from serialization — the deadlocked state has
//! cycle spans open, which an unconditional `Φ_lock` would contradict),
//! the window's prefix-feasibility literal `pf` makes every branch before
//! `D` concretely feasible (`D < O_b ∨ cf(b)`), and each cycle thread's
//! blocked acquire is pinned just past `D` while its program-order prefix
//! — including the hold of its contributed lock — lands before `D`. A
//! satisfying model's `{e : O_e < D}` prefix, sorted by model value, is a
//! consistent data-abstract schedule ending in the circular wait; it is
//! validated with [`check_schedule`] plus a lock-state replay before
//! anything is reported (soundness, the Theorem-1 argument verbatim — the
//! witness is a feasible prefix, and prefixes of feasible traces are
//! feasible).
//!
//! Candidates come from a linear acquires-while-holding scan per thread and
//! a bounded simple-cycle search, so the SMT work is proportional to the
//! number of genuine lock-order inversions, not to the window size.
//!
//! Read-mode (rwlock) holds are never part of a cycle: only write-mode
//! acquire-while-holding edges are enumerated, matching
//! [`oracle_deadlocks`](crate::oracle::oracle_deadlocks).

use std::collections::HashMap;

use rvtrace::{
    check_schedule, EventId, EventKind, LockId, LockTable, Schedule, ThreadId, Trace, View,
};

use crate::config::{DetectorConfig, Kind};
use crate::detector::{decide_goals, RaceDetector};
use crate::encoder::Goal;
use crate::report::{replay, Verdict};

/// Bound on enumerated cycle length (threads in one deadlock). Inversions
/// among more than four locks exist but are vanishingly rare, and the
/// simple-cycle search is exponential in this bound.
pub const MAX_CYCLE_LEN: usize = 4;

/// One acquire-while-holding edge: `thread`, holding `held`, requests
/// `wanted` at `acquire`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HoldEdge {
    thread: ThreadId,
    held: LockId,
    wanted: LockId,
    acquire: EventId,
}

/// A validated predicted deadlock: a lock cycle plus the witness prefix
/// that reaches the circular wait.
#[derive(Debug, Clone)]
pub struct DeadlockCycle {
    /// Canonical signature: the cycle's locks, sorted.
    pub locks: Vec<LockId>,
    /// The blocked acquires, in cycle order (thread `i` waits on the lock
    /// held by thread `i+1`).
    pub acquires: Vec<EventId>,
    /// A validated witness: a consistent reordering prefix after which
    /// every cycle thread's next event is its blocked acquire.
    pub schedule: Schedule,
}

/// Report of a deadlock analysis run.
#[derive(Debug, Clone, Default)]
pub struct DeadlockReport {
    /// Validated cycles (one per lock signature).
    pub cycles: Vec<DeadlockCycle>,
    /// Candidate cycles enumerated, over every window.
    pub candidates: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub sat: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub unsat: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub unknown: usize,
}

impl DeadlockReport {
    /// Number of validated cycles.
    pub fn n_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// Merges one window's job result; windows must merge in order.
    pub(crate) fn merge(&mut self, window: DeadlockWindow, dedup: bool) {
        self.candidates += window.candidates;
        let confirmed = self.cycles.iter().map(|c| c.locks.clone()).collect();
        let counts = [&mut self.sat, &mut self.unsat, &mut self.unknown];
        replay(window.records, confirmed, dedup, counts, &mut self.cycles);
    }
}

/// One window's deadlock job result: the candidate count and the verdict
/// of every candidate the job decided, in candidate order.
#[derive(Debug)]
pub(crate) struct DeadlockWindow {
    candidates: usize,
    records: Vec<(Vec<LockId>, Verdict<DeadlockCycle>)>,
}

/// Write-mode acquire-while-holding edges of one window, in deterministic
/// (thread table, program order) order.
fn hold_edges(view: &View<'_>) -> Vec<HoldEdge> {
    let trace = view.trace();
    let mut out = Vec::new();
    for &t in trace.threads() {
        // Locks write-held at window start carry in as open holds.
        let mut held: Vec<LockId> = view
            .held_at_start()
            .iter()
            .filter(|&&(ht, _)| ht == t)
            .map(|&(_, l)| l)
            .collect();
        for &e in view.thread_events(t) {
            match view.event(e).kind {
                EventKind::Acquire { lock } => {
                    for &h in &held {
                        if h != lock {
                            out.push(HoldEdge {
                                thread: t,
                                held: h,
                                wanted: lock,
                                acquire: e,
                            });
                        }
                    }
                    held.push(lock);
                }
                EventKind::Release { lock } => {
                    if let Some(p) = held.iter().rposition(|&l| l == lock) {
                        held.remove(p);
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Simple cycles over the edges: `eᵢ.wanted == e_{i+1}.held` cyclically,
/// threads and held locks pairwise distinct, length ≤ [`MAX_CYCLE_LEN`].
/// Each cycle is produced exactly once, rooted at its minimal edge index.
fn enumerate_cycles(edges: &[HoldEdge]) -> Vec<Vec<HoldEdge>> {
    let mut out = Vec::new();
    let mut path: Vec<usize> = Vec::new();
    for s in 0..edges.len() {
        path.clear();
        path.push(s);
        dfs(edges, s, &mut path, &mut out);
    }
    out
}

fn dfs(edges: &[HoldEdge], s: usize, path: &mut Vec<usize>, out: &mut Vec<Vec<HoldEdge>>) {
    let last = edges[*path.last().expect("non-empty path")];
    if path.len() >= 2 && last.wanted == edges[s].held {
        out.push(path.iter().map(|&i| edges[i]).collect());
        return;
    }
    if path.len() >= MAX_CYCLE_LEN {
        return;
    }
    for j in (s + 1)..edges.len() {
        let e = edges[j];
        if e.held != last.wanted
            || path.contains(&j)
            || path
                .iter()
                .any(|&i| edges[i].thread == e.thread || edges[i].held == e.held)
        {
            continue;
        }
        path.push(j);
        dfs(edges, s, path, out);
        path.pop();
    }
}

/// The window's candidate cycles, in enumeration order: each the blocked
/// acquires of one lock cycle, in cycle order (thread `i` waits on the
/// lock held by thread `i+1`).
fn cycles(view: &View<'_>) -> Vec<Vec<EventId>> {
    enumerate_cycles(&hold_edges(view))
        .into_iter()
        .map(|cycle| cycle.iter().map(|e| e.acquire).collect())
        .collect()
}

/// The window's candidate cycles as session goals, in the order its
/// deadlock job decides them.
pub fn candidates(view: &View<'_>) -> Vec<Goal> {
    cycles(view).into_iter().map(Goal::Deadlock).collect()
}

/// The lock a blocked acquire requests.
fn wanted(view: &View<'_>, acquire: EventId) -> LockId {
    view.event(acquire)
        .kind
        .lock()
        .expect("a cycle acquire names its lock")
}

/// Replays the witness prefix's lock holds and checks the circular wait
/// (a prefix that breaks mutual exclusion has none): each cycle
/// thread's next unscheduled event is its blocked acquire, it still holds
/// its contributed lock (the one its predecessor in the cycle requests),
/// and the lock it requests is held by another thread.
fn circular_wait(view: &View<'_>, schedule: &Schedule, acquires: &[EventId]) -> bool {
    let mut locks = LockTable::at_start(view);
    let mut pos: HashMap<ThreadId, usize> = HashMap::new();
    for &id in &schedule.0 {
        let e = view.event(id);
        if !locks.step(e.thread, &e.kind) {
            return false;
        }
        *pos.entry(e.thread).or_insert(0) += 1;
    }
    let k = acquires.len();
    (0..k).all(|i| {
        let (acquire, thread) = (acquires[i], view.event(acquires[i]).thread);
        let held = wanted(view, acquires[(i + k - 1) % k]);
        let next = view
            .thread_events(thread)
            .get(pos.get(&thread).copied().unwrap_or(0))
            .copied();
        next == Some(acquire)
            && locks.writer(held) == Some(thread)
            && locks
                .writer(wanted(view, acquire))
                .is_some_and(|h| h != thread)
    })
}

/// The predictive deadlock checker. Windows are analyzed as deadlock
/// jobs of the shared window driver ([`RaceDetector`] with
/// [`Kind::Deadlock`]), so the report is identical at any thread count.
#[derive(Debug, Default)]
pub struct DeadlockDetector {
    /// Shared configuration (window size, budgets, mode).
    pub config: DetectorConfig,
}

impl DeadlockDetector {
    /// Runs the analysis over the whole trace.
    pub fn detect(&self, trace: &Trace) -> DeadlockReport {
        let config = DetectorConfig {
            kind: Kind::Deadlock,
            ..self.config.clone()
        };
        RaceDetector::with_config(config).detect(trace).deadlock
    }

    /// Analyzes one window and merges it into `report` (cycles already
    /// reported there are deduplicated by lock signature).
    pub fn detect_in_view(&self, view: &View<'_>, report: &mut DeadlockReport) {
        let window = solve_window(&self.config, view);
        report.merge(window, self.config.dedup_signatures);
    }
}

/// The deadlock job of one window: every candidate cycle's verdict, as a
/// pure function of the window, decided on the window's one session.
pub(crate) fn solve_window(cfg: &DetectorConfig, view: &View<'_>) -> DeadlockWindow {
    let cycles = cycles(view);
    let goals: Vec<Goal> = cycles.iter().cloned().map(Goal::Deadlock).collect();
    // A cycle's signature: its locks, sorted.
    let signatures: Vec<Vec<LockId>> = cycles
        .iter()
        .map(|acquires| {
            let mut locks: Vec<LockId> = acquires.iter().map(|&a| wanted(view, a)).collect();
            locks.sort();
            locks
        })
        .collect();
    let records = decide_goals(cfg, view, &goals, signatures.clone(), |i, session| {
        let acquires = &cycles[i];
        // The witness: every event the model orders before D, by (model
        // value, event id) — a per-thread prefix.
        let d = session.cut();
        let mut prefix: Vec<(i64, EventId)> = view
            .ids()
            .map(|id| (session.value(id), id))
            .filter(|&(v, _)| v < d)
            .collect();
        prefix.sort();
        let schedule = Schedule(prefix.into_iter().map(|(_, id)| id).collect());
        let valid =
            check_schedule(view, &schedule).is_ok() && circular_wait(view, &schedule, acquires);
        valid.then(|| DeadlockCycle {
            locks: signatures[i].clone(),
            acquires: acquires.clone(),
            schedule,
        })
    });
    DeadlockWindow {
        candidates: goals.len(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{TraceBuilder, ViewExt};

    fn inversion_trace(gated: bool) -> Trace {
        let mut b = TraceBuilder::new();
        let g = gated.then(|| b.new_lock("g"));
        let l1 = b.new_lock("l1");
        let l2 = b.new_lock("l2");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        if let Some(g) = g {
            b.acquire(t1, g);
        }
        b.acquire(t1, l1);
        b.acquire(t1, l2);
        b.release(t1, l2);
        b.release(t1, l1);
        if let Some(g) = g {
            b.release(t1, g);
        }
        if let Some(g) = g {
            b.acquire(t2, g);
        }
        b.acquire(t2, l2);
        b.acquire(t2, l1);
        b.release(t2, l1);
        b.release(t2, l2);
        if let Some(g) = g {
            b.release(t2, g);
        }
        b.finish()
    }

    #[test]
    fn lock_inversion_predicted_and_validated() {
        let tr = inversion_trace(false);
        let report = DeadlockDetector::default().detect(&tr);
        assert_eq!(report.n_cycles(), 1, "{report:?}");
        let c = &report.cycles[0];
        assert_eq!(c.locks.len(), 2);
        // The witness really reaches the circular wait.
        let v = tr.full_view();
        assert!(check_schedule(&v, &c.schedule).is_ok());
    }

    #[test]
    fn gate_lock_prevents_prediction() {
        let tr = inversion_trace(true);
        let report = DeadlockDetector::default().detect(&tr);
        assert_eq!(report.n_cycles(), 0, "{report:?}");
        assert!(
            report.unsat >= 1,
            "cycle candidate must be refuted, not missed"
        );
    }

    #[test]
    fn consistent_order_yields_no_candidates() {
        let mut b = TraceBuilder::new();
        let l1 = b.new_lock("l1");
        let l2 = b.new_lock("l2");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        for &t in &[t1, t2] {
            b.acquire(t, l1);
            b.acquire(t, l2);
            b.release(t, l2);
            b.release(t, l1);
        }
        let tr = b.finish();
        let report = DeadlockDetector::default().detect(&tr);
        assert_eq!(report.candidates, 0);
        assert_eq!(report.n_cycles(), 0);
    }

    #[test]
    fn matches_oracle_on_three_lock_cycle() {
        // Three threads, three locks, cyclic order: l1→l2→l3→l1.
        let mut b = TraceBuilder::new();
        let l1 = b.new_lock("l1");
        let l2 = b.new_lock("l2");
        let l3 = b.new_lock("l3");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let t3 = b.fork(t1);
        for (t, (la, lb)) in [(t1, (l1, l2)), (t2, (l2, l3)), (t3, (l3, l1))] {
            b.acquire(t, la);
            b.acquire(t, lb);
            b.release(t, lb);
            b.release(t, la);
        }
        let tr = b.finish();
        let report = DeadlockDetector::default().detect(&tr);
        let got: std::collections::BTreeSet<Vec<LockId>> =
            report.cycles.iter().map(|c| c.locks.clone()).collect();
        let want = crate::oracle::oracle_deadlocks(&tr.full_view(), 24);
        assert_eq!(got, want);
        assert!(got.contains(&vec![l1, l2, l3]));
    }
}
