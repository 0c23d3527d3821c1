//! Predictive deadlock detection on the maximal causal model.
//!
//! Paper §2.5 names other violation classes definable over the same
//! feasibility closure; this module does it for resource deadlocks. A
//! window witnesses a *predictable deadlock* when some feasible reordering
//! reaches a state with a circular wait: threads `t₁ … tₖ` where each `tᵢ`
//! holds lock `lᵢ` and its next event is a (write-mode) acquire of
//! `l_{i+1 mod k}`.
//!
//! The encoding is the `Φ_race`-analogue over `Φ_mhb ∧ Φ_lock ∧ Φ_cf`: a
//! fresh order variable `D` marks the deadlock point, `Φ_lock` becomes
//! *conditional* (spans acquired after `D` are exempt from serialization —
//! the deadlocked state has cycle spans open, which an unconditional
//! `Φ_lock` would contradict), every branch before `D` must be concretely
//! feasible (`D < O_b ∨ cf(b)`), and each cycle thread's blocked acquire is
//! pinned just past `D` while its program-order prefix — including the hold
//! of its contributed lock — lands before `D`. A satisfying model's
//! `{e : O_e < D}` prefix, sorted by model value, is a consistent
//! data-abstract schedule ending in the circular wait; it is validated with
//! [`check_schedule`] plus a lock-state replay before anything is reported
//! (soundness, the Theorem-1 argument verbatim — the witness is a feasible
//! prefix, and prefixes of feasible traces are feasible).
//!
//! Candidates come from a linear acquires-while-holding scan per thread and
//! a bounded simple-cycle search, so the SMT work is proportional to the
//! number of genuine lock-order inversions, not to the window size.
//!
//! Read-mode (rwlock) holds are never part of a cycle: only write-mode
//! acquire-while-holding edges are enumerated, matching
//! [`oracle_deadlocks`](crate::oracle::oracle_deadlocks).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rvsmt::{Budget, SmtResult, Solver};
use rvtrace::{check_schedule, EventId, EventKind, LockId, Schedule, ThreadId, Trace, View};

use crate::config::{DetectorConfig, Kind};
use crate::detector::{clamp_budget, past_deadline, RaceDetector};
use crate::encoder::{encode_deadlock, EncoderOptions};
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

/// Replays the witness prefix and checks the circular wait: each cycle
/// thread's next unscheduled event is its blocked acquire, it still holds
/// its contributed lock, and the wanted lock is held by another thread.
fn circular_wait(view: &View<'_>, schedule: &Schedule, cycle: &[HoldEdge]) -> bool {
    let mut holder: HashMap<LockId, ThreadId> = view
        .held_at_start()
        .iter()
        .copied()
        .map(|(t, l)| (l, t))
        .collect();
    let mut pos: HashMap<ThreadId, usize> = HashMap::new();
    for &id in &schedule.0 {
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
        *pos.entry(e.thread).or_insert(0) += 1;
    }
    cycle.iter().all(|e| {
        let next = view
            .thread_events(e.thread)
            .get(pos.get(&e.thread).copied().unwrap_or(0))
            .copied();
        next == Some(e.acquire)
            && holder.get(&e.held) == Some(&e.thread)
            && holder.get(&e.wanted).is_some_and(|&h| h != e.thread)
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
/// pure function of the window. A candidate reached after the window
/// deadline is unknown, and each solve's budget is clamped to the time
/// left.
pub(crate) fn solve_window(cfg: &DetectorConfig, view: &View<'_>) -> DeadlockWindow {
    let deadline = cfg
        .window_timeout
        .and_then(|t| Instant::now().checked_add(t));
    let cycles = enumerate_cycles(&hold_edges(view));
    let mut out = DeadlockWindow {
        candidates: cycles.len(),
        records: Vec::with_capacity(cycles.len()),
    };
    let opts = EncoderOptions {
        mode: cfg.mode,
        prune_write_sets: cfg.prune_write_sets,
        // The prefix obligations are not modeled by the cone analysis.
        slice: false,
    };
    let budget = Budget {
        max_conflicts: cfg.max_conflicts,
        timeout: Some(cfg.solver_timeout),
    };
    let mut seen: HashSet<Vec<LockId>> = HashSet::new();
    for cycle in cycles {
        let mut signature: Vec<LockId> = cycle.iter().map(|e| e.held).collect();
        signature.sort();
        if past_deadline(deadline) {
            out.records.push((signature, Verdict::Unknown));
            continue;
        }
        if cfg.dedup_signatures && seen.contains(&signature) {
            continue;
        }
        let acquires: Vec<EventId> = cycle.iter().map(|e| e.acquire).collect();
        let encoded = encode_deadlock(view, &acquires, opts);
        let mut solver = Solver::new(&encoded.fb);
        if cfg.phase_hints {
            solver.hint_atom_phases(|a| encoded.phase_hint(a));
        }
        let verdict = match solver.solve(&clamp_budget(&budget, deadline)) {
            SmtResult::Unsat => Verdict::Unsat,
            SmtResult::Unknown(_) => Verdict::Unknown,
            SmtResult::Sat => {
                // The witness: every event the model orders before D,
                // by (model value, event id) — a per-thread prefix.
                let d = solver.int_value(encoded.dvar);
                let mut prefix: Vec<(i64, EventId)> = view
                    .ids()
                    .filter_map(|id| {
                        let v = solver.int_value(encoded.ovar(id));
                        (v < d).then_some((v, id))
                    })
                    .collect();
                prefix.sort();
                let schedule = Schedule(prefix.into_iter().map(|(_, id)| id).collect());
                let valid = check_schedule(view, &schedule).is_ok()
                    && circular_wait(view, &schedule, &cycle);
                if valid {
                    seen.insert(signature.clone());
                }
                Verdict::Sat(valid.then(|| DeadlockCycle {
                    locks: signature.clone(),
                    acquires,
                    schedule,
                }))
            }
        };
        out.records.push((signature, verdict));
    }
    out
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
