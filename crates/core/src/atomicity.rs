//! Predictive atomicity-violation detection on the maximal causal model.
//!
//! Paper §2.5: "In this paper we only focus on races, but the same maximal
//! causal model approach can be used to define other notions" — atomicity
//! being the example named. This module implements the classic
//! single-variable *unserializable interleaving* check (lost updates and
//! friends): given an intended-atomic pair of same-thread accesses
//! `(a₁, a₂)` to a variable and a remote conflicting access `b`, decide
//! whether some feasible reordering serializes `b` strictly *between* them
//! — `Φ_mhb ∧ Φ_lock ∧ O_{a₁} < O_b < O_{a₂} ∧ π_cf(a₁) ∧ π_cf(a₂) ∧ π_cf(b)`.
//!
//! Intended-atomic pairs are inferred as unprotected read-modify-write
//! pairs (a read directly followed by a write of the same variable by the
//! same thread — the shape emitted by `fetch_add`-style updates), or can be
//! supplied explicitly. Soundness carries over from Theorem 1: a satisfying
//! model yields a consistent witness reordering, validated before reporting.
//!
//! This module enumerates the candidate triples and validates the
//! witnesses; the solving is the window's one
//! [`GoalSession`](crate::GoalSession), with one [`Goal::Between`] per
//! triple. The session never slices: the serialization obligations roam
//! the whole window, which the COP cone analysis does not model.

use rvtrace::{EventId, RaceSignature, Schedule, Trace, View};

use crate::config::{DetectorConfig, Kind};
use crate::detector::{decide_goals, RaceDetector};
use crate::encoder::Goal;
use crate::report::{replay, Verdict};
use crate::witness::{build_witness_core, Order};

/// An intended-atomic pair of same-thread accesses to one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicPair {
    /// The first access of the block.
    pub first: EventId,
    /// The second access of the block (same thread, same variable).
    pub second: EventId,
}

/// A predicted atomicity violation: `interleaved` can be serialized between
/// the pair's accesses.
#[derive(Debug, Clone)]
pub struct AtomicityViolation {
    /// The broken atomic pair.
    pub pair: AtomicPair,
    /// The remote access serialized in between.
    pub interleaved: EventId,
    /// Static signature (pair location × remote location).
    pub signature: RaceSignature,
    /// A validated witness: a consistent reordering with the remote access
    /// between the pair.
    pub schedule: Schedule,
}

/// Report of an atomicity analysis run.
#[derive(Debug, Clone, Default)]
pub struct AtomicityReport {
    /// Validated violations (one per signature, across all windows).
    pub violations: Vec<AtomicityViolation>,
    /// Candidate (pair, remote) triples enumerated, over every window.
    pub candidates: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub sat: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub unsat: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub unknown: usize,
}

impl AtomicityReport {
    /// Merges one window's job result; windows must merge in order.
    pub(crate) fn merge(&mut self, window: AtomicityWindow, dedup: bool) {
        self.candidates += window.candidates;
        let confirmed = self.violations.iter().map(|v| v.signature).collect();
        let counts = [&mut self.sat, &mut self.unsat, &mut self.unknown];
        replay(
            window.records,
            confirmed,
            dedup,
            counts,
            &mut self.violations,
        );
    }
}

/// One window's atomicity job result: the candidate count and the
/// verdict of every candidate the job decided, in candidate order.
#[derive(Debug)]
pub(crate) struct AtomicityWindow {
    candidates: usize,
    records: Vec<(RaceSignature, Verdict<AtomicityViolation>)>,
}

/// Infers intended-atomic pairs: a read immediately followed (in program
/// order) by a write to the same variable by the same thread, not both
/// under a common lock with… any lock at all — lock-protected RMWs are
/// atomic by construction and skipped.
pub fn infer_rmw_pairs(view: &View<'_>) -> Vec<AtomicPair> {
    let trace = view.trace();
    let mut out = Vec::new();
    for &t in trace.threads() {
        let evs = view.thread_events(t);
        for (i, &r) in evs.iter().enumerate() {
            if !view.event(r).kind.is_read() {
                continue;
            }
            // Skip intervening branch events (part of the RMW idiom, e.g.
            // a guard over the read value before the store).
            let mut j = i + 1;
            while j < evs.len() && view.event(evs[j]).kind.is_branch() {
                j += 1;
            }
            let Some(&wr) = evs.get(j) else { continue };
            let (rk, wk) = (view.event(r).kind, view.event(wr).kind);
            if wk.is_write() && rk.var() == wk.var() {
                // Lock-protected blocks are already atomic w.r.t. same-lock
                // remotes; keep only fully unprotected pairs (the classic
                // lost-update shape).
                if view.lockset(r).is_empty() && view.lockset(wr).is_empty() {
                    out.push(AtomicPair {
                        first: r,
                        second: wr,
                    });
                }
            }
        }
    }
    out
}

/// The predictive atomicity checker. Windows are analyzed as atomicity
/// jobs of the shared window driver ([`RaceDetector`] with
/// [`Kind::Atomicity`]), so the report is identical at any thread count.
#[derive(Debug, Default)]
pub struct AtomicityDetector {
    /// Shared configuration (window size, budgets, mode).
    pub config: DetectorConfig,
}

impl AtomicityDetector {
    /// Runs the analysis over the whole trace with inferred RMW pairs.
    pub fn detect(&self, trace: &Trace) -> AtomicityReport {
        let config = DetectorConfig {
            kind: Kind::Atomicity,
            ..self.config.clone()
        };
        RaceDetector::with_config(config).detect(trace).atomicity
    }

    /// Analyzes one window with explicit pairs and merges it into
    /// `report` (signatures already reported there are deduplicated).
    pub fn detect_in_view(
        &self,
        view: &View<'_>,
        pairs: &[AtomicPair],
        report: &mut AtomicityReport,
    ) {
        let window = solve_window(&self.config, view, pairs);
        report.merge(window, self.config.dedup_signatures);
    }
}

/// The candidate triples of `pairs` in one window: for each pair on a
/// non-volatile variable, every remote access to it (any remote write
/// conflicts with the pair, and so does any remote read, since the pair's
/// second access is a write).
fn triples(view: &View<'_>, pairs: &[AtomicPair]) -> Vec<(AtomicPair, EventId)> {
    let mut triples = Vec::new();
    for &pair in pairs {
        let var = view
            .event(pair.first)
            .kind
            .var()
            .expect("pair accesses a var");
        if view.trace().is_volatile(var) {
            continue;
        }
        let thread = view.event(pair.first).thread;
        let remote = view.writes_of(var).iter().chain(view.reads_of(var));
        triples.extend(
            remote
                .filter(|&&b| view.event(b).thread != thread)
                .map(|&b| (pair, b)),
        );
    }
    triples
}

/// A triple's session goal: `b` serialized between the pair's accesses.
fn between((pair, b): (AtomicPair, EventId)) -> Goal {
    Goal::Between([pair.first, b, pair.second])
}

/// The candidate triples of `pairs` in one window as session goals
/// `[a₁, b, a₂]`, in the order its atomicity job decides them.
pub fn candidates(view: &View<'_>, pairs: &[AtomicPair]) -> Vec<Goal> {
    triples(view, pairs).into_iter().map(between).collect()
}

/// The atomicity job of one window: every candidate triple's verdict, as
/// a pure function of the window and `pairs`, decided on the window's one
/// session.
pub(crate) fn solve_window(
    cfg: &DetectorConfig,
    view: &View<'_>,
    pairs: &[AtomicPair],
) -> AtomicityWindow {
    let triples = triples(view, pairs);
    let goals: Vec<Goal> = triples.iter().copied().map(between).collect();
    let signature = |(pair, b): (AtomicPair, EventId)| {
        RaceSignature::new(view.event(pair.first).loc, view.event(b).loc)
    };
    let signatures = triples.iter().map(|&t| signature(t)).collect();
    let records = decide_goals(cfg, view, &goals, signatures, |i, session| {
        let (pair, b) = triples[i];
        let key = |e: EventId| (session.value(e), e.index() as u64);
        let witness = build_witness_core(
            view,
            &[pair.first, b, pair.second],
            session.required_branches(i),
            cfg.mode,
            &Order::Key(&key),
        );
        // The remote access must land strictly between.
        let violation = witness.ok().filter(|w| {
            let pos = |x: EventId| {
                w.schedule
                    .0
                    .iter()
                    .position(|&e| e == x)
                    .expect("anchor in closure")
            };
            pos(pair.first) < pos(b) && pos(b) < pos(pair.second)
        });
        violation.map(|w| AtomicityViolation {
            pair,
            interleaved: b,
            signature: signature(triples[i]),
            schedule: w.schedule,
        })
    });
    AtomicityWindow {
        candidates: triples.len(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};
    use std::collections::HashSet;

    /// The canonical lost update: two unprotected increments.
    #[test]
    fn lost_update_detected() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.read(t1, x, 0); // r = x
        b.write(t1, x, 1); // x = r + 1   (intended atomic)
        b.read(t2, x, 1);
        b.write(t2, x, 2);
        b.join(t1, t2);
        let trace = b.finish();
        let report = AtomicityDetector::default().detect(&trace);
        assert!(
            !report.violations.is_empty(),
            "lost update must be predicted"
        );
        let v = &report.violations[0];
        // The witness serializes the remote access between the pair.
        let pos = |e: EventId| v.schedule.0.iter().position(|&x| x == e).unwrap();
        assert!(pos(v.pair.first) < pos(v.interleaved));
        assert!(pos(v.interleaved) < pos(v.pair.second));

        // The threads take turns updating twice, each from its own read
        // and write locations: the report holds one violation per
        // signature whether the trace is one window or several that each
        // repeat a signature (6-event windows used to list 6).
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let locs = [t1, t2].map(|t| (t, b.loc("read"), b.loc("write")));
        let mut value = 0;
        for (t, read, write) in [locs[0], locs[1], locs[0], locs[1]] {
            b.read_at(t, x, value, read);
            value += 1;
            b.write_at(t, x, value, write);
        }
        b.join(t1, t2);
        let trace = b.finish();
        assert_eq!(trace.len(), 12);
        for window_size in [100, 6] {
            let detector = AtomicityDetector {
                config: DetectorConfig {
                    window_size,
                    ..Default::default()
                },
            };
            let report = detector.detect(&trace);
            let signatures: HashSet<RaceSignature> =
                report.violations.iter().map(|v| v.signature).collect();
            assert_eq!(report.violations.len(), 3, "window {window_size}");
            assert_eq!(signatures.len(), 3, "window {window_size}");
        }
    }

    /// Lock-protected RMWs are atomic: no violation, and no inferred pair.
    #[test]
    fn locked_rmw_is_atomic() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.read(t1, x, 0);
        b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, x, 1);
        b.write(t2, x, 2);
        b.release(t2, l);
        b.join(t1, t2);
        let trace = b.finish();
        let view = trace.full_view();
        assert!(infer_rmw_pairs(&view).is_empty());
        let report = AtomicityDetector::default().detect(&trace);
        assert!(report.violations.is_empty());
    }

    /// MHB separation (join between the block and the remote access) makes
    /// the interleaving infeasible.
    #[test]
    fn join_prevents_interleaving() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.read(t2, x, 0);
        b.write(t2, x, 1);
        b.join(t1, t2);
        b.write(t1, x, 5); // after the join: cannot be serialized inside
        let trace = b.finish();
        let report = AtomicityDetector::default().detect(&trace);
        assert!(report.violations.is_empty(), "{report:?}");
        assert!(report.unsat >= 1);
    }

    /// Without a branch between the pair's read and write, the read's value
    /// is data-abstract and the lost update is feasible; *with* a branch,
    /// the read is pinned to its original value (written by the remote
    /// write), which forces the remote write before the pair — control
    /// flow limits atomicity prediction exactly as it limits races.
    #[test]
    fn control_flow_respected() {
        let build = |with_branch: bool| {
            let mut b = TraceBuilder::new();
            let x = b.var("x");
            let t1 = ThreadId::MAIN;
            let t2 = b.fork(t1);
            b.write(t1, x, 9); // remote write — the original justifier
            b.read(t2, x, 9); // pair: r = x
            if with_branch {
                b.branch(t2); // e.g. `if (r == 9)` before the store
            }
            b.write(t2, x, 10); // pair: x = r + 1
            b.join(t1, t2);
            b.finish()
        };
        // Data-abstract read: the remote write can slip in between.
        let detector = AtomicityDetector::default();
        let unguarded = detector.detect(&build(false));
        assert_eq!(unguarded.violations.len(), 1, "{unguarded:?}");
        // Pinned read: the remote write must come first — infeasible.
        let guarded = detector.detect(&build(true));
        assert!(guarded.violations.is_empty(), "{guarded:?}");
        assert!(guarded.unsat >= 1);
    }
}
