//! Race reports and detection summaries.
//!
//! Detection is allowed to *degrade* but never to lie: a per-COP budget
//! exhaustion, an injected or genuine worker panic, or an encoding failure
//! becomes an explicit [`UndecidedReason`] tally (or a [`FailedWindow`]
//! record) in the report instead of being silently folded into "no race".
//! Reported races are always witness-validated, so degradation only ever
//! costs completeness, never soundness.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::time::Duration;

use rvsmt::SatStats;
use rvtrace::{Cop, RaceSignature, Schedule, Trace};

use crate::atomicity::AtomicityReport;
use crate::config::Kind;
use crate::deadlock::DeadlockReport;
use crate::metrics::{Histogram, Metrics};

/// One detected race, with its certifying witness.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The concrete conflicting pair that was proven to race.
    pub cop: Cop,
    /// The static signature (location pair).
    pub signature: RaceSignature,
    /// The trace range of the window in which the race was found.
    pub window: std::ops::Range<usize>,
    /// A validated witness schedule ending with the two accesses adjacent.
    pub schedule: Schedule,
}

impl RaceReport {
    /// Renders the report with human-readable location names.
    pub fn display<'a>(&'a self, trace: &'a Trace) -> RaceReportDisplay<'a> {
        RaceReportDisplay {
            report: self,
            trace,
        }
    }
}

/// Human-readable rendering of a [`RaceReport`].
#[derive(Debug)]
pub struct RaceReportDisplay<'a> {
    report: &'a RaceReport,
    trace: &'a Trace,
}

impl fmt::Display for RaceReportDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.report;
        write!(
            f,
            "race {} between {} and {} (witness: {})",
            r.signature.display(self.trace),
            self.trace.event(r.cop.first),
            self.trace.event(r.cop.second),
            r.schedule,
        )
    }
}

/// Why a COP's race question could not be decided. Three-valued verdict
/// accounting: a COP is `Race`, `NoRace`, or `Undecided(reason)` — the
/// detector reports the reason rather than conflating "budget ran out"
/// with "proven race-free" (cf. CP's soundness-under-limited-analysis
/// argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UndecidedReason {
    /// The per-COP wall-clock solver budget was exhausted.
    Timeout,
    /// The per-COP conflict budget was exhausted.
    ConflictBudget,
    /// The window's worker panicked before this COP got a verdict
    /// (only used for fault-injected per-COP panics that were isolated;
    /// a panic that kills a whole window is a [`FailedWindow`] instead).
    WorkerPanic,
    /// Constraint encoding failed for this COP.
    EncodeError,
    /// A boundary-straddling COP whose pre-window partner lies beyond
    /// the `--spill-budget` lookback cap: the extended view cannot be
    /// reconstructed, and solving a truncated view would be unsound to
    /// report as a verdict.
    BoundaryBudget,
}

impl fmt::Display for UndecidedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UndecidedReason::Timeout => write!(f, "timeout"),
            UndecidedReason::ConflictBudget => write!(f, "conflict-budget"),
            UndecidedReason::WorkerPanic => write!(f, "worker-panic"),
            UndecidedReason::EncodeError => write!(f, "encode-error"),
            UndecidedReason::BoundaryBudget => write!(f, "boundary-budget"),
        }
    }
}

/// One deadlock or atomicity candidate's verdict, as its window job
/// records it (candidates whose signature the job confirmed earlier in
/// the same window are not recorded at all).
#[derive(Debug)]
pub(crate) enum Verdict<V> {
    Unsat,
    /// No verdict: the solver budget or the window deadline ran out.
    Unknown,
    /// SAT; the violation, when its witness validated.
    Sat(Option<V>),
}

/// The cross-window dedup replay for deadlock and atomicity records, the
/// analogue of the race merge: records are folded in window order, a
/// record whose signature an earlier window confirmed is dropped, and
/// `[sat, unsat, unknown]` tally only the records kept — so the counters
/// equal those of a serial loop that skipped confirmed signatures before
/// solving. `confirmed` holds the signatures reported so far.
pub(crate) fn replay<S: Eq + Hash, V>(
    records: Vec<(S, Verdict<V>)>,
    mut confirmed: HashSet<S>,
    dedup: bool,
    [sat, unsat, unknown]: [&mut usize; 3],
    found: &mut Vec<V>,
) {
    for (signature, verdict) in records {
        if dedup && confirmed.contains(&signature) {
            continue;
        }
        match verdict {
            Verdict::Unsat => *unsat += 1,
            Verdict::Unknown => *unknown += 1,
            Verdict::Sat(violation) => {
                *sat += 1;
                if let Some(v) = violation {
                    confirmed.insert(signature);
                    found.push(v);
                }
            }
        }
    }
}

/// A window whose worker died (panicked) before producing any per-COP
/// records. The run continues; the failure is reported so the user knows
/// which part of the trace got no verdicts at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedWindow {
    /// The window's index in solve order.
    pub window_index: usize,
    /// The trace range the window covered.
    pub range: std::ops::Range<usize>,
    /// The panic message (or a placeholder for non-string payloads).
    pub reason: String,
}

impl fmt::Display for FailedWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window {} (events {}..{}) failed: {}",
            self.window_index, self.range.start, self.range.end, self.reason
        )
    }
}

/// Summed SAT-core effort over a set of solver invocations: the per-query
/// [`SatStats`] deltas the detector captured, folded together. These are
/// *count-type* values — the parallel driver tallies them per surviving COP
/// record at merge time, so they are identical at every thread count (see
/// the determinism contract in [`crate::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTotals {
    /// Solver invocations profiled (one per solved COP).
    pub solves: u64,
    /// CDCL branching decisions.
    pub decisions: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Boolean conflicts (learnt-clause derivations).
    pub conflicts: u64,
    /// Conflicts raised by the IDL theory (negative cycles).
    pub theory_conflicts: u64,
    /// Search restarts.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learnt_clauses: u64,
}

impl SolverTotals {
    /// Folds one solver invocation's [`SatStats`] delta into the totals.
    pub fn record_solve(&mut self, delta: &SatStats) {
        self.solves = self.solves.saturating_add(1);
        self.decisions = self.decisions.saturating_add(delta.decisions);
        self.propagations = self.propagations.saturating_add(delta.propagations);
        self.conflicts = self.conflicts.saturating_add(delta.conflicts);
        self.theory_conflicts = self.theory_conflicts.saturating_add(delta.theory_conflicts);
        self.restarts = self.restarts.saturating_add(delta.restarts);
        self.learnt_clauses = self.learnt_clauses.saturating_add(delta.learnt_clauses);
    }

    /// Element-wise saturating accumulation — associative and commutative.
    pub fn add(&mut self, other: &SolverTotals) {
        self.solves = self.solves.saturating_add(other.solves);
        self.decisions = self.decisions.saturating_add(other.decisions);
        self.propagations = self.propagations.saturating_add(other.propagations);
        self.conflicts = self.conflicts.saturating_add(other.conflicts);
        self.theory_conflicts = self.theory_conflicts.saturating_add(other.theory_conflicts);
        self.restarts = self.restarts.saturating_add(other.restarts);
        self.learnt_clauses = self.learnt_clauses.saturating_add(other.learnt_clauses);
    }
}

/// Outcome counters of a detection run.
#[derive(Debug, Clone, Default)]
pub struct DetectionStats {
    /// Windows analyzed (including failed ones).
    pub windows: usize,
    /// Windows whose worker panicked (no per-COP records survive).
    pub failed_windows: usize,
    /// Concrete COPs examined (pre quick check).
    pub pairs_considered: usize,
    /// Distinct signatures passing the quick check (Table 1's "QC").
    pub qc_signatures: usize,
    /// COPs sent to the solver.
    pub cops_solved: usize,
    /// Solver verdicts.
    pub sat: usize,
    /// Solver verdicts.
    pub unsat: usize,
    /// COPs with no verdict, total across all reasons.
    pub undecided: usize,
    /// Per-reason breakdown of [`DetectionStats::undecided`].
    pub undecided_by_reason: BTreeMap<UndecidedReason, usize>,
    /// Witness validations that failed (soundness gate trips; expected 0).
    pub witness_failures: usize,
    /// Races whose witness came from the canonical re-solve because the
    /// witness constructor could not build one. Count-type.
    pub witness_fallbacks: usize,
    /// COPs the Tier A screen (the witness constructor) confirmed as races
    /// without a solver call. Count-type; zero when the cascade is off.
    pub tier_confirmed: usize,
    /// COPs the Tier B (entailment) screen refuted without a solver call.
    /// Count-type; zero when the cascade is off.
    pub tier_refuted: usize,
    /// COPs neither screen decided (plus fault-forced verdicts): the
    /// residue the solver saw. With the cascade on,
    /// `tier_confirmed + tier_refuted + tier_residue == cops_solved`.
    /// Count-type; zero when the cascade is off.
    pub tier_residue: usize,
    /// Events actually encoded, summed over surviving COP encodings (the
    /// cone of influence per COP; equals
    /// [`DetectionStats::window_events_encoded`] with slicing off).
    /// Count-type.
    pub cone_events: u64,
    /// Window events the surviving COP encodings were cut from, summed.
    /// Count-type.
    pub window_events_encoded: u64,
    /// Events relevance slicing removed from surviving encodings, summed
    /// (`window_events_encoded - cone_events`). Count-type.
    pub sliced_out: u64,
    /// Asserted constraints across surviving COP encodings, summed.
    /// Count-type.
    pub constraints_encoded: u64,
    /// Per-COP cone-size distribution (events actually encoded).
    /// Count-type.
    pub cone_events_per_cop: Histogram,
    /// Per-COP formula-size distribution (asserted constraints).
    /// Count-type.
    pub constraints_per_cop: Histogram,
    /// Summed SAT-core effort (decisions, propagations, conflicts, …)
    /// across every surviving COP solve. Count-type: identical at every
    /// thread count.
    pub solver_totals: SolverTotals,
    /// Per-COP conflict distribution (one observation per solved COP, over
    /// all of that COP's solver invocations). Count-type.
    pub conflicts_per_cop: Histogram,
    /// Per-COP decision distribution. Count-type.
    pub decisions_per_cop: Histogram,
    /// Per-COP propagation distribution. Count-type.
    pub propagations_per_cop: Histogram,
    /// Summed time spent encoding and solving, across all workers. With
    /// `parallelism > 1` this exceeds [`DetectionStats::wall_time`].
    pub solver_time: Duration,
    /// Summed time inside the witness constructor (the Tier A screen, and
    /// the first witness attempt for SAT COPs when the cascade is off).
    /// Timing-type.
    pub tier_a_time: Duration,
    /// Summed time inside the Tier B refutation screen (including base
    /// entailment graph construction). Timing-type.
    pub tier_b_time: Duration,
    /// Wall-clock detection time, start to finish.
    pub wall_time: Duration,
    /// Per-window worker time (enumerate + encode + solve), indexed by
    /// window.
    pub window_times: Vec<Duration>,
    /// High-water mark of windows alive at once, from dispatch until their
    /// worker drops them. Every driver bounds it by its worker pool plus
    /// its dispatch queue (`2 * jobs + 3` in process). Gauge-type: depends
    /// on worker count and scheduling, excluded from the deterministic
    /// summary.
    pub peak_window_residency: usize,
    /// Wall-clock time from the start of detection (for the streaming
    /// driver: from the first byte read) until the first race was merged
    /// into the report. `None` when no race was found. Timing-type.
    pub time_to_first_race: Option<Duration>,
    /// Wall-clock span during which window solving overlapped trace
    /// ingestion (streaming driver only; `None` for in-memory runs).
    /// Timing-type.
    pub ingest_overlap: Option<Duration>,
    /// Boundary-straddling COPs solved on extended views (`--window-mode
    /// cone`; the dependence-bounded cross-window pass). Count-type;
    /// zero in fixed mode and on non-straddling traces.
    pub straddle_cops: usize,
    /// Straddling COPs whose extended-view solve confirmed a race — the
    /// races fixed windowing is structurally blind to. Count-type.
    pub straddle_races: usize,
    /// Straddling COPs degraded to `Undecided(boundary-budget)` because
    /// their partner lay beyond the `--spill-budget` lookback cap.
    /// Count-type.
    pub boundary_over_budget: usize,
    /// High-water mark of events a single extended view reached back
    /// beyond its window start (spill residency actually used).
    /// Count-type (a deterministic per-window maximum, not a scheduling
    /// gauge): identical at every thread count.
    pub spill_peak_events: usize,
}

impl DetectionStats {
    /// Records one undecided COP verdict.
    pub fn record_undecided(&mut self, reason: UndecidedReason) {
        self.undecided += 1;
        *self.undecided_by_reason.entry(reason).or_insert(0) += 1;
    }
}

/// The result of running a detector over a trace: one section per
/// violation class that [`kind`](DetectionReport::kind) selects. The race
/// section is `races` plus `stats`; the other sections stay empty unless
/// selected.
#[derive(Debug, Clone, Default)]
pub struct DetectionReport {
    /// Validated races, one per signature (when deduplication is on).
    pub races: Vec<RaceReport>,
    /// Window jobs that panicked; their candidates have no verdicts. A
    /// failed job degrades every selected class.
    pub failed_windows: Vec<FailedWindow>,
    /// Counters of the race section.
    pub stats: DetectionStats,
    /// The violation classes this report covers.
    pub kind: Kind,
    /// The deadlock section.
    pub deadlock: DeadlockReport,
    /// The atomicity section.
    pub atomicity: AtomicityReport,
}

impl DetectionReport {
    /// Number of distinct race signatures reported.
    pub fn n_races(&self) -> usize {
        self.races.len()
    }

    /// Whether detection degraded: some verdicts are missing (undecided
    /// COPs or failed windows). Reported races are still sound; only
    /// completeness is affected.
    pub fn is_degraded(&self) -> bool {
        self.stats.undecided > 0 || !self.failed_windows.is_empty()
    }

    /// The distinct signatures reported.
    pub fn signatures(&self) -> Vec<RaceSignature> {
        let mut sigs: Vec<RaceSignature> = self.races.iter().map(|r| r.signature).collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs
    }

    /// Folds the whole report into a [`Metrics`] registry: the run-level
    /// `detector.wall_time`, `stream.peak_window_residency` and
    /// `stream.ingest_overlap` for every kind, then the race section's
    /// `detector.*`, `encoder.*` and `solver.*` families, and
    /// `deadlock.*` / `atomicity.*`, each only when [`kind`] selects it.
    ///
    /// [`kind`]: DetectionReport::kind
    ///
    /// Counters (`detector.*`, `solver.*`) and histograms
    /// (`solver.*_per_cop`) are count-type and byte-identical across
    /// thread counts; timings (`detector.wall_time`, `detector.solver_time`
    /// — the wall vs. summed-solver split — `detector.window.NNNNNN` per
    /// window, `detector.time_to_first_race` and `stream.ingest_overlap`
    /// when measured) are wall-clock measurements and are not, and the
    /// `stream.peak_window_residency` gauge depends on the worker count.
    /// Strip all of those with [`Metrics::without_timings`] before
    /// comparing runs.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        let s = &self.stats;
        m.record_time("detector.wall_time", s.wall_time);
        if s.peak_window_residency > 0 {
            m.gauge_max(
                "stream.peak_window_residency",
                s.peak_window_residency as u64,
            );
        }
        if let Some(t) = s.ingest_overlap {
            m.record_time("stream.ingest_overlap", t);
        }
        if self.kind.includes(Kind::Race) {
            self.record_race_metrics(&mut m);
        }
        if self.kind.includes(Kind::Deadlock) {
            let d = &self.deadlock;
            m.inc("deadlock.cycles", d.n_cycles() as u64);
            m.inc("deadlock.candidates", d.candidates as u64);
            m.inc("deadlock.sat", d.sat as u64);
            m.inc("deadlock.unsat", d.unsat as u64);
            m.inc("deadlock.unknown", d.unknown as u64);
        }
        if self.kind.includes(Kind::Atomicity) {
            let a = &self.atomicity;
            m.inc("atomicity.violations", a.violations.len() as u64);
            m.inc("atomicity.candidates", a.candidates as u64);
            m.inc("atomicity.sat", a.sat as u64);
            m.inc("atomicity.unsat", a.unsat as u64);
            m.inc("atomicity.unknown", a.unknown as u64);
        }
        m
    }

    fn record_race_metrics(&self, m: &mut Metrics) {
        let s = &self.stats;
        m.inc("detector.races", self.n_races() as u64);
        m.inc("detector.windows", s.windows as u64);
        m.inc("detector.failed_windows", s.failed_windows as u64);
        m.inc("detector.pairs_considered", s.pairs_considered as u64);
        m.inc("detector.qc_signatures", s.qc_signatures as u64);
        m.inc("detector.cops_solved", s.cops_solved as u64);
        m.inc("detector.sat", s.sat as u64);
        m.inc("detector.unsat", s.unsat as u64);
        m.inc("detector.undecided", s.undecided as u64);
        for (reason, &n) in &s.undecided_by_reason {
            m.inc(&format!("detector.undecided.{reason}"), n as u64);
        }
        m.inc("detector.witness_failures", s.witness_failures as u64);
        m.inc("detector.witness_fallbacks", s.witness_fallbacks as u64);
        m.inc("detector.tiers.confirmed", s.tier_confirmed as u64);
        m.inc("detector.tiers.refuted", s.tier_refuted as u64);
        m.inc("detector.tiers.residue", s.tier_residue as u64);
        m.inc("encoder.cone_events", s.cone_events);
        m.inc("encoder.window_events", s.window_events_encoded);
        m.inc("encoder.sliced_out", s.sliced_out);
        m.inc("encoder.constraints", s.constraints_encoded);
        m.record_histogram("encoder.cone_events_per_cop", &s.cone_events_per_cop);
        m.record_histogram("encoder.constraints_per_cop", &s.constraints_per_cop);
        let t = &s.solver_totals;
        m.inc("solver.solves", t.solves);
        m.inc("solver.decisions", t.decisions);
        m.inc("solver.propagations", t.propagations);
        m.inc("solver.conflicts", t.conflicts);
        m.inc("solver.theory_conflicts", t.theory_conflicts);
        m.inc("solver.restarts", t.restarts);
        m.inc("solver.learnt_clauses", t.learnt_clauses);
        m.record_histogram("solver.conflicts_per_cop", &s.conflicts_per_cop);
        m.record_histogram("solver.decisions_per_cop", &s.decisions_per_cop);
        m.record_histogram("solver.propagations_per_cop", &s.propagations_per_cop);
        m.record_time("detector.solver_time", s.solver_time);
        m.record_time("detector.tier_a_time", s.tier_a_time);
        m.record_time("detector.tier_b_time", s.tier_b_time);
        for (i, &t) in s.window_times.iter().enumerate() {
            m.record_time(&format!("detector.window.{i:06}"), t);
        }
        if let Some(t) = s.time_to_first_race {
            m.record_time("detector.time_to_first_race", t);
        }
        // Boundary counters appear only when the cross-window pass did
        // anything, so fixed-mode and non-straddling cone-mode runs emit
        // byte-identical metric documents.
        if s.straddle_cops > 0 {
            m.inc("detector.boundary.straddle_cops", s.straddle_cops as u64);
        }
        if s.straddle_races > 0 {
            m.inc("detector.boundary.straddle_races", s.straddle_races as u64);
        }
        if s.boundary_over_budget > 0 {
            m.inc(
                "detector.boundary.over_budget",
                s.boundary_over_budget as u64,
            );
        }
        if s.spill_peak_events > 0 {
            m.inc(
                "detector.boundary.spill_peak_events",
                s.spill_peak_events as u64,
            );
        }
    }
}

impl DetectionReport {
    /// A deterministic, timing-free rendering of everything the run
    /// decided — races (signatures, COPs, witness schedules), verdict
    /// counters, the undecided breakdown, and failed windows. Two runs
    /// that merged the same outcomes render byte-identically, whatever
    /// the thread count; the parallel-equivalence suite compares this.
    pub fn deterministic_summary(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let s = &self.stats;
        let _ = writeln!(
            out,
            "races={} windows={} failed={} pairs={} qc={} solved={} sat={} unsat={} undecided={} witness_failures={}",
            self.n_races(),
            s.windows,
            s.failed_windows,
            s.pairs_considered,
            s.qc_signatures,
            s.cops_solved,
            s.sat,
            s.unsat,
            s.undecided,
            s.witness_failures,
        );
        let t = &s.solver_totals;
        let _ = writeln!(
            out,
            "solver: solves={} decisions={} propagations={} conflicts={} theory_conflicts={} restarts={} learnt={}",
            t.solves,
            t.decisions,
            t.propagations,
            t.conflicts,
            t.theory_conflicts,
            t.restarts,
            t.learnt_clauses,
        );
        let _ = writeln!(
            out,
            "tiers: confirmed={} refuted={} residue={}",
            s.tier_confirmed, s.tier_refuted, s.tier_residue,
        );
        // Printed only when the cross-window pass did anything: cone-mode
        // summaries on non-straddling traces stay byte-identical to
        // fixed-mode ones.
        if s.straddle_cops + s.boundary_over_budget + s.spill_peak_events > 0 {
            let _ = writeln!(
                out,
                "boundary: straddle_cops={} straddle_races={} over_budget={} spill_peak={}",
                s.straddle_cops, s.straddle_races, s.boundary_over_budget, s.spill_peak_events,
            );
        }
        for (name, h) in [
            ("conflicts_per_cop", &s.conflicts_per_cop),
            ("decisions_per_cop", &s.decisions_per_cop),
            ("propagations_per_cop", &s.propagations_per_cop),
        ] {
            let _ = writeln!(
                out,
                "{name}: count={} sum={} max={}",
                h.count(),
                h.sum(),
                h.max()
            );
        }
        for (reason, n) in &s.undecided_by_reason {
            let _ = writeln!(out, "undecided {reason}: {n}");
        }
        for fw in &self.failed_windows {
            let _ = writeln!(out, "{fw}");
        }
        for r in &self.races {
            let _ = writeln!(
                out,
                "race sig={:?} cop=({},{}) window={}..{} witness={}",
                r.signature,
                r.cop.first.0,
                r.cop.second.0,
                r.window.start,
                r.window.end,
                r.schedule,
            );
        }
        out
    }
}

impl fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} race(s); {} window(s), QC={}, solved={} (sat={}, unsat={}, undecided={}), solver {:?}, wall {:?}",
            self.n_races(),
            self.stats.windows,
            self.stats.qc_signatures,
            self.stats.cops_solved,
            self.stats.sat,
            self.stats.unsat,
            self.stats.undecided,
            self.stats.solver_time,
            self.stats.wall_time,
        )?;
        let times = &self.stats.window_times;
        if !times.is_empty() {
            // Per-window wall time: the merge keeps every window's worker
            // time, so the report can point at the slowest window instead
            // of burying it in an aggregate.
            let min = times.iter().min().copied().unwrap_or_default();
            let max = times.iter().max().copied().unwrap_or_default();
            let total: Duration = times.iter().sum();
            let mean = total / times.len() as u32;
            let slowest = times
                .iter()
                .enumerate()
                .max_by_key(|(_, t)| **t)
                .map(|(i, _)| i)
                .unwrap_or(0);
            writeln!(
                f,
                "  window times: min {min:?}, mean {mean:?}, max {max:?} (slowest: window {slowest})",
            )?;
        }
        if self.stats.undecided > 0 {
            write!(f, "  undecided:")?;
            for (reason, n) in &self.stats.undecided_by_reason {
                write!(f, " {reason}={n}")?;
            }
            writeln!(f)?;
        }
        if self.stats.straddle_cops + self.stats.boundary_over_budget > 0 {
            writeln!(
                f,
                "  boundary: {} straddling COP(s), {} race(s), {} over budget, spill peak {} event(s)",
                self.stats.straddle_cops,
                self.stats.straddle_races,
                self.stats.boundary_over_budget,
                self.stats.spill_peak_events,
            )?;
        }
        for fw in &self.failed_windows {
            writeln!(f, "  {fw}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{EventId, Loc};

    #[test]
    fn signatures_deduplicate() {
        let sig = RaceSignature::new(Loc(1), Loc(2));
        let mk = |a: u32, b: u32| RaceReport {
            cop: Cop::new(EventId(a), EventId(b)),
            signature: sig,
            window: 0..10,
            schedule: Schedule(vec![]),
        };
        let rep = DetectionReport {
            races: vec![mk(0, 1), mk(2, 3)],
            ..Default::default()
        };
        assert_eq!(rep.n_races(), 2);
        assert_eq!(rep.signatures().len(), 1);
    }

    #[test]
    fn undecided_accounting_and_degradation() {
        let mut rep = DetectionReport::default();
        assert!(!rep.is_degraded());
        rep.stats.record_undecided(UndecidedReason::Timeout);
        rep.stats.record_undecided(UndecidedReason::Timeout);
        rep.stats.record_undecided(UndecidedReason::EncodeError);
        assert_eq!(rep.stats.undecided, 3);
        assert_eq!(rep.stats.undecided_by_reason[&UndecidedReason::Timeout], 2);
        assert!(rep.is_degraded());
        let s = format!("{rep}");
        assert!(s.contains("undecided=3"), "{s}");
        assert!(s.contains("timeout=2"), "{s}");
        assert!(s.contains("encode-error=1"), "{s}");

        let mut rep = DetectionReport::default();
        rep.failed_windows.push(FailedWindow {
            window_index: 4,
            range: 40_000..50_000,
            reason: "boom".into(),
        });
        rep.stats.failed_windows = 1;
        assert!(rep.is_degraded());
        let s = format!("{rep}");
        assert!(
            s.contains("window 4 (events 40000..50000) failed: boom"),
            "{s}"
        );
        assert!(rep.deterministic_summary().contains("failed=1"));
    }

    #[test]
    fn display_summarizes() {
        let rep = DetectionReport::default();
        let s = format!("{rep}");
        assert!(s.contains("0 race(s)"));
        assert!(s.contains("QC=0"));
    }
}
