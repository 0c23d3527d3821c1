//! The windowed detection driver (paper §4–5).
//!
//! For each fixed-size window: enumerate COPs, quick-check them, screen
//! them (the tier cascade), encode and solve the residue with a per-COP
//! budget, construct and validate a witness for every race (falling back
//! to a canonical re-solve), and deduplicate by signature across the whole
//! run. The same driver runs the deadlock and atomicity analyses
//! ([`DetectorConfig::kind`]).
//!
//! # Parallel driver
//!
//! Windows are independent solving problems (each gets its own encoder and
//! solver). One window driver serves every entry point and every
//! violation class: a [`WindowCursor`] cuts the trace (whole, or the
//! prefixes a stream parser produces) into windows, each window becomes
//! one `WindowJob` per selected analysis, solved under panic isolation,
//! and an `InOrderMerge` folds the results in (window, analysis) order.
//! The jobs run on one worker pool, the [`SessionManager`]'s, fed by one
//! driver, the [`Session`]: [`RaceDetector::detect`] is a one-tenant
//! session over a complete trace, and the CLI and the daemon open
//! sessions of their own. Determinism is preserved by splitting the work
//! into a *solve* phase and a *merge* phase:
//!
//! * each worker produces a [`WindowResult`]: an ordered list of per-COP
//!   records whose content depends only on the window itself (workers never
//!   consult cross-window state when deciding verdicts);
//! * the merge folds results **in window order**, replaying each record
//!   against the authoritative set of confirmed signatures — a record whose
//!   signature was already confirmed (in an earlier window, or earlier in
//!   the same window) is discarded wholesale, exactly as a serial loop
//!   would have skipped it before solving.
//!
//! Speculative work (a worker solving a COP whose signature an earlier,
//! still-unmerged window will confirm) costs time but never changes output.
//! As an optimization, merged signatures are also published through a shared
//! `RwLock<HashSet<_>>` so workers can skip work that is already known
//! redundant. To keep output bit-identical across thread counts the skip is
//! only taken for a whole solver session at once: the COPs of a session
//! share learnt clauses, so dropping one mid-session would shift the solver
//! effort recorded for later COPs with worker timing.
//!
//! # Fault tolerance
//!
//! Every window solve runs under [`std::panic::catch_unwind`]: a worker
//! panic (a solver bug, a poisoned window, an injected fault) is converted
//! into a [`WindowOutcome::Failed`] record that merges in window order
//! like any other outcome, so one bad window degrades the report instead
//! of tearing down the run. Per-COP budget
//! exhaustion is three-valued: `Undecided(Timeout | ConflictBudget |
//! WorkerPanic | EncodeError)` is tallied in [`DetectionStats`] rather
//! than silently reading as "no race". The shared published-signature set
//! is accessed poison-tolerantly throughout. A deterministic
//! [`FaultPlan`](crate::config::FaultPlan) can inject panics, forced
//! timeouts, and encode errors at chosen (window, COP) coordinates so the
//! robustness suite can prove the merge stays byte-identical across
//! thread counts *under faults*.
//!
//! [`DetectionStats`]: crate::report::DetectionStats
//! [`SessionManager`]: crate::session::SessionManager
//! [`Session`]: crate::session::Session

use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use rvsmt::{Budget, SmtResult, Solver, StopReason};
use rvtrace::{
    Cop, CursorWindow, EventId, RaceSignature, Schedule, StraddlePlan, Trace, View, WindowCursor,
};

use crate::atomicity::{self, infer_rmw_pairs, AtomicityWindow};
use crate::config::{Analysis, DetectorConfig, Fault, Kind, WindowMode};
use crate::cop::enumerate_cops;
use crate::deadlock::{self, DeadlockWindow};
use crate::encoder::{encode, encode_goals, EncodedWindow, EncoderOptions, Goal};
use crate::report::{
    DetectionReport, FailedWindow, RaceReport, SolverTotals, UndecidedReason, Verdict,
};
use crate::session::{SessionConfig, SessionManager};
use crate::slice::WindowSkeleton;
use crate::tiers::{Tier, TierAnalysis, TierDecision};
use crate::witness::{construct, extract_witness, Witness};

/// How one COP fared inside a worker. `Skipped` records mark COPs the
/// worker never solved because their signature was locally confirmed
/// earlier in the window or already published by the merge loop; the merge
/// replay discards them (their signature is always confirmed by then).
#[derive(Debug)]
enum CopVerdict {
    Skipped,
    Unsat,
    /// No verdict: the budget ran out, encoding failed, or a fault was
    /// injected. The reason is tallied honestly in the report.
    Undecided(UndecidedReason),
    WitnessFailed,
    /// SAT with a certified witness schedule; `fallback` when it came from
    /// the canonical re-solve because the constructor could not build it.
    Race {
        schedule: Schedule,
        fallback: bool,
    },
}

/// One solved (or skipped) COP, in the window's solve order.
///
/// `profile` rides along with the verdict so the merge loop
/// can tally solver effort for *surviving* records only — a speculative
/// solve whose record the dedup replay discards contributes nothing, which
/// is what keeps the count-type metrics byte-identical across thread
/// counts.
#[derive(Debug)]
struct CopRecord {
    cop: Cop,
    signature: RaceSignature,
    verdict: CopVerdict,
    /// SAT-core effort spent on this COP (all its solver invocations;
    /// zero for skipped and fault-forced records).
    profile: SolverTotals,
    /// Events the COP's encoding actually constrained (its cone of
    /// influence; the whole window with slicing off). Zero for skipped
    /// and fault-forced records, which encode nothing.
    cone_events: usize,
    /// Events in the window the COP was encoded against (zero when
    /// nothing was encoded). Tallied at merge for surviving records
    /// only, like `profile`.
    window_events: usize,
    /// Asserted constraints in the COP's formula (zero when nothing was
    /// encoded).
    constraints: usize,
    /// Which cascade stage decided this COP: `Tier::A`/`Tier::B` for the
    /// pre-solver screens, `Tier::Solver` for the residue (and for
    /// fault-forced verdicts, which bypass the screens so planned fault
    /// coordinates always take effect). `None` for skipped records and
    /// whenever the cascade is disabled.
    decided_by: Option<Tier>,
    /// For boundary-straddling COPs (`--window-mode cone`): the extended
    /// view range the verdict was solved on, reported as the race's
    /// window. `None` for every in-window record.
    ext_range: Option<std::ops::Range<usize>>,
}

/// Everything a worker learned about one window; merged in window order.
#[derive(Debug)]
struct SolvedWindow {
    window_index: usize,
    range: std::ops::Range<usize>,
    pairs_considered: usize,
    qc_signatures: usize,
    records: Vec<CopRecord>,
    /// Encode + solve time inside this window.
    solver_time: Duration,
    /// Total worker time on this window (enumerate + encode + solve).
    window_time: Duration,
    /// Time inside the witness constructor (the Tier A screen).
    tier_a_time: Duration,
    /// Time inside the Tier B refutation screen (including the base
    /// entailment graph construction).
    tier_b_time: Duration,
    /// Events this window's straddle pass reached back beyond the window
    /// start (zero without a straddle plan). Deterministic: a pure
    /// function of the trace prefix and the spill budget.
    spill_events: usize,
}

/// What a worker hands to the merge loop: one analysis's records for the
/// window, or — when the job panicked — a failure record. All merge in
/// (window, analysis) order, so a poisoned job degrades the report
/// deterministically instead of aborting the run.
#[derive(Debug)]
enum WindowOutcome {
    Races(SolvedWindow),
    Deadlocks(DeadlockWindow),
    Atomicity(AtomicityWindow),
    Failed(Analysis, FailedWindow),
}

/// An opaque window-job result: produced by [`WindowJob::solve`] (or, for
/// races, [`RaceDetector::solve_window_result`]) and consumed in window
/// order by [`RaceDetector::merge_window_result`]. These are the two
/// halves of the solve-then-merge protocol sessions run; exposing them
/// lets an external driver schedule the solves on its own worker pool
/// while keeping the merged report byte-identical to a session's.
#[derive(Debug)]
pub struct WindowResult {
    window_index: usize,
    outcome: WindowOutcome,
}

impl WindowResult {
    /// The window index this result belongs to (the merge-order key).
    pub fn window_index(&self) -> usize {
        self.window_index
    }

    /// The analysis that produced this result (the merge order within a
    /// window).
    fn analysis(&self) -> Analysis {
        match &self.outcome {
            WindowOutcome::Races(_) => Analysis::Race,
            WindowOutcome::Deadlocks(_) => Analysis::Deadlock,
            WindowOutcome::Atomicity(_) => Analysis::Atomicity,
            WindowOutcome::Failed(analysis, _) => *analysis,
        }
    }
}

/// Renders a panic payload for a [`FailedWindow`] record.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The record of a window job that produced no result: it panicked, or
/// the pool shut down before solving it. A failed deadlock or atomicity
/// job names its analysis in the failure reason.
fn failed(
    analysis: Analysis,
    window_index: usize,
    range: std::ops::Range<usize>,
    reason: String,
) -> WindowOutcome {
    let reason = match analysis {
        Analysis::Race => reason,
        Analysis::Deadlock => format!("deadlock analysis: {reason}"),
        Analysis::Atomicity => format!("atomicity analysis: {reason}"),
    };
    WindowOutcome::Failed(
        analysis,
        FailedWindow {
            window_index,
            range,
            reason,
        },
    )
}

/// Runs one window job under panic isolation: a panic anywhere in
/// `solve` (including injected `Fault::Panic`s and view construction)
/// becomes a [`WindowOutcome::Failed`] record instead of unwinding into
/// the worker loop.
fn isolated(
    analysis: Analysis,
    window_index: usize,
    range: std::ops::Range<usize>,
    solve: impl FnOnce() -> WindowOutcome,
) -> WindowResult {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)).unwrap_or_else(|payload| {
            failed(
                analysis,
                window_index,
                range,
                panic_reason(payload.as_ref()),
            )
        });
    WindowResult {
        window_index,
        outcome,
    }
}

/// Maps a solver budget exhaustion to its verdict accounting.
fn undecided_of_stop(reason: StopReason) -> UndecidedReason {
    match reason {
        StopReason::Timeout => UndecidedReason::Timeout,
        StopReason::Conflicts => UndecidedReason::ConflictBudget,
    }
}

impl CopRecord {
    /// The record of a COP decided without encoding anything — a tier
    /// screen, a skip, a fault, an expired deadline or an over-budget
    /// straddle: no solver effort and no encoding sizes to account.
    fn unsolved(
        cop: Cop,
        signature: RaceSignature,
        verdict: CopVerdict,
        decided_by: Option<Tier>,
    ) -> Self {
        CopRecord {
            cop,
            signature,
            verdict,
            profile: SolverTotals::default(),
            cone_events: 0,
            window_events: 0,
            constraints: 0,
            decided_by,
            ext_range: None,
        }
    }
}

/// True once the window's wall-clock deadline (if any) has passed.
fn past_deadline(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The window deadline for a window starting at `start`: the per-window
/// wall-clock budget (`--timeout-ms`, or a daemon tenant budget), if any.
/// An unrepresentable deadline — overflowing `Instant` — means the budget
/// can never fire, i.e. unbounded.
fn window_deadline(cfg: &DetectorConfig, start: Instant) -> Option<Instant> {
    cfg.window_timeout.and_then(|t| start.checked_add(t))
}

impl DetectorConfig {
    /// The per-query solver budget.
    fn budget(&self) -> Budget {
        Budget {
            max_conflicts: self.max_conflicts,
            timeout: Some(self.solver_timeout),
        }
    }

    /// The encoder knobs.
    fn encoder_options(&self) -> EncoderOptions {
        EncoderOptions {
            mode: self.mode,
            prune_write_sets: self.prune_write_sets,
            slice: self.slice,
        }
    }
}

/// One window's incremental solver session, the single place every
/// analysis's solver work runs: the [`encode_goals`] encoding of one
/// kind's goals, one resident solver (phase-hinted from the trace order
/// when configured), and one `solve_assuming(selector)` query per goal,
/// so learnt clauses carry from goal to goal. Retention is sound because
/// selectors are only ever *assumed*, never asserted: every learnt clause
/// is implied by the asserted skeleton alone — possibly guarded by a
/// negated selector — and stays valid after its goal retires (see
/// DESIGN.md, "Hot path").
#[derive(Debug)]
pub struct GoalSession {
    encoded: EncodedWindow,
    solver: Solver,
    budget: Budget,
    deadline: Option<Instant>,
}

impl GoalSession {
    /// Encodes `goals` over `view` with `config`'s encoder options and
    /// builds the session's solver. Each query's budget is `config`'s
    /// per-query budget, clamped to the time left before `deadline`.
    pub fn new(
        config: &DetectorConfig,
        view: &View<'_>,
        goals: &[Goal],
        deadline: Option<Instant>,
    ) -> Self {
        let encoded = encode_goals(view, goals, config.encoder_options());
        let mut solver = Solver::new(&encoded.fb);
        if config.phase_hints {
            solver.hint_atom_phases(|a| encoded.phase_hint(a));
        }
        GoalSession {
            encoded,
            solver,
            budget: config.budget(),
            deadline,
        }
    }

    /// The per-query budget clamped to the window's remaining wall-clock,
    /// so a query started near the deadline cannot overshoot the window
    /// budget by a whole per-query budget.
    fn clamped_budget(&self) -> Budget {
        let Some(d) = self.deadline else {
            return self.budget;
        };
        let remaining = d.saturating_duration_since(Instant::now());
        Budget {
            timeout: Some(self.budget.timeout.map_or(remaining, |t| t.min(remaining))),
            ..self.budget
        }
    }

    /// Decides goal `i`: the verdict and the SAT-core effort this query
    /// spent. The solver's counters are cumulative over the session, so
    /// the effort is the before/after delta.
    pub fn solve(&mut self, i: usize) -> (SmtResult, SolverTotals) {
        let budget = self.clamped_budget();
        let before = self.solver.stats().sat;
        let result = self
            .solver
            .solve_assuming(&budget, &[self.encoded.selectors[i]]);
        let mut profile = SolverTotals::default();
        profile.record_solve(&self.solver.stats().sat.delta_since(&before));
        (result, profile)
    }

    /// The model value of `e`'s order variable (after a SAT answer).
    pub(crate) fn value(&self, e: EventId) -> i64 {
        self.solver.int_value(self.encoded.ovar(e))
    }

    /// The model value of the cut `D` (after a SAT answer).
    pub(crate) fn cut(&self) -> i64 {
        self.solver
            .int_value(self.encoded.dvar.expect("session without a cut"))
    }

    /// The branches whose feasibility goal `i`'s selector asserts.
    pub(crate) fn required_branches(&self, i: usize) -> &[EventId] {
        &self.encoded.required_branches[i]
    }
}

/// The solve loop of the deadlock and atomicity jobs: decides `goals` in
/// order on one [`GoalSession`], built at the first query. A goal reached
/// after the window deadline is unknown, and a goal whose signature an
/// earlier goal of this window confirmed is not recorded at all.
/// `witness(i, session)` builds and validates a SAT goal's violation from
/// the session model; `Some` confirms the signature. The records, in goal
/// order, are a pure function of the window: its queries run in a fixed
/// order on one worker.
pub(crate) fn decide_goals<S: Clone + Eq + Hash, V>(
    cfg: &DetectorConfig,
    view: &View<'_>,
    goals: &[Goal],
    signatures: Vec<S>,
    mut witness: impl FnMut(usize, &GoalSession) -> Option<V>,
) -> Vec<(S, Verdict<V>)> {
    let deadline = window_deadline(cfg, Instant::now());
    let mut session: Option<GoalSession> = None;
    let mut seen: HashSet<S> = HashSet::new();
    let mut records = Vec::with_capacity(goals.len());
    for (i, signature) in signatures.into_iter().enumerate() {
        if past_deadline(deadline) {
            records.push((signature, Verdict::Unknown));
            continue;
        }
        if cfg.dedup_signatures && seen.contains(&signature) {
            continue;
        }
        let session = session.get_or_insert_with(|| GoalSession::new(cfg, view, goals, deadline));
        let verdict = match session.solve(i).0 {
            SmtResult::Unsat => Verdict::Unsat,
            SmtResult::Unknown(_) => Verdict::Unknown,
            SmtResult::Sat => {
                let found = witness(i, session);
                if found.is_some() {
                    seen.insert(signature.clone());
                }
                Verdict::Sat(found)
            }
        };
        records.push((signature, verdict));
    }
    records
}

/// Signatures confirmed by a merge loop, readable by in-flight workers.
///
/// Public so external drivers can run the same solve-then-merge protocol
/// with the same early-skip optimization. The set is only ever used to
/// *skip* solves whose records the merge replay is guaranteed to discard,
/// so sharing it never changes merged output.
#[derive(Debug, Default)]
pub struct PublishedSet(RwLock<HashSet<RaceSignature>>);

impl PublishedSet {
    /// An empty set.
    pub fn new() -> Self {
        PublishedSet::default()
    }
}

/// One analysis of one window: a window the [`WindowCursor`] yielded,
/// a trace that covers it — the whole trace or a snapshot of the prefix
/// ingested so far — and the analysis to run. A window's view, and
/// therefore its SMT encodings and verdicts, is a pure function of the
/// window's own events plus its boundary, so solving against any prefix
/// that reaches the window's end is byte-identical to solving against
/// the full trace.
pub(crate) struct WindowJob {
    pub(crate) window: CursorWindow,
    pub(crate) trace: Arc<Trace>,
    pub(crate) analysis: Analysis,
}

impl WindowJob {
    /// The result of a job no worker will solve: the pool shut down
    /// before it ran. It merges like a panicked job.
    pub(crate) fn abandoned(&self) -> WindowResult {
        let w = &self.window;
        WindowResult {
            window_index: w.index,
            outcome: failed(
                self.analysis,
                w.index,
                w.range.clone(),
                "solver pool shut down".to_string(),
            ),
        }
    }

    /// Builds the window's view and runs the job's analysis, both under
    /// panic isolation. The result must be merged in order through an
    /// [`InOrderMerge`].
    pub(crate) fn solve(&self, detector: &RaceDetector, published: &PublishedSet) -> WindowResult {
        let w = &self.window;
        let cfg = &detector.config;
        isolated(self.analysis, w.index, w.range.clone(), || {
            let view = w.view(&self.trace);
            match self.analysis {
                Analysis::Race => WindowOutcome::Races(detector.solve_window(
                    w.index,
                    &view,
                    w.plan.as_ref(),
                    Some(published),
                )),
                Analysis::Deadlock => WindowOutcome::Deadlocks(deadlock::solve_window(cfg, &view)),
                Analysis::Atomicity => WindowOutcome::Atomicity(atomicity::solve_window(
                    cfg,
                    &view,
                    &infer_rmw_pairs(&view),
                )),
            }
        })
    }
}

/// The jobs of one window: one per analysis `kind` selects, in merge
/// order. Only the race job carries the window's straddle plan.
pub(crate) fn window_jobs(
    mut window: CursorWindow,
    trace: Arc<Trace>,
    kind: Kind,
) -> impl Iterator<Item = WindowJob> {
    let plan = window.plan.take();
    kind.analyses().iter().map(move |&analysis| WindowJob {
        window: CursorWindow {
            plan: (analysis == Analysis::Race).then(|| plan.clone()).flatten(),
            ..window.clone()
        },
        trace: trace.clone(),
        analysis,
    })
}

/// The in-order merge: buffers job results as they arrive in completion
/// order and merges them strictly in (window, analysis) order — race,
/// deadlock, atomicity — stamping the time of the first merged race. The
/// race job of a window merges first, so time to first race does not wait
/// for the other analyses. Every driver merges through this, which is
/// what makes reports independent of solve scheduling.
pub(crate) struct InOrderMerge {
    pending: BTreeMap<usize, WindowResult>,
    merged: usize,
    analyses: &'static [Analysis],
    report: DetectionReport,
    confirmed: HashSet<RaceSignature>,
    start: Instant,
}

impl InOrderMerge {
    /// An empty merge of the analyses `kind` selects; time to first race
    /// is measured from `start`.
    pub(crate) fn new(start: Instant, kind: Kind) -> Self {
        InOrderMerge {
            pending: BTreeMap::new(),
            merged: 0,
            analyses: kind.analyses(),
            report: DetectionReport {
                kind,
                ..DetectionReport::default()
            },
            confirmed: HashSet::new(),
            start,
        }
    }

    /// Results received so far (merged or buffered).
    pub(crate) fn absorbed(&self) -> usize {
        self.merged + self.pending.len()
    }

    /// Buffers one result and merges everything now contiguous, pushing
    /// newly confirmed signatures to `published`.
    pub(crate) fn absorb(
        &mut self,
        detector: &RaceDetector,
        result: WindowResult,
        published: &PublishedSet,
    ) {
        let n = self.analyses.len();
        let pos = self.analyses.iter().position(|&a| a == result.analysis());
        let pos = pos.expect("result of an unselected analysis");
        self.pending.insert(result.window_index() * n + pos, result);
        while let Some(result) = self.pending.remove(&self.merged) {
            detector.merge_outcome(
                result,
                &mut self.report,
                &mut self.confirmed,
                Some(published),
            );
            self.merged += 1;
            let stats = &mut self.report.stats;
            if stats.time_to_first_race.is_none() && !self.report.races.is_empty() {
                stats.time_to_first_race = Some(self.start.elapsed());
            }
        }
    }

    /// The merged report. Every absorbed result must have merged.
    pub(crate) fn finish(self) -> DetectionReport {
        debug_assert!(self.pending.is_empty(), "every window outcome merged");
        self.report
    }
}

/// The maximal sound predictive race detector.
///
/// # Examples
///
/// Detect the paper's Figure 1 race:
///
/// ```
/// use rvcore::RaceDetector;
/// use rvtrace::{ThreadId, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// let t2 = b.fork(ThreadId::MAIN);
/// b.write(ThreadId::MAIN, x, 1);
/// b.read(t2, x, 1);
/// let trace = b.finish();
///
/// let report = RaceDetector::new().detect(&trace);
/// assert_eq!(report.n_races(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RaceDetector {
    config: DetectorConfig,
}

impl RaceDetector {
    /// A detector with the paper's default configuration.
    pub fn new() -> Self {
        RaceDetector {
            config: DetectorConfig::default(),
        }
    }

    /// A detector with an explicit configuration.
    pub fn with_config(config: DetectorConfig) -> Self {
        RaceDetector { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The window cursor for this configuration: `window_size`-event
    /// windows, planning straddles in cone mode when races are analyzed.
    pub(crate) fn cursor(&self) -> WindowCursor {
        let cone =
            self.config.window_mode == WindowMode::Cone && self.config.kind.includes(Kind::Race);
        WindowCursor::new(
            self.config.window_size,
            cone.then(|| self.config.spill_events()),
        )
    }

    /// Runs detection over the whole trace, window by window: one job per
    /// window and analysis [`DetectorConfig::kind`] selects.
    ///
    /// This is a one-tenant [`Session`](crate::session::Session) over a
    /// copy of `trace`, on a pool of [`DetectorConfig::parallelism`]
    /// workers. Results merge in window order, so violations, signatures
    /// and verdict counters are identical for every thread count
    /// (wall-clock timings, of course, are not).
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero.
    pub fn detect(&self, trace: &Trace) -> DetectionReport {
        let manager = SessionManager::new(self.config.parallelism);
        let config = SessionConfig {
            detector: self.config.clone(),
            lenient: false,
            max_resident_windows: manager.in_process_residency(),
        };
        manager.open_session(config).detect(Arc::new(trace.clone()))
    }

    /// Solves one window under panic isolation, as a building block for
    /// external drivers: the result must be handed to
    /// [`RaceDetector::merge_window_result`] in window order. The solve is
    /// a pure function of the window's view (plus the skip-only
    /// `published` set and the window's deterministic straddle `plan`, if
    /// any), so any scheduling of these calls merges to the same report.
    pub fn solve_window_result(
        &self,
        window_index: usize,
        view: &View<'_>,
        plan: Option<&StraddlePlan>,
        published: Option<&PublishedSet>,
    ) -> WindowResult {
        isolated(Analysis::Race, window_index, view.range(), || {
            WindowOutcome::Races(self.solve_window(window_index, view, plan, published))
        })
    }

    /// Merges one window's result into `report`. Must be called in window
    /// order with the same `confirmed` race-signature set (and
    /// `published`, if any) across the whole run — this is the replay
    /// that makes merged output independent of solve scheduling.
    pub fn merge_window_result(
        &self,
        result: WindowResult,
        report: &mut DetectionReport,
        confirmed: &mut HashSet<RaceSignature>,
        published: Option<&PublishedSet>,
    ) {
        self.merge_outcome(result, report, confirmed, published);
    }

    /// Solves one window into an outcome record. Pure with respect to
    /// cross-window state: `published` is used only for early skips that
    /// provably cannot change merged output (see the module docs).
    fn solve_window(
        &self,
        window_index: usize,
        view: &View<'_>,
        plan: Option<&StraddlePlan>,
        published: Option<&PublishedSet>,
    ) -> SolvedWindow {
        let window_start = Instant::now();
        let cfg = &self.config;
        // COPs reached after the window deadline are recorded as
        // `Undecided(Timeout)`, and per-COP solver budgets are clamped to
        // the remainder.
        let deadline = window_deadline(cfg, window_start);
        let enumeration = enumerate_cops(view, cfg.quick_check, cfg.max_cops_per_signature);
        // Snapshot of merge-confirmed signatures. Only ever used to *skip*
        // solves whose records the merge replay is guaranteed to discard.
        // When a fault plan is active the snapshot is left empty: which
        // signatures have been published when a window starts depends on
        // worker timing, and a timing-dependent skip would shift fault
        // coordinates between runs. (Verdicts never depend on the skip, but
        // fault coordinates index the solve order, which does.)
        let known_racy: HashSet<RaceSignature> =
            match (cfg.dedup_signatures && cfg.fault_plan.is_none(), published) {
                (true, Some(p)) => {
                    p.0.read()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .clone()
                }
                _ => HashSet::new(),
            };
        let mut out = SolvedWindow {
            window_index,
            range: view.range(),
            pairs_considered: enumeration.pairs_considered,
            qc_signatures: enumeration.qc_signatures,
            records: Vec::with_capacity(enumeration.cops.len()),
            solver_time: Duration::ZERO,
            window_time: Duration::ZERO,
            tier_a_time: Duration::ZERO,
            tier_b_time: Duration::ZERO,
            spill_events: 0,
        };
        // The tiered cascade shares one per-window analysis (base
        // entailment graph + memoized read facts) across all COPs.
        let mut tiers = (cfg.tiers && !enumeration.cops.is_empty())
            .then(|| TierAnalysis::new(view, cfg.mode, cfg.prune_write_sets));
        self.solve_session(
            view,
            enumeration.cops,
            deadline,
            &known_racy,
            tiers.as_mut(),
            true,
            &mut out,
        );
        if let Some(t) = &tiers {
            out.tier_a_time += t.tier_a_time();
            out.tier_b_time += t.tier_b_time();
        }
        if let Some(plan) = plan {
            self.solve_straddles(view, plan, deadline, &known_racy, &mut out);
        }
        out.window_time = window_start.elapsed();
        out
    }

    /// The planned fault for this (window, COP) coordinate, if any.
    /// `Fault::Panic` fires here (caught by `isolated`);
    /// the other faults are returned as forced verdicts.
    fn apply_fault(&self, window: usize, cop_index: usize) -> Option<CopVerdict> {
        let fault = self
            .config
            .fault_plan
            .as_ref()?
            .fault_at(window, cop_index)?;
        match fault {
            Fault::Panic => {
                panic!("injected fault: worker panic at window {window} cop {cop_index}")
            }
            Fault::Timeout => Some(CopVerdict::Undecided(UndecidedReason::Timeout)),
            Fault::EncodeError => Some(CopVerdict::Undecided(UndecidedReason::EncodeError)),
        }
    }

    /// The witness of a COP the session found SAT: the constructor's,
    /// unless `screened` says Tier A already tried it, else the canonical
    /// re-solve. Either way the witness is a pure function of the view,
    /// the COP and the config, so reports are byte-identical with the
    /// cascade on or off. Construction is timed as Tier A, the re-solve as
    /// solver time.
    fn sat_verdict(
        &self,
        view: &View<'_>,
        cop: Cop,
        screened: bool,
        budget: &Budget,
        out: &mut SolvedWindow,
    ) -> CopVerdict {
        if !screened {
            let t0 = Instant::now();
            let built = construct(view, cop, self.config.mode);
            out.tier_a_time += t0.elapsed();
            if let Some(witness) = built {
                return CopVerdict::Race {
                    schedule: witness.schedule,
                    fallback: false,
                };
            }
        }
        let t0 = Instant::now();
        let canonical = self.canonical_witness(view, cop, budget);
        out.solver_time += t0.elapsed();
        match canonical {
            Ok(witness) => CopVerdict::Race {
                schedule: witness.schedule,
                fallback: true,
            },
            Err(()) => CopVerdict::WitnessFailed,
        }
    }

    /// The canonical witness for a SAT verdict the constructor could not
    /// witness: a fresh *unsliced* glued encoding of the COP, solved from
    /// scratch with phase hints, and the witness extracted from that
    /// model. Reported schedules are therefore byte-identical across
    /// `slice` on/off, `tiers` on/off, and every `--jobs` value. (A sliced
    /// model leaves non-cone events unplaced, and a session model depends
    /// on the session's solve history; the fresh solve depends on
    /// neither. The verdict itself is already SAT, so this solve can only
    /// fail at a budget boundary, which is reported honestly as a witness
    /// failure.)
    fn canonical_witness(&self, view: &View<'_>, cop: Cop, budget: &Budget) -> Result<Witness, ()> {
        let opts = EncoderOptions {
            slice: false,
            ..self.config.encoder_options()
        };
        let encoded = encode(view, cop, opts);
        let mut solver = Solver::new(&encoded.fb);
        if self.config.phase_hints {
            solver.hint_atom_phases(|a| encoded.phase_hint(a));
        }
        if solver.solve(budget) != SmtResult::Sat {
            return Err(());
        }
        extract_witness(view, cop, &encoded, &solver, self.config.mode).map_err(|_| ())
    }

    /// The race solve path: decides `cops` against `view`. The tier
    /// screens run first; the residue is decided on one [`GoalSession`]
    /// (with slicing, over the residue's union cone), one race goal per
    /// COP.
    ///
    /// The cross-window `known_racy` skip is only taken when it covers
    /// *every* COP: a partial skip would drop a query from the shared
    /// session and shift the effort deltas of later COPs with worker
    /// timing, breaking the byte-identity of the count-type metrics across
    /// `--jobs`. (Witnesses are unaffected either way: they come from the
    /// constructor or the canonical fresh solve, never from the session.)
    /// The skip of signatures confirmed
    /// earlier in the same call is deterministic, so it stays per COP.
    ///
    /// `faults` says whether the fault plan's coordinates index `cops`:
    /// true for a window's own COPs, false for its straddle pass.
    #[allow(clippy::too_many_arguments)]
    fn solve_session(
        &self,
        view: &View<'_>,
        cops: Vec<Cop>,
        deadline: Option<Instant>,
        known_racy: &HashSet<RaceSignature>,
        tiers: Option<&mut TierAnalysis<'_>>,
        faults: bool,
        out: &mut SolvedWindow,
    ) {
        if cops.is_empty() {
            return;
        }
        let cfg = &self.config;
        let window_index = out.window_index;
        // With the cascade off every record's stage is `None`, so the
        // tier counters stay zero under `--no-tiers`.
        let cascade_on = tiers.is_some();
        let signatures: Vec<RaceSignature> = cops
            .iter()
            .map(|&c| RaceSignature::of_cop(view.trace(), c))
            .collect();
        if cfg.dedup_signatures && signatures.iter().all(|s| known_racy.contains(s)) {
            for (cop, signature) in cops.into_iter().zip(signatures) {
                let skipped = CopRecord::unsolved(cop, signature, CopVerdict::Skipped, None);
                out.records.push(skipped);
            }
            return;
        }
        // Tier pass: decide every COP up front so the shared encoding can
        // cover the residue alone (the screens are pure per-COP functions
        // of the window, so deciding them before the solve loop changes
        // nothing about solve order). A COP with a planned fault is never
        // screened — the fault must fire at its coordinate either way.
        let mut decisions: Vec<Option<(TierDecision, Option<Witness>)>> = match tiers {
            Some(t) => cops
                .iter()
                .enumerate()
                .map(|(i, cop)| {
                    let faulted = faults
                        && cfg
                            .fault_plan
                            .as_ref()
                            .is_some_and(|p| p.fault_at(window_index, i).is_some());
                    (!faulted).then(|| (t.decide(cop), t.take_witness()))
                })
                .collect(),
            None => vec![None; cops.len()],
        };
        // The residue (plus faulted coordinates, which keep their index
        // semantics) shares one session, built at its first query — so an
        // expired deadline never builds it.
        let mut residue: Vec<Goal> = Vec::new();
        let mut sel_index: Vec<Option<usize>> = Vec::with_capacity(cops.len());
        for (i, &cop) in cops.iter().enumerate() {
            match decisions[i] {
                Some((TierDecision::Confirmed | TierDecision::Refuted, _)) => {
                    sel_index.push(None);
                }
                _ => {
                    sel_index.push(Some(residue.len()));
                    residue.push(Goal::Race(cop));
                }
            }
        }
        let mut session: Option<GoalSession> = None;
        // Signatures confirmed by this call, for the per-COP dedup skip.
        let mut local_confirmed: HashSet<RaceSignature> = HashSet::new();
        for (i, cop) in cops.into_iter().enumerate() {
            let signature = signatures[i];
            // Faults fire before any skip so a planned coordinate always
            // takes effect, at every thread count. (Skipping a selector
            // solve perturbs later models only relative to a run *without*
            // the fault; the plan is fixed, so every thread count sees the
            // same sequence of solves.)
            let fault = faults.then(|| self.apply_fault(window_index, i)).flatten();
            // Window budget exhausted: every remaining COP — tier-decided
            // or residue — degrades to the per-COP-timeout verdict.
            let expired = || past_deadline(deadline).then_some(UndecidedReason::Timeout);
            if let Some(verdict) = fault.or_else(|| expired().map(CopVerdict::Undecided)) {
                let stage = cascade_on.then_some(Tier::Solver);
                out.records
                    .push(CopRecord::unsolved(cop, signature, verdict, stage));
                continue;
            }
            if cfg.dedup_signatures && local_confirmed.contains(&signature) {
                let skipped = CopRecord::unsolved(cop, signature, CopVerdict::Skipped, None);
                out.records.push(skipped);
                continue;
            }
            let screened = decisions[i].is_some();
            match decisions[i].take() {
                // The constructor already built and validated the
                // confirmation's witness.
                Some((TierDecision::Confirmed, witness)) => {
                    let schedule = witness.expect("a confirmation keeps its witness").schedule;
                    local_confirmed.insert(signature);
                    let verdict = CopVerdict::Race {
                        schedule,
                        fallback: false,
                    };
                    let record = CopRecord::unsolved(cop, signature, verdict, Some(Tier::A));
                    out.records.push(record);
                    continue;
                }
                // `Φ` is entailment-unsatisfiable: exactly the solver's
                // `Unsat`.
                Some((TierDecision::Refuted, _)) => {
                    let verdict = CopVerdict::Unsat;
                    let record = CopRecord::unsolved(cop, signature, verdict, Some(Tier::B));
                    out.records.push(record);
                    continue;
                }
                _ => {}
            }
            let sel = sel_index[i].expect("residue COP without a selector");
            let solve_start = Instant::now();
            let session =
                session.get_or_insert_with(|| GoalSession::new(cfg, view, &residue, deadline));
            let (result, profile) = session.solve(sel);
            out.solver_time += solve_start.elapsed();
            let verdict = match result {
                SmtResult::Unsat => CopVerdict::Unsat,
                SmtResult::Unknown(reason) => CopVerdict::Undecided(undecided_of_stop(reason)),
                // The session model depends on the session's solve history
                // (and, sliced, leaves non-cone events unplaced): never
                // report it.
                SmtResult::Sat => {
                    let budget = session.clamped_budget();
                    self.sat_verdict(view, cop, screened, &budget, out)
                }
            };
            if matches!(verdict, CopVerdict::Race { .. }) {
                local_confirmed.insert(signature);
            }
            out.records.push(CopRecord {
                cop,
                signature,
                verdict,
                profile,
                cone_events: session.encoded.cone_events,
                window_events: session.encoded.window_events,
                constraints: session.encoded.n_constraints,
                decided_by: cascade_on.then_some(Tier::Solver),
                ext_range: None,
            });
        }
    }

    /// The straddle pass (`--window-mode cone`): solves this window's
    /// boundary-straddling COPs — pairs whose partner event fell before
    /// the window start, invisible to every per-window enumeration — on an
    /// *extended view* rebuilt from the tracker's checkpointed boundary.
    /// The extended view over `ext_start..end` is byte-identical to the
    /// view a fixed window spanning that range would have had (same
    /// boundary-advance recurrence from the same trace prefix), so no new
    /// view semantics are introduced: every verdict below is an ordinary
    /// windowed verdict over a longer, boundary-correct window, and the
    /// soundness argument (Thm. 1) carries over unchanged.
    ///
    /// The view grows lazily along the COPs' cone of influence: when the
    /// union cone reads a variable whose last in-budget write precedes
    /// the current extension start, the view is rebuilt from that write
    /// (at most three rounds), so cross-boundary control-flow dependences
    /// are carried without re-residenting whole windows. The growth runs
    /// whether or not the *encoding* slices — the extension range (and
    /// with it the reported window and witness) must be identical across
    /// `--no-slice`, or the slice flag would change report bytes. COPs
    /// whose partner fell outside the spill budget are reported honestly
    /// as `Undecided(BoundaryBudget)` — never a silent "no race", never a
    /// solve on a truncated view. The COPs themselves go through the same
    /// [`solve_session`](Self::solve_session) as the window's own COPs,
    /// on a session of their own over the extended view. A straddling COP
    /// whose signature the window's own pass confirmed is solved anyway
    /// and dropped by the merge replay like any same-window duplicate: the
    /// window's own confirmations depend on worker timing (a session
    /// skipped whole for published signatures confirms nothing), so
    /// skipping on them would shift this session's effort deltas.
    fn solve_straddles(
        &self,
        view: &View<'_>,
        plan: &StraddlePlan,
        deadline: Option<Instant>,
        known_racy: &HashSet<RaceSignature>,
        out: &mut SolvedWindow,
    ) {
        let cfg = &self.config;
        let trace = view.trace();
        for &cop in &plan.over_budget {
            let signature = RaceSignature::of_cop(trace, cop);
            let verdict = CopVerdict::Undecided(UndecidedReason::BoundaryBudget);
            out.records.push(CopRecord {
                ext_range: Some(plan.window.clone()),
                ..CopRecord::unsolved(cop, signature, verdict, cfg.tiers.then_some(Tier::Solver))
            });
        }
        if plan.cops.is_empty() {
            return;
        }
        // Lazy cone growth: pull the view start back to the last in-budget
        // write of any variable the union cone reads, until the dependence
        // frontier stabilizes or the budget floor is hit.
        let mut ext_start = plan.ext_start;
        let mut ext = plan.extended_view(trace, ext_start);
        for _ in 0..3 {
            let target = {
                let skel = WindowSkeleton::new(&ext);
                let cone = skel.cone(&plan.cops, cfg.prune_write_sets);
                plan.grow_target(cone.read_vars(&ext), ext_start)
            };
            match target {
                Some(s) if s < ext_start => {
                    ext_start = s;
                    ext = plan.extended_view(trace, ext_start);
                }
                _ => break,
            }
        }
        out.spill_events = plan.spill_span(ext_start);
        let mut tiers = cfg
            .tiers
            .then(|| TierAnalysis::new(&ext, cfg.mode, cfg.prune_write_sets));
        let first = out.records.len();
        // The fault plan is deliberately not consulted here: its
        // coordinates index the window's own solve order, which must not
        // shift between fixed and cone mode.
        self.solve_session(
            &ext,
            plan.cops.clone(),
            deadline,
            known_racy,
            tiers.as_mut(),
            false,
            out,
        );
        for record in &mut out.records[first..] {
            record.ext_range = Some(ext.range());
        }
        if let Some(t) = &tiers {
            out.tier_a_time += t.tier_a_time();
            out.tier_b_time += t.tier_b_time();
        }
    }

    /// Merges one job result into `report`, in (window, analysis) order.
    /// Deadlock and atomicity records replay against the signatures their
    /// sections already hold; a failed job degrades the whole report.
    fn merge_outcome(
        &self,
        result: WindowResult,
        report: &mut DetectionReport,
        confirmed: &mut HashSet<RaceSignature>,
        published: Option<&PublishedSet>,
    ) {
        let dedup = self.config.dedup_signatures;
        match result.outcome {
            WindowOutcome::Races(solved) => self.merge_races(solved, report, confirmed, published),
            WindowOutcome::Deadlocks(window) => report.deadlock.merge(window, dedup),
            WindowOutcome::Atomicity(window) => report.atomicity.merge(window, dedup),
            WindowOutcome::Failed(analysis, failed) => {
                if analysis == Analysis::Race {
                    report.stats.windows += 1;
                    report.stats.failed_windows += 1;
                }
                report.failed_windows.push(failed);
            }
        }
    }

    /// Replays one window's race records against the authoritative
    /// confirmed set, in window order. This is where cross-window
    /// deduplication happens: a record whose signature is already
    /// confirmed is dropped wholesale (its counters included), reproducing
    /// exactly what the serial driver would have skipped before solving.
    /// Newly confirmed signatures are pushed to `published` for in-flight
    /// workers.
    fn merge_races(
        &self,
        outcome: SolvedWindow,
        report: &mut DetectionReport,
        confirmed: &mut HashSet<RaceSignature>,
        published: Option<&PublishedSet>,
    ) {
        let cfg = &self.config;
        let stats = &mut report.stats;
        stats.windows += 1;
        stats.pairs_considered += outcome.pairs_considered;
        stats.qc_signatures += outcome.qc_signatures;
        stats.solver_time += outcome.solver_time;
        stats.tier_a_time += outcome.tier_a_time;
        stats.tier_b_time += outcome.tier_b_time;
        stats.window_times.push(outcome.window_time);
        stats.spill_peak_events = stats.spill_peak_events.max(outcome.spill_events);
        for record in outcome.records {
            if cfg.dedup_signatures && confirmed.contains(&record.signature) {
                continue;
            }
            // Boundary accounting, surviving records only (same contract
            // as the solver-effort tallies below).
            if record.ext_range.is_some() {
                if matches!(
                    record.verdict,
                    CopVerdict::Undecided(UndecidedReason::BoundaryBudget)
                ) {
                    stats.boundary_over_budget += 1;
                } else {
                    stats.straddle_cops += 1;
                    if matches!(record.verdict, CopVerdict::Race { .. }) {
                        stats.straddle_races += 1;
                    }
                }
            }
            // Cascade attribution, surviving records only (same contract
            // as `profile`): with tiers on, every solved COP carries a
            // stage, so confirmed + refuted + residue == cops_solved.
            match record.decided_by {
                Some(Tier::A) => stats.tier_confirmed += 1,
                Some(Tier::B) => stats.tier_refuted += 1,
                Some(Tier::Solver) => stats.tier_residue += 1,
                None => {}
            }
            // Solver effort is tallied here, for
            // surviving records only: a speculative solve whose record the
            // dedup check above discards never reaches the stats, so the
            // count-type metrics are identical at every thread count.
            stats.solver_totals.add(&record.profile);
            if record.profile.solves > 0 {
                stats.conflicts_per_cop.observe(record.profile.conflicts);
                stats.decisions_per_cop.observe(record.profile.decisions);
                stats
                    .propagations_per_cop
                    .observe(record.profile.propagations);
            }
            // Encoding-size accounting, surviving records only (same
            // determinism contract as `profile` above). Skipped and
            // fault-forced records encode nothing and carry zeros.
            if record.window_events > 0 {
                stats.cone_events += record.cone_events as u64;
                stats.window_events_encoded += record.window_events as u64;
                stats.sliced_out += (record.window_events - record.cone_events) as u64;
                stats.constraints_encoded += record.constraints as u64;
                stats.cone_events_per_cop.observe(record.cone_events as u64);
                stats.constraints_per_cop.observe(record.constraints as u64);
            }
            match record.verdict {
                CopVerdict::Skipped => {
                    // A worker only skips when the signature was confirmed
                    // by an earlier merged window or earlier in this
                    // window's records — both imply `confirmed` holds it
                    // by the time the replay gets here.
                    debug_assert!(
                        !cfg.dedup_signatures,
                        "skipped record with unconfirmed signature {:?}",
                        record.signature
                    );
                }
                CopVerdict::Unsat => {
                    stats.cops_solved += 1;
                    stats.unsat += 1;
                }
                CopVerdict::Undecided(reason) => {
                    stats.cops_solved += 1;
                    stats.record_undecided(reason);
                }
                CopVerdict::WitnessFailed => {
                    stats.cops_solved += 1;
                    stats.sat += 1;
                    stats.witness_failures += 1;
                }
                CopVerdict::Race { schedule, fallback } => {
                    stats.cops_solved += 1;
                    stats.sat += 1;
                    stats.witness_fallbacks += usize::from(fallback);
                    confirmed.insert(record.signature);
                    if let Some(p) = published {
                        p.0.write()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .insert(record.signature);
                    }
                    report.races.push(RaceReport {
                        cop: record.cop,
                        signature: record.signature,
                        // A straddling race is attributed to the extended
                        // view it was actually solved on.
                        window: record
                            .ext_range
                            .clone()
                            .unwrap_or_else(|| outcome.range.clone()),
                        schedule,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConsistencyMode;
    use crate::session::SessionOutcome;
    use rvtrace::{JsonError, ThreadId, TraceBuilder};

    /// The `--stream` driver: a one-tenant session fed `input` in 64 KiB
    /// chunks, capped at the in-process residency.
    fn detect_streamed(config: &DetectorConfig, input: &[u8]) -> Result<SessionOutcome, JsonError> {
        let manager = SessionManager::new(config.parallelism);
        let mut session = manager.open_session(SessionConfig {
            detector: config.clone(),
            lenient: false,
            max_resident_windows: manager.in_process_residency(),
        });
        for chunk in input.chunks(64 * 1024) {
            session.feed(chunk)?;
        }
        session.finish()
    }

    /// Paper Figure 1/4: exactly one race, (3,10) on x.
    fn figure1_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.write(t1, x, 1);
        b.write(t1, y, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, y, 1);
        b.release(t2, l);
        b.read(t2, x, 1);
        b.branch(t2);
        b.write(t2, z, 1);
        b.join(t1, t2);
        b.read(t1, z, 1);
        b.branch(t1);
        b.finish()
    }

    #[test]
    fn figure1_exactly_one_race() {
        let report = RaceDetector::new().detect(&figure1_trace());
        assert_eq!(report.n_races(), 1, "{report}");
        assert_eq!(report.stats.witness_failures, 0);
        let race = &report.races[0];
        // The race is on x: both events access x.
        let tr = figure1_trace();
        let var = tr.event(race.cop.first).kind.var();
        assert_eq!(var, tr.event(race.cop.second).kind.var());
    }

    #[test]
    fn figure1_said_finds_none() {
        let cfg = DetectorConfig {
            mode: ConsistencyMode::WholeTrace,
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&figure1_trace());
        assert_eq!(report.n_races(), 0, "{report}");
        assert!(report.stats.unsat > 0);
    }

    #[test]
    fn race_free_program_clean() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.write(t2, x, 2);
        b.release(t2, l);
        b.join(t1, t2);
        let report = RaceDetector::new().detect(&b.finish());
        assert_eq!(report.n_races(), 0);
    }

    #[test]
    fn dedup_by_signature() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let lw = b.loc("w");
        let lr = b.loc("r");
        for i in 0..4 {
            b.write_at(t1, x, i, lw);
        }
        for _ in 0..4 {
            b.read_at(t2, x, 3, lr);
        }
        let trace = b.finish();
        let report = RaceDetector::new().detect(&trace);
        assert_eq!(report.n_races(), 1, "one signature ⇒ one report");
        let cfg = DetectorConfig {
            dedup_signatures: false,
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&trace);
        assert!(report.n_races() > 1);
    }

    #[test]
    fn windowing_misses_cross_window_races_but_stays_sound() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let w = b.write(t1, x, 1);
        for i in 0..10 {
            b.write(t1, x, i + 2); // filler to push the read far away
        }
        let r = b.read(t2, x, 11);
        let _ = (w, r);
        let trace = b.finish();
        // Tiny windows: the write and read land in different windows, and
        // fixed mode cannot see across the boundary.
        let cfg = DetectorConfig {
            window_size: 3,
            window_mode: WindowMode::Fixed,
            ..Default::default()
        };
        let small = RaceDetector::with_config(cfg).detect(&trace);
        // Full window: the race is found.
        let big = RaceDetector::new().detect(&trace);
        assert!(big.n_races() >= 1);
        assert!(small.n_races() <= big.n_races());
    }

    #[test]
    fn stats_are_populated() {
        let report = RaceDetector::new().detect(&figure1_trace());
        assert_eq!(report.stats.windows, 1);
        assert!(report.stats.cops_solved >= 1);
        assert!(report.stats.qc_signatures >= 1);
        assert!(report.stats.sat >= 1);
    }

    #[test]
    fn injected_panic_fails_window_without_killing_run() {
        use crate::config::{Fault, FaultPlan};
        use std::sync::Arc;
        let cfg = DetectorConfig {
            fault_plan: Some(Arc::new(FaultPlan::new().inject(0, 0, Fault::Panic))),
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&figure1_trace());
        assert_eq!(report.stats.windows, 1);
        assert_eq!(report.stats.failed_windows, 1);
        assert_eq!(report.failed_windows.len(), 1);
        assert!(report.failed_windows[0].reason.contains("injected fault"));
        assert_eq!(report.n_races(), 0, "the only window failed");
        assert!(report.is_degraded());
    }

    #[test]
    fn injected_soft_faults_are_tallied_as_undecided() {
        use crate::config::{Fault, FaultPlan};
        use crate::report::UndecidedReason;
        use std::sync::Arc;
        // Two independent racy pairs (distinct signatures) ⇒ two COPs in
        // the window's solve order, so both fault coordinates fire.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.write(t1, x, 1);
        b.read(t2, x, 1);
        b.write(t1, y, 1);
        b.read(t2, y, 1);
        let trace = b.finish();
        let plan = FaultPlan::new()
            .inject(0, 0, Fault::Timeout)
            .inject(0, 1, Fault::EncodeError);
        let cfg = DetectorConfig {
            fault_plan: Some(Arc::new(plan)),
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(report.stats.failed_windows, 0);
        assert!(report.stats.undecided >= 2, "{report}");
        assert_eq!(
            report.stats.undecided_by_reason[&UndecidedReason::Timeout],
            1
        );
        assert_eq!(
            report.stats.undecided_by_reason[&UndecidedReason::EncodeError],
            1
        );
        assert!(report.is_degraded());
    }

    #[test]
    fn faulted_reports_identical_across_thread_counts() {
        use crate::config::{Fault, FaultPlan};
        use std::sync::Arc;
        // Many small windows + a mixed fault plan: the merged report must
        // render byte-identically at every parallelism level.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        for i in 0..12 {
            b.write(t1, x, i);
            b.read(t2, x, i);
            b.write(t2, y, i);
            b.read(t1, y, i);
        }
        let trace = b.finish();
        let plan = Arc::new(
            FaultPlan::new()
                .inject(1, 0, Fault::Panic)
                .inject(2, 0, Fault::Timeout)
                .inject(3, 1, Fault::EncodeError),
        );
        let summaries: Vec<String> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|workers| {
                let cfg = DetectorConfig {
                    window_size: 8,
                    parallelism: workers,
                    fault_plan: Some(plan.clone()),
                    ..Default::default()
                };
                RaceDetector::with_config(cfg)
                    .detect(&trace)
                    .deterministic_summary()
            })
            .collect();
        assert!(summaries[0].contains("failed=1"), "{}", summaries[0]);
        for s in &summaries[1..] {
            assert_eq!(&summaries[0], s);
        }
    }

    #[test]
    fn failed_kind_job_degrades_the_report() {
        let result = isolated(Analysis::Deadlock, 0, 0..4, || panic!("boom"));
        let mut report = DetectionReport::default();
        RaceDetector::new().merge_window_result(result, &mut report, &mut HashSet::new(), None);
        assert!(report.is_degraded());
        assert_eq!(
            report.stats.failed_windows, 0,
            "race counters count race jobs"
        );
        assert_eq!(report.failed_windows[0].reason, "deadlock analysis: boom");
    }

    /// A multi-window trace with a racy pair in (at least) the first and
    /// last windows under `window_size`.
    fn multi_window_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        for i in 0..16 {
            b.write(t1, x, i);
            b.read(t2, x, i);
            b.write(t2, y, i);
            b.read(t1, y, i);
        }
        b.finish()
    }

    #[test]
    fn window_residency_is_bounded_by_the_pool_for_both_sources() {
        // 24 windows of 8 events: far more windows than any pool holds.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        for i in 0..48 {
            b.write(t1, x, i);
            b.read(t2, x, i);
            b.write(t2, y, i);
            b.read(t1, y, i);
        }
        let trace = b.finish();
        let ndjson = rvtrace::to_ndjson(&trace);
        let mut baseline: Option<String> = None;
        for jobs in [1usize, 2, 4, 8] {
            let detector = RaceDetector::with_config(DetectorConfig {
                window_size: 8,
                parallelism: jobs,
                ..Default::default()
            });
            let whole = detector.detect(&trace);
            let streamed = detect_streamed(detector.config(), ndjson.as_bytes())
                .unwrap()
                .report;
            assert!(whole.stats.windows >= 20, "windows={}", whole.stats.windows);
            assert!(whole.n_races() >= 1, "sanity: the workload races");
            for (source, report) in [("detect", &whole), ("streamed", &streamed)] {
                let peak = report.stats.peak_window_residency;
                assert!(
                    (1..=2 * jobs + 3).contains(&peak),
                    "{source} jobs={jobs} peak={peak}"
                );
                assert!(report.stats.time_to_first_race.is_some(), "{source}");
            }
            let summary = whole.deterministic_summary();
            assert_eq!(summary, streamed.deterministic_summary(), "jobs={jobs}");
            assert_eq!(*baseline.get_or_insert_with(|| summary.clone()), summary);
        }
    }

    #[test]
    fn stream_detection_matches_whole_file_for_both_formats() {
        let trace = multi_window_trace();
        let cfg = || DetectorConfig {
            window_size: 8,
            parallelism: 2,
            ..Default::default()
        };
        let whole = RaceDetector::with_config(cfg()).detect(&trace);
        for input in [rvtrace::to_json(&trace), rvtrace::to_ndjson(&trace)] {
            let streamed = detect_streamed(&cfg(), input.as_bytes()).unwrap();
            assert_eq!(
                streamed.report.deterministic_summary(),
                whole.deterministic_summary()
            );
            assert_eq!(streamed.trace.events(), trace.events());
            let ingest = streamed.ingest.expect("read from bytes");
            assert_eq!(ingest.bytes, input.len());
            assert_eq!(ingest.events, trace.len());
            assert!(streamed.report.stats.ingest_overlap.is_some());
        }
    }

    #[test]
    fn stream_detection_handles_empty_and_partial_windows() {
        // Shorter than one window, and an exact multiple of the window
        // size: the streamed window count must match the whole-file one.
        let trace = multi_window_trace(); // 65 events with the fork
        for window_size in [usize::MAX, 65, 13] {
            let cfg = || DetectorConfig {
                window_size,
                parallelism: 2,
                ..Default::default()
            };
            let whole = RaceDetector::with_config(cfg()).detect(&trace);
            let streamed = detect_streamed(&cfg(), rvtrace::to_ndjson(&trace).as_bytes()).unwrap();
            assert_eq!(
                streamed.report.deterministic_summary(),
                whole.deterministic_summary(),
                "window_size={window_size}"
            );
        }
        // Zero events, valid document.
        let empty = "{\"events\":[],\"initial_values\":{},\"volatiles\":[],\
                     \"wait_links\":[],\"loc_names\":{},\"var_names\":{}}";
        let streamed = detect_streamed(&DetectorConfig::default(), empty.as_bytes()).unwrap();
        assert_eq!(streamed.report.stats.windows, 0);
        assert_eq!(streamed.report.n_races(), 0);
        assert!(streamed.trace.is_empty());
    }

    #[test]
    fn stream_detection_propagates_parse_and_validation_errors() {
        let trace = multi_window_trace();
        let json = rvtrace::to_json(&trace);
        let cut = &json[..json.len() / 2];
        let whole = rvtrace::from_json(cut).unwrap_err();
        let streamed = detect_streamed(&DetectorConfig::default(), cut.as_bytes()).unwrap_err();
        assert_eq!(streamed.message, whole.message);
        assert_eq!(streamed.offset, whole.offset);

        let bad_links = "{\"events\":[{\"thread\":0,\"kind\":\"Branch\",\"loc\":0}],\
             \"initial_values\":{},\"volatiles\":[],\
             \"wait_links\":[{\"release\":0,\"acquire\":99,\"notify\":null}],\
             \"loc_names\":{},\"var_names\":{}}";
        let err = detect_streamed(&DetectorConfig::default(), bad_links.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// A racy pair astride the window-size-3 boundary: the write's last
    /// occurrence and the read land in different windows, with nothing
    /// in the read's window to conflict with.
    fn straddling_pair_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let lw = b.loc("w");
        let lr = b.loc("r");
        b.write_at(t1, x, 1, lw);
        for i in 0..10 {
            b.write_at(t1, x, i + 2, lw); // same-thread filler, one signature
        }
        b.read_at(t2, x, 11, lr);
        b.finish()
    }

    #[test]
    fn cone_mode_finds_the_straddling_race_fixed_misses() {
        let trace = straddling_pair_trace();
        let cfg = |mode| DetectorConfig {
            window_size: 3,
            window_mode: mode,
            ..Default::default()
        };
        let fixed = RaceDetector::with_config(cfg(WindowMode::Fixed)).detect(&trace);
        assert_eq!(fixed.n_races(), 0, "fixed windows cannot see the pair");
        let cone = RaceDetector::with_config(cfg(WindowMode::Cone)).detect(&trace);
        assert_eq!(cone.n_races(), 1, "{cone}");
        assert!(cone.stats.straddle_cops >= 1);
        assert_eq!(cone.stats.straddle_races, 1);
        assert!(cone.stats.spill_peak_events > 0);
        // The race is attributed to the extended view, which starts
        // before the final window.
        let race = &cone.races[0];
        assert!(race.window.start < race.window.end);
        assert!(race.window.start < trace.len() - (trace.len() % 3).max(1));
        // The whole-trace verdict agrees: this is a real race, and with
        // one shared location pair, one signature.
        let whole = RaceDetector::new().detect(&trace);
        assert_eq!(whole.n_races(), 1);
        assert_eq!(whole.races[0].signature, cone.races[0].signature);
    }

    /// Every conflicting pair sits inside its own window: var groups of
    /// four events aligned to the window size, with a padded first window.
    fn non_straddling_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let pad = b.var("pad");
        let warm = b.var("warm");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        // t2's implicit Begin fires here, inside window 0; `warm` is
        // private to t2, `pad` to t1, so neither can straddle.
        b.write(t2, warm, 0);
        b.write(t1, pad, 0); // fork + begin + warm + pad fill window 0
        for w in 0..4i64 {
            let v = b.var(&format!("v{w}"));
            b.write(t1, v, w);
            b.read(t2, v, w);
            b.write(t1, v, w + 1);
            b.read(t2, v, w + 1);
        }
        b.finish()
    }

    #[test]
    fn cone_mode_is_byte_identical_to_fixed_on_non_straddling_traces() {
        let trace = non_straddling_trace();
        for workers in [1usize, 4] {
            let cfg = |mode| DetectorConfig {
                window_size: 4,
                parallelism: workers,
                window_mode: mode,
                ..Default::default()
            };
            let fixed = RaceDetector::with_config(cfg(WindowMode::Fixed)).detect(&trace);
            let cone = RaceDetector::with_config(cfg(WindowMode::Cone)).detect(&trace);
            assert!(fixed.n_races() >= 1, "sanity: the workload races");
            assert_eq!(
                cone.deterministic_summary(),
                fixed.deterministic_summary(),
                "workers={workers}"
            );
            assert_eq!(cone.stats.straddle_cops, 0);
            assert_eq!(cone.stats.spill_peak_events, 0);
        }
    }

    #[test]
    fn spill_budget_zero_degrades_straddles_to_boundary_budget() {
        let trace = straddling_pair_trace();
        let cfg = DetectorConfig {
            window_size: 3,
            window_mode: WindowMode::Cone,
            spill_budget: 0,
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(report.n_races(), 0, "no solving past the budget floor");
        assert!(report.stats.boundary_over_budget >= 1, "{report}");
        assert_eq!(report.stats.straddle_cops, 0);
        assert!(report.stats.undecided >= 1, "degradation is not silent");
        assert!(report.is_degraded());
        assert!(
            report.deterministic_summary().contains("boundary:"),
            "{}",
            report.deterministic_summary()
        );
    }

    #[test]
    fn straddle_dedup_is_deterministic_across_worker_counts_and_drivers() {
        // The same signature races in-window (window 0) *and* astride a
        // later boundary: the straddling duplicate must dedup identically
        // whether windows came from the whole trace or from a stream.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let lw = b.loc("w");
        let lr = b.loc("r");
        b.write_at(t1, x, 1, lw);
        b.read_at(t2, x, 1, lr); // in-window race, window 0
        for i in 0..6 {
            b.write(t1, y, i); // filler to cross a boundary
        }
        b.write_at(t1, x, 2, lw); // same signature again...
        for i in 0..3 {
            b.write(t1, y, i + 6);
        }
        b.read_at(t2, x, 2, lr); // ...read astride the next boundary
        let trace = b.finish();
        let summaries: Vec<String> = [1usize, 2, 4, 8]
            .into_iter()
            .flat_map(|workers| {
                let cfg = || DetectorConfig {
                    window_size: 4,
                    parallelism: workers,
                    ..Default::default()
                };
                let whole = RaceDetector::with_config(cfg()).detect(&trace);
                let streamed =
                    detect_streamed(&cfg(), rvtrace::to_ndjson(&trace).as_bytes()).unwrap();
                [
                    whole.deterministic_summary(),
                    streamed.report.deterministic_summary(),
                ]
            })
            .collect();
        for s in &summaries[1..] {
            assert_eq!(&summaries[0], s);
        }
        assert!(summaries[0].contains("races=1"), "{}", summaries[0]);
    }

    #[test]
    fn straddle_pass_respects_tier_and_slice_toggles() {
        let trace = straddling_pair_trace();
        let mut baseline: Option<usize> = None;
        for (tiers, slice) in [(true, true), (true, false), (false, true), (false, false)] {
            let cfg = DetectorConfig {
                window_size: 3,
                tiers,
                slice,
                ..Default::default()
            };
            let report = RaceDetector::with_config(cfg).detect(&trace);
            let races = report.n_races();
            assert_eq!(
                *baseline.get_or_insert(races),
                races,
                "tiers={tiers} slice={slice}"
            );
            assert_eq!(races, 1, "tiers={tiers} slice={slice}");
        }
    }
}
