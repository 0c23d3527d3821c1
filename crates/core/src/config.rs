//! Detector configuration, including the deterministic fault-injection
//! plan used by the robustness test suite.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Which read-write consistency discipline the encoder enforces
/// (paper §3.2 vs. the Said et al. baseline of §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// The paper's technique: branch events determine which reads must stay
    /// concretely feasible — only reads with control flow *to the race
    /// events* are constrained, recursively through justifying writes.
    #[default]
    ControlFlow,
    /// Said et al. [30]: every read in the window must return the same value
    /// as in the original trace (whole-trace read-write consistency); branch
    /// events are ignored. Sound but non-maximal.
    WholeTrace,
}

/// How the detector bounds each window's view (CLI `--window-mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowMode {
    /// Fixed `window_size`-event windows: a COP whose partner fell in an
    /// earlier window is silently invisible (the pre-PR 8 behavior,
    /// kept for A/B checks).
    Fixed,
    /// Dependence-bounded windows: boundary-straddling COPs are
    /// enumerated from per-thread last-access summaries and solved on a
    /// lazily grown extended view reaching back along their cone of
    /// influence, capped by [`DetectorConfig::spill_budget`]. On traces
    /// with no straddling conflicting pair this is byte-identical to
    /// [`WindowMode::Fixed`].
    #[default]
    Cone,
}

/// Approximate retained bytes per spill event: the budget → event-count
/// conversion used by [`DetectorConfig::spill_events`]. Chosen as the
/// order of one [`Event`](rvtrace::Event) plus its share of the boundary
/// checkpoints; a semantic constant, deliberately identical across
/// drivers so plans (and therefore reports) never depend on allocator
/// details.
pub const SPILL_EVENT_BYTES: usize = 64;

/// A fault to inject at one (window, COP) coordinate. Test-only: lets the
/// robustness suite prove that detection degrades gracefully — and
/// deterministically, at every thread count — without relying on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the window worker while it processes this COP. The
    /// driver isolates the panic; the whole window becomes a
    /// [`FailedWindow`](crate::report::FailedWindow) record.
    Panic,
    /// Pretend the per-COP wall-clock budget was exhausted: the COP's
    /// verdict becomes `Undecided(Timeout)` without solving.
    Timeout,
    /// Pretend constraint encoding failed: the COP's verdict becomes
    /// `Undecided(EncodeError)` without solving.
    EncodeError,
}

/// A deterministic fault-injection plan: faults keyed by
/// `(window index, COP index in the window's solve order)`.
///
/// Intended for tests only — build one, put it in
/// [`DetectorConfig::fault_plan`], and detection will hit the planned
/// faults at exactly those coordinates on every run and at every
/// `parallelism` setting. When a plan is present the detector disables the
/// cross-window published-signature skip: the *reports* are deterministic
/// with the skip on (merge-order dedup and the straddle pass's shared
/// confirmed set see to that, in both window modes), but *which* COP
/// index gets skipped before solving depends on how far ahead other
/// workers have published, and fault coordinates key on those solve-order
/// indices. With the skip off, coordinates land on the same COPs
/// regardless of worker scheduling; everything else behaves as in
/// production.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, usize), Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Plans `fault` at `(window, cop)`; builder-style.
    pub fn inject(mut self, window: usize, cop: usize, fault: Fault) -> Self {
        self.faults.insert((window, cop), fault);
        self
    }

    /// The fault planned at `(window, cop)`, if any.
    pub fn fault_at(&self, window: usize, cop: usize) -> Option<Fault> {
        self.faults.get(&(window, cop)).copied()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// The violation classes a run analyzes (CLI `--kind`). Every class
/// shares ingestion, windowing, the worker pool and the in-order merge;
/// only the property encoded over `Φ_mhb ∧ Φ_lock ∧ Φ_cf` differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kind {
    /// Data races (the default — the paper's `Φ_race`).
    #[default]
    Race,
    /// Resource deadlocks: predictable circular lock waits.
    Deadlock,
    /// Single-variable atomicity violations (unserializable
    /// interleavings of intended-atomic blocks).
    Atomicity,
    /// Every class above, reported in that order.
    All,
}

impl Kind {
    /// Whether this kind selects `class` (a single class, never `All`).
    pub fn includes(self, class: Kind) -> bool {
        self == class || self == Kind::All
    }

    /// The analyses this kind selects, in report and merge order: each
    /// window becomes one job per entry.
    pub(crate) fn analyses(self) -> &'static [Analysis] {
        match self {
            Kind::Race => &[Analysis::Race],
            Kind::Deadlock => &[Analysis::Deadlock],
            Kind::Atomicity => &[Analysis::Atomicity],
            Kind::All => &[Analysis::Race, Analysis::Deadlock, Analysis::Atomicity],
        }
    }
}

/// One analysis of one window: what a window job solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Analysis {
    Race,
    Deadlock,
    Atomicity,
}

/// Configuration of the maximal race detector.
///
/// The defaults mirror the paper's implementation notes (§4–5): 10K-event
/// windows, 60-second per-COP solver budget, hybrid quick check on, race
/// deduplication by signature on.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Window size in events (paper §4: "typically 10K").
    pub window_size: usize,
    /// Per-COP solver wall-clock budget (paper §4: one minute).
    pub solver_timeout: Duration,
    /// Per-COP solver conflict budget (a deterministic backstop the paper
    /// does not need because it bounds wall-clock time only).
    pub max_conflicts: Option<u64>,
    /// Run the hybrid lockset + weak-HB quick check before building
    /// constraints (paper §4).
    pub quick_check: bool,
    /// Once a COP is reported as a race, prune all other COPs with the same
    /// signature (paper §4).
    pub dedup_signatures: bool,
    /// Apply the MHB-based pruning of read-match write sets (paper §3.2,
    /// last paragraph). Turning this off is only useful for ablation.
    pub prune_write_sets: bool,
    /// Consistency discipline.
    pub mode: ConsistencyMode,
    /// Relevance slicing: encode each COP only over its cone of influence
    /// (the MHB prefix closure of the accesses plus the `cf`-reachable
    /// reads and cone-held lock regions), instead of the whole window.
    /// Verdict-preserving; exposed as CLI `--no-slice` for A/B checks. No
    /// effect under [`ConsistencyMode::WholeTrace`].
    pub slice: bool,
    /// Run the tiered pre-solver screens before encoding (ROADMAP item 1):
    /// Tier A confirms races whose trace-order witness validates, Tier B
    /// soundly refutes entailment-ordered COPs, and only the residue reaches
    /// the solver. Verdict-preserving; exposed as CLI `--no-tiers` for A/B
    /// checks.
    pub tiers: bool,
    /// Seed SAT decision phases from the original trace order (the observed
    /// trace is a near-model of `Φ_mhb ∧ Φ_lock`); off only for ablation.
    pub phase_hints: bool,
    /// Upper bound on concrete COPs examined per signature before giving up
    /// on that signature for the window (bounds the quadratic pair
    /// enumeration on hot variables).
    pub max_cops_per_signature: usize,
    /// Number of worker threads solving windows concurrently. `1` runs the
    /// fully serial driver; the default is the machine's available
    /// parallelism. Reports are deterministic regardless of this value:
    /// window outcomes are merged in window order and deduplicated at merge
    /// time (see `RaceDetector::detect`).
    pub parallelism: usize,
    /// Per-*window* wall-clock budget (CLI `--timeout-ms`; the daemon's
    /// per-tenant budget). When the deadline passes mid-window, every COP
    /// not yet decided is recorded as `Undecided(Timeout)`, and the
    /// remaining per-COP solver budget is clamped to the window's
    /// remaining time. `None` (the default) means unbounded.
    pub window_timeout: Option<Duration>,
    /// Deterministic fault-injection plan (tests only; `None` in
    /// production). See [`FaultPlan`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Window bounding discipline: fixed event-count windows, or
    /// dependence-bounded windows that extend across boundaries along
    /// each straddling COP's cone of influence (CLI
    /// `--window-mode fixed|cone`; `cone` is the default).
    pub window_mode: WindowMode,
    /// Byte budget for cross-boundary lookback in [`WindowMode::Cone`]
    /// (CLI `--spill-budget`). Converted to an event-count cap via
    /// [`SPILL_EVENT_BYTES`]; a straddling COP whose partner lies beyond
    /// the cap degrades to `Undecided(boundary-budget)` instead of being
    /// solved on a truncated view. The default (4 MiB) covers ~65K
    /// events — several default windows of lookback.
    pub spill_budget: usize,
    /// The violation classes to analyze (CLI `--kind`); races only by
    /// default.
    pub kind: Kind,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window_size: 10_000,
            solver_timeout: Duration::from_secs(60),
            max_conflicts: None,
            quick_check: true,
            dedup_signatures: true,
            prune_write_sets: true,
            mode: ConsistencyMode::ControlFlow,
            slice: true,
            tiers: true,
            phase_hints: true,
            max_cops_per_signature: 10,
            parallelism: default_parallelism(),
            window_timeout: None,
            fault_plan: None,
            window_mode: WindowMode::Cone,
            spill_budget: 4 << 20,
            kind: Kind::Race,
        }
    }
}

/// The default worker count: one per available core.
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl DetectorConfig {
    /// The configuration used for the Said et al. baseline: identical
    /// machinery, whole-trace consistency.
    pub fn said_baseline() -> Self {
        DetectorConfig {
            mode: ConsistencyMode::WholeTrace,
            ..Default::default()
        }
    }

    /// The cross-boundary lookback cap in *events*:
    /// [`spill_budget`](DetectorConfig::spill_budget) bytes divided by
    /// [`SPILL_EVENT_BYTES`]. Zero in [`WindowMode::Fixed`] — fixed
    /// windows never look back.
    pub fn spill_events(&self) -> usize {
        match self.window_mode {
            WindowMode::Fixed => 0,
            WindowMode::Cone => self.spill_budget / SPILL_EVENT_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DetectorConfig::default();
        assert_eq!(c.window_size, 10_000);
        assert_eq!(c.solver_timeout, Duration::from_secs(60));
        assert!(c.quick_check && c.dedup_signatures && c.prune_write_sets);
        assert!(c.slice, "relevance slicing is on by default");
        assert!(c.tiers, "the tiered cascade is on by default");
        assert_eq!(c.mode, ConsistencyMode::ControlFlow);
        assert!(c.parallelism >= 1, "at least one worker");
        assert_eq!(c.kind, Kind::Race, "races only by default");
        assert!(c.window_timeout.is_none(), "window budget is opt-in");
        assert!(c.fault_plan.is_none(), "no faults in production configs");
        assert_eq!(c.window_mode, WindowMode::Cone, "cross-window on");
        assert_eq!(c.spill_budget, 4 << 20);
        assert_eq!(c.spill_events(), 65_536);
    }

    #[test]
    fn fixed_mode_never_looks_back() {
        let c = DetectorConfig {
            window_mode: WindowMode::Fixed,
            ..Default::default()
        };
        assert_eq!(c.spill_events(), 0);
    }

    #[test]
    fn fault_plan_coordinates() {
        let plan = FaultPlan::new()
            .inject(0, 2, Fault::Panic)
            .inject(3, 0, Fault::Timeout);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.fault_at(0, 2), Some(Fault::Panic));
        assert_eq!(plan.fault_at(3, 0), Some(Fault::Timeout));
        assert_eq!(plan.fault_at(1, 1), None);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn said_baseline_differs_only_in_mode() {
        let c = DetectorConfig::said_baseline();
        assert_eq!(c.mode, ConsistencyMode::WholeTrace);
        assert_eq!(c.window_size, DetectorConfig::default().window_size);
    }
}
