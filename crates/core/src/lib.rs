//! # rvcore — maximal sound predictive race detection
//!
//! The algorithm of *Maximal Sound Predictive Race Detection with Control
//! Flow Abstraction* (Huang, Meredith, Roşu — PLDI 2014), §3–4:
//!
//! * [`enumerate_cops`] / [`quick_check`] — conflicting-operation-pair
//!   enumeration with the hybrid lockset + weak-HB filter;
//! * [`encode`] — the constraint system `Φ = Φ_mhb ∧ Φ_lock ∧ Φ_race`
//!   over per-event order variables, with the control-flow feasibility
//!   formulas `π_cf`/`cf` that make the technique *maximal* (Thm. 3);
//! * [`construct_witness`] — builds and validates a concrete reordering
//!   (`τ₁ a b`) from the trace order alone, and [`extract_witness`] from
//!   a satisfying model when that fails, so every reported race ships
//!   with a replayable schedule (soundness, Thm. 1);
//! * [`RaceDetector`] — the windowed driver with signature deduplication
//!   and per-COP solver budgets.
//!
//! The Said et al. baseline (whole-trace read-write consistency, no branch
//! events) is the same machinery under
//! [`ConsistencyMode::WholeTrace`].
//!
//! # Examples
//!
//! ```
//! use rvcore::{DetectorConfig, RaceDetector};
//! use rvtrace::{ThreadId, TraceBuilder};
//!
//! // Two unsynchronized writes to x by different threads.
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! let t2 = b.fork(ThreadId::MAIN);
//! b.write(ThreadId::MAIN, x, 1);
//! b.write(t2, x, 2);
//! let trace = b.finish();
//!
//! let report = RaceDetector::new().detect(&trace);
//! assert_eq!(report.n_races(), 1);
//! // The witness is a validated consistent reordering:
//! println!("{}", report.races[0].display(&trace));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atomicity;
mod config;
mod cop;
pub mod deadlock;
mod detector;
mod encoder;
pub mod metrics;
pub mod oracle;
mod report;
pub mod session;
mod slice;
mod tiers;
mod witness;

pub use atomicity::{
    infer_rmw_pairs, AtomicPair, AtomicityDetector, AtomicityReport, AtomicityViolation,
};
pub use config::{
    ConsistencyMode, DetectorConfig, Fault, FaultPlan, Kind, WindowMode, SPILL_EVENT_BYTES,
};
pub use cop::{enumerate_cops, quick_check, CopEnumeration, QuickCheckVerdict};
pub use deadlock::{DeadlockCycle, DeadlockDetector, DeadlockReport};
pub use detector::{GoalSession, PublishedSet, RaceDetector, WindowResult};
pub use encoder::{
    encode, encode_goals, encode_with_skeleton, Encoded, EncodedWindow, EncoderOptions, Goal,
};
pub use metrics::{Histogram, Metrics, METRICS_SCHEMA_VERSION};
pub use oracle::{oracle_atomicity, oracle_deadlocks, oracle_races};
pub use report::{
    DetectionReport, DetectionStats, FailedWindow, RaceReport, RaceReportDisplay, SolverTotals,
    UndecidedReason,
};
pub use session::{Session, SessionConfig, SessionError, SessionManager, SessionOutcome};
pub use slice::{Cone, WindowSkeleton};
pub use tiers::{Tier, TierAnalysis, TierDecision};
pub use witness::{construct as construct_witness, extract_witness, Witness, WitnessError};
