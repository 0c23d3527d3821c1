//! # rvpredict — maximal sound predictive race detection in Rust
//!
//! A from-scratch reproduction of *Maximal Sound Predictive Race Detection
//! with Control Flow Abstraction* (Huang, Meredith, Roşu — PLDI 2014),
//! re-exporting the whole stack:
//!
//! * [`trace`](rvtrace) — the §2 event model with `branch` events,
//!   consistency axioms, windows, witness schedules;
//! * [`smt`](rvsmt) — a DPLL(T) solver for Integer Difference Logic
//!   (CDCL SAT core + negative-cycle theory), standing in for Z3/Yices;
//! * [`core`](rvcore) — the §3 maximal race detection algorithm
//!   (COPs, quick check, `Φ_mhb ∧ Φ_lock ∧ Φ_race` encoder, witness
//!   extraction and validation, windowed driver);
//! * [`baselines`](rvbaselines) — the §5 comparison detectors: HB, CP and
//!   Said et al.;
//! * [`sim`](rvsim) — the mini concurrent language, interpreter and the
//!   Table 1 workload generators.
//!
//! # Quickstart
//!
//! ```
//! use rvpredict::{RaceDetector, ThreadId, TraceBuilder};
//!
//! // Record an execution (normally produced by an instrumented run).
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! let t2 = b.fork(ThreadId::MAIN);
//! b.write(ThreadId::MAIN, x, 1);
//! b.read(t2, x, 1);
//! let trace = b.finish();
//!
//! // Ask the maximal detector whether any sound technique could prove a race.
//! let report = RaceDetector::new().detect(&trace);
//! assert_eq!(report.n_races(), 1);
//! println!("{}", report.races[0].display(&trace));
//! ```

#![warn(missing_docs)]

pub mod driver;

pub use rvbaselines::{
    CpDetector, HbDetector, MaximalDetector, RaceDetectorTool, SaidDetector, ToolReport,
};
pub use rvcore::{
    encode, encode_with_skeleton, extract_witness, oracle_atomicity, oracle_deadlocks,
    oracle_races, AtomicPair, AtomicityDetector, AtomicityReport, AtomicityViolation, Cone,
    ConsistencyMode, DeadlockCycle, DeadlockDetector, DeadlockReport, DetectionReport,
    DetectionStats, DetectorConfig, EncoderOptions, FailedWindow, Fault, FaultPlan, Histogram,
    Kind, Metrics, PhaseTimer, PublishedSet, RaceDetector, RaceReport, SolverTotals,
    StreamDetection, Tier, TierAnalysis, TierDecision, UndecidedReason, WindowMode, WindowResult,
    WindowSkeleton, Witness, METRICS_SCHEMA_VERSION, SPILL_EVENT_BYTES,
};
// `rvinstrument::Session` (below) already owns the bare `Session` name, so
// the daemon-side detection session is re-exported as `DetectionSession`.
pub use rvcore::{
    Session as DetectionSession, SessionConfig, SessionError, SessionManager, SessionOutcome,
};
pub use rvinstrument::{
    guard as traced_guard, spawn as traced_spawn, Session, TracedMutex, TracedVar,
};
pub use rvsim::{execute, workloads, ExecConfig, Outcome, Program, Scheduler};
pub use rvsmt::{Budget, FormulaBuilder, SmtResult, Solver};
pub use rvtrace::{
    check_consistency, check_schedule, escape_json, from_json, from_json_with_stats, parse_json,
    read_frame, read_trace, read_trace_data, salvage_trace, schedule_read_values, to_json,
    to_ndjson, validate_wait_links, write_frame, Cop, Event, EventId, EventKind, IngestStats,
    JsonError, JsonValue, Loc, LockId, RaceSignature, SalvageReport, Schedule, ScheduleError,
    StreamFormat, StreamParser, ThreadId, Trace, TraceBuilder, TraceData, TraceError, VarId, View,
    ViewExt, WindowBoundary, WindowCursor, MAX_FRAME,
};
