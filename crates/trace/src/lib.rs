//! # rvtrace — execution traces with control-flow abstraction
//!
//! The trace model of *Maximal Sound Predictive Race Detection with Control
//! Flow Abstraction* (Huang, Meredith, Roşu — PLDI 2014), §2: events over
//! concurrent objects (shared locations, locks, threads) **plus the novel
//! `branch` event**, which abstracts thread-local control flow and is the
//! key to the paper's maximal causal model.
//!
//! This crate provides:
//!
//! * the event and trace types ([`Event`], [`Trace`], [`TraceBuilder`]);
//! * the sequential-consistency axioms checker
//!   ([`check_consistency`]): read consistency, lock mutual exclusion,
//!   must-happen-before;
//! * windowed [`View`]s with the per-window indexes race detectors need
//!   (MHB vector clocks, locksets, critical sections, access indexes);
//! * witness [`Schedule`] validation ([`check_schedule`]), used to certify
//!   that every reported race is real (paper Thm. 1/3).
//!
//! # Examples
//!
//! Build the paper's Figure 2 (case ①) trace and inspect it:
//!
//! ```
//! use rvtrace::{check_consistency, ThreadId, TraceBuilder, ViewExt};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! let y = b.volatile_var("y");
//! let t1 = ThreadId::MAIN;
//! let t2 = b.fork(t1);
//! let e1 = b.write(t1, x, 1); // 1. x = 1
//! b.write(t1, y, 1);          // 2. y = 1
//! b.read(t2, y, 1);           // 3. r1 = y
//! let e4 = b.read(t2, x, 1);  // 4. r2 = x
//! let trace = b.finish();
//!
//! assert!(check_consistency(&trace).is_empty());
//! let view = trace.full_view();
//! // (1,4) is a conflicting pair not ordered by must-happen-before:
//! assert!(!view.mhb(e1, e4) && !view.mhb(e4, e1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
pub mod consistency;
mod error;
mod event;
pub mod frame;
pub mod json;
pub mod salvage;
mod signature;
pub mod stream;
mod trace;
mod vector_clock;
mod view;

pub use builder::{TraceBuilder, WaitToken};
pub use consistency::{
    check_consistency, check_schedule, schedule_read_values, LockTable, Schedule, ScheduleError,
};
pub use error::TraceError;
pub use event::{ChanId, Cop, Event, EventId, EventKind, Loc, LockId, ThreadId, Value, VarId};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use json::{
    escape_json, from_json, from_json_with_stats, parse_json, to_json, to_ndjson,
    validate_wait_links, IngestStats, JsonError, JsonValue,
};
pub use salvage::{admit_trace, salvage_trace, SalvageReport};
pub use signature::{RaceSignature, SignatureDisplay};
pub use stream::{read_trace, read_trace_data, StreamFormat, StreamParser};
pub use trace::{MsgLink, Trace, TraceData, TraceStats, WaitLink};
pub use vector_clock::VectorClock;
pub use view::{
    BoundarySpill, BoundaryTracker, CsSpan, CursorWindow, StraddlePlan, View, ViewExt,
    WindowBoundary, WindowCursor,
};
