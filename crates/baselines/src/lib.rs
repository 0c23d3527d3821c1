//! # rvbaselines — the paper's comparison detectors
//!
//! Faithful implementations of the three *sound* techniques the paper
//! evaluates against (§5, Table 1):
//!
//! * [`HbDetector`] — Lamport happens-before \[22\]: vector clocks with
//!   unconditional release→acquire, fork/join, volatile, and wait/notify
//!   edges;
//! * [`CpDetector`] — Causally-Precedes \[35\] (Smaragdakis et al., POPL
//!   2012): relaxes the lock edges to those justified by rules (a)/(b),
//!   closed under HB composition (rule (c));
//! * [`SaidDetector`] — Said et al. \[30\]: the same SMT machinery as the
//!   maximal detector but with whole-trace read-write consistency and no
//!   branch events.
//!
//! All four techniques (including the paper's own, wrapped as
//! [`MaximalDetector`]) implement [`RaceDetectorTool`] so the evaluation
//! harness can run them on identical traces, as the paper does.
//!
//! # Examples
//!
//! ```
//! use rvbaselines::{HbDetector, MaximalDetector, RaceDetectorTool};
//! use rvtrace::{ThreadId, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! let t2 = b.fork(ThreadId::MAIN);
//! b.write(ThreadId::MAIN, x, 1);
//! b.write(t2, x, 2);
//! let trace = b.finish();
//!
//! assert_eq!(HbDetector::default().detect_races(&trace).n_races(), 1);
//! assert_eq!(MaximalDetector::default().detect_races(&trace).n_races(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
mod cp;
mod hb;
mod said;

pub use common::{
    hard_sync_clocks, hb_clocks, hb_ordered, scan_conflicting_pairs, RaceDetectorTool, ToolReport,
};
pub use cp::CpDetector;
pub use hb::HbDetector;
pub use said::{MaximalDetector, SaidDetector};
