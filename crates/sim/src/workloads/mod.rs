//! Benchmark workloads mirroring the paper's evaluation suite (§5,
//! Table 1).
//!
//! The paper instruments Java programs; we cannot run those, so each
//! Table 1 row is substituted by a program in the mini language (or a
//! generator) whose *trace profile* — thread count, event mix, branch
//! density, synchronization discipline — matches the class of the original:
//!
//! * [`figures`] — the paper's worked examples (Figures 1/2, the §4 array
//!   example), reproduced exactly;
//! * [`contest`] — small racy programs in the style of the IBM Contest
//!   suite rows (`account`, `airline`, …);
//! * [`grande`] — fork/join numeric kernels in the style of the Java
//!   Grande rows (`crypt`, `lufact`, `series`);
//! * [`systems`] — parameterized server-style generators standing in for
//!   the real-system rows (`ftpserver`, `jigsaw`, `derby`, …), scalable to
//!   millions of events;
//! * [`synthetic`] — traces shaped directly with the trace builder, each
//!   aimed at one detector path (streaming, slicing, tiers, sessions,
//!   window boundaries, the deadlock/atomicity/rwlock/channel kinds).

pub mod contest;
pub mod figures;
pub mod grande;
pub mod synthetic;
pub mod systems;

use rvtrace::Trace;

use crate::interp::{execute, ExecConfig, Scheduler};
use crate::program::Program;

/// A named benchmark trace.
#[derive(Debug)]
pub struct Workload {
    /// Row name (Table 1 column 1).
    pub name: String,
    /// The observed trace all detectors analyze.
    pub trace: Trace,
}

impl Workload {
    /// Builds a workload by executing a program under a seeded scheduler.
    ///
    /// # Panics
    ///
    /// Panics if execution deadlocks before producing any event (generator
    /// bugs surface loudly rather than as empty benchmarks).
    pub fn run(name: &str, program: &Program, seed: u64) -> Workload {
        let cfg = ExecConfig {
            scheduler: Scheduler::Random { seed },
            max_steps: 4_000_000,
        };
        let exec = execute(program, &cfg).expect("random schedules cannot fail");
        assert!(
            !exec.trace.is_empty(),
            "workload {name} produced an empty trace"
        );
        Workload {
            name: name.to_string(),
            trace: exec.trace,
        }
    }

    /// Builds a workload from an explicit thread schedule.
    pub fn run_fixed(name: &str, program: &Program, schedule: Vec<u32>) -> Workload {
        let cfg = ExecConfig {
            scheduler: Scheduler::Fixed(schedule),
            max_steps: 4_000_000,
        };
        let exec = execute(program, &cfg)
            .unwrap_or_else(|e| panic!("fixed schedule for {name} failed: {e}"));
        Workload {
            name: name.to_string(),
            trace: exec.trace,
        }
    }
}

/// The small-benchmark rows (example + contest + grande classes) at their
/// default sizes, in Table 1 order.
pub fn small_suite() -> Vec<Workload> {
    let mut out = vec![figures::figure1()];
    out.extend(contest::all());
    out.extend(grande::all());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::check_consistency;

    #[test]
    fn small_suite_traces_are_consistent() {
        for w in small_suite() {
            assert!(
                check_consistency(&w.trace).is_empty(),
                "workload {} produced an inconsistent trace",
                w.name
            );
            assert!(w.trace.stats().events > 0);
        }
    }

    #[test]
    fn small_suite_names_unique() {
        let suite = small_suite();
        let mut names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
