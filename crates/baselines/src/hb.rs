//! The Happens-Before baseline detector (Lamport \[22\], as compared in
//! paper §5).
//!
//! A conflicting pair is an HB-race iff it is unordered by the
//! happens-before relation, which — unlike the paper's MHB — includes an
//! unconditional edge from every lock release to every subsequent acquire of
//! the same lock (plus volatile and wait/notify synchronization). Those
//! extra edges are exactly the "overly conservative" orderings the maximal
//! technique relaxes.

use std::time::Instant;

use rvtrace::{Trace, ViewExt};

use crate::common::{hb_clocks, hb_ordered, scan_conflicting_pairs, RaceDetectorTool, ToolReport};

/// The HB detector, windowed like all techniques in the paper's evaluation.
#[derive(Debug, Clone)]
pub struct HbDetector {
    /// Window size in events (paper §5: 10K for every technique).
    pub window_size: usize,
    /// Per-signature bound on pair checks.
    pub cap_per_signature: usize,
}

impl Default for HbDetector {
    fn default() -> Self {
        HbDetector {
            window_size: 10_000,
            cap_per_signature: 10,
        }
    }
}

impl RaceDetectorTool for HbDetector {
    fn name(&self) -> &'static str {
        "HB"
    }

    fn detect_races(&self, trace: &Trace) -> ToolReport {
        let start = Instant::now();
        let mut report = ToolReport::default();
        for view in trace.windows(self.window_size) {
            let clocks = hb_clocks(&view);
            let (racy, checked) = scan_conflicting_pairs(&view, self.cap_per_signature, |a, b| {
                !hb_ordered(&view, &clocks, a, b) && !hb_ordered(&view, &clocks, b, a)
            });
            report.signatures.extend(racy);
            report.pairs_checked += checked;
        }
        report.time = start.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{ThreadId, TraceBuilder};

    #[test]
    fn unprotected_race_found() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        b.write(ThreadId::MAIN, x, 1);
        b.write(t2, x, 2);
        let report = HbDetector::default().detect_races(&b.finish());
        assert_eq!(report.n_races(), 1);
    }

    #[test]
    fn lock_edge_suppresses_figure1_race() {
        // Paper Figure 1: HB misses (3,10) because of the release→acquire
        // edge between the two critical sections.
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
        let report = HbDetector::default().detect_races(&b.finish());
        assert_eq!(report.n_races(), 0, "HB finds no race in Figure 1");
    }

    #[test]
    fn fork_join_ordering_respected() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        b.write(t1, x, 1);
        let t2 = b.fork(t1);
        b.write(t2, x, 2);
        b.join(t1, t2);
        b.write(t1, x, 3);
        let report = HbDetector::default().detect_races(&b.finish());
        assert_eq!(report.n_races(), 0);
    }

    #[test]
    fn volatile_sync_suppresses() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.volatile_var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.write(t1, x, 1);
        b.write(t1, y, 1);
        b.read(t2, y, 1);
        b.read(t2, x, 1);
        let report = HbDetector::default().detect_races(&b.finish());
        assert_eq!(
            report.n_races(),
            0,
            "HB conservatively orders via the volatile"
        );
    }
}
