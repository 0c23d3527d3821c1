//! Shared infrastructure for the baseline detectors: Lamport happens-before
//! clocks, conflicting-pair scanning, and the common tool interface.

use std::collections::BTreeSet;
use std::time::Duration;

use rvtrace::{EventId, EventKind, RaceSignature, Trace, VarId, VectorClock, View};

/// A uniform interface over all four detectors, for the evaluation harness
/// (paper Table 1 compares RV, Said, CP and HB on identical traces).
pub trait RaceDetectorTool {
    /// Short name for report tables ("RV", "Said", "CP", "HB").
    fn name(&self) -> &'static str;

    /// Runs the detector over the whole trace.
    fn detect_races(&self, trace: &Trace) -> ToolReport;
}

/// Result of one detector run.
#[derive(Debug, Clone, Default)]
pub struct ToolReport {
    /// Distinct race signatures found (Table 1 counts races per location
    /// pair).
    pub signatures: BTreeSet<RaceSignature>,
    /// Wall-clock detection time.
    pub time: Duration,
    /// Conflicting pairs examined (diagnostic).
    pub pairs_checked: usize,
}

impl ToolReport {
    /// Number of races (distinct signatures).
    pub fn n_races(&self) -> usize {
        self.signatures.len()
    }
}

/// Happens-before vector clocks for every event of a view.
///
/// Edges: program order, fork→begin, end→join, lock release→subsequent
/// acquire (same lock), volatile write→subsequent volatile read, and
/// notify→its wait's re-acquire. This is Lamport HB as used by the paper's
/// HB baseline \[22\].
pub fn hb_clocks(view: &View<'_>) -> Vec<VectorClock> {
    clocks_with_edges(view, true)
}

/// Like [`hb_clocks`] but *without* the unconditional lock
/// release→acquire edges — the "hard" synchronization base the CP detector
/// composes its conditional edges with.
pub fn hard_sync_clocks(view: &View<'_>) -> Vec<VectorClock> {
    clocks_with_edges(view, false)
}

fn clocks_with_edges(view: &View<'_>, include_lock_edges: bool) -> Vec<VectorClock> {
    let trace = view.trace();
    let n_threads = trace.n_threads();
    let mut clocks = Vec::with_capacity(view.len());
    let mut cur: Vec<VectorClock> = vec![VectorClock::new(n_threads); n_threads];
    let mut fork_clock: Vec<Option<VectorClock>> = vec![None; n_threads];
    let mut end_clock: Vec<Option<VectorClock>> = vec![None; n_threads];
    let mut release_clock: Vec<Option<VectorClock>> = vec![None; trace.n_locks()];
    let mut volatile_clock: Vec<Option<VectorClock>> = vec![None; trace.n_vars()];
    let mut notify_clock: std::collections::HashMap<EventId, VectorClock> =
        std::collections::HashMap::new();

    for id in view.ids() {
        let e = view.event(id);
        let ti = trace.thread_index(e.thread).expect("indexed");
        match e.kind {
            EventKind::Begin => {
                if let Some(fc) = fork_clock[ti].take() {
                    cur[ti].join(&fc);
                }
            }
            EventKind::Join { child } => {
                if let Some(ci) = trace.thread_index(child) {
                    if let Some(ec) = &end_clock[ci] {
                        let ec = ec.clone();
                        cur[ti].join(&ec);
                    }
                }
            }
            EventKind::Acquire { lock } => {
                if include_lock_edges {
                    if let Some(rc) = &release_clock[lock.index()] {
                        let rc = rc.clone();
                        cur[ti].join(&rc);
                    }
                }
                // A wait re-acquire also synchronizes with its notify.
                if let Some(wl) = trace.wait_link_of_acquire(id) {
                    if let Some(n) = wl.notify {
                        if let Some(nc) = notify_clock.get(&n) {
                            let nc = nc.clone();
                            cur[ti].join(&nc);
                        }
                    }
                }
            }
            EventKind::Read { var, .. } if trace.is_volatile(var) => {
                if let Some(vc) = &volatile_clock[var.index()] {
                    let vc = vc.clone();
                    cur[ti].join(&vc);
                }
            }
            _ => {}
        }
        cur[ti].tick(ti);
        clocks.push(cur[ti].clone());
        match e.kind {
            EventKind::Fork { child } => {
                if let Some(ci) = trace.thread_index(child) {
                    fork_clock[ci] = Some(cur[ti].clone());
                }
            }
            EventKind::End => end_clock[ti] = Some(cur[ti].clone()),
            EventKind::Release { lock } => {
                release_clock[lock.index()] = Some(cur[ti].clone());
            }
            EventKind::Write { var, .. } if trace.is_volatile(var) => {
                volatile_clock[var.index()] = Some(cur[ti].clone());
            }
            EventKind::Notify { .. } => {
                notify_clock.insert(id, cur[ti].clone());
            }
            _ => {}
        }
    }
    clocks
}

/// Whether `a` happens-before `b` under the given per-offset clocks.
pub fn hb_ordered(view: &View<'_>, clocks: &[VectorClock], a: EventId, b: EventId) -> bool {
    if a == b {
        return false;
    }
    let start = view.range().start;
    let ta = view
        .trace()
        .thread_index(view.event(a).thread)
        .expect("indexed");
    clocks[b.index() - start].get(ta) as usize > view.vpos(a)
}

/// Scans all conflicting pairs of a view (different threads, same variable,
/// at least one write, volatiles excluded) and collects the signatures for
/// which `is_race` holds on some pair. Once a signature is racy, its other
/// pairs are skipped; non-racy signatures are bounded by `cap` checks.
pub fn scan_conflicting_pairs(
    view: &View<'_>,
    cap: usize,
    mut is_race: impl FnMut(EventId, EventId) -> bool,
) -> (BTreeSet<RaceSignature>, usize) {
    let trace = view.trace();
    let mut racy: BTreeSet<RaceSignature> = BTreeSet::new();
    let mut tried: std::collections::HashMap<RaceSignature, usize> =
        std::collections::HashMap::new();
    let mut checked = 0usize;
    for var_idx in 0..trace.n_vars() as u32 {
        let var = VarId(var_idx);
        if trace.is_volatile(var) {
            continue;
        }
        let writes = view.writes_of(var);
        let reads = view.reads_of(var);
        let mut consider = |a: EventId, b: EventId, checked: &mut usize| {
            if view.event(a).thread == view.event(b).thread {
                return;
            }
            let sig = RaceSignature::of_cop(trace, rvtrace::Cop::new(a, b));
            if racy.contains(&sig) {
                return;
            }
            let tries = tried.entry(sig).or_insert(0);
            if *tries >= cap {
                return;
            }
            *tries += 1;
            *checked += 1;
            let (first, second) = if a <= b { (a, b) } else { (b, a) };
            if is_race(first, second) {
                racy.insert(sig);
            }
        };
        for (i, &w1) in writes.iter().enumerate() {
            for &w2 in &writes[i + 1..] {
                consider(w1, w2, &mut checked);
            }
            for &r in reads {
                if r != w1 {
                    consider(w1, r, &mut checked);
                }
            }
        }
    }
    (racy, checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    #[test]
    fn hb_lock_edge_orders_regions() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        let w = b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        let r = b.read(t2, x, 1);
        b.release(t2, l);
        let tr = b.finish();
        let v = tr.full_view();
        let clocks = hb_clocks(&v);
        assert!(
            hb_ordered(&v, &clocks, w, r),
            "release→acquire orders the accesses"
        );
        assert!(!hb_ordered(&v, &clocks, r, w));
        // MHB alone does NOT order them (the paper's relaxation target).
        assert!(!v.mhb(w, r));
    }

    #[test]
    fn hb_volatile_edge() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.volatile_var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let w = b.write(t1, x, 1);
        b.write(t1, y, 1);
        b.read(t2, y, 1);
        let r = b.read(t2, x, 1);
        let tr = b.finish();
        let v = tr.full_view();
        let clocks = hb_clocks(&v);
        // volatile write→read edge orders the x accesses under HB.
        assert!(hb_ordered(&v, &clocks, w, r));
    }

    #[test]
    fn hb_notify_edge() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        let tok = b.wait_begin(t1, l);
        b.acquire(t2, l);
        let w = b.write(t2, x, 1);
        let n = b.notify(t2, l);
        b.release(t2, l);
        b.wait_end(tok, Some(n));
        let r = b.read(t1, x, 1);
        b.release(t1, l);
        let tr = b.finish();
        let v = tr.full_view();
        let clocks = hb_clocks(&v);
        assert!(hb_ordered(&v, &clocks, w, r));
    }

    #[test]
    fn scan_caps_and_dedups() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let lw = b.loc("w");
        let lr = b.loc("r");
        for i in 0..5 {
            b.write_at(t1, x, i, lw);
        }
        for _ in 0..5 {
            b.read_at(t2, x, 4, lr);
        }
        let tr = b.finish();
        let v = tr.full_view();
        // Racy on the first try: only 1 check happens.
        let (racy, checked) = scan_conflicting_pairs(&v, 100, |_, _| true);
        assert_eq!(racy.len(), 1);
        assert_eq!(checked, 1);
        // Never racy: bounded by the cap.
        let (racy, checked) = scan_conflicting_pairs(&v, 7, |_, _| false);
        assert!(racy.is_empty());
        assert_eq!(checked, 7);
    }
}
