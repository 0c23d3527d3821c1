//! The Causally-Precedes baseline detector (Smaragdakis et al., POPL 2012;
//! the paper's CP comparison \[35\]).
//!
//! CP soundly *relaxes* HB: the unconditional release→acquire edge between
//! two critical sections on the same lock is kept only when
//!
//! * **(a)** the two sections contain conflicting accesses, or
//! * **(b)** they contain CP-ordered events,
//!
//! and the relation is closed under composition with HB on both sides
//! (**(c)**). Hard synchronization (program order, fork/join, volatiles,
//! wait/notify) stays unconditional. Operationally: `e₁ CP e₂` iff they are
//! ordered by hard synchronization alone, or there is an HB-path from `e₁`
//! to `e₂` traversing at least one conditional release→acquire edge from
//! the least fixpoint of rules (a)/(b).
//!
//! A conflicting pair is a CP-race iff it is unordered by CP in both
//! directions. `CP ⊆ HB`, so every HB-race is a CP-race; the converse fails
//! exactly on lock regions without conflicts — e.g. the paper's Figure 1,
//! where CP still orders (3,10) because the regions conflict on `y`.

use std::collections::HashMap;
use std::time::Instant;

use rvtrace::{EventId, Trace, VarId, VectorClock, View, ViewExt};

use crate::common::{
    hard_sync_clocks, hb_clocks, hb_ordered, scan_conflicting_pairs, RaceDetectorTool, ToolReport,
};

/// The CP detector.
#[derive(Debug, Clone)]
pub struct CpDetector {
    /// Window size in events (paper §5: 10K for every technique).
    pub window_size: usize,
    /// Per-signature bound on pair checks.
    pub cap_per_signature: usize,
}

impl Default for CpDetector {
    fn default() -> Self {
        CpDetector {
            window_size: 10_000,
            cap_per_signature: 10,
        }
    }
}

/// A closed critical section within a window, with an access summary.
#[derive(Debug)]
struct Span {
    acquire: EventId,
    release: EventId,
    /// `var → (has_read, has_write)`.
    accesses: HashMap<VarId, (bool, bool)>,
}

fn conflicting(a: &Span, b: &Span) -> bool {
    let (small, big) = if a.accesses.len() <= b.accesses.len() {
        (a, b)
    } else {
        (b, a)
    };
    small.accesses.iter().any(|(var, &(r1, w1))| {
        big.accesses
            .get(var)
            .map(|&(r2, w2)| (w1 && (r2 || w2)) || (w2 && (r1 || w1)))
            .unwrap_or(false)
    })
}

/// Dense bitset rows for edge-reachability.
#[derive(Debug, Clone)]
struct BitMatrix {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            n,
            words,
            rows: vec![0; n * words],
        }
    }
    fn set(&mut self, i: usize, j: usize) {
        self.rows[i * self.words + j / 64] |= 1 << (j % 64);
    }
    fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i * self.words + j / 64] & (1 << (j % 64)) != 0
    }
    fn or_row(&mut self, dst: usize, src: usize) {
        let (d, s) = (dst * self.words, src * self.words);
        for k in 0..self.words {
            let v = self.rows[s + k];
            self.rows[d + k] |= v;
        }
    }
    /// Floyd–Warshall-style closure specialized to boolean reachability.
    fn close(&mut self) {
        for k in 0..self.n {
            for i in 0..self.n {
                if self.get(i, k) {
                    self.or_row(i, k);
                }
            }
        }
    }
    fn row_intersects(&self, i: usize, other: &[u64]) -> bool {
        let base = i * self.words;
        (0..self.words).any(|k| self.rows[base + k] & other[k] != 0)
    }
}

struct CpIndex<'v, 't> {
    view: &'v View<'t>,
    full_hb: Vec<VectorClock>,
    hard: Vec<VectorClock>,
    spans: Vec<Span>,
    /// Conditional edges as (source span, target span) — `release(src)` HB
    /// `acquire(dst)`.
    edges: Vec<(usize, usize)>,
    /// Edge chain reachability (reflexive).
    reach: BitMatrix,
}

impl<'v, 't> CpIndex<'v, 't> {
    fn build(view: &'v View<'t>) -> Self {
        let full_hb = hb_clocks(view);
        let hard = hard_sync_clocks(view);
        // Collect closed spans with their access summaries.
        let mut spans: Vec<Span> = Vec::new();
        let mut spans_by_lock: HashMap<rvtrace::LockId, Vec<usize>> = HashMap::new();
        for lock_idx in 0..view.trace().n_locks() as u32 {
            let lock = rvtrace::LockId(lock_idx);
            for cs in view.critical_sections(lock) {
                let thread_evs = view.thread_events(cs.thread);
                if thread_evs.is_empty() {
                    continue;
                }
                // Boundary-crossing regions (acquire before the window or
                // release after it) participate with in-window proxies:
                // dropping them would lose rule-(a) edges and make CP
                // over-report at window boundaries.
                let acq = cs.acquire.unwrap_or(thread_evs[0]);
                let rel = cs.release.unwrap_or(*thread_evs.last().expect("nonempty"));
                let mut accesses: HashMap<VarId, (bool, bool)> = HashMap::new();
                for &e in &thread_evs[view.vpos(acq)..=view.vpos(rel)] {
                    if let Some(var) = view.event(e).kind.var() {
                        let entry = accesses.entry(var).or_insert((false, false));
                        if view.event(e).kind.is_read() {
                            entry.0 = true;
                        } else {
                            entry.1 = true;
                        }
                    }
                }
                spans_by_lock.entry(lock).or_default().push(spans.len());
                spans.push(Span {
                    acquire: acq,
                    release: rel,
                    accesses,
                });
            }
        }

        let hb = |clocks: &[VectorClock], a: EventId, b: EventId| hb_ordered(view, clocks, a, b);

        // Rule (a) seeds.
        let mut edge_set: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        for ids in spans_by_lock.values() {
            for (ii, &i) in ids.iter().enumerate() {
                for &j in &ids[ii + 1..] {
                    // Spans on one lock are serialized; trace order = id order.
                    let (first, second) = if spans[i].acquire < spans[j].acquire {
                        (i, j)
                    } else {
                        (j, i)
                    };
                    if view.event(spans[first].acquire).thread
                        == view.event(spans[second].acquire).thread
                    {
                        continue;
                    }
                    if conflicting(&spans[first], &spans[second]) {
                        edge_set.insert((first, second));
                    }
                }
            }
        }

        // Rule (b) fixpoint.
        let mut edges: Vec<(usize, usize)> = edge_set.iter().copied().collect();
        let mut reach;
        loop {
            edges.sort_unstable();
            // Chain graph over edges: e → f when acquire(dst(e)) HB release(src(f)).
            let m = edges.len();
            reach = BitMatrix::new(m);
            for (ei, &(_, j)) in edges.iter().enumerate() {
                reach.set(ei, ei);
                for (fi, &(k, _)) in edges.iter().enumerate() {
                    if ei != fi {
                        let a_j = spans[j].acquire;
                        let r_k = spans[k].release;
                        if hb(&full_hb, a_j, r_k) || a_j == r_k {
                            reach.set(ei, fi);
                        }
                    }
                }
            }
            reach.close();
            // Try to derive new edges via rule (b).
            let mut changed = false;
            for ids in spans_by_lock.values() {
                for (pi, &p) in ids.iter().enumerate() {
                    for &q in &ids[pi + 1..] {
                        let (p, q) = if spans[p].acquire < spans[q].acquire {
                            (p, q)
                        } else {
                            (q, p)
                        };
                        if edge_set.contains(&(p, q)) {
                            continue;
                        }
                        if view.event(spans[p].acquire).thread
                            == view.event(spans[q].acquire).thread
                        {
                            continue;
                        }
                        // ∃ e, f: reach(e, f), acq_p HB rel(src(e)),
                        // acq(dst(f)) HB rel_q.
                        let mut target = vec![0u64; reach.words.max(1)];
                        let mut any_target = false;
                        for (fi, &(_, l)) in edges.iter().enumerate() {
                            if hb(&full_hb, spans[l].acquire, spans[q].release)
                                || spans[l].acquire == spans[q].release
                            {
                                target[fi / 64] |= 1 << (fi % 64);
                                any_target = true;
                            }
                        }
                        if !any_target {
                            continue;
                        }
                        let found = edges.iter().enumerate().any(|(ei, &(i, _))| {
                            (hb(&full_hb, spans[p].acquire, spans[i].release)
                                || spans[p].acquire == spans[i].release)
                                && reach.row_intersects(ei, &target)
                        });
                        if found {
                            edge_set.insert((p, q));
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
            edges = edge_set.iter().copied().collect();
        }

        CpIndex {
            view,
            full_hb,
            hard,
            spans,
            edges,
            reach,
        }
    }

    /// `a CP b` (directional).
    fn cp_ordered(&self, a: EventId, b: EventId) -> bool {
        if hb_ordered(self.view, &self.hard, a, b) {
            return true;
        }
        if !hb_ordered(self.view, &self.full_hb, a, b) {
            return false; // CP ⊆ HB
        }
        // HB-path with ≥1 conditional edge: a HB rel(src(e)), reach(e,f),
        // acq(dst(f)) HB b.
        let words = self.reach.words.max(1);
        let mut target = vec![0u64; words];
        let mut any = false;
        for (fi, &(_, l)) in self.edges.iter().enumerate() {
            let acq = self.spans[l].acquire;
            if acq == b || hb_ordered(self.view, &self.full_hb, acq, b) {
                target[fi / 64] |= 1 << (fi % 64);
                any = true;
            }
        }
        if !any {
            return false;
        }
        self.edges.iter().enumerate().any(|(ei, &(i, _))| {
            let rel = self.spans[i].release;
            (a == rel || hb_ordered(self.view, &self.full_hb, a, rel))
                && self.reach.row_intersects(ei, &target)
        })
    }
}

impl RaceDetectorTool for CpDetector {
    fn name(&self) -> &'static str {
        "CP"
    }

    fn detect_races(&self, trace: &Trace) -> ToolReport {
        let start = Instant::now();
        let mut report = ToolReport::default();
        for view in trace.windows(self.window_size) {
            let index = CpIndex::build(&view);
            let (racy, checked) = scan_conflicting_pairs(&view, self.cap_per_signature, |a, b| {
                !index.cp_ordered(a, b) && !index.cp_ordered(b, a)
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

    /// Paper Figure 1: the two critical sections conflict on y, so rule (a)
    /// orders them and CP misses (3,10) — exactly the paper's point.
    #[test]
    fn figure1_cp_misses_the_race() {
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
        let report = CpDetector::default().detect_races(&b.finish());
        assert_eq!(report.n_races(), 0, "CP misses (3,10) per the paper");
    }

    /// The canonical CP-beats-HB shape: the racy access sits *inside* the
    /// first critical section and *after* the second, and the two regions
    /// do not conflict, so CP drops the lock edge HB relies on.
    #[test]
    fn cp_beats_hb_on_nonconflicting_regions() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let z = b.var("z");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        let a = b.write(t1, x, 1); // racy half A, inside CS1 = {x}
        b.release(t1, l);
        b.acquire(t2, l);
        b.write(t2, z, 1); // CS2 = {z}: no conflict with CS1
        b.release(t2, l);
        let bb = b.read(t2, x, 1); // racy half B, after CS2
        let tr = b.finish();
        let cp = CpDetector::default().detect_races(&tr);
        let hb = crate::hb::HbDetector::default().detect_races(&tr);
        assert_eq!(
            cp.n_races(),
            1,
            "CP sees through the unrelated lock regions"
        );
        assert_eq!(hb.n_races(), 0, "HB is blocked by the release→acquire edge");
        let v = tr.full_view();
        let index = CpIndex::build(&v);
        assert!(
            index.edges.is_empty(),
            "no rule-(a) edge between {{x}} and {{z}} regions"
        );
        assert!(!index.cp_ordered(a, bb) && !index.cp_ordered(bb, a));
    }

    /// Conflicting regions chain through rule (b)/(c).
    #[test]
    fn cp_rule_b_chains() {
        // CS_A(l1) and CS_B(l1) conflict on y → rel_A CP acq_B.
        // CS_A2(l2) encloses... simpler: A(l1){y}, B(l1){y} conflict;
        // C(l2){z} before B's acquire in t2; D(l2){z} in t3 conflicts with C.
        // Then events in A CP events in B (rule a), and C/D conflict (rule a).
        let mut b = TraceBuilder::new();
        let y = b.var("y");
        let z = b.var("z");
        let l1 = b.new_lock("l1");
        let l2 = b.new_lock("l2");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l1);
        b.write(t1, y, 1);
        b.release(t1, l1);
        b.acquire(t2, l1);
        b.read(t2, y, 1);
        b.acquire(t2, l2);
        b.write(t2, z, 1);
        b.release(t2, l2);
        b.release(t2, l1);
        let tr = b.finish();
        let v = tr.full_view();
        let index = CpIndex::build(&v);
        assert_eq!(
            index.edges.len(),
            1,
            "one rule-(a) edge (the l1 regions conflict on y)"
        );
        // CP orders t1's write of y before t2's read of y.
        let w = rvtrace::EventId(2);
        let r = rvtrace::EventId(6);
        assert!(index.cp_ordered(w, r));
    }

    #[test]
    fn unprotected_race_found() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        b.write(ThreadId::MAIN, x, 1);
        b.write(t2, x, 2);
        let report = CpDetector::default().detect_races(&b.finish());
        assert_eq!(report.n_races(), 1);
    }

    #[test]
    fn fork_join_still_orders() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        b.write(t1, x, 1);
        let t2 = b.fork(t1);
        b.write(t2, x, 2);
        b.join(t1, t2);
        b.write(t1, x, 3);
        let report = CpDetector::default().detect_races(&b.finish());
        assert_eq!(
            report.n_races(),
            0,
            "hard synchronization is unconditional in CP"
        );
    }
}
