//! Relevance slicing: cone-of-influence formula reduction (see DESIGN.md,
//! "Relevance slicing").
//!
//! The encoding of paper §3 builds `Φ = Φ_mhb ∧ Φ_lock ∧ Φ_race` over
//! *every* event of the window for *every* COP, but the maximal causal
//! model is prefix-closed (§2.3): a feasible reordering witnessing a race
//! between `a` and `b` only needs the events that can be ordered up to
//! `max(O_a, O_b)` — everything MHB-after both accesses, and every lock
//! region and read the control-flow closure `Φ_cf` cannot reach, is dead
//! weight in the formula. This module computes, per COP (or per window in
//! batch mode), the **cone of influence**:
//!
//! 1. the MHB prefix closure of the COP's two events and their `B_e`
//!    branches, read straight off the per-event [`VectorClock`]s the view
//!    maintains (MHB restricted to one thread is a prefix of that thread's
//!    event list, so the whole cone is a per-thread cut vector `need` and
//!    membership is one comparison);
//! 2. the fixpoint of reads reachable through the `cf`/`read_match`
//!    recursion, mirrored *exactly* (same write-set pruning, same
//!    candidate shadowing) so the sliced `Φ_race` is textually identical
//!    to the unsliced one;
//! 3. the critical sections of every lock held at any cone event (a
//!    non-cone-held lock's spans lie entirely outside the cone, so their
//!    mutual-exclusion disjunctions are satisfied by appending the sliced
//!    model's tail in trace order), and wait/notify links any of whose
//!    three events entered the cone (all-or-nothing).
//!
//! The window's order facts — its fork→begin/end→join edges, its complete
//! wait links with their per-event lookup, and the locks it touches — are
//! the [`View`]'s ([`View::mhb_edges`], [`View::wait_links`],
//! [`View::locks`]); a cone keeps the subset it reaches. The per-window
//! [`WindowSkeleton`] adds the one fact that is not the view's: the locks
//! whose malformed span pairs make a `⊥` assertion load-bearing. So
//! computing one cone is near-`O(|cone|)` instead of `O(|window|)`.
//!
//! No slicing is the largest cone: [`Cone::full`] holds every thread's
//! whole in-view sequence, every edge, link and lock, and the encoder
//! emits the unsliced formula by running over it.
//!
//! [`VectorClock`]: rvtrace::VectorClock

use std::collections::BTreeSet;

use rvtrace::{Cop, EventId, EventKind, LockId, VarId, View, WaitLink};

/// Per-window state shared by every cone computation: the part of the
/// encoding input that depends neither on the COP nor is a fact of the
/// view. Build one per window and reuse it for all of the window's COPs.
#[derive(Debug)]
pub struct WindowSkeleton<'v, 'a> {
    view: &'v View<'a>,
    /// Locks with a cross-thread span pair that would assert `⊥` in
    /// `Φ_lock` (both ordering directions lack their endpoint events —
    /// malformed overlapping holds). The assertion is load-bearing, so
    /// these locks are always treated as cone-held.
    forced_locks: Vec<LockId>,
}

impl<'v, 'a> WindowSkeleton<'v, 'a> {
    /// Builds the skeleton for one window view.
    pub fn new(view: &'v View<'a>) -> Self {
        let forced_locks = view
            .locks()
            .iter()
            .copied()
            .filter(|&lock| {
                let spans = view.critical_sections(lock);
                spans.iter().enumerate().any(|(i, s1)| {
                    spans[i + 1..].iter().any(|s2| {
                        s1.thread != s2.thread
                            && (s1.release.is_none() || s2.acquire.is_none())
                            && (s2.release.is_none() || s1.acquire.is_none())
                    })
                })
            })
            .collect();
        WindowSkeleton { view, forced_locks }
    }

    /// The window view the skeleton was built over.
    pub fn view(&self) -> &'v View<'a> {
        self.view
    }

    /// Computes the cone of influence for `cops` (one COP in per-COP mode;
    /// all of a window's COPs for the batch encoding's shared base
    /// formula). `prune` must equal the encoder's `prune_write_sets` so
    /// the `cf` mirror visits exactly the writes the encoder will
    /// constrain.
    pub fn cone(&self, cops: &[Cop], prune: bool) -> Cone {
        let view = self.view;
        let trace = view.trace();
        let n_threads = trace.n_threads();
        let mut need = vec![0u32; n_threads];
        // Cone-held flags over `view.locks()`, marked flags over
        // `view.wait_links()`.
        let mut held = vec![false; view.locks().len()];
        let mut marked = vec![false; view.wait_links().len()];

        // Prefix-extends the cone with the MHB closure of `e`: the clock
        // entry for thread `i` counts the events of `i` that are ⪯ e, and
        // the cone keeps per-thread *prefixes*, so a pointwise max is the
        // whole closure.
        fn seed(view: &View<'_>, need: &mut [u32], e: EventId) {
            let clock = view.clock(e);
            for (ti, n) in need.iter_mut().enumerate() {
                *n = (*n).max(clock.get(ti));
            }
        }

        // 1. The accesses and their `B_e` branches; the branches root the
        //    cf-reachability walk. Visited set as a dense bitmap over the
        //    view's contiguous event range — the walk touches most cone
        //    events once, so O(1) unhashed membership is the hot path.
        let view_base = view.range().start;
        let mut visited = vec![false; view.len()];
        let mut stack: Vec<EventId> = Vec::new();
        let first_visit = |e: EventId, visited: &mut Vec<bool>| {
            let o = e.index() - view_base;
            !std::mem::replace(&mut visited[o], true)
        };
        for cop in cops {
            for e in [cop.first, cop.second] {
                seed(view, &mut need, e);
                for b in view.last_branches_before(e) {
                    seed(view, &mut need, b);
                    if first_visit(b, &mut visited) {
                        stack.push(b);
                    }
                }
            }
        }

        // 2. Exact mirror of the encoder's `cf` recursion: a branch or
        //    write depends on its thread's earlier reads; a read's match
        //    disjunction mentions *every* write of `W^r` (interference
        //    atoms) and recurses into the candidate set `W^r_v`.
        while let Some(e) = stack.pop() {
            match view.event(e).kind {
                EventKind::Branch | EventKind::Write { .. } => {
                    for &r in view.thread_reads_before(e) {
                        if first_visit(r, &mut visited) {
                            seed(view, &mut need, r);
                            stack.push(r);
                        }
                    }
                }
                EventKind::Read { .. } => {
                    let (wr, wrv) = crate::encoder::write_sets(view, e, prune);
                    for &w in &wr {
                        seed(view, &mut need, w);
                    }
                    for &w in &wrv {
                        if first_visit(w, &mut visited) {
                            stack.push(w);
                        }
                    }
                }
                _ => {}
            }
        }

        // 3. Lock and wait-link closure, to a fixpoint: newly admitted
        //    events can hold further locks, whose spans admit further
        //    events. Forced locks (load-bearing ⊥ pairs) are admitted
        //    unconditionally. A lock outside `view.locks()` has no span,
        //    so admitting it would change nothing.
        let admit_lock = |lock: LockId, need: &mut [u32], held: &mut [bool]| {
            let Ok(i) = view.locks().binary_search(&lock) else {
                return;
            };
            if std::mem::replace(&mut held[i], true) {
                return;
            }
            for span in view.critical_sections(lock) {
                if let Some(a) = span.acquire {
                    seed(view, need, a);
                }
                if let Some(r) = span.release {
                    seed(view, need, r);
                }
            }
        };
        for &lock in &self.forced_locks {
            admit_lock(lock, &mut need, &mut held);
        }
        let threads = trace.threads();
        let mut processed = vec![0usize; n_threads];
        loop {
            let mut progress = false;
            for ti in 0..n_threads {
                let evs = view.thread_events(threads[ti]);
                while processed[ti] < (need[ti] as usize).min(evs.len()) {
                    progress = true;
                    let e = evs[processed[ti]];
                    processed[ti] += 1;
                    for &lock in view.lockset(e) {
                        admit_lock(lock, &mut need, &mut held);
                    }
                    if let Some(li) = view.wait_link_index(e) {
                        if !marked[li] {
                            marked[li] = true;
                            let wl = view.wait_links()[li];
                            seed(view, &mut need, wl.release);
                            seed(view, &mut need, wl.acquire);
                            if let Some(n) = wl.notify {
                                seed(view, &mut need, n);
                            }
                        }
                    }
                }
            }
            if !progress {
                break;
            }
        }

        let n_events = (0..n_threads)
            .map(|ti| (need[ti] as usize).min(view.thread_events(threads[ti]).len()))
            .sum();
        let in_cone = |e: EventId| {
            let ti = trace
                .thread_index(view.event(e).thread)
                .expect("thread indexed");
            (view.vpos(e) as u32) < need[ti]
        };
        // fork→begin / end→join edges whose target is in the cone (MHB
        // downward closure guarantees the source then is too).
        let edges: Vec<(EventId, EventId)> = view
            .mhb_edges()
            .iter()
            .copied()
            .filter(|&(src, dst)| {
                let keep = in_cone(dst);
                debug_assert!(!keep || in_cone(src), "cone not MHB-downward closed");
                keep
            })
            .collect();
        let links: Vec<WaitLink> = view
            .wait_links()
            .iter()
            .zip(&marked)
            .filter(|(_, &m)| m)
            .map(|(wl, _)| *wl)
            .collect();
        let held = view
            .locks()
            .iter()
            .zip(&held)
            .filter(|(_, &h)| h)
            .map(|(&lock, _)| lock)
            .collect();
        Cone {
            need,
            held,
            edges,
            links,
            n_events,
            window_events: view.len(),
        }
    }
}

/// The cone of influence of one encoding problem: the subset of window
/// events whose order variables the sliced formula constrains. Per-thread
/// MHB-prefix-closed, so it is represented as a per-thread cut vector and
/// membership is a single comparison.
#[derive(Debug, Clone)]
pub struct Cone {
    /// Per trace-thread index: how many leading events of that thread's
    /// in-view sequence are in the cone.
    need: Vec<u32>,
    /// The cone-held locks, ascending: their `Φ_lock` pairs are encoded in
    /// full.
    held: Vec<LockId>,
    /// fork→begin and end→join edges inside the cone.
    edges: Vec<(EventId, EventId)>,
    /// Wait links fully inside the cone (marked links are all-or-nothing).
    links: Vec<WaitLink>,
    /// Total events in the cone.
    n_events: usize,
    /// Total events in the window view the cone was cut from.
    window_events: usize,
}

impl Cone {
    /// The whole-window cone: every thread's whole in-view sequence, all of
    /// the view's fork/join edges and wait links, and every lock it
    /// touches. Encoding over it is encoding without slicing.
    pub fn full(view: &View<'_>) -> Cone {
        Cone {
            need: (view.threads().iter())
                .map(|&t| view.thread_events(t).len() as u32)
                .collect(),
            held: view.locks().to_vec(),
            edges: view.mhb_edges().to_vec(),
            links: view.wait_links().to_vec(),
            n_events: view.len(),
            window_events: view.len(),
        }
    }

    /// Whether `e` (an event of the cone's window) is inside the cone.
    pub fn contains(&self, view: &View<'_>, e: EventId) -> bool {
        if self.n_events == self.window_events {
            return true;
        }
        let ti = view
            .trace()
            .thread_index(view.event(e).thread)
            .expect("thread indexed");
        (view.vpos(e) as u32) < self.need[ti]
    }

    /// The cone's per-thread cut: events `0..need(ti)` of thread `ti`'s
    /// in-view sequence are in the cone.
    pub fn need(&self, ti: usize) -> usize {
        self.need.get(ti).copied().unwrap_or(0) as usize
    }

    /// Whether `lock`'s critical sections are encoded (some cone event
    /// holds it, or its span structure is malformed).
    pub fn lock_held(&self, lock: LockId) -> bool {
        self.held.binary_search(&lock).is_ok()
    }

    /// fork→begin and end→join edges with both endpoints in the cone.
    pub fn edges(&self) -> &[(EventId, EventId)] {
        &self.edges
    }

    /// Wait links whose three events are all in the cone.
    pub fn links(&self) -> &[WaitLink] {
        &self.links
    }

    /// Number of events in the cone.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Number of events in the window the cone was cut from.
    pub fn window_events(&self) -> usize {
        self.window_events
    }

    /// Number of window events the slice drops.
    pub fn sliced_out(&self) -> usize {
        self.window_events - self.n_events
    }

    /// Variables read by cone events — the dependence frontier that
    /// cross-window growth follows: a pre-view write of one of these
    /// variables justifies extending a dependence-bounded window further
    /// back (see the detector's straddle pass), because the read's
    /// feasible match set depends on it.
    pub fn read_vars(&self, view: &View<'_>) -> BTreeSet<VarId> {
        let mut vars = BTreeSet::new();
        let threads = view.trace().threads();
        for (ti, &t) in threads.iter().enumerate() {
            let evs = view.thread_events(t);
            for &e in &evs[..self.need(ti).min(evs.len())] {
                if let EventKind::Read { var, .. } = view.event(e).kind {
                    vars.insert(var);
                }
            }
        }
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, EncoderOptions};
    use rvsmt::{Budget, Solver};
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    /// Two independent clusters: a racy pair on `x` up front, and an
    /// unrelated lock-protected cluster on `y` behind it.
    fn two_cluster_trace() -> (rvtrace::Trace, Cop) {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let t3 = b.fork(t1);
        let t4 = b.fork(t1);
        let w1 = b.write(t1, x, 1);
        let w2 = b.write(t2, x, 2);
        for _ in 0..3 {
            b.acquire(t3, l);
            b.write(t3, y, 1);
            b.release(t3, l);
            b.acquire(t4, l);
            b.write(t4, y, 2);
            b.release(t4, l);
        }
        (b.finish(), Cop::new(w1, w2))
    }

    #[test]
    fn cone_drops_unrelated_cluster() {
        let (tr, cop) = two_cluster_trace();
        let view = tr.full_view();
        let skel = WindowSkeleton::new(&view);
        let cone = skel.cone(&[cop], true);
        assert!(cone.contains(&view, cop.first) && cone.contains(&view, cop.second));
        assert!(
            cone.n_events() < cone.window_events(),
            "the y/lock cluster must be sliced out: {} of {}",
            cone.n_events(),
            cone.window_events()
        );
        // The unrelated lock is not cone-held.
        assert!(!cone.lock_held(LockId(0)));
        assert!(cone.sliced_out() > 0);
    }

    #[test]
    fn cone_is_mhb_downward_closed() {
        let (tr, cop) = two_cluster_trace();
        let view = tr.full_view();
        let skel = WindowSkeleton::new(&view);
        let cone = skel.cone(&[cop], true);
        for a in view.ids() {
            for b in view.ids() {
                if view.mhb(a, b) && cone.contains(&view, b) {
                    assert!(cone.contains(&view, a), "{a} ⪯ {b} but {a} not in cone");
                }
            }
        }
    }

    #[test]
    fn cone_read_vars_track_dependence_frontier() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.read(t1, y, 0); // feeds the branch guarding the write
        b.branch(t1);
        let w = b.write(t1, x, 1);
        let r = b.read(t2, x, 1);
        let tr = b.finish();
        let view = tr.full_view();
        let skel = WindowSkeleton::new(&view);
        let cone = skel.cone(&[Cop::new(w, r)], true);
        let vars = cone.read_vars(&view);
        assert!(vars.contains(&x) && vars.contains(&y), "{vars:?}");
    }

    #[test]
    fn sliced_formula_is_smaller_but_verdict_identical() {
        let (tr, cop) = two_cluster_trace();
        let view = tr.full_view();
        let sliced = encode(&view, cop, EncoderOptions::default());
        let full = encode(
            &view,
            cop,
            EncoderOptions {
                slice: false,
                ..Default::default()
            },
        );
        assert!(sliced.cone_events < full.cone_events);
        assert!(sliced.n_constraints < full.n_constraints);
        assert_eq!(sliced.n_lock, 0, "the unrelated lock contributes nothing");
        assert!(full.n_lock > 0);
        let verdict = |e: &crate::encoder::Encoded| {
            let mut s = Solver::new(&e.fb);
            s.solve(&Budget::UNLIMITED)
        };
        assert_eq!(verdict(&sliced), verdict(&full));
    }
}
