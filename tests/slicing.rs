//! Cone-of-influence edge cases for the relevance-slicing layer: fork/join
//! edges that cross the cone boundary, wait/notify links, lock spans only
//! partially inside the cone, and reads whose matching writes lie outside
//! the MHB prefix. Each case also cross-checks the sliced verdict against
//! the full-window encoding.

use rvpredict::{
    encode, Budget, Cop, DetectorConfig, EncoderOptions, EventKind, FormulaBuilder, LockId,
    RaceDetector, SmtResult, Solver, ThreadId, Trace, TraceBuilder, ViewExt, WindowSkeleton,
};

fn solve(fb: &FormulaBuilder) -> SmtResult {
    Solver::new(fb).solve(&Budget::UNLIMITED)
}

/// Sliced and full-window encodings of `cop` must agree on satisfiability.
fn assert_verdicts_match(trace: &Trace, cop: Cop) -> SmtResult {
    let view = trace.full_view();
    let sliced = encode(&view, cop, EncoderOptions::default());
    let full = encode(
        &view,
        cop,
        EncoderOptions {
            slice: false,
            ..Default::default()
        },
    );
    let vs = solve(&sliced.fb);
    assert_eq!(vs, solve(&full.fb), "sliced verdict diverged for {cop:?}");
    vs
}

/// Fork edges into the cone are kept; join edges whose join event lies
/// beyond the cone cut are dropped, without dragging the tail in.
#[test]
fn fork_kept_join_beyond_cut_dropped() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let y = b.var("y");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    let t3 = b.fork(t1);
    let a = b.write(t1, x, 1);
    let w2 = b.write(t2, x, 2);
    let w3 = b.write(t3, y, 1);
    b.join(t1, t2);
    b.join(t1, t3);
    b.write(t1, y, 2);
    let tr = b.finish();
    let view = tr.full_view();
    let cop = Cop::new(a, w2);

    let skel = WindowSkeleton::new(&view);
    let cone = skel.cone(&[cop], true);
    // Both fork edges precede the accesses; the joins (and everything after
    // them) are beyond the cut.
    let kept_forks = cone
        .edges()
        .iter()
        .filter(|(src, _)| matches!(view.event(*src).kind, EventKind::Fork { .. }))
        .count();
    let kept_joins = cone
        .edges()
        .iter()
        .filter(|(_, dst)| matches!(view.event(*dst).kind, EventKind::Join { .. }))
        .count();
    assert!(kept_forks >= 1, "fork edge into the cone must survive");
    assert_eq!(kept_joins, 0, "join edges beyond the cut must be dropped");
    for &(src, dst) in cone.edges() {
        assert!(cone.contains(&view, src) && cone.contains(&view, dst));
    }
    assert!(
        !cone.contains(&view, w3),
        "t3's unrelated write rides only on the dropped join"
    );
    assert_eq!(assert_verdicts_match(&tr, cop), SmtResult::Sat);
}

/// Wait/notify links are all-or-nothing: a cone that reaches the wake-up
/// acquire pulls in the release half and the notify; a cone cut before the
/// wait keeps none of it.
#[test]
fn wait_notify_link_is_all_or_nothing() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let l = b.new_lock("l");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    // A racy pair entirely before the wait machinery.
    let early1 = b.write(t1, x, 1);
    let early2 = b.write(t2, x, 2);
    b.acquire(t2, l);
    let token = b.wait_begin(t2, l);
    b.acquire(t1, l);
    let n = b.notify(t1, l);
    b.release(t1, l);
    let woke = b.wait_end(token, Some(n));
    let late2 = b.write(t2, x, 3);
    b.release(t2, l);
    let late1 = b.write(t1, x, 4);
    let tr = b.finish();
    let view = tr.full_view();
    let skel = WindowSkeleton::new(&view);

    // Cut before the wait: no link, lock not cone-held.
    let before = skel.cone(&[Cop::new(early1, early2)], true);
    assert!(before.links().is_empty(), "link before the cut must drop");
    assert!(!before.lock_held(l));
    assert!(!before.contains(&view, woke));

    // Cut after the wake-up: the whole link comes along.
    let after = skel.cone(&[Cop::new(late1, late2)], true);
    assert_eq!(after.links().len(), 1, "wake-up link must survive intact");
    let link = &after.links()[0];
    assert!(after.contains(&view, link.release));
    assert!(after.contains(&view, link.acquire));
    assert!(after.contains(&view, link.notify.unwrap()));

    assert_verdicts_match(&tr, Cop::new(early1, early2));
    assert_verdicts_match(&tr, Cop::new(late1, late2));
}

/// A (reentrantly acquired) lock span that straddles the cone cut is
/// admitted whole: the release beyond the cut and the other thread's span
/// both join the cone, so mutual exclusion stays enforceable.
#[test]
fn reentrant_lock_span_straddling_cut_is_admitted_whole() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let y = b.var("y");
    let l = b.new_lock("l");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    let acq1 = b.acquire(t1, l).unwrap();
    b.write(t1, y, 9);
    let rel1 = b.release(t1, l).unwrap();
    let w1 = b.write(t1, x, 1);
    let acq2 = b.acquire(t2, l).unwrap();
    assert_eq!(b.acquire(t2, l), None, "reentrant acquire emits no event");
    b.write(t2, y, 1);
    let w2 = b.write(t2, x, 2);
    assert_eq!(b.release(t2, l), None, "reentrant release emits no event");
    b.write(t2, y, 2);
    let rel2 = b.release(t2, l).unwrap();
    let tr = b.finish();
    let view = tr.full_view();
    let cop = Cop::new(w1, w2);

    let cone = WindowSkeleton::new(&view).cone(&[cop], true);
    assert!(cone.lock_held(l), "lock held around a cone access");
    for e in [acq1, rel1, acq2, rel2] {
        assert!(cone.contains(&view, e), "span endpoint {e} must be in cone");
    }
    assert_eq!(assert_verdicts_match(&tr, cop), SmtResult::Sat);
}

/// A read in the cone whose only matching write sits in another thread,
/// outside the MHB prefix of the accesses, must still drag that write in —
/// otherwise the read-match disjunction would be unsatisfiable and the
/// sliced formula unsound.
#[test]
fn read_match_write_outside_mhb_prefix_is_seeded() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let flag = b.var("flag");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    let t3 = b.fork(t1);
    // The flag write happens after both forks: it is NOT ⪯ any t2 event.
    let wf = b.write(t1, flag, 1);
    let rf = b.read(t2, flag, 1);
    b.branch(t2);
    let w2 = b.write(t2, x, 2);
    let w3 = b.write(t3, x, 3);
    let tr = b.finish();
    let view = tr.full_view();
    assert!(!view.mhb(wf, w2), "precondition: flag write not MHB-before");
    let cop = Cop::new(w2, w3);

    let cone = WindowSkeleton::new(&view).cone(&[cop], true);
    assert!(cone.contains(&view, rf), "cf pulls the guarded read in");
    assert!(
        cone.contains(&view, wf),
        "the read's only matching write must be seeded for soundness"
    );
    assert_eq!(assert_verdicts_match(&tr, cop), SmtResult::Sat);
}

/// LockId display sanity used above: the first lock allocated is LockId(0).
#[test]
fn first_lock_is_id_zero() {
    let mut b = TraceBuilder::new();
    let l = b.new_lock("l");
    assert_eq!(l, LockId(0));
}

/// Detector level, on the wide-window workload `emit_trace` serves: one
/// window holds a head with two races (on `x` and on the flag) and a long
/// tail of lock-ring filler that no COP depends on. The sliced run must
/// actually slice (cone smaller than the window, fewer constraints) while
/// `--no-slice` encodes every event, and both report the same races. The
/// screens are off so every COP reaches the encoder.
#[test]
fn sliced_detection_drops_the_filler_tail_and_keeps_the_verdict() {
    let w = rvsim::workloads::synthetic::wide_window_workload("wide_small", 4, 4);
    let detect = |slice| {
        RaceDetector::with_config(DetectorConfig {
            window_size: w.trace.len(),
            slice,
            tiers: false,
            ..Default::default()
        })
        .detect(&w.trace)
    };
    let (sliced, full) = (detect(true), detect(false));
    assert_eq!(sliced.n_races(), 2, "{sliced}");
    assert_eq!(sliced.signatures(), full.signatures());
    let (s, f) = (&sliced.stats, &full.stats);
    assert!(s.cone_events < s.window_events_encoded, "{s:?}");
    assert_eq!(f.cone_events, f.window_events_encoded, "{f:?}");
    assert!(s.constraints_encoded < f.constraints_encoded);
}
