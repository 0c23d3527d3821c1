//! Hand-shaped traces built directly with [`TraceBuilder`], each aimed at
//! one detector path: streaming ingest, relevance slicing, the tier
//! screens, daemon sessions, cross-window straddles and the `--kind`
//! axis. Every generator is deterministic (no scheduler, no seed), so the
//! same name and size always serialize to the same bytes.
//!
//! `emit_trace` (in `rvbench`) serializes them for CLI runs, and the
//! integration tests detect on them directly.

use rvtrace::{ThreadId, TraceBuilder};

use super::Workload;

/// Builds a trace with one racy COP in window 0 followed by `filler`
/// race-free events (two threads on disjoint variables), so detection
/// cost concentrates at the front and ingestion dominates the tail —
/// the regime where pipelining pays.
pub fn racy_stream_workload(name: &str, filler: usize) -> Workload {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t2 = b.fork(ThreadId::MAIN);
    b.write(ThreadId::MAIN, x, 1);
    b.write(t2, x, 2);
    let a = b.var("a");
    let c = b.var("c");
    for i in 0..(filler / 2) as i64 {
        b.write(ThreadId::MAIN, a, i);
        b.write(t2, c, i);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a wide-window workload: a racy pair on `x`, a message-passing
/// pair on `y` (guarded by a `flag` read + branch, so it is *not* a race),
/// then `fillers` threads each doing `cluster` rounds of lock-protected
/// writes to their own variable, with each lock shared between ring
/// neighbours so every lock carries many cross-thread critical sections.
pub fn wide_window_workload(name: &str, fillers: usize, cluster: usize) -> Workload {
    assert!(fillers >= 2, "the lock ring needs at least two fillers");
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let y = b.var("y");
    let flag = b.var("flag");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    let filler_threads: Vec<ThreadId> = (0..fillers).map(|_| b.fork(t1)).collect();
    let locks: Vec<_> = (0..fillers).map(|i| b.new_lock(&format!("l{i}"))).collect();
    let vars: Vec<_> = (0..fillers).map(|i| b.var(&format!("f{i}"))).collect();

    // The interesting head: one real race...
    b.write(t1, x, 1);
    b.write(t2, x, 2);
    // ...and a message-passing pair the branch makes order-dependent:
    // the `y` read can only run after `flag` reads 1, which forces the
    // `y` write first — (write y, read y) must come out UNSAT.
    b.write(t1, y, 1);
    b.write(t1, flag, 1);
    b.read(t2, flag, 1);
    b.branch(t2);
    b.read(t2, y, 1);

    // The wide tail: irrelevant to every COP above, expensive to encode.
    for round in 0..cluster as i64 {
        for (i, &t) in filler_threads.iter().enumerate() {
            for l in [locks[i], locks[(i + 1) % fillers]] {
                b.acquire(t, l);
                b.write(t, vars[i], round);
                b.release(t, l);
            }
        }
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a flag-handoff workload: a sync-free racy pair on `h` at the
/// head, then `pairs` producer/consumer thread pairs each running `blocks`
/// rounds of lock-protected message passing. Per round `k`, the producer
/// writes a payload `y` *outside* its critical section and publishes a
/// fresh flag `f` inside it; the consumer reads the flag inside its own
/// critical section, branches on it, and only then reads the payload:
///
/// ```text
/// producer_j:  w y_jk 1;  acq l_j;  w f_jk 1;  rel l_j
/// consumer_j:  acq l_j;  r f_jk 1;  rel l_j;  branch;  r y_jk 1
/// ```
///
/// The flag COP dies in the quick check (common lock). The payload COP
/// `(w y_jk, r y_jk)` survives it — no common lock, no MHB — but the
/// branch forces the flag read, whose unique same-value justifier is the
/// producer's flag write, entailing `w y_jk → w f_jk → r f_jk → r y_jk`
/// in every sound reordering: Tier B refutes it, and so does the solver.
/// Payload and flag variables are distinct per round so every block is
/// its own COP with its own unique justifier.
pub fn flag_handoff_workload(name: &str, pairs: usize, blocks: usize) -> Workload {
    handoff_workload(name, pairs, blocks, 1)
}

/// [`flag_handoff_workload`] with every flag published twice, each time in
/// its own critical section:
///
/// ```text
/// producer_j:  w y_jk 1;  acq l_j;  w f_jk 1;  rel l_j;  acq l_j;  w f_jk 1;  rel l_j
/// ```
///
/// The consumer's flag read now has two same-value justifiers, so no
/// single write is forced. Both follow the payload write in program
/// order, though, so their common MHB dominator (the first flag write)
/// precedes the read in every match disjunct, and the payload COP is
/// refuted all the same.
pub fn double_handoff_workload(name: &str, pairs: usize, blocks: usize) -> Workload {
    handoff_workload(name, pairs, blocks, 2)
}

fn handoff_workload(name: &str, pairs: usize, blocks: usize, publishes: usize) -> Workload {
    assert!(pairs >= 1 && blocks >= 1);
    let mut b = TraceBuilder::new();
    let h = b.var("h");
    let main = ThreadId::MAIN;
    let reader = b.fork(main);
    let producers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(main)).collect();
    let consumers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(main)).collect();
    let locks: Vec<_> = (0..pairs).map(|j| b.new_lock(&format!("l{j}"))).collect();

    // The head: the one real race, confirmable by a sync-preserving
    // reordering (Tier A's territory).
    b.write(main, h, 1);
    b.read(reader, h, 1);

    // The handoff tail, round-robin across the pairs so every window
    // carries blocks from every pair.
    for k in 0..blocks {
        for j in 0..pairs {
            let y = b.var(&format!("y{j}_{k}"));
            let f = b.var(&format!("f{j}_{k}"));
            b.write(producers[j], y, 1);
            for _ in 0..publishes {
                b.acquire(producers[j], locks[j]);
                b.write(producers[j], f, 1);
                b.release(producers[j], locks[j]);
            }
            b.acquire(consumers[j], locks[j]);
            b.read(consumers[j], f, 1);
            b.release(consumers[j], locks[j]);
            b.branch(consumers[j]);
            b.read(consumers[j], y, 1);
        }
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a tenant-mix workload: the per-session traffic shape the daemon
/// sees in practice, with every COP class represented. A sync-free racy
/// pair on `h` at the head (a real race, found in window 0), then `rounds`
/// rounds across three threads, each mixing a lock-protected shared
/// counter (quick-check territory), a flag handoff whose payload COP
/// survives the quick check but is entailment-refuted through the forced
/// flag read (Tier B / solver territory), and race-free thread-local
/// filler. Variables are distinct per round so every round contributes
/// fresh COPs and windows stay busy.
pub fn tenant_mix_workload(name: &str, rounds: usize) -> Workload {
    assert!(rounds >= 1);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let t2 = b.fork(main);
    let t3 = b.fork(main);
    let lock = b.new_lock("m");

    // The head: one real race, confirmable by a sync-preserving reordering.
    let h = b.var("h");
    b.write(main, h, 1);
    b.write(t2, h, 2);

    for k in 0..rounds {
        // Lock-protected shared counter: the quick check kills these COPs.
        let g = b.var(&format!("g{k}"));
        b.acquire(main, lock);
        b.write(main, g, 1);
        b.release(main, lock);
        b.acquire(t2, lock);
        b.read(t2, g, 1);
        b.release(t2, lock);
        // Flag handoff: the payload COP survives the quick check but the
        // branch forces the flag read, entailing the handoff order.
        let y = b.var(&format!("y{k}"));
        let f = b.var(&format!("f{k}"));
        b.write(t2, y, 1);
        b.acquire(t2, lock);
        b.write(t2, f, 1);
        b.release(t2, lock);
        b.acquire(t3, lock);
        b.read(t3, f, 1);
        b.release(t3, lock);
        b.branch(t3);
        b.read(t3, y, 1);
        // Race-free thread-local filler.
        let a = b.var(&format!("a{k}"));
        let c = b.var(&format!("c{k}"));
        b.write(main, a, k as i64);
        b.write(t3, c, k as i64);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a boundary-handoff workload: `crossings` racing pairs, each
/// placed exactly astride a `window_size`-event boundary. Per crossing
/// `k`, thread-private filler by the main thread pads the trace so that
/// the writer's store to a fresh variable `x_k` is the *last* event of
/// window `k` and the reader's conflicting load is the *first* event of
/// window `k+1`. No synchronization orders the pair, so each crossing is
/// one real race — invisible to fixed windows, one straddle-pass race in
/// cone mode, with a spill span of a single event.
pub fn boundary_handoff_workload(name: &str, window_size: usize, crossings: usize) -> Workload {
    assert!(window_size >= 8 && crossings >= 1);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let writer = b.fork(main);
    let reader = b.fork(main);
    // Absorb both implicit `begin` events inside window 0, on private
    // variables, so the handoff accesses below are the threads' only
    // boundary-relevant events.
    let warm_w = b.var("warm_w");
    let warm_r = b.var("warm_r");
    b.write(writer, warm_w, 0);
    b.write(reader, warm_r, 0);
    let filler = b.var("filler");
    for k in 0..crossings {
        let x = b.var(&format!("x{k}"));
        let boundary = (k + 1) * window_size;
        while b.len() < boundary - 1 {
            b.write(main, filler, b.len() as i64);
        }
        b.write(writer, x, 1); // last event of window k
        b.read(reader, x, 1); // first event of window k+1
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// The non-straddling control: one racy pair entirely inside window 0,
/// then thread-private filler out to `windows` full windows. No
/// conflicting pair ever crosses a boundary, so fixed and cone mode must
/// produce identical counts on it.
pub fn boundary_control_workload(name: &str, window_size: usize, windows: usize) -> Workload {
    assert!(window_size >= 8 && windows >= 2);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let t2 = b.fork(main);
    let x = b.var("x");
    b.write(main, x, 1);
    b.write(t2, x, 2);
    let a = b.var("a");
    let c = b.var("c");
    while b.len() < windows * window_size {
        b.write(main, a, 0);
        b.write(t2, c, 0);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a lock-inversion workload: `inversions` independent pairs of
/// threads, each pair taking its own two locks in opposite orders — every
/// inversion is one predictable deadlock cycle.
pub fn deadlock_workload(name: &str, inversions: usize) -> Workload {
    assert!(inversions >= 1);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    for k in 0..inversions {
        let la = b.new_lock(&format!("la{k}"));
        let lb = b.new_lock(&format!("lb{k}"));
        let t1 = b.fork(main);
        let t2 = b.fork(main);
        b.acquire(t1, la);
        b.acquire(t1, lb);
        b.release(t1, lb);
        b.release(t1, la);
        b.acquire(t2, lb);
        b.acquire(t2, la);
        b.release(t2, la);
        b.release(t2, lb);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// The gate-lock control: the same inversion as [`deadlock_workload`],
/// but both threads take a common gate lock around their nested pair —
/// the cycle candidate exists syntactically but no feasible reordering
/// reaches the circular wait. The analysis must *refute* it (`unsat ≥ 1`),
/// not fail to enumerate it.
pub fn gated_deadlock_workload(name: &str) -> Workload {
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let g = b.new_lock("g");
    let la = b.new_lock("la");
    let lb = b.new_lock("lb");
    let t1 = b.fork(main);
    let t2 = b.fork(main);
    for (t, (first, second)) in [(t1, (la, lb)), (t2, (lb, la))] {
        b.acquire(t, g);
        b.acquire(t, first);
        b.acquire(t, second);
        b.release(t, second);
        b.release(t, first);
        b.release(t, g);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a lost-update workload: `counters` shared variables, each
/// updated by an unprotected read-modify-write pair on two threads —
/// every counter is at least one predictable atomicity violation.
pub fn atomicity_workload(name: &str, counters: usize) -> Workload {
    assert!(counters >= 1);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    for k in 0..counters {
        let x = b.var(&format!("x{k}"));
        let t1 = b.fork(main);
        let t2 = b.fork(main);
        b.read(t1, x, 0);
        b.write(t1, x, 1);
        b.read(t2, x, 1);
        b.write(t2, x, 2);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a workload carrying every violation class, with the deadlock
/// and atomicity signatures repeated: `blocks` times, two threads take
/// the same two locks in opposite orders and then each do an unprotected
/// read-modify-write of `x` from fixed locations; a final write/write
/// pair on `y` races. At a 12-event window every block lands in its own
/// window, so one signature recurs across windows.
pub fn repeated_kinds_workload(name: &str, blocks: usize) -> Workload {
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let la = b.new_lock("la");
    let lb = b.new_lock("lb");
    let t1 = b.fork(main);
    let t2 = b.fork(main);
    let x = b.var("x");
    let (read, write) = (b.loc("rmw.read"), b.loc("rmw.write"));
    let mut value = 0;
    for _ in 0..blocks {
        for (t, (first, second)) in [(t1, (la, lb)), (t2, (lb, la))] {
            b.acquire(t, first);
            b.acquire(t, second);
            b.release(t, second);
            b.release(t, first);
        }
        for t in [t1, t2] {
            b.read_at(t, x, value, read);
            value += 1;
            b.write_at(t, x, value, write);
        }
    }
    let y = b.var("y");
    b.write(t1, y, 1);
    b.write(t2, y, 2);
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds an rwlock workload: one writer updating `x` under the write
/// mode, `readers` reader threads loading it under the read mode. The
/// write/read-mode exclusion serializes every access pair — race-free by
/// construction.
pub fn rwlock_workload(name: &str, readers: usize) -> Workload {
    assert!(readers >= 1);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let l = b.new_lock("l");
    let x = b.var("x");
    let ts: Vec<_> = (0..readers).map(|_| b.fork(main)).collect();
    b.acquire(main, l);
    b.write(main, x, 1);
    b.release(main, l);
    for t in ts {
        b.acquire_read(t, l);
        b.read(t, x, 1);
        b.release_read(t, l);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// The racy rwlock variant: the writer *also* uses the read mode, so two
/// read-mode critical sections overlap and the write/read pair races —
/// read mode is shared, and the model must say so.
pub fn rwlock_racy_workload(name: &str) -> Workload {
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let l = b.new_lock("l");
    let x = b.var("x");
    let t = b.fork(main);
    b.acquire_read(main, l);
    b.write(main, x, 1);
    b.release_read(main, l);
    b.acquire_read(t, l);
    b.read(t, x, 1);
    b.release_read(t, l);
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a channel workload: a producer writes `x_i` then sends on the
/// channel; the consumer receives (linked) then reads `x_i`. Every
/// cross-thread access pair is ordered by a message link — race-free by
/// construction.
pub fn channel_workload(name: &str, messages: usize) -> Workload {
    assert!(messages >= 1);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let c = b.new_chan("c");
    let consumer = b.fork(main);
    for i in 0..messages {
        let x = b.var(&format!("x{i}"));
        b.write(main, x, i as i64);
        let s = b.send(main, c);
        b.recv(consumer, c, Some(s));
        b.read(consumer, x, i as i64);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        let d = deadlock_workload("d", 2);
        assert_eq!(d.trace.n_locks(), 4);
        let g = gated_deadlock_workload("g");
        assert_eq!(g.trace.n_locks(), 3);
        let c = channel_workload("c", 3);
        assert_eq!(c.trace.n_chans(), 1);
        assert!(rvtrace::check_consistency(&d.trace).is_empty());
        assert!(rvtrace::check_consistency(&g.trace).is_empty());
        assert!(rvtrace::check_consistency(&c.trace).is_empty());
        assert!(rvtrace::check_consistency(&rwlock_workload("r", 2).trace).is_empty());
        assert!(rvtrace::check_consistency(&rwlock_racy_workload("rr").trace).is_empty());
        assert!(rvtrace::check_consistency(&atomicity_workload("a", 2).trace).is_empty());
    }

    #[test]
    fn handoff_pairs_land_exactly_astride_boundaries() {
        let w = boundary_handoff_workload("h", 1_000, 3);
        // Each crossing k: write at (k+1)·W − 1, read at (k+1)·W.
        for k in 0..3usize {
            let boundary = (k + 1) * 1_000;
            let write = w.trace.events()[boundary - 1];
            let read = w.trace.events()[boundary];
            assert!(write.kind.is_write(), "crossing {k}");
            assert!(
                !read.kind.is_write() && read.kind.var().is_some(),
                "crossing {k}"
            );
            assert_eq!(write.kind.var(), read.kind.var(), "crossing {k}");
        }
    }
}
