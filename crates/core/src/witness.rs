//! Witness construction and validation (operationalizing Theorems 1 and 3).
//!
//! A race witness is a concrete schedule `τ₁ a b`: the smallest event set
//! containing the racing pair and closed under
//!
//! 1. per-thread prefixes (local determinism),
//! 2. fork→begin / end→join edges and recv→send,
//! 3. lock-region completion (if an acquire is included and another same-lock
//!    region is ordered before it, that region's release is included),
//! 4. concrete-feasibility support: every asserted branch's prior reads, the
//!    reads preceding justifying writes, and the justifying writes
//!    themselves (the order-last same-variable write before each required
//!    read),
//!
//! emitted in one total order. [`construct`] uses trace order with the
//! pair moved last and makes no solver call: it is Tier A, and the witness
//! of every race it accepts. [`extract_witness`] orders by a satisfying
//! model's values instead; the detector falls back to it when the
//! constructor fails, as on the paper's Figure 1, where one lock region
//! must move ahead of another. Either schedule is then *validated*: it
//! must pass [`rvtrace::check_schedule`], end in the pair, and replay every
//! required read to its original value. The constructor also checks the
//! encoder's wait-link non-overlap on the schedule's completion, so an
//! accepted witness extends to a model of the glued `Φ ∧ Φ_race`
//! (DESIGN.md, "Tiered cascade"). Like the paper's Theorem 3
//! construction, branches pulled in only through rule 3 are carried
//! data-abstractly.

use std::collections::{HashMap, HashSet};

use rvsmt::Solver;
use rvtrace::{
    check_schedule, schedule_read_values, Cop, CsSpan, EventId, EventKind, LockId, Schedule, View,
};

use crate::config::ConsistencyMode;
use crate::encoder::Encoded;

/// A validated race witness.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The schedule: a consistent reordering ending with the two racing
    /// events adjacent.
    pub schedule: Schedule,
    /// Reads whose original values the witness preserves (the concretely
    /// feasible reads of the encoding).
    pub required_reads: Vec<EventId>,
}

/// Why a witness failed to validate (should not happen for a correct
/// encoder+solver; surfaced for debugging and property tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// Structural schedule violation.
    Structural(rvtrace::ScheduleError),
    /// A required read replays to a different value.
    ReadValueChanged(EventId),
    /// The racing events are not the last two entries of the schedule.
    NotAdjacent,
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::Structural(e) => write!(f, "structural: {e}"),
            WitnessError::ReadValueChanged(e) => write!(f, "{e}: required read value changed"),
            WitnessError::NotAdjacent => write!(f, "racing events not adjacent"),
        }
    }
}

impl std::error::Error for WitnessError {}

/// Builds the trace-order witness of `cop` and validates it, with no
/// solver call. In [`ConsistencyMode::ControlFlow`] the schedule is the
/// closure of the pair and of the branches `Φ_race` asserts, in trace
/// order, with `first, second` last. In [`ConsistencyMode::WholeTrace`]
/// it is every event MHB-before either access, the pair, then the rest
/// of the window, all in trace order. `None` means the schedule does not
/// validate; the COP may still be a race that needs a reordering the
/// trace order cannot express.
///
/// Only the `first, second` orientation is tried, because it is the only
/// one the glued encoding can express (`lt(first, second)` folds to `tt`).
pub fn construct(view: &View<'_>, cop: Cop, mode: ConsistencyMode) -> Option<Witness> {
    let (a, b) = (cop.first, cop.second);
    if !view.contains(a) || !view.contains(b) {
        return None;
    }
    let tail = [a, b];
    let witness = match mode {
        ConsistencyMode::ControlFlow => {
            let mut required = view.last_branches_before(a);
            required.extend(view.last_branches_before(b));
            required.sort_unstable();
            required.dedup();
            build_witness_core(view, &tail, &required, mode, &Order::Trace(&tail))
        }
        ConsistencyMode::WholeTrace => {
            let key = |e: EventId| match e {
                _ if e == a => (1, 0),
                _ if e == b => (1, 1),
                _ if view.mhb(e, a) || view.mhb(e, b) => (0, e.index() as u64),
                _ => (2, e.index() as u64),
            };
            build_witness_core(view, &tail, &[], mode, &Order::Key(&key))
        }
    }
    .ok()?;
    check_adjacent(&witness.schedule, cop, mode).ok()?;
    wait_links_non_overlapping(view, &witness.schedule).then_some(witness)
}

/// Builds and validates a witness schedule from a satisfying model of the
/// glued per-COP encoding.
///
/// # Errors
///
/// Returns a [`WitnessError`] when the model does not induce a valid
/// witness; the detector treats this as "no race" (soundness gate).
pub fn extract_witness(
    view: &View<'_>,
    cop: Cop,
    encoded: &Encoded,
    solver: &Solver,
    mode: ConsistencyMode,
) -> Result<Witness, WitnessError> {
    // Total order key: model value, ties broken by trace order, except
    // that the glued pair (one shared value) sorts last in its tie group,
    // `first` then `second`.
    let key = |e: EventId| -> (i64, u64) {
        let tie = match e {
            _ if e == cop.first => u64::MAX - 1,
            _ if e == cop.second => u64::MAX,
            _ => e.index() as u64,
        };
        (solver.int_value(encoded.ovar(e)), tie)
    };
    let anchors = [cop.first, cop.second];
    let order = Order::Key(&key);
    let witness = build_witness_core(view, &anchors, &encoded.required_branches, mode, &order)?;
    check_adjacent(&witness.schedule, cop, mode)?;
    Ok(witness)
}

/// The race shape: `second` right after `first`, and in the control-flow
/// prefix shape both last.
fn check_adjacent(
    schedule: &Schedule,
    cop: Cop,
    mode: ConsistencyMode,
) -> Result<(), WitnessError> {
    let s = &schedule.0;
    let adjacent = match mode {
        ConsistencyMode::ControlFlow => s.ends_with(&[cop.first, cop.second]),
        ConsistencyMode::WholeTrace => s
            .iter()
            .position(|&e| e == cop.first)
            .is_some_and(|p| s.get(p + 1) == Some(&cop.second)),
    };
    adjacent.then_some(()).ok_or(WitnessError::NotAdjacent)
}

/// The encoder's cross-link constraint, which `check_schedule` does not
/// enforce: each notify falls outside every *other* same-lock wait's
/// release–acquire span. Checked on the schedule's completion — the
/// schedule, then the unscheduled window events in trace order — which
/// is the model a constructed witness stands for.
fn wait_links_non_overlapping(view: &View<'_>, schedule: &Schedule) -> bool {
    let links = view.wait_links();
    if links.len() < 2 {
        return true;
    }
    let at: HashMap<EventId, usize> = schedule
        .0
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i))
        .collect();
    let pos = |e: EventId| at.get(&e).copied().unwrap_or(schedule.len() + e.index());
    links.iter().all(|wl| {
        let n = wl.notify.expect("complete link");
        let lock = view.event(n).kind.lock();
        links.iter().all(|other| {
            other.release == wl.release
                || view.event(other.acquire).kind.lock() != lock
                || pos(n) < pos(other.release)
                || pos(other.acquire) < pos(n)
        })
    })
}

/// The total order a witness is emitted in.
pub(crate) enum Order<'k> {
    /// Trace order, except that the given events go last, in their order.
    Trace(&'k [EventId]),
    /// An explicit key: a model's order values, ties broken by trace order.
    Key(&'k dyn Fn(EventId) -> (i64, u64)),
}

impl Order<'_> {
    fn key(&self, e: EventId) -> (i64, u64) {
        match self {
            Order::Trace(tail) => match tail.iter().position(|&t| t == e) {
                Some(i) => (1, i as u64),
                None => (0, e.index() as u64),
            },
            Order::Key(key) => key(e),
        }
    }

    /// The order-last of `writes` (a variable's writes, in trace order)
    /// before `read`: the read's justifier in this order.
    fn justifier(&self, writes: &[EventId], read: EventId) -> Option<EventId> {
        match self {
            Order::Trace(tail) if !tail.contains(&read) => {
                let before = &writes[..writes.partition_point(|&w| w < read)];
                before.iter().rev().copied().find(|w| !tail.contains(w))
            }
            _ => {
                let kr = self.key(read);
                let before = writes.iter().copied().filter(|&w| self.key(w) < kr);
                before.max_by_key(|&w| self.key(w))
            }
        }
    }

    /// Rule 3: pushes the releases of the other regions in `spans` (one
    /// lock's spans, sorted by release, open ones last) ordered before
    /// acquire `e`. In trace order those regions are a prefix of `spans`,
    /// and `done` counts the prefix already pushed, so each release is
    /// pushed once per witness.
    fn releases_before(
        &self,
        spans: &[CsSpan],
        e: EventId,
        done: &mut usize,
        out: &mut Vec<EventId>,
    ) {
        match self {
            Order::Trace(_) => {
                let n = spans.partition_point(|s| s.release.is_some_and(|r| r < e));
                if n > *done {
                    out.extend(spans[*done..n].iter().filter_map(|s| s.release));
                    *done = n;
                }
            }
            Order::Key(key) => {
                let ke = key(e);
                let others = spans.iter().filter(|s| s.acquire != Some(e));
                out.extend(others.filter_map(|s| s.release).filter(|&r| key(r) < ke));
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Closure-queue pops (one per push) of the last witness built on
    /// this thread: the linearity test's probe.
    static CLOSURE_PUSHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The mode-generic witness builder: required-feasibility fixpoint, closure
/// rules 1–3, ordering by `order`, structural validation and required-read
/// replay. Callers add their own shape checks (race adjacency, atomicity
/// between-ness). A whole-trace witness is the whole window, so it needs
/// no closure: every read is required and every event is scheduled.
pub(crate) fn build_witness_core(
    view: &View<'_>,
    anchors: &[EventId],
    required_branches: &[EventId],
    mode: ConsistencyMode,
    order: &Order<'_>,
) -> Result<Witness, WitnessError> {
    let (mut events, mut required_reads) = match mode {
        ConsistencyMode::ControlFlow => closure(view, anchors, required_branches, order),
        ConsistencyMode::WholeTrace => {
            let reads = view.ids().filter(|&id| view.event(id).kind.is_read());
            (view.ids().collect(), reads.collect())
        }
    };
    events.sort_by_cached_key(|&e| order.key(e));
    let schedule = Schedule(events);
    check_schedule(view, &schedule).map_err(WitnessError::Structural)?;
    let replayed = schedule_read_values(view, &schedule);
    required_reads.sort_unstable();
    for &r in &required_reads {
        let original = view.event(r).kind.value().expect("read value");
        match replayed.get(&r) {
            Some(&v) if v == original => {}
            _ => return Err(WitnessError::ReadValueChanged(r)),
        }
    }
    Ok(Witness {
        schedule,
        required_reads,
    })
}

/// The control-flow witness's event set and required reads: the
/// required-feasibility fixpoint (rule 4), then the closure under rules
/// 1–3. Per-thread high-water marks keep both linear in the result: a
/// thread's prefix, and its reads before an event, are each pushed once.
fn closure(
    view: &View<'_>,
    anchors: &[EventId],
    required_branches: &[EventId],
    order: &Order<'_>,
) -> (Vec<EventId>, Vec<EventId>) {
    let trace = view.trace();
    let thread = |e: EventId| trace.thread_index(view.event(e).thread).expect("indexed");
    // ---- Required concrete events (rule 4). ----
    let mut required_reads: Vec<EventId> = Vec::new();
    let mut required_writes: HashSet<EventId> = HashSet::new();
    let mut reads_done = vec![0usize; trace.n_threads()];
    let mut work: Vec<EventId> = required_branches.to_vec(); // branches/writes to expand
    let mut read_queue: Vec<EventId> = Vec::new();
    loop {
        // Expand branches/writes → their thread's earlier reads.
        while let Some(e) = work.pop() {
            let reads = view.thread_reads_before(e);
            let done = &mut reads_done[thread(e)];
            if reads.len() > *done {
                read_queue.extend_from_slice(&reads[*done..]);
                *done = reads.len();
            }
        }
        // Expand reads → their justifying write under the order.
        let Some(r) = read_queue.pop() else { break };
        required_reads.push(r);
        let var = view.event(r).kind.var().expect("read has var");
        if let Some(w) = order.justifier(view.writes_of(var), r) {
            if required_writes.insert(w) {
                work.push(w);
            }
        }
    }

    // ---- Closure rules 1–3. ----
    let mut in_c: HashSet<EventId> = HashSet::new();
    let mut queue: Vec<EventId> = anchors.to_vec();
    queue.extend_from_slice(required_branches);
    queue.extend_from_slice(&required_reads);
    queue.extend(required_writes.iter().copied());
    let mut prefix_done = vec![0usize; trace.n_threads()];
    let mut regions_done: HashMap<(LockId, bool), usize> = HashMap::new();
    #[cfg(test)]
    CLOSURE_PUSHES.with(|c| c.set(0));
    while let Some(e) = queue.pop() {
        #[cfg(test)]
        CLOSURE_PUSHES.with(|c| c.set(c.get() + 1));
        if !in_c.insert(e) {
            continue;
        }
        // Rule 1: thread prefix.
        let ev = view.event(e);
        let (pos, done) = (view.vpos(e), &mut prefix_done[thread(e)]);
        if pos > *done {
            let prefix = &view.thread_events(ev.thread)[*done..pos];
            queue.extend(prefix.iter().filter(|p| !in_c.contains(p)));
            *done = pos;
        }
        // Rule 2: fork/join edges, and a received message's send (the
        // encoder orders linked send < recv).
        let pred = match ev.kind {
            EventKind::Begin => view.fork_of(ev.thread),
            EventKind::Join { child } => view.end_of(child),
            EventKind::Recv { .. } => trace
                .msg_link_of_recv(e)
                .map(|ml| ml.send)
                .filter(|&s| view.contains(s)),
            _ => None,
        };
        queue.extend(pred);
        // Rule 3: complete earlier same-lock regions. A write acquire
        // excludes both write- and read-mode spans; a read acquire only
        // write-mode ones.
        if let EventKind::Acquire { lock } | EventKind::AcquireRead { lock } = ev.kind {
            let done = regions_done.entry((lock, false)).or_default();
            order.releases_before(view.critical_sections(lock), e, done, &mut queue);
            if matches!(ev.kind, EventKind::Acquire { .. }) {
                let done = regions_done.entry((lock, true)).or_default();
                order.releases_before(view.read_critical_sections(lock), e, done, &mut queue);
            }
        }
    }
    (in_c.into_iter().collect(), required_reads)
}

// Witnesses are extracted on worker threads and shipped to the merge loop;
// keep them (and their errors) thread-portable.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Witness>();
    assert_send::<WitnessError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, EncoderOptions};
    use rvsmt::{Budget, SmtResult, Solver};
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    fn witness_for(
        trace: &rvtrace::Trace,
        cop: Cop,
        mode: ConsistencyMode,
    ) -> Result<Witness, WitnessError> {
        let view = trace.full_view();
        // Witness extraction roams the whole window (justifier search),
        // so it always runs against an unsliced encoding — as in the
        // detector's canonical-witness solve.
        let opts = EncoderOptions {
            mode,
            prune_write_sets: true,
            slice: false,
        };
        let enc = encode(&view, cop, opts);
        let mut solver = Solver::new(&enc.fb);
        assert_eq!(
            solver.solve(&Budget::UNLIMITED),
            SmtResult::Sat,
            "expected SAT"
        );
        extract_witness(&view, cop, &enc, &solver, mode)
    }

    #[test]
    fn simple_unprotected_race_witness() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let w = b.write(t1, x, 1);
        let r = b.read(t2, x, 1);
        let tr = b.finish();
        let wit = witness_for(&tr, Cop::new(w, r), ConsistencyMode::ControlFlow).unwrap();
        let n = wit.schedule.0.len();
        assert_eq!(wit.schedule.0[n - 2], w);
        assert_eq!(wit.schedule.0[n - 1], r);
    }

    /// The paper's Figure 1 and its one race `(3, 10)`.
    fn figure1() -> (rvtrace::Trace, EventId, EventId) {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        let e3 = b.write(t1, x, 1);
        b.write(t1, y, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, y, 1);
        b.release(t2, l);
        let e10 = b.read(t2, x, 1);
        b.branch(t2);
        b.write(t2, z, 1);
        b.join(t1, t2);
        b.read(t1, z, 1);
        b.branch(t1);
        (b.finish(), e3, e10)
    }

    #[test]
    fn figure1_witness_reorders_lock_regions() {
        // The witness for (3,10) must schedule t2's critical section
        // before t1's.
        let (tr, e3, e10) = figure1();
        let t1 = ThreadId::MAIN;
        let wit = witness_for(&tr, Cop::new(e3, e10), ConsistencyMode::ControlFlow).unwrap();
        // The schedule is a valid consistent reordering ending in e3, e10 —
        // check_schedule already ran inside; spot-check the shape.
        let pos = |e: EventId| wit.schedule.0.iter().position(|&x| x == e).unwrap();
        assert!(pos(e3) + 1 == pos(e10));
        // t2's release (e8 in trace ids) must appear before t1's acquire for
        // mutual exclusion, given e3 is inside t1's region.
        let t2_release = tr
            .events()
            .iter()
            .enumerate()
            .filter(|(_, ev)| ev.thread != t1 && matches!(ev.kind, EventKind::Release { .. }))
            .map(|(i, _)| EventId(i as u32))
            .next()
            .unwrap();
        let t1_acquire = tr
            .events()
            .iter()
            .enumerate()
            .filter(|(_, ev)| ev.thread == t1 && matches!(ev.kind, EventKind::Acquire { .. }))
            .map(|(i, _)| EventId(i as u32))
            .next()
            .unwrap();
        assert!(
            pos(t2_release) < pos(t1_acquire),
            "t2's region scheduled first"
        );
    }

    #[test]
    fn witness_includes_justifying_writes() {
        // t2's racing access is guarded by a branch on y; the witness must
        // include t1's write of y so the branch's read replays to 1.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let wy = b.write(t1, y, 1);
        let wx = b.write(t1, x, 1);
        b.read(t2, y, 1);
        b.branch(t2);
        let rx = b.read(t2, x, 1);
        let tr = b.finish();
        let wit = witness_for(&tr, Cop::new(wx, rx), ConsistencyMode::ControlFlow).unwrap();
        assert!(wit.schedule.0.contains(&wy), "justifying write included");
        assert!(!wit.required_reads.is_empty());
    }

    #[test]
    fn constructor_witnesses_trace_order_and_leaves_figure1_to_the_solver() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let wy = b.write(t1, y, 1);
        let wx = b.write(t1, x, 1);
        b.read(t2, y, 1);
        b.branch(t2);
        let rx = b.read(t2, x, 1);
        let tr = b.finish();
        let view = tr.full_view();
        let wit = construct(&view, Cop::new(wx, rx), ConsistencyMode::ControlFlow).unwrap();
        assert!(wit.schedule.0.ends_with(&[wx, rx]));
        assert!(wit.schedule.0.contains(&wy), "justifying write included");
        // Figure 1's race needs t2's region ahead of t1's: no trace-order
        // closure can express that, so the constructor declines.
        let (fig, e3, e10) = figure1();
        let view = fig.full_view();
        assert!(construct(&view, Cop::new(e3, e10), ConsistencyMode::ControlFlow).is_none());
    }

    /// A race after an N-event thread prefix: the closure pushes each
    /// event a bounded number of times, not once per later event.
    #[test]
    fn closure_is_linear_in_the_witness() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        for i in 0..100_000 {
            b.write(t1, y, i);
        }
        let t2 = b.fork(t1);
        let w = b.write(t1, x, 1);
        let r = b.write(t2, x, 2);
        let tr = b.finish();
        let view = tr.full_view();
        let wit = construct(&view, Cop::new(w, r), ConsistencyMode::ControlFlow).unwrap();
        let pushes = CLOSURE_PUSHES.with(std::cell::Cell::get);
        let len = wit.schedule.len();
        assert!(len > 100_000, "the whole prefix is in the witness");
        assert!(pushes <= 2 * len, "{pushes} pushes for {len} events");
    }

    #[test]
    fn whole_trace_witness_keeps_all_read_values() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.write(t1, y, 1);
        let wx = b.write(t1, x, 1);
        b.read(t2, y, 1);
        let rx = b.read(t2, x, 1);
        let tr = b.finish();
        let wit = witness_for(&tr, Cop::new(wx, rx), ConsistencyMode::WholeTrace).unwrap();
        // All reads required in Said mode.
        assert_eq!(wit.required_reads.len(), 2);
    }
}
