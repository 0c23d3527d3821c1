//! Trace consistency (paper §2.2) and schedule validation.
//!
//! A trace is *(sequentially) consistent* iff its restriction to every
//! concurrent object satisfies the object's serial specification:
//!
//! * **read consistency** — each read returns the value of the most recent
//!   write to the same location (or the initial value);
//! * **lock mutual exclusion** — acquires/releases on each lock alternate
//!   and pair up within a thread;
//! * **must-happen-before** — `begin` first and after `fork`; `end` last;
//!   `join` after the joined thread's `end`.
//!
//! Branch events have no serial specification and may appear anywhere.
//!
//! The axioms are decided in one place, the `Axioms` state machine, which
//! both [`check_consistency`] and [`salvage_trace`](crate::salvage_trace)
//! drive. Its lock half, [`LockTable`], also replays lock holders for
//! [`check_schedule`] and for deadlock witness validation.
//!
//! [`check_schedule`] validates a *reordering* of a window (a candidate race
//! witness) against the requirements every τ-feasible trace must satisfy:
//! per-thread prefix preservation (local determinism, data-abstract),
//! fork/join edges, lock mutual exclusion, and wait/notify matching.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::error::TraceError;
use crate::event::{Event, EventId, EventKind, LockId, ThreadId, Value, VarId};
use crate::trace::Trace;
use crate::view::View;

/// Who holds each lock: one write holder, or any number of read holds.
///
/// The lock half of the consistency state machine, and the holder replay
/// of [`check_schedule`] and of deadlock witness validation. Its rule is
/// plain mutual exclusion: a thread may stack read holds on a lock (a
/// schedule may), while [`check_consistency`] additionally rejects a
/// second read hold as non-reentrant.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    writer: HashMap<LockId, ThreadId>,
    readers: HashMap<LockId, Vec<ThreadId>>,
}

impl LockTable {
    /// The holds open when `view` starts.
    pub fn at_start(view: &View<'_>) -> Self {
        let mut locks = LockTable::default();
        for &(t, l) in view.held_at_start() {
            locks.writer.insert(l, t);
        }
        for &(t, l) in view.held_read_at_start() {
            locks.readers.entry(l).or_default().push(t);
        }
        locks
    }

    /// The thread holding `lock` in write mode.
    pub fn writer(&self, lock: LockId) -> Option<ThreadId> {
        self.writer.get(&lock).copied()
    }

    /// Whether `thread` holds a read hold on `lock`.
    pub(crate) fn reads(&self, lock: LockId, thread: ThreadId) -> bool {
        self.readers.get(&lock).is_some_and(|r| r.contains(&thread))
    }

    /// Whether mutual exclusion admits `thread` performing `kind` now: an
    /// acquire needs the lock free, a read acquire no write holder, and a
    /// release the thread's own hold of that mode. Other events are always
    /// admitted.
    pub(crate) fn admits(&self, thread: ThreadId, kind: &EventKind) -> bool {
        match *kind {
            EventKind::Acquire { lock } => {
                !self.writer.contains_key(&lock)
                    && self.readers.get(&lock).map_or(true, Vec::is_empty)
            }
            EventKind::Release { lock } => self.writer(lock) == Some(thread),
            EventKind::AcquireRead { lock } => !self.writer.contains_key(&lock),
            EventKind::ReleaseRead { lock } => self.reads(lock, thread),
            _ => true,
        }
    }

    /// Performs `thread`'s lock operation `kind`, which the caller has
    /// checked [`admits`](LockTable::admits). Other events change nothing.
    pub(crate) fn perform(&mut self, thread: ThreadId, kind: &EventKind) {
        match *kind {
            EventKind::Acquire { lock } => {
                self.writer.insert(lock, thread);
            }
            EventKind::Release { lock } => {
                self.writer.remove(&lock);
            }
            EventKind::AcquireRead { lock } => self.readers.entry(lock).or_default().push(thread),
            EventKind::ReleaseRead { lock } => {
                let readers = self.readers.entry(lock).or_default();
                if let Some(p) = readers.iter().position(|&t| t == thread) {
                    readers.swap_remove(p);
                }
            }
            _ => {}
        }
    }

    /// Performs `kind` if mutual exclusion admits it; returns whether it
    /// did.
    pub fn step(&mut self, thread: ThreadId, kind: &EventKind) -> bool {
        let admitted = self.admits(thread, kind);
        if admitted {
            self.perform(thread, kind);
        }
        admitted
    }
}

/// One thread's place in its begin/fork/end lifecycle.
#[derive(Debug, Default, Clone, Copy)]
struct Lifecycle {
    forked: bool,
    begun: bool,
    ended: bool,
    acted: bool,
}

/// The serial specifications of paper §2.2 as one state machine: thread
/// lifecycles, the last value written to each variable, and a
/// [`LockTable`]. Checking an event ([`violations`](Axioms::violations))
/// and applying its effects ([`apply`](Axioms::apply)) are separate steps,
/// so [`check_consistency`] reports every violation and applies every
/// event, while [`salvage_trace`](crate::salvage_trace) applies only the
/// events that violate nothing.
pub(crate) struct Axioms<'a> {
    initial: &'a BTreeMap<VarId, Value>,
    /// Thread id -> index into `threads`: at most one hash lookup per
    /// event finds the state both steps use, and none when the event's
    /// thread is the last one looked up (threads run in bursts).
    slots: HashMap<ThreadId, usize>,
    last: Option<(ThreadId, usize)>,
    threads: Vec<Lifecycle>,
    values: HashMap<VarId, Value>,
    locks: LockTable,
}

/// What checking an event learned that applying it needs: where its
/// thread's state lives, and whether its lock operation was admitted.
pub(crate) struct Checked {
    slot: usize,
    lock_ok: bool,
}

impl<'a> Axioms<'a> {
    /// The machine at the start of a trace with these initial values.
    pub(crate) fn new(initial: &'a BTreeMap<VarId, Value>) -> Self {
        Axioms {
            initial,
            slots: HashMap::new(),
            last: None,
            threads: Vec::new(),
            values: HashMap::new(),
            locks: LockTable::default(),
        }
    }

    fn slot(&mut self, thread: ThreadId) -> usize {
        match self.last {
            Some((t, slot)) if t == thread => slot,
            _ => {
                let n = self.threads.len();
                let slot = *self.slots.entry(thread).or_insert(n);
                if slot == n {
                    self.threads.push(Lifecycle::default());
                }
                self.last = Some((thread, slot));
                slot
            }
        }
    }

    fn lifecycle(&self, thread: ThreadId) -> Lifecycle {
        self.slots
            .get(&thread)
            .map_or_else(Lifecycle::default, |&s| self.threads[s])
    }

    /// Hands each axiom `event` violates to `flag`, in order: acting
    /// after its thread's end, then the begin checks, then the check of
    /// its kind. Changes no state a later check can observe.
    #[inline]
    pub(crate) fn violations(
        &mut self,
        event: EventId,
        e: &Event,
        mut flag: impl FnMut(TraceError),
    ) -> Checked {
        let thread = e.thread;
        let slot = self.slot(thread);
        let st = self.threads[slot];
        if st.ended {
            flag(TraceError::EventAfterEnd { thread, event });
        }
        match e.kind {
            EventKind::Begin => {
                if st.acted {
                    flag(TraceError::EventBeforeBegin { thread, event });
                }
                if !st.forked {
                    flag(TraceError::BeginWithoutFork { thread, event });
                }
            }
            EventKind::End => {}
            _ if st.forked && !st.begun => flag(TraceError::EventBeforeBegin { thread, event }),
            _ => {}
        }
        let mut lock_ok = true;
        match e.kind {
            EventKind::Read { var, value } => {
                let expected = self
                    .values
                    .get(&var)
                    .or_else(|| self.initial.get(&var))
                    .copied()
                    .unwrap_or_default();
                if value != expected {
                    flag(TraceError::InconsistentRead {
                        read: event,
                        var,
                        expected,
                        actual: value,
                    });
                }
            }
            EventKind::Acquire { lock } | EventKind::AcquireRead { lock } => {
                // Read holds are non-reentrant per thread.
                lock_ok = self.locks.admits(thread, &e.kind)
                    && !(matches!(e.kind, EventKind::AcquireRead { .. })
                        && self.locks.reads(lock, thread));
                if !lock_ok {
                    flag(TraceError::AcquireHeldLock {
                        thread,
                        lock,
                        event,
                    });
                }
            }
            EventKind::Release { lock } | EventKind::ReleaseRead { lock } => {
                lock_ok = self.locks.admits(thread, &e.kind);
                if !lock_ok {
                    flag(TraceError::ReleaseWithoutAcquire {
                        thread,
                        lock,
                        event,
                    });
                }
            }
            EventKind::Fork { child } => {
                if self.lifecycle(child).forked {
                    flag(TraceError::DoubleFork {
                        thread: child,
                        event,
                    });
                }
            }
            EventKind::Join { child } => {
                if !self.lifecycle(child).ended {
                    flag(TraceError::JoinBeforeEnd {
                        thread: child,
                        event,
                    });
                }
            }
            _ => {}
        }
        Checked { slot, lock_ok }
    }

    /// Applies the effects of `e`, just checked: its lock operation only if
    /// it was admitted, everything else unconditionally.
    #[inline]
    pub(crate) fn apply(&mut self, e: &Event, checked: Checked) {
        let st = &mut self.threads[checked.slot];
        st.acted = true;
        match e.kind {
            EventKind::Begin => st.begun = true,
            EventKind::End => st.ended = true,
            EventKind::Write { var, value } => {
                self.values.insert(var, value);
            }
            EventKind::Fork { child } => {
                let c = self.slot(child);
                self.threads[c].forked = true;
            }
            _ if checked.lock_ok => self.locks.perform(e.thread, &e.kind),
            _ => {}
        }
    }
}

/// Checks full-trace consistency; returns all violations found, in event
/// order.
///
/// # Examples
///
/// ```
/// use rvtrace::{check_consistency, ThreadId, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// b.write(ThreadId::MAIN, x, 1);
/// b.read(ThreadId::MAIN, x, 1);
/// let trace = b.finish();
/// assert!(check_consistency(&trace).is_empty());
/// ```
pub fn check_consistency(trace: &Trace) -> Vec<TraceError> {
    let mut errors = Vec::new();
    let mut axioms = Axioms::new(&trace.data().initial_values);
    for (i, e) in trace.events().iter().enumerate() {
        let checked = axioms.violations(EventId(i as u32), e, |err| errors.push(err));
        axioms.apply(e, checked);
    }
    errors
}

/// A candidate reordering of (a prefix-selection of) a window's events, e.g.
/// a race witness extracted from an SMT model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule(
    /// The scheduled events, in execution order.
    pub Vec<EventId>,
);

impl Schedule {
    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{}", e.0)?;
        }
        Ok(())
    }
}

/// A violation found while validating a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// An event outside the view, or scheduled twice.
    BadEvent(EventId),
    /// A thread's scheduled events are not a prefix of its projection.
    NotThreadPrefix {
        /// The thread whose order was broken.
        thread: ThreadId,
        /// The out-of-order event.
        event: EventId,
    },
    /// A `begin` scheduled before its in-view `fork`.
    BeginBeforeFork(EventId),
    /// A `join` scheduled before the joined thread's in-view `end`.
    JoinBeforeEnd(EventId),
    /// Lock mutual exclusion violated at this event.
    MutexViolation(EventId),
    /// A matched notify scheduled outside its wait's release/acquire span,
    /// or a wait re-acquire scheduled without its notify.
    WaitNotifyMismatch(EventId),
    /// A linked `recv` scheduled before its in-view `send`.
    RecvBeforeSend(EventId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::BadEvent(e) => {
                write!(f, "{e}: not schedulable (outside view or duplicate)")
            }
            ScheduleError::NotThreadPrefix { thread, event } => {
                write!(
                    f,
                    "{event}: thread {thread} order is not a projection prefix"
                )
            }
            ScheduleError::BeginBeforeFork(e) => write!(f, "{e}: begin before its fork"),
            ScheduleError::JoinBeforeEnd(e) => write!(f, "{e}: join before the child's end"),
            ScheduleError::MutexViolation(e) => write!(f, "{e}: lock mutual exclusion violated"),
            ScheduleError::WaitNotifyMismatch(e) => write!(f, "{e}: wait/notify matching violated"),
            ScheduleError::RecvBeforeSend(e) => write!(f, "{e}: recv before its linked send"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Validates a schedule against a view. On success the schedule corresponds
/// to a consistent, data-abstract reordering of the window (paper Thm. 3's
/// construction, before re-assigning read values).
pub fn check_schedule(view: &View<'_>, schedule: &Schedule) -> Result<(), ScheduleError> {
    let trace = view.trace();
    let mut next_pos: HashMap<ThreadId, usize> = HashMap::new();
    let mut scheduled: HashMap<EventId, usize> = HashMap::new();
    let mut locks = LockTable::at_start(view);

    for (step, &id) in schedule.0.iter().enumerate() {
        if !view.contains(id) || scheduled.contains_key(&id) {
            return Err(ScheduleError::BadEvent(id));
        }
        let e = view.event(id);
        // Per-thread prefix preservation (local determinism).
        let pos = next_pos.entry(e.thread).or_insert(0);
        let expected = view.thread_events(e.thread).get(*pos).copied();
        if expected != Some(id) {
            return Err(ScheduleError::NotThreadPrefix {
                thread: e.thread,
                event: id,
            });
        }
        *pos += 1;

        if !locks.step(e.thread, &e.kind) {
            return Err(ScheduleError::MutexViolation(id));
        }
        match e.kind {
            EventKind::Begin => {
                // The fork must be scheduled earlier if it is in the view.
                if let Some(f) = view.fork_of(e.thread) {
                    if !scheduled.contains_key(&f) {
                        return Err(ScheduleError::BeginBeforeFork(id));
                    }
                }
            }
            EventKind::Join { child } => {
                if let Some(en) = view.end_of(child) {
                    if !scheduled.contains_key(&en) {
                        return Err(ScheduleError::JoinBeforeEnd(id));
                    }
                }
            }
            EventKind::Acquire { .. } => {
                // Wait re-acquire: its notify must be scheduled already.
                if let Some(wl) = trace.wait_link_of_acquire(id) {
                    match wl.notify {
                        Some(n) if view.contains(n) && !scheduled.contains_key(&n) => {
                            return Err(ScheduleError::WaitNotifyMismatch(id));
                        }
                        _ => {}
                    }
                }
            }
            EventKind::Recv { .. } => {
                // A linked recv requires its send scheduled first (if the
                // send is in the view; a cross-window send counts as done).
                if let Some(ml) = trace.msg_link_of_recv(id) {
                    if view.contains(ml.send) && !scheduled.contains_key(&ml.send) {
                        return Err(ScheduleError::RecvBeforeSend(id));
                    }
                }
            }
            EventKind::Notify { .. } => {
                // A matched notify must fall inside its wait's release span:
                // the wait's release scheduled, its re-acquire not yet.
                if let Some(wl) = trace.wait_link_of_notify(id) {
                    if view.contains(wl.release) && !scheduled.contains_key(&wl.release) {
                        return Err(ScheduleError::WaitNotifyMismatch(id));
                    }
                    if scheduled.contains_key(&wl.acquire) {
                        return Err(ScheduleError::WaitNotifyMismatch(id));
                    }
                }
            }
            _ => {}
        }
        scheduled.insert(id, step);
    }
    Ok(())
}

/// Replays the schedule's writes and reports the value each scheduled *read*
/// would observe (last scheduled write to the variable, else the view's
/// initial value). Used to decide which reads keep their original values in
/// a witness (the concretely feasible reads of paper §3.2).
pub fn schedule_read_values(view: &View<'_>, schedule: &Schedule) -> HashMap<EventId, Value> {
    let mut values: HashMap<VarId, Value> = HashMap::new();
    let mut out = HashMap::new();
    for &id in &schedule.0 {
        match view.event(id).kind {
            EventKind::Read { var, .. } => {
                let v = values
                    .get(&var)
                    .copied()
                    .unwrap_or_else(|| view.initial_value(var));
                out.insert(id, v);
            }
            EventKind::Write { var, value } => {
                values.insert(var, value);
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::event::{Event, Loc};
    use crate::trace::TraceData;
    use crate::view::ViewExt;

    fn raw(events: Vec<Event>) -> Trace {
        Trace::from_data(TraceData {
            events,
            ..Default::default()
        })
    }

    fn ev(t: u32, kind: EventKind) -> Event {
        Event::new(ThreadId(t), kind, Loc(0))
    }

    #[test]
    fn consistent_builder_trace_passes() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, x, 1);
        b.release(t2, l);
        b.join(t1, t2);
        assert!(check_consistency(&b.finish()).is_empty());
    }

    #[test]
    fn inconsistent_read_detected() {
        let t = raw(vec![
            ev(
                0,
                EventKind::Write {
                    var: VarId(0),
                    value: Value(1),
                },
            ),
            ev(
                0,
                EventKind::Read {
                    var: VarId(0),
                    value: Value(7),
                },
            ),
        ]);
        let errs = check_consistency(&t);
        assert!(matches!(errs[0], TraceError::InconsistentRead { .. }));
    }

    #[test]
    fn read_of_initial_value_consistent() {
        let mut data = TraceData {
            events: vec![ev(
                0,
                EventKind::Read {
                    var: VarId(0),
                    value: Value(5),
                },
            )],
            ..Default::default()
        };
        data.initial_values.insert(VarId(0), Value(5));
        assert!(check_consistency(&Trace::from_data(data)).is_empty());
    }

    #[test]
    fn mutex_violations_detected() {
        let t = raw(vec![
            ev(0, EventKind::Acquire { lock: LockId(0) }),
            ev(1, EventKind::Acquire { lock: LockId(0) }),
        ]);
        let errs = check_consistency(&t);
        assert!(matches!(errs[0], TraceError::AcquireHeldLock { .. }));
        let t = raw(vec![ev(0, EventKind::Release { lock: LockId(0) })]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::ReleaseWithoutAcquire { .. }
        ));
    }

    #[test]
    fn mhb_violations_detected() {
        // begin without fork
        let t = raw(vec![ev(1, EventKind::Begin)]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::BeginWithoutFork { .. }
        ));
        // join before end
        let t = raw(vec![
            ev(0, EventKind::Fork { child: ThreadId(1) }),
            ev(0, EventKind::Join { child: ThreadId(1) }),
        ]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::JoinBeforeEnd { .. }
        ));
        // event after end
        let t = raw(vec![ev(0, EventKind::End), ev(0, EventKind::Branch)]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::EventAfterEnd { .. }
        ));
        // forked thread acting before begin
        let t = raw(vec![
            ev(0, EventKind::Fork { child: ThreadId(1) }),
            ev(1, EventKind::Branch),
        ]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::EventBeforeBegin { .. }
        ));
    }

    #[test]
    fn rwlock_consistency_rules() {
        // Concurrent readers are consistent.
        let t = raw(vec![
            ev(0, EventKind::AcquireRead { lock: LockId(0) }),
            ev(1, EventKind::AcquireRead { lock: LockId(0) }),
            ev(0, EventKind::ReleaseRead { lock: LockId(0) }),
            ev(1, EventKind::ReleaseRead { lock: LockId(0) }),
        ]);
        assert!(check_consistency(&t).is_empty());
        // Write acquire under an open read hold is rejected.
        let t = raw(vec![
            ev(0, EventKind::AcquireRead { lock: LockId(0) }),
            ev(1, EventKind::Acquire { lock: LockId(0) }),
        ]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::AcquireHeldLock { .. }
        ));
        // Read acquire under a write hold is rejected.
        let t = raw(vec![
            ev(0, EventKind::Acquire { lock: LockId(0) }),
            ev(1, EventKind::AcquireRead { lock: LockId(0) }),
        ]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::AcquireHeldLock { .. }
        ));
        // Read release without a hold is rejected.
        let t = raw(vec![ev(0, EventKind::ReleaseRead { lock: LockId(0) })]);
        assert!(matches!(
            check_consistency(&t)[0],
            TraceError::ReleaseWithoutAcquire { .. }
        ));
    }

    #[test]
    fn schedule_rwlock_rules() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0
        b.acquire_read(t1, l); // e1
        b.release_read(t1, l); // e2
        b.acquire(t2, l); // e3 begin, e4 acquire
        b.release(t2, l); // e5
        let tr = b.finish();
        let v = tr.full_view();
        // Write acquire while the read span is still open is rejected.
        let bad = Schedule(vec![EventId(0), EventId(1), EventId(3), EventId(4)]);
        assert_eq!(
            check_schedule(&v, &bad),
            Err(ScheduleError::MutexViolation(EventId(4)))
        );
        // Reordering with the read span closed first is accepted.
        let ok = Schedule(vec![
            EventId(0),
            EventId(3),
            EventId(4),
            EventId(5),
            EventId(1),
            EventId(2),
        ]);
        assert_eq!(check_schedule(&v, &ok), Ok(()));
    }

    #[test]
    fn schedule_recv_requires_send() {
        let mut b = TraceBuilder::new();
        let c = b.new_chan("c");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0
        let s = b.send(t1, c); // e1
        b.recv(t2, c, Some(s)); // e2 begin, e3 recv
        let tr = b.finish();
        let v = tr.full_view();
        let bad = Schedule(vec![EventId(0), EventId(2), EventId(3)]);
        assert_eq!(
            check_schedule(&v, &bad),
            Err(ScheduleError::RecvBeforeSend(EventId(3)))
        );
        let ok = Schedule(vec![EventId(0), EventId(1), EventId(2), EventId(3)]);
        assert_eq!(check_schedule(&v, &ok), Ok(()));
    }

    fn fork_lock_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0
        b.acquire(t1, l); // e1
        b.write(t1, x, 1); // e2
        b.release(t1, l); // e3
        b.acquire(t2, l); // e4 begin, e5 acquire
        b.read(t2, x, 1); // e6
        b.release(t2, l); // e7
        b.finish()
    }

    #[test]
    fn valid_reordered_schedule_accepted() {
        let tr = fork_lock_trace();
        let v = tr.full_view();
        // t2's critical section first, then t1's.
        let sched = Schedule(vec![
            EventId(0),
            EventId(4),
            EventId(5),
            EventId(6),
            EventId(7),
            EventId(1),
            EventId(2),
            EventId(3),
        ]);
        assert_eq!(check_schedule(&v, &sched), Ok(()));
        let vals = schedule_read_values(&v, &sched);
        // Reordered: the read now sees the initial value 0, not 1.
        assert_eq!(vals[&EventId(6)], Value(0));
    }

    #[test]
    fn schedule_rejects_mutex_overlap() {
        let tr = fork_lock_trace();
        let v = tr.full_view();
        let sched = Schedule(vec![EventId(0), EventId(1), EventId(4), EventId(5)]);
        assert_eq!(
            check_schedule(&v, &sched),
            Err(ScheduleError::MutexViolation(EventId(5)))
        );
    }

    #[test]
    fn schedule_rejects_begin_before_fork() {
        let tr = fork_lock_trace();
        let v = tr.full_view();
        let sched = Schedule(vec![EventId(4)]);
        assert_eq!(
            check_schedule(&v, &sched),
            Err(ScheduleError::BeginBeforeFork(EventId(4)))
        );
    }

    #[test]
    fn schedule_rejects_thread_order_breaks() {
        let tr = fork_lock_trace();
        let v = tr.full_view();
        // e2 (write) before e1 (acquire) in the same thread.
        let sched = Schedule(vec![EventId(2)]);
        assert!(matches!(
            check_schedule(&v, &sched),
            Err(ScheduleError::NotThreadPrefix { .. })
        ));
        // duplicates rejected
        let sched = Schedule(vec![EventId(0), EventId(0)]);
        assert_eq!(
            check_schedule(&v, &sched),
            Err(ScheduleError::BadEvent(EventId(0)))
        );
    }

    #[test]
    fn schedule_join_requires_end() {
        let mut b = TraceBuilder::new();
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0
        b.branch(t2); // e1 begin, e2 branch
        b.join(t1, t2); // e3 end, e4 join
        let tr = b.finish();
        let v = tr.full_view();
        let sched = Schedule(vec![EventId(0), EventId(1), EventId(2), EventId(4)]);
        assert_eq!(
            check_schedule(&v, &sched),
            Err(ScheduleError::JoinBeforeEnd(EventId(4)))
        );
    }

    #[test]
    fn schedule_wait_notify_matching() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0
        b.acquire(t1, l); // e1
        let tok = b.wait_begin(t1, l); // e2 release
        b.acquire(t2, l); // e3 begin(t2), e4 acquire
        let n = b.notify(t2, l); // e5
        b.release(t2, l); // e6
        b.wait_end(tok, Some(n)); // e7 acquire
        b.release(t1, l); // e8
        let tr = b.finish();
        let v = tr.full_view();
        // Original order is fine.
        let orig = Schedule(v.ids().collect());
        assert_eq!(check_schedule(&v, &orig), Ok(()));
        // Re-acquire before the notify is rejected.
        let bad = Schedule(vec![EventId(0), EventId(1), EventId(2), EventId(7)]);
        assert_eq!(
            check_schedule(&v, &bad),
            Err(ScheduleError::WaitNotifyMismatch(EventId(7)))
        );
    }
}
