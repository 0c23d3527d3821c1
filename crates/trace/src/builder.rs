//! Ergonomic construction of traces.
//!
//! [`TraceBuilder`] performs the trace-collection normalizations of paper §4
//! automatically:
//!
//! * `begin(t)` is emitted before the first event of every forked thread;
//! * reentrant lock acquisitions are filtered (only the outermost
//!   acquire/release pair produces events);
//! * `wait()` desugars into a release/acquire pair linked to the matching
//!   `notify` ([`WaitLink`](crate::WaitLink));
//! * `join` emits the child's `end(t)` if it has not ended yet.

use std::collections::BTreeMap;

use crate::event::{ChanId, Event, EventId, EventKind, Loc, LockId, ThreadId, Value, VarId};
use crate::trace::{MsgLink, Trace, TraceData, WaitLink};

#[derive(Debug, Default, Clone)]
struct ThreadState {
    forked: bool,
    begun: bool,
    ended: bool,
    /// Reentrancy depth per lock.
    lock_depth: BTreeMap<LockId, u32>,
    /// Read-mode (shared) reentrancy depth per lock.
    read_depth: BTreeMap<LockId, u32>,
}

/// A token identifying an in-progress `wait()` started with
/// [`TraceBuilder::wait_begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitToken(usize);

/// Incremental builder for [`Trace`]s.
///
/// Every emit method returns the [`EventId`] of the event just recorded
/// (reentrant lock operations return `None` since they are filtered out).
///
/// # Examples
///
/// Build the start of the paper's Figure 4 trace:
///
/// ```
/// use rvtrace::{ThreadId, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let (x, y) = (b.var("x"), b.var("y"));
/// let l = b.new_lock("l");
/// let t1 = ThreadId::MAIN;
/// let t2 = b.fork(t1);
/// b.acquire(t1, l);
/// b.write(t1, x, 1);
/// b.write(t1, y, 1);
/// b.release(t1, l);
/// let trace = b.finish();
/// assert_eq!(trace.stats().syncs, 3); // fork, acquire, release (t2 never acted)
/// assert_eq!(trace.threads(), &[t1, t2]);
/// ```
///
/// # Panics
///
/// The emit methods panic on structurally impossible inputs (acting on an
/// ended thread, releasing an un-held lock); the builder is meant for trusted
/// producers (the simulator, tests). Use
/// [`check_consistency`](crate::consistency::check_consistency) to validate
/// untrusted traces.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    data: TraceData,
    threads: BTreeMap<ThreadId, ThreadState>,
    next_thread: u32,
    next_var: u32,
    next_lock: u32,
    next_chan: u32,
    next_loc: u32,
    /// Pending waits: (thread, lock, release event) by token.
    pending_waits: Vec<(ThreadId, LockId, EventId)>,
    /// Current value of each variable, for read auto-values.
    values: BTreeMap<VarId, Value>,
}

impl TraceBuilder {
    /// Creates a builder with the main thread already started.
    pub fn new() -> Self {
        let mut b = TraceBuilder {
            next_thread: 1,
            ..Default::default()
        };
        b.threads.insert(
            ThreadId::MAIN,
            ThreadState {
                forked: true,
                begun: true,
                ..Default::default()
            },
        );
        b
    }

    /// Registers a fresh shared variable with a debug name.
    pub fn var(&mut self, name: &str) -> VarId {
        let v = VarId(self.next_var);
        self.next_var += 1;
        self.data.var_names.insert(v, name.to_string());
        v
    }

    /// Registers a fresh *volatile* shared variable (paper §4: conflicting
    /// accesses to it are not reported as races).
    pub fn volatile_var(&mut self, name: &str) -> VarId {
        let v = self.var(name);
        self.data.volatiles.push(v);
        v
    }

    /// Registers a fresh lock with a debug name.
    pub fn new_lock(&mut self, name: &str) -> LockId {
        let l = LockId(self.next_lock);
        self.next_lock += 1;
        let _ = name; // lock names are only used for Display via LockId
        l
    }

    /// Registers a fresh channel with a debug name.
    pub fn new_chan(&mut self, name: &str) -> ChanId {
        let c = ChanId(self.next_chan);
        self.next_chan += 1;
        let _ = name; // channel names are only used for Display via ChanId
        c
    }

    /// Sets the initial value of a variable (default `0`).
    pub fn initial(&mut self, var: VarId, value: i64) {
        self.data.initial_values.insert(var, Value(value));
        self.values.insert(var, Value(value));
    }

    /// Registers a named program location to attach to events via the `_at`
    /// method variants.
    pub fn loc(&mut self, name: &str) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        self.data.loc_names.insert(l, name.to_string());
        l
    }

    fn fresh_loc(&mut self) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        l
    }

    fn state(&mut self, t: ThreadId) -> &mut ThreadState {
        self.threads.entry(t).or_default()
    }

    fn push(&mut self, t: ThreadId, kind: EventKind, loc: Loc) -> EventId {
        {
            let st = self.threads.get(&t).cloned().unwrap_or_default();
            assert!(!st.ended, "thread {t} already ended");
            if !st.begun {
                assert!(st.forked, "thread {t} was never forked");
                let bl = self.fresh_loc();
                self.data.events.push(Event::new(t, EventKind::Begin, bl));
                self.state(t).begun = true;
            }
        }
        let id = EventId(self.data.events.len() as u32);
        self.data.events.push(Event::new(t, kind, loc));
        id
    }

    /// Emits `read(t, var, value)` at a fresh location.
    pub fn read(&mut self, t: ThreadId, var: VarId, value: i64) -> EventId {
        let loc = self.fresh_loc();
        self.read_at(t, var, value, loc)
    }

    /// Emits `read(t, var, value)` at an explicit location.
    pub fn read_at(&mut self, t: ThreadId, var: VarId, value: i64, loc: Loc) -> EventId {
        self.push(
            t,
            EventKind::Read {
                var,
                value: Value(value),
            },
            loc,
        )
    }

    /// Emits a read returning the variable's current value under the trace so
    /// far (its last written value, or its initial value). This keeps
    /// hand-built traces read-consistent by construction.
    pub fn read_current(&mut self, t: ThreadId, var: VarId) -> EventId {
        let v = self.values.get(&var).copied().unwrap_or_default();
        let loc = self.fresh_loc();
        self.push(t, EventKind::Read { var, value: v }, loc)
    }

    /// Emits `write(t, var, value)` at a fresh location.
    pub fn write(&mut self, t: ThreadId, var: VarId, value: i64) -> EventId {
        let loc = self.fresh_loc();
        self.write_at(t, var, value, loc)
    }

    /// Emits `write(t, var, value)` at an explicit location.
    pub fn write_at(&mut self, t: ThreadId, var: VarId, value: i64, loc: Loc) -> EventId {
        self.values.insert(var, Value(value));
        self.push(
            t,
            EventKind::Write {
                var,
                value: Value(value),
            },
            loc,
        )
    }

    /// Emits `branch(t)` at a fresh location.
    pub fn branch(&mut self, t: ThreadId) -> EventId {
        let loc = self.fresh_loc();
        self.branch_at(t, loc)
    }

    /// Emits `branch(t)` at an explicit location.
    pub fn branch_at(&mut self, t: ThreadId, loc: Loc) -> EventId {
        self.push(t, EventKind::Branch, loc)
    }

    /// Emits `acquire(t, lock)`, filtering reentrant acquisitions. Returns
    /// `None` when the acquisition was reentrant (no event emitted).
    pub fn acquire(&mut self, t: ThreadId, lock: LockId) -> Option<EventId> {
        assert!(
            self.state(t).read_depth.get(&lock).copied().unwrap_or(0) == 0,
            "thread {t} write-acquiring {lock} it holds in read mode"
        );
        let depth = self.state(t).lock_depth.entry(lock).or_insert(0);
        *depth += 1;
        if *depth > 1 {
            return None;
        }
        let loc = self.fresh_loc();
        Some(self.push(t, EventKind::Acquire { lock }, loc))
    }

    /// Emits `release(t, lock)`, filtering reentrant releases.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not hold the lock.
    pub fn release(&mut self, t: ThreadId, lock: LockId) -> Option<EventId> {
        let depth = self
            .state(t)
            .lock_depth
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("thread {t} releasing {lock} it never acquired"));
        assert!(*depth > 0, "thread {t} releasing {lock} it does not hold");
        *depth -= 1;
        if *depth > 0 {
            return None;
        }
        let loc = self.fresh_loc();
        Some(self.push(t, EventKind::Release { lock }, loc))
    }

    /// Emits `acquire-read(t, lock)` — a read-mode (shared) acquisition —
    /// filtering reentrant read acquisitions by the same thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread already holds the lock in write mode (lock
    /// upgrades/downgrades are not part of the model).
    pub fn acquire_read(&mut self, t: ThreadId, lock: LockId) -> Option<EventId> {
        assert!(
            self.state(t).lock_depth.get(&lock).copied().unwrap_or(0) == 0,
            "thread {t} read-acquiring {lock} it holds in write mode"
        );
        let depth = self.state(t).read_depth.entry(lock).or_insert(0);
        *depth += 1;
        if *depth > 1 {
            return None;
        }
        let loc = self.fresh_loc();
        Some(self.push(t, EventKind::AcquireRead { lock }, loc))
    }

    /// Emits `release-read(t, lock)`, filtering reentrant read releases.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not hold the lock in read mode.
    pub fn release_read(&mut self, t: ThreadId, lock: LockId) -> Option<EventId> {
        let depth =
            self.state(t).read_depth.get_mut(&lock).unwrap_or_else(|| {
                panic!("thread {t} read-releasing {lock} it never read-acquired")
            });
        assert!(
            *depth > 0,
            "thread {t} read-releasing {lock} it does not hold"
        );
        *depth -= 1;
        if *depth > 0 {
            return None;
        }
        let loc = self.fresh_loc();
        Some(self.push(t, EventKind::ReleaseRead { lock }, loc))
    }

    /// Emits `send(t, chan)` and returns its event id; link it to a recv
    /// via [`TraceBuilder::recv`].
    pub fn send(&mut self, t: ThreadId, chan: ChanId) -> EventId {
        let loc = self.fresh_loc();
        self.push(t, EventKind::Send { chan }, loc)
    }

    /// Emits `recv(t, chan)`, recording a [`MsgLink`] to the send whose
    /// message this recv consumed in the observed execution (if known).
    ///
    /// # Panics
    ///
    /// Panics if `send` names an event that has not been emitted yet (a
    /// message cannot be received before it was sent).
    pub fn recv(&mut self, t: ThreadId, chan: ChanId, send: Option<EventId>) -> EventId {
        if let Some(s) = send {
            assert!(
                s.index() < self.data.events.len(),
                "recv linked to unsent message {s}"
            );
        }
        let loc = self.fresh_loc();
        let id = self.push(t, EventKind::Recv { chan }, loc);
        if let Some(s) = send {
            self.data.msg_links.push(MsgLink { send: s, recv: id });
        }
        id
    }

    /// Emits `fork(parent, child)` for a fresh child thread id and returns
    /// the child id. The child's `begin` is emitted lazily before its first
    /// event.
    pub fn fork(&mut self, parent: ThreadId) -> ThreadId {
        let child = ThreadId(self.next_thread);
        self.next_thread += 1;
        let loc = self.fresh_loc();
        self.push(parent, EventKind::Fork { child }, loc);
        self.state(child).forked = true;
        child
    }

    /// Emits `end(t)` for the child if needed, then `join(parent, child)`.
    ///
    /// # Panics
    ///
    /// Panics if the child was never forked.
    pub fn join(&mut self, parent: ThreadId, child: ThreadId) -> EventId {
        let st = self.threads.get(&child).cloned().unwrap_or_default();
        assert!(st.forked, "joining thread {child} that was never forked");
        if !st.ended {
            self.end(child);
        }
        let loc = self.fresh_loc();
        self.push(parent, EventKind::Join { child }, loc)
    }

    /// Emits `end(t)` explicitly. Idempotent per thread via `join`; calling
    /// twice panics.
    pub fn end(&mut self, t: ThreadId) -> EventId {
        let loc = self.fresh_loc();
        let id = self.push(t, EventKind::End, loc);
        self.state(t).ended = true;
        id
    }

    /// Starts a `wait()` on `lock`: emits the release half and returns a
    /// token to complete the wait with [`TraceBuilder::wait_end`].
    ///
    /// # Panics
    ///
    /// Panics if the thread does not hold the lock (at any reentrancy depth
    /// other than exactly 1; Java semantics require full release, our model
    /// supports only outermost waits).
    pub fn wait_begin(&mut self, t: ThreadId, lock: LockId) -> WaitToken {
        let rel = self
            .release(t, lock)
            .expect("wait() requires outermost lock level");
        self.pending_waits.push((t, lock, rel));
        WaitToken(self.pending_waits.len() - 1)
    }

    /// Emits `notify(t, lock)` and returns its event id; link it to a wait via
    /// [`TraceBuilder::wait_end`].
    pub fn notify(&mut self, t: ThreadId, lock: LockId) -> EventId {
        let loc = self.fresh_loc();
        self.push(t, EventKind::Notify { lock }, loc)
    }

    /// Completes a `wait()`: emits the re-acquire half and records the
    /// [`WaitLink`] to the notify event observed to wake this wait.
    pub fn wait_end(&mut self, token: WaitToken, notify: Option<EventId>) -> EventId {
        let (t, lock, rel) = self.pending_waits[token.0];
        let acq = self
            .acquire(t, lock)
            .expect("wait re-acquire cannot be reentrant");
        self.data.wait_links.push(WaitLink {
            release: rel,
            acquire: acq,
            notify,
        });
        acq
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.data.events.len()
    }

    /// True when no events were emitted yet.
    pub fn is_empty(&self) -> bool {
        self.data.events.is_empty()
    }

    /// Finalizes the trace.
    pub fn finish(self) -> Trace {
        Trace::from_data(self.data)
    }

    /// Lenient ingestion of untrusted raw data: drops events that violate
    /// the consistency axioms (with per-category diagnostics) instead of
    /// rejecting the trace. See [`salvage_trace`](crate::salvage::salvage_trace).
    pub fn salvage(data: TraceData) -> (Trace, crate::salvage::SalvageReport) {
        crate::salvage::salvage_trace(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn auto_begin_for_forked_threads() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        b.write(t2, x, 1);
        let tr = b.finish();
        let kinds: Vec<_> = tr.events().iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Fork { .. }));
        assert!(matches!(kinds[1], EventKind::Begin));
        assert!(matches!(kinds[2], EventKind::Write { .. }));
        assert_eq!(tr.events()[1].thread, t2);
    }

    #[test]
    fn reentrant_locks_filtered() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("l");
        let t = ThreadId::MAIN;
        assert!(b.acquire(t, l).is_some());
        assert!(b.acquire(t, l).is_none()); // reentrant
        assert!(b.release(t, l).is_none()); // inner release
        assert!(b.release(t, l).is_some()); // outermost
        let tr = b.finish();
        assert_eq!(tr.len(), 2);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn release_unheld_panics() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("l");
        b.release(ThreadId::MAIN, l);
    }

    #[test]
    fn join_auto_ends_child() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        b.write(t2, x, 5);
        b.join(ThreadId::MAIN, t2);
        let tr = b.finish();
        let kinds: Vec<_> = tr.events().iter().map(|e| (e.thread, e.kind)).collect();
        assert!(kinds.iter().any(|&(t, k)| t == t2 && k == EventKind::End));
        assert!(matches!(kinds.last().unwrap().1, EventKind::Join { .. }));
    }

    #[test]
    fn wait_notify_links() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        let tok = b.wait_begin(t1, l);
        b.acquire(t2, l);
        let n = b.notify(t2, l);
        b.release(t2, l);
        b.wait_end(tok, Some(n));
        b.release(t1, l);
        let tr = b.finish();
        assert_eq!(tr.wait_links().len(), 1);
        let wl = tr.wait_links()[0];
        assert_eq!(wl.notify, Some(n));
        assert!(matches!(
            tr.event(wl.release).kind,
            EventKind::Release { .. }
        ));
        assert!(matches!(
            tr.event(wl.acquire).kind,
            EventKind::Acquire { .. }
        ));
    }

    #[test]
    fn rwlock_reentrancy_filtered() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("rw");
        let t = ThreadId::MAIN;
        assert!(b.acquire_read(t, l).is_some());
        assert!(b.acquire_read(t, l).is_none()); // reentrant read
        assert!(b.release_read(t, l).is_none());
        assert!(b.release_read(t, l).is_some());
        let tr = b.finish();
        assert_eq!(tr.len(), 2);
        assert!(matches!(tr.events()[0].kind, EventKind::AcquireRead { .. }));
    }

    #[test]
    #[should_panic(expected = "write-acquiring")]
    fn write_acquire_under_read_hold_panics() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("rw");
        b.acquire_read(ThreadId::MAIN, l);
        b.acquire(ThreadId::MAIN, l);
    }

    #[test]
    fn channel_links_recorded() {
        let mut b = TraceBuilder::new();
        let c = b.new_chan("ch");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let s = b.send(t1, c);
        let r = b.recv(t2, c, Some(s));
        let tr = b.finish();
        assert_eq!(tr.msg_links().len(), 1);
        assert_eq!(tr.msg_links()[0], MsgLink { send: s, recv: r });
        // Unlinked recv (e.g. message from outside the trace) records no link.
        let mut b = TraceBuilder::new();
        let c = b.new_chan("ch");
        b.recv(ThreadId::MAIN, c, None);
        assert!(b.finish().msg_links().is_empty());
    }

    #[test]
    fn read_current_tracks_last_write() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.initial(x, 7);
        let t = ThreadId::MAIN;
        let r0 = b.read_current(t, x);
        b.write(t, x, 3);
        let r1 = b.read_current(t, x);
        let tr = b.finish();
        assert_eq!(tr.event(r0).kind.value().unwrap().0, 7);
        assert_eq!(tr.event(r1).kind.value().unwrap().0, 3);
    }

    #[test]
    fn volatile_registration() {
        let mut b = TraceBuilder::new();
        let v = b.volatile_var("y");
        b.write(ThreadId::MAIN, v, 1);
        let tr = b.finish();
        assert!(tr.is_volatile(v));
    }
}
