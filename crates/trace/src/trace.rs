//! The [`Trace`] container: an observed sequence of events plus metadata and
//! light derived indexes (paper §2.2).

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{Event, EventId, EventKind, Loc, ThreadId, Value, VarId};

/// A matched `wait()` occurrence (paper §4): the `release`/`acquire` pair the
/// wait desugars to, plus the `Notify` event that woke it in the observed
/// execution (if any; a wait may be pending at trace end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitLink {
    /// The release event emitted when the thread started waiting.
    pub release: EventId,
    /// The re-acquire event emitted when the thread woke up.
    pub acquire: EventId,
    /// The notify event matched with this wait in the original execution.
    pub notify: Option<EventId>,
}

/// A matched channel message: the `Send` that produced it and the `Recv`
/// that consumed it. Induces a must-happen-before edge send → recv,
/// analogous to a [`WaitLink`]'s notify → re-acquire edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgLink {
    /// The send event that produced the message.
    pub send: EventId,
    /// The recv event that consumed it.
    pub recv: EventId,
}

/// Serializable core data of a trace (no derived indexes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceData {
    /// The observed events, in execution order.
    pub events: Vec<Event>,
    /// Initial values of shared variables (default `0`).
    pub initial_values: BTreeMap<VarId, Value>,
    /// Variables declared volatile: conflicting accesses to them are not
    /// data races (paper §4) but act as synchronization for HB.
    pub volatiles: Vec<VarId>,
    /// Matched wait/notify occurrences.
    pub wait_links: Vec<WaitLink>,
    /// Matched channel send/recv occurrences. Serialized as an *optional*
    /// metadata field so documents written by earlier builds still load.
    pub msg_links: Vec<MsgLink>,
    /// Optional human-readable names for program locations.
    pub loc_names: BTreeMap<Loc, String>,
    /// Optional human-readable names for variables.
    pub var_names: BTreeMap<VarId, String>,
}

/// Counts of a trace's events by class; the trace-metric columns of the
/// paper's Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of distinct threads.
    pub threads: usize,
    /// Total number of events.
    pub events: usize,
    /// Number of read/write events.
    pub reads_writes: usize,
    /// Number of synchronization events (everything but accesses/branches).
    pub syncs: usize,
    /// Number of branch events.
    pub branches: usize,
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#Thrd={} #Event={} #RW={} #Sync={} #Br={}",
            self.threads, self.events, self.reads_writes, self.syncs, self.branches
        )
    }
}

/// An observed, sequentially consistent execution trace.
///
/// A `Trace` owns the event sequence plus its thread list, id-space sizes
/// and link lookups. Per-thread event lists and the heavyweight per-window
/// indexes (vector clocks, locksets, critical sections) live on
/// [`View`](crate::View), obtained via
/// [`ViewExt::full_view`](crate::ViewExt::full_view) or
/// [`ViewExt::windows`](crate::ViewExt::windows).
///
/// # Examples
///
/// ```
/// use rvtrace::{TraceBuilder, ThreadId};
///
/// let mut b = TraceBuilder::new();
/// let t0 = ThreadId::MAIN;
/// let x = b.var("x");
/// b.write(t0, x, 1);
/// let trace = b.finish();
/// assert_eq!(trace.stats().reads_writes, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    data: TraceData,
    // ---- derived ----
    threads: Vec<ThreadId>,
    thread_lookup: BTreeMap<ThreadId, usize>,
    /// The first `Fork` of each thread, indexed like [`Trace::threads`].
    fork_of: Vec<Option<EventId>>,
    n_vars: usize,
    n_locks: usize,
    n_chans: usize,
    volatile_set: Vec<bool>,
    /// For each event id of a `Notify`, the wait link index it satisfied.
    /// Dense arena indexed by event id ([`LINK_NONE`] = no link), like the
    /// other derived indexes — link lookups are hot in the view/slice
    /// paths and the dense form makes `from_data` allocation-cheap.
    notify_to_link: Vec<u32>,
    /// For each wait re-acquire event, the wait link index (dense, see
    /// [`Trace::notify_to_link`]).
    wait_acquire_to_link: Vec<u32>,
    /// For each linked `Recv` event, the msg link index (dense, see
    /// [`Trace::notify_to_link`]).
    recv_to_link: Vec<u32>,
}

/// Sentinel for "no link" in the dense per-event link arenas.
const LINK_NONE: u32 = u32::MAX;

/// Records `index` for `id` in a dense per-event arena, growing it when a
/// (possibly damaged) link points past the event range — the map-based
/// index accepted such ids, so the arena must too.
fn set_link(arena: &mut Vec<u32>, id: EventId, index: usize) {
    if id.index() >= arena.len() {
        arena.resize(id.index() + 1, LINK_NONE);
    }
    arena[id.index()] = index as u32;
}

/// Dense-arena lookup: the link index recorded for `id`, if any.
#[inline]
fn get_link(arena: &[u32], id: EventId) -> Option<usize> {
    match arena.get(id.index()).copied() {
        Some(i) if i != LINK_NONE => Some(i as usize),
        _ => None,
    }
}

impl From<TraceData> for Trace {
    fn from(data: TraceData) -> Self {
        Trace::from_data(data)
    }
}

impl From<Trace> for TraceData {
    fn from(t: Trace) -> Self {
        t.data
    }
}

impl Trace {
    /// Builds a trace from raw parts. Indexes are derived eagerly; the events
    /// are *not* checked for consistency (use
    /// [`check_consistency`](crate::consistency::check_consistency)).
    pub fn from_data(data: TraceData) -> Self {
        let mut thread_index: BTreeMap<ThreadId, usize> = BTreeMap::new();
        let mut threads = Vec::new();
        let mut fork_of: Vec<Option<EventId>> = Vec::new();
        let mut n_vars = 0usize;
        let mut n_locks = 0usize;
        let mut n_chans = 0usize;
        // Threads run in bursts: the map is consulted only when the thread
        // changes (and for a fork/join child below).
        let mut last_thread = None;
        for (i, e) in data.events.iter().enumerate() {
            if last_thread != Some(e.thread) {
                last_thread = Some(e.thread);
                thread_index.entry(e.thread).or_insert_with(|| {
                    threads.push(e.thread);
                    fork_of.push(None);
                    threads.len() - 1
                });
            }
            if let Some(v) = e.kind.var() {
                n_vars = n_vars.max(v.index() + 1);
            }
            if let Some(l) = e.kind.lock() {
                n_locks = n_locks.max(l.index() + 1);
            }
            if let Some(c) = e.kind.chan() {
                n_chans = n_chans.max(c.index() + 1);
            }
            // Forked/joined threads count even if they produced no events.
            match e.kind {
                EventKind::Fork { child } | EventKind::Join { child } => {
                    let ci = *thread_index.entry(child).or_insert_with(|| {
                        threads.push(child);
                        fork_of.push(None);
                        threads.len() - 1
                    });
                    if matches!(e.kind, EventKind::Fork { .. }) {
                        fork_of[ci].get_or_insert(EventId(i as u32));
                    }
                }
                _ => {}
            }
        }
        for v in &data.initial_values {
            n_vars = n_vars.max(v.0.index() + 1);
        }
        let mut volatile_set = vec![false; n_vars];
        for v in &data.volatiles {
            if v.index() >= volatile_set.len() {
                volatile_set.resize(v.index() + 1, false);
            }
            volatile_set[v.index()] = true;
        }
        let arena_len = if data.wait_links.is_empty() && data.msg_links.is_empty() {
            0 // the common case: no sync links, no arena allocation
        } else {
            data.events.len()
        };
        let mut notify_to_link = vec![LINK_NONE; arena_len];
        let mut wait_acquire_to_link = vec![LINK_NONE; arena_len];
        let mut recv_to_link = vec![LINK_NONE; arena_len];
        for (i, wl) in data.wait_links.iter().enumerate() {
            if let Some(n) = wl.notify {
                set_link(&mut notify_to_link, n, i);
            }
            set_link(&mut wait_acquire_to_link, wl.acquire, i);
        }
        for (i, ml) in data.msg_links.iter().enumerate() {
            set_link(&mut recv_to_link, ml.recv, i);
        }
        Trace {
            data,
            thread_lookup: thread_index,
            threads,
            fork_of,
            n_vars,
            n_locks,
            n_chans,
            volatile_set,
            notify_to_link,
            wait_acquire_to_link,
            recv_to_link,
        }
    }

    /// The events in observed execution order.
    #[inline]
    pub fn events(&self) -> &[Event] {
        &self.data.events
    }

    /// The event with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn event(&self, id: EventId) -> &Event {
        &self.data.events[id.index()]
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.events.len()
    }

    /// True when the trace contains no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.events.is_empty()
    }

    /// All threads observed (in order of first appearance), including
    /// forked-but-silent threads.
    #[inline]
    pub fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// Dense index of a thread within [`Trace::threads`].
    #[inline]
    pub fn thread_index(&self, t: ThreadId) -> Option<usize> {
        self.thread_lookup.get(&t).copied()
    }

    /// The event that forked thread `t` (its first `Fork`), if any.
    #[inline]
    pub fn fork_of(&self, t: ThreadId) -> Option<EventId> {
        self.fork_of[self.thread_index(t)?]
    }

    /// Number of distinct threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of distinct shared variables (dense id space).
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of distinct locks (dense id space).
    #[inline]
    pub fn n_locks(&self) -> usize {
        self.n_locks
    }

    /// Number of distinct channels (dense id space).
    #[inline]
    pub fn n_chans(&self) -> usize {
        self.n_chans
    }

    /// The initial value of a variable (defaults to `0`).
    #[inline]
    pub fn initial_value(&self, v: VarId) -> Value {
        self.data
            .initial_values
            .get(&v)
            .copied()
            .unwrap_or_default()
    }

    /// Whether the variable was declared volatile.
    #[inline]
    pub fn is_volatile(&self, v: VarId) -> bool {
        self.volatile_set.get(v.index()).copied().unwrap_or(false)
    }

    /// The matched wait/notify occurrences.
    #[inline]
    pub fn wait_links(&self) -> &[WaitLink] {
        &self.data.wait_links
    }

    /// The wait link satisfied by the given `Notify` event, if any.
    pub fn wait_link_of_notify(&self, notify: EventId) -> Option<&WaitLink> {
        get_link(&self.notify_to_link, notify).map(|i| &self.data.wait_links[i])
    }

    /// The wait link whose re-acquire is the given event, if any.
    pub fn wait_link_of_acquire(&self, acquire: EventId) -> Option<&WaitLink> {
        get_link(&self.wait_acquire_to_link, acquire).map(|i| &self.data.wait_links[i])
    }

    /// The matched channel messages.
    #[inline]
    pub fn msg_links(&self) -> &[MsgLink] {
        &self.data.msg_links
    }

    /// The msg link whose recv is the given event, if any.
    pub fn msg_link_of_recv(&self, recv: EventId) -> Option<&MsgLink> {
        get_link(&self.recv_to_link, recv).map(|i| &self.data.msg_links[i])
    }

    /// Human-readable name for a program location, if registered.
    pub fn loc_name(&self, loc: Loc) -> Option<&str> {
        self.data.loc_names.get(&loc).map(String::as_str)
    }

    /// Human-readable name for a variable, if registered.
    pub fn var_name(&self, var: VarId) -> Option<&str> {
        self.data.var_names.get(&var).map(String::as_str)
    }

    /// Raw serializable data.
    #[inline]
    pub fn data(&self) -> &TraceData {
        &self.data
    }

    /// Trace metrics in the shape of the paper's Table 1 columns 3–7.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats {
            threads: self.threads.len(),
            events: self.len(),
            ..Default::default()
        };
        for e in &self.data.events {
            if e.kind.is_access() {
                s.reads_writes += 1;
            } else if e.kind.is_branch() {
                s.branches += 1;
            } else {
                s.syncs += 1;
            }
        }
        s
    }

    /// Event count per [`EventKind::name`], in name order — the event-kind
    /// histogram the `--metrics` report emits as `trace.kind.*` counters.
    pub fn kind_counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.data.events {
            *counts.entry(e.kind.name()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, LockId};

    fn ev(t: u32, kind: EventKind) -> Event {
        Event::new(ThreadId(t), kind, Loc(0))
    }

    fn sample() -> Trace {
        let events = vec![
            ev(0, EventKind::Fork { child: ThreadId(1) }),
            ev(
                0,
                EventKind::Write {
                    var: VarId(0),
                    value: Value(1),
                },
            ),
            ev(1, EventKind::Begin),
            ev(
                1,
                EventKind::Read {
                    var: VarId(0),
                    value: Value(1),
                },
            ),
            ev(1, EventKind::Branch),
            ev(1, EventKind::End),
            ev(0, EventKind::Join { child: ThreadId(1) }),
        ];
        Trace::from_data(TraceData {
            events,
            ..Default::default()
        })
    }

    #[test]
    fn indexes_and_stats() {
        let t = sample();
        assert_eq!(t.len(), 7);
        assert_eq!(t.threads(), &[ThreadId(0), ThreadId(1)]);
        let s = t.stats();
        assert_eq!(s.threads, 2);
        assert_eq!(s.reads_writes, 2);
        assert_eq!(s.branches, 1);
        assert_eq!(s.syncs, 4);
        assert_eq!(format!("{s}"), "#Thrd=2 #Event=7 #RW=2 #Sync=4 #Br=1");
    }

    #[test]
    fn forked_but_silent_thread_is_known() {
        let events = vec![ev(0, EventKind::Fork { child: ThreadId(7) })];
        let t = Trace::from_data(TraceData {
            events,
            ..Default::default()
        });
        assert_eq!(t.threads(), &[ThreadId(0), ThreadId(7)]);
    }

    #[test]
    fn initial_values_and_volatiles() {
        let mut data = TraceData::default();
        data.initial_values.insert(VarId(3), Value(9));
        data.volatiles.push(VarId(2));
        let t = Trace::from_data(data);
        assert_eq!(t.initial_value(VarId(3)), Value(9));
        assert_eq!(t.initial_value(VarId(0)), Value(0));
        assert!(t.is_volatile(VarId(2)));
        assert!(!t.is_volatile(VarId(3)));
        assert_eq!(t.n_vars(), 4);
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let s = crate::json::to_json(&t);
        let t2 = crate::json::from_json(&s).unwrap();
        assert_eq!(t2.len(), t.len());
        assert_eq!(t2.stats(), t.stats());
    }

    #[test]
    fn wait_links_indexed() {
        let events = vec![
            ev(0, EventKind::Acquire { lock: LockId(0) }),
            ev(0, EventKind::Release { lock: LockId(0) }), // wait-release
            ev(1, EventKind::Notify { lock: LockId(0) }),
            ev(0, EventKind::Acquire { lock: LockId(0) }), // wait-reacquire
        ];
        let mut data = TraceData {
            events,
            ..Default::default()
        };
        data.wait_links.push(WaitLink {
            release: EventId(1),
            acquire: EventId(3),
            notify: Some(EventId(2)),
        });
        let t = Trace::from_data(data);
        assert_eq!(
            t.wait_link_of_notify(EventId(2)).unwrap().acquire,
            EventId(3)
        );
        assert_eq!(
            t.wait_link_of_acquire(EventId(3)).unwrap().notify,
            Some(EventId(2))
        );
        assert!(t.wait_link_of_notify(EventId(0)).is_none());
    }

    #[test]
    fn msg_links_indexed() {
        use crate::event::ChanId;
        let events = vec![
            ev(0, EventKind::Send { chan: ChanId(1) }),
            ev(1, EventKind::Recv { chan: ChanId(1) }),
        ];
        let mut data = TraceData {
            events,
            ..Default::default()
        };
        data.msg_links.push(MsgLink {
            send: EventId(0),
            recv: EventId(1),
        });
        let t = Trace::from_data(data);
        assert_eq!(t.n_chans(), 2);
        assert_eq!(t.msg_links().len(), 1);
        assert_eq!(t.msg_link_of_recv(EventId(1)).unwrap().send, EventId(0));
        assert!(t.msg_link_of_recv(EventId(0)).is_none());
    }
}
