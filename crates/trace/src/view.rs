//! Windowed views over a trace.
//!
//! Race analysis — both the paper's maximal technique and all the baselines —
//! runs on fixed-size windows of the trace (paper §4, "Handling long
//! traces"). A [`View`] is a contiguous range of a [`Trace`] together with
//! the eagerly computed per-window indexes every detector needs:
//!
//! * variable values at window start (window-local "initial values"),
//! * locks held at window start (for boundary-crossing critical sections),
//! * must-happen-before vector clocks,
//! * per-event locksets,
//! * read/write/branch indexes and critical-section spans,
//! * the window's order facts: its fork→begin/end→join edges, its
//!   complete wait links and the locks it touches — derived here once, so
//!   the encoder, the slicer, the tier screens and the baselines all read
//!   the same lists.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

use crate::event::{Cop, Event, EventId, EventKind, LockId, ThreadId, Value, VarId};
use crate::trace::{Trace, WaitLink};
use crate::vector_clock::VectorClock;

/// A maximal same-lock region `[acquire, release]` within a view.
///
/// `acquire` is `None` when the lock was already held at window start;
/// `release` is `None` when the lock is still held at window end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsSpan {
    /// The thread holding the lock.
    pub thread: ThreadId,
    /// The lock.
    pub lock: LockId,
    /// The acquire event, if inside the view.
    pub acquire: Option<EventId>,
    /// The release event, if inside the view.
    pub release: Option<EventId>,
}

/// Running state carried across window boundaries: variable values and
/// held locks at a window's start.
///
/// Public so streaming drivers can materialize window [`View`]s one at a
/// time — advance the boundary over each window's events as they arrive
/// (no trace-length state beyond this struct), and build the next window's
/// view from it. [`WindowCursor`] is the one driver that does so, over a
/// whole trace or over the trace *prefixes* a streaming parser produces.
#[derive(Debug, Clone)]
pub struct WindowBoundary {
    values: Vec<Value>,
    held: Vec<(ThreadId, LockId)>,
    /// Read-mode (shared) holds open at the boundary. Kept separate from
    /// `held` so every existing write-mode consumer (mutual exclusion,
    /// critical-section spans, locksets) is untouched by the RwLock
    /// vocabulary.
    held_read: Vec<(ThreadId, LockId)>,
}

impl WindowBoundary {
    /// Boundary state at the start of a trace (its initial values, no
    /// locks held).
    pub fn initial(trace: &Trace) -> Self {
        let values = (0..trace.n_vars() as u32)
            .map(|v| trace.initial_value(VarId(v)))
            .collect();
        WindowBoundary {
            values,
            held: Vec::new(),
            held_read: Vec::new(),
        }
    }

    /// Boundary state at the start of a trace known only by its metadata —
    /// for streaming ingestion, where the full event count (and thus
    /// `n_vars`) is unknown while windows are already being built. Values
    /// beyond the map's largest key are grown on demand by
    /// [`advance`](WindowBoundary::advance) with `Value::default()`,
    /// matching [`Trace::initial_value`]'s fallback for unmapped
    /// variables.
    pub fn from_initial_values(initial_values: &BTreeMap<VarId, Value>) -> Self {
        let n = initial_values
            .keys()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let mut values = vec![Value::default(); n];
        for (&var, &value) in initial_values {
            values[var.index()] = value;
        }
        WindowBoundary {
            values,
            held: Vec::new(),
            held_read: Vec::new(),
        }
    }

    /// Advances the boundary over `events[range]` — the window that was
    /// just closed. Takes a raw event slice (not a [`Trace`]) so streaming
    /// callers can advance over a partially read trace.
    pub fn advance(&mut self, events: &[Event], range: Range<usize>) {
        for e in &events[range] {
            match e.kind {
                EventKind::Write { var, value } => {
                    if var.index() >= self.values.len() {
                        self.values.resize(var.index() + 1, Value::default());
                    }
                    self.values[var.index()] = value;
                }
                EventKind::Acquire { lock } => self.held.push((e.thread, lock)),
                EventKind::Release { lock } => {
                    if let Some(p) = self
                        .held
                        .iter()
                        .position(|&(t, l)| t == e.thread && l == lock)
                    {
                        self.held.swap_remove(p);
                    }
                }
                EventKind::AcquireRead { lock } => self.held_read.push((e.thread, lock)),
                EventKind::ReleaseRead { lock } => {
                    if let Some(p) = self
                        .held_read
                        .iter()
                        .position(|&(t, l)| t == e.thread && l == lock)
                    {
                        self.held_read.swap_remove(p);
                    }
                }
                _ => {}
            }
        }
    }

    /// Builds the view of `trace[range]` with this boundary as the
    /// window-start state. The boundary must have been advanced over
    /// exactly `trace[..range.start]`.
    pub fn view<'a>(&self, trace: &'a Trace, range: Range<usize>) -> View<'a> {
        View::build(trace, range.start, range.end, self)
    }
}

/// A contiguous window of a trace with all per-window detector indexes.
///
/// Obtain views with [`Trace::full_view`](ViewExt::full_view) or
/// [`Trace::windows`](ViewExt::windows).
///
/// # Examples
///
/// ```
/// use rvtrace::{ThreadId, TraceBuilder, ViewExt};
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// let w = b.write(ThreadId::MAIN, x, 1);
/// let t2 = b.fork(ThreadId::MAIN);
/// let r = b.read(t2, x, 1);
/// let trace = b.finish();
/// let view = trace.full_view();
/// assert!(view.mhb(w, r)); // write → fork → begin → read
/// ```
#[derive(Debug)]
pub struct View<'a> {
    trace: &'a Trace,
    start: usize,
    end: usize,
    initial: Vec<Value>,
    held_at_start: Vec<(ThreadId, LockId)>,
    held_read_at_start: Vec<(ThreadId, LockId)>,
    thread_events: Vec<Vec<EventId>>,
    vpos: Vec<u32>,
    reads_by_var: Vec<Vec<EventId>>,
    writes_by_var: Vec<Vec<EventId>>,
    reads_by_thread: Vec<Vec<EventId>>,
    branches_by_thread: Vec<Vec<EventId>>,
    cs_by_lock: Vec<Vec<CsSpan>>,
    /// Read-mode spans, indexed separately so [`View::critical_sections`]
    /// stays write-only (mutual exclusion applies between a write span and
    /// anything, never between two read spans).
    read_cs_by_lock: Vec<Vec<CsSpan>>,
    lockset_ids: Vec<u32>,
    lockset_pool: Vec<Vec<LockId>>,
    clocks: Vec<VectorClock>,
    /// Whether the window contains extended-vocabulary synchronization
    /// (RwLock read mode, channel send/recv).
    has_extended: bool,
    /// In-view fork→begin and end→join edges, in event order of the target.
    mhb_edges: Vec<(EventId, EventId)>,
    /// Wait links with release, notify and re-acquire all in the view.
    wait_links: Vec<WaitLink>,
    /// Per view offset: the index into `wait_links` of the link the event
    /// is an endpoint of (`u32::MAX` = none; empty when there are no links).
    link_of: Vec<u32>,
    /// Ascending ids of the locks with a write or read span in the view.
    locks: Vec<LockId>,
}

impl<'a> View<'a> {
    fn build(trace: &'a Trace, start: usize, end: usize, carry: &WindowBoundary) -> Self {
        let n_threads = trace.n_threads();
        let n_vars = trace.n_vars();
        let n_locks = trace.n_locks();
        let len = end - start;

        let mut thread_events = vec![Vec::new(); n_threads];
        let mut vpos = vec![0u32; len];
        let mut reads_by_var = vec![Vec::new(); n_vars];
        let mut writes_by_var = vec![Vec::new(); n_vars];
        let mut reads_by_thread = vec![Vec::new(); n_threads];
        let mut branches_by_thread = vec![Vec::new(); n_threads];
        let mut cs_by_lock: Vec<Vec<CsSpan>> = vec![Vec::new(); n_locks];
        let mut open_by_lock: Vec<Option<(ThreadId, Option<EventId>)>> = vec![None; n_locks];
        for &(t, l) in &carry.held {
            open_by_lock[l.index()] = Some((t, None));
        }
        let mut read_cs_by_lock: Vec<Vec<CsSpan>> = vec![Vec::new(); n_locks];
        // Several read-mode holds can be open on one lock at once.
        let mut open_read_by_lock: Vec<Vec<(ThreadId, Option<EventId>)>> =
            vec![Vec::new(); n_locks];
        for &(t, l) in &carry.held_read {
            open_read_by_lock[l.index()].push((t, None));
        }
        let mut has_extended = false;
        let mut lockset_ids = vec![0u32; len];
        let mut lockset_pool: Vec<Vec<LockId>> = vec![Vec::new()];
        let mut lockset_lookup: HashMap<Vec<LockId>, u32> = HashMap::new();
        lockset_lookup.insert(Vec::new(), 0);
        let mut cur_lockset: Vec<Vec<LockId>> = vec![Vec::new(); n_threads];
        for &(t, l) in &carry.held {
            if let Some(ti) = trace.thread_index(t) {
                cur_lockset[ti].push(l);
                cur_lockset[ti].sort_unstable();
            }
        }
        let mut clocks: Vec<VectorClock> = Vec::with_capacity(len);
        let mut cur_clock: Vec<VectorClock> = vec![VectorClock::new(n_threads); n_threads];
        let mut fork_clock: Vec<Option<VectorClock>> = vec![None; n_threads];
        let mut end_clock: Vec<Option<VectorClock>> = vec![None; n_threads];
        // Begin and join events: the targets of the view's fork/join edges,
        // resolved once every thread's in-view sequence is known.
        let mut edge_targets: Vec<EventId> = Vec::new();

        for i in start..end {
            let id = EventId(i as u32);
            let e = &trace.events()[i];
            let ti = trace.thread_index(e.thread).expect("event thread indexed");
            let o = i - start;

            // Vector clock: join incoming MHB edges before counting the event.
            match e.kind {
                EventKind::Begin => {
                    edge_targets.push(id);
                    if let Some(fc) = &fork_clock[ti] {
                        let fc = fc.clone();
                        cur_clock[ti].join(&fc);
                    }
                }
                EventKind::Join { child } => {
                    edge_targets.push(id);
                    if let Some(ci) = trace.thread_index(child) {
                        if let Some(ec) = &end_clock[ci] {
                            let ec = ec.clone();
                            cur_clock[ti].join(&ec);
                        }
                    }
                }
                EventKind::Recv { .. } => {
                    // A linked recv must-happen-after its send (the encoder
                    // asserts the same edge, so treating it as MHB is sound).
                    if let Some(ml) = trace.msg_link_of_recv(id) {
                        if ml.send.index() >= start && ml.send.index() < i {
                            let sc = clocks[ml.send.index() - start].clone();
                            cur_clock[ti].join(&sc);
                        }
                    }
                }
                _ => {}
            }
            cur_clock[ti].tick(ti);
            clocks.push(cur_clock[ti].clone());
            match e.kind {
                EventKind::Fork { child } => {
                    if let Some(ci) = trace.thread_index(child) {
                        fork_clock[ci] = Some(cur_clock[ti].clone());
                    }
                }
                EventKind::End => {
                    end_clock[ti] = Some(cur_clock[ti].clone());
                }
                _ => {}
            }

            // Locksets: an acquire's lockset includes the acquired lock; a
            // release's still includes the released one.
            if let EventKind::Acquire { lock } = e.kind {
                cur_lockset[ti].push(lock);
                cur_lockset[ti].sort_unstable();
                cur_lockset[ti].dedup();
            }
            let ls_id = *lockset_lookup
                .entry(cur_lockset[ti].clone())
                .or_insert_with(|| {
                    lockset_pool.push(cur_lockset[ti].clone());
                    (lockset_pool.len() - 1) as u32
                });
            lockset_ids[o] = ls_id;
            if let EventKind::Release { lock } = e.kind {
                cur_lockset[ti].retain(|&l| l != lock);
            }

            // Per-class indexes.
            vpos[o] = thread_events[ti].len() as u32;
            thread_events[ti].push(id);
            match e.kind {
                EventKind::Read { var, .. } => {
                    reads_by_var[var.index()].push(id);
                    reads_by_thread[ti].push(id);
                }
                EventKind::Write { var, .. } => writes_by_var[var.index()].push(id),
                EventKind::Branch => branches_by_thread[ti].push(id),
                EventKind::Acquire { lock } => {
                    open_by_lock[lock.index()] = Some((e.thread, Some(id)));
                }
                EventKind::Release { lock } => {
                    let (t, acquire) = open_by_lock[lock.index()]
                        .take()
                        .unwrap_or((e.thread, None));
                    cs_by_lock[lock.index()].push(CsSpan {
                        thread: t,
                        lock,
                        acquire,
                        release: Some(id),
                    });
                }
                EventKind::AcquireRead { lock } => {
                    has_extended = true;
                    open_read_by_lock[lock.index()].push((e.thread, Some(id)));
                }
                EventKind::ReleaseRead { lock } => {
                    has_extended = true;
                    let open = &mut open_read_by_lock[lock.index()];
                    let (t, acquire) = match open.iter().position(|&(t, _)| t == e.thread) {
                        Some(p) => open.remove(p),
                        None => (e.thread, None),
                    };
                    read_cs_by_lock[lock.index()].push(CsSpan {
                        thread: t,
                        lock,
                        acquire,
                        release: Some(id),
                    });
                }
                EventKind::Send { .. } | EventKind::Recv { .. } => {
                    has_extended = true;
                }
                _ => {}
            }
        }
        let mut locks = Vec::new();
        for (li, (open, open_read)) in open_by_lock.into_iter().zip(open_read_by_lock).enumerate() {
            let lock = LockId(li as u32);
            if let Some((t, acquire)) = open {
                cs_by_lock[li].push(CsSpan {
                    thread: t,
                    lock,
                    acquire,
                    release: None,
                });
            }
            for (t, acquire) in open_read {
                read_cs_by_lock[li].push(CsSpan {
                    thread: t,
                    lock,
                    acquire,
                    release: None,
                });
            }
            if !cs_by_lock[li].is_empty() || !read_cs_by_lock[li].is_empty() {
                locks.push(lock);
            }
        }
        let in_view = |e: EventId| (start..end).contains(&e.index());
        let wait_links: Vec<WaitLink> = trace
            .wait_links()
            .iter()
            .filter(|wl| {
                in_view(wl.release) && in_view(wl.acquire) && wl.notify.is_some_and(in_view)
            })
            .copied()
            .collect();
        let mut link_of = vec![u32::MAX; if wait_links.is_empty() { 0 } else { len }];
        for (li, wl) in wait_links.iter().enumerate() {
            for e in [wl.release, wl.acquire, wl.notify.expect("filtered")] {
                link_of[e.index() - start] = li as u32;
            }
        }

        let mut view = View {
            trace,
            start,
            end,
            initial: carry.values.clone(),
            held_at_start: carry.held.clone(),
            held_read_at_start: carry.held_read.clone(),
            thread_events,
            vpos,
            reads_by_var,
            writes_by_var,
            reads_by_thread,
            branches_by_thread,
            cs_by_lock,
            read_cs_by_lock,
            lockset_ids,
            lockset_pool,
            clocks,
            has_extended,
            mhb_edges: Vec::new(),
            wait_links,
            link_of,
            locks,
        };
        view.mhb_edges = edge_targets
            .into_iter()
            .filter_map(|id| {
                let from = match view.event(id).kind {
                    EventKind::Join { child } => view.end_of(child),
                    _ => view.fork_of(view.event(id).thread),
                };
                from.map(|from| (from, id))
            })
            .collect();
        view
    }

    /// The underlying trace.
    #[inline]
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// The trace range covered by this view.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of events in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view covers no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterator over the event ids in the view, in trace order.
    pub fn ids(&self) -> impl Iterator<Item = EventId> {
        (self.start as u32..self.end as u32).map(EventId)
    }

    /// Whether an event is inside the view.
    #[inline]
    pub fn contains(&self, e: EventId) -> bool {
        (self.start..self.end).contains(&e.index())
    }

    /// The event with the given id (from the underlying trace).
    #[inline]
    pub fn event(&self, e: EventId) -> &Event {
        self.trace.event(e)
    }

    fn offset(&self, e: EventId) -> usize {
        debug_assert!(self.contains(e), "{e} outside view {:?}", self.range());
        e.index() - self.start
    }

    /// The value of `var` at window start: the window-local initial value.
    #[inline]
    pub fn initial_value(&self, var: VarId) -> Value {
        self.initial.get(var.index()).copied().unwrap_or_default()
    }

    /// Locks held (and by whom) when the window starts.
    #[inline]
    pub fn held_at_start(&self) -> &[(ThreadId, LockId)] {
        &self.held_at_start
    }

    /// Read-mode (shared) holds open when the window starts.
    #[inline]
    pub fn held_read_at_start(&self) -> &[(ThreadId, LockId)] {
        &self.held_read_at_start
    }

    /// Whether the window contains extended-vocabulary synchronization
    /// (RwLock read mode, channel send/recv). Consumers whose analyses
    /// predate the extended vocabulary (relevance slicing) use this to
    /// conservatively opt out on such windows.
    #[inline]
    pub fn has_extended_sync(&self) -> bool {
        self.has_extended
    }

    /// Events of one thread inside the view, in program order.
    pub fn thread_events(&self, t: ThreadId) -> &[EventId] {
        match self.trace.thread_index(t) {
            Some(i) => &self.thread_events[i],
            None => &[],
        }
    }

    /// The in-view event that forked thread `t`, if any.
    pub fn fork_of(&self, t: ThreadId) -> Option<EventId> {
        self.trace.fork_of(t).filter(|&f| self.contains(f))
    }

    /// Thread `t`'s in-view `End` event, if any (an `End` is its thread's
    /// last event).
    pub fn end_of(&self, t: ThreadId) -> Option<EventId> {
        let last = self.thread_events(t).last().copied();
        last.filter(|&e| matches!(self.event(e).kind, EventKind::End))
    }

    /// Position of `e` within its thread's events *inside the view*.
    #[inline]
    pub fn vpos(&self, e: EventId) -> usize {
        self.vpos[self.offset(e)] as usize
    }

    /// The MHB vector clock of `e`: entry `i` counts events of thread `i`
    /// inside the view that must-happen-before-or-equal `e`.
    #[inline]
    pub fn clock(&self, e: EventId) -> &VectorClock {
        &self.clocks[self.offset(e)]
    }

    /// Strict must-happen-before: `a ⪯ b` and `a ≠ b` (paper §2.2's
    /// consistency requirement, i.e. program order + fork→begin + end→join,
    /// transitively).
    pub fn mhb(&self, a: EventId, b: EventId) -> bool {
        if a == b {
            return false;
        }
        let ta = self
            .trace
            .thread_index(self.event(a).thread)
            .expect("thread indexed");
        self.clock(b).get(ta) as usize > self.vpos(a)
    }

    /// Read events on `var` inside the view, in trace order.
    pub fn reads_of(&self, var: VarId) -> &[EventId] {
        self.reads_by_var
            .get(var.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Write events on `var` inside the view, in trace order.
    pub fn writes_of(&self, var: VarId) -> &[EventId] {
        self.writes_by_var
            .get(var.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Read events of thread `t` inside the view, in program order.
    pub fn thread_reads(&self, t: ThreadId) -> &[EventId] {
        match self.trace.thread_index(t) {
            Some(i) => &self.reads_by_thread[i],
            None => &[],
        }
    }

    /// Read events of `e`'s thread strictly before `e` (the paper's
    /// `τ_e ↾ t,read` restricted to the view).
    pub fn thread_reads_before(&self, e: EventId) -> &[EventId] {
        let reads = self.thread_reads(self.event(e).thread);
        let n = reads.partition_point(|&r| r < e);
        &reads[..n]
    }

    /// The paper's `B_e`: for each thread, the *last* branch event that
    /// must-happen-before `e` (strictly). At most one entry per thread.
    pub fn last_branches_before(&self, e: EventId) -> Vec<EventId> {
        let clock = self.clock(e);
        let mut out = Vec::new();
        for (ti, branches) in self.branches_by_thread.iter().enumerate() {
            if branches.is_empty() {
                continue;
            }
            // Events of thread ti that strictly precede e have
            // vpos < clock[ti], except e itself (never a candidate here
            // because e is compared by id below).
            let limit = clock.get(ti) as usize;
            let n = branches.partition_point(|&b| self.vpos(b) < limit);
            if n > 0 {
                let b = branches[n - 1];
                if b != e {
                    out.push(b);
                }
            }
        }
        out
    }

    /// Critical-section spans for `lock`, in trace order of their releases
    /// (boundary-open spans last).
    pub fn critical_sections(&self, lock: LockId) -> &[CsSpan] {
        self.cs_by_lock
            .get(lock.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Read-mode critical-section spans for `lock`, in trace order of
    /// their releases (boundary-open spans last). Disjoint from
    /// [`View::critical_sections`]: a read span excludes only write spans
    /// of the same lock, never other read spans.
    pub fn read_critical_sections(&self, lock: LockId) -> &[CsSpan] {
        self.read_cs_by_lock
            .get(lock.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The set of locks held by `e`'s thread at the moment of `e`
    /// (sorted; includes a lock being acquired/released by `e` itself).
    pub fn lockset(&self, e: EventId) -> &[LockId] {
        &self.lockset_pool[self.lockset_ids[self.offset(e)] as usize]
    }

    /// Threads of the underlying trace (clock dimension).
    pub fn threads(&self) -> &[ThreadId] {
        self.trace.threads()
    }

    /// The fork→begin and end→join edges with both endpoints in the view,
    /// in event order of their targets: with program order, the edges of
    /// `Φ_mhb` (paper §3.2).
    pub fn mhb_edges(&self) -> &[(EventId, EventId)] {
        &self.mhb_edges
    }

    /// The wait links whose release, notify and re-acquire all fall in the
    /// view, in [`Trace::wait_links`] order: the links `Φ_mhb` constrains
    /// (paper §4).
    pub fn wait_links(&self) -> &[WaitLink] {
        &self.wait_links
    }

    /// The index into [`View::wait_links`] of the link `e` is the release,
    /// notify or re-acquire of (the last such link, on malformed input
    /// where links share an event).
    pub fn wait_link_index(&self, e: EventId) -> Option<usize> {
        match self.link_of.get(self.offset(e)) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    /// Ascending ids of the locks with a write-mode or read-mode critical
    /// section in the view: the only locks `Φ_lock` can constrain.
    pub fn locks(&self) -> &[LockId] {
        &self.locks
    }
}

/// One window yielded by a [`WindowCursor`]: its place in window order,
/// its trace range, the boundary state at its start and, in cone mode, its
/// straddle plan. Everything a solver needs to build the window's [`View`]
/// from any trace (or trace prefix) that covers `range`.
#[derive(Debug, Clone)]
pub struct CursorWindow {
    /// Position in window order (the merge key).
    pub index: usize,
    /// The events the window covers.
    pub range: Range<usize>,
    /// Boundary state at `range.start`.
    pub boundary: WindowBoundary,
    /// The straddle plan (cone mode only; `None` when no pair crosses the
    /// window start).
    pub plan: Option<StraddlePlan>,
}

impl CursorWindow {
    /// The window's view over `trace`, which must cover `range`.
    pub fn view<'a>(&self, trace: &'a Trace) -> View<'a> {
        self.boundary.view(trace, self.range.clone())
    }
}

/// The one window cursor: cuts a trace into fixed-size windows, carrying
/// the [`WindowBoundary`] (in cone mode, inside the [`BoundaryTracker`])
/// from each window to the next.
///
/// The cursor can be driven over a growing trace: each call to
/// [`next`](WindowCursor::next) may pass a longer prefix of the same
/// trace. Inside a prefix it yields only full windows; once the caller
/// says the trace is `complete` it also yields the shorter tail window.
/// The boundary is created lazily from the trace metadata's initial
/// values, so it is valid on prefixes. Windows, boundaries and plans are
/// pure functions of the event prefix, so every driver that walks a
/// trace with a cursor sees identical windows.
#[derive(Debug, Clone)]
pub struct WindowCursor {
    size: usize,
    spill_events: Option<usize>,
    next_start: usize,
    next_index: usize,
    carry: Option<Carry>,
}

/// What a [`WindowCursor`] carries between windows: the boundary alone
/// (fixed mode), or a tracker that owns the boundary (cone mode).
#[derive(Debug, Clone)]
enum Carry {
    Fixed(WindowBoundary),
    Cone(BoundaryTracker),
}

impl WindowCursor {
    /// A cursor over `size`-event windows. With `spill_events` set (cone
    /// mode) it also plans boundary-straddling pairs with that much
    /// lookback.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize, spill_events: Option<usize>) -> Self {
        assert!(size > 0, "window size must be nonzero");
        WindowCursor {
            size,
            spill_events,
            next_start: 0,
            next_index: 0,
            carry: None,
        }
    }

    /// Whether [`next`](WindowCursor::next) would yield a window over a
    /// trace of `len` events (a prefix unless `complete`).
    pub fn ready(&self, len: usize, complete: bool) -> bool {
        let left = len.saturating_sub(self.next_start);
        left >= self.size || (complete && left > 0)
    }

    /// The next window of `trace`, or `None` when `trace` holds no further
    /// full window (or, once `complete`, no further events). Successive
    /// calls must pass prefixes of one trace, each at least as long as
    /// the last.
    pub fn next(&mut self, trace: &Trace, complete: bool) -> Option<CursorWindow> {
        if !self.ready(trace.len(), complete) {
            return None;
        }
        let range = self.next_start..trace.len().min(self.next_start.saturating_add(self.size));
        let spill_events = self.spill_events;
        let carry = self.carry.get_or_insert_with(|| {
            let b = WindowBoundary::from_initial_values(&trace.data().initial_values);
            match spill_events {
                Some(s) => Carry::Cone(BoundaryTracker::new(b, s)),
                None => Carry::Fixed(b),
            }
        });
        let events = trace.events();
        let (boundary, plan) = match carry {
            Carry::Fixed(b) => {
                let boundary = b.clone();
                b.advance(events, range.clone());
                (boundary, None)
            }
            Carry::Cone(t) => {
                let boundary = t.boundary().clone();
                let plan = t.plan(events, range.clone(), |v| trace.is_volatile(v));
                t.advance(events, range.clone());
                (boundary, plan)
            }
        };
        let window = CursorWindow {
            index: self.next_index,
            range: range.clone(),
            boundary,
            plan,
        };
        self.next_start = range.end;
        self.next_index += 1;
        Some(window)
    }
}

/// Last-access tables carried across window boundaries: for every
/// `(variable, thread)` pair, the index of the thread's most recent read
/// and write of the variable *before* the current boundary.
///
/// These are the per-thread summaries of dependence-bounded windowing
/// (`--window-mode cone`): a conflicting-operation pair can only straddle
/// a boundary through the *last* pre-boundary access of each side — any
/// earlier access of the same `(variable, thread, kind)` has the same
/// race signature and a strictly smaller feasible-schedule set under the
/// carried window-start values, so the tables are lossless for candidate
/// enumeration while staying `O(vars × threads)` regardless of trace
/// length.
#[derive(Debug, Clone, Default)]
pub struct BoundarySpill {
    last_write: BTreeMap<(VarId, ThreadId), usize>,
    last_read: BTreeMap<(VarId, ThreadId), usize>,
}

impl BoundarySpill {
    /// Records every access in `events[range]` into the tables.
    fn record(&mut self, events: &[Event], range: Range<usize>) {
        for i in range {
            let e = &events[i];
            match e.kind {
                EventKind::Read { var, .. } => {
                    self.last_read.insert((var, e.thread), i);
                }
                EventKind::Write { var, .. } => {
                    self.last_write.insert((var, e.thread), i);
                }
                _ => {}
            }
        }
    }

    /// Last pre-boundary accesses of `var` by threads other than
    /// `thread`: `(index, is_write)` per partner, writes and (when
    /// `include_reads`) reads.
    fn partners(
        &self,
        var: VarId,
        thread: ThreadId,
        include_reads: bool,
        out: &mut Vec<(usize, bool)>,
    ) {
        let span = (var, ThreadId(0))..=(var, ThreadId(u32::MAX));
        for (&(_, t), &i) in self.last_write.range(span.clone()) {
            if t != thread {
                out.push((i, true));
            }
        }
        if include_reads {
            for (&(_, t), &i) in self.last_read.range(span) {
                if t != thread {
                    out.push((i, false));
                }
            }
        }
    }

    /// True when no access has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.last_write.is_empty() && self.last_read.is_empty()
    }
}

/// The dependence-bounded extension plan for one window: the
/// boundary-straddling candidate COPs found by [`BoundaryTracker::plan`]
/// and everything needed to rebuild the extended view that covers them.
///
/// The plan is a pure function of `(events, window, spill budget)` — it
/// carries its own base boundary checkpoint, so the extended view built
/// from it is byte-identical to the [`View`] a fixed window spanning
/// `ext_start..window.end` would have produced. That identity is the
/// soundness argument for cross-window prediction: no new view semantics,
/// just a longer (still boundary-correct) window for these COPs only.
#[derive(Debug, Clone)]
pub struct StraddlePlan {
    /// Straddling candidate pairs whose pre-boundary partner lies within
    /// the spill budget (earlier event first, per [`Cop::new`]).
    pub cops: Vec<Cop>,
    /// Straddling candidate pairs whose partner lies *beyond* the budget
    /// floor: the detector must degrade these to
    /// `Undecided(boundary-budget)` instead of solving a truncated view.
    pub over_budget: Vec<Cop>,
    /// Start of the extended view: the earliest in-budget partner.
    pub ext_start: usize,
    /// The spill-budget floor — `ext_start` never grows below this.
    pub floor: usize,
    /// The window this plan extends.
    pub window: Range<usize>,
    base: (usize, WindowBoundary),
    writes_tail: BTreeMap<VarId, Vec<usize>>,
}

impl StraddlePlan {
    /// Boundary state at trace position `at` (which must lie within
    /// `base.0..=window.start`), reconstructed by advancing the retained
    /// checkpoint — no whole-window re-residency.
    pub fn boundary_at(&self, events: &[Event], at: usize) -> WindowBoundary {
        assert!(
            self.base.0 <= at && at <= self.window.start,
            "boundary_at({at}) outside checkpointed span {}..={}",
            self.base.0,
            self.window.start
        );
        let mut b = self.base.1.clone();
        b.advance(events, self.base.0..at);
        b
    }

    /// The extended view for this plan's COPs, starting at `at`
    /// (normally [`ext_start`](StraddlePlan::ext_start), lower after
    /// cone growth).
    pub fn extended_view<'a>(&self, trace: &'a Trace, at: usize) -> View<'a> {
        self.boundary_at(trace.events(), at)
            .view(trace, at..self.window.end)
    }

    /// Cone growth target: the latest pre-`below` write (within the
    /// budget floor) of any variable in `vars` — the next dependence the
    /// extended view should absorb — or `None` when the cone is closed.
    pub fn grow_target(
        &self,
        vars: impl IntoIterator<Item = VarId>,
        below: usize,
    ) -> Option<usize> {
        vars.into_iter()
            .filter_map(|v| {
                let writes = self.writes_tail.get(&v)?;
                let n = writes.partition_point(|&w| w < below);
                (n > 0).then(|| writes[n - 1])
            })
            .min()
    }

    /// Events the extended view re-materializes beyond the fixed window
    /// (the spill residency this plan costs), for `ext_start = at`.
    pub fn spill_span(&self, at: usize) -> usize {
        self.window.start.saturating_sub(at)
    }
}

/// Cross-boundary state for dependence-bounded windowing: the carried
/// [`WindowBoundary`], last-access [`BoundarySpill`] tables, boundary
/// checkpoints at past window starts, and the per-variable write tail that
/// cone growth queries.
///
/// Protocol per window `range` (in order): [`plan`](BoundaryTracker::plan)
/// first, then [`advance`](BoundaryTracker::advance). Both are
/// deterministic functions of the event prefix, so plans are identical
/// for every driver and at any parallelism. [`WindowCursor`] runs the
/// protocol for the detector's drivers.
#[derive(Debug, Clone)]
pub struct BoundaryTracker {
    spill: BoundarySpill,
    boundary: WindowBoundary,
    checkpoints: Vec<(usize, WindowBoundary)>,
    writes_tail: BTreeMap<VarId, Vec<usize>>,
    spill_events: usize,
    pos: usize,
}

impl BoundaryTracker {
    /// A tracker starting from the trace-start boundary, retaining at
    /// most `spill_events` events of lookback for extended views.
    pub fn new(boundary: WindowBoundary, spill_events: usize) -> Self {
        BoundaryTracker {
            spill: BoundarySpill::default(),
            boundary,
            checkpoints: Vec::new(),
            writes_tail: BTreeMap::new(),
            spill_events,
            pos: 0,
        }
    }

    /// The boundary at the start of the next window (advanced over
    /// exactly `events[..pos]`).
    pub fn boundary(&self) -> &WindowBoundary {
        &self.boundary
    }

    /// Events of lookback currently coverable by the retained
    /// checkpoints (the spill residency ceiling for the next window).
    pub fn spill_len(&self) -> usize {
        self.pos - self.checkpoints.first().map_or(self.pos, |&(s, _)| s)
    }

    /// Straddling candidates for window `range`, or `None` when no
    /// conflicting pair crosses its start — the fast path that keeps
    /// cone mode byte-identical to fixed mode on non-straddling traces.
    ///
    /// Must be called before [`advance`](BoundaryTracker::advance)ing
    /// over the same range.
    pub fn plan(
        &self,
        events: &[Event],
        range: Range<usize>,
        is_volatile: impl Fn(VarId) -> bool,
    ) -> Option<StraddlePlan> {
        assert_eq!(range.start, self.pos, "plan() out of window order");
        if self.spill.is_empty() {
            return None;
        }
        let floor = range.start.saturating_sub(self.spill_events);
        // One candidate per (variable, thread, kind): the window-first
        // access — nearest the boundary, hence the widest feasible
        // straddle — caps the plan without losing any signature.
        let mut seen: BTreeSet<(VarId, ThreadId, bool)> = BTreeSet::new();
        let mut partners: Vec<(usize, bool)> = Vec::new();
        let mut cops: BTreeSet<Cop> = BTreeSet::new();
        let mut over_budget: BTreeSet<Cop> = BTreeSet::new();
        let mut ext_start = range.start;
        for i in range.clone() {
            let e = &events[i];
            let (var, is_write) = match e.kind {
                EventKind::Read { var, .. } => (var, false),
                EventKind::Write { var, .. } => (var, true),
                _ => continue,
            };
            if is_volatile(var) || !seen.insert((var, e.thread, is_write)) {
                continue;
            }
            partners.clear();
            // A read only conflicts with pre-boundary writes; a write
            // with both kinds.
            self.spill.partners(var, e.thread, is_write, &mut partners);
            for &(p, _) in &partners {
                let cop = Cop::new(EventId(p as u32), EventId(i as u32));
                if p >= floor {
                    ext_start = ext_start.min(p);
                    cops.insert(cop);
                } else {
                    over_budget.insert(cop);
                }
            }
        }
        if cops.is_empty() && over_budget.is_empty() {
            return None;
        }
        // Base checkpoint: the latest retained boundary at or before the
        // budget floor serves every ext_start the plan (or cone growth)
        // can choose.
        let base = self
            .checkpoints
            .iter()
            .rev()
            .find(|&&(s, _)| s <= floor)
            .expect("checkpoint at or before the budget floor retained")
            .clone();
        let writes_tail = self
            .writes_tail
            .iter()
            .filter_map(|(&v, ws)| {
                let n = ws.partition_point(|&w| w < floor);
                (!is_volatile(v) && n < ws.len()).then(|| (v, ws[n..].to_vec()))
            })
            .collect();
        Some(StraddlePlan {
            cops: cops.into_iter().collect(),
            over_budget: over_budget.into_iter().collect(),
            ext_start,
            floor,
            window: range,
            base,
            writes_tail,
        })
    }

    /// Closes window `range`: checkpoints its start boundary, records its
    /// accesses into the spill tables, advances the carried boundary, and
    /// prunes checkpoints and write tails that fall behind the budget
    /// floor of every future window.
    pub fn advance(&mut self, events: &[Event], range: Range<usize>) {
        assert_eq!(range.start, self.pos, "advance() out of window order");
        self.checkpoints.push((range.start, self.boundary.clone()));
        self.spill.record(events, range.clone());
        for i in range.clone() {
            if let EventKind::Write { var, .. } = events[i].kind {
                self.writes_tail.entry(var).or_default().push(i);
            }
        }
        self.boundary.advance(events, range.clone());
        self.pos = range.end;
        let floor = self.pos.saturating_sub(self.spill_events);
        // Keep the latest checkpoint at or before the floor (the base
        // candidate) plus everything after it.
        let keep_from = self
            .checkpoints
            .iter()
            .rposition(|&(s, _)| s <= floor)
            .unwrap_or(0);
        self.checkpoints.drain(..keep_from);
        self.writes_tail.retain(|_, ws| {
            let n = ws.partition_point(|&w| w < floor);
            ws.drain(..n);
            !ws.is_empty()
        });
    }
}

/// Extension methods on [`Trace`] producing views.
pub trait ViewExt {
    /// A view covering the whole trace.
    fn full_view(&self) -> View<'_>;

    /// Fixed-size windows covering the trace (the last may be shorter).
    /// `size` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    fn windows(&self, size: usize) -> Vec<View<'_>>;
}

impl ViewExt for Trace {
    fn full_view(&self) -> View<'_> {
        View::build(self, 0, self.len(), &WindowBoundary::initial(self))
    }

    fn windows(&self, size: usize) -> Vec<View<'_>> {
        let mut cursor = WindowCursor::new(size, None);
        std::iter::from_fn(|| cursor.next(self, true))
            .map(|w| w.view(self))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    /// fork/join + lock trace used across the tests.
    fn sample() -> (Trace, Vec<EventId>) {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0 fork
        b.acquire(t1, l); // e1
        let w = b.write(t1, x, 1); // e2
        b.release(t1, l); // e3
                          // t2: begin e4 (auto), acquire e5, read e6, release e7
        b.acquire(t2, l); // e4=begin, e5=acquire
        let r = b.read(t2, x, 1); // e6
        b.release(t2, l); // e7
        let j = b.join(t1, t2); // e8=end(t2), e9=join
        (b.finish(), vec![w, r, j])
    }

    #[test]
    fn mhb_fork_join_edges() {
        let (tr, ids) = sample();
        let v = tr.full_view();
        let (w, r, j) = (ids[0], ids[1], ids[2]);
        // fork(e0) precedes t2's begin and read.
        assert!(v.mhb(EventId(0), r));
        // The write is NOT MHB-ordered with the read (only lock-ordered).
        assert!(!v.mhb(w, r));
        assert!(!v.mhb(r, w));
        // Everything in t2 precedes the join.
        assert!(v.mhb(r, j));
        assert!(!v.mhb(j, r));
        // Irreflexive.
        assert!(!v.mhb(w, w));
        // Program order.
        assert!(v.mhb(EventId(1), w));
    }

    #[test]
    fn locksets_and_critical_sections() {
        let (tr, ids) = sample();
        let v = tr.full_view();
        let (w, r, _) = (ids[0], ids[1], ids[2]);
        assert_eq!(v.lockset(w), &[LockId(0)]);
        assert_eq!(v.lockset(r), &[LockId(0)]);
        assert_eq!(v.lockset(EventId(0)), &[] as &[LockId]); // fork outside CS
        let cs = v.critical_sections(LockId(0));
        assert_eq!(cs.len(), 2);
        assert!(cs
            .iter()
            .all(|s| s.acquire.is_some() && s.release.is_some()));
    }

    #[test]
    fn read_write_indexes() {
        let (tr, ids) = sample();
        let v = tr.full_view();
        assert_eq!(v.writes_of(VarId(0)), &[ids[0]]);
        assert_eq!(v.reads_of(VarId(0)), &[ids[1]]);
        let t2 = tr.threads()[1];
        assert_eq!(v.thread_reads(t2), &[ids[1]]);
        assert_eq!(v.thread_reads_before(ids[1]), &[] as &[EventId]);
    }

    #[test]
    fn last_branches_before_tracks_mhb() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        b.read(t1, x, 0);
        let br = b.branch(t1); // branch in t1
        let w1 = b.write(t1, x, 1);
        let t2 = b.fork(t1);
        let w2 = b.write(t2, x, 2);
        let tr = b.finish();
        let v = tr.full_view();
        // w1 is after the branch in the same thread.
        assert_eq!(v.last_branches_before(w1), vec![br]);
        // w2 in t2 sees t1's branch through the fork edge.
        assert_eq!(v.last_branches_before(w2), vec![br]);
        // The branch itself has no prior branch.
        assert!(v.last_branches_before(br).is_empty());
    }

    #[test]
    fn windows_carry_values_and_locks() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t = ThreadId::MAIN;
        b.write(t, x, 42); // window 0
        b.acquire(t, l); // window 0
        b.read(t, x, 42); // window 1
        b.release(t, l); // window 1
        let tr = b.finish();
        let ws = tr.windows(2);
        assert_eq!(ws.len(), 2);
        let w1 = &ws[1];
        assert_eq!(w1.initial_value(x), Value(42));
        assert_eq!(w1.held_at_start(), &[(t, l)]);
        // The boundary-crossing critical section has no acquire.
        let cs = w1.critical_sections(l);
        assert_eq!(cs.len(), 1);
        assert!(cs[0].acquire.is_none());
        assert!(cs[0].release.is_some());
        // And the read inside window 1 still holds the lock.
        let read_id = EventId(2);
        assert_eq!(w1.lockset(read_id), &[l]);
    }

    #[test]
    fn window_clocks_do_not_cross_boundary() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0, window 0
        let w2 = b.write(t2, x, 1); // begin e1, write e2 (window 0: e0,e1; window 1: e2..)
        let w1 = b.write(t1, x, 2); // e3
        let tr = b.finish();
        let ws = tr.windows(2);
        assert_eq!(ws.len(), 2);
        // In window 1, fork is outside: no MHB between the two writes.
        let v = &ws[1];
        assert!(!v.mhb(w1, w2));
        assert!(!v.mhb(w2, w1));
    }

    #[test]
    fn windows_match_boundaries_advanced_from_the_trace_start() {
        let (tr, _) = sample();
        for size in [1, 2, 3, 4, tr.len(), tr.len() + 7] {
            let windows = tr.windows(size);
            assert_eq!(windows.len(), tr.len().div_ceil(size), "size={size}");
            let mut carry = WindowBoundary::initial(&tr);
            for (i, w) in windows.iter().enumerate() {
                let range = i * size..((i + 1) * size).min(tr.len());
                assert_eq!(w.range(), range, "size={size}");
                let fresh = carry.view(&tr, range.clone());
                assert_eq!(w.held_at_start(), fresh.held_at_start(), "size={size}");
                for v in 0..tr.n_vars() as u32 {
                    assert_eq!(
                        w.initial_value(VarId(v)),
                        fresh.initial_value(VarId(v)),
                        "size={size} var={v}"
                    );
                }
                for id in w.ids() {
                    assert_eq!(w.lockset(id), fresh.lockset(id), "size={size} {id}");
                    assert_eq!(w.clock(id), fresh.clock(id), "size={size} {id}");
                }
                carry.advance(tr.events(), range);
            }
        }
    }

    #[test]
    fn cursor_yields_full_windows_on_prefixes_and_the_tail_once_complete() {
        let (tr, _) = sample(); // 10 events
        let prefix = |n: usize| {
            let mut data = tr.data().clone();
            data.events.truncate(n);
            Trace::from_data(data)
        };
        let mut cursor = WindowCursor::new(4, None);
        assert!(
            cursor.next(&prefix(3), false).is_none(),
            "no full window yet"
        );
        let first = cursor.next(&prefix(9), false).expect("window 0");
        assert_eq!((first.index, first.range.clone()), (0, 0..4));
        let second = cursor.next(&prefix(9), false).expect("window 1");
        assert_eq!((second.index, second.range.clone()), (1, 4..8));
        assert!(cursor.next(&prefix(9), false).is_none(), "1-event partial");
        assert!(!cursor.ready(tr.len(), false));
        assert!(cursor.ready(tr.len(), true));
        let tail = cursor.next(&tr, true).expect("tail window");
        assert_eq!((tail.index, tail.range.clone()), (2, 8..10));
        assert!(cursor.next(&tr, true).is_none());
        // Prefix-built windows equal the whole-trace ones.
        let whole = tr.windows(4);
        for (w, c) in whole.iter().zip([&first, &second, &tail]) {
            let v = c.view(&tr);
            assert_eq!(w.range(), v.range());
            assert_eq!(w.held_at_start(), v.held_at_start());
        }
    }

    #[test]
    fn cursor_plans_match_a_sequential_tracker_sweep() {
        let tr = straddling_trace();
        let mut tk = BoundaryTracker::new(WindowBoundary::initial(&tr), 1024);
        let mut cursor = WindowCursor::new(3, Some(1024));
        let mut start = 0;
        while let Some(w) = cursor.next(&tr, true) {
            let range = start..(start + 3).min(tr.len());
            assert_eq!(w.range, range);
            let plan = tk.plan(tr.events(), range.clone(), |v| tr.is_volatile(v));
            tk.advance(tr.events(), range.clone());
            assert_eq!(
                w.plan.as_ref().map(|p| p.cops.clone()),
                plan.map(|p| p.cops)
            );
            start = range.end;
        }
        assert_eq!(start, tr.len());
        assert!(WindowCursor::new(3, None)
            .next(&tr, true)
            .is_some_and(|w| w.plan.is_none()));
    }

    #[test]
    fn boundary_from_initial_values_grows_on_demand() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.initial(x, 7);
        let t = ThreadId::MAIN;
        b.read(t, x, 7); // window 0
        b.write(t, y, 9); // window 0
        b.read(t, y, 9); // window 1
        let tr = b.finish();

        // A boundary seeded from metadata alone (streaming: trace length
        // and n_vars unknown) must agree with the trace-seeded one.
        let mut meta = WindowBoundary::from_initial_values(&tr.data().initial_values);
        let mut full = WindowBoundary::initial(&tr);
        assert_eq!(meta.view(&tr, 0..2).initial_value(x), Value(7));
        assert_eq!(meta.view(&tr, 0..2).initial_value(y), Value(0));
        meta.advance(tr.events(), 0..2);
        full.advance(tr.events(), 0..2);
        for v in [x, y] {
            assert_eq!(
                meta.view(&tr, 2..3).initial_value(v),
                full.view(&tr, 2..3).initial_value(v),
            );
        }
        assert_eq!(meta.view(&tr, 2..3).initial_value(y), Value(9));
    }

    /// write(t1, x) in window 0, read(t2, x) in window 1: one straddling
    /// candidate pair.
    fn straddling_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0 fork
        b.write(t1, x, 1); // e1 (window 0: e0..e3)
        b.write(t1, y, 7); // e2
        b.read(t2, x, 1); // begin e3, read e4 (window 1)
        b.finish()
    }

    #[test]
    fn tracker_plans_straddling_pairs() {
        let tr = straddling_trace();
        let mut tk = BoundaryTracker::new(WindowBoundary::initial(&tr), 1024);
        let vol = |v: VarId| tr.is_volatile(v);
        // Window 0 never has a plan (nothing spilled yet).
        assert!(tk.plan(tr.events(), 0..3, vol).is_none());
        tk.advance(tr.events(), 0..3);
        let plan = tk
            .plan(tr.events(), 3..tr.len(), vol)
            .expect("read of x straddles the boundary");
        assert!(plan.over_budget.is_empty());
        assert_eq!(plan.cops.len(), 1);
        let cop = plan.cops[0];
        // The pair is (write of x in window 0, read of x in window 1).
        assert!(tr.event(cop.first).kind.is_write());
        assert!(tr.event(cop.second).kind.is_read());
        assert_eq!(
            tr.event(cop.first).kind.var(),
            tr.event(cop.second).kind.var()
        );
        assert_eq!(plan.ext_start, cop.first.index());
        // The extended view is byte-equivalent to a window that started
        // at ext_start: boundary state reconstructed from the checkpoint.
        let ext = plan.extended_view(&tr, plan.ext_start);
        assert_eq!(ext.range(), plan.ext_start..tr.len());
        assert!(ext.contains(cop.first) && ext.contains(cop.second));
        // y's write (e2) is inside the extended range, so the extended
        // view's window-start value for y is still the trace-initial one
        // — while the plain window 1 view sees the carried write.
        let y = VarId(1);
        assert_eq!(ext.initial_value(y), Value(0));
        assert_eq!(
            tk.boundary().view(&tr, 3..tr.len()).initial_value(y),
            Value(7)
        );
    }

    #[test]
    fn tracker_budget_floor_degrades_to_over_budget() {
        let tr = straddling_trace();
        // Zero lookback: every straddling candidate is over budget.
        let mut tk = BoundaryTracker::new(WindowBoundary::initial(&tr), 0);
        let vol = |v: VarId| tr.is_volatile(v);
        tk.advance(tr.events(), 0..3);
        let plan = tk.plan(tr.events(), 3..tr.len(), vol).expect("candidates");
        assert!(plan.cops.is_empty());
        assert_eq!(plan.over_budget.len(), 1);
        assert_eq!(plan.ext_start, 3, "no in-budget partner: no extension");
    }

    #[test]
    fn tracker_ignores_same_thread_and_volatile() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let v = b.volatile_var("v");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.write(t1, x, 1); // window 0
        b.write(t1, v, 1); // window 0
        b.read(t1, x, 1); // window 1: same thread, no pair
        b.read(t2, v, 1); // window 1: volatile, no pair
        let tr = b.finish();
        let mut tk = BoundaryTracker::new(WindowBoundary::initial(&tr), 1024);
        let vol = |var: VarId| tr.is_volatile(var);
        tk.advance(tr.events(), 0..4);
        assert!(tk.plan(tr.events(), 4..tr.len(), vol).is_none());
    }

    #[test]
    fn tracker_grow_target_follows_write_tail() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let wy = b.write(t1, y, 5); // e1
        let wx = b.write(t1, x, 1); // e2
        b.read(t2, x, 1); // window 1 (begin is e3, read e4)
        let tr = b.finish();
        let mut tk = BoundaryTracker::new(WindowBoundary::initial(&tr), 1024);
        let vol = |v: VarId| tr.is_volatile(v);
        tk.advance(tr.events(), 0..3);
        let plan = tk.plan(tr.events(), 3..tr.len(), vol).expect("straddle");
        assert_eq!(plan.ext_start, wx.index());
        // Growing along a dependence on y reaches back to y's last write.
        assert_eq!(plan.grow_target([y], plan.ext_start), Some(wy.index()));
        // x's own write is at ext_start already: nothing earlier.
        assert_eq!(plan.grow_target([x], plan.ext_start), None);
        let _ = wx;
    }

    #[test]
    fn tracker_checkpoints_prune_to_budget() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        for i in 0..20 {
            b.write(t1, x, i);
        }
        b.read(t2, x, 19);
        let tr = b.finish();
        let mut tk = BoundaryTracker::new(WindowBoundary::initial(&tr), 6);
        let vol = |v: VarId| tr.is_volatile(v);
        let mut start = 0;
        while start + 4 <= 20 {
            let _ = tk.plan(tr.events(), start..start + 4, vol);
            tk.advance(tr.events(), start..start + 4);
            start += 4;
        }
        assert!(tk.spill_len() <= 6 + 4, "pruned near the budget");
        let plan = tk
            .plan(tr.events(), start..tr.len(), vol)
            .expect("straddle");
        // Only the last write is within the 6-event floor; all earlier
        // last-writes were superseded so exactly one candidate exists.
        assert_eq!(plan.cops.len(), 1);
        assert!(plan.ext_start >= plan.floor);
        // The reconstructed boundary matches a freshly advanced one.
        let mut fresh = WindowBoundary::initial(&tr);
        fresh.advance(tr.events(), 0..plan.ext_start);
        let a = plan.boundary_at(tr.events(), plan.ext_start);
        let va = a.view(&tr, plan.ext_start..tr.len());
        let vb = fresh.view(&tr, plan.ext_start..tr.len());
        assert_eq!(va.initial_value(x), vb.initial_value(x));
        assert_eq!(va.held_at_start(), vb.held_at_start());
    }

    #[test]
    fn read_spans_and_boundary_read_holds() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("rw");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0
        b.acquire_read(t1, l); // e1 (window 0: e0..e1)
        b.acquire_read(t2, l); // e2 begin, e3 acquire-read (window 1)
        b.release_read(t1, l); // e4
        b.release_read(t2, l); // e5
        let tr = b.finish();
        let full = tr.full_view();
        assert!(full.has_extended_sync());
        assert!(full.critical_sections(l).is_empty(), "write-only index");
        let rs = full.read_critical_sections(l);
        assert_eq!(rs.len(), 2);
        assert!(rs
            .iter()
            .all(|s| s.acquire.is_some() && s.release.is_some()));
        // Read holds carry across a window boundary, separately from
        // write-mode holds.
        let ws = tr.windows(2);
        let w1 = &ws[1];
        assert_eq!(w1.held_at_start(), &[] as &[(ThreadId, LockId)]);
        assert_eq!(w1.held_read_at_start(), &[(t1, l)]);
        let rs1 = w1.read_critical_sections(l);
        assert_eq!(rs1.len(), 2);
        // t1's span is boundary-open: no acquire inside window 1.
        assert!(rs1.iter().any(|s| s.thread == t1 && s.acquire.is_none()));
        // Read-mode holds stay out of locksets (soundness: a read hold
        // never excludes another read hold, so lockset-based pruning
        // cannot treat it as mutual exclusion).
        assert_eq!(full.lockset(EventId(4)), &[] as &[LockId]);
    }

    #[test]
    fn recv_joins_send_clock() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let c = b.new_chan("ch");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // e0
        let w = b.write(t1, x, 1); // e1
        let s = b.send(t1, c); // e2
        b.recv(t2, c, Some(s)); // e3 begin, e4 recv
        let r = b.read(t2, x, 1); // e5
        let tr = b.finish();
        let v = tr.full_view();
        // The write is MHB-before the read through the message edge.
        assert!(v.mhb(w, r));
        assert!(v.mhb(s, r));
        // An unlinked recv adds no edge.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let c = b.new_chan("ch");
        let t2 = b.fork(ThreadId::MAIN);
        let w = b.write(ThreadId::MAIN, x, 1);
        b.send(ThreadId::MAIN, c);
        b.recv(t2, c, None);
        let r = b.read(t2, x, 1);
        let tr = b.finish();
        assert!(!tr.full_view().mhb(w, r));
    }

    #[test]
    fn full_view_basics() {
        let (tr, _) = sample();
        let v = tr.full_view();
        assert_eq!(v.len(), tr.len());
        assert!(!v.is_empty());
        assert!(v.contains(EventId(0)));
        assert_eq!(v.ids().count(), tr.len());
        assert_eq!(v.range(), 0..tr.len());
    }
}
