//! The constraint encoder (paper §3.2): `Φ = Φ_mhb ∧ Φ_lock ∧ Φ_race`.
//!
//! One integer order variable `O_e` per window event; the race constraint
//! `O_b − O_a = 1` is realized by *substituting* `O_a := O_b` (paper §4), so
//! every atom is a pure difference-logic ordering and the formula solves in
//! IDL.
//!
//! The control-flow part is the paper's contribution: the data-abstract
//! feasibility `π_cf(e)` of a race event reduces to the *concrete*
//! feasibility `cf(b')` of the last branch events `B_e` that
//! must-happen-before `e`; `cf` of a branch or write is the conjunction of
//! `cf` over the thread's earlier reads; and `cf` of a read is a disjunction
//! over same-value writes it could read from, interference-free, whose own
//! `cf` holds recursively. Definitions may be mutually recursive across
//! threads, so each event gets a boolean definition variable asserted as an
//! implication `cf_e ⇒ rhs(e)`; circular support is impossible because it
//! would close an ordering cycle the IDL theory rejects (see DESIGN.md).
//!
//! Two builders share the machinery. [`encode`] compiles one COP on its
//! own, with the glued pair. [`encode_goals`] compiles one window session:
//! the shared base once, then one selector per [`Goal`] — a race COP, an
//! atomicity triple or a deadlock cycle — guarding only that goal's
//! obligations. Every batched solver query in the detector, whatever its
//! violation class, runs on an `encode_goals` formula.

use std::collections::HashMap;

use rvsmt::{FormulaBuilder, IntVar, TermId};
use rvtrace::{Cop, EventId, EventKind, View, WaitLink};

use crate::config::ConsistencyMode;
use crate::slice::{Cone, WindowSkeleton};

/// Encoder knobs (a subset of
/// [`DetectorConfig`](crate::DetectorConfig), so the encoder can be driven
/// independently).
#[derive(Debug, Clone, Copy)]
pub struct EncoderOptions {
    /// Consistency discipline (control-flow vs. whole-trace).
    pub mode: ConsistencyMode,
    /// Apply MHB-based pruning of write sets (paper §3.2, last paragraph).
    pub prune_write_sets: bool,
    /// Relevance slicing: encode only over the COP's cone of influence
    /// (see [`Cone`](crate::Cone)). Verdict-preserving; `--no-slice` turns it
    /// off for A/B checks. No effect under
    /// [`ConsistencyMode::WholeTrace`], whose read constraints span the
    /// window by definition.
    pub slice: bool,
}

impl Default for EncoderOptions {
    fn default() -> Self {
        EncoderOptions {
            mode: ConsistencyMode::ControlFlow,
            prune_write_sets: true,
            slice: true,
        }
    }
}

impl EncoderOptions {
    /// Whether slicing actually applies: the whole-trace baseline asserts
    /// a read-match for every read of the window, so its cone is always
    /// the full window and slicing would only add overhead.
    pub fn slicing_active(&self) -> bool {
        self.slice && self.mode == ConsistencyMode::ControlFlow
    }
}

/// The compiled constraint system for one COP in one window.
#[derive(Debug)]
pub struct Encoded {
    /// The formula (asserted roots are `Φ`).
    pub fb: FormulaBuilder,
    /// Order variable per view offset (the COP's two events share one).
    pub ovars: Vec<IntVar>,
    /// Start of the view range (to map `EventId` → offset).
    pub view_start: usize,
    /// The branch events whose concrete feasibility the formula asserts
    /// (`B_a ∪ B_b`); used by witness validation.
    pub required_branches: Vec<EventId>,
    /// Count of MHB conjuncts (for Figure-5-style dumps and stats).
    pub n_mhb: usize,
    /// Count of lock-mutual-exclusion disjunctions.
    pub n_lock: usize,
    /// Count of read-match constraints generated.
    pub n_read_matches: usize,
    /// Count of `cf` definition variables.
    pub n_cf_vars: usize,
    /// Original trace position of each order variable's (first) event,
    /// indexed by `IntVar` — the phase-hint near-model.
    pub var_pos: Vec<i64>,
    /// Events actually encoded (the cone; equals `window_events` when
    /// slicing is off or inactive).
    pub cone_events: usize,
    /// Events in the window view the formula was cut from.
    pub window_events: usize,
    /// Total asserted constraints in the formula.
    pub n_constraints: usize,
}

impl Encoded {
    /// The order variable of an event.
    ///
    /// # Panics
    ///
    /// Panics if the event is outside the encoded view.
    pub fn ovar(&self, e: EventId) -> IntVar {
        self.ovars[e.index() - self.view_start]
    }

    /// The truth value of a difference atom under the original trace order
    /// (with the racing pair glued at the first event's position). The
    /// observed trace satisfies `Φ_mhb ∧ Φ_lock` and read consistency, so
    /// seeding SAT phases with this near-model speeds up both SAT and UNSAT
    /// instances considerably.
    pub fn phase_hint(&self, atom: &rvsmt::Atom) -> bool {
        let p = |v: rvsmt::IntVar| self.var_pos.get(v.index()).copied().unwrap_or(0);
        p(atom.x) - p(atom.y) <= atom.k
    }

    /// A compact description of the constraint system, in the spirit of the
    /// paper's Figure 5. Reports the cone-vs-window slice ratio and the
    /// post-slicing constraint-group counts so `--trace-log` output stays
    /// meaningful under relevance slicing.
    pub fn describe(&self) -> String {
        format!(
            "cone {}/{} events ({} sliced out); Φ_mhb: {} orderings; Φ_lock: {} region pairs; Φ_race: {} cf vars, {} read matches; {} branches asserted feasible; {} constraints",
            self.cone_events,
            self.window_events,
            self.window_events - self.cone_events,
            self.n_mhb, self.n_lock, self.n_cf_vars, self.n_read_matches,
            self.required_branches.len(),
            self.n_constraints
        )
    }
}

struct Encoder<'v, 't> {
    view: &'v View<'t>,
    fb: FormulaBuilder,
    ovars: Vec<IntVar>,
    var_pos: Vec<i64>,
    view_start: usize,
    /// In single-COP mode the pair shares one order variable (`O_a := O_b`
    /// substitution); in batch mode every event has its own variable and
    /// adjacency is an equality guarded by a per-COP selector.
    glued: Option<Cop>,
    /// When slicing, the cone of influence: events outside it get no real
    /// order variable and no constraints.
    cone: Option<&'v Cone>,
    opts: EncoderOptions,
    cf_cache: HashMap<EventId, TermId>,
    n_mhb: usize,
    n_lock: usize,
    n_read_matches: usize,
}

impl<'v, 't> Encoder<'v, 't> {
    fn new(
        view: &'v View<'t>,
        glued: Option<Cop>,
        cone: Option<&'v Cone>,
        opts: EncoderOptions,
    ) -> Self {
        let mut fb = FormulaBuilder::new();
        let view_start = view.range().start;
        let mut ovars = Vec::with_capacity(view.len());
        let mut var_pos: Vec<i64> = Vec::new();
        // Sliced-out events all map to one dummy variable that no
        // constraint may mention (`o()` debug-asserts cone membership), so
        // `ovars` keeps its dense event→var indexing.
        let dummy = match cone {
            Some(c) if c.n_events() < view.len() => {
                let v = fb.int_var();
                debug_assert_eq!(v.index(), var_pos.len());
                var_pos.push(0);
                Some(v)
            }
            _ => None,
        };
        for id in view.ids() {
            if glued.map(|c| c.second) == Some(id) {
                // O_a := O_b substitution (paper §4): the pair shares a var.
                let first = ovars[glued.expect("checked").first.index() - view_start];
                ovars.push(first);
            } else if let (Some(d), Some(c)) = (dummy, cone) {
                if c.contains(view, id) {
                    let v = fb.int_var();
                    debug_assert_eq!(v.index(), var_pos.len());
                    var_pos.push(id.index() as i64);
                    ovars.push(v);
                } else {
                    ovars.push(d);
                }
            } else {
                let v = fb.int_var();
                debug_assert_eq!(v.index(), var_pos.len());
                var_pos.push(id.index() as i64);
                ovars.push(v);
            }
        }
        Encoder {
            view,
            fb,
            ovars,
            var_pos,
            view_start,
            glued,
            cone,
            opts,
            cf_cache: HashMap::new(),
            n_mhb: 0,
            n_lock: 0,
            n_read_matches: 0,
        }
    }

    #[inline]
    fn o(&self, e: EventId) -> IntVar {
        debug_assert!(
            self.cone.map_or(true, |c| c.contains(self.view, e)),
            "order variable requested for sliced-out event {e:?}"
        );
        self.ovars[e.index() - self.view_start]
    }

    /// The ordering atom `p < q`, aware of the `O_a := O_b` substitution:
    /// the glued pair is oriented "first immediately before second", so a
    /// direct constraint between them folds to ⊤ or ⊥ rather than to the
    /// contradictory `O − O ≤ −1`.
    fn lt_term(&mut self, p: EventId, q: EventId) -> TermId {
        if p == q {
            return self.fb.ff();
        }
        let (op, oq) = (self.o(p), self.o(q));
        if op == oq {
            let glued = self.glued.expect("shared vars only exist for a glued pair");
            return if p == glued.first && q == glued.second {
                self.fb.tt()
            } else {
                self.fb.ff()
            };
        }
        self.fb.lt(op, oq)
    }

    fn assert_lt(&mut self, a: EventId, b: EventId) {
        let t = self.lt_term(a, b);
        self.fb.assert_term(t);
        self.n_mhb += 1;
    }

    /// `Φ_mhb`: program order, fork→begin, end→join, and the wait/notify
    /// matching constraints of paper §4. With a cone, only the cone's
    /// per-thread prefixes, edges, and marked links are constrained; the
    /// dropped tail is satisfiable in trace order (see DESIGN.md,
    /// "Relevance slicing").
    fn encode_mhb(&mut self) {
        if let Some(cone) = self.cone {
            self.encode_mhb_sliced(cone);
            return;
        }
        let view = self.view;
        let trace = view.trace();
        // Program order: adjacent pairs suffice (IDL `<` is transitive).
        for &t in trace.threads() {
            let evs = view.thread_events(t);
            for w in evs.windows(2) {
                self.assert_lt(w[0], w[1]);
            }
        }
        // fork→begin and end→join edges within the view.
        for id in view.ids() {
            let edge_from = match view.event(id).kind {
                EventKind::Begin => view.fork_of(view.event(id).thread),
                EventKind::Join { child } => view.end_of(child),
                _ => None,
            };
            if let Some(from) = edge_from {
                self.assert_lt(from, id);
            }
        }
        // wait/notify: the notify is ordered inside its wait's
        // release–acquire span and outside every other same-lock wait span.
        self.encode_wait_links(&complete_wait_links(view));
        // Channel matching: each linked recv observes its send.
        let in_view = |e: EventId| view.contains(e);
        let mlinks: Vec<rvtrace::MsgLink> = trace
            .msg_links()
            .iter()
            .filter(|ml| in_view(ml.send) && in_view(ml.recv))
            .copied()
            .collect();
        for ml in mlinks {
            self.assert_lt(ml.send, ml.recv);
        }
    }

    /// The cone-restricted `Φ_mhb`: program order over each thread's cone
    /// prefix, the cone's fork/join edges, and the cone's wait links.
    fn encode_mhb_sliced(&mut self, cone: &Cone) {
        let view = self.view;
        let threads: Vec<rvtrace::ThreadId> = view.trace().threads().to_vec();
        for (ti, &t) in threads.iter().enumerate() {
            let evs = view.thread_events(t);
            let cut = cone.need(ti).min(evs.len());
            for w in evs[..cut].windows(2) {
                self.assert_lt(w[0], w[1]);
            }
        }
        let edges = cone.edges().to_vec();
        for (src, dst) in edges {
            self.assert_lt(src, dst);
        }
        let links = cone.links().to_vec();
        self.encode_wait_links(&links);
        // Channel links whose endpoints both survived the cut. (Slicing is
        // disabled for views with extended sync events, so this arm is a
        // defensive no-op in the detector pipeline.)
        let mlinks: Vec<rvtrace::MsgLink> = view.trace().msg_links().to_vec();
        for ml in mlinks {
            if view.contains(ml.send)
                && view.contains(ml.recv)
                && cone.contains(view, ml.send)
                && cone.contains(view, ml.recv)
            {
                self.assert_lt(ml.send, ml.recv);
            }
        }
    }

    /// Asserts the wait/notify matching constraints for `links` (each
    /// notify inside its own release–acquire span, outside every other
    /// same-lock span of the set).
    fn encode_wait_links(&mut self, links: &[rvtrace::WaitLink]) {
        let view = self.view;
        for wl in links {
            let n = wl.notify.expect("filtered");
            self.assert_lt(wl.release, n);
            self.assert_lt(n, wl.acquire);
            let lock = view.event(n).kind.lock();
            for other in links {
                if other.release == wl.release {
                    continue;
                }
                let other_lock = view.event(other.acquire).kind.lock();
                if lock != other_lock {
                    continue;
                }
                // n ∉ (other.release, other.acquire)
                let before = self.lt_term(n, other.release);
                let after = self.lt_term(other.acquire, n);
                let t = self.fb.or2(before, after);
                self.fb.assert_term(t);
            }
        }
    }

    /// `Φ_lock`: for every pair of same-lock critical sections by different
    /// threads (read-mode spans exclude write-mode spans but not each
    /// other), one releases before the other acquires. With a cone, only
    /// cone-held locks are constrained — a lock no cone event holds has
    /// all its spans outside the cone (locksets cover the acquire and
    /// release endpoints), so the dropped disjunctions hold in trace order
    /// for any tail extension of a sliced model.
    ///
    /// With a cut `d` the form is *conditional*: mutual exclusion is only
    /// required of spans scheduled before `D`, so each disjunction gains
    /// `D < a₁` and `D < a₂` escape hatches — a span whose acquire falls
    /// after `D` is outside the witness prefix and needs no
    /// serialization. Spans open *at* `D` (acquire before, release after)
    /// still exclude each other — all four disjuncts are false for two
    /// such spans, which is exactly the one-holder-per-lock invariant of
    /// the deadlocked state.
    fn encode_lock(&mut self, d: Option<IntVar>) {
        for lock_idx in 0..self.view.trace().n_locks() as u32 {
            let lock = rvtrace::LockId(lock_idx);
            if let Some(cone) = self.cone {
                if !cone.lock_held(lock) {
                    continue;
                }
            }
            let spans = self.view.critical_sections(lock);
            let rspans = self.view.read_critical_sections(lock);
            let mut pairs: Vec<(&rvtrace::CsSpan, &rvtrace::CsSpan)> = Vec::new();
            for i in 0..spans.len() {
                for j in i + 1..spans.len() {
                    pairs.push((&spans[i], &spans[j]));
                }
            }
            for s in spans {
                for r in rspans {
                    pairs.push((s, r));
                }
            }
            for (s1, s2) in pairs {
                if s1.thread == s2.thread {
                    continue; // ordered by program order already
                }
                let mut disjuncts: Vec<TermId> = Vec::new();
                if let (Some(r1), Some(a2)) = (s1.release, s2.acquire) {
                    disjuncts.push(self.lt_term(r1, a2));
                }
                if let (Some(r2), Some(a1)) = (s2.release, s1.acquire) {
                    disjuncts.push(self.lt_term(r2, a1));
                }
                if let Some(d) = d {
                    for a in [s1.acquire, s2.acquire].into_iter().flatten() {
                        let o = self.o(a);
                        disjuncts.push(self.fb.lt(d, o));
                    }
                }
                // No disjunct at all only on inconsistent input: ⊥.
                let t = self.fb.or_n(disjuncts);
                self.fb.assert_term(t);
                self.n_lock += 1;
            }
        }
    }

    /// The read-match constraint for `r` (paper §3.2, the `cf(r)`
    /// disjunction). With `recursive`, matched writes must be concretely
    /// feasible themselves (`cf(w)`); the Said baseline sets
    /// `recursive = false` because it fixes all written values.
    fn read_match(&mut self, r: EventId, recursive: bool) -> TermId {
        self.n_read_matches += 1;
        let view = self.view;
        let ev = view.event(r);
        let (var, value) = match ev.kind {
            EventKind::Read { var, value } => (var, value),
            _ => unreachable!("read_match on non-read"),
        };
        let prune = self.opts.prune_write_sets;
        let (wr, wrv) = write_sets(view, r, prune);
        let mut disjuncts: Vec<TermId> = Vec::with_capacity(wrv.len() + 1);
        for &w in &wrv {
            let mut conj: Vec<TermId> = Vec::new();
            if recursive {
                conj.push(self.cf(w));
            }
            if !view.mhb(w, r) {
                let t = self.lt_term(w, r);
                conj.push(t);
            }
            for &w2 in &wr {
                if w2 == w || (prune && view.mhb(w2, w)) {
                    continue;
                }
                // Use ⪯ to degenerate the disjunction where possible
                // (paper §3.2's size reduction): if w2 ⪯ r the second
                // disjunct is impossible; if w ⪯ w2 the first is.
                let t = if prune && view.mhb(w2, r) {
                    self.lt_term(w2, w)
                } else if prune && view.mhb(w, w2) {
                    self.lt_term(r, w2)
                } else {
                    let before = self.lt_term(w2, w);
                    let after = self.lt_term(r, w2);
                    self.fb.or2(before, after)
                };
                conj.push(t);
            }
            let d = self.fb.and_n(conj);
            disjuncts.push(d);
        }
        // The virtual initial write: allowed when the read's value equals the
        // variable's value at window start (licenses e.g. the paper's
        // 8' = read(t2, y, 0) reordering of Figure 4).
        if value == view.initial_value(var) {
            let mut conj: Vec<TermId> = Vec::new();
            for &w2 in &wr {
                let t = self.lt_term(r, w2);
                conj.push(t);
            }
            let d = self.fb.and_n(conj);
            disjuncts.push(d);
        }
        self.fb.or_n(disjuncts)
    }

    /// The concrete-feasibility definition variable `cf(e)` for a branch,
    /// write, or read (memoized; cycles allowed through the definition
    /// variable).
    fn cf(&mut self, e: EventId) -> TermId {
        if let Some(&t) = self.cf_cache.get(&e) {
            return t;
        }
        let var = self.fb.bool_var();
        self.cf_cache.insert(e, var);
        let rhs = match self.view.event(e).kind {
            EventKind::Branch | EventKind::Write { .. } => {
                let reads: Vec<EventId> = self.view.thread_reads_before(e).to_vec();
                let parts: Vec<TermId> = reads.iter().map(|&r| self.cf(r)).collect();
                self.fb.and_n(parts)
            }
            EventKind::Read { .. } => self.read_match(e, true),
            _ => self.fb.tt(),
        };
        let imp = self.fb.implies(var, rhs);
        self.fb.assert_term(imp);
        var
    }

    /// The prefix obligation of deadlock goals, defined once per window:
    /// every branch scheduled before the cut `d` is concretely feasible
    /// (`∧_b D < O_b ∨ cf(b)`), or, under whole-trace consistency, every
    /// read before it keeps its observed value (`∧_r D < O_r ∨ match(r)`).
    /// Returns a fresh literal `pf` that implies the conjunction. `pf` is
    /// never asserted and is reached only through selectors, so it binds
    /// nothing unless a deadlock goal is assumed.
    fn prefix_feasible(&mut self, d: IntVar) -> TermId {
        let view = self.view;
        let whole_trace = self.opts.mode == ConsistencyMode::WholeTrace;
        let events: Vec<EventId> = view
            .ids()
            .filter(|&id| match whole_trace {
                true => view.event(id).kind.is_read(),
                false => view.event(id).kind.is_branch(),
            })
            .collect();
        let mut parts = Vec::with_capacity(events.len());
        for e in events {
            let oe = self.o(e);
            let after_d = self.fb.lt(d, oe);
            let holds = match whole_trace {
                true => self.read_match(e, false),
                false => self.cf(e),
            };
            parts.push(self.fb.or2(after_d, holds));
        }
        let pf = self.fb.bool_var();
        let body = self.fb.and_n(parts);
        let imp = self.fb.implies(pf, body);
        self.fb.assert_term(imp);
        pf
    }

    /// A deadlock goal's cycle obligations: each blocked acquire sits just
    /// past the cut `d` — its program-order prefix (which includes the
    /// hold of its contributed lock, but not the release) is in the
    /// witness, the acquire itself is not.
    fn cycle_pins(&mut self, acquires: &[EventId], d: IntVar) -> Vec<TermId> {
        let mut pins = Vec::with_capacity(2 * acquires.len());
        let view = self.view;
        for &a in acquires {
            let evs = view.thread_events(view.event(a).thread);
            let pos = evs
                .iter()
                .position(|&x| x == a)
                .expect("cycle event in view");
            if pos > 0 {
                let op = self.o(evs[pos - 1]);
                pins.push(self.fb.lt(op, d));
            }
            let oa = self.o(a);
            pins.push(self.fb.lt(d, oa));
        }
        pins
    }

    /// `Φ_race` for the COP: the control-flow feasibility of both events
    /// (the adjacency itself is the variable substitution).
    fn encode_race(&mut self, cop: Cop) -> Vec<EventId> {
        match self.opts.mode {
            ConsistencyMode::ControlFlow => {
                let mut required = Vec::new();
                for e in [cop.first, cop.second] {
                    for b in self.view.last_branches_before(e) {
                        let t = self.cf(b);
                        self.fb.assert_term(t);
                        required.push(b);
                    }
                }
                required.sort_unstable();
                required.dedup();
                required
            }
            ConsistencyMode::WholeTrace => {
                // Said et al.: every read keeps its original value.
                let reads: Vec<EventId> = self
                    .view
                    .ids()
                    .filter(|&id| self.view.event(id).kind.is_read())
                    .collect();
                for r in reads {
                    let t = self.read_match(r, false);
                    self.fb.assert_term(t);
                }
                Vec::new()
            }
        }
    }
}

/// The wait links with release, notify and re-acquire all inside `view`:
/// the exact set `Φ_mhb` constrains.
pub(crate) fn complete_wait_links(view: &View<'_>) -> Vec<WaitLink> {
    let in_view = |e: EventId| view.contains(e);
    view.trace()
        .wait_links()
        .iter()
        .filter(|wl| in_view(wl.release) && in_view(wl.acquire) && wl.notify.is_some_and(in_view))
        .copied()
        .collect()
}

/// The write sets of a read `r` (paper §3.2): `W^r`, every write on `r`'s
/// variable not forced after it, and `W^r_v`, the same-value candidates it
/// may match (shadow-pruned when `prune`). Shared between the encoder's
/// `read_match` and the cone computation so the slice admits exactly the
/// writes the formula will mention.
pub(crate) fn write_sets(view: &View<'_>, r: EventId, prune: bool) -> (Vec<EventId>, Vec<EventId>) {
    let (var, value) = match view.event(r).kind {
        EventKind::Read { var, value } => (var, value),
        _ => unreachable!("write_sets on non-read"),
    };
    // W^r: all writes on the variable, minus those forced after r.
    let wr: Vec<EventId> = view
        .writes_of(var)
        .iter()
        .copied()
        .filter(|&w| w != r && !(prune && view.mhb(r, w)))
        .collect();
    // W^r_v: candidate matched writes (same value).
    let mut wrv: Vec<EventId> = wr
        .iter()
        .copied()
        .filter(|&w| view.event(w).kind.value() == Some(value))
        .collect();
    if prune {
        // Drop w1 when some other candidate w2 satisfies w1 ⪯ w2 ⪯ r.
        let shadowed: Vec<bool> = wrv
            .iter()
            .map(|&w1| {
                wrv.iter()
                    .any(|&w2| w2 != w1 && view.mhb(w1, w2) && view.mhb(w2, r))
            })
            .collect();
        let mut keep = shadowed.iter().map(|s| !s);
        wrv.retain(|_| keep.next().expect("aligned"));
    }
    (wr, wrv)
}

/// Encodes the maximal race-detection problem for `cop` over `view`.
///
/// The returned formula is satisfiable iff `cop` is a race in the maximal
/// sense of paper Definition 4 (restricted to the window), per Theorem 3.
///
/// # Examples
///
/// ```
/// use rvcore::{encode, EncoderOptions};
/// use rvsmt::{Budget, SmtResult, Solver};
/// use rvtrace::{Cop, ThreadId, TraceBuilder, ViewExt};
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// let t2 = b.fork(ThreadId::MAIN);
/// let w = b.write(ThreadId::MAIN, x, 1);
/// let r = b.read(t2, x, 1);
/// let trace = b.finish();
/// let view = trace.full_view();
/// let enc = encode(&view, Cop::new(w, r), EncoderOptions::default());
/// let mut solver = Solver::new(&enc.fb);
/// assert_eq!(solver.solve(&Budget::UNLIMITED), SmtResult::Sat);
/// ```
pub fn encode(view: &View<'_>, cop: Cop, opts: EncoderOptions) -> Encoded {
    if opts.slicing_active() && !view.has_extended_sync() {
        let skel = WindowSkeleton::new(view);
        return encode_with_skeleton(&skel, cop, opts);
    }
    encode_cop(view, cop, None, opts)
}

/// [`encode`] with a precomputed per-window [`WindowSkeleton`], so the
/// skeleton's one-time indexes are shared across all of a window's COPs.
/// Computes the COP's cone of influence and encodes only over it (when
/// slicing is active for `opts`; otherwise identical to [`encode`]).
pub fn encode_with_skeleton(
    skel: &WindowSkeleton<'_, '_>,
    cop: Cop,
    opts: EncoderOptions,
) -> Encoded {
    if !opts.slicing_active() || skel.view().has_extended_sync() {
        // Conservative admission: a window with rwlock/channel events is
        // encoded whole — the cone analysis does not model their edges.
        return encode_cop(skel.view(), cop, None, opts);
    }
    let cone = skel.cone(std::slice::from_ref(&cop), opts.prune_write_sets);
    encode_cop(skel.view(), cop, Some(&cone), opts)
}

fn encode_cop(view: &View<'_>, cop: Cop, cone: Option<&Cone>, opts: EncoderOptions) -> Encoded {
    debug_assert!(view.contains(cop.first) && view.contains(cop.second));
    let mut enc = Encoder::new(view, Some(cop), cone, opts);
    enc.encode_mhb();
    match opts.mode {
        ConsistencyMode::ControlFlow => {
            // The witness for a race is the prefix `{e : O_e ≤ O_cop}` —
            // a lock region whose acquire lands past the pair needs no
            // serialization, so Φ_lock takes the conditional form with
            // the cut `D` pinned to the (glued) pair itself. The
            // unconditional form would demand nested regions *behind*
            // the pair complete, refuting e.g. the race just ahead of a
            // two-lock inversion.
            let d = enc.fb.int_var();
            debug_assert_eq!(d.index(), enc.var_pos.len());
            enc.var_pos.push(cop.first.index() as i64);
            let o = enc.o(cop.first);
            let le = enc.fb.diff_le(d, o, 0);
            enc.fb.assert_term(le);
            let ge = enc.fb.diff_le(o, d, 0);
            enc.fb.assert_term(ge);
            enc.encode_lock(Some(d));
        }
        // Said et al. predict over whole-trace reorderings; full spans
        // keep the baseline's published (non-maximal) discipline.
        ConsistencyMode::WholeTrace => enc.encode_lock(None),
    }
    let required_branches = enc.encode_race(cop);
    let n_cf_vars = enc.cf_cache.len();
    let n_constraints = enc.fb.asserted().len();
    Encoded {
        fb: enc.fb,
        ovars: enc.ovars,
        view_start: enc.view_start,
        required_branches,
        n_mhb: enc.n_mhb,
        n_lock: enc.n_lock,
        n_read_matches: enc.n_read_matches,
        n_cf_vars,
        var_pos: enc.var_pos,
        cone_events: cone.map_or(view.len(), |c| c.n_events()),
        window_events: view.len(),
        n_constraints,
    }
}

/// The shared constraint system of one window session ([`encode_goals`]):
/// the base `Φ_mhb ∧ Φ_lock` plus shared `cf`/read-consistency
/// definitions, with one boolean *selector* per goal guarding that goal's
/// obligations. Queries assume one selector at a time on one incremental
/// solver, sharing learnt clauses across goals.
#[derive(Debug)]
pub struct EncodedWindow {
    /// The formula.
    pub fb: FormulaBuilder,
    /// Order variable per view offset (every event has its own).
    pub ovars: Vec<IntVar>,
    /// Start of the view range.
    pub view_start: usize,
    /// One selector (free boolean) per goal, for `solve_assuming`.
    pub selectors: Vec<TermId>,
    /// Per goal, the branches whose feasibility its selector asserts.
    pub required_branches: Vec<Vec<EventId>>,
    /// The shared prefix cut `D` (absent for whole-trace race and
    /// atomicity sessions, whose `Φ_lock` is unconditional).
    pub dvar: Option<IntVar>,
    /// Original trace position per order variable (phase hints).
    pub var_pos: Vec<i64>,
    /// Events actually encoded (the union cone over all the window's
    /// COPs; equals `window_events` when slicing is off or inactive).
    pub cone_events: usize,
    /// Events in the window view the formula was cut from.
    pub window_events: usize,
    /// Total asserted constraints in the formula.
    pub n_constraints: usize,
}

impl EncodedWindow {
    /// The order variable of an event.
    ///
    /// # Panics
    ///
    /// Panics if the event is outside the encoded view.
    pub fn ovar(&self, e: EventId) -> IntVar {
        self.ovars[e.index() - self.view_start]
    }

    /// Phase hint from the original trace order (see [`Encoded::phase_hint`]).
    pub fn phase_hint(&self, atom: &rvsmt::Atom) -> bool {
        let p = |v: rvsmt::IntVar| self.var_pos.get(v.index()).copied().unwrap_or(0);
        p(atom.x) - p(atom.y) <= atom.k
    }
}

/// One selector-guarded property of a window session: what a violation
/// class asserts over the shared closure `Φ_mhb ∧ Φ_lock ∧ Φ_cf` (paper
/// §2.5). A session holds goals of one kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Goal {
    /// A data race: the COP's events adjacent, `O_b = O_a + 1`, with the
    /// cut at `O_b` and the `π_cf` obligations of both events.
    Race(Cop),
    /// An atomicity violation `[a₁, b, a₂]`: `O_{a₁} < O_b < O_{a₂}`,
    /// with the cut at `O_{a₂}` and the `π_cf` obligations of all three.
    Between([EventId; 3]),
    /// A deadlock: the blocked acquires of one lock cycle, each pinned
    /// just past the cut with its program-order prefix before it, plus
    /// the window's prefix-feasibility literal `pf`.
    Deadlock(Vec<EventId>),
}

impl Goal {
    /// The event the cut's phase hint is drawn from: the later race
    /// event, `a₂`, or the earliest blocked acquire.
    fn anchor(&self) -> EventId {
        match self {
            Goal::Race(cop) => cop.second,
            Goal::Between([_, _, a2]) => *a2,
            Goal::Deadlock(acquires) => *acquires.iter().min().expect("non-empty cycle"),
        }
    }

    /// The events whose `π_cf` the goal asserts under control flow (a
    /// deadlock's prefix obligation is `pf` instead).
    fn cf_events(&self) -> Vec<EventId> {
        match self {
            Goal::Race(cop) => vec![cop.first, cop.second],
            Goal::Between(triple) => triple.to_vec(),
            Goal::Deadlock(_) => Vec::new(),
        }
    }
}

/// Encodes one window session: the shared base once, then one selector per
/// goal guarding only that goal's obligations (the one builder behind
/// every batched query — race residue, deadlock cycles and atomicity
/// triples alike).
///
/// The base is `Φ_mhb` plus a shared prefix cut `D` with *conditional*
/// `Φ_lock` (a lock region acquired past `D` is outside the witness prefix
/// and needs no serialization). Race and atomicity selectors pin `D` onto
/// their anchor; exactly one selector is assumed per query, so one `D`
/// serves them all. Under whole-trace consistency race and atomicity
/// sessions keep the baseline's discipline instead: unconditional
/// `Φ_lock`, no `D`, and every read's match asserted once. Deadlock
/// sessions keep `D` in both modes, and their prefix obligation is
/// defined once per window as one literal `pf` that every deadlock
/// selector implies: `pf ⇒ ∧_b (D < O_b ∨ cf(b))` over the window's
/// branches, or `pf ⇒ ∧_r (D < O_r ∨ match(r))` over its reads under
/// whole-trace consistency.
///
/// Only race sessions slice: with slicing active the base covers the
/// union cone of the COPs. The atomicity and deadlock obligations roam
/// the whole window, which the cone analysis does not model.
pub fn encode_goals(view: &View<'_>, goals: &[Goal], opts: EncoderOptions) -> EncodedWindow {
    let cops: Vec<Cop> = goals
        .iter()
        .filter_map(|g| match g {
            Goal::Race(cop) => Some(*cop),
            _ => None,
        })
        .collect();
    let sliced = cops.len() == goals.len() && opts.slicing_active() && !view.has_extended_sync();
    let cone = sliced.then(|| WindowSkeleton::new(view).cone(&cops, opts.prune_write_sets));
    let mut enc = Encoder::new(view, None, cone.as_ref(), opts);
    enc.encode_mhb();
    let kind = |g: &Goal| std::mem::discriminant(g);
    debug_assert!(
        goals.iter().all(|g| kind(g) == kind(&goals[0])),
        "a session holds goals of one kind"
    );
    let deadlock = matches!(goals.first(), Some(Goal::Deadlock(_)));
    let dvar = if opts.mode == ConsistencyMode::WholeTrace && !deadlock {
        enc.encode_lock(None);
        // Whole-trace read consistency is goal-independent: assert it once.
        let reads: Vec<EventId> = view
            .ids()
            .filter(|&id| view.event(id).kind.is_read())
            .collect();
        for r in reads {
            let t = enc.read_match(r, false);
            enc.fb.assert_term(t);
        }
        None
    } else {
        let d = enc.fb.int_var();
        debug_assert_eq!(d.index(), enc.var_pos.len());
        let hint = goals.iter().map(|g| g.anchor().index() as i64).max();
        enc.var_pos.push(hint.unwrap_or(0));
        enc.encode_lock(Some(d));
        Some(d)
    };
    let pf = match dvar {
        Some(d) if deadlock => Some(enc.prefix_feasible(d)),
        _ => None,
    };
    let mut selectors = Vec::with_capacity(goals.len());
    let mut required_branches = Vec::with_capacity(goals.len());
    for goal in goals {
        let sel = enc.fb.bool_var();
        let mut obligations = match goal {
            Goal::Race(cop) => {
                debug_assert!(view.contains(cop.first) && view.contains(cop.second));
                let (oa, ob) = (enc.o(cop.first), enc.o(cop.second));
                // Adjacency as an equality: O_b − O_a ≤ 1 ∧ O_a − O_b ≤ −1.
                let up = enc.fb.diff_le(ob, oa, 1);
                let lo = enc.fb.diff_le(oa, ob, -1);
                vec![up, lo]
            }
            Goal::Between([a1, b, a2]) => {
                let lt1 = enc.lt_term(*a1, *b);
                let lt2 = enc.lt_term(*b, *a2);
                vec![lt1, lt2]
            }
            Goal::Deadlock(acquires) => enc.cycle_pins(acquires, dvar.expect("deadlock cut")),
        };
        match (dvar, pf) {
            (_, Some(pf)) => obligations.push(pf),
            (Some(d), None) => {
                // This goal's cut: D == O_anchor.
                let o = enc.o(goal.anchor());
                obligations.push(enc.fb.diff_le(d, o, 0));
                obligations.push(enc.fb.diff_le(o, d, 0));
            }
            (None, None) => {}
        }
        let mut branches = Vec::new();
        if opts.mode == ConsistencyMode::ControlFlow {
            for e in goal.cf_events() {
                for b in view.last_branches_before(e) {
                    obligations.push(enc.cf(b));
                    branches.push(b);
                }
            }
            branches.sort_unstable();
            branches.dedup();
        }
        let body = enc.fb.and_n(obligations);
        let imp = enc.fb.implies(sel, body);
        enc.fb.assert_term(imp);
        selectors.push(sel);
        required_branches.push(branches);
    }
    let n_constraints = enc.fb.asserted().len();
    EncodedWindow {
        fb: enc.fb,
        ovars: enc.ovars,
        view_start: enc.view_start,
        selectors,
        required_branches,
        dvar,
        var_pos: enc.var_pos,
        cone_events: cone.as_ref().map_or(view.len(), |c| c.n_events()),
        window_events: view.len(),
        n_constraints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsmt::{Budget, SmtResult, Solver};
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    fn solve(enc: &Encoded) -> SmtResult {
        let mut s = Solver::new(&enc.fb);
        s.solve(&Budget::UNLIMITED)
    }

    /// The paper's Figure 1/4 trace. Returns (trace, e3, e10, e12, e15, e4, e8).
    fn figure1() -> (rvtrace::Trace, [rvtrace::EventId; 6]) {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1); // 1. fork
        b.acquire(t1, l); // 2. lock
        let e3 = b.write(t1, x, 1); // 3. x = 1
        let e4 = b.write(t1, y, 1); // 4. y = 1
        b.release(t1, l); // 5. unlock
        b.acquire(t2, l); // 6. begin, 7. lock
        let e8 = b.read(t2, y, 1); // 8. r1 = y
        b.release(t2, l); // 9. unlock
        let e10 = b.read(t2, x, 1); // 10. r2 = x
        b.branch(t2); // 11. if (r1 == r2)
        let e12 = b.write(t2, z, 1); // 12. z = 1
        b.join(t1, t2); // 13. end, 14. join
        let e15 = b.read(t1, z, 1); // 15. r3 = z
        b.branch(t1); // 16. if (r3 == 0)
        (b.finish(), [e3, e10, e12, e15, e4, e8])
    }

    #[test]
    fn figure1_race_3_10_detected() {
        let (tr, ids) = figure1();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(ids[0], ids[1]), EncoderOptions::default());
        assert_eq!(
            solve(&enc),
            SmtResult::Sat,
            "(3,10) is a race under control flow"
        );
    }

    #[test]
    fn figure1_race_3_10_missed_by_whole_trace() {
        let (tr, ids) = figure1();
        let v = tr.full_view();
        let opts = EncoderOptions {
            mode: ConsistencyMode::WholeTrace,
            ..Default::default()
        };
        let enc = encode(&v, Cop::new(ids[0], ids[1]), opts);
        assert_eq!(solve(&enc), SmtResult::Unsat, "Said et al. misses (3,10)");
    }

    #[test]
    fn figure1_cop_12_15_not_a_race() {
        let (tr, ids) = figure1();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(ids[2], ids[3]), EncoderOptions::default());
        assert_eq!(
            solve(&enc),
            SmtResult::Unsat,
            "(12,15) is MHB-ordered via join"
        );
    }

    #[test]
    fn figure1_cop_4_8_not_a_race() {
        let (tr, ids) = figure1();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(ids[4], ids[5]), EncoderOptions::default());
        assert_eq!(solve(&enc), SmtResult::Unsat, "(4,8) is lock-protected");
    }

    /// Figure 2 case ①: y volatile, read then an independent read of x.
    #[test]
    fn figure2_case_read_is_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.volatile_var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let e1 = b.write(t1, x, 1);
        b.write(t1, y, 1);
        b.read(t2, y, 1); // r1 = y — no branch follows
        let e4 = b.read(t2, x, 1);
        let tr = b.finish();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(e1, e4), EncoderOptions::default());
        assert_eq!(solve(&enc), SmtResult::Sat, "(1,4) races in case ①");
        // …and Said misses it (line 3 must read 1, forcing 2 < 3 and 1 < 4
        // non-adjacent).
        let opts = EncoderOptions {
            mode: ConsistencyMode::WholeTrace,
            ..Default::default()
        };
        let enc = encode(&v, Cop::new(e1, e4), opts);
        assert_eq!(solve(&enc), SmtResult::Unsat, "Said misses (1,4) in case ①");
    }

    /// Figure 2 case ②: the read feeds a while-loop condition — a branch
    /// event between lines 3 and 4 kills the race.
    #[test]
    fn figure2_case_loop_is_not_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.volatile_var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let e1 = b.write(t1, x, 1);
        b.write(t1, y, 1);
        b.read(t2, y, 1); // while (y == 0);
        b.branch(t2); // the loop condition
        let e4 = b.read(t2, x, 1);
        let tr = b.finish();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(e1, e4), EncoderOptions::default());
        assert_eq!(
            solve(&enc),
            SmtResult::Unsat,
            "(1,4) is not a race in case ②"
        );
        assert_eq!(enc.required_branches.len(), 1);
    }

    /// §4's array example: `a[x] = 2` under a lock, `x = 1` under the lock,
    /// then `a[0] = 1` unprotected. The implicit branch before the array
    /// store forces `x`'s read to stay 0, which forces the lock order, so
    /// (2,7) is not a race.
    #[test]
    fn array_index_example_not_a_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let a0 = b.var("a[0]");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l); // 1. lock
        b.read(t1, x, 0); // read of the index x (part of line 2)
        b.branch(t1); // implicit branch: array indexing a[x]
        let e2 = b.write(t1, a0, 2); // 2. a[x] = 2 with x == 0
        b.release(t1, l); // 3. unlock
        b.acquire(t2, l); // 4. lock (+begin)
        b.write(t2, x, 1); // 5. x = 1
        b.release(t2, l); // 6. unlock
        let e7 = b.write(t2, a0, 1); // 7. a[0] = 1
        let tr = b.finish();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(e2, e7), EncoderOptions::default());
        assert_eq!(solve(&enc), SmtResult::Unsat, "(2,7) is not a race (§4)");
        // Without the implicit branch the encoder would wrongly report it:
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let a0 = b.var("a[0]");
        let l = b.new_lock("l");
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.read(t1, x, 0);
        let e2 = b.write(t1, a0, 2);
        b.release(t1, l);
        b.acquire(t2, l);
        b.write(t2, x, 1);
        b.release(t2, l);
        let e7 = b.write(t2, a0, 1);
        let tr = b.finish();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(e2, e7), EncoderOptions::default());
        assert_eq!(
            solve(&enc),
            SmtResult::Sat,
            "dropping the implicit branch loses soundness"
        );
    }

    #[test]
    fn mhb_ordered_pair_unsat() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let w = b.write(t1, x, 1);
        let t2 = b.fork(t1);
        let r = b.read(t2, x, 1);
        let tr = b.finish();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(w, r), EncoderOptions::default());
        assert_eq!(solve(&enc), SmtResult::Unsat);
    }

    #[test]
    fn describe_mentions_groups() {
        let (tr, ids) = figure1();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(ids[0], ids[1]), EncoderOptions::default());
        let d = enc.describe();
        assert!(d.contains("Φ_mhb") && d.contains("Φ_lock") && d.contains("Φ_race"));
        assert!(d.contains("cone") && d.contains("sliced out") && d.contains("constraints"));
        assert!(enc.n_mhb > 0);
        assert!(enc.n_lock >= 1);
        assert!(enc.cone_events > 0 && enc.cone_events <= enc.window_events);
        assert!(enc.n_constraints > 0);
    }

    /// Every Figure 1/2 verdict is identical with slicing off — the A/B
    /// toggle the CLI's `--no-slice` exposes.
    #[test]
    fn slicing_preserves_figure_verdicts() {
        let (tr, ids) = figure1();
        let v = tr.full_view();
        let sliced = EncoderOptions::default();
        let full = EncoderOptions {
            slice: false,
            ..Default::default()
        };
        assert!(sliced.slicing_active() && !full.slicing_active());
        for (a, b) in [
            (ids[0], ids[1]),
            (ids[2], ids[3]),
            (ids[4], ids[5]),
            (ids[0], ids[4]),
        ] {
            let cop = Cop::new(a, b);
            let vs = solve(&encode(&v, cop, sliced));
            let vf = solve(&encode(&v, cop, full));
            assert_eq!(vs, vf, "slicing changed the verdict of ({a},{b})");
        }
    }

    /// Whole-trace mode spans the window by definition, so slicing must be
    /// inert there even when requested.
    #[test]
    fn slicing_inactive_under_whole_trace() {
        let opts = EncoderOptions {
            mode: ConsistencyMode::WholeTrace,
            ..Default::default()
        };
        assert!(opts.slice && !opts.slicing_active());
        let (tr, ids) = figure1();
        let v = tr.full_view();
        let enc = encode(&v, Cop::new(ids[0], ids[1]), opts);
        assert_eq!(enc.cone_events, enc.window_events);
    }

    #[test]
    fn wait_notify_constraints_emitted() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        let tok = b.wait_begin(t1, l);
        b.acquire(t2, l);
        let n = b.notify(t2, l);
        b.release(t2, l);
        b.wait_end(tok, Some(n));
        let w1 = b.write(t1, x, 1);
        b.release(t1, l);
        let w2 = b.write(t2, x, 2);
        let tr = b.finish();
        let v = tr.full_view();
        // (w1, w2): w1 is inside t1's re-acquired region, w2 unprotected.
        let enc = encode(&v, Cop::new(w1, w2), EncoderOptions::default());
        let mut s = Solver::new(&enc.fb);
        let res = s.solve(&Budget::UNLIMITED);
        // Whatever the verdict, the notify ordering must hold in any model.
        if res == SmtResult::Sat {
            let o = |e| s.int_value(enc.ovar(e));
            let wl = tr.wait_links()[0];
            assert!(o(wl.release) < o(n) && o(n) < o(wl.acquire));
        }
    }
}
