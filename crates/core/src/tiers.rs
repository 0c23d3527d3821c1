//! Tiered pre-solver screens (ROADMAP item 1): sound analyses that
//! *decide* COPs before the Φ encoding is ever built.
//!
//! Two screens run per window, per COP, ahead of the SMT core:
//!
//! * **Tier A — witness construction** (after SyncP, Mathur /
//!   Pavlogiannis / Viswanathan): [`construct`](crate::witness::construct)
//!   closes the pair under program order, fork/join, recv→send, the
//!   trace justifiers of the `π_cf`-forced reads and same-lock region
//!   completion, emits the closure in trace order with the pair last, and
//!   validates it. An accepted schedule extends to a model of `Φ ∧ Φ_race`,
//!   so the COP is a race and the schedule is its witness, with no solver
//!   call. The cost is O(|witness|), not O(window).
//! * **Tier B — entailment refutation** (WCP/weak-HB flavored): collects
//!   the order edges `Φ_mhb ∧ Φ_lock ∧ π_cf` *entails* — program order,
//!   fork/join, wait links, one-sided lock disjunctions, read facts (a
//!   unique justifier's match, or the common MHB dominators of several
//!   justifiers) and their interference edges — and refutes the COP when
//!   the entailed order already contradicts the race adjacency (a path
//!   `second → first`, or any event strictly between the two). Every edge
//!   is a consequence of the formula, so refutation implies the solver
//!   would answer `Unsat`. Reachability is answered from the view's MHB
//!   vector clocks plus a small search over the few entailed edges MHB
//!   does not already imply, so a query costs no pass over the window.
//!
//! Whatever neither screen decides is the *residue* that reaches the
//! existing sliced Φ encoding unchanged; a residue race gets the canonical
//! solver witness. Both screens are window-local and deterministic, and
//! with the cascade off the detector runs the same constructor on every
//! SAT COP before falling back, so reports stay byte-identical to
//! solver-only mode at any worker count. [`decide`](TierAnalysis::decide)
//! runs the refuter first because it is the cheaper screen, but
//! attribution is always `Tier::A` for confirmations and `Tier::B` for
//! refutations.
//!
//! Soundness arguments for each screen are spelled out in DESIGN.md
//! ("Tiered cascade").

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

use rvtrace::{Cop, EventId, EventKind, View};

use crate::config::ConsistencyMode;
use crate::encoder::write_sets;
use crate::witness::{construct, Witness};

/// Which stage of the detection cascade decided a COP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The sync-preserving confirmation screen.
    A,
    /// The entailment refutation screen.
    B,
    /// The SMT core (the residue path, and every fault-forced verdict).
    Solver,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::A => write!(f, "tier-a"),
            Tier::B => write!(f, "tier-b"),
            Tier::Solver => write!(f, "solver"),
        }
    }
}

/// The cascade's verdict for one COP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierDecision {
    /// The witness constructor validated the pair's trace-order closure:
    /// the COP is a race, and that closure is its reported witness.
    Confirmed,
    /// Tier B proved no sound reordering races the pair: `Φ` is `Unsat`.
    Refuted,
    /// Neither screen decided; the COP goes to the solver.
    Residue,
}

/// Entailed order facts of one read's match constraint: either the
/// disjunction is empty (`refute`), or every disjunct shares the
/// conjuncts in `edges` — a unique justifier's whole conjunct, whose
/// write is then forced-feasible (`forces`), or the edges from the
/// common MHB dominators of several justifiers into the read.
#[derive(Debug, Clone, Default)]
struct ReadFacts {
    refute: bool,
    edges: Vec<(EventId, EventId)>,
    forces: Vec<EventId>,
}

/// A both-disjunct lock-span pair `(r1, a2, r2, a1)` standing for the
/// assertion `O_r1 < O_a2 ∨ O_r2 < O_a1`.
type CsPair = (EventId, EventId, EventId, EventId);

/// A *conditional* lock-span pair, mirroring the encoder's conditional `Φ_lock`:
/// `d1 ∨ d2 ∨ D < O_h1 ∨ D < O_h2` where `d1 = (r1 < a2)`,
/// `d2 = (r2 < a1)` and `D` is the per-COP cut. Used in the maximal
/// (ControlFlow) mode, where a span acquired past the racing pair needs no
/// serialization — so no span pair may become an unconditional base edge.
#[derive(Debug, Clone, Copy)]
struct CondPair {
    d1: Option<(EventId, EventId)>,
    d2: Option<(EventId, EventId)>,
    h1: Option<EventId>,
    h2: Option<EventId>,
}

/// Upper bound on both-disjunct lock pairs kept as E2 candidates: bounds
/// the quadratic span enumeration on hot locks. Dropping candidates only
/// loses refutation power, never soundness.
const MAX_CS_PAIRS: usize = 256;

/// Bound on per-COP lock-disjunction propagation rounds.
const MAX_E2_ROUNDS: usize = 3;

/// The reach set of one search, per thread: every event at or after
/// view position `pos[t]` of an `active` thread `t` is reached, and so is
/// everything those events MHB-precede. Unreached threads hold
/// `u32::MAX`, so a reset touches only the active ones.
#[derive(Debug)]
struct Frontier {
    pos: Vec<u32>,
    active: Vec<usize>,
}

impl Frontier {
    fn new(n_threads: usize) -> Self {
        Frontier {
            pos: vec![u32::MAX; n_threads],
            active: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for &t in &self.active {
            self.pos[t] = u32::MAX;
        }
        self.active.clear();
    }

    /// Adds `e` (and so everything it MHB-precedes) to the reach set.
    fn add(&mut self, view: &View<'_>, e: EventId) {
        let t = thread_of(view, e);
        if self.pos[t] == u32::MAX {
            self.active.push(t);
        }
        self.pos[t] = self.pos[t].min(view.vpos(e) as u32);
    }

    /// Whether `e` is in the reach set: some reached event MHB-precedes
    /// or equals it, read off `e`'s clock in O(active threads).
    fn reached(&self, view: &View<'_>, e: EventId) -> bool {
        let clock = view.clock(e);
        self.active.iter().any(|&t| clock.get(t) > self.pos[t])
    }
}

fn thread_of(view: &View<'_>, e: EventId) -> usize {
    view.trace()
        .thread_index(view.event(e).thread)
        .expect("event thread indexed")
}

/// The per-window tier state: the entailed edges beyond MHB, memoized
/// per-read facts and undischarged lock disjunctions, and the per-tier
/// time accumulators the detector folds into its report.
#[derive(Debug)]
pub struct TierAnalysis<'a> {
    view: &'a View<'a>,
    mode: ConsistencyMode,
    prune: bool,
    /// Entailed base edges the view's MHB clocks do not already imply
    /// (wait links, lock algebra, whole-trace read facts), sorted.
    sparse: Vec<(EventId, EventId)>,
    /// True when the window formula is `Unsat` regardless of the COP.
    refute_all: bool,
    /// Both-disjunct lock pairs left undischarged by the base fixpoint
    /// (whole-trace mode only).
    cs_pairs: Vec<CsPair>,
    /// Conditional lock pairs, discharged per COP against the cut
    /// (ControlFlow mode only).
    cond_pairs: Vec<CondPair>,
    facts: HashMap<EventId, ReadFacts>,
    /// The constructor's witness for the last decided COP, if it confirmed.
    witness: Option<Witness>,
    tier_a_time: Duration,
    tier_b_time: Duration,
    frontier: Frontier,
}

impl<'a> TierAnalysis<'a> {
    /// Builds the base entailment order for `view`: the view's MHB clocks
    /// (program order, fork → begin, end → join), wait links,
    /// single-disjunct lock orderings, whole-trace read facts (in
    /// [`ConsistencyMode::WholeTrace`]), and the fixpoint of lock
    /// disjunctions already discharged by those edges.
    pub fn new(view: &'a View<'a>, mode: ConsistencyMode, prune: bool) -> Self {
        let mut a = TierAnalysis {
            view,
            mode,
            prune,
            sparse: Vec::new(),
            refute_all: false,
            cs_pairs: Vec::new(),
            cond_pairs: Vec::new(),
            facts: HashMap::new(),
            witness: None,
            tier_a_time: Duration::ZERO,
            tier_b_time: Duration::ZERO,
            frontier: Frontier::new(view.threads().len()),
        };
        let t0 = Instant::now();
        a.build_base();
        a.tier_b_time += t0.elapsed();
        a
    }

    /// Records an entailed base edge unless MHB already implies it. The
    /// caller sorts `sparse` again before the next query.
    fn add_edge(&mut self, from: EventId, to: EventId) {
        if from != to && !self.view.mhb(from, to) {
            self.sparse.push((from, to));
        }
    }

    fn build_base(&mut self) {
        let view = self.view;
        // Complete in-view wait links: release < notify < re-acquire.
        for &wl in view.wait_links() {
            let n = wl.notify.expect("filtered");
            self.add_edge(wl.release, n);
            self.add_edge(n, wl.acquire);
        }
        // Lock spans. Whole-trace mode matches the unconditional `Φ_lock`:
        // one-sided disjunctions are unconditional edges, the degenerate
        // (both endpoints missing) case is `ff`, and two-sided disjunctions
        // become E2 candidates (deterministic order, capped). The maximal
        // mode matches the *conditional* `Φ_lock` instead: every pair keeps
        // its acquire escape hatches and is discharged per COP, because a
        // span acquired past the racing pair constrains nothing.
        'locks: for &lock in view.locks() {
            let spans = view.critical_sections(lock);
            for (i, s1) in spans.iter().enumerate() {
                for s2 in &spans[i + 1..] {
                    if s1.thread == s2.thread {
                        continue;
                    }
                    if self.mode == ConsistencyMode::ControlFlow {
                        if self.cond_pairs.len() == MAX_CS_PAIRS {
                            // Past the cap only the degenerate pair below
                            // could still matter, and it needs two spans
                            // of one lock open at window start.
                            break 'locks;
                        }
                        let p = CondPair {
                            d1: s1.release.zip(s2.acquire),
                            d2: s2.release.zip(s1.acquire),
                            h1: s1.acquire,
                            h2: s2.acquire,
                        };
                        if p.d1.is_none() && p.d2.is_none() && p.h1.is_none() && p.h2.is_none() {
                            self.refute_all = true; // empty disjunction: ff
                        } else {
                            self.cond_pairs.push(p);
                        }
                        continue;
                    }
                    match (s1.release, s2.acquire, s2.release, s1.acquire) {
                        (Some(r1), Some(a2), Some(r2), Some(a1)) => {
                            if self.cs_pairs.len() < MAX_CS_PAIRS {
                                self.cs_pairs.push((r1, a2, r2, a1));
                            }
                        }
                        (Some(r1), Some(a2), _, _) => self.add_edge(r1, a2),
                        (_, _, Some(r2), Some(a1)) => self.add_edge(r2, a1),
                        _ => self.refute_all = true,
                    }
                }
            }
        }
        // Said et al.: every window read keeps its value, unconditionally,
        // so every read's entailed facts are global edges.
        if self.mode == ConsistencyMode::WholeTrace {
            let reads: Vec<EventId> = view
                .ids()
                .filter(|&id| view.event(id).kind.is_read())
                .collect();
            for r in reads {
                let f = read_facts(view, self.prune, r);
                self.refute_all |= f.refute;
                for (x, y) in f.edges {
                    self.add_edge(x, y);
                }
            }
        }
        self.sparse.sort();
        // Base E2 fixpoint: discharge two-sided lock disjunctions whose
        // losing side the base edges already contradict.
        for _ in 0..MAX_E2_ROUNDS + 1 {
            let mut changed = false;
            let pairs = std::mem::take(&mut self.cs_pairs);
            let mut keep = Vec::with_capacity(pairs.len());
            for (r1, a2, r2, a1) in pairs {
                // `O_r1 < O_a2` is impossible iff a2 already reaches r1.
                let d1_dead = self.reaches(&[a2], &[r1], &[]);
                let d2_dead = self.reaches(&[a1], &[r2], &[]);
                let (x, y) = match (d1_dead, d2_dead) {
                    (true, true) => {
                        self.refute_all = true;
                        continue;
                    }
                    (true, false) => (r2, a1),
                    (false, true) => (r1, a2),
                    (false, false) => {
                        keep.push((r1, a2, r2, a1));
                        continue;
                    }
                };
                // One edge appended to a sorted run: `sort` merges it in
                // linear time.
                self.add_edge(x, y);
                self.sparse.sort();
                changed = true;
            }
            self.cs_pairs = keep;
            if !changed {
                break;
            }
        }
    }

    /// The entailed order facts of `read`'s match disjunction, mirroring
    /// exactly the disjuncts `read_match` builds (memoized).
    fn read_fact(&mut self, read: EventId) -> &ReadFacts {
        let (view, prune) = (self.view, self.prune);
        self.facts
            .entry(read)
            .or_insert_with(|| read_facts(view, prune, read))
    }

    /// Whether some event of `sources` reaches some event of `targets`
    /// through MHB, the base edges and `extra`. MHB paths are read off the
    /// clocks, so the search only walks the sparse edges, and of the base
    /// ones only those inside the trace range a path can use: base edges
    /// and MHB point forward in trace order (the observed trace is a model
    /// of `Φ`), so a path leaves `[lo, hi]` only through an `extra` edge.
    /// On a trace that breaks that assumption the range only loses paths,
    /// and every caller treats "not reached" as "no entailment".
    fn reaches(
        &mut self,
        sources: &[EventId],
        targets: &[EventId],
        extra: &[(EventId, EventId)],
    ) -> bool {
        let view = self.view;
        let lo = sources.iter().chain(extra.iter().map(|e| &e.1)).min();
        let hi = targets.iter().chain(extra.iter().map(|e| &e.0)).max();
        let (Some(&lo), Some(&hi)) = (lo, hi) else {
            return false;
        };
        let from = self.sparse.partition_point(|e| e.0 < lo);
        let to = self.sparse.partition_point(|e| e.0 <= hi);
        let base = &self.sparse[from..to.max(from)];
        let fr = &mut self.frontier;
        fr.reset();
        for &s in sources {
            fr.add(view, s);
        }
        loop {
            if targets.iter().any(|&v| fr.reached(view, v)) {
                return true;
            }
            let mut changed = false;
            for &(x, y) in base.iter().chain(extra) {
                if !fr.reached(view, y) && fr.reached(view, x) {
                    fr.add(view, y);
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
    }

    /// True when the base entailment order already puts `a` before `b`
    /// (exposed for the tier-algebra unit tests).
    pub fn entailed_before(&mut self, a: EventId, b: EventId) -> bool {
        a != b && self.reaches(&[a], &[b], &[])
    }

    /// Time spent in the confirmation screen so far.
    pub fn tier_a_time(&self) -> Duration {
        self.tier_a_time
    }

    /// Time spent in the refutation screen so far (including the base
    /// order construction).
    pub fn tier_b_time(&self) -> Duration {
        self.tier_b_time
    }

    /// Runs the cascade on one COP. The refuter (Tier B) runs first
    /// because it is the cheaper screen; a COP both screens could decide
    /// cannot exist (each is sound), so the order never changes verdicts.
    ///
    /// A confirmation keeps its witness, so the detector reports it
    /// without building it again.
    pub fn decide(&mut self, cop: &Cop) -> TierDecision {
        self.witness = None;
        let t0 = Instant::now();
        let refuted = self.refutes(cop);
        self.tier_b_time += t0.elapsed();
        if refuted {
            return TierDecision::Refuted;
        }
        let t0 = Instant::now();
        self.witness = construct(self.view, *cop, self.mode);
        self.tier_a_time += t0.elapsed();
        if self.witness.is_some() {
            TierDecision::Confirmed
        } else {
            TierDecision::Residue
        }
    }

    /// The witness of the last [`decide`](Self::decide), when it confirmed.
    pub(crate) fn take_witness(&mut self) -> Option<Witness> {
        self.witness.take()
    }

    // ----- Tier B: entailment refutation ------------------------------

    /// The refutation test proper: with the per-COP extra edges in place,
    /// `Φ ∧ Φ_race(cop)` is unsatisfiable iff the entailed order puts
    /// `second` before `first`, or any third event strictly between them
    /// (the race adjacency leaves no room for either). The latter holds
    /// iff some successor of `first` other than `second` reaches
    /// `second`; an access's only MHB successor is the next event of its
    /// thread, the rest are sparse edges out of it.
    fn adjacency_contradicted(&mut self, cop: &Cop, extra: &[(EventId, EventId)]) -> bool {
        let (a, b) = (cop.first, cop.second);
        if self.reaches(&[b], &[a], extra) {
            return true;
        }
        let view = self.view;
        let next = view
            .thread_events(view.event(a).thread)
            .get(view.vpos(a) + 1)
            .copied();
        let base_out = &self.sparse[self.sparse.partition_point(|e| e.0 < a)..];
        let out = base_out.iter().take_while(|e| e.0 == a);
        let succ: Vec<EventId> = next
            .into_iter()
            .chain(out.chain(extra.iter().filter(|e| e.0 == a)).map(|e| e.1))
            .filter(|&s| s != b)
            .collect();
        self.reaches(&succ, &[b], extra)
    }

    /// Collects into `extra` the read facts of the COP's forced-feasibility
    /// closure (ControlFlow only): the branches `Φ_race` asserts, their
    /// thread-prior reads, and each unique justifier's own closure — of
    /// the reads at or after `lo` only. Dropping facts only weakens the
    /// entailed order, so any `lo` is sound. Returns true when a closure
    /// read can never observe its value.
    fn closure(&mut self, cop: &Cop, lo: EventId, extra: &mut Vec<(EventId, EventId)>) -> bool {
        let view = self.view;
        let mut seen: HashSet<EventId> = HashSet::new();
        let mut work: Vec<EventId> = Vec::new();
        let mut reads_before = |e: EventId, work: &mut Vec<EventId>| {
            let reads = view.thread_reads_before(e);
            let from = reads.partition_point(|&r| r < lo);
            work.extend(reads[from..].iter().filter(|&&r| seen.insert(r)));
        };
        for e in [cop.first, cop.second] {
            for br in view.last_branches_before(e) {
                reads_before(br, &mut work);
            }
        }
        while let Some(r) = work.pop() {
            let f = self.read_fact(r);
            if f.refute {
                return true;
            }
            extra.extend_from_slice(&f.edges);
            for &w in &f.forces {
                reads_before(w, &mut work);
            }
        }
        false
    }

    fn refutes(&mut self, cop: &Cop) -> bool {
        if self.refute_all {
            return true;
        }
        if !self.view.contains(cop.first) || !self.view.contains(cop.second) {
            return false;
        }
        let control_flow = self.mode == ConsistencyMode::ControlFlow;
        // A path between the accesses never visits an event before
        // `first` (every entailed edge points forward in the observed
        // trace), so the adjacency test needs only the closure's reads
        // from `first` on: its cost tracks the pair's distance, not the
        // window's length.
        let mut extra: Vec<(EventId, EventId)> = Vec::new();
        if control_flow && self.closure(cop, cop.first, &mut extra) {
            return true;
        }
        if self.adjacency_contradicted(cop, &extra) {
            return true;
        }
        // Per-COP E2 rounds: with the extra edges in place, more lock
        // disjunctions may discharge; propagate a bounded number of times.
        // Lock spans anywhere in the window take part, so the closure is
        // widened to the whole window first.
        if self.cs_pairs.is_empty() && self.cond_pairs.is_empty() {
            return false;
        }
        if control_flow {
            extra.clear();
            let start = EventId(self.view.range().start as u32);
            if self.closure(cop, start, &mut extra) {
                return true;
            }
        }
        let mut discharged: Vec<bool> = vec![false; self.cs_pairs.len()];
        let mut cond_discharged: Vec<bool> = vec![false; self.cond_pairs.len()];
        for _ in 0..MAX_E2_ROUNDS {
            let mut changed = false;
            for (pi, done) in discharged.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                let (r1, a2, r2, a1) = self.cs_pairs[pi];
                let d1_dead = self.reaches(&[a2], &[r1], &extra);
                let d2_dead = self.reaches(&[a1], &[r2], &extra);
                match (d1_dead, d2_dead) {
                    (true, true) => return true,
                    (true, false) => extra.push((r2, a1)),
                    (false, true) => extra.push((r1, a2)),
                    (false, false) => continue,
                }
                *done = true;
                changed = true;
            }
            // Conditional pairs (maximal mode): a hatch `D < O_a` is dead
            // once the acquire is entailed at-or-before the cut, i.e. it
            // reaches either access of the glued pair. With every disjunct
            // dead the window refutes the COP; with exactly one alive its
            // content becomes entailed extra edges.
            let accesses = [cop.first, cop.second];
            for (pi, done) in cond_discharged.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                let p = self.cond_pairs[pi];
                let h1 = p.h1.filter(|&a| !self.reaches(&[a], &accesses, &extra));
                let h2 = p.h2.filter(|&a| !self.reaches(&[a], &accesses, &extra));
                let d1 = p.d1.filter(|&(r1, a2)| !self.reaches(&[a2], &[r1], &extra));
                let d2 = p.d2.filter(|&(r2, a1)| !self.reaches(&[a1], &[r2], &extra));
                match (d1, d2, h1, h2) {
                    (None, None, None, None) => return true,
                    (Some(d), None, None, None) | (None, Some(d), None, None) => extra.push(d),
                    (None, None, Some(a), None) | (None, None, None, Some(a)) => {
                        // Forced hatch: the span must open past the
                        // cut, so both accesses precede its acquire.
                        extra.push((cop.first, a));
                        extra.push((cop.second, a));
                    }
                    _ => continue, // two or more alive: no entailment yet
                }
                *done = true;
                changed = true;
            }
            if !changed {
                break;
            }
            if self.adjacency_contradicted(cop, &extra) {
                return true;
            }
        }
        false
    }
}

/// The entailed order facts of `read`'s match disjunction, mirroring
/// exactly the disjuncts `read_match` builds.
fn read_facts(view: &View<'_>, prune: bool, read: EventId) -> ReadFacts {
    let (var, value) = match view.event(read).kind {
        EventKind::Read { var, value } => (var, value),
        _ => unreachable!("read_facts on non-read"),
    };
    let (wr, wrv) = write_sets(view, read, prune);
    let initial_ok = value == view.initial_value(var);
    let mut f = ReadFacts::default();
    if !initial_ok && wrv.is_empty() {
        // `or_n([])` is `ff`: the read can never observe its value.
        f.refute = true;
    } else if !initial_ok && wrv.len() == 1 {
        // A unique justifying write: its whole conjunct is entailed.
        let w = wrv[0];
        f.edges.push((w, read));
        f.forces.push(w);
        for &w2 in &wr {
            if w2 == w || view.mhb(w2, w) {
                continue;
            }
            // `Φ_mhb` kills one side of the interference disjunction:
            // w2 ⪯ read forces w2 < w; w ⪯ w2 forces read < w2. (The
            // encoder degenerates these only under `prune`, but the
            // entailment holds either way.)
            if view.mhb(w2, read) {
                f.edges.push((w2, w));
            } else if view.mhb(w, w2) {
                f.edges.push((read, w2));
            }
        }
    } else if !initial_ok {
        // Several justifiers: every disjunct orders its own write before
        // the read, so whatever MHB-precedes every justifier precedes the
        // read. Per thread that is a prefix ending at the least of the
        // justifiers' clock entries: at most one edge per thread.
        let own = thread_of(view, read);
        for (t, &tid) in view.threads().iter().enumerate() {
            let common = wrv.iter().map(|&w| view.clock(w).get(t)).min();
            match common {
                Some(m) if m > 0 && t != own => {
                    let x = view.thread_events(tid)[m as usize - 1];
                    if !view.mhb(x, read) {
                        f.edges.push((x, read));
                    }
                }
                _ => {}
            }
        }
    } else if wrv.is_empty() {
        // Only the virtual initial write can justify the read.
        for &w2 in &wr {
            f.edges.push((read, w2));
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    #[test]
    fn tier_display_names() {
        assert_eq!(Tier::A.to_string(), "tier-a");
        assert_eq!(Tier::B.to_string(), "tier-b");
        assert_eq!(Tier::Solver.to_string(), "solver");
    }

    #[test]
    fn confirms_trivial_race_and_orders_program_order() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        let w = b.write(ThreadId::MAIN, x, 1);
        let r = b.read(t2, x, 1);
        let trace = b.finish();
        let view = trace.full_view();
        let mut tiers = TierAnalysis::new(&view, ConsistencyMode::ControlFlow, true);
        let cop = Cop::new(w, r);
        assert_eq!(tiers.decide(&cop), TierDecision::Confirmed);
        // fork → begin is an entailed base edge; accesses stay unordered.
        assert!(!tiers.entailed_before(w, r));
        assert!(!tiers.entailed_before(r, w));
    }

    #[test]
    fn refutes_mhb_ordered_pair() {
        // join orders the child's write before the parent's read.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        let w = b.write(t2, x, 1);
        b.join(ThreadId::MAIN, t2);
        let r = b.read(ThreadId::MAIN, x, 1);
        let trace = b.finish();
        let view = trace.full_view();
        let mut tiers = TierAnalysis::new(&view, ConsistencyMode::ControlFlow, true);
        assert!(tiers.entailed_before(w, r));
        assert_eq!(tiers.decide(&Cop::new(w, r)), TierDecision::Refuted);
    }
}
