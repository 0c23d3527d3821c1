//! CDCL SAT core with a theory hook (DPLL(T), eager theory assertion).
//!
//! A fairly standard conflict-driven clause-learning solver:
//! two-watched-literal propagation, first-UIP conflict analysis, VSIDS-style
//! decision ordering (lazy re-insertion heap), phase saving, and Luby
//! restarts. Theory literals are pushed to the [`TheoryClient`] as soon as
//! they are assigned (those of decision level 0 as one batch); a theory
//! conflict is turned into a learnt clause and handled like a
//! propositional conflict.

use crate::lit::{BVar, LBool, Lit};

/// Hook connecting the SAT core to a theory solver.
pub trait TheoryClient {
    /// Called when `lit` (a theory literal) becomes true.
    ///
    /// # Errors
    ///
    /// On theory inconsistency, returns the set of *currently true* literals
    /// whose conjunction is inconsistent (it must include at least one
    /// literal from the current decision level, which eager assertion
    /// guarantees). The offending assertion must not be recorded.
    fn assert_lit(&mut self, lit: Lit) -> Result<(), Vec<Lit>>;

    /// Called at decision level 0 with every theory literal assigned there
    /// since the last call, in trail order. Level-0 literals are never
    /// retracted, so a theory may take them in one step, but it must end
    /// in the state that passing each to [`TheoryClient::assert_lit`] in
    /// turn reaches.
    ///
    /// # Errors
    ///
    /// As [`TheoryClient::assert_lit`], for the first literal whose
    /// assertion fails; neither it nor the literals after it are recorded.
    fn assert_root_lits(&mut self, lits: &[Lit]) -> Result<(), Vec<Lit>> {
        lits.iter().try_for_each(|&lit| self.assert_lit(lit))
    }

    /// Whether `lit` is a theory literal (only those are passed to
    /// [`TheoryClient::assert_lit`]).
    fn is_theory_lit(&self, lit: Lit) -> bool;

    /// Called after backtracking: retract assertions of now-unassigned
    /// literals. `still_assigned` reports whether a variable is assigned.
    fn retract_unassigned(&mut self, still_assigned: &dyn Fn(BVar) -> bool);
}

/// A theory client with no theory literals (pure SAT solving).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTheory;

impl TheoryClient for NoTheory {
    fn assert_lit(&mut self, _lit: Lit) -> Result<(), Vec<Lit>> {
        Ok(())
    }
    fn is_theory_lit(&self, _lit: Lit) -> bool {
        false
    }
    fn retract_unassigned(&mut self, _still_assigned: &dyn Fn(BVar) -> bool) {}
}

/// Which budget limit stopped an inconclusive solve. Callers use this to
/// report *why* a query came back undecided instead of silently folding a
/// timeout into "no answer".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopReason {
    /// The conflict budget ([`Budget::max_conflicts`]) was exhausted.
    Conflicts,
    /// The wall-clock budget ([`Budget::timeout`]) was exhausted.
    Timeout,
}

/// Outcome of a (budgeted) solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatOutcome {
    /// A satisfying assignment was found.
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The budget ran out first; the reason says which limit tripped.
    Unknown(StopReason),
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts (propositional + theory).
    pub conflicts: u64,
    /// Conflicts reported by the theory.
    pub theory_conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added over the solver's lifetime (DB reduction may
    /// have deleted some since).
    pub learnt_clauses: u64,
}

impl SatStats {
    /// Component-wise difference since an `earlier` snapshot of the same
    /// solver. Every counter is cumulative and monotone over the solver's
    /// lifetime, so profiling a single query on a shared incremental
    /// solver is snapshot-before / `delta_since`-after. Differences
    /// saturate at zero, so a stale or foreign snapshot can under-report
    /// but never wrap.
    pub fn delta_since(&self, earlier: &SatStats) -> SatStats {
        SatStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            theory_conflicts: self
                .theory_conflicts
                .saturating_sub(earlier.theory_conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses.saturating_sub(earlier.learnt_clauses),
        }
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f32,
}

type ClauseRef = u32;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Limits for a solve call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Abort with [`SatOutcome::Unknown`] after this many conflicts.
    pub max_conflicts: Option<u64>,
    /// Abort after roughly this much wall-clock time.
    pub timeout: Option<std::time::Duration>,
}

impl Budget {
    /// No limits.
    pub const UNLIMITED: Budget = Budget {
        max_conflicts: None,
        timeout: None,
    };
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use rvsmt::sat::{Budget, NoTheory, Sat, SatOutcome};
/// use rvsmt::{BVar, Lit};
///
/// let mut s = Sat::new();
/// let (a, b) = (s.new_var(), s.new_var());
/// s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(vec![Lit::neg(a)]);
/// assert_eq!(s.solve(&mut NoTheory, &Budget::UNLIMITED), SatOutcome::Sat);
/// assert_eq!(s.value(b).as_bool(), Some(true));
/// ```
#[derive(Debug)]
pub struct Sat {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// How far into the trail theory literals have been asserted.
    theory_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    heap: std::collections::BinaryHeap<(OrdF64, BVar)>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Learnt clause refs (for DB reduction).
    learnts: Vec<ClauseRef>,
    cla_inc: f32,
    /// Grow-able learnt-DB size limit.
    max_learnts: usize,
    ok: bool,
    stats: SatStats,
}

/// f64 ordered wrapper (activities are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("activities are not NaN")
    }
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const LUBY_UNIT: u64 = 512;
/// Backjumps deeper than this use chronological backtracking instead.
const CHRONO_THRESHOLD: u32 = 64;

impl Default for Sat {
    fn default() -> Self {
        Self::new()
    }
}

impl Sat {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Sat {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            theory_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            seen: Vec::new(),
            learnts: Vec::new(),
            cla_inc: 1.0,
            max_learnts: 8192,
            ok: true,
            stats: SatStats::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> BVar {
        let v = BVar(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.push((OrdF64(0.0), v));
        v
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.assign.len()
    }

    /// Search statistics.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Sets the initial decision phase of a variable (overwritten by phase
    /// saving once the variable is assigned during search).
    #[inline]
    pub fn set_phase(&mut self, v: BVar, phase: bool) {
        self.phase[v.index()] = phase;
    }

    /// Current value of a variable.
    #[inline]
    pub fn value(&self, v: BVar) -> LBool {
        self.assign[v.index()]
    }

    /// Current value of a literal.
    #[inline]
    pub fn lit_value(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_neg() {
            v.negate()
        } else {
            v
        }
    }

    /// Adds a problem clause. Returns `false` if the solver became
    /// trivially unsatisfiable.
    ///
    /// Must be called before `solve` (at decision level 0).
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        debug_assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if !self.ok {
            return false;
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology / satisfied / falsified-at-0 simplification.
        let mut i = 0;
        while i + 1 < lits.len() {
            if lits[i] == !lits[i + 1] {
                return true; // tautology
            }
            i += 1;
        }
        lits.retain(|&l| self.lit_value(l) != LBool::False);
        if lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true;
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                self.ok
            }
            _ => {
                self.attach(lits);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>) -> ClauseRef {
        self.attach_full(lits, false)
    }

    fn attach_full(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        let cref = self.clauses.len() as ClauseRef;
        self.watches[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        if learnt {
            self.learnts.push(cref);
        }
        cref
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for &l in &self.learnts {
                self.clauses[l as usize].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Halves the learnt-clause database, keeping binary, locked (reason)
    /// and high-activity clauses. Call at decision level 0.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let locked: std::collections::HashSet<ClauseRef> =
            self.reason.iter().flatten().copied().collect();
        let mut candidates: Vec<ClauseRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| {
                let cl = &self.clauses[c as usize];
                !cl.deleted && cl.lits.len() > 2 && !locked.contains(&c)
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .expect("activities are not NaN")
        });
        for &c in candidates.iter().take(candidates.len() / 2) {
            self.clauses[c as usize].deleted = true;
            self.clauses[c as usize].lits.clear();
            self.clauses[c as usize].lits.shrink_to_fit();
        }
        self.learnts.retain(|&c| !self.clauses[c as usize].deleted);
        // Grow the ceiling geometrically but cap it: long incremental runs
        // (hundreds of assumption queries on one solver) must not let the
        // DB grow without bound.
        self.max_learnts = (self.max_learnts + self.max_learnts / 2).min(100_000);
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = LBool::from_bool(!l.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = !l.is_neg();
        self.trail.push(l);
    }

    /// Unit propagation; returns a falsified clause on conflict.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            while i < ws.len() {
                let Watcher { cref, blocker } = ws[i];
                if self.lit_value(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                if self.clauses[cref as usize].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                let false_lit = !p;
                // Make sure the false literal is at position 1.
                {
                    let c = &mut self.clauses[cref as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cref as usize].lits[0];
                if first != blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut found = None;
                {
                    let c = &self.clauses[cref as usize];
                    for (j, &l) in c.lits.iter().enumerate().skip(2) {
                        if self.lit_value(l) != LBool::False {
                            found = Some(j);
                            break;
                        }
                    }
                }
                if let Some(j) = found {
                    let c = &mut self.clauses[cref as usize];
                    c.lits.swap(1, j);
                    let new_watch = c.lits[1];
                    self.watches[(!new_watch).code()].push(Watcher {
                        cref,
                        blocker: first,
                    });
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore remaining watchers and bail.
                    self.watches[p.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[p.code()] = ws;
        }
        None
    }

    /// Feeds newly assigned theory literals to the theory, as one batch at
    /// decision level 0. On theory conflict, materializes the conflict as a
    /// learnt clause and returns it.
    fn theory_propagate<T: TheoryClient>(&mut self, theory: &mut T) -> Option<ClauseRef> {
        if self.decision_level() == 0 {
            let lits: Vec<Lit> = self.trail[self.theory_head..]
                .iter()
                .copied()
                .filter(|&l| theory.is_theory_lit(l))
                .collect();
            self.theory_head = self.trail.len();
            return theory
                .assert_root_lits(&lits)
                .err()
                .map(|true_lits| self.theory_conflict(true_lits));
        }
        while self.theory_head < self.trail.len() {
            let l = self.trail[self.theory_head];
            self.theory_head += 1;
            if !theory.is_theory_lit(l) {
                continue;
            }
            if let Err(true_lits) = theory.assert_lit(l) {
                return Some(self.theory_conflict(true_lits));
            }
        }
        None
    }

    /// Turns a theory conflict (currently true literals whose conjunction
    /// the theory refutes) into a falsified clause for conflict analysis.
    fn theory_conflict(&mut self, true_lits: Vec<Lit>) -> ClauseRef {
        self.stats.theory_conflicts += 1;
        let lits: Vec<Lit> = true_lits.into_iter().map(|t| !t).collect();
        debug_assert!(lits.iter().all(|&x| self.lit_value(x) == LBool::False));
        // A virtual conflicting clause; attach so analysis can use it.
        if lits.len() >= 2 {
            self.attach_conflict_clause(lits)
        } else {
            let cref = self.clauses.len() as ClauseRef;
            self.clauses.push(Clause {
                lits,
                learnt: false,
                deleted: false,
                activity: 0.0,
            });
            cref
        }
    }

    /// Attaches a theory-conflict clause, placing the two highest-level
    /// literals in the watch positions to keep the invariant.
    fn attach_conflict_clause(&mut self, mut lits: Vec<Lit>) -> ClauseRef {
        let lvl = |s: &Self, l: Lit| s.level[l.var().index()];
        // Highest level first, second-highest second.
        let mut hi = 0;
        for j in 1..lits.len() {
            if lvl(self, lits[j]) > lvl(self, lits[hi]) {
                hi = j;
            }
        }
        lits.swap(0, hi);
        let mut hi2 = 1;
        for j in 2..lits.len() {
            if lvl(self, lits[j]) > lvl(self, lits[hi2]) {
                hi2 = j;
            }
        }
        lits.swap(1, hi2);
        self.attach(lits)
    }

    fn bump_var(&mut self, v: BVar) {
        let a = &mut self.activity[v.index()];
        *a += self.var_inc;
        if *a > RESCALE_LIMIT {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.assign[v.index()] == LBool::Undef {
            self.heap.push((OrdF64(self.activity[v.index()]), v));
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        let cur_level = self.decision_level();
        loop {
            self.bump_clause(cref);
            let clause_lits: Vec<Lit> = self.clauses[cref as usize].lits.clone();
            let skip = usize::from(p.is_some());
            for &q in clause_lits.iter().skip(skip) {
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.level[v.index()] == cur_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Find the next seen literal of the conflict level on the
            // trail (with chronological backtracking the trail is not
            // level-sorted, so the level check is required).
            loop {
                index -= 1;
                let v = self.trail[index].var();
                if self.seen[v.index()] && self.level[v.index()] == cur_level {
                    break;
                }
            }
            let q = self.trail[index];
            self.seen[q.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(q);
                break;
            }
            cref = self.reason[q.var().index()].expect("non-decision has a reason");
            p = Some(q);
        }
        let uip = !p.expect("found UIP");
        learnt.insert(0, uip);
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backjump level: highest level among the non-asserting literals.
        let blevel = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Put a literal of blevel at position 1 (watch invariant).
        if learnt.len() > 1 {
            let mut m = 1;
            for j in 2..learnt.len() {
                if self.level[learnt[j].var().index()] > self.level[learnt[m].var().index()] {
                    m = j;
                }
            }
            learnt.swap(1, m);
        }
        (learnt, blevel)
    }

    fn cancel_until<T: TheoryClient>(&mut self, level: u32, theory: &mut T) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.heap.push((OrdF64(self.activity[v.index()]), v));
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
        self.theory_head = self.theory_head.min(lim);
        let assign = &self.assign;
        theory.retract_unassigned(&|v: BVar| assign[v.index()].is_defined());
    }

    fn pick_branch(&mut self) -> Option<BVar> {
        while let Some((_, v)) = self.heap.pop() {
            if self.assign[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Runs CDCL search with the given theory and budget.
    pub fn solve<T: TheoryClient>(&mut self, theory: &mut T, budget: &Budget) -> SatOutcome {
        self.solve_assuming(theory, budget, &[])
    }

    /// Runs CDCL search under *assumptions*: the given literals are forced
    /// as the first decisions. Returns `Unsat` when the formula is
    /// unsatisfiable **under the assumptions** (the solver stays usable,
    /// and learnt clauses persist across calls — the incremental interface
    /// used to batch many race queries over one shared window encoding).
    pub fn solve_assuming<T: TheoryClient>(
        &mut self,
        theory: &mut T,
        budget: &Budget,
        assumptions: &[Lit],
    ) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        // Restart from a clean level for a fresh query.
        self.cancel_until(0, theory);
        let start = std::time::Instant::now();
        let base_conflicts = self.stats.conflicts;
        let mut luby_index = 0u64;
        let mut restart_budget = luby(luby_index) * LUBY_UNIT;
        let mut conflicts_since_restart = 0u64;
        loop {
            let conflict = self.propagate().or_else(|| self.theory_propagate(theory));
            match conflict {
                Some(cref) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    // With chronological backtracking the conflict clause
                    // may contain no literal of the current decision level;
                    // normalize by backtracking to its maximum level first.
                    let max_level = self.clauses[cref as usize]
                        .lits
                        .iter()
                        .map(|l| self.level[l.var().index()])
                        .max()
                        .unwrap_or(0);
                    if max_level < self.decision_level() {
                        self.cancel_until(max_level, theory);
                    }
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SatOutcome::Unsat;
                    }
                    let (learnt, blevel) = self.analyze(cref);
                    // Chronological backtracking (Nadel & Ryvchin, SAT'18):
                    // on deep backjumps keep the trail and step back one
                    // level only; the learnt clause stays asserting. Unit
                    // learnt clauses are global facts and must land at
                    // level 0 (their literal has no reason clause).
                    let target = if learnt.len() == 1 {
                        0
                    } else if self.decision_level() - blevel > CHRONO_THRESHOLD {
                        self.decision_level() - 1
                    } else {
                        blevel
                    };
                    self.cancel_until(target, theory);
                    let asserting = learnt[0];
                    if learnt.len() == 1 {
                        self.enqueue(asserting, None);
                    } else {
                        let cref = self.attach_full(learnt, true);
                        self.stats.learnt_clauses += 1;
                        self.enqueue(asserting, Some(cref));
                    }
                    self.var_inc *= VAR_DECAY;
                    self.cla_inc *= 1.001;
                    if let Some(max) = budget.max_conflicts {
                        if self.stats.conflicts - base_conflicts >= max {
                            return SatOutcome::Unknown(StopReason::Conflicts);
                        }
                    }
                    if self.stats.conflicts.is_multiple_of(64) {
                        if let Some(t) = budget.timeout {
                            if start.elapsed() >= t {
                                return SatOutcome::Unknown(StopReason::Timeout);
                            }
                        }
                    }
                }
                None => {
                    if conflicts_since_restart >= restart_budget {
                        self.stats.restarts += 1;
                        luby_index += 1;
                        restart_budget = luby(luby_index) * LUBY_UNIT;
                        conflicts_since_restart = 0;
                        self.cancel_until(0, theory);
                        if self.learnts.len() >= self.max_learnts {
                            self.reduce_db();
                        }
                        continue;
                    }
                    if self.stats.decisions.is_multiple_of(2048) {
                        if let Some(t) = budget.timeout {
                            if start.elapsed() >= t {
                                return SatOutcome::Unknown(StopReason::Timeout);
                            }
                        }
                    }
                    // Force pending assumptions before free decisions.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.lit_value(a) {
                            LBool::True => {
                                // Already implied: open a dummy level so the
                                // remaining assumptions line up.
                                self.trail_lim.push(self.trail.len());
                            }
                            LBool::False => return SatOutcome::Unsat,
                            LBool::Undef => {
                                self.stats.decisions += 1;
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, None);
                            }
                        }
                        continue;
                    }
                    match self.pick_branch() {
                        None => return SatOutcome::Sat,
                        Some(v) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let lit = Lit::new(v, !self.phase[v.index()]);
                            self.enqueue(lit, None);
                        }
                    }
                }
            }
        }
    }

    /// Exports the problem clauses in DIMACS CNF format (for debugging with
    /// external solvers).
    pub fn to_dimacs(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "p cnf {} {}", self.n_vars(), self.clauses.len());
        for c in &self.clauses {
            for &l in &c.lits {
                let v = l.var().0 as i64 + 1;
                let _ = write!(s, "{} ", if l.is_neg() { -v } else { v });
            }
            let _ = writeln!(s, "0");
        }
        s
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i.
    let mut k = 1u64;
    loop {
        if i + 1 == (1 << k) - 1 {
            return 1 << (k - 1);
        }
        if i + 1 < (1 << k) - 1 {
            i -= (1 << (k - 1)) - 1;
            k = 1;
            continue;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> Lit {
        Lit::pos(BVar(v))
    }
    fn n(v: u32) -> Lit {
        Lit::neg(BVar(v))
    }

    fn solver_with_vars(k: usize) -> Sat {
        let mut s = Sat::new();
        for _ in 0..k {
            s.new_var();
        }
        s
    }

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivial_sat_and_values() {
        let mut s = solver_with_vars(2);
        s.add_clause(vec![p(0), p(1)]);
        s.add_clause(vec![n(0)]);
        assert_eq!(s.solve(&mut NoTheory, &Budget::UNLIMITED), SatOutcome::Sat);
        assert_eq!(s.value(BVar(0)).as_bool(), Some(false));
        assert_eq!(s.value(BVar(1)).as_bool(), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(vec![p(0)]);
        assert!(!s.add_clause(vec![n(0)]));
        assert_eq!(
            s.solve(&mut NoTheory, &Budget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(vec![]));
        assert_eq!(
            s.solve(&mut NoTheory, &Budget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn tautology_ignored() {
        let mut s = solver_with_vars(1);
        assert!(s.add_clause(vec![p(0), n(0)]));
        assert_eq!(s.solve(&mut NoTheory, &Budget::UNLIMITED), SatOutcome::Sat);
    }

    /// Pigeonhole PHP(4,3): 4 pigeons, 3 holes — classic small UNSAT
    /// instance requiring real conflict analysis.
    #[test]
    fn pigeonhole_unsat() {
        const PIGEONS: u32 = 4;
        const HOLES: u32 = 3;
        let var = |pi: u32, h: u32| BVar(pi * HOLES + h);
        let mut s = solver_with_vars((PIGEONS * HOLES) as usize);
        for pi in 0..PIGEONS {
            s.add_clause((0..HOLES).map(|h| Lit::pos(var(pi, h))).collect());
        }
        for h in 0..HOLES {
            for a in 0..PIGEONS {
                for b in a + 1..PIGEONS {
                    s.add_clause(vec![Lit::neg(var(a, h)), Lit::neg(var(b, h))]);
                }
            }
        }
        assert_eq!(
            s.solve(&mut NoTheory, &Budget::UNLIMITED),
            SatOutcome::Unsat
        );
        assert!(s.stats().conflicts > 0);
    }

    /// A satisfiable chain forcing propagation through implications.
    #[test]
    fn implication_chain() {
        let k = 50;
        let mut s = solver_with_vars(k);
        for i in 0..k - 1 {
            s.add_clause(vec![n(i as u32), p(i as u32 + 1)]);
        }
        s.add_clause(vec![p(0)]);
        assert_eq!(s.solve(&mut NoTheory, &Budget::UNLIMITED), SatOutcome::Sat);
        for i in 0..k {
            assert_eq!(s.value(BVar(i as u32)).as_bool(), Some(true));
        }
    }

    #[test]
    fn budget_unknown() {
        // PHP(7,6) is hard enough to exceed a 1-conflict budget.
        const PIGEONS: u32 = 7;
        const HOLES: u32 = 6;
        let var = |pi: u32, h: u32| BVar(pi * HOLES + h);
        let mut s = solver_with_vars((PIGEONS * HOLES) as usize);
        for pi in 0..PIGEONS {
            s.add_clause((0..HOLES).map(|h| Lit::pos(var(pi, h))).collect());
        }
        for h in 0..HOLES {
            for a in 0..PIGEONS {
                for b in a + 1..PIGEONS {
                    s.add_clause(vec![Lit::neg(var(a, h)), Lit::neg(var(b, h))]);
                }
            }
        }
        let budget = Budget {
            max_conflicts: Some(1),
            timeout: None,
        };
        assert_eq!(
            s.solve(&mut NoTheory, &budget),
            SatOutcome::Unknown(StopReason::Conflicts)
        );
    }

    #[test]
    fn dimacs_export() {
        let mut s = solver_with_vars(2);
        s.add_clause(vec![p(0), n(1)]);
        let d = s.to_dimacs();
        assert!(d.starts_with("p cnf 2 1"));
        assert!(d.contains("1 -2 0"));
    }

    /// Regression: a unit learnt clause discovered at a deep decision level
    /// must land at level 0 even under chronological backtracking (it has
    /// no reason clause; leaving it mid-trail corrupts conflict analysis).
    #[test]
    fn chrono_unit_learnt_lands_at_level_zero() {
        let pad = 2 * super::CHRONO_THRESHOLD as usize;
        let mut s = solver_with_vars(pad + 2);
        let a = BVar(pad as u32);
        let b = BVar(pad as u32 + 1);
        // Decisions default to the saved phase; make everything decide true.
        for v in 0..pad + 2 {
            s.set_phase(BVar(v as u32), true);
        }
        // a ⇒ b and a ⇒ ¬b: deciding a (after `pad` free decisions) yields
        // the unit learnt clause ¬a.
        s.add_clause(vec![Lit::neg(a), Lit::pos(b)]);
        s.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
        assert_eq!(s.solve(&mut NoTheory, &Budget::UNLIMITED), SatOutcome::Sat);
        assert_eq!(s.value(a).as_bool(), Some(false));
    }

    /// DB reduction keeps the solver correct on instances with heavy
    /// learning (PHP(7,6) generates thousands of learnt clauses).
    #[test]
    fn reduce_db_preserves_unsat() {
        const PIGEONS: u32 = 7;
        const HOLES: u32 = 6;
        let var = |pi: u32, h: u32| BVar(pi * HOLES + h);
        let mut s = solver_with_vars((PIGEONS * HOLES) as usize);
        for pi in 0..PIGEONS {
            s.add_clause((0..HOLES).map(|h| Lit::pos(var(pi, h))).collect());
        }
        for h in 0..HOLES {
            for a in 0..PIGEONS {
                for b in a + 1..PIGEONS {
                    s.add_clause(vec![Lit::neg(var(a, h)), Lit::neg(var(b, h))]);
                }
            }
        }
        assert_eq!(
            s.solve(&mut NoTheory, &Budget::UNLIMITED),
            SatOutcome::Unsat
        );
    }

    /// Random 3-SAT at low clause density: all should be SAT, and the model
    /// must satisfy every clause.
    #[test]
    fn random_3sat_models_verified() {
        let mut seed = 0x243f6a8885a308d3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..10 {
            let nv = 30u32;
            let nc = 60;
            let mut s = solver_with_vars(nv as usize);
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nv as u64) as u32;
                    let neg = next() % 2 == 0;
                    c.push(Lit::new(BVar(v), neg));
                }
                clauses.push(c.clone());
                s.add_clause(c);
            }
            if s.solve(&mut NoTheory, &Budget::UNLIMITED) == SatOutcome::Sat {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.lit_value(l) == LBool::True),
                        "model violates clause"
                    );
                }
            }
        }
    }
}
