//! The SMT solver facade: compile a [`FormulaBuilder`]'s assertions to CNF
//! (polarity-aware Tseitin), bind difference atoms to the IDL theory, run
//! CDCL(T), and extract integer/boolean models.

use std::collections::HashMap;

use crate::formula::{Atom, FormulaBuilder, IntVar, Term, TermId};
use crate::idl::{Idl, IdlStats};
use crate::lit::{BVar, LBool, Lit};
use crate::sat::{Budget, Sat, SatOutcome, SatStats, StopReason, TheoryClient};

/// Outcome of an SMT solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable; a model is available.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted before a verdict (the paper's per-COP solver
    /// timeout). The [`StopReason`] says which limit tripped, so callers
    /// can account for the undecided query honestly instead of treating it
    /// as "no race found".
    Unknown(StopReason),
}

/// Aggregated statistics of a solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmtStats {
    /// SAT-core statistics.
    pub sat: SatStats,
    /// Theory statistics.
    pub idl: IdlStats,
    /// Number of CNF clauses generated from the input formula.
    pub input_clauses: usize,
    /// Number of SAT variables.
    pub vars: usize,
}

/// The IDL theory client: maps theory SAT variables to difference atoms and
/// keeps the theory's assertion stack aligned with the trail.
#[derive(Debug)]
struct IdlTheory {
    idl: Idl,
    atom_of_var: Vec<Option<Atom>>,
    fed: Vec<Lit>,
}

impl IdlTheory {
    /// The difference constraint that `lit` asserts.
    fn constraint(&self, lit: Lit) -> Atom {
        let atom = self.atom_of_var[lit.var().index()].expect("theory lit has atom");
        if lit.is_neg() {
            atom.negated()
        } else {
            atom
        }
    }
}

impl TheoryClient for IdlTheory {
    fn assert_lit(&mut self, lit: Lit) -> Result<(), Vec<Lit>> {
        self.idl.assert(self.constraint(lit), lit)?;
        self.fed.push(lit);
        Ok(())
    }

    fn assert_root_lits(&mut self, lits: &[Lit]) -> Result<(), Vec<Lit>> {
        let batch: Vec<(Atom, Lit)> = lits.iter().map(|&l| (self.constraint(l), l)).collect();
        let result = self.idl.assert_batch(&batch);
        // On a conflict only the literals before the failing one went in.
        let installed = self.idl.n_edges() - self.fed.len();
        self.fed.extend_from_slice(&lits[..installed]);
        result
    }

    fn is_theory_lit(&self, lit: Lit) -> bool {
        self.atom_of_var
            .get(lit.var().index())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    fn retract_unassigned(&mut self, still_assigned: &dyn Fn(BVar) -> bool) {
        while let Some(&l) = self.fed.last() {
            if still_assigned(l.var()) {
                break;
            }
            self.fed.pop();
            self.idl.truncate(self.fed.len());
        }
    }
}

/// A one-shot SMT solver over a [`FormulaBuilder`]'s asserted terms.
///
/// # Examples
///
/// ```
/// use rvsmt::{Budget, FormulaBuilder, SmtResult, Solver};
///
/// let mut f = FormulaBuilder::new();
/// let (a, b, c) = (f.int_var(), f.int_var(), f.int_var());
/// // (a < b ∨ b < a) ∧ b < c ∧ c < a   — forces b < a.
/// let t1 = f.lt(a, b);
/// let t2 = f.lt(b, a);
/// let or = f.or2(t1, t2);
/// f.assert_term(or);
/// let t3 = f.lt(b, c);
/// f.assert_term(t3);
/// let t4 = f.lt(c, a);
/// f.assert_term(t4);
///
/// let mut s = Solver::new(&f);
/// assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
/// let m = |v| s.int_value(v);
/// assert!(m(b) < m(c) && m(c) < m(a));
/// ```
#[derive(Debug)]
pub struct Solver {
    sat: Sat,
    theory: IdlTheory,
    bool_term_vars: HashMap<TermId, BVar>,
    input_clauses: usize,
    trivially_unsat: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PolKey {
    term: TermId,
    negated: bool,
}

struct Compiler<'a> {
    fb: &'a FormulaBuilder,
    sat: &'a mut Sat,
    atom_of_var: &'a mut Vec<Option<Atom>>,
    var_of_term: HashMap<TermId, BVar>,
    /// Which (term, polarity-direction) definitional clauses were emitted.
    emitted: std::collections::HashSet<PolKey>,
    const_true: Option<BVar>,
    clauses: usize,
    ok: bool,
}

impl<'a> Compiler<'a> {
    fn add_clause(&mut self, lits: Vec<Lit>) {
        self.clauses += 1;
        if !self.sat.add_clause(lits) {
            self.ok = false;
        }
    }

    fn const_true_lit(&mut self) -> Lit {
        let v = match self.const_true {
            Some(v) => v,
            None => {
                let v = self.sat.new_var();
                self.const_true = Some(v);
                self.add_clause(vec![Lit::pos(v)]);
                v
            }
        };
        Lit::pos(v)
    }

    fn var_for(&mut self, t: TermId) -> BVar {
        if let Some(&v) = self.var_of_term.get(&t) {
            return v;
        }
        let v = self.sat.new_var();
        if let Term::Atom(a) = self.fb.term(t) {
            if self.atom_of_var.len() <= v.index() {
                self.atom_of_var.resize(v.index() + 1, None);
            }
            self.atom_of_var[v.index()] = Some(*a);
        }
        self.var_of_term.insert(t, v);
        v
    }

    /// Returns a literal equisatisfiable with `t` under the given polarity
    /// (Plaisted–Greenbaum: only the needed definitional direction is
    /// emitted).
    fn lit_of(&mut self, t: TermId, positive: bool) -> Lit {
        match self.fb.term(t) {
            Term::True => self.const_true_lit(),
            Term::False => !self.const_true_lit(),
            Term::Bool(_) | Term::Atom(_) => Lit::pos(self.var_for(t)),
            Term::Not(inner) => {
                let inner = *inner;
                !self.lit_of(inner, !positive)
            }
            Term::And(cs) => {
                let cs: Vec<TermId> = cs.to_vec();
                let lt = Lit::pos(self.var_for(t));
                let key = PolKey {
                    term: t,
                    negated: !positive,
                };
                if self.emitted.insert(key) {
                    if positive {
                        // lt ⇒ every conjunct.
                        for &c in &cs {
                            let lc = self.lit_of(c, true);
                            self.add_clause(vec![!lt, lc]);
                        }
                    } else {
                        // ¬lt ⇒ some conjunct false.
                        let mut clause = vec![lt];
                        for &c in &cs {
                            let lc = self.lit_of(c, false);
                            clause.push(!lc);
                        }
                        self.add_clause(clause);
                    }
                }
                lt
            }
            Term::Or(cs) => {
                let cs: Vec<TermId> = cs.to_vec();
                let lt = Lit::pos(self.var_for(t));
                let key = PolKey {
                    term: t,
                    negated: !positive,
                };
                if self.emitted.insert(key) {
                    if positive {
                        // lt ⇒ some disjunct.
                        let mut clause = vec![!lt];
                        for &c in &cs {
                            let lc = self.lit_of(c, true);
                            clause.push(lc);
                        }
                        self.add_clause(clause);
                    } else {
                        // ¬lt ⇒ every disjunct false.
                        for &c in &cs {
                            let lc = self.lit_of(c, false);
                            self.add_clause(vec![lt, !lc]);
                        }
                    }
                }
                lt
            }
        }
    }

    /// Asserts a root term, decomposing top-level ∧/∨ without auxiliary
    /// variables.
    fn assert_root(&mut self, t: TermId) {
        match self.fb.term(t) {
            Term::True => {}
            Term::False => {
                self.add_clause(vec![]);
            }
            Term::And(cs) => {
                for &c in &cs.to_vec() {
                    self.assert_root(c);
                }
            }
            Term::Or(cs) => {
                let cs = cs.to_vec();
                let mut clause = Vec::with_capacity(cs.len());
                for c in cs {
                    clause.push(self.lit_of(c, true));
                }
                self.add_clause(clause);
            }
            _ => {
                let l = self.lit_of(t, true);
                self.add_clause(vec![l]);
            }
        }
    }
}

impl Solver {
    /// Compiles the builder's asserted roots into a fresh solver.
    pub fn new(fb: &FormulaBuilder) -> Self {
        let mut sat = Sat::new();
        let mut atom_of_var: Vec<Option<Atom>> = Vec::new();
        let mut compiler = Compiler {
            fb,
            sat: &mut sat,
            atom_of_var: &mut atom_of_var,
            var_of_term: HashMap::new(),
            emitted: std::collections::HashSet::new(),
            const_true: None,
            clauses: 0,
            ok: true,
        };
        for &root in fb.asserted() {
            compiler.assert_root(root);
        }
        let input_clauses = compiler.clauses;
        let trivially_unsat = !compiler.ok;
        let var_of_term = std::mem::take(&mut compiler.var_of_term);
        drop(compiler);
        atom_of_var.resize(sat.n_vars(), None);
        let bool_term_vars = var_of_term
            .into_iter()
            .filter(|(t, _)| matches!(fb.term(*t), Term::Bool(_)))
            .collect();
        Solver {
            sat,
            theory: IdlTheory {
                idl: Idl::new(fb.n_int_vars()),
                atom_of_var,
                fed: Vec::new(),
            },
            bool_term_vars,
            input_clauses,
            trivially_unsat,
        }
    }

    /// Decides the formula within the budget.
    pub fn solve(&mut self, budget: &Budget) -> SmtResult {
        self.solve_assuming(budget, &[])
    }

    /// Decides the formula under assumptions (free boolean variable terms
    /// asserted true for this query only). The solver remains usable after
    /// `Unsat`, and learnt clauses persist across queries — the incremental
    /// interface for batching many related queries over one encoding.
    ///
    /// # Panics
    ///
    /// Panics if an assumption term is not a free boolean variable created
    /// with [`FormulaBuilder::bool_var`], or never occurred in the compiled
    /// formula.
    pub fn solve_assuming(&mut self, budget: &Budget, assumptions: &[TermId]) -> SmtResult {
        if self.trivially_unsat {
            return SmtResult::Unsat;
        }
        let lits: Vec<Lit> = assumptions
            .iter()
            .map(|t| {
                let v = self
                    .bool_term_vars
                    .get(t)
                    .expect("assumption must be a bool var occurring in the formula");
                Lit::pos(*v)
            })
            .collect();
        match self.sat.solve_assuming(&mut self.theory, budget, &lits) {
            SatOutcome::Sat => SmtResult::Sat,
            SatOutcome::Unsat => SmtResult::Unsat,
            SatOutcome::Unknown(reason) => SmtResult::Unknown(reason),
        }
    }

    /// Seeds the SAT decision phases of all theory atoms from a predicate
    /// (e.g. the atom's truth value under a known near-model, such as the
    /// original trace order in race detection). A good seed makes the first
    /// descent land close to a model.
    pub fn hint_atom_phases(&mut self, f: impl Fn(&Atom) -> bool) {
        for (v, atom) in self.theory.atom_of_var.iter().enumerate() {
            if let Some(a) = atom {
                self.sat.set_phase(crate::lit::BVar(v as u32), f(a));
            }
        }
    }

    /// The model value of an integer variable (call only after
    /// [`SmtResult::Sat`]; unconstrained variables read as `0`).
    pub fn int_value(&self, v: IntVar) -> i64 {
        self.theory.idl.value(v)
    }

    /// The model value of a free boolean variable term (`None` if the
    /// variable was eliminated during compilation).
    pub fn bool_value(&self, t: TermId) -> Option<bool> {
        let v = self.bool_term_vars.get(&t)?;
        match self.sat.value(*v) {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> SmtStats {
        SmtStats {
            sat: self.sat.stats(),
            idl: self.theory.idl.stats(),
            input_clauses: self.input_clauses,
            vars: self.sat.n_vars(),
        }
    }

    /// DIMACS dump of the propositional skeleton (debugging aid).
    pub fn to_dimacs(&self) -> String {
        self.sat.to_dimacs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoder's program-order shape: one ascending chain asserted at
    /// the root. Batched root assertion relaxes each node about once; one
    /// assert at a time re-lowers the whole prefix for every link
    /// (~n²/2 relaxations).
    #[test]
    fn pure_ordering_chain_sat() {
        let n = 10_000;
        let mut f = FormulaBuilder::new();
        let vars: Vec<IntVar> = (0..n).map(|_| f.int_var()).collect();
        for w in vars.windows(2) {
            let t = f.lt(w[0], w[1]);
            f.assert_term(t);
        }
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
        for w in vars.windows(2) {
            assert!(s.int_value(w[0]) < s.int_value(w[1]));
        }
        let relaxations = s.stats().idl.relaxations;
        assert!(
            relaxations <= 2 * n as u64,
            "{relaxations} relaxations for a {n}-variable chain"
        );
    }

    /// The IDL theory with root literals asserted one at a time: the
    /// reference that batched root assertion must match.
    struct Sequential<'a>(&'a mut IdlTheory);

    impl TheoryClient for Sequential<'_> {
        fn assert_lit(&mut self, lit: Lit) -> Result<(), Vec<Lit>> {
            self.0.assert_lit(lit)
        }
        fn is_theory_lit(&self, lit: Lit) -> bool {
            self.0.is_theory_lit(lit)
        }
        fn retract_unassigned(&mut self, still_assigned: &dyn Fn(BVar) -> bool) {
            self.0.retract_unassigned(still_assigned)
        }
    }

    /// Random DPLL(T) formulas, solved with root literals batched and one
    /// at a time, then re-solved under random selector assumptions
    /// (restarts and learnt units re-enter level 0). Outcomes, every
    /// `int_value` and the full `SatStats` must match.
    #[test]
    fn root_batching_matches_sequential_root_assertion() {
        let mut seed = 0x0bad_5eed_1234_5678u64;
        let mut next = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        let mut outcomes = [0usize; 2];
        for _round in 0..300 {
            let mut f = FormulaBuilder::new();
            let n = 3 + next(6);
            let vars: Vec<IntVar> = (0..n).map(|_| f.int_var()).collect();
            let sels: Vec<TermId> = (0..3).map(|_| f.bool_var()).collect();
            for _ in 0..4 + next(10) {
                let width = if next(2) == 0 { 1 } else { 2 + next(2) };
                let mut clause = Vec::new();
                for _ in 0..width {
                    let (x, y) = (vars[next(n) as usize], vars[next(n) as usize]);
                    clause.push(f.diff_le(x, y, next(5) as i64 - 2));
                }
                if next(3) == 0 {
                    let guard = f.not(sels[next(3) as usize]);
                    clause.push(guard);
                }
                let c = f.or_n(clause);
                f.assert_term(c);
            }
            let mut batched = Solver::new(&f);
            let mut sequential = Solver::new(&f);
            if batched.trivially_unsat {
                continue;
            }
            for query in 0..4 {
                let assumptions: Vec<Lit> = sels
                    .iter()
                    .filter(|_| query > 0 && next(2) == 0)
                    .filter_map(|t| batched.bool_term_vars.get(t).map(|&v| Lit::pos(v)))
                    .collect();
                let budget = Budget::UNLIMITED;
                let got = batched
                    .sat
                    .solve_assuming(&mut batched.theory, &budget, &assumptions);
                let want = sequential.sat.solve_assuming(
                    &mut Sequential(&mut sequential.theory),
                    &budget,
                    &assumptions,
                );
                assert_eq!(got, want);
                assert_eq!(batched.sat.stats(), sequential.sat.stats());
                let (b, s) = (batched.theory.idl.stats(), sequential.theory.idl.stats());
                assert_eq!((b.asserts, b.conflicts), (s.asserts, s.conflicts));
                if got == SatOutcome::Sat {
                    for &v in &vars {
                        assert_eq!(batched.int_value(v), sequential.int_value(v));
                    }
                }
                outcomes[usize::from(got == SatOutcome::Sat)] += 1;
            }
        }
        assert!(outcomes.iter().all(|&c| c > 100), "outcomes {outcomes:?}");
    }

    #[test]
    fn ordering_cycle_unsat() {
        let mut f = FormulaBuilder::new();
        let vars: Vec<IntVar> = (0..5).map(|_| f.int_var()).collect();
        for w in vars.windows(2) {
            let t = f.lt(w[0], w[1]);
            f.assert_term(t);
        }
        let t = f.lt(vars[4], vars[0]);
        f.assert_term(t);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Unsat);
    }

    #[test]
    fn disjunction_forces_theory_choice() {
        // Mimics a lock constraint: (r1 < a2) ∨ (r2 < a1), with MHB edges
        // a1 < r1, a2 < r2 and a cross requirement r2 < r1.
        let mut f = FormulaBuilder::new();
        let a1 = f.int_var();
        let r1 = f.int_var();
        let a2 = f.int_var();
        let r2 = f.int_var();
        for (x, y) in [(a1, r1), (a2, r2), (r2, r1)] {
            let t = f.lt(x, y);
            f.assert_term(t);
        }
        let d1 = f.lt(r1, a2);
        let d2 = f.lt(r2, a1);
        let d = f.or2(d1, d2);
        f.assert_term(d);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
        // Only the second disjunct is consistent: r2 < a1.
        assert!(s.int_value(r2) < s.int_value(a1));
        assert!(s.int_value(a2) < s.int_value(r2));
    }

    #[test]
    fn both_lock_orders_blocked_unsat() {
        // (r1 < a2 ∨ r2 < a1) ∧ a2 < r1 ∧ a1 < r2 ∧ a1 < r1 ∧ a2 < r2 — the
        // two regions overlap both ways: unsatisfiable.
        let mut f = FormulaBuilder::new();
        let a1 = f.int_var();
        let r1 = f.int_var();
        let a2 = f.int_var();
        let r2 = f.int_var();
        for (x, y) in [(a1, r1), (a2, r2), (a2, r1), (a1, r2)] {
            let t = f.lt(x, y);
            f.assert_term(t);
        }
        let d1 = f.lt(r1, a2);
        let d2 = f.lt(r2, a1);
        let d = f.or2(d1, d2);
        f.assert_term(d);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Unsat);
    }

    #[test]
    fn bool_definitions_and_implications() {
        // cf ⇒ (x < y); cf asserted — model must order x < y.
        let mut f = FormulaBuilder::new();
        let x = f.int_var();
        let y = f.int_var();
        let cf = f.bool_var();
        let body = f.lt(x, y);
        let imp = f.implies(cf, body);
        f.assert_term(imp);
        f.assert_term(cf);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
        assert_eq!(s.bool_value(cf), Some(true));
        assert!(s.int_value(x) < s.int_value(y));
    }

    #[test]
    fn nested_structure() {
        // (p ∧ (x<y ∨ y<x)) ∨ (¬p ∧ x<y), assert x>y: forces p true, y<x.
        let mut f = FormulaBuilder::new();
        let x = f.int_var();
        let y = f.int_var();
        let p = f.bool_var();
        let xy = f.lt(x, y);
        let yx = f.lt(y, x);
        let either = f.or2(xy, yx);
        let left = f.and2(p, either);
        let np = f.not(p);
        let right = f.and2(np, xy);
        let root = f.or2(left, right);
        f.assert_term(root);
        f.assert_term(yx);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
        assert_eq!(s.bool_value(p), Some(true));
        assert!(s.int_value(y) < s.int_value(x));
    }

    #[test]
    fn false_root_unsat() {
        let mut f = FormulaBuilder::new();
        let ff = f.ff();
        f.assert_term(ff);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Unsat);
    }

    #[test]
    fn true_root_sat_empty() {
        let mut f = FormulaBuilder::new();
        let tt = f.tt();
        f.assert_term(tt);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
    }

    #[test]
    fn negated_atom_assertion() {
        // ¬(x < y) ∧ ¬(y < x) means x == y: satisfiable with equal values.
        let mut f = FormulaBuilder::new();
        let x = f.int_var();
        let y = f.int_var();
        let xy = f.lt(x, y);
        let yx = f.lt(y, x);
        let nxy = f.not(xy);
        let nyx = f.not(yx);
        f.assert_term(nxy);
        f.assert_term(nyx);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
        assert_eq!(s.int_value(x), s.int_value(y));
    }

    #[test]
    fn adjacency_via_substitution_pattern() {
        // The detector substitutes O_a := O_b for the race constraint; here
        // we emulate adjacency of a and b among {p1, a, b, p2} with
        // p1 < a = b < p2 by sharing one IntVar.
        let mut f = FormulaBuilder::new();
        let p1 = f.int_var();
        let ab = f.int_var();
        let p2 = f.int_var();
        let t1 = f.lt(p1, ab);
        let t2 = f.lt(ab, p2);
        f.assert_term(t1);
        f.assert_term(t2);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
        assert!(s.int_value(p1) < s.int_value(ab) && s.int_value(ab) < s.int_value(p2));
    }

    #[test]
    fn stats_populated() {
        let mut f = FormulaBuilder::new();
        let x = f.int_var();
        let y = f.int_var();
        let t = f.lt(x, y);
        f.assert_term(t);
        let mut s = Solver::new(&f);
        let _ = s.solve(&Budget::UNLIMITED);
        let st = s.stats();
        assert!(st.input_clauses >= 1);
        assert!(st.vars >= 1);
        assert!(st.idl.asserts >= 1);
    }

    #[test]
    fn assumptions_are_per_query() {
        // sel1 ⇒ x < y ; sel2 ⇒ y < x. Each selector alone is SAT, both
        // directions queried on ONE solver; conjoined they are UNSAT under
        // assumptions but the solver stays usable.
        let mut f = FormulaBuilder::new();
        let x = f.int_var();
        let y = f.int_var();
        let sel1 = f.bool_var();
        let sel2 = f.bool_var();
        let xy = f.lt(x, y);
        let yx = f.lt(y, x);
        let i1 = f.implies(sel1, xy);
        f.assert_term(i1);
        let i2 = f.implies(sel2, yx);
        f.assert_term(i2);
        let mut s = Solver::new(&f);
        assert_eq!(
            s.solve_assuming(&Budget::UNLIMITED, &[sel1]),
            SmtResult::Sat
        );
        assert!(s.int_value(x) < s.int_value(y));
        assert_eq!(
            s.solve_assuming(&Budget::UNLIMITED, &[sel2]),
            SmtResult::Sat
        );
        assert!(s.int_value(y) < s.int_value(x));
        assert_eq!(
            s.solve_assuming(&Budget::UNLIMITED, &[sel1, sel2]),
            SmtResult::Unsat
        );
        // Unsat under assumptions is not permanent.
        assert_eq!(
            s.solve_assuming(&Budget::UNLIMITED, &[sel1]),
            SmtResult::Sat
        );
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
    }

    #[test]
    fn assumption_selectors_emulate_adjacency() {
        // The batch race encoding: sel ⇒ (O_b − O_a ≤ 1 ∧ O_a − O_b ≤ −1).
        let mut f = FormulaBuilder::new();
        let a = f.int_var();
        let b = f.int_var();
        let c = f.int_var();
        let sel = f.bool_var();
        let up = f.diff_le(b, a, 1);
        let lo = f.diff_le(a, b, -1);
        let eq = f.and2(up, lo);
        let imp = f.implies(sel, eq);
        f.assert_term(imp);
        // a < c < b makes adjacency impossible.
        let t1 = f.lt(a, c);
        f.assert_term(t1);
        let t2 = f.lt(c, b);
        f.assert_term(t2);
        let mut s = Solver::new(&f);
        assert_eq!(
            s.solve(&Budget::UNLIMITED),
            SmtResult::Sat,
            "without the selector"
        );
        assert_eq!(
            s.solve_assuming(&Budget::UNLIMITED, &[sel]),
            SmtResult::Unsat
        );
    }

    /// Randomized DPLL(T) exercise: random strict-order constraints over a
    /// permutation's transitive pairs are always SAT, and models must
    /// respect every asserted atom.
    #[test]
    fn random_order_constraints_model_check() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let n = 20usize;
            let mut f = FormulaBuilder::new();
            let vars: Vec<IntVar> = (0..n).map(|_| f.int_var()).collect();
            let mut pairs = Vec::new();
            for _ in 0..40 {
                let i = (next() % n as u64) as usize;
                let j = (next() % n as u64) as usize;
                if i < j {
                    let t = f.lt(vars[i], vars[j]);
                    f.assert_term(t);
                    pairs.push((i, j));
                }
            }
            let mut s = Solver::new(&f);
            assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
            for (i, j) in pairs {
                assert!(s.int_value(vars[i]) < s.int_value(vars[j]));
            }
        }
    }
}
