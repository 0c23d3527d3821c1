//! Hash-consed first-order formulas over Integer Difference Logic.
//!
//! The race-detection encoding (paper §3.2) only ever produces boolean
//! combinations of *difference atoms* `Oₓ − O_y ≤ k` over integer order
//! variables, plus auxiliary boolean definition variables. A
//! [`FormulaBuilder`] owns an arena of hash-consed [`Term`]s with
//! simplifying smart constructors; the [`Solver`](crate::Solver) compiles the
//! asserted terms to CNF and decides them with DPLL(T).

use std::collections::HashMap;
use std::fmt;

/// An integer theory variable (an event order variable `O_e` in the race
/// encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntVar(pub u32);

impl IntVar {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for IntVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// A difference-logic atom `x − y ≤ k`.
///
/// Atoms are kept in a canonical polarity (`x.0 < y.0`); the builder wraps
/// the other polarity in a negation so that an atom and its complement share
/// one SAT variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left variable.
    pub x: IntVar,
    /// Right variable.
    pub y: IntVar,
    /// The bound: the atom asserts `x − y ≤ k`.
    pub k: i64,
}

impl Atom {
    /// The semantic negation: `¬(x − y ≤ k)` is `y − x ≤ −k−1`.
    pub fn negated(&self) -> Atom {
        Atom {
            x: self.y,
            y: self.x,
            k: -self.k - 1,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.k == -1 {
            write!(f, "{} < {}", self.x, self.y)
        } else {
            write!(f, "{} - {} ≤ {}", self.x, self.y, self.k)
        }
    }
}

/// Identifier of a hash-consed term within its [`FormulaBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub(crate) u32);

impl TermId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A formula node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A free boolean variable (e.g. a `cf` definition variable).
    Bool(u32),
    /// A difference-logic atom.
    Atom(Atom),
    /// Negation.
    Not(TermId),
    /// N-ary conjunction (flattened, sorted, deduplicated).
    And(Box<[TermId]>),
    /// N-ary disjunction (flattened, sorted, deduplicated).
    Or(Box<[TermId]>),
}

/// Arena and smart constructors for formulas.
///
/// # Examples
///
/// ```
/// use rvsmt::FormulaBuilder;
///
/// let mut f = FormulaBuilder::new();
/// let (a, b, c) = (f.int_var(), f.int_var(), f.int_var());
/// let ab = f.lt(a, b);
/// let bc = f.lt(b, c);
/// let t = f.and2(ab, bc);
/// f.assert_term(t);
/// assert_eq!(f.asserted().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct FormulaBuilder {
    terms: Vec<Term>,
    cache: HashMap<Term, TermId>,
    n_ints: u32,
    n_bools: u32,
    asserted: Vec<TermId>,
}

impl FormulaBuilder {
    /// Creates an empty builder (with the constants pre-interned).
    pub fn new() -> Self {
        let mut b = FormulaBuilder::default();
        b.intern(Term::True);
        b.intern(Term::False);
        b
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.cache.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.cache.insert(t, id);
        id
    }

    /// The constant `true`.
    #[inline]
    pub fn tt(&self) -> TermId {
        TermId(0)
    }

    /// The constant `false`.
    #[inline]
    pub fn ff(&self) -> TermId {
        TermId(1)
    }

    /// The term with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this builder.
    #[inline]
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Number of interned terms.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Allocates a fresh integer (order) variable.
    pub fn int_var(&mut self) -> IntVar {
        let v = IntVar(self.n_ints);
        self.n_ints += 1;
        v
    }

    /// Number of integer variables allocated.
    pub fn n_int_vars(&self) -> usize {
        self.n_ints as usize
    }

    /// Allocates a fresh free boolean variable, as a term.
    pub fn bool_var(&mut self) -> TermId {
        let v = self.n_bools;
        self.n_bools += 1;
        self.intern(Term::Bool(v))
    }

    /// The atom `x − y ≤ k`. Constant-folds `x == y`; canonicalizes polarity
    /// so an atom and its negation share a node.
    pub fn diff_le(&mut self, x: IntVar, y: IntVar, k: i64) -> TermId {
        if x == y {
            return if k >= 0 { self.tt() } else { self.ff() };
        }
        if x.0 < y.0 {
            self.intern(Term::Atom(Atom { x, y, k }))
        } else {
            // x − y ≤ k  ⇔  ¬(y − x ≤ −k−1)
            let canon = self.intern(Term::Atom(Atom {
                x: y,
                y: x,
                k: -k - 1,
            }));
            self.not(canon)
        }
    }

    /// The strict order `x < y` (`x − y ≤ −1`).
    pub fn lt(&mut self, x: IntVar, y: IntVar) -> TermId {
        self.diff_le(x, y, -1)
    }

    /// The non-strict order `x ≤ y`.
    pub fn le(&mut self, x: IntVar, y: IntVar) -> TermId {
        self.diff_le(x, y, 0)
    }

    /// Negation, with `¬¬t = t` and constant folding.
    pub fn not(&mut self, t: TermId) -> TermId {
        match self.term(t) {
            Term::True => self.ff(),
            Term::False => self.tt(),
            Term::Not(inner) => *inner,
            _ => self.intern(Term::Not(t)),
        }
    }

    fn nary(&mut self, op_and: bool, ts: Vec<TermId>) -> TermId {
        let (absorb, neutral) = if op_and {
            (self.ff(), self.tt())
        } else {
            (self.tt(), self.ff())
        };
        let mut flat = Vec::with_capacity(ts.len());
        let mut stack: Vec<TermId> = ts;
        stack.reverse();
        while let Some(t) = stack.pop() {
            if t == absorb {
                return absorb;
            }
            if t == neutral {
                continue;
            }
            match self.term(t) {
                Term::And(cs) if op_and => stack.extend(cs.iter().rev().copied()),
                Term::Or(cs) if !op_and => stack.extend(cs.iter().rev().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // t ∧ ¬t = ⊥ ; t ∨ ¬t = ⊤.
        for &t in &flat {
            if let Term::Not(inner) = self.term(t) {
                if flat.binary_search(inner).is_ok() {
                    return absorb;
                }
            }
        }
        match flat.len() {
            0 => neutral,
            1 => flat[0],
            _ => {
                let node = if op_and {
                    Term::And(flat.into())
                } else {
                    Term::Or(flat.into())
                };
                self.intern(node)
            }
        }
    }

    /// N-ary conjunction with flattening, deduplication and constant folding.
    pub fn and_n(&mut self, ts: Vec<TermId>) -> TermId {
        self.nary(true, ts)
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and_n(vec![a, b])
    }

    /// N-ary disjunction with flattening, deduplication and constant folding.
    pub fn or_n(&mut self, ts: Vec<TermId>) -> TermId {
        self.nary(false, ts)
    }

    /// Binary disjunction.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or_n(vec![a, b])
    }

    /// Implication `a ⇒ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// Asserts a term at top level (a root of the formula to be decided).
    pub fn assert_term(&mut self, t: TermId) {
        self.asserted.push(t);
    }

    /// The asserted roots.
    pub fn asserted(&self) -> &[TermId] {
        &self.asserted
    }

    /// Pretty-prints a term (for tests and debugging dumps).
    pub fn display(&self, t: TermId) -> String {
        match self.term(t) {
            Term::True => "⊤".into(),
            Term::False => "⊥".into(),
            Term::Bool(v) => format!("p{v}"),
            Term::Atom(a) => format!("{a}"),
            Term::Not(inner) => format!("¬({})", self.display(*inner)),
            Term::And(cs) => {
                let parts: Vec<_> = cs.iter().map(|&c| self.display(c)).collect();
                format!("({})", parts.join(" ∧ "))
            }
            Term::Or(cs) => {
                let parts: Vec<_> = cs.iter().map(|&c| self.display(c)).collect();
                format!("({})", parts.join(" ∨ "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_folding() {
        let mut f = FormulaBuilder::new();
        let x = f.int_var();
        assert_eq!(f.diff_le(x, x, 0), f.tt());
        assert_eq!(f.diff_le(x, x, -1), f.ff());
        let tt = f.tt();
        let ff = f.ff();
        assert_eq!(f.not(tt), ff);
        assert_eq!(f.not(ff), tt);
    }

    #[test]
    fn atom_polarity_canonicalization() {
        let mut f = FormulaBuilder::new();
        let a = f.int_var();
        let b = f.int_var();
        let t1 = f.lt(a, b); // canonical (a.0 < b.0)
        let t2 = f.lt(b, a); // wraps as ¬(a − b ≤ 0)
        assert!(matches!(f.term(t1), Term::Atom(_)));
        assert!(matches!(f.term(t2), Term::Not(_)));
        // ¬(b < a) = a − b ≤ 0 — shares the atom node inside t2.
        let t3 = f.not(t2);
        assert!(matches!(f.term(t3), Term::Atom(at) if at.k == 0));
    }

    #[test]
    fn atom_negation_involution() {
        let a = Atom {
            x: IntVar(0),
            y: IntVar(1),
            k: 3,
        };
        assert_eq!(a.negated().negated(), a);
        assert_eq!(
            a.negated(),
            Atom {
                x: IntVar(1),
                y: IntVar(0),
                k: -4
            }
        );
    }

    #[test]
    fn and_or_flatten_dedup() {
        let mut f = FormulaBuilder::new();
        let p = f.bool_var();
        let q = f.bool_var();
        let pq = f.and2(p, q);
        let t = f.and2(pq, p); // flattens to {p, q}
        assert_eq!(t, pq);
        let tt = f.tt();
        assert_eq!(f.and2(p, tt), p);
        let ff = f.ff();
        assert_eq!(f.and2(p, ff), ff);
        assert_eq!(f.or2(p, tt), tt);
        assert_eq!(f.or2(p, ff), p);
        assert_eq!(f.and_n(vec![]), tt);
        assert_eq!(f.or_n(vec![]), ff);
    }

    #[test]
    fn complement_detection() {
        let mut f = FormulaBuilder::new();
        let p = f.bool_var();
        let np = f.not(p);
        assert_eq!(f.and2(p, np), f.ff());
        assert_eq!(f.or2(p, np), f.tt());
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut f = FormulaBuilder::new();
        let p = f.bool_var();
        let q = f.bool_var();
        let t1 = f.or2(p, q);
        let t2 = f.or2(q, p);
        assert_eq!(t1, t2); // sorted canonical form
        let n = f.n_terms();
        let _ = f.or2(p, q);
        assert_eq!(f.n_terms(), n);
    }

    #[test]
    fn display_renders() {
        let mut f = FormulaBuilder::new();
        let a = f.int_var();
        let b = f.int_var();
        let p = f.bool_var();
        let lt = f.lt(a, b);
        let t = f.implies(p, lt);
        // Children are kept sorted by term id: the atom precedes ¬p.
        assert_eq!(f.display(t), "(O0 < O1 ∨ ¬(p0))");
    }
}
