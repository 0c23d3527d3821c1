//! Integer Difference Logic theory solver.
//!
//! Maintains a set of difference constraints `x − y ≤ k` (asserted as graph
//! edges `y → x` with weight `k`) together with a *potential function* `π`
//! satisfying `π(x) − π(y) ≤ k` for every active constraint — i.e. a live
//! model. Adding a constraint triggers an incremental single-source
//! relaxation (Cotton & Maler, *Fast and flexible difference constraint
//! propagation*, SAT 2006); infeasibility manifests as a negative cycle,
//! reported as the set of constraint *tags* (SAT literals) on the cycle.
//!
//! Retraction is stack-like ([`Idl::truncate`]): removing constraints keeps
//! the current potential feasible, so backtracking is O(edges removed).

use crate::formula::{Atom, IntVar};
use crate::lit::Lit;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Source node (the `y` of `x − y ≤ k`).
    u: u32,
    /// Target node (the `x`).
    v: u32,
    w: i64,
    /// The SAT literal whose assertion installed this edge.
    tag: Lit,
}

/// Incremental difference-logic solver over `n` integer variables.
///
/// # Examples
///
/// ```
/// use rvsmt::{Atom, Idl, IntVar, Lit, BVar};
///
/// let mut idl = Idl::new(3);
/// let tag = |i| Lit::pos(BVar(i));
/// let (a, b, c) = (IntVar(0), IntVar(1), IntVar(2));
/// // a < b < c is satisfiable…
/// idl.assert(Atom { x: a, y: b, k: -1 }, tag(0)).unwrap();
/// idl.assert(Atom { x: b, y: c, k: -1 }, tag(1)).unwrap();
/// assert!(idl.value(a) < idl.value(b) && idl.value(b) < idl.value(c));
/// // …but closing the cycle c < a is not.
/// let conflict = idl.assert(Atom { x: c, y: a, k: -1 }, tag(2)).unwrap_err();
/// assert_eq!(conflict.len(), 3);
/// ```
#[derive(Debug)]
pub struct Idl {
    n: usize,
    out: Vec<Vec<u32>>,
    edges: Vec<Edge>,
    pot: Vec<i64>,
    // Scratch space for the relaxation, reset lazily via `touched`.
    gamma: Vec<i64>,
    parent: Vec<u32>,
    processed: Vec<bool>,
    touched: Vec<u32>,
    /// Potentials mutated during the current repair, for rollback on
    /// conflict: the old potential stays feasible for the old edges, the
    /// half-repaired one need not be.
    saved_pot: Vec<(u32, i64)>,
    stats: IdlStats,
}

/// Counters exposed for benchmarking and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdlStats {
    /// Constraints asserted (including re-assertions after backtracking).
    pub asserts: u64,
    /// Relaxation node visits.
    pub relaxations: u64,
    /// Negative cycles found.
    pub conflicts: u64,
}

const NO_PARENT: u32 = u32::MAX;

impl Idl {
    /// Creates a solver over `n` integer variables, all initially `0`.
    pub fn new(n: usize) -> Self {
        Idl {
            n,
            out: vec![Vec::new(); n],
            edges: Vec::new(),
            pot: vec![0; n],
            gamma: vec![0; n],
            parent: vec![NO_PARENT; n],
            processed: vec![false; n],
            touched: Vec::new(),
            saved_pot: Vec::new(),
            stats: IdlStats::default(),
        }
    }

    /// Number of currently active constraints.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Counters.
    #[inline]
    pub fn stats(&self) -> IdlStats {
        self.stats
    }

    /// The current model value of `v` (meaningful whenever the constraint
    /// set is consistent, i.e. after every successful [`Idl::assert`]).
    #[inline]
    pub fn value(&self, v: IntVar) -> i64 {
        self.pot[v.index()]
    }

    fn reset_scratch(&mut self) {
        for &t in &self.touched {
            self.gamma[t as usize] = 0;
            self.parent[t as usize] = NO_PARENT;
            self.processed[t as usize] = false;
        }
        self.touched.clear();
        self.saved_pot.clear();
    }

    /// Asserts `atom` (`x − y ≤ k`), tagged with the SAT literal that caused
    /// it.
    ///
    /// # Errors
    ///
    /// If the constraint closes a negative cycle, returns the tags of all
    /// constraints on the cycle (including `tag`); their conjunction is
    /// theory-inconsistent and the caller should learn its negation. The
    /// constraint is *not* installed in that case.
    pub fn assert(&mut self, atom: Atom, tag: Lit) -> Result<(), Vec<Lit>> {
        self.stats.asserts += 1;
        let (u, v, w) = (atom.y.index(), atom.x.index(), atom.k);
        debug_assert!(u < self.n && v < self.n, "IntVar out of range");
        let new_edge = Edge {
            u: u as u32,
            v: v as u32,
            w,
            tag,
        };
        if self.pot[v] <= self.pot[u] + w {
            self.install(new_edge);
            return Ok(());
        }
        // Repair potentials by relaxing from v.
        self.reset_scratch();
        let mut heap: BinaryHeap<(Reverse<i64>, u32)> = BinaryHeap::new();
        self.gamma[v] = self.pot[u] + w - self.pot[v]; // < 0
        self.parent[v] = NO_PARENT; // reached via the new edge
        self.touched.push(v as u32);
        heap.push((Reverse(self.gamma[v]), v as u32));
        while let Some((Reverse(g), s)) = heap.pop() {
            let s = s as usize;
            if self.processed[s] || g != self.gamma[s] {
                continue;
            }
            if s == u {
                // Reaching the source of the new edge with negative slack
                // closes a negative cycle. Roll the half-repaired potential
                // back: it may violate still-active edges.
                let conflict = self.collect_cycle(u, tag);
                self.stats.conflicts += 1;
                for &(node, old) in self.saved_pot.iter().rev() {
                    self.pot[node as usize] = old;
                }
                self.reset_scratch();
                return Err(conflict);
            }
            self.processed[s] = true;
            self.saved_pot.push((s as u32, self.pot[s]));
            self.pot[s] += self.gamma[s];
            self.gamma[s] = 0;
            self.stats.relaxations += 1;
            for i in 0..self.out[s].len() {
                let eid = self.out[s][i];
                let e = self.edges[eid as usize];
                let t = e.v as usize;
                if self.processed[t] {
                    continue;
                }
                let cand = self.pot[s] + e.w - self.pot[t];
                if cand < self.gamma[t] {
                    if self.gamma[t] == 0 && self.parent[t] == NO_PARENT {
                        self.touched.push(t as u32);
                    }
                    self.gamma[t] = cand;
                    self.parent[t] = eid;
                    heap.push((Reverse(cand), t as u32));
                }
            }
        }
        self.reset_scratch();
        debug_assert!(self.pot[v] <= self.pot[u] + w);
        self.install(new_edge);
        Ok(())
    }

    fn install(&mut self, e: Edge) {
        let eid = self.edges.len() as u32;
        self.out[e.u as usize].push(eid);
        self.edges.push(e);
    }

    /// Walks parent pointers from `u` back to the new edge's target,
    /// collecting the cycle's tags.
    fn collect_cycle(&self, u: usize, new_tag: Lit) -> Vec<Lit> {
        let mut tags = vec![new_tag];
        let mut cur = u;
        loop {
            let pe = self.parent[cur];
            if pe == NO_PARENT {
                break; // reached v, which was seeded by the new edge
            }
            let e = self.edges[pe as usize];
            tags.push(e.tag);
            cur = e.u as usize;
        }
        tags
    }

    /// Retracts constraints until only the first `n_edges` remain (stack
    /// discipline: constraints are removed most-recent-first).
    ///
    /// # Panics
    ///
    /// Panics if `n_edges` exceeds the current count.
    pub fn truncate(&mut self, n_edges: usize) {
        assert!(n_edges <= self.edges.len());
        while self.edges.len() > n_edges {
            let e = self.edges.pop().expect("nonempty");
            let popped = self.out[e.u as usize].pop();
            debug_assert_eq!(popped, Some(self.edges.len() as u32));
        }
    }

    /// Checks the potential against every active constraint (test helper).
    pub fn is_consistent_model(&self) -> bool {
        self.edges
            .iter()
            .all(|e| self.pot[e.v as usize] <= self.pot[e.u as usize] + e.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::BVar;

    fn tag(i: u32) -> Lit {
        Lit::pos(BVar(i))
    }

    fn le(x: u32, y: u32, k: i64) -> Atom {
        Atom {
            x: IntVar(x),
            y: IntVar(y),
            k,
        }
    }

    #[test]
    fn chain_is_satisfiable() {
        let mut idl = Idl::new(5);
        for i in 0..4 {
            idl.assert(le(i, i + 1, -1), tag(i)).unwrap();
        }
        assert!(idl.is_consistent_model());
        for i in 0..4usize {
            assert!(idl.value(IntVar(i as u32)) < idl.value(IntVar(i as u32 + 1)));
        }
    }

    #[test]
    fn direct_contradiction() {
        let mut idl = Idl::new(2);
        idl.assert(le(0, 1, -1), tag(0)).unwrap(); // O0 < O1
        let confl = idl.assert(le(1, 0, -1), tag(1)).unwrap_err(); // O1 < O0
        assert_eq!(confl.len(), 2);
        assert!(confl.contains(&tag(0)) && confl.contains(&tag(1)));
        // The failed assert is not installed; the solver stays usable.
        assert_eq!(idl.n_edges(), 1);
        assert!(idl.is_consistent_model());
    }

    #[test]
    fn long_negative_cycle_reports_all_tags() {
        let mut idl = Idl::new(4);
        idl.assert(le(0, 1, -1), tag(0)).unwrap();
        idl.assert(le(1, 2, -1), tag(1)).unwrap();
        idl.assert(le(2, 3, -1), tag(2)).unwrap();
        let confl = idl.assert(le(3, 0, -1), tag(3)).unwrap_err();
        assert_eq!(confl.len(), 4);
        for i in 0..4 {
            assert!(confl.contains(&tag(i)), "missing tag {i}");
        }
    }

    #[test]
    fn zero_weight_cycle_is_fine_negative_is_not() {
        let mut idl = Idl::new(2);
        idl.assert(le(0, 1, 0), tag(0)).unwrap(); // O0 ≤ O1
        idl.assert(le(1, 0, 0), tag(1)).unwrap(); // O1 ≤ O0 (equality) — fine
        assert!(idl.is_consistent_model());
        let confl = idl.assert(le(1, 0, -1), tag(2)).unwrap_err();
        assert!(confl.contains(&tag(0)) && confl.contains(&tag(2)));
    }

    #[test]
    fn truncate_backtracks() {
        let mut idl = Idl::new(3);
        idl.assert(le(0, 1, -1), tag(0)).unwrap();
        let mark = idl.n_edges();
        idl.assert(le(1, 2, -1), tag(1)).unwrap();
        idl.assert(le(2, 0, 5), tag(2)).unwrap();
        idl.truncate(mark);
        assert_eq!(idl.n_edges(), 1);
        // Previously cyclic additions are fine after retraction.
        idl.assert(le(1, 0, -3), tag(3)).unwrap_err(); // still conflicts with tag(0)? O1-O0≤-3 & O0-O1≤-1 → cycle −4
        assert!(idl.is_consistent_model());
        idl.assert(le(2, 1, -1), tag(4)).unwrap();
        assert!(idl.value(IntVar(2)) < idl.value(IntVar(1)));
    }

    #[test]
    fn bounds_with_slack() {
        let mut idl = Idl::new(3);
        idl.assert(le(0, 1, 10), tag(0)).unwrap();
        idl.assert(le(1, 2, -20), tag(1)).unwrap();
        idl.assert(le(2, 0, 15), tag(2)).unwrap(); // cycle weight 10−20+15 = 5 ≥ 0
        assert!(idl.is_consistent_model());
        let (a, b, c) = (
            idl.value(IntVar(0)),
            idl.value(IntVar(1)),
            idl.value(IntVar(2)),
        );
        assert!(a - b <= 10 && b - c <= -20 && c - a <= 15);
        // Tightening the cycle below zero conflicts.
        let confl = idl.assert(le(2, 0, 5), tag(3)).unwrap_err();
        assert!(confl.contains(&tag(3)));
        assert!(idl.is_consistent_model());
    }

    #[test]
    fn model_survives_many_random_consistent_inserts() {
        // Assert a random forest of forward constraints over a line graph:
        // i < j for random i < j is always satisfiable.
        let mut idl = Idl::new(50);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for t in 0..500 {
            let i = (next() % 50) as u32;
            let j = (next() % 50) as u32;
            if i < j {
                idl.assert(le(i, j, -1), tag(t)).unwrap();
            }
        }
        assert!(idl.is_consistent_model());
    }
}
