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
//!
//! Constraints that are never retracted one at a time (the SAT core's
//! decision-level-0 literals) can go in as one [`Idl::assert_batch`]. It
//! ends in the state that asserting them in order reaches, but repairs them
//! in an order that keeps long chains linear.

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

impl Edge {
    fn new(atom: Atom, tag: Lit) -> Self {
        Edge {
            u: atom.y.0,
            v: atom.x.0,
            w: atom.k,
            tag,
        }
    }
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
    // Scratch space for the relaxation, reset after each repair via
    // `touched`.
    gamma: Vec<i64>,
    parent: Vec<u32>,
    processed: Vec<bool>,
    touched: Vec<u32>,
    heap: BinaryHeap<(Reverse<i64>, u32)>,
    /// Potentials mutated since the current assert or batch began, for
    /// rollback on conflict: the old potential stays feasible for the old
    /// edges, the half-repaired one need not be.
    saved_pot: Vec<(u32, i64)>,
    // Scratch for ordering a batch, all 0 / `END` between batches: per
    // node, the number of batch edges into it and the first batch edge out
    // of it.
    batch_indeg: Vec<u32>,
    batch_first: Vec<u32>,
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
/// End of a per-node list of batch edges.
const END: u32 = u32::MAX;

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
            heap: BinaryHeap::new(),
            saved_pot: Vec::new(),
            batch_indeg: vec![0; n],
            batch_first: vec![END; n],
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
        self.saved_pot.clear();
        let result = self.repair(Edge::new(atom, tag));
        if result.is_err() {
            self.stats.conflicts += 1;
        }
        result
    }

    /// Asserts every `(atom, tag)` of `batch` and ends in exactly the state
    /// that [`Idl::assert`]ing them one by one, in slice order, reaches: the
    /// same potential, with the edges installed in slice order.
    ///
    /// Asserting in order can take quadratic time. In the ascending chain
    /// `O_1 < O_2 < … < O_n` every new constraint lowers the chain's top,
    /// which lowers the whole prefix below it again. This method repairs
    /// the batch in topological order of its own edges instead, so the
    /// chain is repaired from `O_n` down, each node once. The order cannot
    /// change the outcome. Without a negative cycle, repairing from `π`
    /// yields the greatest feasible potential below `π`,
    /// `π'(x) = min_y π(y) + dist(y, x)`, which depends only on the set of
    /// edges, whatever order they were repaired in.
    ///
    /// # Errors
    ///
    /// As [`Idl::assert`], for the first constraint in slice order that
    /// closes a negative cycle. The constraints before it stay installed;
    /// it and the ones after it are not.
    pub(crate) fn assert_batch(&mut self, batch: &[(Atom, Lit)]) -> Result<(), Vec<Lit>> {
        let base = self.edges.len();
        self.saved_pot.clear();
        let mut feasible = true;
        for j in self.batch_order(batch) {
            let (atom, tag) = batch[j];
            if self.repair(Edge::new(atom, tag)).is_err() {
                feasible = false;
                break;
            }
        }
        self.truncate(base);
        if !feasible {
            // Some prefix of the batch closes a negative cycle. Undo, then
            // assert in order, so that the conflict and the installed
            // prefix are the ones sequential assertion yields.
            for &(node, old) in self.saved_pot.iter().rev() {
                self.pot[node as usize] = old;
            }
            return batch
                .iter()
                .try_for_each(|&(atom, tag)| self.assert(atom, tag));
        }
        self.stats.asserts += batch.len() as u64;
        for &(atom, tag) in batch {
            self.install(Edge::new(atom, tag));
        }
        Ok(())
    }

    /// The order in which [`Idl::assert_batch`] repairs `batch`: Kahn's
    /// topological order over the batch's own edges, so that an edge comes
    /// after every batch edge into its source. Edges on or behind a cycle
    /// follow, in slice order.
    fn batch_order(&mut self, batch: &[(Atom, Lit)]) -> Vec<usize> {
        let ends = |j: usize| (batch[j].0.y.index(), batch[j].0.x.index());
        let mut next = vec![END; batch.len()];
        for (j, slot) in next.iter_mut().enumerate() {
            let (u, v) = ends(j);
            self.batch_indeg[v] += 1;
            *slot = self.batch_first[u];
            self.batch_first[u] = j as u32;
        }
        let mut ready: Vec<usize> = (0..batch.len())
            .map(|j| ends(j).0)
            .filter(|&u| self.batch_indeg[u] == 0)
            .collect();
        let mut order = Vec::with_capacity(batch.len());
        while let Some(x) = ready.pop() {
            // Taking the list marks `x` done; a duplicate entry finds it
            // empty.
            let mut j = std::mem::replace(&mut self.batch_first[x], END);
            while j != END {
                order.push(j as usize);
                let v = ends(j as usize).1;
                self.batch_indeg[v] -= 1;
                if self.batch_indeg[v] == 0 {
                    ready.push(v);
                }
                j = next[j as usize];
            }
        }
        order.extend((0..batch.len()).filter(|&j| self.batch_first[ends(j).0] != END));
        for j in 0..batch.len() {
            let (u, v) = ends(j);
            self.batch_indeg[v] = 0;
            self.batch_first[u] = END;
        }
        order
    }

    /// Lowers potentials until `e` holds, relaxing from its target over the
    /// installed edges, then installs `e`. Every potential it changes is
    /// logged in `saved_pot`.
    ///
    /// # Errors
    ///
    /// If `e` closes a negative cycle, undoes this call's changes and
    /// returns the cycle's tags; `e` is not installed.
    fn repair(&mut self, e: Edge) -> Result<(), Vec<Lit>> {
        let (u, v, w) = (e.u as usize, e.v as usize, e.w);
        debug_assert!(u < self.n && v < self.n, "IntVar out of range");
        if self.pot[v] <= self.pot[u] + w {
            self.install(e);
            return Ok(());
        }
        let mark = self.saved_pot.len();
        self.heap.clear();
        self.gamma[v] = self.pot[u] + w - self.pot[v]; // < 0
        self.parent[v] = NO_PARENT; // reached via the new edge
        self.touched.push(v as u32);
        self.heap.push((Reverse(self.gamma[v]), v as u32));
        while let Some((Reverse(g), s)) = self.heap.pop() {
            let s = s as usize;
            if self.processed[s] || g != self.gamma[s] {
                continue;
            }
            if s == u {
                // Reaching the source of the new edge with negative slack
                // closes a negative cycle. Roll the half-repaired potential
                // back: it may violate still-active edges.
                let conflict = self.collect_cycle(u, e.tag);
                for &(node, old) in self.saved_pot[mark..].iter().rev() {
                    self.pot[node as usize] = old;
                }
                self.saved_pot.truncate(mark);
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
                    self.heap.push((Reverse(cand), t as u32));
                }
            }
        }
        self.reset_scratch();
        debug_assert!(self.pot[v] <= self.pot[u] + w);
        self.install(e);
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

    /// Everything a later assert, conflict or model read can observe.
    type Observable = (Vec<i64>, Vec<(u32, u32, i64, Lit)>, Vec<Vec<u32>>);

    fn observable(idl: &Idl) -> Observable {
        let edges = idl.edges.iter().map(|e| (e.u, e.v, e.w, e.tag)).collect();
        (idl.pot.clone(), edges, idl.out.clone())
    }

    /// `assert_batch` against one `assert` per constraint, on random edge
    /// sets with truncations in between. Forward-only batches are mostly
    /// feasible; free ones often close zero-weight and negative cycles.
    /// Both must give the same result and conflict, potentials and edge
    /// order.
    #[test]
    fn batch_matches_sequential_assertion() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        let zero_cycle = |batch: &[(Atom, Lit)]| {
            batch.iter().any(|(a, _)| {
                batch
                    .iter()
                    .any(|(b, _)| (b.x, b.y) == (a.y, a.x) && a.k + b.k == 0)
            })
        };
        let (mut oks, mut errs, mut zero_cycles) = (0, 0, 0);
        for _round in 0..300 {
            let n = 2 + next(10);
            let mut batched = Idl::new(n as usize);
            let mut sequential = Idl::new(n as usize);
            let mut next_tag = 0;
            for _step in 0..6 {
                if next(4) == 0 {
                    let mark = next(batched.n_edges() as u64 + 1) as usize;
                    batched.truncate(mark);
                    sequential.truncate(mark);
                    continue;
                }
                let forward = next(2) == 0;
                let mut batch = Vec::new();
                for _ in 0..1 + next(12) {
                    let (x, y) = (next(n) as u32, next(n) as u32);
                    let k = next(5) as i64 - 2;
                    next_tag += 1;
                    let atom = match (x == y, forward) {
                        (true, _) => continue,
                        (false, true) => le(x.min(y), x.max(y), -k.abs()),
                        (false, false) => le(x, y, k),
                    };
                    batch.push((atom, tag(next_tag)));
                    if !forward && next(4) == 0 {
                        next_tag += 1;
                        batch.push((le(y, x, -k), tag(next_tag)));
                    }
                }
                let got = batched.assert_batch(&batch);
                let want = batch
                    .iter()
                    .try_for_each(|&(atom, t)| sequential.assert(atom, t));
                assert_eq!(got, want, "batch {batch:?}");
                match got {
                    Ok(()) => oks += 1,
                    Err(_) => errs += 1,
                }
                if want.is_ok() && zero_cycle(&batch) {
                    zero_cycles += 1;
                }
                assert_eq!(observable(&batched), observable(&sequential));
                assert!(batched.is_consistent_model());
                let (b, s) = (batched.stats(), sequential.stats());
                assert_eq!((b.asserts, b.conflicts), (s.asserts, s.conflicts));
            }
        }
        assert!(
            oks > 100 && errs > 100 && zero_cycles > 30,
            "coverage: {oks} ok, {errs} conflicts, {zero_cycles} zero-weight cycles"
        );
    }

    /// Batched, the encoder's ascending program-order chain costs one
    /// relaxation per node; asserted in order it costs one per node per
    /// later link.
    #[test]
    fn ascending_chain_batch_relaxes_each_node_once() {
        let n = 2_000u32;
        let chain: Vec<(Atom, Lit)> = (0..n - 1).map(|i| (le(i, i + 1, -1), tag(i))).collect();
        let mut batched = Idl::new(n as usize);
        batched.assert_batch(&chain).unwrap();
        assert_eq!(batched.stats().relaxations, u64::from(n - 1));
        let mut sequential = Idl::new(n as usize);
        for &(atom, t) in &chain {
            sequential.assert(atom, t).unwrap();
        }
        assert_eq!(
            sequential.stats().relaxations,
            u64::from(n - 1) * u64::from(n) / 2
        );
        assert_eq!(observable(&batched), observable(&sequential));
    }
}
