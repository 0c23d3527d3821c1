//! Microbenchmarks for the SMT substrate (`rvsmt`): the IDL theory solver,
//! the CDCL core, and full DPLL(T) solves on race-shaped formulas. These
//! underpin the paper's scalability argument (§5): "the core computation
//! takes place in the constraint solving phase".

use rvbench::micro::Runner;
use rvsmt::{Atom, BVar, Budget, FormulaBuilder, Idl, IntVar, Lit, SmtResult, Solver};

/// Asserting a long chain of strict orderings one `Idl::assert` at a time.
/// Each link extends the chain at its top (`O_{n-1} < O_{n-2}`, then
/// `O_{n-2} < O_{n-3}`, …), so every assert lowers the whole chain built so
/// far again: n²/2 relaxations, the cost the SAT core avoids by batching
/// root literals (see `dpllt/po-chain`).
fn bench_idl_chain(r: &mut Runner) {
    for n in [1_000usize, 10_000] {
        r.bench(&format!("idl/chain/{n}"), || {
            let mut idl = Idl::new(n);
            for i in 0..n - 1 {
                let atom = Atom {
                    x: IntVar((n - 1 - i) as u32),
                    y: IntVar((n - 2 - i) as u32),
                    k: -1,
                };
                idl.assert(atom, Lit::pos(BVar(i as u32))).unwrap();
            }
            idl.n_edges()
        });
    }
}

/// The encoder's program-order shape: one ascending chain `O_0 < O_1 < …`
/// asserted at the root and decided by `Solver::solve`, whose SAT core hands
/// the theory all level-0 literals as one batch.
fn bench_dpllt_po_chain(r: &mut Runner) {
    for n in [1_000usize, 10_000] {
        r.bench(&format!("dpllt/po-chain/{n}"), || {
            let mut f = FormulaBuilder::new();
            let vars: Vec<IntVar> = (0..n).map(|_| f.int_var()).collect();
            for w in vars.windows(2) {
                let t = f.lt(w[0], w[1]);
                f.assert_term(t);
            }
            let mut s = Solver::new(&f);
            assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
            s.stats().idl.relaxations
        });
    }
}

/// Negative-cycle detection cost as the cycle length grows.
fn bench_idl_conflict(r: &mut Runner) {
    for n in [100usize, 1_000] {
        r.bench(&format!("idl/negative-cycle/{n}"), || {
            let mut idl = Idl::new(n);
            for i in 0..n - 1 {
                let atom = Atom {
                    x: IntVar(i as u32),
                    y: IntVar(i as u32 + 1),
                    k: -1,
                };
                idl.assert(atom, Lit::pos(BVar(i as u32))).unwrap();
            }
            let closing = Atom {
                x: IntVar(n as u32 - 1),
                y: IntVar(0),
                k: -1,
            };
            idl.assert(closing, Lit::pos(BVar(n as u32)))
                .unwrap_err()
                .len()
        });
    }
}

/// A race-shaped DPLL(T) instance: MHB chains for `t` threads plus lock
/// disjunctions, asking for adjacency of a cross-thread pair.
fn race_shaped_formula(threads: usize, per_thread: usize) -> (FormulaBuilder, Vec<Vec<IntVar>>) {
    let mut f = FormulaBuilder::new();
    let vars: Vec<Vec<IntVar>> = (0..threads)
        .map(|_| (0..per_thread).map(|_| f.int_var()).collect())
        .collect();
    for tv in &vars {
        for w in tv.windows(2) {
            let t = f.lt(w[0], w[1]);
            f.assert_term(t);
        }
    }
    // Pairwise "lock" disjunctions between region middles.
    for a in 0..threads {
        for b in a + 1..threads {
            let (r1, a2) = (vars[a][per_thread / 2], vars[b][per_thread / 4]);
            let (r2, a1) = (vars[b][per_thread / 2], vars[a][per_thread / 4]);
            let d1 = f.lt(r1, a2);
            let d2 = f.lt(r2, a1);
            let d = f.or2(d1, d2);
            f.assert_term(d);
        }
    }
    (f, vars)
}

fn bench_dpllt_race_shape(r: &mut Runner) {
    for (threads, per_thread) in [(4usize, 250usize), (8, 500)] {
        r.bench(&format!("dpllt/race-shape/{threads}x{per_thread}"), || {
            let (mut f, vars) = race_shaped_formula(threads, per_thread);
            // Adjacency of two cross-thread events via shared var is
            // emulated by equality-free gluing: compare ordering.
            let t = f.lt(vars[0][per_thread - 1], vars[1][0]);
            f.assert_term(t);
            let mut s = Solver::new(&f);
            assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Sat);
            s.stats().sat.conflicts
        });
    }
}

/// UNSAT refutation: an MHB cycle hidden behind lock disjunctions.
fn bench_dpllt_unsat(r: &mut Runner) {
    r.bench("dpllt/unsat-cycle", || {
        let (mut f, vars) = race_shaped_formula(4, 100);
        let t1 = f.lt(vars[0][99], vars[1][0]);
        f.assert_term(t1);
        let t2 = f.lt(vars[1][99], vars[0][0]);
        f.assert_term(t2);
        let mut s = Solver::new(&f);
        assert_eq!(s.solve(&Budget::UNLIMITED), SmtResult::Unsat);
    });
}

fn main() {
    let mut r = Runner::from_env("solver");
    bench_idl_chain(&mut r);
    bench_idl_conflict(&mut r);
    bench_dpllt_po_chain(&mut r);
    bench_dpllt_race_shape(&mut r);
    bench_dpllt_unsat(&mut r);
    r.finish();
}
