//! Conflicting-operation-pair enumeration and the hybrid quick check.
//!
//! A COP (paper Definition 3) is a pair of accesses to the same variable by
//! different threads, at least one a write. Before building constraints, a
//! COP must pass a *quick check* — a hybrid of lockset disjointness and a
//! weak happens-before (our MHB) order check, similar to PECAN (paper §4).
//! The quick check is unsound (over-approximate) but filters cheaply.

use rvtrace::{Cop, EventId, RaceSignature, ThreadId, VarId, View};

/// Why a COP failed the quick check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuickCheckVerdict {
    /// The pair may race; proceed to constraint solving.
    Pass,
    /// The two accesses hold a common lock.
    CommonLock,
    /// The accesses are ordered by must-happen-before.
    MhbOrdered,
}

/// Runs the hybrid lockset + weak-HB quick check on a COP.
///
/// # Examples
///
/// ```
/// use rvcore::{quick_check, QuickCheckVerdict};
/// use rvtrace::{Cop, ThreadId, TraceBuilder, ViewExt};
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// let t2 = b.fork(ThreadId::MAIN);
/// let w = b.write(ThreadId::MAIN, x, 1);
/// let r = b.read(t2, x, 1);
/// let trace = b.finish();
/// let view = trace.full_view();
/// assert_eq!(quick_check(&view, Cop::new(w, r)), QuickCheckVerdict::Pass);
/// ```
pub fn quick_check(view: &View<'_>, cop: Cop) -> QuickCheckVerdict {
    let (a, b) = (cop.first, cop.second);
    let ls_a = view.lockset(a);
    let ls_b = view.lockset(b);
    // Locksets are sorted: linear merge intersection.
    let (mut i, mut j) = (0, 0);
    while i < ls_a.len() && j < ls_b.len() {
        match ls_a[i].cmp(&ls_b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return QuickCheckVerdict::CommonLock,
        }
    }
    if view.mhb(a, b) || view.mhb(b, a) {
        return QuickCheckVerdict::MhbOrdered;
    }
    QuickCheckVerdict::Pass
}

/// Enumerates candidate COPs of a window, grouped by race signature, with a
/// per-signature cap on concrete pairs.
///
/// Volatile variables are skipped (conflicting volatile accesses are not
/// data races, paper §4). Pairs by the same thread are not COPs. When
/// `quick_check_enabled`, only pairs passing the quick check are returned;
/// either way the function also reports how many distinct signatures had at
/// least one pair pass the quick check (the paper's Table 1 "QC" column
/// counts potential races surviving the hybrid algorithm).
pub fn enumerate_cops(
    view: &View<'_>,
    quick_check_enabled: bool,
    max_per_signature: usize,
) -> CopEnumeration {
    let trace = view.trace();
    let mut out = CopEnumeration::default();
    let mut sig_counts: std::collections::HashMap<RaceSignature, usize> =
        std::collections::HashMap::new();
    let mut qc_sigs: std::collections::HashSet<RaceSignature> = std::collections::HashSet::new();

    for var_idx in 0..trace.n_vars() as u32 {
        let var = VarId(var_idx);
        if trace.is_volatile(var) {
            continue;
        }
        let writes = view.writes_of(var);
        let reads = view.reads_of(var);
        if writes.is_empty() {
            continue;
        }
        let mut consider = |a: EventId, b: EventId, out: &mut CopEnumeration| {
            debug_assert_ne!(view.event(a).thread, view.event(b).thread);
            let cop = Cop::new(a, b);
            let sig = RaceSignature::of_cop(trace, cop);
            let count = sig_counts.entry(sig).or_insert(0);
            if *count >= max_per_signature {
                return;
            }
            out.pairs_considered += 1;
            let verdict = quick_check(view, cop);
            if verdict == QuickCheckVerdict::Pass {
                qc_sigs.insert(sig);
            }
            if verdict == QuickCheckVerdict::Pass || !quick_check_enabled {
                *count += 1;
                out.cops.push(cop);
            }
        };
        // Same-thread pairs are not COPs. Skipping them a run at a time
        // keeps a variable that one thread writes over and over linear
        // instead of quadratic; the cross-thread pairs keep their order.
        let (write_runs, read_runs) = (ThreadRuns::new(view, writes), ThreadRuns::new(view, reads));
        for (i, &w1) in writes.iter().enumerate() {
            let t = write_runs.threads[i];
            for j in write_runs.other_threads(t, i + 1) {
                consider(w1, writes[j], &mut out);
            }
            for j in read_runs.other_threads(t, 0) {
                consider(w1, reads[j], &mut out);
            }
        }
    }
    out.qc_signatures = qc_sigs.len();
    out
}

/// The threads of an access list, and for each position where its run of
/// same-thread accesses ends.
struct ThreadRuns {
    threads: Vec<ThreadId>,
    run_end: Vec<usize>,
}

impl ThreadRuns {
    fn new(view: &View<'_>, accesses: &[EventId]) -> Self {
        let threads: Vec<ThreadId> = accesses.iter().map(|&e| view.event(e).thread).collect();
        let mut run_end = vec![threads.len(); threads.len()];
        for k in (0..threads.len().saturating_sub(1)).rev() {
            run_end[k] = if threads[k] == threads[k + 1] {
                run_end[k + 1]
            } else {
                k + 1
            };
        }
        ThreadRuns { threads, run_end }
    }

    /// The positions from `from` on whose thread is not `t`, in order.
    fn other_threads(&self, t: ThreadId, from: usize) -> impl Iterator<Item = usize> + '_ {
        let mut k = from;
        std::iter::from_fn(move || {
            while k < self.threads.len() && self.threads[k] == t {
                k = self.run_end[k];
            }
            let found = (k < self.threads.len()).then_some(k);
            k += 1;
            found
        })
    }
}

/// Result of COP enumeration.
#[derive(Debug, Default)]
pub struct CopEnumeration {
    /// Candidate COPs (quick-check survivors when the check is enabled),
    /// capped per signature.
    pub cops: Vec<Cop>,
    /// Number of distinct signatures with at least one pair passing the
    /// quick check (the paper's "QC" column).
    pub qc_signatures: usize,
    /// Concrete pairs examined (diagnostic).
    pub pairs_considered: usize,
}

// The parallel driver enumerates COPs on worker threads; keep the
// enumeration result thread-portable.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CopEnumeration>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    #[test]
    fn common_lock_fails_quick_check() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        let w = b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        let r = b.read(t2, x, 1);
        b.release(t2, l);
        let tr = b.finish();
        let v = tr.full_view();
        assert_eq!(
            quick_check(&v, Cop::new(w, r)),
            QuickCheckVerdict::CommonLock
        );
    }

    #[test]
    fn mhb_ordered_fails_quick_check() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let w = b.write(t1, x, 1);
        let t2 = b.fork(t1); // fork after the write: write ⪯ everything in t2
        let r = b.read(t2, x, 1);
        let tr = b.finish();
        let v = tr.full_view();
        assert_eq!(
            quick_check(&v, Cop::new(w, r)),
            QuickCheckVerdict::MhbOrdered
        );
    }

    #[test]
    fn enumeration_skips_volatiles_and_same_thread() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let vy = b.volatile_var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.write(t1, x, 1);
        b.write(t1, x, 2); // same thread: not a COP with the first write
        b.write(t1, vy, 1);
        b.read(t2, vy, 1); // volatile: skipped
        b.read(t2, x, 2);
        let tr = b.finish();
        let v = tr.full_view();
        let en = enumerate_cops(&v, true, 10);
        // COPs: (w1,r) and (w2,r) on x only.
        assert_eq!(en.cops.len(), 2);
        assert!(en.qc_signatures >= 1);
    }

    #[test]
    fn per_signature_cap_applies() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let loc_w = b.loc("W");
        let loc_r = b.loc("R");
        for i in 0..10 {
            b.write_at(t1, x, i, loc_w);
        }
        // Reads of the final value to stay consistent.
        for _ in 0..10 {
            b.read_at(t2, x, 9, loc_r);
        }
        let tr = b.finish();
        let v = tr.full_view();
        let en = enumerate_cops(&v, false, 3);
        assert_eq!(en.cops.len(), 3); // capped at 3 for the single signature
    }

    /// The enumeration as it was before same-thread runs were skipped:
    /// every write pair and write/read pair, filtered one by one.
    fn enumerate_cops_all_pairs(
        view: &View<'_>,
        quick_check_enabled: bool,
        max_per_signature: usize,
    ) -> CopEnumeration {
        let trace = view.trace();
        let mut out = CopEnumeration::default();
        let mut sig_counts: std::collections::HashMap<RaceSignature, usize> =
            std::collections::HashMap::new();
        let mut qc_sigs: std::collections::HashSet<RaceSignature> =
            std::collections::HashSet::new();
        for var_idx in 0..trace.n_vars() as u32 {
            let var = VarId(var_idx);
            if trace.is_volatile(var) {
                continue;
            }
            let writes = view.writes_of(var);
            let reads = view.reads_of(var);
            let mut consider = |a: EventId, b: EventId, out: &mut CopEnumeration| {
                if view.event(a).thread == view.event(b).thread {
                    return;
                }
                let cop = Cop::new(a, b);
                let sig = RaceSignature::of_cop(trace, cop);
                let count = sig_counts.entry(sig).or_insert(0);
                if *count >= max_per_signature {
                    return;
                }
                out.pairs_considered += 1;
                let verdict = quick_check(view, cop);
                if verdict == QuickCheckVerdict::Pass {
                    qc_sigs.insert(sig);
                }
                if verdict == QuickCheckVerdict::Pass || !quick_check_enabled {
                    *count += 1;
                    out.cops.push(cop);
                }
            };
            for (i, &w1) in writes.iter().enumerate() {
                for &w2 in &writes[i + 1..] {
                    consider(w1, w2, &mut out);
                }
                for &r in reads {
                    if r != w1 {
                        consider(w1, r, &mut out);
                    }
                }
            }
        }
        out.qc_signatures = qc_sigs.len();
        out
    }

    /// Random traces of 1–4 threads with bursty same-thread runs, locked
    /// and fork-ordered accesses and a volatile variable: skipping
    /// same-thread runs yields the all-pairs walk's COPs, in its order, with
    /// its counters, at every cap with the quick check on and off.
    #[test]
    fn run_skipping_matches_the_all_pairs_walk() {
        let mut seed = 0x6a09_e667_f3bc_c908u64;
        let mut next = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        let mut nonempty = 0;
        for round in 0..200u64 {
            let mut b = TraceBuilder::new();
            let vars = [b.var("x"), b.var("y"), b.volatile_var("v")];
            let locs = [b.loc("A"), b.loc("B"), b.loc("C")];
            let lock = b.new_lock("l");
            // `r` in 0..27 picks a variable, a location and read or write.
            let access = |b: &mut TraceBuilder, t: ThreadId, r: u64| {
                let (var, loc) = (vars[(r % 3) as usize], locs[(r / 3 % 3) as usize]);
                if r / 9 == 0 {
                    b.read_at(t, var, 0, loc);
                } else {
                    b.write_at(t, var, 0, loc);
                }
            };
            let mut threads = vec![ThreadId::MAIN];
            for _ in 0..next(4) {
                access(&mut b, ThreadId::MAIN, next(27));
            }
            for _ in 1..=round % 4 {
                threads.push(b.fork(ThreadId::MAIN));
            }
            let mut t = ThreadId::MAIN;
            for _ in 0..30 {
                if next(4) == 0 {
                    t = threads[next(threads.len() as u64) as usize];
                }
                if next(5) == 0 {
                    b.acquire(t, lock);
                    access(&mut b, t, next(27));
                    b.release(t, lock);
                } else {
                    access(&mut b, t, next(27));
                }
            }
            let trace = b.finish();
            let view = trace.full_view();
            for quick_check_enabled in [true, false] {
                for cap in [1, 3, 10] {
                    let got = enumerate_cops(&view, quick_check_enabled, cap);
                    let want = enumerate_cops_all_pairs(&view, quick_check_enabled, cap);
                    assert_eq!(got.cops, want.cops);
                    assert_eq!(got.pairs_considered, want.pairs_considered);
                    assert_eq!(got.qc_signatures, want.qc_signatures);
                    nonempty += usize::from(!got.cops.is_empty());
                }
            }
        }
        assert!(nonempty > 400, "only {nonempty} runs found COPs");
    }

    #[test]
    fn quick_check_disabled_keeps_blocked_pairs() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, x, 1);
        b.release(t2, l);
        let tr = b.finish();
        let v = tr.full_view();
        let with_qc = enumerate_cops(&v, true, 10);
        let without_qc = enumerate_cops(&v, false, 10);
        assert!(with_qc.cops.is_empty());
        assert_eq!(without_qc.cops.len(), 1);
        assert_eq!(with_qc.qc_signatures, 0);
    }
}
