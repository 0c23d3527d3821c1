//! Seeded workload generators, each with the answer key it knows by
//! construction.
//!
//! Every generator emits a *head* (one real race between the main thread
//! and a fresh thread) followed by independent *units* that share no
//! thread, lock or variable. The expected verdicts are therefore the
//! head's plus `units ×` one unit's, and a one-unit instance is small
//! enough (≤ 22 events) for the brute-force oracle to check the key.
//! The seed only permutes what the key cannot see: filler values, burst
//! lengths, pair order within a block, and the order of a unit's
//! sections.

use std::collections::BTreeSet;

use rvtrace::{Cop, EventId, RaceSignature, ThreadId, Trace, TraceBuilder};

/// The workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] = ["stream_100k", "handoff_100k", "residue_2k", "kinds_all"];

/// How large an instance to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark size.
    Full,
    /// A few hundred events: exercises every layer in milliseconds.
    Smoke,
    /// The head plus one unit, small enough for the oracle (built by
    /// the tests only).
    #[cfg_attr(not(test), allow(dead_code))]
    Unit,
}

/// What a correct run of `rvpredict` must report on a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerKey {
    /// The racy signatures; each event has its own location, so one
    /// signature is one conflicting pair.
    pub races: BTreeSet<RaceSignature>,
    /// Deadlock cycles and atomicity violations, for `--kind all` runs.
    pub kinds: Option<KindKey>,
}

/// The deadlock and atomicity part of an [`AnswerKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindKey {
    /// Predictable lock cycles.
    pub cycles: usize,
    /// Atomicity violations (triples).
    pub violations: usize,
}

/// One generated benchmark input.
#[derive(Debug)]
pub struct Workload {
    /// The workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The trace handed to `rvpredict`.
    pub trace: Trace,
    /// Serialize as NDJSON (metadata first) rather than one JSON document.
    pub ndjson: bool,
    /// CLI flags beyond the shipped defaults.
    pub flags: &'static [&'static str],
    /// The verdicts the generator built in.
    pub key: AnswerKey,
}

impl Workload {
    /// The trace file contents.
    pub fn serialize(&self) -> String {
        if self.ndjson {
            rvtrace::to_ndjson(&self.trace)
        } else {
            rvtrace::to_json(&self.trace)
        }
    }
}

/// Builds workload `name` for `seed` at `scale`; `None` for an unknown
/// name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let mut rng = Rng::new(seed ^ fnv(name));
    let pick = |full: usize, smoke: usize, unit: usize| match scale {
        Scale::Full => full,
        Scale::Smoke => smoke,
        Scale::Unit => unit,
    };
    Some(match name {
        "stream_100k" => stream(&mut rng, pick(100_000, 400, 16)),
        "handoff_100k" => handoff(&mut rng, pick(40, 4, 1), pick(280, 8, 1), false),
        "residue_2k" => handoff(&mut rng, pick(8, 2, 1), pick(20, 4, 1), true),
        "kinds_all" => kinds(&mut rng, pick(50, 4, 1)),
        _ => return None,
    })
}

/// FNV-1a, so each workload draws its own stream from a shared seed.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The racy head every workload starts with: a fresh thread and one
/// conflicting pair on a fresh variable. `write_write` picks a
/// write/write pair over a write/read pair.
fn head(b: &mut TraceBuilder, write_write: bool) -> (ThreadId, (EventId, EventId)) {
    let h = b.var("h");
    let t = b.fork(ThreadId::MAIN);
    let w = b.write(ThreadId::MAIN, h, 1);
    let other = if write_write {
        b.write(t, h, 2)
    } else {
        b.read(t, h, 1)
    };
    (t, (w, other))
}

fn finish(
    name: &'static str,
    b: TraceBuilder,
    races: &[(EventId, EventId)],
    ndjson: bool,
    flags: &'static [&'static str],
    kinds: Option<KindKey>,
) -> Workload {
    let trace = b.finish();
    let races = races
        .iter()
        .map(|&(x, y)| RaceSignature::of_cop(&trace, Cop::new(x, y)))
        .collect();
    Workload {
        name,
        trace,
        ndjson,
        flags,
        key: AnswerKey { races, kinds },
    }
}

/// `stream_100k`: a write/write head race, then `filler` race-free
/// thread-local writes by the same two threads in seeded bursts.
fn stream(rng: &mut Rng, filler: usize) -> Workload {
    let mut b = TraceBuilder::new();
    let (t, race) = head(&mut b, true);
    let a = b.var("a");
    let c = b.var("c");
    let mut left = filler;
    let mut main_turn = true;
    while left > 0 {
        let burst = (1 + rng.below(8)).min(left);
        for _ in 0..burst {
            let v = rng.below(1_000) as i64;
            if main_turn {
                b.write(ThreadId::MAIN, a, v);
            } else {
                b.write(t, c, v);
            }
        }
        left -= burst;
        main_turn = !main_turn;
    }
    finish("stream_100k", b, &[race], true, &["--stream"], None)
}

/// `handoff_100k` and `residue_2k`: `pairs` producer/consumer pairs ×
/// `blocks` lock-protected flag handoffs, pair order shuffled per block.
/// Every payload pair is ordered through its flag, so only the head
/// races. With `double`, the producer publishes each flag twice: both
/// writes justify the consumer's read, which blinds Tier B and sends
/// every payload pair to the solver.
fn handoff(rng: &mut Rng, pairs: usize, blocks: usize, double: bool) -> Workload {
    let mut b = TraceBuilder::new();
    let (_, race) = head(&mut b, false);
    let producers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(ThreadId::MAIN)).collect();
    let consumers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(ThreadId::MAIN)).collect();
    let locks: Vec<_> = (0..pairs).map(|j| b.new_lock(&format!("l{j}"))).collect();
    let mut order: Vec<usize> = (0..pairs).collect();
    for k in 0..blocks {
        rng.shuffle(&mut order);
        for &j in &order {
            let (p, c, l) = (producers[j], consumers[j], locks[j]);
            let y = b.var(&format!("y{j}_{k}"));
            let f = b.var(&format!("f{j}_{k}"));
            b.write(p, y, 1);
            for _ in 0..if double { 2 } else { 1 } {
                b.acquire(p, l);
                b.write(p, f, 1);
                b.release(p, l);
            }
            b.acquire(c, l);
            b.read(c, f, 1);
            b.release(c, l);
            b.branch(c);
            b.read(c, y, 1);
        }
    }
    let name = if double { "residue_2k" } else { "handoff_100k" };
    finish(name, b, &[race], false, &[], None)
}

/// The verdicts of one `kinds_all` unit beyond its three counter races:
/// the inverted lock pair, and three atomicity violations. Four triples
/// are feasible (each thread's read-modify-write interleaved by either
/// remote access), but the detector reports one per unordered
/// (pair start, remote access) location pair, and the two read-read
/// triples share theirs.
pub const KINDS_UNIT: KindKey = KindKey {
    cycles: 1,
    violations: 3,
};

/// `kinds_all`: `units` independent units. Each has two fresh threads
/// that nest two fresh locks in opposite orders around a protected
/// payload, and run an unprotected read-modify-write of a fresh counter
/// one after the other. The seed picks which thread goes first in each
/// section and whether the counter section comes first.
fn kinds(rng: &mut Rng, units: usize) -> Workload {
    let mut b = TraceBuilder::new();
    let (_, head_race) = head(&mut b, false);
    let mut races = vec![head_race];
    for u in 0..units {
        let mut ts = [b.fork(ThreadId::MAIN), b.fork(ThreadId::MAIN)];
        let la = b.new_lock(&format!("a{u}"));
        let lb = b.new_lock(&format!("b{u}"));
        let p = b.var(&format!("p{u}"));
        let x = b.var(&format!("x{u}"));
        let v0 = rng.below(100) as i64;
        b.initial(x, v0);
        let counter_first = rng.below(2) == 0;
        let locks = |b: &mut TraceBuilder, ts: [ThreadId; 2]| {
            for (i, &(t, outer, inner)) in [(ts[0], la, lb), (ts[1], lb, la)].iter().enumerate() {
                b.acquire(t, outer);
                b.acquire(t, inner);
                if i == 0 {
                    b.write(t, p, 1);
                } else {
                    b.read(t, p, 1);
                }
                b.release(t, inner);
                b.release(t, outer);
            }
        };
        if !counter_first {
            locks(&mut b, ts);
        }
        if rng.below(2) == 0 {
            ts.swap(0, 1);
        }
        let r1 = b.read(ts[0], x, v0);
        let w1 = b.write(ts[0], x, v0 + 1);
        let r2 = b.read(ts[1], x, v0 + 1);
        let w2 = b.write(ts[1], x, v0 + 2);
        races.extend([(w1, r2), (w1, w2), (r1, w2)]);
        if counter_first {
            if rng.below(2) == 0 {
                ts.swap(0, 1);
            }
            locks(&mut b, ts);
        }
    }
    let kinds = KindKey {
        cycles: units * KINDS_UNIT.cycles,
        violations: units * KINDS_UNIT.violations,
    };
    finish(
        "kinds_all",
        b,
        &races,
        false,
        &["--kind", "all"],
        Some(kinds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcore::{oracle_atomicity, oracle_deadlocks, oracle_races};
    use rvtrace::ViewExt;

    /// Events the exhaustive oracle explores comfortably.
    const ORACLE_EVENTS: usize = 22;

    #[test]
    fn one_unit_keys_agree_with_the_oracle() {
        for seed in 1..=8 {
            for name in NAMES {
                let w = build(name, seed, Scale::Unit).unwrap();
                let t = &w.trace;
                assert!(t.len() <= ORACLE_EVENTS, "{name}: {} events", t.len());
                let view = t.full_view();
                let races: BTreeSet<RaceSignature> = oracle_races(&view, ORACLE_EVENTS)
                    .into_iter()
                    .map(|c| RaceSignature::of_cop(t, c))
                    .collect();
                assert_eq!(races, w.key.races, "{name} seed {seed}: races");
                let cycles = oracle_deadlocks(&view, ORACLE_EVENTS).len();
                let violations: BTreeSet<RaceSignature> = oracle_atomicity(&view, ORACLE_EVENTS)
                    .into_iter()
                    .map(|(first, remote, _)| {
                        RaceSignature::new(t.event(first).loc, t.event(remote).loc)
                    })
                    .collect();
                let want = w.key.kinds.map_or((0, 0), |k| (k.cycles, k.violations));
                assert_eq!(
                    (cycles, violations.len()),
                    want,
                    "{name} seed {seed}: kinds"
                );
            }
        }
    }

    #[test]
    fn full_keys_are_head_plus_units() {
        let kinds = build("kinds_all", 1, Scale::Full).unwrap();
        assert_eq!(kinds.key.races.len(), 1 + 50 * 3);
        assert_eq!(
            kinds.key.kinds,
            Some(KindKey {
                cycles: 50,
                violations: 150
            })
        );
        for name in ["stream_100k", "handoff_100k", "residue_2k"] {
            let w = build(name, 1, Scale::Full).unwrap();
            assert_eq!((w.key.races.len(), w.key.kinds), (1, None), "{name}");
        }
        assert_eq!(
            build("stream_100k", 1, Scale::Full).unwrap().trace.len(),
            100_004
        );
    }

    #[test]
    fn a_seed_fixes_the_trace_bytes() {
        for name in NAMES {
            let a = build(name, 5, Scale::Smoke).unwrap().serialize();
            assert_eq!(
                a,
                build(name, 5, Scale::Smoke).unwrap().serialize(),
                "{name}"
            );
            assert_ne!(
                a,
                build(name, 6, Scale::Smoke).unwrap().serialize(),
                "{name}: seed ignored"
            );
        }
        assert!(build("nope", 1, Scale::Smoke).is_none());
    }
}
