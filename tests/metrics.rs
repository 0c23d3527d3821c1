//! Property tests of the metrics subsystem: merge algebra over random
//! registries, solver-counter monotonicity, and conservation of the
//! per-COP verdict partition under exhausted budgets.
//!
//! Case counts honor `PROPTEST_CASES` (the knob kept its name when the
//! suite moved off proptest); generation is seeded, so failures reproduce.

use std::time::Duration;

use rvpredict::{Budget, DetectionReport, DetectorConfig, Metrics, RaceDetector, ThreadId};
use rvpredict::{FormulaBuilder, SessionConfig, SessionManager, Solver};
use rvsim::rng::SmallRng;
use rvtrace::TraceBuilder;

/// The `--stream` driver: a one-tenant session on a pool of
/// `config.parallelism` workers, fed `input` in 64 KiB chunks.
fn detect_streamed(config: &DetectorConfig, input: &[u8]) -> rvpredict::SessionOutcome {
    let manager = SessionManager::new(config.parallelism);
    let mut session = manager.open_session(SessionConfig {
        detector: config.clone(),
        lenient: false,
        max_resident_windows: manager.in_process_residency(),
    });
    for chunk in input.chunks(64 * 1024) {
        session.feed(chunk).expect("the trace streams");
    }
    session.finish().expect("the trace streams")
}

fn cases(default: usize) -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A random registry: a handful of counters drawn from a small name pool
/// (so merges actually collide on keys) plus histograms over values spread
/// across the full bucket range.
fn gen_metrics(rng: &mut SmallRng) -> Metrics {
    const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let mut m = Metrics::new();
    for _ in 0..rng.gen_range(0..6usize) {
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        m.inc(name, rng.gen_range(0..1_000u64));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        for _ in 0..rng.gen_range(0..8usize) {
            // Random magnitude first, so observations land in random
            // buckets rather than clustering near 2^64.
            let shift = rng.gen_range(0..64u32);
            m.observe(name, rng.next_u64() >> shift);
        }
    }
    m
}

fn merged(a: &Metrics, b: &Metrics) -> Metrics {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// `Metrics::merge` is commutative and associative on the count-type
/// sections (counters and histograms) — the algebraic property the
/// parallel driver's deterministic merge relies on.
#[test]
fn metrics_merge_is_commutative_and_associative() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_4E7A);
    for case in 0..cases(64) {
        let a = gen_metrics(&mut rng);
        let b = gen_metrics(&mut rng);
        let c = gen_metrics(&mut rng);

        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        assert_eq!(
            ab.without_timings().to_json(),
            ba.without_timings().to_json(),
            "case {case}: merge is not commutative"
        );

        let ab_c = merged(&ab, &c);
        let bc = merged(&b, &c);
        let a_bc = merged(&a, &bc);
        assert_eq!(
            ab_c.without_timings().to_json(),
            a_bc.without_timings().to_json(),
            "case {case}: merge is not associative"
        );
    }
}

/// Merging preserves totals exactly: counter sums and histogram
/// count/sum/max are what you would get observing everything into one
/// registry.
#[test]
fn metrics_merge_conserves_totals() {
    let mut rng = SmallRng::seed_from_u64(0xC0_55E7);
    for case in 0..cases(64) {
        let a = gen_metrics(&mut rng);
        let b = gen_metrics(&mut rng);
        let m = merged(&a, &b);
        for (name, value) in m.counters() {
            assert_eq!(
                value,
                a.counter(name) + b.counter(name),
                "case {case}: counter `{name}` not conserved"
            );
        }
        for name in ["alpha", "beta", "gamma", "delta", "epsilon"] {
            let (ca, sa) = a.histogram(name).map_or((0, 0), |h| (h.count(), h.sum()));
            let (cb, sb) = b.histogram(name).map_or((0, 0), |h| (h.count(), h.sum()));
            let (cm, sm) = m.histogram(name).map_or((0, 0), |h| (h.count(), h.sum()));
            assert_eq!(cm, ca + cb, "case {case}: histogram `{name}` count");
            assert_eq!(sm, sa + sb, "case {case}: histogram `{name}` sum");
        }
    }
}

fn assert_monotone(earlier: &rvsmt::SatStats, later: &rvsmt::SatStats, what: &str) {
    assert!(later.decisions >= earlier.decisions, "{what}: decisions");
    assert!(
        later.propagations >= earlier.propagations,
        "{what}: propagations"
    );
    assert!(later.conflicts >= earlier.conflicts, "{what}: conflicts");
    assert!(later.restarts >= earlier.restarts, "{what}: restarts");
    assert!(
        later.learnt_clauses >= earlier.learnt_clauses,
        "{what}: learnt clauses"
    );
}

/// Solver effort counters are lifetime totals: across successive
/// `solve_assuming` calls on one incremental solver (the exact usage the
/// session's per-COP profile capture relies on) they never decrease, so
/// `delta_since` is always well defined and non-negative.
#[test]
fn solver_counters_are_monotone_across_solves() {
    let mut rng = SmallRng::seed_from_u64(0x501_7E5);
    for case in 0..cases(32) {
        // A random order-constraint formula gated by selector bools, the
        // same shape the window encoder produces for batched COPs.
        let mut fb = FormulaBuilder::new();
        let ints: Vec<_> = (0..rng.gen_range(3..8usize))
            .map(|_| fb.int_var())
            .collect();
        let selectors: Vec<_> = (0..rng.gen_range(2..6usize))
            .map(|_| {
                let s = fb.bool_var();
                for _ in 0..rng.gen_range(1..4usize) {
                    // Distinct int vars, so the atom cannot simplify away
                    // and the selector is guaranteed to reach the CNF.
                    let xi = rng.gen_range(0..ints.len());
                    let yi = (xi + 1 + rng.gen_range(0..ints.len() - 1)) % ints.len();
                    let c = fb.lt(ints[xi], ints[yi]);
                    let gated = fb.implies(s, c);
                    fb.assert_term(gated);
                }
                s
            })
            .collect();
        let mut solver = Solver::new(&fb);
        let mut prev = solver.stats().sat;
        for round in 0..rng.gen_range(1..5usize) {
            let assumption = selectors[rng.gen_range(0..selectors.len())];
            solver.solve_assuming(&Budget::UNLIMITED, &[assumption]);
            let now = solver.stats().sat;
            assert_monotone(&prev, &now, &format!("case {case} round {round}"));
            let delta = now.delta_since(&prev);
            assert_eq!(delta.decisions, now.decisions - prev.decisions);
            assert_eq!(delta.conflicts, now.conflicts - prev.conflicts);
            prev = now;
        }
    }
}

fn detect(trace: &rvtrace::Trace, cfg: DetectorConfig) -> DetectionReport {
    RaceDetector::with_config(cfg).detect(trace)
}

/// The cascade's attribution counters partition `cops_solved` — one trace
/// exercising all three outcomes (a sync-free confirmation, a flag-handoff
/// refutation, a lock-split residue COP) lands exactly one COP in each
/// stage, at one worker and at four, with byte-identical count-type
/// metrics; with the cascade off every tier counter is zero.
#[test]
fn tier_counters_partition_and_reach_metrics() {
    let mut b = TraceBuilder::new();
    let h = b.var("h");
    let y = b.var("y");
    let f = b.var("f");
    let x2 = b.var("x2");
    let y2 = b.var("y2");
    let main = ThreadId::MAIN;
    let t2 = b.fork(main);
    let l = b.new_lock("l");
    let m = b.new_lock("m");
    // Confirmed: a sync-free racy pair Tier A replays.
    b.write(main, h, 1);
    b.write(t2, h, 2);
    // Refuted: a flag handoff whose branch-forced read entails the order.
    b.write(main, y, 1);
    b.acquire(main, l);
    b.write(main, f, 1);
    b.release(main, l);
    b.acquire(t2, l);
    b.read(t2, f, 1);
    b.release(t2, l);
    b.branch(t2);
    b.read(t2, y, 1);
    // Residue: a lock-split exchange only the solver can decide.
    b.acquire(main, m);
    b.write(main, x2, 7);
    b.write(main, y2, 1);
    b.release(main, m);
    b.acquire(t2, m);
    b.read(t2, y2, 1);
    b.release(t2, m);
    b.read(t2, x2, 7);
    let trace = b.finish();

    let mut docs = Vec::new();
    for parallelism in [1usize, 4] {
        let on = detect(
            &trace,
            DetectorConfig {
                parallelism,
                ..Default::default()
            },
        );
        let s = &on.stats;
        assert_eq!(
            s.tier_confirmed + s.tier_refuted + s.tier_residue,
            s.cops_solved,
            "jobs={parallelism}: tier partition broken"
        );
        assert_eq!(
            (s.tier_confirmed, s.tier_refuted, s.tier_residue),
            (1, 1, 1),
            "jobs={parallelism}: each stage decides its COP"
        );
        let doc = on.to_metrics().without_timings().to_json();
        assert!(doc.contains("\"detector.tiers.confirmed\": 1"), "{doc}");
        assert!(doc.contains("\"detector.tiers.refuted\": 1"), "{doc}");
        assert!(doc.contains("\"detector.tiers.residue\": 1"), "{doc}");
        docs.push(doc);

        let off = detect(
            &trace,
            DetectorConfig {
                parallelism,
                tiers: false,
                ..Default::default()
            },
        );
        let s = &off.stats;
        assert_eq!(
            (s.tier_confirmed, s.tier_refuted, s.tier_residue),
            (0, 0, 0),
            "jobs={parallelism}: cascade off must attribute nothing"
        );
        let doc = off.to_metrics().without_timings().to_json();
        assert!(doc.contains("\"detector.tiers.confirmed\": 0"), "{doc}");
        // The cascade must not change what is reported.
        assert_eq!(on.signatures(), off.signatures(), "jobs={parallelism}");
    }
    assert_eq!(
        docs[0], docs[1],
        "tier metrics drifted across worker counts"
    );
}

/// The solver budget knob bounds solves deterministically: with a
/// conflict budget of 0 every real solve runs out, and the report's
/// verdict partition still holds (nothing lost, nothing double-counted).
#[test]
fn zero_conflict_budget_keeps_partition_intact() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t1 = ThreadId::MAIN;
    let t2 = b.fork(t1);
    for i in 0..6 {
        b.write(t1, x, i);
        b.read(t2, x, i);
    }
    let trace = b.finish();
    let report = detect(
        &trace,
        DetectorConfig {
            max_conflicts: Some(0),
            solver_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    let s = &report.stats;
    assert_eq!(s.sat + s.unsat + s.undecided, s.cops_solved);
}

/// A `kinds_all`-shaped trace: `units` independent units, each two fresh
/// threads nesting two fresh locks in opposite orders around a protected
/// payload, and an unprotected read-modify-write of a fresh counter by
/// each thread in turn (the seed picks the order of the sections).
fn kinds_units(rng: &mut SmallRng, units: usize) -> rvtrace::Trace {
    let mut b = TraceBuilder::new();
    for u in 0..units {
        let ts = [b.fork(ThreadId::MAIN), b.fork(ThreadId::MAIN)];
        let (la, lb) = (b.new_lock(&format!("a{u}")), b.new_lock(&format!("b{u}")));
        let (p, x) = (b.var(&format!("p{u}")), b.var(&format!("x{u}")));
        let locks = |b: &mut TraceBuilder| {
            for (i, (t, outer, inner)) in [(ts[0], la, lb), (ts[1], lb, la)].into_iter().enumerate()
            {
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
        let counter_first = rng.gen_bool();
        if !counter_first {
            locks(&mut b);
        }
        for (k, &t) in ts.iter().enumerate() {
            b.read(t, x, k as i64);
            b.write(t, x, k as i64 + 1);
        }
        if counter_first {
            locks(&mut b);
        }
    }
    b.finish()
}

/// Every race of a `kinds_all`-shaped trace is witnessed by the
/// constructor: Tier A confirms them all, the solver never runs and no
/// witness falls back to the canonical re-solve. Figure 1's race needs a
/// lock region moved ahead of another, so its witness is the one
/// fallback. The count-type metrics are byte-identical at 1, 2 and 4
/// workers.
#[test]
fn constructor_witnesses_every_kinds_race_and_counts_fallbacks() {
    let trace = kinds_units(&mut SmallRng::seed_from_u64(0x4B1D), 8);
    let mut docs = Vec::new();
    for parallelism in [1usize, 2, 4] {
        let report = detect(
            &trace,
            DetectorConfig {
                parallelism,
                window_size: 60,
                kind: rvpredict::Kind::All,
                ..Default::default()
            },
        );
        let s = &report.stats;
        assert_eq!(report.n_races(), 8 * 3, "{report}");
        assert_eq!(s.tier_confirmed, report.n_races(), "{report}");
        assert_eq!(s.solver_totals.solves, 0, "{report}");
        assert_eq!(s.witness_fallbacks, 0, "{report}");
        let doc = report.to_metrics().without_timings().to_json();
        assert!(doc.contains("\"detector.witness_fallbacks\": 0"), "{doc}");
        docs.push(doc);
    }
    assert_eq!(docs[0], docs[1], "metrics drifted from 1 to 2 workers");
    assert_eq!(docs[0], docs[2], "metrics drifted from 1 to 4 workers");

    let figure1 = rvpredict::workloads::figures::figure1();
    let report = detect(&figure1.trace, DetectorConfig::default());
    assert_eq!(report.n_races(), 1, "{report}");
    assert_eq!(report.stats.witness_fallbacks, 1, "{report}");
    let doc = report.to_metrics().without_timings().to_json();
    assert!(doc.contains("\"detector.witness_fallbacks\": 1"), "{doc}");
}

/// Every kind reports the run-level metrics, not only the race section:
/// a `--kind deadlock` or `--kind atomicity` run records
/// `detector.wall_time` and `stream.peak_window_residency`, plus
/// `stream.ingest_overlap` when streamed, and no race counters. Its
/// count-type sections are byte-identical whole-file and streamed, at 1,
/// 2 and 4 workers.
#[test]
fn single_kind_runs_report_run_level_metrics() {
    let trace = kinds_units(&mut SmallRng::seed_from_u64(0x4B1D), 8);
    let ndjson = rvpredict::to_ndjson(&trace);
    for kind in [rvpredict::Kind::Deadlock, rvpredict::Kind::Atomicity] {
        let mut docs = Vec::new();
        for parallelism in [1usize, 2, 4] {
            let config = DetectorConfig {
                parallelism,
                window_size: 60,
                kind,
                ..Default::default()
            };
            let streamed = detect_streamed(&config, ndjson.as_bytes()).report;
            for (report, stream) in [(detect(&trace, config), false), (streamed, true)] {
                let m = report.to_metrics();
                let doc = m.to_json();
                assert!(m.timing("detector.wall_time") > Duration::ZERO, "{doc}");
                assert!(m.gauge("stream.peak_window_residency") > 0, "{doc}");
                assert_eq!(doc.contains("\"stream.ingest_overlap\""), stream, "{doc}");
                assert!(!doc.contains("\"detector.races\""), "{doc}");
                docs.push(m.without_timings().to_json());
            }
        }
        for doc in &docs[1..] {
            assert_eq!(&docs[0], doc, "{kind:?} count-type metrics drifted");
        }
    }
}
