//! The in-process traced run: a replay of the CLI's detection pipeline
//! built from the layers' `pub` entry points, with a span around every
//! call, plus a serial per-COP probe of the solve path.
//!
//! The replay follows the CLI's order — parse, consistency gate, views
//! and straddle plans, window solves on `jobs` workers, in-order merge,
//! render — and on `--kind all` adds the deadlock and atomicity passes.
//! Unlike `rvpredict --stream` it does not overlap ingest with solving.
//! The shipped batched solve session has no public entry point, so the
//! probe replays the per-COP path (screens, slice, encode, solve,
//! canonical witness) on the same views to split solve time by layer.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rvcore::{
    encode, encode_with_skeleton, enumerate_cops, extract_witness, infer_rmw_pairs,
    AtomicityDetector, AtomicityReport, DeadlockDetector, DeadlockReport, DetectionReport,
    DetectorConfig, Encoded, EncoderOptions, PublishedSet, RaceDetector, TierAnalysis,
    TierDecision, WindowResult, WindowSkeleton,
};
use rvsmt::{Budget, SmtResult, Solver};
use rvtrace::{
    check_consistency, check_schedule, from_json_with_stats, BoundaryTracker, RaceSignature,
    StraddlePlan, StreamParser, Trace, View, ViewExt, WindowBoundary,
};

use crate::spans::{SpanId, Tracer};

/// What one invocation produced: the CLI's exit code, stdout and
/// `--metrics` document, or their in-process equivalents.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub exit: u8,
    pub stdout: String,
    pub metrics: String,
}

/// Input shape and flags of a workload, as the CLI sees them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// `--stream`: incremental ingest through [`StreamParser`].
    pub stream: bool,
    /// `--kind all`: deadlock and atomicity passes after the races.
    pub kinds: bool,
}

/// Counters measured where the work happens, next to the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, by: f64) {
        *self.0.entry(name).or_default() += by;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Bytes handed to the stream parser per `feed`, as the CLI reads them.
const CHUNK: usize = 64 * 1024;

/// The shipped `rvpredict` defaults, with `jobs` workers.
pub fn config(jobs: usize) -> DetectorConfig {
    DetectorConfig {
        parallelism: jobs,
        ..DetectorConfig::default()
    }
}

/// Replays the pipeline on `input` under a root span named `pipeline`
/// (the traced wall), then — with `probe` — runs the per-COP probe
/// under a root span named `rvcore.probe`.
pub fn run(
    input: &str,
    spec: Spec,
    cfg: &DetectorConfig,
    tracer: &Tracer,
    probe: bool,
    counts: &mut Counts,
) -> Result<Outcome, String> {
    let trace = tracer.span("pipeline", None, |root| {
        parse(input, spec, tracer, root, counts)
    })?;
    let (outcome, views) = tracer.span("pipeline", None, |root| {
        replay(&trace, spec, cfg, tracer, root, counts)
    })?;
    if probe {
        tracer.span("rvcore.probe", None, |root| {
            probe_cops(&views, cfg, tracer, root, counts)
        });
    }
    Ok(outcome)
}

fn parse(
    input: &str,
    spec: Spec,
    tracer: &Tracer,
    root: SpanId,
    counts: &mut Counts,
) -> Result<Trace, String> {
    counts.add("bytes", input.len() as f64);
    if !spec.stream {
        let (trace, _) = tracer
            .span("rvtrace.json", Some(root), |_| from_json_with_stats(input))
            .map_err(|e| e.to_string())?;
        return Ok(trace);
    }
    tracer.span("rvtrace.stream", Some(root), |_| {
        let mut parser = StreamParser::new();
        for chunk in input.as_bytes().chunks(CHUNK) {
            parser.feed(chunk).map_err(|e| e.to_string())?;
            counts.add("chunks", 1.0);
        }
        parser.finish().map_err(|e| e.to_string())?;
        rvtrace::validate_wait_links(parser.data()).map_err(|e| e.to_string())?;
        Ok(Trace::from_data(parser.into_data()))
    })
}

fn replay<'t>(
    trace: &'t Trace,
    spec: Spec,
    cfg: &DetectorConfig,
    tracer: &Tracer,
    root: SpanId,
    counts: &mut Counts,
) -> Result<(Outcome, Vec<View<'t>>), String> {
    let violations = tracer.span("rvtrace.consistency", Some(root), |_| {
        check_consistency(trace)
    });
    if let Some(v) = violations.first() {
        return Err(format!("trace is not sequentially consistent: {v}"));
    }
    let (views, plans) = tracer.span("rvtrace.view", Some(root), |id| {
        let views = trace.windows(cfg.window_size);
        let plans = tracer.span("rvtrace.view.plan", Some(id), |_| window_plans(trace, cfg));
        (views, plans)
    });
    counts.add("windows", views.len() as f64);
    counts.add("straddle_windows", plans.iter().flatten().count() as f64);
    let detector = RaceDetector::with_config(cfg.clone());
    let races = tracer.span("rvcore.detector", Some(root), |id| {
        detect(
            &detector,
            &views,
            &plans,
            cfg.parallelism.max(1),
            tracer,
            id,
        )
    });
    let kinds = spec.kinds.then(|| {
        tracer.span("rvcore.kinds", Some(root), |_| {
            (deadlocks(&views, cfg), atomicity(&views, cfg))
        })
    });
    let outcome = tracer.span("rvcore.report", Some(root), |_| {
        render(trace, &races, kinds.as_ref())
    });
    Ok((outcome, views))
}

/// The deadlock pass over every window, as `--kind all` runs it.
fn deadlocks(views: &[View<'_>], cfg: &DetectorConfig) -> DeadlockReport {
    let detector = DeadlockDetector {
        config: cfg.clone(),
    };
    let mut report = DeadlockReport::default();
    for view in views {
        detector.detect_in_view(view, &mut report);
    }
    report
}

/// The atomicity pass over every window, as `--kind all` runs it.
fn atomicity(views: &[View<'_>], cfg: &DetectorConfig) -> AtomicityReport {
    let detector = AtomicityDetector {
        config: cfg.clone(),
    };
    let mut report = AtomicityReport::default();
    for view in views {
        detector.detect_in_view(view, &infer_rmw_pairs(view), &mut report);
    }
    report
}

/// One straddle plan per window, from one sequential tracker sweep, as
/// the detector's own drivers compute them in cone mode.
fn window_plans(trace: &Trace, cfg: &DetectorConfig) -> Vec<Option<StraddlePlan>> {
    let size = cfg.window_size.max(1);
    let mut tracker = BoundaryTracker::new(WindowBoundary::initial(trace), cfg.spill_events());
    let mut plans = Vec::new();
    let mut start = 0;
    while start < trace.len() {
        let end = (start + size).min(trace.len());
        plans.push(tracker.plan(trace.events(), start..end, |v| trace.is_volatile(v)));
        tracker.advance(trace.events(), start..end);
        start = end;
    }
    plans
}

/// Window solves on `jobs` workers, merged in window order on this
/// thread; the merge loop's blocking receives are spans of their own.
fn detect(
    detector: &RaceDetector,
    views: &[View<'_>],
    plans: &[Option<StraddlePlan>],
    jobs: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> DetectionReport {
    let start = Instant::now();
    let published = PublishedSet::new();
    let next = AtomicUsize::new(0);
    let mut report = DetectionReport::default();
    let mut confirmed = HashSet::new();
    let (tx, rx) = mpsc::channel::<WindowResult>();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(views.len()) {
            let tx = tx.clone();
            let (next, published) = (&next, &published);
            s.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(view) = views.get(index) else { break };
                let plan = plans.get(index).and_then(Option::as_ref);
                let result = tracer.span("rvcore.detector.window", Some(parent), |_| {
                    detector.solve_window_result(index, view, plan, Some(published))
                });
                if tx.send(result).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut pending = BTreeMap::new();
        let mut cursor = 0;
        while let Ok(result) = tracer.span("rvcore.detector.wait", Some(parent), |_| rx.recv()) {
            pending.insert(result.window_index(), result);
            while let Some(result) = pending.remove(&cursor) {
                tracer.span("rvcore.detector.merge", Some(parent), |_| {
                    detector.merge_window_result(
                        result,
                        &mut report,
                        &mut confirmed,
                        Some(&published),
                    )
                });
                if report.stats.time_to_first_race.is_none() && !report.races.is_empty() {
                    report.stats.time_to_first_race = Some(start.elapsed());
                }
                cursor += 1;
            }
        }
    });
    report.stats.wall_time = start.elapsed();
    report.stats.peak_window_residency = views.len();
    report
}

/// The CLI's stdout, exit code and metrics document for a finished run,
/// in the formats `rvpredict` prints them.
fn render(
    trace: &Trace,
    races: &DetectionReport,
    kinds: Option<&(DeadlockReport, AtomicityReport)>,
) -> Outcome {
    let mut out = format!("trace: {}\n{races}\n", trace.stats());
    for r in &races.races {
        out.push_str(&format!("  {}\n", r.display(trace)));
    }
    let mut metrics = races.to_metrics();
    let mut violations = races.n_races();
    let mut degraded = races.is_degraded();
    if let Some((d, a)) = kinds {
        out.push_str(&format!(
            "deadlock: {} cycle(s); candidates={}, sat={}, unsat={}, unknown={}\n",
            d.n_cycles(),
            d.candidates,
            d.sat,
            d.unsat,
            d.unknown
        ));
        for c in &d.cycles {
            let locks: Vec<String> = c.locks.iter().map(ToString::to_string).collect();
            let acquires: Vec<String> = c
                .acquires
                .iter()
                .map(|&e| trace.event(e).to_string())
                .collect();
            out.push_str(&format!(
                "  cycle {{{}}} blocked at {}\n",
                locks.join(", "),
                acquires.join(" / ")
            ));
        }
        out.push_str(&format!(
            "atomicity: {} violation(s); candidates={}, sat={}, unsat={}, unknown={}\n",
            a.violations.len(),
            a.candidates,
            a.sat,
            a.unsat,
            a.unknown
        ));
        for v in &a.violations {
            out.push_str(&format!(
                "  violation {}: {} between {} and {}\n",
                v.signature.display(trace),
                trace.event(v.interleaved),
                trace.event(v.pair.first),
                trace.event(v.pair.second),
            ));
        }
        for (name, n) in [
            ("deadlock.cycles", d.n_cycles()),
            ("deadlock.candidates", d.candidates),
            ("deadlock.unknown", d.unknown),
            ("atomicity.violations", a.violations.len()),
            ("atomicity.candidates", a.candidates),
            ("atomicity.unknown", a.unknown),
        ] {
            metrics.inc(name, n as u64);
        }
        violations += d.n_cycles() + a.violations.len();
        degraded |= d.unknown + a.unknown > 0;
    }
    let exit = if violations > 0 {
        1
    } else if degraded {
        3
    } else {
        0
    };
    metrics.inc("trace.events", trace.len() as u64);
    Outcome {
        exit,
        stdout: out,
        metrics: metrics.to_json(),
    }
}

/// The serial per-COP probe over the replay's views: for every COP not
/// yet confirmed, the tier screens, then for the residue a cone, a
/// sliced encoding and a solve, and for every race the canonical
/// unsliced re-solve and witness check.
fn probe_cops(
    views: &[View<'_>],
    cfg: &DetectorConfig,
    tracer: &Tracer,
    root: SpanId,
    counts: &mut Counts,
) {
    let opts = EncoderOptions {
        mode: cfg.mode,
        prune_write_sets: cfg.prune_write_sets,
        slice: cfg.slice,
    };
    let budget = Budget {
        max_conflicts: cfg.max_conflicts,
        timeout: Some(cfg.solver_timeout),
    };
    let mut confirmed: HashSet<RaceSignature> = HashSet::new();
    for view in views {
        tracer.span("rvcore.probe.window", Some(root), |win| {
            let found = tracer.span("rvcore.cop", Some(win), |_| {
                enumerate_cops(view, cfg.quick_check, cfg.max_cops_per_signature)
            });
            counts.add("pairs", found.pairs_considered as f64);
            counts.add("cops", found.cops.len() as f64);
            if found.cops.is_empty() {
                return;
            }
            let mut tiers = tracer.span("rvcore.tiers.build", Some(win), |_| {
                TierAnalysis::new(view, cfg.mode, cfg.prune_write_sets)
            });
            // One skeleton per window, as the per-COP solve path builds it.
            let skel = tracer.span("rvcore.slice", Some(win), |_| WindowSkeleton::new(view));
            for cop in found.cops {
                let signature = RaceSignature::of_cop(view.trace(), cop);
                if confirmed.contains(&signature) {
                    continue;
                }
                let race =
                    match tracer.span("rvcore.tiers.decide", Some(win), |_| tiers.decide(&cop)) {
                        TierDecision::Refuted => {
                            counts.add("refuted", 1.0);
                            false
                        }
                        TierDecision::Confirmed => {
                            counts.add("confirmed", 1.0);
                            true
                        }
                        TierDecision::Residue => {
                            counts.add("residue", 1.0);
                            if opts.slicing_active() && !view.has_extended_sync() {
                                let cone = tracer.span("rvcore.slice", Some(win), |_| {
                                    skel.cone(std::slice::from_ref(&cop), cfg.prune_write_sets)
                                });
                                counts.add("cone_events", cone.n_events() as f64);
                                counts.add("cone_window_events", cone.window_events() as f64);
                            }
                            let enc = tracer.span("rvcore.encoder", Some(win), |_| {
                                encode_with_skeleton(&skel, cop, opts)
                            });
                            let (result, _) = solve(&enc, cfg, &budget, tracer, win, counts);
                            result == SmtResult::Sat
                        }
                    };
                if race && canonical_witness(view, cop, opts, cfg, &budget, tracer, win, counts) {
                    confirmed.insert(signature);
                }
            }
            counts.add("tier_a_ms", ms(tiers.tier_a_time()));
            counts.add("tier_b_ms", ms(tiers.tier_b_time()));
        });
    }
    // Timed on every trace, not only under `--kind all`, so the layer's
    // cost is measured — and should stay flat — where the CLI skips it.
    let d = tracer.span("rvcore.deadlock", Some(root), |_| deadlocks(views, cfg));
    let a = tracer.span("rvcore.atomicity", Some(root), |_| atomicity(views, cfg));
    counts.add("deadlock_candidates", d.candidates as f64);
    counts.add("atomicity_candidates", a.candidates as f64);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn solve(
    enc: &Encoded,
    cfg: &DetectorConfig,
    budget: &Budget,
    tracer: &Tracer,
    parent: SpanId,
    counts: &mut Counts,
) -> (SmtResult, Solver) {
    counts.add("constraints", enc.n_constraints as f64);
    let (result, solver) = tracer.span("rvsmt.solver", Some(parent), |_| {
        let mut solver = Solver::new(&enc.fb);
        if cfg.phase_hints {
            solver.hint_atom_phases(|a| enc.phase_hint(a));
        }
        (solver.solve(budget), solver)
    });
    let stats = solver.stats().sat;
    counts.add("solves", 1.0);
    counts.add("conflicts", stats.conflicts as f64);
    counts.add("decisions", stats.decisions as f64);
    if matches!(result, SmtResult::Unknown(_)) {
        counts.add("unknown", 1.0);
    }
    (result, solver)
}

/// The canonical witness of a race: a fresh unsliced encoding solved
/// from scratch, the witness extracted from its model and replayed
/// through the schedule checker. Returns whether it validated.
#[allow(clippy::too_many_arguments)]
fn canonical_witness(
    view: &View<'_>,
    cop: rvtrace::Cop,
    opts: EncoderOptions,
    cfg: &DetectorConfig,
    budget: &Budget,
    tracer: &Tracer,
    parent: SpanId,
    counts: &mut Counts,
) -> bool {
    let ok = tracer.span("rvcore.witness.canonical", Some(parent), |id| {
        let unsliced = EncoderOptions {
            slice: false,
            ..opts
        };
        let enc = tracer.span("rvcore.encoder", Some(id), |_| encode(view, cop, unsliced));
        let (result, solver) = solve(&enc, cfg, budget, tracer, id, counts);
        result == SmtResult::Sat
            && tracer.span("rvcore.witness.extract", Some(id), |_| {
                extract_witness(view, cop, &enc, &solver, cfg.mode)
                    .is_ok_and(|w| check_schedule(view, &w.schedule).is_ok())
            })
    });
    if !ok {
        counts.add("witness_failures", 1.0);
    }
    ok
}
