//! Detection sessions over one shared solver worker pool: the only
//! driver of window jobs.
//!
//! A [`SessionManager`] owns the process's one pool of solver workers,
//! and every detection run is a [`Session`] on it — its own incremental
//! parser, window cursor, confirmed-signature state, in-order merge and
//! private [`Metrics`] registry. [`RaceDetector::detect`] is a one-tenant
//! session over a complete trace; the `rvpredict` CLI opens one session
//! per run (fed the parsed trace whole, or the file's bytes under
//! `--stream`); the `rvserved` daemon opens one per connection. They
//! differ only in where the bytes or the trace come from. The failure
//! domain is the session, never the process:
//!
//! * **Isolation** — a window solve that panics degrades to a
//!   [`FailedWindow`](crate::report::FailedWindow) record in *its* session's
//!   report; a session torn down mid-stream (disconnect, idle timeout,
//!   client kill) retires its queued work and leaves a deterministic
//!   [`SessionError`] record, without touching neighbors.
//! * **Fairness** — the scheduler round-robins over sessions with pending
//!   windows, so one firehose tenant cannot starve the others.
//! * **Backpressure** — a session may keep at most
//!   [`SessionConfig::max_resident_windows`] window jobs in flight (one
//!   per window and selected analysis); past that, *its own* ingest
//!   blocks until a result merges. Slow solving stalls only the stream
//!   that caused it. An in-process run caps itself at
//!   [`SessionManager::in_process_residency`].
//! * **Degradation** — when the pool's total backlog exceeds the shed
//!   threshold, newly submitted windows are shed: solved with an
//!   already-expired window deadline, so every COP degrades to
//!   `Undecided(Timeout)` through exactly the `--timeout-ms` verdict path,
//!   and the session's report says so instead of the queue growing
//!   unboundedly. Windows still queued when the manager drops, or
//!   submitted after, merge as failed windows ("solver pool shut down").
//!
//! # Merging
//!
//! The worker that finishes a job merges its result into the session's
//! in-order merge on the spot and wakes the feeder, so a race is reported
//! as soon as its window and every window before it are solved — the
//! first race's time does not wait for the feeder to block or finish.
//!
//! # Determinism
//!
//! A session's merged report (summary and count-type metrics) is the same
//! at any worker count and any co-tenant mix: windows are solved as pure
//! functions of their view and merged in window order, where duplicate
//! signatures are dropped. A prefix snapshot covers its
//! windows exactly as the complete trace does, so feeding bytes and
//! handing over the parsed trace produce the same report. (Shedding and
//! real wall-clock window budgets are by nature load-dependent; the
//! contract holds whenever they do not fire.)
//!
//! # Examples
//!
//! ```
//! use rvcore::{SessionConfig, SessionManager};
//! use rvtrace::{to_ndjson, ThreadId, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! let t2 = b.fork(ThreadId::MAIN);
//! b.write(ThreadId::MAIN, x, 1);
//! b.read(t2, x, 1);
//! let trace = b.finish();
//!
//! let manager = SessionManager::new(2);
//! let mut session = manager.open_session(SessionConfig::default());
//! session.feed(to_ndjson(&trace).as_bytes()).unwrap();
//! let outcome = session.finish().unwrap();
//! assert_eq!(outcome.report.n_races(), 1);
//! ```
//!
//! [`RaceDetector::detect`]: crate::RaceDetector::detect

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rvtrace::{
    salvage_trace, validate_wait_links, IngestStats, JsonError, SalvageReport, StreamParser, Trace,
    TraceData, WindowCursor,
};

use crate::config::DetectorConfig;
use crate::detector::{window_jobs, InOrderMerge, RaceDetector, WindowJob, WindowResult};
use crate::metrics::Metrics;
use crate::report::DetectionReport;

/// Per-tenant configuration: the detector settings this stream runs under
/// (window size, budgets, slicing/tier toggles, fault plan — exactly the
/// standalone CLI's knobs) plus the session-level budgets.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The detector configuration for this stream. `parallelism` is
    /// ignored — the pool is the manager's.
    pub detector: DetectorConfig,
    /// Salvage a damaged trace instead of failing the parse. Lenient
    /// sessions buffer the whole stream, salvage at end-of-input, and then
    /// dispatch every window through the shared pool: salvage needs the
    /// full trace before it can repair anything.
    pub lenient: bool,
    /// Backpressure: the most window jobs this session may have submitted
    /// but not yet merged. Ingest blocks (stalling only this stream) once the
    /// cap is reached.
    pub max_resident_windows: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            detector: DetectorConfig::default(),
            lenient: false,
            max_resident_windows: 32,
        }
    }
}

/// The deterministic record of a torn-down session: which session died and
/// why (a panic message, an idle timeout, a mid-stream disconnect). The
/// record depends only on the failure itself, never on co-tenant timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionError {
    /// The session's id within its manager.
    pub session: u64,
    /// Human-readable teardown reason.
    pub reason: String,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {} torn down: {}", self.session, self.reason)
    }
}

impl std::error::Error for SessionError {}

/// Everything a completed session hands back: the reconstructed trace, the
/// merged report, ingestion counters, the salvage report (lenient mode
/// only) and the session's private metrics registry.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The complete trace, as reconstructed from the stream (salvaged, in
    /// lenient sessions).
    pub trace: Trace,
    /// The merged detection report.
    pub report: DetectionReport,
    /// Bytes, events and parse time of the ingestion; `None` for a trace
    /// that was never read from bytes.
    pub ingest: Option<IngestStats>,
    /// The salvage diagnostics, for lenient sessions.
    pub salvage: Option<SalvageReport>,
    /// Windows shed to `Undecided(Timeout)` under pool saturation.
    pub shed_windows: u64,
    /// The session's private metrics registry (`session.*` family).
    pub metrics: Metrics,
}

/// A session's state shared with the workers solving its jobs: the
/// detectors its windows run under and its in-order merge, which the
/// worker finishing a job advances.
struct Tenant {
    detector: RaceDetector,
    shed_detector: RaceDetector,
    merge: Mutex<InOrderMerge>,
    /// Signalled after every merged result: wakes a feeder blocked on the
    /// residency cap or in `finish`.
    merged: Condvar,
}

impl Tenant {
    fn lock(&self) -> MutexGuard<'_, InOrderMerge> {
        self.merge.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Buffers one result, merges everything now contiguous, and wakes
    /// the feeder.
    fn absorb(&self, result: WindowResult) {
        self.lock().absorb(&self.detector, result);
        self.merged.notify_all();
    }
}

/// One queued window solve. Carries everything the worker needs, so
/// workers never reach into session state beyond the job's tenant: a
/// retired session's in-flight results merge into a tenant nobody reads.
struct SessionJob {
    session: u64,
    /// The window and its trace snapshot, as the session's cursor cut it.
    job: WindowJob,
    tenant: Arc<Tenant>,
    shed: bool,
}

impl SessionJob {
    /// Solves the job under panic isolation and merges the result. The
    /// trace snapshot is released first, so once a session sees every
    /// window merged it holds the last reference to its trace.
    fn run(self) {
        let SessionJob {
            job, tenant, shed, ..
        } = self;
        let detector = if shed {
            &tenant.shed_detector
        } else {
            &tenant.detector
        };
        let result = job.solve(detector);
        drop(job);
        tenant.absorb(result);
    }

    /// Merges the job as failed: the pool shut down before solving it.
    fn abandon(self) {
        let result = self.job.abandoned();
        let SessionJob { job, tenant, .. } = self;
        drop(job);
        tenant.absorb(result);
    }
}

/// The scheduler: per-session FIFO queues plus a round-robin rotation of
/// sessions that currently have work. Invariant: a session id is in `rr`
/// exactly when its queue is non-empty.
#[derive(Default)]
struct Sched {
    queues: HashMap<u64, VecDeque<SessionJob>>,
    rr: VecDeque<u64>,
    total_pending: usize,
    shutdown: bool,
}

impl Sched {
    fn push_job(&mut self, job: SessionJob) {
        let q = self.queues.entry(job.session).or_default();
        if q.is_empty() {
            self.rr.push_back(job.session);
        }
        q.push_back(job);
        self.total_pending += 1;
    }

    /// Pops the next job fairly: the head-of-rotation session gives up one
    /// window and, if it still has more, goes to the back of the line.
    fn pop_job(&mut self) -> Option<SessionJob> {
        let id = self.rr.pop_front()?;
        let q = self.queues.get_mut(&id)?;
        let job = q.pop_front()?;
        if q.is_empty() {
            self.queues.remove(&id);
        } else {
            self.rr.push_back(id);
        }
        self.total_pending -= 1;
        Some(job)
    }

    /// Drops every queued job of a torn-down session.
    fn retire(&mut self, id: u64) {
        if let Some(q) = self.queues.remove(&id) {
            self.total_pending -= q.len();
        }
        self.rr.retain(|&x| x != id);
    }
}

/// State shared between the manager handle, its sessions and the workers.
struct PoolShared {
    sched: Mutex<Sched>,
    ready: Condvar,
    shed_threshold: usize,
    next_id: AtomicU64,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One shared solver worker pool plus the session factory. Dropping the
/// manager shuts the pool down: the workers finish the jobs they hold,
/// and every window still queued, or submitted by a session that outlives
/// the manager, merges as a failed window ("solver pool shut down").
pub struct SessionManager {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("workers", &self.workers.len())
            .field("shed_threshold", &self.shared.shed_threshold)
            .finish()
    }
}

impl SessionManager {
    /// A pool of `workers` solver threads with a generous shed threshold
    /// (`workers * 64` pending windows) that healthy workloads never hit.
    pub fn new(workers: usize) -> Self {
        SessionManager::with_shed_threshold(workers, workers.max(1) * 64)
    }

    /// A pool with an explicit saturation threshold: once the pool-wide
    /// backlog reaches `shed_threshold` queued windows, newly submitted
    /// windows are shed to `Undecided(Timeout)` instead of queueing.
    pub fn with_shed_threshold(workers: usize, shed_threshold: usize) -> Self {
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(Sched::default()),
            ready: Condvar::new(),
            shed_threshold,
            next_id: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        SessionManager { shared, workers }
    }

    /// The number of solver workers in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The residency cap of an in-process run, the pool's only tenant:
    /// `2 · workers + 3` — a job on every worker, as many queued behind
    /// them, and a few cut ahead — so the feeder never starves the pool
    /// and never materializes more than a bounded run of windows.
    pub fn in_process_residency(&self) -> usize {
        2 * self.worker_count() + 3
    }

    /// Opens a session: a fresh parser, window cursor and metrics
    /// registry, multiplexed onto the shared pool. Its clock —
    /// wall time and time to first race — starts now.
    pub fn open_session(&self, config: SessionConfig) -> Session {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let shed_cfg = DetectorConfig {
            // An already-expired window deadline: every COP takes the
            // `--timeout-ms` path without a single solver call.
            window_timeout: Some(Duration::ZERO),
            ..config.detector.clone()
        };
        let detector = RaceDetector::with_config(config.detector.clone());
        let start = Instant::now();
        let mut metrics = Metrics::new();
        // Session bookkeeping lives in the *gauges* section: a daemon
        // response merges this registry into the CLI-identical metrics
        // document, and the count-type sections (counters, histograms)
        // must stay byte-identical to a solo run's.
        metrics.gauge_max("session.opened", 1);
        Session {
            id,
            shared: self.shared.clone(),
            cursor: detector.cursor(),
            tenant: Arc::new(Tenant {
                merge: Mutex::new(InOrderMerge::new(start, config.detector.kind)),
                detector,
                shed_detector: RaceDetector::with_config(shed_cfg),
                merged: Condvar::new(),
            }),
            config,
            parser: StreamParser::new(),
            submitted: 0,
            peak_resident: 0,
            shed_windows: 0,
            first_dispatch: None,
            metrics,
            start,
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        let abandoned: Vec<SessionJob> = {
            let mut s = self.shared.lock();
            s.shutdown = true;
            s.rr.clear();
            s.total_pending = 0;
            s.queues.drain().flat_map(|(_, q)| q).collect()
        };
        self.shared.ready.notify_all();
        for job in abandoned {
            job.abandon();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The pool's one worker loop: pop fairly, solve under panic isolation
/// ([`WindowJob::solve`]), merge into the owning session. A panic
/// anywhere — view construction included — becomes that window's `Failed`
/// record; the worker and its neighbors keep running.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut s = shared.lock();
            loop {
                if let Some(job) = s.pop_job() {
                    break job;
                }
                if s.shutdown {
                    return;
                }
                s = shared.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.run();
    }
}

/// One tenant's detection run: feed it chunks as they arrive, then
/// [`finish`](Session::finish) for the merged outcome — or hand it a
/// trace parsed elsewhere with [`finish_parsed`](Session::finish_parsed),
/// or [`abort`](Session::abort) it. Dropping a session retires its queued
/// work from the scheduler either way.
pub struct Session {
    id: u64,
    shared: Arc<PoolShared>,
    tenant: Arc<Tenant>,
    config: SessionConfig,
    parser: StreamParser,
    cursor: WindowCursor,
    submitted: usize,
    peak_resident: usize,
    shed_windows: u64,
    /// When the first window was dispatched while input was still
    /// arriving (the start of ingest/solve overlap).
    first_dispatch: Option<Duration>,
    metrics: Metrics,
    start: Instant,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("submitted", &self.submitted)
            .field("received", &self.tenant.lock().absorbed())
            .finish()
    }
}

impl Session {
    /// The session's id within its manager (stable teardown identity).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until fewer than `limit` of this session's jobs are
    /// submitted but not yet merged.
    fn wait_below(&self, limit: usize) {
        let mut merge = self.tenant.lock();
        while self.submitted - merge.absorbed() >= limit {
            merge = self
                .tenant
                .merged
                .wait(merge)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Feeds the next chunk of the stream. Strict sessions dispatch every
    /// newly completed window to the pool before returning; lenient
    /// sessions buffer (salvage needs the whole trace). A parse error is
    /// fatal to the session — same message, offset and snippet as the
    /// whole-file parser.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), JsonError> {
        self.parser.feed(chunk)?;
        if !self.config.lenient {
            self.dispatch_ready();
        }
        Ok(())
    }

    /// Dispatches every complete window the parser has accumulated,
    /// gated on the metadata (boundary state needs the initial values, and
    /// a snapshot without the full metadata would not be prefix-equivalent
    /// to the final trace), solving against a prefix snapshot.
    fn dispatch_ready(&mut self) {
        if !self.parser.metadata_complete() || !self.cursor.ready(self.parser.events().len(), false)
        {
            return;
        }
        let snapshot = Arc::new(Trace::from_data(self.parser.data().clone()));
        self.first_dispatch
            .get_or_insert_with(|| self.start.elapsed());
        self.submit_windows(&snapshot, false);
    }

    /// Submits the jobs of every window the cursor yields over `trace` (a
    /// prefix unless `complete`) to the pool — one per selected analysis
    /// — applying backpressure first: while this session is at its
    /// residency cap, wait for a worker to merge one of its results
    /// (stalling only this stream's ingest).
    fn submit_windows(&mut self, trace: &Arc<Trace>, complete: bool) {
        let kind = self.config.detector.kind;
        let cap = self.config.max_resident_windows.max(1);
        while let Some(window) = self.cursor.next(trace, complete) {
            for job in window_jobs(window, trace.clone(), kind) {
                self.wait_below(cap);
                let job = SessionJob {
                    session: self.id,
                    job,
                    tenant: self.tenant.clone(),
                    shed: false,
                };
                // Read before the push: a worker may merge the job before
                // this thread looks again, and a submitted job must count.
                let absorbed = self.tenant.lock().absorbed();
                let mut s = self.shared.lock();
                if s.shutdown {
                    drop(s);
                    job.abandon();
                } else {
                    let shed = s.total_pending >= self.shared.shed_threshold;
                    s.push_job(SessionJob { shed, ..job });
                    drop(s);
                    self.shared.ready.notify_one();
                    self.shed_windows += u64::from(shed);
                }
                self.submitted += 1;
                self.peak_resident = self.peak_resident.max(self.submitted - absorbed);
            }
        }
    }

    /// Solves every window of the complete `trace` not yet dispatched,
    /// waits until every job has merged, and returns the report.
    fn solve(&mut self, trace: &Arc<Trace>) -> DetectionReport {
        self.submit_windows(trace, true);
        self.wait_below(1);
        let fresh = InOrderMerge::new(self.start, self.config.detector.kind);
        let mut report = std::mem::replace(&mut *self.tenant.lock(), fresh).finish();
        report.stats.peak_window_residency = self.peak_resident;
        report.stats.wall_time = self.start.elapsed();
        report
    }

    /// Runs the session over a complete, already-valid trace — the
    /// one-tenant session behind [`RaceDetector::detect`].
    pub(crate) fn detect(mut self, trace: Arc<Trace>) -> DetectionReport {
        self.solve(&trace)
    }

    /// Ends the stream: completes the parse, dispatches the tail window,
    /// waits for every in-flight window and returns the merged outcome.
    /// Strict sessions validate wait links exactly like the whole-file
    /// reader; lenient sessions salvage the damaged trace first and then
    /// solve the repaired one through the same pool.
    pub fn finish(mut self) -> Result<SessionOutcome, JsonError> {
        self.parser.finish()?;
        let parser = std::mem::take(&mut self.parser);
        let ingest = parser.stats();
        let (trace, salvage) = self.repair(parser.into_data())?;
        let ingest_done = self.start.elapsed();
        let overlap = (!self.config.lenient).then(|| {
            self.first_dispatch
                .map_or(Duration::ZERO, |t| ingest_done.saturating_sub(t))
        });
        Ok(self.outcome(trace, Some(ingest), salvage, overlap))
    }

    /// Runs the session over a trace parsed elsewhere, in place of
    /// [`feed`](Session::feed) and [`finish`](Session::finish): the same
    /// wait-link validation or salvage, then every window through the
    /// pool. The session's clock restarts once the trace is repaired, so
    /// wall time and time to first race measure detection alone, as
    /// [`RaceDetector::detect`] does. `ingest` describes how the trace was
    /// read, if it was.
    pub fn finish_parsed(
        mut self,
        data: TraceData,
        ingest: Option<IngestStats>,
    ) -> Result<SessionOutcome, JsonError> {
        debug_assert_eq!(self.submitted, 0, "finish_parsed on a fed session");
        let (trace, salvage) = self.repair(data)?;
        self.start = Instant::now();
        *self.tenant.lock() = InOrderMerge::new(self.start, self.config.detector.kind);
        Ok(self.outcome(trace, ingest, salvage, None))
    }

    /// The trace detection runs on: salvaged in lenient sessions, wait
    /// links validated in strict ones.
    fn repair(&self, data: TraceData) -> Result<(Trace, Option<SalvageReport>), JsonError> {
        if self.config.lenient {
            let (trace, report) = salvage_trace(data);
            Ok((trace, Some(report)))
        } else {
            validate_wait_links(&data)?;
            Ok((Trace::from_data(data), None))
        }
    }

    /// Solves the complete trace and packs the outcome with the session's
    /// gauges.
    fn outcome(
        mut self,
        trace: Trace,
        ingest: Option<IngestStats>,
        salvage: Option<SalvageReport>,
        overlap: Option<Duration>,
    ) -> SessionOutcome {
        let trace = Arc::new(trace);
        let mut report = self.solve(&trace);
        report.stats.ingest_overlap = overlap;
        self.metrics
            .gauge_max("session.windows", self.submitted as u64);
        self.metrics
            .gauge_max("session.shed_windows", self.shed_windows);
        // Spill residency: the deepest any window's straddle pass reached
        // back, in events. Counted against the session, not the pool —
        // extended views are rebuilt per solve, never kept resident.
        if report.stats.spill_peak_events > 0 {
            self.metrics.gauge_max(
                "session.spill_peak_events",
                report.stats.spill_peak_events as u64,
            );
        }
        self.metrics
            .gauge_max("session.peak_resident_windows", self.peak_resident as u64);
        // Workers drop their snapshot before merging; with every window
        // merged, this session's Arc is the last one standing.
        let trace = Arc::try_unwrap(trace).unwrap_or_else(|a| (*a).clone());
        SessionOutcome {
            trace,
            report,
            ingest,
            salvage,
            shed_windows: self.shed_windows,
            metrics: std::mem::take(&mut self.metrics),
        }
    }

    /// Tears the session down mid-stream (disconnect, idle timeout, client
    /// kill): retires its queued windows from the scheduler and returns
    /// the deterministic teardown record. In-flight results merge into a
    /// report nobody reads; neighbors never notice.
    pub fn abort(self, reason: impl Into<String>) -> SessionError {
        SessionError {
            session: self.id,
            reason: reason.into(),
        }
        // Drop retires the scheduler queue.
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.lock().retire(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{to_ndjson, ThreadId, TraceBuilder};

    /// A multi-window trace with exactly one racy COP near the head.
    fn racy_trace(iters: usize) -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t2 = b.fork(ThreadId::MAIN);
        b.write(ThreadId::MAIN, x, 1);
        b.read(t2, x, 1);
        for i in 0..iters {
            b.acquire(ThreadId::MAIN, l);
            b.write(ThreadId::MAIN, x, i as i64);
            b.release(ThreadId::MAIN, l);
            b.acquire(t2, l);
            b.read(t2, x, i as i64);
            b.release(t2, l);
        }
        b.finish()
    }

    fn config(window: usize) -> SessionConfig {
        SessionConfig {
            detector: DetectorConfig {
                window_size: window,
                ..DetectorConfig::default()
            },
            ..SessionConfig::default()
        }
    }

    #[test]
    fn session_report_matches_standalone_detect() {
        let trace = racy_trace(120);
        let bytes = to_ndjson(&trace);
        let manager = SessionManager::new(3);
        let mut session = manager.open_session(config(50));
        for chunk in bytes.as_bytes().chunks(97) {
            session.feed(chunk).unwrap();
        }
        let outcome = session.finish().unwrap();
        let mut cfg = DetectorConfig {
            window_size: 50,
            ..DetectorConfig::default()
        };
        cfg.parallelism = 1;
        let solo = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(
            outcome.report.deterministic_summary(),
            solo.deterministic_summary()
        );
        assert_eq!(outcome.trace.len(), trace.len());
    }

    #[test]
    fn sessions_are_isolated_from_neighbor_aborts() {
        let trace = racy_trace(60);
        let bytes = to_ndjson(&trace);
        let manager = SessionManager::new(2);
        let mut keep = manager.open_session(config(40));
        let mut kill = manager.open_session(config(40));
        let half = bytes.len() / 2;
        keep.feed(&bytes.as_bytes()[..half]).unwrap();
        kill.feed(&bytes.as_bytes()[..half]).unwrap();
        let err = kill.abort("client disconnected");
        assert_eq!(err.reason, "client disconnected");
        keep.feed(&bytes.as_bytes()[half..]).unwrap();
        let outcome = keep.finish().unwrap();
        let mut cfg = DetectorConfig {
            window_size: 40,
            ..DetectorConfig::default()
        };
        cfg.parallelism = 1;
        let solo = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(
            outcome.report.deterministic_summary(),
            solo.deterministic_summary()
        );
    }

    #[test]
    fn saturation_sheds_to_undecided_instead_of_queueing() {
        let trace = racy_trace(200);
        let bytes = to_ndjson(&trace);
        // Threshold 0: every submitted window is shed.
        let manager = SessionManager::with_shed_threshold(2, 0);
        let mut session = manager.open_session(config(50));
        session.feed(bytes.as_bytes()).unwrap();
        let outcome = session.finish().unwrap();
        assert!(outcome.shed_windows > 0, "every window shed");
        assert_eq!(outcome.report.n_races(), 0, "no solving under shed");
        assert!(outcome.report.is_degraded());
        assert_eq!(
            outcome.report.stats.undecided, outcome.report.stats.cops_solved,
            "every COP degraded to Undecided(Timeout)"
        );
    }

    #[test]
    fn round_robin_pops_alternate_between_sessions() {
        let mut sched = Sched::default();
        let trace = Arc::new(racy_trace(1));
        let manager = SessionManager::new(1);
        let session = manager.open_session(config(10));
        let mut push = |session_id: u64, index: usize| {
            let mut window = session.tenant.detector.cursor().next(&trace, true).unwrap();
            window.index = index;
            sched.push_job(SessionJob {
                session: session_id,
                job: WindowJob {
                    window,
                    trace: trace.clone(),
                    analysis: crate::config::Analysis::Race,
                },
                tenant: session.tenant.clone(),
                shed: false,
            });
        };
        // Session 0 floods; session 1 trickles.
        for i in 0..3 {
            push(0, i);
        }
        push(1, 0);
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| sched.pop_job())
            .map(|j| (j.session, j.job.window.index))
            .collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (0, 2)]);
        assert_eq!(sched.total_pending, 0);
    }

    #[test]
    fn results_merge_as_workers_finish_them() {
        // The first window races; its result must merge while the feeder
        // is idle, not when the feeder next blocks or finishes.
        let trace = racy_trace(60);
        let bytes = to_ndjson(&trace);
        let manager = SessionManager::new(2);
        let cap = 8;
        let mut session = manager.open_session(SessionConfig {
            max_resident_windows: cap,
            ..config(50)
        });
        let third = bytes.len() / 3;
        session.feed(&bytes.as_bytes()[..third]).unwrap();
        assert!(session.submitted > 0, "the first feed dispatches windows");
        // Give the workers up to 10 s to merge what the first feed
        // dispatched, without the feeder's help; then idle for 200 ms.
        let deadline = Instant::now() + Duration::from_secs(10);
        while session.tenant.lock().absorbed() < session.submitted && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(200));
        session.feed(&bytes.as_bytes()[third..]).unwrap();
        let stats = session.finish().unwrap().report.stats;
        assert!(stats.windows > 4, "windows={}", stats.windows);
        let first = stats.time_to_first_race.expect("the first window races");
        assert!(
            first + Duration::from_millis(150) <= stats.wall_time,
            "first race at {first:?} of {:?}",
            stats.wall_time
        );
        assert!((1..=cap).contains(&stats.peak_window_residency));
    }

    #[test]
    fn residency_gauge_counts_a_window_merged_before_the_feeder_looks() {
        // One window, one job: a worker may merge it before the feeder
        // reads the gauge again, and it must count as resident anyway.
        let trace = Arc::new(racy_trace(2));
        let manager = SessionManager::new(2);
        for run in 0..200 {
            let report = manager.open_session(config(1000)).detect(trace.clone());
            assert_eq!(report.stats.windows, 1);
            assert_eq!(report.stats.peak_window_residency, 1, "run {run}");
        }
    }

    #[test]
    fn windows_after_shutdown_fail_instead_of_hanging() {
        let bytes = to_ndjson(&racy_trace(30));
        let manager = SessionManager::new(2);
        let mut session = manager.open_session(config(50));
        drop(manager);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            session.feed(bytes.as_bytes()).unwrap();
            let _ = tx.send(session.finish());
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("finish returns after the manager is dropped")
            .unwrap();
        let report = outcome.report;
        assert!(report.is_degraded());
        assert_eq!(report.n_races(), 0);
        assert_eq!(report.stats.windows, report.stats.failed_windows);
        assert!(!report.failed_windows.is_empty());
        for fw in &report.failed_windows {
            assert_eq!(fw.reason, "solver pool shut down");
        }
    }

    #[test]
    fn parse_error_matches_whole_file_reader() {
        let manager = SessionManager::new(1);
        let mut session = manager.open_session(config(10));
        let bad = b"{\"events\": [nope";
        let session_err = session
            .feed(bad)
            .err()
            .or_else(|| session.finish().err())
            .expect("bad stream fails");
        let whole_err = rvtrace::read_trace(&bad[..]).unwrap_err();
        assert_eq!(session_err, whole_err);
    }
}
