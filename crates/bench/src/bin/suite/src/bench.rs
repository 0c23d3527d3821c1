//! One benchmark run of one workload: seeded set-up with warm-ups, the
//! closed-loop timed invocations, the output gate, and — with tracing —
//! the in-process traced run. Produces the result document.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::gate;
use crate::json::{self, obj, Json};
use crate::metrics::{self, END_TO_END, PER_LAYER, PROGRAM};
use crate::pipeline::{self, Counts, Outcome, Spec};
use crate::spans::{self, Profile, Tracer};
use crate::stats::{median, tail_percentile};
use crate::workloads::{self, Scale, Workload};

/// Version of the result document.
pub const SCHEMA: f64 = 1.0;

/// Fewest timed invocations: at 40, `wall_ms.p75` has the ten samples
/// beyond it that a reported tail percentile needs.
pub const MIN_RUNS: usize = 40;

/// Nominal time of [`calibrate`], ms: reported times are scaled to the
/// host speed at which the calibration task takes this long.
pub const CALIB_REF_MS: f64 = 20.0;

/// Past this, the loop stops even short of [`MIN_RUNS`], so a run ends
/// well inside three minutes on a slow host.
const LOOP_CAP: Duration = Duration::from_secs(150);

/// How `rvpredict` is invoked.
#[derive(Debug)]
pub enum Runner {
    /// Spawn the built binary; scratch files go to `dir`.
    Cli { bin: PathBuf, dir: PathBuf },
    /// Replay the pipeline in this process (smoke mode: no spawning).
    InProcess,
}

/// What to run and for how long.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    pub scale: Scale,
    /// Minimum timed-loop length.
    pub seconds: f64,
    /// Minimum timed invocations.
    pub min_runs: usize,
    /// Set-up rounds, each ending in one warm-up invocation.
    pub warmups: usize,
    /// Traced iterations, after one warm-up iteration; 0 skips the traced
    /// run.
    pub traced: usize,
    /// Worker threads, for `--jobs` and the traced run.
    pub jobs: usize,
    /// Where the traced run's spans go.
    pub spans_out: Option<PathBuf>,
}

/// One finished run: the result document and the contract's summary.
#[derive(Debug)]
pub struct Finished {
    pub doc: Json,
    pub attempted: usize,
    pub failed: usize,
    /// End-to-end metrics, then (traced runs) per-layer ones.
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
}

struct Invocation {
    wall: Duration,
    outcome: Outcome,
    /// Peak resident set (`VmHWM`), kB; 0 when not polled.
    peak_kb: u64,
}

fn spec(w: &Workload) -> Spec {
    Spec {
        stream: w.flags.contains(&"--stream"),
        kinds: w.flags.windows(2).any(|f| f == ["--kind", "all"]),
    }
}

/// `VmHWM` of `/proc/<pid>/status` in kB (0 when unreadable, e.g. after
/// the process has exited).
fn vm_hwm_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

impl Runner {
    fn invoke(
        &self,
        w: &Workload,
        file: &Path,
        jobs: usize,
        poll_rss: bool,
    ) -> Result<Invocation, String> {
        match self {
            Runner::Cli { bin, dir } => {
                let stdout_path = dir.join("stdout.txt");
                let metrics_path = dir.join("metrics.json");
                let _ = std::fs::remove_file(&metrics_path);
                let stdout = File::create(&stdout_path)
                    .map_err(|e| format!("{}: {e}", stdout_path.display()))?;
                let mut cmd = Command::new(bin);
                cmd.arg("--jobs")
                    .arg(jobs.to_string())
                    .arg("--metrics")
                    .arg(&metrics_path)
                    .args(w.flags)
                    .arg(file)
                    .stdin(Stdio::null())
                    .stdout(stdout)
                    .stderr(Stdio::null());
                let start = Instant::now();
                let mut child = cmd
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
                let pid = child.id().to_string();
                let mut peak_kb = 0;
                let status = loop {
                    if !poll_rss {
                        break child.wait();
                    }
                    match child.try_wait() {
                        Ok(Some(status)) => break Ok(status),
                        Ok(None) => {
                            peak_kb = peak_kb.max(vm_hwm_kb(&pid));
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        Err(e) => break Err(e),
                    }
                }
                .map_err(|e| format!("waiting for rvpredict: {e}"))?;
                let wall = start.elapsed();
                let read = |p: &Path| {
                    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
                };
                Ok(Invocation {
                    wall,
                    outcome: Outcome {
                        exit: status.code().map_or(u8::MAX, |c| c as u8),
                        stdout: read(&stdout_path)?,
                        metrics: read(&metrics_path).unwrap_or_default(),
                    },
                    peak_kb,
                })
            }
            Runner::InProcess => {
                let input = std::fs::read_to_string(file)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
                let start = Instant::now();
                let outcome = pipeline::run(
                    &input,
                    spec(w),
                    &pipeline::config(jobs),
                    &Tracer::default(),
                    false,
                    &mut Counts::default(),
                )?;
                Ok(Invocation {
                    wall: start.elapsed(),
                    outcome,
                    peak_kb: if poll_rss { vm_hwm_kb("self") } else { 0 },
                })
            }
        }
    }
}

/// Gate bookkeeping across every invocation of one run.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
    reference: Option<String>,
}

impl Tally {
    /// Gates one outcome; a miss is recorded, not returned.
    fn check(&mut self, what: &str, outcome: &Outcome, w: &Workload, compare_stdout: bool) {
        self.attempted += 1;
        let mut verdict = gate::check(outcome, &w.key);
        if verdict.is_ok() && compare_stdout {
            let stripped = gate::strip_timing(&outcome.stdout);
            match &self.reference {
                None => self.reference = Some(stripped),
                Some(r) if *r != stripped => {
                    verdict = Err("stdout differs from the first run".into())
                }
                Some(_) => {}
            }
        }
        if let Err(e) = verdict {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// The number under `section`, `key` of a `--metrics` document.
fn program_value(doc: &Json, section: &str, key: &str) -> Option<f64> {
    doc.get(section)?.get(key)?.as_f64()
}

/// `1 − undecided ÷ candidates` over races, deadlock cycles and
/// atomicity triples.
fn decided_ratio(doc: &Json) -> f64 {
    let c = |k: &str| program_value(doc, "counters", k).unwrap_or(0.0);
    let undecided = c("detector.undecided") + c("deadlock.unknown") + c("atomicity.unknown");
    let total = c("detector.cops_solved") + c("deadlock.candidates") + c("atomicity.candidates");
    if total == 0.0 {
        1.0
    } else {
        1.0 - undecided / total
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().copied().map(Json::Num).collect())
}

/// Runs `plan` and returns the result document.
pub fn run(plan: &Plan, runner: &Runner, dir: &Path) -> Result<Finished, String> {
    let name = plan.workload.as_str();
    let file = dir.join(format!("{name}.trace"));
    let mut tally = Tally::default();

    // Set-up: seeded generation, serialization and file write, then one
    // warm-up (the first one cold), several times; the median is setup_s.
    let mut setup_s = Vec::new();
    let mut setup_calib = Vec::new();
    let mut peak_kb = 0;
    let mut first: Option<String> = None;
    let mut workload = None;
    for round in 0..plan.warmups {
        let start = Instant::now();
        let w = workloads::build(name, plan.seed, plan.scale)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let text = w.serialize();
        std::fs::write(&file, &text).map_err(|e| format!("{}: {e}", file.display()))?;
        let warm = runner.invoke(&w, &file, plan.jobs, true)?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_calib.push(calibrate());
        peak_kb = peak_kb.max(warm.peak_kb);
        tally.check(&format!("warm-up {round}"), &warm.outcome, &w, true);
        match &first {
            None => first = Some(text),
            Some(f) if *f != text => {
                return Err(format!("seed {} built two different traces", plan.seed))
            }
            Some(_) => {}
        }
        workload = Some(w);
    }
    let w = workload.ok_or("at least one set-up round is needed")?;
    let bytes = first.as_ref().map_or(0, String::len);

    // Closed loop, one client: the next invocation starts when the last
    // one has exited (and the calibration after it has run).
    let mut wall_ms = Vec::new();
    let mut calib_ms = Vec::new();
    let mut ttfr_ms = Vec::new();
    let mut ttfr_calib = Vec::new();
    let mut decided = Vec::new();
    let mut program: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    while (start.elapsed().as_secs_f64() < plan.seconds || wall_ms.len() < plan.min_runs)
        && start.elapsed() < LOOP_CAP
    {
        let inv = runner.invoke(&w, &file, plan.jobs, false)?;
        let calib = calibrate();
        tally.check(&format!("run {}", wall_ms.len()), &inv.outcome, &w, true);
        wall_ms.push(inv.wall.as_secs_f64() * 1e3);
        calib_ms.push(calib);
        let doc = json::parse(&inv.outcome.metrics).unwrap_or(Json::Null);
        if let Some(us) = program_value(&doc, "timings_us", "detector.time_to_first_race") {
            ttfr_ms.push(us / 1e3);
            ttfr_calib.push(calib);
        }
        decided.push(decided_ratio(&doc));
        for (metric, section, key, scale) in PROGRAM {
            if let Some(v) = program_value(&doc, section, key) {
                program.entry(metric).or_default().push(v * scale);
            }
        }
    }
    let at_ref = |raw: &[f64], calib: &[f64]| -> Vec<f64> {
        raw.iter()
            .zip(calib)
            .map(|(r, c)| r * CALIB_REF_MS / c)
            .collect()
    };
    let wall = at_ref(&wall_ms, &calib_ms);
    let raw_p50 = median(&wall_ms);
    let p50 = median(&wall);
    let mut values: BTreeMap<&str, Option<f64>> = BTreeMap::from([
        ("wall_ms.p50", p50),
        ("wall_ms.p75", tail_percentile(&wall, 0.75)),
        (
            "events_per_s",
            p50.map(|ms| w.trace.len() as f64 / (ms / 1e3)),
        ),
        ("ttfr_ms.p50", median(&at_ref(&ttfr_ms, &ttfr_calib))),
        ("peak_rss_mb", Some(peak_kb as f64 / 1024.0)),
        ("setup_s", median(&at_ref(&setup_s, &setup_calib))),
        ("decided_ratio", median(&decided)),
        ("harness.raw_wall_ms.p50", raw_p50),
        ("harness.calib_ms.p50", median(&calib_ms)),
    ]);

    if plan.traced > 0 {
        let input = first.as_deref().unwrap_or_default();
        let mut layers = traced(plan, &w, input, &mut tally)?;
        for (metric, _, _, _) in PROGRAM {
            layers.insert(
                metric,
                program.get(metric).and_then(|v| median(v)).unwrap_or(0.0),
            );
        }
        let traced_wall = layers["harness.traced_wall_ms"];
        layers.insert(
            "harness.unattributed_ms",
            raw_p50.unwrap_or(0.0) - traced_wall,
        );
        values.extend(layers.iter().map(|(&k, &v)| (k, Some(v))));
    }

    let metric_json = |defs: &[metrics::Def]| {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let v = values
                        .get(d.name)
                        .copied()
                        .flatten()
                        .map_or(Json::Null, Json::Num);
                    (
                        d.name.to_string(),
                        obj([("value", v), ("unit", Json::Str(d.unit.into()))]),
                    )
                })
                .collect(),
        )
    };
    let failed = tally.failures.len();
    let mut doc = vec![
        ("suite", num(SCHEMA)),
        ("workload", Json::Str(name.into())),
        ("seed", num(plan.seed as f64)),
        ("seconds", num(plan.seconds)),
        (
            "host",
            obj([
                ("cores", num(cores() as f64)),
                ("jobs", num(plan.jobs as f64)),
                (
                    "profile",
                    Json::Str(
                        if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        }
                        .into(),
                    ),
                ),
                (
                    "runner",
                    Json::Str(match runner {
                        Runner::Cli { .. } => "cli".into(),
                        Runner::InProcess => "in-process".into(),
                    }),
                ),
            ]),
        ),
        (
            "input",
            obj([
                ("events", num(w.trace.len() as f64)),
                ("bytes", num(bytes as f64)),
                ("flags", Json::Str(w.flags.join(" "))),
            ]),
        ),
        ("runs", num(wall_ms.len() as f64)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "failures",
            Json::Arr(
                tally
                    .failures
                    .iter()
                    .take(5)
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
        (
            "samples",
            obj([
                ("wall_ms", nums(&wall_ms)),
                ("calib_ms", nums(&calib_ms)),
                ("ttfr_ms", nums(&ttfr_ms)),
                ("ttfr_calib_ms", nums(&ttfr_calib)),
                ("setup_s", nums(&setup_s)),
                ("setup_calib_ms", nums(&setup_calib)),
            ]),
        ),
        ("metrics", metric_json(&END_TO_END)),
    ];
    if plan.traced > 0 {
        doc.push(("layers", metric_json(&PER_LAYER)));
    }
    let listed = END_TO_END
        .iter()
        .chain(if plan.traced > 0 { &PER_LAYER[..] } else { &[] })
        .map(|d| (d.name, d.unit, values.get(d.name).copied().flatten()))
        .collect();
    Ok(Finished {
        doc: obj(doc),
        attempted: tally.attempted,
        failed,
        metrics: listed,
    })
}

/// Times a fixed CPU- and memory-bound task (generate and sort 2^20
/// pseudo-random words), in ms. Run right after every timed invocation:
/// a shared host's speed drifts by more than any bound over minutes, and
/// `raw × CALIB_REF_MS / calib` removes that drift where repeating runs
/// inside one invocation cannot average it out.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut rng = workloads::Rng::new(0x5eed);
    let mut words: Vec<u64> = (0..1 << 20).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    std::hint::black_box(&words);
    start.elapsed().as_secs_f64() * 1e3
}

/// The machine's available parallelism.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The traced run: one warm iteration, then `plan.traced` traced ones;
/// each layer value is the median over the traced iterations. Every
/// replay is gated like an invocation.
fn traced(
    plan: &Plan,
    w: &Workload,
    input: &str,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let tracer = Tracer::default();
    let cfg = pipeline::config(plan.jobs);
    let mut counts = Vec::new();
    for iteration in 0..=plan.traced {
        tracer.set_iteration(iteration as u32);
        let mut c = Counts::default();
        let outcome = pipeline::run(input, spec(w), &cfg, &tracer, true, &mut c)?;
        tally.check(&format!("traced iteration {iteration}"), &outcome, w, false);
        counts.push(c);
    }
    let all = tracer.spans();
    let mut per_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (iteration, c) in counts.iter().enumerate().skip(1) {
        let spans: Vec<spans::Span> = all
            .iter()
            .filter(|s| s.iteration as usize == iteration)
            .cloned()
            .collect();
        let coverage = spans::coverage(&spans, "pipeline");
        for (k, v) in metrics::layers(&Profile::new(&spans), c, coverage, plan.jobs) {
            per_metric.entry(k).or_default().push(v);
        }
    }
    if let Some(path) = &plan.spans_out {
        std::fs::write(path, tracer.to_json(w.name).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(per_metric
        .into_iter()
        .map(|(k, v)| (k, median(&v).unwrap_or(0.0)))
        .collect())
}

/// Checks a result document's shape: the fields [`run`] writes, every
/// end-to-end metric with its unit (a tail percentile may be `null` only
/// when fewer than [`MIN_RUNS`] runs were timed), and every per-layer
/// metric when the document carries layers.
pub fn validate(doc: &Json) -> Result<(), String> {
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing `{k}`"));
    let number = |k: &str| {
        field(k)?
            .as_f64()
            .ok_or_else(|| format!("`{k}` is not a number"))
    };
    if number("suite")? != SCHEMA {
        return Err(format!("`suite` is not {SCHEMA}"));
    }
    let name = field("workload")?
        .as_str()
        .ok_or("`workload` is not a string")?;
    if !workloads::NAMES.contains(&name) {
        return Err(format!("unknown workload `{name}`"));
    }
    number("seed")?;
    let host = field("host")?;
    let host_num = |k: &str| {
        host.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`host.{k}` missing"))
    };
    let (cores, jobs) = (host_num("cores")?, host_num("jobs")?);
    if cores < 1.0 || jobs < 1.0 || jobs > cores {
        return Err(format!("host uses {jobs} jobs on {cores} cores"));
    }
    let runs = number("runs")?;
    let (attempted, failed) = (number("attempted")?, number("failed")?);
    if attempted < 1.0 || failed > attempted {
        return Err(format!("{failed} failed of {attempted} attempted"));
    }
    let walls = field("samples")?
        .get("wall_ms")
        .and_then(Json::as_arr)
        .ok_or("`samples.wall_ms` missing")?;
    if walls.len() as f64 != runs {
        return Err(format!("{} wall samples for {runs} runs", walls.len()));
    }
    let check = |section: &str, defs: &[metrics::Def]| -> Result<(), String> {
        let m = field(section)?;
        for d in defs {
            let entry = m
                .get(d.name)
                .ok_or_else(|| format!("`{section}.{}` missing", d.name))?;
            if entry.get("unit").and_then(Json::as_str) != Some(d.unit) {
                return Err(format!(
                    "`{section}.{}` does not carry unit {}",
                    d.name, d.unit
                ));
            }
            match entry.get("value") {
                Some(Json::Num(v)) if v.is_finite() => {}
                Some(Json::Null) if d.name == "wall_ms.p75" && runs < MIN_RUNS as f64 => {}
                _ => return Err(format!("`{section}.{}` has no value", d.name)),
            }
        }
        Ok(())
    };
    check("metrics", &END_TO_END)?;
    if doc.get("layers").is_some() {
        check("layers", &PER_LAYER)?;
    }
    Ok(())
}
