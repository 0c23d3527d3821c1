//! `suite`: the seeded end-to-end and per-layer benchmark of `rvpredict`.
//!
//! ```sh
//! cargo run --release --manifest-path crates/bench/src/bin/suite/Cargo.toml -- \
//!     --workload handoff_100k --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. The suite builds `rvpredict` there
//! (`cargo build --release --bin rvpredict`), generates the workload from
//! the seed, and times the binary in a closed loop. It prints one
//! `workload metric value unit` line per metric and, last, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` — end-to-end
//! metrics with `--trace 0`, per-layer ones with `--trace 1`. See
//! README.md beside this file.

mod bench;
mod compare;
mod gate;
mod json;
mod metrics;
mod pipeline;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use bench::{Plan, Runner};
use json::{obj, Json};
use workloads::Scale;

const USAGE: &str = "usage: suite [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out RESULTS.jsonl] [--trace-out SPANS.json] [--smoke]\n       \
                     suite --compare BASE.jsonl NEW.jsonl";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        trace_out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be within 0..=120".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let base = value()?.clone();
                a.compare = Some((base, value()?.clone()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(a)
}

/// Where cargo puts build outputs, as it resolves them from this
/// directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `rvpredict` from the repository rooted here.
fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/rvpredict.rs").is_file() {
        return Err("run the suite from the repository root (no rvpredict sources here)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "rvpredict"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rvpredict failed ({status})"));
    }
    Ok(target_dir().join("release").join("rvpredict"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the requested mode; `Ok(false)` when a run missed its answer key
/// or a comparison found a regression.
fn run(args: &Args) -> Result<bool, String> {
    if let Some((base, new)) = &args.compare {
        let (table, worse) = compare::report(&compare::load(base)?, &compare::load(new)?);
        print!("{table}");
        return Ok(!worse);
    }
    let dir = target_dir().join("suite");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let runner = if args.smoke {
        Runner::InProcess
    } else {
        Runner::Cli {
            bin: build_cli()?,
            dir: dir.clone(),
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        let plan = Plan {
            workload: name.to_string(),
            seed: args.seed,
            scale: if args.smoke {
                Scale::Smoke
            } else {
                Scale::Full
            },
            seconds: if args.smoke { 0.0 } else { args.seconds },
            min_runs: if args.smoke { 3 } else { bench::MIN_RUNS },
            warmups: 3,
            traced: if args.trace { 3 } else { 0 },
            jobs: bench::cores(),
            spans_out: args.trace.then(|| {
                args.trace_out
                    .clone()
                    .unwrap_or_else(|| dir.join(format!("spans-{name}-{}.json", args.seed)))
            }),
        };
        let done = bench::run(&plan, &runner, &dir)?;
        if let Some(out) = &args.out {
            append_line(out, &done.doc.render())?;
        }
        for failure in done
            .doc
            .get("failures")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            eprintln!(
                "{name}: answer key missed: {}",
                failure.as_str().unwrap_or_default()
            );
        }
        for (metric, unit, value) in &done.metrics {
            match value {
                Some(v) => println!("{name} {metric} {v} {unit}"),
                None => println!("{name} {metric} - {unit}"),
            }
        }
        let reported = if args.trace {
            &metrics::PER_LAYER[..]
        } else {
            &metrics::END_TO_END[..]
        };
        let values = reported
            .iter()
            .map(|d| {
                let v = done
                    .metrics
                    .iter()
                    .find(|m| m.0 == d.name)
                    .and_then(|m| m.2);
                (
                    d.name,
                    obj([
                        ("value", v.map_or(Json::Null, Json::Num)),
                        ("unit", Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let correct = done.failed == 0;
        all_correct &= correct;
        println!(
            "{}",
            obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(done.attempted as f64)),
                ("failed", Json::Num(done.failed as f64)),
                ("metrics", obj(values)),
            ])
            .render()
        );
    }
    Ok(all_correct)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_documents_pass_the_schema_check() {
        let dir = std::env::temp_dir().join(format!("rvsuite-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in workloads::NAMES {
            let plan = Plan {
                workload: name.into(),
                seed: 3,
                scale: Scale::Smoke,
                seconds: 0.0,
                min_runs: 3,
                warmups: 1,
                traced: 1,
                jobs: bench::cores(),
                spans_out: Some(dir.join("spans.json")),
            };
            let done = bench::run(&plan, &Runner::InProcess, &dir).unwrap();
            assert_eq!(done.failed, 0, "{name}: {}", done.doc.render());
            let doc = json::parse(&done.doc.render()).unwrap();
            bench::validate(&doc).unwrap_or_else(|e| panic!("{name}: {e}\n{}", doc.render()));
            let spans =
                json::parse(&std::fs::read_to_string(dir.join("spans.json")).unwrap()).unwrap();
            assert!(!spans
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap()
                .is_empty());
            let layers = doc.get("layers").unwrap();
            let value = |k: &str| {
                layers
                    .get(k)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap()
            };
            assert!(
                value("harness.coverage_ratio") > 0.9,
                "{name}: {}",
                layers.render()
            );
            // Every traced layer time is measured on every workload, so
            // none reads a constant 0. (`program.*` comes from the CLI's
            // whole-microsecond timings, which tiny inputs can round to 0.)
            for d in &metrics::PER_LAYER {
                if d.unit == "ms" && !d.name.starts_with("program.") {
                    assert!(value(d.name) != 0.0, "{name}: {} is 0", d.name);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_broken_document_fails_the_schema_check() {
        let dir = std::env::temp_dir().join(format!("rvsuite-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = Plan {
            workload: "residue_2k".into(),
            seed: 1,
            scale: Scale::Smoke,
            seconds: 0.0,
            min_runs: 3,
            warmups: 1,
            traced: 0,
            jobs: 1,
            spans_out: None,
        };
        let good = bench::run(&plan, &Runner::InProcess, &dir)
            .unwrap()
            .doc
            .render();
        bench::validate(&json::parse(&good).unwrap()).unwrap();
        for (from, to) in [
            ("\"unit\": \"ms\"", "\"unit\": \"s\""),
            ("\"workload\": \"residue_2k\"", "\"workload\": \"nope\""),
            ("\"jobs\": 1", "\"jobs\": 99"),
            (
                "\"setup_s\": {\"value\": ",
                "\"setup_s\": {\"value\": null, \"was\": ",
            ),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "pattern {from} not found");
            assert!(
                bench::validate(&json::parse(&bad).unwrap()).is_err(),
                "{to} accepted"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload kinds_all --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("kinds_all"), 7, 2.5, true)
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds -1",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }
}
