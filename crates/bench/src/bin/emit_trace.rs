//! Serializes a named workload trace to JSON or NDJSON, for feeding
//! `rvpredict` (in particular its `--stream` mode and the `ci.sh`
//! workload sweep) without hand-writing trace files.
//!
//! ```sh
//! cargo run -p rvbench --release --bin emit_trace -- \
//!     --workload figure1 [--format json|ndjson] [--out PATH]
//! ```
//!
//! `--out -` (the default) writes to stdout, so the output can be piped
//! straight into `rvpredict --stream -`.

use std::process::ExitCode;

use rvsim::workloads::synthetic::{
    atomicity_workload, boundary_control_workload, boundary_handoff_workload, channel_workload,
    deadlock_workload, double_handoff_workload, flag_handoff_workload, gated_deadlock_workload,
    racy_stream_workload, repeated_kinds_workload, rwlock_racy_workload, rwlock_workload,
    tenant_mix_workload, wide_window_workload,
};
use rvsim::workloads::{self, Workload};

fn named_workload(name: &str) -> Option<Workload> {
    Some(match name {
        "figure1" => workloads::figures::figure1(),
        "figure2_read" => workloads::figures::figure2_read(),
        "array_index" => workloads::figures::array_index(),
        "stream_small" => racy_stream_workload("stream_small", 4_000),
        "stream_medium" => racy_stream_workload("stream_medium", 20_000),
        "stream_large" => racy_stream_workload("stream_large", 100_000),
        "wide_small" => wide_window_workload("wide_small", 4, 4),
        "wide_medium" => wide_window_workload("wide_medium", 6, 8),
        "wide_large" => wide_window_workload("wide_large", 10, 14),
        "tier_small" => flag_handoff_workload("tier_small", 2, 4),
        "tier_medium" => flag_handoff_workload("tier_medium", 8, 60),
        "tier_double" => double_handoff_workload("tier_double", 8, 60),
        "tenant_mix" => tenant_mix_workload("tenant_mix", 60),
        "boundary_handoff" => boundary_handoff_workload("boundary_handoff", 1_000, 4),
        "boundary_control" => boundary_control_workload("boundary_control", 1_000, 4),
        "deadlock_micro" => deadlock_workload("deadlock_micro", 1),
        "deadlock_gated" => gated_deadlock_workload("deadlock_gated"),
        "atomicity_micro" => atomicity_workload("atomicity_micro", 1),
        "kinds_repeat" => repeated_kinds_workload("kinds_repeat", 3),
        "rwlock_guarded" => rwlock_workload("rwlock_guarded", 2),
        "rwlock_shared_readers" => rwlock_racy_workload("rwlock_shared_readers"),
        "channel_pipeline" => channel_workload("channel_pipeline", 2),
        _ => return None,
    })
}

const WORKLOAD_NAMES: [&str; 22] = [
    "figure1",
    "figure2_read",
    "array_index",
    "stream_small",
    "stream_medium",
    "stream_large",
    "wide_small",
    "wide_medium",
    "wide_large",
    "tier_small",
    "tier_medium",
    "tier_double",
    "tenant_mix",
    "boundary_handoff",
    "boundary_control",
    "deadlock_micro",
    "deadlock_gated",
    "atomicity_micro",
    "kinds_repeat",
    "rwlock_guarded",
    "rwlock_shared_readers",
    "channel_pipeline",
];

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut format = "json".to_string();
    let mut out = "-".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--workload" => {
                let Some(v) = value(i) else {
                    eprintln!("error: --workload needs a name");
                    return ExitCode::from(2);
                };
                workload = Some(v.clone());
                i += 2;
            }
            "--format" => {
                match value(i).map(String::as_str) {
                    Some(v @ ("json" | "ndjson")) => format = v.to_string(),
                    _ => {
                        eprintln!("error: --format must be json or ndjson");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--out" => {
                let Some(v) = value(i) else {
                    eprintln!("error: --out needs a path (or - for stdout)");
                    return ExitCode::from(2);
                };
                out = v.clone();
                i += 2;
            }
            other => {
                eprintln!("usage: emit_trace --workload NAME [--format json|ndjson] [--out PATH]");
                eprintln!("workloads: {}", WORKLOAD_NAMES.join(", "));
                if other != "--help" && other != "-h" {
                    eprintln!("error: unknown option {other}");
                }
                return ExitCode::from(2);
            }
        }
    }

    let Some(name) = workload else {
        eprintln!(
            "error: --workload is required; one of: {}",
            WORKLOAD_NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let Some(w) = named_workload(&name) else {
        eprintln!(
            "error: unknown workload `{name}`; one of: {}",
            WORKLOAD_NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let serialized = match format.as_str() {
        "ndjson" => rvtrace::to_ndjson(&w.trace),
        _ => rvtrace::to_json(&w.trace),
    };
    if out == "-" {
        print!("{serialized}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::write(&out, &serialized) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(1);
    }
    eprintln!(
        "emit_trace: wrote {} ({} events, {})",
        out,
        w.trace.len(),
        format
    );
    ExitCode::SUCCESS
}
