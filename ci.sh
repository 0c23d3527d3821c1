#!/usr/bin/env sh
# Offline CI gate: everything here must pass with no network access.
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build (debug tests + fmt only)
set -eu

say() { printf '\n== %s ==\n' "$1"; }

if [ "${1:-}" != "quick" ]; then
    say "release build"
    cargo build --release --workspace
fi

say "tests (workspace)"
cargo test --workspace -q

say "parallel equivalence (serial vs threaded driver)"
cargo test -q --test parallel_equivalence

say "robustness + fault injection (hardened: debug assertions + overflow checks)"
RUSTFLAGS="-C debug-assertions -C overflow-checks" \
    cargo test -q --test robustness --test parallel_equivalence

say "ignored tests"
cargo test --workspace -q -- --ignored

say "benches compile"
cargo build --benches -p rvbench

say "benchmark suite (its own package, outside the workspace)"
# The suite links rvtrace/rvcore/rvsmt by path but is not a workspace
# member, so an API break in those crates is invisible to the workspace
# build above; compile and test it here.
cargo test --release --manifest-path crates/bench/src/bin/suite/Cargo.toml

if [ "${1:-}" != "quick" ]; then
    say "workload sweep (every emit_trace workload: whole-file JSON and NDJSON vs streamed NDJSON)"
    # Each named workload is emitted in both formats and detected whole-file
    # from each format and streamed from NDJSON. Exit codes must agree and
    # reports must match modulo wall-clock (the `, solver ..., wall ...`
    # tail and the `window times:` line). The names come from emit_trace's
    # own usage text, so a new workload joins the sweep without touching
    # this script.
    workloads=$(./target/release/emit_trace --help 2>&1 | sed -n 's/^workloads: //p' | tr -d ',')
    [ -n "$workloads" ]
    for name in $workloads; do
        out="target/sweep_$name"
        ./target/release/emit_trace --workload "$name" --out "$out.json" 2>/dev/null
        ./target/release/emit_trace --workload "$name" --format ndjson \
            --out "$out.ndjson" 2>/dev/null
        whole_code=0
        ./target/release/rvpredict --window 1000 "$out.json" \
            > "$out.whole.out" || whole_code=$?
        ndwhole_code=0
        ./target/release/rvpredict --window 1000 "$out.ndjson" \
            > "$out.ndwhole.out" || ndwhole_code=$?
        stream_code=0
        ./target/release/rvpredict --stream --window 1000 "$out.ndjson" \
            > "$out.stream.out" || stream_code=$?
        # All paths agree, and agree on a verdict (0 clean, 1 races).
        [ "$whole_code" = "$stream_code" ] && [ "$ndwhole_code" = "$stream_code" ] \
            && [ "$whole_code" -le 1 ] || {
            echo "workload sweep: $name exits $whole_code whole-file, $ndwhole_code" \
                "whole-file NDJSON, $stream_code streamed" >&2
            exit 1
        }
        for side in whole ndwhole stream; do
            sed -e 's/, solver .*//' -e '/window times:/d' \
                "$out.$side.out" > "$out.$side.stripped"
        done
        diff "$out.whole.stripped" "$out.stream.stripped"
        diff "$out.ndwhole.stripped" "$out.stream.stripped"
    done

    say "stream smoke (streamed and stdin vs whole-file: identical report + metrics)"
    # One workload read from the file whole, from the file streamed, and
    # whole from standard input (`-`), under each flag set that
    # reaches the window pool by a different route: the default, salvage
    # (--lenient), every violation class (--kind all), and a serial and a
    # wide pool. Reports must match modulo wall-clock (the
    # `, solver ..., wall ...` tail and the `window times:` line); metric
    # sections before `timings_us` (the count-type slice) must be
    # byte-identical.
    cargo run -p rvbench --release --bin emit_trace -- \
        --workload stream_small --out target/stream_smoke_trace.json
    for variant in default lenient kinds jobs1 jobs4; do
        case $variant in
            default) extra="" ;;
            lenient) extra="--lenient" ;;
            kinds)   extra="--kind all" ;;
            jobs1)   extra="--jobs 1" ;;
            jobs4)   extra="--jobs 4" ;;
        esac
        for mode in whole streamed stdin; do
            if [ "$mode" = streamed ]; then flag="--stream"; else flag=""; fi
            if [ "$mode" = stdin ]; then src="-"; else src=target/stream_smoke_trace.json; fi
            out="target/stream_smoke_${variant}_$mode"
            # shellcheck disable=SC2086  # $flag/$extra are intentionally word-split
            ./target/release/rvpredict $flag $extra --window 2000 --witnesses \
                --metrics "$out.metrics" "$src" \
                < target/stream_smoke_trace.json \
                > "$out.out" || [ $? -eq 1 ]
            sed -e 's/, solver .*//' -e '/window times:/d' "$out.out" > "$out.stripped"
            awk '/"timings_us"/{exit} {print}' "$out.metrics" > "$out.counts"
        done
        for mode in streamed stdin; do
            diff "target/stream_smoke_${variant}_whole.stripped" \
                "target/stream_smoke_${variant}_$mode.stripped"
            diff "target/stream_smoke_${variant}_whole.counts" \
                "target/stream_smoke_${variant}_$mode.counts"
        done
    done

    say "slice smoke (sliced vs --no-slice: identical report)"
    # One wide-window workload with relevance slicing on (the default) and
    # off. The race reports must match byte-for-byte modulo wall-clock
    # (same strip as the stream smoke); the solver-effort tail is the only
    # thing slicing is allowed to change.
    cargo run -p rvbench --release --bin emit_trace -- \
        --workload wide_small --out target/slice_smoke_trace.json
    for mode in sliced unsliced; do
        if [ "$mode" = unsliced ]; then flag="--no-slice"; else flag=""; fi
        # shellcheck disable=SC2086  # $flag is intentionally word-split
        ./target/release/rvpredict $flag --window 2000 --witnesses \
            target/slice_smoke_trace.json \
            > "target/slice_smoke_$mode.out" || [ $? -eq 1 ]
        sed -e 's/, solver .*//' -e '/window times:/d' \
            "target/slice_smoke_$mode.out" > "target/slice_smoke_$mode.stripped"
    done
    diff target/slice_smoke_sliced.stripped target/slice_smoke_unsliced.stripped

    say "tier smoke (cascade vs --no-tiers: identical report)"
    # Flag-handoff workloads with the tiered cascade on (the default) and
    # off: one flag write per handoff (a unique justifier) and two (a
    # common dominator). The race reports must match byte-for-byte modulo
    # wall-clock (same strip as the other smokes); the cascade is only
    # allowed to change where the work happens, never what is reported.
    for name in tier_medium tier_double; do
        cargo run -p rvbench --release --bin emit_trace -- \
            --workload "$name" --out "target/tier_smoke_$name.json"
        for mode in tiered untiered; do
            if [ "$mode" = untiered ]; then flag="--no-tiers"; else flag=""; fi
            out="target/tier_smoke_${name}_$mode"
            # shellcheck disable=SC2086  # $flag is intentionally word-split
            ./target/release/rvpredict $flag --witnesses \
                "target/tier_smoke_$name.json" > "$out.out" || [ $? -eq 1 ]
            sed -e 's/, solver .*//' -e '/window times:/d' "$out.out" > "$out.stripped"
        done
        diff "target/tier_smoke_${name}_tiered.stripped" \
            "target/tier_smoke_${name}_untiered.stripped"
    done

    say "serve smoke (daemon sessions vs standalone CLI: identical reports)"
    # One tenant-mix trace through the rvserved daemon under three session
    # flavors — plain, --no-tiers, and a fault-injected co-tenant — each
    # compared against its standalone --stream run. Exit codes must agree
    # and reports must match byte-for-byte modulo wall-clock (same strip
    # as the other smokes). The daemon serves exactly the three sessions
    # (--once 3) and must exit 0: a session fault is never a daemon fault.
    cargo run -p rvbench --release --bin emit_trace -- \
        --workload tenant_mix --format ndjson --out target/serve_smoke_trace.ndjson
    rm -f target/serve_smoke.sock
    ./target/release/rvserved --socket target/serve_smoke.sock --once 3 --jobs 2 \
        2> target/serve_smoke_served.log &
    served_pid=$!
    for _ in $(seq 1 100); do
        [ -S target/serve_smoke.sock ] && break
        sleep 0.1
    done
    [ -S target/serve_smoke.sock ]
    for variant in plain notiers fault; do
        case $variant in
            plain)   flag="" ;;
            notiers) flag="--no-tiers" ;;
            fault)   flag="--inject-fault 0:0:panic" ;;
        esac
        solo_code=0
        # shellcheck disable=SC2086  # $flag is intentionally word-split
        ./target/release/rvpredict --stream --window 300 $flag \
            target/serve_smoke_trace.ndjson \
            > "target/serve_smoke_${variant}_solo.out" 2>/dev/null || solo_code=$?
        conn_code=0
        # shellcheck disable=SC2086  # $flag is intentionally word-split
        ./target/release/rvpredict --connect target/serve_smoke.sock --window 300 $flag \
            target/serve_smoke_trace.ndjson \
            > "target/serve_smoke_${variant}_conn.out" 2>/dev/null || conn_code=$?
        [ "$solo_code" = "$conn_code" ]
        for side in solo conn; do
            sed -e 's/, solver .*//' -e '/window times:/d' \
                "target/serve_smoke_${variant}_${side}.out" \
                > "target/serve_smoke_${variant}_${side}.stripped"
        done
        diff "target/serve_smoke_${variant}_solo.stripped" \
            "target/serve_smoke_${variant}_conn.stripped"
    done
    wait "$served_pid"

    say "boundary smoke (fixed vs cone windows: identical off-boundary, strictly better astride)"
    # Non-straddling control: the two window modes must agree byte-for-byte
    # modulo wall-clock (same strip as the other smokes). Boundary handoff:
    # every racing pair sits astride a 1000-event boundary, so fixed mode
    # reports none (exit 0) while cone mode — the default — recovers all
    # four through the straddle pass (exit 1).
    cargo run -p rvbench --release --bin emit_trace -- \
        --workload boundary_control --out target/boundary_smoke_control.json
    for mode in fixed cone; do
        ./target/release/rvpredict --window 1000 --window-mode "$mode" \
            target/boundary_smoke_control.json \
            > "target/boundary_smoke_control_$mode.out" || [ $? -eq 1 ]
        sed -e 's/, solver .*//' -e '/window times:/d' \
            "target/boundary_smoke_control_$mode.out" \
            > "target/boundary_smoke_control_$mode.stripped"
    done
    diff target/boundary_smoke_control_fixed.stripped target/boundary_smoke_control_cone.stripped
    cargo run -p rvbench --release --bin emit_trace -- \
        --workload boundary_handoff --out target/boundary_smoke_handoff.json
    ./target/release/rvpredict --window 1000 --window-mode fixed \
        target/boundary_smoke_handoff.json > target/boundary_smoke_handoff_fixed.out
    grep -q "0 race(s)" target/boundary_smoke_handoff_fixed.out
    cone_code=0
    ./target/release/rvpredict --window 1000 \
        target/boundary_smoke_handoff.json \
        > target/boundary_smoke_handoff_cone.out || cone_code=$?
    [ "$cone_code" = 1 ]
    grep -q "4 race(s)" target/boundary_smoke_handoff_cone.out

    say "kind smoke (deadlock + atomicity detectors, deterministic across --jobs)"
    # One inverted-nesting fixture through --kind deadlock and one
    # unprotected read-modify-write fixture through --kind atomicity, each
    # whole-file and streamed from NDJSON, at --jobs 1 and --jobs 4. Both
    # must report a violation (exit 1) and the reports must match
    # byte-for-byte modulo wall-clock (same strip as the other smokes):
    # violation renderings carry no timing, so any diff is a real
    # nondeterminism bug. Then every kind over kinds_repeat cut into
    # four 12-event windows, where one deadlock and two atomicity
    # signatures recur across windows: the merge must keep one report per
    # signature at every --jobs. Unknown kinds are a usage error.
    for kind in deadlock atomicity; do
        for format in json ndjson; do
            cargo run -p rvbench --release --bin emit_trace -- --workload "${kind}_micro" \
                --format "$format" --out "target/kind_smoke_$kind.$format"
        done
    done
    cargo run -p rvbench --release --bin emit_trace -- \
        --workload kinds_repeat --out target/kind_smoke_repeat.json
    kind_run() { # kind_run OUT ARGS...: runs rvpredict, requires exit 1, strips
        out=$1
        shift
        kind_code=0
        ./target/release/rvpredict "$@" > "$out.out" || kind_code=$?
        [ "$kind_code" = 1 ]
        sed -e 's/, solver .*//' -e '/window times:/d' "$out.out" > "$out.stripped"
    }
    for kind in deadlock atomicity; do
        for jobs in 1 4; do
            kind_run "target/kind_smoke_${kind}_j$jobs" --kind "$kind" --jobs "$jobs" \
                "target/kind_smoke_$kind.json"
            kind_run "target/kind_smoke_${kind}_stream_j$jobs" --kind "$kind" --jobs "$jobs" \
                --stream "target/kind_smoke_$kind.ndjson"
        done
        diff "target/kind_smoke_${kind}_j1.stripped" "target/kind_smoke_${kind}_j4.stripped"
        diff "target/kind_smoke_${kind}_j1.stripped" \
            "target/kind_smoke_${kind}_stream_j1.stripped"
        diff "target/kind_smoke_${kind}_stream_j1.stripped" \
            "target/kind_smoke_${kind}_stream_j4.stripped"
    done
    grep -q "deadlock:" target/kind_smoke_deadlock_j1.out
    grep -q "atomicity:" target/kind_smoke_atomicity_j1.out
    for kind in race deadlock atomicity all; do
        for jobs in 1 4; do
            kind_run "target/kind_smoke_repeat_${kind}_j$jobs" --kind "$kind" --jobs "$jobs" \
                --window 12 --witnesses target/kind_smoke_repeat.json
        done
        diff "target/kind_smoke_repeat_${kind}_j1.stripped" \
            "target/kind_smoke_repeat_${kind}_j4.stripped"
    done
    grep -q "deadlock: 1 cycle(s); candidates=3," target/kind_smoke_repeat_all_j1.out
    grep -q "atomicity: 2 violation(s)" target/kind_smoke_repeat_all_j1.out
    usage_code=0
    ./target/release/rvpredict --kind livelock \
        target/kind_smoke_deadlock.json 2>/dev/null || usage_code=$?
    [ "$usage_code" = 2 ]
fi

say "formatting"
cargo fmt --all --check

say "ci.sh: all green"
