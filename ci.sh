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

say "no warnings (workspace and suite builds, rustdoc)"
# Deleted items must leave no dead code, unused imports or dangling doc
# links. A target directory of its own keeps the flag change from
# invalidating the regular build cache.
RUSTFLAGS="-D warnings" cargo build -q --workspace --all-targets \
    --target-dir target/deny-warnings
RUSTFLAGS="-D warnings" cargo build -q --all-targets \
    --manifest-path crates/bench/src/bin/suite/Cargo.toml --target-dir target/deny-warnings
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

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
    # tail and the `window times:` line). The JSON file whole and the
    # NDJSON file streamed are rerun with every `thread` key escaped
    # (`\u0074hread`), which the byte-level event decoder declines, so
    # every event takes the value-tree path; exit codes and reports must
    # match the plain files'. A second pass runs every violation
    # class with witnesses (`--kind all --witnesses`), whole-file vs
    # streamed, under the same two requirements. The names come from
    # emit_trace's own usage text, so a new workload joins the sweep
    # without touching this script.
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
        sed 's/"thread"/"\\u0074hread"/g' "$out.json" > "$out.tree.json"
        sed 's/"thread"/"\\u0074hread"/g' "$out.ndjson" > "$out.tree.ndjson"
        grep -q 'u0074hread' "$out.tree.json"
        grep -q 'u0074hread' "$out.tree.ndjson"
        tree_code=0
        ./target/release/rvpredict --window 1000 "$out.tree.json" \
            > "$out.tree.out" || tree_code=$?
        tree_stream_code=0
        ./target/release/rvpredict --stream --window 1000 "$out.tree.ndjson" \
            > "$out.tree_stream.out" || tree_stream_code=$?
        [ "$tree_code" = "$whole_code" ] && [ "$tree_stream_code" = "$stream_code" ] || {
            echo "workload sweep: $name exits $tree_code whole-file and $tree_stream_code" \
                "streamed with escaped keys, $whole_code and $stream_code plain" >&2
            exit 1
        }
        for side in tree tree_stream; do
            sed -e 's/, solver .*//' -e '/window times:/d' \
                "$out.$side.out" > "$out.$side.stripped"
        done
        diff "$out.whole.stripped" "$out.tree.stripped"
        diff "$out.stream.stripped" "$out.tree_stream.stripped"
        kinds_code=0
        ./target/release/rvpredict --kind all --witnesses --window 1000 "$out.json" \
            > "$out.kinds.out" || kinds_code=$?
        kinds_stream_code=0
        ./target/release/rvpredict --kind all --witnesses --stream --window 1000 \
            "$out.ndjson" > "$out.kinds_stream.out" || kinds_stream_code=$?
        [ "$kinds_code" = "$kinds_stream_code" ] || {
            echo "workload sweep: $name --kind all exits $kinds_code whole-file," \
                "$kinds_stream_code streamed" >&2
            exit 1
        }
        for side in kinds kinds_stream; do
            sed -e 's/, solver .*//' -e '/window times:/d' \
                "$out.$side.out" > "$out.$side.stripped"
        done
        diff "$out.kinds.stripped" "$out.kinds_stream.stripped"
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

    say "tier smoke (cascade vs --no-tiers vs --no-slice: identical witnesses)"
    # Every emit_trace workload (the sweep above emitted them) with the
    # tiered cascade on (the default), off, and with slicing off, all with
    # --witnesses. A race's witness is the constructor's, or the canonical
    # re-solve's when the constructor fails, whichever route decided the
    # verdict, so the reports must match byte-for-byte modulo wall-clock
    # (same strip as the other smokes).
    for name in $workloads; do
        for mode in tiered untiered unsliced; do
            case $mode in
                tiered)   flag="" ;;
                untiered) flag="--no-tiers" ;;
                unsliced) flag="--no-slice" ;;
            esac
            out="target/tier_smoke_${name}_$mode"
            # shellcheck disable=SC2086  # $flag is intentionally word-split
            ./target/release/rvpredict $flag --witnesses \
                "target/sweep_$name.json" > "$out.out" || [ $? -eq 1 ]
            sed -e 's/, solver .*//' -e '/window times:/d' "$out.out" > "$out.stripped"
        done
        diff "target/tier_smoke_${name}_tiered.stripped" \
            "target/tier_smoke_${name}_untiered.stripped"
        diff "target/tier_smoke_${name}_tiered.stripped" \
            "target/tier_smoke_${name}_unsliced.stripped"
    done

    say "serve smoke (daemon sessions vs standalone CLI: identical responses)"
    # One tenant-mix trace through the rvserved daemon under five session
    # flavors — plain, --no-tiers, a fault-injected co-tenant, every
    # violation class (--kind all) and salvage (--lenient) — each compared
    # against its standalone --stream run. Both are the same detection
    # session composed by the same code, so exit codes must agree, stdout
    # must match modulo wall-clock (same strip as the other smokes),
    # stderr must match once the solo process's own panic-hook lines and
    # blank lines are dropped (the daemon's workers print theirs to the
    # daemon's stderr),
    # and the metrics documents must match up to `timings_us`. The daemon
    # serves exactly the five sessions (--once 5) and must exit 0: a
    # session fault is never a daemon fault.
    cargo run -p rvbench --release --bin emit_trace -- \
        --workload tenant_mix --format ndjson --out target/serve_smoke_trace.ndjson
    rm -f target/serve_smoke.sock
    ./target/release/rvserved --socket target/serve_smoke.sock --once 5 --jobs 2 \
        2> target/serve_smoke_served.log &
    served_pid=$!
    for _ in $(seq 1 100); do
        [ -S target/serve_smoke.sock ] && break
        sleep 0.1
    done
    [ -S target/serve_smoke.sock ]
    for variant in plain notiers fault kinds lenient; do
        case $variant in
            plain)   flag="" ;;
            notiers) flag="--no-tiers" ;;
            fault)   flag="--inject-fault 0:0:panic" ;;
            kinds)   flag="--kind all" ;;
            lenient) flag="--lenient" ;;
        esac
        for side in solo conn; do
            if [ "$side" = solo ]; then mode="--stream"; else mode="--connect target/serve_smoke.sock"; fi
            out="target/serve_smoke_${variant}_$side"
            code=0
            # shellcheck disable=SC2086  # $mode/$flag are intentionally word-split
            RUST_BACKTRACE=0 ./target/release/rvpredict $mode --window 300 $flag \
                --metrics "$out.metrics" target/serve_smoke_trace.ndjson \
                > "$out.out" 2> "$out.err" || code=$?
            echo "$code" > "$out.code"
            sed -e 's/, solver .*//' -e '/window times:/d' "$out.out" > "$out.stripped"
            sed -e "/^thread '.*panicked at /{N;d;}" -e '/^note: run with `RUST_BACKTRACE=1`/d' \
                -e '/^$/d' "$out.err" > "$out.stderr"
            awk '/"timings_us"/{exit} {print}' "$out.metrics" > "$out.counts"
        done
        for part in code stripped stderr counts; do
            diff "target/serve_smoke_${variant}_solo.$part" "target/serve_smoke_${variant}_conn.$part"
        done
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
