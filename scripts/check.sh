#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, full test suite.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Single-writer gate: one thread drives a world, so non-test code under
# crates/*/src holds no lock, atomic, OnceLock, Arc or unsafe Send/Sync
# impl, and no thread_local! but the intern pool's. A test module runs
# from a column-0 `#[cfg(test)]` to the end of its file, as in
# scripts/loc_budget.sh.
echo "==> single-writer gate (no locks, atomics, OnceLock, Arc in crates/*/src)"
relocked="$(find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    /Mutex|RwLock|Atomic[A-Z]|OnceLock|Arc<|Arc::|unsafe impl (Send|Sync)/ { print FILENAME ":" FNR ": " $0 }
    /thread_local!/ && (FILENAME != "crates/obs/src/lib.rs" || ++pools > 1) { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$relocked" ]; then
    echo "error: shared-state machinery in single-threaded code:"
    echo "$relocked"
    exit 1
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The GUI app's end-to-end test: its binary needs the `app` feature, which
# the workspace run above leaves off.
echo "==> qos_gui end to end (cargo test -p nod-tui --features app --test qos_gui)"
cargo test -q -p nod-tui --features app --test qos_gui

# Rustdoc (gating): intra-doc links to items a refactor removed rot
# silently otherwise.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Conformance oracle (gating): replay seeded scenarios through the
# paper-literal reference negotiator and every optimized execution path
# (session / manager / broker), and, under a choice period, step 6 of the
# session lifecycle against the reference's confirmation machine on seeded
# user actions (the "confirmation" path). Any divergence prints a
# shrunk, ready-to-paste repro test and fails the gate. Deterministic in
# the seed; raise NOD_ORACLE_CASES locally for a deeper sweep.
# --explain-check additionally replays each scenario with explanations on
# and asserts the decision log cites exactly the refusal kinds, score
# decomposition and winning-offer rank the reference observed, and that
# the explained outcome equals the plain one field by field.
echo "==> conformance oracle (run_oracle --cases \${NOD_ORACLE_CASES:-4096} --seed 7 --explain-check)"
cargo run -q --release -p nod-oracle --bin run_oracle -- \
    --cases "${NOD_ORACLE_CASES:-4096}" --seed 7 --explain-check

# The reproduction is a fixed point too (gating): every E1–E11 / X1–X6
# experiment binary must print exactly its captured results/<bin>.txt.
echo "==> reproduction (e*/x* bins vs results/*.txt)"
repro_tmp="$(mktemp -d)"
for expected in results/*.txt; do
    bin="$(basename "$expected" .txt)"
    cargo run -q --release -p nod-bench --bin "$bin" < /dev/null > "$repro_tmp/$bin.txt"
    if ! cmp -s "$expected" "$repro_tmp/$bin.txt"; then
        echo "error: $bin no longer prints $expected:"
        diff -u "$expected" "$repro_tmp/$bin.txt" | head -20 || true
        rm -rf "$repro_tmp"
        exit 1
    fi
done
rm -rf "$repro_tmp"

# The observed run is a fixed point too (gating): a contended run with
# fault windows, retries and a choice period, every artifact channel on,
# must print and write exactly what results/contended/ holds — counters,
# Prometheus text, trace log and explain artifact, byte for byte. After a
# change that is meant to move them, rerun this command with the outputs
# pointed at results/contended/ and commit the diff.
echo "==> observed run (run_contended vs results/contended/)"
observed_tmp="$(mktemp -d)"
if ! cargo run -q --release -p nod-bench --bin run_contended -- \
    --sessions 64 --servers 1 --seed 9 --faults 3 --choice-period 300 --hold-ms 4000 \
    --metrics-out "$observed_tmp/metrics.json" --prom-out "$observed_tmp/metrics.prom" \
    --trace-out "$observed_tmp/trace.jsonl" --explain-out "$observed_tmp/explain.jsonl" \
    < /dev/null > "$observed_tmp/stdout.txt" 2> "$observed_tmp.log"; then
    cat "$observed_tmp.log"
    rm -rf "$observed_tmp" "$observed_tmp.log"
    exit 1
fi
if ! diff -r results/contended "$observed_tmp" > /dev/null; then
    echo "error: run_contended no longer reproduces results/contended/:"
    diff -r results/contended "$observed_tmp" | head -20 || true
    rm -rf "$observed_tmp" "$observed_tmp.log"
    exit 1
fi
rm -rf "$observed_tmp" "$observed_tmp.log"

# Scratch space for the smokes below, removed on exit.
smoke_tmp="$(mktemp -d)"
trap 'rm -rf "$smoke_tmp"' EXIT

# Fleet smoke (gating): drive a 10k-session metro fleet through
# Broker::drive; run_fleet's zero-leak capacity audit fails the gate.
# (Outcome-log determinism is gated by tests/broker_contention.rs above
# and by the benchmark smoke's digest checks below.)
echo "==> fleet smoke (run_fleet --sessions 10000)"
cargo run -q --release -p nod-bench --bin run_fleet -- --sessions 10000

# Trace smoke: a small contended run must emit a parseable JSONL trace log
# whose span trees pass the analyzer's causal-integrity checks (the
# --trace-report path exits non-zero on a malformed trace).
echo "==> trace smoke (run_contended --trace-out)"
cargo run -q --release -p nod-bench --bin run_contended -- \
    --sessions 16 --servers 1 --seed 5 --hold-ms 4000 \
    --trace-out "$smoke_tmp/trace.jsonl" --trace-report > /dev/null
test -s "$smoke_tmp/trace.jsonl"

# Exposition smoke: the same run must emit a Prometheus text snapshot and
# per-window scrape files; the feature-gated nod_top live view (not built
# by --workspace above, so this is its only compile gate) must render a
# final frame in --once mode.
echo "==> exposition smoke (run_contended --prom-out --windows-out, nod_top --once)"
cargo run -q --release -p nod-bench --bin run_contended -- \
    --sessions 16 --servers 1 --seed 5 --hold-ms 4000 --slos \
    --prom-out "$smoke_tmp/metrics.prom" --windows-out "$smoke_tmp/windows" > /dev/null
test -s "$smoke_tmp/metrics.prom"
test -s "$smoke_tmp/windows/window_0000.prom"
# Capture rather than pipe to grep -q: a closed pipe would make the bin's
# trailing summary print panic before grep ever fails the check.
top_frame="$(cargo run -q --release -p nod-tui --features top --bin nod_top -- \
    --sessions 16 --servers 1 --seed 5 --hold-ms 4000 --slos --once)"
grep -q "nod-top — fleet window" <<< "$top_frame"

# Explain smoke: a contended run must emit a parseable decision-provenance
# artifact, and nod_explain must load it and render the overview (the
# overview includes the retention-ledger line, so a truncated or
# schema-drifted artifact fails the grep, not just the parse).
echo "==> explain smoke (run_contended --explain-out, nod_explain --once)"
cargo run -q --release -p nod-bench --bin run_contended -- \
    --sessions 64 --servers 1 --seed 5 --hold-ms 4000 \
    --explain-out "$smoke_tmp/explain.jsonl" > /dev/null
test -s "$smoke_tmp/explain.jsonl"
explain_overview="$(cargo run -q --release -p nod-bench --bin nod_explain -- \
    --once "$smoke_tmp/explain.jsonl")"
grep -q "retained .* of .* finished" <<< "$explain_overview"

# Kill-and-recover smoke (gating): journal a contended run, crash the
# process at a seeded event index (exit code 86 is the deliberate chaos
# exit — any other code is a real failure), then resume from the journal
# with the same workload flags. The --recover path re-runs the workload
# uninterrupted in-process and exits non-zero unless the resumed outcome
# log is the byte-identical suffix with zero leaked streams. The 64-session
# run crashes before its first snapshot; the 2000-session run cuts
# snapshots at events 4096 and 8192 and compacts the file at each, so its
# crash at event 6000 is recovered from a rewritten file.
echo "==> kill-and-recover smoke (run_contended --journal --kill-at-event / --recover)"
for run in "64 40" "2000 6000"; do
    read -r sessions kill_at <<< "$run"
    recover_flags=(--sessions "$sessions" --servers 1 --seed 9 --faults 3 --choice-period 300
        --journal "$smoke_tmp/run_$sessions.nodj")
    set +e
    cargo run -q --release -p nod-bench --bin run_contended -- \
        "${recover_flags[@]}" --kill-at-event "$kill_at" > /dev/null
    kill_status=$?
    set -e
    if [ "$kill_status" -ne 86 ]; then
        echo "error: --kill-at-event $kill_at exited with $kill_status, expected the chaos exit code 86"
        exit 1
    fi
    test -s "$smoke_tmp/run_$sessions.nodj"
    recover_out="$(cargo run -q --release -p nod-bench --bin run_contended -- \
        "${recover_flags[@]}" --recover)"
    grep -q "recovery verified" <<< "$recover_out"
done

# Benchmark smoke (gating): `benchmark/` is a standalone package outside
# the workspace, so nothing above compiles it — a qosneg/broker API change
# could break the repo's benchmark silently. Build it and run every
# workload at 1/50 size: leak checks, fate sums, and the
# steady/sharded/observed outcome-digest equality (~10 s).
echo "==> benchmark smoke (benchmark/ run --smoke)"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --smoke

# The standalone package's own unit tests (statistics, digest, span
# self-time, generators, BENCHMARK.json <=> code): nothing above runs them.
echo "==> benchmark unit tests (cargo test --manifest-path benchmark/Cargo.toml)"
cargo test --release --quiet --manifest-path benchmark/Cargo.toml

# Outcome-digest pin (gating): a performance change must leave every
# workload's story unchanged. Minimum-length runs (~15 s per seed) print
# the same digest as a 25 s one; scripts/benchmark_digests.txt holds the
# expected `<workload> <digest> [seed]` lines (seed 12 when omitted).
echo "==> benchmark digests (seeds 12 and 47 vs scripts/benchmark_digests.txt)"
while read -r workload expected seed; do
    seed="${seed:-12}"
    got="$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --seed "$seed" --seconds 0 --trace 0 < /dev/null |
        sed -n 's/^row .*"outcome_digest":"\([^"]*\)".*/\1/p')"
    if [ "$got" != "$expected" ]; then
        echo "error: $workload outcome_digest at seed $seed is '$got', expected $expected"
        exit 1
    fi
    echo "$workload seed $seed $got"
done < scripts/benchmark_digests.txt

# Allocation ceiling (gating): the count-allocs build of the benchmark
# counts heap allocations per negotiation over a smoke-size replay, so
# growth past scripts/alloc_ceiling.txt — a table that starts
# reallocating, a clone on the hot path — fails here; lower the ceiling
# when a change saves allocations. Its own target dir keeps the counting
# allocator out of the timed benchmark binary. The count is deterministic
# but for one allocation: the replay in benchmark/src/trace.rs keeps its
# held reservations in a std HashMap with a per-process random hasher,
# whose insert/remove churn leaves tombstones where the hash puts them,
# so the map resizes once more in some runs than in others (9.3420 in 17
# runs of 20, 9.3410 in 3). With a fixed hasher there it reads 9.3410 in
# 20 runs of 20; the ceiling stays 9.342 until the benchmark's next
# change fixes the hasher.
echo "==> allocation ceiling (trace --workload fleet_steady --smoke, count-allocs)"
ceiling="$(cat scripts/alloc_ceiling.txt)"
allocs="$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir benchmark/target/count-allocs --features count-allocs -- \
    trace --workload fleet_steady --smoke < /dev/null |
    awk '$1 == "qosneg.allocs_per_negotiation" { print $2 }')"
if ! awk -v got="$allocs" -v max="$ceiling" 'BEGIN { exit !(got != "" && got + 0 <= max + 0) }'; then
    echo "error: qosneg.allocs_per_negotiation is '$allocs', above the ceiling $ceiling"
    exit 1
fi
echo "qosneg.allocs_per_negotiation $allocs (ceiling $ceiling)"

# Heap ceiling (gating): tests/heap_peak.rs drives a seeded, contended,
# faulted fleet with every channel on (recorder, tracer, explain, an
# in-memory journal, SLO windows, the full outcome log) under an allocator
# that tracks live bytes, and prints their high-water mark. The number is
# deterministic, so bytes a change gives back to an observed drive fail
# here; lower scripts/heap_ceiling.txt when a change saves bytes.
echo "==> heap ceiling (cargo test --test heap_peak vs scripts/heap_ceiling.txt)"
heap_ceiling="$(cat scripts/heap_ceiling.txt)"
heap_peak="$(cargo test -q --test heap_peak -- --nocapture 2> /dev/null |
    awk '$1 == "heap.peak_bytes" { print $2 }')"
if [ -z "$heap_peak" ] || [ "$heap_peak" -gt "$heap_ceiling" ]; then
    echo "error: heap.peak_bytes is '$heap_peak', above the ceiling $heap_ceiling"
    exit 1
fi
echo "heap.peak_bytes $heap_peak (ceiling $heap_ceiling)"

# Line ceiling (gating): like the allocation ceiling, the workspace's
# non-test line count may not grow past scripts/loc_ceiling.txt, so
# deleted code cannot drift back unnoticed; a change that must grow the
# code raises the ceiling in the same diff, visibly. Lower it when a
# change deletes code.
echo "==> line budget and ceiling (scripts/loc_budget.sh vs scripts/loc_ceiling.txt)"
loc_report="$(scripts/loc_budget.sh)"
echo "$loc_report"
loc_ceiling="$(cat scripts/loc_ceiling.txt)"
loc_src="$(awk '$1 == "workspace" { print $2 }' <<< "$loc_report")"
if [ -z "$loc_src" ] || [ "$loc_src" -gt "$loc_ceiling" ]; then
    echo "error: workspace non-test lines are '$loc_src', above the ceiling $loc_ceiling"
    exit 1
fi
echo "workspace non-test lines $loc_src (ceiling $loc_ceiling)"

echo "All checks passed."
