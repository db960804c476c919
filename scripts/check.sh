#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, full test suite.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Rustdoc (gating): intra-doc links to items a refactor removed rot
# silently otherwise.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Conformance oracle (gating): replay seeded scenarios through the
# paper-literal reference negotiator and every optimized execution path
# (session / manager / broker). Any divergence prints a
# shrunk, ready-to-paste repro test and fails the gate. Deterministic in
# the seed; raise NOD_ORACLE_CASES locally for a deeper sweep.
# --explain-check additionally replays each scenario with explanations on
# and asserts the decision log cites exactly the refusal kinds, score
# decomposition and pruning victims the reference observed, and that the
# explained outcome equals the plain one field by field.
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

# Non-gating bench smoke: the fast-mode snapshot only has to *run* (panics
# and build errors fail the check); the numbers themselves are not gated.
# Includes the B11 telemetry smoke, whose tail-retention asserts gate
# even in fast mode (only the overhead ratio is full-mode), and the B12
# sweep, which asserts zero leaked streams at every scale.
# The snapshot goes to a temp file: only a full-mode run may rewrite the
# committed BENCH_negotiation.json (the last gate below checks it).
echo "==> bench smoke (NOD_BENCH_FAST=1 scripts/bench_snapshot.sh <tmp>)"
smoke_tmp="$(mktemp -d)"
trap 'rm -rf "$smoke_tmp"' EXIT
NOD_BENCH_FAST=1 scripts/bench_snapshot.sh "$smoke_tmp/bench_smoke.json"

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
# log is the byte-identical suffix with zero leaked streams.
echo "==> kill-and-recover smoke (run_contended --journal --kill-at-event / --recover)"
recover_flags=(--sessions 64 --servers 1 --seed 9 --faults 3 --choice-period 300
    --journal "$smoke_tmp/run.nodj")
set +e
cargo run -q --release -p nod-bench --bin run_contended -- \
    "${recover_flags[@]}" --kill-at-event 40 > /dev/null
kill_status=$?
set -e
if [ "$kill_status" -ne 86 ]; then
    echo "error: --kill-at-event exited with $kill_status, expected the chaos exit code 86"
    exit 1
fi
test -s "$smoke_tmp/run.nodj"
recover_out="$(cargo run -q --release -p nod-bench --bin run_contended -- \
    "${recover_flags[@]}" --recover)"
grep -q "recovery verified" <<< "$recover_out"

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
# workload's seed-12 story unchanged. Minimum-length runs (~15 s in all)
# print the same digest as a 25 s one; scripts/benchmark_digests.txt holds
# the expected `<workload> <digest>` pairs.
echo "==> benchmark digests (seed 12 vs scripts/benchmark_digests.txt)"
while read -r workload expected; do
    got="$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --seed 12 --seconds 0 --trace 0 < /dev/null |
        sed -n 's/^row .*"outcome_digest":"\([^"]*\)".*/\1/p')"
    if [ "$got" != "$expected" ]; then
        echo "error: $workload outcome_digest is '$got', expected $expected"
        exit 1
    fi
    echo "$workload $got"
done < scripts/benchmark_digests.txt

# Allocation ceiling (gating): the count-allocs build of the benchmark
# counts heap allocations per negotiation over a smoke-size replay. The
# count is deterministic, so growth past scripts/alloc_ceiling.txt — a
# table that starts reallocating, a clone on the hot path — fails here;
# lower the ceiling when a change saves allocations. Its own target dir
# keeps the counting allocator out of the timed benchmark binary.
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

echo "==> line budget (scripts/loc_budget.sh)"
scripts/loc_budget.sh

# Nothing above may have touched the committed bench snapshot.
echo "==> tree clean (git diff --quiet -- BENCH_negotiation.json)"
git diff --quiet -- BENCH_negotiation.json

echo "All checks passed."
