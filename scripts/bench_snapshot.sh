#!/usr/bin/env bash
# Snapshot the negotiation-path microbenches into BENCH_negotiation.json
# (or into the file named by the optional first argument — fast-mode smokes
# pass one so they never touch the committed snapshot).
#
# usage: scripts/bench_snapshot.sh [out.json]
#
# Runs the B4/B8 negotiation bench, the B1/B2 classification bench, the
# B9 contended-broker bench, the B10 trace bench, the B11 fleet-telemetry
# bench, the B12 city-scale fleet sweep, the B13 decision-provenance
# bench and the B14 write-ahead-journal bench with NOD_BENCH_JSON_OUT set,
# then merges the dumps into a single JSON file. Honors NOD_BENCH_FAST=1
# for a quick smoke run (CI); leave it unset for publication-quality
# numbers.
set -euo pipefail
out="$(realpath -m "${1:-$(dirname "$0")/../BENCH_negotiation.json}")"
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "==> bench: negotiation (NOD_BENCH_FAST=${NOD_BENCH_FAST:-unset})"
NOD_BENCH_JSON_OUT="$tmpdir/negotiation.json" \
    cargo bench -q -p nod-bench --bench negotiation 2>&1 | tail -n +1

echo "==> bench: classification"
NOD_BENCH_JSON_OUT="$tmpdir/classification.json" \
    cargo bench -q -p nod-bench --bench classification 2>&1 | tail -n +1

echo "==> bench: broker (B9 contended broker)"
NOD_BENCH_JSON_OUT="$tmpdir/broker.json" \
    cargo bench -q -p nod-bench --bench broker 2>&1 | tail -n +1

echo "==> bench: trace (B10 tracing overhead; asserts the alloc-free disabled path)"
NOD_BENCH_JSON_OUT="$tmpdir/trace.json" \
    cargo bench -q -p nod-bench --bench trace 2>&1 | tail -n +1

# B11 gates in both modes: the tail sampler's retention ledger is
# asserted even under NOD_BENCH_FAST=1; the 10% overhead ratio is asserted
# only in full mode (smoke samples are too few to bound noise) but always
# lands in the JSON.
echo "==> bench: telemetry (B11 fleet telemetry: retention, overhead)"
NOD_BENCH_JSON_OUT="$tmpdir/telemetry.json" \
    cargo bench -q -p nod-bench --bench telemetry 2>&1 | tail -n +1

# B12 sweeps the metro fleet through Broker::drive — 1k/10k in fast mode,
# 1k/10k/100k/1M in full mode — reporting sessions/sec and peak RSS per
# scale. Zero leaked reservations gate at every scale.
echo "==> bench: fleet (B12 city-scale sweep: throughput, RSS)"
NOD_BENCH_JSON_OUT="$tmpdir/fleet.json" \
    cargo bench -q -p nod-bench --bench fleet 2>&1 | tail -n +1

# B13 gates in both modes: the counting global allocator asserts the
# explain-disabled hook path performs zero allocations and that the whole
# per-negotiation explain cost sits behind the gate, even under
# NOD_BENCH_FAST=1; the ≤10% overhead ratio on the 10k-session contended
# fleet is asserted only in full mode but always lands in the JSON.
echo "==> bench: explain (B13 decision-provenance: alloc-free disabled path, overhead)"
NOD_BENCH_JSON_OUT="$tmpdir/explain.json" \
    cargo bench -q -p nod-bench --bench explain 2>&1 | tail -n +1

# B14 gates in both modes: the counting global allocator asserts the
# journal-disabled hook path performs zero allocations and that the
# journaled outcome log is byte-identical to the plain run, even under
# NOD_BENCH_FAST=1; the ≤10% overhead ratio on the 10k-session contended
# fleet and the recovery-time-vs-crash-position sweep always land in the
# JSON (the ratio is asserted only in full mode).
echo "==> bench: journal (B14 write-ahead journal: alloc-free disabled path, overhead, recovery)"
NOD_BENCH_JSON_OUT="$tmpdir/journal.json" \
    cargo bench -q -p nod-bench --bench journal 2>&1 | tail -n +1

# Nightly-depth oracle sweep (non-gating here — check.sh gates the 256-case
# run): a wider seeded sweep whose counters (oracle.cases,
# oracle.divergences) ride along in the snapshot. Divergences don't fail
# the snapshot, they show up in the JSON for the dashboard to flag.
oracle_cases="${NOD_ORACLE_SWEEP_CASES:-2048}"
echo "==> oracle sweep ($oracle_cases cases, non-gating)"
cargo run -q --release -p nod-oracle --bin run_oracle -- \
    --cases "$oracle_cases" --seed 7 \
    --metrics-out "$tmpdir/oracle.json" || true

{
    echo '{'
    echo '  "negotiation":'
    sed 's/^/    /' "$tmpdir/negotiation.json"
    echo '  ,'
    echo '  "classification":'
    sed 's/^/    /' "$tmpdir/classification.json"
    echo '  ,'
    echo '  "broker":'
    sed 's/^/    /' "$tmpdir/broker.json"
    echo '  ,'
    echo '  "trace":'
    sed 's/^/    /' "$tmpdir/trace.json"
    echo '  ,'
    echo '  "telemetry":'
    sed 's/^/    /' "$tmpdir/telemetry.json"
    echo '  ,'
    echo '  "fleet":'
    sed 's/^/    /' "$tmpdir/fleet.json"
    echo '  ,'
    echo '  "explain":'
    sed 's/^/    /' "$tmpdir/explain.json"
    echo '  ,'
    echo '  "journal":'
    sed 's/^/    /' "$tmpdir/journal.json"
    echo '  ,'
    echo '  "oracle":'
    sed 's/^/    /' "$tmpdir/oracle.json"
    echo '}'
} > "$out"

echo "wrote $out"
