#!/usr/bin/env bash
# A/A: run the full set twice on the same commit and print, per metric x
# workload, the relative difference of the medians against the bound.
# Digests and exact metrics must match bit for bit. The first set also
# makes one traced run per workload; both land in BASELINE.json.
#
#   benchmark/aa.sh            # seed 12, 3 repeats of 25 s: about 15 minutes
#   SEED=7 REPEATS=5 benchmark/aa.sh
set -euo pipefail
cd "$(dirname "$0")/.."
run=(cargo run --release --quiet --manifest-path benchmark/Cargo.toml --)
seed="${SEED:-12}"
repeats="${REPEATS:-3}"
mkdir -p benchmark/out
"${run[@]}" run --seed "$seed" --repeats "$repeats" --with-trace --out benchmark/out/aa-a.json
"${run[@]}" run --seed "$seed" --repeats "$repeats" --out benchmark/out/aa-b.json
"${run[@]}" compare benchmark/out/aa-a.json benchmark/out/aa-b.json --record benchmark/BASELINE.json
