#!/usr/bin/env python3
"""Run the benchmark the way the driver does and report what it would see.

From the repo root:

    python3 benchmark/contract_check.py [--runs 10] [--workload W ...] [--no-trace]

Reads BENCHMARK.json, checks it against the contract's limits, then for
each workload runs `<command> --workload W --seed n --seconds run_seconds
--trace 0` once per seed (n = 1..runs), checks the result line, and prints
for every end-to-end metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median, against the metric's bound and a third of it.
One `--trace 1` run per workload checks the per-layer result line. Exits
non-zero when a check fails or a spread exceeds its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_manifest(m):
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, set(m)
    assert 1 <= len(m["paths"]) <= 16 and all(PATH.match(p) and not p.startswith("/") and ".." not in p for p in m["paths"])
    assert 1 <= len(m["command"]) <= 32 and all(len(c) <= 200 and not c.startswith("/") and ".." not in c for c in m["command"])
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert 2 <= len(m["workloads"]) <= 8
    for w in m["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"], w
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    for e in m["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}, e
        assert 0 < e["bound"] <= 0.25, e
    for e in m["per_layer"]:
        assert set(e) == {"name", "unit", "better"}, e
    for e in m["end_to_end"] + m["per_layer"]:
        assert NAME.match(e["name"]) and UNIT.match(e["unit"]) and e["better"] in ("lower", "higher"), e
    names = [x["name"] for x in m["workloads"] + m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    runs = 4 + 22 * len(m["workloads"])
    print(f"manifest ok: {len(m['workloads'])} workloads, {runs} driver runs of {m['run_seconds']} s")


def run(m, workload, seed, trace):
    cmd = m["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(m["run_seconds"]), "--trace", str(trace)]
    t = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    wall = time.time() - t
    assert out.returncode == 0, f"{' '.join(cmd)} exited {out.returncode}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"], list(result)
    assert result["correct"] is True and isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0, result["failed"]
    defs = m["per_layer"] if trace else m["end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in defs], "metrics differ from the manifest"
    for d in defs:
        v = result["metrics"][d["name"]]
        assert set(v) == {"value", "unit"} and v["unit"] == d["unit"] and isinstance(v["value"], (int, float)), (d, v)
        if not trace:
            assert v["value"] != 0, d["name"]
    return result, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()
    m = json.load(open("BENCHMARK.json"))
    check_manifest(m)
    bad = []
    walls = []
    for w in m["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        values = {e["name"]: [] for e in m["end_to_end"]}
        for seed in range(1, args.runs + 1):
            result, wall = run(m, name, seed, 0)
            walls.append(wall)
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
        print(f"\n{name}  ({args.runs} seeds, longest run {max(walls[-args.runs:]):.1f} s)")
        for e in m["end_to_end"]:
            vs = values[e["name"]]
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            flag = ""
            if e["name"] != "setup_s" and spread > e["bound"]:
                flag = "  OVER BOUND"
                bad.append((name, e["name"], spread))
            elif spread > e["bound"] / 3:
                flag = "  over a third"
            print(f"  {e['name']:<20} median {med:>14.4f} {e['unit']:<6} spread {100*spread:6.2f}%  bound {100*e['bound']:.0f}%{flag}")
        if not args.no_trace:
            _, wall = run(m, name, 1, 1)
            walls.append(wall)
            print(f"  --trace 1 ok in {wall:.1f} s")
    runs = 4 + 22 * len(m["workloads"])
    print(f"\nmean run {statistics.mean(walls):.1f} s -> about {runs * statistics.mean(walls):.0f} s for the driver's {runs} runs (cap 3420 s with two builds)")
    if bad:
        print("spreads over their bound:", bad)
        sys.exit(1)


if __name__ == "__main__":
    main()
