#!/usr/bin/env python3
"""The end-to-end benchmark's simulated gate.

Runs the end-to-end benchmark once per workload,

    python3 bench/e2e/run.py --workload W --seed 17 --trace 0 --seconds 1

and checks each run: it is correct, no operation failed, and its simulated
metrics (sim_latency_p95_s, deadline_met_rate) equal the workload's
seed-17 trace-0 runs in bench/e2e/results/baseline.json exactly. The
simulated clock is deterministic per seed, so the equality holds on any
machine. Host metrics (throughput, Submit latency, RSS, set-up time) drift
with the machine: they are printed, not gated.

Usage: check_e2e_gate.py

Reads only bench/e2e/. The first run builds build-bench/ in Release
(~1 min); the four workloads then take ~71 s on 4 vCPUs.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "bench", "e2e")
WORKLOADS = ("serve_steady", "serve_nocache", "serve_long", "tpch_olap")
GATED = ("sim_latency_p95_s", "deadline_met_rate")


def baseline_metrics(workload):
    with open(os.path.join(E2E, "results", "baseline.json")) as f:
        runs = json.load(f)["runs"]
    return [r["result"]["metrics"] for r in runs
            if r["workload"] == workload and r["seed"] == 17
            and r["trace"] == 0]


def check(workload):
    print("== " + workload, flush=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--workload", workload,
         "--seed", "17", "--trace", "0", "--seconds", "1"],
        stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"run.py exited {proc.returncode}"
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    base = baseline_metrics(workload)
    assert base, f"baseline.json has no {workload} seed-17 trace-0 run"
    assert got["correct"] and got["failed"] == 0, got
    for name in GATED:
        want = {m[name]["value"] for m in base}
        assert len(want) == 1, (name, want)
        value = got["metrics"][name]["value"]
        assert value in want, (name, value, want)
    for name, m in sorted(got["metrics"].items()):
        gate = "gated" if name in GATED else "advisory"
        print(f"{name:20} {m['value']:>20.10g} {m['unit']:9} {gate}")


def main():
    for workload in WORKLOADS:
        check(workload)
    print("check_e2e_gate: every workload correct, 0 failed, simulated "
          "metrics equal baseline.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
