#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload serve_steady --seed 17 \
        --seconds 10 --trace 0

builds build-bench/ in Release if needed, runs that workload in its own
process, saves the full result under build-bench/results/ and prints, as
the last line of stdout, {"correct", "attempted", "failed", "metrics"}
with exactly the BENCHMARK.json section the run reports (end_to_end when
--trace 0, per_layer when --trace 1). Exits non-zero when the build fails,
a correctness check fails, or the metrics disagree with BENCHMARK.json.

Every workload, measured and traced, for one or more seeds:

    python3 bench/e2e/run.py --seeds 17,17 --out build-bench/results/set.json

prints a table of every metric and writes the result set that compare.py
reads.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD, "hape_e2e")
# A workload process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build hape_e2e (both incremental); output goes to
    stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "hape_e2e", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def run_workload(workload, seed, seconds, trace):
    """Run one workload process; returns (exit code, full result or None)."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", stem + "-spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish within %d s" % (workload,
                                                       RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("run.py: %s printed no result (exit %d)" % (workload,
                                                       proc.returncode))
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    return proc.returncode, result


def check_section(result, section):
    """The result's metrics must be exactly `section`, with its units."""
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        log("run.py: metrics disagree with BENCHMARK.json: missing %s, "
            "unlisted %s, unit mismatch %s" % (missing, extra, units))
        return False
    return True


def result_line(result):
    return json.dumps({k: result[k]
                       for k in ("correct", "attempted", "failed", "metrics")})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--seeds", help="comma-separated seeds (all-workload "
                    "mode; repeats allowed)")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(RESULTS, "set.json"))
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    sections = {0: bench["end_to_end"], 1: bench["per_layer"]}
    if not build():
        return 1

    if args.workload:
        code, result = run_workload(args.workload, args.seed, seconds,
                                    args.trace)
        if result is None or not check_section(result, sections[args.trace]):
            return code or 1
        print(result_line(result))
        return code

    seeds = [int(s) for s in (args.seeds or str(args.seed)).split(",")]
    runs = []
    status = 0
    for seed in seeds:
        for w in bench["workloads"]:
            for trace in (0, 1):
                start = time.time()
                code, result = run_workload(w["name"], seed, seconds, trace)
                if result is None or not check_section(result,
                                                       sections[trace]):
                    return code or 1
                status = status or code
                log("run.py: %s seed %d trace %d: %s in %.0f s" % (
                    w["name"], seed, trace,
                    "correct" if result["correct"] else "INCORRECT",
                    time.time() - start))
                runs.append({"workload": w["name"], "seed": seed,
                             "trace": trace, "result": result})
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")
    for run in runs:
        print("== %s seed %d %s" % (run["workload"], run["seed"],
                                   "traced" if run["trace"] else "measured"))
        for name, m in sorted(run["result"]["metrics"].items()):
            print("  %-30s %20.6g %s" % (name, m["value"], m["unit"]))
    print("wrote " + args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
