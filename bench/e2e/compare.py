#!/usr/bin/env python3
"""Compare end-to-end benchmark result sets (written by run.py).

    python3 bench/e2e/compare.py BASE.json [CANDIDATE.json ...] [--per-layer]

For every workload and end-to-end metric, prints each set's median and
quartiles over its runs and the spread (quartile distance over median).
With one set, flags metrics whose spread exceeds their BENCHMARK.json
bound. With candidates, each is compared against BASE:

  regressed   the candidate's median is worse than BASE's by more than
              the metric's bound
  unresolved  a side's run-to-run spread exceeds the bound, so the
              medians cannot settle it (unless every candidate run is
              better than every BASE run: improved)
  improved    better by more than the bound
  identical   every run of both sets reads the same (simulated metrics)
  ok          within the bound

--per-layer adds the per-layer metrics of the traced runs (medians and
change only: they carry no bound). Exits 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_set(path):
    """{(workload, trace): {metric: [values in run order]}}."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    out = {}
    for run in runs:
        per = out.setdefault((run["workload"], run["trace"]), {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    """(median, q1, q3, spread) of a list of run values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def worse_by(base, cand, better):
    """Signed relative change of cand against base; positive is worse."""
    if base == 0:
        return 0.0 if cand == 0 else float("inf")
    change = (cand - base) / abs(base)
    return change if better == "lower" else -change


def change(base_vals, cand_vals):
    """Relative change of the candidate's median against BASE's."""
    bmed, cmed = summary(base_vals)[0], summary(cand_vals)[0]
    return (cmed - bmed) / abs(bmed) if bmed else 0.0


def status(base_vals, cand_vals, metric):
    bound, better = metric["bound"], metric["better"]
    if len(set(base_vals) | set(cand_vals)) == 1:
        return "identical"
    bmed, _, _, bspread = summary(base_vals)
    cmed, _, _, cspread = summary(cand_vals)
    all_better = all(worse_by(b, c, better) < 0
                     for b in base_vals for c in cand_vals)
    if max(bspread, cspread) > bound:
        return "improved" if all_better else "unresolved"
    worse = worse_by(bmed, cmed, better)
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "ok"


def fmt(values):
    med, q1, q3, spread = summary(values)
    return "%12.6g [%10.6g, %10.6g] %6.1f%%" % (med, q1, q3, 100 * spread)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("candidates", nargs="*")
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base = load_set(args.base)
    cands = [(path, load_set(path)) for path in args.candidates]
    regressed = False

    print("%-14s %-28s %-8s %-44s" % ("workload", "metric", "unit",
                                      "median [q1, q3] spread") +
          "".join("  %-44s %8s %-10s" % ("candidate", "change", "status")
                  for _ in cands))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            vals = base.get((w["name"], 0), {}).get(m["name"])
            if not vals:
                continue
            row = "%-14s %-28s %-8s %-44s" % (w["name"], m["name"], m["unit"],
                                              fmt(vals))
            if not cands and summary(vals)[3] > m["bound"] and \
                    m["name"] != "setup_s":
                row += "  spread exceeds bound %.2f" % m["bound"]
            for _, cand in cands:
                cvals = cand.get((w["name"], 0), {}).get(m["name"])
                if not cvals:
                    row += "  %-44s %8s %-10s" % ("-", "", "missing")
                    continue
                st = status(vals, cvals, m)
                regressed |= st == "regressed"
                row += "  %-44s %+7.1f%% %-10s" % (
                    fmt(cvals), 100 * change(vals, cvals), st)
            print(row)
        if not args.per_layer:
            continue
        for m in bench["per_layer"]:
            vals = base.get((w["name"], 1), {}).get(m["name"])
            if not vals:
                continue
            row = "%-14s %-28s %-8s %-44s" % (w["name"], m["name"], m["unit"],
                                              fmt(vals))
            for _, cand in cands:
                cvals = cand.get((w["name"], 1), {}).get(m["name"])
                if cvals:
                    row += "  %-44s %+7.1f%%" % (fmt(cvals),
                                                100 * change(vals, cvals))
                else:
                    row += "  %-44s %8s %-10s" % ("-", "", "missing")
            print(row)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
