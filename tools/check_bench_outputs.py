#!/usr/bin/env python3
"""Check the documents the simulated bench programs write.

One function per artifact holds the claims made on it:
BENCH_optimizer.json, BENCH_async.json, BENCH_sched.json, BENCH_serve.json
and TRACE_serve.json (the last two are bench_serve's). Every number in them
is simulated, so the claims are exact and hold on any machine.

Usage: check_bench_outputs.py optimizer|async|sched|serve <program>

Runs <program> in the working directory, then checks the files it wrote
there.
"""

import json
import math
import subprocess
import sys


def check_optimizer(doc):
    results = doc["results"]
    assert results, "empty ablation"
    # Compatibility invariant: every finishing cell must be exact.
    for r in results:
        assert r["hand_dnf"] == r["optimized_dnf"], r
        if not r["hand_dnf"]:
            assert abs(r["optimized_over_hand"] - 1.0) < 1e-12, r
    print(f"{len(results)} cells, optimizer/hand ratio exact")


def check_async(doc):
    results = doc["results"]
    assert results, "empty ablation"
    sync = {}
    for r in results:
        key = (r["query"], r["config"])
        if r["depth"] == 0 and not r["dnf"]:
            # Exact-compat invariant: depth 0 == the plain sync run.
            assert r["seconds"] == r["plain_sync_seconds"], r
            sync[key] = r["seconds"]
    wins = 0
    for r in results:
        if r["depth"] < 1 or r["dnf"]:
            continue
        key = (r["query"], r["config"])
        # Acceptance invariant: transfer-bound hybrid joins strictly
        # faster at every async depth.
        if r["config"] == "Proteus Hybrid" and r["query"] in ("Q5", "Q9*"):
            assert key in sync, f"missing depth-0 baseline for {key}"
            assert r["seconds"] < sync[key], r
            wins += 1
    assert wins >= 6, f"expected 6 hybrid Q5/Q9 async wins, got {wins}"
    print(f"{len(results)} cells; depth-0 exact; {wins} hybrid wins")


def check_sched(doc):
    results = doc["results"]
    assert results, "empty schedule bench"
    mix = {r["depth"]: r for r in results if r["scenario"] == "mix"}
    assert 1 in mix and 2 in mix, "missing mix depths"
    for r in mix.values():
        # FIFO is run-to-completion on a per-query-reset topology: it must
        # reproduce the back-to-back serial sum exactly.
        assert r["fifo_makespan_s"] == r["serial_sum_s"], r
    # The acceptance invariant: the concurrent hybrid Q3+Q5+Q9* makespan is
    # strictly below the back-to-back serial sum. The margin is widest at
    # depth 1 (~7%), where staging leaves per-packet transfer waits exposed
    # for other queries to fill.
    for r in (mix[1], mix[2]):
        assert r["fair_makespan_s"] < r["serial_sum_s"], r
    r1 = mix[1]
    contended = [r for r in results if r["scenario"] == "contended"]
    assert contended, "missing contended scenario"
    delays = [q["queueing_delay_s"] for q in contended[0]["queries"]]
    assert delays[0] == 0.0 and delays[1] > 0.0, delays
    win = 1.0 - r1["fair_makespan_s"] / r1["serial_sum_s"]
    print(f"fair-share depth-1 win {win:.1%}; fifo exact; "
          f"contended queueing delay {delays[1]:.4f}s")


def check_serve(doc):
    # Every query of the trace must reach exactly one terminal state:
    # completed, or shed/aborted on its tier-weighted deadline under
    # serve.shed_on_deadline degradation.
    assert doc["terminal"] == doc["num_queries"] == 1000, doc
    assert doc["completed"] + doc["cancelled"] \
        + doc["deadline_exceeded"] == 1000, doc
    assert doc["shed"] <= doc["cancelled"] + doc["deadline_exceeded"]
    # The deadline knobs are tuned so both degradation paths actually
    # appear in the replay.
    assert doc["shed"] > 0, doc
    assert doc["deadline_exceeded"] > doc["shed"], doc
    # Replaying the same seed + arrival trace must reproduce the schedule
    # bit-identically, per-tier percentiles included. The second replay
    # records a full run trace while the first does not, so this also
    # proves tracing never perturbs the schedule.
    assert doc["deterministic_replay"], doc
    # Two traced replays must dump byte-identical traces.
    assert doc["deterministic_trace"], doc
    assert doc["trace_events"] > 0, doc
    # The engine metrics snapshot rides along and reconciles with the
    # schedule's terminal counts.
    counters = doc["metrics"]["counters"]
    assert counters["scheduler.queries"] == 1000
    assert counters.get("scheduler.shed", 0) == doc["shed"]
    assert counters.get("scheduler.deadline_exceeded", 0) == \
        doc["deadline_exceeded"]
    assert counters["plan_cache.hits"] == doc["cache"]["hits"]
    # Repeated statements must actually hit the plan cache.
    assert doc["cache"]["hit_rate"] > 0, doc["cache"]
    tiers = {t["tier"]: t for t in doc["tiered"]["tiers"]}
    assert sum(t["queries"] for t in tiers.values()) == 1000
    for t in tiers.values():
        assert t["queries"] == t["completed"] + t["cancelled"] \
            + t["deadline_exceeded"], t
    base = doc["untiered"]["tiers"][0]
    assert base["queries"] == 1000, base
    # The tiering claim: the high-SLA tier's p95 queueing delay lands
    # strictly below the untiered baseline (same arrivals, same plans,
    # every query forced to tier 0).
    assert tiers[0]["queue_p95_s"] < base["queue_p95_s"], (tiers[0], base)
    # The degradation claim: tiering + deadline shedding never makes the
    # high-SLA tier's deadline-miss rate worse than the untiered baseline's
    # over the same tier-0 population.
    dm = doc["deadline_miss"]
    assert dm["tier0_queries"] > 0, dm
    assert dm["tier0_rate_tiered"] <= dm["tier0_rate_untiered"], dm
    print(f"1000 queries; tier-0 queue p95 "
          f"{tiers[0]['queue_p95_s']:.3f}s vs untiered "
          f"{base['queue_p95_s']:.3f}s; {doc['shed']} shed, "
          f"{doc['deadline_exceeded']} deadline-exceeded; tier-0 "
          f"miss rate {dm['tier0_rate_tiered']:.4f} vs untiered "
          f"{dm['tier0_rate_untiered']:.4f}; cache hit rate "
          f"{doc['cache']['hit_rate']:.3f}")


def check_trace(doc, bench):
    """TRACE_serve.json against the schedule in BENCH_serve.json."""
    events = doc["traceEvents"]
    assert events, "empty trace"
    # Timestamps must be monotone across the whole document.
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts), "non-monotone trace timestamps"
    # Per-query lifecycle grammar: exactly one arrival and exactly one
    # terminal event (complete | cancel) per query. An admit is optional —
    # a query with no admit was shed at an admission decision point and its
    # terminal must be a cancel. Cancel instants carry the outcome in
    # args.detail.
    life = {}
    for e in events:
        if e["ph"] != "M" and e["name"] in ("arrival", "admit", "complete",
                                            "cancel"):
            q = e["args"]["query"]
            slot = life.setdefault(q, {})
            assert e["name"] not in slot, (q, e["name"])
            slot[e["name"]] = e
    assert len(life) == 1000, f"{len(life)} queries in trace"
    shed = aborted = completed = 0
    for q, slot in life.items():
        assert "arrival" in slot, q
        assert ("complete" in slot) != ("cancel" in slot), (q, slot)
        term = slot.get("complete") or slot.get("cancel")
        if "cancel" in slot:
            assert slot["cancel"]["args"]["detail"] in \
                ("cancelled", "deadline_exceeded"), (q, slot)
        if "admit" in slot:
            a, ad = slot["arrival"]["ts"], slot["admit"]["ts"]
            assert a <= ad <= term["ts"], (q, a, ad, term["ts"])
            if "cancel" in slot:
                aborted += 1
            else:
                completed += 1
        else:
            # Shed before ever touching the substrate: terminal is a cancel
            # at (or after) arrival.
            assert "cancel" in slot, (q, slot)
            assert slot["arrival"]["ts"] <= term["ts"], (q, slot)
            shed += 1
    assert completed == bench["completed"], (completed, bench)
    assert shed == bench["shed"], (shed, bench)
    assert shed + aborted == bench["cancelled"] \
        + bench["deadline_exceeded"], (shed, aborted, bench)
    # The trace must reconcile with the schedule: per-tier queueing p95
    # recomputed from the trace's (admit - arrival) instants of *completed*
    # queries matches BENCH_serve.json's tier table — percentiles sample
    # completed queries only (nearest-rank, trace ts in microseconds).
    by_tier = {}
    for slot in life.values():
        if "admit" not in slot or "complete" not in slot:
            continue
        tier = slot["admit"]["args"]["tier"]
        delay = (slot["admit"]["ts"] - slot["arrival"]["ts"]) / 1e6
        by_tier.setdefault(tier, []).append(delay)
    for t in bench["tiered"]["tiers"]:
        delays = sorted(by_tier.get(t["tier"], []))
        assert len(delays) == t["completed"], t
        rank = max(1, math.ceil(0.95 * len(delays)))
        p95 = delays[rank - 1]
        assert math.isclose(p95, t["queue_p95_s"],
                            rel_tol=1e-9, abs_tol=1e-9), \
            (t["tier"], p95, t["queue_p95_s"])
    print(f"{len(events)} events; lifecycle grammar holds for 1000 "
          f"queries ({completed} completed, {shed} shed, {aborted} "
          f"aborted); per-tier queue p95 reconciles with the schedule")


def load(name):
    with open(name) as f:
        return json.load(f)


def main() -> int:
    if len(sys.argv) != 3 or \
            sys.argv[1] not in ("optimizer", "async", "sched", "serve"):
        print(f"usage: {sys.argv[0]} optimizer|async|sched|serve <program>",
              file=sys.stderr)
        return 2
    if not __debug__:
        print("the checks are assert statements: run without -O",
              file=sys.stderr)
        return 2
    bench, program = sys.argv[1:]
    subprocess.run([program], check=True)
    doc = load(f"BENCH_{bench}.json")
    if bench == "optimizer":
        check_optimizer(doc)
    elif bench == "async":
        check_async(doc)
    elif bench == "sched":
        check_sched(doc)
    else:
        check_serve(doc)
        check_trace(load("TRACE_serve.json"), doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
