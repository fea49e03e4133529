#!/usr/bin/env python3
"""Compares pebblejoin_bench result files of a parent and a change.

    compare.py --parent P1.json ... --change C1.json ... [--benchmark FILE]
    compare.py --spread R1.json ...
    compare.py --self-test

Result files are what `pebblejoin_bench --out FILE` writes. Runs pair up
in start order (k-th parent with k-th change); which side ran first must
alternate from pair to pair. For every (workload, end-to-end metric) the
verdict follows the rules of the benchmark:

  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the metric's bound, and not every change
              run beats every parent run;
  regressed   the change's median is worse than the parent's by more
              than the bound in BENCHMARK.json;
  improved    at least 10 alternating pairs, the change wins at least 9
              in 10 of them (ties count for neither side), and the medians
              differ by more than the parent's quartile distance;
  unchanged   otherwise.

A workload is `invalid` when a run on either side answered incorrectly or
was marked invalid (its layer-sum residual or generator lag broke a gate).
Per-layer metrics have no bound; their medians are listed for the trace.
--spread reports the run-to-run spread of one commit's runs and whether
each stays under a third of its bound. Exit code 1 on any regressed or
invalid verdict (or a spread above its bound), else 0. Standard library
only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, bound, direction, alternating):
    """Verdict for one metric from paired runs (parent[k] with change[k])."""
    pm = statistics.median(parent)
    cm = statistics.median(change)
    worse_by = (cm - pm) if direction == "lower" else (pm - cm)
    worse_share = worse_by / abs(pm) if pm else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if worse_share > bound:
        return "regressed"
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    q1, q3 = quartiles(parent)
    if (len(parent) >= MIN_PAIRS and alternating and
            wins >= WIN_SHARE * len(parent) and
            better(cm, pm, direction) and abs(cm - pm) > q3 - q1):
        return "improved"
    return "unchanged"


def alternates(parent_runs, change_runs):
    firsts = [p["started_unix"] <= c["started_unix"]
              for p, c in zip(parent_runs, change_runs)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def values(runs, workload, metric):
    return [r["workloads"][workload]["metrics"][metric]["value"] for r in runs
            if metric in r["workloads"].get(workload, {}).get("metrics", {})]


def compare(spec, parent_runs, change_runs):
    """Rows (workload, metric, parent median, change median, verdict)."""
    parent_runs = sorted(parent_runs, key=lambda r: r["started_unix"])
    change_runs = sorted(change_runs, key=lambda r: r["started_unix"])
    pairs = min(len(parent_runs), len(change_runs))
    parent_runs, change_runs = parent_runs[:pairs], change_runs[:pairs]
    alternating = alternates(parent_runs, change_runs)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        invalid = not all(
            r["workloads"].get(workload, {}).get("correct", False) and
            r["workloads"][workload].get("valid", True)
            for r in parent_runs + change_runs)
        for m in spec["end_to_end"] + spec["per_layer"]:
            p = values(parent_runs, workload, m["name"])
            c = values(change_runs, workload, m["name"])
            if len(p) != pairs or len(c) != pairs or pairs == 0:
                continue
            if "bound" not in m:
                result = "layer"
            elif invalid:
                result = "invalid"
            else:
                result = verdict(p, c, m["bound"], m["better"], alternating)
            rows.append((workload, m["name"], statistics.median(p),
                         statistics.median(c), result))
    return rows, pairs, alternating


def spreads(spec, runs):
    """Returns rows (workload, metric, median, spread, bound, status)."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            v = values(runs, workload, m["name"])
            if not v:
                continue
            s = spread(v)
            status = ("noisy" if s > m["bound"] else
                      "ok" if s < m["bound"] / 3 else "marginal")
            rows.append((workload, m["name"], statistics.median(v), s,
                         m["bound"], status))
    return rows


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


# --- self-test ---------------------------------------------------------------

def _fixture(seed_values, start):
    """Synthetic result files: one workload "w", metrics "lat" and "rate"."""
    runs = []
    for k, (lat, rate) in enumerate(seed_values):
        runs.append({"started_unix": start + 2 * k, "workloads": {"w": {
            "correct": True, "attempted": 10, "failed": 0, "metrics": {
                "lat": {"value": lat, "unit": "us"},
                "rate": {"value": rate, "unit": "1/s"},
                "layer.x": {"value": 1.0, "unit": "us"}}}}})
    return runs


def self_test():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "lat", "better": "lower", "bound": 0.1},
                {"name": "rate", "better": "higher", "bound": 0.1}],
            "per_layer": [{"name": "layer.x", "better": "lower"}]}
    steady = [(100 + (k % 3), 1000 + (k % 3)) for k in range(10)]

    def run(parent_vals, change_vals, parent_start=0, change_start=1):
        parent = _fixture(parent_vals, parent_start)
        change = _fixture(change_vals, change_start)
        # Alternate which side ran first: swap start times on odd pairs.
        for k in range(1, len(parent), 2):
            parent[k]["started_unix"], change[k]["started_unix"] = (
                change[k]["started_unix"], parent[k]["started_unix"])
        rows, _, alternating = compare(spec, parent, change)
        return {r[1]: r[4] for r in rows}, alternating

    got, alternating = run(steady, steady)
    assert alternating
    assert got == {"lat": "unchanged", "rate": "unchanged",
                   "layer.x": "layer"}, got

    faster = [(90 + (k % 3), 1100 + (k % 3)) for k in range(10)]
    got, _ = run(steady, faster)
    assert got["lat"] == "improved" and got["rate"] == "improved", got

    slower = [(120 + (k % 3), 850 + (k % 3)) for k in range(10)]
    got, _ = run(steady, slower)
    assert got["lat"] == "regressed" and got["rate"] == "regressed", got

    noisy = [(60 + 10 * k, 1000) for k in range(10)]
    got, _ = run(noisy, noisy)
    assert got["lat"] == "unresolved" and got["rate"] == "unchanged", got

    # A gain needs alternating sides: the same data run parent-first
    # every time claims nothing.
    parent = _fixture(steady, 0)
    change = _fixture(faster, 1)
    rows, _, alternating = compare(spec, parent, change)
    assert not alternating
    assert {r[1]: r[4] for r in rows}["lat"] == "unchanged"

    # Nine pairs are too few for a gain.
    got, _ = run(steady[:9], faster[:9])
    assert got["lat"] == "unchanged", got

    # An incorrect or invalidly timed run invalidates its workload.
    for key, side in (("correct", 1), ("valid", 0)):
        runs = (_fixture(steady, 0), _fixture(steady, 1))
        runs[side][3]["workloads"]["w"][key] = False
        rows, _, _ = compare(spec, *runs)
        assert {r[1]: r[4] for r in rows}["lat"] == "invalid", key

    rows = spreads(spec, _fixture(steady, 0))
    assert all(r[5] == "ok" for r in rows), rows
    assert spreads(spec, _fixture(noisy, 0))[0][5] == "noisy"
    print("self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    parser.add_argument("--parent", nargs="+")
    parser.add_argument("--change", nargs="+")
    parser.add_argument("--spread", nargs="+", metavar="RESULT")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    spec = json.loads(Path(args.benchmark).read_text())
    if args.spread:
        rows = spreads(spec, load(args.spread))
        print("%-20s %-14s %14s %8s %6s  %s" % (
            "workload", "metric", "median", "spread", "bound", "status"))
        for w, m, median, s, bound, status in rows:
            print("%-20s %-14s %14.6g %8.4f %6.3f  %s" % (
                w, m, median, s, bound, status))
        return 1 if any(r[5] == "noisy" for r in rows) else 0
    if not args.parent or not args.change:
        parser.error("give --parent and --change result files, "
                     "--spread, or --self-test")
    rows, pairs, alternating = compare(spec, load(args.parent),
                                       load(args.change))
    print("%d pairs, %s" % (pairs, "sides alternate" if alternating else
                            "sides do NOT alternate: no gain can be claimed"))
    print("%-20s %-40s %14s %14s  %s" % (
        "workload", "metric", "parent", "change", "verdict"))
    for w, m, p, c, result in rows:
        print("%-20s %-40s %14.6g %14.6g  %s" % (w, m, p, c, result))
    return 1 if any(r[4] in ("regressed", "invalid") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
