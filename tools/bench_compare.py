#!/usr/bin/env python3
"""Bench regression gate: diff fresh BENCH_*.json against a baseline set.

Both sides are the deliberately dumb bench_report.h schema ({"bench":NAME,
"tables":[{"id","headers","rows"}]}). Only *time* columns are compared —
headers ending in `_ms` or `_us` — because everything else in the tables
(pi values, winner names, validity flags) is deterministic and guarded by
the test suite, while wall clocks are what silently drifts. Lower is
better for every time column.

Rows are keyed by (table id, row index): the sweeps are deterministic, so
row N of a table describes the same configuration in both runs. A shape
mismatch (missing table, different headers, different row count) is
reported as a SHAPE note and the table skipped — that is a bench-harness
change, not a perf regression, and must be resolved by re-baselining.

A cell regresses when the fresh time exceeds the baseline by more than
the metric's threshold (default 25%) AND both sides are above the noise
floor (default 2 ms) — micro-timings jitter far beyond any useful
threshold. Per-metric overrides: tail latencies (`p95_ms`, `p99_ms`) get
40% because they are the noisiest thing the harness measures.

`--max-growth BENCH:TABLE:COLUMN:RATIO` is a within-run shape check on
the fresh files alone: in BENCH_<BENCH>.json, table TABLE, the COLUMN
cell of the last row divided by that of the first row must not exceed
RATIO. It guards a sweep whose per-unit cost must stay flat (E1's
us_per_edge, Theorem 4.1) against a superlinear regression that no
baseline diff would catch once the baseline itself is re-recorded.

Exit codes: 0 all compared cells within threshold and every growth check
within its ratio, 1 at least one regression or growth violation, 2 usage
or unreadable input (a growth check naming a missing file, table or
column included). `--self-test` runs the built-in fixtures (a synthetic
>25% wall-clock regression must exit 1; an identical pair must exit 0; a
flat sweep must pass its growth check and a steep one fail it) and exits
accordingly.

Usage:
  python3 tools/bench_compare.py --baseline DIR --fresh DIR [options]
  python3 tools/bench_compare.py --fresh DIR --max-growth B:T:C:R [...]
  python3 tools/bench_compare.py --self-test

Options:
  --threshold PCT        default threshold (default: 25)
  --override NAME=PCT    per-metric threshold override (repeatable)
  --noise-floor-ms MS    skip cells where both sides are below (default: 2)
  --max-growth B:T:C:R   last-row / first-row ceiling (repeatable)
"""

import argparse
import glob
import json
import math
import os
import sys

# Tail latencies jitter the most; everything else uses the default.
DEFAULT_OVERRIDES = {"p95_ms": 40.0, "p99_ms": 40.0}


def is_time_header(header):
    return header.endswith("_ms") or header.endswith("_us")


def to_ms(value, header):
    return value / 1000.0 if header.endswith("_us") else value


def parse_cell(cell):
    """A time cell must be a finite non-negative number; else None."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    if math.isnan(value) or math.isinf(value) or value < 0:
        return None
    return value


def row_label(headers, row):
    """First few non-time cells, so a finding names its configuration."""
    cells = [f"{h}={c}" for h, c in zip(headers, row) if not is_time_header(h)]
    return ",".join(cells[:3]) if cells else "-"


def compare_tables(name, base_doc, fresh_doc, threshold, overrides,
                   noise_floor_ms):
    """Yields (kind, message) with kind in {'REGRESSION','SHAPE','ok',
    'improved'}."""
    base_tables = {t["id"]: t for t in base_doc.get("tables", [])}
    fresh_tables = {t["id"]: t for t in fresh_doc.get("tables", [])}
    for table_id in sorted(set(base_tables) | set(fresh_tables)):
        if table_id not in fresh_tables:
            yield ("SHAPE", f"{name}/{table_id}: missing from fresh run")
            continue
        if table_id not in base_tables:
            yield ("SHAPE", f"{name}/{table_id}: not in baseline "
                   "(new table; re-baseline to track it)")
            continue
        base, fresh = base_tables[table_id], fresh_tables[table_id]
        if base["headers"] != fresh["headers"]:
            yield ("SHAPE", f"{name}/{table_id}: headers differ; re-baseline")
            continue
        if len(base["rows"]) != len(fresh["rows"]):
            yield ("SHAPE", f"{name}/{table_id}: row count "
                   f"{len(base['rows'])} -> {len(fresh['rows'])}; re-baseline")
            continue
        headers = base["headers"]
        for r, (brow, frow) in enumerate(zip(base["rows"], fresh["rows"])):
            for h, bcell, fcell in zip(headers, brow, frow):
                if not is_time_header(h):
                    continue
                if bcell == fcell:
                    # Identical bytes: a sweep *parameter* that happens to
                    # carry a time suffix (deadline_ms, even "inf"), or a
                    # perfectly stable timing. Either way, not a regression.
                    yield ("ok", f"{name}/{table_id}[{r}] "
                           f"{row_label(headers, brow)} {h}: unchanged "
                           f"({bcell})")
                    continue
                bval, fval = parse_cell(bcell), parse_cell(fcell)
                if bval is None or fval is None:
                    yield ("SHAPE", f"{name}/{table_id}[{r}].{h}: "
                           f"non-numeric time cell ({bcell!r} vs {fcell!r})")
                    continue
                if (to_ms(bval, h) < noise_floor_ms and
                        to_ms(fval, h) < noise_floor_ms):
                    continue  # both under the floor: jitter, not signal
                limit = overrides.get(h, threshold)
                delta = ((fval - bval) / bval * 100.0) if bval > 0 else (
                    0.0 if fval == 0 else float("inf"))
                where = (f"{name}/{table_id}[{r}] {row_label(headers, brow)} "
                         f"{h}: {bcell} -> {fcell} ({delta:+.1f}%)")
                if delta > limit:
                    yield ("REGRESSION", f"{where} exceeds {limit:.0f}%")
                elif delta < -limit:
                    yield ("improved", where)
                else:
                    yield ("ok", where)


def run_compare(baseline_dir, fresh_dir, threshold, overrides,
                noise_floor_ms, out=sys.stdout):
    baseline_files = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baseline_files:
        print(f"bench_compare: no BENCH_*.json under '{baseline_dir}'",
              file=sys.stderr)
        return 2
    regressions, shapes, compared = [], [], 0
    rows = []
    for name in baseline_files:
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            shapes.append(f"{name}: missing from fresh run")
            continue
        try:
            with open(os.path.join(baseline_dir, name)) as f:
                base_doc = json.load(f)
            with open(fresh_path) as f:
                fresh_doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_compare: {name}: {e}", file=sys.stderr)
            return 2
        for kind, message in compare_tables(name, base_doc, fresh_doc,
                                            threshold, overrides,
                                            noise_floor_ms):
            if kind == "REGRESSION":
                regressions.append(message)
            elif kind == "SHAPE":
                shapes.append(message)
            else:
                compared += 1
            rows.append((kind, message))
    for kind, message in rows:
        print(f"  {kind:10s} {message}", file=out)
    for message in shapes:
        print(f"  {'SHAPE':10s} {message}", file=out)
    verdict = "FAIL" if regressions else "PASS"
    print(f"bench_compare: {verdict} — {len(regressions)} regression(s), "
          f"{compared + len(regressions)} cell(s) compared, "
          f"{len(shapes)} shape note(s)", file=out)
    return 1 if regressions else 0


def parse_growth_spec(spec):
    """'BENCH:TABLE:COLUMN:RATIO' -> (bench, table, column, ratio), or None
    when malformed."""
    parts = spec.split(":")
    if len(parts) != 4 or not all(parts[:3]):
        return None
    try:
        ratio = float(parts[3])
    except ValueError:
        return None
    if not ratio > 0:
        return None
    return parts[0], parts[1], parts[2], ratio


def run_growth_checks(fresh_dir, specs, out=sys.stdout):
    """Checks each (bench, table, column, ratio): last row's cell over the
    first row's must stay <= ratio. Returns 0, 1 (a violation) or 2 (a
    missing file, table, column or non-numeric cell)."""
    worst = 0
    for bench, table_id, column, ratio in specs:
        where = f"{bench}/{table_id}.{column}"
        path = os.path.join(fresh_dir, f"BENCH_{bench}.json")
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_compare: {where}: {e}", file=sys.stderr)
            return 2
        table = next((t for t in doc.get("tables", [])
                      if t.get("id") == table_id), None)
        if table is None or column not in table.get("headers", []):
            print(f"bench_compare: {where}: no such table or column in "
                  f"{path}", file=sys.stderr)
            return 2
        rows = table.get("rows", [])
        col = table["headers"].index(column)
        first = parse_cell(rows[0][col]) if len(rows) >= 2 else None
        last = parse_cell(rows[-1][col]) if len(rows) >= 2 else None
        if first is None or last is None or first == 0:
            print(f"bench_compare: {where}: needs two rows with a positive "
                  "first cell", file=sys.stderr)
            return 2
        growth = last / first
        verdict = "GROWTH" if growth > ratio else "ok"
        print(f"  {verdict:10s} {where}: {rows[0][col]} -> {rows[-1][col]} "
              f"(x{growth:.2f}, limit x{ratio:g})", file=out)
        if growth > ratio:
            worst = 1
    return worst


def self_test():
    """Synthetic fixtures: the gate must catch a >25% wall-clock regression
    and pass an identical pair."""
    import shutil
    import tempfile

    base_doc = {"bench": "fixture", "tables": [{
        "id": "sweep",
        "headers": ["n", "winner", "time_ms", "p95_ms", "tiny_us"],
        "rows": [["10", "exact", "100.0", "20.0", "500"],
                 ["20", "local", "40.0", "8.0", "900"]],
    }]}
    # Row 0: time_ms 100 -> 140 (+40%) must trip the 25% default.
    # p95_ms 20 -> 26 (+30%) must NOT trip its 40% override.
    # tiny_us 500 -> 5000 must NOT trip: both sides below the 2 ms floor.
    regressed = {"bench": "fixture", "tables": [{
        "id": "sweep",
        "headers": ["n", "winner", "time_ms", "p95_ms", "tiny_us"],
        "rows": [["10", "exact", "140.0", "26.0", "5000"],
                 ["20", "local", "41.0", "8.0", "900"]],
    }]}

    tmp = tempfile.mkdtemp(prefix="bench_compare_selftest_")
    try:
        for sub, doc in (("base", base_doc), ("bad", regressed),
                         ("same", base_doc)):
            os.mkdir(os.path.join(tmp, sub))
            with open(os.path.join(tmp, sub, "BENCH_fixture.json"),
                      "w") as f:
                json.dump(doc, f)
        sink = open(os.devnull, "w")
        bad = run_compare(os.path.join(tmp, "base"), os.path.join(tmp, "bad"),
                          25.0, dict(DEFAULT_OVERRIDES), 2.0, out=sink)
        same = run_compare(os.path.join(tmp, "base"),
                           os.path.join(tmp, "same"),
                           25.0, dict(DEFAULT_OVERRIDES), 2.0, out=sink)
        # Growth: the base fixture's time_ms goes 100 -> 40 (x0.4) and must
        # pass a x2 ceiling; a sweep shaped like the old quadratic E1
        # (1.06 -> 12.6 us/edge, x11.9) must fail it.
        steep = {"bench": "steep", "tables": [{
            "id": "sweep", "headers": ["keys", "us_per_edge"],
            "rows": [["1600", "1.06"], ["6400", "1.60"],
                     ["102400", "12.60"]],
        }]}
        with open(os.path.join(tmp, "base", "BENCH_steep.json"), "w") as f:
            json.dump(steep, f)
        flat = run_growth_checks(os.path.join(tmp, "base"),
                                 [("fixture", "sweep", "time_ms", 2.0)],
                                 out=sink)
        steep_rc = run_growth_checks(os.path.join(tmp, "base"),
                                     [("steep", "sweep", "us_per_edge", 2.0)],
                                     out=sink)
        sink.close()
        failures = []
        if bad != 1:
            failures.append(f"regressed fixture exited {bad}, want 1")
        if same != 0:
            failures.append(f"identical fixture exited {same}, want 0")
        if flat != 0:
            failures.append(f"flat growth fixture exited {flat}, want 0")
        if steep_rc != 1:
            failures.append(f"steep growth fixture exited {steep_rc}, want 1")
        for failure in failures:
            print(f"bench_compare --self-test: {failure}", file=sys.stderr)
        print("bench_compare --self-test: "
              + ("FAIL" if failures else "PASS"))
        return 1 if failures else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(
        description="diff fresh BENCH_*.json against a baseline directory")
    parser.add_argument("--baseline", help="directory of baseline files")
    parser.add_argument("--fresh", help="directory of fresh files")
    parser.add_argument("--threshold", type=float, default=25.0)
    parser.add_argument("--override", action="append", default=[],
                        metavar="NAME=PCT")
    parser.add_argument("--noise-floor-ms", type=float, default=2.0)
    parser.add_argument("--max-growth", action="append", default=[],
                        metavar="BENCH:TABLE:COLUMN:RATIO")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    specs = []
    for item in args.max_growth:
        spec = parse_growth_spec(item)
        if spec is None:
            parser.error(f"bad --max-growth '{item}' "
                         "(want BENCH:TABLE:COLUMN:RATIO)")
        specs.append(spec)
    if not args.fresh or not (args.baseline or specs):
        parser.error("--fresh with --baseline and/or --max-growth is "
                     "required (or use --self-test)")
    growth_rc = run_growth_checks(args.fresh, specs) if specs else 0
    if not args.baseline:
        return growth_rc
    overrides = dict(DEFAULT_OVERRIDES)
    for item in args.override:
        name, _, pct = item.partition("=")
        try:
            overrides[name] = float(pct)
        except ValueError:
            parser.error(f"bad --override '{item}' (want NAME=PCT)")
    compare_rc = run_compare(args.baseline, args.fresh, args.threshold,
                             overrides, args.noise_floor_ms)
    return max(compare_rc, growth_rc)


if __name__ == "__main__":
    sys.exit(main())
