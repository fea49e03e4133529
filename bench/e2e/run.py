#!/usr/bin/env python3
"""Builds pebblejoin_bench from source and runs it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --smoke [--bin PATH]

The first form is the benchmark command that BENCHMARK.json names. It
configures bench/e2e (Release) into .bench_build at the repository root
on first use, brings that build up to date, runs one workload, and passes
the benchmark's output through: the last line of stdout is the result
JSON. The build's own output goes to stderr. Without the repository's
sources next to bench/e2e the build fails and so does the command.

--smoke runs all four workloads at smoke scale with the traced replay and
checks that each printed every metric BENCHMARK.json names and answered
every request correctly; ctest runs it as bench_e2e_smoke with --bin.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "pebblejoin_bench"
# A run measures for --seconds; set-up, checks and the replay come on top.
TIMEOUT_S = 170


def build():
    """Configures once, then brings pebblejoin_bench and the CLI up to date."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "pebblejoin_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run(argv):
    """Runs the benchmark in its own process group, so a timeout also stops
    the servers it spawned. Returns the exit code."""
    process = subprocess.Popen(argv, start_new_session=True)
    try:
        return process.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print("error: benchmark exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


def smoke(binary):
    out_dir = Path(binary).resolve().parent
    result_path = out_dir / "smoke-result.json"
    code = run([str(binary), "--scale", "smoke", "--seed", "1", "--trace", "1",
                "--out", str(result_path),
                "--trace-out", str(out_dir / "smoke-trace.json")])
    if code != 0:
        print("smoke: pebblejoin_bench exited %d" % code, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    result = json.loads(result_path.read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        got = result["workloads"].get(workload)
        if got is None:
            problems.append("%s: not run" % workload)
            continue
        if not got["correct"] or got["failed"] != 0:
            problems.append("%s: %d of %d failed: %s" % (
                workload, got["failed"], got["attempted"], got["problems"]))
        missing = [n for n in names if n not in got["metrics"]]
        if missing:
            problems.append("%s: metrics not printed: %s" % (workload,
                                                              missing))
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin",
                        help="a built pebblejoin_bench; skips the build")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if args.bin is None and not build():
        print("error: building pebblejoin_bench failed", file=sys.stderr)
        return 1
    binary = args.bin or str(BINARY)
    if args.smoke:
        return smoke(binary)
    BUILD.mkdir(exist_ok=True)
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--out", str(BUILD / ("result-%s.json" % args.workload)),
                "--trace-out", str(BUILD / ("trace-%s.json" % args.workload))])


if __name__ == "__main__":
    sys.exit(main())
