#!/usr/bin/env python3
"""Build and run the repository benchmark (see scbench/README.md).

From the repository root:

  python3 scbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 scbench/run.py --self-test

The first run configures and builds the library and the scbench binary into
.bench_build (Release); later runs rebuild incrementally.  Build output goes
to stderr, so the last stdout line is the binary's JSON result.  Exits
nonzero without a result when the library sources are missing, the build
fails, or any op diverges from its oracle.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "scbench")

# Every workload the binary runs.  BENCHMARK.json gates graph_natural and
# image_frame; graph_sweep and stream_long run by hand (see README.md) and
# are self-tested all the same.
ALL_WORKLOADS = ["graph_natural", "graph_sweep", "stream_long", "image_frame"]

# Metrics that must repeat bit-for-bit for one seed (exact counts and
# simulated numbers; timings are excluded).
EXACT_METRICS = {
    0: ["mean_abs_error"],
    1: ["graph.inserted_units", "graph.rng_draws", "graph.bits_processed",
        "engine.buffer.peak_bits", "img.tiles", "hw.energy_nj_per_frame"],
}


def fail(message):
    print("scbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "graph", "backend.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "scbench"]):
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_scbench(workload, seed, seconds, trace, extra=()):
    """Runs the built binary; returns (exit code, parsed last line or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result


def self_test():
    """Tiny-size checks of the benchmark itself; exit 0 when all pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    gated = [w["name"] for w in spec["workloads"]]
    if not set(gated) <= set(ALL_WORKLOADS):
        problems.append("BENCHMARK.json names unknown workloads: %r" % gated)
    for w in ALL_WORKLOADS:
        # 1. every metric named in BENCHMARK.json, with its unit, and no
        #    failed op.
        for trace in (0, 1):
            code, result = run_scbench(w, 1, 0.3, trace, ["--tiny"])
            if code != 0 or result is None or not result["correct"] \
                    or result["failed"] != 0:
                problems.append("%s trace=%d: exit %d, result %r"
                                % (w, trace, code, result))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s trace=%d: metrics %r, expected %r"
                                % (w, trace, got, expected[trace]))
        # 2. exact metrics repeat bit-for-bit for a seed (two seeds).
        for seed in (5, 90417):
            for trace, names in EXACT_METRICS.items():
                runs = [run_scbench(w, seed, 0.3, trace, ["--tiny"])[1]
                        for _ in range(2)]
                for name in names:
                    values = [r["metrics"][name]["value"] if r else None
                              for r in runs]
                    if values[0] is None or values[0] != values[1]:
                        problems.append("%s seed=%d: %s not repeatable: %r"
                                        % (w, seed, name, values))
        # 3. a flipped output bit is counted as a failed op.
        code, result = run_scbench(w, 1, 0.3, 0,
                                   ["--tiny", "--corrupt-op", "1"])
        if code == 0 or result is None or result["correct"] \
                or result["failed"] != 1:
            problems.append("%s: corrupted op not caught: exit %d, result %r"
                            % (w, code, result))
        print("self-test %-14s %s" % (w, "checked"), file=sys.stderr)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("self-test: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        fail("--workload is required")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
