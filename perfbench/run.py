#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dse_mjpeg --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seeds
    python3 perfbench/run.py --self-test           # the driver's helper self-tests

The script configures and builds perfbench/ (which pulls in the library
from the repository root) into the build directory named by
CARGO_TARGET_DIR, or .bench_build, then runs perfbench_driver. The last
line of standard output is the driver's JSON result. A failed build, a
failed check or a crashed driver exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("dse_mjpeg", "serve_replay", "serve_faults")
DRIVER_TIMEOUT_S = 170


def build(root, build_dir):
    """Configure (first time) and build the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "mapping", "admission.hpp")):
        sys.exit("perfbench: no library sources under %s/src; run from a full checkout" % root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, args):
    """Run the driver, relay its output, and return its exit code and last line."""
    try:
        result = subprocess.run([driver] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = result.stdout.splitlines()
    return result.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    driver = build(root, build_dir)

    if args.self_test:
        code, lines = run_driver(driver, ["--self-test"])
        print("\n".join(lines))
        return code

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for workload in workloads:
        driver_args = ["--workload", workload, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--trace-dir", trace_dir]
        if args.seed is not None:
            driver_args += ["--seed", str(args.seed)]
        code, lines = run_driver(driver, driver_args)
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
            print("\n".join(lines))
            sys.exit("perfbench: %s produced no result (exit %d)" % (workload, code))
        body, last = lines[:-1], lines[-1]
        if len(workloads) > 1:
            print("== %s" % workload)
            print("\n".join(lines))
        else:
            print("\n".join(body))
            print(last)
        if code != 0 or not result["correct"] or result["failed"]:
            worst = worst or (code or 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
