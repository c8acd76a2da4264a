#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The benchmark is built from
source (CMake, Release) into .bench_build/perfbench on first use; build
output goes to stderr so that the last line of stdout is the result
object. Exits non-zero when the build fails, an answer is wrong, or the
result does not carry exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(target):
    """Configures once, then builds `target`; True on success."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no optselect sources beside perfbench/ "
             "(need CMakeLists.txt and src/ in " + ROOT + ")")
        return False
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
            return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
            return False
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
            return False
    # Write the build's output back now rather than during the timed
    # windows of the first run.
    os.sync()
    return True


def contract_names(trace):
    """Metric names BENCHMARK.json expects for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def run_binary(cmd):
    """Runs the benchmark, relaying its output; (returncode, last line)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
        return 2, ""
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return done.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds within 1..600")
    if not build("perfbench"):
        return 2

    work = os.path.join(WORK, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    code, last = run_binary([
        os.path.join(BUILD, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", work])
    if not last.startswith("{"):
        return fail("no result line (exit code %d)" % code) if code == 0 \
            else code
    print(last)
    if code != 0 or args.workload == "all":
        return code
    result = json.loads(last)
    expected = contract_names(args.trace == 1)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        return fail("metrics differ from BENCHMARK.json: %s" % sorted(
            set(expected) ^ set(result["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
