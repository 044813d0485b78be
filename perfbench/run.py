#!/usr/bin/env python3
"""End-to-end benchmark driver: builds perfbench_run from source, runs one
workload, and relays its report. The last line of stdout is the JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; run artifacts (result JSON, spans) go to .bench_out/.
Build output is sent to stderr so stdout carries only the report.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", "-DREPRO_CHECKS=OFF"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def commit_id():
    """The checkout's commit when it is a git work tree, else 'unknown'.
    Git is kept from searching above the checkout root."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def self_test():
    """Builds and runs the benchmark's own unit tests, then checks that the
    metric and workload names the binary prints match BENCHMARK.json."""
    if not build(["perfbench_run", "perfbench_test"]):
        return 1
    out = build_dir()
    proc = subprocess.run([os.path.join(out, "perfbench_test")],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        print("perfbench: unit tests failed", file=sys.stderr)
        return 1
    listed = json.loads(subprocess.run(
        [os.path.join(out, "perfbench_run"), "--list-metrics"],
        capture_output=True, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        got = [(m["name"], m["unit"]) for m in listed[key]]
        if want != got:
            problems.append(f"{key}: BENCHMARK.json {want} != binary {got}")
    if [w["name"] for w in spec["workloads"]] != listed["workloads"]:
        problems.append(f"workloads: {spec['workloads']} != {listed['workloads']}")
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print("perfbench self-test: " + ("FAILED" if problems else "ok"),
          file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench_run"]):
        return 1
    cmd = [os.path.join(build_dir(), "perfbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--commit", commit_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
