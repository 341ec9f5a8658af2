#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload with its parameters from
perfbench/workloads.json.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1.  The traced run also writes its spans and per-op records
under the build directory's traces/.

--pool-seed overrides every workload's pool_seed: seed 2 is reserved for
confirming a claimed gain on instances nobody tuned against.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "--parallel", jobs, "--target"] + targets]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build output goes to stderr: stdout carries the result alone.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def check_result(result, declared):
    """Returns why the result does not have the required shape, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return "%s is not a whole number" % key
    if result["attempted"] < 1:
        return "no op was attempted"
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        return "metrics %s do not match BENCHMARK.json %s" % (
            sorted(metrics), sorted(declared))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "metric %s has no finite value" % name
        if metric.get("unit") != declared[name]:
            return "metric %s has unit %s, BENCHMARK.json says %s" % (
                name, metric.get("unit"), declared[name])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--pool-seed", type=int)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        sys.exit(subprocess.run(
            [os.path.join(out, "perfbench_selftest")]).returncode)
    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")

    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in workloads:
        fail("unknown workload %s (have %s)" % (args.workload,
                                                ", ".join(workloads)))
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[section]}
    params = dict(workloads[args.workload]["params"])
    if args.pool_seed is not None:
        params["pool_seed"] = args.pool_seed

    out = build(["perfbench"])
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    stem = os.path.join(traces, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--ops", stem + ".ops.tsv"]
    if args.trace:
        command += ["--spans", stem + ".spans.tsv"]
    for key, value in sorted(params.items()):
        command += ["--param", "%s=%r" % (key, value)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))
    lines = done.stdout.strip().split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode == 2:
        fail("bad arguments to the benchmark binary")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no result (exit %d)" % done.returncode)
    problem = check_result(result, declared)
    if problem is not None:
        fail(problem)
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
