#!/usr/bin/env python3
"""Ledger benchmark entry point.

    python3 ledgerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds ledgerbench/ (a CMake package that
pulls in the repository's provledger library target) in Release mode into
.bench_build/, runs one workload of ledgerbench/workloads.json and prints
every metric by name with its unit and sample count. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. Exits non-zero without that line when the build, a run or
the metric set fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build the ledgerbench binary; returns its path."""
    binary = os.path.join(build_dir, "ledgerbench")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "ledgerbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return binary if os.path.exists(binary) else None


def params_for(config, workload, seconds):
    params = dict(config["workloads"][workload]["params"])
    scale = seconds / float(config["reference_seconds"])
    for key in config["scaled_with_seconds"]:
        value = params[key] * scale
        params[key] = value if isinstance(params[key], float) else max(1, round(value))
    return params


def filesystem_type(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             stdout=subprocess.PIPE, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def tail_ok(name, samples):
    """A tail needs at least ten samples beyond it."""
    for suffix, need in (("_p99_ms", 1000), ("_p90_ms", 100)):
        if name.endswith(suffix):
            return samples >= need
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log("unknown workload " + args.workload)
        return 2
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]

    binary = build(os.path.join(root, ".bench_build"))
    if binary is None:
        return 1

    data_dir = os.path.join(root, ".bench_data", "%s-%d" % (args.workload, os.getpid()))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--seed", str(args.seed), "--trace", str(args.trace),
           "--dir", data_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-s%d" % (args.workload, args.seed))]
    for key, value in sorted(params_for(config, args.workload, args.seconds).items()):
        cmd += ["--set", "%s=%s" % (key, value)]
    fs_type = filesystem_type(data_dir)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("ledgerbench exited with %d" % done.returncode)
        return 1
    result = json.loads(lines[-1])

    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        log("metrics missing: " + ", ".join(missing))
        return 1
    correct = bool(result["correct"])
    print("workload %s seed %d trace %d data_dir_fs %s hardware_threads %d"
          % (args.workload, args.seed, args.trace, fs_type, os.cpu_count() or 0))
    for name in wanted:
        m = result["metrics"][name]
        enough = tail_ok(name, m["samples"])
        correct = correct and enough
        print("  %-44s %14.6g %-6s (%d samples)%s" % (
            name, m["value"], m["unit"], m["samples"],
            "" if enough else "  too few samples for this tail"))
    for name, value in sorted(result["counts"].items()):
        print("  count %-38s %14.6g" % (name, value))
    failed_checks = [k for k, ok in result["checks"].items() if not ok]
    print("  checks: %d passed, failed: %s" % (
        len(result["checks"]) - len(failed_checks), failed_checks or "none"))

    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["metrics"][name]["value"],
                           "unit": result["metrics"][name]["unit"]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
