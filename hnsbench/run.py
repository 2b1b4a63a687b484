#!/usr/bin/env python3
"""Builds the HNS benchmark harness from this checkout and runs one workload.

    python3 hnsbench/run.py --workload resolve_warm --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; --seconds defaults to BENCHMARK.json's
run_seconds. The harness and the repository's src/
libraries are compiled into $CARGO_TARGET_DIR/hnsbench (default
.bench_build/hnsbench); rebuilding is a no-op once they are current. The
human-readable report goes to stdout, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer one
(--trace 1), each as {"value", "unit"}.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resolve_warm", "evolve_churn", "sim_population")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", build_dir, "--target", "hns_bench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "hns_bench")


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "hnsbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("hns_bench exited with %d" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("hns_bench printed no result line")

    metrics = {}
    for metric in wanted:
        if metric["name"] not in raw["metrics"]:
            fail("hns_bench did not report %s" % metric["name"])
        metrics[metric["name"]] = {"value": raw["metrics"][metric["name"]],
                                   "unit": metric["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
