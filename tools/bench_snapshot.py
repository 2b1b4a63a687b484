#!/usr/bin/env python3
"""BENCH_*.json workflow: produce and machine-check perf snapshots.

Each PR that claims a performance change checks in a BENCH_<n>.json
produced by bench/bench_runner. The snapshot embeds its own acceptance
floors — every scenario carries an optional baseline {label, qps,
min_speedup} naming the prior PR's number it must beat — so the perf
trajectory is validated by CI arithmetic, not by prose in EXPERIMENTS.md.

  bench_snapshot.py --check [FILE...]
      Validate schema and trajectory floors. No FILE = every BENCH_*.json
      at the repo root. Exit 0 clean, 1 on any violation. This is the
      tier-1 `bench_smoke` ctest and the check.sh bench-smoke leg: it runs
      in milliseconds and never re-measures (CI boxes are not benchmarks).

  bench_snapshot.py --run --out FILE [--build-dir DIR] [--quick]
      Drive the built bench/bench_runner, write FILE, then --check it.
      FILE is required, so a re-measure never overwrites a checked-in
      snapshot by default; its stem names the snapshot ("bench").
      Run on a quiet machine.

Two scenario shapes share schema v1: the original wall-clock shape
(bench/bench_runner) and "kind": "workload" sim-clock scenarios
(bench/bench_workload_engine -> BENCH_10.json) with virtual-time tails,
a hit-rate-vs-population curve point, and meta-store load. Sim-clock
numbers are deterministic, so their floors are exact.
"""

import glob
import json
import os
import subprocess
import sys

SCHEMA_VERSION = 1

# scenario field -> (type(s), nullable)
SCENARIO_FIELDS = {
    "name": (str, False),
    "serve_mode": (str, False),
    "udp_batch": (int, False),
    "clients": (int, False),
    "requests": (int, False),
    "qps": ((int, float), False),
    "p50_us": ((int, float), False),
    "p99_us": ((int, float), False),
    "recv_syscalls_per_req": ((int, float), True),
    "send_syscalls_per_req": ((int, float), True),
    "syscalls_per_req": ((int, float), True),
    "baseline": (dict, True),
}

BASELINE_FIELDS = {
    "label": (str, False),
    "qps": ((int, float), False),
    "min_speedup": ((int, float), False),
}

# Sim-clock workload scenarios (bench/bench_workload_engine -> BENCH_10.json)
# carry "kind": "workload" and a different shape: virtual-time tails in ms,
# a cache hit-rate point on the population curve, and the meta-store load.
# Scenarios without "kind" keep the original wall-clock shape above.
WORKLOAD_SCENARIO_FIELDS = {
    "name": (str, False),
    "kind": (str, False),
    "population": (int, False),
    "contexts": (int, False),
    "zipf_s": ((int, float), False),
    "queries": (int, False),
    "sim_qps": ((int, float), False),
    "p50_ms": ((int, float), False),
    "p99_ms": ((int, float), False),
    "p999_ms": ((int, float), False),
    "record_hit_rate": ((int, float), False),
    "composite_hit_rate": ((int, float), True),
    "meta_remote_lookups": (int, False),
    "fingerprint": (str, False),
    "baseline": (dict, True),
}

# Workload floors are on sim_qps: the virtual clock makes the number a
# deterministic property of the code path, so the floor is exact, not noisy.
WORKLOAD_BASELINE_FIELDS = {
    "label": (str, False),
    "sim_qps": ((int, float), False),
    "min_speedup": ((int, float), False),
}


def check_fields(obj, spec, where, errors):
    for field, (types, nullable) in spec.items():
        if field not in obj:
            errors.append(f"{where}: missing field '{field}'")
            continue
        value = obj[field]
        if value is None:
            if not nullable:
                errors.append(f"{where}: field '{field}' must not be null")
            continue
        if not isinstance(value, types):
            errors.append(f"{where}: field '{field}' has type "
                          f"{type(value).__name__}, want "
                          f"{getattr(types, '__name__', types)}")
    for field in obj:
        if field not in spec:
            errors.append(f"{where}: unknown field '{field}'")


def check_workload_values(s, where, errors):
    for field in ("population", "contexts", "queries", "sim_qps",
                  "p50_ms", "p99_ms", "p999_ms"):
        v = s.get(field)
        if isinstance(v, (int, float)) and v <= 0:
            errors.append(f"{where}: {field} = {v} is not positive")
    p50, p99, p999 = (s.get(f) for f in ("p50_ms", "p99_ms", "p999_ms"))
    if all(isinstance(v, (int, float)) for v in (p50, p99, p999)):
        if not p50 <= p99 <= p999:
            errors.append(f"{where}: tail inversion — want "
                          f"p50_ms <= p99_ms <= p999_ms, got "
                          f"{p50} / {p99} / {p999}")
    for field in ("record_hit_rate", "composite_hit_rate"):
        v = s.get(field)
        if isinstance(v, (int, float)) and not 0.0 <= v <= 1.0:
            errors.append(f"{where}: {field} = {v} outside [0, 1]")
    mrl = s.get("meta_remote_lookups")
    if isinstance(mrl, int) and mrl < 0:
        errors.append(f"{where}: meta_remote_lookups = {mrl} is negative")

    baseline = s.get("baseline")
    if isinstance(baseline, dict):
        check_fields(baseline, WORKLOAD_BASELINE_FIELDS, f"{where}: baseline",
                     errors)
        qps = s.get("sim_qps")
        base_qps = baseline.get("sim_qps")
        speedup = baseline.get("min_speedup")
        if (isinstance(qps, (int, float)) and isinstance(base_qps, (int, float))
                and isinstance(speedup, (int, float)) and base_qps > 0):
            floor = base_qps * speedup
            if qps < floor:
                errors.append(
                    f"{where}: TRAJECTORY REGRESSION — sim_qps {qps:.0f} is "
                    f"below the floor {floor:.0f} "
                    f"({speedup}x of {baseline.get('label')})")


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"{path}: schema_version is "
                      f"{doc.get('schema_version')!r}, want {SCHEMA_VERSION}")
    for field in ("bench", "generated_by", "environment"):
        if not isinstance(doc.get(field), str) or not doc.get(field):
            errors.append(f"{path}: missing or empty '{field}'")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append(f"{path}: 'scenarios' must be a non-empty list")
        return errors

    names = set()
    for i, s in enumerate(scenarios):
        where = f"{path}: scenarios[{i}]"
        if not isinstance(s, dict):
            errors.append(f"{where}: not an object")
            continue
        workload = s.get("kind") == "workload"
        check_fields(s, WORKLOAD_SCENARIO_FIELDS if workload else SCENARIO_FIELDS,
                     where, errors)
        name = s.get("name")
        if isinstance(name, str):
            where = f"{path}: scenario '{name}'"
            if name in names:
                errors.append(f"{where}: duplicate scenario name")
            names.add(name)

        if workload:
            check_workload_values(s, where, errors)
            continue

        for field in ("qps", "p50_us", "p99_us"):
            v = s.get(field)
            if isinstance(v, (int, float)) and v <= 0:
                errors.append(f"{where}: {field} = {v} is not positive")
        spr = s.get("syscalls_per_req")
        if isinstance(spr, (int, float)) and not 0 < spr <= 2.0:
            errors.append(f"{where}: syscalls_per_req = {spr} outside (0, 2] "
                          f"— a UDP request/reply needs at most one recv and "
                          f"one send syscall even unbatched")

        baseline = s.get("baseline")
        if isinstance(baseline, dict):
            check_fields(baseline, BASELINE_FIELDS, f"{where}: baseline", errors)
            qps = s.get("qps")
            base_qps = baseline.get("qps")
            speedup = baseline.get("min_speedup")
            if (isinstance(qps, (int, float)) and isinstance(base_qps, (int, float))
                    and isinstance(speedup, (int, float)) and base_qps > 0):
                floor = base_qps * speedup
                if qps < floor:
                    errors.append(
                        f"{where}: TRAJECTORY REGRESSION — qps {qps:.0f} is "
                        f"below the floor {floor:.0f} "
                        f"({speedup}x of {baseline.get('label')})")
    return errors


def run_check(paths):
    if not paths:
        paths = sorted(glob.glob("BENCH_*.json"))
        if not paths:
            print("bench_snapshot --check: no BENCH_*.json found", file=sys.stderr)
            return 1
    all_errors = []
    for path in paths:
        all_errors.extend(check_file(path))
    if all_errors:
        print(f"bench_snapshot --check: {len(all_errors)} violation(s):")
        for err in all_errors:
            print(f"  {err}")
        return 1
    total = sum(len(json.load(open(p, encoding="utf-8"))["scenarios"]) for p in paths)
    print(f"bench_snapshot --check: {len(paths)} snapshot(s), {total} "
          f"scenario(s), schema v{SCHEMA_VERSION}, all trajectory floors hold")
    return 0


def run_bench(build_dir, out, quick):
    runner = os.path.join(build_dir, "bench", "bench_runner")
    if not os.path.exists(runner):
        print(f"bench_snapshot --run: {runner} not built "
              f"(cmake --build {build_dir} --target bench_runner)", file=sys.stderr)
        return 1
    cmd = [runner, "--out", out] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        return proc.returncode
    return run_check([out])


def main(argv):
    if "--check" in argv:
        argv.remove("--check")
        return run_check(argv)
    if "--run" in argv:
        argv.remove("--run")
        build_dir, out, quick = "build", None, False
        while argv:
            arg = argv.pop(0)
            if arg == "--build-dir" and argv:
                build_dir = argv.pop(0)
            elif arg == "--out" and argv:
                out = argv.pop(0)
            elif arg == "--quick":
                quick = True
            else:
                print(__doc__)
                return 2
        if out is None:
            print("bench_snapshot --run: --out FILE is required", file=sys.stderr)
            return 2
        return run_bench(build_dir, out, quick)
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
