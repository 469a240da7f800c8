#!/usr/bin/env python3
"""Build and run the closed-loop Pilot-API benchmark.

Usage (from the repository root):

    python3 pilotbench/run.py --workload wave-scale --seed 1 --seconds 40 --trace 0
    python3 pilotbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Builds the simulator libraries and the driver (Release) into
.bench_build/pilotbench, runs one workload and prints the driver's lines;
the last line is the JSON result. "all" runs every workload in turn and
ends with a table of every metric by name and unit. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics of a
traced run (its spans go to .bench_out/). Exits non-zero, without a result
line, when the simulator sources are missing or the build fails, and
non-zero with "correct": false when an output check fails. The simulated
metrics of a seed are kept in .bench_out/ and every later run of that
seed must reproduce them bit for bit while the binary is unchanged.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "pilotbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def die(message):
    print(f"pilotbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "pilot_bench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "pilot_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def failed_result(attempted, why):
    print(f"# check failed: {why}")
    print(json.dumps({"correct": False, "attempted": max(1, attempted),
                      "failed": max(1, attempted), "metrics": {}}))
    return 1


def check_sim_replay(binary, workload, seed, metrics):
    """Every run of one seed by one binary must reproduce the simulated
    metrics."""
    sim = {k: v["value"] for k, v in metrics.items() if k.startswith("sim_")}
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:12]
    record = OUT_DIR / f"sim-{workload}-seed{seed}-{build_id}.json"
    if record.is_file():
        previous = json.loads(record.read_text())
        if previous != sim:
            return f"sim metrics differ from an earlier run: {previous} vs {sim}"
    else:
        record.write_text(json.dumps(sim, sort_keys=True) + "\n")
    return None


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    # One CPU for the driver and its socket reactor thread: on a shared
    # virtual machine a cross-CPU wake-up waits for the host to run the idle
    # vCPU, which swung tenants-socket by 2x from minute to minute.
    cpu = max(os.sched_getaffinity(0))
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return failed_result(1, f"no result within {RUN_TIMEOUT_S} s"), None
    lines = done.stdout.strip().splitlines()
    if not lines:
        return failed_result(1, f"driver exited {done.returncode} silently"), None
    for line in lines[:-1]:
        print(line)
    print(f"# driver wall {time.monotonic() - started:.1f} s on cpu {cpu}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return failed_result(1, f"unparsable result line: {lines[-1]}"), None
    if done.returncode != 0 or not result.get("correct"):
        print(lines[-1])
        return done.returncode or 1, result

    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        return failed_result(result["attempted"],
                             f"metric set mismatch: missing {missing}, extra {extra}"), None
    if not args.trace:
        why = check_sim_replay(binary, workload, args.seed, result["metrics"])
        if why:
            return failed_result(result["attempted"], why), None
    print(lines[-1])
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload != "all":
        return run_one(binary, args.workload, args)[0]

    # Every workload in turn, then one table of every metric by name.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = []
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        rc, result = run_one(binary, workload, args)
        worst = worst or rc
        for name, m in ((result or {}).get("metrics") or {}).items():
            rows.append(f"{workload:16s} {name:36s} {m['value']:>18.6f} {m['unit']}")
        if result is not None:
            rows.append(f"{workload:16s} {'correct':36s} {str(result['correct']):>18s} "
                        f"({result['failed']}/{result['attempted']} units failed)")
    print("\n".join(rows))
    return worst


if __name__ == "__main__":
    sys.exit(main())
