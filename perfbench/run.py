#!/usr/bin/env python3
"""EcoFusion gating-path benchmark.

Builds perfbench_driver (and libecofusion from the checkout's sources) into
.bench_build/perfbench, runs one workload, checks its outputs, and prints one
JSON result as the last line of stdout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. The line before the result holds the run's environment
(nproc, CPU model, compiler, build type, git sha), sample counts and any
check failures. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Default seed of each workload, and a held-out seed kept for checking that
# a claimed gain also holds on inputs not used while the change was written.
WORKLOADS = {
    "knowledge_stream": {"default_seed": 7102, "heldout_seed": 40961},
    "attention_stream": {"default_seed": 7102, "heldout_seed": 40961},
    "attention_latency": {"default_seed": 2022, "heldout_seed": 40961},
}

# Metric names and units come from the benchmark definition.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _DEFINITION = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}

# Cold starts per run; setup_s is their median.
SETUP_LAUNCHES = 9
DRIVER_TIMEOUT_S = 170


def build():
    """Configures and builds the driver; output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def drive(args, timeout):
    """Runs the driver and returns its last stdout line as JSON."""
    done = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          timeout=timeout, check=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["default_seed"]
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = [drive(common + ["--seconds", "1", "--mode", "setup"],
                    DRIVER_TIMEOUT_S) for _ in range(SETUP_LAUNCHES)]
    mode = "trace" if args.trace else "e2e"
    run_args = common + ["--seconds", str(args.seconds), "--mode", mode]
    if args.trace:
        run_args += ["--trace-out", os.path.join(
            BUILD_DIR, "trace_%s_%d.json" % (args.workload, args.seed))]
    result = drive(run_args, DRIVER_TIMEOUT_S)

    values = dict(result["metrics"])
    for key in ("setup_s", "setup.engine_ms", "setup.first_frame_ms"):
        values[key] = statistics.median(s["metrics"][key] for s in setups)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError("driver did not report: " + ", ".join(missing))

    runs = [result] + setups
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    notes = [n["n"] for r in runs for n in r["check_notes"]]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {"timed": int(result["samples"]),
                    "setup_launches": len(setups)},
        "check_notes": notes,
        "env": result["env"],
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError,
            KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        sys.exit(1)
