#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench_driver from the program's
sources (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one workload
of perfbench/workloads.json, reads the driver's raw JSON from its standard
output, applies the correctness gates and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1 every
per-layer metric. A failed gate or build exits non-zero and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

DRIVER_TIMEOUT_S = 170


def build(build_root):
    """Configures (once) and builds the driver; returns its path."""
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench_driver"


def driver_args(workload, args):
    flags = {"kind": workload["kind"], "seed": args.seed,
             "seconds": args.seconds, "trace": "true" if args.trace else "false",
             **workload.get("args", {})}
    return [f"--{key}={value}" for key, value in flags.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    e2e_names, layer_names = benchlib.validate_benchmark(bench)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    spec = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        raise ValueError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(spec['workloads'])}")
    workload = spec["workloads"][args.workload]

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build(build_root)
    proc = subprocess.run([str(driver)] + driver_args(workload, args),
                          stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    raw = json.loads(proc.stdout)

    if args.trace:
        values, attempted, failed, notes = benchlib.per_layer(raw, layer_names)
        names = layer_names
    else:
        values, attempted, failed, notes = benchlib.end_to_end(raw)
        names = e2e_names
    for note in notes:
        print(f"[{args.workload}] {note}")
    missing = [n for n in names if n not in values]
    if missing:
        raise ValueError(f"no value for {missing}")
    result = {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except benchlib.GateFailure as failure:
        sys.stderr.write(f"correctness gate failed: {failure}\n")
        sys.exit(3)
    except (RuntimeError, ValueError, OSError, KeyError,
            subprocess.TimeoutExpired) as error:
        sys.stderr.write(f"benchmark error: {error}\n")
        sys.exit(2)
