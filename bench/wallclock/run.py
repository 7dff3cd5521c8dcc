#!/usr/bin/env python3
"""Wall-clock campaign benchmark: builds the runner, runs one workload and
prints its metrics (README.md in this directory).

    python3 bench/wallclock/run.py --workload proto-root --seed 1 --seconds 20 --trace 0

The runner is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build at the repository root). The last line of standard output is
one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The exit code is nonzero when a check fails; then
`correct` is false and `failed` counts the failed cells.
"""

import argparse
import json
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("proto-root", "proto-incr", "mario-solve")


def build(build_dir):
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no nyx-net source tree at {ROOT}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "wallclock", "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(build_dir, "wallclock")


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(doc):
    """Prints the summary and the result line; returns whether all checks passed."""
    cells = [cell["name"] for cell in doc["reps"][0]["cells"]]
    failures = metrics.cell_failures(doc)
    traced = doc["trace"] == 1
    reps = len(doc["reps"])
    print(
        f"wallclock {doc['workload']} seed {doc['seed']}: {reps} repetitions of "
        f"{len(cells)} cells ({doc['build_type']}, {doc['compiler']})"
    )
    for name in cells:
        if name in failures:
            print(f"  FAILED {name}: {'; '.join(failures[name])}")
    print(f"  failed_share {len(failures) / len(cells):.3f} ({len(failures)} of {len(cells)} cells)")

    result = {}
    try:
        if traced:
            for name, value in metrics.per_layer(doc).items():
                unit = metrics.LAYER_UNITS[name]
                print(f"  {name:32s} {fmt(value)} {unit}")
                result[name] = {"value": value, "unit": unit}
        else:
            scale = metrics.speed_scale(doc)
            print(
                f"  speed probe p10 {metrics.PROBE_REF_NS / scale / 1000:.1f} us: "
                f"timings scaled by {scale:.4f}; per-repetition values are unscaled"
            )
            spread = metrics.per_rep_quartiles(doc)
            for name, value in metrics.end_to_end(doc).items():
                unit = metrics.E2E_UNITS[name]
                line = f"  {name:12s} {fmt(value)} {unit}"
                if name in spread:
                    median, q1, q3, n = spread[name]
                    line += f"  (per repetition: median {fmt(median)}, q1 {fmt(q1)}, q3 {fmt(q3)}, n={n})"
                print(line)
                result[name] = {"value": value, "unit": unit}
    except ValueError as err:
        # Only a failed run gets here: cell_failures reports the same spans.
        print(f"  no metrics: {err}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(cells),
                "failed": len(failures),
                "metrics": result,
            }
        )
    )
    return not failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    runner = build(build_dir)
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    subprocess.run(
        [
            runner,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", out,
        ],
        stdout=sys.stderr,
        check=True,
    )
    with open(out) as f:
        doc = json.load(f)
    return 0 if report(doc) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as err:
        sys.exit(f"run.py: {' '.join(err.cmd)} exited with {err.returncode}")
