#!/usr/bin/env python3
"""Builds and runs the Fremont benchmark.

One workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload survey_inproc --seed 1 --seconds 30 --trace 0

Every workload, untraced then traced, as a table (``--out`` also saves
the results for ``perfbench/compare.py``):

    python3 perfbench/run.py --workload all --seconds 30 --out results.json

Run from the repository root. The benchmark is built with cargo into
``$CARGO_TARGET_DIR`` (default ``.bench_build``) and writes scratch files
under ``.bench_work``, which it removes.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["survey_inproc", "deployment_remote", "journal_serve"]
# One run must end within 180 s; the binary's own loops stop near
# --seconds, so this only catches a wedged run.
RUN_TIMEOUT_S = 175


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return Path(target) / "release" / "fremont-perfbench"


def run_one(binary, args, workload, trace, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--campus-seed", str(args.campus_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} (trace {trace}) did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} (trace {trace}) failed with code {proc.returncode}")
    return proc.stdout


def run_all(binary, args):
    results = {}
    for workload in WORKLOADS:
        merged = {}
        for trace in (0, 1):
            lines = run_one(binary, args, workload, trace, capture=True).splitlines()
            for line in lines[:-1]:
                print(f"[{workload} trace={trace}] {line}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"perfbench: {workload} reported incorrect output")
            merged.update(result["metrics"])
        results[workload] = merged
    print()
    print(f"{'workload':18} {'metric':34} {'value':>16} unit")
    for workload, metrics in results.items():
        for name, m in metrics.items():
            print(f"{workload:18} {name:34} {m['value']:16.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "campus_seed": args.campus_seed,
             "workloads": results}, indent=1) + "\n")
        print(f"results written to {args.out}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1993)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--campus-seed", type=int, default=1993)
    p.add_argument("--out", help="with --workload all: write the results here")
    args = p.parse_args()
    binary = build()
    if args.workload == "all":
        run_all(binary, args)
    else:
        # Stream the binary's output; its last line is the result.
        run_one(binary, args, args.workload, args.trace, capture=False)


if __name__ == "__main__":
    main()
