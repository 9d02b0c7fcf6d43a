#!/usr/bin/env python3
"""Compares two benchmark result files metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

A result file is either what ``run.py --workload all --out FILE`` writes
(every workload) or one run's JSON result line saved to a file (one
workload, shown as ``-``). For every workload and metric both files
hold, prints old -> new and the ratio new/old, the old value being its
base.
"""

import json
import sys
from pathlib import Path


def load(path):
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # A saved run output: the result is its last line.
        data = json.loads(text.strip().splitlines()[-1])
    return data["workloads"] if "workloads" in data else {"-": data["metrics"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':18} {'metric':34} {'unit':6} {'old':>14} {'new':>14} {'new/old':>9}")
    for workload in [w for w in old if w in new]:
        for name, o in old[workload].items():
            n = new[workload].get(name)
            if n is None:
                continue
            ov, nv = o["value"], n["value"]
            ratio = f"{nv / ov:9.3f}" if ov else f"{'-':>9}"
            print(f"{workload:18} {name:34} {o['unit']:6} {ov:14.6g} {nv:14.6g} {ratio}")


if __name__ == "__main__":
    main()
