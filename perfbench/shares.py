#!/usr/bin/env python3
"""Compare the per-layer self-time shares of two traced runs.

    python3 perfbench/shares.py perfbench/out/evolve-seed1-trace1.json \
        perfbench/out/evolve-seed9001-trace1.json

A layer's share is its self time over the summed self time of all layers.
Prints the layers that hold at least 1 % in either run, and the largest
difference in share points.
"""

import json
import sys


def shares(path) -> dict:
    with open(path) as fh:
        metrics = json.load(fh)["metrics"]
    self_s = {k[:-len(".self_s")]: v["value"] for k, v in metrics.items()
              if k.endswith(".self_s")}
    total = sum(self_s.values())
    return {k: v / total for k, v in self_s.items()}


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit(__doc__)
    a, b = shares(argv[1]), shares(argv[2])
    rows = sorted((k for k in a if max(a[k], b[k]) >= 0.01), key=lambda k: -a[k])
    print(f"{'layer':<44} {'share A':>8} {'share B':>8}")
    for k in rows:
        print(f"{k:<44} {a[k]:8.3f} {b[k]:8.3f}")
    print(f"largest difference: {max(abs(a[k] - b[k]) for k in a):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
