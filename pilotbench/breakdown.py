#!/usr/bin/env python3
"""Print where a traced episode's host time went, layer by layer.

Usage (from the repository root, after a traced run):

    python3 pilotbench/run.py --workload yarn-poll --seed 1 --seconds 30 --trace 1
    python3 pilotbench/breakdown.py .bench_out/yarn-poll-seed1.layers.json

Lists every span self time of the first traced episode with its share of
the episode's wall time. The self times partition the episode, so the
shares add up to 100%.
"""

import json
import sys

# Per-layer "_s" metrics that are not self times of one span kind.
NOT_SELF_TIMES = {"sim.run_until_s", "trace.wall_s"}


def self_times(layers):
    return {name: m["value"] for name, m in layers.items()
            if name.endswith("_s") and name not in NOT_SELF_TIMES}


def main(paths):
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        layers = doc["layers"]
        wall = layers["trace.wall_s"]["value"]
        parts = self_times(layers)
        host = doc["host"]
        print(f"{doc['workload']} seed {doc['seed']} ({host['compiler']}, "
              f"{host['build_type']}, nproc {host['nproc']}): "
              f"wall {wall:.3f} s, self times sum to {sum(parts.values()):.3f} s")
        for name, value in sorted(parts.items(), key=lambda kv: -kv[1]):
            if value > 0:
                print(f"  {name:28s} {value:9.4f} s {100 * value / wall:6.2f}%")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
