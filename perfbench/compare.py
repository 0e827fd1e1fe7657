#!/usr/bin/env python3
"""Per-metric deltas between two result files.

    python3 perfbench/compare.py BASE CHANGE

Each file holds result lines: either the benchmark's last output line as
is, or the {"workload", "set", "seed", "result"} lines aa.py writes. Lines
are grouped by workload (raw result lines form one group, "-"), and every
metric's median is compared: traced files give per-layer deltas, untraced
files end-to-end deltas.
"""

import json
import statistics
import sys


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            workload, res = ("-", rec) if "metrics" in rec else (rec["workload"], rec["result"])
            for name, m in res["metrics"].items():
                groups.setdefault(workload, {}).setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return groups


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) | set(change)):
        b, c = base.get(workload, {}), change.get(workload, {})
        print(f"{workload}:")
        print(f"  {'metric':<34} {'unit':>6} {'base':>14} {'change':>14} {'delta':>9}")
        for name in sorted(set(b) | set(c)):
            if name not in b or name not in c:
                print(f"  {name:<34} only in {'change' if name in c else 'base'}")
                continue
            mb, mc = statistics.median(b[name][0]), statistics.median(c[name][0])
            delta = f"{(mc - mb) / mb:+.2%}" if mb else "n/a"
            print(f"  {name:<34} {b[name][1]:>6} {mb:>14.4f} {mc:>14.4f} {delta:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
