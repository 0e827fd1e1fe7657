#!/usr/bin/env python3
"""A/A steadiness report: two sets of runs of the same build.

    python3 perfbench/aa.py [--workloads grid,tune,...] [--runs 5]
                            [--seconds S] [--results FILE]

Runs every workload --runs times per set, alternating set A and set B,
each run with its own seed. For every end-to-end metric it prints each
set's median and spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles), the spread over
all runs, and how far set B's median moved from set A's, each against the
metric's bound in BENCHMARK.json. Result lines are appended to --results
(JSON lines) for compare.py. Run from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--results", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"nproc {os.cpu_count()}, cpu {cpu_model()}")
    print(f"{args.runs} runs per set, {args.seconds} s per run")
    out = open(args.results, "a") if args.results else None
    worst = 0.0
    for w in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, label in enumerate("AB"):
                seed = 1 + 2 * i + k
                res = run_once(w, seed, args.seconds)
                sets[label].append(res)
                if out:
                    out.write(json.dumps({"workload": w, "set": label, "seed": seed, "result": res}) + "\n")
                    out.flush()
                ok = res["correct"] and res["failed"] == 0
                print(f"  {w} {label} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}" + ("" if ok else "  <--"))
        print(f"{w}:")
        print(f"  {'metric':<16} {'bound':>6} {'med A':>12} {'med B':>12} "
              f"{'spread A':>9} {'spread B':>9} {'spread all':>10} {'B vs A':>8}")
        for name, bound in bounds.items():
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb, sall = spread(a), spread(b), spread(a + b)
            drift = (mb - ma) / ma
            flag = ""
            if name != "setup_s" and max(sa, sb, sall) > bound:
                flag = "  SPREAD > BOUND"
            if abs(drift) > bound:
                flag += "  DRIFT > BOUND"
            if name != "setup_s":
                worst = max(worst, sall / bound)
            print(f"  {name:<16} {bound:>6.2f} {ma:>12.4f} {mb:>12.4f} "
                  f"{sa:>9.3f} {sb:>9.3f} {sall:>10.3f} {drift:>+8.3f}{flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if out:
        out.close()


if __name__ == "__main__":
    main()
