#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built against the repository's crates by path, into
$CARGO_TARGET_DIR (default .bench_build). Build output goes to standard
error; the workload's result is the last line of standard output. Exits
non-zero, printing no result, if the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid", "tune", "serve_prefix")


def main(argv):
    if "--workload" not in argv or argv[argv.index("--workload") + 1 :][:1] == []:
        print("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>", file=sys.stderr)
        return 2
    workload = argv[argv.index("--workload") + 1]
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "lmpeel-perfbench")
    out_dir = os.path.join(target, "perfbench")
    # A terminated runner takes its workload process down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([binary, *argv, "--out", out_dir])
    try:
        return proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
