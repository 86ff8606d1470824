#!/usr/bin/env python3
"""Build and run the PowerDial benchmark program.

Run from the root of a PowerDial checkout:

    python3 perfbench/run.py --workload fleet-scale --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds perfbench/ (the PowerDial library
plus powerdial_perfbench) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only check the build is current. Build
output goes to stderr. The program's standard output is passed through:
its last line is the JSON result. --trace 1 also writes the recorded
spans as a Chrome trace next to the build.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TARGET = "powerdial_perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet-scale", "fleet-slo", "calibrate"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    return parser.parse_args()


def run_quiet(command, env, timeout):
    """Run a build step, sending its output to stderr; True on success."""
    result = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            timeout=timeout)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.stderr.write("perfbench: %s failed\n" % " ".join(command))
    return result.returncode == 0


def build(build_dir):
    """Configure (cheap when cached) and build the program."""
    env = dict(os.environ)
    # Keep compiler temporaries inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    return (run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S)
            and run_quiet(["cmake", "--build", str(build_dir), "--target",
                           TARGET, "-j", jobs], env, BUILD_TIMEOUT_S))


def main():
    args = parse_args()
    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    try:
        if not build(build_dir):
            return 1
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 1

    command = [str(build_dir / TARGET), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        trace_file = "trace-%s-%d.json" % (args.workload, args.seed)
        command += ["--trace-out", str(build_dir / trace_file)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
