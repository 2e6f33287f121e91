#!/usr/bin/env python3
"""Build the Penelope benchmark from source and run one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload classic_burst --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Each call configures and builds perfbench/ (and the simulator's subsystem
libraries from src/ that it links) into .bench_build/perfbench; only the
first call compiles everything, later ones rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. With --trace 1 the spans are
written to .bench_spans/<workload>-seed<seed>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_spans")


def build():
    """Configure and build; returns the binary's path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        argv = [binary, "--selftest"]
    else:
        argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(SPANS, exist_ok=True)
            argv += ["--spans", os.path.join(
                SPANS, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so the benchmark's own timing starts with a
    # fresh process and nothing is left running behind it.
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
