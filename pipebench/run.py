#!/usr/bin/env python3
"""Builds pipebench from the checkout's sources and runs one workload.

Run from the repository root:

    python3 pipebench/run.py --workload compile|serve --seed N \\
        --seconds S --trace 0|1

The build goes to .bench_build/pipebench (configured once, then
incremental). The benchmark's last stdout line is its JSON result; build
output and the human-readable report go to stderr. With --trace 1 the
spans are also written to .bench_build/pipebench/trace-<workload>-<seed>.csv.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
EXE = os.path.join(BUILD, "pipebench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (first time) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("pipebench: the library sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pipebench",
                    "-j", str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return EXE


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["compile", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"pipebench: build failed: {err}")
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data", os.path.join(HERE, "corpus")]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.csv")]
    # The library's SLAT_* knobs (threads, caches, metrics) stay at their
    # defaults whatever the caller's environment holds.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLAT_")}
    try:
        result = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"pipebench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
