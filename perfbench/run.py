#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; generated traces go to its work/ subdirectory. The
last line of standard output is the JSON result of the run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_grid", "scale_push", "survive_exact", "trace_analysis")
# A run measures for --seconds plus set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_quiet(cmd, timeout):
    """Runs a build step; its output is shown only when it fails."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("timed out: %s\n" % " ".join(cmd))
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("failed: %s\n" % " ".join(cmd))
        return False
    return True


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", out, "-j", jobs,
                      "--target", "realtor_perfbench"], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "realtor_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own instruments")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    work = os.path.join(build_dir(), "work")
    if args.self_test:
        cmd = [binary, "--self-test", "--work-dir", work]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--reference-dir", os.path.join(HERE, "reference"),
               "--work-dir", work]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("benchmark run timed out\n")
        return 1
    if args.self_test and code == 0:
        code = check_catalog(binary)
    return code


def check_catalog(binary):
    """The metric names the binary reports are the ones BENCHMARK.json lists."""
    listed = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    reported = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        group, name, unit = line.split()
        reported[group].append((name, unit))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for group in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[group]]
        same = declared == reported[group]
        print("%s %s: BENCHMARK.json lists the reported metrics"
              % ("PASS" if same else "FAIL", group))
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
