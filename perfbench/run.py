#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The driver is compiled
(CMake, Release) from perfbench/ against the library sources under src/,
into .bench_build/perfbench/; later runs only rebuild what changed. The
driver's JSON result is printed as the last line of standard output; build
output and the driver's diagnostics go to standard error. Trace runs write
their spans to perfbench/out/trace-<workload>.json (Chrome trace-event
format, opens in a local Perfetto).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("fig2_stream", "fig2_fresh_net", "stencil_sweep")
# A run measures for --seconds, plus set-up, a warm-up and (traced) the
# probes; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src", "runtime")):
        print("perfbench: no library sources under src/; run from a checkout of "
              "the repository", file=sys.stderr)
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"] + generator,
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0 and os.path.exists(DRIVER)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds within 1..120")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, "trace-%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: driver failed with exit code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
