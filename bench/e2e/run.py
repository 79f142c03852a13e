#!/usr/bin/env python3
"""Build phi_bench from source and run one workload of it.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

The first call configures and builds the phi library and phi_bench into
.bench_build/ (Release); later calls rebuild only what changed. The
run's report is passed through, and the last line on stdout is its JSON
result {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics, or with --trace 1 the per-layer ones, whose Chrome trace is
written to .bench_build/traces/<workload>.trace.json.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def step(cmd):
    """Run a build step, its output on stderr; stop on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit(f"run.py: step failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: the repository sources (CMakeLists.txt, src/) "
                 "are missing; phi_bench builds from them")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"),
                     "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", str(BUILD), "--target", "phi_bench",
          "--parallel", "4"])
    return BUILD / "phi_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cmd = [str(build()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(BUILD / "traces")]
    try:
        # The artifact phi_bench compiles lands in its working directory.
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             cwd=BUILD, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: phi_bench did not finish in {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(f"run.py: phi_bench exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        sys.exit("run.py: phi_bench's last line is not a result object")
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")


if __name__ == "__main__":
    main()
