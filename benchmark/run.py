#!/usr/bin/env python3
"""Build and run the DMP benchmark of record (dmpbench).

Usage, from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out PATH] [--smoke]

Builds benchmark/ (a standalone CMake project that pulls in the
repository) into .bench_build/dmpbench, then runs one measurement. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics, or with --trace 1
the per-layer ones. The full result, with every rep sample and the
run-time provenance, goes to --out (default
.bench_build/results/<workload>-seed<N>-trace<T>-<ns>.json); a traced
run also writes its Chrome trace next to it. Build output goes to
standard error. The exit code is 0 only when every output check passed.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dmpbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("fig09_grid", "serial_sim", "mark_lint", "observed_sim")


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def quiet(cmd, timeout):
    """Run a build step with its output on stderr; return its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources are not next to benchmark/; "
             "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if quiet(["cmake", "-S", HERE, "-B", BUILD], 300):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if quiet(["cmake", "--build", BUILD, "--target", "dmpbench",
              "-j", jobs], 840):
        fail("build failed")
    return os.path.join(BUILD, "dmpbench")


def git_state():
    """(HEAD sha, dirty flag) at run time, or unknown outside a clone."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    if head.returncode or status.returncode:
        return "unknown", "unknown"
    return head.stdout.strip(), "1" if status.stdout.strip() else "0"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="full result file")
    ap.add_argument("--smoke", action="store_true",
                    help="200 iterations, 2 programs, minimum reps")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    exe = build()
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.time_ns()}")
    out = args.out or os.path.join(RESULTS, stem + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    sha, dirty = git_state()
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out}",
           f"--golden={os.path.join(HERE, 'golden', 'seed0.json')}",
           f"--git-sha={sha}", f"--git-dirty={dirty}"]
    if args.trace:
        cmd.append(f"--trace={os.path.splitext(out)[0]}.trace.json")
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=args.seconds + 150,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        fail("dmpbench timed out", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
