#!/usr/bin/env python3
"""Build and run the abdkit TCP benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the abdkit libraries from
src/) into .bench_build/perfbench and runs its self-tests; later runs only
rebuild what changed. The benchmark's stdout is passed through, so the last
line is the JSON result; build output goes to stderr. Exits nonzero, without
a result, when the build, the self-tests or the run fail.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("small_reads", "large_writes", "replica_down")
# The run itself must end well inside the three minutes a run is allowed.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "perfbench_tests", "-j", jobs],
        check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD, "perfbench_tests"), "--gtest_brief=1"],
                   check=True, stdout=sys.stderr)


def git_sha():
    """HEAD of the repository this file is in, or 'none' outside a git checkout."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "none"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the paths and contents of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build or self-test failed: {e}")

    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail(f"run failed with exit code {process.returncode}")


if __name__ == "__main__":
    main()
