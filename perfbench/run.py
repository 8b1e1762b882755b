#!/usr/bin/env python3
"""Build and run the paratime benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune in
release mode into .bench_build/, then runs it with the same arguments;
its last stdout line is the JSON result.  Exits nonzero, printing no
result, when the build or the run fails.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "-j", "2", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    run = subprocess.Popen([exe] + sys.argv[1:])
    try:
        return run.wait(timeout=170)
    except subprocess.TimeoutExpired:
        run.kill()
        run.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
