#!/usr/bin/env python3
"""Build and run the layered service benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload replay-bulk --seed 1 \
        --seconds 10 --trace 0

Configures and builds servebench/CMakeLists.txt (the repository's
libraries, the shipped `teadbt` CLI and the `servebench` program) into
`.bench_build/servebench`, then runs it. Build output goes to
standard error; the program's last line of standard output is the JSON
result. The program keeps its input cache, server stores and span dumps
under `.bench_build/servebench-work`. Exits non-zero without a result
when the build fails, for example when the repository sources are not
next to this directory.
"""

import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORK = os.path.join(ROOT, ".bench_build", "servebench-work")
PR_SET_PDEATHSIG = 1


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4",
                    "--target", "teadbt", "servebench"],
                   stdout=sys.stderr, check=True)


def die_with_parent():
    """In the child: get SIGTERM when this script dies, so a killed run
    stops the program, releases its work-directory lock and takes its
    servers (which die with it) down."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    program = os.path.join(BUILD, "servebench")
    teadbt = os.path.join(BUILD, "tools", "teadbt")
    args = [program, *sys.argv[1:], "--teadbt", teadbt, "--work", WORK]
    return subprocess.run(args, preexec_fn=die_with_parent).returncode


if __name__ == "__main__":
    sys.exit(main())
