#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload saturate --seed 1 --seconds 30 --trace 0

The harness (perfbench/main.exe) links the repository's libraries, so it
is built with dune into .bench_build/ first; build output goes to
standard error. The harness prints its log and, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics. The exit code is the harness's: non-zero when an
output check failed, or when the checkout does not hold the sources.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: run from the root of a full checkout "
            "(dune-project and lib/ are missing)",
            file=sys.stderr,
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "-j", "2", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    env = dict(os.environ)
    # The traced mode's GC event ring file goes to the build directory.
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(BUILD_DIR)
    proc = subprocess.Popen([EXE] + argv, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
