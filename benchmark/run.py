#!/usr/bin/env python3
"""Build and run the rebert end-to-end benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
benchmark/ (the repository's libraries, rebert_cli and the rebert_e2e
benchmark binary) into .bench_build/; later runs only check that the build
is up to date. rebert_e2e then replaces this process, so the workload runs
in one process. Its last line of standard output is the result JSON. See
benchmark/README.md.
"""

import fcntl
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
RUN_DIR = os.path.join(".bench_build", "run")
BUILD_TYPE = "RelWithDebInfo"


def build(bench_dir):
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    # One build at a time when runs overlap in the same checkout.
    with open(os.path.join(".bench_build", "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                      "--target", "rebert_e2e", "rebert_cli"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("benchmark build failed: %s\n" % " ".join(step))
                return False
    return True


def main():
    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    args = sys.argv[1:]
    if not all(flag in args for flag in ("--workload", "--seed", "--seconds", "--trace")):
        sys.stderr.write(__doc__)
        return 2
    if not build(bench_dir):
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    binary = os.path.join(BUILD_DIR, "rebert_e2e")
    cli = os.path.join(BUILD_DIR, "apps", "rebert_cli")
    sys.stdout.flush()
    os.execv(binary, [binary] + args + ["--cli", cli, "--run-dir", RUN_DIR])


if __name__ == "__main__":
    sys.exit(main())
