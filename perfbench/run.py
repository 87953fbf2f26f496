#!/usr/bin/env python3
"""Builds the surfd benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
surf_cli and surfbench (Release) into .bench_build/; later runs rebuild
only what changed. Build output goes to .bench_build/build.log, run
files (CSV data, server logs) to .bench_build/work/ and Chrome traces to
.bench_build/out/. The last line of standard output is the JSON result.
`--smoke` shrinks the cluster dataset and the repetitions for tests;
`--selftest` checks that the correctness checks fire.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
# Each run must end within 180 s; the build of a fresh checkout is
# allowed longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "surfbench", "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die("build timed out; see .bench_build/build.log")
            if done.returncode != 0:
                with open(os.path.join(BUILD, "build.log")) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed; see .bench_build/build.log")


def stop_group(proc, sig):
    """Signals surfbench's process group and waits until it is empty."""
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        die("--workload is required")
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("no %s here: run from the root of a surf checkout" % needed)

    build()
    command = [os.path.join(BUILD, "surfbench"),
               "--work", os.path.join(BUILD, "work"),
               "--out", os.path.join(BUILD, "out"),
               "--commit", source_revision()]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    # Its own session, so a timeout can stop surfbench and every server
    # it started together.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc, signal.SIGKILL)
        die("surfbench exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        stop_group(proc, signal.SIGTERM)
        raise


if __name__ == "__main__":
    sys.exit(main())
