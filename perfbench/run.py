#!/usr/bin/env python3
"""Builds graped, grape-worker and the load generator from source, then runs
one benchmark run and passes its output through.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Build products go to $CARGO_TARGET_DIR
(default .bench_build).  The last line of standard output is the run's JSON
result; build logs go to standard error.  Every process the run starts is
stopped and waited for before this script exits.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/daemon")):
        fail("run from the repository root: the daemon sources are missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "grape-daemon", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for step in steps:
        if subprocess.run(step, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def group_alive(pgid):
    """Whether any live (non-zombie) process is still in process group `pgid`."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)
    bin_dir = os.path.join(target, "release")
    command = [
        os.path.join(bin_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", bin_dir,
    ]
    sys.stdout.flush()
    # Its own process group, so the daemon and its workers can be stopped
    # as one even if the run dies half-way.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        stop_group(child.pid)
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
