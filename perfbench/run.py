#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_local|serve_remote
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in the libraries and tools/shard_server) under
.bench_build/; later calls only re-run the incremental build. The last
line of stdout is the benchmark's JSON result. Scratch data goes to
.bench_build/tmp/ and is removed; traced runs leave their per-layer JSON
and Chrome trace in .bench_out/.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A first run (build + run) must end within 900 s, any later run in 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no influmax sources next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build failed: %s" % err)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def remove_dead_work_dirs(tmp_root):
    """Removes the scratch directories of runs whose run.py was killed
    before it could remove them itself (they are named by its pid)."""
    if not os.path.isdir(tmp_root):
        return
    for name in os.listdir(tmp_root):
        if name.isdigit():
            try:
                os.kill(int(name), 0)
                continue  # still running
            except ProcessLookupError:
                pass
            except PermissionError:
                continue
        shutil.rmtree(os.path.join(tmp_root, name), ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve_local", "serve_remote"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    tmp_root = os.path.join(ROOT, ".bench_build", "tmp")
    remove_dead_work_dirs(tmp_root)
    work_dir = os.path.join(tmp_root, str(os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--server_bin=" + os.path.join(BUILD_DIR, "influmax",
                                          "shard_server"),
           "--work_dir=" + work_dir,
           "--out_dir=" + os.path.join(ROOT, ".bench_out")]
    # Own process group, so a timeout or a signal stops the benchmark and
    # every shard_server it started.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)

    # SIGTERM unwinds through the finally below like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
        return 3
    finally:
        # Whatever the exit path: no process of the group outlives this
        # script, and the generation directories go with them.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
