#!/usr/bin/env python3
"""Builds and runs the ledger benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <tpcc|commit-durable|audit> \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs only re-check the build. Each run works in
its own data directory under .bench_build and removes it afterwards. The last
line of standard output is the JSON result printed by the benchmark. Traced
runs also write a Chrome trace to .bench_build/trace-<workload>-<seed>.json
and validate it with scripts/check_trace.py.

Exits non-zero without a result when the library sources are missing or the
build or the benchmark fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", "perfbench", "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target",
             "ledger_bench"],
            check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ledger_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt here: run from the root of a source "
            "checkout")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 3

    data_dir = os.path.join(build_root, "data",
                            f"{ns.workload}-{ns.seed}-{os.getpid()}")
    shutil.rmtree(data_dir, ignore_errors=True)
    cmd = [binary, "--workload", ns.workload, "--seed", str(ns.seed),
           "--seconds", str(ns.seconds), "--trace", str(ns.trace),
           "--data-dir", data_dir]
    trace_path = os.path.join(build_root,
                              f"trace-{ns.workload}-{ns.seed}.json")
    if ns.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode} and no result")
        return 5
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if ns.trace:
        checker = os.path.join("scripts", "check_trace.py")
        check = subprocess.run([sys.executable, checker, trace_path],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        print(check.stdout.rstrip("\n"))
        if check.returncode != 0:
            result["correct"] = False

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
