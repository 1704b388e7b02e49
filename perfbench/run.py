#!/usr/bin/env python3
"""Build and run cmpsim's benchmark harness (perfbench).

Usage, from the root of a cmpsim checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--smoke]

Builds the harness (perfbench/CMakeLists.txt: the simulator library
from src/ plus the harness, Release) under $CARGO_TARGET_DIR or
.bench_build, then runs it once in a fresh temporary directory inside
that build directory, with every inherited CMPSIM_* variable scrubbed
from its environment. The last line of standard output is the JSON
result: {"correct", "attempted", "failed", "metrics"}. Traced runs
(--trace 1) leave spans.json and layers.txt in
<build>/traces/<workload>-seed<N>/.

Workloads: detail_zeus, functional_mgrid, matrix_jbb_oltp (see
perfbench/workloads.h). Seed 4242 is held out: it is not used while
tuning the benchmark or a change, and is kept for the claim made after.

Exit codes: 0 = a result was printed; 2 = bad arguments; 3 = the
build failed (for example, no cmpsim sources next to perfbench/);
4 = the harness failed, timed out or printed no valid result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; leave headroom for start-up and clean-up.
HARNESS_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_root():
    """The build directory, kept inside the checkout."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.normpath(os.path.join(ROOT, target))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def hermetic_env():
    """The caller's environment minus every CMPSIM_* knob."""
    env = dict(os.environ)
    scrubbed = sorted(k for k in env if k.startswith("CMPSIM_"))
    for k in scrubbed:
        del env[k]
    if scrubbed:
        log("scrubbed inherited " + " ".join(scrubbed))
    return env


def build(env, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            return False
    return True


def source_digest():
    """sha256 over the sources the harness is built from."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(env):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def valid_result(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return (isinstance(obj, dict) and set(obj) == RESULT_KEYS
            and isinstance(obj["metrics"], dict) and obj["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every length so a run takes seconds")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = hermetic_env()
    root_build = build_root()
    build_dir = os.path.join(root_build, "perfbench")
    if not build(env, build_dir):
        log("build failed")
        return 3
    binary = os.path.join(build_dir, "perfbench")

    meta = {"git_sha": git_sha(env), "source_digest": source_digest(),
            "nproc": os.cpu_count(), "build_type": "Release"}
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)

    out_dir = os.path.join(root_build, "traces",
                           "%s-seed%d" % (args.workload, args.seed))
    if args.trace == "1":
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
    runs = os.path.join(root_build, "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-seed%d-" % (args.workload, args.seed),
                            dir=runs)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out_dir if args.trace == "1" else work]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=HARNESS_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log("harness timed out after %d s" % HARNESS_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        log("harness exited %d without a valid result" % done.returncode)
        return 4
    for line in lines:
        print(line)
    log("harness took %.1f s" % (time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
