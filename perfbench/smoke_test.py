#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload in seconds.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --smoke on every workload of BENCHMARK.json,
untraced and traced, and checks that each run is correct with no
failed operation and prints exactly the metrics BENCHMARK.json names,
each with its unit. Also checks that perfbench/metrics.json maps every
per-layer metric, that the harness refuses inherited CMPSIM_* knobs and
that run.py scrubs them. Exit 0 when every check passes.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(BENCH_DIR, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_bench(workload, trace, env=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return done, None
    return done, json.loads(lines[-1])


def check_result(what, result, expected, errors):
    if result is None:
        errors.append("%s: no result" % what)
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (what, result["correct"], result["failed"]))
    if result["attempted"] < 1:
        errors.append("%s: attempted < 1" % what)
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append("%s: metrics %s, expected %s" %
                      (what, sorted(got), sorted(expected)))
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s: %s unit %r, expected %r" %
                          (what, name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append("%s: %s value %r" % (what, name, m.get("value")))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        targets = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    errors = []

    if set(targets["per_layer"]) != set(layers):
        errors.append("metrics.json per_layer != BENCHMARK.json per_layer")
    for name, t in targets["per_layer"].items():
        for metric in t["moves"]:
            if metric not in e2e:
                errors.append("metrics.json %s moves unknown %s" %
                              (name, metric))
        for wl in t["on"] + t.get("no_change_on", []):
            if wl not in workloads:
                errors.append("metrics.json %s names unknown workload %s" %
                              (name, wl))

    for wl in workloads:
        for trace, expected in ((0, e2e), (1, layers)):
            done, result = run_bench(wl, trace)
            what = "%s trace=%d" % (wl, trace)
            check_result(what, result, expected, errors)
            header = "held_out_seed=%d" % targets["held_out_seed"]
            if header not in done.stdout:
                errors.append("%s: harness does not name %s" % (what, header))
            print("%-28s %s" % (what, "ok" if result else "FAILED"),
                  flush=True)

    # Hermetic runs: run.py scrubs CMPSIM_* knobs, the harness itself
    # refuses to start with one set.
    env = dict(os.environ, CMPSIM_AUDIT="1")
    done, result = run_bench(workloads[0], 0, env)
    check_result("scrubbed run", result, e2e, errors)
    if "scrubbed inherited CMPSIM_AUDIT" not in done.stderr:
        errors.append("run.py did not report scrubbing CMPSIM_AUDIT")
    binary = os.path.join(load_run_module().build_root(), "perfbench",
                          "perfbench")
    done = subprocess.run([binary, "--workload", workloads[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0", "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60, check=False)
    if done.returncode != 2 or done.stdout.strip():
        errors.append("harness ran with CMPSIM_AUDIT set (exit %d)" %
                      done.returncode)

    for e in errors:
        print("FAIL " + e)
    print("smoke: %s" % ("ok" if not errors else "%d failures" % len(errors)))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
