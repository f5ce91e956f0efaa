#!/usr/bin/env python3
"""Repository benchmark for the language-equation solver.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, end to end
    python3 perfbench/run.py --check-refs    # validate the reference CSFs
    python3 perfbench/run.py --write-refs    # regenerate them

The worker (perfbench/bench.ml) is built from source with dune into the
build directory named by CARGO_TARGET_DIR (default .bench_build) and runs
one workload per process. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Per-layer
spans and counter deltas are written to
<build dir>/perfbench/trace-<workload>-seed<N>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["few-big-images", "many-small-images", "monolithic",
             "tight-budget"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build the worker from source; return the path of its executable."""
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s: run from a full checkout of the repository" % needed)
    bdir = build_dir()
    try:
        res = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", bdir,
             "./perfbench/bench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, bdir, "default", "perfbench", "bench.exe")


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def worker(exe, args, workdir):
    """Run the worker in a scratch directory; return its stdout lines."""
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env.pop("LESOLVE_FAULT", None)  # no injected faults in measured solves
    try:
        res = subprocess.run([exe, "--workdir", workdir] + args, cwd=ROOT,
                             env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("worker timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        fail("worker exited with code %d" % res.returncode)
    return res.stdout.splitlines()


def run_workload(exe, workload, seed, seconds, trace):
    out = os.path.join(ROOT, build_dir(), "perfbench")
    workdir = os.path.join(out, "run-%s-%d" % (workload, os.getpid()))
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--refs", os.path.join(HERE, "refs")]
    if trace:
        args += ["--trace-out",
                 os.path.join(out, "trace-%s-seed%d.json" % (workload, seed))]
    lines = worker(exe, args, workdir)
    if not lines:
        fail("worker printed nothing")
    result = json.loads(lines[-1])
    s = spec()
    if s is not None:
        want = {m["name"] for m in s["per_layer" if trace else "end_to_end"]}
        if set(result["metrics"]) != want:
            fail("metrics differ from BENCHMARK.json: %s"
                 % sorted(set(result["metrics"]) ^ want))
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check-refs", action="store_true")
    ap.add_argument("--write-refs", action="store_true")
    a = ap.parse_args()
    exe = build()
    refs = os.path.join(HERE, "refs")
    scratch = os.path.join(ROOT, build_dir(), "perfbench",
                           "refs-%d" % os.getpid())
    if a.check_refs or a.write_refs:
        flag = "--check-refs" if a.check_refs else "--write-refs"
        for line in worker(exe, [flag, refs], scratch):
            print(line)
        return
    seconds = a.seconds
    if seconds is None:
        s = spec()
        seconds = s["run_seconds"] if s else 10
    if a.workload:
        lines, _ = run_workload(exe, a.workload, a.seed, seconds, a.trace)
        for line in lines:
            print(line)
        return
    # every workload, each in its own process
    rows = []
    for w in WORKLOADS:
        lines, result = run_workload(exe, w, a.seed, seconds, a.trace)
        for line in lines[:-1]:
            print("[%s] %s" % (w, line))
        rows.append((w, result))
    for w, result in rows:
        print("%s: correct=%s attempted=%d failed=%d" % (
            w, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    if not all(r["correct"] and r["failed"] == 0 for _, r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
