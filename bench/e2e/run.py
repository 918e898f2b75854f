#!/usr/bin/env python3
"""End-to-end Browsix benchmark runner.

    python3 bench/e2e/run.py [--workload latex|shell|http] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]

Builds build-e2e/browsix_e2e from source (cmake), runs each workload in
its own process, checks every output, prints every metric as
`name value unit`, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Untraced runs report the end-to-end metrics of BENCHMARK.json; traced
runs (--trace 1) its per-layer metrics and write a Chrome trace-event
file. With --out DIR each workload's result lands in DIR/<workload>.json.
Exits non-zero when an output check fails or the program cannot be built.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "browsix_e2e")
WORKLOADS = ("latex", "shell", "http")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then bring browsix_e2e up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no Browsix source tree at {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "browsix_e2e",
                      "-j", jobs])
        for cmd in steps:
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if p.returncode != 0:
                log(p.stdout[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, trace_out, smoke):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", "--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        log(p.stderr[-4000:])
        raise RuntimeError(f"browsix_e2e {workload} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def result_for(spec, raw, trace):
    """The contract line plus printable rows for one workload run."""
    e2e, classes, detail, layers = metrics.reduce_run(raw)
    problems = list(raw["failures"])
    if trace:
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = e2e
    out = {}
    for m in wanted:
        v = values.get(m["name"])
        if not finite(v) or (not trace and v <= 0):
            problems.append(f"metric {m['name']} not measured ({v})")
            continue
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    correct = raw["failed"] == 0 and len(problems) == len(raw["failures"])
    line = {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": out}
    return line, classes, detail, layers, problems


def run_workload(spec, args, workload):
    trace = args.trace
    trace_out = None
    if trace:
        trace_dir = args.out or os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir,
                                 f"{workload}-seed{args.seed}.trace.json")
    t0 = time.monotonic()
    raw = run_binary(workload, args.seed, args.seconds, trace, trace_out,
                     args.smoke)
    line, classes, detail, layers, problems = result_for(spec, raw, trace)
    log(f"{workload}: {raw['attempted']} operations, {raw['failed']} "
        f"failed, {time.monotonic() - t0:.1f} s")
    for p in problems:
        log(f"{workload}: CHECK FAILED: {p}")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not trace:
        for name, v in classes.items():
            print(f"{name} {v:.6g} ms")
        for name, v in detail.items():
            if finite(v):
                print(f"{name} {v:.6g}")
        if workload == "latex":
            print(f"  (paper: async/sync ~{metrics.PAPER_ASYNC_OVER_SYNC:g}x,"
                  f" sync/native ~{metrics.PAPER_SYNC_OVER_NATIVE:g}x)")
    else:
        # Per-layer metrics ride along in the trace, for Perfetto's info
        # panel and for anyone reading the file without run.py.
        with open(trace_out) as f:
            events = json.load(f)
        events["otherData"] = {m["name"]: layers.get(m["name"])
                               for m in spec["per_layer"]}
        with open(trace_out, "w") as f:
            json.dump(events, f)
        print(f"trace {os.path.relpath(trace_out, ROOT)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = dict(line, workload=workload, seed=args.seed,
                      seconds=args.seconds, trace=trace, classes=classes,
                      detail=detail, failures=problems)
        with open(os.path.join(args.out, f"{workload}.json"), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    return line


def parse_args(spec):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=("0", "1"))
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true",
                    help="one operation per workload, all checks on")
    args = ap.parse_args()
    args.trace = args.trace == "1"
    return args


def main():
    try:
        spec = load_spec()
    except OSError as e:
        log(f"run.py: {e}")
        return 2
    args = parse_args(spec)
    try:
        build()
    except (OSError, RuntimeError) as e:
        log(f"run.py: {e}")
        return 2
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            line = run_workload(spec, args, workload)
        except (OSError, RuntimeError, subprocess.TimeoutExpired,
                ValueError, KeyError) as e:
            log(f"run.py: {workload}: {e}")
            return 1
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
