#!/usr/bin/env python3
"""Failing bench-trajectory regression gate.

Compares the fs_micro/syscall_micro/pipe_micro/proc_micro JSON a CI run
just produced against the committed baseline (bench/baselines/, recorded
from smoke-tier runs). Metrics that regressed past the threshold emit
GitHub error annotations and fail the job: a rate row (unit ending in
`/s`, such as MB/s or Mops/s) regresses when it falls, every other row
when it rises. Protocol-bound ratio metrics (Atomics notifies per ring
call) are checked against hard ceilings instead of a relative threshold,
and the scheduler's 10k-live-guest latency/thread metrics (flat
proc_*_p99_us keys, emitted only by full-tier proc_micro runs — the CI
stress job) are gated against absolute ceilings whenever present.

Usage: check_trajectory.py <results-dir> <baseline-dir> [threshold]
                           [--only bench[,bench...]]

threshold is the allowed ratio current/baseline, or baseline/current for
a rate row (default 4.0: many smoke-tier numbers come from a single
un-warmed iteration on shared CI runners, so only order-of-magnitude
regressions are worth failing on). --only restricts the gate to the
named benches — the CI stress job uses it to gate just its full-tier
proc_micro results.
"""
import json
import os
import sys

BENCHES = (
    "fs_micro",
    "syscall_micro",
    "pipe_micro",
    "proc_micro",
    "http_serve",
    "awfy",
)

# Throughput/latency metrics where a higher value is a regression. Ratio
# metrics (notifies per call, messages per burst) are capped separately:
# they are scheduling-dependent but bounded by the protocol, so a hard
# ceiling beats a relative one.
RATIO_CEILINGS = {
    # The smoke tier stages a tiny tree (2 dirs x 8 files), so its
    # per-directory chunks amortize less than the full run's 0.19.
    "ls_batch_notifies_per_call": 0.7,
    "writev_batch8_notifies_per_call": 0.25,
    # The deferral-protocol acceptance line: batched submits plus
    # deferred CQEs (each paying its own notify) must stay under one
    # notify per two ring calls. The full run sits near 0.43, the smoke
    # tier near 0.2.
    "pipeline_ring_notifies_per_call": 0.5,
    # The server-shaped leg (parked accepts -> epoll interest list ->
    # kernel-side sendfile) holds the same line: full run near 0.29,
    # smoke tier near 0.42.
    "server_ring_notifies_per_call": 0.5,
    # Connection-scale serving (http_serve): one epoll wake plus one
    # batched read/writev pair per request leaves the smoke tier near
    # 4.7 notifies per request; a per-connection or per-call notify
    # pattern would push this past the tens.
    "http_notifies_per_request": 8.0,
    # emvm execution-tier acceptance lines (bench_awfy). These are wall
    # time ratios of tiered runs against the base interpreter measured in
    # the same process, so machine speed cancels out; each ratio is the
    # median over eleven interleaved rounds of that round's tier/base
    # time (see bench/awfy.cc), which holds run-to-run spread to a few
    # percent. The geomean trace ceiling of 0.5 IS the tentpole
    # acceptance criterion — the fused+trace tiers must keep a >=2x
    # geomean speedup over base. Smoke-tier measurements sit at
    # 0.41-0.45 geomean (full tier: ~0.42), so the ceiling carries
    # 12%+ headroom for shared-runner jitter while still failing any
    # change that costs the tiers a real fraction of their win.
    "awfy_geomean_trace_vs_base": 0.5,
    "awfy_geomean_fused_vs_base": 0.62,
    # Per-kernel lines (smoke max over 12 runs → ceiling): loop-dominated
    # kernels trace well (sieve/nbody/json 0.28-0.36); the call-heavy
    # pair deopts at every CALL and effectively runs the fused tier
    # (richards <=0.56, permute <=0.73).
    "awfy_sieve_trace_vs_base": 0.5,
    "awfy_nbody_trace_vs_base": 0.5,
    "awfy_richards_trace_vs_base": 0.72,
    "awfy_permute_trace_vs_base": 0.9,
    "awfy_json_trace_vs_base": 0.5,
    # Fused dispatches per original instruction retired: deterministic
    # for a given translator (0.587 across the suite). A ceiling of 0.65
    # fails any change that stops superinstructions from swallowing the
    # hot dispatch pairs.
    "emvm_fused_dispatch_ratio": 0.65,
    # Scheduler steps per ms of emvm compute inside a guest (pipe_micro's
    # typeset guest under fast(), where only that guest steps the pool).
    # A guest gives its pool thread up once per 1 ms host-time quantum,
    # so this reads ~1; yielding at every 4096-instruction interrupt
    # check, as before the quantum, read ~160.
    "typeset_guest_steps_per_ms": 4.0,
}

# Absolute ceilings for the worker-pool scheduler's headline numbers,
# recorded only by full-tier proc_micro runs at 10k live guests (smoke
# never reaches that scale, so these keys are simply absent there). The
# measured Release-build values are ~210us / ~25us / ~160us and 3
# threads; ceilings carry ~50x headroom for shared CI runners while
# still catching a return to thread-per-process (which would blow
# host_threads by 3 orders of magnitude and the p99s with it).
ABS_CEILINGS = {
    "proc_spawn_p99_us": 10000,
    "proc_wait4_p99_us": 2000,
    "proc_kill_p99_us": 10000,
    "host_threads": 64,
    # http_serve end-to-end request latency at the smoke tier (64
    # concurrent simulated connections): measured ~56ms p99 (dominated
    # by the connect-burst accept ramp); the ceiling catches a return
    # to per-request round-trips or a serving-loop stall.
    "http_p99_us": 2000000,
}

# Absolute ceilings for specific latency-histogram percentile rows —
# the promoted subset of the otherwise-informational "<prefix>.p50/.p99"
# rows (see the suffix skip below). Values carry ~50-100x headroom over
# the smoke-tier measurements so shared-runner jitter never trips them,
# while a protocol regression (a parked CQE charged to the syscall, a
# drain pass gone quadratic) still lands well past the line.
PCTL_CEILINGS = {
    # pipe_micro per-syscall dispatch->completion latency (smoke: p99s
    # of 3us read / 466us write / 4.6ms poll).
    "ring_read.p99": 50000,
    "ring_write.p99": 50000,
    "ring_poll.p99": 500000,
    "ring_epoll_wait.p99": 500000,
    "ring_sendfile.p99": 50000,
    # Ring drain-pass shape (http_serve): SQEs per productive pass is
    # bounded by per-ring capacity (64) times the handful of live rings
    # a pass may cover; pass wall time p99 measured ~tens of us.
    "ring_batch_depth.p99": 512,
    "ring_drain.p99": 100000,
}


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"::error::bench-trajectory: cannot read {path}: {e}")
        return None
    return {m["name"]: m for m in doc.get("metrics", [])}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    benches = BENCHES
    if "--only" in argv:
        i = argv.index("--only")
        benches = tuple(argv[i + 1].split(","))
        del argv[i : i + 2]
        unknown = [b for b in benches if b not in BENCHES]
        if unknown:
            print(f"::error::bench-trajectory: unknown bench {unknown}")
            return 2
    if len(argv) < 2:
        print(__doc__)
        return 2
    results_dir, baseline_dir = argv[0], argv[1]
    threshold = float(argv[2]) if len(argv) > 2 else 4.0

    failed = 0
    compared = 0
    for bench in benches:
        cur = load(os.path.join(results_dir, f"{bench}.json"))
        base = load(os.path.join(baseline_dir, f"{bench}.json"))
        if cur is None or base is None:
            failed += 1
            continue
        for name, m in sorted(cur.items()):
            value = m["value"]
            if name in RATIO_CEILINGS:
                compared += 1
                ceiling = RATIO_CEILINGS[name]
                if value > ceiling:
                    failed += 1
                    print(
                        f"::error::bench-trajectory {bench}/{name}: "
                        f"{value:.3g} exceeds protocol ceiling {ceiling}"
                    )
                continue
            if name in ABS_CEILINGS:
                compared += 1
                ceiling = ABS_CEILINGS[name]
                if value > ceiling:
                    failed += 1
                    print(
                        f"::error::bench-trajectory {bench}/{name}: "
                        f"{value:.6g}{m.get('unit', '')} exceeds absolute "
                        f"ceiling {ceiling}"
                    )
                continue
            if name in PCTL_CEILINGS:
                compared += 1
                ceiling = PCTL_CEILINGS[name]
                if value > ceiling:
                    failed += 1
                    print(
                        f"::error::bench-trajectory {bench}/{name}: "
                        f"{value:.6g}{m.get('unit', '')} exceeds "
                        f"percentile ceiling {ceiling}"
                    )
                continue
            b = base.get(name)
            if b is None or b["value"] <= 0 or m.get("unit") == "ratio":
                continue
            # Histogram rows are informational, not gated: percentiles
            # are microsecond-scale from one un-warmed iteration, and
            # .count is workload size, which legitimately differs between
            # the smoke and full tiers (the stress job gates full-tier
            # results against this same smoke baseline).
            if name.rsplit(".", 1)[-1] in (
                "p50",
                "p99",
                "mean",
                "max",
                "count",
            ):
                continue
            compared += 1
            unit = m.get("unit", "")
            # A rate (MB/s, Mops/s) is higher-is-better: it regresses
            # when it falls, so gate the inverse ratio.
            if unit.endswith("/s"):
                ratio = b["value"] / value if value > 0 else float("inf")
                change = f"1/{ratio:.2f} of"
            else:
                ratio = value / b["value"]
                change = f"{ratio:.2f}x"
            if ratio > threshold:
                failed += 1
                print(
                    f"::error::bench-trajectory {bench}/{name}: "
                    f"{value:.6g}{unit} is {change} the baseline "
                    f"{b['value']:.6g} (threshold {threshold}x)"
                )
    print(
        f"bench-trajectory: compared {compared} metrics, "
        f"{failed} failure(s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
