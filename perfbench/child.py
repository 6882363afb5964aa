"""One workload process of the benchmark; started by ``run.py``, never directly.

Modes:
    setup    build the inputs, warm up, report the set-up times and exit
    measure  set up, then time whole blocks of ops for --seconds, untraced
    trace    trace every workload for a fixed number of ops and report the
             per-layer metrics; time --workload untraced and traced on the
             same ops for the tracing overhead
    count    count Python-level calls of one oracle search and one
             decompose with sys.setprofile, after a warm-up

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import gatepower
from gatepower import canonical, oracle

import refspeed
import tracer
import workloads

# End of the import phase of set-up: interpreter start, numpy, gatepower.
IMPORTED = time.monotonic()
WORKLOADS = ("classify", "verify", "cli")
# Ops per workload in the traced run: 20 classify blocks, one verify
# round (88 searches), two passes over the cli argv list.
TRACED_OPS = {"classify": 2000, "verify": 44, "cli": 400}
# Rows the oracle descends per search: the configured starts plus the 12
# magic-basis pair states (6 pairs x 2 phase signs).
PAIR_STARTS = 12


def _timed(wl, inp):
    t0 = time.perf_counter()
    try:
        outcome = (wl.run(inp), None)
    except Exception as exc:  # the check decides whether this error is expected
        outcome = (None, exc)
    return time.perf_counter() - t0, outcome


def warm_up(name: str, wl) -> None:
    if name == "verify":
        alpha = wl.ops[0][1]
        oracle.extremal_concurrence(
            alpha, 0.5, oracle.Direction.MAX, oracle.OptimizerConfig(starts=4, max_iterations=20)
        )
        return
    for inp in wl.ops[: wl.unit] if name == "classify" else wl.ops:
        wl.check(inp, _timed(wl, inp)[1])


def setup(name: str, seed: int, workdir: str):
    wl = workloads.make(name, seed, workdir)
    warm_up(name, wl)
    return wl


def setup_times(spawned: float, ready: float) -> dict:
    """Set-up split at the end of the imports, and the host's kernel time
    right after it; run.py scales each part by its own reference."""
    return {"import_s": IMPORTED - spawned, "build_s": ready - IMPORTED,
            "kernel_s": refspeed.median_kernel()}


def measure(name: str, seed: int, seconds: float, workdir: str, spawned: float) -> dict:
    wl = setup(name, seed, workdir)
    times = setup_times(spawned, time.monotonic())
    lat, segments, status = [], [], {workloads.OK: 0, workloads.FAILED: 0, workloads.WRONG: 0}
    kept = {}
    repeat = seed % wl.unit if name == "verify" else None
    probe = refspeed.Probe()
    pos, start = 0, time.perf_counter()
    while True:
        for _ in range(wl.unit):
            inp = wl.ops[pos % len(wl.ops)]
            segments.append(probe.segment)
            dt, outcome = _timed(wl, inp)
            probe.after_op(dt)
            lat.append(dt)
            status[wl.check(inp, outcome)] += 1
            if pos == repeat:
                kept[pos] = outcome
            pos += 1
        if time.perf_counter() - start >= seconds:
            break
    repeat_ok = True
    if repeat is not None:
        again = _timed(wl, wl.ops[repeat])[1]
        first = kept[repeat]
        repeat_ok = first[1] is None and again[1] is None and wl.same(first[0], again[0])
    lat = np.array(lat)
    scaled = lat * probe.scale(segments)
    return {
        "setup": times,
        "attempted": lat.size,
        "failed": status[workloads.FAILED] + status[workloads.WRONG],
        "wrong": status[workloads.WRONG],
        "repeat_ok": repeat_ok,
        "ops_per_ref_s": lat.size / float(scaled.sum()),
        "op_ref_ms_p50": float(np.median(scaled)) * 1e3,
        "ops_per_s": lat.size / float(lat.sum()),
        "op_ms_p50": float(np.median(lat)) * 1e3,
        "op_ms_p99": float(np.percentile(lat, 99)) * 1e3,
        "ref_ms_p50": probe.median_s() * 1e3,
        "timed_s": float(lat.sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _pass(wl, n: int, trc: tracer.Tracer | None):
    """Run the first n ops (cycling); returns (reference seconds, statuses)."""
    lat, segments, statuses = [], [], []
    probe = refspeed.Probe()
    for i in range(n):
        inp = wl.ops[i % len(wl.ops)]
        segments.append(probe.segment)
        if trc is None:
            dt, outcome = _timed(wl, inp)
        else:
            root = trc.begin_op(i)
            try:
                dt, outcome = _timed(wl, inp)
            finally:
                trc.end_op(root)
            dt = root[tracer.END] - root[tracer.START]
        probe.after_op(dt)
        lat.append(dt)
        statuses.append(wl.check(inp, outcome))
    return float(np.dot(lat, probe.scale(segments))), statuses


def _typed(exc) -> bool:
    return type(exc).__module__.split(".")[0] == "gatepower"


def trace(name: str, seed: int, workdir: str) -> dict:
    wls = {w: setup(w, seed, workdir) for w in WORKLOADS}
    untraced, _ = _pass(wls[name], TRACED_OPS[name], None)
    found, statuses, totals = {}, [], {}
    for w in WORKLOADS:
        trc = tracer.Tracer()
        trc.install()
        try:
            totals[w], st = _pass(wls[w], TRACED_OPS[w], trc)
        finally:
            trc.uninstall()
        statuses += st
        trc.write(os.path.join(workdir, f"spans-{w}-seed{seed}.csv.gz"))
        found[w] = tracer.Analysis(trc.spans)
    c, v, cl = found["classify"], found["verify"], found["cli"]
    searches = v.extras["oracle.extremal_concurrence"]
    starts = oracle.OptimizerConfig().starts + PAIR_STARTS
    errors = c.top_errors["canonical"]
    metrics = {
        "linalg.calls_per_op": c.per_op(c.calls["linalg"]),
        "linalg.self_us_per_op": c.per_op(c.self_s["linalg"]) * 1e6,
        "canonical.decompose_us_p50": c.pct("canonical.decompose", 50, 1e6),
        "canonical.decompose_us_p99": c.pct("canonical.decompose", 99, 1e6),
        "canonical.self_us_per_op": c.per_op(c.self_s["canonical"]) * 1e6,
        "canonical.rejects": sum(1 for e in errors if _typed(e)),
        "canonical.untyped_errors": sum(1 for e in errors if not _typed(e)),
        "power.calls_per_op": c.per_op(c.calls["power"]),
        "power.self_us_per_op": c.per_op(c.self_s["power"]) * 1e6,
        "states.samples_per_op": v.per_op(len(v.durations["states.sample_state_with_concurrence"])),
        "states.sample_us_p50": v.pct("states.sample_state_with_concurrence", 50, 1e6),
        "oracle.search_ms_p50": v.pct("oracle.extremal_concurrence", 50, 1e3),
        "oracle.search_ms_p90": v.pct("oracle.extremal_concurrence", 90, 1e3),
        "oracle.self_ms_per_op": v.per_op(v.self_s["oracle"]) * 1e3,
        "oracle.converged_ratio": sum(conv for conv, _ in searches) / len(searches),
        "oracle.agree_ratio": sum(agree for _, agree in searches) / (len(searches) * starts),
        "cli.self_us_per_op": cl.per_op(cl.self_by_name["cli.main"]) * 1e6,
        "cli.resolve_us_p50": cl.pct("cli.resolve_gate", 50, 1e6),
        "trace.overhead_ratio": totals[name] / untraced - 1.0,
    }
    return {
        "metrics": metrics,
        "attempted": len(statuses),
        "failed": sum(s != workloads.OK for s in statuses),
        "wrong": statuses.count(workloads.WRONG),
        "accounts_for_wall": all(a.accounts_for_wall() for a in found.values()),
        "layer_share": {w: a.layer_share() for w, a in found.items()},
    }


def _count_calls(fn) -> int:
    n = 0

    def prof(frame, event, arg):
        nonlocal n
        if event == "call" or event == "c_call":
            n += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


def count(seed: int) -> dict:
    alpha = workloads.Verify(seed).ops[0][1]
    u = next(u for kind, u, _ in workloads.Classify(seed).ops if kind == "haar")
    cfg = oracle.OptimizerConfig(seed=seed)

    def search():
        oracle.extremal_concurrence(alpha, 0.5, oracle.Direction.MAX, cfg)

    def decompose():
        canonical.decompose(u)

    search()  # the first call in a process takes extra one-time paths
    decompose()
    return {"pycalls_per_search": _count_calls(search), "pycalls_per_decompose": _count_calls(decompose)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace", "count"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    args = ap.parse_args()
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(gatepower.__file__).startswith(src + os.sep):
        print(f"gatepower imported from {gatepower.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    if args.mode == "setup":
        setup(args.workload, args.seed, args.workdir)
        out = setup_times(args.spawned, time.monotonic())
    elif args.mode == "measure":
        out = measure(args.workload, args.seed, args.seconds, args.workdir, args.spawned)
    elif args.mode == "trace":
        out = trace(args.workload, args.seed, args.workdir)
    else:
        out = count(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
