"""Benchmark of gatepower: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of a separate traced run.  Every workload process is
a fresh child, started one at a time with BLAS pinned to one thread; the
package is imported from ``src/`` of the checkout.  Outputs are checked;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("classify", "verify", "cli")
# Set-up is measured this many times per run; the median is reported.
SETUPS = 7
# A run must end within 180 s; children are killed past this budget.
BUDGET_S = 170
DEADLINE = time.monotonic() + BUDGET_S
E2E_UNITS = {"ops_per_ref_s": "1/ref_s", "op_ref_ms_p50": "ref_ms", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "linalg.calls_per_op": "count",
    "linalg.self_us_per_op": "us",
    "canonical.decompose_us_p50": "us",
    "canonical.decompose_us_p99": "us",
    "canonical.self_us_per_op": "us",
    "canonical.rejects": "count",
    "canonical.untyped_errors": "count",
    "power.calls_per_op": "count",
    "power.self_us_per_op": "us",
    "states.samples_per_op": "count",
    "states.sample_us_p50": "us",
    "oracle.search_ms_p50": "ms",
    "oracle.search_ms_p90": "ms",
    "oracle.self_ms_per_op": "ms",
    "oracle.converged_ratio": "ratio",
    "oracle.agree_ratio": "ratio",
    "oracle.pycalls_per_search": "count",
    "canonical.pycalls_per_decompose": "count",
    "cli.self_us_per_op": "us",
    "cli.resolve_us_p50": "us",
    "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str]) -> dict:
    """Run one child to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args, "--workdir", OUT]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=max(DEADLINE - spawned, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_reference() -> float:
    """Wall time of the reference process (Python start plus numpy import)."""
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", refspeed.SPAWN_CODE], cwd=ROOT, env=child_env(),
        capture_output=True, timeout=max(DEADLINE - t0, 1.0), check=True,
    )
    return time.monotonic() - t0


def scaled_setup(times: dict, spawn_ref_s: float) -> float:
    """Set-up time in seconds of the reference host.

    The import phase is scaled by the reference process timed around it,
    input generation and warm-up by the kernel timed right after them.
    """
    return (times["import_s"] * refspeed.NOMINAL_SPAWN_S / spawn_ref_s
            + times["build_s"] * refspeed.NOMINAL_S / times["kernel_s"])


def import_ms() -> float:
    """Cold self time of ``import gatepower.cli`` with numpy excluded, in ms.

    numpy is imported first, so every top-level entry ``-X importtime``
    prints after it belongs to the gatepower import.  Median of three.
    """
    code = "import numpy; import gatepower.cli"
    samples = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(DEADLINE - time.monotonic(), 1.0), check=True,
        )
        total, after_numpy = 0, False
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            top_level = not name[1:].startswith(" ")  # deeper imports are indented
            if top_level and after_numpy:
                total += int(cumulative)
            if top_level and name.strip() == "numpy":
                after_numpy = True
        samples.append(total / 1e3)
    return statistics.median(samples)


def machine_facts(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = "unknown (not a git checkout)"
    if os.path.isfile(head):
        ref = open(head, encoding="utf-8").read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                commit = open(path, encoding="utf-8").read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "seed": seed,
    }


def run_e2e(workload: str, seed: int, seconds: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    # Reference processes alternate with the set-up-only processes; each of
    # those is scaled by the mean of its two neighbours, the measured
    # process by the one just before it.
    refs = [spawn_reference()]
    times = []
    for _ in range(SETUPS - 1):
        times.append(spawn(["setup", *base]))
        refs.append(spawn_reference())
    spawn_refs = [(a + b) / 2 for a, b in zip(refs, refs[1:])] + [refs[-1]]
    res = spawn(["measure", *base, "--seconds", str(seconds)])
    times.append(res["setup"])
    setups = [scaled_setup(t, r) for t, r in zip(times, spawn_refs)]
    metrics = {k: res[k] for k in ("ops_per_ref_s", "op_ref_ms_p50", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return {
        "correct": res["wrong"] == 0 and res["repeat_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in E2E_UNITS.items()},
        # Printed but not in BENCHMARK.json: wall-clock figures follow the
        # shared host's speed, and a verify run has no ten samples beyond p99.
        "detail": {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": res["op_ms_p50"], "unit": "ms"},
            "op_ms_p99": {"value": res["op_ms_p99"], "unit": "ms"},
            "ref_ms_p50": {"value": res["ref_ms_p50"], "unit": "ms"},
            "fail_ratio": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
            "timed_s": {"value": res["timed_s"], "unit": "s"},
            "setup_wall_s": {"value": statistics.median(t["import_s"] + t["build_s"] for t in times), "unit": "s"},
            "setup_samples_s": [round(x, 4) for x in setups],
            "repeat_identical": res["repeat_ok"],
        },
    }


def run_trace(workload: str, seed: int) -> dict:
    res = spawn(["trace", "--workload", workload, "--seed", str(seed)])
    counts = [spawn(["count", "--workload", workload, "--seed", str(seed)]) for _ in range(2)]
    metrics = dict(res["metrics"])
    metrics["oracle.pycalls_per_search"] = counts[0]["pycalls_per_search"]
    metrics["canonical.pycalls_per_decompose"] = counts[0]["pycalls_per_decompose"]
    metrics["cli.import_ms"] = import_ms()
    counts_repeat = counts[0] == counts[1]
    return {
        "correct": res["wrong"] == 0 and counts_repeat and res["accounts_for_wall"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in LAYER_UNITS.items()},
        "detail": {"counts_repeat": counts_repeat, "accounts_for_wall": res["accounts_for_wall"],
                   "layer_share": res["layer_share"]},
    }


def report(workload: str, seed: int, trace: int, result: dict, facts: dict) -> None:
    """Print metrics by name and unit, and save the full result."""
    print(f"== {workload} (seed {seed}, trace {trace}) correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["detail"].items():
        if isinstance(value, dict) and "unit" in value:
            value = f"{value['value']:>14.6g} {value['unit']}  (not gated)"
        print(f"  {name:34s} {value}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "trace": trace, "machine": facts, **result}, fh, indent=2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gatepower", "__init__.py")):
        print(f"error: no gatepower sources under {SRC}", file=sys.stderr)
        return 2
    facts = machine_facts(args.seed)
    print("machine: " + json.dumps(facts))
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.trace:
            result = run_trace(workload, args.seed)
        else:
            result = run_e2e(workload, args.seed, args.seconds)
        report(workload, args.seed, args.trace, result, facts)
        results[workload] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
