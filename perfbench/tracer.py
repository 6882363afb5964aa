"""Span tracing of gatepower from outside the package.

Every public function of ``linalg``, ``states``, ``canonical``, ``power``,
``oracle`` and ``cli`` is wrapped at every module attribute that binds it
(``gatepower.oracle.extremal_concurrence``,
``gatepower.canonical.distance_up_to_phase``, the package re-exports, ...),
so calls between modules are caught as well as calls from the benchmark.
A span is ``[name, start, end, parent, op, error, extra]`` and is kept in
memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "states", "canonical", "power", "oracle", "cli")
ROOT = "bench.op"

NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


def _observe_search(result):
    return (bool(result.converged), int(result.starts_agreeing))


# Results the analysis needs beyond timing, by span name.
OBSERVERS = {"oracle.extremal_concurrence": _observe_search}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:  # outside a timed op, e.g. in an output check
                return fn(*args, **kwargs)
            rec = self._open(name)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = exc
                raise
            finally:
                rec[END] = clock()
                self._stack.pop()
            if observe is not None:
                rec[EXTRA] = observe(out)
            return out

        return traced

    def install(self) -> None:
        """Replace each public function at every gatepower attribute binding it."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"gatepower.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets[fn] = self._wrap(f"{layer}.{attr}", fn)
        namespaces = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "gatepower"]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in targets:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, targets[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def begin_op(self, op: int) -> list:
        self._op = op
        rec = self._open(ROOT)
        rec[START] = time.perf_counter()
        return rec

    def end_op(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        self._op = -1

    def write(self, path: str) -> None:
        """Write spans as gzipped CSV: name,start_s,end_s,parent,op,error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op,error\n")
            for s in self.spans:
                err = "" if s[ERROR] is None else type(s[ERROR]).__name__
                fh.write(f"{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[OP]},{err}\n")


class Analysis:
    """Self times, call counts and durations from one list of spans."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        child = np.zeros(n)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.ops = sum(1 for s in spans if s[NAME] == ROOT)
        self.self_s = defaultdict(float)  # layer -> total self time
        self.self_by_name = defaultdict(float)  # span name -> total self time
        self.calls = defaultdict(int)  # layer -> span count
        self.durations = defaultdict(list)  # span name -> durations
        self.top_errors = defaultdict(list)  # layer -> errors leaving the layer
        self.extras = defaultdict(list)
        self.op_wall = defaultdict(float)
        self.op_self = defaultdict(float)
        self.min_self = 0.0
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            own = dur - child[i]
            self.min_self = min(self.min_self, own)
            layer = s[NAME].split(".")[0]
            self.self_s[layer] += own
            self.self_by_name[s[NAME]] += own
            self.calls[layer] += 1
            self.durations[s[NAME]].append(dur)
            self.op_self[s[OP]] += own
            if s[NAME] == ROOT:
                self.op_wall[s[OP]] += dur
            if s[EXTRA] is not None:
                self.extras[s[NAME]].append(s[EXTRA])
            parent_layer = spans[s[PARENT]][NAME].split(".")[0] if s[PARENT] >= 0 else None
            if s[ERROR] is not None and parent_layer != layer:
                self.top_errors[layer].append(s[ERROR])

    def accounts_for_wall(self) -> bool:
        """Per op, the self times of its spans sum to the op's wall time."""
        if self.min_self < -1e-9:
            return False
        return all(abs(self.op_self[op] - wall) <= 1e-9 * (1 + wall) for op, wall in self.op_wall.items())

    def layer_share(self) -> float:
        """Share of traced op wall time spent inside gatepower layers."""
        wall = sum(self.op_wall.values())
        return 1.0 - self.self_s[ROOT.split(".")[0]] / wall if wall else 0.0

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def pct(self, name: str, q: float, scale: float) -> float:
        d = self.durations.get(name)
        return float(np.percentile(d, q)) * scale if d else 0.0
