"""Host speed probe: a fixed kernel timed between the ops of a run.

The benchmark host is shared, and its speed moves by 10-30% within
minutes (a busy SMT sibling, frequency changes).  This kernel does the
same kind of work as gatepower, 4x4 complex ``eigh``/``svd``/matmul plus
interpreter-bound Python.  Dividing an op's time by the kernel's time
measured around it removes most of that drift.  Over an 80 s window,
1.5 s medians of classify block time moved with CV 0.185, and their ratio
to the kernel with CV 0.057.

Times scaled this way are in reference units: ``ref_ms`` and ``ref_s`` are
milliseconds and seconds of a host on which the kernel takes exactly
``NOMINAL_S``, about its median on the 2-core host this was written on.

Set-up time is scaled in two parts.  Process start and imports are scaled
by a reference process that starts Python and imports numpy, timed by the
parent right around each set-up process (``SPAWN_CODE``, nominal
``NOMINAL_SPAWN_S``).  Input generation and warm-up are scaled by the
kernel, timed in the set-up process right after them.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 2.0e-3
# What the reference process runs, and its wall time on the reference host.
SPAWN_CODE = "import numpy"
NOMINAL_SPAWN_S = 0.16
# Op time between probes; after longer ops the probe runs up to 5 times.
EVERY_S = 0.04

_rng = np.random.default_rng(20261017)
_H = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H = _H + _H.conj().T
_M = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        _, v = np.linalg.eigh(_H)
        _, _, vh = np.linalg.svd(_M)
        acc += float(np.abs(np.trace(v @ _M @ vh)))
        acc += sum(i * 0.5 for i in range(30))
    return time.perf_counter() - t0


def median_kernel(n: int = 9) -> float:
    """Median wall time of n kernel runs, in seconds."""
    return float(np.median([kernel() for _ in range(n)]))


class Probe:
    """Runs the kernel after every ``EVERY_S`` of op time.

    The ops between two probe runs form a segment; ``scale`` gives each op
    the factor ``NOMINAL_S / median(kernel times of the probe runs just
    before and just after its segment)``.
    """

    def __init__(self):
        self.runs = [[kernel()]]
        self._since = 0.0

    @property
    def segment(self) -> int:
        """Segment of the next op."""
        return len(self.runs) - 1

    def after_op(self, dt: float) -> None:
        self._since += dt
        if self._since >= EVERY_S:
            self.runs.append([kernel() for _ in range(min(5, int(self._since / EVERY_S)))])
            self._since = 0.0

    def scale(self, segments) -> np.ndarray:
        around = [np.median(sum(self.runs[k : k + 2], [])) for k in range(len(self.runs))]
        return NOMINAL_S / np.array(around)[np.asarray(segments)]

    def median_s(self) -> float:
        return float(np.median([t for run in self.runs for t in run]))
