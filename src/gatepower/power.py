"""Closed-form entanglement changing power of two-qubit gates.

For a gate with chamber coordinates (a1, a2, a3) acting, together with
arbitrary local unitaries, on a pure state of concurrence c0, the final
concurrence ranges over an interval [c_min, c_max].  The whole interval is
controlled by a single effective rotation angle theta in [0, pi/2]:

    c_max = cos(max(arccos(c0) - theta, 0))
    c_min = cos(min(arccos(c0) + theta, pi/2))

Gates satisfying a1 + a2 >= pi/4 and a2 + |a3| <= pi/4 have theta = pi/2
and can reach any final concurrence from any input; the swap class has
theta = 0 and changes nothing.  Ordering gates by theta orders them by
inclusion of their reachable intervals.
"""

from __future__ import annotations

import enum
import itertools
import math

from typing import NamedTuple

import numpy as np

from .canonical import eigen_phases

__all__ = [
    "PowerInterval",
    "GateOrdering",
    "saturation_condition",
    "effective_angle",
    "power_interval",
    "c0_max",
    "c1_min",
    "can_reach_max",
    "can_reach_zero",
    "compare_gates",
]

_QUARTER_PI = math.pi / 4.0
_BOUNDARY_SLACK = 1e-12


class PowerInterval(NamedTuple):
    """Reachable final concurrences [c_min, c_max] for one gate and c0."""

    c_min: float
    c_max: float


class GateOrdering(enum.Enum):
    """Order of gates by inclusion of their reachable intervals."""

    LESS = "<"
    EQUAL = "="
    GREATER = ">"


def _abs_a3(alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    a1, a2, a3 = float(a[0]), float(a[1]), abs(float(a[2]))
    if not (math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3)):
        raise ValueError(f"chamber coordinates must be finite, got {a.tolist()}")
    return np.array([a1, a2, a3])


def saturation_condition(alpha) -> bool:
    """True if the gate reaches both concurrence 0 and 1 from any input.

    Holds iff a1 + a2 >= pi/4 and a2 + |a3| <= pi/4 (non-strict, with a
    1e-12 slack so boundary gates such as the CNOT class qualify).
    """
    a1, a2, a3 = _abs_a3(alpha)
    return bool(a1 + a2 >= _QUARTER_PI - _BOUNDARY_SLACK and a2 + a3 <= _QUARTER_PI + _BOUNDARY_SLACK)


def effective_angle(alpha) -> float:
    """The angle by which the gate can rotate arccos(concurrence)."""
    a1, a2, a3 = _abs_a3(alpha)
    if saturation_condition(alpha):
        theta = math.pi / 2.0
    elif a1 + a2 < _QUARTER_PI:
        theta = 2.0 * (a1 + a2)
    else:
        theta = 2.0 * (math.pi / 2.0 - a2 - a3)
    return min(max(theta, 0.0), math.pi / 2.0)


def _clamp_c0(c0: float) -> float:
    if not -_BOUNDARY_SLACK <= c0 <= 1.0 + _BOUNDARY_SLACK:
        raise ValueError(f"initial concurrence must be in [0, 1], got {c0}")
    return min(max(c0, 0.0), 1.0)


def power_interval(alpha, c0: float) -> PowerInterval:
    """Reachable interval of final concurrence for input concurrence c0.

    Evaluates cos(arccos(c0) -+ theta) through the angle-addition identity
    c0*cos(theta) +- sin(theta)*sqrt(1 - c0^2), which keeps the clamped
    endpoints (0 and 1) and the theta = 0 case exact in floating point.
    """
    c0 = _clamp_c0(c0)
    theta = effective_angle(alpha)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    root = math.sqrt(max(1.0 - c0 * c0, 0.0))
    c_max = 1.0 if c0 >= cos_t else c0 * cos_t + sin_t * root
    c_min = 0.0 if c0 <= sin_t else c0 * cos_t - sin_t * root
    c_max = min(max(c_max, c0), 1.0)
    c_min = max(min(c_min, c0), 0.0)
    return PowerInterval(c_min=c_min, c_max=c_max)


def _pair_differences(alpha) -> list[float]:
    lam = eigen_phases(_abs_a3(alpha))
    return [lam[j] - lam[k] for j, k in itertools.combinations(range(4), 2)]


def c0_max(alpha) -> float:
    """Largest final concurrence reachable from a product state.

    One when the saturation condition holds, otherwise the maximum of
    |sin(l_j - l_k)| over eigenphase pairs.
    """
    if saturation_condition(alpha):
        return 1.0
    return max(abs(math.sin(d)) for d in _pair_differences(alpha))


def c1_min(alpha) -> float:
    """Smallest final concurrence reachable from a maximally entangled state.

    Zero when the saturation condition holds, otherwise the minimum of
    |cos(l_j - l_k)| over eigenphase pairs.
    """
    if saturation_condition(alpha):
        return 0.0
    return min(abs(math.cos(d)) for d in _pair_differences(alpha))


def can_reach_max(alpha, c0: float) -> bool:
    """True if the final state can be maximally entangled."""
    return _clamp_c0(c0) >= c1_min(alpha) - _BOUNDARY_SLACK


def can_reach_zero(alpha, c0: float) -> bool:
    """True if the final state can be a product state."""
    return _clamp_c0(c0) <= c0_max(alpha) + _BOUNDARY_SLACK


def compare_gates(alpha_a, alpha_b) -> GateOrdering:
    """Order two gates by inclusion of their reachable intervals.

    Equivalent to comparing effective angles; EQUAL implies the intervals
    agree at every input concurrence.
    """
    ta = effective_angle(alpha_a)
    tb = effective_angle(alpha_b)
    if abs(ta - tb) <= 1e-10:
        return GateOrdering.EQUAL
    return GateOrdering.LESS if ta < tb else GateOrdering.GREATER
