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
inclusion of their reachable intervals.  Every function here accepts
finite coordinates with |a_j| <= 1e3 and reduces them into the Weyl
chamber first.
"""

from __future__ import annotations

import enum
import math

from typing import NamedTuple

from .canonical import _HALF_PI, _by_magnitude
from .states import _concurrence

__all__ = [
    "PowerInterval",
    "GateOrdering",
    "saturation_condition",
    "effective_angle",
    "power_interval",
    "power_profile",
    "c0_max",
    "c1_min",
    "can_reach_max",
    "can_reach_zero",
    "compare_gates",
]

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


def saturation_condition(alpha) -> bool:
    """True if the gate reaches both concurrence 0 and 1 from any input.

    Both reach rules at the worst inputs: c0_max reaches 1 and c1_min
    reaches 0, so theta is pi/2 within ~1e-12 and the CNOT class qualifies.
    """
    theta = effective_angle(alpha)
    return _reaches_max(_interval(0.0, theta)) and _reaches_zero(_interval(1.0, theta))


def effective_angle(alpha) -> float:
    """The angle by which the gate can rotate arccos(concurrence).

    The paper's three cases (2 (a1 + a2), pi/2 when saturating, and
    2 (pi/2 - a2 - |a3|)) are one clamped minimum.
    """
    # reduce_alpha only flips signs of the floats _by_magnitude gives, so the chamber
    # representative's a1, a2, |a3| are their magnitudes (+0.0 where it keeps a -0.0).
    a1, a2, a3 = _by_magnitude(alpha)
    a2 = abs(a2)
    return max(min(2.0 * (abs(a1) + a2), 2.0 * (_HALF_PI - a2 - abs(a3)), _HALF_PI), 0.0)


def _interval(c0: float, theta: float) -> PowerInterval:
    """``power_interval`` at a checked c0 and the gate's theta; c0 comes first, as it is checked first."""
    phi = math.acos(c0)
    cos_t, sin_t, root = math.cos(theta), math.sin(theta), math.sqrt(1.0 - c0 * c0)  # c0 * c0 <= 1 in floats
    c_max = 1.0 if phi <= theta else min(max(c0 * cos_t + sin_t * root, c0), 1.0)
    c_min = 0.0 if phi + theta >= _HALF_PI else max(min(c0 * cos_t - sin_t * root, c0), 0.0)
    return PowerInterval(c_min, c_max)


# One 1e-12 slack: the reach rules on an interval's ends, the order rule on thetas (ends are 1-Lipschitz in theta).
def _reaches_max(interval: PowerInterval) -> bool:
    return interval.c_max >= 1.0 - _BOUNDARY_SLACK


def _reaches_zero(interval: PowerInterval) -> bool:
    return interval.c_min <= _BOUNDARY_SLACK


def _order(theta_a: float, theta_b: float) -> GateOrdering:
    if abs(theta_a - theta_b) <= _BOUNDARY_SLACK:
        return GateOrdering.EQUAL
    return GateOrdering.LESS if theta_a < theta_b else GateOrdering.GREATER


def power_interval(alpha, c0: float) -> PowerInterval:
    """Reachable interval of final concurrence for input concurrence c0.

    Evaluates cos(arccos(c0) -+ theta) through the angle-addition identity
    c0*cos(theta) +- sin(theta)*sqrt(1 - c0^2), which keeps the clamped
    endpoints (0 and 1) and the theta = 0 case exact in floating point.
    Whether an endpoint clamps is decided on the angles: sin(theta) rounds
    to 1 within ~1e-8 of pi/2, where c_min at c0 = 1 is still cos(theta).
    """
    return _interval(_concurrence(c0), effective_angle(alpha))


def power_profile(alpha, c0s) -> list[PowerInterval]:
    """``[power_interval(alpha, c0) for c0 in c0s]`` bit for bit, errors included, with theta taken once.

    The first c0 is checked before alpha; an empty grid gives [] and leaves alpha unread.
    """
    intervals, theta = [], None
    for c0 in c0s:
        c0 = _concurrence(c0)
        theta = effective_angle(alpha) if theta is None else theta
        intervals.append(_interval(c0, theta))
    return intervals


def c0_max(alpha) -> float:
    """Largest final concurrence reachable from a product state: sin(theta)."""
    return _interval(0.0, effective_angle(alpha)).c_max


def c1_min(alpha) -> float:
    """Smallest final concurrence reachable from a maximally entangled state: cos(theta)."""
    return _interval(1.0, effective_angle(alpha)).c_min


def can_reach_max(alpha, c0: float) -> bool:
    """True if the final state can be maximally entangled: c_max lies within 1e-12 of 1."""
    return _reaches_max(power_interval(alpha, c0))


def can_reach_zero(alpha, c0: float) -> bool:
    """True if the final state can be a product state: c_min lies within 1e-12 of 0."""
    return _reaches_zero(power_interval(alpha, c0))


def compare_gates(alpha_a, alpha_b) -> GateOrdering:
    """Order two gates by inclusion of their reachable intervals.

    Compares effective angles: EQUAL when they agree within 1e-12, so the
    intervals agree within the reach rules' 1e-12 slack at every input concurrence.
    """
    return _order(effective_angle(alpha_a), effective_angle(alpha_b))
