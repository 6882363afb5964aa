"""The closed forms against their defining formulas at 40 digits.

``power_interval`` evaluates cos(arccos c0 -+ theta) in double precision
through the angle-addition identity, and ``verify_profile``'s certified
check widens each bracket by 1e-12 to cover that rounding.  Here every
closed form, on a gate set and a c0 set fixed up front, is compared with

    c_min = cos(min(arccos c0 + theta, pi/2)),  c_max = cos(max(arccos c0 - theta, 0))

evaluated at 40 digits, theta taken at 40 digits from the float coordinates
of ``reduce_alpha(alpha)``.  An error above the widening is a defect in
the closed forms, not a bound to loosen.
"""

import math

import pytest

from test_edge_cases import facet_and_edge_points
from test_mutants import NEAR_HALF_PI
from test_oracle import GRID_11, VERIFY_ANCHORS, _named_gates
from gatepower import power_interval, reduce_alpha

mpmath = pytest.importorskip("mpmath", reason="the 40-digit reference needs mpmath (the test extra)")

# verify_profile's rounding margin of the closed forms (oracle._failed_checks).
WIDENING = 1e-12
C0S = [
    *GRID_11,
    *(1.0 - 10.0**-k for k in range(6, 16)),
    *(10.0**-k for k in range(6, 16)),
    math.nextafter(1.0, 0.0),
]


def _theta(alpha):
    """``effective_angle`` at the working precision, from the float chamber coordinates."""
    a1, a2, a3 = (abs(mpmath.mpf(float(x))) for x in reduce_alpha(alpha))
    half_pi = mpmath.pi / 2
    return max(min(2 * (a1 + a2), 2 * (half_pi - a2 - a3), half_pi), mpmath.mpf(0))


def test_power_interval_is_within_the_widening_of_its_40_digit_value():
    errors = []
    with mpmath.workdps(40):
        for alpha in [*VERIFY_ANCHORS.values(), *_named_gates(), *facet_and_edge_points(), *NEAR_HALF_PI]:
            theta = _theta(alpha)
            for c0 in C0S:
                phi = mpmath.acos(c0)
                exact = (mpmath.cos(min(phi + theta, mpmath.pi / 2)), mpmath.cos(max(phi - theta, 0)))
                for side, closed, value in zip(("c_min", "c_max"), power_interval(alpha, c0), exact):
                    errors.append((float(abs(closed - value)), side, tuple(map(float, alpha)), c0))
    worst = max(errors)
    print(f"worst of {len(errors)} closed forms: {worst[0]:.2g} ({worst[1]} of {worst[2]} at c0 = {worst[3]!r})")
    assert [e for e in errors if e[0] > WIDENING] == []
