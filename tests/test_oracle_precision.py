"""The oracle's certified bounds against 40-digit values.

At c0 = 1 the final amplitudes fill D(1), the hull of the four points
w_j = exp(2i l_j), so the extremal minimum C_min(1) is the distance from
the origin to that hull.  Here that distance is evaluated at 40 digits
from the float coordinates, on a gate set fixed up front, and MIN's bound
must not exceed it: a bound above the true minimum would fail correct
closed forms.  Below c0 = 1 the extrema are the paper's
cos(arccos c0 -+ theta), also at 40 digits, and neither bound may cross
them unwidened.  A violation is a defect in the bound, not a margin to
widen.
"""

import numpy as np
import pytest

from test_edge_cases import facet_and_edge_points
from test_oracle import GRID_11, SQRT_SWAP, VERIFY_ANCHORS, _named_gates
from test_power_precision import _theta
from gatepower import decompose, oracle, random_unitary, verify_profile

mpmath = pytest.importorskip("mpmath", reason="the 40-digit reference needs mpmath (the test extra)")


def _hull_distance(alpha):
    """Distance from 0 to the hull of the w_j, at the working precision."""
    a1, a2, a3 = (mpmath.mpf(float(x)) for x in alpha)
    w = [mpmath.expj(2 * lam) for lam in (-a1 + a2 + a3, a1 - a2 + a3, a1 + a2 - a3, -a1 - a2 - a3)]

    def cross(p, q):
        return (mpmath.conj(p) * q).imag

    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        sides = (cross(w[i], w[j]), cross(w[j], w[k]), cross(w[k], w[i]))
        # The origin lies in this triangle; one of zero area is covered by its edges.
        if sum(sides) != 0 and (min(sides) >= 0 or max(sides) <= 0):
            return mpmath.mpf(0)
    distances = []
    for i in range(4):
        for j in range(i, 4):
            e = w[j] - w[i]
            ee = abs(e) ** 2
            t = min(max(-(mpmath.conj(w[i]) * e).real / ee, 0), 1) if ee else 0
            distances.append(abs(w[i] + t * e))
    return min(distances)


def _audited_gates():
    rng = np.random.default_rng(5)
    near_sqrt_swap = []
    for _ in range(60):
        direction = rng.standard_normal(3)
        near_sqrt_swap.append(SQRT_SWAP + 10.0 ** rng.uniform(-14.0, -3.0) * direction / np.linalg.norm(direction))
    haar = [decompose(random_unitary(4, seed)).weyl for seed in range(8)]
    return [*VERIFY_ANCHORS.values(), *_named_gates(), *facet_and_edge_points(), *near_sqrt_swap, *haar]


def test_min_bound_at_c0_one_is_below_the_40_digit_hull_distance():
    margin = 8.0 * oracle._EPS
    above, wide, shares = [], [], []
    with mpmath.workdps(40):
        for alpha in _audited_gates():
            row = verify_profile(alpha, [1.0]).rows[0]
            distance = _hull_distance(alpha)
            if mpmath.mpf(row.bound_min) > distance:
                above.append((tuple(map(float, alpha)), row.bound_min, float(distance)))
            if row.oracle_min - row.bound_min > oracle._TOL:
                wide.append((tuple(map(float, alpha)), row.bound_min, row.oracle_min))
            if row.bound_min > 0:  # the unclipped support value is bound_min + margin
                shares.append(float((mpmath.mpf(row.bound_min) + margin - distance) / margin))
    print(f"worst share of the 8 eps margin used over {len(shares)} positive bounds: {max(shares):.3g}")
    assert above == []
    assert wide == []


def test_bounds_below_c0_one_do_not_cross_the_40_digit_extrema():
    gates = [*VERIFY_ANCHORS.values(), *_named_gates(), *facet_and_edge_points()[::6]]
    c0s = [*GRID_11[:-1], *(1.0 - 10.0**-k for k in (6, 9, 12, 15)), 1e-6, 1e-12]
    crossed = []
    with mpmath.workdps(40):
        for alpha in gates:
            theta = _theta(alpha)
            for row in verify_profile(alpha, c0s).rows:
                phi = mpmath.acos(mpmath.mpf(row.c0))
                c_min, c_max = mpmath.cos(min(phi + theta, mpmath.pi / 2)), mpmath.cos(max(phi - theta, 0))
                if mpmath.mpf(row.bound_max) < c_max or mpmath.mpf(row.bound_min) > c_min:
                    crossed.append((tuple(map(float, alpha)), row.c0, row.bound_min, row.bound_max))
    assert crossed == []
