"""The oracle's certified bounds against 40-digit values.

At c0 = 1 the final amplitudes fill D(1), the hull of the four points
w_j = exp(2i l_j), so the extremal minimum C_min(1) is the distance from
the origin to that hull.  Here that distance is evaluated at 40 digits
from the float coordinates, on a gate set fixed up front, and MIN's bound
must not exceed it: a bound above the true minimum would fail correct
closed forms.  Below c0 = 1 the extrema are the paper's
cos(arccos c0 -+ theta), also at 40 digits, and neither bound may cross
them unwidened.  Each row's rotated dual line, which caps MAX and floors
MIN, must hold against its 40-digit value, and each support value against
the 40-digit h(theta), also where the w_j cluster within ~1e-8.  A
violation is a defect in the bound, not a margin to widen.
"""

import numpy as np
import pytest

from conftest import open_on_quadrants
from test_edge_cases import facet_and_edge_points
from test_oracle import GRID_11, QUARTER_PI, SQRT_SWAP, VERIFY_ANCHORS, _named_gates
from test_power_precision import _theta
from gatepower import Direction, decompose, extremal_concurrence, oracle, random_unitary, verify_profile

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


NEAR_ONE = [1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15, float(np.nextafter(1.0, 0.0))]


def _line_audited_pairs():
    """(gate, c0): the verify anchors at 0.1, 0.5 and each near-1 c0, the named gates, and
    sqrt(SWAP), identity and SWAP moved by 10^U(-12, -4) along random directions."""
    pairs = [(alpha, c0) for alpha in VERIFY_ANCHORS.values() for c0 in (0.1, 0.5, *NEAR_ONE)]
    pairs += [(alpha, [0.5, *NEAR_ONE][k % 5]) for k, alpha in enumerate(_named_gates())]
    rng = np.random.default_rng(7)
    anchors, c0s = [SQRT_SWAP, np.zeros(3), np.full(3, QUARTER_PI)], [0.2, 0.5, 0.8, *NEAR_ONE]
    for k in range(6):
        direction = rng.standard_normal(3)
        pairs.append((anchors[k % 3] + 10.0 ** rng.uniform(-12.0, -4.0) * direction / np.linalg.norm(direction),
                      c0s[k % len(c0s)]))
    return pairs


def _line_audited_searches():
    """Each line-audited (gate, c0) pair twice, the memo cleared, with whether the search opens on the
    four quadrants alone: first on the spectrum's own directions, then on the quadrants."""
    for quadrants in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if quadrants:
                open_on_quadrants(mp)
            for alpha, c0 in _line_audited_pairs():
                oracle._brackets.cache_clear()
                yield alpha, c0, quadrants


def _exact_support(omega, c0, theta):
    """h(theta) at the working precision: the least dual value over the candidates of _support."""
    w = [mpmath.expj(-theta) * x for x in omega]
    psi = [mpmath.arg(x) for x in w]
    candidates = [mpmath.mpc(0), *w]
    for j in range(4):
        for k in range(j + 1, 4):
            half, diff = (psi[j] + psi[k]) / 2, (psi[j] - psi[k]) / 2
            s = c0 * mpmath.cos(half)
            t = mpmath.cos(diff) - s * abs(mpmath.sin(diff)) / mpmath.sqrt(1 - s * s)
            candidates.append(t * mpmath.expj(half))
    return min(c0 * z.real + max(abs(x - z) for x in w) for z in candidates)


def test_row_caps_and_floors_hold_at_40_digits(monkeypatch):
    # Rotated with the points, each row's dual minimiser z_k gives h <= c0 Re(exp(-i d) z_k) + R_k at
    # every direction, R_k = max_j |exp(-i theta_k) w_j - z_k|.  The bracket reads each row's peak
    # h_k + c0 (|z_k| - Re z_k) + 8 eps (1 + c0 |z_k|) as MAX's cap and its trough, negated, as MIN's
    # floor: the cap must not fall below the exact c0 |z_k| + R_k, nor the floor rise above c0 |z_k| - R_k.
    # That holds at any direction, so each search's rows are joined by 32 evenly spaced ones.
    sampled, support = [], oracle._support

    def recorded_support(lam, c0, theta):
        out = support(lam, c0, theta)
        sampled.append((theta, *out[:2]))
        return out

    monkeypatch.setattr(oracle, "_support", recorded_support)
    rng = np.random.default_rng(11)
    crossed, shares = [], []
    with mpmath.workdps(40):
        for alpha, c0, _ in _line_audited_searches():
            sampled.clear()
            extremal_concurrence(alpha, c0, Direction.MAX)
            recorded_support(oracle.eigen_phases(alpha), c0, rng.uniform(0.0, 0.2) + np.arange(32) * (np.pi / 16))
            omega = [mpmath.expj(2 * mpmath.mpf(x)) for x in oracle.eigen_phases(alpha).tolist()]
            theta, h, z = (np.concatenate(x) for x in zip(*sampled))
            # The bracket's own float arithmetic for the caps and floors of every row.
            lift, margin = c0 * np.abs(z), 8.0 * oracle._EPS * (1.0 + c0 * np.abs(z))
            caps, floors = h + (lift - c0 * z.real) + margin, (lift + c0 * z.real) - h - margin
            for k in range(theta.size):
                zk = mpmath.mpc(complex(z[k]))
                rest = max(abs(mpmath.expj(-mpmath.mpf(theta[k])) * x - zk) for x in omega)
                peak, trough = c0 * abs(zk) + rest, c0 * abs(zk) - rest
                shares += [float((peak - mpmath.mpf(caps[k]) + margin[k]) / margin[k]),
                           float((mpmath.mpf(floors[k]) + margin[k] - trough) / margin[k])]
                if mpmath.mpf(caps[k]) < peak or mpmath.mpf(floors[k]) > trough:
                    crossed.append((tuple(map(float, alpha)), c0, theta[k], caps[k], floors[k]))
    print(f"worst share of the 8 eps (1 + c0 |z|) margin used over {len(shares)} caps and floors: {max(shares):.3g}")
    assert len(shares) >= 3660  # as many as the audit read when the bracket still refined
    assert crossed == []


def _clustered_gates():
    """Six draws each of SWAP - 10^U(-9.5, -8) |d| and identity + 10^U(-9.5, -8) |d|, d a random unit
    vector: the w_j cluster within ~1e-8, where rounded points would cost the rows' units their digits."""
    rng = np.random.default_rng(43)
    gates = []
    for anchor, sign in ((np.full(3, QUARTER_PI), -1.0), (np.zeros(3), 1.0)):
        for _ in range(6):
            direction = rng.standard_normal(3)
            step = 10.0 ** rng.uniform(-9.5, -8.0) * np.abs(direction) / np.linalg.norm(direction)
            gates.append(anchor + sign * step)
    return gates


def test_support_values_and_states_hold_at_40_digits_on_clustered_spectra():
    # Each support value h + margin, margin = 8 eps (2 + c0 Re z + |z|), must lie above the exact
    # h(theta), and each row's state must meet sum u = c0 and attain h(theta), to rounding.
    below, loose, shares = [], [], []
    with mpmath.workdps(40):
        for alpha in _clustered_gates():
            lam = oracle.eigen_phases(alpha)
            omega = [mpmath.expj(2 * mpmath.mpf(x)) for x in lam.tolist()]
            theta = np.sort((oracle._OPENING @ lam + oracle._SHIFT) % (2.0 * np.pi))
            for c0 in (0.1, 0.5, 0.9):
                h, z, units, excess = oracle._support(lam, c0, theta)
                u = oracle._primal(units, excess, c0)
                margin = 8.0 * oracle._EPS * (2.0 + c0 * z.real + np.abs(z))
                for k in range(theta.size):
                    exact = _exact_support(omega, mpmath.mpf(c0), mpmath.mpf(theta[k]))
                    shares.append(float((exact - mpmath.mpf(h[k]) + margin[k]) / margin[k]))
                    if mpmath.mpf(h[k]) < exact:
                        below.append((tuple(map(float, alpha)), c0, theta[k], h[k], float(exact)))
                    turned = [mpmath.mpc(complex(x)) * mpmath.expj(-mpmath.mpf(theta[k])) * w
                              for x, w in zip(u[:, k], omega)]
                    if abs(u[:, k].sum() - c0) > 1e-13 or abs(mpmath.fsum(turned).real - exact) > 1e-13:
                        loose.append((tuple(map(float, alpha)), c0, theta[k], abs(u[:, k].sum() - c0)))
    print(f"worst share of the 8 eps (2 + lead) margin used over {len(shares)} clustered support values: "
          f"{max(shares):.3g}")
    assert below == []
    assert loose == []
