"""The oracle's certified bounds against 40-digit values.

At c0 = 1 the final amplitudes fill D(1), the hull of the four points
w_j = exp(2i l_j), so the extremal minimum C_min(1) is the distance from
the origin to that hull.  Here that distance is evaluated at 40 digits
from the float coordinates, on a gate set fixed up front, and MIN's bound
must not exceed it: a bound above the true minimum would fail correct
closed forms.  Below c0 = 1 the extrema are the paper's
cos(arccos c0 -+ theta), also at 40 digits, and neither bound may cross
them unwidened.  MAX's gap bounds read each end's rotated dual line,
which the 40-digit line must not exceed, and the slope h' = c0 Im z that
steers the refinement must match a 40-digit derivative.  A violation is a
defect in the bound, not a margin to widen.
"""

import numpy as np
import pytest

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


def test_rotated_dual_gap_bounds_and_slopes_hold_at_40_digits(monkeypatch):
    # Each row's rotated dual bounds h at every direction, h(theta_k + d) <= c0 Re(exp(-i d) z_k)
    # + max_j |exp(-i theta_k) w_j - z_k|, exactly.  In every round that reads them, a rotated bound
    # under the polygon bound must not fall below the smaller of its two ends' exact lines over the
    # gap, and so below h there.
    sampled, rounds = [], []
    support, gap_max_bound = oracle._support, oracle._gap_max_bound

    def recorded_support(lam, c0, theta):
        out = support(lam, c0, theta)
        sampled.append((theta, *out[:2]))
        return out

    def recorded_bound(gaps, h, z, c0):
        out = gap_max_bound(gaps, h, z, c0)
        rounds.append((np.sort(np.concatenate([x[0] for x in sampled]), kind="stable").tolist(), gaps, h, z, out))
        return out

    monkeypatch.setattr(oracle, "_support", recorded_support)
    monkeypatch.setattr(oracle, "_gap_max_bound", recorded_bound)
    below, shares, slopes = [], [], []
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        for alpha, c0 in _line_audited_pairs():
            sampled.clear()
            rounds.clear()
            oracle._brackets.cache_clear()
            extremal_concurrence(alpha, c0, Direction.MAX)
            omega = [mpmath.expj(2 * mpmath.mpf(x)) for x in oracle.eigen_phases(alpha).tolist()]
            # The envelope theorem on the rotated dual: h' = c0 Im z, at MAX's direction and one other.
            theta, h, z = (np.concatenate(x) for x in zip(*sampled))
            for k in (int(h.argmax()), theta.size // 3):
                slope = mpmath.diff(lambda t: _exact_support(omega, mpmath.mpf(c0), t), mpmath.mpf(theta[k]))
                slopes.append((c0 > 1.0 - 1e-6, abs(float(slope) - c0 * z[k].imag)))
            for theta, gaps, h, z, bound in rounds:
                n, rest = len(theta), {}

                def line(k, span, conj):
                    """The exact largest value of row k's rotated dual over a gap of width span after
                    it (before it, through the conjugate), and the margin the bracket adds to it."""
                    zk = mpmath.mpc(complex(z[k]))
                    if k not in rest:
                        rest[k] = max(abs(mpmath.expj(-mpmath.mpf(theta[k])) * x - zk) for x in omega)
                    zk = mpmath.conj(zk) if conj else zk
                    inside = mpmath.arg(zk) % two_pi <= span
                    peak = abs(zk) if inside else max(zk.real, (mpmath.expj(-span) * zk).real)
                    return c0 * peak + rest[k], 8.0 * oracle._EPS * (1.0 + c0 * abs(z[k]))

                polygon = np.maximum(h, np.roll(h, -1)) / np.cos(0.5 * gaps)
                for k in np.flatnonzero(bound < polygon).tolist():
                    span = mpmath.mpf(theta[(k + 1) % n]) - mpmath.mpf(theta[k]) + (two_pi if k + 1 == n else 0)
                    exact, margin = min(line(k, span, False), line((k + 1) % n, span, True))
                    shares.append(float((exact - mpmath.mpf(bound[k])) / margin) + 1.0)
                    if mpmath.mpf(bound[k]) < exact:
                        below.append((tuple(map(float, alpha)), c0, theta[k], bound[k], float(exact)))
    near, far = (max(error for is_near, error in slopes if is_near == side) for side in (True, False))
    print(f"worst share of the 8 eps (1 + c0 |z|) margin used over {len(shares)} rotated-dual gap bounds: "
          f"{max(shares):.3g}; worst |h' - c0 Im z|: {far:.3g}, {near:.3g} within 1e-6 of c0 = 1")
    assert below == []
    assert far <= 1e-12
    # Near c0 = 1 the dual is flat to rounding around its minimiser, and the float z lies off the
    # exact one: in slope by ~4e-9 where z = 0 at c0 = 1 - 1e-16 here, and by 3.4e-8 at
    # sqrt(SWAP) + 1e-8, c0 = 1 - 1e-15 in a wider draw.  The slope only steers where to sample.
    assert near <= 1e-7


def test_row_caps_and_floors_hold_at_40_digits(monkeypatch):
    # Rotated with the points, each row's dual minimiser z_k gives h <= c0 Re(exp(-i d) z_k) + R_k at
    # every direction, R_k = max_j |exp(-i theta_k) w_j - z_k|.  Every round reads each row's peak
    # h_k + c0 (|z_k| - Re z_k) + 8 eps (1 + c0 |z_k|) as MAX's cap and its trough, negated, as MIN's
    # floor: the cap must not fall below the exact c0 |z_k| + R_k, nor the floor rise above c0 |z_k| - R_k.
    sampled, support = [], oracle._support

    def recorded_support(lam, c0, theta):
        out = support(lam, c0, theta)
        sampled.append((theta, *out[:2]))
        return out

    monkeypatch.setattr(oracle, "_support", recorded_support)
    crossed, shares = [], []
    with mpmath.workdps(40):
        for alpha, c0 in _line_audited_pairs():
            sampled.clear()
            oracle._brackets.cache_clear()
            extremal_concurrence(alpha, c0, Direction.MAX)
            omega = [mpmath.expj(2 * mpmath.mpf(x)) for x in oracle.eigen_phases(alpha).tolist()]
            theta, h, z = (np.concatenate(x) for x in zip(*sampled))
            # The bracket's own float arithmetic for the caps and floors of every row it read.
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
    assert crossed == []
