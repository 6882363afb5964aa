"""Tests for the closed-form entanglement changing power."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_chamber_point, random_local_pair
from test_edge_cases import facet_and_edge_points
from gatepower import (
    GateOrdering,
    c0_max,
    c1_min,
    can_reach_max,
    can_reach_zero,
    canonical_gate,
    compare_gates,
    effective_angle,
    eigen_phases,
    power_interval,
    random_unitary,
    reduce_alpha,
    saturation_condition,
    verify_profile,
    weyl_coordinates,
)
from gatepower.cli import named_gate
from gatepower.linalg import MAGIC, MAGIC_H

QUARTER_PI = math.pi / 4
CNOT_W = [QUARTER_PI, 0, 0]
SWAP_W = [QUARTER_PI] * 3
HALF_CNOT_W = [math.pi / 8, 0, 0]
COORDS = st.tuples(*[st.floats(-4.0, 4.0)] * 3)


def pairwise_extrema(alpha, c0):
    """Independent evaluation over signed eigenphase pair differences."""
    a = [alpha[0], alpha[1], abs(alpha[2])]
    lam = eigen_phases(a)
    angle = math.acos(c0)
    vals = [
        abs(math.cos(angle + lam[j] - lam[k]))
        for j, k in itertools.permutations(range(4), 2)
    ]
    return min(vals), max(vals)


def test_saturation_examples():
    assert saturation_condition(CNOT_W) is True
    assert saturation_condition([0, 0, 0]) is False
    assert saturation_condition(SWAP_W) is False  # a2 + a3 = pi/2 > pi/4
    assert saturation_condition([math.pi / 8] * 3) is True  # both boundaries


def test_saturation_uses_magnitude_of_third_coordinate():
    assert saturation_condition([math.pi / 8, math.pi / 8, -math.pi / 8]) is True


def test_effective_angle_branches():
    assert effective_angle(CNOT_W) == math.pi / 2
    assert abs(effective_angle(HALF_CNOT_W) - QUARTER_PI) <= 1e-15
    assert effective_angle(SWAP_W) == 0.0


def test_effective_angle_range():
    rng = np.random.default_rng(2)
    for _ in range(200):
        theta = effective_angle(random_chamber_point(rng))
        assert 0.0 <= theta <= math.pi / 2


def _branch_angle(alpha):
    """The paper's three cases for theta, the saturating one with a 1e-12 slack on the coordinate sums."""
    a1, a2, a3 = reduce_alpha(alpha).tolist()
    a3 = abs(a3)
    if a1 + a2 >= QUARTER_PI - 1e-12 and a2 + a3 <= QUARTER_PI + 1e-12:
        theta = math.pi / 2.0
    elif a1 + a2 < QUARTER_PI:
        theta = 2.0 * (a1 + a2)
    else:
        theta = 2.0 * (math.pi / 2.0 - a2 - a3)
    return min(max(theta, 0.0), math.pi / 2.0)


# Points within 3e-12 of a face of the saturating region: a1 + a2 = pi/4 or a2 + |a3| = pi/4.
NEAR_FACE = st.builds(
    lambda x, s, eps, face: (
        [x, QUARTER_PI - x + eps, s * (QUARTER_PI - x)]
        if face
        else [x + s * (QUARTER_PI - x), x, QUARTER_PI - x + eps]
    ),
    st.floats(math.pi / 8, QUARTER_PI),
    st.floats(0.0, 1.0),
    st.floats(-3e-12, 3e-12),
    st.booleans(),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(COORDS | NEAR_FACE)
def test_effective_angle_is_the_branch_form(w):
    a1, a2, a3 = reduce_alpha(w).tolist()
    in_band = min(abs(a1 + a2 - QUARTER_PI), abs(a2 + abs(a3) - QUARTER_PI)) <= 1e-12 + 1e-15
    gap = abs(effective_angle(w) - _branch_angle(w))
    assert gap <= 2e-12 if in_band else gap == 0.0


@pytest.mark.parametrize("bad", [[math.nan, 0, 0], [math.inf, 0, 0], [0, 0, -math.inf], 0.5, [10**400, 0, 0]])
def test_non_finite_coordinates_raise(bad):
    for call in (
        effective_angle,
        saturation_condition,
        c0_max,
        c1_min,
        lambda w: power_interval(w, 0.5),
        lambda w: can_reach_max(w, 0.5),
        lambda w: can_reach_zero(w, 0.5),
        lambda w: compare_gates(w, CNOT_W),
    ):
        with pytest.raises(ValueError):
            call(bad)


def test_power_interval_saturating_gate_spans_everything():
    for c0 in np.linspace(0, 1, 11):
        interval = power_interval(CNOT_W, float(c0))
        assert interval.c_min == 0.0
        assert interval.c_max == 1.0


def test_power_interval_swap_is_neutral():
    interval = power_interval(SWAP_W, 0.5)
    assert abs(interval.c_min - 0.5) <= 1e-12
    assert abs(interval.c_max - 0.5) <= 1e-12


def test_power_interval_half_cnot_values():
    interval = power_interval(HALF_CNOT_W, 0.6)
    assert abs(interval.c_max - math.cos(math.acos(0.6) - QUARTER_PI)) <= 1e-12
    assert interval.c_max == pytest.approx(0.98994949366, abs=1e-9)
    assert interval.c_min == 0.0  # acos(0.6) + pi/4 > pi/2

    interval0 = power_interval(HALF_CNOT_W, 0.0)
    assert interval0.c_min == 0.0
    assert abs(interval0.c_max - math.sin(QUARTER_PI)) <= 1e-12


def test_power_interval_rejects_bad_c0():
    with pytest.raises(ValueError):
        power_interval(CNOT_W, 1.2)
    with pytest.raises(ValueError):
        power_interval(CNOT_W, -0.2)
    # drift within 1e-12 is clamped, not rejected
    assert power_interval(SWAP_W, 1.0 + 5e-13).c_max <= 1.0


def test_c0_max_examples():
    assert c0_max(CNOT_W) == 1.0
    assert c0_max([0, 0, 0]) == 0.0
    assert abs(c0_max(HALF_CNOT_W) - math.sin(QUARTER_PI)) <= 1e-12


def test_c1_min_examples():
    assert c1_min(CNOT_W) == 0.0
    assert c1_min([QUARTER_PI, 0.3, 0.1]) == 0.0 and power_interval(CNOT_W, 1.0) == (0.0, 1.0)  # theta = pi/2
    assert c1_min([0, 0, 0]) == 1.0
    assert abs(c1_min(HALF_CNOT_W) - math.cos(QUARTER_PI)) <= 1e-12


def test_reachability_examples():
    assert can_reach_max(CNOT_W, 0.0) is True
    assert can_reach_max([0, 0, 0], 0.5) is False
    assert can_reach_max(HALF_CNOT_W, 0.8) is True
    assert can_reach_zero(CNOT_W, 1.0) is True
    assert can_reach_zero([0, 0, 0], 0.5) is False
    assert can_reach_zero(HALF_CNOT_W, 0.6) is True


def _reach_identities(w, c0s):
    """The one reach rule: both flags and saturation are read off the interval, 1e-12 from its clamps."""
    for c0 in c0s:
        interval = power_interval(w, c0)
        assert can_reach_max(w, c0) is (interval.c_max >= 1 - 1e-12), c0
        assert can_reach_zero(w, c0) is (interval.c_min <= 1e-12), c0
    assert saturation_condition(w) is (can_reach_max(w, 0.0) and can_reach_zero(w, 1.0))


# theta = pi/2 - d on the two saturating faces, a1 + a2 = pi/4 and a2 + |a3| = pi/4.
REACH_FACES = {
    "a1+a2": lambda d: (QUARTER_PI - d / 2, 0.0, 0.0),
    "a2+a3": lambda d: (QUARTER_PI, math.pi / 8 + d / 4, math.pi / 8 + d / 4),
}


@pytest.mark.parametrize("face", REACH_FACES)
@pytest.mark.parametrize("d", [0.0, 1e-13, 1.5e-12, 2e-12, 5e-11, 1e-9, 1e-6, 1.5e-6, 1e-4])
def test_reach_rules_are_read_off_the_interval_below_half_pi(face, d):
    # sin(theta) is flat at pi/2: for d up to ~1.4e-6, c0 = 1 lies within 1e-12
    # of sin(theta) while c_min at c0 = 1 is cos(theta) ~ d, so zero is out of reach.
    # The order reads theta with the same slack: only a saturating gate equals CNOT.
    w = REACH_FACES[face](d)
    assert abs(effective_angle(w) - (math.pi / 2 - d)) <= 1e-15
    _reach_identities(w, [0.0, 1e-13, 0.5, 1 - 1e-13, 1.0])
    assert compare_gates(w, CNOT_W) is (GateOrdering.EQUAL if saturation_condition(w) else GateOrdering.LESS)


def _gap_angle(u):
    """theta from the gate's own spectrum: m = U_B^T U_B in the magic basis has eigenphases
    2 lambda_k up to a common shift; they span an arc of 2 pi - G, G the largest circular
    gap between them, and theta is half that arc, capped at pi/2."""
    u_b = MAGIC_H @ u @ MAGIC
    phases = np.sort(np.angle(np.linalg.eigvals(u_b.T @ u_b)))
    gap = max(np.diff(phases).max(), 2 * math.pi - (phases[-1] - phases[0]))
    return min(math.pi / 2, math.pi - gap / 2)


def _spectrum_gates():
    """1000 Haar gates, and the named, facet, edge and reach-face gates dressed with local unitaries."""
    rng = np.random.default_rng(17)
    cores = [named_gate(token) for token in ("identity", "cnot", "cz", "swap", "iswap", "sqrtswap")]
    cores += [canonical_gate(w) for w in facet_and_edge_points()]
    cores += [canonical_gate(face(d)) for face in REACH_FACES.values() for d in (0.0, 1e-13, 1.5e-12, 5e-11, 1e-9, 1e-6)]
    gates = [random_unitary(4, seed) for seed in range(1000)]
    return gates + [random_local_pair(rng) @ core @ random_local_pair(rng) for core in cores]


def test_effective_angle_is_read_off_the_spectrum():
    for u in _spectrum_gates():
        assert abs(_gap_angle(u) - effective_angle(weyl_coordinates(u))) <= 1e-12


def _hull_distance(points) -> float:
    """Distance from 0 to the convex hull of four planar points: the least over the segments between
    two (a repeated index is a single point) and the triangles of three whose barycentric weights of 0
    are all of one sign, at the point those weights give (near 0 unless rounding faked the sign)."""
    distances = []
    for i, j in itertools.combinations_with_replacement(range(4), 2):
        e = points[j] - points[i]
        t = min(max(-(points[i].conjugate() * e).real / abs(e) ** 2, 0.0), 1.0) if e else 0.0
        distances.append(abs(points[i] + t * e))
    for corners in itertools.combinations(range(4), 3):
        p = [points[k] for k in corners]
        sides = [(p[1].conjugate() * p[2]).imag, (p[2].conjugate() * p[0]).imag, (p[0].conjugate() * p[1]).imag]
        if sum(sides) != 0 and (min(sides) >= 0 or max(sides) <= 0):
            distances.append(abs(sum(b * x for b, x in zip(sides, p)) / sum(sides)))
    return min(distances)


def test_effective_angle_is_the_hull_distance_of_the_spectrum():
    # cos theta is the distance from 0 to the hull of the eigenvalues w_j of m = U_B^T U_B (within 2.2e-15
    # here, 1.2e-15 over 3000 Haar gates, and 5.2e-16 from the coordinates' own exp(2i l_j)), so
    # C_max(c0) = 1 exactly from that distance on: the perfect-entangler criterion, 0 in the hull, at
    # every c0.
    for u in _spectrum_gates():
        u_b = MAGIC_H @ u @ MAGIC
        distance = _hull_distance(np.linalg.eigvals(u_b.T @ u_b).tolist())
        alpha = weyl_coordinates(u)
        assert abs(distance - math.cos(effective_angle(alpha))) <= 1e-14
        assert can_reach_max(alpha, min(distance, 1.0))
        if distance > 1e-3:  # well inside the reach rules' 1e-12 slack on c_max
            assert not can_reach_max(alpha, distance - 1e-3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(COORDS | NEAR_FACE, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_reach_rules_are_read_off_the_interval(w, c0s):
    _reach_identities(w, c0s)


def test_compare_gates_examples():
    assert compare_gates(SWAP_W, CNOT_W) is GateOrdering.LESS
    assert compare_gates(CNOT_W, [math.pi / 8] * 3) is GateOrdering.EQUAL
    assert compare_gates([0.25, 0, 0], [0.5, 0, 0]) is GateOrdering.LESS


def test_compare_gates_conjugate_classes_are_equal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = random_chamber_point(rng)
        flipped = [w[0], w[1], -w[2]]
        assert compare_gates(w, flipped) is GateOrdering.EQUAL


def test_interval_contains_input_concurrence():
    rng = np.random.default_rng(7)
    grid = np.linspace(0, 1, 21)
    for _ in range(100):
        w = random_chamber_point(rng)
        for c0 in grid:
            interval = power_interval(w, float(c0))
            assert interval.c_min <= c0 <= interval.c_max
            assert 0.0 <= interval.c_min <= interval.c_max <= 1.0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(COORDS)
def test_interval_endpoints_monotone_in_c0(w):
    intervals = [power_interval(w, float(c)) for c in np.linspace(0, 1, 41)]
    for a, b in zip(intervals, intervals[1:]):
        assert b.c_max >= a.c_max - 1e-12
        assert b.c_min >= a.c_min - 1e-12


def test_endpoint_consistency_identities():
    # c0_max and c1_min are read off power_interval, so the reference
    # here is the independent pair formula.
    rng = np.random.default_rng(9)
    saturating = 0
    for _ in range(1000):
        w = random_chamber_point(rng)
        if saturation_condition(w):
            assert c0_max(w) == 1.0 and c1_min(w) == 0.0
            saturating += 1
            continue
        assert abs(c0_max(w) - pairwise_extrema(w, 0.0)[1]) <= 1e-12
        assert abs(c1_min(w) - pairwise_extrema(w, 1.0)[0]) <= 1e-12
    assert 0 < saturating < 1000


def test_pairwise_formula_matches_unified_form():
    rng = np.random.default_rng(10)
    checked_max = checked_min = 0
    while checked_max < 200 or checked_min < 200:
        w = random_chamber_point(rng)
        if saturation_condition(w):
            continue
        c0 = float(rng.uniform(0, 1))
        interval = power_interval(w, c0)
        pair_min, pair_max = pairwise_extrema(w, c0)
        if not can_reach_max(w, c0):
            assert abs(interval.c_max - pair_max) <= 1e-12
            checked_max += 1
        if not can_reach_zero(w, c0):
            assert abs(interval.c_min - pair_min) <= 1e-12
            checked_min += 1


def near_slack_examples(test):
    """Pairs whose thetas differ by +-2.5e-13, +-7.5e-13, +-1.25e-12 and +-2e-12, about the EQUAL slack 1e-12.

    Three kinds of gate: theta = 2 (a1 + a2), theta = 2 (pi/2 - a2 - |a3|) on the a1 = pi/4 facet,
    and theta 5e-12 below pi/2, each moved along the coordinate its theta reads.
    """
    for base, step in (((0.3, 0.1, 0.05), (0.5, 0.0, 0.0)), ((QUARTER_PI, 0.5, 0.4), (0.0, 0.0, -0.5)),
                       ((QUARTER_PI - 2.5e-12, 0.0, 0.0), (0.5, 0.0, 0.0))):
        for d in (2.5e-13, 7.5e-13, 1.25e-12, 2e-12, -2.5e-13, -7.5e-13, -1.25e-12, -2e-12):
            test = example(base, tuple(b + d * s for b, s in zip(base, step)))(test)
    return test


@settings(derandomize=True, max_examples=100, deadline=None)
@given(COORDS, COORDS)
@near_slack_examples
def test_interval_nesting_never_flips(wa, wb):
    relation = compare_gates(wa, wb)
    for c0 in np.linspace(0, 1, 21):
        ia = power_interval(wa, float(c0))
        ib = power_interval(wb, float(c0))
        if relation is GateOrdering.LESS:
            assert ib.c_min <= ia.c_min + 1e-12 and ia.c_max <= ib.c_max + 1e-12
        elif relation is GateOrdering.GREATER:
            assert ia.c_min <= ib.c_min + 1e-12 and ib.c_max <= ia.c_max + 1e-12
        else:
            # EQUAL thetas differ by at most 1e-12 and every end is 1-Lipschitz in theta;
            # 1e-15 covers the few ulps of 1 by which each computed end rounds.
            assert abs(ia.c_min - ib.c_min) <= 1e-12 + 1e-15 and abs(ia.c_max - ib.c_max) <= 1e-12 + 1e-15


@settings(derandomize=True, max_examples=100, deadline=None)
@given(COORDS, COORDS, COORDS)
def test_order_is_antisymmetric_and_transitive(wa, wb, wc):
    flip = {
        GateOrdering.LESS: GateOrdering.GREATER,
        GateOrdering.GREATER: GateOrdering.LESS,
        GateOrdering.EQUAL: GateOrdering.EQUAL,
    }
    ab = compare_gates(wa, wb)
    assert compare_gates(wb, wa) is flip[ab]
    bc = compare_gates(wb, wc)
    if ab is bc is GateOrdering.LESS:
        assert compare_gates(wa, wc) is GateOrdering.LESS
    if ab is bc is GateOrdering.EQUAL:
        assert compare_gates(wa, wc) is GateOrdering.EQUAL


def test_swap_class_is_minimal():
    rng = np.random.default_rng(13)
    for _ in range(200):
        w = random_chamber_point(rng)
        assert compare_gates(SWAP_W, w) in (GateOrdering.LESS, GateOrdering.EQUAL)


def test_coordinates_outside_the_chamber_are_reduced():
    # (pi/2, 0, 0) is locally equivalent to the identity.
    assert effective_angle([math.pi / 2, 0, 0]) == 0.0
    assert compare_gates([math.pi / 2, 0, 0], [0, 0, 0]) is GateOrdering.EQUAL


@settings(derandomize=True, max_examples=300, deadline=None)
@given(COORDS, st.floats(0.0, 1.0))
def test_power_interval_depends_on_the_class_only(w, c0):
    a = power_interval(w, c0)
    b = power_interval(reduce_alpha(w), c0)
    assert abs(a.c_min - b.c_min) <= 1e-12 and abs(a.c_max - b.c_max) <= 1e-12


@pytest.mark.parametrize(
    "w", [[QUARTER_PI - 1e-9, 0, 0], [QUARTER_PI - 1e-9, 1e-10, -1e-10], [QUARTER_PI - 1e-10, 1e-12, -1e-12]]
)
def test_c_min_at_c0_one_just_below_half_pi_is_cos_theta(w):
    # sin(theta) rounds to 1 within ~1e-8 below pi/2; c_min at c0 = 1 is still
    # cos(theta), which the fold on the a1 = pi/4 face must not move either.
    theta = effective_angle(w)
    assert theta == 2 * (w[0] + w[1]) < math.pi / 2 and math.sin(theta) == 1.0
    assert c1_min(w) == power_interval(w, 1.0).c_min == math.cos(theta) > 0
    report = verify_profile(w, [1.0])
    assert report.passed, report.failures
