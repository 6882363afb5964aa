"""Tests for the closed-form entanglement changing power."""

import itertools
import math

import numpy as np
import pytest

from conftest import random_chamber_point
from gatepower import (
    GateOrdering,
    c0_max,
    c1_min,
    can_reach_max,
    can_reach_zero,
    compare_gates,
    effective_angle,
    eigen_phases,
    power_interval,
    saturation_condition,
)

QUARTER_PI = math.pi / 4
CNOT_W = [QUARTER_PI, 0, 0]
SWAP_W = [QUARTER_PI] * 3
HALF_CNOT_W = [math.pi / 8, 0, 0]


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


@pytest.mark.parametrize("bad", [[math.nan, 0, 0], [math.inf, 0, 0], [0, 0, -math.inf]])
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
    assert c1_min([0, 0, 0]) == 1.0
    assert abs(c1_min(HALF_CNOT_W) - math.cos(QUARTER_PI)) <= 1e-12


def test_reachability_examples():
    assert can_reach_max(CNOT_W, 0.0) is True
    assert can_reach_max([0, 0, 0], 0.5) is False
    assert can_reach_max(HALF_CNOT_W, 0.8) is True
    assert can_reach_zero(CNOT_W, 1.0) is True
    assert can_reach_zero([0, 0, 0], 0.5) is False
    assert can_reach_zero(HALF_CNOT_W, 0.6) is True


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


def test_interval_endpoints_monotone_in_c0():
    rng = np.random.default_rng(8)
    grid = np.linspace(0, 1, 41)
    for _ in range(50):
        w = random_chamber_point(rng)
        intervals = [power_interval(w, float(c)) for c in grid]
        for a, b in zip(intervals, intervals[1:]):
            assert b.c_max >= a.c_max - 1e-12
            assert b.c_min >= a.c_min - 1e-12


def test_endpoint_consistency_identities():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        w = random_chamber_point(rng)
        assert abs(c0_max(w) - power_interval(w, 0.0).c_max) <= 1e-12
        assert abs(c1_min(w) - power_interval(w, 1.0).c_min) <= 1e-12


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


def test_interval_nesting_never_flips():
    rng = np.random.default_rng(11)
    grid = np.linspace(0, 1, 21)
    for _ in range(100):
        wa = random_chamber_point(rng)
        wb = random_chamber_point(rng)
        relation = compare_gates(wa, wb)
        for c0 in grid:
            ia = power_interval(wa, float(c0))
            ib = power_interval(wb, float(c0))
            if relation is GateOrdering.LESS:
                assert ib.c_min <= ia.c_min + 1e-12 and ia.c_max <= ib.c_max + 1e-12
            elif relation is GateOrdering.GREATER:
                assert ia.c_min <= ib.c_min + 1e-12 and ib.c_max <= ia.c_max + 1e-12
            else:
                assert abs(ia.c_min - ib.c_min) <= 1e-9 and abs(ia.c_max - ib.c_max) <= 1e-9


def test_order_is_antisymmetric_and_transitive():
    rng = np.random.default_rng(12)
    flip = {
        GateOrdering.LESS: GateOrdering.GREATER,
        GateOrdering.GREATER: GateOrdering.LESS,
        GateOrdering.EQUAL: GateOrdering.EQUAL,
    }
    for _ in range(100):
        wa, wb, wc = (random_chamber_point(rng) for _ in range(3))
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
