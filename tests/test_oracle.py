"""Tests for the convex-duality oracle."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chamber_point
from test_edge_cases import facet_and_edge_points
from gatepower import (
    Direction,
    OptimizerConfig,
    PowerInterval,
    c1_min,
    c0_max,
    canonical_gate,
    concurrence,
    decompose,
    envelope_scan,
    extremal_concurrence,
    power_interval,
    reach_target,
    to_magic_coefficients,
    verify_profile,
)
from gatepower import oracle, power
from gatepower.cli import named_gate
from gatepower.oracle import ProfileRow

QUARTER_PI = math.pi / 4
FAST = OptimizerConfig(starts=24, seed=13)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(starts=0)


def test_rejects_bad_c0():
    with pytest.raises(ValueError):
        extremal_concurrence([0, 0, 0], 1.2, Direction.MAX, FAST)


def test_identity_gate_cannot_change_concurrence():
    for c0 in (0.0, 0.37, 1.0):
        r = extremal_concurrence([0, 0, 0], c0, Direction.MAX, FAST)
        assert abs(r.extremal_concurrence - c0) <= 1e-6
        assert r.converged
        assert r.constraint_violation <= 1e-8


def test_saturating_gate_reaches_one_from_product_states():
    r = extremal_concurrence([QUARTER_PI, 0, 0], 0.0, Direction.MAX, FAST)
    assert abs(r.extremal_concurrence - 1.0) <= 1e-4
    assert r.converged


def test_half_cnot_maximum_from_c0_06():
    r = extremal_concurrence([math.pi / 8, 0, 0], 0.6, Direction.MAX, FAST)
    assert abs(r.extremal_concurrence - 0.98994949366) <= 1e-3
    assert r.converged


def test_swap_class_preserves_maximal_entanglement():
    r = extremal_concurrence([QUARTER_PI] * 3, 1.0, Direction.MIN, FAST)
    assert abs(r.extremal_concurrence - 1.0) <= 1e-6
    assert r.converged


def test_achiever_is_a_feasible_witness():
    w = np.array([0.45, 0.3, -0.1])
    for direction in (Direction.MAX, Direction.MIN):
        r = extremal_concurrence(w, 0.4, direction, FAST)
        assert abs(np.linalg.norm(r.achiever) - 1.0) <= 1e-10
        assert abs(concurrence(r.achiever) - 0.4) <= 1e-8
        out = concurrence(canonical_gate(w) @ r.achiever)
        assert abs(out - r.extremal_concurrence) <= 1e-9


def test_oracle_stays_inside_closed_form_interval():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = random_chamber_point(rng)
        c0 = float(rng.uniform(0, 1))
        closed = power_interval(w, c0)
        hi = extremal_concurrence(w, c0, Direction.MAX, FAST)
        lo = extremal_concurrence(w, c0, Direction.MIN, FAST)
        assert hi.extremal_concurrence <= closed.c_max + 1e-6
        assert lo.extremal_concurrence >= closed.c_min - 1e-6


def test_extremal_achiever_has_two_equal_coefficients():
    w = np.array([0.31, 0.22, 0.08])  # non saturating, generic eigenphases
    c0 = 0.5 * c1_min(w)
    r = extremal_concurrence(w, c0, Direction.MAX, OptimizerConfig(seed=2))
    assert r.converged
    mods = np.sort(np.abs(to_magic_coefficients(r.achiever)))[::-1]
    assert np.all(mods[:2] > 1e-4)
    assert np.all(mods[2:] <= 1e-4)
    np.testing.assert_allclose(mods[:2], 1 / math.sqrt(2), atol=1e-3)


def test_determinism():
    w = np.array([0.5, 0.21, -0.17])
    a = extremal_concurrence(w, 0.3, Direction.MAX, FAST)
    b = extremal_concurrence(w, 0.3, Direction.MAX, FAST)
    assert a.extremal_concurrence == b.extremal_concurrence
    assert a.starts_agreeing == b.starts_agreeing
    np.testing.assert_array_equal(a.achiever, b.achiever)


def test_unconverged_runs_are_flagged_not_raised(monkeypatch):
    # Without bisection rounds the 64 starting directions leave the bracket open.
    monkeypatch.setattr(oracle, "_MAX_ROUNDS", 0)
    for direction in (Direction.MAX, Direction.MIN):
        result = extremal_concurrence([0.025, 0.015, 0.00625], 0.3, direction, FAST)
        assert result.converged is False
        assert result.starts_agreeing == 0
        assert abs(result.bound - result.extremal_concurrence) > 1e-8


def test_envelope_scan_identity():
    rows = envelope_scan([0, 0, 0], [0.0, 0.5, 1.0], FAST)
    for row in rows:
        assert abs(row.oracle_min - row.c0) <= 1e-6
        assert abs(row.oracle_max - row.c0) <= 1e-6
        assert row.samples_inside


def test_envelope_scan_saturating_gate():
    rows = envelope_scan([QUARTER_PI, 0, 0], [0.0, 1.0], FAST)
    for row in rows:
        assert row.oracle_min <= 1e-4
        assert row.oracle_max >= 1.0 - 1e-4
        assert row.samples_inside


def test_envelope_scan_half_cnot_from_product():
    rows = envelope_scan([math.pi / 8, 0, 0], [0.0], FAST)
    assert abs(rows[0].oracle_max - math.sin(QUARTER_PI)) <= 1e-3
    assert rows[0].oracle_min <= 1e-6
    assert rows[0].samples_inside


def test_interior_targets_are_attainable():
    rng = np.random.default_rng(17)
    w = np.array([0.52, 0.33, 0.11])
    c0 = 0.45
    lo = extremal_concurrence(w, c0, Direction.MIN, FAST).extremal_concurrence
    hi = extremal_concurrence(w, c0, Direction.MAX, FAST).extremal_concurrence
    assert hi - lo > 0.05
    for _ in range(3):
        target = float(rng.uniform(lo + 0.01, hi - 0.01))
        r = reach_target(w, c0, target, FAST)
        assert abs(r.extremal_concurrence - target) <= 1e-4
        assert abs(concurrence(r.achiever) - c0) <= 1e-8


def test_verify_profile_swap_is_tight():
    report = verify_profile([QUARTER_PI] * 3, np.linspace(0, 1, 11), FAST, tol=1e-6)
    assert report.passed
    for row in report.rows:
        assert row.deviation_min <= 1e-6
        assert row.deviation_max <= 1e-6


def test_verify_profile_saturating_gate():
    report = verify_profile([QUARTER_PI, 0, 0], np.linspace(0, 1, 11), FAST)
    assert report.passed
    for row in report.rows:
        assert row.closed_min == 0.0 and row.closed_max == 1.0


def test_verify_profile_failures_are_data(monkeypatch):
    # The bracket is exact for the swap class, so shift the closed form.
    def shifted(alpha, c0):
        return PowerInterval(*(x + 1e-12 for x in power_interval(alpha, c0)))

    monkeypatch.setattr(oracle, "power_interval", shifted)
    report = verify_profile([QUARTER_PI] * 3, [0.5], FAST, tol=1e-18)
    assert not report.passed
    assert report.rows[0].passed is False


def test_verify_profile_rejects_bad_tol():
    with pytest.raises(ValueError):
        verify_profile([0, 0, 0], [0.5], FAST, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_verify_profile_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        verify_profile([0, 0, 0], [0.5], FAST, tol=tol)


@pytest.mark.parametrize("c0", [1.5, -0.1, math.nan])
def test_reach_target_rejects_bad_c0(c0):
    with pytest.raises(ValueError, match="initial concurrence"):
        reach_target([0.52, 0.33, 0.11], c0, 0.5, FAST)


@pytest.mark.parametrize("target", [math.nan, math.inf, 2.0, -0.1])
def test_reach_target_rejects_bad_target(target):
    with pytest.raises(ValueError, match="target concurrence"):
        reach_target([0.52, 0.33, 0.11], 0.45, target, FAST)


def test_gates_straddling_the_saturation_boundary():
    # a2 + |a3| within 1e-3 of pi/4 on both sides: the hardest landscape
    # for the search, and the branch boundary for the closed forms.
    cfg = OptimizerConfig(seed=42)
    for eps in (1e-3, -1e-3):
        w = np.array([0.75, 0.35, QUARTER_PI - 0.35 + eps])
        for c0 in (0.0, 0.7):
            closed = power_interval(w, c0)
            hi = extremal_concurrence(w, c0, Direction.MAX, cfg)
            lo = extremal_concurrence(w, c0, Direction.MIN, cfg)
            assert hi.converged and lo.converged
            assert abs(hi.extremal_concurrence - closed.c_max) <= 1e-3
            assert abs(lo.extremal_concurrence - closed.c_min) <= 1e-3


def test_conjugate_classes_have_identical_power():
    cfg = OptimizerConfig(starts=16, seed=5)
    w = [0.6, 0.4, 0.2]
    flipped = [0.6, 0.4, -0.2]
    for c0 in (0.2, 0.8):
        a = extremal_concurrence(w, c0, Direction.MAX, cfg).extremal_concurrence
        b = extremal_concurrence(flipped, c0, Direction.MAX, cfg).extremal_concurrence
        assert abs(a - b) <= 1e-6


# Outputs of an earlier multi-start penalty descent, recorded with FAST.
# Each achiever is an explicit feasible state, so each recorded value is
# attained: a certified upper bound lies above a recorded maximum and a
# certified lower bound below a recorded minimum.
GOLDEN_GATES = {
    "generic": (0.45, 0.25, 0.10),
    "near_identity": (0.025, 0.015, 0.00625),
    "facet": (QUARTER_PI, 0.4, 0.4),
}
# (gate, c0, direction): (extremal_concurrence, constraint_violation,
# starts_agreeing, converged, achiever as little-endian complex128 bytes)
GOLDEN_SEARCHES = {
    ("generic", 0.0, Direction.MIN): (
        6.44878330857461e-11, 2.8609792490763985e-16, 21, True,
        "987b8edae92fac3fe4e16021cf36a13f504c4704f816bd3fb3a80b4ec2e5993f"
        "041e30858b3cdebf2e0adaf5ed41b6bfe40412a6cf70ebbf0edeafd64048c03f",
    ),
    ("generic", 0.0, Direction.MAX): (
        0.9854497299884601, 0.0, 26, True,
        "00000000000000000000000000000000468d32cf6b90edbf60a9aea6e27dd83f"
        "0000000000000000000000000000000000000000000000000000000000000000",
    ),
    ("generic", 0.5, Direction.MIN): (
        5.020288087952725e-13, 1.1102230246251565e-16, 24, True,
        "cc1fde29b766ce3f31d76759a497e0bf2ade7fff2fe0bc3f8a1735a4732cb6bf"
        "a4a1ce0ab15ee2bfba9586bf08dad83f88bf1c0f8c00863f47b94cffa5b3da3f",
    ),
    ("generic", 0.5, Direction.MAX): (
        1.0, 0.0, 24, True,
        "41429901dca0d1bf42e32283828dd0bf0809c1f5588bde3fe01bfbc3228be13f"
        "260db7c7785ab4bf80eeb1199687683f0310079d0b18d5bf70467d6e419add3f",
    ),
    ("generic", 1.0, Direction.MIN): (
        0.16996714290024104, 4.440892098500626e-16, 26, True,
        "44a484a315b2a3bdeda5ae10d05a333e1cd4e6ffffffdf3ff1950c000000e0bf"
        "1cd4e6ffffffdfbff1950c000000e0bf44a484a315b2a3bdeda5ae10d05a33be",
    ),
    ("generic", 1.0, Direction.MAX): (
        1.0, 4.440892098500626e-16, 24, True,
        "cc3b7f669ea0e6bf98a0179fcd410abef8260bed7846003ef6f928b1f4142cbe"
        "f8260bed784600bef6f928b1f4142cbecc3b7f669ea0e6bf98a0179fcd410a3e",
    ),
    ("near_identity", 0.0, Direction.MIN): (
        7.884816669869972e-06, 1.2412670766236366e-16, 1, True,
        "c34ff79e0046c5bf8772c2a3e764d63f89784ca98db0cb3f53dcc4dceaa6db3f"
        "72197a8feaa7dc3f2e872148e9d3c9bfbbea0bfc2e9fc23f492f47fdce0ae3bf",
    ),
    ("near_identity", 0.0, Direction.MAX): (
        0.07991469396917265, 5.551115123125783e-17, 25, True,
        "00000000000000000000000000000000fe82eda5ad36ecbf3f2ea195eb32de3f"
        "000000000000903c000000000000000000000000000000000000000000000000",
    ),
    ("near_identity", 0.5, Direction.MIN): (
        0.4291926980383471, 2.220446049250313e-16, 26, True,
        "0000000000000000000000000000000056262c743ddbe53f56262c743ddbe5bf"
        "5299b0d0f56cc7bf5299b0d0f56cc7bf00000000000000000000000000000000",
    ),
    ("near_identity", 0.5, Direction.MAX): (
        0.5676090082642725, 1.1102230246251565e-16, 25, True,
        "a20646a11027553e21c98c548d8441be889172793ddbe53f1ebbe56e3ddbe53f"
        "32f957d6f56cc7bf6c3909cbf56cc73f244b4814bec5523ef28b13b980ed36be",
    ),
    ("near_identity", 1.0, Direction.MIN): (
        0.9968017063026193, 3.3306690738754696e-16, 26, True,
        "29ee349bcde774be537cf7c5ece575be8dd0fb040000e0bffc5d08f6ffffdfbf"
        "8dd0fb040000e03ffc5d08f6ffffdfbf29ee349bcde774be537cf7c5ece5753e",
    ),
    ("near_identity", 1.0, Direction.MAX): (
        1.0, 1.1102230246251565e-16, 24, True,
        "d7777f9108e788beef3a7f669ea0e6bfb33b97a25899543e92767cae5bf3fa3d"
        "b33b97a2589954be92767cae5bf3fa3dd7777f9108e788beef3a7f669ea0e63f",
    ),
    ("facet", 0.0, Direction.MIN): (
        1.1102230246251565e-16, 2.465190328815662e-32, 19, True,
        "cc3b7f669ea0d63fcc3b7f669ea0d63fcc3b7f669ea0d6bfcc3b7f669ea0d6bf"
        "cc3b7f669ea0d6bfcc3b7f669ea0d6bfcc3b7f669ea0d63fcc3b7f669ea0d63f",
    ),
    ("facet", 0.0, Direction.MAX): (
        0.9995736030415053, 7.850462293418876e-17, 26, True,
        "5cb38e0bda80b43fe1089b6f3896df3f5ab38e0bda80b4bfe1089b6f3896dfbf"
        "5ab38e0bda80b43fe1089b6f3896df3f5cb38e0bda80b4bfe1089b6f3896dfbf",
    ),
    ("facet", 0.5, Direction.MIN): (
        2.5692570234106727e-10, 2.220446049250313e-16, 24, True,
        "1a8c1fcbdddcb9bf8d4b14e85334d7bf2e91a62d94b6cbbf1312234cede7cd3f"
        "ac572c56c155b7bfdfb0b360c3bce53f723a3d640283d63f63a4269be3ded93f",
    ),
    ("facet", 0.5, Direction.MAX): (
        1.0, 0.0, 24, True,
        "a2cbc6d6a1ebab3f13fe4e0a3d53e2bf1a5db94ba162b7bf069491fd3ae1dfbf"
        "03f0fac08aa7c7bfdf5f524ca7a8c13f97dcae2e4a0ab5bf53c71e04f300e33f",
    ),
    ("facet", 1.0, Direction.MIN): (
        0.02919952230128859, 3.3306690738754696e-16, 26, True,
        "f6b30b746397753dc17ffbffffffdf3f1f4002000000e03f5aff2bcaf295503d"
        "1f4002000000e0bf5aff2bcaf295503df6b30b746397753dc17ffbffffffdfbf",
    ),
    ("facet", 1.0, Direction.MAX): (
        1.0, 0.0, 26, True,
        "7e5a9cda5416e4bf9b8c580248cb89bdf1bf2ec937136b3d5f0708253dd5d4bf"
        "f1bf2ec937136bbd5f0708253dd5d4bf7e5a9cda5416e4bf9b8c580248cb893d",
    ),
}


@pytest.mark.parametrize("gate", sorted(GOLDEN_GATES))
def test_extremal_concurrence_matches_recorded_outputs(gate):
    for (name, c0, direction), expected in GOLDEN_SEARCHES.items():
        if name != gate:
            continue
        value, violation, _, _, achiever = expected
        witness = np.frombuffer(bytes.fromhex(achiever), dtype="<c16")
        assert abs(concurrence(witness) - c0) == violation
        out = concurrence(canonical_gate(GOLDEN_GATES[gate]) @ witness)
        assert abs(out - value) <= 1e-12
        r = extremal_concurrence(GOLDEN_GATES[gate], c0, direction, FAST)
        assert r.converged
        if direction is Direction.MAX:
            assert value <= r.bound
            assert r.extremal_concurrence >= value - 1e-8
        else:
            assert value >= r.bound
            assert r.extremal_concurrence <= value + 1e-8


def test_verify_profile_matches_recorded_report():
    report = verify_profile(GOLDEN_GATES["generic"], [0.0, 0.3, 1.0], FAST)
    assert report.rows == [
        ProfileRow(
            c0=0.0,
            closed_min=0.0,
            closed_max=0.9854497299884601,
            oracle_min=1.8619006149354548e-16,
            oracle_max=0.9854497299884594,
            deviation_min=1.8619006149354548e-16,
            deviation_max=7.771561172376096e-16,
            converged=True,
            passed=True,
        ),
        ProfileRow(
            c0=0.3,
            closed_min=0.0,
            closed_max=1.0,
            oracle_min=2.3551386880256624e-16,
            oracle_max=0.9999999999999991,
            deviation_min=2.3551386880256624e-16,
            deviation_max=8.881784197001252e-16,
            converged=True,
            passed=True,
        ),
        ProfileRow(
            c0=1.0,
            closed_min=0.16996714290024104,
            closed_max=1.0,
            oracle_min=0.16996714290024073,
            oracle_max=0.9999999999999994,
            deviation_min=3.0531133177191805e-16,
            deviation_max=5.551115123125783e-16,
            converged=True,
            passed=True,
        ),
    ]


@pytest.mark.parametrize("w", [(math.pi / 2, 0, 0), (-0.2, 0.1, 1.0), (1.4, -0.9, 0.35)])
def test_closed_form_holds_outside_the_chamber(w):
    # The oracle works on the raw eigenphases, so it sees the true class.
    assert verify_profile(w, [0, 0.5, 1], FAST).passed


def _assert_closed_form_inside(w, c0, require_closed=True):
    closed = power_interval(w, c0)
    hi = extremal_concurrence(w, c0, Direction.MAX)
    lo = extremal_concurrence(w, c0, Direction.MIN)
    assert hi.extremal_concurrence - 1e-12 <= closed.c_max <= hi.bound + 1e-12
    assert lo.bound - 1e-12 <= closed.c_min <= lo.extremal_concurrence + 1e-12
    if require_closed:
        assert hi.converged and lo.converged
        assert hi.bound - hi.extremal_concurrence <= 1e-8
        assert lo.extremal_concurrence - lo.bound <= 1e-8


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.tuples(*[st.floats(-4.0, 4.0)] * 3), st.floats(0.0, 1.0))
def test_closed_form_lies_inside_the_bracket(w, c0):
    _assert_closed_form_inside(w, c0, require_closed=False)


VERIFY_ANCHORS = {
    "generic": (0.45, 0.25, 0.10),
    "near_identity": (0.025, 0.015, 0.00625),
    "saturating": (0.65, 0.40, 0.05),
    "facet": (QUARTER_PI, 0.4, 0.4),
}
GRID_11 = [k / 10 for k in range(11)]


@pytest.mark.parametrize("c0", GRID_11)
@pytest.mark.parametrize("gate", sorted(VERIFY_ANCHORS))
def test_bracket_closes_on_verify_anchors(gate, c0):
    _assert_closed_form_inside(VERIFY_ANCHORS[gate], c0)


def _criterion_07_gates():
    rng = np.random.default_rng(707)
    return [random_chamber_point(rng) for _ in range(20)]


def _named_gates():
    tokens = ("identity", "cnot", "cz", "swap", "iswap", "sqrtswap")
    return [decompose(named_gate(token)).weyl for token in tokens]


@pytest.mark.parametrize(
    "gates", [_criterion_07_gates, facet_and_edge_points, _named_gates],
    ids=["criterion_07", "facets_and_edges", "named"],
)
def test_bracket_closes_on_tested_gates(gates):
    # Coincident eigenphases (identity, swap, CNOT, facet gates) included.
    for w in gates():
        for c0 in GRID_11:
            _assert_closed_form_inside(w, c0)


def test_bracket_never_calls_the_closed_forms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a closed form")

    for name in power.__all__:
        if inspect.isfunction(getattr(power, name)):
            monkeypatch.setattr(power, name, refuse)
    monkeypatch.setattr(oracle, "power_interval", refuse)
    w = [0.52, 0.33, 0.11]
    for c0 in (0.0, 0.45, 1.0):
        lo = extremal_concurrence(w, c0, Direction.MIN)
        hi = extremal_concurrence(w, c0, Direction.MAX)
        assert lo.converged and hi.converged
        target = 0.5 * (lo.extremal_concurrence + hi.extremal_concurrence)
        r = reach_target(w, c0, target)
        assert r.converged and abs(r.extremal_concurrence - target) <= 1e-8
