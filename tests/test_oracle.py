"""Tests for the convex-duality oracle."""

import dataclasses
import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import envelope_scan, open_on_quadrants, random_chamber_point, shift_closed_form
from test_edge_cases import facet_and_edge_points
from test_power import REACH_FACES
from gatepower import (
    Direction,
    OptimizerConfig,
    c1_min,
    c0_max,
    canonical_gate,
    concurrence,
    decompose,
    extremal_concurrence,
    power_interval,
    reach_target,
    to_magic_coefficients,
    verify_profile,
)
from gatepower import oracle, power
from gatepower.cli import main, named_gate
from gatepower.oracle import ProfileRow

QUARTER_PI = math.pi / 4


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(starts=0)


def _assert_same_fields(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))


def test_config_changes_nothing_in_the_benchmark_call_shapes():
    # The two calls perfbench/ makes with a config; each must equal the
    # same call without one, field for field.
    w = [0.52, 0.33, 0.11]
    _assert_same_fields(
        extremal_concurrence(w, 0.5, Direction.MAX, OptimizerConfig(starts=4, max_iterations=20)),
        extremal_concurrence(w, 0.5, Direction.MAX),
    )
    _assert_same_fields(
        verify_profile(w, (0.3,), OptimizerConfig(seed=9), tol=1e-3),
        verify_profile(w, (0.3,), tol=1e-3),
    )


@pytest.mark.parametrize("direction", ["max", "min", 1, None])
def test_rejects_a_direction_that_is_not_a_member(direction):
    with pytest.raises(TypeError, match="Direction"):
        extremal_concurrence([0.45, 0.25, 0.10], 0.5, direction)


def test_rejects_bad_c0():
    with pytest.raises(ValueError):
        extremal_concurrence([0, 0, 0], 1.2, Direction.MAX)


def test_identity_gate_cannot_change_concurrence():
    for c0 in (0.0, 0.37, 1.0):
        r = extremal_concurrence([0, 0, 0], c0, Direction.MAX)
        assert abs(r.extremal_concurrence - c0) <= 1e-6
        assert r.converged
        assert r.constraint_violation <= 1e-8


def test_saturating_gate_reaches_one_from_product_states():
    r = extremal_concurrence([QUARTER_PI, 0, 0], 0.0, Direction.MAX)
    assert abs(r.extremal_concurrence - 1.0) <= 1e-4
    assert r.converged


def test_half_cnot_maximum_from_c0_06():
    r = extremal_concurrence([math.pi / 8, 0, 0], 0.6, Direction.MAX)
    assert abs(r.extremal_concurrence - 0.98994949366) <= 1e-3
    assert r.converged


def test_swap_class_preserves_maximal_entanglement():
    r = extremal_concurrence([QUARTER_PI] * 3, 1.0, Direction.MIN)
    assert abs(r.extremal_concurrence - 1.0) <= 1e-6
    assert r.converged


def test_achiever_is_a_feasible_witness():
    w = np.array([0.45, 0.3, -0.1])
    for direction in (Direction.MAX, Direction.MIN):
        r = extremal_concurrence(w, 0.4, direction)
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
        hi = extremal_concurrence(w, c0, Direction.MAX)
        lo = extremal_concurrence(w, c0, Direction.MIN)
        assert hi.extremal_concurrence <= closed.c_max + 1e-6
        assert lo.extremal_concurrence >= closed.c_min - 1e-6


def test_extremal_achiever_has_two_equal_coefficients():
    w = np.array([0.31, 0.22, 0.08])  # non saturating, generic eigenphases
    c0 = 0.5 * c1_min(w)
    r = extremal_concurrence(w, c0, Direction.MAX, )
    assert r.converged
    mods = np.sort(np.abs(to_magic_coefficients(r.achiever)))[::-1]
    assert np.all(mods[:2] > 1e-4)
    assert np.all(mods[2:] <= 1e-4)
    np.testing.assert_allclose(mods[:2], 1 / math.sqrt(2), atol=1e-3)


def test_determinism():
    w = np.array([0.5, 0.21, -0.17])
    a = extremal_concurrence(w, 0.3, Direction.MAX)
    b = extremal_concurrence(w, 0.3, Direction.MAX)
    assert a.extremal_concurrence == b.extremal_concurrence
    assert a.starts_agreeing == b.starts_agreeing
    np.testing.assert_array_equal(a.achiever, b.achiever)


def test_unconverged_runs_are_flagged_not_raised(monkeypatch):
    # Opened on the quadrants alone, the near-identity bracket stays open at 0.3: by 5.1e-6 for
    # MAX and 9.0e-6 for MIN, since nothing refines an opening.
    open_on_quadrants(monkeypatch)
    for direction in (Direction.MAX, Direction.MIN):
        result = extremal_concurrence([0.025, 0.015, 0.00625], 0.3, direction)
        assert result.converged is False
        assert result.starts_agreeing == 0
        assert abs(result.bound - result.extremal_concurrence) > 1e-8


def test_envelope_scan_identity():
    rows = envelope_scan([0, 0, 0], [0.0, 0.5, 1.0])
    for row in rows:
        assert abs(row.oracle_min - row.c0) <= 1e-6
        assert abs(row.oracle_max - row.c0) <= 1e-6
        assert row.samples_inside


def test_envelope_scan_saturating_gate():
    rows = envelope_scan([QUARTER_PI, 0, 0], [0.0, 1.0])
    for row in rows:
        assert row.oracle_min <= 1e-4
        assert row.oracle_max >= 1.0 - 1e-4
        assert row.samples_inside


def test_envelope_scan_half_cnot_from_product():
    rows = envelope_scan([math.pi / 8, 0, 0], [0.0])
    assert abs(rows[0].oracle_max - math.sin(QUARTER_PI)) <= 1e-3
    assert rows[0].oracle_min <= 1e-6
    assert rows[0].samples_inside


def test_interior_targets_are_attainable():
    rng = np.random.default_rng(17)
    w = np.array([0.52, 0.33, 0.11])
    c0 = 0.45
    lo = extremal_concurrence(w, c0, Direction.MIN).extremal_concurrence
    hi = extremal_concurrence(w, c0, Direction.MAX).extremal_concurrence
    assert hi - lo > 0.05
    for _ in range(3):
        target = float(rng.uniform(lo + 0.01, hi - 0.01))
        r = reach_target(w, c0, target)
        assert abs(r.extremal_concurrence - target) <= 1e-4
        assert abs(concurrence(r.achiever) - c0) <= 1e-8


def test_verify_profile_swap_is_tight():
    report = verify_profile([QUARTER_PI] * 3, np.linspace(0, 1, 11), tol=1e-6)
    assert report.passed
    for row in report.rows:
        assert row.deviation_min <= 1e-6
        assert row.deviation_max <= 1e-6


def test_verify_profile_saturating_gate():
    report = verify_profile([QUARTER_PI, 0, 0], np.linspace(0, 1, 11))
    assert report.passed
    for row in report.rows:
        assert row.closed_min == 0.0 and row.closed_max == 1.0


def test_verify_profile_failures_are_data(shifted_closed_form):
    report = verify_profile([QUARTER_PI] * 3, [0.5], tol=1e-18)
    assert not report.passed
    assert report.rows[0].passed is False


def test_verify_profile_fails_a_closed_form_outside_its_bracket(monkeypatch):
    # 1e-6 lies far below the default tol = 1e-3 but far outside brackets
    # that close to 1e-8: only the certified check sees the fault.
    shift_closed_form(monkeypatch, 1e-6)
    report = verify_profile(VERIFY_ANCHORS["generic"], GRID_11)
    assert not report.passed
    assert not any(r.passed for r in report.rows)
    assert report.failures == ["11 of 11 rows outside the certified bracket"]


def test_profile_failures_name_each_cause_once_in_order(monkeypatch):
    # The tol printed reads back as the tol checked: 1.5e-03, not 2e-03.
    shift_closed_form(monkeypatch, 1.8e-3)
    report = verify_profile(VERIFY_ANCHORS["generic"], [0.5], tol=1.5e-3)
    assert report.failures == ["1 of 1 rows outside the certified bracket", "max deviation 1.800e-03 > 1.5e-03"]
    open_on_quadrants(monkeypatch)
    shift_closed_form(monkeypatch, 1e-2)
    report = verify_profile(VERIFY_ANCHORS["near_identity"], [0.0, 0.5, 1.0])
    assert report.failures == [
        "1 of 3 rows not converged",
        "3 of 3 rows outside the certified bracket",
        "max deviation 1.001e-02 > 1e-03",
    ]


def test_verify_profile_report_owns_its_coordinates():
    alpha = np.array([0.45, 0.25, 0.10])
    report = verify_profile(alpha, [0.5])
    alpha[0] = 0.0
    assert report.alpha is not alpha
    np.testing.assert_array_equal(report.alpha, [0.45, 0.25, 0.10])


def test_verify_profile_checks_coordinates_before_the_grid():
    with pytest.raises(ValueError, match="chamber coordinates"):
        verify_profile([0.3, 0.2], [1.5])


def test_verify_profile_rejects_bad_tol():
    with pytest.raises(ValueError):
        verify_profile([0, 0, 0], [0.5], tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_verify_profile_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        verify_profile([0, 0, 0], [0.5], tol=tol)


def test_verify_profile_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        verify_profile([0.3, 0.2, 0.1], [])


@pytest.mark.parametrize("target, direction", [(0.1, Direction.MIN), (0.95, Direction.MAX)])
def test_reach_target_outside_the_interval_stops_at_its_end(target, direction):
    # theta = pi/8: from c0 = 0.6 the gate reaches [0.248..., 0.860...] only.
    w = [math.pi / 16, 0.0, 0.0]
    end = extremal_concurrence(w, 0.6, direction)
    r = reach_target(w, 0.6, target)
    assert not r.converged
    assert abs(r.extremal_concurrence - end.extremal_concurrence) <= 1e-12


@pytest.mark.parametrize("c0", [1.5, -0.1, math.nan])
def test_reach_target_rejects_bad_c0(c0):
    with pytest.raises(ValueError, match="initial concurrence"):
        reach_target([0.52, 0.33, 0.11], c0, 0.5)


@pytest.mark.parametrize("target", [math.nan, math.inf, 2.0, -0.1])
def test_reach_target_rejects_bad_target(target):
    with pytest.raises(ValueError, match="target concurrence"):
        reach_target([0.52, 0.33, 0.11], 0.45, target)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_oracle_rejects_non_finite_coordinates(bad):
    w = [bad, 0.0, 0.0]
    for call in (
        lambda: extremal_concurrence(w, 0.5, Direction.MAX),
        lambda: verify_profile(w, [0.5]),
        lambda: reach_target(w, 0.5, 0.5),
        lambda: envelope_scan(w, [0.5]),
    ):
        with pytest.raises(ValueError, match="three finite numbers"):
            call()


def test_gates_straddling_the_saturation_boundary():
    # a2 + |a3| within 1e-3 of pi/4 on both sides: the hardest landscape
    # for the search, and the branch boundary for the closed forms.
    for eps in (1e-3, -1e-3):
        w = np.array([0.75, 0.35, QUARTER_PI - 0.35 + eps])
        for c0 in (0.0, 0.7):
            closed = power_interval(w, c0)
            hi = extremal_concurrence(w, c0, Direction.MAX)
            lo = extremal_concurrence(w, c0, Direction.MIN)
            assert hi.converged and lo.converged
            assert abs(hi.extremal_concurrence - closed.c_max) <= 1e-3
            assert abs(lo.extremal_concurrence - closed.c_min) <= 1e-3


@pytest.mark.parametrize("face", REACH_FACES)
@pytest.mark.parametrize("d", [2e-12, 5e-11, 1e-6, 1e-7])
def test_oracle_certifies_the_reach_rules_just_below_half_pi(face, d):
    # theta = pi/2 - d: zero is out of reach from a Bell state, since MIN's
    # certified bound is ~d, while a product state still reaches 1 - d^2 / 2.
    # CNOT reaches zero there, so the gate is strictly weaker than CNOT.
    w = REACH_FACES[face](d)
    lo = extremal_concurrence(w, 1.0, Direction.MIN)
    assert lo.converged and lo.bound > 1e-12 and power.can_reach_zero(w, 1.0) is False
    hi = extremal_concurrence(w, 0.0, Direction.MAX)
    assert hi.extremal_concurrence >= 1 - 1e-8 and power.can_reach_max(w, 0.0) is True
    assert power.compare_gates(w, (QUARTER_PI, 0.0, 0.0)) is power.GateOrdering.LESS


@pytest.mark.parametrize("w", [(QUARTER_PI, 0, 0), (QUARTER_PI, QUARTER_PI, 0), (math.pi / 8,) * 3],
                         ids=["cnot", "iswap", "sqrtswap"])
def test_oracle_certifies_that_saturating_gates_reach_zero_from_a_bell_state(w):
    lo = extremal_concurrence(w, 1.0, Direction.MIN)
    assert lo.extremal_concurrence <= 1e-8 and power.can_reach_zero(w, 1.0) is True


def test_conjugate_classes_have_identical_power():
    w = [0.6, 0.4, 0.2]
    flipped = [0.6, 0.4, -0.2]
    for c0 in (0.2, 0.8):
        a = extremal_concurrence(w, c0, Direction.MAX).extremal_concurrence
        b = extremal_concurrence(flipped, c0, Direction.MAX).extremal_concurrence
        assert abs(a - b) <= 1e-6


# Outputs of an earlier multi-start penalty descent, recorded with 24 starts, seed 13.
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
        r = extremal_concurrence(GOLDEN_GATES[gate], c0, direction)
        assert r.converged
        if direction is Direction.MAX:
            assert value <= r.bound
            assert r.extremal_concurrence >= value - 1e-8
        else:
            assert value >= r.bound
            assert r.extremal_concurrence <= value + 1e-8


def test_verify_profile_matches_recorded_report():
    report = verify_profile(GOLDEN_GATES["generic"], [0.0, 0.3, 1.0])
    assert report.rows == [
        ProfileRow(
            c0=0.0,
            closed_min=0.0,
            closed_max=0.9854497299884601,
            oracle_min=2.237726045655905e-16,
            oracle_max=0.9854497299884597,
            bound_min=0.0,
            bound_max=0.9854497299884659,
            deviation_min=2.237726045655905e-16,
            deviation_max=4.440892098500626e-16,
            converged=True,
            passed=True,
        ),
        ProfileRow(
            c0=0.3,
            closed_min=0.0,
            closed_max=1.0,
            oracle_min=1.3877787807814457e-16,
            oracle_max=0.9999999999999993,
            bound_min=0.0,
            bound_max=1.0,
            deviation_min=1.3877787807814457e-16,
            deviation_max=6.661338147750939e-16,
            converged=True,
            passed=True,
        ),
        ProfileRow(
            c0=1.0,
            closed_min=0.16996714290024104,
            closed_max=1.0,
            oracle_min=0.16996714290024073,
            oracle_max=0.9999999999999993,
            bound_min=0.16996714290023926,
            bound_max=1.0,
            deviation_min=3.0531133177191805e-16,
            deviation_max=6.661338147750939e-16,
            converged=True,
            passed=True,
        ),
    ]


@pytest.mark.parametrize("w", [(math.pi / 2, 0, 0), (-0.2, 0.1, 1.0), (1.4, -0.9, 0.35)])
def test_closed_form_holds_outside_the_chamber(w):
    # The oracle works on the raw eigenphases, so it sees the true class.
    assert verify_profile(w, [0, 0.5, 1]).passed


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
    # Converged and inside the brackets: only a tol below this bound can fail the row.
    row = verify_profile(VERIFY_ANCHORS[gate], [c0]).rows[0]
    assert row.passed and max(row.deviation_min, row.deviation_max) <= oracle._TOL + 1e-12


def test_oracle_certifies_the_order():
    # LESS claims max_small <= max_big and min_big <= min_small at every c0. No certificate
    # may contradict that: an achieved value beyond the other gate's certified bound would
    # (up to verify's 1e-12 rounding margin). Each converged bracket is at most _TOL wide,
    # so small's bound lies within _TOL above its extremum and big's achieved value within
    # _TOL below its own: the bound exceeds the achieved value by at most 2 _TOL.
    # EQUAL extrema agree within the 1e-12 slack, so achieved values within _TOL of that.
    named = {token: decompose(named_gate(token)).weyl for token in ("swap", "identity", "cnot")}
    gates = {**named, **VERIFY_ANCHORS, "cphase(1.0)": (0.25, 0.0, 0.0), "cphase(2.0)": (0.5, 0.0, 0.0)}
    brackets = {(name, c0): (extremal_concurrence(w, c0, Direction.MIN), extremal_concurrence(w, c0, Direction.MAX))
                for name, w in gates.items() for c0 in GRID_11}
    assert all(lo.converged and hi.converged for lo, hi in brackets.values())
    slack, relations = power._BOUNDARY_SLACK, set()
    for a, b in itertools.permutations(gates, 2):
        relation = power.compare_gates(gates[a], gates[b])
        relations.add(relation)
        for c0 in GRID_11:
            (lo_a, hi_a), (lo_b, hi_b) = brackets[a, c0], brackets[b, c0]
            if relation is power.GateOrdering.LESS:
                assert hi_a.extremal_concurrence <= hi_b.bound + slack, (a, b, c0)
                assert lo_b.bound <= lo_a.extremal_concurrence + slack, (a, b, c0)
                assert hi_a.bound <= hi_b.extremal_concurrence + 2 * oracle._TOL, (a, b, c0)
                assert lo_b.extremal_concurrence <= lo_a.bound + 2 * oracle._TOL, (a, b, c0)
            elif relation is power.GateOrdering.EQUAL:
                assert abs(hi_a.extremal_concurrence - hi_b.extremal_concurrence) <= oracle._TOL + slack, (a, b, c0)
                assert abs(lo_a.extremal_concurrence - lo_b.extremal_concurrence) <= oracle._TOL + slack, (a, b, c0)
    assert relations == set(power.GateOrdering)


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
    monkeypatch.setattr(oracle, "power_profile", refuse)
    w = [0.52, 0.33, 0.11]
    for c0 in (0.0, 0.45, 1.0):
        lo = extremal_concurrence(w, c0, Direction.MIN)
        hi = extremal_concurrence(w, c0, Direction.MAX)
        assert lo.converged and hi.converged
        target = 0.5 * (lo.extremal_concurrence + hi.extremal_concurrence)
        r = reach_target(w, c0, target)
        assert r.converged and abs(r.extremal_concurrence - target) <= 1e-8


def bisected_pad(u, omega):
    """Reference for ``oracle._pad``: 60 bisection steps for sum |u + t v| = 1."""
    if np.abs(u).sum() >= 1.0 - 1e-12:
        return u
    v = np.array(oracle._kernel(omega))
    lo, hi = 0.0, (1.0 + np.abs(u).sum()) / np.abs(v).sum()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.abs(u + mid * v).sum() < 1.0 else (lo, mid)
    return u + hi * v


def test_newton_pad_matches_bisection():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(19)
    for _ in range(2000):
        omega = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 4))
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u *= rng.uniform(0.0, 0.999) / np.abs(u).sum()
        newton, bisected = oracle._pad(u, omega), bisected_pad(u, omega)
        for out in (newton, bisected):
            assert abs(np.abs(out).sum() - 1.0) <= 4 * eps
            assert abs(out.sum() - u.sum()) <= 1e-15
            assert abs(out @ omega - u @ omega) <= 1e-15
        # Both move u along the same kernel vector, by t |v| = |out - u|.
        t_newton, t_bisected = np.linalg.norm(newton - u), np.linalg.norm(bisected - u)
        assert abs(t_newton - t_bisected) <= 1e-12 * t_bisected


def complex_difference_support(lam, c0, theta):
    """Reference for ``oracle._support`` on well-separated spectra, the complex-difference form: each
    w_j - z subtracted from the rounded points w_j = exp(i (2 l_j - theta)) and candidates z."""
    psi = 2.0 * lam[:, None] - theta
    w = np.exp(1j * psi)
    half = 0.5 * (psi[oracle._PAIRS[0]] + psi[oracle._PAIRS[1]])
    diff = 0.5 * (psi[oracle._PAIRS[0]] - psi[oracle._PAIRS[1]])
    s = c0 * np.cos(half)
    t = np.cos(diff) - s * np.abs(np.sin(diff)) / np.sqrt(1.0 - s * s)
    cand = np.concatenate([np.zeros((1, theta.size)), w, t * np.exp(1j * half)])
    dist = np.abs(w[:, None] - cand)
    g = c0 * cand.real + dist.max(axis=0)
    best, rows = g.argmin(axis=0), np.arange(theta.size)
    z, r = cand[best, rows], dist[:, best, rows]
    return g[best, rows], z, (w - z) / r, r - np.abs(z)


def row_first_nearest_weights(p, hull, valid=None):
    """Reference for ``oracle._nearest_weights``: the same arithmetic with the
    row axis first in the pieces (n, pieces, 3)."""
    first, second, by_one, by_two, index = (*hull[:2], *(table.T for table in hull[2:]))
    s = first.size
    weights = np.zeros((len(p), len(index), 3))
    t = oracle._segment_t(p[:, first], p[:, second] - p[:, first])
    weights[:, :s, 0], weights[:, :s, 1] = 1.0 - t, t
    bary = (p[:, by_one].conj() * p[:, by_two]).imag
    area = bary.sum(axis=2)
    inside = (area != 0) & np.all(bary * np.sign(area)[:, :, None] >= 0, axis=2)
    np.divide(bary, area[:, :, None], out=weights[:, s:], where=inside[:, :, None])
    dist = np.abs((weights * p[:, index]).sum(axis=2))
    ok = np.ones(dist.shape, dtype=bool)
    ok[:, s:] = inside
    if valid is not None:
        ok &= valid[:, index].all(axis=2)
    best = np.where(ok, dist, np.inf).argmin(axis=1)
    rows = np.arange(len(p))
    out = np.zeros(p.shape)
    np.add.at(out, (rows[:, None], index[best]), weights[rows, best])
    return out


def test_row_last_nearest_weights_match_the_row_first_reference():
    rng = np.random.default_rng(37)
    p = np.exp(1j * rng.uniform(0.0, 2 * math.pi, (300, 4))) - rng.uniform(0.0, 1.0, (300, 1))
    p[:30, 1] = p[:30, 0]  # coincident points
    valid = rng.random((300, 4)) < 0.7
    valid[:, 0] = True
    # Support points in angular order around an origin that is inside or outside their hull.
    fan = np.exp(1j * np.sort(rng.uniform(0.0, 2 * math.pi, (8, 64)))) * rng.uniform(0.5, 1.0, (8, 64))
    fan -= rng.uniform(-1.5, 1.5, (8, 1))
    for points, hull, mask in [(p, oracle._HULL_4, None), (p, oracle._HULL_4, valid),
                               (fan, oracle._fan(64), None)]:
        # The oracle takes and returns the point axis first, (m, n).
        got = oracle._nearest_weights(points.T, hull, None if mask is None else mask.T).T
        ref = row_first_nearest_weights(points, hull, mask)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_support_matches_the_complex_difference_form_on_separated_spectra():
    # Where no two w_j lie within 0.3 of each other, subtracting rounded points costs no digits, so the
    # complex-difference rows agree with the pair frames' to rounding (clustered spectra, where they
    # do not, are checked at 40 digits in test_oracle_precision.py).
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 8:
        lam = oracle.eigen_phases(random_chamber_point(rng))
        omega = np.exp(2j * lam)
        if np.abs(omega[:, None] - omega)[np.triu_indices(4, 1)].min() < 0.3:
            continue
        checked += 1
        for c0 in (0.0, float(rng.uniform(0.0, 0.99)), 0.99):
            theta = rng.uniform(0.0, 2 * math.pi, 200)
            h, z, units, excess = oracle._support(lam, c0, theta)
            g, z_ref, units_ref, excess_ref = complex_difference_support(lam, c0, theta)
            np.testing.assert_allclose(h, g, rtol=0, atol=1e-13)
            np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-13)
            np.testing.assert_allclose(excess, excess_ref, rtol=0, atol=1e-13)
            apart = excess_ref + np.abs(z_ref) > 1e-9  # a point at z has no unit vector
            np.testing.assert_allclose(units[apart], units_ref[apart], rtol=0, atol=1e-13)


def test_reach_target_lands_on_the_target():
    rng = np.random.default_rng(23)
    for _ in range(200):
        w = rng.uniform(-4.0, 4.0, 3)
        c0 = float(rng.uniform(0.0, 1.0))
        lo = extremal_concurrence(w, c0, Direction.MIN).extremal_concurrence
        hi = extremal_concurrence(w, c0, Direction.MAX).extremal_concurrence
        target = float(rng.uniform(lo, hi))
        r = reach_target(w, c0, target)
        assert r.converged
        assert abs(r.extremal_concurrence - target) <= 1e-12


def _counting_support(monkeypatch):
    """Wrap ``oracle._support``; returns the list of row counts per call."""
    rows, support = [], oracle._support

    def counted(lam, c0, theta):
        rows.append(theta.size)
        return support(lam, c0, theta)

    monkeypatch.setattr(oracle, "_support", counted)
    return rows


def _recording_support(monkeypatch):
    """Wrap ``oracle._support``; returns the list of directions per call."""
    thetas, support = [], oracle._support

    def recorded(lam, c0, theta):
        thetas.append(theta)
        return support(lam, c0, theta)

    monkeypatch.setattr(oracle, "_support", recorded)
    return thetas


def _opening(alpha) -> np.ndarray:
    """The directions every search of the gate below c0 = 1 opens on: those of a fresh search's
    first ``_support`` call.  Leaves the bracket memo empty."""
    with pytest.MonkeyPatch.context() as mp:
        thetas = _recording_support(mp)
        oracle._brackets.cache_clear()
        extremal_concurrence(alpha, 0.5, Direction.MIN)
    oracle._brackets.cache_clear()
    return thetas[0]


def _spectrum_directions(alpha) -> np.ndarray:
    """The quadrants, the points' directions 2 l_j and both ends of each pair's bisector l_j + l_k."""
    lam = oracle.eigen_phases(alpha)
    bisectors = [lam[j] + lam[k] for j, k in itertools.combinations(range(4), 2)]
    return np.mod([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, *2.0 * lam, *bisectors,
                   *(b + math.pi for b in bisectors)], 2.0 * math.pi)


def _circle_distance(a, b) -> np.ndarray:
    d = np.abs(np.subtract.outer(a, b)) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


# Anchors whose eigenphases coincide in pairs, triples or all four, moved along a fixed direction, by
# 3e-9 and 1e-8 into clusters a few _TOL wide, whose directions chain closer than _TOL; and free gates.
OPENING_GATES = [np.array(anchor) + e * np.array([1.0, -0.6, 0.3])
                 for anchor in [(0.0, 0.0, 0.0), (QUARTER_PI,) * 3, (math.pi / 8, math.pi / 8, -math.pi / 8),
                                (QUARTER_PI, 0.0, 0.0), (QUARTER_PI, QUARTER_PI, 0.0), (0.3, 0.3, 0.0)]
                 for e in (0.0, 1e-12, 3e-9, 1e-8, 1e-6)]
OPENING_GATES += [np.array(alpha) for alpha in VERIFY_ANCHORS.values()] + [np.array([1.4, -0.9, 0.35])]


@pytest.mark.parametrize("alpha", OPENING_GATES, ids=lambda a: ",".join(f"{x:.3g}" for x in a))
def test_opening_holds_the_spectrum_directions_one_per_cluster(alpha):
    opening, listed = _opening(alpha), np.sort(_spectrum_directions(alpha))
    assert np.all(np.diff(opening) > 0) and opening[0] >= 0 and opening[-1] < 2.0 * math.pi
    # Every kept direction is listed, and no two lie within _TOL of each other, around the circle too.
    assert _circle_distance(opening, listed).min(axis=1).max() <= 1e-15
    apart = _circle_distance(opening, opening) + np.diag(np.full(opening.size, math.inf))
    assert apart.min() > oracle._TOL
    # Every listed direction lies within _TOL of a kept one, of the listed one before it, or of the
    # first kept one's next turn: each reaches a kept direction through its cluster.
    near = _circle_distance(listed, opening).min(axis=1) <= oracle._TOL
    chained = np.diff(listed, prepend=-math.inf) <= oracle._TOL
    assert np.all(near | chained | (listed >= opening[0] + 2.0 * math.pi - oracle._TOL))
    # A kept direction opens its cluster: no listed one lies within _TOL before it.
    for k in opening[1:]:
        assert listed[listed < k - 1e-15].max() < k - oracle._TOL


def test_brackets_near_c0_one_hold_the_closed_form(monkeypatch):
    # The dual minimiser runs to |z| ~ 1e7; the bracket still closes, both sides on one opening.
    rows = _counting_support(monkeypatch)
    rng = np.random.default_rng(29)
    c0 = 1.0 - 1e-14
    for _ in range(10):
        w = rng.uniform(-4.0, 4.0, 3)
        closed = power_interval(w, c0)
        rows.clear()
        for direction in (Direction.MIN, Direction.MAX):
            r = extremal_concurrence(w, c0, direction)
            if direction is Direction.MAX:
                assert r.extremal_concurrence - 1e-12 <= closed.c_max <= r.bound + 1e-12
            else:
                assert r.bound - 1e-12 <= closed.c_min <= r.extremal_concurrence + 1e-12
            assert r.converged
        assert len(rows) == 1


@pytest.mark.parametrize("c0", [1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15, float(np.nextafter(1.0, 0.0))])
@pytest.mark.parametrize("gates", [facet_and_edge_points, _named_gates], ids=["facets_and_edges", "named"])
def test_brackets_close_near_c0_one_on_coincident_eigenphases(gates, c0):
    # |z| reaches 1 / sqrt(1 - c0^2) and coincident eigenphases give
    # two-point optima, which raw distances can read as one point.
    for w in gates():
        _assert_closed_form_inside(w, c0)


# Within 1e-5 to 1e-11 of the identity and SWAP classes the four w_j
# cluster and _primal's units (w - z) / r lose digits, so sum u misses c0
# by up to 9.8e-7 unless oracle._feasible puts each witness back on the
# constraint; unrepaired, verify fails correct closed forms.
NEAR_COINCIDENT = {f"identity+{e:g}": (e, 0.0, 0.0) for e in (1e-5, 1e-6, 1e-8, 1e-10, 1e-11)}
NEAR_COINCIDENT |= {f"swap-{e:g}": (QUARTER_PI, QUARTER_PI, QUARTER_PI - e) for e in (1e-6, 1e-8)}
# At c0 = 0 MAX's minimiser ties between z = w_1 and the bisector of (w_0, w_3).
NEAR_COINCIDENT["identity+1e-06-on-a2=a3"] = (0.0, 7.071067811865476e-07, 7.071067811865476e-07)


def _assert_rows_pass_on_feasible_witnesses(alpha, grid):
    for c0 in grid:
        assert verify_profile(alpha, [c0]).passed
        # The memo holds this (gate, c0): these are the row's own witnesses.
        lo, hi = (extremal_concurrence(alpha, c0, d) for d in (Direction.MIN, Direction.MAX))
        mid = reach_target(alpha, c0, 0.5 * (lo.extremal_concurrence + hi.extremal_concurrence))
        assert mid.converged
        for r in (lo, hi, mid):
            assert r.constraint_violation <= 1e-12


@pytest.mark.parametrize("gate", NEAR_COINCIDENT)
def test_verify_passes_when_eigenphases_nearly_coincide(gate):
    _assert_rows_pass_on_feasible_witnesses(NEAR_COINCIDENT[gate], GRID_11)


def _coinciding_omegas():
    """Points w_j with all four, three or two pairs coincident, and those of NEAR_COINCIDENT."""
    a, b = np.exp(0.3j), np.exp(2.1j)
    omegas = {"all-four": [a] * 4, "two-pairs": [a, a, b, b], "two-pairs-interleaved": [a, b, a, b],
              "three": [a, a, a, b], "three-last": [b, a, a, a]}
    anchors = {"identity": (0.0, 0.0, 0.0), "swap": (QUARTER_PI, QUARTER_PI, QUARTER_PI), **NEAR_COINCIDENT}
    omegas |= {name: np.exp(2j * oracle.eigen_phases(alpha)) for name, alpha in anchors.items()}
    return {name: np.array(w) for name, w in omegas.items()}


@pytest.mark.parametrize("name", _coinciding_omegas())
def test_pad_keeps_both_sums_where_points_coincide(name):
    # The kernel vector needs no division by a zero pair: all four w_j equal take (1, -1, 0, 0).
    omega = _coinciding_omegas()[name]
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    for k in range(50):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u *= 0.0 if k == 0 else rng.uniform(0.0, 0.999) / np.abs(u).sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = oracle._pad(u, omega)
        assert abs(np.abs(out).sum() - 1.0) <= 4 * eps
        assert abs(out.sum() - u.sum()) <= 1e-15
        assert abs(out @ omega - u @ omega) <= 1e-15


def test_verify_command_passes_a_near_identity_cphase(capsys):
    assert main(["verify", "--gate", "cphase:1e-5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from([(0.0, 0.0, 0.0), (QUARTER_PI, QUARTER_PI, QUARTER_PI)]),
    st.floats(-11.0, -4.0),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: np.linalg.norm(d) >= 0.1),
    st.floats(0.0, 1.0),
)
def test_verify_passes_near_the_identity_and_swap_classes(anchor, exponent, direction, c0):
    alpha = np.array(anchor) + 10.0**exponent * np.array(direction) / np.linalg.norm(direction)
    _assert_rows_pass_on_feasible_witnesses(alpha, [c0])


# Near sqrt(SWAP) three w_j nearly coincide and the fourth is antipodal, so at c0 = 1
# the origin lies in thin triangles of their hull, which the hull ranking can miss.
SQRT_SWAP = np.full(3, math.pi / 8)
NEAR_SQRT_SWAP_C0S = [*GRID_11, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1e-3, 1e-6]


def test_verify_command_passes_near_sqrt_swap(capsys):
    # At 50 digits the origin lies in two thin triangles of the w_j: C_min(1) is 0 and
    # the closed form is right, so MIN's bound at c0 = 1 must not read above it.
    gate = "canonical:0.39269908171573703,0.39269908170218726,0.39269908165894885"
    assert main(["verify", "--gate", gate]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


def test_verify_passes_near_sqrt_swap():
    # 20 draws of sqrt(SWAP) + 10^U(-12, -4) along a random direction per c0.
    rng = np.random.default_rng(1)
    for k in range(20 * len(NEAR_SQRT_SWAP_C0S)):
        direction = rng.standard_normal(3)
        alpha = SQRT_SWAP + 10.0 ** rng.uniform(-12.0, -4.0) * direction / np.linalg.norm(direction)
        _assert_rows_pass_on_feasible_witnesses(alpha, [NEAR_SQRT_SWAP_C0S[k % len(NEAR_SQRT_SWAP_C0S)]])


def _counting_primal(monkeypatch):
    """Wrap ``oracle._primal``; returns the list of row counts per call."""
    rows, primal = [], oracle._primal

    def counted(units, excess, c0):
        rows.append(units.shape[1])
        return primal(units, excess, c0)

    monkeypatch.setattr(oracle, "_primal", counted)
    return rows


@pytest.mark.parametrize("c0", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("gate", ["generic", "near_identity"])
def test_primal_states_are_built_only_where_a_search_reads_them(monkeypatch, gate, c0):
    # MIN reads every support point's state and MAX its best row's: the opening's rows get their
    # states in one _primal call, and nothing else does, also on the quadrants alone.
    size = _opening(VERIFY_ANCHORS[gate]).size
    support_rows, primal_rows = _counting_support(monkeypatch), _counting_primal(monkeypatch)
    for quadrants in (False, True):
        if quadrants:
            open_on_quadrants(monkeypatch)
        for direction in (Direction.MIN, Direction.MAX):
            oracle._brackets.cache_clear()
            support_rows.clear()
            primal_rows.clear()
            r = extremal_concurrence(VERIFY_ANCHORS[gate], c0, direction)
            assert r.converged or quadrants
            assert support_rows == primal_rows == [4 if quadrants else size]


def test_generic_max_search_takes_fewer_rows_than_uniform_pieces(monkeypatch):
    # Polygon bounds and uniform pieces alone took 16 + 15 + 15 + 15 = 61 rows here.
    rows = _counting_support(monkeypatch)
    assert extremal_concurrence(VERIFY_ANCHORS["generic"], 0.1, Direction.MAX).converged
    assert sum(rows) < 61


def test_primal_state_of_one_row_is_bit_identical_to_its_batched_row():
    # A row's state does not depend on the rows batched with it.
    rng = np.random.default_rng(31)
    for c0 in (0.0, 0.3, 0.9, 1.0 - 1e-12):
        lam = oracle.eigen_phases(rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-9.0, 0.0))
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, 64))
        _, _, units, excess = oracle._support(lam, c0, theta)
        batch = oracle._primal(units, excess, c0).T.copy()
        for k in range(theta.size):
            one = oracle._primal(units[:, k, None], excess[:, k, None], c0).ravel()
            assert one.tobytes() == batch[k].tobytes()


def _standalone_rows(alpha, grid):
    """Profile rows built from standalone searches, as verify_profile builds them."""
    rows = []
    for c0 in grid:
        closed = power_interval(alpha, c0)
        lo = extremal_concurrence(alpha, c0, Direction.MIN)
        hi = extremal_concurrence(alpha, c0, Direction.MAX)
        dev_min = abs(closed.c_min - lo.extremal_concurrence)
        dev_max = abs(closed.c_max - hi.extremal_concurrence)
        converged = lo.converged and hi.converged
        rows.append(ProfileRow(
            c0, closed.c_min, closed.c_max, lo.extremal_concurrence, hi.extremal_concurrence,
            lo.bound, hi.bound, dev_min, dev_max, converged, converged and dev_min <= 1e-3 and dev_max <= 1e-3,
        ))
    return rows


@pytest.mark.parametrize("gate", sorted(VERIFY_ANCHORS))
def test_shared_opening_leaves_profile_rows_bit_identical(gate):
    def bits(rows):
        return np.array([dataclasses.astuple(r) for r in rows], dtype=float).tobytes()

    shared = verify_profile(VERIFY_ANCHORS[gate], GRID_11).rows
    assert bits(shared) == bits(_standalone_rows(VERIFY_ANCHORS[gate], GRID_11))


def test_profile_rows_share_one_opening_and_hold_no_other(monkeypatch):
    # An opening is a call on the gate's opening directions.
    opening = _opening(VERIFY_ANCHORS["generic"])
    thetas = _recording_support(monkeypatch)

    def openings():
        return sum(np.array_equal(theta, opening) for theta in thetas)

    grid = [k / 50 for k in range(50)]
    verify_profile(VERIFY_ANCHORS["generic"], grid)
    assert openings() == len(grid)
    assert oracle._brackets.cache_info().currsize == 1
    # The memo holds the last row's brackets, so a search there evaluates nothing.
    thetas.clear()
    extremal_concurrence(VERIFY_ANCHORS["generic"], grid[-1], Direction.MIN)
    assert thetas == []
    verify_profile(VERIFY_ANCHORS["generic"], [0.5, 1.0])
    assert openings() == 1


def test_standalone_min_then_max_evaluate_one_opening(monkeypatch):
    alpha = VERIFY_ANCHORS["generic"]
    opening = _opening(alpha)
    thetas = _recording_support(monkeypatch)
    extremal_concurrence(alpha, 0.5, Direction.MIN)
    searched = len(thetas)
    extremal_concurrence(alpha, 0.5, Direction.MAX)
    assert sum(np.array_equal(theta, opening) for theta in thetas) == 1 and len(thetas) == searched
    # Keyed by exact bytes: -0.0 and 0.0 are two entries.
    thetas.clear()
    extremal_concurrence(alpha, 0.0, Direction.MIN)
    extremal_concurrence(alpha, -0.0, Direction.MAX)
    assert sum(np.array_equal(theta, opening) for theta in thetas) == 2


def test_memoised_opening_is_read_only():
    lam = oracle.eigen_phases(VERIFY_ANCHORS["generic"])
    for c0 in (0.5, 1.0):
        for u, _ in oracle._brackets(lam.tobytes(), c0.hex()):
            with pytest.raises(ValueError):
                u[0] = 0


def test_profile_that_raises_leaves_later_searches_correct(monkeypatch):
    alpha = VERIFY_ANCHORS["generic"]
    fresh = extremal_concurrence(alpha, 0.4, Direction.MAX)
    with pytest.raises(ValueError):
        verify_profile(alpha, [0.2, 1.5])
    search = oracle.extremal_concurrence

    def max_fails(alpha, c0, direction, cfg=None):
        if direction is Direction.MAX:
            raise RuntimeError("search failed")
        return search(alpha, c0, direction, cfg)

    # Raised between the two searches of one row: the row's brackets stay memoised.
    monkeypatch.setattr(oracle, "extremal_concurrence", max_fails)
    with pytest.raises(RuntimeError):
        verify_profile(alpha, [0.4])
    monkeypatch.undo()
    hits = oracle._brackets.cache_info().hits
    later = extremal_concurrence(alpha, 0.4, Direction.MAX)
    assert oracle._brackets.cache_info().hits == hits + 1
    assert later.achiever.tobytes() == fresh.achiever.tobytes()
    assert (later.extremal_concurrence, later.bound) == (fresh.extremal_concurrence, fresh.bound)


def test_reach_target_makes_one_opening(monkeypatch):
    opening = _opening(VERIFY_ANCHORS["generic"])
    thetas = _recording_support(monkeypatch)
    first = reach_target(VERIFY_ANCHORS["generic"], 0.5, 0.7)
    assert first.converged
    assert sum(np.array_equal(theta, opening) for theta in thetas) == 1
    # A second call at the same (gate, c0) reuses it and gives the same state.
    searched = len(thetas)
    assert reach_target(VERIFY_ANCHORS["generic"], 0.5, 0.7).achiever.tobytes() == first.achiever.tobytes()
    assert len(thetas) == searched


@pytest.mark.parametrize("c0", GRID_11[:-1])
@pytest.mark.parametrize("gate", ["saturating", "facet"])
def test_profile_row_builds_the_opening_states_once(monkeypatch, gate, c0):
    size = _opening(VERIFY_ANCHORS[gate]).size
    support_rows, primal_rows = _counting_support(monkeypatch), _counting_primal(monkeypatch)
    assert verify_profile(VERIFY_ANCHORS[gate], [c0]).passed
    # Neither side refines, so both read the opening's states.
    assert support_rows == primal_rows == [size]
    # A later search at the same (gate, c0) builds nothing new.
    support_rows.clear()
    primal_rows.clear()
    extremal_concurrence(VERIFY_ANCHORS[gate], c0, Direction.MAX)
    assert support_rows == primal_rows == []


@pytest.mark.parametrize("gate", sorted(VERIFY_ANCHORS))
def test_min_stops_when_its_hull_holds_the_origin(monkeypatch, gate):
    rows = _counting_support(monkeypatch)
    r = extremal_concurrence(VERIFY_ANCHORS[gate], 0.5, Direction.MIN)
    assert r.converged and len(rows) == 1
    if gate == "near_identity":  # c_min > 0: a direction of the opening separates 0 from D
        assert r.bound > 0
    else:
        assert r.bound == 0
        assert r.extremal_concurrence <= 0.1 * oracle._TOL


@pytest.mark.parametrize("c0", GRID_11[:-1])
@pytest.mark.parametrize("gate", sorted(VERIFY_ANCHORS))
def test_verify_anchors_close_on_their_opening(monkeypatch, gate, c0):
    # The bisectors carry the interior optima, so every verify anchor closes on its opening.
    opening = _opening(VERIFY_ANCHORS[gate])
    thetas = _recording_support(monkeypatch)
    assert verify_profile(VERIFY_ANCHORS[gate], [c0]).passed
    assert len(thetas) == 1 and np.array_equal(thetas[0], opening)


@pytest.mark.parametrize("c0", GRID_11[:-1])
@pytest.mark.parametrize("gate", sorted(VERIFY_ANCHORS))
def test_quadrant_opening_fails_safe_and_closes_at_the_ends(monkeypatch, gate, c0):
    # Opened on the quadrants alone, off the bisectors, an interior optimum's bracket stays open (the
    # near-identity anchor's at every c0 > 0, the generic one's MAX at 0.1), yet each bracket still
    # holds the closed form: a coarse opening can fail a row as "not converged", never pass a wrong one.
    # Optima at the ends close on any opening: MIN where c_min = 0, MAX at bound 1 where C_max = 1.
    open_on_quadrants(monkeypatch)
    rows = _counting_support(monkeypatch)
    report = verify_profile(VERIFY_ANCHORS[gate], [c0])
    row = report.rows[0]
    assert rows == [4]
    assert report.failures == ([] if row.converged else ["1 of 1 rows not converged"])
    closed = power_interval(VERIFY_ANCHORS[gate], c0)
    if closed.c_min == 0.0:
        assert row.bound_min == 0.0 and row.oracle_min <= 0.1 * oracle._TOL
    if closed.c_max == 1.0:
        assert row.bound_max == 1.0 and row.oracle_max >= 1.0 - 1e-14
    if closed.c_min == 0.0 and closed.c_max == 1.0:
        assert row.converged


# Saturating chamber gates within 1e-10 of c0 = 1.  On an opening of 16 uniform directions MAX read the
# row whose support value is 1 at the edge of its arc, where the dual minimiser is the origin; that row's
# primal state misses sum u = c0 by 1.3e-8, and made feasible it fell to |F| = 1 - 1.03e-8, leaving the
# first four rows unconverged.  The last four fail on an opening without the points' directions 2 l_j,
# which centre the arc where MAX's support value is 1 as c0 -> 1.
NEAR_ONE_SATURATING = [
    ((0.6973602481593326, 0.19974332431180303, 0.13362310741388372), 1.0 - 1e-12),
    ((0.6931092765347989, 0.47613572082281586, 0.09307083107149527), 1.0 - 1e-13),
    ((0.5586896135372126, 0.5567129162585077, -0.12279938361216736), 1.0 - 1e-11),
    ((0.6852329994743855, 0.27725717464994715, -0.09869193077047433), 1.0 - 1e-14),
    ((0.740917741002032, 0.38090679397421007, -0.3533438361356695), 1.0 - 1e-10),
    ((0.46561474504101913, 0.4251215898585878, 0.1029186975801144), 1.0 - 1e-10),
    ((0.6657226315028113, 0.31512196558118016, 0.08364496690937617), 1.0 - 1e-12),
    ((0.6148088909974947, 0.4969767973960754, 0.19497276139096775), 1.0 - 1e-14),
]


@pytest.mark.parametrize("alpha, c0", NEAR_ONE_SATURATING)
def test_saturating_max_closes_within_1e_10_of_c0_one(alpha, c0):
    row = verify_profile(alpha, [c0]).rows[0]
    assert row.passed
    assert row.bound_max - row.oracle_max <= 1e-14


# Each row closes on its opening.  The first three lie within ~1e-9 of SWAP or the identity, where
# support rows built from rounded points lose their units' digits (the first then read "not converged",
# the next two took 4098 and 52 rows); the rest have C_max(c0) = 1 with MAX open after the opening,
# so MAX is built outright at bound 1.
ONE_PASS_ROWS = [
    ((0.7853981626653236, 0.7853981614415666, 0.7853981630580563), 0.3),
    ((0.78539816380623, 0.7853981627575832, 0.7853981631907713), 0.9224580545285921),
    ((8.176215259667902e-10, 1.3102426491608592e-10, 2.1456102711960645e-09), 0.5),
    ((0.2520324284687303, 0.2376129683238857, -0.21468425046446615), 0.8),
    *(((0.5609191553095477, 0.024217451999067944, 0.010769357621616682), c0) for c0 in (0.5, 0.6, 0.7)),
    ((0.4855175999180696, 0.45017016164711154, -0.43598276878879383), 0.5),
    ((0.7856535906646493, 0.7854843817806915, -0.00046317135303458227), 0.1),
]


@pytest.mark.parametrize("alpha, c0", ONE_PASS_ROWS)
def test_rows_close_on_one_support_call(monkeypatch, alpha, c0):
    rows = _counting_support(monkeypatch)
    row = verify_profile(alpha, [c0]).rows[0]
    assert row.passed and len(rows) == 1
    if ONE_PASS_ROWS.index((alpha, c0)) >= 3:
        assert row.bound_max == 1.0 and row.oracle_max >= 1.0 - 1e-14


def test_min_hull_state_that_cancels_to_zero_is_made_feasible():
    # The hull weights cancel MIN's states to u = 0 exactly; the miss of sum u = c0 is spread evenly.
    alpha = (1.0750987377908095e-10, -2.794672273459428e-10, 8.264339372071083e-12)
    assert verify_profile(alpha, [1e-9]).passed
    u = oracle._feasible(np.zeros(4, complex), np.exp(2j * oracle.eigen_phases(alpha)), 1e-9)
    assert u.sum() == pytest.approx(1e-9, abs=1e-15) and np.abs(u).sum() == pytest.approx(1.0)


# reach_target(anchor, 0.5, target): value, constraint violation, achiever bytes.
RECORDED_REACH = {
    "generic": (0.5, 0.49999999999999967, 3.3306690738754696e-16,
                "814f6b62c58adc3fe4a9e3e8d33be0bf40842b9e7a9ed43fc0ef529dc37c9dbf"
                "98e9a2fc3675ce3f055f906f1115d7bf814f6b62c58adc3f903de082509ecd3f"),
    "near_identity": (0.49840085315130966, 0.49840085315130944, 2.220446049250313e-16,
                      "000000000000000059b63dc67695e3bf9a20c6e56c7dd23fe122172f8f9ccebf"
                      "22879780e25ed03f25f7252c571acb3f000000000000000059b63dc67695e33f"),
    "saturating": (0.5, 0.4999999999999996, 5.551115123125783e-17,
                   "ae1cdca8e5aec23ff2a9d398138ad5bf187dfa720c11933f95561d898028d3bf"
                   "c8d3f3949974dabfc0dfe3d7f77da73f5248967ffb59a1bf5dc02a589cd0e83f"),
    "facet": (0.5, 0.4999999999999998, 1.6653345369377348e-16,
              "7a17b3dec7b6dd3ffe00cbf906d5cebf0cc863615281c23fbc211487c970d53f"
              "0cc863615281c2bfbc211487c970d5bff9df0908f943e53faabfd389176dc13f"),
}


@pytest.mark.parametrize("gate", sorted(RECORDED_REACH))
def test_reach_target_matches_recorded_states(gate):
    target, value, violation, achiever = RECORDED_REACH[gate]
    r = reach_target(VERIFY_ANCHORS[gate], 0.5, target)
    assert (r.extremal_concurrence, r.constraint_violation, r.bound) == (value, violation, target)
    assert r.converged
    assert r.achiever.tobytes().hex() == achiever


def test_hull_tables_are_built_once_and_read_only():
    assert oracle._fan(64) is oracle._fan(64)
    for table in (*oracle._HULL_4, *oracle._fan(64)):
        assert not table.flags.writeable


def test_nearest_weights_survive_a_subnormal_triangle_area():
    # Two points 2e-305 rad apart: a barycentric weight times the triangle's
    # area underflowed to -0.0, so the triangle passed as inside and
    # dividing by its area overflowed.
    tiny = 2.1400817583260724e-305
    p = np.exp(1j * np.array([[tiny, tiny, 0.0, 3.0]])) - 0.2591679257250581
    mu = oracle._nearest_weights(p.T, oracle._HULL_4)
    np.testing.assert_allclose(mu.T, [[0.62958396, 0.0, 0.0, 0.37041604]], atol=1e-8)


# Two active points at angles (first, second), c0: the nearest point of
# their segment is clipped to the first end, clipped to the second end, and
# the two points coincide (|e| = 0).
TWO_POINT_EDGES = [((0.1, 0.3), 0.9, [1.0, 0.0]), ((0.3, 0.1), 0.9, [0.0, 1.0]), ((0.7, 0.7), 0.4, [1.0, 0.0])]


def test_nearest_weights_on_two_point_edges():
    # The dual minimiser is 0; the two active points lie at distance 2 and
    # the other two at 0.5, so exactly two distances are within
    # _ACTIVE_ATOL of the largest.
    w = np.array([[2.0 * np.exp(1j * a), 2.0 * np.exp(1j * b), 0.5 * np.exp(1j), 0.5 * np.exp(2j)]
                  for (a, b), _, _ in TWO_POINT_EDGES]).T
    c0, r = np.array([edge[1] for edge in TWO_POINT_EDGES]), np.abs(w)
    active = r >= r.max(axis=0) - oracle._ACTIVE_ATOL
    assert np.all(active.sum(axis=0) == 2)
    mu = oracle._nearest_weights(w / r - c0, oracle._HULL_4, active)
    np.testing.assert_array_equal(mu[:2].T, [weights for *_, weights in TWO_POINT_EDGES])
