"""The closed forms against a reference copy of their former path.

The reference reduces alpha through the former ``reduce_alpha`` (numpy
validation, the shift, a bubble sort by magnitude, the sign flips and the
a1 = pi/4 mirror) and reads (a1, a2, |a3|) from the array it returns; it
clamps c0 as the former ``_concurrence`` did, with ``min`` and ``max``.
``gatepower.power`` takes the same numbers as magnitudes of plain floats;
every result must agree bit for bit, and every rejected input must raise
the same exception with the same message.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_mutants import NEAR_HALF_PI, OUTSIDE_CHAMBER
from test_oracle import GRID_11, VERIFY_ANCHORS
from gatepower import (
    GateOrdering,
    PowerInterval,
    c0_max,
    c1_min,
    compare_gates,
    effective_angle,
    power_interval,
    power_profile,
    saturation_condition,
)
from gatepower.states import _concurrence

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0
CNOT_W = (QUARTER_PI, 0.0, 0.0)


def _reference_coordinates(alpha):
    a = np.asarray(alpha)
    if a.dtype.kind == "O":
        a = np.asarray(a.tolist())
    if a.dtype.kind == "c":
        raise ValueError(f"chamber coordinates must be real numbers, got {a.tolist()}")
    # Numbers are ints and floats: no bool, string or other object, also inside a list.
    entries = alpha.tolist() if isinstance(alpha, np.ndarray) else []
    entries = list(alpha) if isinstance(alpha, (list, tuple)) else entries
    if (a.dtype.kind not in "iufO" or any(isinstance(x, (bool, np.bool_)) for x in entries)
            or a.dtype.kind == "O" and not all(isinstance(x, int) for x in a.ravel().tolist())):
        raise ValueError(f"chamber coordinates must be three finite numbers, |a_j| <= 1e3, got {entries or a.tolist()}")
    a = a.astype(float, copy=False)
    values = a.tolist()
    a1, a2, a3 = values if a.shape == (3,) else [math.nan] * 3
    if not (abs(a1) <= 1e3 and abs(a2) <= 1e3 and abs(a3) <= 1e3):
        raise ValueError(f"chamber coordinates must be three finite numbers, |a_j| <= 1e3, got {values}")
    return values


def reference_abs_a3(alpha):
    a = [x - math.ceil(x / HALF_PI - 0.5) * HALF_PI for x in _reference_coordinates(alpha)]
    for j, k in ((0, 1), (1, 2), (0, 1)):
        if abs(a[j]) < abs(a[k]):
            a[j], a[k] = a[k], a[j]
    if a[0] < 0:
        a[0], a[2] = -a[0], -a[2]
    if a[1] < 0:
        a[1], a[2] = -a[1], -a[2]
    if a[2] < -1e-15 and a[0] >= QUARTER_PI - 1e-10:
        a[2] = -a[2]
    a1, a2, a3 = np.array(a).tolist()
    return a1, a2, abs(a3)


def reference_theta(alpha):
    a1, a2, a3 = reference_abs_a3(alpha)
    return max(min(2.0 * (a1 + a2), 2.0 * (math.pi / 2.0 - a2 - a3), math.pi / 2.0), 0.0)


def reference_concurrence(value, what="initial"):
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"{what} concurrence must be in [0, 1], got {value}")
    return float(min(max(value, 0.0), 1.0))


def reference_interval(alpha, c0, theta_of=reference_theta):
    c0 = reference_concurrence(c0)
    theta = theta_of(alpha)
    phi = math.acos(c0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    root = math.sqrt(max(1.0 - c0 * c0, 0.0))
    c_max = 1.0 if phi <= theta else c0 * cos_t + sin_t * root
    c_min = 0.0 if phi + theta >= math.pi / 2.0 else c0 * cos_t - sin_t * root
    return max(min(c_min, c0), 0.0), min(max(c_max, c0), 1.0)


def reference_saturation(alpha):
    """Both reach rules at the worst inputs: c_max at c0 = 0 reaches 1 and c_min at c0 = 1 reaches 0."""
    return reference_interval(alpha, 0.0)[1] >= 1 - 1e-12 and reference_interval(alpha, 1.0)[0] <= 1e-12


def reference_compare(alpha_a, alpha_b):
    """Thetas within the reach rules' 1e-12 slack are EQUAL."""
    ta, tb = reference_theta(alpha_a), reference_theta(alpha_b)
    if abs(ta - tb) <= 1e-12:
        return GateOrdering.EQUAL
    return GateOrdering.LESS if ta < tb else GateOrdering.GREATER


def _bits(x):
    """A float's exact value and sign, -0.0 told apart from 0.0."""
    return x.hex(), math.copysign(1.0, x)


def _expected_theta(w):
    """The reference theta, but for the one value the magnitudes move: where the
    reference keeps a1 and a2 of the zero gate as -0.0, its theta is -0.0, and +0.0
    here (so c_max at c0 = -0.0 is +0.0, not -0.0)."""
    a1, a2, _ = reference_abs_a3(w)
    if math.copysign(1.0, a1) < 0 and math.copysign(1.0, a2) < 0:
        assert _bits(reference_theta(w)) == _bits(-0.0)
        return 0.0
    return reference_theta(w)


# Coordinate values where the shift, the sort or a sign changes: signed zeros,
# +-pi/4, multiples of pi/2 and the floats next to each.
_EDGES = [0.0, QUARTER_PI, *(k * HALF_PI for k in range(1, 5)), 1e3]
SPECIAL = sorted(
    {s * y for x in _EDGES for y in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)) for s in (1.0, -1.0)
     if abs(y) <= 1e3}
)
FIXED = [
    *VERIFY_ANCHORS.values(), *OUTSIDE_CHAMBER, *NEAR_HALF_PI,
    (-0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, HALF_PI), (-0.0, -0.0, -HALF_PI),
    # The a1 = pi/4 face with a3 < 0, on it and within the mirror's 1e-10 of it.
    (QUARTER_PI, 0.3, -0.2), (QUARTER_PI - 1e-11, 0.3, -0.2), (QUARTER_PI - 1e-9, 0.3, -0.2), (-QUARTER_PI, 0.2, -0.1),
    # theta = pi/2 - 1.5e-12, where the coordinate sums saturate and c_min at c0 = 1 does not,
    # and pi/2 - 1e-6, where sin(theta) is within 1e-12 of 1 and c_min at c0 = 1 is 1e-6.
    (QUARTER_PI - 7.5e-13, 0.0, 0.0), (QUARTER_PI - 5e-7, 0.0, 0.0),
]
COORDS = st.tuples(*[st.floats(-1e3, 1e3) | st.sampled_from(SPECIAL)] * 3) | st.sampled_from(FIXED)
# The 11-point grid and the drift that _concurrence clamps.
C0S = [*GRID_11, -0.0, -1e-13, 1.0 + 1e-13, math.nextafter(1.0, 0.0), 5e-324]
# The same floats as a tuple, a list or an array; ints go through numpy's float conversion.
FORMS = st.sampled_from([tuple, list, np.array])


def _check_against_reference(w, form):
    alpha = form(w)
    assert _bits(effective_angle(alpha)) == _bits(_expected_theta(w))
    for c0 in C0S:
        got = power_interval(alpha, c0)
        assert [_bits(x) for x in got] == [_bits(x) for x in reference_interval(w, c0, _expected_theta)], c0
    assert _bits(c0_max(alpha)) == _bits(reference_interval(w, 0.0)[1])
    assert _bits(c1_min(alpha)) == _bits(reference_interval(w, 1.0)[0])
    assert saturation_condition(alpha) is reference_saturation(w)
    for other in (CNOT_W, VERIFY_ANCHORS["generic"], w):
        assert compare_gates(alpha, other) is reference_compare(w, other)
        assert compare_gates(other, alpha) is reference_compare(other, w)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(COORDS, FORMS)
def test_closed_forms_match_the_reference_bit_for_bit(w, form):
    _check_against_reference(w, form)


@pytest.mark.parametrize("w", FIXED, ids=[str(w) for w in FIXED])
def test_fixed_points_match_the_reference_bit_for_bit(w):
    _check_against_reference(w, tuple)


def test_theta_of_the_negative_zero_gate_is_the_one_moved_value():
    w = (-0.0, -0.0, 0.0)
    assert _bits(reference_theta(w)) == _bits(-0.0) and _bits(effective_angle(w)) == _bits(0.0)
    assert _bits(reference_interval(w, -0.0)[1]) == _bits(-0.0) and _bits(power_interval(w, -0.0).c_max) == _bits(0.0)
    assert [_bits(x) for x in power_interval(w, 0.0)] == [_bits(x) for x in reference_interval(w, 0.0)]


BAD = [
    [math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf], [1e3 + 1e-9, 0.0, 0.0], (0.1, -1001, 0.2),
    [0.1, 0.2], [0.1, 0.2, 0.3, 0.4], 0.5, np.float64(0.5), np.zeros((3, 1)), [[0.1], [0.2], [0.3]],
    [0.1j, 0.0, 0.0], np.array([0.1, 0.2, 0.3]) + 0j, ["a", "b", "c"], [None, 0.0, 0.0], np.array([np.nan, 0.1, 0.2]),
]
CALLS = {
    "effective_angle": (effective_angle, reference_theta),
    "saturation_condition": (saturation_condition, reference_saturation),
    "power_interval": (lambda w: power_interval(w, 0.5), lambda w: reference_interval(w, 0.5)),
    "c0_max": (c0_max, lambda w: reference_interval(w, 0.0)),
    "compare_gates": (lambda w: compare_gates(CNOT_W, w), lambda w: reference_compare(CNOT_W, w)),
}


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", BAD, ids=[repr(b) for b in BAD])
@pytest.mark.parametrize("call", CALLS, ids=list(CALLS))
def test_invalid_input_raises_as_the_reference(call, bad):
    new, reference = CALLS[call]
    assert _raised(new, bad) == _raised(reference, bad)


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.1, 0.2]])
def test_c0_is_checked_before_alpha(bad):
    assert _raised(power_interval, bad, 1.5) == _raised(reference_interval, bad, 1.5)
    assert "initial concurrence" in _raised(power_interval, bad, 1.5)[1]


def test_strings_and_ints_read_as_the_reference():
    # Ints are numbers; numeric strings and bools, which a float conversion would read, are not.
    for w in ([1, 0, 0], (np.float32(0.3), 0.2, 0.1), np.array([3, 2, 1])):
        assert _bits(effective_angle(w)) == _bits(reference_theta(w))
    for w in (["0.5", "0.25", "-0.125"], [True, False, False], (0.5, True, 0.1)):
        assert _raised(effective_angle, w) == _raised(reference_theta, w)


# c0 at and next to the ends of [0, 1], and within the 1e-12 drift that _concurrence clamps.
PROFILE_C0_POINTS = [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), 5e-324, -1e-12, 1.0 + 1e-12]
PROFILE_C0 = (
    st.sampled_from(PROFILE_C0_POINTS)
    | st.floats(-1e-12, 1e-12) | st.floats(1.0 - 1e-12, 1.0 + 1e-12) | st.floats(0.0, 1.0)
)
GRID_FORMS = st.sampled_from([list, tuple, np.array, iter])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(COORDS, FORMS, st.lists(PROFILE_C0, max_size=12), GRID_FORMS)
def test_power_profile_is_the_per_call_list_bit_for_bit(w, form, c0s, grid_form):
    alpha = form(w)
    got = power_profile(alpha, grid_form(c0s))
    want = [power_interval(alpha, c0) for c0 in c0s]
    assert type(got) is list and all(type(interval) is PowerInterval for interval in got)
    assert [[_bits(x) for x in interval] for interval in got] == [[_bits(x) for x in interval] for interval in want]


BAD_C0 = [math.nextafter(-1e-12, -1.0), math.nextafter(1.0 + 1e-12, 2.0), 1.5, -math.inf, math.nan]


@pytest.mark.parametrize("bad", BAD_C0, ids=[repr(b) for b in BAD_C0])
def test_power_profile_rejects_a_bad_c0_as_power_interval(bad):
    for c0s in ([bad], [0.5, bad], [bad, 0.5]):
        assert _raised(power_profile, CNOT_W, c0s) == _raised(power_interval, CNOT_W, bad)
    # With a bad alpha as well, the first c0 decides which is reported, as in the per-call list.
    assert _raised(power_profile, BAD[0], [bad, 0.5]) == _raised(power_interval, BAD[0], bad)
    assert _raised(power_profile, BAD[0], [0.5, bad]) == _raised(power_interval, BAD[0], 0.5)


@pytest.mark.parametrize("bad", BAD, ids=[repr(b) for b in BAD])
def test_power_profile_rejects_a_bad_alpha_as_power_interval(bad):
    assert _raised(power_profile, bad, [0.5, 0.0]) == _raised(power_interval, bad, 0.5)


@pytest.mark.parametrize("empty", [[], (), np.array([]), iter([])], ids=["list", "tuple", "array", "iterator"])
def test_power_profile_of_an_empty_grid_is_empty_and_reads_no_alpha(empty):
    assert power_profile(CNOT_W, empty) == []
    assert power_profile([math.nan, 0.0, 0.0], empty) == []


# Every kind of number _concurrence is given, at and next to the ends of [0, 1].
CLAMP_INPUTS = [
    *PROFILE_C0_POINTS, *BAD_C0, 1, 0, True, False, Fraction(1, 3), np.float64(-1e-13), np.float64(1.0 + 1e-13),
    np.float32(0.3), np.int64(1), np.float64(-0.0),
]


def _raised_or_bits(call, *args):
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), _bits(value)


@pytest.mark.parametrize("c0", CLAMP_INPUTS, ids=[repr(c0) for c0 in CLAMP_INPUTS])
def test_concurrence_clamp_matches_the_reference(c0):
    for what in ("initial", "final"):
        new, reference = _raised_or_bits(_concurrence, c0, what), _raised_or_bits(reference_concurrence, c0, what)
        assert new == reference
