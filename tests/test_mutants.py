"""A gallery of single faults in the closed forms that verification must catch.

Each mutant rewrites one expression in one function that
``gatepower.power`` calls by name (its own, or ``reduce_alpha``) and is
applied with monkeypatch; ``verify_profile`` then runs on every
(gate, c0) of a gate set fixed up front.  A mutant must fail the certified
bracket check on at least one gate.  A mutant that no gate can expose is
listed as equivalent, with the reason, and must fail on none.
"""

import inspect
import math
import sys

import numpy as np
import pytest

from test_edge_cases import facet_and_edge_points
from test_oracle import GRID_11, VERIFY_ANCHORS, _named_gates
from gatepower import oracle, power, random_unitary, verify_profile, weyl_coordinates

OUTSIDE = "outside the certified bracket"
QUARTER_PI = math.pi / 4
# Every second point of GRID_11, to keep the module near 2 s.
GRID = GRID_11[::2]

# (name, function, expression, its mutant, why no gate can expose it or None).
MUTANTS = [
    ("theta_plus_1e-8", "effective_angle", "math.pi / 2.0), 0.0)", "math.pi / 2.0), 0.0) + 1e-8", None),
    ("factor_2_dropped", "effective_angle", "2.0 * (a1 + a2)", "(a1 + a2)", None),
    ("sin_sign_flipped", "power_interval", "c0 * cos_t + sin_t * root", "c0 * cos_t - sin_t * root", None),
    # Facet points (t, t, -t) with t > pi/8 take theta from 2 (pi/2 - a2 - |a3|).
    ("abs_a3_read_as_a3", "_abs_a3", "abs(a3)", "a3", None),
    ("half_pi_clamp_dropped", "effective_angle", "math.pi / 2.0 - a2 - a3), math.pi / 2.0)",
     "math.pi / 2.0 - a2 - a3))",
     "theta > pi/2 gives arccos(c0) <= theta and arccos(c0) + theta >= pi/2 for every c0, so "
     "power_interval returns [0, 1], as at theta = pi/2"),
    # Within ~1e-8 below theta = pi/2, sin(theta) rounds to 1, so deciding the c_min clamp
    # on it rounds c_min at c0 = 1 to 0; snapping a1 onto pi/4 (by up to 1e-10) in the face
    # fold moves theta = 2 (a1 + a2).  The NEAR_HALF_PI gates expose both.
    ("sine_decides_the_c_min_clamp", "power_interval", "phi + theta >= math.pi / 2.0", "c0 <= sin_t", None),
    ("a1_snapped_to_quarter_pi", "reduce_alpha", "        a[2] = -a[2]\n", "        a[0], a[2] = _QUARTER_PI, -a[2]\n",
     None),
    ("c0_clamps_dropped", "power_interval", "    c_max = min(max(c_max, c0), 1.0)\n    c_min = max(min(c_min, c0), 0.0)\n",
     "",
     "for theta in [0, pi/2] the angle-addition forms lie within rounding (~1e-16) of [0, 1] and "
     "of their side of c0, far inside the 1e-12 margin of the certified check"),
    # Only coordinates outside the chamber reach the flip: (-0.3, 0.2, 0.1) has theta = 1.0, the mutant 0.
    ("first_sign_flip_skipped", "reduce_alpha", "a[0] < 0", "False", None),
    ("quarter_pi_mirror_dropped", "reduce_alpha",
     "    if a[2] < -1e-15 and a[0] >= _QUARTER_PI - 1e-10:\n        a[2] = -a[2]\n", "",
     "the mirror keeps a1 and flips only a3, which power reads as |a3|, so power_interval returns the "
     "same floats"),
]
# Coordinates given outside the chamber, which only reduce_alpha's moves bring into it.
OUTSIDE_CHAMBER = [(-0.3, 0.2, 0.1), (0.1, 0.05, -0.6), (-0.7, -0.1, 0.3)]
# theta within ~1e-8 below pi/2, where sin(theta) rounds to 1 but c_min at c0 = 1 is cos(theta);
# the last lies within 1e-10 of the a1 = pi/4 face with a3 < 0, so reduce_alpha folds it.
NEAR_HALF_PI = [(QUARTER_PI - 1e-9, 0.0, 0.0), (QUARTER_PI - 1e-9, 1e-10, -1e-10), (QUARTER_PI - 1e-10, 1e-12, -1e-12)]


def _gates():
    haar = [weyl_coordinates(random_unitary(4, seed)) for seed in range(4)]
    fixed = [np.array(a) for a in [*VERIFY_ANCHORS.values(), *OUTSIDE_CHAMBER, *NEAR_HALF_PI]]
    return fixed + _named_gates() + facet_and_edge_points() + haar


def _mutated(function, expression, mutant):
    """A copy of the function that ``power.<function>`` names, with
    ``expression`` rewritten; it reads the globals of the module that
    defines it, so it sees the other functions as patched."""
    original = getattr(power, function)
    source = inspect.getsource(original)
    assert source.count(expression) == 1
    scope = {}
    exec(source.replace(expression, mutant), vars(sys.modules[original.__module__]), scope)
    return scope[function]


@pytest.fixture(scope="module")
def exposing_gates():
    """For the unmutated closed forms (None) and each mutant, the indices of
    the gates where some c0 of the grid falls outside its certified bracket.
    Mutants run inside each (gate, c0), so all of them read one bracket pair."""
    faults = [(None, None, None)] + [(name, fn, _mutated(fn, *rewrite)) for name, fn, *rewrite, _ in MUTANTS]
    exposed = {name: set() for name, *_ in faults}
    for k, alpha in enumerate(_gates()):
        for c0 in GRID:
            for name, function, mutant in faults:
                with pytest.MonkeyPatch.context() as mp:
                    if mutant is not None:
                        mp.setattr(power, function, mutant)
                    if function == "power_interval":  # verify_profile calls the name it imported
                        mp.setattr(oracle, function, mutant)
                    if any(OUTSIDE in cause for cause in verify_profile(alpha, [c0]).failures):
                        exposed[name].add(k)
    return exposed


def test_unmutated_closed_forms_pass_on_every_gate(exposing_gates):
    assert exposing_gates[None] == set()


@pytest.mark.parametrize("name, equivalent", [(m[0], m[-1]) for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_fails_the_certified_check(exposing_gates, name, equivalent):
    if equivalent is None:
        assert exposing_gates[name], f"no gate exposes {name}"
    else:
        assert not exposing_gates[name], f"{name} is listed as equivalent: {equivalent}"

