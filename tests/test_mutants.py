"""A gallery of single faults in the closed forms that verification must catch.

Each mutant rewrites one expression in one function that
``gatepower.power`` calls by name (its own, or ``_by_magnitude``, the
chamber reduction it shares with ``reduce_alpha``) and is applied with
monkeypatch; ``verify_profile`` then runs on every (gate, c0) of a gate
set fixed up front.  A mutant must fail the certified bracket check on at
least one gate.  A mutant that no gate can expose is listed as
equivalent, with the reason, and must fail on none.

Retired with the reduction power no longer reads: ``power`` takes theta
from magnitudes, so ``reduce_alpha``'s a1 = pi/4 face fold is not on its
path.  ``a1_snapped_to_quarter_pi`` (a1 set to pi/4 in the fold) and
``quarter_pi_mirror_dropped`` (the fold skipped) have no expression left
to rewrite there.  ``first_sign_flip_skipped`` moved to the magnitude
that stands for the flip.
"""

import inspect
import math
import sys

import numpy as np
import pytest

from test_edge_cases import facet_and_edge_points
from test_oracle import GRID_11, VERIFY_ANCHORS, _named_gates
from gatepower import canonical, oracle, power, random_unitary, verify_profile, weyl_coordinates

OUTSIDE = "outside the certified bracket"
UNCONVERGED = "not converged"
QUARTER_PI = math.pi / 4
# Every second point of GRID_11, to keep the module near 2 s.
GRID = GRID_11[::2]

# The shifts of the three coordinates into (-pi/4, pi/4] in _by_magnitude.
SHIFT = (
    "a1 - math.ceil(a1 / _HALF_PI - 0.5) * _HALF_PI, a2 - math.ceil(a2 / _HALF_PI - 0.5) * _HALF_PI,\n"
    "         a3 - math.ceil(a3 / _HALF_PI - 0.5) * _HALF_PI"
)
# (name, function, expression, its mutant, why no gate can expose it or None).
MUTANTS = [
    ("theta_plus_1e-8", "effective_angle", "_HALF_PI), 0.0)", "_HALF_PI), 0.0) + 1e-8", None),
    ("factor_2_dropped", "effective_angle", "2.0 * (abs(a1) + a2)", "(abs(a1) + a2)", None),
    ("sin_sign_flipped", "_interval", "c0 * cos_t + sin_t * root", "c0 * cos_t - sin_t * root", None),
    # Facet points (t, t, -t) with t > pi/8 take theta from 2 (pi/2 - a2 - |a3|).
    ("abs_a3_read_as_a3", "effective_angle", "abs(a3)", "a3", None),
    ("half_pi_clamp_dropped", "effective_angle", "_HALF_PI - a2 - abs(a3)), _HALF_PI)", "_HALF_PI - a2 - abs(a3)))",
     "theta > pi/2 gives arccos(c0) <= theta and arccos(c0) + theta >= pi/2 for every c0, so "
     "power_interval returns [0, 1], as at theta = pi/2"),
    # Within ~1e-8 below theta = pi/2, sin(theta) rounds to 1, so deciding the c_min clamp
    # on it rounds c_min at c0 = 1 to 0.  The NEAR_HALF_PI gates expose it.
    ("sine_decides_the_c_min_clamp", "_interval", "phi + theta >= _HALF_PI", "c0 <= sin_t", None),
    ("c0_clamps_dropped", "_interval",
     "min(max(c0 * cos_t + sin_t * root, c0), 1.0)\n"
     "    c_min = 0.0 if phi + theta >= _HALF_PI else max(min(c0 * cos_t - sin_t * root, c0), 0.0)",
     "c0 * cos_t + sin_t * root\n    c_min = 0.0 if phi + theta >= _HALF_PI else c0 * cos_t - sin_t * root",
     "for theta in [0, pi/2] the angle-addition forms lie within rounding (~1e-16) of [0, 1] and "
     "of their side of c0, far inside the 1e-12 margin of the certified check"),
    # reduce_alpha flips the sign of the largest coordinate where it is negative; power
    # reads its magnitude.  Only coordinates outside the chamber reach the flip:
    # (-0.3, 0.2, 0.1) has theta = 1.0, the mutant 0.
    ("first_sign_flip_skipped", "effective_angle", "abs(a1)", "a1", None),
    # (0.5, -0.3, 0.1) has theta = pi/2; a2 read as -0.3 gives 0.4.
    ("abs_a2_read_as_a2", "effective_angle", "abs(a2)", "a2", None),
    # Rounding x / (pi/2) up, not to the nearest integer, shifts into (-pi/2, 0]:
    # the generic anchor (0.45, 0.25, 0.10) then has theta = 0, not 1.4.
    ("shift_rounds_up", "_by_magnitude", SHIFT, SHIFT.replace(" - 0.5)", ")"), None),
    # Smallest first reads |a3| as a1: the generic anchor then has theta = 0.7, not 1.4.
    ("sorted_smallest_first", "_by_magnitude", "key=abs, reverse=True", "key=abs", None),
]
# A fault on the oracle's side, which reads eigen_phases (power does not).  Swapping two
# eigenphases relabels the magic basis by a permutation in O(4), under which the set of
# reachable concurrences does not move: each bound stays certified and no row leaves its
# bracket.  The state built for the swapped spectrum misses its bound on the true gate,
# so the convergence check catches it.
SWAPPED_EIGENPHASES = (
    "eigen_phases_swapped", "_phases", "-a1 + a2 + a3, a1 - a2 + a3", "a1 - a2 + a3, -a1 + a2 + a3",
)
# Coordinates given outside the chamber, which only the shift, the sort and the magnitudes
# bring into it.
OUTSIDE_CHAMBER = [(-0.3, 0.2, 0.1), (0.1, 0.05, -0.6), (-0.7, -0.1, 0.3), (0.5, -0.3, 0.1)]
# theta within ~1e-8 below pi/2, where sin(theta) rounds to 1 but c_min at c0 = 1 is cos(theta);
# the last lies within 1e-10 of the a1 = pi/4 face with a3 < 0.
NEAR_HALF_PI = [(QUARTER_PI - 1e-9, 0.0, 0.0), (QUARTER_PI - 1e-9, 1e-10, -1e-10), (QUARTER_PI - 1e-10, 1e-12, -1e-12)]


def _gates():
    haar = [weyl_coordinates(random_unitary(4, seed)) for seed in range(4)]
    fixed = [np.array(a) for a in [*VERIFY_ANCHORS.values(), *OUTSIDE_CHAMBER, *NEAR_HALF_PI]]
    return fixed + _named_gates() + facet_and_edge_points() + haar


def _targets(function):
    """The modules among power and oracle that hold ``function`` by name;
    verify_profile calls the names oracle imported."""
    return [module for module in (power, oracle) if hasattr(module, function)]


def _mutated(function, expression, mutant):
    """A copy of ``function`` with ``expression`` rewritten; it reads the
    globals of the module that defines it, so it sees the other functions
    as patched."""
    original = getattr((_targets(function) or [canonical])[0], function)
    source = inspect.getsource(original)
    assert source.count(expression) == 1
    scope = {}
    exec(source.replace(expression, mutant), vars(sys.modules[original.__module__]), scope)
    return scope[function]


@pytest.fixture(scope="module")
def failures():
    """For the unmutated code (None) and each mutant, the failure causes per
    index of a gate where some c0 of the grid fails.  Mutants run inside each
    (gate, c0), so the closed-form ones read one bracket pair; the swapped
    eigenphases, run last, build their own."""
    faults = [(None, None, None)] + [
        (name, fn, _mutated(fn, *rewrite)) for name, fn, *rewrite in (m[:4] for m in MUTANTS)
    ]
    # The swapped _phases reach the oracle through its eigen_phases alone: canonical_gate,
    # which builds the true gate, keeps the unmutated spectrum.
    name, fn, *rewrite = SWAPPED_EIGENPHASES
    swapped = _mutated(fn, *rewrite)
    faults.append((name, "eigen_phases", lambda alpha: swapped(*canonical._coordinates(alpha))))
    found = {name: {} for name, *_ in faults}
    for k, alpha in enumerate(_gates()):
        for c0 in GRID:
            for name, function, mutant in faults:
                with pytest.MonkeyPatch.context() as mp:
                    for module in _targets(function) if mutant is not None else ():
                        mp.setattr(module, function, mutant)
                    causes = verify_profile(alpha, [c0]).failures
                if causes:
                    found[name].setdefault(k, []).extend(causes)
    return found


def _exposing(found, cause):
    return {k for k, causes in found.items() if any(cause in c for c in causes)}


def test_unmutated_closed_forms_pass_on_every_gate(failures):
    assert failures[None] == {}


@pytest.mark.parametrize("name, equivalent", [(m[0], m[-1]) for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_fails_the_certified_check(failures, name, equivalent):
    if equivalent is None:
        assert _exposing(failures[name], OUTSIDE), f"no gate exposes {name}"
    else:
        assert not _exposing(failures[name], OUTSIDE), f"{name} is listed as equivalent: {equivalent}"


def test_swapped_eigenphases_fail_convergence_inside_the_brackets(failures):
    found = failures[SWAPPED_EIGENPHASES[0]]
    assert not _exposing(found, OUTSIDE)
    assert _exposing(found, UNCONVERGED)
