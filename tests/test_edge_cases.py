"""Stress tests on chamber facets, edges, structured gate families and input limits."""

import contextlib
import io

import numpy as np
import pytest

from conftest import random_local_pair, sample_state_with_concurrence
from gatepower import (
    Direction,
    canonical_gate,
    decompose,
    distance_up_to_phase,
    eigen_phases,
    extremal_concurrence,
    in_weyl_chamber,
    power_interval,
    reach_target,
    reconstruct,
    reduce_alpha,
    verify_profile,
)
from gatepower.cli import main

QUARTER_PI = np.pi / 4


def facet_and_edge_points():
    pts = []
    for t in np.linspace(0.01, QUARTER_PI - 0.01, 9):
        pts += [
            (t, t, t),
            (t, t, -t),
            (t, t, 0.0),
            (t, 0.0, 0.0),
            (QUARTER_PI, t, 0.0),
            (QUARTER_PI, t, t),
            (QUARTER_PI, t, -t),
            (QUARTER_PI, QUARTER_PI, t),
            (t, t / 2, t / 2),
            (t, t / 2, -t / 2),
        ]
    pts += [
        (0.0, 0.0, 0.0),
        (QUARTER_PI, 0.0, 0.0),
        (QUARTER_PI, QUARTER_PI, 0.0),
        (QUARTER_PI, QUARTER_PI, QUARTER_PI),
        (QUARTER_PI, QUARTER_PI, -QUARTER_PI),
    ]
    return [np.array(p) for p in pts]


@pytest.mark.parametrize("noise", [0.0, 1e-10, 1e-8, 1e-6])
def test_dressed_boundary_gates_round_trip(noise):
    rng = np.random.default_rng(99)
    for w in facet_and_edge_points():
        noisy = w + noise * rng.standard_normal(3)
        u = random_local_pair(rng) @ canonical_gate(noisy) @ random_local_pair(rng)
        d = decompose(u)
        assert in_weyl_chamber(d.weyl)
        assert distance_up_to_phase(reconstruct(d), u) <= 1e-8
        assert np.max(np.abs(d.weyl - reduce_alpha(noisy))) <= 1e-12
        if noise == 0.0:
            expect = w.copy()
            if abs(expect[0] - QUARTER_PI) < 1e-12:
                # at a1 = pi/4 the chamber identifies +-a3; the reduction
                # canonicalizes to the non-negative sign
                expect[2] = abs(expect[2])
            np.testing.assert_allclose(d.weyl, expect, atol=1e-9)


def test_permutation_gates_decompose():
    for perm in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0), (0, 2, 1, 3)):
        u = np.eye(4)[list(perm)].astype(complex)
        d = decompose(u)
        assert distance_up_to_phase(reconstruct(d), u) <= 1e-10


def test_diagonal_phase_gates_decompose():
    for seed in range(20):
        phases = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, 4))
        u = np.diag(phases)
        d = decompose(u)
        assert distance_up_to_phase(reconstruct(d), u) <= 1e-10
        assert in_weyl_chamber(d.weyl)


@pytest.mark.parametrize("big", [1e6, -1e6, 1e15])
def test_coordinates_too_large_to_reduce_are_rejected(capsys, big):
    # Reduction mod pi/2 loses ~1e-16 |a|: at 1e15 power_interval was silently wrong.
    w = [big, 0.1, 0.05]
    for call in (
        lambda: reduce_alpha(w),
        lambda: eigen_phases(w),
        lambda: power_interval(w, 0.5),
        lambda: extremal_concurrence(w, 0.5, Direction.MAX),
    ):
        with pytest.raises(ValueError, match="three finite numbers"):
            call()
    assert main(["decompose", "--gate", f"canonical:{big!r},0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "three finite numbers" in err


def test_coordinates_up_to_1e3_are_accepted():
    w = [1e3, 0.1, 0.05]
    assert np.max(np.abs(decompose(canonical_gate(w)).weyl - reduce_alpha(w))) <= 1e-12
    assert verify_profile(w, [0.0, 0.3, 0.7, 1.0]).passed


COMPLEX_COORDINATES = [0.3 + 0.2j, 0.1, 0]


@pytest.mark.parametrize(
    "alpha",
    [np.array(COMPLEX_COORDINATES), COMPLEX_COORDINATES, np.array(COMPLEX_COORDINATES, dtype=object)],
    ids=["array", "list", "object_array"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda a: power_interval(a, 0.5),
        eigen_phases,
        reduce_alpha,
        canonical_gate,
        in_weyl_chamber,
        lambda a: extremal_concurrence(a, 0.5, Direction.MAX),
        lambda a: verify_profile(a, [0.5]),
    ],
    ids=["power_interval", "eigen_phases", "reduce_alpha", "canonical_gate", "in_weyl_chamber",
         "extremal", "verify_profile"],
)
def test_complex_coordinates_are_rejected(call, alpha):
    # A float conversion dropped the imaginary parts with only a warning
    # (power_interval then gave c_max = 0.9696...); a list or an object
    # array raised TypeError.
    with pytest.raises(ValueError, match="must be real numbers"):
        call(alpha)


def _cli_power(c0):
    """CLI ``power`` at ``c0``; an input error comes back as ValueError."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["power", "--gate", "cnot", f"--c0={c0!r}"])
    if code == 2:
        raise ValueError(err.getvalue())
    assert code == 0


W = [0.3, 0.2, 0.1]


@pytest.mark.parametrize(
    "call",
    [
        lambda c: power_interval(W, c),
        lambda c: extremal_concurrence(W, c, Direction.MIN),
        lambda c: reach_target(W, c, 0.5),
        lambda c: reach_target(W, 0.5, c),
        lambda c: sample_state_with_concurrence(c, 3),
        _cli_power,
    ],
    ids=["power_interval", "extremal", "reach_c0", "reach_target", "sampler", "cli"],
)
def test_concurrence_drift_is_clamped_and_larger_excess_rejected(call):
    for c in (1.0 + 5e-13, -5e-13):
        call(c)
    with pytest.raises(ValueError, match=r"concurrence must be in \[0, 1\], got 1\.00000000001"):
        call(1.0 + 1e-11)
