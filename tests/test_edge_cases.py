"""Stress tests on chamber facets, edges and structured gate families."""

import numpy as np
import pytest

from conftest import random_local_pair
from gatepower import (
    canonical_gate,
    decompose,
    distance_up_to_phase,
    in_weyl_chamber,
    reconstruct,
    reduce_alpha,
)

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
