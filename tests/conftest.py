"""Shared helpers for the test suite."""

import numpy as np
import pytest

from gatepower import PowerInterval, oracle, power_interval, random_unitary, tensor_product


def random_chamber_point(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the Weyl chamber pi/4 >= a1 >= a2 >= |a3| >= 0."""
    a1 = rng.uniform(0.0, np.pi / 4)
    a2 = rng.uniform(0.0, a1)
    a3 = rng.uniform(-a2, a2)
    return np.array([a1, a2, a3])


def random_local_pair(rng: np.random.Generator) -> np.ndarray:
    """Random A (x) B with A, B Haar in U(2)."""
    seeds = rng.integers(0, 2**31, size=2)
    return tensor_product(random_unitary(2, int(seeds[0])), random_unitary(2, int(seeds[1])))


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def shifted_closed_form(monkeypatch):
    """Shift the interval that verify_profile checks by 1e-2.

    The bracket can be exact (swap class), so a failing verification is
    forced this way rather than left to rounding.  The shift exceeds the
    fixed 1e-3 tolerance of ``curve --verify``, so every check fails.
    """

    def shifted(alpha, c0):
        return PowerInterval(*(x + 1e-2 for x in power_interval(alpha, c0)))

    monkeypatch.setattr(oracle, "power_interval", shifted)
