"""Shared helpers for the test suite."""

from dataclasses import dataclass

import numpy as np
import pytest

from gatepower import (
    Direction,
    PowerInterval,
    canonical_gate,
    concurrence,
    extremal_concurrence,
    from_magic_coefficients,
    oracle,
    power_interval,
    random_unitary,
    rescale_to_concurrence,
    tensor_product,
)

pytest_plugins = ["pytester"]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


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


def sample_state_with_concurrence(c0: float, seed: int) -> np.ndarray:
    """Random pure state with concurrence exactly ``c0``, deterministic per seed.

    Draws a Haar-random state and rescales its magic coefficients onto the
    fixed-concurrence manifold, so repeated seeds cover the manifold
    generically (all four coefficients nonzero almost surely).
    """
    rng = np.random.default_rng(seed)
    b = rescale_to_concurrence(rng.standard_normal(4) + 1j * rng.standard_normal(4), c0)
    if b is None:  # a draw real up to a global phase: probability zero
        raise RuntimeError("state sampling drew a singular state")
    return from_magic_coefficients(b)


@dataclass(frozen=True)
class EnvelopeRow:
    c0: float
    oracle_min: float
    oracle_max: float
    samples_inside: bool


def envelope_scan(alpha, c0_grid) -> list[EnvelopeRow]:
    """Oracle [min, max] envelope over a grid of initial concurrences.

    Each row additionally checks 1000 random fixed-c0 states: their final
    concurrences must land inside the oracle envelope widened by 1e-6.
    """
    gate = canonical_gate(alpha)
    rows = []
    for c0 in c0_grid:
        lo = extremal_concurrence(alpha, c0, Direction.MIN).extremal_concurrence
        hi = extremal_concurrence(alpha, c0, Direction.MAX).extremal_concurrence
        outs = [concurrence(gate @ sample_state_with_concurrence(c0, 10_000_019 + i)) for i in range(1000)]
        inside = lo - 1e-6 <= min(outs) and max(outs) <= hi + 1e-6
        rows.append(EnvelopeRow(float(c0), lo, hi, inside))
    return rows


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
