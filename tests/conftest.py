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
    power_profile,
    random_unitary,
    tensor_product,
)
from gatepower.states import _concurrence

pytest_plugins = ["pytester"]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_chamber_point(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the Weyl chamber pi/4 >= a1 >= a2 >= |a3| >= 0."""
    a1 = rng.uniform(0.0, np.pi / 4)
    a2 = rng.uniform(0.0, a1)
    a3 = rng.uniform(-a2, a2)
    return np.array([a1, a2, a3])


def memory_layouts(m: np.ndarray) -> dict[str, np.ndarray]:
    """The matrix m, equal entry for entry, in four other memory layouts."""
    big = np.zeros((2 * m.shape[0], 3 * m.shape[1]), dtype=m.dtype)
    big[1::2, 2::3] = m
    frozen = m.copy()
    frozen.flags.writeable = False
    return {
        "fortran": np.asfortranarray(m),
        "transposed": np.ascontiguousarray(m.T).T,
        "strided_view": big[1::2, 2::3],
        "read_only": frozen,
    }


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
    c0 = _concurrence(c0)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = b / np.linalg.norm(b)
    # Turn sum b^2 real and non-negative: then p + q = 1 and p - q = |sum b^2|,
    # so scaling the real and imaginary parts apart sets both sums.
    b = b * np.exp(-0.5j * np.angle(np.sum(b * b)))
    x, y = b.real.copy(), b.imag.copy()
    p, q = float(np.sum(x * x)), float(np.sum(y * y))
    if 1.0 - c0 < 1e-15:
        return from_magic_coefficients((x / np.sqrt(p)).astype(complex))
    out = np.sqrt((1.0 + c0) / (2.0 * p)) * x + 1j * np.sqrt((1.0 - c0) / (2.0 * q)) * y
    return from_magic_coefficients(out / np.linalg.norm(out))


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


@pytest.fixture(autouse=True)
def empty_bracket_memo():
    """Start every test with an empty bracket memo, so a test that patches
    the opening cannot read a bracket memoised under another."""
    oracle._brackets.cache_clear()


def open_on_quadrants(monkeypatch) -> None:
    """Open every search on the four quadrants alone, off the spectrum's own directions, whose pair
    bisectors carry the interior optima: nothing refines, so the near-identity anchor's brackets
    stay open at 0.3, by 5.1e-6 (MAX) and 9.0e-6 (MIN)."""
    monkeypatch.setattr(oracle, "_OPENING", oracle._OPENING[:4])
    monkeypatch.setattr(oracle, "_SHIFT", oracle._SHIFT[:4])


def shift_closed_form(monkeypatch, delta: float) -> None:
    """Shift both ends of the interval that verify_profile checks by ``delta``."""

    def shifted(alpha, c0s):
        return [PowerInterval(*(x + delta for x in interval)) for interval in power_profile(alpha, c0s)]

    monkeypatch.setattr(oracle, "power_profile", shifted)


@pytest.fixture
def shifted_closed_form(monkeypatch):
    """Shift the interval that verify_profile checks by 1e-2.

    The bracket can be exact (swap class), so a failing verification is
    forced this way rather than left to rounding.  The shift exceeds the
    default 1e-3 tolerance that ``curve --verify`` uses, so every check fails.
    """
    shift_closed_form(monkeypatch, 1e-2)
