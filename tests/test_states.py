"""Tests for pure states, magic coefficients and concurrence."""

import math

import numpy as np
import pytest

from conftest import random_local_pair, random_pure_state
from gatepower import (
    UnitarityError,
    apply_gate,
    canonical_gate,
    concurrence,
    eigen_phases,
    from_magic_coefficients,
    random_unitary,
    sample_state_with_concurrence,
    to_magic_coefficients,
)
from gatepower.linalg import MAGIC
from gatepower.states import rescale_to_concurrence

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def schmidt_concurrence(state):
    """Independent concurrence oracle: 2 |det| of the amplitude matrix."""
    return 2.0 * abs(np.linalg.det(np.asarray(state).reshape(2, 2)))


def test_magic_coefficients_of_magic_basis_state():
    state = np.array([1, 0, 0, 1]) / np.sqrt(2)
    b = to_magic_coefficients(state)
    np.testing.assert_allclose(b, [0, 1, 0, 0], atol=1e-15)


def test_magic_coefficients_of_zero_zero():
    # Inverting the first two basis definitions symbolically gives
    # |00> = (i |m1> + |m2>)/sqrt(2).
    b = to_magic_coefficients(np.array([1, 0, 0, 0], dtype=complex))
    np.testing.assert_allclose(b, np.array([1j, 1, 0, 0]) / np.sqrt(2), atol=1e-15)


def test_magic_coefficients_of_singlet():
    state = np.array([0, 1, -1, 0]) / np.sqrt(2)
    b = to_magic_coefficients(state)
    np.testing.assert_allclose(b, [0, 0, 0, 1], atol=1e-15)


def test_magic_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        state = random_pure_state(rng)
        back = from_magic_coefficients(to_magic_coefficients(state))
        assert np.linalg.norm(back - state) <= 1e-14


def test_concurrence_bell_state():
    assert abs(concurrence(np.array([1, 0, 0, 1]) / np.sqrt(2)) - 1.0) <= 1e-14


def test_concurrence_product_state():
    assert concurrence(np.array([1, 0, 0, 0], dtype=complex)) <= 1e-14


def test_concurrence_schmidt_family():
    for theta in np.linspace(0, np.pi / 2, 17):
        state = np.array([np.cos(theta), 0, 0, np.sin(theta)])
        assert abs(concurrence(state) - abs(np.sin(2 * theta))) <= 1e-14


def test_concurrence_matches_determinant_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        state = random_pure_state(rng)
        assert abs(concurrence(state) - schmidt_concurrence(state)) <= 1e-12


def test_concurrence_range_on_many_states():
    rng = np.random.default_rng(123)
    raw = rng.standard_normal((100_000, 4)) + 1j * rng.standard_normal((100_000, 4))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    b = raw @ MAGIC.conj()
    values = np.abs(np.sum(b * b, axis=1))
    assert values.min() >= 0.0
    assert values.max() <= 1.0 + 1e-12
    # spot check the scalar implementation against the batch
    for k in range(0, 100_000, 10_000):
        assert abs(concurrence(raw[k]) - min(values[k], 1.0)) <= 1e-14


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        state = random_pure_state(rng)
        dressed = apply_gate(random_local_pair(rng), state)
        assert abs(concurrence(dressed) - concurrence(state)) <= 1e-10


def test_concurrence_conjugation_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(50):
        state = random_pure_state(rng)
        b = to_magic_coefficients(state)
        conj_state = from_magic_coefficients(np.conj(b))
        assert abs(concurrence(conj_state) - concurrence(state)) <= 1e-12


def test_apply_gate_identity():
    state = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    np.testing.assert_allclose(apply_gate(np.eye(4), state), state, atol=1e-15)


def test_apply_gate_swap():
    out = apply_gate(SWAP, np.array([0, 1, 0, 0], dtype=complex))
    np.testing.assert_allclose(out, [0, 0, 1, 0], atol=1e-15)


def test_apply_gate_canonical_eigenstates():
    alpha = [0.3, 0.2, -0.1]
    gate = canonical_gate(alpha)
    lam = eigen_phases(alpha)
    for k in range(4):
        out = apply_gate(gate, MAGIC[:, k])
        np.testing.assert_allclose(out, np.exp(1j * lam[k]) * MAGIC[:, k], atol=1e-13)


def test_apply_gate_preserves_norm():
    rng = np.random.default_rng(4)
    for seed in range(20):
        state = random_pure_state(rng)
        out = apply_gate(random_unitary(4, seed), state)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_apply_gate_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        apply_gate(np.ones((4, 4)), np.array([1, 0, 0, 0]))


def test_sampler_hits_requested_concurrence():
    rng = np.random.default_rng(0)
    for _ in range(60):
        c0 = rng.uniform(0.0, 1.0)
        seed = int(rng.integers(0, 2**31))
        state = sample_state_with_concurrence(c0, seed)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
        assert abs(concurrence(state) - c0) <= 1e-10


def test_sampler_unit_concurrence_has_real_coefficients_up_to_phase():
    for seed in range(10):
        state = sample_state_with_concurrence(1.0, seed)
        b = to_magic_coefficients(state)
        rotated = b * np.exp(-0.5j * np.angle(np.sum(b * b)))
        assert np.linalg.norm(rotated.imag) <= 1e-8


def test_sampler_zero_concurrence_gives_product_state():
    for seed in range(10):
        state = sample_state_with_concurrence(0.0, seed)
        svals = np.linalg.svd(state.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(np.sort(svals)[::-1], [1.0, 0.0], atol=1e-10)


def test_sampler_point_value():
    state = sample_state_with_concurrence(0.3, 5)
    assert abs(concurrence(state) - 0.3) <= 1e-10


def test_sampler_covers_generic_states():
    # All four coefficients should be non-negligible for typical draws.
    generic = 0
    for seed in range(40):
        b = to_magic_coefficients(sample_state_with_concurrence(0.5, seed))
        if np.min(np.abs(b)) > 1e-3:
            generic += 1
    assert generic >= 30


def test_sampler_rejects_out_of_range():
    with pytest.raises(ValueError):
        sample_state_with_concurrence(1.5, 0)
    with pytest.raises(ValueError):
        sample_state_with_concurrence(-0.1, 0)


def test_rescale_reaches_the_requested_concurrence():
    b = np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.4, 0.1 - 0.6j])
    for c0 in (0.0, 0.37, 1.0):
        out = rescale_to_concurrence(b, c0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        assert abs(abs(np.sum(out * out)) - c0) <= 1e-12


@pytest.mark.parametrize("b", [np.zeros(4), [math.nan, 0.5, 0.5, 0.5], [0.5, math.inf, 0.5, 0.5]])
def test_rescale_returns_none_for_zero_or_non_finite_coefficients(b):
    assert rescale_to_concurrence(np.asarray(b, dtype=complex), 0.5) is None


@pytest.mark.parametrize("c0", [1.5, -0.2, math.nan])
def test_rescale_rejects_out_of_range_concurrence(c0):
    with pytest.raises(ValueError, match="concurrence"):
        rescale_to_concurrence(np.array([0.5, 0.5j, 0.5, 0.5j]), c0)
