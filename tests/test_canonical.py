"""Tests for the canonical decomposition and Weyl chamber reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_chamber_point, random_local_pair
from gatepower import (
    DecompositionError,
    NotAProductError,
    UnitarityError,
    canonical_gate,
    decompose,
    distance_up_to_phase,
    eigen_phases,
    in_weyl_chamber,
    nearest_kronecker_factor,
    random_unitary,
    reconstruct,
    reduce_alpha,
    tensor_product,
)
from gatepower import canonical
from gatepower.canonical import CanonicalDecomposition
from gatepower.linalg import SIGMA_X, SIGMA_Z

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)

QUARTER_PI = np.pi / 4


def test_eigen_phases_zero():
    np.testing.assert_array_equal(eigen_phases([0, 0, 0]), [0, 0, 0, 0])


def test_eigen_phases_cnot_class():
    np.testing.assert_allclose(
        eigen_phases([QUARTER_PI, 0, 0]),
        [-QUARTER_PI, QUARTER_PI, QUARTER_PI, -QUARTER_PI],
        atol=1e-15,
    )


def test_eigen_phases_swap_class():
    np.testing.assert_allclose(
        eigen_phases([QUARTER_PI] * 3),
        [QUARTER_PI, QUARTER_PI, QUARTER_PI, -3 * QUARTER_PI],
        atol=1e-15,
    )


def test_eigen_phases_sum_to_zero_and_linear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        assert abs(np.sum(eigen_phases(a))) <= 1e-15
        np.testing.assert_allclose(
            eigen_phases(2.5 * a - b),
            2.5 * eigen_phases(a) - eigen_phases(b),
            atol=1e-13,
        )


def test_canonical_gate_identity():
    np.testing.assert_allclose(canonical_gate([0, 0, 0]), np.eye(4), atol=1e-15)


def test_canonical_gate_matches_matrix_exponential():
    # Independent oracle: direct matrix exponential of the generator.
    rng = np.random.default_rng(6)
    paulis = [tensor_product(s, s) for s in (SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z)]
    for _ in range(20):
        alpha = rng.uniform(-1.0, 1.0, size=3)
        gen = sum(a * p for a, p in zip(alpha, paulis))
        expected = expm(1j * gen)
        assert np.linalg.norm(canonical_gate(alpha) - expected) <= 1e-12


def test_canonical_gate_is_unitary():
    rng = np.random.default_rng(14)
    for _ in range(50):
        g = canonical_gate(rng.uniform(-np.pi, np.pi, size=3))
        assert np.linalg.norm(g.conj().T @ g - np.eye(4)) <= 1e-13


def test_canonical_gate_swap_point():
    gate = canonical_gate([QUARTER_PI] * 3)
    assert distance_up_to_phase(gate, SWAP) <= 1e-13
    np.testing.assert_allclose(gate, np.exp(1j * QUARTER_PI) * SWAP, atol=1e-13)


def test_canonical_gate_cnot_point_locally_equivalent_to_cnot():
    d = decompose(CNOT)
    rebuilt = (
        tensor_product(*d.post_local)
        @ canonical_gate([QUARTER_PI, 0, 0])
        @ tensor_product(*d.pre_local)
    )
    assert distance_up_to_phase(rebuilt, CNOT) <= 1e-8


def test_decompose_identity():
    d = decompose(np.eye(4))
    np.testing.assert_allclose(d.weyl, [0, 0, 0], atol=1e-12)
    for local in (*d.pre_local, *d.post_local):
        assert distance_up_to_phase(local, np.eye(2)) <= 1e-10


def test_decompose_named_gate_coordinates():
    np.testing.assert_allclose(decompose(CNOT).weyl, [QUARTER_PI, 0, 0], atol=1e-9)
    np.testing.assert_allclose(decompose(SWAP).weyl, [QUARTER_PI] * 3, atol=1e-9)
    np.testing.assert_allclose(decompose(ISWAP).weyl, [QUARTER_PI, QUARTER_PI, 0], atol=1e-9)


def test_decompose_reconstruction_unitaries_and_phase():
    rng = np.random.default_rng(3)
    for seed in range(50):
        u = random_unitary(4, seed)
        d = decompose(u)
        assert distance_up_to_phase(reconstruct(d), u) <= 1e-8
        assert np.linalg.norm(reconstruct(d) - u) <= 1e-7  # phase included
        for local in (*d.pre_local, *d.post_local):
            assert np.linalg.norm(local.conj().T @ local - np.eye(2)) <= 1e-12
        assert in_weyl_chamber(d.weyl)
    _ = rng  # seeded loop above is deterministic


def test_decompose_round_trip_on_chamber_points():
    rng = np.random.default_rng(17)
    points = [random_chamber_point(rng) for _ in range(200)]
    points += [
        np.zeros(3),
        np.array([QUARTER_PI, 0, 0]),
        np.array([QUARTER_PI, QUARTER_PI, 0]),
        np.array([QUARTER_PI, QUARTER_PI, QUARTER_PI]),
    ]
    for w in points:
        d = decompose(canonical_gate(w))
        np.testing.assert_allclose(d.weyl, w, atol=1e-9)


def test_decompose_local_invariance():
    rng = np.random.default_rng(23)
    for seed in range(50):
        u = random_unitary(4, 1000 + seed)
        base = decompose(u).weyl
        dressed = random_local_pair(rng) @ u @ random_local_pair(rng)
        np.testing.assert_allclose(decompose(dressed).weyl, base, atol=1e-8)


def test_decompose_adjoint_preserves_power_class():
    # Conjugation flips the sign of the third coordinate inside the
    # chamber, so the power class (a1, a2, |a3|) is the right invariant.
    rng = np.random.default_rng(29)
    for seed in range(30):
        u = random_unitary(4, 500 + seed)
        w = decompose(u).weyl
        w_dag = decompose(u.conj().T).weyl
        np.testing.assert_allclose(w_dag[:2], w[:2], atol=1e-9)
        assert abs(abs(w_dag[2]) - abs(w[2])) <= 1e-9
    _ = rng


def test_decompose_deterministic():
    u = random_unitary(4, 99)
    d1 = decompose(u)
    d2 = decompose(u)
    np.testing.assert_array_equal(d1.weyl, d2.weyl)
    np.testing.assert_array_equal(d1.pre_local[0], d2.pre_local[0])
    assert d1.global_phase == d2.global_phase


def test_decompose_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        decompose(np.diag([1.0, 1.0, 1.0, 1.1]))


def test_reconstruct_hand_built():
    eye = np.eye(2, dtype=complex)
    d = CanonicalDecomposition(
        weyl=np.array([QUARTER_PI, 0, 0]),
        pre_local=(eye, eye),
        post_local=(eye, eye),
        global_phase=0.0,
    )
    np.testing.assert_allclose(reconstruct(d), canonical_gate([QUARTER_PI, 0, 0]), atol=1e-15)


def test_nearest_kronecker_factor_exact_product():
    a, b = nearest_kronecker_factor(tensor_product(SIGMA_X, SIGMA_Z))
    assert distance_up_to_phase(a, SIGMA_X) <= 1e-12
    assert distance_up_to_phase(b, SIGMA_Z) <= 1e-12
    assert distance_up_to_phase(tensor_product(a, b), tensor_product(SIGMA_X, SIGMA_Z)) <= 1e-12


def test_nearest_kronecker_factor_random_products():
    for seed in range(30):
        a0 = random_unitary(2, seed)
        b0 = random_unitary(2, 10_000 + seed)
        m = tensor_product(a0, b0)
        a, b = nearest_kronecker_factor(m)
        assert distance_up_to_phase(a, a0) <= 1e-8
        assert distance_up_to_phase(b, b0) <= 1e-8
        assert distance_up_to_phase(tensor_product(a, b), m) <= 1e-8
        pivot = next(x for x in a.ravel() if abs(x) > 1e-6)
        assert pivot.real >= 0 and abs(pivot.imag) <= 1e-8 * max(1.0, abs(pivot))


def test_nearest_kronecker_factor_rejects_entangling_gate():
    with pytest.raises(NotAProductError):
        nearest_kronecker_factor(CNOT)


def test_decomposition_error_carries_residual():
    assert DecompositionError("x", 0.5).residual == 0.5


def test_noisy_cnot_class_gates_decompose_exactly():
    # 1e-8 noise splits the degenerate eigenvalue pairs of the CNOT class
    # by about 1e-8; the eigenbasis must still diagonalize m exactly.
    rng = np.random.default_rng(31)
    for _ in range(100):
        w = np.array([QUARTER_PI, 0.0, 0.0]) + 1e-8 * rng.standard_normal(3)
        u = random_local_pair(rng) @ canonical_gate(w) @ random_local_pair(rng)
        d = decompose(u)
        assert np.max(np.abs(d.weyl - reduce_alpha(w))) <= 1e-12
        assert distance_up_to_phase(reconstruct(d), u) <= 1e-12


def test_decompose_falls_back_to_the_next_mix(monkeypatch):
    # A coordinate atan(c)/2 makes two eigenvalues of m collide under the
    # mix Re(m) + c Im(m), so the first mix alone cannot diagonalize m.
    w = [0.5, 0.4, math.atan(canonical._MIXES[0]) / 2]
    rng = np.random.default_rng(37)
    u = random_local_pair(rng) @ canonical_gate(w) @ random_local_pair(rng)
    d = decompose(u)
    assert distance_up_to_phase(reconstruct(d), u) <= 1e-12
    assert np.max(np.abs(d.weyl - reduce_alpha(w))) <= 1e-12
    monkeypatch.setattr(canonical, "_MIXES", canonical._MIXES[:1])
    with pytest.raises(DecompositionError):
        decompose(u)


@pytest.mark.parametrize("bad", [[math.nan, 0, 0], [0, math.inf, 0], [0, 0, -math.inf]])
def test_reduce_alpha_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        reduce_alpha(bad)


@pytest.mark.parametrize("offset", [1e-10, 5e-11, 1e-13, 0.0])
def test_reduce_alpha_stays_inside_the_closed_chamber_at_the_facet(offset):
    # Within 1e-10 of a1 = pi/4 the a3 < 0 representative is folded to
    # a3 >= 0; that fold must not move a1 past pi/4.
    w = [QUARTER_PI - offset, 0.3, -0.2]
    r = reduce_alpha(w)
    assert in_weyl_chamber(r, tol=0)
    assert r[0] == QUARTER_PI and r[2] == 0.2
    assert in_weyl_chamber(decompose(canonical_gate(w)).weyl, tol=0)


COORDS = st.tuples(*[st.floats(-4.0, 4.0)] * 3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(COORDS)
def test_reduce_alpha_lands_in_chamber_and_is_idempotent(w):
    r = reduce_alpha(w)
    assert in_weyl_chamber(r)
    assert np.max(np.abs(reduce_alpha(r) - r)) <= 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(COORDS)
def test_reduce_alpha_matches_decompose(w):
    np.testing.assert_allclose(decompose(canonical_gate(w)).weyl, reduce_alpha(w), rtol=0, atol=1e-9)
