"""Tests for the matrix utilities and basis conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA_X, SIGMA_Z
from gatepower import (
    MAGIC,
    MAGIC_H,
    UnitarityError,
    canonical_gate,
    decompose,
    distance_up_to_phase,
    eigen_phases,
    random_unitary,
    require_unitary,
    tensor_product,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def test_magic_frame_is_unitary_with_exact_entries():
    assert np.linalg.norm(MAGIC.conj().T @ MAGIC - np.eye(4)) <= 1e-15
    inv_sqrt2 = 1 / np.sqrt(2)
    for z in MAGIC.ravel():
        # every entry is 0, +-1/sqrt(2) or +-i/sqrt(2), exactly
        assert z.real == 0.0 or abs(z.real) == inv_sqrt2
        assert z.imag == 0.0 or abs(z.imag) == inv_sqrt2
        assert z.real == 0.0 or z.imag == 0.0


def test_magic_columns_are_the_phase_adjusted_bell_states():
    s = 1 / np.sqrt(2)
    expected = np.array(
        [
            [-1j * s, 0, 0, 1j * s],  # -i(|00> - |11>)/sqrt2
            [s, 0, 0, s],  # (|00> + |11>)/sqrt2
            [0, -1j * s, -1j * s, 0],  # -i(|01> + |10>)/sqrt2
            [0, s, -s, 0],  # (|01> - |10>)/sqrt2
        ]
    ).T
    np.testing.assert_allclose(MAGIC, expected, atol=1e-16)


def test_tensor_product_identity():
    np.testing.assert_array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_pauli_examples():
    # Direct index expansion: (a (x) b)[2i+k, 2j+l] = a[i,j] b[k,l].
    xx = tensor_product(SIGMA_X, SIGMA_X)
    np.testing.assert_allclose(xx, np.fliplr(np.eye(4)), atol=1e-16)
    zi = tensor_product(SIGMA_Z, np.eye(2))
    np.testing.assert_allclose(zi, np.diag([1, 1, -1, -1]).astype(complex), atol=1e-16)


def test_tensor_product_index_convention():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t = tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(t[2 * i + k, 2 * j + l] - a[i, j] * b[k, l]) <= 1e-15


def test_tensor_product_mixed_product_property():
    rng = np.random.default_rng(11)
    for i in range(20):
        seeds = rng.integers(0, 2**31, size=4)
        a, b, c, d = (random_unitary(2, int(s)) for s in seeds)
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


ENTRY = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _matrix(rows, cols):
    return st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=complex).reshape(rows, cols)
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_matrix(2, 2), _matrix(2, 2))
def test_tensor_product_is_bit_identical_to_kron(a, b):
    t = tensor_product(a, b)
    assert np.array_equal(t, np.kron(a, b))
    assert t.tobytes() == np.kron(a, b).tobytes()  # signed zeros too


def test_tensor_product_matches_kron_on_non_square_factors():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    t = tensor_product(a, b)
    assert t.shape == (6, 3)
    assert np.array_equal(t, np.kron(a, b))


def test_to_magic_frame_identity():
    np.testing.assert_allclose(MAGIC_H @ np.eye(4) @ MAGIC, np.eye(4), atol=1e-15)


def test_to_magic_frame_diagonalizes_canonical_gates():
    rng = np.random.default_rng(5)
    for _ in range(10):
        alpha = rng.uniform(-np.pi / 4, np.pi / 4, size=3)
        gate = canonical_gate(alpha)
        diag = MAGIC_H @ gate @ MAGIC
        expected = np.diag(np.exp(1j * eigen_phases(alpha)))
        assert np.linalg.norm(diag - expected) <= 1e-12


def test_to_magic_frame_swap_is_bell_parity():
    # The fourth magic state is the singlet, the only antisymmetric one.
    np.testing.assert_allclose(MAGIC_H @ SWAP @ MAGIC, np.diag([1, 1, 1, -1]), atol=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
def test_non_finite_matrices_are_not_unitary(bad):
    # NaN > atol is False: the check must still reject, before any LAPACK call.
    m = random_unitary(4, 5)
    m[1, 2] = bad
    with pytest.raises(UnitarityError):
        require_unitary(m)
    with pytest.raises(UnitarityError):
        decompose(m)


def test_non_square_matrices_are_not_unitary():
    with pytest.raises(UnitarityError, match="square"):
        require_unitary(np.eye(2, 3))


def test_to_magic_frame_preserves_unitarity():
    for seed in range(20):
        u = random_unitary(4, seed)
        m = MAGIC_H @ u @ MAGIC
        assert np.linalg.norm(m.conj().T @ m - np.eye(4)) <= 1e-12


def test_distance_up_to_phase_basics():
    u = random_unitary(4, 0)
    assert distance_up_to_phase(u, u) <= 1e-14
    assert distance_up_to_phase(u, np.exp(0.7j) * u) <= 1e-14


def test_distance_up_to_phase_known_value():
    # |tr| = 2, so the distance is sqrt(8 - 2*2) = 2.
    d = distance_up_to_phase(np.eye(4), np.diag([1, 1, 1, -1]))
    assert abs(d - 2.0) <= 1e-12


def test_distance_up_to_phase_symmetric_and_separating():
    rng = np.random.default_rng(9)
    for i in range(10):
        u = random_unitary(4, 100 + i)
        v = random_unitary(4, 200 + i)
        assert abs(distance_up_to_phase(u, v) - distance_up_to_phase(v, u)) <= 1e-10
        if distance_up_to_phase(u, v) <= 1e-10:
            phase = np.angle(np.trace(u.conj().T @ v))
            assert np.linalg.norm(u - np.exp(-1j * phase) * v) <= 1e-9


def test_random_unitary_contract():
    u = random_unitary(2, 123)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-12
    u4 = random_unitary(4, 123)
    assert np.linalg.norm(u4.conj().T @ u4 - np.eye(4)) <= 1e-12


def test_random_unitary_deterministic():
    np.testing.assert_array_equal(random_unitary(4, 7), random_unitary(4, 7))
    assert not np.array_equal(random_unitary(4, 7), random_unitary(4, 8))


def test_random_unitary_haar_trace_moment():
    # For Haar measure on U(4) the mean of |tr U|^2 is exactly 1; the
    # sample mean over 10^4 draws has standard error about 0.01.
    total = 0.0
    n = 10_000
    for seed in range(n):
        total += abs(np.trace(random_unitary(4, seed))) ** 2
    assert abs(total / n - 1.0) <= 0.05
