"""Dense 2x2 / 4x4 complex matrix utilities for two-qubit gates.

Fixes the basis conventions used throughout the package: the computational
basis is ordered |00>, |01>, |10>, |11> with the first factor being qubit A,
and the magic basis is the set of phase-adjusted Bell states

    |m1> = -i/sqrt(2) (|00> - |11>)
    |m2> =  1/sqrt(2) (|00> + |11>)
    |m3> = -i/sqrt(2) (|01> + |10>)
    |m4> =  1/sqrt(2) (|01> - |10>)

In this frame local unitaries act as real orthogonal matrices and the
concurrence of a pure state takes a simple quadratic form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Z",
    "MAGIC",
    "MAGIC_H",
    "UnitarityError",
    "is_unitary",
    "require_unitary",
    "tensor_product",
    "to_magic_frame",
    "normalize_special",
    "distance_up_to_phase",
    "random_unitary",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_SQRT2 = np.sqrt(2.0)

#: Columns are the magic-basis states |m1>..|m4> in the computational basis.
MAGIC = np.array(
    [
        [-1j, 1, 0, 0],
        [0, 0, -1j, 1],
        [0, 0, -1j, -1],
        [1j, 1, 0, 0],
    ],
    dtype=complex,
) / _SQRT2

MAGIC_H = MAGIC.conj().T

# Default tolerance for treating a matrix as unitary.
UNITARY_ATOL = 1e-12


class UnitarityError(ValueError):
    """Raised when a matrix required to be unitary is not."""


def require_unitary(m: np.ndarray, atol: float = UNITARY_ATOL, name: str = "matrix") -> np.ndarray:
    """Validate unitarity and return the matrix as a complex ndarray.

    Non-finite entries make the defect NaN or inf and are rejected too.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UnitarityError(f"{name} must be square, got shape {m.shape}")
    defect = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))
    if not defect <= atol:
        raise UnitarityError(f"{name} is not unitary: ||M^dag M - I||_F = {defect:.3e} > {atol:.1e}")
    return m


def is_unitary(m: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    """True if ||M^dag M - I||_F <= atol; the test of :func:`require_unitary`."""
    try:
        require_unitary(m, atol)
    except UnitarityError:
        return False
    return True


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b; qubit A is the first factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def to_magic_frame(u: np.ndarray) -> np.ndarray:
    """Rewrite a two-qubit operator in the magic basis: Q^dag U Q.

    Raises:
        UnitarityError: if ``u`` is not unitary to 1e-12.
    """
    u = require_unitary(u, name="gate")
    if u.shape != (4, 4):
        raise UnitarityError(f"gate must be 4x4, got shape {u.shape}")
    return MAGIC_H @ u @ MAGIC


def normalize_special(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Split a unitary into a special-unitary part and a global phase.

    Returns ``(v, phase)`` with ``v = exp(-i*phase) * u`` and det(v) = 1,
    where ``phase = arg(det u) / 4`` with the principal argument in
    (-pi, pi].  The remaining fourth-root ambiguity (v may differ from
    another special representative by a factor i) is deliberately left
    to callers, who only ever use v up to a global phase.
    """
    u = np.asarray(u, dtype=complex)
    phase = float(np.angle(np.linalg.det(u))) / u.shape[0]
    return u * np.exp(-1j * phase), phase


def distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between unitaries minimized over a global phase.

    Equals sqrt(2 n - 2 |tr(U^dag V)|); evaluated by aligning V with the
    optimal phase arg(tr(U^dag V)) and subtracting directly, which avoids
    the catastrophic cancellation of the trace form (whose floating-point
    floor is ~1e-7 even for identical inputs).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    tr = np.trace(u.conj().T @ v)
    return float(np.linalg.norm(u - np.exp(-1j * np.angle(tr)) * v))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed ``dim x dim`` unitary, deterministic per seed.

    Uses QR of a complex standard-Gaussian matrix with the phases of the
    diagonal of R fixed so the distribution is exactly Haar.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
