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
    "MAGIC",
    "MAGIC_H",
    "UnitarityError",
    "require_unitary",
    "tensor_product",
    "distance_up_to_phase",
    "random_unitary",
]

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


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b of two matrices; qubit A is the first factor.

    Forms the same products as ``np.kron`` (bit-identical result) by one
    broadcast multiply, without ``np.kron``'s general-rank set-up.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


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
