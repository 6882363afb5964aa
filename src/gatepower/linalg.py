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

import math

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

    An entry with a real or imaginary part above 1 (NaN and inf included) is
    rejected before M^dag M is formed, where it could overflow; so is an
    integer entry beyond the float range.
    """
    try:
        m = np.asarray(m, dtype=complex)
    except OverflowError as exc:
        raise UnitarityError(f"{name} is not unitary: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UnitarityError(f"{name} must be square, got shape {m.shape}")
    if not (abs(m.ravel().view(float)) <= 1.0 + atol).all():  # ravel copies any layout but C order
        ok = (np.abs(m.real) <= 1.0 + atol) & (np.abs(m.imag) <= 1.0 + atol)
        finite = np.isfinite(m)
        what, bad = ("non-finite entries", ~finite) if not finite.all() else ("entries above 1", ~ok)
        raise UnitarityError(f"{name} is not unitary: {what} at {np.argwhere(bad).tolist()}")
    gram = (m.conj().T @ m).ravel()  # a view, as the product is C-contiguous
    gram[:: m.shape[0] + 1] -= 1.0  # M^dag M - I, with the identity taken off the diagonal in place
    defect = math.sqrt(gram.real.dot(gram.real) + gram.imag.dot(gram.imag))  # ||.||_F as np.linalg.norm sums it
    if not defect <= atol:
        raise UnitarityError(f"{name} is not unitary: ||M^dag M - I||_F = {defect:.3e} > {atol:.1e}")
    return m


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b of two matrices, or of two equal stacks slice by slice; qubit A is first.

    Forms the same products as ``np.kron`` (bit-identical result) by one
    broadcast multiply, without ``np.kron``'s general-rank set-up.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*a.shape[:-2], m * p, n * q)


def _aligned(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """The phase phi = arg <v, u> that best aligns v with u, and ||u - exp(i phi) v||_F."""
    phase = float(np.arctan2((overlap := np.vdot(v, u)).imag, overlap.real))  # np.angle's arithmetic
    gap = u - np.exp(1j * phase) * v
    return phase, math.sqrt(np.vdot(gap, gap).real)


def distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between unitaries minimized over a global phase.

    Equals sqrt(2 n - 2 |tr(U^dag V)|); evaluated by aligning V with the optimal phase
    arg(tr(V^dag U)) and subtracting directly, which avoids the catastrophic cancellation
    of the trace form (whose floating-point floor is ~1e-7 even for identical inputs).
    """
    return _aligned(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))[1]


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
