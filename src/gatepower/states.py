"""Pure two-qubit states, magic-basis coefficients and concurrence."""

from __future__ import annotations

import numpy as np

from .linalg import MAGIC, MAGIC_H

__all__ = [
    "to_magic_coefficients",
    "from_magic_coefficients",
    "concurrence",
    "rescale_to_concurrence",
]


def _concurrence(value: float, what: str = "initial") -> float:
    """A concurrence argument, with drift of up to 1e-12 outside [0, 1] clamped.

    Raises:
        ValueError: if ``value`` lies further outside [0, 1], or is NaN.
    """
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"{what} concurrence must be in [0, 1], got {value}")
    return float(min(max(value, 0.0), 1.0))


def to_magic_coefficients(state: np.ndarray) -> np.ndarray:
    """Expansion coefficients b of a state over the magic basis.

    ``state`` holds the four computational-basis amplitudes; the returned
    vector b satisfies ``state = MAGIC @ b``.
    """
    return MAGIC_H @ np.asarray(state, dtype=complex)


def from_magic_coefficients(b: np.ndarray) -> np.ndarray:
    """Computational-basis amplitudes of the state with magic coefficients b."""
    return MAGIC @ np.asarray(b, dtype=complex)


def concurrence(state: np.ndarray) -> float:
    """Concurrence of a normalized pure two-qubit state.

    Equals |sum_k b_k^2| for magic coefficients b; zero exactly for
    product states and one for maximally entangled states.  The result
    is clamped to [0, 1].
    """
    b = to_magic_coefficients(state)
    return float(min(abs(np.sum(b * b)), 1.0))


def rescale_to_concurrence(b: np.ndarray, c0: float) -> np.ndarray | None:
    """Move magic coefficients along the constraint manifold to |sum b^2| = c0.

    Rotates b by a global phase so sum(b^2) is real non-negative, then
    rescales the real and imaginary parts separately so the result is unit
    norm with concurrence exactly ``c0``.  Returns None when b is zero or
    not finite, or when the rescaling is singular (a purely real b cannot
    be moved below concurrence one).

    Raises:
        ValueError: if ``c0`` is outside [0, 1] by more than 1e-12.
    """
    c0 = _concurrence(c0, "target")
    b = np.asarray(b, dtype=complex)
    norm = np.linalg.norm(b)
    if not 0.0 < norm < np.inf:  # zero, or NaN / inf entries
        return None
    b = b / norm
    s = np.sum(b * b)
    b = b * np.exp(-0.5j * np.angle(s))
    x = b.real.copy()
    y = b.imag.copy()
    p = float(np.sum(x * x))
    q = float(np.sum(y * y))
    # p + q = 1 and p - q = |sum b^2| >= 0 by construction, so p >= 1/2.
    if 1.0 - c0 < 1e-15:
        scaled = x / np.sqrt(p)
        return scaled.astype(complex)
    if q <= 1e-30:
        return None
    out = np.sqrt((1.0 + c0) / (2.0 * p)) * x + 1j * np.sqrt((1.0 - c0) / (2.0 * q)) * y
    return out / np.linalg.norm(out)

