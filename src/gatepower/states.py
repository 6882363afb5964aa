"""Pure two-qubit states, magic-basis coefficients and concurrence."""

from __future__ import annotations

import numpy as np

from .linalg import MAGIC, MAGIC_H

__all__ = [
    "to_magic_coefficients",
    "from_magic_coefficients",
    "concurrence",
]


def _concurrence(value: float, what: str = "initial") -> float:
    """A concurrence argument, with drift of up to 1e-12 outside [0, 1] clamped.

    Raises:
        ValueError: if ``value`` lies further outside [0, 1], or is NaN.
    """
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"{what} concurrence must be in [0, 1], got {value}")
    return float(0.0 if 0.0 > value else 1.0 if 1.0 < value else value)  # min(max(value, 0.0), 1.0), inline


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

    Raises:
        ValueError: if the squared norm of ``state`` differs from 1 by more
            than 1e-10 or is not a number; the formula holds only for
            normalized states.
    """
    b = to_magic_coefficients(state)
    norm2 = float(np.vdot(b, b).real)
    if not abs(norm2 - 1.0) <= 1e-10:
        raise ValueError(f"state must have unit norm (to 1e-10), got squared norm {norm2}")
    return float(min(abs((b * b).sum()), 1.0))
