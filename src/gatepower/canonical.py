"""Canonical (Kraus-Cirac / KAK) decomposition of two-qubit unitaries.

Any U in U(4) factors as

    U = exp(i*phase) (A (x) B) U_d(alpha) (C (x) D)

where A, B, C, D are single-qubit unitaries and U_d(alpha) =
exp(i sum_j alpha_j sigma_j (x) sigma_j) is the canonical gate.  The triple
alpha, reduced to the Weyl chamber pi/4 >= a1 >= a2 >= |a3| >= 0, is a
complete invariant of local equivalence.

The extraction works in the magic frame, where U_d is diagonal with
eigenphases linear in alpha and local factors are real orthogonal:
m = u~^T u~ is a complex symmetric unitary.  Its spectrum fixes alpha,
which ``reduce_alpha`` maps into the chamber as plain numbers; its real
orthogonal eigenbasis, ordered to match the chamber eigenphases, gives
the local factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAGIC,
    MAGIC_H,
    UnitarityError,
    distance_up_to_phase,
    normalize_special,
    require_unitary,
    tensor_product,
)

__all__ = [
    "DecompositionError",
    "NotAProductError",
    "CanonicalDecomposition",
    "in_weyl_chamber",
    "reduce_alpha",
    "eigen_phases",
    "canonical_gate",
    "nearest_kronecker_factor",
    "decompose",
    "reconstruct",
]

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0

# Acceptance thresholds for the decomposition pipeline.
INPUT_UNITARY_ATOL = 1e-10
RECONSTRUCTION_ATOL = 1e-8

# Weights c of the real mixes Re(m) + c Im(m) tried by _orthogonal_eigenbasis:
# Euler's gamma, the golden ratio, e and pi.  Positive, distinct and
# irrational, so no common coordinate value makes two eigenvalues collide.
_MIXES = (0.5772156649015329, 1.618033988749895, 2.718281828459045, 3.141592653589793)


class DecompositionError(RuntimeError):
    """Decomposition failed; carries the offending residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class NotAProductError(ValueError):
    """Raised when a matrix is not a tensor product of single-qubit unitaries."""


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Result of :func:`decompose`.

    Attributes:
        weyl: chamber-reduced canonical coordinates (a1, a2, a3), radians.
        pre_local: single-qubit unitaries (V_A, V_B) applied before the
            canonical gate.
        post_local: single-qubit unitaries (U_A, U_B) applied after it.
        global_phase: phase (radians) making the reconstruction exact.
    """

    weyl: np.ndarray
    pre_local: tuple[np.ndarray, np.ndarray]
    post_local: tuple[np.ndarray, np.ndarray]
    global_phase: float


def in_weyl_chamber(alpha, tol: float = 1e-9) -> bool:
    """True if pi/4 >= a1 >= a2 >= |a3| >= 0 holds within ``tol``."""
    a1, a2, a3 = np.asarray(alpha, dtype=float)
    return (
        a1 <= _QUARTER_PI + tol
        and a1 >= a2 - tol
        and a2 >= abs(a3) - tol
    )


def eigen_phases(alpha) -> np.ndarray:
    """Magic-basis eigenphases of the canonical gate with coordinates alpha.

    The canonical gate is diagonal on the magic states with phases

        l1 = -a1 + a2 + a3
        l2 = +a1 - a2 + a3
        l3 = +a1 + a2 - a3
        l4 = -a1 - a2 - a3

    which sum to zero identically.
    """
    a1, a2, a3 = np.asarray(alpha, dtype=float)
    return np.array([-a1 + a2 + a3, a1 - a2 + a3, a1 + a2 - a3, -a1 - a2 - a3])


def canonical_gate(alpha) -> np.ndarray:
    """The gate exp(i sum_j alpha_j sigma_j (x) sigma_j).

    Built exactly as Q diag(exp(i l_k)) Q^dag from the eigenphases, which
    avoids a matrix exponential.
    """
    phases = np.exp(1j * eigen_phases(alpha))
    return (MAGIC * phases) @ MAGIC_H


def nearest_kronecker_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a 4x4 matrix known to be A (x) B into unitary factors (A, B).

    Uses the rank-one structure of the index-reshuffled matrix: for
    M = A (x) B the rearrangement R[2i+j, 2k+l] = M[2i+k, 2j+l] equals
    vec(A) vec(B)^T, so its leading singular pair yields the factors.
    Factors are projected to the nearest unitaries; A gets a non-negative
    real first (row-major) entry of significant modulus, and B absorbs the
    remaining phase so A (x) B matches ``m`` up to a global phase.

    Raises:
        NotAProductError: if the rank-one fit residual exceeds 1e-6.
    """
    m = np.asarray(m, dtype=complex)
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(r)
    residual = float(np.linalg.norm(s[1:]))
    if residual > 1e-6:
        raise NotAProductError(
            f"matrix is not a tensor product of single-qubit operators "
            f"(rank-one fit residual {residual:.3e})"
        )
    a = (np.sqrt(s[0]) * u[:, 0]).reshape(2, 2)
    b = (np.sqrt(s[0]) * vh[0]).reshape(2, 2)
    a = _closest_unitary(a)
    b = _closest_unitary(b)
    # Phase convention: first entry of a with significant modulus is made
    # real non-negative; b picks up whatever phase aligns a (x) b with m.
    pivot = next(x for x in a.ravel() if abs(x) > 1e-6)
    a = a * np.exp(-1j * np.angle(pivot))
    b = b * np.exp(1j * np.angle(np.trace(tensor_product(a, b).conj().T @ m)))
    return a, b


def _closest_unitary(m: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _orthogonal_eigenbasis(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Real orthogonal eigenbasis of a complex symmetric unitary matrix.

    Re(m) and Im(m) are commuting real symmetric matrices, so the real
    eigenbasis of any mix Re(m) + c Im(m) diagonalizes m.  Eigenvalues
    exp(i phi_j), exp(i phi_k) collide under the mix c when
    phi_j + phi_k = 2 atan(c) (mod 2 pi), i.e. when a coordinate equals
    +-atan(c)/2 (mod pi/2).  A coordinate can do that for at most one of
    the positive ``_MIXES``, so one of the four is free of collisions.
    Returns the first basis whose off-diagonal residual is at most 1e-10,
    else the best one, together with that residual.
    """
    re = np.real(m)
    im = np.imag(m)
    best, best_off = None, np.inf
    for c in _MIXES:
        _, basis = np.linalg.eigh(re + c * im)
        diag = basis.T @ m @ basis
        off = float(np.linalg.norm(diag - np.diag(np.diagonal(diag))))
        if off < best_off:
            best, best_off = basis, off
        if off <= 1e-10:
            break
    return best, best_off


def _half_phases(eigvals: np.ndarray) -> np.ndarray:
    """Phases mu with exp(2i mu) = eigvals and sum(mu) = 0.

    Principal branches leave the sum as a multiple of pi (det m = 1); the
    extremal branches are shifted until the sum vanishes.
    """
    mu = np.angle(eigvals) / 2.0
    wraps = round(float(np.sum(mu)) / math.pi)
    while wraps > 0:
        mu[np.argmax(mu)] -= math.pi
        wraps -= 1
    while wraps < 0:
        mu[np.argmin(mu)] += math.pi
        wraps += 1
    return mu


def reduce_alpha(alpha) -> np.ndarray:
    """Weyl chamber representative of the gate class with coordinates alpha.

    Works on the three numbers alone.  Each coordinate is shifted by a
    multiple of pi/2 into (-pi/4, pi/4], the coordinates are sorted by
    magnitude and pairs of signs are flipped; every move changes the gate
    only by local factors and a global phase.  On the face a1 = pi/4
    (within 1e-10) the chamber identifies +-a3 and the non-negative sign
    is chosen; a1 is then set to pi/4, since the exact mirror
    pi/2 - a1 would lie outside the closed chamber.

    Raises:
        ValueError: if a coordinate is not finite.
    """
    a = np.asarray(alpha, dtype=float).tolist()
    if len(a) != 3 or not all(math.isfinite(x) for x in a):
        raise ValueError(f"chamber coordinates must be three finite numbers, got {a}")
    a = [x - math.ceil(x / _HALF_PI - 0.5) * _HALF_PI for x in a]
    for j, k in ((0, 1), (1, 2), (0, 1)):
        if abs(a[j]) < abs(a[k]):
            a[j], a[k] = a[k], a[j]
    if a[0] < 0:
        a[0], a[2] = -a[0], -a[2]
    if a[1] < 0:
        a[1], a[2] = -a[1], -a[2]
    if a[2] < -1e-15 and a[0] >= _QUARTER_PI - 1e-10:
        a[0], a[2] = _QUARTER_PI, -a[2]
    return np.array(a)


def _match_columns(eigvals: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Pair each target[k] with a distinct eigvals[order[k]], nearest pairs first.

    Returns the order and the largest distance of a chosen pair.
    """
    dist = np.abs(eigvals[None, :] - target[:, None])
    order = np.zeros(4, dtype=int)
    worst = 0.0
    for _ in range(4):
        k, j = divmod(int(np.argmin(dist)), 4)
        order[k] = j
        worst = max(worst, float(dist[k, j]))
        dist[k, :] = np.inf
        dist[:, j] = np.inf
    return order, worst


def decompose(u: np.ndarray) -> CanonicalDecomposition:
    """Canonical decomposition of a two-qubit unitary.

    Returns a :class:`CanonicalDecomposition` whose reconstruction matches
    ``u`` up to the stored global phase within 1e-8 and whose coordinates
    satisfy the Weyl chamber inequalities.  Deterministic per input.

    The coordinates are ``reduce_alpha`` of the half-phases of m; the
    eigenbasis columns are then matched to the chamber eigenphases, so
    the local factors follow from the spectrum without tracking the
    reduction moves.

    Raises:
        UnitarityError: if ``u`` is not unitary to 1e-10.
        DecompositionError: if the eigenbasis extraction or the final
            reconstruction check fails.
    """
    u = require_unitary(u, atol=INPUT_UNITARY_ATOL, name="gate")
    if u.shape != (4, 4):
        raise UnitarityError(f"gate must be 4x4, got shape {u.shape}")
    v, _ = normalize_special(u)
    u_magic = MAGIC_H @ v @ MAGIC
    m = u_magic.T @ u_magic
    m = 0.5 * (m + m.T)

    basis, residual = _orthogonal_eigenbasis(m)
    if residual > 1e-8:
        raise DecompositionError("could not diagonalize the magic Gram matrix", residual)

    eigvals = np.diagonal(basis.T @ m @ basis)
    mu = _half_phases(eigvals)
    alpha = reduce_alpha([(mu[1] + mu[2]) / 2.0, (mu[0] + mu[2]) / 2.0, (mu[0] + mu[1]) / 2.0])
    lam = eigen_phases(alpha)
    # Every reduction move is local up to a factor i, so the chamber
    # spectrum exp(2i lam) equals the spectrum of m or of -m.
    target = np.exp(2j * lam)
    order, miss = _match_columns(eigvals, target)
    order_neg, miss_neg = _match_columns(-eigvals, target)
    if miss_neg < miss:
        order = order_neg
        u_magic = 1j * u_magic
    basis = basis[:, order]
    if np.linalg.det(basis) < 0:
        basis[:, 3] = -basis[:, 3]

    # Magic-frame factors: u~ = o1 diag(exp(i lam)) basis^T with o1 in SO(4).
    o1 = u_magic @ basis @ np.diag(np.exp(-1j * lam))
    imag_leak = float(np.linalg.norm(o1.imag))
    if imag_leak > 1e-6:
        raise DecompositionError("left magic-frame factor is not real orthogonal", imag_leak)
    post_a, post_b = nearest_kronecker_factor(MAGIC @ o1.real @ MAGIC_H)
    pre_a, pre_b = nearest_kronecker_factor(MAGIC @ basis.T @ MAGIC_H)

    bare = tensor_product(post_a, post_b) @ canonical_gate(alpha) @ tensor_product(pre_a, pre_b)
    phase = float(np.angle(np.trace(bare.conj().T @ u)))
    result = CanonicalDecomposition(
        weyl=alpha,
        pre_local=(pre_a, pre_b),
        post_local=(post_a, post_b),
        global_phase=phase,
    )
    check = distance_up_to_phase(bare, u)
    if check > RECONSTRUCTION_ATOL:
        raise DecompositionError("reconstruction check failed", check)
    return result


def reconstruct(d: CanonicalDecomposition) -> np.ndarray:
    """Rebuild the gate exp(i phase) (U_A (x) U_B) U_d (V_A (x) V_B)."""
    return (
        np.exp(1j * d.global_phase)
        * tensor_product(*d.post_local)
        @ canonical_gate(d.weyl)
        @ tensor_product(*d.pre_local)
    )
