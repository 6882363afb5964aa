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
two rotations in SO(4) whose magic-frame images split exactly into
SU(2) (x) SU(2) local factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAGIC, MAGIC_H, UnitarityError, _aligned, require_unitary, tensor_product

__all__ = [
    "DecompositionError",
    "DecompositionDiagnostics",
    "CanonicalDecomposition",
    "in_weyl_chamber",
    "reduce_alpha",
    "eigen_phases",
    "canonical_gate",
    "weyl_coordinates",
    "decompose",
    "reconstruct",
]

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
_FACE_TOL, _SIGN_TOL = 1e-10, 1e-15  # reduce_alpha's face a1 >= pi/4 - _FACE_TOL folds a3 < -_SIGN_TOL
_COORDINATE_RULE = "chamber coordinates must be three finite numbers, |a_j| <= 1e3"

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


@dataclass(frozen=True)
class DecompositionDiagnostics:
    """The values :func:`decompose` checks on its way; all but the mix are Frobenius norms.

    Attributes:
        eigenbasis_residual: off-diagonal part of basis^T m basis (at most 1e-8).
        eigenbasis_mix: weight c of the real mix Re(m) + c Im(m) whose
            eigenbasis was used.
        imaginary_leak: imaginary part of the left magic-frame factor (at most 1e-6).
        reconstruction_residual: distance between the gate and its
            reconstruction with the stored phase (at most 1e-8).
    """

    eigenbasis_residual: float
    eigenbasis_mix: float
    imaginary_leak: float
    reconstruction_residual: float


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Result of :func:`decompose`.

    Attributes:
        weyl: chamber-reduced canonical coordinates (a1, a2, a3), radians.
        pre_local: single-qubit factors (V_A, V_B) in SU(2) applied before
            the canonical gate.
        post_local: single-qubit factors (U_A, U_B) in SU(2) applied after it.
        global_phase: phase (radians) making the reconstruction exact.
        diagnostics: the residuals behind the result; None if built by hand.
    """

    weyl: np.ndarray
    pre_local: tuple[np.ndarray, np.ndarray]
    post_local: tuple[np.ndarray, np.ndarray]
    global_phase: float
    diagnostics: DecompositionDiagnostics | None = None


def _three_floats(alpha) -> list[float]:
    """alpha as three Python floats of any size: as given in a list, tuple or array, else converted.
    ValueError unless three real numbers: complex ones, whose imaginary parts a float conversion
    would drop with only a warning, ints beyond the float range, and bools and numeric strings,
    which a float conversion would read as numbers, fail too."""
    v = alpha.tolist() if type(alpha) is np.ndarray else list(alpha) if type(alpha) is tuple else alpha
    if type(v) is list and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is float:
        return v
    a = np.asarray(alpha)
    if a.dtype.kind == "O":  # let the elements' own types decide, as for a list
        a = np.asarray(a.tolist())
    if a.dtype.kind == "c":
        raise ValueError(f"chamber coordinates must be real numbers, got {a.tolist()}")
    # Integers and floats only, also where a bool joins them in a list; an object array left
    # here holds ints beyond 64 bits, or objects that are not numbers.
    ints = a.dtype.kind == "O" and all(type(x) is int for x in a.ravel().tolist())
    if not (a.dtype.kind in "iuf" or ints) or type(v) is list and any(isinstance(x, (bool, np.bool_)) for x in v):
        raise ValueError(f"{_COORDINATE_RULE}, got {v if type(v) is list else a.tolist()}")
    try:
        a = a.astype(float)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"{_COORDINATE_RULE}: {exc}") from exc
    if a.shape != (3,):
        raise ValueError(f"{_COORDINATE_RULE}, got {a.tolist()}")
    return a.tolist()


def in_weyl_chamber(alpha, tol: float = 1e-9) -> bool:
    """True if pi/4 >= a1 >= a2 >= |a3| >= 0 holds within ``tol`` (False for NaN);
    ValueError unless alpha is three real numbers."""
    a1, a2, a3 = _three_floats(alpha)
    return a1 <= _QUARTER_PI + tol and a1 >= a2 - tol and a2 >= abs(a3) - tol


def _coordinates(alpha) -> list[float]:
    """alpha as three Python floats.

    Raises:
        ValueError: if alpha is not three finite real numbers with |a_j| <= 1e3;
            beyond that, reduction mod pi/2 loses over 1e-13 to rounding.
    """
    values = _three_floats(alpha)
    a1, a2, a3 = values
    if not (abs(a1) <= 1e3 and abs(a2) <= 1e3 and abs(a3) <= 1e3):  # NaN and inf fail too
        raise ValueError(f"{_COORDINATE_RULE}, got {values}")
    return values


def eigen_phases(alpha) -> np.ndarray:
    """Magic-basis eigenphases of the canonical gate with coordinates alpha.

    The canonical gate is diagonal on the magic states with phases

        l1 = -a1 + a2 + a3
        l2 = +a1 - a2 + a3
        l3 = +a1 + a2 - a3
        l4 = -a1 - a2 - a3

    which sum to zero identically.

    Raises:
        ValueError: if a coordinate is complex, not finite or exceeds 1e3 in magnitude.
    """
    return _phases(*_coordinates(alpha))


def _phases(a1: float, a2: float, a3: float) -> np.ndarray:
    """``eigen_phases`` of three checked floats."""
    return np.array([-a1 + a2 + a3, a1 - a2 + a3, a1 + a2 - a3, -a1 - a2 - a3])


def canonical_gate(alpha) -> np.ndarray:
    """The gate exp(i sum_j alpha_j sigma_j (x) sigma_j).

    Built exactly as Q diag(exp(i l_k)) Q^dag from the eigenphases, which
    avoids a matrix exponential.
    """
    return _gate(eigen_phases(alpha))


def _gate(lam: np.ndarray) -> np.ndarray:
    """``canonical_gate`` of the eigenphases lam."""
    return (MAGIC * np.exp(1j * lam)) @ MAGIC_H


def _su2_factors(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SU(2) factors A[s] (x) B[s] = MAGIC o[s] MAGIC^dag of a stack o (n, 4, 4) in SO(4).

    Block (i, k) of a magic-frame image is A[i, k] B.  The block of
    largest norm has |A[i, k]|^2 >= 1/2, so dividing it by the square root
    of its determinant gives B, and A[i, k] = tr(B^dag block(i, k)) / 2.
    """
    blocks = (MAGIC @ o @ MAGIC_H).reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
    i, k = np.divmod((abs(blocks) ** 2).sum(axis=(3, 4)).reshape(-1, 4).argmax(axis=1), 2)
    b = blocks[np.arange(len(o)), i, k]
    b /= np.sqrt(np.linalg.det(b))[:, None, None]
    return (b.conj()[:, None, None] * blocks).sum(axis=(3, 4)) / 2.0, b


def _orthogonal_eigenbasis(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Real orthogonal eigenbasis of a complex symmetric unitary matrix.

    Re(m) and Im(m) are commuting real symmetric matrices, so the real
    eigenbasis of any mix Re(m) + c Im(m) diagonalizes m.  Eigenvalues
    exp(i phi_j), exp(i phi_k) collide under the mix c when
    phi_j + phi_k = 2 atan(c) (mod 2 pi), i.e. when a coordinate equals
    +-atan(c)/2 (mod pi/2).  A coordinate can do that for at most one of
    the positive ``_MIXES``, so one of the four is free of collisions.
    Returns the first basis whose off-diagonal residual is at most 1e-10,
    else the best one, together with the eigenvalues of m it yields (the
    diagonal of basis^T m basis), that residual and its mix c.
    """
    best = None, None, math.inf, None
    for c in _MIXES:
        _, basis = np.linalg.eigh(m.real + c * m.imag)
        diag = basis.T @ m @ basis
        eigvals = diag.diagonal().copy()
        diag.ravel()[::5] = 0.0  # a view: the product is C-contiguous
        off = math.sqrt(np.vdot(diag, diag).real)
        if off < best[2]:
            best = basis, eigvals, off, c
        if off <= 1e-10:
            break
    return best


def _by_magnitude(alpha) -> list[float]:
    """The ``_coordinates``, each shifted by a multiple of pi/2 into (-pi/4, pi/4],
    by decreasing magnitude; equal magnitudes keep their order."""
    a1, a2, a3 = _coordinates(alpha)
    a = [a1 - math.ceil(a1 / _HALF_PI - 0.5) * _HALF_PI, a2 - math.ceil(a2 / _HALF_PI - 0.5) * _HALF_PI,
         a3 - math.ceil(a3 / _HALF_PI - 0.5) * _HALF_PI]
    a.sort(key=abs, reverse=True)
    return a


def reduce_alpha(alpha) -> np.ndarray:
    """Weyl chamber representative of the gate class with coordinates alpha.

    Works on the three numbers alone.  Each coordinate is shifted by a
    multiple of pi/2 into (-pi/4, pi/4], the coordinates are sorted by
    magnitude and pairs of signs are flipped; every move changes the gate
    only by local factors and a global phase.  On the face a1 = pi/4
    (within 1e-10) the chamber identifies +-a3 and the non-negative sign
    is chosen.  a1 is kept: the exact mirror pi/2 - a1 would lie outside
    the closed chamber, and setting a1 to pi/4 would move theta, which
    reads a1, a2 and |a3| only.

    Raises:
        ValueError: if a coordinate is complex, not finite or exceeds 1e3 in magnitude.
    """
    a = _by_magnitude(alpha)
    if a[0] < 0:
        a[0], a[2] = -a[0], -a[2]
    if a[1] < 0:
        a[1], a[2] = -a[1], -a[2]
    if a[2] < -_SIGN_TOL and a[0] >= _QUARTER_PI - _FACE_TOL:
        a[2] = -a[2]
    return np.array(a)


def _match_columns(eigvals: np.ndarray, target: np.ndarray):
    """For s = eigvals, -eigvals: pair each target[k] with a distinct s[order[k]], nearest pairs first.

    A stable sort visits pairs in repeated-argmin order, ties included.
    Yields per s the order and the largest distance of a chosen pair (the last).
    """
    dist = np.abs(np.array([eigvals, -eigvals])[:, None, :] - target[:, None]).reshape(2, 16)
    for row, flats in zip(dist.tolist(), np.argsort(dist, axis=1, kind="stable").tolist()):
        order, taken, left = [-1] * 4, [False] * 4, 4
        for flat in flats:
            k, j = divmod(flat, 4)
            if order[k] < 0 and not taken[j]:
                order[k], taken[j], worst, left = j, True, row[flat], left - 1
                if not left:  # every later pair repeats a chosen k or j
                    break
        yield order, worst


def _chamber_match(u):
    """Validated gate, magic-frame image, matched eigenbasis, alpha, lam, miss, eigenbasis residual, mix.

    alpha is ``reduce_alpha`` of the half-phases of m, checked to lie in the chamber, and lam
    its eigenphases.  Every reduction move is local up to a factor i, so exp(2i lam) is the
    spectrum of m or of -m (the image then gains a factor i); the basis follows the better.
    """
    u = require_unitary(u, atol=INPUT_UNITARY_ATOL, name="gate")
    if u.shape != (4, 4):
        raise UnitarityError(f"gate must be 4x4, got shape {u.shape}")
    # Scaled by exp(-i arg(det u) / 4), the gate has determinant one; arctan2 is what np.angle computes.
    det = np.linalg.det(u)
    u_magic = MAGIC_H @ (u * np.exp(-1j * (float(np.arctan2(det.imag, det.real)) / 4))) @ MAGIC
    m = u_magic.T @ u_magic
    m = 0.5 * (m + m.T)

    basis, eigvals, residual, mix = _orthogonal_eigenbasis(m)
    if residual > 1e-8:
        raise DecompositionError("could not diagonalize the magic Gram matrix", residual)

    # Principal half-phases: only mu[0..2] enter alpha, and a branch shift
    # of one by pi moves two coordinates by pi/2, a local move that
    # reduce_alpha undoes.
    mu = (np.arctan2(eigvals.imag, eigvals.real) / 2.0).tolist()  # np.angle without its Python-level wrapper
    alpha = reduce_alpha([(mu[1] + mu[2]) / 2.0, (mu[0] + mu[2]) / 2.0, (mu[0] + mu[1]) / 2.0])
    a1, a2, a3 = a = alpha.tolist()
    if not in_weyl_chamber(a, 1e-12) or (a3 < -_SIGN_TOL and a1 >= _QUARTER_PI - _FACE_TOL):
        excess = max(a1 - _QUARTER_PI, a2 - a1, abs(a3) - a2, -a3 if a1 >= _QUARTER_PI - _FACE_TOL else 0.0)
        raise DecompositionError(f"reduced coordinates {a} lie outside the Weyl chamber", excess)
    lam = _phases(a1, a2, a3)
    (order, miss), (order_neg, miss_neg) = _match_columns(eigvals, np.exp(2j * lam))
    if miss_neg < miss:
        order, miss, u_magic = order_neg, miss_neg, 1j * u_magic
    return u, u_magic, basis[:, order], alpha, lam, miss, residual, mix


def weyl_coordinates(u: np.ndarray) -> np.ndarray:
    """Weyl chamber coordinates of a two-qubit unitary, without local factors.

    Equal bit for bit to ``decompose(u).weyl``.  The spectrum of +-m is a
    complete local invariant, so in place of a reconstruction check the
    chamber spectrum must match it within 1e-8.

    Raises:
        UnitarityError: if ``u`` is not a 4x4 unitary to 1e-10.
        DecompositionError: if the eigenbasis, the chamber check or the spectrum match fails.
    """
    _, _, _, alpha, _, miss, _, _ = _chamber_match(u)
    if miss > RECONSTRUCTION_ATOL:
        raise DecompositionError("chamber spectrum does not match the gate", miss)
    return alpha


def decompose(u: np.ndarray) -> CanonicalDecomposition:
    """Canonical decomposition of a two-qubit unitary.

    Returns a :class:`CanonicalDecomposition` whose reconstruction matches
    ``u`` up to the stored global phase within 1e-8 and whose coordinates
    are checked to satisfy the Weyl chamber inequalities.  Deterministic per input.

    The eigenbasis matched to the chamber eigenphases gives the local
    factors without tracking the reduction moves.

    Raises:
        UnitarityError: if ``u`` is not unitary to 1e-10.
        DecompositionError: if the eigenbasis extraction, the chamber check
            or the final reconstruction check fails.
    """
    u, u_magic, basis, alpha, lam, _, residual, mix = _chamber_match(u)
    if np.linalg.det(basis) < 0:
        basis[:, 3] = -basis[:, 3]

    # Magic-frame factors: u~ = o1 diag(exp(i lam)) basis^T with o1 in SO(4).
    o1 = u_magic @ basis * np.exp(-1j * lam)
    imag_leak = math.sqrt(np.vdot(o1.imag, o1.imag))
    if imag_leak > 1e-6:
        raise DecompositionError("left magic-frame factor is not real orthogonal", imag_leak)
    a, b = _su2_factors(np.array([o1.real, basis.T]))
    post, pre = tensor_product(a, b)
    phase, check = _aligned(u, post @ _gate(lam) @ pre)
    if check > RECONSTRUCTION_ATOL:
        raise DecompositionError("reconstruction check failed", check)
    return CanonicalDecomposition(
        weyl=alpha, pre_local=(a[1], b[1]), post_local=(a[0], b[0]), global_phase=phase,
        diagnostics=DecompositionDiagnostics(residual, mix, imag_leak, check),
    )


def reconstruct(d: CanonicalDecomposition) -> np.ndarray:
    """Rebuild the gate exp(i phase) (U_A (x) U_B) U_d (V_A (x) V_B)."""
    return (
        np.exp(1j * d.global_phase)
        * tensor_product(*d.post_local)
        @ canonical_gate(d.weyl)
        @ tensor_product(*d.pre_local)
    )
