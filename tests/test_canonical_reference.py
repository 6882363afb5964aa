"""The per-gate path against a reference copy of its former code.

The functions below are verbatim copies of ``require_unitary``,
``eigen_phases``, ``_orthogonal_eigenbasis``, ``_by_magnitude``,
``reduce_alpha``, ``_match_columns``, ``_chamber_match``,
``weyl_coordinates`` and ``decompose`` before their fixed numpy and Python
costs were cut (docstrings dropped); the helpers that did not change are
imported.  ``decompose`` and ``weyl_coordinates`` must agree with them bit
for bit in every field, and every rejected input must raise the same
exception with the same message.  Both run on the installed numpy, so the
test holds whatever its version.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import memory_layouts, random_local_pair
from test_edge_cases import facet_and_edge_points
from gatepower import canonical_gate, decompose, random_unitary, weyl_coordinates
from gatepower.canonical import (
    _HALF_PI,
    _MIXES,
    _QUARTER_PI,
    INPUT_UNITARY_ATOL,
    RECONSTRUCTION_ATOL,
    CanonicalDecomposition,
    DecompositionDiagnostics,
    DecompositionError,
    _coordinates,
    _su2_factors,
)
from gatepower.cli import named_gate
from gatepower.linalg import MAGIC, MAGIC_H, UNITARY_ATOL, UnitarityError, require_unitary, tensor_product


def reference_require_unitary(m: np.ndarray, atol: float = UNITARY_ATOL, name: str = "matrix") -> np.ndarray:
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
    defect = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))
    if not defect <= atol:
        raise UnitarityError(f"{name} is not unitary: ||M^dag M - I||_F = {defect:.3e} > {atol:.1e}")
    return m


def reference_eigen_phases(alpha) -> np.ndarray:
    a1, a2, a3 = _coordinates(alpha)
    return np.array([-a1 + a2 + a3, a1 - a2 + a3, a1 + a2 - a3, -a1 - a2 - a3])


def reference_orthogonal_eigenbasis(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    best = None, None, math.inf, None
    for c in _MIXES:
        _, basis = np.linalg.eigh(m.real + c * m.imag)
        diag = basis.T @ m @ basis
        eigvals = diag.diagonal().copy()
        diag.flat[::5] = 0.0
        off = math.sqrt(np.vdot(diag, diag).real)
        if off < best[2]:
            best = basis, eigvals, off, c
        if off <= 1e-10:
            break
    return best


def reference_by_magnitude(alpha) -> list[float]:
    shifted = [x - math.ceil(x / _HALF_PI - 0.5) * _HALF_PI for x in _coordinates(alpha)]
    return sorted(shifted, key=abs, reverse=True)


def reference_reduce_alpha(alpha) -> np.ndarray:
    a = reference_by_magnitude(alpha)
    if a[0] < 0:
        a[0], a[2] = -a[0], -a[2]
    if a[1] < 0:
        a[1], a[2] = -a[1], -a[2]
    if a[2] < -1e-15 and a[0] >= _QUARTER_PI - 1e-10:
        a[2] = -a[2]
    return np.array(a)


def reference_match_columns(eigvals: np.ndarray, target: np.ndarray):
    dist = np.abs(np.array([eigvals, -eigvals])[:, None, :] - target[:, None]).reshape(2, 16)
    for row, flats in zip(dist.tolist(), np.argsort(dist, axis=1, kind="stable").tolist()):
        order, taken = [-1] * 4, [False] * 4
        for flat in flats:
            k, j = divmod(flat, 4)
            if order[k] < 0 and not taken[j]:
                order[k], taken[j], worst = j, True, row[flat]
        yield order, worst


def reference_chamber_match(u):
    u = reference_require_unitary(u, atol=INPUT_UNITARY_ATOL, name="gate")
    if u.shape != (4, 4):
        raise UnitarityError(f"gate must be 4x4, got shape {u.shape}")
    # Scaled by exp(-i arg(det u) / 4), the gate has determinant one.
    u_magic = MAGIC_H @ (u * np.exp(-1j * (float(np.angle(np.linalg.det(u))) / 4))) @ MAGIC
    m = u_magic.T @ u_magic
    m = 0.5 * (m + m.T)

    basis, eigvals, residual, mix = reference_orthogonal_eigenbasis(m)
    if residual > 1e-8:
        raise DecompositionError("could not diagonalize the magic Gram matrix", residual)

    # Principal half-phases: only mu[0..2] enter alpha, and a branch shift
    # of one by pi moves two coordinates by pi/2, a local move that
    # reduce_alpha undoes.
    mu = (np.arctan2(eigvals.imag, eigvals.real) / 2.0).tolist()  # np.angle without its Python-level wrapper
    alpha = reference_reduce_alpha([(mu[1] + mu[2]) / 2.0, (mu[0] + mu[2]) / 2.0, (mu[0] + mu[1]) / 2.0])
    lam = reference_eigen_phases(alpha)
    (order, miss), (order_neg, miss_neg) = reference_match_columns(eigvals, np.exp(2j * lam))
    if miss_neg < miss:
        order, miss, u_magic = order_neg, miss_neg, 1j * u_magic
    return u, u_magic, basis[:, order], alpha, lam, miss, residual, mix


def reference_weyl_coordinates(u: np.ndarray) -> np.ndarray:
    _, _, _, alpha, _, miss, _, _ = reference_chamber_match(u)
    if miss > RECONSTRUCTION_ATOL:
        raise DecompositionError("chamber spectrum does not match the gate", miss)
    return alpha


def reference_decompose(u: np.ndarray) -> CanonicalDecomposition:
    u, u_magic, basis, alpha, lam, _, residual, mix = reference_chamber_match(u)
    if np.linalg.det(basis) < 0:
        basis[:, 3] = -basis[:, 3]

    # Magic-frame factors: u~ = o1 diag(exp(i lam)) basis^T with o1 in SO(4).
    o1 = u_magic @ basis * np.exp(-1j * lam)
    imag_leak = math.sqrt(np.vdot(o1.imag, o1.imag))
    if imag_leak > 1e-6:
        raise DecompositionError("left magic-frame factor is not real orthogonal", imag_leak)
    a, b = _su2_factors(np.array([o1.real, basis.T]))
    # The middle factor is canonical_gate(alpha), built from the lam in hand.
    bare = tensor_product(a[0], b[0]) @ ((MAGIC * np.exp(1j * lam)) @ MAGIC_H) @ tensor_product(a[1], b[1])
    phase = float(np.angle(np.vdot(bare, u)))
    gap = u - np.exp(1j * phase) * bare
    check = math.sqrt(np.vdot(gap, gap).real)
    if check > RECONSTRUCTION_ATOL:
        raise DecompositionError("reconstruction check failed", check)
    return CanonicalDecomposition(
        weyl=alpha, pre_local=(a[1], b[1]), post_local=(a[0], b[0]), global_phase=phase,
        diagnostics=DecompositionDiagnostics(residual, mix, imag_leak, check),
    )


def _bits(x):
    """Every value of x as bytes or hex, -0.0 told apart from 0.0."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, CanonicalDecomposition):
        return [_bits(v) for v in (x.weyl, *x.pre_local, *x.post_local, x.global_phase, x.diagnostics)]
    if isinstance(x, DecompositionDiagnostics):
        return [_bits(v) for v in dataclasses.astuple(x)]
    return x.dtype.str, x.shape, x.tobytes()


def _outcome(call, *args):
    try:
        return _bits(call(*args))
    except Exception as exc:  # the type and message are what must agree
        return type(exc), str(exc)


def _dressed(points, seed):
    rng = np.random.default_rng(seed)
    return [random_local_pair(rng) @ canonical_gate(p) @ random_local_pair(rng) for p in points]


def _off(u, entry):
    u = u.copy()
    u[1, 2] = entry
    return u


def _huge_integer():
    m = np.eye(4).tolist()
    m[0][0] = 10**400
    return m


HAAR = [random_unitary(4, seed) for seed in range(40)]
NAMED = {token: named_gate(token) for token in ("identity", "cnot", "cz", "swap", "iswap", "sqrtswap")}
GATES = {
    **{f"haar{k}": u for k, u in enumerate(HAAR)},
    **{f"dressed{k}": u for k, u in enumerate(_dressed(facet_and_edge_points(), 61))},
    **NAMED,
    # Within and beyond the input tolerance 1e-10 of unitarity.
    "noise_3e-11": HAAR[0] + 3e-11 * random_unitary(4, 99),
    "noise_3e-10": HAAR[0] + 3e-10 * random_unitary(4, 99),
    "non_unitary": 1.01 * HAAR[1],
    "nan": _off(HAAR[2], np.nan),
    "inf": _off(HAAR[2], complex(0.0, np.inf)),
    "huge": _off(HAAR[2], 1e200j),
    "integer_overflow": _huge_integer(),
    "non_square": np.eye(4)[:, :3],
    "three_by_three": random_unitary(3, 5),
    "eight_by_eight": random_unitary(8, 5),
    "vector": np.ones(4),
    "scalar": 1.0,
}
LAYOUTS = {
    f"{name}_{layout}": v
    for name in ("haar0", "dressed3", "cnot", "sqrtswap", "non_unitary", "nan")
    for layout, v in memory_layouts(np.asarray(GATES[name], dtype=complex)).items()
}


@pytest.mark.parametrize("name", [*GATES, *LAYOUTS])
def test_decompose_and_weyl_coordinates_match_the_reference_bit_for_bit(name):
    u = GATES[name] if name in GATES else LAYOUTS[name]
    assert _outcome(decompose, u) == _outcome(reference_decompose, u)
    assert _outcome(weyl_coordinates, u) == _outcome(reference_weyl_coordinates, u)
    for atol in (UNITARY_ATOL, INPUT_UNITARY_ATOL):
        assert _outcome(require_unitary, u, atol, "gate") == _outcome(reference_require_unitary, u, atol, "gate")


def test_the_gate_set_decomposes_every_valid_gate_and_meets_each_rejection():
    raised = []
    for u in [*GATES.values(), *LAYOUTS.values()]:
        try:
            reference_decompose(u)
        except UnitarityError as exc:
            raised.append(str(exc))
    assert len(raised) == 11 + 2 * 4  # the eleven bad inputs, two of them in four layouts each
    for what in ("||M^dag M - I||_F", "non-finite entries", "entries above 1", "int too large", "square", "4x4"):
        assert any(what in message for message in raised), what
