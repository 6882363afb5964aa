"""Independent numerical verification of the closed-form power results.

Brackets the extremal final concurrences without any closed-form result.
With magic coefficients b, u_j = b_j^2 and w_j = exp(2i l_j), the states
of concurrence c0 are the u with sum |u_j| = 1 and sum u_j = c0 (after a
global phase); their final amplitudes F = sum u_j w_j fill a convex set
D(c0) with support function, by Lagrange duality,

    h(theta) = min_z [c0 Re z + max_j |exp(-i theta) w_j - z|].

Sampled support values bound max |F| from above and min |F| from below;
explicit states from the dual active sets bound them from the other side.
Gaps between directions are bisected until the two sides meet.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .canonical import canonical_gate, eigen_phases
from .power import power_interval
from .states import (
    concurrence,
    from_magic_coefficients,
    rescale_to_concurrence,
    sample_state_with_concurrence,
)

__all__ = [
    "Direction",
    "OptimizerConfig",
    "OracleResult",
    "EnvelopeRow",
    "ProfileRow",
    "ProfileReport",
    "extremal_concurrence",
    "reach_target",
    "envelope_scan",
    "verify_profile",
]

# Converged: the bracket and the state's constraint violation are at most _TOL.
_TOL = 1e-8
_START_DIRECTIONS = 64
_MAX_ROUNDS = 40
_MAX_DIRECTIONS = 8192
# Dual distances within this of the largest one count as active.
_ACTIVE_ATOL = 1e-11
_EPS = float(np.finfo(float).eps)
_TWO_PI = 2.0 * math.pi
# The minimiser of h is the origin (the circumcentre of any three w_j), a
# point w_j, or the optimum on the bisector of one of these pairs.
_PAIRS = np.array(list(itertools.combinations(range(4), 2))).T
# Every point of the hull of four planar points lies on one of these
# segments (a repeated index is a single point) or in one of these triangles.
_SEGMENTS_4 = np.array(list(itertools.combinations_with_replacement(range(4), 2))).T
_TRIANGLES_4 = np.array(list(itertools.combinations(range(4), 3))).T


class Direction(enum.Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class OptimizerConfig:
    """Accepted for compatibility; configures nothing (the bracket has no starts or seed)."""

    starts: int = 64
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one bracket.

    ``extremal_concurrence`` is the final concurrence of the explicit state
    ``achiever``; ``bound`` is the certified value on the other side (the
    target for :func:`reach_target`).  ``starts_agreeing`` is 1 if converged.
    """

    extremal_concurrence: float
    achiever: np.ndarray
    constraint_violation: float
    converged: bool
    starts_agreeing: int
    bound: float


@dataclass(frozen=True)
class EnvelopeRow:
    c0: float
    oracle_min: float
    oracle_max: float
    min_converged: bool
    max_converged: bool
    samples_inside: bool


@dataclass(frozen=True)
class ProfileRow:
    c0: float
    closed_min: float
    closed_max: float
    oracle_min: float
    oracle_max: float
    deviation_min: float
    deviation_max: float
    converged: bool
    passed: bool


@dataclass(frozen=True)
class ProfileReport:
    alpha: np.ndarray
    tol: float
    rows: list[ProfileRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _nearest_weights(p, segments, triangles, valid=None) -> np.ndarray:
    """Convex weights of the point of each row's hull nearest to the origin.

    ``p`` is (n, m); the hull of a row is searched over the given segments
    (2, s) and triangles (3, t) of point indices, leaving out the points
    where ``valid`` is False.  Returns (n, m) weights.
    """
    a, e = p[:, segments[0]], p[:, segments[1]] - p[:, segments[0]]
    ee = (e.conj() * e).real
    t = np.clip(np.divide(-(a.conj() * e).real, ee, out=np.zeros_like(ee), where=ee > 0), 0.0, 1.0)
    seg_w = np.stack([1.0 - t, t, np.zeros_like(t)], axis=2)
    x, y, z = (p[:, i] for i in triangles)
    bary = np.stack([(y.conj() * z).imag, (z.conj() * x).imag, (x.conj() * y).imag], axis=2)
    area = bary.sum(axis=2)
    inside = (area != 0) & np.all(bary * area[:, :, None] >= 0, axis=2)
    tri_w = np.divide(bary, area[:, :, None], out=np.zeros_like(bary), where=inside[:, :, None])
    index = np.concatenate([np.stack([*segments, segments[1]]), triangles], axis=1).T
    weights = np.concatenate([seg_w, tri_w], axis=1)
    dist = np.abs((weights * p[:, index]).sum(axis=2))
    ok = np.concatenate([np.ones(t.shape, dtype=bool), inside], axis=1)
    if valid is not None:
        ok = ok & valid[:, index].all(axis=2)
    best = np.where(ok, dist, np.inf).argmin(axis=1)
    rows = np.arange(len(p))
    out = np.zeros(p.shape)
    np.add.at(out, (rows[:, None], index[best]), weights[rows, best])
    return out


def _support(lam, c0: float, theta):
    """Certified support values h(theta) of D(c0), their dual minimisers z,
    and feasible u (sum |u| = 1, sum u = c0) attaining them."""
    psi = 2.0 * lam[None, :] - theta[:, None]
    w = np.exp(1j * psi)
    half = 0.5 * (psi[:, _PAIRS[0]] + psi[:, _PAIRS[1]])
    diff = 0.5 * (psi[:, _PAIRS[0]] - psi[:, _PAIRS[1]])
    # On the bisector z = t exp(i half), |z - w_j|^2 = (t - a)^2 + b^2.
    a, b, s = np.cos(diff), np.abs(np.sin(diff)), c0 * np.cos(half)
    t = a - s * b / np.sqrt(1.0 - s * s)
    cand = np.concatenate([np.zeros((theta.size, 1)), w, t * np.exp(1j * half)], axis=1)
    dist = np.abs(w[:, None, :] - cand[:, :, None])
    g = c0 * cand.real + dist.max(axis=2)
    best = g.argmin(axis=1)
    rows = np.arange(theta.size)
    z, r = cand[rows, best], dist[rows, best]
    # Optimality of z puts c0 in the hull of the unit vectors from z to the
    # active points; the hull weights mu give u_j = mu_j conj(unit_j).
    active = r >= r.max(axis=1, keepdims=True) - _ACTIVE_ATOL
    units = np.divide(w - z[:, None], r, out=np.ones_like(w), where=r > _ACTIVE_ATOL)
    # When every point sits at z, any unit vectors are subgradients.
    units[r.max(axis=1) <= _ACTIVE_ATOL] = [1.0, -1.0, 1.0, -1.0]
    mu = _nearest_weights(units - c0, _SEGMENTS_4, _TRIANGLES_4, active)
    # Any z bounds h from above; the margin covers rounding in evaluating g.
    return g[rows, best] + 8.0 * _EPS * (1.0 + np.abs(z)), z, mu * units.conj()


def _gap_min_bound(theta, gaps, f) -> np.ndarray:
    """Upper bound of -h over each gap from the support points at its ends.

    Across a gap h is at least the support function of the segment between
    the two support points; the largest value of minus that function lies
    at an end, at the segment's normal, or opposite one of the points.
    """
    p, q = f, np.roll(f, -1)
    cand = np.stack([theta, theta + gaps, np.angle(1j * (q - p)), np.angle(1j * (p - q)),
                     np.angle(-p), np.angle(-q)])
    rot = np.exp(-1j * cand)
    value = -np.maximum((rot * p).real, (rot * q).real)
    inside = (cand - theta) % _TWO_PI <= gaps
    return np.where(inside, value, -np.inf).max(axis=0)


def _reach(f, level: float, hi: float) -> float:
    """Smallest t in [0, hi] with f(t) >= level, bisected; f is convex with f(0) <= level."""
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < level else (lo, mid)
    return hi


def _pad(u, omega) -> np.ndarray:
    """Move u along the kernel of u -> (sum u, sum u w) until sum |u| = 1."""
    if np.abs(u).sum() >= 1.0 - 1e-12:  # a rounding deficit; at c0 = 1 u must stay real
        return u
    v = np.linalg.svd(np.stack([np.ones(4), omega]))[2][-1].conj()
    t = _reach(lambda t: np.abs(u + t * v).sum(), 1.0, (1.0 + np.abs(u).sum()) / np.abs(v).sum())
    return u + t * v


def _bracket(lam, c0: float, direction: Direction) -> tuple[np.ndarray, float]:
    """An explicit feasible u at the extremum and the certified bound."""
    omega = np.exp(2j * lam)
    if c0 >= 1.0:  # D(1) is the hull of the w_j
        if direction is Direction.MAX:
            return np.eye(4, dtype=complex)[0], 1.0
        mu = _nearest_weights(omega[None], _SEGMENTS_4, _TRIANGLES_4)[0]
        return mu.astype(complex), max(abs(mu @ omega) - 8.0 * _EPS, 0.0)
    theta = np.linspace(0.0, _TWO_PI, _START_DIRECTIONS, endpoint=False)
    h, _, u = _support(lam, c0, theta)
    if direction is Direction.MAX:  # rotating the c0 = 0 minimiser z0 with the points bounds h
        h0, z0, _ = _support(lam, 0.0, np.zeros(1))
        cap = min(1.0, float(h0[0] + c0 * abs(z0[0])) + 8.0 * _EPS)
    for rnd in range(_MAX_ROUNDS + 1):
        gaps = np.diff(theta, append=theta[0] + _TWO_PI)
        if direction is Direction.MAX:
            gap_bound = np.minimum(np.maximum(h, np.roll(h, -1)) / np.cos(0.5 * gaps), cap)
            bound = float(gap_bound.max())
            wide = gap_bound > h.max() + 0.1 * _TOL
        else:
            bound = max(float((-h).max()), 0.0)
            wide = _gap_min_bound(theta, gaps, u @ omega) > bound + 0.1 * _TOL
        if rnd == _MAX_ROUNDS or not wide.any() or theta.size + wide.sum() > _MAX_DIRECTIONS:
            break
        new = theta[wide] + 0.5 * gaps[wide]
        h_new, _, u_new = _support(lam, c0, new)
        order = np.argsort(np.concatenate([theta, new]), kind="stable")
        theta, h, u = (np.concatenate(pair)[order] for pair in ((theta, new), (h, h_new), (u, u_new)))
    if direction is Direction.MAX:
        return u[h.argmax()], bound
    # The point nearest 0 of the support points' hull (in D): edges, fan triangles, diagonals.
    k = np.arange(len(theta))
    segments = np.concatenate([np.stack([k, np.roll(k, -1)]), np.stack([0 * k, k])], axis=1)
    triangles = np.stack([0 * k[1:-1], k[1:-1], k[2:]])
    mu = _nearest_weights((u @ omega)[None], segments, triangles)[0]
    return _pad(mu @ u, omega), bound


def _result(alpha, c0: float, u, bound: float) -> OracleResult:
    """Snap b = sqrt(u) onto the constraint and measure its final concurrence."""
    b = np.sqrt(u)
    snapped = rescale_to_concurrence(b, c0)
    state = from_magic_coefficients(b if snapped is None else snapped)
    value = concurrence(canonical_gate(alpha) @ state)
    violation = abs(concurrence(state) - c0)
    converged = abs(value - bound) <= _TOL and violation <= _TOL
    return OracleResult(value, state, float(violation), bool(converged), int(converged), float(bound))


def _require_unit_interval(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:  # also rejects NaN
        raise ValueError(f"{what} concurrence must be in [0, 1], got {value}")


def extremal_concurrence(
    alpha, c0: float, direction: Direction, cfg: OptimizerConfig | None = None
) -> OracleResult:
    """Bracket the extremal final concurrence over states of concurrence c0.

    Independent of the closed forms: the value is the final concurrence of
    an explicitly constructed feasible state, so it can undershoot a true
    maximum but never exceed it (and vice versa for minima); ``bound``
    bounds the extremum from the other side.  ``cfg`` is ignored.
    """
    _require_unit_interval(c0, "initial")
    u, bound = _bracket(eigen_phases(alpha), float(c0), direction)
    return _result(alpha, c0, u, bound)


def reach_target(alpha, c0: float, target: float, cfg: OptimizerConfig | None = None) -> OracleResult:
    """Search for a feasible state whose final concurrence is ``target``.

    Bisects along the segment between the minimising and maximising u,
    exercising the claim that every value between the extremal
    concurrences is attainable.  ``cfg`` is ignored.
    """
    _require_unit_interval(c0, "initial")
    _require_unit_interval(target, "target")
    lam = eigen_phases(alpha)
    omega = np.exp(2j * lam)
    lo_u = _bracket(lam, float(c0), Direction.MIN)[0]
    hi_u = _bracket(lam, float(c0), Direction.MAX)[0]
    # |F| is convex along the segment.
    s = _reach(lambda s: abs(((1.0 - s) * lo_u + s * hi_u) @ omega), target, 1.0)
    return _result(alpha, c0, _pad((1.0 - s) * lo_u + s * hi_u, omega), target)


def envelope_scan(alpha, c0_grid, cfg: OptimizerConfig | None = None) -> list[EnvelopeRow]:
    """Oracle [min, max] envelope over a grid of initial concurrences.

    Each row additionally checks 1000 random fixed-c0 states: their final
    concurrences must land inside the oracle envelope widened by 1e-6.
    """
    gate = canonical_gate(alpha)
    rows = []
    for c0 in c0_grid:
        lo = extremal_concurrence(alpha, c0, Direction.MIN)
        hi = extremal_concurrence(alpha, c0, Direction.MAX)
        states = (sample_state_with_concurrence(c0, 10_000_019 + i) for i in range(1000))
        outs = [concurrence(gate @ state) for state in states]
        inside = lo.extremal_concurrence - 1e-6 <= min(outs) and max(outs) <= hi.extremal_concurrence + 1e-6
        rows.append(
            EnvelopeRow(
                c0=float(c0),
                oracle_min=lo.extremal_concurrence,
                oracle_max=hi.extremal_concurrence,
                min_converged=lo.converged,
                max_converged=hi.converged,
                samples_inside=inside,
            )
        )
    return rows


def verify_profile(alpha, c0_grid, cfg: OptimizerConfig | None = None, tol: float = 1e-3) -> ProfileReport:
    """Compare closed-form intervals against the oracle over a c0 grid.

    A row passes when both oracle extrema agree with the closed forms
    within ``tol`` and both brackets converged; failures are recorded in
    the report, never raised.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    alpha = np.asarray(alpha, dtype=float)
    rows = []
    for c0 in c0_grid:
        closed = power_interval(alpha, c0)
        lo = extremal_concurrence(alpha, c0, Direction.MIN, cfg)
        hi = extremal_concurrence(alpha, c0, Direction.MAX, cfg)
        dev_min = abs(closed.c_min - lo.extremal_concurrence)
        dev_max = abs(closed.c_max - hi.extremal_concurrence)
        converged = lo.converged and hi.converged
        passed = converged and dev_min <= tol and dev_max <= tol
        rows.append(
            ProfileRow(
                c0=float(c0),
                closed_min=closed.c_min,
                closed_max=closed.c_max,
                oracle_min=lo.extremal_concurrence,
                oracle_max=hi.extremal_concurrence,
                deviation_min=dev_min,
                deviation_max=dev_max,
                converged=converged,
                passed=passed,
            )
        )
    return ProfileReport(alpha=alpha, tol=tol, rows=rows)
