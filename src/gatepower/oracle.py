"""Independent numerical verification of the closed-form power results.

Brackets the extremal final concurrences without any closed-form result.
With magic coefficients b, u_j = b_j^2 and w_j = exp(2i l_j), the states
of concurrence c0 are the u with sum |u_j| = 1 and sum u_j = c0 (after a
global phase); their final amplitudes F = sum u_j w_j fill a convex set
D(c0) with support function, by Lagrange duality,

    h(theta) = min_z [c0 Re z + max_j |exp(-i theta) w_j - z|].

Sampled support values bound max |F| from above and min |F| from below, and so does
each sampled dual minimiser z, rotated with the points, at every direction; explicit states
from the dual active sets bound them from the other side.  An open side samples its best
line's optimum (a Newton step on h' = c0 Im z), then splits gaps, also at the roots of h'.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .canonical import _three_floats, canonical_gate, eigen_phases
from .power import _BOUNDARY_SLACK, power_profile
from .states import _concurrence, concurrence, from_magic_coefficients

__all__ = [
    "Direction",
    "OptimizerConfig",
    "OracleResult",
    "ProfileRow",
    "ProfileReport",
    "extremal_concurrence",
    "reach_target",
    "verify_profile",
]

# Converged: the bracket and the state's constraint violation are at most _TOL.
_TOL = 1e-8
_START_DIRECTIONS = 16
_MAX_ROUNDS = 40
_MAX_DIRECTIONS = 8192
# Dual distances within this of the largest one count as active.
_ACTIVE_ATOL = 1e-11
_EPS = float(np.finfo(float).eps)
_TWO_PI = 2.0 * math.pi
# Every search opens on these directions.
_OPENING_THETA = np.linspace(0.0, _TWO_PI, _START_DIRECTIONS, endpoint=False)
_OPENING_THETA.flags.writeable = False
# The minimiser of h is the origin (the circumcentre of any three w_j), a
# point w_j, or the optimum on the bisector of one of these pairs.
_PAIRS = np.array(list(itertools.combinations(range(4), 2))).T


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
    ``achiever``, reported as the bracket built it; ``constraint_violation``
    is that state's distance from the initial concurrence, ||sum b^2| - c0|,
    rounding only: every state is made feasible before it is measured.
    ``bound`` is the certified value on the other side (the target for
    :func:`reach_target`).  ``starts_agreeing`` is 1 if converged.
    """

    extremal_concurrence: float
    achiever: np.ndarray
    constraint_violation: float
    converged: bool
    starts_agreeing: int
    bound: float


@dataclass(frozen=True)
class ProfileRow:
    """Closed forms against the oracle at one c0.  ``oracle_*`` are the
    values of explicit states and ``bound_*`` the certified bounds on the
    other side, so MIN's bracket is [bound_min, oracle_min] and MAX's
    [oracle_max, bound_max]."""

    c0: float
    closed_min: float
    closed_max: float
    oracle_min: float
    oracle_max: float
    bound_min: float
    bound_max: float
    deviation_min: float
    deviation_max: float
    converged: bool
    passed: bool


def _failed_checks(row: ProfileRow, tol: float) -> tuple[bool, bool, bool]:
    """Whether ``row`` fails each check of :func:`verify_profile`: convergence,
    the certified brackets and the deviation ``tol``."""
    m = _BOUNDARY_SLACK  # rounding margin of the closed forms and the bounds
    inside = (row.bound_min - m <= row.closed_min <= row.oracle_min + m
              and row.oracle_max - m <= row.closed_max <= row.bound_max + m)
    return not row.converged, not inside, not (row.deviation_min <= tol and row.deviation_max <= tol)


@dataclass(frozen=True)
class ProfileReport:
    """Rows of :func:`verify_profile` and their verdict.

    ``failures`` names each failed check once, counted over the rows, in
    this order: "N of M rows not converged", "N of M rows outside the
    certified bracket", "max deviation X > tol".  ``passed`` is true when
    there are none.
    """

    alpha: np.ndarray
    tol: float
    rows: list[ProfileRow] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        failed = [_failed_checks(r, self.tol) for r in self.rows]
        unconverged, outside, deviating = (sum(f[k] for f in failed) for k in range(3))
        causes = [f"{k} of {len(failed)} rows {what}" for k, what in
                  ((unconverged, "not converged"), (outside, "outside the certified bracket")) if k]
        if deviating:
            worst = max(max(r.deviation_min, r.deviation_max) for r in self.rows)
            # The shortest digits that read back as tol itself.
            causes.append(f"max deviation {worst:.3e} > {np.format_float_scientific(self.tol, trim='-')}")
        return causes

    @property
    def passed(self) -> bool:
        return not self.failures


def _segment_t(a, e) -> np.ndarray:
    """Clipped parameter t in [0, 1] of the point a + t e nearest to the origin."""
    ee = (e.conj() * e).real
    return np.divide(-(a.conj() * e).real, ee, out=np.zeros(ee.shape), where=ee > 0).clip(0.0, 1.0)


def _hull(segments, triangles) -> tuple:
    """Read-only index tables of :func:`_nearest_weights` for a hull searched
    over the given segments (2, s) and triangles (3, t) of point indices."""
    tables = (segments[0], segments[1], triangles[[1, 2, 0]], triangles[[2, 0, 1]],
              np.concatenate([np.stack([*segments, segments[1]]), triangles], axis=1))
    for table in tables:
        table.flags.writeable = False
    return tables


# Every point of the hull of four planar points lies on one of these
# segments (a repeated index is a single point) or in one of these triangles.
_HULL_4 = _hull(np.array(list(itertools.combinations_with_replacement(range(4), 2))).T,
                np.array(list(itertools.combinations(range(4), 3))).T)


@functools.lru_cache(maxsize=8)
def _fan(n: int) -> tuple:
    """Hull tables of n points in angular order: edges, diagonals and fan
    triangles from point 0."""
    k = np.arange(n)
    segments = np.concatenate([np.stack([k, _rolled(k)]), np.stack([0 * k, k])], axis=1)
    return _hull(segments, np.stack([0 * k[1:-1], k[1:-1], k[2:]]))


def _nearest_weights(p, hull, valid=None) -> np.ndarray:
    """Convex weights of the point of each row's hull nearest to the origin.

    ``p`` is (m, n), the point axis first; the hull of a row is searched
    over the pieces of the tables ``hull`` from :func:`_hull`, leaving out
    the points where ``valid`` is False.  Returns (m, n) weights.
    """
    first, second, by_one, by_two, index = hull
    # Pieces keep the row axis last, (3, pieces, n): reductions over their points add planes.
    s, n = first.size, p.shape[1]
    weights = np.zeros((3, index.shape[1], n))
    t = _segment_t(p[first], p[second] - p[first])
    weights[0, :s], weights[1, :s] = 1.0 - t, t
    # Barycentric weights, up to the area: Im(conj(p_k) p_l) opposite each vertex.
    bary = (p[by_one].conj() * p[by_two]).imag
    area = bary.sum(axis=0)
    # Signs, not products: bary * area can underflow to -0.0 and pass as inside.
    inside = (area != 0) & (bary * np.sign(area) >= 0).all(axis=0)
    np.divide(bary, area, out=weights[:, s:], where=inside)
    dist = np.abs((weights * p[index]).sum(axis=0))
    ok = np.ones(dist.shape, dtype=bool)
    ok[s:] = inside
    if valid is not None:
        ok &= valid[index].all(axis=0)
    best = np.where(ok, dist, np.inf).argmin(axis=0)
    rows = np.arange(n)
    out = np.zeros(p.shape)
    np.add.at(out, (index[:, best], rows), weights[:, best, rows])
    return out


def _support(lam, c0: float, theta):
    """Certified support values h(theta) of D(c0) and their dual data: the
    minimisers z, the points w_j and the distances |w_j - z|, (4, rows)
    with the point axis first."""
    psi = 2.0 * lam[:, None] - theta
    w = np.exp(1j * psi)
    first, second = psi[_PAIRS[0]], psi[_PAIRS[1]]
    half, diff = 0.5 * (first + second), 0.5 * (first - second)
    # On the bisector z = t exp(i half), |z - w_j|^2 = (t - a)^2 + b^2.
    a, b, s = np.cos(diff), np.abs(np.sin(diff)), c0 * np.cos(half)
    # Only c0 within 1e-8 of 1 reaches |t| > 1e4 (|t| <= 1 + c0 / sqrt(1 - c0^2)).
    # There 1 - s * s cancels, so it takes 1 -/+ s from half-angle squares.
    near = c0 > 1.0 - 1e-8
    if near:
        ends = [(1.0 - c0) + 2.0 * c0 * np.square(f(0.5 * half)) for f in (np.sin, np.cos)]
    t = a - s * b / np.sqrt(ends[0] * ends[1] if near else 1.0 - s * s)
    cand = np.concatenate([np.zeros((1, theta.size)), w, t * np.exp(1j * half)])
    # Distances (4, 11, rows): the max over the points reduces contiguous planes.
    dist = np.abs(w[:, None] - cand)
    # Any z bounds h from above; a margin covers rounding in evaluating g
    # (8 eps (1 + |z|), or 8 eps (2 + lead) held in g when near).
    g = c0 * cand.real + dist.max(axis=0)
    if near:
        # g = lead + max_j (|w_j - z| - |z|), lead = c0 Re z + |z| = |t| (1 -/+ s) on bisectors.
        size = np.abs(cand)
        lead = c0 * cand.real + size
        lead[5:] = np.abs(t) * np.where(t < 0, *ends)
        excess = (1.0 - 2.0 * (w.conj()[:, None] * cand).real) / (dist + size)
        g = lead + excess.max(axis=0) + 8.0 * _EPS * (2.0 + lead)
    best = g.argmin(axis=0)
    rows = np.arange(theta.size)
    z = cand[best, rows]
    h = g[best, rows] if near else g[best, rows] + 8.0 * _EPS * (1.0 + np.abs(z))
    return h, z, w, dist[:, best, rows]


def _rolled(x) -> np.ndarray:
    """np.roll(x, -1) without its Python-level wrapper."""
    return np.concatenate((x[1:], x[:1]))


def _primal(w, z, r, c0):
    """Feasible u (sum |u| = 1, sum u = c0), (4, rows), attaining the
    support values of the dual data (w, z, r) from :func:`_support`."""
    # Optimality of z puts c0 in the hull of the unit vectors from z to the
    # active points; the hull weights mu give u_j = mu_j conj(unit_j).  The
    # excesses r_j - |z| compare them without cancelling |z| ~ 1 / sqrt(1 - c0^2).
    excess = ((w - 2.0 * z) * w.conj()).real / (r + np.abs(z))
    active = excess >= excess.max(axis=0) - _ACTIVE_ATOL
    units = np.divide(w - z, r, out=np.ones(w.shape, complex), where=r > _ACTIVE_ATOL)
    # When every point sits at z, any unit vectors are subgradients.
    units[:, r.max(axis=0) <= _ACTIVE_ATOL] = [[1.0], [-1.0], [1.0], [-1.0]]
    return _nearest_weights(units - c0, _HULL_4, active) * units.conj()


def _gap_min_bound(theta, gaps, f) -> np.ndarray:
    """Upper bound of -h over each gap from the support points at its ends.

    Across a gap h is at least the support function of the segment between
    the two support points; the largest value of minus that function lies
    at an end, at the segment's normal, or opposite one of the points.
    """
    p, q = f, _rolled(f)
    # np.angle without its wrapper; 1j (p - q) is not -(1j (q - p)), whose signed zeros differ.
    toward = [1j * (q - p), 1j * (p - q), -p, -q]
    cand = np.array([theta, theta + gaps, *(np.arctan2(x.imag, x.real) for x in toward)])
    rot = np.exp(-1j * cand)
    value = -np.maximum((rot * p).real, (rot * q).real)
    inside = (cand - theta) % _TWO_PI <= gaps
    return np.where(inside, value, -np.inf).max(axis=0)


def _gap_max_bound(gaps, h, z, c0: float) -> np.ndarray:
    """Upper bound of h over each gap from the rotated duals at its ends.

    Rotated with the points, the minimiser z_k is feasible at theta_k + d for every d, so h <=
    h_k + c0 (Re(exp(-i d) z_k) - Re z_k).  Over the gap Re(exp(-i d) z_k) peaks at |z_k| where
    arg z_k falls inside it, else at an end; 8 eps (1 + c0 |z_k|) covers rounding that term and a
    sum below 1.  The far end reads exp(-i d) z_k with d <= 0 as its conjugate.
    """
    turn, lines = np.exp(-1j * gaps), []
    for hk, zk in ((h, z), (_rolled(h), _rolled(z).conj())):
        size = np.abs(zk)
        inside = np.arctan2(zk.imag, zk.real) % _TWO_PI <= gaps
        peak = np.where(inside, size, np.maximum(zk.real, (turn * zk).real))
        lines.append(hk + c0 * (peak - zk.real) + 8.0 * _EPS * (1.0 + c0 * size))
    return np.minimum(*lines)


def _kernel(omega) -> list:
    """v: sum v = sum v w = 0 (w = omega), |v_j| <= 1 via the widest pair; (1, -1, 0, 0) if all w coincide."""
    w = omega.tolist()
    i, j = max(itertools.combinations(range(4), 2), key=lambda p: abs(w[p[0]] - w[p[1]]))
    if w[i] == w[j]:
        return [1.0, -1.0, 0.0, 0.0]
    v, k, d = [0.0] * 4, min({0, 1, 2, 3} - {i, j}), w[j] - w[i]
    v[k], v[i], v[j] = 1.0, (w[k] - w[j]) / d, (w[i] - w[k]) / d
    return v


def _pad(u, omega) -> np.ndarray:
    """Move u along :func:`_kernel` until sum |u| = 1, on Python floats."""
    size = math.fsum(map(abs, a := u.tolist()))
    if size >= 1.0 - 1e-12:  # a rounding deficit; at c0 = 1 u must stay real
        return u
    v = _kernel(omega)
    # f(t) = sum |u + t v| is convex, f(0) < 1 <= f(t): Newton steps from the right fall onto its root.
    t = (1.0 + size) / math.fsum(map(abs, v))
    for _ in range(60):
        x = [p + t * q for p, q in zip(a, v)]
        r = list(map(abs, x))
        slope = math.fsum((c.conjugate() * q).real / m for c, q, m in zip(x, v, r) if m > 0)
        step = (math.fsum(r) - 1.0) / slope
        if not t - step < t:
            break
        t -= step
    return np.array([p + t * q for p, q in zip(a, v)])


def _feasible(u, omega, c0: float) -> np.ndarray:
    """u made a state of concurrence c0: sum |u| = 1 and sum u = c0, in one pass.  Sum u misses c0 where
    clustered w_j cost _primal's units their digits, or where z ties between a point and a bisector
    (alpha = (0, 7.07e-7, 7.07e-7), c0 = 0: z = w_1 against that of (w_0, w_3), units missing by 1.4e-6).
    A miss above 1e-13 is spread by |u| (evenly where u = 0, whose hull weights can cancel MIN's states
    exactly), a sum |u| above 1 is mixed toward c0 |u| / sum |u|, then _pad."""
    if abs(miss := c0 - u.sum()) > 1e-13:
        u = u + miss * (np.abs(u) / total if (total := np.abs(u).sum()) else 0.25)
        if (size := np.abs(u).sum()) > 1.0:
            u += (size - 1.0) / (size - c0) * (c0 * np.abs(u) / size - u)
    return _pad(u, omega)


@functools.lru_cache(maxsize=1)
def _brackets(lam_bytes: bytes, c0_hex: str) -> tuple:
    """MIN's and MAX's explicit u (read-only), each made feasible by :func:`_feasible`,
    and certified bounds, ((u_min, bound_min), (u_max, bound_max)), from one set of directions.

    Every bound is a support value or a rotated dual line, each of which holds for any unit
    direction however it was rounded.  Below c0 = 1 each row's line caps MAX at its peak and floors MIN
    at its trough, and an open side adds its best row's peak or trough direction.  A side open after
    that Newton step, or MIN while its hull misses 0 at bound 0, splits its wide gaps into equal pieces
    plus the secant root of h' = c0 Im z (MAX's gaps read :func:`_gap_max_bound`).  MIN reads every
    support point's primal state until it closes on the state it returns; MAX builds its direction's.
    D(1) is the hull of the w_j, whose point nearest 0 is a vertex or on an edge, so MIN's bound there
    is the best support value over the w_j and both normals of each pair.  Keyed by exact bytes."""
    lam, c0 = np.frombuffer(lam_bytes), float.fromhex(c0_hex)
    omega = np.exp(2j * lam)
    if c0 >= 1.0:
        edges = 1j * (omega[_PAIRS[1]] - omega[_PAIRS[0]])
        d = np.concatenate((omega, edges, -edges))
        d = d[d != 0]  # coincident w_j have no edge
        d /= np.abs(d)
        support = (d.conj()[:, None] * omega).real.min(axis=1).max()
        mu = _nearest_weights(omega[:, None], _HULL_4)[:, 0]
        lo = _feasible(mu.astype(complex), omega, c0), max(float(support) - 8.0 * _EPS, 0.0)
        hi = _feasible(np.eye(4, dtype=complex)[0], omega, c0), 1.0
        lo[0].flags.writeable = hi[0].flags.writeable = False
        return lo, hi
    theta = _OPENING_THETA
    h, z, w, r = _support(lam, c0, theta)
    # States stay rows, C-contiguous: BLAS sums u @ omega and mu @ u in another order on other layouts.
    u = _primal(w, z, r, c0).T.copy()
    lo = None  # MIN's feasible state and bound, once closed
    for rnd in range(_MAX_ROUNDS + 1):
        gaps = np.concatenate((theta[1:], [theta[0] + _TWO_PI])) - theta
        # Each row's rotated dual bounds h at every direction (see _gap_max_bound): its peak, where
        # exp(-i d) z_k = |z_k|, caps MAX, and its trough, where it is -|z_k|, floors MIN.
        lift, margin = c0 * np.abs(z), 8.0 * _EPS * (1.0 + c0 * np.abs(z))
        k, top = int((caps := h + (lift - c0 * z.real) + margin).argmin()), h.max() + 0.1 * _TOL
        hi_bound, wide = min(1.0, float(caps[k])), np.zeros(theta.size, dtype=bool)
        if hi_bound > top and rnd:  # open after a Newton step: across a gap h lies below the cap,
            # the tangents at its ends and the rotated duals of its ends.
            polygon = np.minimum(np.maximum(h, _rolled(h)) / np.cos(0.5 * gaps), hi_bound)
            gap_bound = np.minimum(polygon, _gap_max_bound(gaps, h, z, c0))
            wide, hi_bound = gap_bound > top, float(gap_bound.max())
        # Newton steps: an open side samples the optimum of its best row's line.
        new = [(theta[k] + math.atan2(z[k].imag, z[k].real)) % _TWO_PI] if hi_bound > top else []
        if lo is None:
            j = int((floors := (lift + c0 * z.real) - h - margin).argmax())
            bound, f = max(float((-h).max()), float(floors[j]), 0.0), u @ omega
            mu = _nearest_weights(f[:, None], _fan(theta.size))[:, 0]
            # MIN closes on the state it returns, at bound 0 once the hull of its support points holds 0,
            # or once no gap can bring that hull nearer 0 (at bound 0 there is no Newton step).
            state = _feasible(mu @ u, omega, c0) if abs(mu @ f) <= bound + 0.1 * _TOL else mu @ u
            if not (closed := abs(state @ omega) <= bound + 0.1 * _TOL) and (rnd or not bound):
                deep = _gap_min_bound(theta, gaps, f) > bound + 0.1 * _TOL
                closed, wide = not deep.any(), wide | deep
            if closed:
                lo = _feasible(state, omega, c0), bound
            elif bound:
                new.append((theta[j] + math.atan2(-z[j].imag, -z[j].real)) % _TWO_PI)
        n_wide = int(wide.sum())
        if rnd == _MAX_ROUNDS or not (n_wide or new):
            break
        # Cut each wide gap into equal pieces, a round adding at most max(255, n_wide) of them, and
        # where h' = c0 Im z changes sign add the secant root of h' (the envelope theorem on the dual).
        pieces = min(16, max(2, 256 // max(n_wide, 1)))
        slope = c0 * z.imag
        turns = wide & (np.sign(slope) * np.sign(_rolled(slope)) < 0)
        first, second = slope[turns], _rolled(slope)[turns]
        roots = theta[turns] + gaps[turns] * (first / (first - second))
        if theta.size + len(new) + (pieces - 1) * n_wide + roots.size > _MAX_DIRECTIONS:
            break
        cuts = (theta[wide, None] + gaps[wide, None] * (np.arange(1, pieces) / pieces)).ravel()
        new = np.concatenate((new, cuts, roots))
        h_new, z_new, w_new, r_new = _support(lam, c0, new)
        order = np.concatenate([theta, new]).argsort(kind="stable")
        if lo is None:  # only MIN reads every row's state
            u = np.concatenate((u, _primal(w_new, z_new, r_new, c0).T))[order]
        theta, h, z = (np.concatenate(p)[order] for p in ((theta, new), (h, h_new), (z, z_new)))
        w, r = (np.concatenate(p, axis=1)[:, order] for p in ((w, w_new), (r, r_new)))
    lo = lo or (_feasible(state, omega, c0), bound)  # unclosed: the point nearest 0
    # MAX's state: that of its direction, built from the row's dual data as a batch builds it, unless MIN read it.
    k = h.argmax()
    u_hi = u[k].copy() if len(u) == theta.size else _primal(w[:, k, None], z[k, None], r[:, k, None], c0).ravel()
    hi = _feasible(u_hi, omega, c0), hi_bound
    lo[0].flags.writeable = hi[0].flags.writeable = False
    return lo, hi


def _result(alpha, c0: float, u, bound: float) -> OracleResult:
    """Measure the state with magic coefficients b = sqrt(u) as built: its
    final concurrence and its distance from the constraint |sum b^2| = c0."""
    state = from_magic_coefficients(np.sqrt(u))
    value = concurrence(canonical_gate(alpha) @ state)
    violation = abs(concurrence(state) - c0)
    converged = abs(value - bound) <= _TOL and violation <= _TOL
    return OracleResult(value, state, float(violation), bool(converged), int(converged), float(bound))


def extremal_concurrence(
    alpha, c0: float, direction: Direction, cfg: OptimizerConfig | None = None
) -> OracleResult:
    """Bracket the extremal final concurrence over states of concurrence c0.

    Independent of the closed forms: the value is the final concurrence of
    an explicitly constructed state, measured as built (it misses c0 by its
    ``constraint_violation``, rounding only), so it can undershoot a true
    maximum but never exceed it (and vice versa for minima); ``bound``
    bounds the extremum from the other side.  ``cfg`` is ignored.

    Raises:
        TypeError: if ``direction`` is not a :class:`Direction` member.
        ValueError: if ``alpha`` is not three finite real coordinates with
            |a_j| <= 1e3, or ``c0`` lies outside [0, 1] by more than 1e-12.
    """
    if not isinstance(direction, Direction):
        raise TypeError(f"direction must be a Direction member, got {direction!r}")
    c0 = _concurrence(c0)
    lo, hi = _brackets(eigen_phases(alpha).tobytes(), c0.hex())
    return _result(alpha, c0, *(hi if direction is Direction.MAX else lo))


def reach_target(alpha, c0: float, target: float) -> OracleResult:
    """Search for a feasible state whose final concurrence is ``target``.

    Moves along the segment between the minimising and maximising u to
    where |F| crosses ``target``, exercising the claim that every value
    between the extremal concurrences is attainable.  Both states come
    from one bracket pair, the MIN and MAX results of one set of
    directions; the latest (gate, c0) pair stays in memory, read-only.
    """
    c0, target = _concurrence(c0), _concurrence(target, "target")
    lam = eigen_phases(alpha)
    omega = np.exp(2j * lam)
    (lo_u, _), (hi_u, _) = _brackets(lam.tobytes(), c0.hex())
    # |F(s)| = |a + s d| is convex; its crossing is the larger root of
    # |d|^2 s^2 + 2 Re(conj(a) d) s + |a|^2 - target^2, taken without cancellation.
    a, d = lo_u @ omega, (hi_u - lo_u) @ omega
    if abs(a) >= target:
        s = 0.0
    elif abs(a + d) <= target:
        s = 1.0
    else:
        p, q, r = (a.conjugate() * d).real, (abs(a) - target) * (abs(a) + target), abs(d) ** 2
        root = math.sqrt(p * p - r * q)
        s = (root - p) / r if p < 0 else -q / (p + root)
    return _result(alpha, c0, _feasible((1.0 - s) * lo_u + s * hi_u, omega, c0), target)


def verify_profile(alpha, c0_grid, cfg: OptimizerConfig | None = None, tol: float = 1e-3) -> ProfileReport:
    """Compare closed-form intervals against the oracle over a c0 grid.

    A row passes when both brackets converged, both closed forms lie inside
    their certified brackets, ``bound_min - 1e-12 <= closed_min <=
    oracle_min + 1e-12`` and ``oracle_max - 1e-12 <= closed_max <= bound_max
    + 1e-12``, and both deviations |closed - oracle| are at most ``tol``.
    A converged bracket is at most 1e-8 wide, so a converged row whose
    closed forms lie inside their brackets deviates by at most 1e-8 + 1e-12
    (up to rounding): a ``tol`` at or above that bound never fails a row on
    its own, and a smaller ``tol`` can fail a correct closed form.
    Failures are recorded in the report and named by its ``failures``,
    never raised.  An empty grid raises ``ValueError``.  The oracle's states
    have concurrence c0 to rounding, also where the eigenphases nearly
    coincide (gates near the identity or SWAP classes).  The closed forms
    come from ``power_profile``, which takes theta once per gate.  The
    MIN and MAX searches at one c0 read one bracket pair, built from one
    set of directions: the first search builds it and the second reads the
    memo, which holds the latest (gate, c0) pair, read-only.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    alpha = np.array(_three_floats(alpha))
    c0_grid = list(c0_grid)
    rows = []
    for c0, closed in zip(c0_grid, power_profile(alpha, c0_grid)):
        lo = extremal_concurrence(alpha, c0, Direction.MIN, cfg)
        hi = extremal_concurrence(alpha, c0, Direction.MAX, cfg)
        row = ProfileRow(
            c0=float(c0),
            closed_min=closed.c_min,
            closed_max=closed.c_max,
            oracle_min=lo.extremal_concurrence,
            oracle_max=hi.extremal_concurrence,
            bound_min=lo.bound,
            bound_max=hi.bound,
            deviation_min=abs(closed.c_min - lo.extremal_concurrence),
            deviation_max=abs(closed.c_max - hi.extremal_concurrence),
            converged=lo.converged and hi.converged,
            passed=False,
        )
        rows.append(replace(row, passed=not any(_failed_checks(row, tol))))
    if not rows:
        raise ValueError("c0 grid must not be empty")
    return ProfileReport(alpha=alpha, tol=tol, rows=rows)
