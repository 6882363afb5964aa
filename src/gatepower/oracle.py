"""Independent numerical verification of the closed-form power results.

Brackets the extremal final concurrences without any closed-form result.
With magic coefficients b, u_j = b_j^2 and w_j = exp(2i l_j), the states
of concurrence c0 are the u with sum |u_j| = 1 and sum u_j = c0 (after a
global phase); their final amplitudes F = sum u_j w_j fill a convex set
D(c0) with support function, by Lagrange duality,

    h(theta) = min_z [c0 Re z + max_j |exp(-i theta) w_j - z|].

Sampled support values bound max |F| from above and min |F| from below, and so does
each sampled dual minimiser z, rotated with the points, at every direction; explicit states
from the dual active sets bound them from the other side.  Each bracket is one pass over the
spectrum's own directions, with MAX's clamped end (C_max = 1) built outright; nothing refines.
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
# Dual distances within this of the largest one count as active.
_ACTIVE_ATOL = 1e-11
_EPS = float(np.finfo(float).eps)
_TWO_PI = 2.0 * math.pi
# The minimiser of h is the origin (the circumcentre of any three w_j), a point w_j, or the optimum on the
# bisector of a pair.  Each is a frame (a, b), read along exp(i (l_a + l_b - theta)): the origin in (0, 0)
# at t = 0, each w_m as the pair (m, m), whose optimum is t = 1, and the six pairs.
_FRAMES = np.array([(0, 0), *((m, m) for m in range(4)), *itertools.combinations(range(4), 2)]).T
_PAIRS = _FRAMES[:, 5:]
# A search below c0 = 1 opens on (_OPENING @ l + _SHIFT) mod 2 pi: the quadrants, the points' directions
# 2 l_j and both ends of each pair's bisector l_j + l_k, along which the optima off 0 and 1 lie.
_OPENING = np.concatenate([np.zeros((4, 4)), 2.0 * np.eye(4), *2 * [np.eye(4)[_PAIRS].sum(axis=0)]])
_SHIFT = np.concatenate([0.5 * math.pi * np.arange(4), np.zeros(10), np.full(6, math.pi)])
_FRAMES.flags.writeable = _OPENING.flags.writeable = _SHIFT.flags.writeable = False


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
    segments = np.concatenate([np.stack([k, np.roll(k, -1)]), np.stack([0 * k, k])], axis=1)
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
    """Certified support values h(theta) of D(c0), their dual minimisers z, and at each z the unit
    vectors (w_j - z) / |w_j - z| and excesses |w_j - z| - |z|, (4, rows) with the point axis first.

    In the frame (a, b) the points are exp(i (l_a + l_b - theta)) exp(i e_j), e_j = 2 l_j - l_a - l_b,
    and z = t exp(i (l_a + l_b - theta)), so w_j - z is that unit turn times (cos e_j - cos d) +
    (cos d - t) + i sin e_j, d = l_a - l_b: gate constants from the eigenphase differences, with
    cos e_j - cos d = -2 sin(l_j - l_a) sin(l_j - l_b) and e_j summed as (l_j - l_a) + (l_j - l_b), plus
    the real shift cos d - t.  No row subtracts two rounded points, so clustered w_j keep their digits.
    """
    first, second = lam[_FRAMES]
    left, right = lam[:, None] - first, lam[:, None] - second
    sin_l, sin_r, sin_e = np.sin((left, right, left + right))
    gap, pair = -2.0 * sin_l * sin_r, np.exp(1j * (first - second))
    # Half the frames' turns, and 1 -/+ c0 cos(turn) from half-angle squares, which do not cancel near c0 = 1.
    half = 0.5 * ((first + second)[:, None] - theta)
    minus, plus = (1.0 - c0) + (2.0 * c0) * np.square((np.sin(half), np.cos(half)))
    # c0 Re z + |w_a - z| is least at cos d - t = c0 cos(turn) |sin d| / sqrt(1 - c0^2 cos^2(turn));
    # the origin's frame shifts by cos 0 - 0 = 1.
    shift = (plus - minus) * (0.5 * np.abs(pair.imag))[:, None] / np.sqrt(minus * plus)
    shift[0] = 1.0
    t = pair.real[:, None] - shift
    size = np.abs(t)
    across = gap[..., None] + shift
    dist = np.sqrt(across * across + np.square(sin_e)[..., None])
    # g = lead + max_j excess, lead = c0 Re z + |z| = |t| (1 -/+ c0 cos(turn)).
    excess = (1.0 - t * (2.0 * (gap + pair.real))[..., None]) / (dist + size)
    lead = size * np.where(t < 0, minus, plus)
    g = lead + excess.max(axis=0)
    # Each row's least g, by its flat index into the (frame, row) plane.
    n = theta.size
    best = g.argmin(axis=0) * n + np.arange(n)
    # Any z bounds h from above; 8 eps (2 + lead) covers rounding in evaluating g.
    h = g.take(best) + 8.0 * _EPS * (2.0 + lead.take(best))
    spin = np.exp(2j * half.take(best))
    r = dist.reshape(4, -1)[:, best]
    # Where a point sits at z any unit vector is a subgradient; alternating ones keep c0 in the hull of
    # those of a row whose points all sit there.
    units = np.ones((4, n), complex)
    units[1::2] = -1.0
    num = (across.reshape(4, -1)[:, best] + 1j * sin_e[:, best // n]) * spin
    np.divide(num, r, out=units, where=r > _ACTIVE_ATOL)
    return h, t.take(best) * spin, units, excess.reshape(4, -1)[:, best]


def _primal(units, excess, c0):
    """Feasible u (sum |u| = 1, sum u = c0), (4, rows), attaining the support values whose unit
    vectors and excesses :func:`_support` returns."""
    # Optimality of z puts c0 in the hull of the unit vectors to the active points, those within
    # _ACTIVE_ATOL of the farthest; the hull weights mu give u_j = mu_j conj(unit_j).
    active = excess >= excess.max(axis=0) - _ACTIVE_ATOL
    return _nearest_weights(units - c0, _HULL_4, active) * units.conj()


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
    z ties with another candidate to rounding and c0 lies just outside the hull of its active units: a
    point against a bisector (alpha = (0, 7.07e-7, 7.07e-7), c0 = 0: z = w_1 against that of (w_0, w_3),
    by 1.4e-6); z = 0 with all four points active, at the ends of an arc where h = 1 (near c0 = 1, by up
    to 1e-9) or where their units' hull is a sliver (near CNOT and sqrt(SWAP), by up to 2e-8); and a
    point or bisector with one active unit within 1e-9 of c0 = 1, where the w_j cluster in pairs or all
    four (near the identity, SWAP and the a1 = a2 = pi/4 edge, by up to 6e-7).  A miss above 1e-13 is
    spread by |u| (evenly where u = 0, whose hull weights can cancel MIN's states exactly), a sum |u|
    above 1 is mixed toward c0 |u| / sum |u|, then _pad."""
    if abs(miss := c0 - u.sum()) > 1e-13:
        u = u + miss * (np.abs(u) / total if (total := np.abs(u).sum()) else 0.25)
        if (size := np.abs(u).sum()) > 1.0:
            u += (size - 1.0) / (size - c0) * (c0 * np.abs(u) / size - u)
    return _pad(u, omega)


def _crossing(a: complex, d: complex, target: float) -> float:
    """The s in [0, 1] where |a + s d|, convex in s, rises through target: 0 if |a| is already
    there, 1 if |a + d| is not, else the larger root of |d|^2 s^2 + 2 Re(conj(a) d) s + |a|^2 -
    target^2, taken without cancellation."""
    if abs(a) >= target:
        return 0.0
    if abs(a + d) <= target:
        return 1.0
    p, q, r = (a.conjugate() * d).real, (abs(a) - target) * (abs(a) + target), abs(d) ** 2
    root = math.sqrt(p * p - r * q)
    return (root - p) / r if p < 0 else -q / (p + root)


def _saturated(mu, omega, c0: float) -> np.ndarray:
    """A state of concurrence c0 with |F| = 1, where mu weighs the point q = mu w of the hull of the w_j
    nearest 0 and |q| <= c0, so C_max(c0) = 1 (at c0 = 0 the perfect-entangler criterion, 0 in the hull).

    From q, walk toward the w_m farthest from it to p with |p| = c0, clamped to the segment; with p's
    convex weights P, u = (p / |p|) P conj(w) has sum |u| = 1, sum u = |p| and F = p / |p|."""
    q = mu @ omega
    m = int(np.abs(omega - q).argmax())
    s = _crossing(q, omega[m] - q, c0)
    weights = (1.0 - s) * mu
    weights[m] += s
    p = weights @ omega
    return _feasible(p / abs(p) * weights * omega.conj(), omega, c0)


@functools.lru_cache(maxsize=1)
def _brackets(lam_bytes: bytes, c0_hex: str) -> tuple:
    """MIN's and MAX's explicit u (read-only), each made feasible by :func:`_feasible`, and certified
    bounds, ((u_min, bound_min), (u_max, bound_max)), from one pass; keyed by exact bytes.

    Every bound is a support value or a rotated dual line, each of which holds at any direction however
    rounded.  Below c0 = 1 one :func:`_support` call samples the opening, whose pair bisectors carry the
    optima off 0 and 1.  Each row's line caps MAX at its peak and floors MIN at its trough; MIN returns
    the point of the hull of the rows' support points nearest 0, and MAX the state of its best row, or,
    where that leaves it open and the hull of the w_j comes within c0 of 0, :func:`_saturated` at bound 1.
    Nothing refines: a bracket the opening leaves open reads not converged.  D(1) is the hull of the w_j,
    whose point nearest 0 is a vertex or on an edge, so MIN's bound there is the best over the w_j and
    both normals of each pair, and MAX is :func:`_saturated` at bound 1."""
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
        hi = _saturated(mu, omega, c0), 1.0
    else:
        theta = np.sort((_OPENING @ lam + _SHIFT) % _TWO_PI)
        # One direction per cluster: each within _TOL past the one before it, or of the first's next turn, merges.
        keep = theta < theta[0] + (_TWO_PI - _TOL)
        keep[1:] &= theta[1:] - theta[:-1] > _TOL
        theta = theta[keep]
        h, z, units, excess = _support(lam, c0, theta)
        # States stay rows, C-contiguous: BLAS sums u @ omega and weights @ u in another order on other layouts.
        u = _primal(units, excess, c0).T.copy()
        # Rotated with the points, each row's minimiser z_k is feasible at every direction, so h <= h_k +
        # c0 (Re(exp(-i d) z_k) - Re z_k): its peak, where exp(-i d) z_k = |z_k|, caps MAX, and its trough,
        # where it is -|z_k|, floors MIN; 8 eps (1 + c0 |z_k|) covers rounding that term and a sum below 1.
        lift, ahead = c0 * np.abs(z), c0 * z.real
        margin = 8.0 * _EPS * (1.0 + lift)
        hi_bound = min(1.0, float((h + (lift - ahead) + margin).min()))
        bound = max(float((-h).max()), float(((lift + ahead) - h - margin).max()), 0.0)
        weights = _nearest_weights((u @ omega)[:, None], _fan(theta.size))[:, 0]
        lo = _feasible(weights @ u, omega, c0), bound
        k = int(h.argmax())
        hi = _feasible(u[k], omega, c0), hi_bound
        if hi_bound > h[k] + 0.1 * _TOL:  # MAX open on its opening: clamped at 1 where the hull reaches c0
            mu = _nearest_weights(omega[:, None], _HULL_4)[:, 0]
            hi = (_saturated(mu, omega, c0), 1.0) if abs(mu @ omega) <= c0 else hi
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
    a, d = lo_u @ omega, (hi_u - lo_u) @ omega
    s = _crossing(a, d, target)
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
