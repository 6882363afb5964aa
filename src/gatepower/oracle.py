"""Independent numerical verification of the closed-form power results.

Optimizes the final concurrence |sum_j b_j^2 exp(2i l_j)| over magic
coefficients b constrained to unit norm and fixed initial concurrence
|sum_j b_j^2| = c0, without using any closed-form result.  Each search is
a multi-start quadratic-penalty descent (real/imaginary parts of b as
eight real variables, renormalized every step) followed by a polishing
stage that projects every iterate exactly onto the constraint manifold.
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
    sample_state_with_concurrence,
    to_magic_coefficients,
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

_AGREE_ATOL = 1e-6
_VIOLATION_ATOL = 1e-8

# Backtracking: the trial step is halved at most _MAX_HALVINGS times and
# abandoned once it falls below _MIN_TRIAL; _LADDER_BLOCK halvings are
# evaluated per objective call.
_LADDER_BLOCK = 8
_MAX_HALVINGS = 60
_MIN_TRIAL = 1e-18
_RUNGS = np.arange(_LADDER_BLOCK)


class Direction(enum.Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-start penalized search."""

    starts: int = 64
    max_iterations: int = 500
    penalty_weight_schedule: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    step_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        schedule = tuple(self.penalty_weight_schedule)
        if any(w <= 0 for w in schedule) or any(
            b <= a for a, b in zip(schedule, schedule[1:])
        ):
            raise ValueError("penalty weight schedule must be positive and strictly increasing")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one extremal search."""

    extremal_concurrence: float
    achiever: np.ndarray
    constraint_violation: float
    converged: bool
    starts_agreeing: int


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


def _row_norms(z: np.ndarray) -> np.ndarray:
    return np.sqrt((z.conj() * z).real.sum(axis=1))


def _project_feasible(z: np.ndarray, c0: float) -> tuple[np.ndarray, np.ndarray]:
    """Project rows onto {unit norm, |sum b^2| = c0}; returns (Z, ok mask).

    Batched version of :func:`gatepower.states.rescale_to_concurrence`;
    rows where the rescaling is singular are returned normalized with the
    mask cleared.
    """
    z = z / np.maximum(_row_norms(z), 1e-30)[:, None]
    s = (z * z).sum(axis=1)
    z = z * _unphase(s)[:, None]
    x = z.real
    y = z.imag
    p = (x * x).sum(axis=1)
    q = (y * y).sum(axis=1)
    ok = p > 1e-15
    ps = np.maximum(p, 1e-300)
    if 1.0 - c0 < 1e-15:
        out = (x / np.sqrt(ps)[:, None]).astype(complex)
    else:
        ok &= q > 1e-30
        qs = np.maximum(q, 1e-300)
        out = (
            np.sqrt((1.0 + c0) / (2.0 * ps))[:, None] * x
            + 1j * np.sqrt((1.0 - c0) / (2.0 * qs))[:, None] * y
        )
        out = out / np.maximum(_row_norms(out), 1e-30)[:, None]
    bad = ~ok
    if bad.any():
        out[bad] = z[bad]
    return out, ok


class _Objective:
    """Value/gradient of the penalized objective over coefficient rows.

    ``sign`` is -1 to search for maxima of |F|^2 and +1 for minima; when
    ``target`` is given the data term becomes (|F|^2 - target^2)^2 instead.
    The gradient is the analytic derivative with respect to the eight real
    variables, packed as a complex 4-vector per row.
    """

    def __init__(self, lam: np.ndarray, c0: float, sign: float, target: float | None = None):
        self.phases = np.exp(2j * lam)
        self.c0 = c0
        self.sign = sign
        self.target = target
        self.weight = 0.0

    def _terms(self, z):
        zsq = z * z
        return zsq.sum(axis=1), (zsq * self.phases).sum(axis=1)

    def final_concurrence(self, z) -> np.ndarray:
        _, f = self._terms(z)
        return np.abs(f)

    def value(self, z) -> np.ndarray:
        s, f = self._terms(z)
        abs_f2 = (f.conj() * f).real
        if self.target is None:
            val = self.sign * abs_f2
        else:
            val = (abs_f2 - self.target**2) ** 2
        if self.weight:
            val = val + self.weight * (np.abs(s) - self.c0) ** 2
        return val

    def gradient(self, z) -> np.ndarray:
        return self._gradient(z, *self._terms(z))

    def _gradient(self, z, s, f) -> np.ndarray:
        g_f = 4.0 * f[:, None] * np.conj(z * self.phases)
        if self.target is None:
            grad = self.sign * g_f
        else:
            abs_f2 = (f.conj() * f).real
            grad = 2.0 * (abs_f2 - self.target**2)[:, None] * g_f
        if self.weight:
            abs_s, unit = _unit_phase(s)
            grad = grad + self.weight * 4.0 * (abs_s - self.c0)[:, None] * unit[:, None] * np.conj(z)
        return grad

    def manifold_gradient(self, z) -> np.ndarray:
        """Gradient projected onto the tangent of the constraint manifold."""
        s, f = self._terms(z)
        g = _sphere_tangent(z, self._gradient(z, s, f))
        if 1.0 - self.c0 < 1e-12:
            # Feasible set is the real sphere up to a phase; keep the real part.
            rot = _unphase(s)
            zr = (z * rot[:, None]).real
            gr = _sphere_tangent(zr, (g * rot[:, None]).real)
            return (gr * np.conj(rot)[:, None]).astype(complex)
        _, unit = _unit_phase(s)
        n2 = _sphere_tangent(z, 2.0 * unit[:, None] * np.conj(z))
        n2_norm = _row_norms(n2)
        scale = np.where(n2_norm > 1e-8, 1.0 / np.where(n2_norm > 1e-8, n2_norm, 1.0), 0.0)
        n2 = n2 * scale[:, None]
        return g - (n2.conj() * g).real.sum(axis=1)[:, None] * n2


def _descend(z, obj: _Objective, max_iter: int, step_tol: float, feasible: bool, c0: float):
    """Batched backtracking gradient descent over the rows of ``z``.

    With ``feasible`` set, every candidate is projected exactly onto the
    constraint manifold and the manifold-tangent gradient drives the step;
    otherwise candidates are only renormalized (penalty stages).  Step
    sizes start from the Barzilai-Borwein secant estimate (essential for
    the ill-conditioned landscapes of near-degenerate gates) and back off
    under an Armijo test.  The back-off is a ladder of halved steps: for
    every row still searching, the next ``_LADDER_BLOCK`` rungs are
    evaluated in one batch and the row takes the first rung that passes,
    exactly as if the rungs had been tried one at a time, so a row's
    result never depends on the other rows.  A row converges when its
    accepted step falls below ``step_tol`` or no step yields a decrease
    above the floating point noise floor.  The state is held for the rows
    still active only (``idx`` maps them to their input rows); a row is
    written out when it converges.  Returns the final rows and the
    convergence mask.
    """
    out = z.copy()
    converged = np.zeros(z.shape[0], dtype=bool)
    idx = np.arange(z.shape[0])
    step = np.full(z.shape[0], 0.25)
    values = obj.value(z)
    # Decreases below this are floating point noise, not progress.
    noise = 1e-15 * max(1.0, obj.weight)

    for it in range(max_iter):
        if idx.size == 0:
            break
        grad = obj.manifold_gradient(z) if feasible else _sphere_tangent(z, obj.gradient(z))
        gnorm2 = (grad.conj() * grad).real.sum(axis=1)
        trial = step
        if it:  # the secant estimate needs the previous iterate
            dz = z - prev_z
            dg = grad - prev_grad
            num = np.abs((dz.conj() * dg).real.sum(axis=1))
            den = (dg.conj() * dg).real.sum(axis=1)
            usable = (den > 0) & np.isfinite(num)
            trial[usable] = np.clip(num[usable] / den[usable], 1e-10, 1e8)
        prev_z, prev_grad = z, grad

        cand = z.copy()
        cand_val = values.copy()
        moved = np.zeros(idx.size, dtype=bool)
        rows = np.arange(idx.size)
        for first in range(0, _MAX_HALVINGS, _LADDER_BLOCK):
            if rows.size == 0:
                break
            # Halving is exact, so ldexp gives rung j the same step as j
            # successive halvings; rung 0 of the ladder is tried even below
            # _MIN_TRIAL.
            rung = _RUNGS[: _MAX_HALVINGS - first]
            t = np.ldexp(trial[rows][:, None], -rung)
            zc = (z[rows][:, None, :] - t[:, :, None] * grad[rows][:, None, :]).reshape(-1, 4)
            if feasible:
                zc, ok = _project_feasible(zc, c0)
                ok = ok.reshape(t.shape)
            else:
                zc = zc / _row_norms(zc)[:, None]
                ok = True
            vc = obj.value(zc).reshape(t.shape)
            required = np.maximum(1e-4 * t * gnorm2[rows][:, None], noise)
            reached = (t >= _MIN_TRIAL) | (first + rung == 0)
            accept = reached & ok & (vc <= values[rows][:, None] - required)
            won = accept.any(axis=1)
            pick = accept.argmax(axis=1)[won]
            hit = rows[won]
            cand[hit] = zc.reshape(*t.shape, 4)[won, pick]
            cand_val[hit] = vc[won, pick]
            trial[hit] = t[won, pick]
            moved[hit] = True
            miss = rows[~won]
            trial[miss] = np.ldexp(trial[miss], -reached[~won].sum(axis=1))
            rows = miss[trial[miss] >= _MIN_TRIAL]
        step_len = _row_norms(cand - z)
        step_len[~moved] = 0.0
        z, values = cand, cand_val
        step = np.minimum(trial * 2.0, 1e8)
        done = step_len < step_tol
        if done.any():
            out[idx[done]] = z[done]
            converged[idx[done]] = True
            keep = ~done
            idx, z, values, step = idx[keep], z[keep], values[keep], step[keep]
            prev_z, prev_grad = prev_z[keep], prev_grad[keep]
    out[idx] = z
    return out, converged


def _sphere_tangent(z, grad):
    return grad - (z.conj() * grad).real.sum(axis=1)[:, None] * z


def _unphase(s):
    """Per-row rotation exp(-i arg(s) / 2), with arg(s) computed as np.angle does."""
    return np.exp(-0.5j * np.arctan2(s.imag, s.real))


def _unit_phase(s):
    """|s| and s/|s| per row, with the phase 0 where |s| <= 1e-14."""
    abs_s = np.abs(s)
    return abs_s, np.where(abs_s > 1e-14, s / np.where(abs_s > 1e-14, abs_s, 1.0), 0.0)


def _initial_starts(c0: float, cfg: OptimizerConfig) -> np.ndarray:
    """Sampler-drawn generic starts plus the pure magic-basis pair states."""
    rows = []
    for i in range(cfg.starts):
        state = sample_state_with_concurrence(c0, cfg.seed + i)
        rows.append(to_magic_coefficients(state))
    delta = math.acos(min(max(c0, 0.0), 1.0))
    for j, k in itertools.combinations(range(4), 2):
        for sgn in (1.0, -1.0):
            b = np.zeros(4, dtype=complex)
            b[j] = np.exp(0.5j * sgn * delta) / math.sqrt(2.0)
            b[k] = np.exp(-0.5j * sgn * delta) / math.sqrt(2.0)
            rows.append(b)
    return np.array(rows)


def _optimize(alpha, c0: float, cfg: OptimizerConfig, sign: float, target: float | None):
    lam = eigen_phases(alpha)
    obj = _Objective(lam, c0, sign, target)
    z = _initial_starts(c0, cfg)
    # Penalty stages only need to locate the basin; the polishing stage on
    # the exact constraint manifold does the precision work.
    coarse_tol = max(cfg.step_tolerance, 1e-6)
    for weight in cfg.penalty_weight_schedule:
        obj.weight = weight
        z, _ = _descend(z, obj, cfg.max_iterations, coarse_tol, feasible=False, c0=c0)
    obj.weight = 0.0
    z, feasible_ok = _project_feasible(z, c0)
    z, converged = _descend(z, obj, cfg.max_iterations, cfg.step_tolerance, feasible=True, c0=c0)
    z, ok = _project_feasible(z, c0)
    feasible_ok &= ok
    return obj, z, converged & feasible_ok


def _pack_result(obj, z, converged, c0, best_of_max: bool, target: float | None) -> OracleResult:
    finals = obj.final_concurrence(z)
    if target is None:
        score = finals if best_of_max else -finals
    else:
        score = -np.abs(finals - target)
    pool = np.flatnonzero(converged) if converged.any() else np.arange(z.shape[0])
    winner = pool[int(np.argmax(score[pool]))]
    state = from_magic_coefficients(z[winner])
    violation = abs(concurrence(state) - c0)
    agree = int(np.sum(converged & (np.abs(finals - finals[winner]) <= _AGREE_ATOL)))
    return OracleResult(
        extremal_concurrence=float(min(max(finals[winner], 0.0), 1.0)),
        achiever=state,
        constraint_violation=float(violation),
        converged=bool(converged[winner] and violation <= _VIOLATION_ATOL),
        starts_agreeing=agree,
    )


def _require_unit_interval(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:  # also rejects NaN
        raise ValueError(f"{what} concurrence must be in [0, 1], got {value}")


def extremal_concurrence(
    alpha, c0: float, direction: Direction, cfg: OptimizerConfig | None = None
) -> OracleResult:
    """Numerically extremal final concurrence over states of concurrence c0.

    Independent of the closed forms: the value is the final concurrence of
    an explicitly constructed feasible state, so it can undershoot a true
    maximum but never exceed it (and vice versa for minima).
    """
    _require_unit_interval(c0, "initial")
    cfg = cfg or OptimizerConfig()
    sign = -1.0 if direction is Direction.MAX else 1.0
    obj, z, converged = _optimize(alpha, c0, cfg, sign, None)
    return _pack_result(obj, z, converged, c0, direction is Direction.MAX, None)


def reach_target(alpha, c0: float, target: float, cfg: OptimizerConfig | None = None) -> OracleResult:
    """Search for a feasible state whose final concurrence is ``target``.

    Used to exercise the continuity claim that every value between the
    extremal concurrences is attainable.
    """
    _require_unit_interval(c0, "initial")
    _require_unit_interval(target, "target")
    cfg = cfg or OptimizerConfig()
    obj, z, converged = _optimize(alpha, c0, cfg, 1.0, target)
    return _pack_result(obj, z, converged, c0, False, target)


def envelope_scan(alpha, c0_grid, cfg: OptimizerConfig | None = None) -> list[EnvelopeRow]:
    """Oracle [min, max] envelope over a grid of initial concurrences.

    Each row additionally checks 1000 random fixed-c0 states: their final
    concurrences must land inside the oracle envelope widened by 1e-6.
    """
    cfg = cfg or OptimizerConfig()
    gate = canonical_gate(alpha)
    rows = []
    for c0 in c0_grid:
        lo = extremal_concurrence(alpha, c0, Direction.MIN, cfg)
        hi = extremal_concurrence(alpha, c0, Direction.MAX, cfg)
        inside = True
        for i in range(1000):
            state = sample_state_with_concurrence(c0, cfg.seed + 10_000_019 + i)
            out = concurrence(gate @ state)
            if out < lo.extremal_concurrence - 1e-6 or out > hi.extremal_concurrence + 1e-6:
                inside = False
                break
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
    within ``tol`` and both searches converged; failures are recorded in
    the report, never raised.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    cfg = cfg or OptimizerConfig()
    alpha = np.asarray(alpha, dtype=float)
    rows = []
    for c0 in c0_grid:
        closed = power_interval(alpha, c0)
        lo = extremal_concurrence(alpha, c0, Direction.MIN, cfg)
        hi = extremal_concurrence(alpha, c0, Direction.MAX, cfg)
        dev_min = abs(closed.c_min - lo.extremal_concurrence)
        dev_max = abs(closed.c_max - hi.extremal_concurrence)
        converged = lo.converged and hi.converged
        passed = (
            converged
            and dev_min <= tol
            and dev_max <= tol
            and hi.extremal_concurrence <= closed.c_max + tol
            and lo.extremal_concurrence >= closed.c_min - tol
        )
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
