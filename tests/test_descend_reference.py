"""The oracle's descent loop against a reference copy of an earlier loop.

``reference_descend`` below is the descent loop as it was before its state
was kept compact over the active rows, copied verbatim.  The current
``_descend`` must reproduce it bit for bit on every stage of a search:
the four penalty stages and the feasible stage, for maxima, minima and a
target objective, on the four anchor gates of the benchmark's verify
workload at c0 = 0, 0.5 and 1 with 64 starts.
"""

import math

import numpy as np
import pytest

from gatepower.canonical import eigen_phases
from gatepower.oracle import (
    _LADDER_BLOCK,
    _MAX_HALVINGS,
    _MIN_TRIAL,
    OptimizerConfig,
    _descend,
    _initial_starts,
    _Objective,
    _project_feasible,
    _row_norms,
    _sphere_tangent,
)

CFG = OptimizerConfig()  # 64 starts, the default schedule and tolerances

ANCHORS = {
    "generic": (0.45, 0.25, 0.10),
    "near_identity": (0.025, 0.015, 0.00625),
    "saturating": (0.65, 0.40, 0.05),
    "facet": (math.pi / 4, 0.4, 0.4),
}


def reference_descend(z, obj: _Objective, max_iter: int, step_tol: float, feasible: bool, c0: float):
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
    above the floating point noise floor.  Returns the final rows and the
    convergence mask.
    """
    z = z.copy()
    n = z.shape[0]
    step = np.full(n, 0.25)
    converged = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    values = obj.value(z)
    prev_z = np.zeros_like(z)
    prev_grad = np.zeros_like(z)
    have_prev = np.zeros(n, dtype=bool)
    # Decreases below this are floating point noise, not progress.
    noise = 1e-15 * max(1.0, obj.weight)

    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        za = z[idx]
        grad = obj.manifold_gradient(za) if feasible else _sphere_tangent(za, obj.gradient(za))
        gnorm2 = np.sum((grad.conj() * grad).real, axis=1)

        trial = step[idx].copy()
        dz = za - prev_z[idx]
        dg = grad - prev_grad[idx]
        num = np.abs(np.sum((dz.conj() * dg).real, axis=1))
        den = np.sum((dg.conj() * dg).real, axis=1)
        usable = have_prev[idx] & (den > 0) & np.isfinite(num)
        trial[usable] = np.clip(num[usable] / den[usable], 1e-10, 1e8)
        prev_z[idx] = za
        prev_grad[idx] = grad

        base = values[idx]
        cand = za.copy()
        cand_val = base.copy()
        moved = np.zeros(idx.size, dtype=bool)
        pending = np.ones(idx.size, dtype=bool)
        for first in range(0, _MAX_HALVINGS, _LADDER_BLOCK):
            rows = np.flatnonzero(pending)
            if rows.size == 0:
                break
            # Halving is exact, so ldexp gives rung j the same step as j
            # successive halvings; rung 0 of the ladder is tried even below
            # _MIN_TRIAL.
            rung = np.arange(min(_LADDER_BLOCK, _MAX_HALVINGS - first))
            t = np.ldexp(trial[rows][:, None], -rung)
            zc = (za[rows][:, None, :] - t[:, :, None] * grad[rows][:, None, :]).reshape(-1, 4)
            if feasible:
                zc, ok = _project_feasible(zc, c0)
            else:
                zc = zc / _row_norms(zc)[:, None]
                ok = np.ones(zc.shape[0], dtype=bool)
            vc = obj.value(zc).reshape(t.shape)
            required = np.maximum(1e-4 * t * gnorm2[rows][:, None], noise)
            reached = (t >= _MIN_TRIAL) | (first + rung == 0)
            accept = reached & ok.reshape(t.shape) & (vc <= base[rows][:, None] - required)
            won = accept.any(axis=1)
            pick = accept.argmax(axis=1)[won]
            hit = rows[won]
            cand[hit] = zc.reshape(*t.shape, 4)[won, pick]
            cand_val[hit] = vc[won, pick]
            trial[hit] = t[won, pick]
            moved[hit] = True
            pending[hit] = False
            miss = rows[~won]
            trial[miss] = np.ldexp(trial[miss], -reached[~won].sum(axis=1))
            pending[miss] = trial[miss] >= _MIN_TRIAL
        step_len = _row_norms(cand - za)
        step_len[~moved] = 0.0
        z[idx] = cand
        values[idx] = cand_val
        step[idx] = np.minimum(trial * 2.0, 1e8)
        have_prev[idx] = True
        done = step_len < step_tol
        converged[idx[done]] = True
        active[idx[done]] = False
    return z, converged


def _assert_same_stage(z, obj, tol, feasible, c0):
    ref, ref_conv = reference_descend(z, obj, CFG.max_iterations, tol, feasible, c0)
    new, new_conv = _descend(z, obj, CFG.max_iterations, tol, feasible=feasible, c0=c0)
    assert new.tobytes() == ref.tobytes()
    assert new_conv.tobytes() == ref_conv.tobytes()
    return ref


@pytest.mark.parametrize("c0", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gate", sorted(ANCHORS))
def test_descend_matches_reference_loop(gate, c0):
    lam = eigen_phases(ANCHORS[gate])
    coarse_tol = max(CFG.step_tolerance, 1e-6)
    for sign, target in ((-1.0, None), (1.0, None), (1.0, 0.5)):
        obj = _Objective(lam, c0, sign, target)
        z = _initial_starts(c0, CFG)
        for weight in CFG.penalty_weight_schedule:
            obj.weight = weight
            z = _assert_same_stage(z, obj, coarse_tol, False, c0)
        obj.weight = 0.0
        z, _ = _project_feasible(z, c0)
        _assert_same_stage(z, obj, CFG.step_tolerance, True, c0)
