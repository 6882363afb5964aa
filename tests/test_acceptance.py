"""Acceptance suite: one test per release criterion.

Each test exercises its criterion at the stated tolerance and prints a
single pass line; run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion report.
"""

import itertools
import json
import math
import time

import numpy as np

from conftest import random_chamber_point, random_local_pair
from gatepower import (
    Direction,
    GateOrdering,
    c0_max,
    c1_min,
    can_reach_max,
    can_reach_zero,
    canonical_gate,
    compare_gates,
    decompose,
    distance_up_to_phase,
    effective_angle,
    eigen_phases,
    extremal_concurrence,
    in_weyl_chamber,
    power_interval,
    random_unitary,
    reconstruct,
    saturation_condition,
    to_magic_coefficients,
)
from gatepower.cli import main, named_gate

QUARTER_PI = math.pi / 4
GRID_11 = [k / 10 for k in range(11)]


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_decomposition_soundness():
    start = time.time()
    worst = 0.0
    for seed in range(1000):
        u = random_unitary(4, seed)
        d = decompose(u)
        worst = max(worst, distance_up_to_phase(reconstruct(d), u))
        assert in_weyl_chamber(d.weyl), d.weyl
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    report(1, f"1000 Haar gates, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_local_invariance():
    rng = np.random.default_rng(202)
    worst = 0.0
    for seed in range(200):
        u = random_unitary(4, 5000 + seed)
        base = decompose(u).weyl
        dressed = random_local_pair(rng) @ u @ random_local_pair(rng)
        worst = max(worst, float(np.max(np.abs(decompose(dressed).weyl - base))))
    assert worst <= 1e-8
    report(2, f"200 locally dressed gates, worst coordinate shift {worst:.2e}")


def test_criterion_03_round_trip():
    rng = np.random.default_rng(303)
    points = [random_chamber_point(rng) for _ in range(200)]
    points += [
        np.zeros(3),
        np.array([QUARTER_PI, 0, 0]),
        np.array([QUARTER_PI, QUARTER_PI, 0]),
        np.array([QUARTER_PI, QUARTER_PI, QUARTER_PI]),
    ]
    worst = 0.0
    for w in points:
        got = decompose(canonical_gate(w)).weyl
        worst = max(worst, float(np.max(np.abs(got - w))))
    assert worst <= 1e-9
    report(3, f"204 chamber points, worst round-trip error {worst:.2e}")


def test_criterion_04_named_gate_coordinates():
    expected = {
        "cnot": [QUARTER_PI, 0, 0],
        "swap": [QUARTER_PI, QUARTER_PI, QUARTER_PI],
        "iswap": [QUARTER_PI, QUARTER_PI, 0],
    }
    for token, coords in expected.items():
        np.testing.assert_allclose(decompose(named_gate(token)).weyl, coords, atol=1e-9)
    for theta in (0.5, 1.0, math.pi):
        got = decompose(named_gate(f"cphase:{theta}")).weyl
        np.testing.assert_allclose(got, [theta / 4, 0, 0], atol=1e-9)
    report(4, "cnot, swap, iswap and cphase coordinates all within 1e-9")


def test_criterion_05_saturating_gates_span_full_interval():
    for token in ("cnot", "sqrtswap"):
        w = decompose(named_gate(token)).weyl
        assert saturation_condition(w)
        for c0 in GRID_11:
            interval = power_interval(w, c0)
            assert abs(interval.c_min - 0.0) <= 1e-12
            assert abs(interval.c_max - 1.0) <= 1e-12
    report(5, "cnot and sqrtswap give (0, 1) at every grid point, within 1e-12")


def test_criterion_06_swap_neutrality():
    w = decompose(named_gate("swap")).weyl
    for c0 in GRID_11:
        interval = power_interval(w, c0)
        assert abs(interval.c_min - c0) <= 1e-12
        assert abs(interval.c_max - c0) <= 1e-12
    report(6, "swap preserves every grid concurrence within 1e-12")


def test_criterion_07_closed_form_matches_oracle():
    start = time.time()
    rng = np.random.default_rng(707)
    gates = [random_chamber_point(rng) for _ in range(20)]
    worst = 0.0
    for w in gates:
        for c0 in GRID_11:
            closed = power_interval(w, c0)
            hi = extremal_concurrence(w, c0, Direction.MAX)
            lo = extremal_concurrence(w, c0, Direction.MIN)
            assert hi.converged and lo.converged
            dev = max(
                abs(hi.extremal_concurrence - closed.c_max),
                abs(lo.extremal_concurrence - closed.c_min),
            )
            worst = max(worst, dev)
            assert dev <= 1e-3
            assert hi.extremal_concurrence <= closed.c_max + 1e-6
            assert lo.extremal_concurrence >= closed.c_min - 1e-6
    elapsed = time.time() - start
    assert elapsed <= 120.0
    report(7, f"20 gates x 11 inputs, worst oracle deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_consistency_identities():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        w = random_chamber_point(rng)
        assert abs(c0_max(w) - power_interval(w, 0.0).c_max) <= 1e-12
        assert abs(c1_min(w) - power_interval(w, 1.0).c_min) <= 1e-12
    checked = 0
    while checked < 1000:
        w = random_chamber_point(rng)
        if saturation_condition(w):
            continue
        c0 = float(rng.uniform(0, 1))
        lam = eigen_phases([w[0], w[1], abs(w[2])])
        angle = math.acos(c0)
        pair_vals = [
            abs(math.cos(angle + lam[j] - lam[k]))
            for j, k in itertools.permutations(range(4), 2)
        ]
        interval = power_interval(w, c0)
        if not can_reach_max(w, c0):
            assert abs(interval.c_max - max(pair_vals)) <= 1e-12
            checked += 1
        if not can_reach_zero(w, c0):
            assert abs(interval.c_min - min(pair_vals)) <= 1e-12
            checked += 1
    report(8, "endpoint identities and pairwise formulas agree within 1e-12")


def test_criterion_09_order_properties():
    rng = np.random.default_rng(909)
    flip = {
        GateOrdering.LESS: GateOrdering.GREATER,
        GateOrdering.GREATER: GateOrdering.LESS,
        GateOrdering.EQUAL: GateOrdering.EQUAL,
    }
    for _ in range(100):
        wa, wb, wc = (random_chamber_point(rng) for _ in range(3))
        ab = compare_gates(wa, wb)
        assert compare_gates(wb, wa) is flip[ab]
        bc = compare_gates(wb, wc)
        if ab is bc and ab is not GateOrdering.EQUAL:
            assert compare_gates(wa, wc) is ab
        if ab is bc is GateOrdering.EQUAL:
            assert compare_gates(wa, wc) is GateOrdering.EQUAL
    grid = np.linspace(0, 1, 21)
    for _ in range(100):
        wa, wb = random_chamber_point(rng), random_chamber_point(rng)
        relation = compare_gates(wa, wb)
        small, big = (wa, wb) if relation is not GateOrdering.GREATER else (wb, wa)
        for c0 in grid:
            inner = power_interval(small, float(c0))
            outer = power_interval(big, float(c0))
            assert outer.c_min <= inner.c_min + 1e-12
            assert inner.c_max <= outer.c_max + 1e-12
    swap_w = decompose(named_gate("swap")).weyl
    for _ in range(200):
        w = random_chamber_point(rng)
        assert compare_gates(swap_w, w) in (GateOrdering.LESS, GateOrdering.EQUAL)
    report(9, "ordering antisymmetric, transitive, nesting stable, swap minimal")


def test_criterion_10_extremal_two_coefficient_structure():
    rng = np.random.default_rng(1010)
    gates = []
    while len(gates) < 10:
        w = random_chamber_point(rng)
        if saturation_condition(w) or effective_angle(w) > math.pi / 2 - 0.05:
            continue
        lam = eigen_phases(w)
        gaps = [abs(lam[j] - lam[k]) for j, k in itertools.combinations(range(4), 2)]
        if min(gaps) < 0.05:
            continue  # keep the eigenphases generic
        gates.append(w)
    for w in gates:
        c0 = 0.5 * c1_min(w)
        result = extremal_concurrence(w, c0, Direction.MAX)
        assert result.converged
        mods = np.sort(np.abs(to_magic_coefficients(result.achiever)))[::-1]
        assert np.all(mods[:2] > 1e-4)
        assert np.all(mods[2:] <= 1e-4)
        np.testing.assert_allclose(mods[:2], 1 / math.sqrt(2), atol=1e-3)
    report(10, "10 non-saturating gates: achievers have two coefficients at 1/sqrt(2)")


def test_criterion_11_cli_contract(tmp_path, capsys, shifted_closed_form):
    code = main(["decompose", "--gate", "cnot", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["alpha"], [QUARTER_PI, 0, 0], atol=1e-9)
    assert doc["reconstruction_residual"] <= 1e-8

    code = main(["power", "--gate", "swap", "--c0", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "c_min: 0.3"
    assert lines[4] == "c_max: 0.3"

    code = main(["curve", "--gate", "identity", "--steps", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "c0,c_min,c_max\n0,0,0\n0.5,0.5,0.5\n1,1,1\n"

    code = main(["verify", "--gate", "swap", "--grid", "3", "--tol", "1e-18"])
    capsys.readouterr()
    assert code == 1

    code = main(["power", "--gate", "not-a-gate", "--c0", "0.5"])
    capsys.readouterr()
    assert code == 2
    report(11, "CLI golden outputs and exit codes 0/1/2 all verified")
