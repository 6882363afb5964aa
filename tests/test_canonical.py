"""Tests for the canonical decomposition and Weyl chamber reduction."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import SIGMA_X, SIGMA_Z, memory_layouts, random_chamber_point, random_local_pair
from test_edge_cases import facet_and_edge_points
from gatepower import (
    DecompositionError,
    UnitarityError,
    canonical_gate,
    decompose,
    distance_up_to_phase,
    eigen_phases,
    in_weyl_chamber,
    power_interval,
    random_unitary,
    reconstruct,
    reduce_alpha,
    tensor_product,
    weyl_coordinates,
)
from gatepower import canonical
from gatepower.canonical import CanonicalDecomposition
from gatepower.linalg import MAGIC, MAGIC_H

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)

QUARTER_PI = np.pi / 4


def test_eigen_phases_zero():
    np.testing.assert_array_equal(eigen_phases([0, 0, 0]), [0, 0, 0, 0])


def test_eigen_phases_cnot_class():
    np.testing.assert_allclose(
        eigen_phases([QUARTER_PI, 0, 0]),
        [-QUARTER_PI, QUARTER_PI, QUARTER_PI, -QUARTER_PI],
        atol=1e-15,
    )


def test_eigen_phases_swap_class():
    np.testing.assert_allclose(
        eigen_phases([QUARTER_PI] * 3),
        [QUARTER_PI, QUARTER_PI, QUARTER_PI, -3 * QUARTER_PI],
        atol=1e-15,
    )


def test_eigen_phases_sum_to_zero_and_linear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        assert abs(np.sum(eigen_phases(a))) <= 1e-15
        np.testing.assert_allclose(
            eigen_phases(2.5 * a - b),
            2.5 * eigen_phases(a) - eigen_phases(b),
            atol=1e-13,
        )


def test_canonical_gate_identity():
    np.testing.assert_allclose(canonical_gate([0, 0, 0]), np.eye(4), atol=1e-15)


def test_canonical_gate_matches_matrix_exponential():
    # Independent oracle: direct matrix exponential of the generator.
    rng = np.random.default_rng(6)
    paulis = [tensor_product(s, s) for s in (SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z)]
    for _ in range(20):
        alpha = rng.uniform(-1.0, 1.0, size=3)
        gen = sum(a * p for a, p in zip(alpha, paulis))
        expected = expm(1j * gen)
        assert np.linalg.norm(canonical_gate(alpha) - expected) <= 1e-12


def test_canonical_gate_is_unitary():
    rng = np.random.default_rng(14)
    for _ in range(50):
        g = canonical_gate(rng.uniform(-np.pi, np.pi, size=3))
        assert np.linalg.norm(g.conj().T @ g - np.eye(4)) <= 1e-13


def test_canonical_gate_swap_point():
    gate = canonical_gate([QUARTER_PI] * 3)
    assert distance_up_to_phase(gate, SWAP) <= 1e-13
    np.testing.assert_allclose(gate, np.exp(1j * QUARTER_PI) * SWAP, atol=1e-13)


def test_canonical_gate_cnot_point_locally_equivalent_to_cnot():
    d = decompose(CNOT)
    rebuilt = (
        tensor_product(*d.post_local)
        @ canonical_gate([QUARTER_PI, 0, 0])
        @ tensor_product(*d.pre_local)
    )
    assert distance_up_to_phase(rebuilt, CNOT) <= 1e-8


def test_decompose_identity():
    d = decompose(np.eye(4))
    np.testing.assert_allclose(d.weyl, [0, 0, 0], atol=1e-12)
    for local in (*d.pre_local, *d.post_local):
        assert distance_up_to_phase(local, np.eye(2)) <= 1e-10


def test_decompose_named_gate_coordinates():
    np.testing.assert_allclose(decompose(CNOT).weyl, [QUARTER_PI, 0, 0], atol=1e-9)
    np.testing.assert_allclose(decompose(SWAP).weyl, [QUARTER_PI] * 3, atol=1e-9)
    np.testing.assert_allclose(decompose(ISWAP).weyl, [QUARTER_PI, QUARTER_PI, 0], atol=1e-9)


def test_decompose_reconstruction_unitaries_and_phase():
    rng = np.random.default_rng(3)
    for seed in range(50):
        u = random_unitary(4, seed)
        d = decompose(u)
        assert distance_up_to_phase(reconstruct(d), u) <= 1e-8
        assert np.linalg.norm(reconstruct(d) - u) <= 1e-7  # phase included
        for local in (*d.pre_local, *d.post_local):
            assert np.linalg.norm(local.conj().T @ local - np.eye(2)) <= 1e-12
        assert in_weyl_chamber(d.weyl)
    _ = rng  # seeded loop above is deterministic


def test_decompose_round_trip_on_chamber_points():
    rng = np.random.default_rng(17)
    points = [random_chamber_point(rng) for _ in range(200)]
    points += [
        np.zeros(3),
        np.array([QUARTER_PI, 0, 0]),
        np.array([QUARTER_PI, QUARTER_PI, 0]),
        np.array([QUARTER_PI, QUARTER_PI, QUARTER_PI]),
    ]
    for w in points:
        d = decompose(canonical_gate(w))
        np.testing.assert_allclose(d.weyl, w, atol=1e-9)


def test_decompose_adjoint_preserves_power_class():
    # Conjugation flips the sign of the third coordinate inside the
    # chamber, so the power class (a1, a2, |a3|) is the right invariant.
    rng = np.random.default_rng(29)
    for seed in range(30):
        u = random_unitary(4, 500 + seed)
        w = decompose(u).weyl
        w_dag = decompose(u.conj().T).weyl
        np.testing.assert_allclose(w_dag[:2], w[:2], atol=1e-9)
        assert abs(abs(w_dag[2]) - abs(w[2])) <= 1e-9
    _ = rng


def test_decompose_deterministic():
    u = random_unitary(4, 99)
    d1 = decompose(u)
    d2 = decompose(u)
    np.testing.assert_array_equal(d1.weyl, d2.weyl)
    np.testing.assert_array_equal(d1.pre_local[0], d2.pre_local[0])
    assert d1.global_phase == d2.global_phase


def test_decompose_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        decompose(np.diag([1.0, 1.0, 1.0, 1.1]))


def test_decompose_rejects_a_single_qubit_gate():
    with pytest.raises(UnitarityError, match="4x4"):
        decompose(np.eye(2))


def test_reconstruct_hand_built():
    eye = np.eye(2, dtype=complex)
    d = CanonicalDecomposition(
        weyl=np.array([QUARTER_PI, 0, 0]),
        pre_local=(eye, eye),
        post_local=(eye, eye),
        global_phase=0.0,
    )
    np.testing.assert_allclose(reconstruct(d), canonical_gate([QUARTER_PI, 0, 0]), atol=1e-15)


def test_decomposition_error_carries_residual():
    assert DecompositionError("x", 0.5).residual == 0.5


def test_decompose_reconstruction_check_rejects_a_bad_split(monkeypatch):
    split = canonical._su2_factors
    tilt = np.diag(np.exp([1e-6j, -1e-6j]))

    def tilted(o):
        a, b = split(o)
        return a, b @ tilt

    monkeypatch.setattr(canonical, "_su2_factors", tilted)
    with pytest.raises(DecompositionError, match="reconstruction check failed"):
        decompose(random_unitary(4, 7))


def test_decompose_rejects_an_imaginary_leak(monkeypatch):
    # Shifting all four phases by delta leaves the left magic-frame factor times exp(-i delta):
    # its imaginary part has norm 2 sin(delta).  That is a global phase only, so at delta = 1e-7
    # the leak passes both checks; at 1e-3 the leak check rejects it.
    phases, u = canonical._phases, random_unitary(4, 3)
    monkeypatch.setattr(canonical, "_phases", lambda a1, a2, a3: phases(a1, a2, a3) + 1e-7)
    d = decompose(u)
    assert d.diagnostics.imaginary_leak == pytest.approx(2 * math.sin(1e-7), rel=1e-6)
    assert d.diagnostics.reconstruction_residual <= 1e-12
    monkeypatch.setattr(canonical, "_phases", lambda a1, a2, a3: phases(a1, a2, a3) + 1e-3)
    with pytest.raises(DecompositionError, match="left magic-frame factor is not real orthogonal") as err:
        decompose(u)
    assert err.value.residual == pytest.approx(2 * math.sin(1e-3), rel=1e-6)


def test_noisy_cnot_class_gates_decompose_exactly():
    # 1e-8 noise splits the degenerate eigenvalue pairs of the CNOT class
    # by about 1e-8; the eigenbasis must still diagonalize m exactly.
    rng = np.random.default_rng(31)
    for _ in range(100):
        w = np.array([QUARTER_PI, 0.0, 0.0]) + 1e-8 * rng.standard_normal(3)
        u = random_local_pair(rng) @ canonical_gate(w) @ random_local_pair(rng)
        d = decompose(u)
        assert np.max(np.abs(d.weyl - reduce_alpha(w))) <= 1e-12
        assert distance_up_to_phase(reconstruct(d), u) <= 1e-12


# Faults that gave wrong coordinates without raising before the chamber post-condition:
# (function, expression, its rewrite).
SILENT_REDUCTION_FAULTS = {
    "sorted_smallest_first": ("_by_magnitude", "key=abs, reverse=True", "key=abs"),
    "second_sign_flip_skipped": ("reduce_alpha", "    if a[1] < 0:\n        a[1], a[2] = -a[1], -a[2]\n", ""),
    "face_fold_dropped": (
        "reduce_alpha", "    if a[2] < -_SIGN_TOL and a[0] >= _QUARTER_PI - _FACE_TOL:\n        a[2] = -a[2]\n", ""
    ),
}


@pytest.mark.parametrize("fault", SILENT_REDUCTION_FAULTS)
def test_chamber_post_condition_catches_silent_reduction_faults(monkeypatch, fault):
    function, expression, rewrite = SILENT_REDUCTION_FAULTS[fault]
    source = inspect.getsource(getattr(canonical, function))
    assert source.count(expression) == 1
    scope = {}
    exec(source.replace(expression, rewrite), vars(canonical), scope)
    rng = np.random.default_rng(53)
    face = [p for p in facet_and_edge_points() if p[0] == QUARTER_PI]
    gates = [random_unitary(4, seed) for seed in range(60)]
    gates += [random_local_pair(rng) @ canonical_gate(p) @ random_local_pair(rng) for p in face]
    expected = [weyl_coordinates(u) for u in gates]
    monkeypatch.setattr(canonical, function, scope[function])
    raised = 0
    for u, want in zip(gates, expected):
        for call in (weyl_coordinates, lambda u: decompose(u).weyl):
            try:
                got = call(u)
            except DecompositionError as exc:
                assert "outside the Weyl chamber" in str(exc)
                raised += 1
            else:  # a value returned is the right one; on ties within rounding (the SWAP vertex)
                assert np.max(np.abs(got - want)) <= 1e-15  # their order may move it by an ulp
    assert raised > 0


def test_decompose_falls_back_to_the_next_mix(monkeypatch):
    # A coordinate atan(c)/2 makes two eigenvalues of m collide under the
    # mix Re(m) + c Im(m), so the first mix alone cannot diagonalize m.
    w = [0.5, 0.4, math.atan(canonical._MIXES[0]) / 2]
    rng = np.random.default_rng(37)
    u = random_local_pair(rng) @ canonical_gate(w) @ random_local_pair(rng)
    d = decompose(u)
    assert distance_up_to_phase(reconstruct(d), u) <= 1e-12
    assert np.max(np.abs(d.weyl - reduce_alpha(w))) <= 1e-12
    assert d.diagnostics.eigenbasis_mix == canonical._MIXES[1] and d.diagnostics.eigenbasis_residual <= 1e-10
    monkeypatch.setattr(canonical, "_MIXES", canonical._MIXES[:1])
    with pytest.raises(DecompositionError):
        decompose(u)


@pytest.mark.parametrize("bad", [[math.nan, 0, 0], [0, math.inf, 0], [0, 0, -math.inf]])
def test_reduce_alpha_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        reduce_alpha(bad)


@pytest.mark.parametrize(
    "bad", [[math.nan, 0, 0], [0, math.inf, 0], [0, 0, -math.inf], 0.5, np.float64(0.5), [10**400, 0, 0]]
)
def test_eigen_phases_and_canonical_gate_reject_non_finite(bad):
    for call in (reduce_alpha, eigen_phases, canonical_gate):
        with pytest.raises(ValueError, match="three finite numbers"):
            call(bad)


@pytest.mark.parametrize("bad", [np.zeros((3, 1)), [0.1, 0.2], [0.3, 0.2, 0.1, 0.0], 0.5, [10**400, 0, 0]])
def test_in_weyl_chamber_rejects_anything_but_three_real_numbers(bad):
    with pytest.raises(ValueError, match="three finite numbers"):
        in_weyl_chamber(bad)


NOT_NUMBERS = {
    "str-list": ["0.3", "0.2", "0.1"],
    "str-array": np.array(["0.3", "0.2", "0.1"]),
    "bytes-list": [b"0.3", b"0.2", b"0.1"],
    "bool-list": [True, False, False],
    "bool-array": np.array([True, False, False]),
    "bool-among-floats": [0.3, 0.2, True],
    "numpy-bool-among-floats": [0.3, np.True_, 0.1],
}


@pytest.mark.parametrize("name", NOT_NUMBERS)
def test_strings_and_bools_are_not_chamber_coordinates(name):
    # A float conversion reads "0.3" as 0.3 and True as 1.0; gate files reject bools too.
    for call in (in_weyl_chamber, reduce_alpha, lambda a: power_interval(a, 0.5)):
        with pytest.raises(ValueError, match="three finite numbers"):
            call(NOT_NUMBERS[name])


@pytest.mark.parametrize("alpha", [
    [1, 0, 0], (1, 0, 0), np.array([1, 0, 0]), [np.int64(1), 0, 0], np.array([1, 0, 0], dtype=np.uint8),
    [0.3, 0.2, 0.1], np.array([0.3, 0.2, 0.1], dtype=np.float32), [np.float64(0.3), 0.2, 0], [2**64, 0, 0],
], ids=["int-list", "int-tuple", "int-array", "numpy-int", "uint8-array", "float-list", "float32-array",
        "numpy-float", "beyond-int64"])
def test_ints_and_floats_stay_chamber_coordinates(alpha):
    assert canonical._three_floats(alpha) == [float(x) for x in np.asarray(alpha, dtype=float)]


def test_in_weyl_chamber_answers_a_python_bool():
    for w, inside in [(np.array([0.3, 0.2, -0.1]), True), ((0.3, 0.4, 0.1), False), ([1, 0, 0], False)]:
        assert in_weyl_chamber(w) is inside
    assert in_weyl_chamber([math.nan, 0.0, 0.0]) is False


@pytest.mark.parametrize("offset", [1e-10, 5e-11, 1e-13, 0.0])
def test_reduce_alpha_stays_inside_the_closed_chamber_at_the_facet(offset):
    # Within 1e-10 of a1 = pi/4 the a3 < 0 representative is folded to
    # a3 >= 0; that fold keeps a1, so it neither moves a1 past pi/4 nor
    # moves theta, which reads a1.
    w = [QUARTER_PI - offset, 0.3, -0.2]
    r = reduce_alpha(w)
    assert in_weyl_chamber(r, tol=0)
    assert r[0] == w[0] and r[2] == 0.2
    assert in_weyl_chamber(decompose(canonical_gate(w)).weyl, tol=0)


COORDS = st.tuples(*[st.floats(-4.0, 4.0)] * 3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(COORDS)
def test_reduce_alpha_lands_in_chamber_and_is_idempotent(w):
    r = reduce_alpha(w)
    assert in_weyl_chamber(r)
    assert np.max(np.abs(reduce_alpha(r) - r)) <= 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(COORDS)
def test_reduce_alpha_matches_decompose(w):
    np.testing.assert_allclose(decompose(canonical_gate(w)).weyl, reduce_alpha(w), rtol=0, atol=1e-9)


SEEDS = st.integers(0, 2**32 - 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(SEEDS, SEEDS)
def test_decompose_local_invariance(gate_seed, local_seed):
    rng = np.random.default_rng(local_seed)
    u = random_unitary(4, gate_seed)
    dressed = random_local_pair(rng) @ u @ random_local_pair(rng)
    d, d_dressed = decompose(u), decompose(dressed)
    np.testing.assert_allclose(d_dressed.weyl, d.weyl, rtol=0, atol=1e-8)
    for gate, dec in ((u, d), (dressed, d_dressed)):
        assert np.linalg.norm(reconstruct(dec) - gate) <= 1e-8
        for local in (*dec.pre_local, *dec.post_local):
            assert np.linalg.norm(local.conj().T @ local - np.eye(2)) <= 1e-12
            assert abs(np.linalg.det(local) - 1) <= 1e-12


def test_weyl_coordinates_equal_decompose_on_haar_gates():
    for seed in range(1000):
        u = random_unitary(4, seed)
        assert np.array_equal(weyl_coordinates(u), decompose(u).weyl)


@pytest.mark.parametrize("noise", [1e-12, 1e-10, 1e-8, 1e-6])
def test_weyl_coordinates_equal_decompose_on_dressed_boundary_gates(noise):
    rng = np.random.default_rng(41)
    for _ in range(3):
        for w in facet_and_edge_points():
            noisy = w + noise * rng.standard_normal(3)
            u = random_local_pair(rng) @ canonical_gate(noisy) @ random_local_pair(rng)
            assert np.array_equal(weyl_coordinates(u), decompose(u).weyl)


@pytest.mark.parametrize(
    "bad",
    [np.diag([1.0, 1.0, 1.0, 1.1]), np.eye(2), np.eye(8), np.full((4, 4), np.nan), np.diag([1, 1, 1, np.inf])],
    ids=["non_unitary", "2x2", "8x8", "nan", "inf"],
)
def test_weyl_coordinates_raise_what_decompose_raises(bad):
    with pytest.raises(UnitarityError) as expected:
        decompose(bad)
    with pytest.raises(UnitarityError) as got:
        weyl_coordinates(bad)
    assert type(got.value) is type(expected.value)


def _makhlin_invariants(u):
    """Makhlin's local invariants G1, G2 (Quantum Inf. Process. 1, 243, 2002)."""
    ub = canonical.MAGIC_H @ u @ canonical.MAGIC
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    return tr**2 / (16 * det), (tr**2 - np.trace(m @ m)) / (4 * det)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(SEEDS)
def test_weyl_coordinates_keep_the_makhlin_invariants(seed):
    u = random_unitary(4, seed)
    g_u = _makhlin_invariants(u)
    g_weyl = _makhlin_invariants(canonical_gate(weyl_coordinates(u)))
    assert max(abs(a - b) for a, b in zip(g_u, g_weyl)) <= 1e-10


@pytest.mark.parametrize("shift, raises", [(1e-6, True), (1e-10, False)])
def test_weyl_coordinates_certify_the_spectrum_match(monkeypatch, shift, raises):
    # alpha reads only the first three eigenvalues, so turning the fourth
    # moves the spectrum away from the chamber spectrum by about ``shift``.
    extract = canonical._orthogonal_eigenbasis

    def turned(m):
        basis, eigvals, *rest = extract(m)
        return basis, eigvals * np.exp([0, 0, 0, 1j * shift]), *rest

    monkeypatch.setattr(canonical, "_orthogonal_eigenbasis", turned)
    u = random_unitary(4, 7)
    if raises:
        with pytest.raises(DecompositionError, match="chamber spectrum") as err:
            weyl_coordinates(u)
        assert err.value.residual > canonical.RECONSTRUCTION_ATOL
    else:
        weyl_coordinates(u)


def _argmin_match_columns(eigvals, target):
    """The argmin loop that ``_match_columns`` replaced, kept verbatim as its reference."""
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


# Few distinct points make exact ties in the distances common.
_UNIT_POINTS = st.sampled_from([1, 1j, -1, -1j, (1 + 1j) / math.sqrt(2)])
_UNIT_ANGLES = st.floats(-math.pi, math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))
_SPECTRA = st.lists(st.one_of(_UNIT_POINTS, _UNIT_ANGLES), min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=complex)
)
_ALL_EQUAL = np.ones(4, dtype=complex)
_REPEATED = np.array([1, 1, -1, -1], dtype=complex)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_SPECTRA, st.one_of(st.none(), _SPECTRA))
@example(_ALL_EQUAL, None)
@example(_ALL_EQUAL, _ALL_EQUAL * 1j)
@example(_REPEATED, None)
@example(_REPEATED, _REPEATED[::-1])
@example(np.array([1, 1j, -1, -1j]), np.array([-1j, -1, 1j, 1]))
def test_match_columns_equals_the_argmin_reference(eigvals, target):
    target = eigvals if target is None else target
    for sign, (order, worst) in zip((1, -1), canonical._match_columns(eigvals, target)):
        ref_order, ref_worst = _argmin_match_columns(sign * eigvals, target)
        assert np.array_equal(order, ref_order)
        assert worst == ref_worst


def _fields(d):
    """Every value of a decomposition, as bytes."""
    return [np.asarray(x).tobytes() for x in (d.weyl, *d.pre_local, *d.post_local, d.global_phase)] + [d.diagnostics]


def test_decompose_and_weyl_coordinates_ignore_the_memory_layout():
    rng = np.random.default_rng(43)
    gates = [random_unitary(4, seed) for seed in range(20)] + [
        random_local_pair(rng) @ canonical_gate(w) @ random_local_pair(rng) for w in facet_and_edge_points()[::5]
    ]
    for u in gates:
        expected, alpha = _fields(decompose(u)), weyl_coordinates(u)
        for layout, v in memory_layouts(u).items():
            assert _fields(decompose(v)) == expected, layout
            assert weyl_coordinates(v).tobytes() == alpha.tobytes(), layout


def test_stacked_su2_factors_equal_each_split_alone():
    rng = np.random.default_rng(47)
    rotations = [np.eye(4), np.diag([1.0, -1.0, -1.0, 1.0]), np.eye(4)[[1, 0, 3, 2]]]
    for _ in range(8):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        rotations.append(q * np.sign(np.linalg.det(q)) ** np.array([0, 0, 0, 1]))  # det +1
    stack = np.array(rotations)
    a, b = canonical._su2_factors(stack)
    for s, o in enumerate(rotations):
        alone = canonical._su2_factors(stack[s : s + 1])
        assert a[s].tobytes() == alone[0][0].tobytes() and b[s].tobytes() == alone[1][0].tobytes()
        assert np.linalg.norm(tensor_product(a[s], b[s]) - MAGIC @ o @ MAGIC_H) <= 1e-12


def test_decompose_reports_its_diagnostics():
    for seed in range(50):
        u = random_unitary(4, seed)
        d = decompose(u)
        diag = d.diagnostics
        assert diag.eigenbasis_residual <= 1e-10
        assert diag.eigenbasis_mix in canonical._MIXES
        assert diag.imaginary_leak <= 1e-12
        assert diag.reconstruction_residual <= 1e-12
        assert abs(diag.reconstruction_residual - distance_up_to_phase(reconstruct(d), u)) <= 1e-14
    with pytest.raises(dataclasses.FrozenInstanceError):
        diag.imaginary_leak = 0.0
