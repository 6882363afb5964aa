"""The three benchmark workloads: seeded inputs, the timed op and its check.

Each workload exposes

* ``ops``: the list of inputs one pass runs, built from the seed;
* ``unit``: how many consecutive ops form a block that a run completes
  before it looks at the clock, so every run holds whole blocks and the
  input mix is the same in every run;
* ``run(inp)``: the timed operation, driving gatepower only through the
  public functions of its modules;
* ``check(inp, outcome)``: the untimed output check, returning ``OK``,
  ``FAILED`` (an unexpected exception) or ``WRONG`` (a returned value that
  breaks a law of the paper).

Module attributes are looked up at call time (``canonical.decompose``, not
a name bound at import), so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from gatepower import canonical, cli, linalg, oracle, power

QUARTER_PI = math.pi / 4
GRID = tuple(k / 10 for k in range(11))
CNOT_WEYL = (QUARTER_PI, 0.0, 0.0)

OK, FAILED, WRONG = "ok", "failed", "wrong"

NAMED_WEYL = {
    "identity": (0.0, 0.0, 0.0),
    "cnot": (QUARTER_PI, 0.0, 0.0),
    "cz": (QUARTER_PI, 0.0, 0.0),
    "swap": (QUARTER_PI, QUARTER_PI, QUARTER_PI),
    "iswap": (QUARTER_PI, QUARTER_PI, 0.0),
    # sqrt(SWAP) is i on the singlet: U_d(-pi/8, -pi/8, -pi/8), which the
    # chamber folds to (pi/8, pi/8, -pi/8); (pi/8, pi/8, pi/8) is its inverse.
    "sqrtswap": (math.pi / 8, math.pi / 8, -math.pi / 8),
}


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _local_pair(rng: np.random.Generator) -> np.ndarray:
    """Random A (x) B with A, B Haar in U(2)."""
    return linalg.tensor_product(
        linalg.random_unitary(2, _subseed(rng)), linalg.random_unitary(2, _subseed(rng))
    )


def facet_and_edge_points() -> list[tuple[float, float, float]]:
    """Chamber facets, edges and vertices, where eigenphases are degenerate."""
    pts = []
    for t in np.linspace(0.01, QUARTER_PI - 0.01, 9):
        t = float(t)
        pts += [
            (t, t, t),
            (t, t, -t),
            (t, t, 0.0),
            (t, 0.0, 0.0),
            (QUARTER_PI, t, 0.0),
            (QUARTER_PI, t, t),
            (QUARTER_PI, t, -t),
            (QUARTER_PI, QUARTER_PI, t),
            (t, t / 2, t / 2),
            (t, t / 2, -t / 2),
        ]
    pts += [
        (0.0, 0.0, 0.0),
        (QUARTER_PI, 0.0, 0.0),
        (QUARTER_PI, QUARTER_PI, 0.0),
        (QUARTER_PI, QUARTER_PI, QUARTER_PI),
        (QUARTER_PI, QUARTER_PI, -QUARTER_PI),
    ]
    return pts


def _chamber_representative(p) -> tuple[float, float, float]:
    """At a1 = pi/4 the chamber identifies +-a3; decompose picks a3 >= 0."""
    a1, a2, a3 = p
    return (a1, a2, abs(a3)) if abs(a1 - QUARTER_PI) < 1e-12 else (a1, a2, a3)


# ---------------------------------------------------------------- classify


class Classify:
    """Bulk library path: one gate through decompose and every power function.

    A block of 100 ops holds 76 Haar gates, 16 dressed facet/edge gates,
    the six named gates, one non-unitary and one non-finite matrix, in a
    seeded order.  Malformed input must raise ``UnitarityError``.
    """

    unit = 100
    BLOCKS = 40
    HAAR, BOUNDARY = 76, 16

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        points = facet_and_edge_points()
        self.ops = []
        for block in range(self.BLOCKS):
            items = []
            for _ in range(self.HAAR):
                items.append(("haar", linalg.random_unitary(4, _subseed(rng)), None))
            for k in rng.choice(len(points), self.BOUNDARY, replace=False):
                p = points[int(k)]
                u = _local_pair(rng) @ canonical.canonical_gate(p) @ _local_pair(rng)
                items.append(("boundary", u, _chamber_representative(p)))
            for name, weyl in NAMED_WEYL.items():
                items.append(("named", cli.named_gate(name), weyl))
            bad = linalg.random_unitary(4, _subseed(rng))
            bad[int(rng.integers(4)), int(rng.integers(4))] += 1e-3
            items.append(("non_unitary", bad, None))
            odd = linalg.random_unitary(4, _subseed(rng))
            odd[int(rng.integers(4)), int(rng.integers(4))] = np.nan if block % 2 else np.inf
            items.append(("non_finite", odd, None))
            self.ops += [items[int(i)] for i in rng.permutation(len(items))]

    @staticmethod
    def run(inp):
        _, u, _ = inp
        d = canonical.decompose(u)
        w = d.weyl
        intervals = [power.power_interval(w, c0) for c0 in GRID]
        return d, intervals, power.c0_max(w), power.c1_min(w), power.compare_gates(w, CNOT_WEYL)

    @staticmethod
    def check(inp, outcome) -> str:
        kind, u, expect = inp
        value, exc = outcome
        if kind in ("non_unitary", "non_finite"):
            if exc is None:
                return WRONG
            return OK if isinstance(exc, linalg.UnitarityError) else FAILED
        if exc is not None:
            return FAILED
        d, intervals, cmax0, cmin1, relation = value
        w = d.weyl
        laws = (
            linalg.distance_up_to_phase(canonical.reconstruct(d), u) <= 1e-8,
            canonical.in_weyl_chamber(w),
            expect is None or np.allclose(w, expect, rtol=0.0, atol=1e-9),
            all(iv.c_min <= c0 <= iv.c_max for c0, iv in zip(GRID, intervals)),
            abs(cmax0 - intervals[0].c_max) <= 1e-12,
            abs(cmin1 - intervals[-1].c_min) <= 1e-12,
            # Nothing exceeds the CNOT class; only saturating gates equal it.
            relation
            is (power.GateOrdering.EQUAL if power.saturation_condition(w) else power.GateOrdering.LESS),
        )
        return OK if all(laws) else WRONG


# ------------------------------------------------------------------ verify


# Verify gates are anchors jittered by the seed: a profile's cost depends
# strongly on where the gate sits (a near-identity gate anywhere in
# [0, 0.03]^3 took 4 to 13 s), so free draws would make the run-to-run
# spread a property of the seed rather than of the code.
JITTER = 0.02


def _near_identity(rng):
    return rng.uniform(0.023, 0.027) * np.array([1.0, 0.6, 0.25])


def _generic(rng):
    """Interior, not saturating: a1 + a2 < pi/4."""
    return np.array([0.45, 0.25, 0.10]) + rng.uniform(-JITTER, JITTER, 3)


def _saturating(rng):
    """theta = pi/2: a1 + a2 > pi/4 and a2 + |a3| < pi/4."""
    return np.array([0.65, 0.40, 0.05]) + rng.uniform(-JITTER, JITTER, 3)


def _boundary(rng):
    """On the a1 = pi/4 facet with a2 = a3: two equal eigenphases."""
    t = 0.4 + rng.uniform(-JITTER, JITTER)
    return np.array([QUARTER_PI, t, t])


class Verify:
    """Oracle path: ``verify_profile`` at one point of the 11-point grid per op.

    A round of 44 ops runs the whole grid, special branches c0 = 0 and 1
    included, for each of four gates: a generic interior gate, a
    near-identity gate, a saturating gate (theta = pi/2) and a gate on the
    a1 = pi/4 facet with degenerate eigenphases.  So a round is the work
    of four 11-point profiles, 64 starts each.  Whole profiles (~3 s each,
    eight per run) spread 0.13 over ten seeds on both gated times: too few
    ops, and too long for the speed probe between them to follow the host.
    """

    unit = 4 * len(GRID)
    ROUNDS = 8
    KINDS = (("generic", _generic), ("near_identity", _near_identity),
             ("saturating", _saturating), ("boundary", _boundary))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for _ in range(self.ROUNDS):
            for kind, make in self.KINDS:
                alpha = make(rng)
                self.ops += [(kind, alpha, c0, int(rng.integers(0, 2**20))) for c0 in GRID]

    @staticmethod
    def run(inp):
        _, alpha, c0, cfg_seed = inp
        return oracle.verify_profile(alpha, (c0,), oracle.OptimizerConfig(seed=cfg_seed), tol=1e-3)

    @staticmethod
    def check(inp, outcome) -> str:
        report, exc = outcome
        if exc is not None:
            return FAILED
        return OK if report.passed and len(report.rows) == 1 else WRONG

    @staticmethod
    def same(a, b) -> bool:
        """Two reports of one input and seed must be identical."""
        return np.array_equal(a.alpha, b.alpha) and a.tol == b.tol and a.rows == b.rows


# --------------------------------------------------------------------- cli


def _angle(rng) -> str:
    """A radian value written as a pi expression such as '3pi/8' or '-pi/5'."""
    num = int(rng.integers(1, 4))
    den = int(rng.integers(2, 17))
    sign = "-" if rng.random() < 0.25 else ""
    return f"{sign}{'' if num == 1 else num}pi/{den}"


def _write_gate(path: str, name: str, m: np.ndarray) -> None:
    doc = {"name": name, "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Cli:
    """Front end: one in-process ``gatepower.cli.main(argv)`` call per op.

    A pass holds 200 argv lists over ``decompose --json``, ``power``,
    ``curve`` and ``compare``; gate specs are named tokens, ``canonical:``
    and ``cphase:`` tokens with pi expressions and JSON gate files written
    here.  Ten of the 200 are invalid and must exit with code 2.
    """

    unit = 200
    VALID = 190

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        gate_dir = os.path.join(workdir, f"gates-{seed}")
        os.makedirs(gate_dir, exist_ok=True)
        specs = list(NAMED_WEYL)
        for k in range(20):
            path = os.path.join(gate_dir, f"haar{k}.json")
            u = _local_pair(rng) @ linalg.random_unitary(4, _subseed(rng))
            _write_gate(path, f"haar{k}", u)
            specs.append(path)
        for _ in range(10):
            specs.append(f"canonical:{_angle(rng)},{_angle(rng)},{_angle(rng)}")
            specs.append(f"cphase:{_angle(rng)}")
        non_unitary = os.path.join(gate_dir, "non_unitary.json")
        _write_gate(non_unitary, "non_unitary", 1.01 * linalg.random_unitary(4, _subseed(rng)))
        non_finite = linalg.random_unitary(4, _subseed(rng))
        non_finite[0, 0] = np.nan
        nan_path = os.path.join(gate_dir, "non_finite.json")
        _write_gate(nan_path, "non_finite", non_finite)

        def pick():
            return specs[int(rng.integers(len(specs)))]

        ops = []
        for k in range(self.VALID):
            form = k % 4
            if form == 0:
                argv = ["decompose", "--gate", pick(), "--json"]
            elif form == 1:
                argv = ["power", "--gate", pick(), "--c0", f"{rng.uniform(0, 1):.3f}"]
            elif form == 2:
                argv = ["curve", "--gate", pick()]
            else:
                argv = ["compare", "--gate-a", pick(), "--gate-b", pick()]
            if rng.random() < 0.2:
                argv.append("--degrees")
            ops.append((argv, 0))
        invalid = [
            ["power", "--gate", "cnott", "--c0", "0.5"],
            ["decompose", "--gate", "canonical:pi/x,0,0"],
            ["decompose", "--gate", "canonical:pi/4,0"],
            ["curve", "--gate", "cphase:pi/2", "--steps", "1"],
            ["power", "--gate", "iswap", "--c0", "1.5"],
            ["compare", "--gate-a", non_unitary, "--gate-b", "cnot"],
            ["decompose", "--gate", os.path.join(gate_dir, "missing.json")],
            ["power", "--gate", nan_path, "--c0", "0.5"],
            ["curve", "--gate"],
            ["frobnicate", "--gate", "cnot"],
        ]
        ops += [(argv, 2) for argv in invalid]
        self.ops = [ops[int(i)] for i in rng.permutation(len(ops))]
        self.reference: dict[tuple, str] = {}

    @staticmethod
    def run(inp):
        argv, _ = inp
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(self, inp, outcome) -> str:
        value, exc = outcome
        if exc is not None:
            return FAILED
        code, stdout = value
        argv, expect = inp
        if code != expect or (expect == 2 and stdout):
            return WRONG
        key = tuple(argv)
        if key in self.reference:
            return OK if self.reference[key] == stdout else WRONG
        self.reference[key] = stdout
        if expect == 0 and argv[0] == "decompose":
            doc = json.loads(stdout)
            if not (doc["reconstruction_residual"] <= 1e-8 and canonical.in_weyl_chamber(doc["alpha"])):
                return WRONG
        return OK


def make(name: str, seed: int, workdir: str):
    if name == "classify":
        return Classify(seed)
    if name == "verify":
        return Verify(seed)
    if name == "cli":
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
