"""Command-line interface.

Subcommands:
    decompose   canonical coordinates, eigenphases and local factors
    power       reachable concurrence interval for a given input concurrence
    curve       CSV of the interval over a c0 grid, optionally oracle-checked
    compare     order two gates by their entanglement changing power
    verify      closed form versus oracle report over a c0 grid

Gates are named tokens (identity, cnot, cz, swap, iswap, sqrtswap),
parametrized tokens (cphase:<radians>, canonical:<a1>,<a2>,<a3>) or paths
to JSON files of the form {"matrix": [[[re, im], ...], ...]}.

Only ``decompose`` builds local factors; ``power``, ``curve``, ``compare``
and ``verify`` read the chamber coordinates alone (``weyl_coordinates``) and
take the effective angle theta once per gate.  ``decompose`` formats only
what it prints: the JSON document under ``--json``, else the human lines.

Exit codes: 0 success, 1 verification failure, 2 input error.

``main`` can be called repeatedly in one process.  It builds its argument
parser on the first call and reuses it afterwards; output goes to the
``sys.stdout`` and ``sys.stderr`` of each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .canonical import (
    DecompositionError,
    canonical_gate,
    decompose,
    eigen_phases,
    weyl_coordinates,
)
from .oracle import verify_profile
from .power import _interval, _order, _reaches_max, _reaches_zero, effective_angle, power_profile
from .states import _concurrence

__all__ = ["main", "resolve_gate", "named_gate"]

_NAMED_GATES = {
    "identity": np.eye(4, dtype=complex),
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "sqrtswap": np.array(
        [
            [1, 0, 0, 0],
            [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
            [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    ),
}

# curve --steps and verify --grid build their grid in memory before any output.
_MAX_GRID_POINTS = 1_000_000
_ANGLE_RE = re.compile(r"^(-?)(\d+(?:\.\d*)?|\.\d+)?\s*(pi|π)?(?:/(\d+(?:\.\d*)?))?$")


class GateInputError(ValueError):
    """Unresolvable or invalid gate specification."""


def _parse_angle(text: str) -> float:
    """Parse a radian value such as '0.5', '1e-3', 'pi/8', '3pi/4' or '-pi'."""
    text = text.strip().lower()
    try:
        return float(text)
    except ValueError:
        pass
    m = _ANGLE_RE.match(text)
    if not m or (m.group(2) is None and m.group(3) is None):
        raise GateInputError(f"cannot parse angle {text!r}")
    sign = -1.0 if m.group(1) else 1.0
    value = float(m.group(2)) if m.group(2) else 1.0
    if m.group(3):
        value *= math.pi
    if m.group(4):
        if float(m.group(4)) == 0.0:
            raise GateInputError(f"zero denominator in angle {text!r}")
        value /= float(m.group(4))
    return sign * value


def _load_gate_file(path: str) -> tuple[str, np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GateInputError(f"cannot read gate file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GateInputError(f"gate file {path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer of more than 4300 digits, or bytes that are not UTF-8
        raise GateInputError(f"gate file {path!r}: {exc}") from exc
    try:
        rows = doc["matrix"]
        matrix = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows], dtype=complex
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise GateInputError(
            f"gate file {path!r} must contain \"matrix\": 4x4 nested [re, im] pairs"
        ) from exc
    except OverflowError as exc:  # an integer entry beyond the float range
        raise GateInputError(f"gate file {path!r}: {exc}") from exc
    if matrix.shape != (4, 4):
        raise GateInputError(f"gate file {path!r}: matrix has shape {matrix.shape}, expected 4x4")
    return str(doc.get("name", path)), matrix


def named_gate(token: str) -> np.ndarray:
    """Resolve a registry token to its unitary matrix."""
    if token in _NAMED_GATES:
        return _NAMED_GATES[token].copy()
    if token.startswith("cphase:"):
        theta = _parse_angle(token.split(":", 1)[1])
        if not math.isfinite(theta):
            raise GateInputError(f"cphase angle must be finite, got {theta}")
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(complex)
    if token.startswith("canonical:"):
        parts = token.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise GateInputError("canonical gate needs three comma-separated angles")
        return canonical_gate([_parse_angle(p) for p in parts])
    raise GateInputError(f"unknown gate token {token!r}")


def resolve_gate(spec: str) -> tuple[str, np.ndarray]:
    """Resolve a gate spec (token or JSON file path) to (name, matrix).

    Registry names and ``cphase:``/``canonical:`` tokens are tokens even when
    a file of that name exists; any other spec is a gate file if it has a
    "/", ends in ".json" or names an existing file.  The matrix is not
    checked for unitarity here: every subcommand passes it to
    :func:`decompose` or :func:`weyl_coordinates`, which reject matrices
    that are not unitary to 1e-10 with a :class:`UnitarityError`.

    Raises:
        GateInputError: on unknown tokens or unreadable files.
    """
    if spec in _NAMED_GATES or spec.startswith(("cphase:", "canonical:")) or not (
        "/" in spec or spec.endswith(".json") or os.path.exists(spec)
    ):
        return spec, named_gate(spec)
    return _load_gate_file(spec)


def _weyl(spec: str) -> tuple[str, np.ndarray]:
    """Resolve a gate spec to its name and Weyl chamber coordinates."""
    name, matrix = resolve_gate(spec)
    return name, weyl_coordinates(matrix)


def _fmt(x: float, degrees: bool = False) -> str:
    if degrees:
        x = math.degrees(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def _emit(doc: dict | None, json_flag: bool, human_lines: list[str], file=None) -> None:
    """Print ``doc`` as JSON or the human lines to ``file`` (stdout if None)."""
    print(json.dumps(doc, indent=2, sort_keys=True) if json_flag else "\n".join(human_lines), file=file)


def _verdict(failures: list[str]) -> int:
    """Exit code of a verification: 1 with its failure causes on stderr, 0 if none."""
    if failures:
        print("verification failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_decompose(args) -> int:
    name, matrix = resolve_gate(args.gate)
    d = decompose(matrix)
    alpha, lam = d.weyl.tolist(), eigen_phases(d.weyl).tolist()
    if args.json:
        doc = {"gate": name, "alpha": alpha, "lambda": lam, "global_phase": d.global_phase, **vars(d.diagnostics)}
        for label, pair in (("pre_local", d.pre_local), ("post_local", d.post_local)):
            doc[label] = [[[[z.real, z.imag] for z in row] for row in m.tolist()] for m in pair]
        _emit(doc, True, [])
        return 0
    deg = args.degrees
    lines = [
        f"gate: {name}",
        "alpha: " + " ".join(_fmt(a, deg) for a in alpha),
        "lambda: " + " ".join(_fmt(x, deg) for x in lam),
        f"global_phase: {_fmt(d.global_phase, deg)}",
    ]
    for label, pair in (("pre", d.pre_local), ("post", d.post_local)):
        for qubit, m in zip("ab", pair):
            lines.append(f"{label}_local_{qubit}:")
            lines += ["  " + "  ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in row) for row in m.tolist()]
    lines.append(f"reconstruction_residual: {d.diagnostics.reconstruction_residual:.3e}")
    _emit(None, False, lines)
    return 0


def _cmd_power(args) -> int:
    name, alpha = _weyl(args.gate)
    c0, theta = _concurrence(args.c0), effective_angle(alpha)
    interval = _interval(c0, theta)
    doc = {
        "gate": name,
        "alpha": alpha.tolist(),
        "c0": args.c0,
        "c_min": interval.c_min,
        "c_max": interval.c_max,
        "c0_max": _interval(0.0, theta).c_max,
        "c1_min": _interval(1.0, theta).c_min,
        "can_reach_max": _reaches_max(c0, theta),
        "can_reach_zero": _reaches_zero(c0, theta),
    }
    lines = [
        f"gate: {name}",
        "alpha: " + " ".join(_fmt(a, args.degrees) for a in alpha),
        f"c0: {_fmt(args.c0)}",
        f"c_min: {_fmt(interval.c_min)}",
        f"c_max: {_fmt(interval.c_max)}",
        f"c0_max: {_fmt(doc['c0_max'])}",
        f"c1_min: {_fmt(doc['c1_min'])}",
        f"can_reach_max: {str(doc['can_reach_max']).lower()}",
        f"can_reach_zero: {str(doc['can_reach_zero']).lower()}",
    ]
    _emit(doc, args.json, lines)
    return 0


def _grid(points: int, flag: str) -> list[float]:
    """``points`` evenly spaced c0 in [0, 1]; ``flag`` names the option in errors."""
    if not 2 <= points <= _MAX_GRID_POINTS:
        raise GateInputError(f"{flag} must be in [2, {_MAX_GRID_POINTS}], got {points}")
    return [k / (points - 1) for k in range(points)]


def _cmd_curve(args) -> int:
    name, alpha = _weyl(args.gate)
    grid = _grid(args.steps, "--steps")
    columns = ["c0", "c_min", "c_max"]
    failures = []
    if args.verify:
        columns += ["oracle_min", "oracle_max"]
        report = verify_profile(alpha, grid)
        table = [[r.c0, r.closed_min, r.closed_max, r.oracle_min, r.oracle_max] for r in report.rows]
        failures = report.failures
    else:
        table = [[c0, *interval] for c0, interval in zip(grid, power_profile(alpha, grid))]
    lines = [",".join(columns)] + [",".join(_fmt(x) for x in row) for row in table]
    doc = {"gate": name, "columns": columns, "rows": table, "passed": not failures}
    if args.out in (None, "-"):
        _emit(doc, args.json, lines)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                _emit(doc, args.json, lines, fh)
        except OSError as exc:
            raise GateInputError(f"cannot write {args.out!r}: {exc}") from exc
    return _verdict(failures)


def _cmd_compare(args) -> int:
    name_a, alpha_a = _weyl(args.gate_a)
    name_b, alpha_b = _weyl(args.gate_b)
    theta_a, theta_b = effective_angle(alpha_a), effective_angle(alpha_b)
    relation = _order(theta_a, theta_b)
    doc = {
        "a": name_a,
        "b": name_b,
        "relation": relation.value,
        "theta_a": theta_a,
        "theta_b": theta_b,
    }
    lines = [
        f"{name_a} {relation.value} {name_b}",
        f"theta_a: {_fmt(theta_a, args.degrees)}",
        f"theta_b: {_fmt(theta_b, args.degrees)}",
    ]
    _emit(doc, args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    name, alpha = _weyl(args.gate)
    report = verify_profile(alpha, _grid(args.grid, "--grid"), tol=args.tol)
    doc = {
        "gate": name,
        "alpha": [float(a) for a in alpha],
        "tol": args.tol,
        "passed": report.passed,
        "rows": [vars(r) for r in report.rows],
    }
    lines = [
        f"gate: {name}",
        "alpha: " + " ".join(_fmt(a, args.degrees) for a in alpha),
        "c0,closed_min,closed_max,oracle_min,oracle_max,max_dev,status",
    ]
    for r in report.rows:
        lines.append(
            f"{_fmt(r.c0)},{_fmt(r.closed_min)},{_fmt(r.closed_max)},{_fmt(r.oracle_min)},"
            f"{_fmt(r.oracle_max)},{max(r.deviation_min, r.deviation_max):.3e},"
            f"{'PASS' if r.passed else 'FAIL'}"
        )
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    _emit(doc, args.json, lines)
    return _verdict(report.failures)


# One build per process: parse_args leaves the parser unchanged, and argparse
# looks up sys.stdout/sys.stderr when it writes, not when it is built.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatepower",
        description="Canonical coordinates and entanglement changing power of two-qubit gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit a single JSON document")
        p.add_argument("--degrees", action="store_true", help="display angles in degrees")

    p = sub.add_parser("decompose", help="canonical decomposition of a gate")
    p.add_argument("--gate", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("power", help="reachable concurrence interval")
    p.add_argument("--gate", required=True)
    p.add_argument(
        "--c0", type=float, required=True, help="input concurrence in [0, 1]; write -5e-13 as --c0=-5e-13"
    )
    add_common(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("curve", help="CSV of the interval over a c0 grid")
    p.add_argument("--gate", required=True)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--out", default=None, help="output file, '-' for stdout")
    p.add_argument("--verify", action="store_true", help="add oracle columns, exit 1 on mismatch")
    add_common(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("compare", help="order two gates by power")
    p.add_argument("--gate-a", required=True)
    p.add_argument("--gate-b", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="closed form vs oracle report")
    p.add_argument("--gate", required=True)
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--tol", type=float, default=1e-3)
    add_common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
