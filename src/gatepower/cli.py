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
take the effective angle theta once per gate.  Every command builds only
what it prints: under ``--json`` one document, written byte for byte as
``json.dumps(doc, indent=2, sort_keys=True)`` would write it but without
json's pure-Python indent path; else the human lines.

Exit codes: 0 success, 1 verification failure, 2 input error.

``main`` can be called repeatedly in one process: it builds its argument
parsers once and writes to the ``sys.stdout`` and ``sys.stderr`` of each
call.  An argv whose first word names a command is parsed once, by that
command's parser; any other argv (empty, ``-h``, an unknown command) goes
to the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .canonical import DecompositionError, canonical_gate, decompose, eigen_phases, weyl_coordinates
from .oracle import verify_profile
from .power import _interval, _order, _reaches_max, _reaches_zero, effective_angle, power_profile
from .states import _concurrence

__all__ = ["main", "resolve_gate", "named_gate"]

_NAMED_GATES = {
    "identity": np.eye(4, dtype=complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "iswap": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex),
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


def _entry(pair) -> complex:
    """A gate-file entry: exactly two JSON numbers (bools are not numbers)."""
    re_, im = pair
    if type(re_) not in (int, float) or type(im) not in (int, float):
        raise TypeError(f"entry {pair!r} is not two numbers")
    return complex(re_, im)


def _load_gate_file(path: str) -> tuple[str, np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GateInputError(f"cannot read gate file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GateInputError(f"gate file {path!r} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past 4300 digits, not UTF-8, nested too deep
        raise GateInputError(f"gate file {path!r}: {exc}") from exc
    try:
        rows = doc["matrix"]
        matrix = np.array([[_entry(pair) for pair in row] for row in rows], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise GateInputError(f'gate file {path!r} must contain "matrix": 4x4 nested [re, im] pairs') from exc
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


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for str keys: finite floats by
    ``float.__repr__``, keys and other scalars by json's C encoder."""
    parts = []
    _json_parts(doc, "\n", parts.append)
    return "".join(parts)


def _json_parts(obj, indent: str, put) -> None:
    if isinstance(obj, float) and math.isfinite(obj):
        put(float.__repr__(obj))
    elif isinstance(obj, dict) and obj:
        inner, sep = indent + "  ", "{"
        for key in sorted(obj):
            put(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _json_parts(obj[key], inner, put)
            sep = ","
        put(indent + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner, sep = indent + "  ", "["
        for item in obj:
            put(sep + inner)
            _json_parts(item, inner, put)
            sep = ","
        put(indent + "]")
    else:
        put(json.dumps(obj))


def _emit(out: dict | list[str], file=None) -> None:
    """Print a JSON document (a dict) or human lines to ``file`` (stdout if None)."""
    print(_json_text(out) if isinstance(out, dict) else "\n".join(out), file=file)


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
        _emit(doc)
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
    _emit(lines)
    return 0


def _cmd_power(args) -> int:
    name, alpha = _weyl(args.gate)
    c0, theta = _concurrence(args.c0), effective_angle(alpha)
    interval = _interval(c0, theta)
    values = {  # in the order of the human lines
        "c_min": interval.c_min,
        "c_max": interval.c_max,
        "c0_max": _interval(0.0, theta).c_max,
        "c1_min": _interval(1.0, theta).c_min,
        "can_reach_max": _reaches_max(interval),
        "can_reach_zero": _reaches_zero(interval),
    }
    if args.json:
        _emit({"gate": name, "alpha": alpha.tolist(), "c0": args.c0, **values})
        return 0
    lines = [f"gate: {name}", "alpha: " + " ".join(_fmt(a, args.degrees) for a in alpha), f"c0: {_fmt(args.c0)}"]
    lines += [f"{key}: {str(v).lower() if isinstance(v, bool) else _fmt(v)}" for key, v in values.items()]
    _emit(lines)
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
    if args.json:
        out = {"gate": name, "columns": columns, "rows": table, "passed": not failures}
    else:
        out = [",".join(columns)] + [",".join(_fmt(x) for x in row) for row in table]
    if args.out in (None, "-"):
        _emit(out)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                _emit(out, fh)
        except OSError as exc:
            raise GateInputError(f"cannot write {args.out!r}: {exc}") from exc
    return _verdict(failures)


def _cmd_compare(args) -> int:
    name_a, alpha_a = _weyl(args.gate_a)
    name_b, alpha_b = _weyl(args.gate_b)
    theta_a, theta_b = effective_angle(alpha_a), effective_angle(alpha_b)
    relation = _order(theta_a, theta_b).value
    if args.json:
        _emit({"a": name_a, "b": name_b, "relation": relation, "theta_a": theta_a, "theta_b": theta_b})
    else:
        deg = args.degrees
        _emit([f"{name_a} {relation} {name_b}", f"theta_a: {_fmt(theta_a, deg)}", f"theta_b: {_fmt(theta_b, deg)}"])
    return 0


def _cmd_verify(args) -> int:
    name, alpha = _weyl(args.gate)
    report = verify_profile(alpha, _grid(args.grid, "--grid"), tol=args.tol)
    if args.json:
        rows = [vars(r) for r in report.rows]
        _emit({"gate": name, "alpha": alpha.tolist(), "tol": args.tol, "passed": report.passed, "rows": rows})
        return _verdict(report.failures)
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
    _emit(lines)
    return _verdict(report.failures)


# One build per process: parsing leaves the parsers unchanged, and argparse
# looks up sys.stdout/sys.stderr when it writes, not when it is built.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by command name."""
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
    p.add_argument("--c0", type=float, required=True, help="input concurrence in [0, 1]; write -5e-13 as --c0=-5e-13")
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
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parse_args(argv)`` of the top-level parser, but without ``command`` and with one parse:
    the top-level parser hands every word after a command's name to that command's parser."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
