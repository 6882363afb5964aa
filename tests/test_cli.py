"""Tests for the command-line interface contract."""

import argparse
import collections
import contextlib
import dataclasses
import io
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import open_on_quadrants, shift_closed_form
from gatepower import (
    c0_max,
    c1_min,
    can_reach_max,
    can_reach_zero,
    canonical,
    cli,
    compare_gates,
    decompose,
    effective_angle,
    eigen_phases,
    power_interval,
    random_unitary,
    verify_profile,
    weyl_coordinates,
)
from gatepower.cli import main, named_gate, resolve_gate

QUARTER_PI = math.pi / 4

POWER_SWAP_GOLDEN = """\
gate: swap
alpha: 0.785398163397 0.785398163397 0.785398163397
c0: 0.3
c_min: 0.3
c_max: 0.3
c0_max: 0
c1_min: 1
can_reach_max: false
can_reach_zero: false
"""

CURVE_IDENTITY_GOLDEN = """\
c0,c_min,c_max
0,0,0
0.5,0.5,0.5
1,1,1
"""

CURVE_CNOT_GOLDEN = """\
c0,c_min,c_max
0,0,1
1,0,1
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_registry_entries_are_unitary():
    for token in ("identity", "cnot", "cz", "swap", "iswap", "sqrtswap"):
        m = named_gate(token)
        assert np.linalg.norm(m.conj().T @ m - np.eye(4)) <= 1e-14


def test_registry_cphase_and_canonical_tokens():
    m = named_gate("cphase:1.0")
    np.testing.assert_allclose(m, np.diag([1, 1, 1, np.exp(1j)]), atol=1e-15)
    c = named_gate("canonical:pi/8,0,0")
    assert np.linalg.norm(c.conj().T @ c - np.eye(4)) <= 1e-13


ISWAP_DOC = {"name": "from-file", "matrix": [[[z.real, z.imag] for z in row] for row in named_gate("iswap")]}


@pytest.mark.parametrize(
    "spec, expect",
    [
        ("cnot", "cnot"),
        ("cphase:pi/4", "cphase:pi/4"),
        ("canonical:pi/8,0,0", "canonical:pi/8,0,0"),
        ("mygate", "from-file"),  # an existing file without ".json"
        ("swap", "swap"),  # a file of a registry name: the token wins
        ("cphase:inf", "cphase angle must be finite"),  # a file of that name exists
        ("cphase:pi/x", "cannot parse angle"),
        ("nonsense", "unknown gate token"),
        ("x/y.json", "cannot read gate file"),
        ("nosuch.json", "cannot read gate file"),
    ],
)
def test_resolve_gate_routes_tokens_and_files(tmp_path, monkeypatch, spec, expect):
    for name in ("mygate", "swap", "cphase:inf"):
        (tmp_path / name).write_text(json.dumps(ISWAP_DOC))
    monkeypatch.chdir(tmp_path)
    if expect in ("from-file", spec):
        name, matrix = resolve_gate(spec)
        assert name == expect
        np.testing.assert_array_equal(matrix, named_gate("iswap" if expect == "from-file" else spec))
    else:
        with pytest.raises(cli.GateInputError, match=re.escape(expect)):
            resolve_gate(spec)


def test_power_swap_golden(capsys):
    code, out, _ = run(capsys, ["power", "--gate", "swap", "--c0", "0.3"])
    assert code == 0
    assert out == POWER_SWAP_GOLDEN


def test_curve_identity_golden(capsys):
    code, out, _ = run(capsys, ["curve", "--gate", "identity", "--steps", "3"])
    assert code == 0
    assert out == CURVE_IDENTITY_GOLDEN


def test_curve_cnot_golden(capsys):
    code, out, _ = run(capsys, ["curve", "--gate", "cnot", "--steps", "2"])
    assert code == 0
    assert out == CURVE_CNOT_GOLDEN


def test_decompose_cnot_json(capsys):
    code, out, _ = run(capsys, ["decompose", "--gate", "cnot", "--json"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["alpha"], [QUARTER_PI, 0, 0], atol=1e-9)
    lam = sorted(doc["lambda"])
    np.testing.assert_allclose(lam, [-QUARTER_PI, -QUARTER_PI, QUARTER_PI, QUARTER_PI], atol=1e-9)
    assert doc["reconstruction_residual"] <= 1e-8
    assert doc["gate"] == "cnot"
    # locals in the document rebuild the gate
    pre = [np.array([[complex(*e) for e in row] for row in m]) for m in doc["pre_local"]]
    post = [np.array([[complex(*e) for e in row] for row in m]) for m in doc["post_local"]]
    from gatepower import canonical_gate, distance_up_to_phase, tensor_product

    rebuilt = (
        np.exp(1j * doc["global_phase"])
        * tensor_product(*post)
        @ canonical_gate(doc["alpha"])
        @ tensor_product(*pre)
    )
    assert distance_up_to_phase(rebuilt, named_gate("cnot")) <= 1e-8


def test_decompose_json_prints_the_diagnostics(capsys):
    code, out, _ = run(capsys, ["decompose", "--gate", "iswap", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["eigenbasis_residual"] <= 1e-10 and doc["eigenbasis_mix"] in canonical._MIXES
    assert doc["imaginary_leak"] <= 1e-12 and doc["reconstruction_residual"] <= 1e-12
    assert doc["reconstruction_residual"] == decompose(named_gate("iswap")).diagnostics.reconstruction_residual


def test_decompose_identity(capsys):
    code, out, _ = run(capsys, ["decompose", "--gate", "identity", "--json"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["alpha"], [0, 0, 0], atol=1e-12)


def test_decompose_swap(capsys):
    code, out, _ = run(capsys, ["decompose", "--gate", "swap", "--json"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["alpha"], [QUARTER_PI] * 3, atol=1e-9)


def test_decompose_degrees_display(capsys):
    code, out, _ = run(capsys, ["decompose", "--gate", "swap", "--degrees"])
    assert code == 0
    assert out.splitlines()[1] == "alpha: 45 45 45"


def test_power_cnot(capsys):
    code, out, _ = run(capsys, ["power", "--gate", "cnot", "--c0", "0.3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["c_min"] == 0.0
    assert doc["c_max"] == 1.0
    assert doc["can_reach_max"] is True and doc["can_reach_zero"] is True


def test_power_just_below_half_pi_cannot_reach_zero_from_a_bell_state(capsys):
    code, out, _ = run(capsys, ["power", "--gate", "canonical:0.7853976633974483,0,0", "--c0", "1"])
    assert code == 0
    lines = out.splitlines()
    assert "c_min: 1.00000000042e-06" in lines and "can_reach_zero: false" in lines and "can_reach_max: true" in lines


def test_power_canonical_token(capsys):
    code, out, _ = run(capsys, ["power", "--gate", "canonical:0.392699,0,0", "--c0", "0", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["c_max"] - math.sin(QUARTER_PI)) <= 1e-5


def test_compare_swap_cnot(capsys):
    code, out, _ = run(capsys, ["compare", "--gate-a", "swap", "--gate-b", "cnot"])
    assert code == 0
    assert out.splitlines()[0] == "swap < cnot"


def test_compare_cnot_sqrtswap(capsys):
    code, out, _ = run(capsys, ["compare", "--gate-a", "cnot", "--gate-b", "sqrtswap"])
    assert code == 0
    assert out.splitlines()[0] == "cnot = sqrtswap"


def test_compare_cphase_order(capsys):
    code, out, _ = run(capsys, ["compare", "--gate-a", "cphase:1.0", "--gate-b", "cphase:2.0", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "<"
    assert abs(doc["theta_a"] - 0.5) <= 1e-9
    assert abs(doc["theta_b"] - 1.0) <= 1e-9


def test_cphase_coordinates_via_decompose(capsys):
    for theta in (0.5, 1.0, math.pi):
        code, out, _ = run(capsys, ["decompose", "--gate", f"cphase:{theta}", "--json"])
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["alpha"], [theta / 4, 0, 0], atol=1e-9)


def test_curve_writes_file(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(capsys, ["curve", "--gate", "swap", "--steps", "5", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "c0,c_min,c_max"
    assert len(lines) == 6
    assert lines[2] == "0.25,0.25,0.25"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_curve_file_holds_what_stdout_would_print(tmp_path, capsys, flags):
    argv = ["curve", "--gate", "cnot", "--steps", "3", *flags]
    _, printed, _ = run(capsys, argv)
    out_path = tmp_path / "curve.out"
    code, out, _ = run(capsys, [*argv, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert out_path.read_bytes() == printed.encode()


def test_curve_verify_adds_oracle_columns(capsys):
    code, out, _ = run(
        capsys,
        ["curve", "--gate", "canonical:pi/8,0,0", "--steps", "3", "--verify"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c0,c_min,c_max,oracle_min,oracle_max"
    first = lines[1].split(",")
    assert abs(float(first[4]) - math.sin(QUARTER_PI)) <= 1e-3


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", "--gate", "swap", "--grid", "5", "--tol", "1e-6"])
    assert code == 0
    assert out.rstrip().endswith("overall: PASS")


def test_verify_reports_are_byte_identical_per_seed(capsys):
    argv = ["verify", "--gate", "cphase:0.8", "--grid", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_fail_exits_one(capsys, shifted_closed_form):
    code, out, _ = run(capsys, ["verify", "--gate", "swap", "--grid", "3", "--tol", "1e-18"])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--gate", "cnot", "--grid", "3", "--starts", "8"],
        ["curve", "--gate", "cnot", "--steps", "3", "--seed", "5"],
    ],
)
def test_retired_starts_and_seed_flags_are_rejected(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    # A command's leftover words are reported by the top-level parser, as parse_args reports them.
    assert err.splitlines()[0] == "usage: gatepower [-h] {decompose,power,curve,compare,verify} ..."
    assert "unrecognized arguments" in err


def test_curve_json(capsys):
    code, out, _ = run(capsys, ["curve", "--gate", "cnot", "--steps", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["c0", "c_min", "c_max"]
    assert doc["rows"] == [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]
    assert doc["passed"] is True


def test_verify_json_rows_are_profile_rows(capsys):
    code, out, _ = run(capsys, ["verify", "--gate", "cphase:0.8", "--grid", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    report = verify_profile(decompose(named_gate("cphase:0.8")).weyl, [0.0, 0.5, 1.0])
    assert doc["rows"] == [dataclasses.asdict(r) for r in report.rows]
    assert doc["passed"] is True


def test_curve_verify_failure_exits_one(capsys, shifted_closed_form):
    code, out, err = run(capsys, ["curve", "--gate", "swap", "--steps", "3", "--verify"])
    assert code == 1
    assert out.startswith("c0,c_min,c_max,oracle_min,oracle_max\n")
    assert "verification failed" in err
    # The threshold printed is the tolerance the report was checked against.
    assert err.endswith("> 1e-03\n")


def test_curve_verify_names_rows_that_did_not_converge(capsys, monkeypatch):
    # Opened on the quadrants alone, the brackets stay open while the values still match
    # the closed form: the failure is convergence, not deviation.
    open_on_quadrants(monkeypatch)
    code, _, err = run(capsys, ["curve", "--gate", "canonical:0.025,0.015,0.00625", "--steps", "3", "--verify"])
    assert code == 1
    assert err == "verification failed: 1 of 3 rows not converged\n"


@pytest.mark.parametrize("cause", ["1 of 3 rows not converged", "3 of 3 rows outside the certified bracket"])
def test_verify_and_curve_verify_print_one_cause_line(capsys, monkeypatch, cause):
    if "converged" in cause:
        open_on_quadrants(monkeypatch)
    else:
        # Below the default tol: only the certified bracket sees the shift.
        shift_closed_form(monkeypatch, 1e-6)
    for argv in (["curve", "--gate", "canonical:0.025,0.015,0.00625", "--steps", "3", "--verify"],
                 ["verify", "--gate", "canonical:0.025,0.015,0.00625", "--grid", "3"]):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err == f"verification failed: {cause}\n"


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_non_finite_tol_exits_two(capsys, tol):
    code, out, err = run(capsys, ["verify", "--gate", "swap", "--grid", "3", "--tol", tol])
    assert code == 2
    assert out == ""
    assert "tol" in err


def test_unknown_gate_exits_two(capsys):
    code, _, err = run(capsys, ["power", "--gate", "bogus", "--c0", "0.3"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("gate", ["canonical:pi/0,0,0", "cphase:0/0"])
def test_zero_denominator_angle_exits_two(capsys, gate):
    code, out, err = run(capsys, ["power", "--gate", gate, "--c0", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "denominator" in err


@pytest.mark.parametrize("gate", ["canonical:nan,0,0", "canonical:0,inf,0", "canonical:0,0,-inf"])
def test_non_finite_canonical_token_exits_two(capsys, gate):
    code, out, err = run(capsys, ["power", "--gate", gate, "--c0", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("gate", ["cphase:inf", "cphase:-inf", "cphase:1e400"])
def test_non_finite_cphase_token_exits_two_with_one_error_line(capsys, gate):
    code, out, err = run(capsys, ["power", "--gate", gate, "--c0", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cphase angle must be finite") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--gate", "canonical:pi/x,0,0", "--c0", "0.5"],
        ["power", "--gate", "canonical:0.1,0.2", "--c0", "0.5"],
        ["decompose", "--gate", "{dir}/missing.json"],
        ["decompose", "--gate", "{dir}/not_pairs.json"],
        ["decompose", "--gate", "{dir}/two_by_two.json"],
        ["curve", "--gate", "cnot", "--steps", "1"],
        ["verify", "--gate", "cnot", "--grid", "1"],
    ],
)
def test_bad_input_exits_two(tmp_path, capsys, argv):
    (tmp_path / "not_pairs.json").write_text(json.dumps({"matrix": [[1, 0, 0, 0]] * 4}))
    two_by_two = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    (tmp_path / "two_by_two.json").write_text(json.dumps({"matrix": two_by_two}))
    code, out, err = run(capsys, [arg.replace("{dir}", str(tmp_path)) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["curve", "--steps"], ["verify", "--grid"]])
def test_grid_above_a_million_points_exits_two_before_building_it(capsys, argv):
    command, flag = argv
    code, out, err = run(capsys, [command, "--gate", "cnot", flag, "100000000000"])
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be in [2, 1000000], got 100000000000\n"
    assert len(cli._grid(1_000_000, flag)) == 1_000_000
    with pytest.raises(cli.GateInputError):
        cli._grid(1_000_001, flag)


def test_help_names_the_equals_form_that_reads_a_negative_exponent_c0(capsys):
    # argparse takes "-5e-13" after a space for an option, so --help shows
    # the "=" form, which is read as a value (and the drift clamped to 0).
    code, out, _ = run(capsys, ["power", "--help"])
    assert code == 0
    assert "--c0=-5e-13" in out
    code, out, _ = run(capsys, ["power", "--gate", "cnot", "--c0=-5e-13"])
    assert code == 0
    assert "c_min: 0\n" in out


def test_bad_c0_exits_two(capsys):
    code, _, err = run(capsys, ["power", "--gate", "cnot", "--c0", "1.7"])
    assert code == 2
    assert err == "error: initial concurrence must be in [0, 1], got 1.7\n"


def test_gate_file_round_trip(tmp_path, capsys):
    iswap = named_gate("iswap")
    doc = {"name": "custom-iswap", "matrix": [[[z.real, z.imag] for z in row] for row in iswap]}
    path = tmp_path / "iswap.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["decompose", "--gate", str(path), "--json"])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["gate"] == "custom-iswap"
    np.testing.assert_allclose(parsed["alpha"], [QUARTER_PI, QUARTER_PI, 0], atol=1e-9)


def test_non_unitary_gate_file_exits_two(tmp_path, capsys):
    doc = {"matrix": [[[2.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["decompose", "--gate", str(path)])
    assert code == 2
    assert "not unitary" in err


def test_non_finite_gate_file_exits_two(tmp_path, capsys):
    doc = {"matrix": [[[math.nan, 0.0]] * 4] * 4}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["decompose", "--gate", str(path)])
    assert code == 2
    assert "not unitary" in err


def _identity_file_with_entry(path, entry: str):
    """Write the identity as a gate file whose first entry reads ``entry``."""
    rows = [[entry if i == j == 0 else f"[{int(i == j)}, 0]" for j in range(4)] for i in range(4)]
    path.write_text('{"matrix": [' + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]}")
    return str(path)


def _identity_file_with(path, first: str):
    """Write the identity as a gate file whose first entry reads ``[first, 0]``."""
    return _identity_file_with_entry(path, f"[{first}, 0]")


def test_overflowing_gate_file_exits_two_with_one_error_line(tmp_path, capsys):
    # JSON reads 1e400 as inf; the unitarity check must reject it before
    # any arithmetic can warn about it.
    path = _identity_file_with(tmp_path / "inf.json", "1e400")
    code, out, err = run(capsys, ["power", "--gate", path, "--c0", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: gate is not unitary") and err.count("\n") == 1


def test_huge_finite_gate_file_exits_two_with_one_error_line(tmp_path, capsys):
    # 1e200 is finite, but squaring it in M^dag M would overflow.
    path = _identity_file_with(tmp_path / "huge.json", "1e200")
    code, out, err = run(capsys, ["power", "--gate", path, "--c0", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: gate is not unitary") and err.count("\n") == 1


def test_integer_overflow_gate_file_exits_two_with_one_error_line(tmp_path, capsys):
    # JSON reads a 401-digit integer as an int, which no float holds.
    path = _identity_file_with(tmp_path / "int.json", "1" + "0" * 400)
    code, out, err = run(capsys, ["power", "--gate", path, "--c0", "0.5"])
    assert code == 2
    assert out == ""
    assert err == f"error: gate file {path!r}: int too large to convert to float\n"


def test_integer_beyond_the_digit_limit_gate_file_names_the_file(tmp_path, capsys):
    # json.load refuses an integer of more than 4300 digits with a plain ValueError.
    digits = "1" + "0" * 5000
    path = _identity_file_with(tmp_path / "digits.json", digits)
    code, out, err = run(capsys, ["power", "--gate", path, "--c0", "0.5"])
    with pytest.raises(ValueError) as info:
        json.loads(digits)
    assert code == 2
    assert out == ""
    assert err == f"error: gate file {path!r}: {info.value}\n"


def test_gate_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    raw = b'\xff{"matrix": []}'
    path = tmp_path / "latin.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, ["power", "--gate", str(path), "--c0", "0.5"])
    with pytest.raises(UnicodeDecodeError) as info:
        raw.decode("utf-8")
    assert (code, out) == (2, "")
    assert err == f"error: gate file {str(path)!r}: {info.value}\n"


@pytest.mark.parametrize("entry", ["[1, 0, 99]", "[true, false]", "[1]", "[1, false]", '"10"', "{}"])
@pytest.mark.parametrize("command", [["decompose"], ["power", "--c0", "0.5"]])
def test_gate_file_entry_must_be_two_numbers(tmp_path, capsys, entry, command):
    # Without the check, [1, 0, 99] reads as 1 (the 99 dropped) and [true, false] as 1.
    path = _identity_file_with_entry(tmp_path / "entry.json", entry)
    code, out, err = run(capsys, [command[0], "--gate", path, *command[1:]])
    assert (code, out) == (2, "")
    assert err == f'error: gate file {path!r} must contain "matrix": 4x4 nested [re, im] pairs\n'


# json.load raises RecursionError, a RuntimeError, on arrays nested past the recursion
# limit; 100 000 levels exceed even a raised limit.
@pytest.mark.parametrize("text", ["{not json", "[" * 100_000 + "]" * 100_000], ids=["not_json", "nested"])
def test_malformed_gate_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, out, err = run(capsys, ["decompose", "--gate", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: gate file {str(path)!r}") and err.count("\n") == 1


def test_unwritable_output_exits_two(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["curve", "--gate", "swap", "--steps", "3", "--out", str(tmp_path / "no" / "dir.csv")],
    )
    assert code == 2


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


# main is called many times per process (tests, scripts, the benchmark);
# it builds its parser once and writes to the streams of each call.
REUSE_VALID = [
    ["power", "--gate", "cnot", "--c0", "0.5"],
    ["decompose", "--gate", "iswap", "--json"],
    ["curve", "--gate", "cphase:pi/3", "--steps", "3"],
    ["compare", "--gate-a", "swap", "--gate-b", "cnot", "--degrees"],
]
REUSE_INVALID = [
    (["frobnicate"], "usage: gatepower"),
    (["power", "--gate"], "usage: gatepower power"),
    (["power", "--gate", "cnot", "--c0", "1.5"], "error: initial concurrence must be in [0, 1]"),
]


def call(argv):
    """Run main with fresh stdout/stderr buffers; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_without_argv_reads_sys_argv(monkeypatch):
    # The console script calls main() with no argv.
    for argv, code in [(["power", "--gate", "cnot", "--c0", "0.5"], 0), (["power", "--gate", "cnott", "--c0", "0.5"], 2)]:
        expected = call(argv)
        assert expected[0] == code
        monkeypatch.setattr(sys, "argv", ["gatepower", *argv])
        assert call(None) == expected


def test_main_builds_no_parser_after_its_first_call(monkeypatch):
    call(REUSE_VALID[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in [*REUSE_VALID, *(argv for argv, _ in REUSE_INVALID), ["--help"], ["curve", "--help"]]:
        call(argv)
    assert built == []
    argparse.ArgumentParser(prog="probe")  # the counter itself sees constructions
    assert built == ["probe"]


def test_main_interleaves_invalid_and_valid_argv_without_drift():
    first = [call(argv) for argv in REUSE_VALID]
    assert all(code == 0 and out and err == "" for code, out, err in first)
    for _ in range(2):
        for bad, stderr_start in REUSE_INVALID:
            code, out, err = call(bad)
            assert code == 2
            assert out == ""
            assert err.startswith(stderr_start)
            for argv, expected in zip(REUSE_VALID, first):
                assert call(argv) == expected


@pytest.mark.parametrize(
    "argv, resolves",
    [
        (["power", "--gate", "cnot", "--c0", "0.5"], {"weyl_coordinates": 1}),
        (["curve", "--gate", "iswap", "--steps", "3"], {"weyl_coordinates": 1}),
        (["compare", "--gate-a", "cnot", "--gate-b", "swap"], {"weyl_coordinates": 2}),
        (["verify", "--gate", "swap", "--grid", "2"], {"weyl_coordinates": 1}),
        (["decompose", "--gate", "cnot", "--json"], {"decompose": 1}),
    ],
)
def test_only_decompose_builds_local_factors(monkeypatch, argv, resolves):
    calls = collections.Counter()
    for module, name in ((cli, "decompose"), (cli, "weyl_coordinates"), (canonical, "decompose")):
        fn = getattr(module, name)

        def counted(u, fn=fn, name=name):
            calls[name] += 1
            return fn(u)

        monkeypatch.setattr(module, name, counted)
    assert call(argv)[0] == 0
    assert calls == resolves


@pytest.mark.parametrize("argv", [["--help"], ["power", "--help"]])
def test_help_prints_identical_bytes_twice(argv):
    code1, out1, err1 = call(argv)
    code2, out2, err2 = call(argv)
    assert code1 == code2 == 0
    assert out1.startswith("usage: gatepower")
    assert out1 == out2
    assert err1 == err2 == ""


# Named gates, canonical tokens inside and outside the chamber, theta = pi/2 - 1e-6
# (c_min at c0 = 1 is 1e-6, so zero is out of reach), cphase tokens, and "haar",
# which stands for a gate file of a Haar random unitary.
LIBRARY_SPECS = [
    *cli._NAMED_GATES, "canonical:0.3,0.2,0.1", "canonical:pi/4,0.3,-0.2", "canonical:-pi/3,pi/5,2pi/7",
    "canonical:1.2,-0.4,3", "canonical:0.7853976633974483,0,0", "cphase:pi/3", "cphase:-2.5", "haar",
]


def _bits(x):
    """Floats as their exact value and sign, all the way down a nested list."""
    if isinstance(x, float):
        return x.hex(), math.copysign(1.0, x)
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


@pytest.mark.parametrize("spec", LIBRARY_SPECS)
def test_json_reports_the_library_values_bit_for_bit(tmp_path, capsys, spec):
    if spec == "haar":
        spec = str(tmp_path / "haar.json")
        u = random_unitary(4, 2024)
        (tmp_path / "haar.json").write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in r] for r in u.tolist()]}))
    matrix = resolve_gate(spec)[1]
    alpha = weyl_coordinates(matrix)

    def doc(*argv):
        code, out, err = run(capsys, [*argv, "--json"])
        assert (code, err) == (0, "")
        return json.loads(out)

    for c0 in (0.0, 0.37, 1.0, -5e-13, 0.999999999999):
        got = doc("power", "--gate", spec, f"--c0={c0!r}")
        assert _bits([got[k] for k in ("alpha", "c_min", "c_max", "c0_max", "c1_min")]) == _bits(
            [alpha.tolist(), *power_interval(alpha, c0), c0_max(alpha), c1_min(alpha)]
        )
        assert (got["can_reach_max"], got["can_reach_zero"]) == (can_reach_max(alpha, c0), can_reach_zero(alpha, c0))
    rows = doc("curve", "--gate", spec)["rows"]
    assert _bits(rows) == _bits([[c0, *power_interval(alpha, c0)] for c0 in (k / 10 for k in range(11))])
    for other in ("cnot", "sqrtswap", spec):
        beta = weyl_coordinates(resolve_gate(other)[1])
        got = doc("compare", "--gate-a", spec, "--gate-b", other)
        assert got["relation"] == compare_gates(alpha, beta).value
        assert _bits([got["theta_a"], got["theta_b"]]) == _bits([effective_angle(alpha), effective_angle(beta)])
    d = decompose(matrix)
    got = doc("decompose", "--gate", spec)
    assert _bits([got["alpha"], got["lambda"], got["global_phase"]]) == _bits(
        [d.weyl.tolist(), eigen_phases(d.weyl).tolist(), d.global_phase]
    )
    for key, pair in (("pre_local", d.pre_local), ("post_local", d.post_local)):
        assert _bits(got[key]) == _bits([[[[z.real, z.imag] for z in r] for r in m.tolist()] for m in pair])
    for field in dataclasses.fields(d.diagnostics):
        assert _bits(got[field.name]) == _bits(getattr(d.diagnostics, field.name))


# The --json writer must print what json.dumps(doc, indent=2, sort_keys=True) prints.
_JSON_LEAVES = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | st.text()
    | st.text(alphabet="\"\\\x00\x1f\x7f\n\té€😀", max_size=8)
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_writer_writes_numpy_floats_as_json_does():
    doc = {"x": np.float64(0.1), "y": [np.float64(-0.0), np.float64(np.nan)], "": {}, "z": []}
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("gate", list(cli._NAMED_GATES))
def test_json_documents_of_every_command_match_json_dumps(monkeypatch, gate):
    docs = []
    writer = cli._json_text

    def recorded(doc):
        docs.append(json.dumps(doc, indent=2, sort_keys=True))
        return writer(doc)

    monkeypatch.setattr(cli, "_json_text", recorded)
    for argv in (
        ["decompose", "--gate", gate],
        ["power", "--gate", gate, "--c0", "0.3"],
        ["curve", "--gate", gate],
        ["compare", "--gate-a", gate, "--gate-b", "sqrtswap"],
        ["verify", "--gate", gate, "--grid", "3"],
    ):
        code, out, err = call([*argv, "--json"])
        assert (code, err) == (0, "")
        assert out == docs[-1] + "\n"
    assert len(docs) == 5


# An argv whose first word names a command skips the top-level parser; the
# result must be what the top-level parse_args route gives.
_DISPATCH_REQUIRED = {
    "decompose": ["--gate", "cnot"],
    "power": ["--gate", "cnot", "--c0", "0.5"],
    "curve": ["--gate", "cnot", "--steps", "3"],
    "compare": ["--gate-a", "cnot", "--gate-b", "swap"],
    "verify": ["--gate", "cnot", "--grid", "3"],
}
DISPATCH_ARGV = [[], ["-h"], ["--help"], ["frobnicate", "--gate", "cnot"], ["--", "power"], ["--he"]]
for _command, _required in _DISPATCH_REQUIRED.items():
    DISPATCH_ARGV += [
        [_command, "-h"],
        [_command, *_required[2:]],  # the first required option missing
        [_command, *_required, "--bogus"],
        [_command, *_required, "--starts", "4"],
        [_command, *_required, "--deg"],
        [_command, "--", *_required],
        [_command, *_required, "--", "stray"],
        [_command, *_required, "--json"],
    ]
DISPATCH_ARGV.append(["power", "--gate", "cnot", "--c0=-5e-13"])


def _top_level(argv):
    return cli._build_parser()[0].parse_args(argv)


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_dispatch_prints_what_the_top_level_parser_prints(monkeypatch, argv):
    dispatched = call(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", _top_level)
        assert dispatched == call(argv)
    try:
        expected = _top_level(argv)
    except SystemExit:
        return
    got = vars(cli._parse(argv))
    assert {**got, "command": argv[0]} == vars(expected)
