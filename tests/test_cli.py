"""Tests for the command-line interface contract."""

import argparse
import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from gatepower import decompose, verify_profile
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


def test_resolve_gate_rejects_garbage():
    with pytest.raises(Exception):
        resolve_gate("nonsense")


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gate_file_exits_two(tmp_path, capsys):
    doc = {"matrix": [[[math.nan, 0.0]] * 4] * 4}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["decompose", "--gate", str(path)])
    assert code == 2
    assert "not unitary" in err


def test_malformed_gate_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["decompose", "--gate", str(path)])
    assert code == 2


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


@pytest.mark.parametrize("argv", [["--help"], ["power", "--help"]])
def test_help_prints_identical_bytes_twice(argv):
    code1, out1, err1 = call(argv)
    code2, out2, err2 = call(argv)
    assert code1 == code2 == 0
    assert out1.startswith("usage: gatepower")
    assert out1 == out2
    assert err1 == err2 == ""
