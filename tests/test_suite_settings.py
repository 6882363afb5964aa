"""Tests for the suite's own pytest settings."""

import json
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

INNER_SUITE = """
from hypothesis import given, settings
from hypothesis import strategies as st


def test_before():
    pass


@settings(derandomize=True, max_examples=5, deadline=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 0


def test_after():
    pass
"""


def test_failing_property_does_not_end_the_session(pytester):
    # Under the repo's filterwarnings, a failing hypothesis property must be
    # reported as one failure, and the tests after it must still run.
    options = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["tool"]["pytest"]["ini_options"]
    filters = options["filterwarnings"]
    assert filters[0] == "error"
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    pytester.makepyfile(test_inner=INNER_SUITE)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=2)
