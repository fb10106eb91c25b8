"""The round-off reporter of `tools/compare_cli_outputs.py`, loaded by path."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_cli_outputs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("chdbc_compare_cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("old, new, report", [
    # one number changed: its relative difference and the row it is in
    (b"t,u\n0.0,1.0\n0.5,2.0\n1.0,3.0\n", b"t,u\n0.0,1.0\n0.5,2.5\n1.0,3.0\n",
     "numbers differ by at most 2.00e-01 relative, row 3: 0.5,2.5"),
    (b"mass,1.0\n", b"energy,1.0\n", None),
    (b"1.0,2e-3\n", b"1.00,0.002\n", "numbers equal, spelled differently"),
], ids=["one-number-changed", "different-text", "spelled-differently"])
def test_numeric_diff(compare, old, new, report):
    assert compare.numeric_diff(old, new) == report
