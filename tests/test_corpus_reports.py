"""Byte-for-byte snapshots of every built-in corpus report at seed 42.

The eight benchmark entries are compared with the benchmark's own golden
reports (``perfbench/golden``); ``worked_examples``, which runs every check
kind, is compared with ``tests/golden`` in both output formats.  So are two
R^6 tensor scenarios in ``tests/data``, one K-V diagonal profile and one
generic quadratic bivector that fails every check, as the benchmark's
``tensor_scaling`` workload generates them, an R^4 transversal scenario
whose conormal and bordered blocks have rational-function entries, and an
R^1 bivector whose one entry is 1/(x+1)^25 + 1/(x-1)^25.
"""

from pathlib import Path

import pytest

from kvgeom.cli import run
from kvgeom.corpus import BUILTIN_SCENARIOS
from kvgeom.engine import RunConfig

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = {
    name: ROOT / "perfbench" / "golden" / f"{name}.json"
    for name in BUILTIN_SCENARIOS
    if name != "worked_examples"
}
GOLDENS["worked_examples"] = ROOT / "tests" / "golden" / "worked_examples.json"


def _report(name: str, format: str) -> str:
    _, report = run(RunConfig(scenarios=(name,), format=format, seed=42))
    return report


@pytest.mark.parametrize("name", list(BUILTIN_SCENARIOS))
def test_json_report_matches_golden(name):
    assert _report(name, "json") == GOLDENS[name].read_text(encoding="utf-8")


def test_worked_examples_text_report_matches_golden():
    golden = ROOT / "tests" / "golden" / "worked_examples.txt"
    assert _report("worked_examples", "text") == golden.read_text(encoding="utf-8")


TENSOR_CASES = ("tensor_r6_diag_profile", "tensor_r6_generic_quadratic")


@pytest.mark.parametrize("name", TENSOR_CASES)
@pytest.mark.parametrize("format, suffix", [("json", "json"), ("text", "txt")])
def test_tensor_scenario_report_matches_golden(name, format, suffix):
    _assert_data_report_matches_golden(name, format, suffix)


@pytest.mark.parametrize("format, suffix", [("json", "json"), ("text", "txt")])
def test_rational_transversal_report_matches_golden(format, suffix):
    # a symbolic-true verdict that reads the bordered block, a singular block and a sampled one
    _assert_data_report_matches_golden("transversal_rational_r4", format, suffix)


@pytest.mark.parametrize("format, suffix", [("json", "json"), ("text", "txt")])
def test_rational_sum_report_matches_golden(format, suffix):
    # one entry whose normalization needs a gcd of two degree-50 polynomials
    _assert_data_report_matches_golden("rational_sum_r1", format, suffix)


def _assert_data_report_matches_golden(name, format, suffix):
    scenario = str(ROOT / "tests" / "data" / f"{name}.kvs")
    golden = ROOT / "tests" / "golden" / f"{name}.{suffix}"
    assert _report(scenario, format) == golden.read_text(encoding="utf-8")
