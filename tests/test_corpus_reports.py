"""Byte-for-byte snapshots of every built-in corpus report at seed 42.

The eight benchmark entries are compared with the benchmark's own golden
reports (``perfbench/golden``); ``worked_examples``, which runs every check
kind, is compared with ``tests/golden`` in both output formats.  So is every
scenario in ``tests/data``: two R^6 tensor scenarios, one K-V diagonal
profile and one generic quadratic bivector that fails every check, as the
benchmark's ``tensor_scaling`` workload generates them; an R^3 pair, one
K-V and one not, on which a self-bracket with a wrong term shows; an R^8
pair of sparse bivectors under the three tensor checks, one K-V and one
whose first nonzero Codazzi entry comes near the end of the stream; an R^4
transversal scenario whose conormal and bordered blocks have
rational-function entries; a generic R^8 transversal with a 4x4 conormal
block; an R^1 bivector whose one entry is 1/(x+1)^25 + 1/(x-1)^25; an R^4
K-V map onto a bivector whose denominators are in every variable, under
``kv_map`` and ``theorem1``; an R^4 bivector whose lift's Jacobi verdict
lands on its third base index, at another entry than its Codazzi verdict,
under the three tensor checks; and an R^3 pair, one K-V bivector and one
not, under ``lift_props`` with functions that pass and fail.
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


DATA = sorted((ROOT / "tests" / "data").glob("*.kvs"))


@pytest.mark.parametrize("scenario", DATA, ids=[d.stem for d in DATA])
@pytest.mark.parametrize("format, suffix", [("json", "json"), ("text", "txt")])
def test_data_report_matches_golden(scenario, format, suffix):
    # a scenario in tests/data without both goldens fails here
    golden = ROOT / "tests" / "golden" / f"{scenario.stem}.{suffix}"
    assert _report(str(scenario), format) == golden.read_text(encoding="utf-8")
