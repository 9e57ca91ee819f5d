"""Engine orchestration and the command-line interface: verdicts, oracle, exit codes."""

import json

import pytest

from kvgeom.cli import build_parser, main, run
from kvgeom.corpus import BUILTIN_SCENARIOS, get_scenario, list_corpus
from kvgeom.dsl import parse_scenario
from kvgeom.engine import CheckRecord, RunConfig, RunResult, _oracle_verify, run_scenario
from kvgeom.dsl import CheckOutcome
from kvgeom.symexpr import Expr


def run_text(text: str, **kw):
    return run_scenario(parse_scenario(text), **kw)


def test_passing_and_failing_checks_exit_codes():
    good = run_text("manifold M { dim 2 coords [x y] } bivector h on M { [x, 0; 0, y] } check codazzi h")
    assert good.exit_code == 0
    bad = run_text("manifold M { dim 2 coords [x y] } bivector h on M { [0, x; x, 0] } check codazzi h")
    assert bad.exit_code == 1
    outcome = bad.outcomes[0]
    assert outcome.status == "fail"
    assert outcome.witness is not None
    assert outcome.witness.residual in ("-x", "x")
    assert "(1,2,2)" in outcome.details or "(2,1,2)" in outcome.details


def test_empty_scenario_gives_empty_report_and_exit_zero():
    res = run_text("")
    assert res.exit_code == 0 and res.outcomes == []


def test_expectation_annotations():
    text = (
        "manifold M { dim 2 coords [x y] } "
        "bivector h on M { [0, x; x, 0] } "
        "check codazzi h { expect fail }"
    )
    res = run_text(text)
    assert res.exit_code == 0
    assert res.outcomes[0].status == "pass"
    assert "failed as expected" in res.outcomes[0].details
    flipped = run_text(
        "manifold M { dim 2 coords [x y] } bivector h on M { [x, 0; 0, y] } "
        "check codazzi h { expect fail }"
    )
    assert flipped.exit_code == 1
    assert "expected failure" in flipped.outcomes[0].details


def test_unsupported_status_for_precondition_violations():
    text = (
        "manifold M { dim 2 coords [x y] } "
        "bivector h on M { [x^2, 0; 0, 0] } "
        "scalar f on M = x^2 "
        "check special_class h f f"
    )
    res = run_text(text)
    assert res.outcomes[0].status == "unsupported"
    assert res.exit_code == 1


def test_pole_along_submanifold_is_unsupported_and_later_checks_run():
    text = (
        "manifold M { dim 2 coords [x y] } "
        "bivector h on M { [1/x, 0; 0, y] } "
        "submanifold N in M { origin [0, 0] basis [0, 1] } "
        "check submanifold N h check transversal N h check coisotropic N h check codazzi h"
    )
    res = run_text(text)
    assert [o.kind for o in res.outcomes] == ["submanifold", "transversal", "coisotropic", "codazzi"]
    assert [o.status for o in res.outcomes] == ["unsupported"] * 3 + ["pass"]
    assert all("denominator" in o.details for o in res.outcomes[:3])
    assert res.exit_code == 1


def test_fail_fast_stops_after_first_failure():
    text = (
        "manifold M { dim 2 coords [x y] } "
        "bivector bad on M { [0, x; x, 0] } "
        "bivector good on M { [x, 0; 0, y] } "
        "check codazzi bad check codazzi good"
    )
    res = run_text(text, fail_fast=True)
    assert len(res.outcomes) == 1
    res2 = run_text(text)
    assert len(res2.outcomes) == 2


def test_oracle_flags_wrong_zero_claims():
    record = CheckRecord(
        CheckOutcome("x", "codazzi", "pass", None, "bogus"),
        zero_claims=[Expr.var("x") + 1],
    )
    _oracle_verify(record, seed=42, samples=20)
    assert record.oracle_disagreements
    result = RunResult([record])
    assert result.exit_code == 3


def test_oracle_runs_clean_on_true_claims():
    res = run_text(
        "manifold M { dim 2 coords [x y] } bivector h on M { [x, 0; 0, y] } check codazzi h",
        oracle=True,
        samples=20,
    )
    assert not res.any_oracle_disagreement


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(samples=0)


def test_cli_run_on_builtin_corpus_and_files(tmp_path):
    code, report = run(RunConfig(scenarios=("worked_examples",), format="json"))
    assert code == 0
    payload = json.loads(report)
    assert all(c["status"] in ("pass", "pointwise-pass") for c in payload["checks"])
    # file-based scenario
    path = tmp_path / "one.kvs"
    path.write_text("manifold M { dim 1 coords [x] } bivector h on M { [x] } check codazzi h")
    code2, report2 = run(RunConfig(scenarios=(str(path),), format="text"))
    assert code2 == 0 and "codazzi" in report2
    # missing file
    code3, _ = run(RunConfig(scenarios=("nонexistent.kvs",)))
    assert code3 == 2


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.kvs"
    path.write_text("manifold M { dim 2 coords [x y] } bivector h on M { [x +, 0; 0, y] }")
    code, report = run(RunConfig(scenarios=(str(path),)))
    assert code == 2 and "error" in report


def test_cli_main_and_flags(capsys):
    rc = main(["--list-corpus"])
    out1 = capsys.readouterr().out
    assert rc == 0
    rc2 = main(["--list-corpus"])
    out2 = capsys.readouterr().out
    assert out1 == out2  # listing is stable
    assert "worked_examples" in out1
    assert "known-discrepancy" in out1
    rc3 = main([])
    assert rc3 == 2
    rc4 = main(["--scenario", "worked_examples", "--format", "json", "--samples", "5"])
    out4 = capsys.readouterr().out
    assert rc4 == 0 and json.loads(out4)["checks"]


def test_reports_are_deterministic_across_runs():
    cfg = RunConfig(scenarios=("worked_examples",), format="json")
    a = run(cfg)
    b = run(cfg)
    assert a == b


def test_no_oracle_flag_still_produces_same_verdicts():
    cfg = RunConfig(scenarios=("linear_dual_pair",), oracle=False)
    code, report = run(cfg)
    assert code == 0
    parser = build_parser()
    ns = parser.parse_args(["--scenario", "x.kvs", "--no-oracle", "--fail-fast", "--seed", "7"])
    assert ns.no_oracle and ns.fail_fast and ns.seed == 7


def test_every_builtin_scenario_parses_and_runs_green():
    for name, entry in BUILTIN_SCENARIOS.items():
        res = run_scenario(parse_scenario(entry.text), samples=5)
        assert res.exit_code == 0, f"{name} failed"
    assert get_scenario("worked_examples.kvs") is not None
    assert get_scenario("missing") is None
    assert list_corpus().count("\n") == len(BUILTIN_SCENARIOS)
