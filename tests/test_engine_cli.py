"""Engine orchestration and the command-line interface: verdicts, oracle, exit codes."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import vanishing_on_sample_box
import kvgeom.checks
import kvgeom.dsl
import kvgeom.engine
import kvgeom.structures
from kvgeom.cli import build_parser, main, run
from kvgeom.corpus import BUILTIN_SCENARIOS, get_scenario, list_corpus
from kvgeom.dsl import bind_scenario, parse_scenario, render_report
from kvgeom.engine import (
    WITNESS_TRIES, CheckRecord, RunConfig, RunResult, _find_witness, _oracle_verify, run_scenario,
)
from kvgeom.dsl import CheckOutcome
from kvgeom.errors import ClosureFailure
from kvgeom.structures import preimage_transversal
from kvgeom.symexpr import Expr

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_identically_singular_transversal_names_the_given_points():
    head = (
        "manifold M { dim 2 coords [x y] } bivector h on M { [1, 0; 0, 0] } "
        "submanifold N in M { origin [0, 0] basis [1, 0] } "
    )
    given = run_text(head + "check transversal N h { points [2, 0; -1/3, 0] }").outcomes[0]
    assert given.status == "fail"
    assert given.details == "conormal block determinant vanishes on the submanifold (at (2); (-1/3))"
    assert given.witness.point == ("2",) and given.witness.residual == "0"
    default = run_text(head + "check transversal N h").outcomes[0]
    assert default.details == "conormal block determinant vanishes on the submanifold (at (0))"
    assert default.witness.point == ("0",)


def test_degree_overflow_during_a_check_is_unsupported():
    # a bracket on a line has no entry i < j, so kv_bracket reads nothing of degree past the
    # cap; in_E reads h_11^2 f'' = 2 x^4000000000, which overflows
    text = (
        "manifold M { dim 1 coords [x] } bivector h on M { [x^2000000000] } scalar f on M = x^2 "
        "check kv_bracket h check in_E h f check codazzi h"
    )
    res = run_text(text)
    assert [o.status for o in res.outcomes] == ["pass", "unsupported", "pass"]
    assert "polynomial degree 4000000000 exceeds the largest supported degree 2147483647" in res.outcomes[1].details


def test_a_residual_that_vanishes_at_every_try_has_no_witness():
    q = vanishing_on_sample_box("x")
    assert _find_witness(q, seed=5) is None
    assert _find_witness(Expr.const(1), seed=5).point == ()  # a constant residual is witnessed everywhere
    text = (
        "manifold M { dim 1 coords [x] } map F : M -> M { matrix [1] offset [0] } "
        f"bivector a on M {{ [{q}] }} bivector b on M {{ [0] }} check kv_map F a b check kv_map F b b"
    )
    res = run_text(text)
    assert [o.status for o in res.outcomes] == ["fail", "pass"]
    assert res.outcomes[0].witness is None
    assert res.outcomes[0].details == f"pairing mismatch at (1,1); no witness found in {WITNESS_TRIES} tries"
    assert WITNESS_TRIES == 200
    assert " | witness at" not in render_report(res.outcomes, "text")


# F(x, y, z) = (u, v) = (x, y) is a K-V map; the preimage of the u-axis is the plane y = 0,
# whose conormal block det D = x^2 + 1 is not constant, so the induced entries are rational
PREIMAGE_OF_AXIS = (
    "manifold M { dim 3 coords [x y z] } manifold T { dim 2 coords [u v] } "
    "map F : M -> T { matrix [1, 0, 0; 0, 1, 0] offset [0, 0] } "
    "bivector h on M { [x, 1, 0; 1, x^2 + 1, 0; 0, 0, 1] } bivector g on T { [u, 1; 1, u^2 + 1] } "
    "submanifold A in T { origin [0, 0] basis [1, 0] } check preimage_transversal F h g A"
)


def test_preimage_transversal_decides_without_dividing(monkeypatch):
    plain = run_text(PREIMAGE_OF_AXIS).outcomes[0]
    assert plain.status == "pass"
    assert plain.details == "preimage dimension 2; induced structures related by the restricted map at all samples"
    env = parse_scenario(PREIMAGE_OF_AXIS).env
    calls = []
    gcd = kvgeom.symexpr.poly_gcd
    monkeypatch.setattr(kvgeom.symexpr, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    rep = preimage_transversal(env["F"], env["h"], env["g"], env["A"])
    assert not rep.transversal_source.determinant.is_const()
    # the cleared-denominator residuals are canonical zeros, reached by ring operations alone
    assert rep.ok and rep.residuals and all(e.is_zero() for e in rep.residuals)
    assert not calls


def test_preimage_transversal_fails_on_a_nonzero_residual(monkeypatch):
    # doubling the bordered block of the source transversal (the plane in M) doubles M H1 M^T
    # but not H2 o R, so the cleared-denominator residual no longer vanishes
    real = kvgeom.structures.is_transversal

    def doubled(n_sub, h, **kw):
        t = real(n_sub, h, **kw)
        if n_sub.ambient.name != "M":
            return t
        b = t.bordered
        # ``bordered`` is a cached property: setting it on the instance stands in for the built block
        object.__setattr__(t, "bordered", type(b)(b.chart, tuple(tuple(2 * e for e in r) for r in b.entries)))
        return t

    monkeypatch.setattr(kvgeom.structures, "is_transversal", doubled)
    env = parse_scenario(PREIMAGE_OF_AXIS).env
    rep = preimage_transversal(env["F"], env["h"], env["g"], env["A"])
    assert rep.restriction is not None and not rep.ok
    assert not all(e.is_zero() for e in rep.residuals)
    out = run_text(PREIMAGE_OF_AXIS).outcomes[0]
    assert out.status == "fail" and out.details == "preimage dimension 2; a pullback check failed"


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
    assert record.inconsistencies
    assert record.outcome.status == "fail" and "ORACLE DISAGREEMENT" in record.outcome.details
    assert "claim 0: must vanish but is nonzero at (" in record.outcome.details
    result = RunResult([record])
    assert result.exit_code == 3


def test_no_check_hands_claims_to_the_oracle():
    res = run_scenario(parse_scenario(get_scenario("worked_examples").text))
    assert "lift_props" in {r.outcome.kind for r in res.records}
    assert not any(r.zero_claims for r in res.records)


def test_wrong_mixed_lift_residuals_are_an_engine_inconsistency(monkeypatch, capsys):
    # only the mixed residuals are wrong: the leafwise-affine verdict, read from the same
    # contraction, stays right, and the exact zero test of the residuals on a K-V h catches them
    true_check = kvgeom.checks.lift_propositions_check

    def off_by_one(h, f):
        rep = true_check(h, f)
        mixed = rep.mixed_residuals
        return dataclasses.replace(rep, mixed_residuals=((mixed[0][0] + 1,) + mixed[0][1:],) + mixed[1:])

    monkeypatch.setattr(kvgeom.checks, "lift_propositions_check", off_by_one)
    rc = main(["--scenario", "linear_dual_pair"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 3
    lifts = [c for c in checks if c["kind"] == "lift_props"]
    assert lifts and all(c["status"] == "fail" and "ENGINE INCONSISTENCY" in c["details"] for c in lifts)


def _wrong_bracket_stream(h):
    yield (0, 1, 0), Expr.const(1)


def _closure_failure(*args, **kwargs):
    raise ClosureFailure("conormal product left the conormal module")


@pytest.mark.parametrize(
    "attr, patch, kind, error",
    [
        (
            "_bracket_entries",
            _wrong_bracket_stream,
            "kv_bracket",
            "EngineInconsistency: bracket stream does not match the Codazzi stream up to sign",
        ),
        ("conormal_algebroid", _closure_failure, "conormal", "ClosureFailure: conormal product left the conormal module"),
    ],
    ids=lambda v: v.split(":")[0] if isinstance(v, str) else None,  # an error's id is its class alone
)
def test_engine_inconsistency_exits_3_and_later_checks_run(monkeypatch, capsys, attr, patch, kind, error):
    rc = main(["--scenario", "worked_examples"])
    expected = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 0
    monkeypatch.setattr(kvgeom.checks, attr, patch)
    rc = main(["--scenario", "worked_examples"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 3
    assert len(checks) == len(expected)
    hit = [i for i, c in enumerate(checks) if c["kind"] == kind]
    assert hit and hit[0] < len(checks) - 1  # checks after the inconsistent one still ran
    for i, (got, want) in enumerate(zip(checks, expected)):
        if i in hit:
            assert got["status"] == "fail" and got["details"] == f"ENGINE INCONSISTENCY: {error}"
        else:
            assert got == want


def test_inexact_bareiss_step_is_an_engine_inconsistency(monkeypatch):
    head = "manifold M { dim 3 coords [x y z] } submanifold N in M { origin [0, 0, 0] basis [1, 0, 0] } "
    polynomial = head + "bivector h on M { [x, 1, 0; y^2 + 1, z; 1 + x^2] } check transversal N h check codazzi h"
    rational = head + "bivector g on M { [x, 1, 0; 1/(x^2 + 1), 0; 1] } check transversal N g"
    before = run_text(polynomial).outcomes
    assert before[0].status == "pointwise-pass"
    assert run_text(rational).outcomes[0].status == "pointwise-pass"
    monkeypatch.setattr(kvgeom.structures, "divexact", lambda a, b: None)
    res = run_text(polynomial)
    assert res.exit_code == 3
    assert res.outcomes[0].status == "fail"
    assert res.outcomes[0].details.startswith("ENGINE INCONSISTENCY: EngineInconsistency: Bareiss step ")
    assert res.outcomes[1] == before[1]  # the later check still ran
    # rational rows are cleared of their denominators first, so their steps reach divexact too
    res = run_text(rational)
    assert res.exit_code == 3
    assert res.outcomes[0].details.startswith("ENGINE INCONSISTENCY: EngineInconsistency: Bareiss step ")


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


def test_cli_run_binds_each_scenario_once(monkeypatch):
    bound = []

    def counting(queue, checks):
        bound.append(bind_scenario(queue, checks))
        return bound[-1]

    for module in (kvgeom.dsl, kvgeom.engine):  # every module that may call it by name
        if hasattr(module, "bind_scenario"):
            monkeypatch.setattr(module, "bind_scenario", counting)
    code, _ = run(RunConfig(scenarios=("worked_examples", "line_embeddings")))
    assert code == 0
    assert len(bound) == 2 and bound[0] != bound[1]


def test_each_adapted_bivector_is_built_once_per_scenario(monkeypatch, tmp_path):
    built = []
    original = kvgeom.structures.to_adapted_bivector

    def counted(n_sub, h):
        built.append(h)
        return original(n_sub, h)

    monkeypatch.setattr(kvgeom.structures, "to_adapted_bivector", counted)
    head = (
        "manifold M { dim 2 coords [x y] }\n"
        "bivector h on M { [1, 0; 0, x^2 + 1] }\n"
        "bivector h2 on M { [1, x; x, 0] }\n"
        "submanifold N in M { origin [0, 0] basis [1, 0] }\n"
        "check transversal N h\ncheck coisotropic N h\n"
    )
    path = tmp_path / "one.kvs"
    path.write_text(head)
    code, report = run(RunConfig(scenarios=(str(path),), format="json"))
    assert code == 1 and len(built) == 1
    assert [c["status"] for c in json.loads(report)["checks"]] == ["pointwise-pass", "fail"]
    built.clear()
    path.write_text(head + "check transversal N h2\ncheck coisotropic N h2\n")
    code, report = run(RunConfig(scenarios=(str(path),), format="json"))
    assert code == 1 and len(built) == 2 and built[0] != built[1]
    checks = json.loads(report)["checks"]
    assert [c["status"] for c in checks] == ["pointwise-pass", "fail", "fail", "pass"]
    assert checks[1]["witness"]["residual"] == "y1^2 + 1"
    assert checks[2]["details"].startswith("conormal block determinant vanishes on the submanifold")


def test_annihilator_of_an_invalid_algebra_or_subspace_is_unsupported(tmp_path):
    path = tmp_path / "one.kvs"
    path.write_text(
        "algebra A { dim 2 product { 1 1 2 : 1  2 2 2 : 1 } }\n"  # (e1 e1) e2 = e2, e1 (e1 e2) = 0
        "algebra B { dim 2 product { 1 1 1 : 1 } }\n"
        "check annihilator A { kind ideal basis [0, 1] }\n"
        "check annihilator A { kind subalgebra basis [0, 1] }\n"
        "check annihilator B { kind ideal basis [1, 1] }\n"
        "check annihilator B { kind subalgebra basis [1, 1] }\n"
    )
    code, report = run(RunConfig(scenarios=(str(path),), format="json"))
    assert code == 1
    assert [(c["status"], c["details"]) for c in json.loads(report)["checks"]] == [
        ("unsupported", "associativity fails at basis indices (1, 1, 2)"),
        ("unsupported", "associativity fails at basis indices (1, 1, 2)"),
        ("unsupported", "basis does not span an ideal"),
        ("unsupported", "basis does not span a subalgebra"),
    ]


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.kvs"
    path.write_text("manifold M { dim 2 coords [x y] } bivector h on M { [x +, 0; 0, y] }")
    code, report = run(RunConfig(scenarios=(str(path),)))
    assert code == 2 and "error" in report


def _cli_subprocess(path: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(README.parent / "src"), env.get("PYTHONPATH")) if p)
    cli = "import sys; from kvgeom.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", cli, "--scenario", str(path)], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_a_huge_constant_power_is_a_parse_error_at_its_operator(tmp_path):
    path = tmp_path / "power.kvs"
    path.write_text("manifold M { dim 1 coords [x] }\nscalar f on M = 7^2147483647\n")
    proc = _cli_subprocess(path, 10)
    message = "power 2147483647 of a 3-bit coefficient exceeds 262144 bits"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {path}: 2:18: {message} (at '^')\n")
    # the cap leaves room for powers far past the reader's 4300 digits
    s = parse_scenario("manifold M { dim 1 coords [x] }\nscalar f on M = 3^10000 * (2/3)^-100000")
    assert s.env["f"].value == Expr.const(Fraction(3 ** 110000, 2 ** 100000))


def test_a_power_of_several_terms_past_the_size_estimate_is_a_parse_error(tmp_path):
    # (x+1)^8000 has 8001 terms of up to about 8000 bits; computing it ran past 20 s
    path = tmp_path / "power.kvs"
    path.write_text("manifold M { dim 1 coords [x] }\nscalar f on M = (x + 1)^8000\n")
    proc = _cli_subprocess(path, 10)
    message = "power 8000 of a 2-term polynomial exceeds 1048576 bits"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {path}: 2:24: {message} (at '^')\n")


@pytest.mark.parametrize("op, rhs", [("*", "(x + 1)^590"), ("/", "(1 / (x - 1)^590)")])
def test_a_product_past_the_size_estimate_is_a_parse_error_at_its_operator(tmp_path, op, rhs):
    # each factor is admitted; computing (x + 1)^590 * (x + 1)^590 took 0.3 s, and a
    # product of eight such factors 15.6 s
    path = tmp_path / "product.kvs"
    path.write_text(f"manifold M {{ dim 1 coords [x] }}\nscalar f on M = (x + 1)^590 {op} {rhs}\n")
    proc = _cli_subprocess(path, 10)
    message = "product of a 591-term and a 591-term polynomial exceeds 1048576 bits"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {path}: 2:29: {message} (at '{op}')\n")


def test_a_codazzi_verdict_reads_no_entry_past_the_first_nonzero_one(tmp_path):
    # T(1,2,1) = -x z^(2^30 + 1) decides both checks; a later entry has a degree past the
    # packed field width, so a full table of either identity cannot be built
    path = tmp_path / "codazzi.kvs"
    path.write_text(
        "manifold M { dim 3 coords [x y z] }\n"
        "bivector h on M { [x*y, 0, 0; z^1073741825, 0; z^1073741825] }\n"
        "check codazzi h\ncheck kv_bracket h\n"
    )
    proc = _cli_subprocess(path, 10)
    assert proc.returncode == 1 and proc.stderr == ""
    codazzi, bracket = json.loads(proc.stdout)["checks"]
    assert (codazzi["status"], codazzi["details"]) == ("fail", "defect at indices (1,2,1)")
    assert codazzi["witness"] == {"point": ["2/3", "1"], "residual": "-x*z^1073741825"}
    assert (bracket["status"], bracket["details"]) == ("fail", "bracket nonzero at (1,2,1)")
    assert bracket["witness"]["residual"] == "x*z^1073741825"


def test_the_witness_search_skips_points_whose_value_is_too_long(tmp_path):
    # x^(2^30 + 2) at x = 2 has 2^30 bits: a try there ran for minutes; at x = -1 it is 1
    path = tmp_path / "witness.kvs"
    path.write_text(
        "manifold M { dim 2 coords [x y] }\nbivector h on M { [x*y, 1; 1, x^1073741825] }\ncheck codazzi h\n"
    )
    proc = _cli_subprocess(path, 10)
    assert proc.returncode == 1 and proc.stderr == ""
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["witness"] == {"point": ["-1", "2/3"], "residual": "-x^1073741826 - y"}


def test_a_generic_transversal_with_a_4x4_conormal_block_decides_in_seconds():
    # a generic quadratic bivector on R^8 and a 4-plane: the verdict reads det D, a 4x4
    # determinant; the bordered 8x8 block that no check here reads took 6-8 s to build
    path = Path(__file__).resolve().parent / "data" / "transversal_r8_4x4.kvs"
    proc = _cli_subprocess(path, 20)
    assert proc.returncode == 0 and proc.stderr == ""
    checks = json.loads(proc.stdout)["checks"]
    assert [(c["kind"], c["status"]) for c in checks] == [("transversal", "pointwise-pass"), ("coisotropic", "pass")]


def test_unreadable_scenario_files_exit_2(tmp_path, capsys):
    assert main(["--scenario", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    path = tmp_path / "latin1.kvs"
    path.write_bytes("manifold M { dim 1 coords [x] }\nscalar f on M = x # caf\u00e9\n".encode("latin-1"))
    assert main(["--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: 2:24: invalid UTF-8 byte 0xe9\n"
    assert main(["--scenario", str(tmp_path / "missing.kvs")]) == 2
    assert capsys.readouterr().err == f"error: no such scenario file or built-in: {tmp_path / 'missing.kvs'}\n"


@pytest.mark.parametrize("scalar", ["(" * 1500 + "x" + ")" * 1500, "-" * 5000 + "x"])
def test_deeply_nested_expression_exits_2(tmp_path, scalar):
    path = tmp_path / "deep.kvs"
    path.write_text(f"manifold M {{ dim 1 coords [x] }}\nscalar f on M = {scalar}\n")
    code, report = run(RunConfig(scenarios=(str(path),)))
    assert code == 2
    assert "2:17: expression nested too deeply" in report


def test_an_integer_literal_past_4300_digits_exits_2(tmp_path):
    path = tmp_path / "long.kvs"
    digits = "7" * 5000
    path.write_text(f"manifold M {{ dim 1 coords [x] }}\nscalar f on M = {digits}\n")
    code, report = run(RunConfig(scenarios=(str(path),)))
    assert (code, report) == (2, f"error: {path}: 2:17: integer literal longer than 4300 digits (at {digits!r})\n")
    path.write_text(f"manifold M {{ dim 1 coords [x] }}\nscalar f on M = {digits[:4300]}\n")
    assert run(RunConfig(scenarios=(str(path),))) == (0, render_report([]))


def test_a_witness_residual_prints_a_coefficient_of_any_length(tmp_path):
    path = tmp_path / "big.kvs"
    path.write_text("manifold M { dim 2 coords [x y] }\nbivector h on M { [3^10000*x*y, 0; 0, y] }\ncheck codazzi h\n")
    code, report = run(RunConfig(scenarios=(str(path),)))
    assert code == 1
    witness = json.loads(report)["checks"][0]["witness"]
    # Decimal reads an int's digits without the int-to-str length limit: a route independent of kvgeom's
    assert witness == {"point": ["3/7", "2"], "residual": f"-{Decimal(3 ** 10000)}*x*y"}
    assert len(str(Decimal(3 ** 10000))) == 4772


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_reported_rationals_print_under_a_lowered_int_limit(tmp_path):
    sevens, twos = "7" * 1000, str(Decimal(2 ** 3400))  # 1024 digits over an odd number: a reduced fraction
    rank = tmp_path / "rank.kvs"
    rank.write_text(f"manifold M {{ dim 1 coords [x] }}\nbivector h on M {{ [x] }}\ncheck rank h {{ points [{sevens}] }}\n")
    transversal = tmp_path / "transversal.kvs"
    transversal.write_text(
        "manifold M { dim 2 coords [x y] }\n"
        f"bivector h on M {{ [1, 0; 0, x - {sevens}] }}\n"
        "submanifold N in M { origin [0, 0] basis [1, 0] }\n"
        f"check transversal N h {{ points [{sevens}, 0] }}\n"
        f"check transversal N h {{ points [-{twos}/{sevens}, 0] }}\n"
    )
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit CPython accepts
    try:
        rank_run = run(RunConfig(scenarios=(str(rank),), format="json"))
        transversal_run = run(RunConfig(scenarios=(str(transversal),), format="json"))
    finally:
        sys.set_int_max_str_digits(before)
    code, report = rank_run
    assert code == 0
    assert json.loads(report)["checks"][0]["details"] == f"sharp rank at sample points: ({sevens}) -> 1"
    code, report = transversal_run
    singular, regular = json.loads(report)["checks"]
    assert code == 1
    assert singular["status"] == "fail" and singular["witness"]["point"] == [sevens]
    assert f"(at ({sevens}))" in singular["details"]
    assert regular["status"] == "pointwise-pass"
    assert f"at sampled points (-{twos}/{sevens})" in regular["details"]


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


def test_fail_fast_and_seed_flags_parse():
    code, _ = run(RunConfig(scenarios=("linear_dual_pair",), fail_fast=True))
    assert code == 0
    parser = build_parser()
    ns = parser.parse_args(["--scenario", "x.kvs", "--fail-fast", "--seed", "7"])
    assert ns.fail_fast and ns.seed == 7
    with pytest.raises(SystemExit):
        parser.parse_args(["--scenario", "x.kvs", "--no-oracle"])


def test_readme_command_lines_parse():
    lines = re.findall(r"^kvgeom (.*)$", README.read_text(encoding="utf-8"), re.M)
    assert len(lines) >= 4
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line))


def test_every_builtin_scenario_parses_and_runs_green():
    for name, entry in BUILTIN_SCENARIOS.items():
        res = run_scenario(parse_scenario(entry.text), samples=5)
        assert res.exit_code == 0, f"{name} failed"
    assert get_scenario("worked_examples.kvs") is not None
    assert get_scenario("missing") is None
    assert list_corpus().count("\n") == len(BUILTIN_SCENARIOS)


def _report_of(tmp_path, text: str) -> list[dict]:
    path = tmp_path / "scenario.kvs"
    path.write_text(text, encoding="utf-8")
    _, report = run(RunConfig(scenarios=(str(path),)))
    return json.loads(report)["checks"]


def test_rational_transversal_decides_without_dividing(tmp_path):
    # the induced structure has rational entries over a non-constant det D; the
    # verdict reads det D only, so no rational function is divided on the way
    h13 = "2*x1*x2 + 3/2*x1*x3 + x3^2 - 2"
    (check,) = _report_of(tmp_path, f"""
manifold R3 {{ dim 3 coords [x1 x2 x3] }}
bivector h on R3 {{ [0, 0, {h13}; 0, 2*x1^2, 0; {h13}, 0, (x3 + 3/2)/(x3^2 + 2)] }}
submanifold N in R3 {{ origin [5/8, 5, 2/5] basis [0, -1, -1; -2, -1, -1] }}
check transversal N h
""")
    assert check["status"] == "pointwise-pass"


def test_reported_sample_points_are_distinct(tmp_path):
    # 20 draws from the 87 values of p/q repeat (0 and -1 here); each point is reported once
    checks = _report_of(tmp_path, """
manifold R2 { dim 2 coords [a b] }
bivector h on R2 { [a^2 + 1, b; b, a + 3] }
submanifold N in R2 { origin [1, 2] basis [1, 1] }
manifold L { dim 1 coords [t] }
bivector g on L { [t] }
check transversal N h
check rank g
""")
    transversal, rank = checks
    assert transversal["status"] == "pointwise-pass"
    listed = transversal["details"].split("nonzero at sampled points ")[1].split(" (warning")[0].split("; ")
    assert len(listed) == len(set(listed)) == 20
    ranked = [part.split(" -> ")[0] for part in rank["details"].split(": ")[1].split("; ")]
    assert len(ranked) == len(set(ranked)) == 20
