"""The check table: every kind's arguments, chart rule and required options are enforced;
and the lazy ``codazzi``, ``kv_bracket`` and ``jacobi_tangent`` verdicts equal the verdicts
over full reference tables and read no entry past the first nonzero one."""

import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (
    bivector_with_a_rational_entry,
    diagonal_profile,
    jacobiator_reference,
    kv_bracket_reference,
    random_algebra,
    random_bivector,
    ref_codazzi,
)
import kvgeom.geometry
import kvgeom.tangent
from kvgeom.algebra import algebra_to_kv
from kvgeom.checks import CHECKS, _indexed, _residual_verdict
from kvgeom.cli import run
from kvgeom.dsl import parse_scenario
from kvgeom.engine import RunConfig
from kvgeom.errors import ParseError, SemanticError
from kvgeom.geometry import Chart
from kvgeom.tangent import _jacobi_entries, build_pi

# one object of every declaration kind on M, and a second copy on the chart P
DECLS = """manifold M { dim 2 coords [x y] }
manifold P { dim 1 coords [t] }
bivector h on M { [x, 0; 0, y] }
bivector hP on P { [t] }
scalar f on M = x
scalar fP on P = t
map F : M -> M { matrix [1, 0; 0, 1] offset [0, 0] }
submanifold N in M { origin [0, 0] basis [1, 0] }
submanifold NP in P { origin [0] basis [1] }
algebra A { dim 2 product { 1 1 1 : 1 } }
"""
CHECK_LINE = DECLS.count("\n") + 1
NAME = {"manifold": "M", "bivector": "h", "scalar": "f", "map": "F", "submanifold": "N", "algebra": "A"}
ON_P = {"bivector": "hP", "scalar": "fP", "submanifold": "NP"}


def _options(kind, basis="[1, 0]"):
    return f" {{ kind ideal basis {basis} }}" if CHECKS[kind].needs else ""


def _scenario(kind, args, options=None):
    opts = _options(kind) if options is None else options
    return DECLS + f"check {kind} {' '.join(args)}{opts}\n"


def _good_args(kind):
    return [NAME[k] for k in CHECKS[kind].args]


@pytest.mark.parametrize("kind", list(CHECKS))
def test_well_kinded_arguments_bind(kind):
    assert parse_scenario(_scenario(kind, _good_args(kind))).checks[0].kind == kind


@pytest.mark.parametrize("kind", list(CHECKS))
def test_wrong_kind_argument_is_a_positioned_semantic_error(kind):
    for pos, want in enumerate(CHECKS[kind].args):
        args = _good_args(kind)
        args[pos] = "f" if want != "scalar" else "h"
        with pytest.raises(SemanticError) as exc:
            parse_scenario(_scenario(kind, args))
        assert exc.value.line == CHECK_LINE and exc.value.column == 1
        assert f"expected a {want}" in exc.value.message


@pytest.mark.parametrize("kind", list(CHECKS))
def test_missing_argument_is_a_parse_error(kind):
    with pytest.raises(ParseError) as exc:
        parse_scenario(_scenario(kind, _good_args(kind)[:-1], options=""))
    assert exc.value.line >= CHECK_LINE


# every kind that ties two objects together, or takes a basis, has a chart rule
@pytest.mark.parametrize("kind", [k for k, spec in CHECKS.items() if len(spec.args) > 1 or spec.needs])
def test_chart_rule_rejects_wrong_chart(kind):
    args = _good_args(kind)
    options = None
    if CHECKS[kind].args[-1] in ON_P:
        args[-1] = ON_P[CHECKS[kind].args[-1]]
    else:  # the annihilator's rule is on its basis vectors
        options = _options(kind, basis="[1, 0, 0]")
    with pytest.raises(SemanticError) as exc:
        parse_scenario(_scenario(kind, args, options))
    assert exc.value.line == CHECK_LINE and exc.value.column == 1
    assert "chart" in exc.value.message or "dimension" in exc.value.message


@pytest.mark.parametrize("kind", [k for k, spec in CHECKS.items() if spec.needs])
def test_needed_options_are_required(kind):
    for dropped in (" kind ideal", " basis [1, 0]", " kind ideal basis [1, 0]"):
        options = _options(kind).replace(dropped, "")
        with pytest.raises(SemanticError) as exc:
            parse_scenario(_scenario(kind, _good_args(kind), options))
        assert exc.value.line == CHECK_LINE and "needs" in exc.value.message


@pytest.mark.parametrize(
    "check",
    [
        "check lie_derivative h f { entry 3 3 x }",  # past the chart: an IndexError at run time
        "check lie_derivative h f { entry 0 0 x }",  # a negative index would read entry (2,2)
        "check rank h { points [1] }",  # a missing coordinate: UnknownVariable at run time
        "check transversal N h { points [1, 0; 2] }",  # a short row would be cut by zip
        "check conormal N h { point [1] }",
    ],
)
def test_options_are_checked_against_the_chart(check, tmp_path):
    with pytest.raises(SemanticError) as exc:
        parse_scenario(DECLS + check + "\n")
    assert exc.value.line == CHECK_LINE and exc.value.column == 1
    path = tmp_path / "options.kvs"
    path.write_text(DECLS + check + "\n", encoding="utf-8")
    code, report = run(RunConfig(scenarios=(str(path),)))
    assert code == 2 and f"{CHECK_LINE}:1:" in report


def test_check_names_are_reserved_words():
    for kind in CHECKS:
        with pytest.raises(SemanticError):
            parse_scenario(f"manifold {kind} {{ dim 1 coords [t] }}")


def test_readme_lists_every_check_kind_in_table_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"Check kinds:(.*?)\.\n", readme, re.DOTALL)
    assert listing is not None
    assert re.findall(r"`([^`]+)`", listing.group(1)) == list(CHECKS)


# --- lazy verdicts ------------------------------------------------------------------


def _chart(n):
    return Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))


def _run(kind, h):
    return CHECKS[kind].run({"h": h}, SimpleNamespace(args=("h",)), 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lazy_verdicts_equal_the_verdicts_over_full_tables(n):
    # status, details, residual and claims: a lazy reader stops at the entry that a
    # row-major pass over the whole reference table reports, since an antisymmetric
    # image of an i < j (or i < j < k) entry always comes after it
    rng = random.Random(400 + n)
    chart = _chart(n)
    cases = [
        diagonal_profile(rng, chart),
        algebra_to_kv(random_algebra(rng, n), chart),
        random_bivector(rng, chart, 2),
        random_bivector(rng, chart, 2),
        bivector_with_a_rational_entry(rng, chart),
    ]
    statuses = []
    for h in cases:
        codazzi = _residual_verdict(
            _indexed(ref_codazzi(chart.coords, h.entries)),
            "contravariant Codazzi identity holds",
            "defect at indices {at}",
        )
        jacobi = _residual_verdict(
            _indexed(jacobiator_reference(build_pi(h))),
            "tangent-lift bivector satisfies the Jacobi identity",
            "Jacobiator nonzero at {at}",
        )
        bracket = _residual_verdict(
            _indexed(kv_bracket_reference(h)), "self-bracket of the bivector vanishes", "bracket nonzero at {at}"
        )
        assert _run("codazzi", h) == codazzi
        assert _run("kv_bracket", h) == bracket
        assert _run("jacobi_tangent", h) == jacobi
        statuses.append(codazzi[0])
    assert statuses[:2] == ["pass", "pass"]
    assert statuses[2:] == (["pass"] * 3 if n == 1 else ["fail"] * 3)  # every h on a line is K-V


def _count_dot(monkeypatch, module):
    calls = []
    original = module._dot

    def counted(u, v):
        calls.append(None)
        return original(u, v)

    monkeypatch.setattr(module, "_dot", counted)
    return calls


def test_lazy_verdicts_stop_at_the_first_nonzero_entry(monkeypatch):
    h = random_bivector(random.Random(5), _chart(4), 2)
    geometry_calls = _count_dot(monkeypatch, kvgeom.geometry)
    assert _run("codazzi", h)[:2] == ("fail", "defect at indices (1,2,1)")
    assert len(geometry_calls) == 2  # T(1,2,1) alone; the whole table takes 2 * 4 * 6 = 48

    geometry_calls.clear()
    assert _run("kv_bracket", h)[:2] == ("fail", "bracket nonzero at (1,2,1)")
    # B(1,2,1) reads the sharps X_1 and X_2 (four components each), X_1(h_12) and X_2(h_11);
    # T(1,2,1), which it is compared with, takes two more; both full tables take 52 + 48 = 100
    assert len(geometry_calls) == 2 * 4 + 2 + 2

    jacobi_calls = _count_dot(monkeypatch, kvgeom.tangent)
    read = next(t for t, (_, s) in enumerate(_jacobi_entries(build_pi(h)), 1) if not s.is_zero())
    jacobi_calls.clear()
    geometry_calls.clear()
    assert _run("jacobi_tangent", h)[:2] == ("fail", "Jacobiator nonzero at (1,5,6)")
    assert read == 16  # (1,5,6) comes after the 15 triples (1, j, k) with j <= 4
    assert len(jacobi_calls) == 3 * read  # three per triple read; the whole table takes 3 * C(8, 3) = 168
    assert len(geometry_calls) == 2  # the cross-check with is_kv stops at T(1,2,1) too
