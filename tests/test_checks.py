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
    sparse_bivectors,
)
import kvgeom.geometry
import kvgeom.tangent
from kvgeom.algebra import algebra_to_kv
from kvgeom.checks import CHECKS, _indexed, _residual_verdict
from kvgeom.cli import run
from kvgeom.dsl import _OPTIONS, parse_scenario
from kvgeom.engine import RunConfig, _find_witness, run_scenario
from kvgeom.errors import DegreeOverflow, ParseError, SemanticError
from kvgeom.geometry import Chart, SymBivector
from kvgeom.symexpr import ZERO, Expr

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


def test_readme_lists_every_check_option_in_table_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"Options \(in `\{ \.\.\. \}` after a check\):(.*?)\.\s", readme, re.DOTALL)
    assert listing is not None
    assert [item.split()[0] for item in re.findall(r"`([^`]+)`", listing.group(1))] == list(_OPTIONS)


# --- lazy verdicts ------------------------------------------------------------------


def _chart(n):
    return Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))


def _run(kind, h):
    return CHECKS[kind].run({"h": h}, SimpleNamespace(args=("h",)), 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lazy_verdicts_equal_the_verdicts_over_full_tables(n):
    # status, details and residual: a lazy reader stops at the entry that a
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
            _indexed(jacobiator_reference(h)),
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


def _count(monkeypatch, module, name="_dot"):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_lazy_verdicts_stop_at_the_first_nonzero_entry(monkeypatch):
    h = random_bivector(random.Random(5), _chart(4), 2)
    geometry_calls = _count(monkeypatch, kvgeom.geometry)
    geometry_grads = _count(monkeypatch, kvgeom.geometry, "_grad")
    assert _run("codazzi", h)[:2] == ("fail", "defect at indices (1,2,1)")
    assert len(geometry_calls) == 2  # T(1,2,1) alone; the whole table takes 2 * 4 * 6 = 48
    assert len(geometry_grads) == 2  # d h_12 and d h_11; the whole table takes the ten rows b <= c

    geometry_calls.clear()
    geometry_grads.clear()
    assert _run("kv_bracket", h)[:2] == ("fail", "bracket nonzero at (1,2,1)")
    # B(1,2,1) reads the sharps X_1 and X_2 (four components each), X_1(h_12) and X_2(h_11), with its
    # own rows d h_12 and d h_11; T(1,2,1), which it is compared with, is replayed from h's memo;
    # both full tables take 52 + 48 = 100
    assert len(geometry_calls) == 2 * 4 + 2 and len(geometry_grads) == 2
    geometry_calls.clear()
    geometry_grads.clear()
    twin = random_bivector(random.Random(5), _chart(4), 2)  # equal to h, with no memo
    assert _run("kv_bracket", twin)[:2] == ("fail", "bracket nonzero at (1,2,1)")
    assert len(geometry_calls) == 2 * 4 + 2 + 2 and len(geometry_grads) == 2 + 2  # T(1,2,1) computed

    # jacobi_tangent reads J(1,5,6) = -T(1,2,1) from h's memo, which codazzi filled: the check builds no
    # lift and takes no product and no derivative, in tangent or in geometry; its cross-check with
    # is_kv replays the same entry
    assert not hasattr(kvgeom.tangent, "_grad") and not hasattr(kvgeom.tangent, "_dot")
    geometry_calls.clear()
    geometry_grads.clear()
    assert _run("jacobi_tangent", h)[:2] == ("fail", "Jacobiator nonzero at (1,5,6)")
    assert len(geometry_calls) == len(geometry_grads) == 0

    # on a fresh twin it computes the Codazzi entries that the lift order reads, T(1,2,1) alone
    _, read = _count_codazzi_reads(monkeypatch)
    twin = random_bivector(random.Random(5), _chart(4), 2)
    assert _run("jacobi_tangent", twin)[:2] == ("fail", "Jacobiator nonzero at (1,5,6)")
    assert read == [(0, 1, 0)]
    assert len(geometry_calls) == len(geometry_grads) == 2


def _chosen_defect(rng, chart, r, p, q):
    """diag(c_1, ..., c_n) plus s*x_r at (p, q), for distinct r, p, q with p < q and random nonzero c, s.

    Only d_r h_pq is nonzero, and only h_rr meets it, so the Codazzi defect,
    for i < j, is nonzero only at the sorted images of T(r,p,q) and T(r,q,p),
    both c_r*s.  The Codazzi order reads the pair (i, j) first and stops at
    the pair {r, p}, since p < q; the lift order reads the base index first
    and stops at a = p, with the pair {r, q}.
    """
    n = chart.dim
    rows = [[Expr.const(rng.choice([-3, -1, 1, 2])) if i == j else ZERO for j in range(n)] for i in range(n)]
    rows[p][q] = rows[q][p] = Expr.const(rng.choice([-2, 1, 3])) * Expr.var(chart.coords[r])
    return SymBivector(chart, tuple(map(tuple, rows)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_jacobi_verdict_follows_the_lift_order(n):
    # index, residual and witness of jacobi_tangent equal those of a row-major pass over the plain-loop
    # Jacobiator of the lift, on random and sparse bivectors, and on bivectors whose Codazzi defect is
    # nonzero only at chosen entries, where the lift order and the Codazzi order stop at different ones
    rng = random.Random(2700 + n)
    chart = _chart(n)
    chosen = [(r, p, q) for p in range(n) for q in range(p + 1, n) for r in range(n) if r not in (p, q)]
    chosen = rng.sample(chosen, min(len(chosen), 4))
    defects = [_chosen_defect(rng, chart, r, p, q) for r, p, q in chosen]
    for t, h in enumerate([random_bivector(rng, chart, 2)] + sparse_bivectors(rng, chart) + defects):
        want = _residual_verdict(
            _indexed(jacobiator_reference(h)),
            "tangent-lift bivector satisfies the Jacobi identity",
            "Jacobiator nonzero at {at}",
        )
        got = _run("jacobi_tangent", h)
        assert got == want
        if want[2] is not None:
            assert _find_witness(got[2], 42 + t) == _find_witness(want[2], 42 + t) is not None
    for h, (r, p, q) in zip(defects, chosen):
        i, j = sorted((r, p))
        b, c = sorted((r, q))
        assert _run("codazzi", h)[1] == f"defect at indices ({i + 1},{j + 1},{q + 1})"
        assert _run("jacobi_tangent", h)[1] == f"Jacobiator nonzero at ({p + 1},{n + b + 1},{n + c + 1})"


def test_jacobi_tangent_raises_again_what_the_codazzi_memo_holds():
    # on diag(x, z^(2^30 + 1), z^(2^30 + 1)) over R^3 the one Codazzi entry that is not zero, T(2,3,2),
    # is the product -z^(2^30 + 1) * d z^(2^30 + 1), past the largest degree; the lift order reaches it
    # at J(2,5,6), after five zero entries
    text = "manifold M { dim 3 coords [x y z] }\nbivector h on M { [x, 0, 0; z^1073741825, 0; z^1073741825] }\n"
    h = parse_scenario(text).env["h"]
    with pytest.raises(DegreeOverflow):
        _run("codazzi", h)
    assert isinstance(h._codazzi.error, DegreeOverflow)
    for _ in range(2):
        with pytest.raises(DegreeOverflow):
            _run("jacobi_tangent", h)
    twin = parse_scenario(text).env["h"]  # no memo: jacobi_tangent meets the entry first
    for kind in ("jacobi_tangent", "codazzi"):
        with pytest.raises(DegreeOverflow):
            _run(kind, twin)
    outcomes = run_scenario(parse_scenario(text + "check codazzi h\ncheck jacobi_tangent h\n")).outcomes
    assert [o.status for o in outcomes] == ["unsupported"] * 2


def _count_codazzi_reads(monkeypatch):
    """The bivectors whose Codazzi streams start from now on, and the indices those streams compute, in order."""
    started, read = [], []
    original = kvgeom.geometry._codazzi_entries

    def counted(h):
        started.append(h)
        for item in original(h):
            read.append(item[0])
            yield item

    monkeypatch.setattr(kvgeom.geometry, "_codazzi_entries", counted)
    return started, read


@pytest.mark.parametrize("kv", [True, False], ids=["kv", "not_kv"])
def test_a_scenario_reads_each_codazzi_entry_once(monkeypatch, kv):
    # codazzi, kv_bracket's comparison, jacobi_tangent's lift order and its cross-check all read h's
    # Codazzi stream: one stream is started, each entry is computed once, and each derivative row d h_bc
    # is taken once by it and once by the bracket stream
    rows = "[x, 0, 0; y, 0; z]" if kv else "[x, y, 0; z, 0; x*y]"
    text = f"manifold M {{ dim 3 coords [x y z] }}\nbivector h on M {{ {rows} }}\n"
    stream = [(i, j, k) for i in range(3) for j in range(i + 1, 3) for k in range(3)]
    if kv:
        want = stream  # every check reads every entry
    else:
        # codazzi and kv_bracket stop at the first nonzero entry, T(1,2,2) = -z; jacobi_tangent reads
        # T(1,2,1), T(1,3,1) and T(2,3,1), at places 0, 3 and 6 of the stream, all zero, before it
        # stops at J(2,4,5) = -T(1,2,2): the stream is computed up to T(2,3,1)
        want = stream[:7]
        nonzero = [at for at, t in kvgeom.geometry._codazzi_entries(parse_scenario(text).env["h"]) if not t.is_zero()]
        assert nonzero == [(0, 1, 1), (0, 2, 2), (1, 2, 1), (1, 2, 2)]

    started, read = _count_codazzi_reads(monkeypatch)
    grads = _count(monkeypatch, kvgeom.geometry, "_grad")
    scenario = parse_scenario(text + "check codazzi h\ncheck kv_bracket h\ncheck jacobi_tangent h\n")
    outcomes = run_scenario(scenario).outcomes
    if kv:
        assert [o.status for o in outcomes] == ["pass"] * 3
    else:
        assert [(o.status, o.details, o.witness.residual) for o in outcomes] == [
            ("fail", "defect at indices (1,2,2)", "-z"),
            ("fail", "bracket nonzero at (1,2,2)", "z"),
            ("fail", "Jacobiator nonzero at (2,4,5)", "z"),
        ]
    assert started == [scenario.env["h"]]
    assert read == want
    # the Codazzi stream has taken all six rows d h_bc, b <= c, by T(2,3,1); the bracket stream takes
    # them all when h is K-V, and d h_12, d h_11 and d h_22 when it stops at B(1,2,2)
    assert len(grads) == 6 + (6 if kv else 3)
