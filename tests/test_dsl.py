"""Scenario language: grammar, positioned errors, round trips, report rendering."""

import json
import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from kvgeom.algebra import AlgebraSpec
from kvgeom.dsl import (
    _OPTIONS,
    CheckDirective,
    CheckOptions,
    CheckOutcome,
    Environment,
    Scenario,
    Witness,
    parse_expr,
    parse_scenario,
    render_report,
    serialize,
)
from kvgeom.corpus import BUILTIN_SCENARIOS
from kvgeom.errors import ParseError, SemanticError
from kvgeom.geometry import Chart, ScalarField, SymBivector
from kvgeom.structures import AffineMap, AffineSubmanifold
from kvgeom.symexpr import Expr


def test_parse_minimal_scenario():
    s = parse_scenario(
        "manifold M { dim 2 coords [x y] } bivector h on M { [x, 0; 0, y] } check codazzi h"
    )
    assert list(s.env) == ["M", "h"]
    assert len(s.checks) == 1
    assert s.checks[0].kind == "codazzi"
    assert s.env["h"].entries[0][0] == Expr.var("x")
    assert s.env["h"].chart is s.env["M"]


def test_upper_triangle_shorthand():
    s = parse_scenario("manifold M { dim 3 coords [x y z] } bivector h on M { [1, 2, 3; 4, 5; 6] }")
    h = s.env["h"]
    assert h.entries[1][0] == Expr.const(2)
    assert h.entries[2][0] == Expr.const(3)
    assert h.entries[2][1] == Expr.const(5)
    assert h.entries[2][2] == Expr.const(6)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_scenario("manifold M { dim 2 coords [x y] }\nbivector h on M { [x +, 0; 0, y] }")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc2:
        parse_scenario("manifold M { dim 2\ncoords [x y }")
    assert exc2.value.line == 2
    with pytest.raises(ParseError):
        parse_scenario("check codazzi")  # missing argument
    with pytest.raises(ParseError):
        parse_scenario("check frobnicate h")  # unknown kind
    with pytest.raises(ParseError):
        parse_scenario("manifold M { dim 2 coords [x y] } bivector h on M { [1/0] }")


def test_semantic_errors():
    with pytest.raises(SemanticError) as exc:
        parse_scenario("manifold M { dim 2 coords [x y] } bivector h on M { [0, x; 1, 0] }")
    assert "asymmetric" in exc.value.message
    with pytest.raises(SemanticError):
        parse_scenario("manifold M { dim 2 coords [x y] } manifold M { dim 1 coords [t] }")
    with pytest.raises(SemanticError):
        parse_scenario("check codazzi missing")
    with pytest.raises(SemanticError):
        parse_scenario("manifold M { dim 2 coords [x x] }")
    with pytest.raises(SemanticError):
        parse_scenario("manifold M { dim 2 coords [x y] } scalar f on M = q + x")
    with pytest.raises(SemanticError):
        # chart mismatch between submanifold and bivector
        parse_scenario(
            "manifold M { dim 2 coords [x y] } manifold N { dim 1 coords [t] } "
            "bivector h on N { [t] } submanifold S in M { origin [0, 0] basis [1, 0] } "
            "check submanifold S h"
        )
    with pytest.raises(SemanticError):
        parse_scenario("algebra A { dim 2 product { 1 1 3 : 1 } }")  # index out of range
    with pytest.raises(SemanticError):
        parse_scenario("algebra A { dim 2 product { 1 1 1 : 1 } } check annihilator A")
    with pytest.raises(SemanticError):
        parse_scenario("manifold check { dim 1 coords [t] }")  # reserved word


def test_malformed_fixtures_all_raise_positioned_errors():
    P, S = ParseError, SemanticError
    X, K = "expect takes 'pass' or 'fail'", "kind takes 'subalgebra' or 'ideal'"
    R, N = "point must be a single row", "expected submanifold name"
    fixtures = [  # text, then the error's class, line, column, message and token
        ("manifold", P, 1, 9, "expected manifold name", ""),
        ("manifold M", P, 1, 11, "expected '{'", ""),
        ("manifold M { dim }", P, 1, 18, "expected integer", "}"),
        ("manifold M { dim 2 coords [x y] ", P, 1, 33, "expected '}'", ""),
        ("bivector h on M { [x] }", S, 1, 1, "unknown manifold 'M'", "M"),
        ("scalar f on", P, 1, 12, "expected manifold name", ""),
        ("map F : A -> { matrix [1] offset [0] }", P, 1, 14, "expected target manifold", "{"),
        ("submanifold N in M { origin }", P, 1, 29, "expected '['", "}"),
        ("algebra A { dim 2 product 1 1 1 : 1 }", P, 1, 27, "expected '{'", "1"),
        ("check", P, 1, 6, "expected check kind", ""),
        (
            "check codazzi h extra_token_not_a_check",
            P, 1, 17, "unexpected 'extra_token_not_a_check'; expected a declaration or check", "extra_token_not_a_check",
        ),
        ("manifold M { dim 2 coords [x y] } bivector h on M { [x, ; 0, y] }", P, 1, 57, "expected expression", ";"),
        ("manifold M { dim 2 coords [x y] } check rank h { samples 0 }", P, 1, 50, "samples must be >= 1", "samples"),
        ("manifold M { dim 2 coords [x y] } check rank h { bogus 1 }", P, 1, 50, "expected a check option", "bogus"),
        ("manifold M { dim 2 coords [x y] } check rank h { expect maybe }", P, 1, 50, X, "maybe"),
        ("manifold M { dim 2 coords [x y] } check rank h { kind normal }", P, 1, 50, K, "normal"),
        ("manifold M { dim 2 coords [x y] } check rank h { point [1, 2; 3, 4] }", P, 1, 50, R, "point"),
        ("bivector { [x] }", P, 1, 10, "expected bivector name", "{"),
        ("scalar = x", P, 1, 8, "expected scalar name", "="),
        ("map : A -> B { matrix [1] offset [0] }", P, 1, 5, "expected map name", ":"),
        ("submanifold", P, 1, 12, "expected submanifold name", ""),
        ("manifold M { dim 2 coords [x y] }\nsubmanifold 2 in M { origin [0, 0] }", P, 2, 13, N, "2"),
        ("algebra { dim 1 product { } }", P, 1, 9, "expected algebra name", "{"),
        ("manifold M { dim 1 coords [x] } bivector h on M { [x^y] }", P, 1, 54, "expected integer exponent", "y"),
        ("manifold M { dim 1 coords [x] } bivector h on M { [3/0*x] }", P, 1, 53, "division by zero expression", "/"),
        # a digit to str.isdigit, but not to int()
        ("manifold M { dim ² coords [x] }", P, 1, 18, "unexpected character '²'", "²"),
        ("manifold M { dim 1 coords [x] } bivector h on M { [²] }", P, 1, 52, "unexpected character '²'", "²"),
    ]
    for text, cls, line, column, message, token in fixtures:
        with pytest.raises((ParseError, SemanticError)) as exc:
            parse_scenario(text)
        e = exc.value
        assert (type(e), e.line, e.column, e.message, e.token) == (cls, line, column, message, token), text


def test_a_syntax_error_is_reported_before_a_semantic_error_earlier_in_the_text():
    with pytest.raises(ParseError) as exc:
        parse_scenario("bivector h on Q { [x] }\n\ncheck frobnicate h\n")
    e = exc.value
    assert (e.line, e.column, e.message, e.token) == (3, 7, "unknown check kind 'frobnicate'", "frobnicate")


def test_a_check_may_name_an_object_declared_after_it():
    s = parse_scenario("check codazzi h\nmanifold M { dim 1 coords [x] }\nbivector h on M { [x] }\n")
    assert s.checks[0].args == ("h",) and s.env.kind_of("h") == "bivector"
    assert serialize(s) == "manifold M { dim 1 coords [x] }\nbivector h on M { [x] }\ncheck codazzi h\n"


def test_an_explicit_zero_algebra_entry_changes_nothing():
    plain = parse_scenario("algebra A { dim 2 product { 1 1 1 : 1 } cocycle { 2 2 : 1 } }")
    zeros = parse_scenario("algebra A { dim 2 product { 1 1 1 : 1  1 2 2 : 0 } cocycle { 1 2 : 0  2 2 : 1 } }")
    assert zeros == plain
    assert serialize(zeros) == "algebra A { dim 2 product { 1 1 1 : 1 } cocycle { 2 2 : 1 } }\n"


def test_the_readme_scenario_example_parses_and_serializes_to_a_fixpoint():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme[readme.index("## Scenario language and CLI"):].split("```")[1]
    s = parse_scenario(example)
    assert len(s.env) == 6 and len(s.checks) == 5
    text = serialize(s)
    assert parse_scenario(text) == s and serialize(parse_scenario(text)) == text


def test_scenarios_with_reordered_declarations_differ():
    a = "manifold M { dim 1 coords [x] }\n"
    b = "manifold N { dim 1 coords [y] }\n"
    assert parse_scenario(a + b) != parse_scenario(b + a)


def test_a_repeated_check_option_is_an_error_at_its_second_occurrence():
    head = "manifold M { dim 2 coords [x y] } bivector h on M { [x, 0; 0, y] }\n"
    cases = (
        ("points [1, 2] points [3, 4]", "points"),
        ("samples 3 samples 4", "samples"),
        ("expect pass samples 2 expect fail", "expect"),
        ("kind ideal entry 1 1 x kind subalgebra", "kind"),
        ("basis [1, 0] points [1, 2] basis [0, 1]", "basis"),
        ("point [1, 2] point [3, 4]", "point"),
    )
    assert {key for _, key in cases} == set(_OPTIONS) - {"entry"}
    for options, key in cases:
        line = f"check rank h {{ {options} }}"
        with pytest.raises(ParseError) as exc:
            parse_scenario(head + line)
        e = exc.value
        assert (e.line, e.column, e.message, e.token) == (2, line.rindex(key) + 1, f"repeated option {key!r}", key)
    # entry may repeat
    s = parse_scenario(f"{head}scalar f on M = x\ncheck lie_derivative h f {{ entry 1 1 x entry 2 2 y }}")
    assert [(i, j) for i, j, _ in s.checks[0].options.entries] == [(1, 1), (2, 2)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_integer_literals_read_alike_under_a_lowered_int_limit():
    wanted = {n: int("9" * n) for n in (1000, 4300)}
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit CPython accepts
    try:
        for n, value in wanted.items():
            assert parse_expr("9" * n + "*x") == Expr.const(value) * Expr.var("x")
        with pytest.raises(ParseError) as exc:
            parse_expr("x + " + "9" * 4301)
    finally:
        sys.set_int_max_str_digits(before)
    e = exc.value
    assert (e.line, e.column, e.message, e.token) == (1, 5, "integer literal longer than 4300 digits", "9" * 4301)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_long_rationals_serialize_under_a_lowered_int_limit():
    sevens = "7" * 1000
    text = (
        "manifold M { dim 2 coords [x y] }\n"
        f"map F : M -> M {{ matrix [1, 0; 0, {sevens}] offset [-1/{sevens}, 0] }}\n"
        f"submanifold N in M {{ origin [{sevens}, 0] basis [1, -{sevens}] }}\n"
        "bivector h on M { [x, 0; 0, y] }\n"
        f"check rank h {{ points [{sevens}/2, 0] }}\n"
    )
    s = parse_scenario(text)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit CPython accepts
    try:
        out = serialize(s)
        assert parse_scenario(out) == s
    finally:
        sys.set_int_max_str_digits(before)
    assert f"offset [-1/{sevens}, 0]" in out and f"points [{sevens}/2, 0]" in out


def test_a_coefficient_past_4300_digits_serializes_but_does_not_read_back():
    s = parse_scenario("manifold M { dim 2 coords [x y] }\nbivector h on M { [3^10000*x*y, 0; 0, y] }\n")
    text = serialize(s)
    assert str(3 ** 10000 % 10 ** 9) + "*x*y" in text
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    e = exc.value
    assert (e.line, e.column, e.message) == (2, 20, "integer literal longer than 4300 digits")
    assert len(e.token) == 4772


_FRAGMENTS = (
    "{", "}", "[", "]", ";", ",", ":", "->", "/", "^", "*", "-", "+", "(", ")", "=", "0", "1/0", "7", "x", "q",
    " ", "\n", "#", "check", "dim", "coords", "basis", "origin", "matrix", "offset", "expect", "points", "on", "in",
)


def _mutate(rng: random.Random, text: str) -> str:
    """One to three random edits: delete, insert a fragment, duplicate or move a span, or truncate."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        op = rng.randrange(9)
        if op < 2:
            text = text[:i] + text[j:]
        elif op < 5:
            text = text[:i] + rng.choice(_FRAGMENTS) + text[i:]
        elif op < 7:
            text = text[:j] + text[i:j] + text[j:]
        elif op < 8:
            rest = text[:i] + text[j:]
            k = rng.randrange(len(rest) + 1)
            text = rest[:k] + text[i:j] + rest[k:]
        else:
            text = text[:i]
    return text


def test_mutated_corpus_texts_give_a_scenario_or_a_positioned_error():
    """No mutation of a corpus text escapes as anything but a Scenario or a positioned ParseError/SemanticError."""
    rng = random.Random(8)
    texts = [e.text for name, e in BUILTIN_SCENARIOS.items() if name != "worked_examples"]
    assert len(texts) == 8
    outcomes = {"scenario": 0, "error": 0}
    for text in texts:
        for _ in range(150):
            mutant = _mutate(rng, text)
            try:
                result = parse_scenario(mutant)
            except (ParseError, SemanticError) as exc:
                assert exc.line >= 1 and exc.column >= 1, mutant
                outcomes["error"] += 1
            else:
                assert isinstance(result, Scenario), mutant
                outcomes["scenario"] += 1
    assert outcomes["scenario"] > 0 and outcomes["error"] > 0


def _random_scenario(rng: random.Random) -> Scenario:
    env = Environment()
    checks = []
    n_charts = rng.randint(1, 3)
    charts = []
    for ci in range(n_charts):
        dim = rng.randint(1, 3)
        coords = tuple(f"c{ci}_{j}" for j in range(dim))
        name = f"M{ci}"
        env[name] = Chart(name, coords)
        charts.append((name, dim, coords))
    bivs = []
    for bi in range(rng.randint(1, 3)):
        cname, dim, coords = rng.choice(charts)
        entries = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                e = Expr.const(Fr(rng.randint(-3, 3), rng.randint(1, 3)))
                if rng.random() < 0.6:
                    e = e + Expr.var(rng.choice(coords)) * rng.randint(1, 2)
                entries[i][j] = entries[j][i] = e
        name = f"h{bi}"
        env[name] = SymBivector(env[cname], tuple(tuple(r) for r in entries))
        bivs.append((name, cname, dim, coords))
    scalars = []
    for si in range(rng.randint(0, 2)):
        cname, dim, coords = rng.choice(charts)
        name = f"f{si}"
        value = parse_expr(f"{rng.randint(-2, 2)}") + Expr.var(rng.choice(coords)) ** rng.randint(1, 3)
        env[name] = ScalarField(env[cname], value)
        scalars.append((name, cname))
    for mi in range(rng.randint(0, 2)):
        (sname, sdim, _), (tname, tdim, _) = rng.choice(charts), rng.choice(charts)
        matrix = tuple(tuple(Fr(rng.randint(-2, 2)) for _ in range(sdim)) for _ in range(tdim))
        offset = tuple(Fr(rng.randint(-1, 1)) for _ in range(tdim))
        env[f"F{mi}"] = AffineMap(env[sname], env[tname], matrix, offset)
    for ni in range(rng.randint(0, 2)):
        cname, dim, _ = rng.choice(charts)
        k = rng.randint(0, dim)
        basis = tuple(tuple(Fr(1 if i == j else 0) for j in range(dim)) for i in range(k))
        origin = tuple(Fr(rng.randint(-1, 1)) for _ in range(dim))
        env[f"N{ni}"] = AffineSubmanifold(env[cname], origin, basis)
    if rng.random() < 0.5:
        env["A0"] = AlgebraSpec.from_sparse(
            2, {(0, 0, 0): Fr(1), (0, 1, 1): Fr(rng.randint(-2, 2))}, {(0, 0): Fr(1, 2)} if rng.random() < 0.5 else {}
        )
    for name, cname, dim, coords in bivs:
        opts = CheckOptions()
        if rng.random() < 0.4:
            opts = CheckOptions(samples=rng.randint(1, 9))
        if rng.random() < 0.2:
            opts = CheckOptions(expect="fail")
        checks.append(CheckDirective("codazzi", (name,), opts))
    for sname, scname in scalars:
        match = [b for b in bivs if b[1] == scname]
        if match:
            checks.append(CheckDirective("in_E", (match[0][0], sname), CheckOptions()))
    return Scenario(env, tuple(checks))


def test_round_trip_on_generated_scenarios():
    rng = random.Random(61)
    for _ in range(100):
        s = _random_scenario(rng)
        text = serialize(s)
        assert parse_scenario(text) == s
        # serialization itself is stable
        assert serialize(parse_scenario(text)) == text


def test_options_round_trip():
    text = (
        "manifold M { dim 2 coords [x y] } bivector h on M { [x, 0; 0, y] } "
        "scalar f on M = x "
        "submanifold N in M { origin [0, 0] basis [1, 0] } "
        "check transversal N h { samples 3 points [1, 0; 1/2, 0] expect pass } "
        "check lie_derivative h f { entry 1 1 -x entry 2 2 y } "
        "check conormal N h { point [1/2, -3] expect fail } "
        "algebra A { dim 2 product { 1 1 1 : 1 } cocycle { 2 2 : -1/3 } } "
        "check annihilator A { kind ideal basis [0, 1] }"
    )
    s = parse_scenario(text)
    assert serialize(s) == (
        "manifold M { dim 2 coords [x y] }\n"
        "bivector h on M { [x, 0; 0, y] }\n"
        "scalar f on M = x\n"
        "submanifold N in M { origin [0, 0] basis [1, 0] }\n"
        "algebra A { dim 2 product { 1 1 1 : 1 } cocycle { 2 2 : -1/3 } }\n"
        "check transversal N h { samples 3 points [1, 0; 1/2, 0] expect pass }\n"
        "check lie_derivative h f { entry 1 1 -x entry 2 2 y }\n"
        "check conormal N h { expect fail point [1/2, -3] }\n"
        "check annihilator A { kind ideal basis [0, 1] }\n"
    )
    assert parse_scenario(serialize(s)) == s
    opts = s.checks[0].options
    assert opts.samples == 3 and opts.points == ((Fr(1), Fr(0)), (Fr(1, 2), Fr(0)))
    assert s.checks[1].options.entries[0][2] == -Expr.var("x")


def test_render_report_json_schema_and_stability():
    results = [
        CheckOutcome("h", "codazzi", "pass", None, "ok"),
        CheckOutcome("h2", "codazzi", "fail", Witness(("1/2", "-3"), "-x"), "defect at (1,2,2)"),
        CheckOutcome("N,h", "transversal", "pointwise-pass", None, "sampled"),
    ]
    out1 = render_report(results, "json")
    out2 = render_report(results, "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"checks"}
    first = payload["checks"][0]
    assert set(first) == {"name", "kind", "status", "witness", "details"}
    assert payload["checks"][1]["witness"] == {"point": ["1/2", "-3"], "residual": "-x"}
    text = render_report(results, "text")
    assert "pointwise-pass" in text
    assert render_report([], "text") == "no checks\n"
    with pytest.raises(ValueError):
        render_report(results, "yaml")


def test_scenario_comments_and_whitespace_insensitivity():
    a = parse_scenario("manifold M { dim 1 coords [x] }  # trailing comment")
    b = parse_scenario("# leading comment\nmanifold M {\n  dim 1\n  coords [x]\n}")
    assert a == b
