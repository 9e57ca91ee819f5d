"""Exact arithmetic layer: canonical forms, calculus rules, parsing."""

import random
import signal
from fractions import Fraction

import pytest

from conftest import random_poly, random_rational_function, rational
from kvgeom.errors import DegreeOverflow, ParseError, PoleAtPoint, ZeroDenominator
from kvgeom.dsl import parse_expr
from kvgeom.symexpr import _P_ZERO, ZERO, Expr, Poly, _exponents, poly_gcd, substitute

X = Expr.var("x")
Y = Expr.var("y")
T = Expr.var("t")


def test_normalize_cancellation():
    assert (X + X - 2 * X).is_zero()


def test_normalize_gcd_reduction_against_sampling():
    e = (X ** 2 - Y ** 2) / (X - Y)
    assert e == X + Y
    rng = random.Random(1)
    hits = 0
    while hits < 20:
        px, py = rational(rng, 5), rational(rng, 5)
        if px == py:
            continue
        hits += 1
        num = px ** 2 - py ** 2
        assert e.eval_at({"x": px, "y": py}) == num / (px - py)


def test_normalize_coefficient_reduction():
    e = Expr.const(Fraction(2, 4)) * X
    assert str(e) == "1/2*x"


def test_normalize_is_canonical_across_representations():
    rng = random.Random(2)
    for _ in range(25):
        a = random_poly(rng, ("x", "y"), 2)
        b = random_poly(rng, ("x", "y"), 2)
        if b.is_zero():
            continue
        e1 = a / b
        e2 = (a * b) / (b * b)  # same rational function, different representation
        assert e1 == e2
        assert str(e1) == str(e2)


def test_normalize_idempotent_and_difference_zero():
    rng = random.Random(3)
    for _ in range(20):
        e = random_rational_function(rng, ("x", "y"), 3)
        # rebuilding from the canonical parts re-normalizes to the same form
        assert Expr(e.num, e.den) == e
        assert (e - Expr(e.num, e.den)).is_zero()


def test_negating_a_zero_returns_that_zero():
    # a zero is its own negation, so -ZERO builds no new object; nor does ZERO - e when e is zero
    assert -ZERO is ZERO and ZERO - ZERO is ZERO
    assert -_P_ZERO is _P_ZERO and -Poly.zero() is Poly.zero()


def test_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        Expr(Poly.var("x"), Poly.zero())
    with pytest.raises(ZeroDenominator):
        X / (Y - Y)


def test_differentiate_basics():
    assert (X ** 2 * Y).diff("x") == 2 * X * Y
    assert (1 / X).diff("x") == -1 / X ** 2
    assert (X ** 2).diff("z").is_zero()
    assert (X ** 2).diff("z") is ZERO and (1 / X).diff("y") is ZERO  # a variable the expression lacks


def test_differentiate_matches_finite_differences():
    d = (X ** 4).diff("x")
    assert d.eval_at({"x": 1}) == 4
    h = 1e-5
    fd = ((1 + h) ** 4 - (1 - h) ** 4) / (2 * h)
    assert abs(fd - 4) < 1e-6


def test_differentiate_random_against_finite_differences():
    rng = random.Random(4)
    for _ in range(10):
        e = random_rational_function(rng, ("x",), 3)
        d = e.diff("x")
        for _ in range(5):
            p = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            try:
                exact = d.eval_at({"x": p})
                h = Fraction(1, 10 ** 6)
                fd = (e.eval_at({"x": p + h}) - e.eval_at({"x": p - h})) / (2 * h)
            except PoleAtPoint:
                continue
            scale = max(1.0, abs(float(exact)))
            assert abs(float(fd - exact)) / scale < 1e-6


def test_substitute_examples():
    assert (X ** 2).substitute({"x": 2 * T}) == 4 * T ** 2
    assert X.substitute({"x": Expr.const(0)}).is_zero()
    with pytest.raises(ZeroDenominator):
        ((X + Y) / (X - Y)).substitute({"x": T, "y": T})


def test_substitute_partial_leaves_other_variables():
    e = X * Y + Y ** 2
    assert e.substitute({"x": Expr.const(0)}) == Y ** 2


def _substitute_by_arithmetic(e: Expr, binds) -> Expr:
    """A reference: each term c x^a of the numerator and the denominator rebuilt as c prod b_x^a in Expr arithmetic."""

    def image(p: Poly) -> Expr:
        out = Expr.const(0)
        for k, c in p.terms.items():
            t = Expr.const(Fraction(c, p.den))
            for v, a in zip(p.vars, _exponents(k, len(p.vars))):
                t = t * (Expr._coerce(binds[v]) if v in binds else Expr.var(v)) ** a
            out = out + t
        return out

    return image(e.num) / image(e.den)


P = parse_expr
# entries of degrees 0 to 3 in x, so that each needs its own power D_x^(d - e) of a rational binding of x
BY_DEGREE = [P("x^3*y + x"), P("x^2 - 1"), P("x"), P("y"), P("5"), P("x*y^2 + 3*x^2*y"), P("0"), P("x^3 - x^2 + z")]
WITH_A_RATIONAL_ENTRY = [P("x^2 + y"), P("(x + 1)/(y^2 - 2)"), P("x*y*z"), P("1/3*x - 2/5")]
BINDINGS = [
    {"x": P("(2*t + 1)/(t - 3)"), "y": P("t/2 + 1/3")},  # a rational binding and a rational origin
    {"x": P("1/2*t + 3/4*s - 1/3"), "y": P("-2/3*s + 5"), "z": Fraction(1, 7)},  # an affine chart change
    {"x": 0, "y": P("y + x")},  # a zero binding, and a binding in a bound variable
    {"w": 3},  # no entry has w
]


@pytest.mark.parametrize("entries", [BY_DEGREE, WITH_A_RATIONAL_ENTRY])
@pytest.mark.parametrize("binds", BINDINGS)
def test_substitute_of_a_matrix_equals_substitute_entry_by_entry(entries, binds):
    got = substitute(entries, binds)
    assert got == [substitute([e], binds)[0] for e in entries]
    assert got == [e.substitute(binds) for e in entries]
    assert got == [_substitute_by_arithmetic(e, binds) for e in entries]


@pytest.mark.parametrize("binds", BINDINGS[:2], ids=["rational", "polynomial"])
def test_substitute_images_each_distinct_entry_once(binds):
    """Repeated objects and equal but distinct expressions: every image is the per-entry one, and equal
    entries share one image object."""
    a, b = P("x^2*y + 1/3*x"), P("(x + 1)/(y^2 - 2)")
    twins = P("x^2*y + 1/3*x"), P("(x + 1)/(y^2 - 2)")
    assert twins[0] is not a and twins[1] is not b
    entries = [a, b, a, twins[0], P("y"), b, twins[1], a]
    got = substitute(entries, binds)
    assert got == [e.substitute(binds) for e in entries]
    assert got == [_substitute_by_arithmetic(e, binds) for e in entries]
    assert all((got[i] is got[j]) == (e == f) for i, e in enumerate(entries) for j, f in enumerate(entries))


def test_substitute_of_random_matrices_equals_the_arithmetic_reference():
    rng = random.Random(2101)
    for _ in range(20):
        entries = [random_poly(rng, ("x", "y", "z"), 3) for _ in range(4)] + [random_rational_function(rng, ("x", "y"), 2)]
        binds = {v: random_poly(rng, ("s", "t"), 1, terms=2) for v in ("x", "y")}
        if rng.random() < 0.5:
            binds["z"] = random_rational_function(rng, ("t",), 1)
        try:
            want = [_substitute_by_arithmetic(e, binds) for e in entries]
        except ZeroDenominator:
            with pytest.raises(ZeroDenominator):
                substitute(entries, binds)
            continue
        assert substitute(entries, binds) == want


def test_substitute_of_a_matrix_raises_on_an_entry_whose_denominator_vanishes():
    with pytest.raises(ZeroDenominator, match="identically zero"):
        substitute([P("x + 1"), P("1/(x - y)")], {"x": P("t"), "y": P("t")})


def test_eval_at_examples():
    assert (X ** 2 + Y).eval_at({"x": 2, "y": 1}) == 5
    with pytest.raises(PoleAtPoint):
        (1 / X).eval_at({"x": 0})


def test_eval_agrees_with_unreduced_fraction():
    # normalization must not change values: eval(normalize(n/d)) == n(p)/d(p)
    rng = random.Random(5)
    done = 0
    while done < 100:
        num = random_poly(rng, ("x", "y"), 3)
        den = random_poly(rng, ("x", "y"), 2)
        if den.is_zero():
            continue
        e = num / den
        p = {"x": rational(rng, 4), "y": rational(rng, 4)}
        dv = den.eval_at(p)
        if dv == 0:
            continue
        assert e.eval_at(p) == num.eval_at(p) / dv
        done += 1


def test_leibniz_rule_symbolic():
    rng = random.Random(6)
    for _ in range(20):
        a = random_poly(rng, ("x", "y"), 4)
        b = random_poly(rng, ("x", "y"), 4)
        lhs = (a * b).diff("x")
        rhs = a * b.diff("x") + b * a.diff("x")
        assert lhs == rhs


def test_chain_rule_single_binding():
    rng = random.Random(7)
    for _ in range(15):
        e = random_poly(rng, ("x",), 4)
        g = random_poly(rng, ("t",), 3)
        lhs = e.substitute({"x": g}).diff("t")
        rhs = e.diff("x").substitute({"x": g}) * g.diff("t")
        assert lhs == rhs


def test_eval_commutes_with_arithmetic():
    rng = random.Random(8)
    for _ in range(25):
        a = random_rational_function(rng, ("x",), 2)
        b = random_rational_function(rng, ("x",), 2)
        p = {"x": rational(rng, 4)}
        try:
            va, vb = a.eval_at(p), b.eval_at(p)
            assert (a + b).eval_at(p) == va + vb
            assert (a * b).eval_at(p) == va * vb
        except PoleAtPoint:
            continue


def test_poly_gcd_cases():
    x, y = Poly.var("x"), Poly.var("y")
    one = Poly.const(1)
    assert poly_gcd(x * x - y * y, (x - y) * (x + Poly.const(3))) == x - y
    assert poly_gcd(one, x) == one
    assert poly_gcd(Poly.zero(), x) == x


def test_parse_examples_and_roundtrip():
    assert parse_expr("3/2") == Expr.const(Fraction(3, 2))
    assert parse_expr("x^2 - 2*x*y + y^2") == (X - Y) ** 2
    assert parse_expr("x^-1") == 1 / X
    assert parse_expr("-x + +y") == Y - X
    rng = random.Random(9)
    for _ in range(30):
        e = random_rational_function(rng, ("x", "y", "z"), 3)
        assert parse_expr(str(e)) == e


def _error(text: str) -> tuple:
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    e = exc.value
    return e.line, e.column, e.message, e.token


def test_parse_errors_are_positioned():
    assert _error("x +") == (1, 4, "expected expression", "")
    assert _error("x ^ y") == (1, 5, "expected integer exponent", "y")
    assert _error("(x + y") == (1, 7, "expected ')'", "")
    assert _error("x y") == (1, 3, "trailing input after expression", "y")


def _parse_at_depth(frames: int, text: str):
    """parse_expr called from ``frames`` extra Python stack frames."""
    return parse_expr(text) if frames == 0 else _parse_at_depth(frames - 1, text)


def test_deep_nesting_is_a_positioned_parse_error():
    message = "expression nested too deeply (more than 100 levels)"
    for text, col, token in (
        ("(" * 1500 + "x" + ")" * 1500, 1, "("),
        ("-" * 5000 + "x", 1, "-"),
        ("  x + " + "-(" * 60 + "y" + ")" * 60, 3, "x"),  # 120 levels, mixed; the error is at the first token, x
    ):
        assert _error(text) == (1, col, message, token)
    # 100 levels parse, also when the caller is already deep in the stack
    x = Expr.var("x")
    assert _parse_at_depth(300, "(" * 100 + "x" + ")" * 100) == x
    assert _parse_at_depth(300, "-" * 100 + "x") == x
    assert parse_expr("-" * 99 + "x") == -x


def test_a_sum_of_two_rational_terms_parses_within_two_seconds():
    """The primitive pseudo-remainder sequence removes integer content; the Euclidean one over Z took seconds here."""

    def alarm(signum, frame):
        raise TimeoutError("parse_expr ran past its 2 s budget")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        e = parse_expr("1/(x+1)^25 + 1/(x-1)^25")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert e.den == parse_expr("(x^2 - 1)^25").num
    assert e.eval_at({"x": 2}) == Fraction(1, 3**25) + 1


def test_canonical_monomial_order_in_strings():
    # graded lex, alphabetical variable names, descending
    e = Expr.var("y") + Expr.var("x") + Expr.var("x") * Expr.var("y") + Expr.const(1)
    assert str(e) == "x*y + x + y + 1"
    e2 = X ** 2 + X * Y ** 2
    assert str(e2) == "x*y^2 + x^2"


def test_a_power_of_several_terms_is_refused_by_its_estimated_size():
    # the estimate is terms x coefficient bits: (x+1)^k has k + 1 terms of at most k + 1 bits
    x, y, one = Poly.var("x"), Poly.var("y"), Poly.const(1)
    assert len(((x + one) ** 500).terms) == 501
    assert len(((x + y + one) ** 40).terms) == 861
    for p, k in ((x + one, 8000), (x + one, 2 ** 31 - 1), (x + y + one, 100), (Poly.const(3) * x - Poly.const(7), 500)):
        with pytest.raises(DegreeOverflow, match=f"power {k} of a {len(p.terms)}-term polynomial exceeds 1048576 bits"):
            p ** k
    # the spread of the exponents bounds the term count too: 1 + x + ... + x^499 squared has
    # 999 terms, not the C(501, 2) that 500 terms could make
    dense = sum((x ** i for i in range(1, 500)), one)
    assert len((dense ** 2).terms) == 999
    with pytest.raises(DegreeOverflow):
        Expr(x + one) ** -8000  # the power of the denominator


def test_a_parsed_product_is_refused_by_its_estimated_size():
    # (x+1)^590 has 591 terms of up to 585 bits; its square would have 1181 terms of up to 1180
    message = "product of a 591-term and a 591-term polynomial exceeds 1048576 bits"
    assert _error("(x + 1)^590 * (x + 1)^590") == (1, 13, message, "*")
    assert _error("(x + 1)^590 / (1 / (y + 1)^590)") == (1, 13, message, "/")  # num times den
    assert _error("(x + 1)^590 * (y + 1)^590") == (1, 13, message, "*")  # 591^2 terms
    # the same estimate as a power; a monomial factor is never refused
    assert parse_expr("(x + 1)^300 * (x + 1)^300") == parse_expr("((x + 1)^300)^2")
    assert parse_expr("(x + 1)^590 * 3*x^2147483000") == parse_expr("3*x^2147483000*(x + 1)^590")


def test_a_value_too_long_to_compute_is_refused_at_the_point():
    # x^(2^30 + 1) at x = 2 has 2^30 bits; at 0 and at +-1 every power is 0 or +-1
    e = parse_expr("x^1073741825*y - 1")
    with pytest.raises(DegreeOverflow, match="value at the point exceeds 1048576 bits"):
        e.eval_at({"x": 2, "y": 1})
    with pytest.raises(DegreeOverflow):
        (1 / e).eval_at({"x": Fraction(1, 3), "y": 1})  # in the denominator too
    assert [e.eval_at({"x": x, "y": 5}) for x in (0, 1, -1)] == [-1, 4, -6]
    assert parse_expr("x^100000").eval_at({"x": Fraction(3, 7)}) == Fraction(3 ** 100000, 7 ** 100000)  # 2^18 bits


def test_coefficients_of_any_length_print_exactly():
    """Past CPython's 4300-digit int-to-str limit, with zeros where the printed parts meet."""
    big = 10 ** 5000 + 7
    assert str(Expr.const(big)) == "1" + "0" * 4999 + "7"
    assert str(-X * Fraction(big, 3) + 1) == "-1" + "0" * 4999 + "7/3*x + 1"
    assert str(X / big) == "1/1" + "0" * 4999 + "7*x"
    assert str(Expr.const(10 ** 4096)) == "1" + "0" * 4096


def test_exponents_wider_than_sixteen_bits_stay_exact():
    assert parse_expr("x^65535*x") == parse_expr("x^65536")
    assert str(parse_expr("x^65535*x")) == "x^65536"
    assert str(parse_expr("x^70000*y")) == "x^70000*y"
    assert parse_expr("x^65536*y - y*x^65536").is_zero()
    assert str(parse_expr("(x^40000*y + 1)^2")) == "x^80000*y^2 + 2*x^40000*y + 1"
    e = parse_expr("x^70000*y + 3")
    assert e.eval_at({"x": Fraction(1, 2), "y": 3}) == Fraction(3, 2 ** 70000) + 3
    assert e.substitute({"y": X ** 5}) == parse_expr("x^70005 + 3")
    assert str(e.diff("x")) == "70000*x^69999*y"


def test_a_degree_past_the_field_width_is_an_error_not_a_wrap():
    top = 2 ** 31 - 1  # the largest degree a packed field holds
    assert str(parse_expr(f"x^{top}*y^0")) == f"x^{top}"
    message = f"polynomial degree {top + 1} exceeds the largest supported degree {top}"
    for text, col, op in (
        (f"y + x^{top}*x", 17, "*"), (f"x^{top + 1}", 2, "^"), (f"(x*y)^{2 ** 30}", 6, "^"), (f"1/x^{top} - 1/x", 16, "-"),
    ):
        assert _error(text) == (1, col, message, op)
    x = Poly.var("x")
    big = x ** top
    with pytest.raises(DegreeOverflow):
        big * Poly.var("y")
    with pytest.raises(DegreeOverflow):
        (x + Poly.const(1)) ** (top + 1)  # refused before any product is formed
    with pytest.raises(DegreeOverflow):
        Expr(big).substitute({"x": X * Y})
