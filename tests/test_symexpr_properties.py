"""Property tests for the symexpr kernel: ring axioms, canonical forms, calculus rules,
gcds and substitution.

Examples are derandomized and few, so the suite stays deterministic and quick.
Polynomials have at most four terms of degree at most two in x and y, and
denominators at most two terms of degree at most one, which keeps every gcd small.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvgeom.errors import PoleAtPoint, ZeroDenominator
from kvgeom.symexpr import Expr, Poly, divexact, poly_gcd

kernel = settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

ZERO = Expr.const(0)
ONE = Expr.const(1)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_coefficients = coefficients.filter(bool)


def _monomial(ex: int, ey: int):
    return tuple((v, e) for v, e in (("x", ex), ("y", ey)) if e)


def polys(degree: int, size: int):
    exponents = st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(lambda e: sum(e) <= degree)
    terms = st.dictionaries(exponents, coefficients, max_size=size)
    return terms.map(lambda d: Poly({_monomial(*e): c for e, c in d.items()}))


numerators = polys(2, 4)
denominators = polys(1, 2).filter(lambda p: not p.is_zero())
exprs = st.one_of(numerators.map(Expr), st.builds(Expr, numerators, denominators))
nonzero_exprs = exprs.filter(lambda e: not e.is_zero())
points = st.fixed_dictionaries({"x": coefficients, "y": coefficients})


@kernel
@given(exprs, exprs, exprs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()
    assert a - b == a + (-b)
    assert -(-a) == a


@kernel
@given(exprs, nonzero_exprs)
def test_quotient_of_product_is_canonical(a, b):
    assert (a * b) / b == a


@kernel
@given(numerators, nonzero_coefficients)
def test_constant_denominator_scales_the_numerator(p, c):
    assert Expr(p, Poly.const(c)) == Expr(p.scale(1 / c))
    assert Expr(p, Poly.const(1)).num == p


@kernel
@given(numerators, numerators)
def test_polynomial_arithmetic_matches_poly(p, q):
    assert (Expr(p) + Expr(q)).num == p + q
    assert (Expr(p) - Expr(q)).num == p - q
    assert (Expr(p) * Expr(q)).num == p * q
    assert Expr(p).diff("x").num == p.diff("x")
    assert all(e.den == Poly.const(1) for e in (Expr(p) + Expr(q), Expr(p) * Expr(q), Expr(p).diff("y")))


@kernel
@given(exprs, exprs, st.sampled_from(["x", "y"]))
def test_product_rule(a, b, v):
    assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


@kernel
@given(exprs, nonzero_exprs, st.sampled_from(["x", "y"]))
def test_quotient_rule(a, b, v):
    assert (a / b).diff(v) == (a.diff(v) * b - a * b.diff(v)) / (b * b)


@kernel
@given(numerators, numerators)
def test_gcd_divides_both_inputs_and_is_monic(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert divexact(a, g) is not None
    assert divexact(b, g) is not None
    assert g.leading_term()[1] == 1


@kernel
@given(exprs, st.fixed_dictionaries({"x": exprs, "y": exprs}), points)
def test_substitute_then_evaluate_is_evaluate_at_the_image(e, bindings, point):
    try:
        image = {v: b.eval_at(point) for v, b in bindings.items()}
        expected = e.eval_at(image)
        got = e.substitute(bindings).eval_at(point)
    except (PoleAtPoint, ZeroDenominator):
        return
    assert got == expected
