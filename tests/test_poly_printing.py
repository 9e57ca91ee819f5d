"""The polynomial printer against the printer it replaced.

``symexpr._poly_str`` prints each term from its integer coefficient over the
polynomial's denominator, reduced by their gcd, through ``_decimal``.
``reference_poly_str`` keeps the printer it replaced, as a test-only
reference: one ``Fraction`` per term, printed by ``_rational_str``.  Both
must give the same text on every polynomial, also one with coefficients and
denominators far past the int-to-str digit limit.
"""

import random
import sys
from fractions import Fraction

import pytest

from kvgeom.symexpr import Expr, Poly, _exponents, _packed, _poly_str, _rational_str


def _term_str(vars, k, c):
    mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(vars, _exponents(k, len(vars))) if e)
    a = abs(c)
    if mono and a == 1:
        return mono
    digits = _rational_str(a)
    return f"{digits}*{mono}" if mono else digits


def reference_poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    out = []
    for i, k in enumerate(sorted(p.terms, reverse=True)):
        c = Fraction(p.terms[k], p.den)
        body = _term_str(p.vars, k, c)
        if i == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


def _random_poly(rng: random.Random) -> Poly:
    names = rng.sample(("x", "y", "z", "w1", "é"), rng.randint(0, 3))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple((v, rng.choice((1, 1, 2, 3, 17))) for v in sorted(rng.sample(names, rng.randint(0, len(names)))))
        r = rng.random()
        if r < 0.1:
            c = rng.choice((-1, 1)) * (rng.getrandbits(rng.choice((2200, 5000))) | 1)  # 660 to 1500 digits
        elif r < 0.3:
            c = rng.choice((-1, 1))
        else:
            c = rng.randint(-60, 60)
        terms[mono] = c
    r = rng.random()
    den = rng.getrandbits(rng.choice((1800, 4000))) | 1 if r < 0.1 else rng.choice((1, 1, 2, 3, 6, 12, 35))
    return _packed(terms, den)


@pytest.mark.parametrize("seed", range(3))
def test_random_polynomials_print_as_the_reference_prints_them(seed):
    rng = random.Random(7400 + seed)
    for _ in range(400):
        p = _random_poly(rng)
        assert _poly_str(p) == reference_poly_str(p)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_long_coefficients_print_alike_under_a_lowered_int_limit():
    rng = random.Random(7410)
    polys = [_random_poly(rng) for _ in range(200)]
    polys.append(_packed({(("x", 1),): 3 ** 5000, (): -(7 ** 3000)}, 11 ** 2000))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit CPython accepts
    try:
        texts = [_poly_str(p) for p in polys]
        wanted = [reference_poly_str(p) for p in polys]
    finally:
        sys.set_int_max_str_digits(before)
    assert texts == wanted
    assert any(len(t) > 2000 for t in texts)


def test_expressions_print_their_numerator_and_denominator_alike():
    x, y = Expr.var("x"), Expr.var("y")
    for e in (x / 3 - y * Fraction(2, 9), (x + 1) / (2 * y - 4), -(x ** 2) / 6, Expr.const(0), Expr.const(Fraction(-5, 3))):
        want = reference_poly_str(e.num) if e.den.is_const() else f"({reference_poly_str(e.num)}) / ({reference_poly_str(e.den)})"
        assert str(e) == want
