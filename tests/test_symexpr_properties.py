"""Property tests for the symexpr kernel: ring axioms, canonical forms, calculus rules,
gcds, substitution, and the packed monomial order against a reference comparison.

Examples are derandomized and few, so the suite stays deterministic and quick.
Polynomials have at most four terms of degree at most two in x and y, and
denominators at most two terms of degree at most one, which keeps every gcd small.
The gcd is also compared with a plain pseudo-remainder reference on products of
such polynomials in x, y and z.
"""

from functools import cmp_to_key

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvgeom.dsl import parse_expr
from kvgeom.errors import PoleAtPoint, ZeroDenominator
from kvgeom.symexpr import Expr, Poly, _from_univar, _monic, _pseudo_rem, _univar, divexact, poly_gcd

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


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """A reference: the monic gcd by primitive pseudo-remainder sequences alone, recursing on the
    largest variable, without the reduction to the coefficients in the variables one operand lacks."""
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    vs = a.variables() | b.variables()
    if not vs:
        return Poly.const(1)
    v = max(vs)
    A, B = _univar(a, v), _univar(b, v)
    ca, cb = _prs_content(A.values()), _prs_content(B.values())
    P = {e: divexact(p, ca) for e, p in A.items()}
    Q = {e: divexact(p, cb) for e, p in B.items()}
    if max(P) < max(Q):
        P, Q = Q, P
    while R := _pseudo_rem(P, Q):
        rc = _prs_content(R.values())
        P, Q = Q, {e: divexact(p, rc) for e, p in R.items()}
    return _monic(_prs_gcd(ca, cb) * _from_univar(Q, v))


def _prs_content(polys) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = _prs_gcd(g, p)
    return g


def polys_in(vs: tuple[str, ...], degree: int, size: int):
    exponents = st.tuples(*[st.integers(0, degree)] * len(vs)).filter(lambda e: sum(e) <= degree)
    terms = st.dictionaries(exponents, coefficients, max_size=size)
    return terms.map(lambda d: Poly({tuple((v, k) for v, k in zip(vs, e) if k): c for e, c in d.items()}))


@kernel
@given(polys_in(("y", "z"), 2, 3), polys_in(("y", "z"), 2, 3), polys_in(("z",), 1, 2), polys_in(("y",), 1, 2))
def test_gcd_on_a_variable_subset_equals_the_prs(c1, c2, d, common):
    """a = (c1 x + c2) common and b = c1 d common: vars(b) lies in vars(a) minus x, and the gcd of b with one
    coefficient of a in x can be larger than gcd(a, b)."""
    a = (c1 * Poly.var("x") + c2) * common
    b = c1 * d * common
    want = _prs_gcd(a, b)
    assert poly_gcd(a, b) == want
    assert poly_gcd(b, a) == want


@kernel
@given(
    polys_in(("x", "y"), 2, 3),
    polys_in(("x", "y"), 2, 3),
    polys_in(("x", "y"), 1, 2),
    st.integers(1, 60),
    st.integers(1, 60),
)
def test_gcd_of_operands_with_integer_content_equals_the_prs(p, q, common, k1, k2):
    """The pseudo-remainders are divided by their rational content; that must not change the monic gcd."""
    a = p.scale(k1) * common
    b = q.scale(k2) * common
    want = _prs_gcd(a, b)
    assert poly_gcd(a, b) == want
    assert poly_gcd(b, a) == want


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


# --- the packed monomial order against a reference comparison ----------------
#
# Monomials are ((var, exp), ...) tuples here.  The names sort as strings, not
# as numbers: "a" < "x10" < "x2" < "y1".

NAMES = ("a", "x10", "x2", "y1")


def _cmp_grlex(a, b) -> int:
    """Graded lex: total degree first, then earlier variable with larger exponent wins."""
    da = sum(e for _, e in a)
    db = sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    ia, ib = 0, 0
    while ia < len(a) or ib < len(b):
        va = a[ia][0] if ia < len(a) else None
        vb = b[ib][0] if ib < len(b) else None
        if vb is None or (va is not None and va < vb):
            return 1  # a has a positive exponent on an earlier variable
        if va is None or vb < va:
            return -1
        ea, eb = a[ia][1], b[ib][1]
        if ea != eb:
            return 1 if ea > eb else -1
        ia += 1
        ib += 1
    return 0


_GRLEX = cmp_to_key(_cmp_grlex)


def _mono(exps, names=NAMES):
    return tuple((v, e) for v, e in zip(names, exps) if e)


def term_dicts(names=NAMES):
    """{monomial: nonzero coefficient} over the given names, as a reference polynomial."""
    exponents = st.tuples(*[st.integers(0, 3)] * len(names))
    terms = st.dictionaries(exponents, nonzero_coefficients, max_size=5)
    return terms.map(lambda d: {_mono(e, names): c for e, c in d.items()})


def _ref_combine(p, q, sign=1):
    r = dict(p)
    for m, c in q.items():
        r[m] = r.get(m, 0) + sign * c
    return {m: c for m, c in r.items() if c}


def _ref_mul(p, q):
    r = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            e = dict(m1)
            for v, k in m2:
                e[v] = e.get(v, 0) + k
            m = tuple(sorted(e.items()))
            r[m] = r.get(m, 0) + c1 * c2
    return {m: c for m, c in r.items() if c}


def _ref_str(terms):
    out = []
    for i, m in enumerate(sorted(terms, key=_GRLEX, reverse=True)):
        c = terms[m]
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        out.append((f"-{body}" if c < 0 else body) if i == 0 else (f" - {body}" if c < 0 else f" + {body}"))
    return "".join(out) or "0"


def _assert_matches(poly, ref):
    assert str(Expr(poly)) == _ref_str(ref)
    assert poly.variables() == {v for m in ref for v, _ in m}
    if ref:
        lead = max(ref, key=_GRLEX)
        assert poly.leading_term() == (lead, ref[lead])


@kernel
@given(term_dicts(), term_dicts(), term_dicts(("a", "x10")), term_dicts(("x2", "y1")))
def test_packed_order_matches_the_reference(p, q, left, right):
    for a, b in ((p, q), (left, right), (p, right)):  # same, disjoint and overlapping variable sets
        A, B = Poly(a), Poly(b)
        _assert_matches(A, a)
        _assert_matches(A + B, _ref_combine(a, b))
        _assert_matches(A - B, _ref_combine(a, b, -1))
        _assert_matches(A * B, _ref_mul(a, b))


@kernel
@given(term_dicts(), term_dicts(("x2", "y1")))
def test_equality_and_hash_follow_the_terms(p, q):
    A, B = Poly(p), Poly(q)
    same = Poly(dict(reversed(list(p.items()))))
    assert A == same and hash(A) == hash(same)
    assert (A + B) - B == A and hash((A + B) - B) == hash(A)  # cancellation drops B's variables
    assert A * B == B * A and hash(A * B) == hash(B * A)
    assert (A == B) == (p == q)
    assert (Expr(A) == Expr(B)) == (p == q)


@kernel
@given(exprs, nonzero_exprs)
def test_equal_values_built_by_different_routes_hash_equal(a, b):
    # hash a before the others are built: equal values built later, by other routes, hash the same
    h = hash(a)
    routes = [(a + b) - b, (a * b) / b, parse_expr(str(a)), a.substitute({"x": Expr.var("x")}), -(-a)]
    routes.append(Expr(a.num * b.num, a.den * b.num))  # reduced by a gcd
    for r in routes:
        assert r == a and hash(r) == h == hash(a)
        assert hash(r.num) == hash(a.num) and hash(r.den) == hash(a.den)
    assert len({a, *routes}) == 1


@kernel
@given(st.tuples(*[st.integers(0, 3)] * 4), st.tuples(*[st.integers(0, 3)] * 4))
def test_monomial_divisibility_matches_the_exponents(ea, eb):
    q = divexact(Poly({_mono(ea): 1}), Poly({_mono(eb): 1}))
    if all(x >= y for x, y in zip(ea, eb)):
        assert q == Poly({_mono(tuple(x - y for x, y in zip(ea, eb))): 1})
    else:
        assert q is None


def test_a_cancelled_variable_leaves_the_representation():
    x, y, z = (Expr.var(v) for v in "xyz")
    e = x * y - y * x + z
    assert e == z and hash(e) == hash(z)
    assert e.num.vars == ("z",) and str(e) == "z"
    p = Poly({(("x10", 1), ("y1", 2)): 3, (("x2", 1),): 1}) - Poly({(("x10", 1), ("y1", 2)): 3})
    assert p == Poly({(("x2", 1),): 1}) and p.vars == ("x2",)
