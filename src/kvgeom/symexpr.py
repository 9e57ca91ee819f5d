"""Exact multivariate rational-function arithmetic over the rationals.

All scalar data in the engine lives here.  A ``Poly`` is a polynomial over Q
held as integers: ``vars`` is the sorted tuple of exactly the variables that
occur, ``terms`` maps a packed monomial key to a nonzero integer coefficient,
and ``den`` is one positive integer denominator, coprime to the coefficients.
A key packs the total degree and then the exponents of ``vars``, each into a
fixed-width field (the layout of Monagan and Pearce 2007), so integer order on
keys is graded-lexicographic order over alphabetically ordered variable names,
a monomial product is a sum of keys and divisibility is one subtraction and a
guard-bit mask.  Every degree stays below the guard bit; a product or power
that would reach it raises ``DegreeOverflow``, so fields never wrap.  So does
a power whose largest coefficient or denominator, raised to it, would pass
``_MAX_BITS`` bits, and a power of several terms whose estimated size (terms
times coefficient bits) would pass ``_MAX_SIZE`` bits; the parser bounds its
products by the same estimate (``_check_product``).  ``Poly.eval`` refuses
a point where the powers of the coordinates would pass ``_MAX_SIZE`` bits.

An ``Expr`` is a quotient of two ``Poly`` in canonical form: numerator and
denominator coprime, denominator monic.  Both representations are unique, so
equality of canonical forms decides equality of rational functions, which is
the zero-test every identity check relies on.

This module holds no parser: expression text is read by ``dsl._Parser``
(``dsl.parse_expr`` for a standalone expression), which builds the
polynomial of a run of monomials with ``_packed``, each key packed once, as
``Poly(...)`` does.  ``str`` of an ``Expr`` prints the same surface syntax,
with coefficients of any length.  ``substitute`` is the one substitution
routine: it pulls a whole list of expressions back at once, building the
powers of each binding once for all of them, and ``Expr.substitute`` is its
one-entry case.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from random import Random
from typing import Iterable, Mapping, Sequence, Union

from .errors import DegreeOverflow, PoleAtPoint, UnknownVariable, ZeroDenominator

Rational = Fraction
Monomial = tuple[tuple[str, int], ...]  # ((var, exp), ...) sorted by var, exp >= 1

Scalar = Union[int, Fraction]

_W = 32  # bits per field of a packed key
_HALF = 1 << (_W - 1)  # the guard bit of a field; degrees stay below it
_FIELD = (1 << _W) - 1
_UNIT = {0: 1}  # the terms of the constant 1


def _guard(n: int) -> int:
    """The guard bits of the n + 1 fields of a key over n variables."""
    return ((1 << ((n + 1) * _W)) - 1) // _FIELD * _HALF


def _check_degree(top_key: int, n: int) -> None:
    deg = top_key >> (n * _W)
    if deg >= _HALF:
        raise DegreeOverflow(f"polynomial degree {deg} exceeds the largest supported degree {_HALF - 1}")


_MAX_BITS = 1 << 18  # the longest numerator or denominator a power may produce


def _check_bits(c: int, k: int) -> None:
    """Refuse a power c^k, c > 0, of more than _MAX_BITS bits; for c of b bits it has at least (b - 1) k + 1."""
    b = c.bit_length()
    if (b - 1) * k >= _MAX_BITS:
        raise DegreeOverflow(f"power {k} of a {b}-bit coefficient exceeds {_MAX_BITS} bits")


_MAX_SIZE = 1 << 20  # the most bits that a power of several terms (over all its terms), or a value, may produce


def _check_size(terms: dict[int, int], k: int, n: int) -> None:
    """Refuse a power p^k, p of t >= 2 terms, whose estimated size passes _MAX_SIZE bits.

    The estimate is (number of terms) x (coefficient bits).  p^k has at most
    C(k + t - 1, t - 1) terms, and at most prod_v (k (hi_v - lo_v) + 1), with
    hi_v and lo_v the extreme exponents of v in p.  Each coefficient is a sum
    of at most t^k products of k coefficients of at most b bits, so it has at
    most k (b + log2 t) bits.  p^k has at least two terms, so the bits alone
    can refuse it.
    """
    t = len(terms)
    bits = k * (max(map(abs, terms.values())).bit_length() + t.bit_length())
    if 2 * bits < _MAX_SIZE:
        box = 1
        for es in zip(*(_exponents(key, n) for key in terms)):
            box *= k * (max(es) - min(es)) + 1
        if min(comb(k + t - 1, t - 1), box) * bits < _MAX_SIZE:
            return
    raise DegreeOverflow(f"power {k} of a {t}-term polynomial exceeds {_MAX_SIZE} bits")


def _check_product(p: "Poly", q: "Poly") -> None:
    """Refuse a product p q, both of two or more terms, whose estimated size passes _MAX_SIZE bits.

    The estimate is that of ``_check_size``.  p q has at most t_p t_q terms,
    and at most prod_v (s_v + 1), with s_v the spread (highest minus lowest
    exponent) of v in p plus that in q.  Each coefficient is a sum of at
    most min(t_p, t_q) products of a coefficient of p and one of q.  A
    product with a monomial factor is never refused, and pays two length
    tests.
    """
    tp, tq = len(p.terms), len(q.terms)
    if tp < 2 or tq < 2:
        return
    bits = sum(max(map(abs, r.terms.values())).bit_length() for r in (p, q)) + min(tp, tq).bit_length()
    if tp * tq * bits < _MAX_SIZE:
        return
    spread: dict[str, int] = {}
    for r in (p, q):
        n = len(r.vars)
        for v, es in zip(r.vars, zip(*(_exponents(key, n) for key in r.terms))):
            spread[v] = spread.get(v, 0) + max(es) - min(es)
    box = 1
    for s in spread.values():
        box *= s + 1
    if min(tp * tq, box) * bits >= _MAX_SIZE:
        raise DegreeOverflow(f"product of a {tp}-term and a {tq}-term polynomial exceeds {_MAX_SIZE} bits")


def _exponents(k: int, n: int) -> list[int]:
    es = []
    for _ in range(n):
        es.append(k & _FIELD)
        k >>= _W
    es.reverse()
    return es


@lru_cache(maxsize=1024)
def _plan(src: tuple[str, ...], dst: tuple[str, ...]) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """How keys over ``src`` move to ``dst``: the shifts of the leading run of
    shared fields (the degree first), then (mask, shift, shift) per later run."""
    pos = {v: j for j, v in enumerate(dst)}
    runs = [[-1, -1, 1]]  # [src index, dst index, length]; index -1 is the degree
    for i, v in enumerate(src):
        j = pos.get(v)
        if j is None:
            continue
        run = runs[-1]
        if run[0] + run[2] == i and run[1] + run[2] == j:
            run[2] += 1
        else:
            runs.append([i, j, 1])
    ns, nd = len(src), len(dst)
    # field index i of a key over n variables sits at shift (n - 1 - i) * W
    (i, j, r), rest = runs[0], runs[1:]
    moves = tuple(((1 << (r * _W)) - 1, (ns - i - r) * _W, (nd - j - r) * _W) for i, j, r in rest)
    return (ns - i - r) * _W, (nd - j - r) * _W, moves


def _repack(terms: dict[int, int], src: tuple[str, ...], dst: tuple[str, ...]) -> dict[int, int]:
    """Keys over ``src`` re-packed over ``dst``; variables of ``src`` missing
    from ``dst`` must have exponent 0 in every key."""
    if src == dst or not src:  # over no variables the only key is 0
        return terms
    s0, d0, moves = _plan(src, dst)
    if not moves:
        return {k >> s0 << d0: c for k, c in terms.items()}
    out = {}
    for k, c in terms.items():
        kk = k >> s0 << d0
        for m, s, d in moves:
            kk |= (k >> s & m) << d
        out[kk] = c
    return out


def _mul_terms(a: dict[int, int], b: dict[int, int], n: int) -> dict[int, int]:
    """Product of two term dicts over the same n variables."""
    if not a or not b:
        return {}
    top = max(a) + max(b)
    if top >> (n * _W) >= _HALF:
        _check_degree(top, n)
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((k1, c1),) = a.items()
        return {k1 + k: c1 * c for k, c in b.items()}
    t: dict[int, int] = {}
    get = t.get
    bi = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in bi:
            k = k1 + k2
            t[k] = get(k, 0) + c1 * c2
    if 0 in t.values():
        t = {k: c for k, c in t.items() if c}
    return t


def _new(vars: tuple[str, ...], terms: dict[int, int], den: int) -> "Poly":
    p = Poly.__new__(Poly)
    p.vars = vars
    p.terms = terms
    p.den = den
    return p


def _make(vars: tuple[str, ...], terms: dict[int, int], den: int = 1, shrink: bool = True) -> "Poly":
    """A canonical Poly from nonzero integer terms over ``den`` > 0: the
    content shared with ``den`` cancelled and, with ``shrink``, ``vars`` cut
    to the variables that occur."""
    if not terms:
        return _P_ZERO
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    if shrink and vars:
        occ = reduce(operator.or_, terms)
        n = len(vars)
        used = tuple(v for i, v in enumerate(vars) if occ >> ((n - 1 - i) * _W) & _FIELD)
        if len(used) != n:
            terms = _repack(terms, vars, used)
            vars = used
    return _new(vars, terms, den)


def _packed(terms: Mapping[Monomial, int], den: int = 1) -> "Poly":
    """The canonical Poly of integer ``terms`` over ``den`` > 0, each monomial packed once.

    The variables are those the monomials name; a repeated monomial adds up,
    and a total degree at the guard bit raises ``DegreeOverflow``.
    """
    names = sorted({v for m in terms for v, _ in m})
    n = len(names)
    shift = {v: (n - 1 - i) * _W for i, v in enumerate(names)}
    top = n * _W
    out: dict[int, int] = {}
    get = out.get
    for m, c in terms.items():
        if c:
            k = deg = 0
            for v, e in m:
                k += e << shift[v]
                deg += e
            if deg >= _HALF:
                _check_degree(deg, 0)
            k += deg << top
            out[k] = get(k, 0) + c
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return _make(tuple(names), out, den)


@lru_cache(maxsize=1024)
def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted(set(a).union(b)))


def _align(a: "Poly", b: "Poly") -> tuple[tuple[str, ...], dict[int, int], dict[int, int]]:
    """The terms of a and b over the union of their variables."""
    if a.vars == b.vars:
        return a.vars, a.terms, b.terms
    vs = _union(a.vars, b.vars)
    return vs, _repack(a.terms, a.vars, vs), _repack(b.terms, b.vars, vs)


class Poly:
    """Sparse multivariate polynomial over the rationals, with integer
    coefficients over one denominator and packed monomial keys."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        qs = {m: Fraction(c) for m, c in (terms or {}).items()}
        if any(e < 0 for m in qs for _, e in m):
            raise ValueError("Poly exponent must be non-negative")
        den = lcm(*(q.denominator for q in qs.values()))
        p = _packed({m: q.numerator * (den // q.denominator) for m, q in qs.items()}, den)
        self.vars, self.terms, self.den = p.vars, p.terms, p.den

    @classmethod
    def zero(cls) -> "Poly":
        return _P_ZERO

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        c = Fraction(c)
        return _new((), {0: c.numerator}, c.denominator) if c else _P_ZERO

    @classmethod
    def var(cls, name: str) -> "Poly":
        return _new((name,), {(1 << _W) | 1: 1}, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def const_value(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def variables(self) -> set[str]:
        return set(self.vars)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        k = max(self.terms)
        mono = tuple((v, e) for v, e in zip(self.vars, _exponents(k, len(self.vars))) if e)
        return mono, Fraction(self.terms[k], self.den)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        vs, a, b = _align(self, other)
        da, db = self.den, other.den
        den = da // gcd(da, db) * db
        fa, fb = den // da, sign * (den // db)
        t = dict(a) if fa == 1 else {k: c * fa for k, c in a.items()}
        get = t.get
        cancelled = False
        for k, c in b.items():
            s = get(k, 0) + c * fb
            if s:
                t[k] = s
            else:
                del t[k]
                cancelled = True
        return _make(vs, t, den, shrink=cancelled)

    def __add__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        if not self.terms:
            return self
        return _new(self.vars, {k: -c for k, c in self.terms.items()}, self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _P_ZERO
        vs, a, b = _align(self, other)
        da, db = self.den, other.den
        if da != 1 or db != 1:
            # each factor's content may share a prime with the other's denominator
            ga = gcd(db, *a.values())
            gb = gcd(da, *b.values())
            if ga != 1:
                a = {k: c // ga for k, c in a.items()}
            if gb != 1:
                b = {k: c // gb for k, c in b.items()}
            da, db = da // gb, db // ga
        return _new(vs, _mul_terms(a, b, len(vs)), da * db)

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        if c == 1:
            return self
        if not c or not self.terms:
            return _P_ZERO
        num, d = c.numerator, c.denominator
        g1 = gcd(num, self.den)
        g2 = gcd(d, *self.terms.values()) if d != 1 else 1
        m = num // g1
        terms = {k: cc // g2 * m for k, cc in self.terms.items()}
        return _new(self.vars, terms, self.den // g1 * (d // g2))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("Poly exponent must be non-negative")
        if k == 0:
            return _P_ONE
        if not self.terms:
            return _P_ZERO
        n = len(self.vars)
        _check_degree((max(self.terms) >> (n * _W)) * k << (n * _W), n)
        _check_bits(max(self.den, *map(abs, self.terms.values())), k)
        if len(self.terms) > 1:
            _check_size(self.terms, k, n)
        return _new(self.vars, _power(self.terms, k, n, {0: _UNIT, 1: self.terms}), self.den ** k)

    def diff(self, v: str) -> "Poly":
        if v not in self.vars:
            return _P_ZERO
        n = len(self.vars)
        s = (n - 1 - self.vars.index(v)) * _W
        step = (1 << s) + (1 << (n * _W))
        t = {}
        for k, c in self.terms.items():
            e = k >> s & _FIELD
            if e:
                t[k - step] = c * e
        return _make(self.vars, t, self.den)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Value at ``point``: one integer sum over a common denominator.

        A point where the powers of the coordinates would pass ``_MAX_SIZE``
        bits raises ``DegreeOverflow`` before any of them is computed: the
        degree allows x^(2^30), whose value at x = 2 alone is 128 MiB, and
        reducing a value of 2^20 bits over a denominator as long already
        takes over a second.
        """
        if not self.vars:
            return self.const_value()
        for v in self.vars:
            if v not in point:
                raise UnknownVariable(f"no value for variable {v!r}")
        # x_v = a_v / b_v of degree d_v: a term c x^e is c prod a_v^e b_v^(d_v - e)
        # over den * prod b_v^d_v; powers are cached per exponent
        cols = []
        bits = 0  # about log2 of the largest product of powers; 0 when every |a_v| and b_v is 1
        for i, v in enumerate(reversed(self.vars)):  # lowest field first
            x = Fraction(point[v])
            s = i * _W
            d = max(k >> s & _FIELD for k in self.terms)
            a, b = x.numerator, x.denominator
            bits += d * (max(-a, a, b).bit_length() - 1)
            cols.append((a, b, d, {}))
        if bits >= _MAX_SIZE:
            raise DegreeOverflow(f"value at the point exceeds {_MAX_SIZE} bits")
        scale = self.den
        for _, b, d, _ in cols:
            scale *= b ** d
        total = 0
        for k, c in self.terms.items():
            for a, b, d, cache in cols:
                e = k & _FIELD
                k >>= _W
                f = cache.get(e)
                if f is None:
                    f = cache[e] = a ** e * b ** (d - e)
                c *= f
            total += c
        return Fraction(total, scale)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.den == other.den
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        """Hash of the canonical representation, independent of the order of the terms.

        Two sums in C over the packed keys and the coefficients: equal
        polynomials have equal terms, so equal sums.
        """
        t = self.terms
        return hash((self.vars, self.den, sum(t), sum(t.values())))

    def __repr__(self) -> str:
        return f"Poly({_poly_str(self)})"


_P_ZERO = _new((), {}, 1)
_P_ONE = _new((), {0: 1}, 1)


def _monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    lc = p.terms[max(p.terms)]
    if lc == p.den:
        return p
    return p.scale(Fraction(p.den, lc))


def divexact(a: Poly, b: Poly) -> Poly | None:
    """Quotient a/b when b divides a exactly, else None.

    With b = cont(b) * B' and B' primitive, a quotient of the integer terms of
    a by B' has integer coefficients (Gauss's lemma), so the division runs
    over the integers and stops at the first inexact coefficient.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return _P_ZERO
    if not b.vars:
        return a.scale(Fraction(b.den, b.terms[0]))
    if not set(b.vars) <= set(a.vars):
        return None
    vs = a.vars
    B = _repack(b.terms, b.vars, vs)
    cb = gcd(*B.values())
    if cb != 1:
        B = {k: c // cb for k, c in B.items()}
    bk = max(B)
    bc = B[bk]
    rest = [(k, c) for k, c in B.items() if k != bk]
    guard = _guard(len(vs))
    rem = dict(a.terms)
    q = {}
    while rem:
        rk = max(rem)
        m = rk - bk
        if m & guard:
            return None
        c, r = divmod(rem.pop(rk), bc)
        if r:
            return None
        q[m] = c
        for k, cc in rest:
            k += m
            s = rem.get(k, 0) - c * cc
            if s:
                rem[k] = s
            else:
                del rem[k]
    # a / b = (A / B') * b.den / (a.den * cb)
    f = Fraction(b.den, a.den * cb)
    num = f.numerator
    return _make(vs, {k: c * num for k, c in q.items()}, f.denominator)


def _univar(p: Poly, v: str) -> dict[int, Poly]:
    """View p as a univariate polynomial in v with Poly coefficients."""
    if v not in p.vars:
        return {0: p}
    n = len(p.vars)
    i = p.vars.index(v)
    rest = p.vars[:i] + p.vars[i + 1:]
    s = (n - 1 - i) * _W
    low = (1 << s) - 1
    top = (n - 1) * _W
    buckets: dict[int, dict[int, int]] = {}
    for k, c in p.terms.items():
        e = k >> s & _FIELD
        buckets.setdefault(e, {})[(k >> (s + _W) << s | k & low) - (e << top)] = c
    return {e: _make(rest, t, p.den) for e, t in buckets.items()}


def _coefficients(p: Poly, vs: Iterable[str]) -> list[Poly]:
    """The coefficients of p as a polynomial in the variables vs."""
    cs = [p]
    for v in vs:
        cs = [c for q in cs for c in _univar(q, v).values()]
    return cs


def _from_univar(d: Mapping[int, Poly], v: str) -> Poly:
    x = Poly.var(v)
    out = _P_ZERO
    for e, p in d.items():
        out = out + p * x ** e
    return out


def _pseudo_rem(A: dict[int, Poly], B: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of A by B in the main variable (degrees are dict keys)."""
    db = max(B)
    lb = B[db]
    R = dict(A)
    while R and max(R) >= db:
        dr = max(R)
        lr = R[dr]
        newR: dict[int, Poly] = {e: p * lb for e, p in R.items()}
        for e, p in B.items():
            ee = e + dr - db
            acc = newR.get(ee, _P_ZERO) - p * lr
            newR[ee] = acc
        R = {e: p for e, p in newR.items() if not p.is_zero()}
    return R


def _rational_primitive(polys: dict[int, Poly]) -> dict[int, Poly]:
    """The polys divided by their rational content G / L: G the gcd of all their integer coefficients and
    L the lcm of their denominators, so that over one denominator their coefficients are coprime integers."""
    f = Fraction(lcm(*(p.den for p in polys.values())), gcd(*(c for p in polys.values() for c in p.terms.values())))
    return polys if f == 1 else {e: p.scale(f) for e, p in polys.items()}


def _content(polys: Iterable[Poly]) -> Poly:
    g = _P_ZERO
    for p in polys:
        g = poly_gcd(g, p)
    return g


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via primitive pseudo-remainder sequences (recursion on variables).

    Each pseudo-remainder is made primitive twice: first divided by its
    rational content (``_rational_primitive``), then by the gcd of its
    coefficients in the other variables (``_content``).  The second alone
    would leave the integer content in, since the monic gcd of constants is
    1, and the sequence would then be the Euclidean one over Z, whose
    coefficients grow exponentially: ``1/(x+1)^25 + 1/(x-1)^25`` took
    seconds to normalize.

    When the variables of one operand are a proper subset of the other's, the
    gcd is that of the smaller operand and the coefficients of the larger in
    the variables the smaller lacks; it is folded from the smaller operand and
    stops at the first constant.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    va, vb = a.variables(), b.variables()
    if va < vb:
        a, b, va, vb = b, a, vb, va
    if vb < va:
        # a common divisor divides b, so it is free of the variables b lacks, and divides each coefficient of a in them
        g = b
        for c in _coefficients(a, va - vb):
            g = poly_gcd(g, c)
            if g.is_const():
                break
        return g
    if not va:
        return _P_ONE
    v = max(va)
    A = _univar(a, v)
    B = _univar(b, v)
    ca = _content(A.values())
    cb = _content(B.values())
    P = {e: divexact(p, ca) for e, p in A.items()}
    Q = {e: divexact(p, cb) for e, p in B.items()}
    if max(P) < max(Q):
        P, Q = Q, P
    while True:
        R = _pseudo_rem(P, Q)
        if not R:
            g_pp = Q
            break
        R = _rational_primitive(R)
        rc = _content(R.values())
        P, Q = Q, {e: divexact(p, rc) for e, p in R.items()}
    cont = poly_gcd(ca, cb)
    return _monic(cont * _from_univar(g_pp, v))


def _power(t: dict[int, int], e: int, n: int, cache: dict[int, dict[int, int]]) -> dict[int, int]:
    """t^e for terms t over n variables, by squaring; ``cache`` holds t^0 and
    t^1 and keeps every power it computes."""
    p = cache.get(e)
    if p is None:
        half = _power(t, e // 2, n, cache)
        p = _mul_terms(half, half, n)
        if e & 1:
            p = _mul_terms(p, t, n)
        cache[e] = p
    return p


def _substitute(polys: Sequence[Poly], binds: Mapping[str, "Expr"]) -> list[tuple[Poly, Poly]]:
    """Each p of ``polys`` at the bindings v -> N_v / D_v, as (P, Q) with p(b) = P / Q.

    With d_v the degree of p in v, Q = prod D_v^(d_v) and
    P = sum c X^f prod N_v^e D_v^(d_v - e), X^f the unbound part of a term.
    Terms are grouped by their bound exponents.  Every image is built over
    the same variables, so the power table of a bound variable, N_v^e
    D_v^(d - e) for each exponent e and degree d that occur, and each D_v^d,
    is built once for all of ``polys``.
    """
    names = set().union(*(p.vars for p in polys))
    bound = [v for v in names if v in binds]
    if not bound:
        return [(p, _P_ONE) for p in polys]
    out_vars = tuple(sorted(names.difference(bound).union(*(binds[v].num.vars + binds[v].den.vars for v in bound))))
    m = len(out_vars)
    # with N = A / a and D = B / b: N^e D^(d-e) = (b A)^e (a B)^(d-e) / (a b)^d; per bound variable, the
    # powers of A and of B, their products by (e, d) (an int when constant), a b, D, and D^d by d
    tables = {}
    for v in bound:
        N, D = binds[v].num, binds[v].den
        A = {k: c * D.den for k, c in _repack(N.terms, N.vars, out_vars).items()}
        B = {k: c * N.den for k, c in _repack(D.terms, D.vars, out_vars).items()}
        tables[v] = ({0: _UNIT, 1: A}, {0: _UNIT, 1: B}, {}, N.den * D.den, D, {})
    images = []
    for p in polys:
        vs = p.vars
        n = len(vs)
        mine = [(tables[v], (n - 1 - i) * _W) for i, v in enumerate(vs) if v in tables]
        if not mine:
            images.append((p, _P_ONE))
            continue
        bound_fields = 0
        for _, s in mine:
            bound_fields |= _FIELD << s
        groups: dict[int, dict[int, int]] = {}
        for k, c in p.terms.items():
            b = k & bound_fields
            g = groups.get(b)
            if g is None:
                groups[b] = {k - b: c}
            else:
                g[k - b] = c
        scale = p.den
        Q = _P_ONE
        rows = []
        for (pa, pb, products, ab, D, dpow), s in mine:
            d = max(b >> s & _FIELD for b in groups)
            rows.append((s, d, pa, pb, products))
            scale *= ab ** d
            if D.vars:
                if d not in dpow:
                    dpow[d] = D ** d
                Q = Q * dpow[d]
        top = n * _W
        acc: dict[int, int] = {}
        get = acc.get
        for b, f in groups.items():
            scalar, t, deg = 1, None, 0
            for s, d, pa, pb, products in rows:
                e = b >> s & _FIELD
                deg += e
                u = products.get((e, d))
                if u is None:
                    u, w = _power(pa[1], e, m, pa), _power(pb[1], d - e, m, pb)
                    u = u if w == _UNIT else _mul_terms(u, w, m)
                    if not u.keys() - {0}:  # a constant
                        u = u.get(0, 0)
                    products[e, d] = u
                if type(u) is int:
                    scalar *= u
                else:
                    t = u if t is None else _mul_terms(t, u, m)
            if not scalar:
                continue
            off = deg << top
            g = _repack({k - off: c * scalar for k, c in f.items()}, vs, out_vars)
            if t is not None:
                g = _mul_terms(g, t, m)
            for k, c in g.items():
                acc[k] = get(k, 0) + c
        if 0 in acc.values():
            acc = {k: c for k, c in acc.items() if c}
        images.append((_make(out_vars, acc, scale), Q))
    return images


def substitute(exprs: Sequence["Expr"], bindings: Mapping[str, "Expr | Scalar"]) -> list["Expr"]:
    """Each of ``exprs`` with its bound variables replaced by expressions; unbound variables stay.

    The image of each distinct expression is computed once, so equal inputs
    share one image object.  Numerators and denominators are substituted as
    polynomials in one call of ``_substitute``, which builds each binding's
    powers once for all of them, and one Expr is built from each pair, so
    polynomial bindings of a polynomial need no gcd.
    """
    binds = {v: Expr._coerce(e) for v, e in bindings.items()}
    slot: dict[Expr, int] = {}
    slots = [slot.setdefault(e, len(slot)) for e in exprs]  # one hash per input
    images = iter(_substitute([p for e in slot for p in ((e.num,) if e.den is _P_ONE else (e.num, e.den))], binds))
    out = []
    for e in slot:
        num, num_den = next(images)
        if e.den is _P_ONE:
            out.append(Expr(num, num_den))
            continue
        den, den_den = next(images)
        if den.is_zero():
            raise ZeroDenominator("substitution makes the denominator identically zero")
        out.append(Expr(num * den_den, den * num_den))
    return [out[i] for i in slots]


class Expr:
    """Canonical rational function; immutable, safe to share and hash.

    ``den`` is the shared ``_P_ONE`` exactly when the expression is a polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None or den is _P_ONE:
            self.num = num if num.terms else _P_ZERO
            self.den = _P_ONE
            return
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero():
            self.num = _P_ZERO
            self.den = _P_ONE
            return
        if not den.is_const():
            g = poly_gcd(num, den)
            if not g.is_const():
                num = divexact(num, g)
                den = divexact(den, g)
        if den.is_const():
            c = den.const_value()
            self.num = num if c == 1 else num.scale(1 / c)
            self.den = _P_ONE
            return
        lc = den.terms[max(den.terms)]
        if lc != den.den:
            f = Fraction(den.den, lc)
            num = num.scale(f)
            den = den.scale(f)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c: Scalar) -> "Expr":
        return cls(Poly.const(c))

    @classmethod
    def var(cls, name: str) -> "Expr":
        return cls(Poly.var(name))

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"{self} is not constant")
        return self.num.const_value()

    def variables(self) -> set[str]:
        return self.num.variables() | self.den.variables()

    @staticmethod
    def _coerce(x: "Expr | Scalar") -> "Expr":
        if isinstance(x, Expr):
            return x
        if isinstance(x, (int, Fraction)):
            return Expr.const(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Expr | Scalar") -> "Expr":
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return o
        if self.den is _P_ONE and o.den is _P_ONE:
            return Expr(self.num + o.num)
        return Expr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: "Expr | Scalar") -> "Expr":
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return -o
        if self.den is _P_ONE and o.den is _P_ONE:
            return Expr(self.num - o.num)
        return Expr(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other: "Expr | Scalar") -> "Expr":
        return Expr._coerce(other) - self

    def __neg__(self) -> "Expr":
        if not self.num.terms:
            return self
        e = Expr.__new__(Expr)
        e.num = -self.num
        e.den = self.den
        return e

    def __mul__(self, other: "Expr | Scalar") -> "Expr":
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.num.terms or not o.num.terms:
            return ZERO
        if self.den is _P_ONE and o.den is _P_ONE:
            return Expr(self.num * o.num)
        return Expr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Expr | Scalar") -> "Expr":
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDenominator("division by zero expression")
        return Expr(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: "Expr | Scalar") -> "Expr":
        return Expr._coerce(other) / self

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k >= 0:
            return Expr(self.num ** k, self.den ** k)
        if self.num.is_zero():
            raise ZeroDenominator("negative power of zero")
        return Expr(self.den ** (-k), self.num ** (-k))

    def diff(self, v: str) -> "Expr":
        if v not in self.num.vars and v not in self.den.vars:
            return ZERO
        if self.den is _P_ONE:
            return Expr(self.num.diff(v))
        # quotient rule
        return Expr(
            self.num.diff(v) * self.den - self.num * self.den.diff(v),
            self.den * self.den,
        )

    def substitute(self, bindings: Mapping[str, "Expr | Scalar"]) -> "Expr":
        """Replace bound variables by expressions; unbound variables stay: ``substitute`` of one entry."""
        return substitute((self,), bindings)[0]

    def eval_at(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)!r}")
        return self.num.eval(point) / d

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        return isinstance(other, Expr) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den is _P_ONE:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"Expr({self})"


ZERO = Expr.const(0)
ONE = Expr.const(1)


def sample_point(rng: Random, k: int) -> tuple[Fraction, ...]:
    """k rationals p/q, p in [-8, 8] and q in [1, 8], drawn from rng in order: the engine's evaluation points."""
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k))


def distinct_sample_points(rng: Random, k: int, count: int) -> list[tuple[Fraction, ...]]:
    """``count`` distinct ``sample_point`` draws in draw order, drawing again on a repeat, at most the whole grid."""
    count = min(count, 87 ** k)  # p/q with p in [-8, 8] and q in [1, 8] takes 87 distinct values
    points: dict[tuple[Fraction, ...], None] = {}
    while len(points) < count:
        points[sample_point(rng, k)] = None
    return list(points)


_DIGITS = 512  # decimal digits per str() or int() call, below the least int/str limit CPython can be set to (640)
_SHORT = 10 ** _DIGITS


def _decimal(n: int) -> str:
    """n >= 0 in decimal, of any length: split by a power 10^k and printed in parts of at most _DIGITS digits."""
    if n < _SHORT:
        return str(n)
    k = _DIGITS
    while 10 ** (2 * k) <= n:
        k *= 2
    hi, lo = divmod(n, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _rational_str(q: Scalar) -> str:
    """q as ``str(Fraction(q))`` prints it, "-p/q" or "p", but through ``_decimal``, so any length prints."""
    digits = ("-" if q < 0 else "") + _decimal(abs(q.numerator))
    return digits if q.denominator == 1 else f"{digits}/{_decimal(q.denominator)}"


def _term_str(vars: tuple[str, ...], k: int, c: Fraction) -> str:
    mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(vars, _exponents(k, len(vars))) if e)
    a = abs(c)
    if mono and a == 1:
        return mono
    digits = _rational_str(a)
    return f"{digits}*{mono}" if mono else digits


def _poly_str(p: Poly) -> str:
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
