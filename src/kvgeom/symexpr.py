"""Exact multivariate rational-function arithmetic over the rationals.

All scalar data in the engine lives here: an ``Expr`` is a quotient of two
multivariate polynomials with ``fractions.Fraction`` coefficients, kept in a
canonical form (numerator and denominator coprime, denominator monic,
monomials ordered graded-lexicographically over alphabetically ordered
variable names).  Equality of canonical forms therefore decides equality of
rational functions, which is the zero-test every identity check relies on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Mapping, Union

from .errors import ParseError, PoleAtPoint, UnknownVariable, ZeroDenominator
from .lex import Token, tokenize

Rational = Fraction
Monomial = tuple[tuple[str, int], ...]  # ((var, exp), ...) sorted by var, exp >= 1

Scalar = Union[int, Fraction]


def _cmp_grlex(a: Monomial, b: Monomial) -> int:
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


_GRLEX_KEY = cmp_to_key(_cmp_grlex)


def _mul_mono(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _div_mono(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    d = dict(a)
    for v, e in b:
        r = d.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            d.pop(v, None)
        else:
            d[v] = r
    return tuple(sorted(d.items()))


class Poly:
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        t: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    t[m] = c
        self.terms = t

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.terms[()]

    def variables(self) -> set[str]:
        return {v for m in self.terms for v, _ in m}

    def leading_term(self) -> tuple[Monomial, Fraction]:
        m = max(self.terms, key=_GRLEX_KEY)
        return m, self.terms[m]

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, Fraction(0)) + c
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = t
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, Fraction(0)) - c
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = t
        return p

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __mul__(self, other: "Poly") -> "Poly":
        t: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_mono(m1, m2)
                s = t.get(m, Fraction(0)) + c1 * c2
                if s:
                    t[m] = s
                else:
                    t.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = t
        return p

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p.terms = {m: cc * c for m, cc in self.terms.items()}
        return p

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("Poly exponent must be non-negative")
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, v: str) -> "Poly":
        t: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(v, 0)
            if not e:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            mm = tuple(sorted(d.items()))
            s = t.get(mm, Fraction(0)) + c * e
            if s:
                t[mm] = s
            else:
                t.pop(mm, None)
        p = Poly.__new__(Poly)
        p.terms = t
        return p

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            acc = c
            for v, e in m:
                if v not in point:
                    raise UnknownVariable(f"no value for variable {v!r}")
                acc *= Fraction(point[v]) ** e
            total += acc
        return total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({_poly_str(self)})"


def _monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, lc = p.leading_term()
    if lc == 1:
        return p
    return p.scale(1 / lc)


def divexact(a: Poly, b: Poly) -> Poly | None:
    """Quotient a/b when b divides a exactly, else None."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return Poly.zero()
    bm, bc = b.leading_term()
    q: dict[Monomial, Fraction] = {}
    rem = a
    while not rem.is_zero():
        rm, rc = rem.leading_term()
        mm = _div_mono(rm, bm)
        if mm is None:
            return None
        coeff = rc / bc
        q[mm] = q.get(mm, Fraction(0)) + coeff
        rem = rem - Poly({mm: coeff}) * b
    return Poly(q)


def _univar(p: Poly, v: str) -> dict[int, Poly]:
    """View p as a univariate polynomial in v with Poly coefficients."""
    buckets: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in p.terms.items():
        e = 0
        rest = []
        for var, ee in m:
            if var == v:
                e = ee
            else:
                rest.append((var, ee))
        buckets.setdefault(e, {})[tuple(rest)] = c
    return {e: Poly(t) for e, t in buckets.items()}


def _from_univar(d: Mapping[int, Poly], v: str) -> Poly:
    terms: dict[Monomial, Fraction] = {}
    for e, p in d.items():
        for m, c in p.terms.items():
            mm = _mul_mono(m, ((v, e),)) if e else m
            terms[mm] = terms.get(mm, Fraction(0)) + c
    return Poly(terms)


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
            acc = newR.get(ee, Poly.zero()) - p * lr
            newR[ee] = acc
        R = {e: p for e, p in newR.items() if not p.is_zero()}
    return R


def _content(polys: Iterable[Poly]) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = poly_gcd(g, p)
    return g


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via primitive pseudo-remainder sequences (recursion on variables)."""
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    vs = a.variables() | b.variables()
    if not vs:
        return Poly.const(1)
    v = max(vs)
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
        rc = _content(R.values())
        P, Q = Q, {e: divexact(p, rc) for e, p in R.items()}
    cont = poly_gcd(ca, cb)
    return _monic(cont * _from_univar(g_pp, v))


_P_ZERO = Poly.zero()
_P_ONE = Poly.const(1)


class Expr:
    """Canonical rational function; immutable, safe to share and hash."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = _P_ONE if den is None else den
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero():
            self.num = _P_ZERO
            self.den = _P_ONE
            return
        if den.is_const():
            c = den.const_value()
            self.num = num if c == 1 else num.scale(1 / c)
            self.den = _P_ONE
            return
        g = poly_gcd(num, den)
        if not (g.is_const() and g.const_value() == 1):
            num = divexact(num, g)
            den = divexact(den, g)
        _, lc = den.leading_term()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c: Scalar) -> "Expr":
        return cls(Poly.const(c))

    @classmethod
    def var(cls, name: str) -> "Expr":
        return cls(Poly.var(name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

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
        if self.den == _P_ONE and o.den == _P_ONE:
            return Expr(self.num + o.num)
        return Expr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: "Expr | Scalar") -> "Expr":
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == _P_ONE and o.den == _P_ONE:
            return Expr(self.num - o.num)
        return Expr(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other: "Expr | Scalar") -> "Expr":
        return Expr._coerce(other) - self

    def __neg__(self) -> "Expr":
        e = Expr.__new__(Expr)
        e.num = -self.num
        e.den = self.den
        return e

    def __mul__(self, other: "Expr | Scalar") -> "Expr":
        o = Expr._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == _P_ONE and o.den == _P_ONE:
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
        if self.den == _P_ONE:
            return Expr(self.num.diff(v))
        # quotient rule
        return Expr(
            self.num.diff(v) * self.den - self.num * self.den.diff(v),
            self.den * self.den,
        )

    def substitute(self, bindings: Mapping[str, "Expr | Scalar"]) -> "Expr":
        """Replace bound variables by expressions; unbound variables stay."""
        binds = {v: Expr._coerce(e) for v, e in bindings.items()}

        def eval_poly(p: Poly) -> Expr:
            out = Expr.const(0)
            for m, c in p.terms.items():
                acc = Expr.const(c)
                for v, e in m:
                    base = binds.get(v)
                    if base is None:
                        acc = acc * Expr(Poly({((v, e),): Fraction(1)}))
                    else:
                        acc = acc * base ** e
                out = out + acc
            return out

        num_e = eval_poly(self.num)
        if self.den == _P_ONE:
            return num_e
        den_e = eval_poly(self.den)
        if den_e.is_zero():
            raise ZeroDenominator("substitution makes the denominator identically zero")
        return num_e / den_e

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
        if self.den == _P_ONE:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"Expr({self})"


ZERO = Expr.const(0)
ONE = Expr.const(1)


def _term_str(m: Monomial, c: Fraction) -> str:
    mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
    a = abs(c)
    if not mono:
        return str(a)
    if a == 1:
        return mono
    return f"{a}*{mono}"


def _poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    monos = sorted(p.terms, key=_GRLEX_KEY, reverse=True)
    out = []
    for i, m in enumerate(monos):
        c = p.terms[m]
        body = _term_str(m, c)
        if i == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


# --- surface-syntax parser -------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := unary (('*'|'/') unary)*
# unary  := ('-'|'+') unary | power
# power  := atom ['^' ['-'] INT]
# atom   := INT | NAME | '(' expr ')'
#
# Each parenthesis and each unary sign nests one level deeper.  The cap is
# fixed, and far below what the interpreter's recursion limit allows, so
# whether an expression parses depends on its text alone.

_MAX_NESTING = 100


class _TooDeep(Exception):
    pass


def parse_expression(tokens: list[Token], i: int) -> tuple[Expr, int]:
    """Parse an expression from a token stream; returns (Expr, next index)."""
    try:
        return _parse_sum(tokens, i, 0)
    except _TooDeep:
        t = tokens[i]
        message = f"expression nested too deeply (more than {_MAX_NESTING} levels)"
        raise ParseError(t.line, t.col, message, t.text) from None


def _parse_sum(tokens, i, depth):
    e, i = _parse_term(tokens, i, depth)
    while tokens[i].kind == "punct" and tokens[i].text in "+-":
        op = tokens[i]
        rhs, i = _parse_term(tokens, i + 1, depth)
        e = e + rhs if op.text == "+" else e - rhs
    return e, i


def _parse_term(tokens, i, depth):
    e, i = _parse_unary(tokens, i, depth)
    while tokens[i].kind == "punct" and tokens[i].text in "*/":
        op = tokens[i]
        rhs, i = _parse_unary(tokens, i + 1, depth)
        if op.text == "*":
            e = e * rhs
        else:
            if rhs.is_zero():
                raise ParseError(op.line, op.col, "division by zero expression", op.text)
            e = e / rhs
    return e, i


def _deeper(depth):
    if depth >= _MAX_NESTING:
        raise _TooDeep
    return depth + 1


def _parse_unary(tokens, i, depth):
    t = tokens[i]
    if t.kind == "punct" and t.text in "+-":
        e, i = _parse_unary(tokens, i + 1, _deeper(depth))
        return (-e if t.text == "-" else e), i
    return _parse_power(tokens, i, depth)


def _parse_power(tokens, i, depth):
    e, i = _parse_atom(tokens, i, depth)
    t = tokens[i]
    if t.kind == "punct" and t.text == "^":
        i += 1
        sign = 1
        if tokens[i].kind == "punct" and tokens[i].text == "-":
            sign = -1
            i += 1
        if tokens[i].kind != "int":
            raise ParseError(tokens[i].line, tokens[i].col, "expected integer exponent", tokens[i].text)
        k = sign * int(tokens[i].text)
        i += 1
        if k < 0 and e.is_zero():
            raise ParseError(t.line, t.col, "negative power of zero", t.text)
        e = e ** k
    return e, i


def _parse_atom(tokens, i, depth):
    t = tokens[i]
    if t.kind == "int":
        return Expr.const(int(t.text)), i + 1
    if t.kind == "name":
        return Expr.var(t.text), i + 1
    if t.kind == "punct" and t.text == "(":
        e, i = _parse_sum(tokens, i + 1, _deeper(depth))
        t2 = tokens[i]
        if not (t2.kind == "punct" and t2.text == ")"):
            raise ParseError(t2.line, t2.col, "expected ')'", t2.text)
        return e, i + 1
    raise ParseError(t.line, t.col, "expected expression", t.text)


def parse_expr(text: str) -> Expr:
    """Parse a standalone expression in the surface syntax."""
    tokens = tokenize(text)
    e, i = parse_expression(tokens, 0)
    if tokens[i].kind != "eof":
        t = tokens[i]
        raise ParseError(t.line, t.col, "trailing input after expression", t.text)
    return e
