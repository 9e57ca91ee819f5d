"""The packed reading of expressions against the operator-by-operator reading it replaced.

``_Parser`` reads a run of monomial factors as one monomial and a run of
monomial terms as one term dict, packed once.  ``PerAtomParser`` keeps the
reading it replaced, as a test-only reference: every atom an ``Expr`` and
every operator applied in turn.  On every text both must give the same
canonical ``Expr`` and stop at the same token, or raise the same error with
the same message and position.
"""

import operator
import random

import pytest

from kvgeom.dsl import _Parser
from kvgeom.errors import DegreeOverflow, KVError, ParseError
from kvgeom.lex import kind, tokenize
from kvgeom.symexpr import Expr, _check_product

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


class PerAtomParser(_Parser):
    """The reference: the expression rules as they read before monomial runs were packed."""

    def sum(self, depth):
        e = self.term(depth)
        while self.accept("+", "-"):
            at = self.i - 1
            e = self.apply(at, e, self.term(depth))
        return e

    def term(self, depth):
        e = self.unary(depth)
        while op := self.accept("*", "/"):
            at = self.i - 1
            rhs = self.unary(depth)
            if op == "/" and rhs.is_zero():
                raise self.error(at, "division by zero expression")
            e = self.apply(at, e, rhs)
        return e

    def unary(self, depth):
        sign = self.accept("-", "+")
        if sign is None:
            return self.power(depth)
        e = self.unary(self.deeper(depth))
        return -e if sign == "-" else e

    def power(self, depth):
        e = self.atom(depth)
        if not self.accept("^"):
            return e
        at = self.i - 1
        sign = -1 if self.accept("-") else 1
        k = sign * self.integer("integer exponent")
        if k < 0 and e.is_zero():
            raise self.error(at, "negative power of zero")
        return self.apply(at, e, k)

    def atom(self, depth):
        t = self.peek()
        if kind(t) == "int":
            return Expr.const(self.integer())
        if kind(t) == "name":
            self.i += 1
            return Expr.var(t)
        if not self.accept("("):
            raise self.fail("expected expression")
        e = self.sum(self.deeper(depth))
        self.expect(")")
        return e

    def apply(self, at, a, b):
        op = self.texts[at]
        try:
            if op == "*":
                _check_product(a.num, b.num)
                _check_product(a.den, b.den)
            elif op == "/":
                _check_product(a.num, b.den)
                _check_product(a.den, b.num)
            return _OPS[op](a, b)
        except DegreeOverflow as exc:
            raise self.error(at, str(exc)) from None


def outcome(parser, text: str) -> tuple:
    """What reading ``text`` as one expression gives: the Expr and the index of the next token, or the error."""
    p = parser(tokenize(text))
    try:
        e = p.expression()
    except ParseError as exc:
        return "ParseError", exc.message, exc.line, exc.column, exc.token
    except KVError as exc:
        return type(exc).__name__, str(exc)
    assert isinstance(e, Expr)
    return "Expr", e.num, e.den, p.i


def assert_same_reading(text: str) -> tuple:
    want = outcome(PerAtomParser, text)
    assert outcome(_Parser, text) == want, text
    return want


BIG = 2**31 - 1  # the largest degree a packed field holds
HALF = 2**30

LISTED = [
    # degree at the guard bit, at '*' and at '^'
    f"x^{BIG}*x",
    f"x^{HALF}*x^{HALF}",
    f"x^{HALF}*y^{HALF}",
    f"x^{HALF}*y^{HALF - 1}",
    f"2*x^{BIG}*3*y",
    f"x^{BIG}*2*x + 1",
    f"y + x^{BIG}*x",
    f"x^{BIG + 1}",
    f"x^{BIG}",
    f"0*x^{BIG}*x",
    f"x^{BIG}*0*x",
    f"x^{BIG}*x*0",
    f"0*x^{BIG + 1}",
    f"x^{BIG} + y^{BIG}",
    f"(x^{BIG})*x",
    f"x^{BIG}*(x)",
    f"-x^{BIG}*-x",
    f"x^{BIG}*x*)",
    # negative powers and powers of integers
    "x^-1",
    "x^-2*y",
    "0^-1",
    "0^0",
    "x^0",
    "x^0*y^0",
    "2^3*x",
    "x*2^3",
    "2^-1*x",
    "(x-x)^-1",
    "x^2^3",
    # an integer divisor stays in a run, any other divisor ends it
    "1/2*x*y",
    "x/3",
    "-2/3*x^2 + y/5",
    "0/0*x",
    "1/2/3*x",
    "2/3^2*x",
    f"x^{BIG}/2*x",
    f"x^{HALF}/2*x^{HALF}/3",
    f"0/5*x^{BIG}*x",
    "x/3*y/4 - x*y/12",
    "1/2*x + 1/2*x - x",
    "x/2 + y/3 + 1/6",
    "4/2*x",
    "-x/-3",
    "x/+3",
    "x/3^-1",
    "x/(3)*y",
    "x/" + "9" * 4300 + "*y",
    "x/" + "9" * 4301,
    "x/",
    "x/*y",
    "2/3",
    "-0/1",
    "a/b*c",
    "a*b/c*d",
    "x/0",
    "x/0*y",
    "1/(x-x)",
    "x/-0",
    "x/2 + y",
    # signs
    "x*-y",
    "x - -y",
    "--x",
    "+-+x",
    "-x^2",
    "-(x+1)*y",
    "x*-(y+1)",
    # cancellation and zero terms
    "x - x",
    "x - x + y",
    "3*x*2*y - 6*x*y",
    "0 + (x+1)",
    "0 - (x+1)",
    "0*x + 0",
    "x*0 - y*0",
    # runs that end at a term that is not a monomial, and go on after it
    "x*(y+1)*z + w",
    "1/x + x",
    "x + 1/x + y + z",
    "x*y + (x + 1)^2 - x*y",
    "1/(x+1)^2 + 1/(x-1)^2",
    # syntax errors
    "",
    "x^",
    "x^-",
    "x^y",
    "x*",
    "*x",
    "x+",
    "-",
    "()",
    "(x",
    "x)",
    "x y",
    "x + * y",
    "2 3",
    "x^(2)",
    # integer literals at the digit cap
    "9" * 4300,
    "9" * 4301,
    "9" * 4300 + "*x",
    "9" * 4301 + "*x",
    "x*" + "9" * 4301,
    "x^" + "1" * 4301,
    "x^-" + "1" * 4301,
    "2*" + "9" * 4300 + "*" + "9" * 4300 + "*x",
    # nesting: each sign and each parenthesis is one level; the cap is 100
    "-" * 100 + "x",
    "-" * 101 + "x",
    "x*" + "-" * 100 + "y",
    "x*" + "-" * 101 + "y",
    "(" * 100 + "x" + ")" * 100,
    "(" * 101 + "x" + ")" * 101,
    "-(" * 50 + "x" + ")" * 50,
    "-(" * 51 + "x" + ")" * 51,
]


@pytest.mark.parametrize("text", LISTED)
def test_listed_texts_read_as_the_operator_by_operator_reading_reads_them(text):
    assert_same_reading(text)


def test_the_listed_texts_cover_both_outcomes():
    kinds = [assert_same_reading(text)[0] for text in LISTED]
    assert kinds.count("Expr") >= 30 and kinds.count("ParseError") >= 30


def _random_text(rng: random.Random, depth: int = 0) -> str:
    """A random expression text of small degree: sums of products of signed atoms, powers and groups.

    A group is one level deep and has neither a negative power nor a '/'
    but one by an integer, so that no gcd the text needs is large.
    """
    names = ("x", "y", "z", "x1") if depth == 0 else ("x", "y")
    exponents = ("0", "1", "2", "3", "-1", "-2") if depth == 0 else ("0", "1", "2")

    def factor() -> str:
        signs = "".join(rng.choice("-+") for _ in range(rng.choice((0, 0, 0, 1, 2))))
        r = rng.random()
        if r < 0.15 and depth == 0:
            base = f"({_random_text(rng, 1)})"
        elif r < 0.55:
            base = rng.choice(names)
        else:
            base = rng.choice(("0", "1", "2", "3", "7", "12", "123456789012345678901234567890"))
        if rng.random() < 0.3:
            base += "^" + rng.choice(exponents)
        return signs + base

    def term() -> str:
        out = factor()
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            if rng.random() < 0.2:  # an integer divisor, which leaves the gcds as they are
                out += "/" + rng.choice(("2", "3", "3", "12", "1", "0", "2^2", "123456789012345678901234567890"))
            else:
                out += rng.choice(("*", "*", "*", "/" if depth == 0 else "*")) + factor()
        return out

    out = term()
    for _ in range(rng.choice((0, 1, 2, 3))):
        out += rng.choice((" + ", " - ")) + term()
    return out


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` with one token dropped, repeated or replaced, so that some texts do not parse."""
    tokens = tokenize(text).texts[:-1]
    i = rng.randrange(len(tokens))
    action = rng.choice(("drop", "repeat", "replace"))
    if action == "drop":
        del tokens[i]
    elif action == "repeat":
        tokens.insert(i, tokens[i])
    else:
        tokens[i] = rng.choice(("*", "/", "^", "+", "-", "(", ")", "0", "x", f"{HALF}", "^-"))
    return " ".join(tokens)


@pytest.mark.parametrize("seed", range(4))
def test_random_texts_read_as_the_operator_by_operator_reading_reads_them(seed):
    rng = random.Random(7100 + seed)
    kinds = []
    for _ in range(300):
        text = _random_text(rng)
        kinds.append(assert_same_reading(text)[0])
        kinds.append(assert_same_reading(_mutated(rng, text))[0])
    assert kinds.count("Expr") > 200 and kinds.count("ParseError") > 50


@pytest.mark.parametrize("seed", range(2))
def test_random_monomial_products_at_the_degree_cap_read_alike(seed):
    """Products and sums of high powers: the degree test must fire at the same '*', or not at all."""
    rng = random.Random(7200 + seed)
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = []
            for _ in range(rng.randint(1, 4)):
                f = rng.choice(("x", "y", "2", "0", "-x"))
                if f not in ("2", "0") and rng.random() < 0.7:
                    f += "^" + str(rng.choice((HALF - 1, HALF, BIG, BIG + 1, 1, 2**29)))
                factors.append(f)
            terms.append("*".join(factors))
        assert_same_reading(rng.choice((" + ", " - ")).join(terms))
