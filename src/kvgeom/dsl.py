"""Scenario language: declarations of geometric objects plus check directives.

The language is whitespace-insensitive and uses '#' comments.  This module
holds the one parser of the surface syntax, ``_Parser``: it reads scenarios
(``parse_scenario``) and the expressions inside them, and ``parse_expr``
reads a standalone expression with the same methods.  It reads the token
texts of ``lex.tokenize`` as plain strings, and asks for a token's line and
column only for an error, a declaration or a check.

A declaration is held once, as the engine object the checks run on: a
``Chart``, ``SymBivector``, ``ScalarField``, ``AffineMap``,
``AffineSubmanifold`` or ``AlgebraSpec``.  Each declaration kind is one row
of ``_DECLARATIONS``, under the keyword that is also its kind: the type of
its object, a reader of what follows the name, which returns a build of that
object, and a printer.  The parser queues each name and build; once the last
token has parsed, ``bind_scenario`` runs the builds in declaration order into
one name table, the ``Environment``.  So a syntax error anywhere is a positioned
ParseError, reported before any SemanticError but one: a bivector matrix that
is neither symmetric nor an upper triangle is refused as it is read.  The
other positioned SemanticErrors come after the last token: a taken or
reserved name, an unknown manifold, an object its constructor refuses, or a
check whose arguments do not fit.  Each check option is one row of
``_OPTIONS``: its ``CheckOptions`` field, reader and printer.  ``serialize``
prints the table and the checks through those rows, in a canonical text form
that round-trips, printing matrices through ``checks._matrix_str`` as reports do.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence, TypeAlias

from .algebra import AlgebraSpec
from .checks import CHECKS, Witness, _matrix_str
from .errors import DegreeOverflow, ParseError, SemanticError
from .geometry import Chart, ScalarField, SymBivector
from .lex import DIGITS, PUNCT, Token, Tokens, tokenize
from .structures import AffineMap, AffineSubmanifold
from .symexpr import _DIGITS, Expr, Monomial, Poly, _check_degree, _check_product, _packed

@dataclass(frozen=True)
class CheckOptions:
    samples: int | None = None
    points: tuple[tuple[Fraction, ...], ...] | None = None
    expect: str | None = None  # "pass" | "fail"
    entries: tuple[tuple[int, int, Expr], ...] = ()  # 1-based value assertions
    subspace_kind: str | None = None  # "subalgebra" | "ideal"
    basis: tuple[tuple[Fraction, ...], ...] | None = None
    point: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class CheckDirective:
    kind: str
    args: tuple[str, ...]
    options: CheckOptions = CheckOptions()
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


class Environment(dict):
    """The declared objects by name, in declaration order."""

    def kind_of(self, name: str) -> str | None:
        obj = self.get(name)
        return None if obj is None else _KINDS[type(obj)]

    def chart(self, name: str, at: Token) -> Chart:
        """The manifold ``name``; any other name is a SemanticError at the declaration token ``at``."""
        chart = self.get(name)
        if not isinstance(chart, Chart):
            raise SemanticError(at.line, at.col, f"unknown manifold {name!r}", name)
        return chart


@dataclass(frozen=True)
class Scenario:
    """The declared objects and the checks that run on them; building one binds each check to ``env``,
    which raises a positioned SemanticError.  Equal scenarios declare equal objects in the same order."""

    env: Environment
    checks: tuple[CheckDirective, ...]

    def __post_init__(self):
        for check in self.checks:
            spec = CHECKS[check.kind]
            for arg, want in zip(check.args, spec.args):
                got = self.env.kind_of(arg)
                if got is None:
                    raise SemanticError(check.line, check.col, f"unresolved reference {arg!r}", arg)
                if got != want:
                    raise SemanticError(
                        check.line, check.col, f"check {check.kind}: {arg!r} is a {got}, expected a {want}", arg
                    )
            message = spec.chart_rule(self.env, check) if spec.chart_rule else None
            if message is not None:
                raise SemanticError(check.line, check.col, message, check.kind)
            if any(getattr(check.options, _OPTIONS[key][0]) is None for key in spec.needs):
                needed = " and ".join(f"'{key}'" for key in spec.needs)
                raise SemanticError(check.line, check.col, f"{check.kind} check needs {needed} options", check.kind)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return list(self.env.items()) == list(other.env.items()) and self.checks == other.checks


# the build of a declared object from the objects declared before it, and a declaration as the parser queues
# it: its first token, its name and its build; strings, since a subscripted typing.Callable is cached
# process-wide and would keep this module alive after it is unloaded
Build: TypeAlias = "Callable[[Environment], object]"
Queued: TypeAlias = "tuple[Token, str, Build]"


# --- parser -------------------------------------------------------------------
#
# One recursive-descent parser reads all of the surface syntax: declarations,
# checks, and the expressions inside them, whose grammar is
#
# expr   := term (('+'|'-') term)*
# term   := unary (('*'|'/') unary)*
# unary  := ('-'|'+') unary | power
# power  := atom ['^' ['-'] INT]
# atom   := INT | NAME | '(' expr ')'
#
# The parser reads the tokens as plain strings (``lex.Tokens.texts``), and a
# token's kind from its first character; it asks for a token's line and
# column only to raise an error or to record where a declaration or a check
# starts.
#
# A monomial factor, INT | NAME ['^' INT] with its signs, is read as a
# coefficient and exponents by name (a ``Mono``).  A run of them joined by
# '*', each also divided by an integer literal ('/' INT, the INT not followed
# by '^'), is one such monomial with a rational coefficient; a leading run of
# monomial terms joined by '+' and '-' is one term dict, packed into a
# ``Poly`` once over the lcm of its denominators (``_pack``).  Any other
# factor (a parenthesis, a negative exponent, a power of an integer) or
# divisor ends a run, and from there each operator is applied to ``Expr``
# values, left to right (``apply``).  A run refuses what that
# operator-by-operator reading refuses, at the same token and with the same
# message: a monomial degree at the guard bit of a packed field is a
# ParseError at its '*' or '^', a zero divisor one at its '/', and a zero
# factor makes a product zero with no degree test, as ``Expr`` arithmetic
# does; a monomial factor never passes the size bounds.
#
# Each parenthesis and each unary sign nests one level deeper.  The cap is
# fixed, and far below what the interpreter's recursion limit allows, so
# whether an expression parses depends on its text alone.  An integer literal
# longer than 4300 digits, CPython's default limit on reading an int from
# text, is a ParseError, also on Pythons that have no such limit; a shorter
# one is read in parts (``_int``), so a lowered limit changes nothing either.

_MAX_NESTING = 100
_MAX_DIGITS = 4300

# a monomial as the expression rules read it: coefficient (an int, or a Fraction whose denominator is not 1),
# exponents by variable name, total degree
Mono: TypeAlias = "tuple[int | Fraction, dict[str, int], int]"

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}

# the first characters of integer literals; of the tokens that start no atom but '(' (punctuation, and the
# empty text at the end of input); and of the tokens that are no names
_INT = frozenset(DIGITS)
_NO_ATOM = frozenset(PUNCT) | {""}
_NO_NAME = _INT | _NO_ATOM


def _int(text: str) -> int:
    """A decimal literal read in parts of at most _DIGITS digits, below any int-from-str limit CPython allows."""
    if len(text) <= _DIGITS:
        return int(text)
    k = len(text) // 2
    return _int(text[:-k]) * 10 ** k + _int(text[-k:])


def _pack(run: dict[Monomial, int | Fraction], den: int) -> Poly:
    """The Poly of the terms ``run``, whose coefficients have denominators that divide ``den``."""
    if den != 1:
        run = {m: c * den if type(c) is int else c.numerator * (den // c.denominator) for m, c in run.items()}
    return _packed(run, den)


def _expr(e: "Expr | Mono") -> Expr:
    """``e`` as an Expr; a monomial is packed."""
    if type(e) is not tuple:
        return e
    c, powers, _ = e
    return Expr(_pack({tuple(sorted(powers.items())): c}, 1 if type(c) is int else c.denominator))


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.texts = tokens.texts
        self.i = 0

    def peek(self) -> str:
        return self.texts[self.i]

    def next(self) -> str:
        t = self.texts[self.i]
        self.i += 1
        return t

    def at_name(self) -> bool:
        return self.texts[self.i][:1] not in _NO_NAME

    def token(self) -> Token:
        """The next token, with its position."""
        return self.tokens.token(self.i)

    def error(self, i: int, message: str, token: str | None = None) -> ParseError:
        """The ParseError at token ``i``, which shows ``token``, or else the token's text."""
        t = self.tokens.token(i)
        return ParseError(t.line, t.col, message, t.text if token is None else token)

    def fail(self, message: str) -> ParseError:
        return self.error(self.i, message)

    def accept(self, *texts: str) -> str | None:
        """The next token, consumed, when it is one of ``texts``."""
        t = self.texts[self.i]
        if t in texts:
            self.i += 1
            return t
        return None

    def expect(self, text: str) -> None:
        """The next token, a punctuation token or a keyword, consumed; any other is a ParseError."""
        if self.texts[self.i] != text:
            raise self.fail(f"expected {text!r}")
        self.i += 1

    def expect_name(self, what: str = "name") -> str:
        if not self.at_name():
            raise self.fail(f"expected {what}")
        return self.next()

    def integer(self, what: str = "integer") -> int:
        """The one reader of integer tokens."""
        t = self.texts[self.i]
        if t[:1] not in _INT:
            raise self.fail(f"expected {what}")
        if len(t) > _MAX_DIGITS:
            raise self.fail(f"integer literal longer than {_MAX_DIGITS} digits")
        self.i += 1
        return _int(t)

    def rational(self) -> Fraction:
        sign = self.accept("-", "+")
        num = self.integer("rational number")
        if sign == "-":
            num = -num
        if not self.accept("/"):
            return Fraction(num)
        at = self.i
        den = self.integer("denominator")
        if den == 0:
            raise self.error(at, "zero denominator in rational literal")
        return Fraction(num, den)

    def rows(self, item: Callable[[], object]) -> tuple[tuple, ...]:
        """Bracketed rows of ``item``: entries ',' separated, rows ';' separated."""
        self.expect("[")
        rows = [[item()]]
        while sep := self.accept(",", ";"):
            if sep == ";":
                rows.append([])
            rows[-1].append(item())
        self.expect("]")
        return tuple(map(tuple, rows))

    def row(self, what: str, at: Token) -> tuple[Fraction, ...]:
        """One bracketed row of rationals; a second row is a ParseError at ``at``."""
        rows = self.rows(self.rational)
        if len(rows) != 1:
            raise ParseError(at.line, at.col, f"{what} must be a single row", what)
        return rows[0]

    # --- expressions: an operator is passed on as the index of its token ---

    def expression(self) -> Expr:
        self.expr_start = self.i
        return self.sum(0)

    def sum(self, depth: int) -> Expr:
        """A leading run of monomial terms is one term dict, packed once; from the first term that is not
        a monomial on, the operators apply left to right."""
        texts = self.texts
        run: dict[Monomial, int | Fraction] = {}
        den = 1  # the lcm of the run's denominators
        op, at = "+", None  # the operator before the term, and its index
        while type(t := self.term(depth)) is tuple:
            c, powers, _ = t
            if type(c) is not int:
                den = lcm(den, c.denominator)
            key = tuple(sorted(powers.items()))
            run[key] = run.get(key, 0) + (-c if op == "-" else c)
            if (op := texts[self.i]) != "+" and op != "-":
                return Expr(_pack(run, den))
            at = self.i
            self.i += 1
        e = t if at is None else self.apply(at, Expr(_pack(run, den)), t)
        while (op := texts[self.i]) == "+" or op == "-":
            at = self.i
            self.i += 1
            e = self.apply(at, e, _expr(self.term(depth)))
        return e

    def term(self, depth: int) -> Expr | Mono:
        """A run of monomial factors and integer divisors is one monomial; from the first factor or divisor
        that is not, the operators apply left to right."""
        texts = self.texts
        e = self.unary(depth)
        while (op := texts[self.i]) == "*" or op == "/":
            at = self.i
            self.i += 1
            if op == "/" and type(e) is tuple and texts[self.i][:1] in _INT and texts[self.i + 1] != "^":
                e = self.over(at, e, self.integer())
                continue
            rhs = self.unary(depth)
            if op == "*" and type(e) is tuple and type(rhs) is tuple:
                e = self.times(at, e, rhs)
            else:
                e = self.apply(at, _expr(e), _expr(rhs))
        return e

    def unary(self, depth: int) -> Expr | Mono:
        """Signs, then a monomial INT | NAME ['^' INT] as a Mono, or else a power; each sign nests one
        level deeper."""
        texts = self.texts
        negate = False
        while (sign := texts[self.i]) == "-" or sign == "+":
            self.i += 1
            depth = self.deeper(depth)
            negate ^= sign == "-"
        m = self.monomial()
        if m is None:
            e = self.power(depth)
            return -e if negate else e
        return (-m[0], m[1], m[2]) if negate else m

    def monomial(self) -> Mono | None:
        """The factor INT | NAME ['^' INT] at the next token, read, or None (nothing read) for any other."""
        texts, i = self.texts, self.i
        t = texts[i]
        first = t[:1]
        if first in _NO_ATOM:
            return None  # a parenthesis, or no factor
        after = texts[i + 1]
        if after == "^" and (first in _INT or texts[i + 2][:1] not in _INT):
            return None  # a power of an integer, a negative exponent, or no exponent
        if first in _INT:
            return self.integer(), {}, 0
        if after != "^":
            self.i += 1
            return 1, {t: 1}, 1
        self.i += 2
        k = self.integer("integer exponent")
        return (1, {t: self.degree(i + 1, k)}, k) if k else (1, {}, 0)

    def power(self, depth: int) -> Expr:
        e = self.atom(depth)
        if self.texts[self.i] != "^":
            return e
        at = self.i
        self.i += 1
        sign = -1 if self.accept("-") else 1
        k = sign * self.integer("integer exponent")
        if k < 0 and e.is_zero():
            raise self.error(at, "negative power of zero")
        return self.apply(at, e, k)

    def atom(self, depth: int) -> Expr:
        t = self.texts[self.i]
        if t[:1] in _INT:
            return Expr.const(self.integer())
        if t[:1] not in _NO_ATOM:
            self.i += 1
            return Expr.var(t)
        if not self.accept("("):
            raise self.fail("expected expression")
        e = self.sum(self.deeper(depth))
        self.expect(")")
        return e

    def deeper(self, depth: int) -> int:
        if depth >= _MAX_NESTING:
            raise self.error(self.expr_start, f"expression nested too deeply (more than {_MAX_NESTING} levels)")
        return depth + 1

    def degree(self, at: int, deg: int) -> int:
        """``deg``, the degree of a monomial that the operator at ``at`` forms; at the guard bit of a packed
        field, the ParseError at the operator that the same product or power of ``Expr`` raises."""
        try:
            _check_degree(deg, 0)
        except DegreeOverflow as exc:
            raise self.error(at, str(exc)) from None
        return deg

    def times(self, at: int, a: Mono, b: Mono) -> Mono:
        """The product a b at the '*' at ``at``: a zero factor makes it zero, with no degree test."""
        (ca, pa, da), (cb, pb, db) = a, b
        if not (ca and cb):
            return 0, {}, 0
        for v, k in pb.items():
            pa[v] = pa.get(v, 0) + k
        c = ca if cb == 1 else ca * cb
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        return c, pa, self.degree(at, da + db)

    def over(self, at: int, m: Mono, d: int) -> Mono:
        """The quotient m / d at the '/' at ``at``: a zero ``d`` is the ParseError that dividing an ``Expr``
        by zero raises."""
        if not d:
            raise self.error(at, "division by zero expression")
        c, powers, deg = m
        q = Fraction(c, d)
        return q.numerator if q.denominator == 1 else q, powers, deg

    def apply(self, at: int, a: Expr, b: Expr | int) -> Expr:
        """The one application of an operator, the token at ``at``, to expressions.

        A division by zero, a degree past the packed field width, or a
        product or power past the size bounds of ``symexpr`` is a ParseError
        at the operator.
        """
        op = self.texts[at]
        if op == "/" and b.is_zero():
            raise self.error(at, "division by zero expression")
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

    # --- declarations: each is handed its first token and its name, read, and returns the build of its object ---

    def manifold(self, t0: Token, name: str) -> Build:
        self.expect("{")
        self.expect("dim")
        dim = self.integer()
        self.expect("coords")
        self.expect("[")
        coords = []
        while self.at_name():
            coords.append(self.next())
        self.expect("]")
        self.expect("}")
        return lambda env: _chart(name, dim, tuple(coords))

    def bivector(self, t0: Token, name: str) -> Build:
        self.expect("on")
        mname = self.expect_name("manifold name")
        self.expect("{")
        rows = self.rows(self.expression)
        self.expect("}")
        entries = _assemble_symmetric(rows, t0)
        return lambda env: SymBivector(env.chart(mname, t0), entries)

    def scalar(self, t0: Token, name: str) -> Build:
        self.expect("on")
        mname = self.expect_name("manifold name")
        self.expect("=")
        value = self.expression()
        return lambda env: ScalarField(env.chart(mname, t0), value)

    def map_decl(self, t0: Token, name: str) -> Build:
        self.expect(":")
        source = self.expect_name("source manifold")
        self.expect("->")
        target = self.expect_name("target manifold")
        self.expect("{")
        self.expect("matrix")
        matrix = self.rows(self.rational)
        self.expect("offset")
        offset = self.row("offset", t0)
        self.expect("}")
        return lambda env: AffineMap(env.chart(source, t0), env.chart(target, t0), matrix, offset)

    def submanifold(self, t0: Token, name: str) -> Build:
        self.expect("in")
        mname = self.expect_name("manifold name")
        self.expect("{")
        self.expect("origin")
        origin = self.row("origin", t0)
        basis: tuple[tuple[Fraction, ...], ...] = ()
        if self.accept("basis"):
            basis = self.rows(self.rational)
        self.expect("}")
        return lambda env: AffineSubmanifold(env.chart(mname, t0), origin, basis)

    def algebra(self, t0: Token, name: str) -> Build:
        self.expect("{")
        self.expect("dim")
        dim = self.integer()
        self.expect("product")
        product = self.table(3, "product")
        cocycle = {}
        if self.accept("cocycle"):
            cocycle = self.table(2, "cocycle")
        self.expect("}")
        return lambda env: AlgebraSpec.from_sparse(
            _dim(dim), _zero_based(product, dim, "product"), _zero_based(cocycle, dim, "cocycle")
        )

    def table(self, arity: int, what: str) -> dict[tuple[int, ...], Fraction]:
        """'{' (INT^arity ':' rational)* '}', keyed by the indices with the first two in order."""
        self.expect("{")
        table: dict[tuple[int, ...], Fraction] = {}
        while self.peek()[:1] in _INT:
            at = self.i
            i, j, *rest = (self.integer() for _ in range(arity))
            self.expect(":")
            q = self.rational()
            key = (min(i, j), max(i, j), *rest)
            if key in table:
                raise self.error(at, f"duplicate {what} entry {key}")
            table[key] = q
        self.expect("}")
        return table

    # --- checks ---

    def check(self) -> CheckDirective:
        t0 = self.token()
        self.expect("check")
        at = self.i
        kind = self.expect_name("check kind")
        if kind not in CHECKS:
            raise self.error(at, f"unknown check kind {kind!r}")
        args = tuple(self.expect_name("object name") for _ in CHECKS[kind].args)
        options = self.options() if self.peek() == "{" else CheckOptions()
        return CheckDirective(kind, args, options, t0.line, t0.col)

    def options(self) -> CheckOptions:
        self.expect("{")
        given: dict[str, object] = {"entries": ()}  # CheckOptions field -> value
        while (key := self.peek()) != "}":
            at = self.i
            if key not in _OPTIONS:
                raise self.fail("expected a check option")
            name, read, _ = _OPTIONS[key]
            self.i += 1
            if key == "entry":  # the one option that may repeat
                given[name] += (read(self, at),)
            elif name in given:
                raise self.error(at, f"repeated option {key!r}")
            else:
                given[name] = read(self, at)
        self.expect("}")
        return CheckOptions(**given)

    # --- option values: each is handed the index of its keyword, where an error in the value is reported ---

    def samples(self, at: int) -> int:
        value = self.integer()
        if value < 1:
            raise self.error(at, "samples must be >= 1")
        return value

    def choice(self, at: int, *choices: str) -> str:
        value = self.expect_name(" or ".join(choices))
        if value not in choices:
            raise self.error(at, f"{self.texts[at]} takes {' or '.join(map(repr, choices))}", value)
        return value

    # --- a scenario: declarations and checks, in any order ---

    def scenario(self) -> Scenario:
        queue: list[Queued] = []
        checks: list[CheckDirective] = []
        while t := self.peek():
            if t == "check":
                checks.append(self.check())
            elif t in _DECLARATIONS:
                t0 = self.token()
                self.i += 1
                name = self.expect_name(f"{t} name")
                _, read, _ = _DECLARATIONS[t]
                queue.append((t0, name, read(self, t0, name)))
            elif t[:1] in _NO_NAME:
                raise self.fail("expected a declaration or check")
            else:
                raise self.fail(f"unexpected {t!r}; expected a declaration or check")
        return bind_scenario(queue, checks)


def _algebra_text(d: AlgebraSpec) -> str:
    """An algebra's nonzero product and cocycle entries, 1-based."""
    n = range(d.dim)
    prod = " ".join(
        f"{i + 1} {j + 1} {k + 1} : {q}" for i in n for j in n[i:] for k, q in enumerate(d.product[i][j]) if q
    )
    coc = " ".join(f"{i + 1} {j + 1} : {d.cocycle[i][j]}" for i in n for j in n[i:] if d.cocycle[i][j])
    text = f"{{ dim {d.dim} product {{ {prod} }}".replace("{  }", "{ }")
    return text + (f" cocycle {{ {coc} }}" if coc else "") + " }"


# declaration keyword -> (the type of the object it declares, its reader, the printer of what follows its name);
# the keyword is the kind of the object that a check asks for
_DECLARATIONS = {
    "manifold": (Chart, _Parser.manifold, lambda d: f"{{ dim {d.dim} coords [{' '.join(d.coords)}] }}"),
    "bivector": (SymBivector, _Parser.bivector, lambda d: f"on {d.chart.name} {{ {_matrix_str(d.entries)} }}"),
    "scalar": (ScalarField, _Parser.scalar, lambda d: f"on {d.chart.name} = {d.value}"),
    "map": (AffineMap, _Parser.map_decl, lambda d: (
        f": {d.source.name} -> {d.target.name} {{ matrix {_matrix_str(d.matrix)} offset {_matrix_str([d.offset])} }}"
    )),
    "submanifold": (AffineSubmanifold, _Parser.submanifold, lambda d: (
        f"in {d.ambient.name} {{ origin {_matrix_str([d.origin])}"
        + (f" basis {_matrix_str(d.basis)}" if d.basis else "") + " }"
    )),
    "algebra": (AlgebraSpec, _Parser.algebra, _algebra_text),
}

_KINDS = {cls: kind for kind, (cls, _, _) in _DECLARATIONS.items()}

# check option keyword -> (its CheckOptions field, its reader, the printer of its value), in print order;
# ``entry``, the one option that may repeat, holds a tuple of values, printed with the keyword between them
_OPTIONS = {
    "samples": ("samples", _Parser.samples, str),
    "points": ("points", lambda p, at: p.rows(p.rational), _matrix_str),
    "expect": ("expect", lambda p, at: p.choice(at, "pass", "fail"), str),
    "entry": (
        "entries",
        lambda p, at: (p.integer(), p.integer(), p.expression()),
        lambda entries: " entry ".join(f"{i} {j} {e}" for i, j, e in entries),
    ),
    "kind": ("subspace_kind", lambda p, at: p.choice(at, "subalgebra", "ideal"), str),
    "basis": ("basis", lambda p, at: p.rows(p.rational), _matrix_str),
    "point": ("point", lambda p, at: p.row("point", p.tokens.token(at)), lambda row: _matrix_str([row])),
}

_KEYWORDS = {
    *_DECLARATIONS, "check", "dim", "coords", "on", "in", "matrix", "offset", "origin", "basis", "product", "cocycle"
}


def _assemble_symmetric(rows: Sequence[Sequence[Expr]], t0: Token) -> tuple[tuple[Expr, ...], ...]:
    """Accept a full square matrix (validated symmetric) or the upper triangle."""
    n = len(rows)
    if all(len(r) == n for r in rows):
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise SemanticError(
                        t0.line, t0.col, f"bivector matrix is asymmetric at ({i + 1},{j + 1})", t0.text
                    )
        return tuple(tuple(r) for r in rows)
    if all(len(rows[i]) == n - i for i in range(n)):
        full = [[None] * n for _ in range(n)]
        for i in range(n):
            for off, e in enumerate(rows[i]):
                full[i][i + off] = e
                full[i + off][i] = e
        return tuple(tuple(r) for r in full)  # type: ignore[arg-type]
    raise SemanticError(t0.line, t0.col, "bivector matrix must be square or an upper triangle", t0.text)


def parse_scenario(text: str) -> Scenario:
    """Parse and semantically validate a scenario."""
    return _Parser(tokenize(text)).scenario()


def parse_expr(text: str) -> Expr:
    """Parse a standalone expression in the surface syntax."""
    p = _Parser(tokenize(text))
    e = p.expression()
    if p.peek():
        raise p.fail("trailing input after expression")
    return e


# --- semantic binding ----------------------------------------------------------


def bind_scenario(queue: Sequence[Queued], checks: Sequence[CheckDirective]) -> Scenario:
    """Build the queued declarations in order into one name table, then bind the checks to it.

    A taken or reserved name, or a build its constructor refuses, is a SemanticError at the declaration."""
    env = Environment()
    for t, name, build in queue:
        if name in env:
            raise SemanticError(t.line, t.col, f"duplicate name {name!r}", name)
        if name in _KEYWORDS or name in CHECKS:
            raise SemanticError(t.line, t.col, f"{name!r} is a reserved word", name)
        try:
            env[name] = build(env)
        except SemanticError:
            raise
        except Exception as exc:
            raise SemanticError(t.line, t.col, str(exc), name) from None
    return Scenario(env, tuple(checks))


def _dim(dim: int) -> int:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return dim


def _chart(name: str, dim: int, coords: tuple[str, ...]) -> Chart:
    if _dim(dim) != len(coords):
        raise ValueError(f"dim {dim} does not match {len(coords)} coordinates")
    return Chart(name, coords)


def _zero_based(table: dict[tuple[int, ...], Fraction], dim: int, what: str) -> dict[tuple[int, ...], Fraction]:
    """An algebra table's 1-based entries, each index checked against ``dim``, keyed 0-based."""
    out = {}
    for key in sorted(table):
        if not all(1 <= i <= dim for i in key):
            raise ValueError(f"{what} index ({','.join(map(str, key))}) out of range")
        out[tuple(i - 1 for i in key)] = table[key]
    return out


# --- serialization --------------------------------------------------------------


def serialize(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(serialize(s)) == s, unless an expression has a coefficient
    longer than the reader's 4300 digits: that prints in full and reads back as a ParseError.  An
    algebra prints its nonzero entries only."""
    out: list[str] = []
    for name, d in scenario.env.items():
        kind = _KINDS[type(d)]
        _, _, show = _DECLARATIONS[kind]
        out.append(f"{kind} {name} {show(d)}")
    for c in scenario.checks:
        given = [(key, show, getattr(c.options, name)) for key, (name, _, show) in _OPTIONS.items()]
        options = " ".join(f"{key} {show(v)}" for key, show, v in given if v is not None and v != ())
        out.append(f"check {c.kind} {' '.join(c.args)}" + (f" {{ {options} }}" if options else ""))
    return "\n".join(out) + "\n"


# --- reports --------------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    kind: str
    status: str  # "pass" | "fail" | "pointwise-pass" | "unsupported"
    witness: Witness | None
    details: str


def render_report(results: Sequence[CheckOutcome], format: str = "json") -> str:
    """Stable report text: identical inputs produce byte-identical output."""
    if format == "json":
        payload = {
            "checks": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "status": r.status,
                    "witness": (
                        {"point": list(r.witness.point), "residual": r.witness.residual}
                        if r.witness is not None
                        else None
                    ),
                    "details": r.details,
                }
                for r in results
            ]
        }
        return json.dumps(payload, indent=2) + "\n"
    if format == "text":
        if not results:
            return "no checks\n"
        width_kind = max(len(r.kind) for r in results)
        width_name = max(len(r.name) for r in results)
        lines = []
        for r in results:
            line = f"{r.status:<14} {r.kind:<{width_kind}} {r.name:<{width_name}} {r.details}"
            if r.witness is not None:
                line += f" | witness at ({', '.join(r.witness.point)}): {r.witness.residual}"
            lines.append(line.rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError("format must be 'json' or 'text'")
