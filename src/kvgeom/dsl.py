"""Scenario language: declarations of geometric objects plus check directives.

The language is whitespace-insensitive, uses '#' comments, and shares the
expression surface syntax with the symbolic layer.  Parsing validates both
grammar (positioned ParseError) and meaning (positioned SemanticError:
duplicate names, unresolved references, asymmetric bivectors, chart
mismatches).  ``serialize`` emits a canonical text form that round-trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import AlgebraSpec
from .checks import CHECKS, Witness
from .errors import ParseError, SemanticError, ZeroDenominator
from .geometry import Chart, ScalarField, SymBivector
from .lex import Token, tokenize
from .structures import AffineMap, AffineSubmanifold
from .symexpr import Expr, parse_expression

_KEYWORDS = {
    "manifold",
    "bivector",
    "scalar",
    "map",
    "submanifold",
    "algebra",
    "check",
    "dim",
    "coords",
    "on",
    "in",
    "matrix",
    "offset",
    "origin",
    "basis",
    "product",
    "cocycle",
}

# option keyword -> CheckOptions field
_OPTION_FIELDS = {
    "samples": "samples",
    "points": "points",
    "expect": "expect",
    "entry": "entries",
    "kind": "subspace_kind",
    "basis": "basis",
    "point": "point",
}


@dataclass(frozen=True)
class ManifoldDecl:
    name: str
    dim: int
    coords: tuple[str, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BivectorDecl:
    name: str
    manifold: str
    entries: tuple[tuple[Expr, ...], ...]  # full symmetric matrix
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ScalarDecl:
    name: str
    manifold: str
    value: Expr
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MapDecl:
    name: str
    source: str
    target: str
    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SubmanifoldDecl:
    name: str
    manifold: str
    origin: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AlgebraDecl:
    name: str
    dim: int
    product: tuple[tuple[tuple[int, int, int], Fraction], ...]  # ((i,j,k), value), 1-based, i<=j
    cocycle: tuple[tuple[tuple[int, int], Fraction], ...]  # ((i,j), value), 1-based, i<=j
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Declaration = ManifoldDecl | BivectorDecl | ScalarDecl | MapDecl | SubmanifoldDecl | AlgebraDecl


@dataclass(frozen=True)
class CheckOptions:
    samples: int | None = None
    points: tuple[tuple[Fraction, ...], ...] | None = None
    expect: str | None = None  # "pass" | "fail"
    entries: tuple[tuple[int, int, Expr], ...] = ()  # 1-based value assertions
    subspace_kind: str | None = None  # "subalgebra" | "ideal"
    basis: tuple[tuple[Fraction, ...], ...] | None = None
    point: tuple[Fraction, ...] | None = None

    def is_default(self) -> bool:
        return self == CheckOptions()


@dataclass(frozen=True)
class CheckDirective:
    kind: str
    args: tuple[str, ...]
    options: CheckOptions = CheckOptions()
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Scenario:
    """Declarations and checks, bound once, when built, to the environment the checks run in."""

    declarations: tuple[Declaration, ...]
    checks: tuple[CheckDirective, ...]
    env: Environment = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "env", bind_scenario(self))  # surfaces SemanticError with positions


# --- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(t.line, t.col, message, t.text)

    def expect_punct(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "punct" or t.text != text:
            raise self.fail(f"expected {text!r}")
        return self.next()

    def expect_name(self, what: str = "name") -> Token:
        t = self.peek()
        if t.kind != "name":
            raise self.fail(f"expected {what}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "name" or t.text != word:
            raise self.fail(f"expected {word!r}")
        return self.next()

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            raise self.fail("expected integer")
        self.next()
        return int(t.text)

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "name" and t.text == word

    def rational(self) -> Fraction:
        sign = 1
        if self.at_punct("-"):
            self.next()
            sign = -1
        elif self.at_punct("+"):
            self.next()
        t = self.peek()
        if t.kind != "int":
            raise self.fail("expected rational number")
        self.next()
        num = int(t.text)
        if self.at_punct("/"):
            self.next()
            t2 = self.peek()
            if t2.kind != "int":
                raise self.fail("expected denominator")
            self.next()
            den = int(t2.text)
            if den == 0:
                raise ParseError(t2.line, t2.col, "zero denominator in rational literal", t2.text)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def rational_row(self) -> tuple[Fraction, ...]:
        row = [self.rational()]
        while self.at_punct(","):
            self.next()
            row.append(self.rational())
        return tuple(row)

    def rational_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Bracketed rows: entries ',' separated, rows ';' separated."""
        self.expect_punct("[")
        rows = [self.rational_row()]
        while self.at_punct(";"):
            self.next()
            rows.append(self.rational_row())
        self.expect_punct("]")
        return tuple(rows)

    def expression(self) -> Expr:
        t = self.peek()
        try:
            e, self.i = parse_expression(self.tokens, self.i)
        except ZeroDenominator:
            raise ParseError(t.line, t.col, "expression denominator is identically zero", t.text) from None
        return e

    def expr_rows(self) -> tuple[tuple[Expr, ...], ...]:
        self.expect_punct("[")
        rows = []
        row = [self.expression()]
        while True:
            if self.at_punct(","):
                self.next()
                row.append(self.expression())
            elif self.at_punct(";"):
                self.next()
                rows.append(tuple(row))
                row = [self.expression()]
            else:
                break
        rows.append(tuple(row))
        self.expect_punct("]")
        return tuple(rows)

    # --- declarations ---

    def manifold(self) -> ManifoldDecl:
        t0 = self.expect_keyword("manifold")
        name = self.expect_name("manifold name").text
        self.expect_punct("{")
        self.expect_keyword("dim")
        dim = self.expect_int()
        self.expect_keyword("coords")
        self.expect_punct("[")
        coords = []
        while self.peek().kind == "name":
            coords.append(self.next().text)
        self.expect_punct("]")
        self.expect_punct("}")
        return ManifoldDecl(name, dim, tuple(coords), t0.line, t0.col)

    def bivector(self) -> BivectorDecl:
        t0 = self.expect_keyword("bivector")
        name = self.expect_name("bivector name").text
        self.expect_keyword("on")
        mname = self.expect_name("manifold name").text
        self.expect_punct("{")
        rows = self.expr_rows()
        self.expect_punct("}")
        entries = _assemble_symmetric(rows, t0)
        return BivectorDecl(name, mname, entries, t0.line, t0.col)

    def scalar(self) -> ScalarDecl:
        t0 = self.expect_keyword("scalar")
        name = self.expect_name("scalar name").text
        self.expect_keyword("on")
        mname = self.expect_name("manifold name").text
        self.expect_punct("=")
        value = self.expression()
        return ScalarDecl(name, mname, value, t0.line, t0.col)

    def map_decl(self) -> MapDecl:
        t0 = self.expect_keyword("map")
        name = self.expect_name("map name").text
        self.expect_punct(":")
        source = self.expect_name("source manifold").text
        self.expect_punct("->")
        target = self.expect_name("target manifold").text
        self.expect_punct("{")
        self.expect_keyword("matrix")
        matrix = self.rational_rows()
        self.expect_keyword("offset")
        offset_rows = self.rational_rows()
        if len(offset_rows) != 1:
            raise ParseError(t0.line, t0.col, "offset must be a single row", "offset")
        self.expect_punct("}")
        return MapDecl(name, source, target, matrix, offset_rows[0], t0.line, t0.col)

    def submanifold(self) -> SubmanifoldDecl:
        t0 = self.expect_keyword("submanifold")
        name = self.expect_name("submanifold name").text
        self.expect_keyword("in")
        mname = self.expect_name("manifold name").text
        self.expect_punct("{")
        self.expect_keyword("origin")
        origin_rows = self.rational_rows()
        if len(origin_rows) != 1:
            raise ParseError(t0.line, t0.col, "origin must be a single row", "origin")
        basis: tuple[tuple[Fraction, ...], ...] = ()
        if self.at_keyword("basis"):
            self.next()
            basis = self.rational_rows()
        self.expect_punct("}")
        return SubmanifoldDecl(name, mname, origin_rows[0], basis, t0.line, t0.col)

    def algebra(self) -> AlgebraDecl:
        t0 = self.expect_keyword("algebra")
        name = self.expect_name("algebra name").text
        self.expect_punct("{")
        self.expect_keyword("dim")
        dim = self.expect_int()
        self.expect_keyword("product")
        self.expect_punct("{")
        product: dict[tuple[int, int, int], Fraction] = {}
        while self.peek().kind == "int":
            t = self.peek()
            i = self.expect_int()
            j = self.expect_int()
            k = self.expect_int()
            self.expect_punct(":")
            q = self.rational()
            key = (min(i, j), max(i, j), k)
            if key in product:
                raise ParseError(t.line, t.col, f"duplicate product entry {key}", t.text)
            product[key] = q
        self.expect_punct("}")
        cocycle: dict[tuple[int, int], Fraction] = {}
        if self.at_keyword("cocycle"):
            self.next()
            self.expect_punct("{")
            while self.peek().kind == "int":
                t = self.peek()
                i = self.expect_int()
                j = self.expect_int()
                self.expect_punct(":")
                q = self.rational()
                key2 = (min(i, j), max(i, j))
                if key2 in cocycle:
                    raise ParseError(t.line, t.col, f"duplicate cocycle entry {key2}", t.text)
                cocycle[key2] = q
            self.expect_punct("}")
        self.expect_punct("}")
        return AlgebraDecl(
            name,
            dim,
            tuple(sorted(product.items())),
            tuple(sorted(cocycle.items())),
            t0.line,
            t0.col,
        )

    # --- checks ---

    def check(self) -> CheckDirective:
        t0 = self.expect_keyword("check")
        kt = self.expect_name("check kind")
        kind = kt.text
        if kind not in CHECKS:
            raise ParseError(kt.line, kt.col, f"unknown check kind {kind!r}", kind)
        args = tuple(self.expect_name("object name").text for _ in CHECKS[kind].args)
        options = CheckOptions()
        if self.at_punct("{"):
            options = self.options(kind)
        return CheckDirective(kind, args, options, t0.line, t0.col)

    def options(self, kind: str) -> CheckOptions:
        self.expect_punct("{")
        samples = None
        points = None
        expect = None
        entries: list[tuple[int, int, Expr]] = []
        subspace_kind = None
        basis = None
        point = None
        while not self.at_punct("}"):
            t = self.peek()
            if t.kind != "name" or t.text not in _OPTION_FIELDS:
                raise ParseError(t.line, t.col, "expected a check option", t.text)
            key = self.next().text
            if key == "samples":
                samples = self.expect_int()
                if samples < 1:
                    raise ParseError(t.line, t.col, "samples must be >= 1", t.text)
            elif key == "points":
                points = self.rational_rows()
            elif key == "expect":
                v = self.expect_name("pass or fail").text
                if v not in ("pass", "fail"):
                    raise ParseError(t.line, t.col, "expect takes 'pass' or 'fail'", v)
                expect = v
            elif key == "entry":
                i = self.expect_int()
                j = self.expect_int()
                entries.append((i, j, self.expression()))
            elif key == "kind":
                v = self.expect_name("subalgebra or ideal").text
                if v not in ("subalgebra", "ideal"):
                    raise ParseError(t.line, t.col, "kind takes 'subalgebra' or 'ideal'", v)
                subspace_kind = v
            elif key == "basis":
                basis = self.rational_rows()
            elif key == "point":
                rows = self.rational_rows()
                if len(rows) != 1:
                    raise ParseError(t.line, t.col, "point must be a single row", t.text)
                point = rows[0]
        self.expect_punct("}")
        return CheckOptions(samples, points, expect, tuple(entries), subspace_kind, basis, point)

    def scenario(self) -> Scenario:
        decls: list[Declaration] = []
        checks: list[CheckDirective] = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "name":
                raise self.fail("expected a declaration or check")
            if t.text == "manifold":
                decls.append(self.manifold())
            elif t.text == "bivector":
                decls.append(self.bivector())
            elif t.text == "scalar":
                decls.append(self.scalar())
            elif t.text == "map":
                decls.append(self.map_decl())
            elif t.text == "submanifold":
                decls.append(self.submanifold())
            elif t.text == "algebra":
                decls.append(self.algebra())
            elif t.text == "check":
                checks.append(self.check())
            else:
                raise self.fail(f"unexpected {t.text!r}; expected a declaration or check")
        return Scenario(tuple(decls), tuple(checks))


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


# --- semantic binding ----------------------------------------------------------


@dataclass
class Environment:
    """Declared objects resolved into engine values, in declaration order."""

    charts: dict[str, Chart]
    bivectors: dict[str, SymBivector]
    scalars: dict[str, ScalarField]
    maps: dict[str, AffineMap]
    submanifolds: dict[str, AffineSubmanifold]
    algebras: dict[str, AlgebraSpec]

    def kind_of(self, name: str) -> str | None:
        for kind, table in (
            ("manifold", self.charts),
            ("bivector", self.bivectors),
            ("scalar", self.scalars),
            ("map", self.maps),
            ("submanifold", self.submanifolds),
            ("algebra", self.algebras),
        ):
            if name in table:
                return kind
        return None


def bind_scenario(scenario: Scenario) -> Environment:
    env = Environment({}, {}, {}, {}, {}, {})
    names: set[str] = set()

    def register(name: str, decl) -> None:
        if name in names:
            raise SemanticError(decl.line, decl.col, f"duplicate name {name!r}", name)
        if name in _KEYWORDS or name in CHECKS:
            raise SemanticError(decl.line, decl.col, f"{name!r} is a reserved word", name)
        names.add(name)

    def chart_of(decl, name: str) -> Chart:
        chart = env.charts.get(name)
        if chart is None:
            raise SemanticError(decl.line, decl.col, f"unknown manifold {name!r}", name)
        return chart

    for decl in scenario.declarations:
        register(decl.name, decl)
        try:
            if isinstance(decl, ManifoldDecl):
                if decl.dim < 1:
                    raise ValueError("dim must be >= 1")
                if decl.dim != len(decl.coords):
                    raise ValueError(f"dim {decl.dim} does not match {len(decl.coords)} coordinates")
                env.charts[decl.name] = Chart(decl.name, decl.coords)
            elif isinstance(decl, BivectorDecl):
                env.bivectors[decl.name] = SymBivector(chart_of(decl, decl.manifold), decl.entries)
            elif isinstance(decl, ScalarDecl):
                env.scalars[decl.name] = ScalarField(chart_of(decl, decl.manifold), decl.value)
            elif isinstance(decl, MapDecl):
                env.maps[decl.name] = AffineMap(
                    chart_of(decl, decl.source), chart_of(decl, decl.target), decl.matrix, decl.offset
                )
            elif isinstance(decl, SubmanifoldDecl):
                env.submanifolds[decl.name] = AffineSubmanifold(
                    chart_of(decl, decl.manifold), decl.origin, decl.basis
                )
            elif isinstance(decl, AlgebraDecl):
                if decl.dim < 1:
                    raise ValueError("dim must be >= 1")
                for (i, j, k), _ in decl.product:
                    if not (1 <= i <= decl.dim and 1 <= j <= decl.dim and 1 <= k <= decl.dim):
                        raise ValueError(f"product index ({i},{j},{k}) out of range")
                for (i, j), _ in decl.cocycle:
                    if not (1 <= i <= decl.dim and 1 <= j <= decl.dim):
                        raise ValueError(f"cocycle index ({i},{j}) out of range")
                env.algebras[decl.name] = AlgebraSpec.from_sparse(
                    decl.dim,
                    {(i - 1, j - 1, k - 1): q for (i, j, k), q in decl.product},
                    {(i - 1, j - 1): q for (i, j), q in decl.cocycle},
                )
        except SemanticError:
            raise
        except Exception as exc:
            raise SemanticError(decl.line, decl.col, str(exc), decl.name) from None

    for check in scenario.checks:
        spec = CHECKS[check.kind]
        for arg, want in zip(check.args, spec.args):
            got = env.kind_of(arg)
            if got is None:
                raise SemanticError(check.line, check.col, f"unresolved reference {arg!r}", arg)
            if got != want:
                raise SemanticError(
                    check.line, check.col, f"check {check.kind}: {arg!r} is a {got}, expected a {want}", arg
                )
        message = spec.chart_rule(env, check) if spec.chart_rule else None
        if message is not None:
            raise SemanticError(check.line, check.col, message, check.kind)
        if any(getattr(check.options, _OPTION_FIELDS[key]) is None for key in spec.needs):
            needed = " and ".join(f"'{key}'" for key in spec.needs)
            raise SemanticError(check.line, check.col, f"{check.kind} check needs {needed} options", check.kind)
    return env


# --- serialization --------------------------------------------------------------


def _rat(q: Fraction) -> str:
    return str(q)


def _row(row: Sequence[Fraction]) -> str:
    return ", ".join(_rat(q) for q in row)


def _rows(rows: Sequence[Sequence[Fraction]]) -> str:
    return "[" + "; ".join(_row(r) for r in rows) + "]"


def serialize(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(serialize(s)) == s structurally."""
    out: list[str] = []
    for d in scenario.declarations:
        if isinstance(d, ManifoldDecl):
            out.append(f"manifold {d.name} {{ dim {d.dim} coords [{' '.join(d.coords)}] }}")
        elif isinstance(d, BivectorDecl):
            body = "; ".join(", ".join(str(e) for e in row) for row in d.entries)
            out.append(f"bivector {d.name} on {d.manifold} {{ [{body}] }}")
        elif isinstance(d, ScalarDecl):
            out.append(f"scalar {d.name} on {d.manifold} = {d.value}")
        elif isinstance(d, MapDecl):
            out.append(
                f"map {d.name} : {d.source} -> {d.target} "
                f"{{ matrix {_rows(d.matrix)} offset [{_row(d.offset)}] }}"
            )
        elif isinstance(d, SubmanifoldDecl):
            basis = f" basis {_rows(d.basis)}" if d.basis else ""
            out.append(f"submanifold {d.name} in {d.manifold} {{ origin [{_row(d.origin)}]{basis} }}")
        elif isinstance(d, AlgebraDecl):
            prod = " ".join(f"{i} {j} {k} : {_rat(q)}" for (i, j, k), q in d.product)
            line = f"algebra {d.name} {{ dim {d.dim} product {{ {prod} }}".replace("{  }", "{ }")
            if d.cocycle:
                coc = " ".join(f"{i} {j} : {_rat(q)}" for (i, j), q in d.cocycle)
                line += f" cocycle {{ {coc} }}"
            out.append(line + " }")
    for c in scenario.checks:
        line = f"check {c.kind} {' '.join(c.args)}"
        o = c.options
        if not o.is_default():
            parts = []
            if o.samples is not None:
                parts.append(f"samples {o.samples}")
            if o.points is not None:
                parts.append(f"points {_rows(o.points)}")
            if o.expect is not None:
                parts.append(f"expect {o.expect}")
            for i, j, e in o.entries:
                parts.append(f"entry {i} {j} {e}")
            if o.subspace_kind is not None:
                parts.append(f"kind {o.subspace_kind}")
            if o.basis is not None:
                parts.append(f"basis {_rows(o.basis)}")
            if o.point is not None:
                parts.append(f"point [{_row(o.point)}]")
            line += " { " + " ".join(parts) + " }"
        out.append(line)
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
