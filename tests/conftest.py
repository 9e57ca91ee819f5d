"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from kvgeom.geometry import Chart, OneForm, ScalarField, SymBivector, VectorField
from kvgeom.symexpr import Expr


def rational(rng: random.Random, scale: int = 2) -> Fraction:
    den = rng.randint(1, 3)
    return Fraction(rng.randint(-scale * den, scale * den), den)


def random_poly(rng: random.Random, variables: tuple[str, ...], degree: int, terms: int = 4) -> Expr:
    e = Expr.const(rational(rng))
    for _ in range(terms):
        c = rational(rng)
        if not c:
            continue
        t = Expr.const(c)
        for _ in range(rng.randint(0, degree)):
            t = t * Expr.var(rng.choice(variables))
        e = e + t
    return e


def random_rational_function(rng: random.Random, variables: tuple[str, ...], degree: int) -> Expr:
    num = random_poly(rng, variables, degree)
    den = random_poly(rng, variables, max(degree - 1, 1))
    while den.is_zero():
        den = random_poly(rng, variables, max(degree - 1, 1))
    return num / den


def random_bivector(rng: random.Random, chart: Chart, degree: int = 2) -> SymBivector:
    n = chart.dim
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = random_poly(rng, chart.coords, degree, terms=3)
            entries[i][j] = e
            entries[j][i] = e
    return SymBivector(chart, tuple(tuple(row) for row in entries))


def random_oneform(rng: random.Random, chart: Chart, degree: int = 2) -> OneForm:
    return OneForm(chart, tuple(random_poly(rng, chart.coords, degree, terms=3) for _ in chart.coords))


def random_field(rng: random.Random, chart: Chart, degree: int = 2) -> VectorField:
    return VectorField(chart, tuple(random_poly(rng, chart.coords, degree, terms=3) for _ in chart.coords))


def random_scalar(rng: random.Random, chart: Chart, degree: int = 3) -> ScalarField:
    return ScalarField(chart, random_poly(rng, chart.coords, degree, terms=5))


def random_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n))


def vanishing_on_sample_box(variable: str) -> Expr:
    """Product of (v - r) over every rational r = p/q, p in [-8, 8], q in [1, 8]: zero at every sampled value."""
    v, out = Expr.var(variable), Expr.const(1)
    for r in sorted({Fraction(p, q) for p in range(-8, 9) for q in range(1, 9)}):
        out = out * (v - Expr.const(r))
    return out
