"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from kvgeom import linalg
from kvgeom.algebra import AlgebraSpec
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


def diagonal_profile(rng: random.Random, chart: Chart) -> SymBivector:
    """diag(f_1(x_1), ..., f_n(x_n)): each diagonal entry in its own coordinate, so K-V."""
    return SymBivector.diagonal(chart, [random_poly(rng, (v,), 2, terms=2) for v in chart.coords])


def bivector_with_a_rational_entry(rng: random.Random, chart: Chart) -> SymBivector:
    """Random affine bivector with one entry pair replaced by (linear) / (v^2 + c).

    The denominator has no rational zero; one such entry over affine ones
    keeps the gcds small.
    """
    h = random_bivector(rng, chart, 1)
    rows = [list(row) for row in h.entries]
    i, j = rng.randrange(chart.dim), rng.randrange(chart.dim)
    e = random_poly(rng, chart.coords, 1, terms=2) / (Expr.var(rng.choice(chart.coords)) ** 2 + rng.randint(1, 3))
    rows[i][j] = rows[j][i] = e
    return SymBivector(chart, tuple(tuple(row) for row in rows))


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


def random_algebra(rng: random.Random, dim: int) -> AlgebraSpec:
    """Random valid algebra: block sums of idempotent lines and truncated
    nilpotent chains, conjugated by a random invertible rational matrix."""
    blocks: list[int] = []
    remaining = dim
    while remaining > 0:
        size = rng.randint(1, remaining)
        blocks.append(size)
        remaining -= size
    C = [[[Fraction(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    offset = 0
    for size in blocks:
        if size == 1 and rng.random() < 0.5:
            if rng.random() < 0.7:
                C[offset][offset][offset] = Fraction(1)  # idempotent line
        else:
            # chain e_a e_b = e_{a+b+1} while inside the block (nilpotent truncation)
            for aa in range(size):
                for bb in range(size):
                    cc = aa + bb + 1
                    if cc < size:
                        C[offset + aa][offset + bb][offset + cc] = Fraction(1)
        offset += size

    # conjugate by a random invertible P: new constants of the pushed-forward product
    while True:
        P = [[rational(rng, 1) for _ in range(dim)] for _ in range(dim)]
        Pinv = linalg.inverse(P)
        if Pinv is not None:
            break
    base = AlgebraSpec(dim, tuple(tuple(tuple(r) for r in p) for p in C), tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim)))
    cols = linalg.transpose(linalg.to_mat(P))  # image of basis vectors
    newC = [[[Fraction(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            prod = base.multiply(cols[i], cols[j])
            coeffs = linalg.matvec(Pinv, prod)
            for k in range(dim):
                newC[i][j][k] = coeffs[k]

    # cocycle from a random linear functional tau: B(u, v) = tau(u.v)
    tau = [rational(rng, 2) for _ in range(dim)]
    b = [[Fraction(0) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            b[i][j] = sum((newC[i][j][k] * tau[k] for k in range(dim)), Fraction(0))
    return AlgebraSpec(
        dim,
        tuple(tuple(tuple(r) for r in p) for p in newC),
        tuple(tuple(r) for r in b),
    )
