"""Tangent-bundle constructions: lifts and the Poisson lift.

The horizontal/vertical splitting is hard-coded to the zero-Christoffel form
of an affine chart: horizontal directions are the base coordinate directions,
vertical ones the fiber directions.  The skew bivector built from a symmetric
bivector h pairs base coordinate forms with fiber ones.  Its base-base and
fiber-fiber blocks vanish and no entry depends on a fiber coordinate, so its
only Jacobiator entries J(i,j,k), i < j < k, that can be nonzero are
J(a, n+b, n+c) = T(c,b,a) = -T(b,c,a), for a base index a and fiber indices
b < c: h's Codazzi entries, re-indexed, which is why the lift is Poisson
exactly when h is K-V.  ``check jacobi_tangent`` reads them from h's Codazzi
memo in lift order (``_lift_jacobi_entries``) and builds no lift.  Its
cross-check with ``is_kv``, which reads the same memo in Codazzi order, does
not recompute T: it guards the re-indexing, since an entry the lift order
skipped would read as a pass on an h that is not K-V.

The horizontal lift W = (X_f, 0) of a Hamiltonian field depends on no fiber
coordinate, so L_W Pi vanishes outside its base-fiber block and is minus
that block's transpose there, and column b of the block is the base-chart
bracket [X_f, (dx_b)^#].  ``lift_propositions_check`` takes those n brackets
and builds no lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ChartMismatch
from .geometry import (
    Chart,
    OneForm,
    ScalarField,
    SymBivector,
    VectorField,
    _dot,
    _nz,
    coordinate_form,
    hamiltonian,
    hessian_contraction,
    is_kv,
    lie_bracket,
    sharp,
)
from .symexpr import ZERO, Expr


@dataclass(frozen=True)
class TangentChart:
    """Chart of the tangent bundle: base coordinates followed by fiber coordinates."""

    base: Chart
    fiber: tuple[str, ...]

    @property
    def chart(self) -> Chart:
        return Chart(f"T_{self.base.name}", self.base.coords + self.fiber)

    @property
    def dim(self) -> int:
        return 2 * self.base.dim


def make_tangent_chart(base: Chart) -> TangentChart:
    taken = set(base.coords)
    fiber = []
    for c in base.coords:
        name = f"u_{c}"
        while name in taken:
            name = "_" + name
        taken.add(name)
        fiber.append(name)
    return TangentChart(base, tuple(fiber))


@dataclass(frozen=True)
class SkewBivector:
    """Antisymmetric bivector on a tangent chart."""

    tangent: TangentChart
    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        n2 = self.tangent.dim
        if len(self.entries) != n2 or any(len(r) != n2 for r in self.entries):
            raise ValueError(f"expected a {n2}x{n2} matrix")
        for i in range(n2):
            for j in range(i, n2):
                a, b = self.entries[i][j], self.entries[j][i]
                if (a.num.terms or b.num.terms) and a != -b:
                    raise ValueError(f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) are not antisymmetric")

    @property
    def chart(self) -> Chart:
        return self.tangent.chart


def _require_base(tc: TangentChart, obj) -> None:
    if obj.chart != tc.base:
        raise ChartMismatch(f"expected an object on base chart {tc.base.name}")


def lift_vector(tc: TangentChart, X: VectorField, mode: str) -> VectorField:
    """X^h spans base directions, X^v fiber directions; components pull back from the base."""
    _require_base(tc, X)
    n = tc.base.dim
    zero = tuple(ZERO for _ in range(n))
    if mode == "horizontal":
        return VectorField(tc.chart, X.components + zero)
    if mode == "vertical":
        return VectorField(tc.chart, zero + X.components)
    raise ValueError("mode must be 'vertical' or 'horizontal'")


def lift_scalar(tc: TangentChart, f: ScalarField) -> ScalarField:
    """f o p: same expression read on the tangent chart."""
    _require_base(tc, f)
    return ScalarField(tc.chart, f.value)


def build_pi(h: SymBivector, tc: TangentChart | None = None) -> SkewBivector:
    """Skew lift of h: base-fiber block h_ij(x), base-base and fiber-fiber blocks zero."""
    tc = tc if tc is not None else make_tangent_chart(h.chart)
    if tc.base != h.chart:
        raise ChartMismatch("tangent chart does not sit over the bivector's chart")
    n = h.chart.dim
    rows = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            if i < n <= j:
                row.append(h.entries[i][j - n])
            elif j < n <= i:
                row.append(-h.entries[i - n][j])
            else:
                row.append(ZERO)
        rows.append(tuple(row))
    return SkewBivector(tc, tuple(rows))


def pi_sharp(pi: SkewBivector, alpha: OneForm) -> VectorField:
    """Pi_#(alpha) defined by beta(Pi_#(alpha)) = Pi(alpha, beta)."""
    if alpha.chart != pi.chart:
        raise ChartMismatch("expected a one-form on the tangent chart")
    a = _nz(alpha.components)
    return VectorField(pi.chart, tuple(_dot(a, _nz(col)) for col in zip(*pi.entries)))


def _lift_jacobi_entries(h: SymBivector) -> Iterator[tuple[tuple[int, int, int], Expr]]:
    """((a, n+b, n+c), J(a, n+b, n+c)) of the lift ``build_pi(h)``, in lexicographic order, lazily.

    Each entry is -T(b,c,a), read from h's Codazzi memo (``SymBivector.codazzi``),
    where T(b,c,a) sits at place p*n + a, p the place of (b, c) among the
    pairs b < c in row-major order.  The memo is extended only as far as the
    entries read so far need, so T(1,2,1) alone decides a generic h, and an
    exception the memo holds is raised again here.  Every other J(i,j,k),
    i < j < k, of the lift is zero, so the first nonzero entry of the full
    Jacobi table in row-major order is the first nonzero one yielded here.
    """
    n = h.chart.dim
    stream = h.codazzi()
    read: list[Expr] = []

    def T(at: int) -> Expr:
        while len(read) <= at:
            read.append(next(stream)[1])
        return read[at]

    pairs = [(b, c) for b in range(n) for c in range(b + 1, n)]
    for a in range(n):
        for p, (b, c) in enumerate(pairs):
            yield (a, n + b, n + c), -T(p * n + a)


@dataclass(frozen=True)
class LiftPropositionsReport:
    """Outcome of the two Hamiltonian-lift statements for (h, f)."""

    lie_pi_vanishes: bool  # L_{X_f^h} Pi = 0
    f_in_E: bool
    ambient_kv: bool
    mixed_residuals: tuple[tuple[Expr, ...], ...]  # L Pi (dx_i^v, dx_j^h) - <nabla_{X_i} df, X_j>


def lift_propositions_check(h: SymBivector, f: ScalarField) -> LiftPropositionsReport:
    """L_{X_f^h} Pi read from its base-fiber block, n brackets on h's own chart; the lift is never built."""
    chart, n = h.chart, h.chart.dim
    X_f = hamiltonian(h, f)
    # block[b][i] = [X_f, (dx_b)^#]_i = (L Pi)(dx_i^h, dx_b^v) = -(L Pi)(dx_b^v, dx_i^h)
    block = [lie_bracket(X_f, sharp(h, coordinate_form(chart, b))).components for b in range(n)]
    vanishes = all(e.is_zero() for row in block for e in row)
    hc = hessian_contraction(h, f)
    f_in = all(e.is_zero() for row in hc for e in row)  # in_E, from the contraction computed once
    mixed = tuple(tuple(-block[i][j] - hc[i][j] for j in range(n)) for i in range(n))
    return LiftPropositionsReport(vanishes, f_in, is_kv(h), mixed)
