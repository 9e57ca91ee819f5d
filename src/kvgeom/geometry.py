"""Koszul-Vinberg operators on a single affine chart.

A chart carries the canonical flat connection of its coordinates, so every
covariant derivative below reduces to coordinate differentiation.  All
operators return fully normalized expressions; a structural condition holds
iff the corresponding residuals are exactly zero.

Each tensor identity is written once, as a lazy stream of entries: the
full tables fill from it through ``_table``, and ``is_kv`` and the checks
stop at the first nonzero entry, so one entry decides a generic bivector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

from . import linalg
from .errors import ChartMismatch, PreconditionViolated, UnknownVariable
from .symexpr import ONE, ZERO, Expr, Rational


def _as_expr(x) -> Expr:
    return x if isinstance(x, Expr) else Expr.const(x)


@dataclass(frozen=True)
class Chart:
    """Affine coordinate patch; dim 0 is allowed for derived point charts."""

    name: str
    coords: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"chart {self.name}: duplicate coordinate names")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, v: str) -> int:
        try:
            return self.coords.index(v)
        except ValueError:
            raise UnknownVariable(f"{v!r} is not a coordinate of chart {self.name}") from None


def _check_scope(chart: Chart, e: Expr) -> Expr:
    extra = e.variables() - set(chart.coords)
    if extra:
        raise UnknownVariable(f"variables {sorted(extra)} not in chart {chart.name}")
    return e


def _same_chart(*objs) -> Chart:
    charts = {o.chart for o in objs}
    if len(charts) != 1:
        names = sorted(c.name for c in charts)
        raise ChartMismatch(f"operands live on different charts: {names}")
    return objs[0].chart


@dataclass(frozen=True)
class SymBivector:
    """Symmetric contravariant 2-tensor; entries[i][j] pairs the i-th and j-th coordinate forms."""

    chart: Chart
    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        n = self.chart.dim
        ent = tuple(tuple(_check_scope(self.chart, _as_expr(e)) for e in row) for row in self.entries)
        object.__setattr__(self, "entries", ent)
        if len(ent) != n or any(len(row) != n for row in ent):
            raise ValueError(f"bivector on {self.chart.name}: expected a {n}x{n} matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if ent[i][j] != ent[j][i]:
                    raise ValueError(f"bivector entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")

    @classmethod
    def zero(cls, chart: Chart) -> "SymBivector":
        n = chart.dim
        return cls(chart, tuple(tuple(ZERO for _ in range(n)) for _ in range(n)))

    @classmethod
    def diagonal(cls, chart: Chart, diag: Sequence) -> "SymBivector":
        n = chart.dim
        return cls(chart, tuple(tuple(_as_expr(diag[i]) if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def standard(cls, chart: Chart) -> "SymBivector":
        return cls.diagonal(chart, [ONE] * chart.dim)


@dataclass(frozen=True)
class OneForm:
    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(_check_scope(self.chart, _as_expr(c)) for c in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.chart.dim:
            raise ValueError("one-form component count does not match chart dimension")


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(_check_scope(self.chart, _as_expr(c)) for c in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.chart.dim:
            raise ValueError("vector field component count does not match chart dimension")


@dataclass(frozen=True)
class ScalarField:
    chart: Chart
    value: Expr

    def __post_init__(self):
        object.__setattr__(self, "value", _check_scope(self.chart, _as_expr(self.value)))


@dataclass(frozen=True)
class TrilinearForm:
    chart: Chart
    entries: tuple[tuple[tuple[Expr, ...], ...], ...]  # indexed [i][j][k]

    def entry(self, i: int, j: int, k: int) -> Expr:
        return self.entries[i][j][k]

    def is_zero(self) -> bool:
        return all(e.is_zero() for plane in self.entries for row in plane for e in row)


def coordinate_form(chart: Chart, i: int) -> OneForm:
    return OneForm(chart, tuple(ONE if j == i else ZERO for j in range(chart.dim)))


def coordinate_field(chart: Chart, i: int) -> VectorField:
    return VectorField(chart, tuple(ONE if j == i else ZERO for j in range(chart.dim)))


def differential(f: ScalarField) -> OneForm:
    return OneForm(f.chart, tuple(f.value.diff(v) for v in f.chart.coords))


def _dot(u: Sequence[Expr], v: Sequence[Expr]) -> Expr:
    """sum_l u_l v_l, leaving out the products with a zero factor.

    The one contraction of the tensor operators; canonical forms are unique,
    so the order of the terms never shows in the result.
    """
    return sum((a * b for a, b in zip(u, v) if not (a.is_zero() or b.is_zero())), ZERO)


def _symmetric(n: int, entry) -> list[list]:
    """The symmetric n x n matrix whose entry (i, j), i <= j, is entry(i, j), each computed once."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(i, j)
    return rows


def apply_field(X: VectorField, e: Expr) -> Expr:
    """Directional derivative X(e) in chart coordinates."""
    return _dot(X.components, [e.diff(v) for v in X.chart.coords])


def pair(alpha: OneForm, X: VectorField) -> Expr:
    _same_chart(alpha, X)
    return _dot(alpha.components, X.components)


def bivector_pair(h: SymBivector, alpha: OneForm, beta: OneForm) -> Expr:
    """h(alpha, beta) = sum_ij alpha_i beta_j h_ij."""
    _same_chart(h, alpha, beta)
    return _dot(alpha.components, [_dot(beta.components, row) for row in h.entries])


def sharp(h: SymBivector, alpha: OneForm) -> VectorField:
    """alpha^# with components (alpha^#)_j = sum_i alpha_i h_ij."""
    _same_chart(h, alpha)
    return VectorField(h.chart, tuple(_dot(alpha.components, col) for col in zip(*h.entries)))


def nabla_form(X: VectorField, beta: OneForm) -> OneForm:
    """Covariant derivative of a one-form along X (flat chart connection)."""
    _same_chart(X, beta)
    return OneForm(X.chart, tuple(apply_field(X, b) for b in beta.components))


def left_sym_product(X: VectorField, Y: VectorField) -> VectorField:
    """X • Y = nabla_X Y: components sum_i X_i dY_j/dx_i."""
    _same_chart(X, Y)
    return VectorField(X.chart, tuple(apply_field(X, y) for y in Y.components))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] = X•Y - Y•X (torsion-free flat connection)."""
    a = left_sym_product(X, Y)
    b = left_sym_product(Y, X)
    return VectorField(X.chart, tuple(p - q for p, q in zip(a.components, b.components)))


def _codazzi_entries(h: SymBivector) -> Iterator[tuple[tuple[int, int, int], Expr]]:
    """((i, j, k), T(i,j,k)) for i < j, with T(i,j,k) = sum_l (h_il d_l h_jk - h_jl d_l h_ik).

    The one Codazzi formula.  Entries come lazily, in row-major order, and
    the derivative row d h_jk (shared with d h_kj) is taken when an entry
    first needs it, so a consumer that stops early pays for what it read.
    T is antisymmetric in (i, j), so the first nonzero entry of the full
    table in row-major order is the first nonzero one yielded here.
    """
    coords, H = h.chart.coords, h.entries
    rows = cache(lambda j, k: [H[j][k].diff(v) for v in coords])

    def d(j: int, k: int) -> list[Expr]:
        return rows(j, k) if j <= k else rows(k, j)

    n = len(coords)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                yield (i, j, k), _dot(H[i], d(j, k)) - _dot(H[j], d(i, k))


def _table(chart: Chart, entries, even, odd) -> TrilinearForm:
    """The n x n x n table of an entry stream, zero but at the entries and their images.

    Each ((i, j, k), s) is written at its images in ``even`` and -s at those
    in ``odd``: a permutation p of the three positions sends idx to
    (idx[p[0]], idx[p[1]], idx[p[2]]), so (0, 1, 2) is the entry itself.
    """
    n = chart.dim
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for idx, s in entries:
        for images, value in ((even, s), (odd, -s)):
            for p in images:
                table[idx[p[0]]][idx[p[1]]][idx[p[2]]] = value
    return TrilinearForm(chart, tuple(tuple(tuple(row) for row in plane) for plane in table))


def codazzi_tensor(h: SymBivector) -> TrilinearForm:
    """The Codazzi tensor T; h is K-V iff T = 0.

    T is antisymmetric in (i, j), so only i < j is computed.
    """
    return _table(h.chart, _codazzi_entries(h), ((0, 1, 2),), ((1, 0, 2),))


def is_kv(h: SymBivector) -> bool:
    """Whether T = 0, stopping at the first nonzero Codazzi entry: one entry decides a generic h.

    ``check codazzi`` reads the same entries, so its verdict and this one
    stop at the same entry.
    """
    return all(s.is_zero() for _, s in _codazzi_entries(h))


def _bracket_entries(h: SymBivector) -> Iterator[tuple[tuple[int, int, int], Expr]]:
    """((i, j, k), B(i,j,k)) for i < j, in row-major order: the five-term self-bracket of h, lazily.

    With X_a = (dx_a)^# and the tangent-bundle left-symmetric structure
    (identity anchor, X•Y = nabla_X Y, [X, Y] = X•Y - Y•X) the entry at
    (i,j,k) is

        X_i(h_jk) - X_j(h_ik) + (X_j•X_k)_i - (X_i•X_k)_j - [X_i, X_j]_k.

    Every term is read from one table, D[a][b][c] = X_a(h_bc): the sharp
    X_b of dx_b has components (X_b)_c = h_bc, and the flat connection
    differentiates components, so (X_a•X_b)_c = X_a(h_bc) too.  A sharp, a
    row d h_bc or an entry of D is taken when an entry first needs it, and
    D and d h are symmetric in (b, c), so only for b <= c.  Swapping i and
    j negates the five terms.

    B expands to minus the Codazzi entries, and both streams contract
    through ``_dot``, so ``check kv_bracket`` compares two formulas, not two
    summation codes: ``_codazzi_entries`` contracts h with its own
    derivatives, and this stream goes through the sharp map and the five
    bracket terms.
    """
    chart, H = h.chart, h.entries
    sharps = cache(lambda a: sharp(h, coordinate_form(chart, a)).components)
    rows = cache(lambda b, c: [H[b][c].diff(v) for v in chart.coords])
    D = cache(lambda a, b, c: _dot(sharps(a), rows(b, c)))

    def d(a: int, b: int, c: int) -> Expr:
        return D(a, b, c) if b <= c else D(a, c, b)

    n = chart.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                yield (i, j, k), d(i, j, k) - d(j, i, k) + d(j, k, i) - d(i, k, j) - (d(i, j, k) - d(j, i, k))


def kv_bracket_form(h: SymBivector) -> TrilinearForm:
    """The table of the five-term self-bracket, from ``_bracket_entries``; it is -codazzi_tensor(h)."""
    return _table(h.chart, _bracket_entries(h), ((0, 1, 2),), ((1, 0, 2),))


def bracket_h(h: SymBivector, alpha: OneForm, beta: OneForm) -> OneForm:
    """[alpha, beta]_h = nabla_{alpha^#} beta - nabla_{beta^#} alpha."""
    _same_chart(h, alpha, beta)
    a = nabla_form(sharp(h, alpha), beta)
    b = nabla_form(sharp(h, beta), alpha)
    return OneForm(h.chart, tuple(p - q for p, q in zip(a.components, b.components)))


def contravariant_D(h: SymBivector, alpha: OneForm, beta: OneForm) -> OneForm:
    """D_alpha beta, with <D_alpha beta, X> = (nabla_X h)(alpha, beta) + <nabla_{alpha^#} beta, X>."""
    _same_chart(h, alpha, beta)
    nab = nabla_form(sharp(h, alpha), beta)
    a, b = alpha.components, beta.components
    dh = [_dot(a, [_dot(b, [e.diff(v) for e in row]) for row in h.entries]) for v in h.chart.coords]
    return OneForm(h.chart, tuple(d + c for d, c in zip(dh, nab.components)))


def hamiltonian(h: SymBivector, f: ScalarField) -> VectorField:
    """X_f = (df)^#."""
    _same_chart(h, f)
    return sharp(h, differential(f))


def lie_derivative_contravariant(
    chart: Chart, T: Sequence[Sequence[Expr]], X: Sequence[Expr]
) -> tuple[tuple[Expr, ...], ...]:
    """(L_X T)^ij = X(T^ij) - T^kj d_k X^i - T^ik d_k X^j for any 2-contravariant tensor."""
    n = chart.dim
    dX = [[X[i].diff(v) for v in chart.coords] for i in range(n)]
    cols = list(zip(*T))
    return tuple(
        tuple(
            _dot(X, [T[i][j].diff(v) for v in chart.coords]) - _dot(cols[j], dX[i]) - _dot(T[i], dX[j])
            for j in range(n)
        )
        for i in range(n)
    )


def lie_derivative_h(h: SymBivector, f: ScalarField) -> SymBivector:
    """L_{X_f} h computed from first principles (Lie derivative in coordinates)."""
    _same_chart(h, f)
    X = hamiltonian(h, f)
    return SymBivector(h.chart, lie_derivative_contravariant(h.chart, h.entries, X.components))


def hessian_contraction(h: SymBivector, f: ScalarField) -> tuple[tuple[Expr, ...], ...]:
    """Matrix <nabla_{X_i} df, X_j> = sum_{l,m} h_il h_jm d2f/dx_l dx_m on the coordinate coframe."""
    _same_chart(h, f)
    coords = h.chart.coords
    n, H = len(coords), h.entries
    grad = [f.value.diff(v) for v in coords]
    hess = _symmetric(n, lambda l, m: grad[l].diff(coords[m]))
    # Hd[j][l] = sum_m h_jm d2f/dx_l dx_m, the components of nabla_{X_j} df
    Hd = [[_dot(row, d) for d in hess] for row in H]
    return tuple(map(tuple, _symmetric(n, lambda i, j: _dot(H[i], Hd[j]))))


def lie_derivative_residual(h: SymBivector, f: ScalarField) -> tuple[tuple[Expr, ...], ...]:
    """Residual of the identity L_{X_f}h = -nabla_{X_f}h - 2<nabla_{X_i}df, X_j>.

    The sign of the second-derivative term follows from expanding
    [df, dx_j]_h = -nabla_{X_j} df in affine coordinates; the identity holds
    exactly on K-V bivectors, where the sharp map intertwines the brackets.
    """
    L = lie_derivative_h(h, f).entries
    X = hamiltonian(h, f)
    hc = hessian_contraction(h, f)
    n = h.chart.dim
    return tuple(
        tuple(L[i][j] + apply_field(X, h.entries[i][j]) + 2 * hc[i][j] for j in range(n)) for i in range(n)
    )


def in_E(h: SymBivector, f: ScalarField) -> bool:
    """Whether f is affine along the leaves: all n^2 coframe residuals vanish."""
    return all(e.is_zero() for row in hessian_contraction(h, f) for e in row)


def special_class_check(h: SymBivector, f1: ScalarField, f2: ScalarField) -> bool:
    """Whether h(df1, df2) stays affine along the leaves; requires f1, f2 to be."""
    _same_chart(h, f1, f2)
    if not in_E(h, f1):
        raise PreconditionViolated("f1 is not affine along the leaves")
    if not in_E(h, f2):
        raise PreconditionViolated("f2 is not affine along the leaves")
    g = bivector_pair(h, differential(f1), differential(f2))
    return in_E(h, ScalarField(h.chart, g))


def evaluate_entries(h: SymBivector, point: Sequence[Rational]) -> linalg.Mat:
    pt = {v: Fraction(p) for v, p in zip(h.chart.coords, point)}
    return tuple(tuple(e.eval_at(pt) for e in row) for row in h.entries)


def rank_at(h: SymBivector, point: Sequence[Rational]) -> int:
    """Rank of the sharp map at an exact rational point."""
    return linalg.rank(evaluate_entries(h, point))
