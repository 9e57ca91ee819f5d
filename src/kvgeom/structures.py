"""Affine maps and affine submanifolds: K-V maps, induced structures, and deciders.

Maps are exact affine maps (rational matrix + offset) and submanifolds are
affine subspaces of a chart, so every structural condition reduces to a
polynomial identity in adapted coordinates.  Transversality (an open
condition) gets a three-valued verdict instead: symbolic when the relevant
determinant restricts to a nonzero constant, pointwise otherwise.  The
verdict eliminates the conormal block D alone.  A transversal result keeps
det D and the adapted entries; the bordered block det D * (A - B D^{-1} B^T)
is built from them when it is first read, and the induced structure divides
the one by the other when it is read, so no verdict divides a rational
function or builds a block it does not read (of a rational h, each output
is normalized once).  ``preimage_transversal`` decides the pullback claim on
these blocks with their denominators cleared, so it neither divides nor samples.

Each construction is written once: every sum of products goes through
``geometry._dot``, the one contraction of the tensor layer, and every table
symmetric in two indices through ``geometry._symmetric``; ``_matvec`` is
the product M v of a rational matrix with a vector of expressions (map
components, pullbacks, relatedness), ``_congruence`` is M T M^T (K-V maps and
the change to adapted coordinates; of a symmetric T it forms each entry
a <= b once, and of polynomial entries it sums scaled polynomials), and
``expr_det`` is the one exact elimination: it clears each row's
denominators, eliminates over polynomials, and yields a determinant and,
given a border, in the same pass the bordered determinants of a Schur
complement.

A submanifold N is read in adapted coordinates y = P(x - o), where N is
{y_{k+1} = ... = y_n = 0}.  ``AffineSubmanifold`` builds its frame C (the
basis completed by standard vectors) and P = C^{-1} once, in one RREF, and
every chart change reads them: ``parameters_of`` is y = P(x - o), N's
``parametrization`` is x = C (y_1..y_k, 0) + o, and a map F restricts to
y_2 = P_2 (F(x_1(y_1)) - o_2) through ``compose``.  Restriction to N is the
pullback along the parametrization (``_along_n``, one ``substitute`` call
for the whole matrix), so the adapted bivector of ``to_adapted_bivector``
holds N's coordinates only, and the K-V submanifold, transversal,
coisotropy and conormal tests read its blocks.  N builds it once per
bivector (``AffineSubmanifold.adapted``), so checks that share N and h in
one scenario share one build.  The conormal algebroid differentiates H along the frame vectors c_j, the
columns of C, which is d/dy_j, and pulls those derivatives back along N the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from random import Random
from typing import Sequence

from . import linalg
from .errors import (
    ChartMismatch,
    ClosureFailure,
    DegenerateBasis,
    EngineInconsistency,
    NotCoisotropic,
    NotTransverse,
    PreconditionViolated,
)
from .geometry import (
    Chart,
    OneForm,
    ScalarField,
    SymBivector,
    VectorField,
    _dot,
    _symmetric,
    coordinate_form,
    hamiltonian,
    sharp,
)
from .symexpr import (
    _P_ONE,
    _P_ZERO,
    ONE,
    ZERO,
    Expr,
    Poly,
    Rational,
    _rational_str,
    distinct_sample_points,
    divexact,
    substitute,
)
from .tangent import build_pi, make_tangent_chart


def _frac_row(row: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in row)


def _matvec(M: Sequence[Sequence[Fraction]], v: Sequence[Expr]) -> list[Expr]:
    """M v for a rational matrix M and a vector v of Expr, skipping the zero entries of M."""
    return [_dot([Expr.const(c) if c else ZERO for c in row], v) for row in M]


def _congruence(
    M: Sequence[Sequence[Fraction]], T: Sequence[Sequence[Expr]], symmetric: bool = False
) -> list[list[Expr]]:
    """M T M^T for a rational matrix M and a square matrix T of Expr, skipping the zero entries of M.

    Entry (a, b) is sum_ij M_ai M_bj T_ij, one coefficient per distinct T_ij:
    a sum of scaled polynomials (``Poly.scale``) when those T_ij are
    polynomials, through ``_dot`` otherwise.  With ``symmetric``, T is
    symmetric: T_ij and T_ji share a coefficient, and each entry a <= b is
    formed once.
    """
    nz = [[(i, c) for i, c in enumerate(row) if c] for row in M]

    def entry(a: int, b: int) -> Expr:
        coeffs: dict[tuple[int, int], Fraction] = {}
        for i, c in nz[a]:
            for j, d in nz[b]:
                key = (j, i) if symmetric and j < i else (i, j)
                coeffs[key] = coeffs.get(key, 0) + c * d
        terms = [(T[i][j], q) for (i, j), q in coeffs.items() if q and T[i][j].num.terms]
        if all(e.den is _P_ONE for e, _ in terms):
            return Expr(sum((e.num.scale(q) for e, q in terms), _P_ZERO))
        return _dot([Expr.const(q) for _, q in terms], [e for e, _ in terms])

    if symmetric:
        return _symmetric(len(M), entry)
    return [[entry(a, b) for b in range(len(M))] for a in range(len(M))]


# --- affine maps -------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """F(x) = matrix @ x + offset between two charts."""

    source: Chart
    target: Chart
    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]

    def __post_init__(self):
        m, n = self.target.dim, self.source.dim
        mat = tuple(_frac_row(r) for r in self.matrix)
        off = _frac_row(self.offset)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "offset", off)
        if len(mat) != m or any(len(r) != n for r in mat) or len(off) != m:
            raise ValueError(f"affine map needs a {m}x{n} matrix and length-{m} offset")

    @classmethod
    def identity(cls, chart: Chart) -> "AffineMap":
        return cls(chart, chart, linalg.identity(chart.dim), tuple(Fraction(0) for _ in range(chart.dim)))

    def apply(self, p: Sequence[Rational]) -> tuple[Fraction, ...]:
        if len(p) != self.source.dim:
            raise ValueError(f"point {list(p)} must have length {self.source.dim}")
        return tuple(a + b for a, b in zip(linalg.matvec(self.matrix, p), self.offset))

    def component_exprs(self) -> tuple[Expr, ...]:
        """Target coordinates as expressions in the source coordinates."""
        mx = _matvec(self.matrix, [Expr.var(v) for v in self.source.coords])
        return tuple(e + c if c else e for e, c in zip(mx, self.offset))

    def substitution(self) -> dict[str, Expr]:
        """target coordinate name -> expression in source coordinates."""
        return dict(zip(self.target.coords, self.component_exprs()))


def compose(g: AffineMap, f: AffineMap) -> AffineMap:
    if f.target != g.source:
        raise ChartMismatch("composition needs matching middle chart")
    mat = linalg.matmul(g.matrix, f.matrix)
    off = tuple(a + b for a, b in zip(linalg.matvec(g.matrix, f.offset), g.offset))
    return AffineMap(f.source, g.target, mat, off)


def pullback(f: AffineMap, alpha: OneForm) -> OneForm:
    """(F*alpha)_i = sum_j alpha_j(F(x)) M_ji."""
    if alpha.chart != f.target:
        raise ChartMismatch("pullback needs a one-form on the target chart")
    sub = f.substitution()
    pulled = [a.substitute(sub) for a in alpha.components]
    Mt = [[row[i] for row in f.matrix] for i in range(f.source.dim)]
    return OneForm(f.source, tuple(_matvec(Mt, pulled)))


def are_F_related(f: AffineMap, X: VectorField, Y: VectorField) -> bool:
    """TF(X) = Y o F, i.e. M X(x) - Y(F(x)) = 0 componentwise."""
    if X.chart != f.source or Y.chart != f.target:
        raise ChartMismatch("relatedness needs fields on the source and target charts")
    return all(r.is_zero() for r in relatedness_residuals(f, X, Y))


def relatedness_residuals(f: AffineMap, X: VectorField, Y: VectorField) -> tuple[Expr, ...]:
    sub = f.substitution()
    return tuple(s - y.substitute(sub) for s, y in zip(_matvec(f.matrix, X.components), Y.components))


def _congruence_residuals(f: AffineMap, T1, T2) -> tuple[tuple[Expr, ...], ...]:
    """Entries of M T1(z) M^T - T2(F(z)) for square entry matrices on the map's charts."""
    sub = f.substitution()
    return tuple(
        tuple(s - t.substitute(sub) for s, t in zip(srow, trow)) for srow, trow in zip(_congruence(f.matrix, T1), T2)
    )


def kv_map_residuals(f: AffineMap, h1: SymBivector, h2: SymBivector) -> tuple[tuple[Expr, ...], ...]:
    """Entries of M H1(x) M^T - H2(F(x)); F is a K-V map iff all vanish."""
    if h1.chart != f.source or h2.chart != f.target:
        raise ChartMismatch("K-V map check needs bivectors on the map's charts")
    return _congruence_residuals(f, h1.entries, h2.entries)


def is_kv_map(f: AffineMap, h1: SymBivector, h2: SymBivector) -> bool:
    return all(e.is_zero() for row in kv_map_residuals(f, h1, h2) for e in row)


def tangent_map(f: AffineMap) -> AffineMap:
    """TF on the tangent charts: (x, u) -> (Mx + c, Mu)."""
    tc1 = make_tangent_chart(f.source)
    tc2 = make_tangent_chart(f.target)
    m, n = f.target.dim, f.source.dim
    zero = Fraction(0)
    rows = []
    for i in range(m):
        rows.append(tuple(f.matrix[i]) + tuple(zero for _ in range(n)))
    for i in range(m):
        rows.append(tuple(zero for _ in range(n)) + tuple(f.matrix[i]))
    off = tuple(f.offset) + tuple(zero for _ in range(m))
    return AffineMap(tc1.chart, tc2.chart, tuple(rows), off)


def _sample_target_scalars(chart: Chart) -> list[ScalarField]:
    """Deterministic scalar fields used to probe Hamiltonian relatedness."""
    ys = [Expr.var(v) for v in chart.coords]
    fields = [Expr.const(1)]
    fields += ys
    fields += [ys[a] * ys[b] for a in range(len(ys)) for b in range(a, len(ys))]
    if ys:
        fields.append(sum((y ** 3 for y in ys[1:]), ys[0] ** 3))
    return [ScalarField(chart, e) for e in fields]


@dataclass(frozen=True)
class Theorem1Report:
    """The four K-V map characterizations, checked independently."""

    direct: bool  # matrix identity M H1 M^T = H2 o F
    tangent_poisson: bool  # TF is a Poisson map for the lifted bivectors
    sharp_related: bool  # (F* dy_j)^# related to (dy_j)^# for all j
    hamiltonian_related: bool  # X_{f o F} related to X_f for sampled f

    @property
    def agree(self) -> bool:
        return self.direct == self.tangent_poisson == self.sharp_related == self.hamiltonian_related


def theorem1_equivalences(f: AffineMap, h1: SymBivector, h2: SymBivector) -> Theorem1Report:
    direct = is_kv_map(f, h1, h2)

    pi1 = build_pi(h1)
    pi2 = build_pi(h2)
    tf = tangent_map(f)
    poisson = all(e.is_zero() for row in _congruence_residuals(tf, pi1.entries, pi2.entries) for e in row)

    related = True
    for j in range(f.target.dim):
        alpha = coordinate_form(f.target, j)
        X = sharp(h1, pullback(f, alpha))
        Y = sharp(h2, alpha)
        if not are_F_related(f, X, Y):
            related = False
            break

    ham = True
    sub = f.substitution()
    for g in _sample_target_scalars(f.target):
        gF = ScalarField(f.source, g.value.substitute(sub))
        if not are_F_related(f, hamiltonian(h1, gF), hamiltonian(h2, g)):
            ham = False
            break

    return Theorem1Report(direct, poisson, related, ham)


# --- products ----------------------------------------------------------------


@dataclass(frozen=True)
class ProductKV:
    bivector: SymBivector
    proj1: AffineMap
    proj2: AffineMap


def product_kv(h1: SymBivector, h2: SymBivector, sign: int = 1) -> ProductKV:
    """Block-diagonal bivector on the product chart; sign -1 flips the second factor."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c1, c2 = h1.chart, h2.chart
    taken = set(c1.coords)
    rename: dict[str, str] = {}
    coords2 = []
    for v in c2.coords:
        name = v
        while name in taken:
            name = name + "_2"
        taken.add(name)
        if name != v:
            rename[v] = name
        coords2.append(name)
    chart = Chart(f"{c1.name}x{c2.name}", c1.coords + tuple(coords2))
    sub = {old: Expr.var(new) for old, new in rename.items()}
    n1, n2 = c1.dim, c2.dim
    n = n1 + n2
    entries = [[ZERO for _ in range(n)] for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            entries[i][j] = h1.entries[i][j]
    for i in range(n2):
        for j in range(n2):
            e = h2.entries[i][j].substitute(sub) if sub else h2.entries[i][j]
            entries[n1 + i][n1 + j] = e if sign == 1 else -e
    h = SymBivector(chart, tuple(tuple(r) for r in entries))
    zero1 = tuple(Fraction(0) for _ in range(n1))
    zero2 = tuple(Fraction(0) for _ in range(n2))
    p1 = AffineMap(chart, c1, tuple(tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n1)), zero1)
    p2 = AffineMap(chart, c2, tuple(tuple(Fraction(1 if j == n1 + i else 0) for j in range(n)) for i in range(n2)), zero2)
    return ProductKV(h, p1, p2)


# --- affine submanifolds ------------------------------------------------------


@dataclass(frozen=True)
class AffineSubmanifold:
    """Affine subspace origin + span(basis) of an ambient chart; dim 0 is a point.

    The adapted frame is built once, here: the frame C has the basis vectors,
    then the standard vectors that complete them, as columns, and the change
    P = C^{-1} gives the adapted coordinates y = P(x - origin), in which N is
    {y_{k+1} = ... = y_n = 0}.  ``adapted(h)`` keeps each adapted bivector
    it builds, for as long as N lives.
    """

    ambient: Chart
    origin: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    frame: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False, compare=False)  # C
    change: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False, compare=False)  # P = C^{-1}
    # id(h) -> (h, adapted bivector); holding h keeps its id from being reused, and a
    # lookup by id hashes no entries
    _adapted: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ambient.dim
        origin = _frac_row(self.origin)
        basis = tuple(_frac_row(b) for b in self.basis)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "basis", basis)
        if len(origin) != n or any(len(b) != n for b in basis):
            raise ValueError(f"origin and basis vectors must have length {n}")
        frame = linalg.complete_frame(basis, n)
        if frame is None:
            raise DegenerateBasis("basis vectors are linearly dependent")
        object.__setattr__(self, "frame", frame[0])
        object.__setattr__(self, "change", frame[1])
        object.__setattr__(self, "_adapted", {})

    def adapted(self, h: SymBivector) -> SymBivector:
        """``to_adapted_bivector(self, h)``, built on the first call for h and kept for the later ones."""
        hit = self._adapted.get(id(h))
        if hit is None:
            hit = self._adapted[id(h)] = (h, to_adapted_bivector(self, h))
        return hit[1]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def adapted_chart(self) -> Chart:
        """The ambient chart in adapted coordinates y1..yn."""
        return Chart(f"{self.ambient.name}_ad", tuple(f"y{i + 1}" for i in range(self.ambient.dim)))

    @property
    def chart(self) -> Chart:
        """N's own chart: the tangent adapted coordinates y1..yk."""
        return Chart(f"{self.ambient.name}_ind", tuple(f"y{i + 1}" for i in range(self.dim)))

    @property
    def is_identity(self) -> bool:
        """The adapted coordinates are the ambient ones: C = I and the origin is 0."""
        return self.frame == linalg.identity(self.ambient.dim) and not any(self.origin)

    def parametrization(self) -> AffineMap:
        """x = C (y_1..y_k, 0) + origin, from N's chart to the ambient chart."""
        k = self.dim
        return AffineMap(self.chart, self.ambient, tuple(row[:k] for row in self.frame), self.origin)

    def parametrize(self, params: Sequence[Rational]) -> tuple[Fraction, ...]:
        return self.parametrization().apply(params)

    def parameters_of(self, point: Sequence[Rational]) -> tuple[Fraction, ...] | None:
        """y_1..y_k of y = P(x - origin), or None when the point is off N (some later y_i != 0)."""
        if len(point) != len(self.origin):
            raise ValueError(f"point {list(point)} must have length {len(self.origin)}")
        y = linalg.matvec(self.change, [Fraction(q) - o for q, o in zip(point, self.origin)])
        return None if any(y[self.dim:]) else y[:self.dim]


def _along_n(n_sub: AffineSubmanifold, T: Sequence[Sequence[Expr]]) -> list[list[Expr]]:
    """T(x(y)) for a symmetric T on the ambient chart, x(y) = C (y_1..y_k, 0) + o the parametrization of N:
    its entries i <= j in one ``substitute`` call."""
    n = len(T)
    sub = n_sub.parametrization().substitution()
    images = iter(substitute([T[i][j] for i in range(n) for j in range(i, n)], sub))
    return _symmetric(n, lambda i, j: next(images))  # the entries i <= j, in the order _symmetric asks for them


def to_adapted_bivector(n_sub: AffineSubmanifold, h: SymBivector) -> SymBivector:
    """h along N in adapted coordinates: P H(x(y)) P^T with x(y) = C (y_1..y_k, 0) + o.

    Restriction to N is the pullback along this parametrization, so the
    entries depend on y_1..y_k only.
    """
    if h.chart != n_sub.ambient:
        raise ChartMismatch("bivector does not live on the submanifold's ambient chart")
    adapted = _congruence(n_sub.change, _along_n(n_sub, h.entries), symmetric=True)
    return SymBivector(n_sub.adapted_chart, tuple(map(tuple, adapted)))


# --- K-V submanifolds ---------------------------------------------------------


@dataclass(frozen=True)
class SubmanifoldResult:
    ok: bool
    induced: SymBivector | None
    residuals: tuple[Expr, ...]  # conormal rows restricted to N; all zero iff ok


def is_kv_submanifold(n_sub: AffineSubmanifold, h: SymBivector) -> SubmanifoldResult:
    """N is K-V iff every conormal row of h vanishes on N (adapted coordinates)."""
    k, n = n_sub.dim, n_sub.ambient.dim
    if k == n and n_sub.is_identity:
        return SubmanifoldResult(True, h, ())
    hy = n_sub.adapted(h).entries
    residuals = tuple(e for row in hy[k:] for e in row)
    ok = all(e.is_zero() for e in residuals)
    induced = None
    if ok and k > 0:
        induced = SymBivector(n_sub.chart, tuple(row[:k] for row in hy[:k]))
    return SubmanifoldResult(ok, induced, residuals)


# --- K-V transversals ---------------------------------------------------------


SYMBOLIC_TRUE = "symbolic-true"
POINTWISE_TRUE = "pointwise-true"
FALSE = "false"


@dataclass(frozen=True)
class TransversalResult:
    """A transversality verdict, det D, and the block it builds when read.

    The verdict reads det D alone.  The bordered block det D (A - B D^{-1} B^T)
    is built from the adapted entries that the result keeps, on its first
    read, and kept from then on; ``induced`` divides it by det D on every read.
    """

    verdict: str  # SYMBOLIC_TRUE | POINTWISE_TRUE | FALSE
    determinant: Expr  # det of the conormal-conormal block restricted to N
    samples: tuple[tuple[tuple[Fraction, ...], bool], ...]  # (parameter point, nonsingular)
    # (the block's chart, adapted entries of h, k) the bordered block is built from; None when not transversal
    adapted: tuple[Chart, tuple[tuple[Expr, ...], ...], int] | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.verdict in (SYMBOLIC_TRUE, POINTWISE_TRUE)

    @cached_property
    def bordered(self) -> SymBivector | None:
        """det D times the induced structure, on N's chart: one Bareiss pass over [[D, B^T], [B, A]]."""
        if self.adapted is None:
            return None
        chart, hy, k = self.adapted
        # conormal rows and columns first
        _, trailing = expr_det([row[k:] + row[:k] for row in hy[k:] + hy[:k]], len(hy) - k)
        return SymBivector(chart, tuple(map(tuple, trailing)))

    @property
    def induced(self) -> SymBivector | None:
        """The induced structure A - B D^{-1} B^T: the bordered block divided by det D, on every read."""
        b = self.bordered
        if b is None:
            return None
        return SymBivector(b.chart, tuple(tuple(e / self.determinant for e in row) for row in b.entries))


def expr_det(mat: Sequence[Sequence[Expr]], m: int) -> tuple[Expr, list[list[Expr]] | None]:
    """Bareiss fraction-free elimination of the first m columns of a square matrix of Expr.

    Pivots are taken from the first m rows only.  Returns det L, where L is
    the leading m x m block, and the trailing block whose (i, j) entry is the
    bordered determinant of L with row m + i and column m + j appended.  Both
    are sign-corrected for row swaps.  Each row is first multiplied by the
    product of its distinct denominators, so an entry becomes its numerator
    times the others, and the pass runs over polynomials: each step is
    ``divexact`` by the previous pivot, exact by Sylvester's identity (Bareiss
    1968), with no gcd.  Each output is built once, at the end, over its rows'
    factors; only a rational one is normalized.  When L is singular the
    result is (ZERO, None).  A plain determinant is ``expr_det(mat, len(mat))[0]``.
    """
    row_dens = [list(dict.fromkeys(e.den for e in row if e.den is not _P_ONE)) for row in mat]
    rows = [[prod((d for d in dens if d != e.den), start=e.num) for e in row] for row, dens in zip(mat, row_dens)]
    size = len(rows)
    prev, negate = _P_ONE, False
    for c in range(m):
        piv = next((r for r in range(c, m) if not rows[r][c].is_zero()), None)
        if piv is None:
            return ZERO, None
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            negate = not negate
        p = rows[c][c]
        for r in range(c + 1, size):
            rows[r][c + 1:] = [_exact_quotient(p * rows[r][j] - rows[r][c] * rows[c][j], prev) for j in range(c + 1, size)]
        prev = p
    sign = -1 if negate else 1
    lead = prod((d for dens in row_dens[:m] for d in dens), start=_P_ONE)  # swaps stay within these rows
    dens = [prod(ds, start=lead) for ds in row_dens[m:]]
    return Expr(prev.scale(sign), lead), [[Expr(e.scale(sign), d) for e in row[m:]] for row, d in zip(rows[m:], dens)]


def _exact_quotient(x: Poly, d: Poly) -> Poly:
    """One Bareiss step: x / d over polynomials, exact by Sylvester's identity, else an inconsistency."""
    q = divexact(x, d)
    if q is None:
        raise EngineInconsistency(f"Bareiss step {Expr(x)} is not divisible by the previous pivot {Expr(d)}")
    return q


def is_transversal(
    n_sub: AffineSubmanifold,
    h: SymBivector,
    sample_points: Sequence[Sequence[Rational]] | None = None,
    samples: int = 8,
    seed: int = 42,
) -> TransversalResult:
    """Transversal iff the conormal-conormal block D is invertible along N.

    The verdict reads det D only, so ``expr_det`` eliminates D alone.  The
    induced structure is the Schur complement A - B D^{-1} B^T restricted to
    N, with rational-function entries.  By Sylvester's identity its (i, j)
    entry is det [[D, B_j^T], [B_i, A_ij]] / det D; the result keeps the
    adapted entries, and one Bareiss pass over [[D, B^T], [B, A]] builds
    these bordered determinants when ``bordered`` or ``induced`` is first
    read.  Points sampled for a pointwise verdict are distinct.
    """
    k, n = n_sub.dim, n_sub.ambient.dim
    given = None if sample_points is None else [n_sub.parameters_of(p) for p in sample_points]
    if given is not None and None in given:
        at = ", ".join(_rational_str(q) for q in sample_points[given.index(None)])
        raise PreconditionViolated(f"sample point ({at}) does not lie on the submanifold")
    if k == n and n_sub.is_identity:
        return TransversalResult(SYMBOLIC_TRUE, ONE, (), (h.chart, h.entries, n))
    hy = n_sub.adapted(h).entries
    det, _ = expr_det([row[k:] for row in hy[k:]], n - k)

    if det.is_zero():
        pts = given if given is not None else [tuple(Fraction(0) for _ in range(k))]
        return TransversalResult(FALSE, det, tuple((tuple(p), False) for p in pts))

    if det.is_const():
        verdict, sample_report = SYMBOLIC_TRUE, ()
    else:
        pts = given if given is not None else distinct_sample_points(Random(seed), k, samples)
        coords = n_sub.chart.coords
        sample_report = tuple((tuple(p), det.eval_at(dict(zip(coords, p))) != 0) for p in pts)
        verdict = POINTWISE_TRUE if all(ok for _, ok in sample_report) else FALSE

    return TransversalResult(verdict, det, sample_report, None if verdict == FALSE else (n_sub.chart, hy, k))


# --- coisotropic submanifolds and the conormal algebroid ----------------------


def coisotropy_residuals(n_sub: AffineSubmanifold, h: SymBivector) -> tuple[Expr, ...]:
    """The conormal-conormal block of h in adapted coordinates, restricted to N."""
    k = n_sub.dim
    return tuple(e for row in n_sub.adapted(h).entries[k:] for e in row[k:])


def is_coisotropic(n_sub: AffineSubmanifold, h: SymBivector) -> bool:
    """h_#(TN°) stays tangent to N iff the conormal-conormal block vanishes on N."""
    return all(e.is_zero() for e in coisotropy_residuals(n_sub, h))


@dataclass(frozen=True)
class ConormalAlgebroid:
    """Left-symmetric algebroid on the conormal bundle of a coisotropic submanifold.

    table[a][b][c] is the dy_{k+c} coefficient of dy_{k+a} • dy_{k+b}; the
    anchor rows are the tangent components of sharp on the conormal frame.
    """

    submanifold: AffineSubmanifold
    chart: Chart  # induced chart of N (tangent coordinates)
    table: tuple[tuple[tuple[Expr, ...], ...], ...]
    anchor: tuple[tuple[Expr, ...], ...]  # (n-k) x k
    left_symmetric_ok: bool
    fiber_point: tuple[Fraction, ...] | None  # parameters of the designated point
    anchor_vanishes_at_point: bool | None
    fiber_product: tuple[tuple[tuple[Fraction, ...], ...], ...] | None
    fiber_commutative: bool | None
    fiber_associative: bool | None

    @property
    def conormal_dim(self) -> int:
        return len(self.table)


def _algebroid_associator_residuals(
    chart: Chart,
    table: Sequence[Sequence[Sequence[Expr]]],
    anchor: Sequence[Sequence[Expr]],
) -> list[Expr]:
    """ass(a,b,g) - ass(b,a,g) componentwise for all basis triples."""
    m = len(table)

    def ass(a: int, b: int, g: int) -> list[Expr]:
        # (dy_a • dy_b) • dy_g is linear over functions in the first slot; dy_a • (dy_b • dy_g)
        # adds the anchor of dy_a applied to the coefficients of dy_b • dy_g (Leibniz rule)
        ab, bg = table[a][b], table[b][g]
        return [
            _dot(ab, [table[c][g][e] for c in range(m)])
            - _dot(bg, [table[a][c][e] for c in range(m)])
            - _dot(anchor[a], [bg[e].diff(v) for v in chart.coords])
            for e in range(m)
        ]

    residuals = []
    for a in range(m):
        for b in range(a + 1, m):
            for g in range(m):
                r1 = ass(a, b, g)
                r2 = ass(b, a, g)
                residuals.extend(p - q for p, q in zip(r1, r2))
    return residuals


def conormal_algebroid(
    n_sub: AffineSubmanifold,
    h: SymBivector,
    point: Sequence[Rational] | None = None,
) -> ConormalAlgebroid:
    """Product dy_a • dy_b = D_{dy_a} dy_b restricted to the conormal frame.

    In adapted coordinates the product of constant conormal coordinate forms is
    sum_j (d h_ab / d y_j) dy_j.  Since x = C y + o, d/dy_j is the derivative
    along the frame vector c_j (column j of C), so along N the derivative of
    the conormal block is P[k:] ((c_j . d)H)(x(y)) P[k:]^T.  Coisotropy makes
    the tangential part (j <= k) vanish on N, so the table collects the
    conormal coefficients (j > k).
    """
    k, n = n_sub.dim, n_sub.ambient.dim
    m = n - k
    hy = n_sub.adapted(h).entries
    if not all(e.is_zero() for row in hy[k:] for e in row[k:]):
        raise NotCoisotropic("submanifold is not coisotropic for this bivector")
    chart = n_sub.chart

    # (c_j . d)h_ii' for every frame vector c_j at once: C^T grad h_ii'
    Ct, x = linalg.transpose(n_sub.frame), n_sub.ambient.coords
    along = _symmetric(n, lambda i, i2: _matvec(Ct, [h.entries[i][i2].diff(v) for v in x]))
    blocks = [
        _congruence(n_sub.change[k:], _along_n(n_sub, [[e[j] for e in r] for r in along]), symmetric=True)
        for j in range(n)
    ]

    for a, b, j in product(range(m), range(m), range(k)):
        if not blocks[j][a][b].is_zero():
            raise ClosureFailure(f"conormal product left the conormal module at ({a + 1},{b + 1}) along y{j + 1}")
    table = tuple(tuple(tuple(blocks[k + c][a][b] for c in range(m)) for b in range(m)) for a in range(m))
    anchor = tuple(row[:k] for row in hy[k:])

    left_ok = all(e.is_zero() for e in _algebroid_associator_residuals(chart, table, anchor))

    fiber_params = None
    anchor_zero = None
    fiber_product = None
    fiber_comm = None
    fiber_assoc = None
    if m > 0:
        if point is None:
            fiber_params = tuple(Fraction(0) for _ in range(k))
        else:
            fiber_params = n_sub.parameters_of(point)
            if fiber_params is None:
                raise PreconditionViolated("designated point does not lie on the submanifold")
        env = dict(zip(chart.coords, fiber_params))
        anchor_zero = all(e.eval_at(env) == 0 for row in anchor for e in row)
        if anchor_zero:
            F = fiber_product = tuple(tuple(tuple(e.eval_at(env) for e in row) for row in plane) for plane in table)
            idx = range(m)
            fiber_comm = all(F[a][b][c] == F[b][a][c] for a, b, c in product(idx, repeat=3))
            fiber_assoc = all(
                sum(F[a][b][e] * F[e][c][d] for e in idx) == sum(F[b][c][e] * F[a][e][d] for e in idx)
                for a, b, c, d in product(idx, repeat=4)
            )
    return ConormalAlgebroid(
        n_sub,
        chart,
        table,
        anchor,
        left_ok,
        fiber_params,
        anchor_zero,
        fiber_product,
        fiber_comm,
        fiber_assoc,
    )


# --- graphs and preimages ------------------------------------------------------


@dataclass(frozen=True)
class GraphReport:
    product: ProductKV
    graph: AffineSubmanifold
    coisotropic: bool
    kv_map: bool

    @property
    def agree(self) -> bool:
        return self.coisotropic == self.kv_map


def graph_submanifold(f: AffineMap, product_chart: Chart) -> AffineSubmanifold:
    n, m = f.source.dim, f.target.dim
    origin = tuple(Fraction(0) for _ in range(n)) + tuple(f.offset)
    basis = []
    for i in range(n):
        e = tuple(Fraction(1 if j == i else 0) for j in range(n))
        col = tuple(f.matrix[r][i] for r in range(m))
        basis.append(e + col)
    return AffineSubmanifold(product_chart, origin, tuple(basis))


def graph_check(f: AffineMap, h1: SymBivector, h2: SymBivector) -> GraphReport:
    """Graph(F) is coisotropic in the sign-flipped product iff F is a K-V map."""
    prod = product_kv(h1, h2, sign=-1)
    graph = graph_submanifold(f, prod.bivector.chart)
    return GraphReport(prod, graph, is_coisotropic(graph, prod.bivector), is_kv_map(f, h1, h2))


def affine_preimage(f: AffineMap, n2: AffineSubmanifold) -> AffineSubmanifold | None:
    """F^{-1}(N2) as an affine subspace of the source chart, or None when empty."""
    if n2.ambient != f.target:
        raise ChartMismatch("submanifold must live on the map's target chart")
    W = n2.change[n2.dim:]  # N2's conormal rows: N2 = {x : W (x - o2) = 0}
    if not W:
        return AffineSubmanifold(
            f.source,
            tuple(Fraction(0) for _ in range(f.source.dim)),
            linalg.identity(f.source.dim),
        )
    WM = linalg.matmul(W, f.matrix)
    x0 = linalg.solve(WM, linalg.matvec(W, [o - c for o, c in zip(n2.origin, f.offset)]))
    if x0 is None:
        return None
    return AffineSubmanifold(f.source, x0, tuple(linalg.nullspace(WM, n_cols=f.source.dim)))


@dataclass(frozen=True)
class PreimageReport:
    preimage: AffineSubmanifold
    transversal_source: TransversalResult
    transversal_target: TransversalResult
    restriction: AffineMap | None
    residuals: tuple[Expr, ...]  # M B1 M^T (d2 o R) - (B2 o R) d1, entry by entry; all zero iff related

    @property
    def ok(self) -> bool:
        return (
            self.transversal_source.ok
            and self.transversal_target.ok
            and self.restriction is not None
            and all(e.is_zero() for e in self.residuals)
        )


def preimage_transversal(
    f: AffineMap,
    h1: SymBivector,
    h2: SymBivector,
    n2: AffineSubmanifold,
    samples: int = 6,
    seed: int = 42,
) -> PreimageReport:
    """Pull a transversal back along a K-V map and check the induced structures.

    With H = B / d for each transversal (det D and the bordered block), the
    restriction R with matrix M relates H1 to H2 iff every entry of
    M B1 M^T (d2 o R) - (B2 o R) d1 is zero: ring operations only, no
    division and no sampling.  ``samples`` and ``seed`` drive the two
    transversality verdicts alone.
    """
    if not is_kv_map(f, h1, h2):
        raise PreconditionViolated("the map is not a K-V map")
    t2 = is_transversal(n2, h2, samples=samples, seed=seed)
    if not t2.ok:
        raise PreconditionViolated("target submanifold is not a K-V transversal")

    # affine maps have constant differential: F is transverse to N2 iff F^{-1}(N2) is nonempty of codim m - k2
    k2 = n2.dim
    n1 = affine_preimage(f, n2)
    if n1 is None or n1.dim != f.source.dim - f.target.dim + k2:
        raise NotTransverse("map is not transverse to the target submanifold")
    t1 = is_transversal(n1, h1, samples=samples, seed=seed)
    if not t1.ok:
        return PreimageReport(n1, t1, t2, None, ())

    # restriction of F to N's coordinates: y2 = P2 (F(x1(y1)) - o2); F(N1) lies in N2, so its rows past k2 vanish
    to_y2 = AffineMap(n2.ambient, n2.adapted_chart, n2.change, tuple(-y for y in linalg.matvec(n2.change, n2.origin)))
    g = compose(to_y2, compose(f, n1.parametrization()))
    if any(g.offset[k2:]) or any(any(row) for row in g.matrix[k2:]):
        raise EngineInconsistency("the map does not send the preimage into the target submanifold")
    b1, b2 = t1.bordered, t2.bordered
    restriction = AffineMap(b1.chart, b2.chart, g.matrix[:k2], g.offset[:k2])

    sub = restriction.substitution()
    d1, d2 = t1.determinant, t2.determinant.substitute(sub)
    residuals = tuple(
        s * d2 - t.substitute(sub) * d1
        for srow, trow in zip(_congruence(restriction.matrix, b1.entries, symmetric=True), b2.entries)
        for s, t in zip(srow, trow)
    )
    return PreimageReport(n1, t1, t2, restriction, residuals)
