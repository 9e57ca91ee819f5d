"""Commutative associative algebras with scalar 2-cocycles and their dual K-V structures.

The dual of such an algebra carries an affine symmetric bivector
h_ij = b_ij + sum_k C^k_ij x_k whose Codazzi defect vanishes identically;
validated algebras double as a generator of exact K-V corpus instances.
The cocycle condition used throughout is B(u.v, w) = B(u, v.w), which is
what makes sum_k h_ik C^k_jm symmetric in (i, j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import InvalidAlgebra, InvalidSubspace
from .geometry import Chart, SymBivector, _dot, _nz
from .structures import AffineSubmanifold
from .symexpr import Expr, Rational


@dataclass(frozen=True)
class AlgebraSpec:
    """Structure constants C^k_ij (e_i . e_j = sum_k C^k_ij e_k) and cocycle b_ij."""

    dim: int
    product: tuple[tuple[tuple[Fraction, ...], ...], ...]  # indexed [i][j][k]
    cocycle: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_sparse(
        cls,
        dim: int,
        product: Mapping[tuple[int, int, int], Rational] | None = None,
        cocycle: Mapping[tuple[int, int], Rational] | None = None,
    ) -> "AlgebraSpec":
        """Build from 0-based sparse entries; (i,j,k) and (j,i,k) are both set."""
        C = [[[Fraction(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), q in (product or {}).items():
            C[i][j][k] = Fraction(q)
            C[j][i][k] = Fraction(q)
        b = [[Fraction(0) for _ in range(dim)] for _ in range(dim)]
        for (i, j), q in (cocycle or {}).items():
            b[i][j] = Fraction(q)
            b[j][i] = Fraction(q)
        return cls(dim, tuple(tuple(tuple(r) for r in p) for p in C), tuple(tuple(r) for r in b))

    def multiply(self, u: Sequence[Rational], v: Sequence[Rational]) -> tuple[Fraction, ...]:
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if not u[i]:
                continue
            for j in range(n):
                if not v[j]:
                    continue
                for k in range(n):
                    out[k] += Fraction(u[i]) * Fraction(v[j]) * self.product[i][j][k]
        return tuple(out)


@dataclass(frozen=True)
class AlgebraReport:
    commutative: bool
    associative: bool
    cocycle_symmetric: bool
    cocycle_ok: bool
    witness: tuple[int, ...] | None  # 1-based indices of the first violated law

    @property
    def valid(self) -> bool:
        return self.commutative and self.associative and self.cocycle_symmetric and self.cocycle_ok

    @property
    def violation(self) -> str:
        """The first violated law and its witness; read only when the algebra is not valid."""
        laws = (self.commutative, self.associative, self.cocycle_symmetric, self.cocycle_ok)
        law = ("commutativity", "associativity", "cocycle symmetry", "cocycle law")[laws.index(False)]
        return f"{law} fails at basis indices {self.witness}"


def validate_algebra(a: AlgebraSpec) -> AlgebraReport:
    """Exact verdicts for commutativity, associativity and the cocycle law."""
    n = a.dim
    C = a.product
    b = a.cocycle
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if C[i][j][k] != C[j][i][k]:
                    return AlgebraReport(False, False, False, False, (i + 1, j + 1, k + 1))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = sum((C[i][j][m] * C[m][k][l] for m in range(n)), Fraction(0))
                    rhs = sum((C[j][k][m] * C[i][m][l] for m in range(n)), Fraction(0))
                    if lhs != rhs:
                        return AlgebraReport(True, False, True, True, (i + 1, j + 1, k + 1))
    for i in range(n):
        for j in range(i + 1, n):
            if b[i][j] != b[j][i]:
                return AlgebraReport(True, True, False, False, (i + 1, j + 1))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum((C[i][j][m] * b[m][k] for m in range(n)), Fraction(0))
                rhs = sum((C[j][k][m] * b[i][m] for m in range(n)), Fraction(0))
                if lhs != rhs:
                    return AlgebraReport(True, True, True, False, (i + 1, j + 1, k + 1))
    return AlgebraReport(True, True, True, True, None)


def dual_chart(a: AlgebraSpec, name: str = "dual") -> Chart:
    return Chart(name, tuple(f"x{i + 1}" for i in range(a.dim)))


def algebra_to_kv(a: AlgebraSpec, chart: Chart | None = None) -> SymBivector:
    """Affine K-V bivector on the dual chart: h_ij = b_ij + sum_k C^k_ij x_k."""
    report = validate_algebra(a)
    if not report.valid:
        raise InvalidAlgebra(report.violation)
    chart = chart if chart is not None else dual_chart(a)
    if chart.dim != a.dim:
        raise InvalidAlgebra("chart dimension does not match the algebra")
    xs = _nz([Expr.var(v) for v in chart.coords])
    return SymBivector(chart, tuple(
        tuple(Expr.const(b) + _dot({l: Expr.const(c) for l, c in enumerate(C) if c}, xs) for b, C in zip(brow, Crow))
        for brow, Crow in zip(a.cocycle, a.product)
    ))


@dataclass(frozen=True)
class SubspaceSpec:
    algebra: AlgebraSpec
    basis: tuple[tuple[Fraction, ...], ...]
    kind: str  # "subalgebra" | "ideal"

    def __post_init__(self):
        if self.kind not in ("subalgebra", "ideal"):
            raise ValueError("kind must be 'subalgebra' or 'ideal'")
        object.__setattr__(self, "basis", linalg.to_mat(self.basis))


def validate_subspace(s: SubspaceSpec) -> bool:
    """Exact closure check: subalgebras absorb their own products, ideals all of them."""
    a = s.algebra
    n = a.dim
    rows = [list(v) for v in s.basis]
    if linalg.rank(rows) != len(rows):
        return False

    def in_span(v):
        return linalg.solve(linalg.transpose(linalg.to_mat(rows)), v) is not None if rows else all(x == 0 for x in v)

    gens = list(s.basis)
    others = gens if s.kind == "subalgebra" else [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    for u in gens:
        for v in others:
            if not in_span(a.multiply(u, v)):
                return False
    return True


def annihilator_submanifold(s: SubspaceSpec, chart: Chart | None = None) -> AffineSubmanifold:
    """S° = {alpha : alpha|_S = 0} as an affine subspace of the dual chart through 0."""
    if not validate_subspace(s):
        raise InvalidSubspace(f"basis does not span {'an' if s.kind == 'ideal' else 'a'} {s.kind}")
    a = s.algebra
    chart = chart if chart is not None else dual_chart(a)
    if chart.dim != a.dim:
        raise InvalidSubspace("chart dimension does not match the algebra")
    basis = linalg.nullspace([list(v) for v in s.basis], n_cols=a.dim)
    origin = tuple(Fraction(0) for _ in range(a.dim))
    return AffineSubmanifold(chart, origin, tuple(basis))
