"""Exact linear algebra over the rationals (plain lists of Fractions)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO, _ONE = Fraction(0), Fraction(1)


def to_mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    if not a:
        return ()
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def matmul(a: Mat, b: Mat) -> Mat:
    if not a or not b:
        return ()
    n = len(b)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(len(b[0])))
        for i in range(len(a))
    )


def matvec(a: Mat, v: Sequence) -> Vec:
    """a v, each entry of v converted to a Fraction once and the zero entries of a skipped."""
    v = [Fraction(x) for x in v]
    return tuple(sum((c * x for c, x in zip(row, v) if c), Fraction(0)) for row in a)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column indices).

    A pivot row is divided only when its pivot is not 1, and subtracted only over its nonzero columns."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        prow = rows[r]
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for i in range(n_rows):
            row = rows[i]
            if i != r and (f := row[c]):
                for j, b in nonzero:
                    row[j] -= f * b
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(a: Sequence[Sequence]) -> int:
    rows = [list(map(Fraction, row)) for row in a]
    _, pivots = _rref(rows)
    return len(pivots)


def nullspace(a: Sequence[Sequence], n_cols: int | None = None) -> list[Vec]:
    """Basis of {x : a x = 0}; n_cols needed when a has no rows."""
    rows = [list(map(Fraction, row)) for row in a]
    if rows:
        n_cols = len(rows[0])
    if n_cols is None:
        raise ValueError("n_cols required for empty matrix")
    rows, pivots = _rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve(a: Sequence[Sequence], b: Sequence) -> Vec | None:
    """One solution of a x = b, or None when inconsistent."""
    rows = [list(map(Fraction, row)) + [Fraction(bb)] for row, bb in zip(a, b)]
    n_cols = len(a[0]) if a else 0
    rows, pivots = _rref(rows)
    if n_cols in pivots:
        return None  # pivot in the augmented column
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n_cols]
    return tuple(x)


def complete_frame(vectors: Sequence[Sequence], n: int) -> tuple[Mat, Mat] | None:
    """(C, C^{-1}), where C has the vectors, then standard vectors taken greedily in index order, as columns.

    None when the vectors are dependent.  One RREF of [V | I] gives both:
    its pivot columns are the columns of C, and the row operations that
    reduce them to I, read off its last n columns, are C^{-1}.
    """
    k = len(vectors)
    vt = [tuple(Fraction(v[i]) for v in vectors) for i in range(n)]  # the rows of V, each entry converted once
    rows, pivots = _rref([list(v + e) for v, e in zip(vt, identity(n))])
    if pivots[:k] != list(range(k)):
        return None
    C = tuple(vt[i] + tuple(_ONE if i == p - k else _ZERO for p in pivots[k:]) for i in range(n))
    return C, tuple(tuple(row[k:]) for row in rows)


def inverse(a: Sequence[Sequence]) -> Mat | None:
    frame = complete_frame(transpose(a), len(a))
    return None if frame is None else frame[1]
