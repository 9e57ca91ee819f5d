"""Exact elimination against an independent Fraction route, at fixed seeds.

``expr_det`` is compared at random rational points with Leibniz
determinants of the evaluated matrix: the leading block's, and every
bordered one of its trailing block.  The induced structure of
``is_transversal`` is compared with ``A - B D^{-1} B^T`` built from ``linalg.inverse``
at the same point.  The inputs mix polynomial and rational-function
entries, and zero entries, so leading pivots vanish and rows are swapped.
A verdict eliminates the conormal block alone; the bordered pass runs once,
when the block is first read, and gives what the one eager pass gave.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_bivector, random_point, random_poly
from kvgeom import linalg
from kvgeom.geometry import Chart, SymBivector
from kvgeom.structures import FALSE, POINTWISE_TRUE, AffineSubmanifold, expr_det, is_transversal
from kvgeom.symexpr import Expr

ZERO = Expr.const(0)


def leibniz_det(mat) -> Fraction:
    m = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[a] > perm[b] for a in range(m) for b in range(a + 1, m))
        term = Fraction(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term *= mat[r][c]
        total += term
    return total


def random_entry(rng: random.Random, coords, rational: bool = True) -> Expr:
    """Zero a third of the time, else a polynomial or, less often, a rational function.

    Denominators are v^2 + c with c > 0, which vanish at no rational point, so
    every entry can be evaluated anywhere and restricted to any affine subspace.
    """
    roll = rng.random()
    if roll < 1 / 3:
        return ZERO
    if roll < 0.8 or not rational:
        return random_poly(rng, coords, 2, terms=3)
    return random_poly(rng, coords, 1, terms=2) / (Expr.var(rng.choice(coords)) ** 2 + rng.randint(1, 3))


def evaluated(rows, env):
    return [[e.eval_at(env) for e in row] for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_expr_det_matches_fraction_determinant(seed):
    """expr_det(mat, m): det of the leading m x m block L, and the trailing k x k
    block whose (i, j) entry is det [[L, column m + j], [row m + i, entry]]."""
    rng = random.Random(seed)
    coords = ("x", "y")
    swaps = singular = 0
    for m in range(4):
        for k in range(3):
            for _ in range(3):
                size = m + k
                # rational entries up to size 3: each output is normalized once, by one gcd in two variables
                mat = [[random_entry(rng, coords, rational=size <= 3) for _ in range(size)] for _ in range(size)]
                if m >= 2 and rng.random() < 0.3:  # a multiple of another leading row: L is singular
                    a, b = rng.sample(range(m), 2)
                    mat[a] = [e * rng.choice((2, -1, Fraction(1, 3))) for e in mat[b]]
                swaps += m > 1 and mat[0][0].is_zero()
                det, trailing = expr_det(mat, m)
                assert (trailing is None) == det.is_zero()
                singular += trailing is None
                assert trailing is None or [len(row) for row in trailing] == [k] * k
                for _ in range(3):
                    env = dict(zip(coords, random_point(rng, len(coords))))
                    F = evaluated(mat, env)
                    assert det.eval_at(env) == leibniz_det([row[:m] for row in F[:m]])
                    if trailing is None:
                        continue
                    for i, j in itertools.product(range(k), repeat=2):
                        bordered = [row[:m] + [row[m + j]] for row in F[:m]] + [F[m + i][:m] + [F[m + i][m + j]]]
                        assert trailing[i][j].eval_at(env) == leibniz_det(bordered)
    assert swaps > 0 and singular > 0


@pytest.mark.parametrize("m", (1, 2, 3))
def test_expr_det_builds_its_outputs_only(monkeypatch, m):
    """Rows are cleared of their denominators and eliminated as polynomials: the
    only expressions built are det L and the k x k trailing entries."""
    x, y = Expr.var("x"), Expr.var("y")
    mat = [
        [x + 1, y / (x * x + 1), 2 * x * y],
        [1 / (y * y + 2), x - y, (x + y) / (x * x + 1)],
        [y * y, x / (y * y + 2), 3 + x / (x * x + 1)],
    ]
    built = []
    real = Expr.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(Expr, "__init__", counted)
    det, trailing = expr_det(mat, m)
    monkeypatch.undo()
    assert not det.is_zero() and [len(row) for row in trailing] == [3 - m] * (3 - m)
    assert len(built) == 1 + (3 - m) ** 2


def adapted_blocks_at(sub: AffineSubmanifold, h: SymBivector, params):
    """A, B, D of P H(x) P^T at x = C (params, 0) + origin, in Fractions."""
    k = sub.dim
    x = [o + sum(t * sub.frame[i][a] for a, t in enumerate(params)) for i, o in enumerate(sub.origin)]
    P = sub.change
    M = linalg.matmul(linalg.matmul(P, evaluated(h.entries, dict(zip(h.chart.coords, x)))), linalg.transpose(P))
    return [r[:k] for r in M[:k]], [r[k:] for r in M[:k]], [r[k:] for r in M[k:]]


def random_submanifold(rng: random.Random, chart: Chart, k: int) -> AffineSubmanifold:
    n = chart.dim
    if rng.random() < 0.5:  # a coordinate plane through the origin: the adapted frame is the identity
        basis = [[int(i == a) for i in range(n)] for a in range(k)]
        return AffineSubmanifold(chart, (0,) * n, basis)
    while True:
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        if linalg.rank(basis) == k:
            return AffineSubmanifold(chart, random_point(rng, n), basis)


def check_transversal(rng: random.Random, n_sub: AffineSubmanifold, h: SymBivector) -> str:
    res = is_transversal(n_sub, h)
    k = n_sub.dim
    # coordinates of the induced chart; when N is the whole chart in its own coordinates, h is returned as is
    coords = res.induced.chart.coords if res.induced is not None else n_sub.adapted_chart.coords[:k]
    if res.verdict == FALSE:
        assert res.induced is None
        assert res.determinant.is_zero() or not all(ok for _, ok in res.samples)
    else:
        assert len(res.induced.entries) == k and all(len(row) == k for row in res.induced.entries)
    for _ in range(3):
        params = random_point(rng, k)
        A, B, D = adapted_blocks_at(n_sub, h, params)
        env = dict(zip(coords, params))
        det = res.determinant.eval_at(env)
        assert det == leibniz_det(D)
        if res.induced is not None and det != 0:
            Dinv = linalg.inverse(D)
            m = len(D)
            want = [
                [A[i][j] - sum(B[i][a] * Dinv[a][b] * B[j][b] for a in range(m) for b in range(m)) for j in range(k)]
                for i in range(k)
            ]
            assert evaluated(res.induced.entries, env) == want
    return res.verdict


@pytest.mark.parametrize("seed", range(8))
def test_transversal_induced_matches_fraction_schur_complement(seed):
    rng = random.Random(1000 + seed)
    verdicts = set()
    for n in (1, 2, 3):
        chart = Chart(f"R{n}", tuple(f"x{i + 1}" for i in range(n)))
        for k in range(n + 1):  # k = 0 is a point, k = n leaves an empty conormal block
            # rational entries only up to n = 2: on a generic plane of R3 the final
            # division's poly_gcd can run for minutes
            entries = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    entries[i][j] = entries[j][i] = random_entry(rng, chart.coords, rational=n <= 2)
            h = SymBivector(chart, tuple(map(tuple, entries)))
            verdicts.add(check_transversal(rng, random_submanifold(rng, chart, k), h))
    assert len(verdicts) >= 2


def test_transversal_singular_and_swapped_blocks():
    R3 = Chart("R3", ("x1", "x2", "x3"))
    x1, x2, x3 = (Expr.var(c) for c in R3.coords)
    y1 = Expr.var("y1")
    line = AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0),))
    rng = random.Random(7)
    # D = [[0, x1 + 1], [x1 + 1, x3]]: a zero leading pivot, so the determinant swaps rows
    h = SymBivector(R3, ((x1 * x1, x2, 1 / (x1 * x1 + 2)), (x2, ZERO, x1 + 1), (1 / (x1 * x1 + 2), x1 + 1, x3)))
    assert check_transversal(rng, line, h) != FALSE
    assert is_transversal(line, h).determinant == -((y1 + 1) ** 2)
    # D = [[x1, 2 x1], [2 x1, 4 x1]]: singular as a rational-function matrix
    h = SymBivector(R3, ((x1, x2, x3), (x2, x1, 2 * x1), (x3, 2 * x1, 4 * x1)))
    res = is_transversal(line, h)
    assert res.verdict == FALSE and res.determinant.is_zero() and res.induced is None
    check_transversal(rng, line, h)


def test_a_pointwise_verdict_eliminates_the_conormal_block_alone(builds):
    R4 = Chart("R4", ("x1", "x2", "x3", "x4"))
    line = AffineSubmanifold(R4, (1, -1, 1, 1), ((1, 0, 0, 0),))
    rng = random.Random(17)
    for _ in range(200):
        builds.det.clear()
        res = is_transversal(line, random_bivector(rng, R4))
        if res.verdict == POINTWISE_TRUE:
            break
    else:
        pytest.fail("no pointwise-true verdict in 200 random bivectors")
    assert builds.det == [(3, 3)]  # det D of the 3 x 3 conormal block, nothing more
    block = res.bordered
    assert builds.det == [(3, 3), (4, 3)] and len(block.entries) == 1


@pytest.mark.parametrize("seed", range(4))
def test_the_bordered_block_is_built_once_and_equals_the_eager_pass(builds, seed):
    rng = random.Random(2000 + seed)
    read = 0
    for n in (1, 2, 3):
        chart = Chart(f"R{n}", tuple(f"x{i + 1}" for i in range(n)))
        for k in range(n + 1):
            entries = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    entries[i][j] = entries[j][i] = random_entry(rng, chart.coords, rational=n <= 2)
            h = SymBivector(chart, tuple(map(tuple, entries)))
            n_sub = random_submanifold(rng, chart, k)
            res = is_transversal(n_sub, h)
            builds.det.clear()
            first, second = res.bordered, res.bordered
            if res.verdict == FALSE:
                assert first is None and not builds.det
                continue
            assert second is first
            read += 1
            if k == n and n_sub.is_identity:
                # N is the whole chart in its own coordinates: the block is h, with no pass
                assert first is h and not builds.det
                continue
            assert builds.det == [(n, n - k)]
            # the pass the verdict used to make: [[D, B^T], [B, A]] with the conormal rows first
            hy = n_sub.along(h).adapted.entries
            det, trailing = expr_det([row[k:] + row[:k] for row in hy[k:] + hy[:k]], n - k)
            assert det == res.determinant
            assert first == SymBivector(n_sub.chart, tuple(map(tuple, trailing)))
    assert read >= 4
