"""The adapted frame an affine submanifold carries: completion, inverse, chart changes, restriction of maps."""

import random
from fractions import Fraction as Fr

import pytest

import kvgeom.structures
from conftest import random_point
from kvgeom import linalg
from kvgeom.errors import DegenerateBasis, EngineInconsistency, PreconditionViolated
from kvgeom.geometry import Chart, SymBivector
from kvgeom.dsl import parse_expr
from kvgeom.structures import AffineMap, AffineSubmanifold, affine_preimage, preimage_transversal, to_adapted_bivector
from kvgeom.symexpr import Expr


def chart(name: str, n: int) -> Chart:
    return Chart(name, tuple(f"{name.lower()}{i + 1}" for i in range(n)))


def constant(ch: Chart, H) -> SymBivector:
    return SymBivector(ch, tuple(tuple(Expr.const(c) for c in row) for row in H))


def greedy_frame(basis, n: int):
    """The completion by rank tests: add e_j, in index order, whenever it raises the rank; C has the columns."""
    cols = [list(b) for b in basis]
    for j in range(n):
        if len(cols) == n:
            break
        e = [Fr(int(i == j)) for i in range(n)]
        if linalg.rank(cols + [e]) > len(cols):
            cols.append(e)
    return linalg.transpose(linalg.to_mat(cols))


def random_basis(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """k independent vectors of Z^n, about a third of them standard vectors."""
    while True:
        basis = [
            [int(i == j) for i in range(n)] if rng.random() < 0.35 else [rng.randint(-2, 2) for _ in range(n)]
            for j in (rng.randrange(n) for _ in range(k))
        ]
        if linalg.rank(basis) == k:
            return basis


def test_frame_is_the_greedy_completion_and_its_inverse():
    rng = random.Random(11)
    spans_with_standard_vectors = 0
    for n in range(1, 6):
        R = chart("R", n)
        for k in range(n + 1):
            for _ in range(6):
                basis = random_basis(rng, n, k)
                n_sub = AffineSubmanifold(R, random_point(rng, n), basis)
                C, P = n_sub.frame, n_sub.change
                assert C == greedy_frame(basis, n)
                assert P == linalg.inverse(C)
                assert linalg.matmul(P, C) == linalg.identity(n)
                if any(linalg.rank(basis + [[int(i == j) for i in range(n)]]) == k for j in range(n)):
                    spans_with_standard_vectors += 1
                for _ in range(3):
                    t = random_point(rng, k)
                    x = n_sub.parametrize(t)
                    assert n_sub.parameters_of(x) == t
                    if k < n:  # the first completion vector leaves N
                        off = tuple(a + c for a, c in zip(x, (row[k] for row in C)))
                        assert n_sub.parameters_of(off) is None
    assert spans_with_standard_vectors > 20


def test_frame_charts_and_parametrization():
    R = chart("R", 3)
    plane = AffineSubmanifold(R, (1, 0, 2), ((0, 1, 1), (1, 0, 0)))
    assert plane.adapted_chart == Chart("R_ad", ("y1", "y2", "y3"))
    assert plane.chart == Chart("R_ind", ("y1", "y2"))
    x = plane.parametrization()
    assert (x.source, x.target) == (plane.chart, R)
    assert x.apply((2, 3)) == (Fr(4), Fr(2), Fr(4))
    assert not plane.is_identity
    assert AffineSubmanifold(R, (0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1))).is_identity
    assert not AffineSubmanifold(R, (0, 0, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1))).is_identity
    point = AffineSubmanifold(R, (1, 2, 3), ())
    assert point.frame == linalg.identity(3) and point.parametrize(()) == (1, 2, 3)
    assert point.parameters_of((1, 2, 3)) == () and point.parameters_of((1, 2, 4)) is None


@pytest.mark.parametrize(
    "basis",
    [
        ((1, 1), (2, 2)),  # parallel
        ((0, 0),),  # zero vector
        ((1, 0), (0, 1), (1, 1)),  # k > n
    ],
)
def test_dependent_bases_raise(basis):
    with pytest.raises(DegenerateBasis):
        AffineSubmanifold(chart("R", 2), (0, 0), basis)


def test_dependent_bases_raise_in_higher_dimensions():
    rng = random.Random(12)
    for n in range(1, 6):
        for k in range(1, n + 2):
            basis = random_basis(rng, n, k - 1) if k <= n else random_basis(rng, n, n)
            coefficients = [rng.randint(-2, 2) for _ in basis]
            extra = [sum(c * b[i] for c, b in zip(coefficients, basis)) for i in range(n)]
            with pytest.raises(DegenerateBasis):
                AffineSubmanifold(chart("R", n), (0,) * n, basis + [extra])


def test_points_and_parameters_of_the_wrong_length_raise():
    P = chart("P", 2)
    diag = AffineSubmanifold(P, (0, 0), ((1, 1),))
    with pytest.raises(ValueError, match="length 1"):
        diag.parametrize((1, 2))
    with pytest.raises(ValueError, match="length 1"):
        diag.parametrize(())
    ident = AffineMap.identity(P)
    for wrong in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="length 2"):
            ident.apply(wrong)
    assert diag.parametrize((3,)) == (3, 3) and ident.apply((1, 2)) == (1, 2)


def solve_route(f: AffineMap, n1: AffineSubmanifold, n2: AffineSubmanifold):
    """The restriction of F in the basis coordinates of N1 and N2, by solving B2 t = F(...) - o2 column by column."""
    k2 = n2.dim
    cols2 = linalg.transpose(n2.basis) if k2 else ()
    offset = linalg.solve(cols2, [a - b for a, b in zip(f.apply(n1.origin), n2.origin)]) if k2 else ()
    columns = [linalg.solve(cols2, linalg.matvec(f.matrix, b)) if k2 else () for b in n1.basis]
    assert offset is not None and None not in columns
    matrix = linalg.transpose(linalg.to_mat(columns)) if columns else tuple(() for _ in range(k2))
    return matrix, offset


def random_kv_pair(rng: random.Random, n: int, m: int):
    """A surjective affine F: R^n -> R^m, a constant H2 and H1 = R H2 R^T with M R = I, so M H1 M^T = H2."""
    S, T = chart("S", n), chart("T", m)
    while True:
        M = linalg.to_mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
        if linalg.rank(M) == m:
            break
    R = linalg.matmul(linalg.transpose(M), linalg.inverse(linalg.matmul(M, linalg.transpose(M))))
    H2 = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            H2[i][j] = H2[j][i] = Fr(rng.randint(-3, 3))
    H1 = linalg.matmul(linalg.matmul(R, linalg.to_mat(H2)), linalg.transpose(R))
    f = AffineMap(S, T, M, random_point(rng, m))
    return f, constant(S, H1), constant(T, H2)


def test_preimage_restriction_matches_the_solve_route():
    rng = random.Random(13)
    compared = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(1, n)
        f, h1, h2 = random_kv_pair(rng, n, m)
        k2 = rng.randint(0, m - 1)
        n2 = AffineSubmanifold(f.target, random_point(rng, m), random_basis(rng, m, k2))
        try:
            rep = preimage_transversal(f, h1, h2, n2, samples=2)
        except PreconditionViolated:  # N2 is not a transversal for this H2
            continue
        if rep.restriction is None:  # the preimage is not a transversal for H1
            continue
        assert (rep.restriction.matrix, rep.restriction.offset) == solve_route(f, rep.preimage, n2)
        assert rep.ok
        compared += 1
    assert compared >= 15


def test_a_preimage_off_the_target_submanifold_is_an_engine_inconsistency(monkeypatch):
    P = chart("P", 2)
    h = constant(P, ((1, 0), (0, 1)))
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    f = AffineMap.identity(P)
    assert affine_preimage(f, axis) == axis and preimage_transversal(f, h, h, axis).ok
    off_axis = AffineSubmanifold(P, (0, 1), ((1, 0),))  # F sends it to the line y = 1, off the axis
    monkeypatch.setattr(kvgeom.structures, "affine_preimage", lambda f, n2: off_axis)
    with pytest.raises(EngineInconsistency, match="does not send the preimage into the target"):
        preimage_transversal(f, h, h, axis)


@pytest.mark.parametrize(
    "basis",
    [
        [[Fr(1, 2), Fr(1), Fr(-2, 3)]],
        [[Fr(1, 2), Fr(1), Fr(-2, 3)], [Fr(0), Fr(3, 4), Fr(1)]],
        [[Fr(0), Fr(1), Fr(0)]],
    ],
)
def test_the_pullback_along_n_is_substitute_entry_by_entry(basis):
    """One substitution call for the whole matrix: entries of degrees 0 to 3 in r1, one rational entry, and a
    rational origin and basis; then P H(x(y)) P^T against Expr arithmetic over every (i, j)."""
    R = chart("R", 3)
    rows = [["r1^3*r2 + r1", "r1^2 - 1", "(r1 + 1)/(r2^2 + 2)"], ["r1^2 - 1", "r3", "5"], ["(r1 + 1)/(r2^2 + 2)", "5", "r1*r3"]]
    h = SymBivector(R, tuple(tuple(parse_expr(e) for e in row) for row in rows))
    n_sub = AffineSubmanifold(R, (Fr(1, 2), Fr(-1, 3), Fr(2, 5)), basis)
    sub = n_sub.parametrization().substitution()
    pulled = [[e.substitute(sub) for e in row] for row in h.entries]
    assert kvgeom.structures._pulled(n_sub.parametrization(), h.entries) == pulled
    P = n_sub.change
    want = [
        [sum((Expr.const(P[a][i] * P[b][j]) * pulled[i][j] for i in range(3) for j in range(3)), Expr.const(0)) for b in range(3)]
        for a in range(3)
    ]
    assert [list(row) for row in to_adapted_bivector(n_sub.along(h)).entries] == want
