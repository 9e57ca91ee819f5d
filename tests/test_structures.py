"""Maps and submanifolds: K-V maps, induced structures, coisotropy, graphs, preimages."""

import gc
import random
import weakref
from fractions import Fraction as Fr

import pytest

from conftest import (
    bivector_with_a_rational_entry,
    conormal_check,
    random_bivector,
    random_field,
    random_oneform,
    random_point,
    random_poly,
    ref_components,
    ref_kv_map_residual,
    theorem1_routes,
)
import kvgeom.symexpr
from kvgeom import linalg
from kvgeom.errors import (
    ChartMismatch,
    DegenerateBasis,
    NotCoisotropic,
    NotTransverse,
    PreconditionViolated,
)
from kvgeom.geometry import (
    Chart,
    OneForm,
    ScalarField,
    SymBivector,
    VectorField,
    coordinate_form,
    hamiltonian,
    is_kv,
    rank_at,
)
from kvgeom.structures import (
    FALSE,
    POINTWISE_TRUE,
    SYMBOLIC_TRUE,
    AffineMap,
    AffineSubmanifold,
    affine_preimage,
    compose,
    conormal_algebroid,
    expr_det,
    graph_check,
    is_coisotropic,
    is_kv_map,
    is_kv_submanifold,
    is_transversal,
    kv_map_residuals,
    preimage_transversal,
    product_kv,
    pullback,
    relatedness_residuals,
    to_adapted_bivector,
)
from kvgeom.symexpr import Expr, distinct_sample_points, sample_point

X_ = Expr.var("x")
Y_ = Expr.var("y")
L = Chart("L", ("t",))
P = Chart("P", ("x", "y"))
H1 = SymBivector(L, ((Expr.var("t") ** 2,),))
H2 = SymBivector.diagonal(P, [X_ ** 2, Y_ ** 2])


def embedding(lam, mu):
    return AffineMap(L, P, ((Fr(lam),), (Fr(mu),)), (Fr(0), Fr(0)))


def test_pullback_and_relatedness_basics():
    ident = AffineMap.identity(P)
    alpha = OneForm(P, (X_ * Y_, Y_))
    assert pullback(ident, alpha) == alpha
    X = VectorField(P, (X_, Y_ ** 2))
    assert all(r.is_zero() for r in relatedness_residuals(ident, X, X))
    incl = AffineMap(L, P, ((Fr(1),), (Fr(0),)), (Fr(0), Fr(0)))
    dy = coordinate_form(P, 1)
    assert all(c.is_zero() for c in pullback(incl, dy).components)


def test_relatedness_needs_fields_on_the_source_and_target_charts():
    t = Expr.var("t")
    incl = embedding(1, 2)
    X, Y = VectorField(L, (t,)), VectorField(P, (X_, Y_))
    assert relatedness_residuals(incl, X, Y) == (t - t, 2 * t - 2 * t)
    for a, b in ((Y, Y), (X, X), (Y, X)):
        with pytest.raises(ChartMismatch):
            relatedness_residuals(incl, a, b)


def _matmul(a, b, rows: int, cols: int):
    """linalg.matmul, or the rows x cols zero matrix when a dimension is 0 and it returns ()."""
    return linalg.matmul(a, b) or tuple((Fr(0),) * cols for _ in range(rows))


def _column(v):
    return tuple((x,) for x in v)


def _at(rows, env):
    return tuple(tuple(e.eval_at(env) for e in row) for row in rows)


@pytest.mark.parametrize("n, m", [(0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)])
def test_products_and_congruences_match_linalg(n, m):
    """pullback, relatedness and K-V map residuals of a random m x n map, at points, by linalg."""
    rng = random.Random(10 * n + m)
    S = Chart("S", tuple(f"s{i + 1}" for i in range(n)))
    T = Chart("T", tuple(f"t{i + 1}" for i in range(m)))
    for _ in range(3):
        M = linalg.to_mat([[rng.choice((0, 0, 1, -2, Fr(1, 3), Fr(5, 2))) for _ in range(n)] for _ in range(m)])
        f = AffineMap(S, T, M, random_point(rng, m))
        alpha, X, Y = random_oneform(rng, T), random_field(rng, S), random_field(rng, T)
        h1, h2 = random_bivector(rng, S), random_bivector(rng, T)
        pulled = pullback(f, alpha).components
        related = relatedness_residuals(f, X, Y)
        kv = kv_map_residuals(f, h1, h2)
        Mt = tuple(tuple(row[i] for row in M) for i in range(n))
        for _ in range(3):
            p = random_point(rng, n)
            env, env_t = dict(zip(S.coords, p)), dict(zip(T.coords, f.apply(p)))
            a_F = _column(e.eval_at(env_t) for e in alpha.components)
            assert _column(e.eval_at(env) for e in pulled) == _matmul(Mt, a_F, n, 1)
            MX = _matmul(M, _column(e.eval_at(env) for e in X.components), m, 1)
            assert tuple(e.eval_at(env) for e in related) == tuple(
                a[0] - e.eval_at(env_t) for a, e in zip(MX, Y.components)
            )
            MHMt = _matmul(_matmul(M, _at(h1.entries, env), m, n), Mt, m, m)
            H2F = _at(h2.entries, env_t)
            assert _at(kv, env) == tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(MHMt, H2F))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_to_adapted_bivector_matches_linalg(n):
    """P H(C y + o) P^T at points y of N (y_{k+1} = ... = y_n = 0), for random affine submanifolds of all dimensions."""
    rng = random.Random(n)
    chart = Chart("R", tuple(f"x{i + 1}" for i in range(n)))
    for k in range(n + 1):
        while True:
            basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            if linalg.rank(basis) == k:
                break
        n_sub = AffineSubmanifold(chart, random_point(rng, n), basis)
        h = random_bivector(rng, chart)
        hy = to_adapted_bivector(n_sub.along(h))
        C, P_ = n_sub.frame, n_sub.change
        for _ in range(3):
            y = random_point(rng, k) + (Fr(0),) * (n - k)
            x = tuple(a + o for a, o in zip(linalg.matvec(C, y), n_sub.origin))
            H = _at(h.entries, dict(zip(chart.coords, x)))
            want = linalg.matmul(linalg.matmul(P_, H), linalg.transpose(P_))
            assert _at(hy.entries, dict(zip(n_sub.adapted_chart.coords, y))) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_conormal_block_is_the_trailing_block_of_the_adapted_bivector(n):
    """D, built alone from the conormal rows P[k:] and the columns where they are nonzero, equals the trailing
    (n-k) x (n-k) block of ``to_adapted_bivector`` entry by entry, and N keeps it.

    Coordinate planes (a permutation frame, so D reads n-k columns of H) and generic integer bases, every k < n,
    and a (linear) / (v^2 + c) entry in every other h.
    """
    rng = random.Random(500 + n)
    chart = Chart("R", tuple(f"x{i + 1}" for i in range(n)))
    cases = 0
    for k in range(n):
        for coordinate in (True, False):
            for _ in range(3):
                if coordinate:
                    basis = [[int(i == a) for i in range(n)] for a in rng.sample(range(n), k)]
                else:
                    basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
                    while linalg.rank(basis) < k:
                        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
                origin = random_point(rng, n)
                h = bivector_with_a_rational_entry(rng, chart) if cases % 2 else random_bivector(rng, chart)
                cases += 1
                alone, full = AffineSubmanifold(chart, origin, basis), AffineSubmanifold(chart, origin, basis)
                hy = to_adapted_bivector(full.along(h)).entries
                D = alone.along(h).block
                assert [list(row) for row in D] == [list(row[k:]) for row in hy[k:]]
                assert alone.along(h).block is D


def test_a_submanifold_and_what_it_built_are_freed_without_the_garbage_collector():
    """N's record of h copies N's frame and does not refer to N, so N, the record and its builds go with their
    last reference.

    A reference back to N would make a cycle, which only the garbage collector frees.  A transversal result
    keeps the record alive, and reads its bordered block, after N is gone.
    """
    h = SymBivector(P, ((X_, Y_), (Y_, Y_ + 3)))  # D = 3 on the x-axis, and A - B D^{-1} B^T = y1
    gc.disable()
    try:
        n_sub = AffineSubmanifold(P, (0, 0), ((1, 0),))
        tr = is_transversal(n_sub, h)
        assert tr.verdict == SYMBOLIC_TRUE and is_kv_submanifold(n_sub, h).residuals and not is_coisotropic(n_sub, h)
        gone = weakref.ref(n_sub), weakref.ref(n_sub.along(h)), weakref.ref(n_sub.along(h).adapted)
        del n_sub
        assert tr.induced.entries == ((Expr.var("y1"),),)  # N's record of h is still read through the result
        del tr
        assert [r() for r in gone] == [None, None, None]
    finally:
        gc.enable()


def test_relatedness_of_hamiltonian_fields_on_kv_maps():
    f10 = embedding(1, 0)
    for fexpr in (X_, X_ * Y_, X_ ** 2 + Y_):
        f = ScalarField(P, fexpr)
        pulled = ScalarField(L, fexpr.substitute(f10.substitution()))
        assert all(r.is_zero() for r in relatedness_residuals(f10, hamiltonian(H1, pulled), hamiltonian(H2, f)))


def test_is_kv_map_embedding_family():
    assert is_kv_map(embedding(1, 0), H1, H2)
    assert is_kv_map(embedding(0, 1), H1, H2)
    assert not is_kv_map(embedding(1, 1), H1, H2)
    assert not is_kv_map(embedding(2, 3), H1, H2)
    assert is_kv_map(AffineMap.identity(P), H2, H2)


def test_is_kv_map_rational_null_direction():
    # indefinite form sent to the zero structure along a null covector
    M2 = Chart("M2", ("x", "y"))
    h = SymBivector.diagonal(M2, [Expr.const(1), Expr.const(-1)])
    target = Chart("T2", ("u", "v"))
    f = AffineMap(M2, target, ((Fr(1), Fr(1)), (Fr(1), Fr(1))), (Fr(0), Fr(0)))
    assert is_kv_map(f, h, SymBivector.zero(target))


def _theorem1_instances():
    """The four embeddings, then 30 random maps between charts of dimension 1-4; every other h1 has a rational entry."""
    yield from ((embedding(lam, mu), H1, H2) for lam, mu in ((1, 0), (0, 1), (1, 1), (2, 3)))
    rng = random.Random(26)
    for case in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        S = Chart(f"S{n}", tuple(f"s{i + 1}" for i in range(n)))
        T = Chart(f"T{m}", tuple(f"t{i + 1}" for i in range(m)))
        M = [[rng.choice((0, 0, 1, -1, 2, Fr(1, 2), Fr(-2, 3))) for _ in range(n)] for _ in range(m)]
        f = AffineMap(S, T, M, random_point(rng, m))
        # a rational entry of h2, composed with F, has a denominator in every variable of S; on one such
        # map the Hamiltonian route's relatedness residual ran past 25 s in poly_gcd
        h1 = bivector_with_a_rational_entry(rng, S) if case % 2 else random_bivector(rng, S)
        yield f, h1, random_bivector(rng, T)


def test_theorem1_characterizations_are_one_residual():
    """With R = M H1 M^T - H2 o F, the tangent-lift residual is [[0, R], [-R, 0]], the sharp relation for
    dy_j is column j of R, and the Hamiltonian relation for g is R (grad g o F): the identities that let
    ``check theorem1`` decide all four characterizations from ``kv_map_residuals`` alone."""
    rng = random.Random(260)
    for f, h1, h2 in _theorem1_instances():
        R = ref_kv_map_residual(f, h1, h2)
        assert [list(row) for row in kv_map_residuals(f, h1, h2)] == R
        m = f.target.dim
        g = random_poly(rng, f.target.coords, 3, terms=4)
        lift, sharps, ham = theorem1_routes(f, h1, h2, g)
        zero = [Expr.const(0)] * m
        assert lift == [zero + row for row in R] + [[-e for e in row] + zero for row in R]
        for j in range(m):
            assert list(sharps[j]) == [row[j] for row in R]
        grad_F = [g.diff(v).substitute(ref_components(f)) for v in f.target.coords]
        assert list(ham) == [sum((r * d for r, d in zip(row, grad_F)), Expr.const(0)) for row in R]


def test_kv_map_composition_closure():
    f10 = embedding(1, 0)
    swap = AffineMap(P, P, ((Fr(0), Fr(1)), (Fr(1), Fr(0))), (Fr(0), Fr(0)))
    assert is_kv_map(swap, H2, H2)  # diag(x^2, y^2) is symmetric under the swap
    comp = compose(swap, f10)
    assert is_kv_map(comp, H1, H2)  # becomes the (0,1) embedding
    ident = AffineMap.identity(P)
    assert is_kv_map(compose(ident, ident), H2, H2)
    assert is_kv_map(compose(ident, f10), H1, H2)
    assert is_kv_map(compose(swap, swap), H2, H2)


def test_rank_inequality_on_more_kv_maps():
    rng = random.Random(54)
    instances = [
        (embedding(1, 0), H1, H2),
        (embedding(0, 1), H1, H2),
        (AffineMap.identity(P), H2, H2),
    ]
    for f, h1, h2 in instances:
        assert is_kv_map(f, h1, h2)
        for _ in range(20):
            p = random_point(rng, h1.chart.dim)
            assert rank_at(h1, p) >= rank_at(h2, f.apply(p))


def test_rank_inequality_along_kv_maps():
    rng = random.Random(51)
    f10 = embedding(1, 0)
    for _ in range(20):
        p = random_point(rng, 1)
        image = f10.apply(p)
        assert rank_at(H1, p) >= rank_at(H2, image)


def test_product_structure_and_projections():
    A = Chart("A", ("x",))
    B = Chart("B", ("y",))
    ha = SymBivector(A, ((X_,),))
    hb = SymBivector(B, ((Y_,),))
    prod = product_kv(ha, hb)
    assert prod.bivector.entries[0][0] == X_
    assert prod.bivector.entries[1][1] == Y_
    assert prod.bivector.entries[0][1].is_zero()
    assert is_kv_map(prod.proj1, prod.bivector, ha)
    assert is_kv_map(prod.proj2, prod.bivector, hb)
    flipped = product_kv(ha, hb, sign=-1)
    assert flipped.bivector.entries[1][1] == -Y_
    assert is_kv_map(flipped.proj2, flipped.bivector, SymBivector(B, ((-Y_,),)))
    rng = random.Random(52)
    for _ in range(20):
        p = random_point(rng, 2)
        assert rank_at(prod.bivector, p) >= rank_at(ha, (p[0],))


def test_product_renames_colliding_coordinates():
    A = Chart("A", ("x",))
    B = Chart("B", ("x",))
    prod = product_kv(SymBivector(A, ((X_,),)), SymBivector(B, ((X_,),)))
    assert prod.bivector.chart.coords == ("x", "x_2")
    assert prod.bivector.entries[1][1] == Expr.var("x_2")


def test_adapted_frame_examples():
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    assert axis.is_identity
    diag = AffineSubmanifold(P, (0, 0), ((1, 1),))
    # the diagonal maps exactly onto {y2 = 0}: points of N get adapted
    # coordinates (t, 0), and the basis vector lands on the first axis
    for t in (Fr(3), Fr(-1, 2)):
        pt = diag.parametrize((t,))
        adapted = [
            sum(diag.change[i][j] * (pt[j] - diag.origin[j]) for j in range(2)) for i in range(2)
        ]
        assert adapted == [t, 0]
    assert diag.parameters_of(diag.parametrize((Fr(3),))) == (Fr(3),)
    for wrong in ((1,), (1, 1, 1)):  # zip would cut a wrong-length point to fit
        with pytest.raises(ValueError):
            diag.parameters_of(wrong)
    hy = to_adapted_bivector(diag.along(SymBivector.standard(P)))
    assert hy.chart.coords == ("y1", "y2")
    with pytest.raises(DegenerateBasis):
        AffineSubmanifold(P, (0, 0), ((1, 1), (2, 2)))


def test_full_dimension_submanifold_is_open_subset_case():
    whole = AffineSubmanifold(P, (0, 0), ((1, 0), (0, 1)))
    res = is_kv_submanifold(whole, H2)
    assert res.ok and res.induced is H2
    skew = AffineSubmanifold(P, (1, 2), ((1, 1), (0, 1)))
    res2 = is_kv_submanifold(skew, H2)
    assert res2.ok  # open subset in skew affine coordinates is still K-V


def _full_chart(n):
    return Chart(f"R{n}", tuple(f"x{i + 1}" for i in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_full_dimension_shortcut_equals_the_adapted_route(monkeypatch, n):
    """N = M in M's own coordinates returns h as is; the adapted route gives h again, in y1..yn."""
    chart = _full_chart(n)
    h = random_bivector(random.Random(3300 + n), chart, 2)
    whole = AffineSubmanifold(chart, (0,) * n, linalg.identity(n))
    sub, tr = is_kv_submanifold(whole, h), is_transversal(whole, h)
    assert whole.is_identity
    assert sub.ok and sub.induced is h and sub.residuals == ()
    assert tr.verdict == SYMBOLIC_TRUE and tr.determinant == Expr.const(1) and tr.induced == h

    monkeypatch.setattr(AffineSubmanifold, "is_identity", property(lambda self: False))
    # a new N: the first one keeps the shortcut's det D and bordered block in its record of h
    whole = AffineSubmanifold(chart, (0,) * n, linalg.identity(n))
    sub2, tr2 = is_kv_submanifold(whole, h), is_transversal(whole, h)
    ambient = {y: Expr.var(x) for y, x in zip(whole.chart.coords, chart.coords)}

    def renamed(b):
        return tuple(tuple(e.substitute(ambient) for e in row) for row in b.entries)

    assert sub2.ok and sub2.residuals == () and renamed(sub2.induced) == h.entries
    assert tr2.verdict == SYMBOLIC_TRUE and tr2.determinant == Expr.const(1) and renamed(tr2.induced) == h.entries


def test_a_whole_chart_submanifold_refuses_a_bivector_on_another_chart():
    """N = R^2 in its own coordinates and h on another chart: every verdict raises, the K-V test's shortcut too."""
    S = Chart("S", ("u", "v"))
    h = SymBivector.diagonal(S, [Expr.var("u"), Expr.var("v")])
    whole = AffineSubmanifold(P, (0, 0), ((1, 0), (0, 1)))
    for verdict in (is_kv_submanifold, is_transversal, is_coisotropic):
        with pytest.raises(ChartMismatch):
            verdict(whole, h)


def test_a_transversality_verdict_needs_a_point():
    """det D = y1 of diag(x, x) on the x-axis vanishes at 0; an empty point list or no samples evaluate it nowhere."""
    h = SymBivector.diagonal(P, [X_, X_])
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    assert is_transversal(axis, h, sample_points=[(0, 0)]).verdict == FALSE
    for given in ({"sample_points": []}, {"samples": 0}):
        with pytest.raises(ValueError):
            is_transversal(axis, h, **given)
    with pytest.raises(ValueError):
        preimage_transversal(AffineMap.identity(P), h, h, axis, samples=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_full_dimension_frame_induces_h_in_its_coordinates(n):
    """N = M through a shifted origin with a mixed basis: both routes induce P H(C y + o) P^T, P = C^{-1}."""
    rng = random.Random(3400 + n)
    chart = _full_chart(n)
    h = random_bivector(rng, chart, 2)
    while True:
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.rank(basis) == n:
            break
    origin = random_point(rng, n)
    n_sub = AffineSubmanifold(chart, origin, basis)
    sub, tr = is_kv_submanifold(n_sub, h), is_transversal(n_sub, h)
    assert not n_sub.is_identity
    assert sub.ok and sub.residuals == () and tr.verdict == SYMBOLIC_TRUE
    C = linalg.transpose(linalg.to_mat(basis))  # the basis vectors as columns
    Pm = linalg.inverse(C)
    for _ in range(3):
        y = random_point(rng, n)
        x = [c + o for c, o in zip(linalg.matvec(C, y), origin)]
        Hx = [[e.eval_at(dict(zip(chart.coords, x))) for e in row] for row in h.entries]
        want = [list(row) for row in linalg.matmul(linalg.matmul(Pm, Hx), linalg.transpose(Pm))]
        env = dict(zip(n_sub.chart.coords, y))
        for induced in (sub.induced, tr.induced):
            assert [[e.eval_at(env) for e in row] for row in induced.entries] == want


def test_kv_submanifold_squares_instance():
    for m, k in ((3, 1), (4, 2)):
        chart = Chart(f"R{m}", tuple(f"x{i + 1}" for i in range(m)))
        xs = [Expr.var(c) for c in chart.coords]
        h = SymBivector(chart, tuple(tuple(xs[i] * xs[j] for j in range(m)) for i in range(m)))
        n_sub = AffineSubmanifold(
            chart,
            tuple(Fr(0) for _ in range(m)),
            tuple(tuple(Fr(1 if i == j else 0) for j in range(m)) for i in range(m - k)),
        )
        res = is_kv_submanifold(n_sub, h)
        assert res.ok
        ys = [Expr.var(c) for c in res.induced.chart.coords]
        for i in range(m - k):
            for j in range(m - k):
                assert res.induced.entries[i][j] == ys[i] * ys[j]


def test_kv_submanifold_diagonal_profile_instance():
    good = SymBivector.diagonal(P, [X_ ** 2, Y_])
    bad = SymBivector.diagonal(P, [X_ ** 2, Expr.const(1)])
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    res = is_kv_submanifold(axis, good)
    assert res.ok and res.induced.entries[0][0] == Expr.var("y1") ** 2
    assert not is_kv_submanifold(axis, bad).ok


def test_kv_submanifold_implies_coisotropic():
    instances = [
        (AffineSubmanifold(P, (0, 0), ((1, 0),)), SymBivector.diagonal(P, [X_ ** 2, Y_])),
        (AffineSubmanifold(P, (0, 0), ((1, 0), (0, 1))), H2),
    ]
    R3 = Chart("R3", ("x1", "x2", "x3"))
    xs = [Expr.var(c) for c in R3.coords]
    hsq = SymBivector(R3, tuple(tuple(xs[i] * xs[j] for j in range(3)) for i in range(3)))
    instances.append((AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0), (0, 1, 0))), hsq))
    for n_sub, h in instances:
        res = is_kv_submanifold(n_sub, h)
        assert res.ok
        assert is_coisotropic(n_sub, h)


def test_induced_structure_is_kv_both_routes():
    # submanifold route
    R3 = Chart("R3", ("x1", "x2", "x3"))
    xs = [Expr.var(c) for c in R3.coords]
    hsq = SymBivector(R3, tuple(tuple(xs[i] * xs[j] for j in range(3)) for i in range(3)))
    plane = AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0), (0, 1, 0)))
    res = is_kv_submanifold(plane, hsq)
    assert res.ok and is_kv(res.induced)
    # transversal route
    hdeg = SymBivector.diagonal(R3, [Expr.const(1), Expr.const(1), Expr.const(0)])
    wall = AffineSubmanifold(R3, (0, 0, 0), ((0, 1, 0), (0, 0, 1)))
    tr = is_transversal(wall, hdeg)
    assert tr.verdict == SYMBOLIC_TRUE and is_kv(tr.induced)


def test_transversal_examples():
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    tr = is_transversal(axis, SymBivector.standard(P))
    assert tr.verdict == SYMBOLIC_TRUE
    assert tr.induced.entries[0][0] == Expr.const(1)
    whole = AffineSubmanifold(P, (0, 0), ((1, 0), (0, 1)))
    tr2 = is_transversal(whole, H2)
    assert tr2.verdict == SYMBOLIC_TRUE and tr2.induced == H2
    # fiber of an affine surjection under the standard structure
    R3 = Chart("R3", ("x1", "x2", "x3"))
    fiber = AffineSubmanifold(R3, (0, 0, 0), ((1, -1, 0), (1, 1, -2)))
    tr3 = is_transversal(fiber, SymBivector.standard(R3))
    assert tr3.verdict == SYMBOLIC_TRUE
    assert [e.const_value() for row in tr3.induced.entries for e in row] == [
        Fr(1, 2),
        0,
        0,
        Fr(1, 6),
    ]


def test_transversal_pointwise_and_false_verdicts():
    # diag(1+x^2? keep polynomial) -- use h = diag(1 + y^2) style block on the conormal
    h = SymBivector(P, ((Expr.const(1), Expr.const(0)), (Expr.const(0), Y_ ** 2 + 1)))
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    tr = is_transversal(axis, h)
    # conormal block restricted to {y=0} is the constant 1, so this is symbolic
    assert tr.verdict == SYMBOLIC_TRUE
    hx = SymBivector(P, ((Expr.const(1), Expr.const(0)), (Expr.const(0), X_ ** 2 + 1)))
    tr2 = is_transversal(axis, hx)
    assert tr2.verdict == POINTWISE_TRUE
    assert tr2.induced.entries[0][0] == Expr.const(1)
    # the known-gap instance: zero conormal block along the axis
    R3 = Chart("R3", ("x", "y", "z"))
    hz = SymBivector.diagonal(R3, [Expr.var("x"), Expr.var("y"), Expr.const(0)])
    zaxis = AffineSubmanifold(R3, (0, 0, 0), ((0, 0, 1),))
    assert is_transversal(zaxis, hz).verdict == FALSE


def test_transversal_point_submanifold():
    origin = AffineSubmanifold(P, (0, 0), ())
    tr = is_transversal(origin, SymBivector.standard(P))
    assert tr.verdict == SYMBOLIC_TRUE
    tr2 = is_transversal(origin, H2)  # h vanishes at 0
    assert tr2.verdict == FALSE


def test_transversal_with_explicit_sample_points():
    hx = SymBivector(P, ((Expr.const(1), Expr.const(0)), (Expr.const(0), X_,)))
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    tr = is_transversal(axis, hx, sample_points=((1, 0), (2, 0)))
    assert tr.verdict == POINTWISE_TRUE
    tr2 = is_transversal(axis, hx, sample_points=((0, 0),))
    assert tr2.verdict == FALSE
    with pytest.raises(PreconditionViolated, match=r"sample point \(1, 5\) does not lie"):
        is_transversal(axis, hx, sample_points=((1, 5),))
    # with a constant determinant the points are not needed, but are still checked
    std = SymBivector.standard(P)
    assert is_transversal(axis, std, sample_points=((1, 0),)).verdict == SYMBOLIC_TRUE
    with pytest.raises(PreconditionViolated, match=r"sample point \(5, 5\) does not lie"):
        is_transversal(axis, std, sample_points=((Fr(5), Fr(5)),))


def test_identically_singular_transversal_reports_the_given_points():
    # the conormal block of h along the x-axis is h22 = 0, so det D is identically zero
    h = SymBivector(P, ((Expr.const(1), Expr.const(0)), (Expr.const(0), Expr.const(0))))
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    tr = is_transversal(axis, h, sample_points=((2, 0), (Fr(-1, 3), 0)))
    assert tr.verdict == FALSE and tr.determinant.is_zero()
    assert tr.samples == (((Fr(2),), False), ((Fr(-1, 3),), False))
    # without points the report keeps its single parameter point at the origin
    assert is_transversal(axis, h).samples == (((Fr(0),), False),)


def test_schur_complement_with_rational_entries():
    # coupled block forces a genuine rational-function Schur complement
    h = SymBivector(P, ((X_ + 2, Expr.const(1)), (Expr.const(1), X_ ** 2 + 1)))
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    tr = is_transversal(axis, h)
    assert tr.verdict == POINTWISE_TRUE
    y1 = Expr.var("y1")
    expected = (y1 + 2) - 1 / (y1 ** 2 + 1)
    assert tr.induced.entries[0][0] == expected


def test_transversal_verdict_calls_no_gcd(monkeypatch):
    # polynomial h whose det D = x1^2 + 1 is not constant on the x1-axis: the
    # verdict reads det D only, and the division by it waits for ``induced``
    R3 = Chart("R3", ("x1", "x2", "x3"))
    x1, one, zero = Expr.var("x1"), Expr.const(1), Expr.const(0)
    h = SymBivector(R3, ((one, x1, zero), (x1, x1 ** 2 + 1, zero), (zero, zero, one)))
    calls = []
    gcd = kvgeom.symexpr.poly_gcd
    monkeypatch.setattr(kvgeom.symexpr, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    tr = is_transversal(AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0),)), h)
    assert tr.verdict == POINTWISE_TRUE and not calls
    y1 = Expr.var("y1")
    assert tr.bordered.entries == ((Expr.const(1),),) and tr.determinant == y1 ** 2 + 1
    assert tr.induced.entries == ((1 / (y1 ** 2 + 1),),)


def test_sampled_points_are_distinct():
    assert distinct_sample_points(random.Random(0), 0, 5) == [()]
    pts = distinct_sample_points(random.Random(0), 1, 100)
    assert len(pts) == len(set(pts)) == 87  # the whole grid of p/q, p in [-8, 8], q in [1, 8]
    rng = random.Random(3)
    draws = [sample_point(rng, 2) for _ in range(10)]
    assert len(set(draws)) == 10 and distinct_sample_points(random.Random(3), 2, 10) == draws
    # a line with det D = y1^2 + y1 + 2 > 0: 40 draws of 87 values repeat
    R2 = Chart("R2", ("a", "b"))
    a, b = Expr.var("a"), Expr.var("b")
    h = SymBivector(R2, ((a ** 2 + 1, b), (b, a + 3)))
    tr = is_transversal(AffineSubmanifold(R2, (1, 2), ((1, 1),)), h, samples=40)
    assert tr.verdict == POINTWISE_TRUE and len({p for p, _ in tr.samples}) == len(tr.samples) == 40


def test_coisotropic_examples():
    R1 = Chart("R1", ("x",))
    h = SymBivector(R1, ((Expr.var("x"),),))
    origin = AffineSubmanifold(R1, (0,), ())
    assert is_coisotropic(origin, h)
    assert not is_coisotropic(AffineSubmanifold(R1, (1,), ()), h)
    h_line = SymBivector(P, ((X_, Expr.const(0)), (Expr.const(0), Expr.const(0))))
    wall = AffineSubmanifold(P, (0, 0), ((0, 1),))
    assert is_coisotropic(wall, h_line)


def test_conormal_algebroid_subalgebra_annihilator():
    h_line = SymBivector(P, ((X_, Expr.const(0)), (Expr.const(0), Expr.const(0))))
    wall = AffineSubmanifold(P, (0, 0), ((0, 1),))
    alg = conormal_algebroid(wall, h_line)
    assert alg.left_symmetric_ok
    assert alg.table[0][0][0] == Expr.const(1)  # recovers the idempotent line product
    status, details = conormal_check(wall, h_line)
    assert status == "pass" and details.endswith("fiber algebra at the designated point is commutative and associative")
    assert all(alg.table[a][b] == alg.table[b][a] for a in range(alg.conormal_dim) for b in range(alg.conormal_dim))
    with pytest.raises(NotCoisotropic):
        conormal_algebroid(AffineSubmanifold(P, (1, 0), ((0, 1),)), h_line)


def test_conormal_algebroid_builds_the_adapted_bivector_once(builds):
    calls = builds.full
    h_line = SymBivector(P, ((X_, Expr.const(0)), (Expr.const(0), Expr.const(0))))
    alg = conormal_algebroid(AffineSubmanifold(P, (0, 0), ((0, 1),)), h_line)
    assert alg.left_symmetric_ok
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(NotCoisotropic):
        conormal_algebroid(AffineSubmanifold(P, (1, 0), ((0, 1),)), h_line)
    assert len(calls) == 1


def test_conormal_algebroid_kv_submanifold_has_zero_anchor():
    good = SymBivector.diagonal(P, [X_ ** 2, Y_])
    axis = AffineSubmanifold(P, (0, 0), ((1, 0),))
    alg = conormal_algebroid(axis, good)
    assert all(e.is_zero() for row in alg.anchor for e in row)
    assert alg.left_symmetric_ok
    zero = SymBivector.zero(P)
    alg0 = conormal_algebroid(axis, zero)
    assert all(e.is_zero() for plane in alg0.table for row in plane for e in row)
    assert alg0.left_symmetric_ok


def test_conormal_left_symmetric_on_random_coisotropic_instances():
    # graphs of K-V maps are coisotropic, giving a supply of instances
    rng = random.Random(53)
    for lam, mu in ((1, 0), (0, 1)):
        rep = graph_check(embedding(lam, mu), H1, H2)
        assert rep.coisotropic
        alg = conormal_algebroid(rep.graph, rep.product.bivector)
        assert alg.left_symmetric_ok


def test_conormal_algebroid_with_nonzero_anchor_and_nonconstant_table():
    # solving the Codazzi system for the ansatz h12 = b(x), h22 = x*y forces
    # b' = x, so this instance is K-V with a coisotropic axis whose conormal
    # product has a genuinely nonconstant table and a nowhere-zero anchor row
    R3 = Chart("R3", ("x", "y", "z"))
    b = X_ ** 2 + 2
    zero = Expr.const(0)
    h = SymBivector(R3, ((zero, b, zero), (b, 2 * X_ * Y_, zero), (zero, zero, zero)))
    assert is_kv(h)
    axis = AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0),))
    assert is_coisotropic(axis, h)
    alg = conormal_algebroid(axis, h)
    y1 = Expr.var("y1")
    assert alg.anchor[0][0] == y1 ** 2 + 2
    assert alg.table[0][0][0] == 2 * y1
    assert alg.left_symmetric_ok
    status, details = conormal_check(axis, h)
    assert status == "pass" and details.endswith("fiber algebra not examined")


def _differentiate_then_restrict(n_sub, h):
    """Conormal table and anchor by the first-principles route: build P H(C y + o) P^T over
    all n adapted variables, differentiate along y_{k+c}, then set y_{k+1}..y_n to 0."""
    k, n = n_sub.dim, n_sub.ambient.dim
    C, P_, ys = n_sub.frame, n_sub.change, n_sub.adapted_chart.coords
    sub = {
        x: sum((Expr.const(C[i][j]) * Expr.var(ys[j]) for j in range(n)), Expr.const(n_sub.origin[i]))
        for i, x in enumerate(n_sub.ambient.coords)
    }
    H = [[e.substitute(sub) for e in row] for row in h.entries]
    hy = [
        [sum((Expr.const(P_[a][i] * P_[b][l]) * H[i][l] for i in range(n) for l in range(n)), Expr.const(0))
         for b in range(n)]
        for a in range(n)
    ]
    on_n = {v: Expr.const(0) for v in ys[k:]}
    table = tuple(
        tuple(tuple(hy[k + a][k + b].diff(ys[k + c]).substitute(on_n) for c in range(n - k)) for b in range(n - k))
        for a in range(n - k)
    )
    anchor = tuple(tuple(hy[k + a][j].substitute(on_n) for j in range(k)) for a in range(n - k))
    return table, anchor


def _random_coisotropic(rng, n, k):
    """A random affine k-plane N of R^n and a bivector h whose conormal block vanishes on N.

    h is C K(P(x - o)) C^T for a random adapted bivector K whose conormal-conormal
    entries lie in the ideal of y_{k+1}, ..., y_n, so N is coisotropic for h.
    """
    chart = Chart("R", tuple(f"x{i + 1}" for i in range(n)))
    while True:
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        if linalg.rank(basis) == k:
            break
    n_sub = AffineSubmanifold(chart, random_point(rng, n), basis)
    ys = n_sub.adapted_chart.coords
    K = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            e = random_poly(rng, ys, 2, terms=3)
            if a >= k:
                e = sum((Expr.var(ys[c]) * random_poly(rng, ys, 1, terms=2) for c in range(k, n)), Expr.const(0))
            K[a][b] = K[b][a] = e
    x_minus_o = [Expr.var(x) - Expr.const(o) for x, o in zip(chart.coords, n_sub.origin)]
    to_y = {
        y: sum((Expr.const(c) * d for c, d in zip(row, x_minus_o)), Expr.const(0)) for y, row in zip(ys, n_sub.change)
    }
    Kx = [[e.substitute(to_y) for e in row] for row in K]
    C = n_sub.frame
    h = [
        [sum((Expr.const(C[i][a] * C[j][b]) * Kx[a][b] for a in range(n) for b in range(n)), Expr.const(0))
         for j in range(n)]
        for i in range(n)
    ]
    return n_sub, SymBivector(chart, tuple(map(tuple, h)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conormal_algebroid_matches_differentiate_then_restrict(n):
    """The table from derivatives of H along the frame vectors equals the derivative of the full
    adapted bivector restricted to N, entry by entry, for every 0 <= k < n."""
    rng = random.Random(90 + n)
    for k in range(n):
        for _ in range(2):
            n_sub, h = _random_coisotropic(rng, n, k)
            assert is_coisotropic(n_sub, h)
            alg = conormal_algebroid(n_sub, h)
            table, anchor = _differentiate_then_restrict(n_sub, h)
            assert alg.table == table
            assert all(table[a][b] == table[b][a] for a in range(n - k) for b in range(n - k))  # a commutative product
            assert alg.anchor == anchor
            assert any(not e.is_zero() for plane in table for row in plane for e in row)
            assert k == 0 or any(not e.is_zero() for row in anchor for e in row)


def test_algebroid_associator_detects_non_left_symmetric_tables():
    # synthetic data: product dy1•dy1 = y1*dy2, dy2•dy1 = dy1, rest zero,
    # anchor rho(dy1) = d/dy1; hand expansion gives
    # ass(1,2,1) - ass(2,1,1) = (y1 - 1)*dy2 - y1*... != 0
    from kvgeom.structures import _algebroid_associator_residuals

    chart = Chart("C", ("y1",))
    zero = Expr.const(0)
    y1 = Expr.var("y1")
    table = (
        ((zero, y1), (zero, zero)),  # dy1•dy1 = y1 dy2, dy1•dy2 = 0
        ((Expr.const(1), zero), (zero, zero)),  # dy2•dy1 = dy1, dy2•dy2 = 0
    )
    anchor = ((Expr.const(1),), (zero,))
    residuals = _algebroid_associator_residuals(chart, table, anchor)
    assert any(not e.is_zero() for e in residuals)
    # zero table and anchor is trivially left symmetric
    table0 = (((zero, zero), (zero, zero)), ((zero, zero), (zero, zero)))
    anchor0 = ((zero,), (zero,))
    assert all(e.is_zero() for e in _algebroid_associator_residuals(chart, table0, anchor0))


def test_graph_characterization():
    for lam, mu in ((1, 0), (0, 1), (1, 1), (2, 3)):
        rep = graph_check(embedding(lam, mu), H1, H2)
        assert rep.agree
        assert rep.kv_map is ((lam == 0) or (mu == 0))
    ident = AffineMap.identity(P)
    rep = graph_check(ident, H2, H2)
    assert rep.agree and rep.kv_map and rep.coisotropic


def test_affine_preimage_cases():
    R3 = Chart("R3", ("x1", "x2", "x3"))
    T1 = Chart("T1", ("w",))
    proj = AffineMap(R3, T1, ((Fr(1), Fr(0), Fr(0)),), (Fr(0),))
    point = AffineSubmanifold(T1, (Fr(2),), ())
    pre = affine_preimage(proj, point)
    assert pre.dim == 2 and pre.origin == (Fr(2), Fr(0), Fr(0))
    whole = AffineSubmanifold(T1, (0,), ((1,),))
    assert affine_preimage(proj, whole).dim == 3
    # parallel miss: constant map to a point off the target submanifold
    const = AffineMap(R3, T1, ((Fr(0), Fr(0), Fr(0)),), (Fr(5),))
    assert affine_preimage(const, point) is None


def test_preimage_transversal_instances():
    R3 = Chart("R3", ("x1", "x2", "x3"))
    T1 = Chart("T1", ("w",))
    proj = AffineMap(R3, T1, ((Fr(1), Fr(0), Fr(0)),), (Fr(0),))
    h3, h1 = SymBivector.standard(R3), SymBivector.standard(T1)
    point = AffineSubmanifold(T1, (0,), ())
    rep = preimage_transversal(proj, h3, h1, point)
    assert rep.ok and rep.preimage.dim == 2
    assert rep.transversal_source.verdict == SYMBOLIC_TRUE
    # identity pullback returns the same submanifold
    axis = AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0),))
    rep2 = preimage_transversal(AffineMap.identity(R3), h3, h3, axis)
    assert rep2.ok and rep2.preimage.dim == 1
    assert rep2.transversal_source.induced.entries == rep2.transversal_target.induced.entries
    # product projection
    A = Chart("A", ("a1", "a2"))
    B = Chart("B", ("b1",))
    prod = product_kv(SymBivector.standard(A), SymBivector.standard(B))
    na = AffineSubmanifold(A, (0, 0), ((1, 0),))
    rep3 = preimage_transversal(prod.proj1, prod.bivector, SymBivector.standard(A), na)
    assert rep3.ok and rep3.preimage.dim == 2


def test_preimage_transversal_preconditions():
    R3 = Chart("R3", ("x1", "x2", "x3"))
    T1 = Chart("T1", ("w",))
    sums = AffineMap(R3, T1, ((Fr(1), Fr(1), Fr(1)),), (Fr(0),))
    h3, h1 = SymBivector.standard(R3), SymBivector.standard(T1)
    point = AffineSubmanifold(T1, (0,), ())
    with pytest.raises(PreconditionViolated):
        preimage_transversal(sums, h3, h1, point)  # sum map does not preserve the pairing
    # F(t) = (t, 1) is a K-V map for h1 = [1] and h2 = diag(1, 1 - y), and the x-axis is a
    # transversal for h2, but F's image is the parallel line y = 1: the preimage is empty
    R1, R2 = Chart("R1", ("t",)), Chart("R2", ("x", "y"))
    h2 = SymBivector.diagonal(R2, [Expr.const(1), 1 - Expr.var("y")])
    line = AffineMap(R1, R2, ((Fr(1),), (Fr(0),)), (Fr(0), Fr(1)))
    x_axis = AffineSubmanifold(R2, (0, 0), ((1, 0),))
    with pytest.raises(NotTransverse, match="not transverse"):
        preimage_transversal(line, SymBivector.standard(R1), h2, x_axis)


def test_nonfunctoriality_of_kv_submanifolds_under_preimages():
    # indefinite structure sent to zero along a null direction: the preimage
    # hyperplane cannot be a K-V submanifold since the sharp map is onto
    M3 = Chart("M3", ("x", "y", "z"))
    h = SymBivector.diagonal(M3, [Expr.const(1), Expr.const(1), Expr.const(-1)])
    plane = AffineSubmanifold(M3, (0, 0, 0), ((1, 0, 1), (0, 1, 0)))  # {x = z}
    res = is_kv_submanifold(plane, h)
    assert not res.ok


def test_transversal_and_submanifold_induced_structures_coincide():
    # degenerate constant structure on 3-space: {x=0} is a transversal,
    # {z=0} is a K-V submanifold, and both induce the flat line structure
    # on the intersection axis
    R3 = Chart("R3", ("x", "y", "z"))
    h = SymBivector.diagonal(R3, [Expr.const(1), Expr.const(1), Expr.const(0)])
    wall = AffineSubmanifold(R3, (0, 0, 0), ((0, 1, 0), (0, 0, 1)))  # {x = 0}
    floor = AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0), (0, 1, 0)))  # {z = 0}
    tr = is_transversal(wall, h)
    sub = is_kv_submanifold(floor, h)
    assert tr.verdict == SYMBOLIC_TRUE and sub.ok
    # intersection = the y-axis; as {z=0} inside the wall's induced chart (y, z)
    axis_in_wall = AffineSubmanifold(tr.induced.chart, (0, 0), ((1, 0),))
    res_a = is_kv_submanifold(axis_in_wall, tr.induced)
    # and as {x=0} inside the floor's induced chart (x, y)
    axis_in_floor = AffineSubmanifold(sub.induced.chart, (0, 0), ((0, 1),))
    res_b = is_transversal(axis_in_floor, sub.induced)
    assert res_a.ok and res_b.verdict == SYMBOLIC_TRUE
    assert res_a.induced.entries == res_b.induced.entries == ((Expr.const(1),),)


def test_transverse_intersection_of_kv_planes():
    R3 = Chart("R3", ("x1", "x2", "x3"))
    xs = [Expr.var(c) for c in R3.coords]
    hsq = SymBivector(R3, tuple(tuple(xs[i] * xs[j] for j in range(3)) for i in range(3)))
    plane12 = AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0), (0, 1, 0)))
    plane23 = AffineSubmanifold(R3, (0, 0, 0), ((0, 1, 0), (0, 0, 1)))
    assert is_kv_submanifold(plane12, hsq).ok and is_kv_submanifold(plane23, hsq).ok
    # intersection of the two K-V submanifolds: the x2-axis, again K-V
    axis2 = AffineSubmanifold(R3, (0, 0, 0), ((0, 1, 0),))
    assert is_kv_submanifold(axis2, hsq).ok


def test_expr_matrix_helpers():
    m = [[X_, Expr.const(1)], [Expr.const(1), Y_]]
    assert expr_det(m, 2)[0] == X_ * Y_ - 1
    # a zero leading pivot forces a row swap, which flips the sign
    assert expr_det([[Expr.const(0), Expr.const(1)], [Expr.const(1), X_]], 2)[0] == Expr.const(-1)
    singular = [[X_, X_], [X_, X_]]
    assert expr_det(singular, 2) == (Expr.const(0), None)
    assert expr_det([], 0) == (Expr.const(1), [])


def test_chart_mismatch_errors():
    with pytest.raises(ChartMismatch):
        pullback(embedding(1, 0), OneForm(L, (Expr.var("t"),)))
    with pytest.raises(ChartMismatch):
        kv_map_residuals(embedding(1, 0), H2, H2)
