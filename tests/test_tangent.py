"""Tangent-bundle layer: lifts, the flat connection on lifts, the skew lift and its Jacobiator."""

import random

import pytest

from conftest import (
    jacobiator_reference,
    random_bivector,
    random_field,
    random_oneform,
    ref_codazzi,
    sparse_bivectors,
)
from kvgeom.geometry import (
    Chart,
    OneForm,
    ScalarField,
    SymBivector,
    VectorField,
    is_kv,
    left_sym_product,
    lie_bracket,
)
from kvgeom.symexpr import ZERO, Expr
from kvgeom.tangent import (
    SkewBivector,
    _lift_jacobi_entries,
    build_pi,
    lift_propositions_check,
    lift_scalar,
    lift_vector,
    make_tangent_chart,
    pi_sharp,
)

M = Chart("M", ("x", "y"))
TC = make_tangent_chart(M)
X_ = Expr.var("x")
Y_ = Expr.var("y")


def test_vertical_lift_of_coordinate_field():
    L = Chart("L", ("x",))
    tc = make_tangent_chart(L)
    v = lift_vector(tc, VectorField(L, (1,)), "vertical")
    assert v.components == (Expr.const(0), Expr.const(1))


def test_skew_bivector_checks_every_pair_with_a_nonzero_entry():
    # pairs of two zero entries are skipped; a nonzero entry whose mirror is zero, or is not
    # its negative, and a nonzero diagonal entry are refused
    h = random_bivector(random.Random(39), M, 2)
    rows = build_pi(h).entries
    assert SkewBivector(TC, rows).entries == rows
    for (i, j), e in [((0, 2), Expr.const(0)), ((2, 0), X_), ((0, 1), Y_), ((1, 0), Y_), ((3, 3), X_)]:
        broken = [list(row) for row in rows]
        broken[i][j] = e
        with pytest.raises(ValueError, match="not antisymmetric"):
            SkewBivector(TC, tuple(map(tuple, broken)))


def test_fiber_names_avoid_collisions():
    weird = Chart("W", ("x", "u_x"))
    tc = make_tangent_chart(weird)
    assert len(set(tc.base.coords + tc.fiber)) == 4


def test_bracket_table_on_lifts():
    rng = random.Random(31)
    for _ in range(6):
        X = random_field(rng, M)
        Y = random_field(rng, M)
        Xh = lift_vector(TC, X, "horizontal")
        Yh = lift_vector(TC, Y, "horizontal")
        Xv = lift_vector(TC, X, "vertical")
        Yv = lift_vector(TC, Y, "vertical")
        assert lie_bracket(Xh, Yh) == lift_vector(TC, lie_bracket(X, Y), "horizontal")
        assert lie_bracket(Xh, Yv) == lift_vector(TC, left_sym_product(X, Y), "vertical")
        assert all(c.is_zero() for c in lie_bracket(Xv, Yv).components)


def test_sasaki_nabla_defining_cases_torsion_and_curvature():
    rng = random.Random(34)
    for _ in range(5):
        X = random_field(rng, M)
        Y = random_field(rng, M)
        Xh = lift_vector(TC, X, "horizontal")
        Yh = lift_vector(TC, Y, "horizontal")
        Xv = lift_vector(TC, X, "vertical")
        Yv = lift_vector(TC, Y, "vertical")
        assert left_sym_product(Xh, Yh) == lift_vector(TC, left_sym_product(X, Y), "horizontal")
        assert left_sym_product(Xh, Yv) == lift_vector(TC, left_sym_product(X, Y), "vertical")
        assert all(c.is_zero() for c in left_sym_product(Xv, Yh).components)
        assert all(c.is_zero() for c in left_sym_product(Xv, Yv).components)
        # torsion and curvature on lifted generators
        for W, V in ((Xh, Yh), (Xh, Yv), (Xv, Yh), (Xv, Yv)):
            torsion = tuple(
                a - b - c
                for a, b, c in zip(
                    left_sym_product(W, V).components,
                    left_sym_product(V, W).components,
                    lie_bracket(W, V).components,
                )
            )
            assert all(e.is_zero() for e in torsion)
            r1 = left_sym_product(W, left_sym_product(V, Xh))
            r2 = left_sym_product(V, left_sym_product(W, Xh))
            r3 = left_sym_product(lie_bracket(W, V), Xh)
            curv = tuple(a - b - c for a, b, c in zip(r1.components, r2.components, r3.components))
            assert all(e.is_zero() for e in curv)


def test_build_pi_block_shape_and_sharp_identities():
    rng = random.Random(36)
    for _ in range(6):
        h = random_bivector(rng, M, 2)
        pi = build_pi(h)
        n = M.dim
        for i in range(n):
            for j in range(n):
                assert pi.entries[i][j].is_zero()
                assert pi.entries[n + i][n + j].is_zero()
                assert pi.entries[i][n + j] == h.entries[i][j]
        for alpha in (random_oneform(rng, M), random_oneform(rng, M)):
            sharp_alpha = tuple(
                sum((alpha.components[i] * h.entries[i][j] for i in range(n)), Expr.const(0))
                for j in range(n)
            )
            zero = (Expr.const(0),) * n
            # alpha read along the base coordinates, then along the fiber ones
            vert = pi_sharp(pi, OneForm(TC.chart, alpha.components + zero))
            assert vert.components == zero + sharp_alpha
            horiz = pi_sharp(pi, OneForm(TC.chart, zero + alpha.components))
            assert horiz.components == tuple(-c for c in sharp_alpha) + zero


def test_build_pi_scalar_example():
    L = Chart("L", ("x",))
    h = SymBivector(L, ((Expr.var("x"),),))
    pi = build_pi(h)
    assert pi.entries[0][1] == Expr.var("x")
    assert build_pi(SymBivector.zero(L)).entries[0][1].is_zero()


def _poisson(pi):
    """Whether the plain-loop Jacobiator of ``pi`` vanishes: a route that shares no code with the check."""
    return all(e.is_zero() for plane in jacobiator_reference(pi) for row in plane for e in row)


def test_jacobiator_examples():
    h = SymBivector.diagonal(M, [X_, Y_])
    assert _poisson(build_pi(h))
    h_bad = SymBivector(M, ((Expr.const(0), X_), (X_, Expr.const(0))))
    assert not _poisson(build_pi(h_bad))
    h_const = SymBivector(M, ((Expr.const(1), Expr.const(2)), (Expr.const(2), Expr.const(-1))))
    assert _poisson(build_pi(h_const))


def test_jacobi_entries_equal_the_unskipped_sum():
    """The lift's Jacobi stream, read from h's Codazzi memo, yields J(a, n+b, n+c) for every base index a
    and fiber pair b < c, in lexicographic order, each equal to the unskipped sum over the lift; every
    triple i < j < k that it leaves out is zero in that sum."""
    rng = random.Random(38)
    for n in range(1, 6):
        chart = Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))
        triples = [(i, j, k) for i in range(2 * n) for j in range(i + 1, 2 * n) for k in range(j + 1, 2 * n)]
        for h in [SymBivector.zero(chart), random_bivector(rng, chart, 2)] + sparse_bivectors(rng, chart):
            got = list(_lift_jacobi_entries(h))
            assert [at for at, _ in got] == [(i, j, k) for i, j, k in triples if i < n <= j]
            J, value = jacobiator_reference(build_pi(h)), dict(got)
            for i, j, k in triples:
                assert J[i][j][k] == value.get((i, j, k), ZERO), (n, i, j, k)


def test_lift_jacobiator_is_the_codazzi_tensor_reindexed():
    """On the lift of h over R^n, J(a, n+b, n+c) = T(c, b, a) for every base index a and fiber pair b < c,
    and every other J(i, j, k), i < j < k, is zero: the lift is Poisson iff h is K-V, entry by entry."""
    rng = random.Random(26)
    for n in range(1, 6):
        chart = Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))
        for h in [random_bivector(rng, chart, 2)] + sparse_bivectors(rng, chart):
            J = jacobiator_reference(build_pi(h))
            T = ref_codazzi(chart.coords, h.entries)
            for i in range(2 * n):
                for j in range(i + 1, 2 * n):
                    for k in range(j + 1, 2 * n):
                        want = T[k - n][j - n][i] if i < n <= j else Expr.const(0)
                        assert J[i][j][k] == want, (n, i, j, k)


def test_poisson_equivalence_on_random_bivectors():
    rng = random.Random(37)
    for chart in (M, Chart("P", ("x", "y", "z"))):
        for _ in range(10):
            h = random_bivector(rng, chart, 2)
            assert is_kv(h) == _poisson(build_pi(h))


def test_lift_propositions_positive_case():
    h = SymBivector(M, ((X_, Expr.const(0)), (Expr.const(0), Expr.const(0))))
    rep = lift_propositions_check(h, ScalarField(M, Y_ ** 2))
    assert rep.hamiltonian_lift_ok
    assert rep.lie_pi_vanishes and rep.f_in_E and rep.agree
    assert all(e.is_zero() for row in rep.mixed_residuals for e in row)


def test_lift_propositions_negative_case():
    h = SymBivector(M, ((X_ ** 2, Expr.const(0)), (Expr.const(0), Expr.const(0))))
    rep = lift_propositions_check(h, ScalarField(M, X_ ** 2))
    assert rep.hamiltonian_lift_ok
    assert not rep.lie_pi_vanishes and not rep.f_in_E and rep.agree
    assert all(e.is_zero() for row in rep.mixed_residuals for e in row)


def test_lift_propositions_constant_function():
    rng = random.Random(38)
    h = random_bivector(rng, M, 2)
    rep = lift_propositions_check(h, ScalarField(M, Expr.const(4)))
    assert rep.hamiltonian_lift_ok and rep.lie_pi_vanishes and rep.f_in_E


def test_lift_scalar_reads_on_tangent_chart():
    f = ScalarField(M, X_ * Y_)
    lifted = lift_scalar(TC, f)
    assert lifted.chart == TC.chart
    assert lifted.value == X_ * Y_
