"""Algebras with scalar cocycles, their dual bivectors, and annihilator submanifolds."""

import random
from fractions import Fraction

import pytest

from conftest import random_algebra, random_oneform, random_poly
from kvgeom.algebra import (
    AlgebraSpec,
    SubspaceSpec,
    algebra_to_kv,
    annihilator_submanifold,
    dual_chart,
    validate_algebra,
    validate_subspace,
)
from kvgeom.errors import InvalidAlgebra, InvalidSubspace
from kvgeom.geometry import (
    ScalarField,
    codazzi_tensor,
    differential,
    in_E,
    nabla_form,
    pair,
    sharp,
    special_class_check,
)
from kvgeom.structures import is_coisotropic, is_kv_submanifold
from kvgeom.symexpr import Expr

IDEMPOTENT_LINE = AlgebraSpec.from_sparse(2, {(0, 0, 0): 1})


def test_validate_examples():
    assert validate_algebra(IDEMPOTENT_LINE).valid
    bad = AlgebraSpec.from_sparse(2, {(0, 0, 1): 1, (0, 1, 0): 1})
    rep = validate_algebra(bad)
    assert not rep.associative and rep.witness == (1, 1, 2)
    zero_with_b = AlgebraSpec.from_sparse(3, cocycle={(0, 1): Fraction(1, 2), (2, 2): -2})
    assert validate_algebra(zero_with_b).valid


def test_validate_catches_commutativity_and_cocycle_violations():
    n = 2
    C = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    C[0][1][0] = Fraction(1)  # e1 e2 = e1 but e2 e1 = 0
    noncomm = AlgebraSpec(n, tuple(tuple(tuple(r) for r in p) for p in C), tuple((Fraction(0),) * n for _ in range(n)))
    assert not validate_algebra(noncomm).commutative
    # symmetric b violating B(uv, w) = B(u, vw) on the idempotent line:
    # B(e1 e1, e2) = b12 vs B(e1, e1 e2) = 0
    bad_b = AlgebraSpec.from_sparse(2, {(0, 0, 0): 1}, {(0, 1): 1})
    rep = validate_algebra(bad_b)
    assert rep.cocycle_symmetric and not rep.cocycle_ok


def test_algebra_to_kv_examples():
    h = algebra_to_kv(IDEMPOTENT_LINE)
    x1 = Expr.var("x1")
    assert h.entries[0][0] == x1
    assert h.entries[0][1].is_zero() and h.entries[1][1].is_zero()
    assert codazzi_tensor(h).is_zero()
    std = algebra_to_kv(AlgebraSpec.from_sparse(2, cocycle={(0, 0): 1, (1, 1): 1}))
    assert std.entries[0][0] == Expr.const(1) and std.entries[1][1] == Expr.const(1)
    with pytest.raises(InvalidAlgebra):
        algebra_to_kv(AlgebraSpec.from_sparse(2, {(0, 0, 1): 1, (0, 1, 0): 1}))


def test_random_algebras_are_valid_and_dual_is_kv():
    rng = random.Random(41)
    for _ in range(12):
        dim = rng.randint(1, 4)
        a = random_algebra(rng, dim)
        assert validate_algebra(a).valid
        assert codazzi_tensor(algebra_to_kv(a)).is_zero()


def test_annihilator_examples():
    h = algebra_to_kv(IDEMPOTENT_LINE)
    ideal = SubspaceSpec(IDEMPOTENT_LINE, ((Fraction(0), Fraction(1)),), "ideal")
    sub = SubspaceSpec(IDEMPOTENT_LINE, ((Fraction(1), Fraction(0)),), "subalgebra")
    n_ideal = annihilator_submanifold(ideal, h.chart)
    n_sub = annihilator_submanifold(sub, h.chart)
    assert n_ideal.basis == ((Fraction(1), Fraction(0)),)  # {x2 = 0}
    assert n_sub.basis == ((Fraction(0), Fraction(1)),)  # {x1 = 0}
    assert is_kv_submanifold(n_ideal, h).ok
    assert is_coisotropic(n_sub, h)
    whole = SubspaceSpec(IDEMPOTENT_LINE, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), "subalgebra")
    n_whole = annihilator_submanifold(whole, h.chart)
    assert n_whole.dim == 0
    assert is_coisotropic(n_whole, h)  # b = 0, so h vanishes at the origin


def test_annihilator_rejects_invalid_subspaces():
    # span{e1} is closed under all products here, so it is both a subalgebra
    # and an ideal; span{e1 + e2} is neither since its square is e1
    assert validate_subspace(SubspaceSpec(IDEMPOTENT_LINE, ((Fraction(1), Fraction(0)),), "subalgebra"))
    assert validate_subspace(SubspaceSpec(IDEMPOTENT_LINE, ((Fraction(1), Fraction(0)),), "ideal"))
    diagonal = ((Fraction(1), Fraction(1)),)
    assert not validate_subspace(SubspaceSpec(IDEMPOTENT_LINE, diagonal, "subalgebra"))
    assert not validate_subspace(SubspaceSpec(IDEMPOTENT_LINE, diagonal, "ideal"))
    with pytest.raises(InvalidSubspace):
        annihilator_submanifold(SubspaceSpec(IDEMPOTENT_LINE, diagonal, "subalgebra"))


def test_leafwise_affine_criterion_matches_quantified_definition():
    # on dual instances, the coframe residual test must agree with the
    # quantified <nabla_{alpha^#} df, beta^#> = 0 condition
    rng = random.Random(42)
    algebras = [IDEMPOTENT_LINE, random_algebra(rng, 2), random_algebra(rng, 3)]
    for a in algebras:
        h = algebra_to_kv(a)
        chart = h.chart
        for _ in range(10):
            f = ScalarField(chart, random_poly(rng, chart.coords, 3, terms=4))
            verdict = in_E(h, f)
            found_nonzero = False
            for _ in range(4):
                alpha = random_oneform(rng, chart, 1)
                beta = random_oneform(rng, chart, 1)
                resid = pair(nabla_form(sharp(h, alpha), differential(f)), sharp(h, beta))
                if verdict:
                    assert resid.is_zero()
                elif not resid.is_zero():
                    found_nonzero = True
            if not verdict:
                # the coordinate coframe must witness the failure
                assert not all(
                    pair(
                        nabla_form(sharp(h, _coord_form(chart, i)), differential(f)),
                        sharp(h, _coord_form(chart, j)),
                    ).is_zero()
                    for i in range(chart.dim)
                    for j in range(chart.dim)
                ) or found_nonzero


def _coord_form(chart, i):
    from kvgeom.geometry import coordinate_form

    return coordinate_form(chart, i)


def test_special_class_holds_on_dual_instances():
    rng = random.Random(43)
    for a in (IDEMPOTENT_LINE, random_algebra(rng, 2), random_algebra(rng, 3)):
        h = algebra_to_kv(a)
        chart = h.chart
        tested = 0
        attempts = 0
        while tested < 5 and attempts < 60:
            attempts += 1
            f1 = ScalarField(chart, random_poly(rng, chart.coords, 3, terms=3))
            f2 = ScalarField(chart, random_poly(rng, chart.coords, 3, terms=3))
            if not (in_E(h, f1) and in_E(h, f2)):
                continue
            tested += 1
            assert special_class_check(h, f1, f2)
        assert tested > 0  # constants and affine functions always qualify


def test_dual_chart_dimensions():
    assert dual_chart(IDEMPOTENT_LINE).coords == ("x1", "x2")
    a3 = random_algebra(random.Random(44), 3)
    assert dual_chart(a3, "D").name == "D"
