"""Chart-level operators: sharp, Codazzi, brackets, Hamiltonian fields, leafwise-affine space."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    assert_stream_spans_table,
    bivector_with_a_rational_entry,
    diagonal_profile,
    kv_bracket_reference,
    random_algebra,
    random_bivector,
    random_oneform,
    random_point,
    random_scalar,
    ref_codazzi,
    sparse_bivectors,
)
from kvgeom.algebra import algebra_to_kv
from kvgeom.dsl import parse_scenario
from kvgeom.errors import ChartMismatch, DegreeOverflow, PoleAtPoint, PreconditionViolated
from kvgeom.geometry import (
    Chart,
    OneForm,
    ScalarField,
    SymBivector,
    VectorField,
    _bracket_entries,
    _codazzi_entries,
    bivector_pair,
    bracket_h,
    contravariant_D,
    coordinate_form,
    differential,
    hamiltonian,
    in_E,
    is_kv,
    left_sym_product,
    lie_bracket,
    lie_derivative_h,
    lie_derivative_residual,
    pair,
    rank_at,
    sharp,
    special_class_check,
)
from kvgeom.symexpr import Expr

M = Chart("M", ("x", "y"))
X_ = Expr.var("x")
Y_ = Expr.var("y")

H_DIAG = SymBivector.diagonal(M, [X_, Y_])  # linear diagonal K-V instance
H_LINE = SymBivector(M, ((X_, Expr.const(0)), (Expr.const(0), Expr.const(0))))
H_SQ = SymBivector(M, ((X_ ** 2, Expr.const(0)), (Expr.const(0), Expr.const(0))))
H_OFF = SymBivector(M, ((Expr.const(0), X_), (X_, Expr.const(0))))  # not K-V


def test_sharp_examples():
    dx, dy = coordinate_form(M, 0), coordinate_form(M, 1)
    assert sharp(H_LINE, dx) == VectorField(M, (X_, Expr.const(0)))
    assert sharp(H_LINE, dy) == VectorField(M, (Expr.const(0), Expr.const(0)))
    zero = SymBivector.zero(M)
    alpha = OneForm(M, (X_ * Y_, Y_ ** 2))
    assert all(c.is_zero() for c in sharp(zero, alpha).components)


def test_sharp_chart_mismatch():
    other = Chart("N", ("s", "t"))
    with pytest.raises(ChartMismatch):
        sharp(H_DIAG, coordinate_form(other, 0))


def _codazzi(h):
    return dict(_codazzi_entries(h))


def _bracket_vanishes(h):
    return all(s.is_zero() for _, s in _bracket_entries(h))


def test_codazzi_examples():
    assert is_kv(H_DIAG)
    assert _codazzi(H_OFF)[(0, 1, 1)] == -X_
    const = SymBivector(M, ((Expr.const(2), Expr.const(1)), (Expr.const(1), Expr.const(-3))))
    assert is_kv(const)


def test_codazzi_entries_span_the_antisymmetric_reference_table():
    # the stream holds i < j only; the reference runs every (i, j, k), so
    # T(i,j,k) = -T(j,i,k) and T(i,i,k) = 0 are checked too
    rng = random.Random(11)
    for _ in range(10):
        h = random_bivector(rng, M, 2)
        assert_stream_spans_table(_codazzi_entries(h), ref_codazzi(M.coords, h.entries), 2)
    # sparse inputs, whose rows and derivative rows are supports with few entries or none
    for n in range(1, 6):
        chart = Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))
        for h in sparse_bivectors(rng, chart):
            assert_stream_spans_table(_codazzi_entries(h), ref_codazzi(chart.coords, h.entries), 2)


def test_kv_bracket_is_minus_codazzi_and_vanishes_together():
    # the five-term self-bracket expands to minus the Codazzi defect entrywise; check
    # kv_bracket compares only the entries its verdict reads, so every entry is compared here
    rng = random.Random(12)
    charts = [M, Chart("P", ("x", "y", "z")), Chart("R4", ("x1", "x2", "x3", "x4"))]
    for chart in charts:
        cases = [random_bivector(rng, chart, 2) for _ in range(6)] + [bivector_with_a_rational_entry(rng, chart)]
        for h in cases:
            b, t = list(_bracket_entries(h)), list(_codazzi_entries(h))
            assert [idx for idx, _ in b] == [idx for idx, _ in t]
            assert all(s == -u for (_, s), (_, u) in zip(b, t))
            assert _bracket_vanishes(h) == is_kv(h)
    assert _bracket_vanishes(H_DIAG)
    assert not _bracket_vanishes(H_OFF)
    assert _bracket_vanishes(SymBivector.zero(M))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bracket_entries_equal_the_per_entry_formula(n):
    rng = random.Random(100 + n)
    chart = Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))
    cases = [SymBivector.zero(chart), *sparse_bivectors(rng, chart)]
    if n <= 4:
        cases += [random_bivector(rng, chart, 2), bivector_with_a_rational_entry(rng, chart)]
    if n <= 2:
        cases += [random_bivector(rng, chart, 2), bivector_with_a_rational_entry(rng, chart)]
    for h in cases:
        assert_stream_spans_table(_bracket_entries(h), kv_bracket_reference(h), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_kv_is_the_zero_test_of_the_codazzi_tensor(n):
    rng = random.Random(200 + n)
    chart = Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))
    profile = diagonal_profile(rng, chart)
    rows = [list(row) for row in profile.entries]
    rows[-1][-1] = rows[-1][-1] + Expr.var(chart.coords[0])  # K-V but for the entries at the end of the order
    cases = [
        SymBivector.zero(chart),
        profile,
        SymBivector(chart, tuple(map(tuple, rows))),
        algebra_to_kv(random_algebra(rng, n), chart),
        random_bivector(rng, chart, 2),
        random_bivector(rng, chart, 2),
        bivector_with_a_rational_entry(rng, chart),
    ]
    verdicts = [is_kv(h) for h in cases]
    reference = [ref_codazzi(chart.coords, h.entries) for h in cases]
    assert verdicts == [all(e.is_zero() for plane in t for row in plane for e in row) for t in reference]
    assert verdicts[:2] == [True, True] and verdicts[3]
    assert verdicts[2] == (n == 1)


def _count(monkeypatch, name):
    """Record the first argument of each call of ``geometry.<name>``."""
    import kvgeom.geometry as geometry

    calls = []
    original = getattr(geometry, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(geometry, name, counted)
    return calls


def test_is_kv_stops_at_the_first_nonzero_entry(monkeypatch):
    chart = Chart("R4", ("x1", "x2", "x3", "x4"))
    h = random_bivector(random.Random(5), chart, 2)
    at, first = next(_codazzi_entries(h))
    assert at == (0, 1, 0) and not first.is_zero()
    dots, grads = _count(monkeypatch, "_dot"), _count(monkeypatch, "_grad")
    assert not is_kv(h)
    # T(1,2,1) = h_1 . d h_21 - h_2 . d h_11, and nothing after it
    assert len(dots) == 2 and grads == [h.entries[0][1], h.entries[0][0]]
    dots.clear()
    grads.clear()
    assert not is_kv(h)
    assert dots == grads == []  # replayed from h's memo
    assert len(list(h.codazzi())) == 6 * 4
    # the rest of the stream: every k for each of the six pairs i < j, and the
    # derivative rows of the eight pairs b <= c not read yet, each once
    assert len(dots) == 2 * 4 * 6 - 2 and len(grads) == 10 - 2
    dots.clear()
    grads.clear()
    _codazzi(h)
    assert len(dots) == 2 * 4 * 6 and len(grads) == 10  # a fresh stream, without the memo


def test_the_codazzi_memo_replays_the_fresh_stream():
    # a partial read, a second partial read and a full read of the memo, in that order,
    # yield the entries of a fresh stream of an equal bivector, which has no memo
    rng = random.Random(21)
    for n in range(1, 5):
        chart = Chart(f"R{n}", tuple(f"x{a}" for a in range(1, n + 1)))
        for h in [random_bivector(rng, chart, 2), algebra_to_kv(random_algebra(rng, n), chart), *sparse_bivectors(rng, chart)]:
            fresh = list(_codazzi_entries(SymBivector(chart, h.entries)))
            stop = rng.randrange(len(fresh) + 1)
            assert list(itertools.islice(h.codazzi(), stop)) == fresh[:stop]
            assert list(itertools.islice(h.codazzi(), stop + 1)) == fresh[: stop + 1]
            assert list(h.codazzi()) == fresh
            assert list(h.codazzi()) == fresh


def test_a_codazzi_stream_that_raises_raises_again_on_every_later_read():
    # T(1,2,1) = -x z^(2^30 + 1) is nonzero; the eighth entry, T(2,3,2), passes the largest
    # degree; the generator ends when it raises, so the memo must not read that as the end
    h = parse_scenario(
        "manifold M { dim 3 coords [x y z] }\nbivector h on M { [x*y, 0, 0; z^1073741825, 0; z^1073741825] }\n"
    ).env["h"]
    for _ in range(3):
        read = []
        with pytest.raises(DegreeOverflow):
            for at, _ in h.codazzi():
                read.append(at)
        assert read == [(0, 1, k) for k in range(3)] + [(0, 2, k) for k in range(3)] + [(1, 2, 0)]
    assert not is_kv(h)  # the first entry decides, before the entry that raises


def test_bracket_entries_build_one_derivative_table(monkeypatch):
    diffs = []
    original_diff = Expr.diff

    def counted_diff(e, v):
        diffs.append(None)
        return original_diff(e, v)

    chart = Chart("R4", ("x1", "x2", "x3", "x4"))
    h = random_bivector(random.Random(5), chart, 2)
    assert all(not e.is_zero() for row in h.entries for e in row)
    dots, grads = _count(monkeypatch, "_dot"), _count(monkeypatch, "_grad")
    monkeypatch.setattr(Expr, "diff", counted_diff)
    list(_bracket_entries(h))
    # d h_bc for the ten pairs b <= c, each once, and along the coordinates h_bc has
    pairs = [h.entries[b][c] for b in range(4) for c in range(b, 4)]
    assert sorted(map(id, grads)) == sorted(map(id, pairs))
    assert len(diffs) == sum(len(e.variables()) for e in pairs)
    # four sharps of four components, then X_a(h_bc) for four a and the nine pairs b <= c
    # other than (a, a): X_a(h_aa) enters no entry i < j
    assert len(dots) == 4 * 4 + 4 * 9


def test_bracket_h_one_dim_example():
    L = Chart("L", ("x",))
    h = SymBivector(L, ((Expr.const(1),),))
    alpha = OneForm(L, (X_,))
    beta = OneForm(L, (Expr.const(1),))
    out = bracket_h(h, alpha, beta)
    assert out == OneForm(L, (Expr.const(-1),))
    rng = random.Random(13)
    for _ in range(10):
        p = random_point(rng, 1)
        assert out.components[0].eval_at({"x": p[0]}) == -1


def test_bracket_h_constant_forms_and_antisymmetry():
    rng = random.Random(14)
    dx, dy = coordinate_form(M, 0), coordinate_form(M, 1)
    for _ in range(5):
        h = random_bivector(rng, M, 2)
        assert all(c.is_zero() for c in bracket_h(h, dx, dy).components)
        a, b = random_oneform(rng, M), random_oneform(rng, M)
        ab = bracket_h(h, a, b)
        ba = bracket_h(h, b, a)
        assert ab == OneForm(M, tuple(-c for c in ba.components))


def test_contravariant_D_examples_and_relations():
    dx = coordinate_form(M, 0)
    assert contravariant_D(H_DIAG, dx, dx) == OneForm(M, (Expr.const(1), Expr.const(0)))
    rng = random.Random(15)
    for _ in range(8):
        h = random_bivector(rng, M, 2)
        a, b = random_oneform(rng, M), random_oneform(rng, M)
        lhs = contravariant_D(h, a, b)
        rhs = contravariant_D(h, b, a)
        br = bracket_h(h, a, b)
        assert tuple(p - q for p, q in zip(lhs.components, rhs.components)) == br.components
        # module rule in the second slot: [a, f b] = f [a, b] + a^#(f) b
        f = random_scalar(rng, M, 2).value
        fb = OneForm(M, tuple(f * c for c in b.components))
        lhs2 = bracket_h(h, a, fb)
        sharp_a_f = pair(differential(ScalarField(M, f)), sharp(h, a))
        rhs2 = tuple(f * c + sharp_a_f * d for c, d in zip(br.components, b.components))
        assert lhs2.components == rhs2


def test_contravariant_D_sharp_compatible_when_kv():
    # (D_alpha beta)^# = nabla_{alpha^#} beta^# on K-V instances
    rng = random.Random(16)
    for h in (H_DIAG, H_LINE, H_SQ):
        for _ in range(4):
            a, b = random_oneform(rng, M), random_oneform(rng, M)
            lhs = sharp(h, contravariant_D(h, a, b))
            rhs = left_sym_product(sharp(h, a), sharp(h, b))
            assert lhs == rhs


def test_bracket_h_jacobi_identity_on_kv_instances():
    rng = random.Random(17)
    P3 = Chart("P3", ("x", "y", "z"))
    instances = [
        H_DIAG,
        H_LINE,
        H_SQ,
        SymBivector.diagonal(P3, [Expr.var("x"), Expr.var("y"), Expr.const(0)]),
    ]
    for h in instances:
        chart = h.chart
        for _ in range(3):
            a = random_oneform(rng, chart, 1)
            b = random_oneform(rng, chart, 1)
            c = random_oneform(rng, chart, 1)
            jac = [Expr.const(0)] * chart.dim
            for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
                term = bracket_h(h, p, bracket_h(h, q, r))
                jac = [s + t for s, t in zip(jac, term.components)]
            assert all(e.is_zero() for e in jac)


def test_hamiltonian_examples_and_symmetry():
    f = ScalarField(M, X_)
    assert hamiltonian(H_DIAG, f) == VectorField(M, (X_, Expr.const(0)))
    assert all(c.is_zero() for c in hamiltonian(H_DIAG, ScalarField(M, Expr.const(5))).components)
    rng = random.Random(18)
    for _ in range(8):
        h = random_bivector(rng, M, 2)
        f1, f2 = random_scalar(rng, M), random_scalar(rng, M)
        x1, x2 = hamiltonian(h, f1), hamiltonian(h, f2)
        v1 = pair(differential(f2), x1)
        v2 = pair(differential(f1), x2)
        assert v1 == v2
        assert v1 == bivector_pair(h, differential(f1), differential(f2))


def test_lie_derivative_value_and_residual():
    f = ScalarField(M, X_)
    ld = lie_derivative_h(H_DIAG, f)
    assert ld.entries[0][0] == -X_
    assert all(e.is_zero() for row in lie_derivative_residual(H_DIAG, f) for e in row)
    const = lie_derivative_h(H_DIAG, ScalarField(M, Expr.const(3)))
    assert all(e.is_zero() for row in const.entries for e in row)


def test_lie_derivative_residual_on_random_functions():
    # the identity is a statement about K-V bivectors; its proof needs the
    # anchor property, so non-K-V instances are excluded
    rng = random.Random(19)
    for h in (H_DIAG, H_LINE, H_SQ):
        for _ in range(6):
            f = random_scalar(rng, M, 3)
            res = lie_derivative_residual(h, f)
            assert all(e.is_zero() for row in res for e in row)


def test_lie_derivative_residual_can_fail_off_kv_instances():
    f = random_scalar(random.Random(23), M, 3)
    res = lie_derivative_residual(H_OFF, f)
    assert any(not e.is_zero() for row in res for e in row)


def test_in_E_examples():
    assert in_E(H_LINE, ScalarField(M, Y_))
    assert in_E(H_LINE, ScalarField(M, Y_ ** 3 - 2 * Y_))
    assert in_E(H_SQ, ScalarField(M, X_))
    assert not in_E(H_SQ, ScalarField(M, X_ ** 2))
    rng = random.Random(20)
    for _ in range(5):
        h = random_bivector(rng, M, 2)
        affine = ScalarField(M, Expr.const(2) + 3 * X_ - Y_)
        assert in_E(h, affine)


def test_special_class_examples():
    assert special_class_check(H_LINE, ScalarField(M, Y_), ScalarField(M, Y_ ** 2))
    assert not special_class_check(H_SQ, ScalarField(M, X_), ScalarField(M, X_))
    assert special_class_check(H_SQ, ScalarField(M, Expr.const(7)), ScalarField(M, X_))
    with pytest.raises(PreconditionViolated):
        special_class_check(H_SQ, ScalarField(M, X_ ** 2), ScalarField(M, X_))


def associator(X, Y, Z):
    """(X•Y)•Z - X•(Y•Z), componentwise."""
    a = left_sym_product(left_sym_product(X, Y), Z)
    b = left_sym_product(X, left_sym_product(Y, Z))
    return tuple(p - q for p, q in zip(a.components, b.components))


def test_left_sym_product_and_flatness():
    X1 = VectorField(M, (X_, Expr.const(0)))
    assert left_sym_product(X1, X1) == X1
    rng = random.Random(21)
    for _ in range(8):
        a = VectorField(M, (random_scalar(rng, M).value, random_scalar(rng, M).value))
        b = VectorField(M, (random_scalar(rng, M).value, random_scalar(rng, M).value))
        c = VectorField(M, (random_scalar(rng, M).value, random_scalar(rng, M).value))
        lhs = associator(a, b, c)
        rhs = associator(b, a, c)
        assert lhs == rhs  # flat torsion-free connection gives a left-symmetric algebra


def test_hamiltonian_fields_form_abelian_and_associative_structure_in_E():
    # on the idempotent-line dual: [X_f1, X_f2] = 0 and X_f1 • X_f2 = X_{h(df1,df2)}
    rng = random.Random(22)
    for _ in range(10):
        f1 = ScalarField(M, random_scalar(rng, Chart("Y", ("y",)), 3).value.substitute({"y": Y_}))
        f2 = ScalarField(M, random_scalar(rng, Chart("Y", ("y",)), 3).value.substitute({"y": Y_}))
        x1, x2 = hamiltonian(H_LINE, f1), hamiltonian(H_LINE, f2)
        assert all(c.is_zero() for c in lie_bracket(x1, x2).components)
        g = ScalarField(M, bivector_pair(H_LINE, differential(f1), differential(f2)))
        assert left_sym_product(x1, x2) == hamiltonian(H_LINE, g)


def test_rank_at_examples():
    assert rank_at(H_DIAG, (1, 1)) == 2
    assert rank_at(H_DIAG, (0, 0)) == 0
    assert rank_at(SymBivector.zero(M), (Fraction(1, 2), 3)) == 0
    P3 = Chart("P3", ("a", "b", "c"))
    assert rank_at(SymBivector.standard(P3), (5, -1, Fraction(2, 7))) == 3


def test_rank_at_pole():
    h = SymBivector(M, ((1 / X_, Expr.const(0)), (Expr.const(0), Expr.const(0))))
    with pytest.raises(PoleAtPoint):
        rank_at(h, (0, 1))


def test_degenerate_inputs_dim_one_and_zero_bivector():
    L = Chart("L", ("s",))
    hz = SymBivector.zero(L)
    assert is_kv(hz)
    f = ScalarField(L, Expr.var("s") ** 2)
    assert all(c.is_zero() for c in hamiltonian(hz, f).components)
    assert in_E(hz, f)
    assert rank_at(hz, (0,)) == 0
