"""Every operator that contracts through ``geometry._dot`` against the plain loop it replaced.

Each reference below, and ``ref_codazzi`` in conftest, starts from zero, runs over the full index range and
skips nothing, so a contraction that leaves out a product it should keep
shows up as a differing entry.  Inputs are random on R^1..R^4, with zero
entries and one rational entry whose denominator is linear: the bivector's,
or a vector's where no bivector takes part.
"""

import random
from fractions import Fraction

import pytest

from conftest import assert_stream_spans_table, random_algebra, random_poly, random_scalar, ref_codazzi
from kvgeom.algebra import algebra_to_kv
from kvgeom.geometry import (
    Chart,
    OneForm,
    SymBivector,
    VectorField,
    _codazzi_entries,
    apply_field,
    bivector_pair,
    contravariant_D,
    differential,
    hessian_contraction,
    lie_derivative_h,
    pair,
    sharp,
)
from kvgeom.structures import _algebroid_associator_residuals, _congruence, _matvec
from kvgeom.symexpr import ZERO, Expr
from kvgeom.tangent import build_pi, make_tangent_chart, pi_sharp

DIMS = [1, 2, 3, 4]


# --- the loops, written out ---------------------------------------------------


def ref_sharp(H, a):
    out = []
    for j in range(len(a)):
        s = ZERO
        for i in range(len(a)):
            s = s + a[i] * H[i][j]
        out.append(s)
    return out


def ref_pair(a, x):
    s = ZERO
    for i in range(len(a)):
        s = s + a[i] * x[i]
    return s


def ref_bivector_pair(H, a, b):
    s = ZERO
    for i in range(len(a)):
        for j in range(len(b)):
            s = s + a[i] * b[j] * H[i][j]
    return s


def ref_apply_field(coords, x, e):
    s = ZERO
    for i, v in enumerate(coords):
        s = s + x[i] * e.diff(v)
    return s


def ref_contravariant_D(coords, H, a, b):
    X = ref_sharp(H, a)
    out = []
    for j, v in enumerate(coords):
        s = ZERO
        for k in range(len(a)):
            for l in range(len(b)):
                s = s + a[k] * b[l] * H[k][l].diff(v)
        out.append(s + ref_apply_field(coords, X, b[j]))
    return out


def ref_lie_derivative(coords, T, X):
    n = len(coords)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = ZERO
            for k, v in enumerate(coords):
                s = s + X[k] * T[i][j].diff(v)
            for k, v in enumerate(coords):
                s = s - T[k][j] * X[i].diff(v) - T[i][k] * X[j].diff(v)
            out[i][j] = s
    return out


def ref_hessian_contraction(coords, H, f):
    n = len(coords)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = ZERO
            for l, u in enumerate(coords):
                for m, v in enumerate(coords):
                    s = s + H[i][l] * H[j][m] * f.diff(u).diff(v)
            out[i][j] = s
    return out


def ref_algebra_to_kv(a, xs):
    n = a.dim
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = Expr.const(a.cocycle[i][j])
            for k in range(n):
                s = s + Expr.const(a.product[i][j][k]) * xs[k]
            out[i][j] = s
    return out


def ref_congruence(M, T):
    out = []
    for row_a in M:
        out_row = []
        for row_b in M:
            s = ZERO
            for i in range(len(T)):
                for j in range(len(T)):
                    s = s + Expr.const(row_a[i] * row_b[j]) * T[i][j]
            out_row.append(s)
        out.append(out_row)
    return out


def ref_associator_residuals(coords, table, anchor):
    m = len(table)

    def ass(a, b, g):
        out = []
        for e in range(m):
            s = ZERO
            for c in range(m):
                s = s + table[a][b][c] * table[c][g][e] - table[b][g][c] * table[a][c][e]
            for j, v in enumerate(coords):
                s = s - anchor[a][j] * table[b][g][e].diff(v)
            out.append(s)
        return out

    residuals = []
    for a in range(m):
        for b in range(a + 1, m):
            for g in range(m):
                residuals.extend(p - q for p, q in zip(ass(a, b, g), ass(b, a, g)))
    return residuals


# --- inputs --------------------------------------------------------------------


def chart_of(n, stem="x"):
    return Chart(f"R{n}", tuple(f"{stem}{a}" for a in range(1, n + 1)))


def sparse_entry(rng, coords, degree=2):
    return ZERO if rng.random() < 0.35 else random_poly(rng, coords, degree, terms=2)


def rational_entry(rng, coords):
    """(linear) / (v + c): one such entry keeps the gcds small."""
    return random_poly(rng, coords, 1, terms=2) / (Expr.var(rng.choice(coords)) + rng.randint(1, 3))


def sparse_bivector(rng, chart):
    """Symmetric, with zero entries and one rational entry pair."""
    n = chart.dim
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = sparse_entry(rng, chart.coords)
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i][j] = rows[j][i] = rational_entry(rng, chart.coords)
    return SymBivector(chart, tuple(map(tuple, rows)))


def sparse_vector(rng, coords, rational=False, degree=2):
    """Polynomial components with zeros; with ``rational``, one of them is rational."""
    out = [sparse_entry(rng, coords, degree) for _ in coords]
    if rational:
        out[rng.randrange(len(out))] = rational_entry(rng, coords)
    return tuple(out)


def assert_entrywise_equal(got, want, path=()):
    if isinstance(want, Expr):
        assert got == want, path
        return
    assert len(got) == len(want), path
    for i, (g, w) in enumerate(zip(got, want)):
        assert_entrywise_equal(g, w, path + (i,))


def cases(n, count=3):
    rng = random.Random(900 + n)
    chart = chart_of(n)
    for _ in range(count):
        yield rng, chart, sparse_bivector(rng, chart)


# --- comparisons -----------------------------------------------------------------


@pytest.mark.parametrize("n", DIMS)
def test_sharp_pair_and_bivector_pair_equal_the_loops(n):
    for rng, chart, h in cases(n):
        coords = chart.coords
        a, b, x = sparse_vector(rng, coords), sparse_vector(rng, coords), sparse_vector(rng, coords, True)
        alpha, beta, X = OneForm(chart, a), OneForm(chart, b), VectorField(chart, x)
        assert_entrywise_equal(sharp(h, alpha).components, ref_sharp(h.entries, a))
        assert_entrywise_equal(pair(alpha, X), ref_pair(a, x))
        assert_entrywise_equal(bivector_pair(h, alpha, beta), ref_bivector_pair(h.entries, a, b))
        for e in (h.entries[0][-1], a[0]):
            assert_entrywise_equal(apply_field(X, e), ref_apply_field(chart.coords, x, e))


@pytest.mark.parametrize("n", DIMS)
def test_contravariant_D_and_codazzi_equal_the_loops(n):
    for rng, chart, h in cases(n):
        # quadratic forms: sum_kl a_k b_l d_v h_kl over (v + c)^2 meets a gcd of a polynomial in all the
        # coordinates with one in v alone, which the gcd reduces to gcds with the coefficients in v
        a, b = sparse_vector(rng, chart.coords), sparse_vector(rng, chart.coords)
        D = contravariant_D(h, OneForm(chart, a), OneForm(chart, b))
        assert_entrywise_equal(D.components, ref_contravariant_D(chart.coords, h.entries, a, b))
        assert_stream_spans_table(_codazzi_entries(h), ref_codazzi(chart.coords, h.entries), 2)


@pytest.mark.parametrize("n", DIMS)
def test_lie_derivative_and_hessian_contraction_equal_the_loops(n):
    for rng, chart, h in cases(n, count=2):
        f = random_scalar(rng, chart)
        X = ref_sharp(h.entries, differential(f).components)
        assert_entrywise_equal(lie_derivative_h(h, f).entries, ref_lie_derivative(chart.coords, h.entries, X))
        assert_entrywise_equal(hessian_contraction(h, f), ref_hessian_contraction(chart.coords, h.entries, f.value))


@pytest.mark.parametrize("n", DIMS)
def test_pi_sharp_equals_the_loop(n):
    for rng, chart, h in cases(n):  # the rational entry is h's
        tc = make_tangent_chart(chart)
        a = sparse_vector(rng, tc.chart.coords)
        pi = build_pi(h, tc)
        assert_entrywise_equal(pi_sharp(pi, OneForm(tc.chart, a)).components, ref_sharp(pi.entries, a))


@pytest.mark.parametrize("n", DIMS)
def test_algebra_to_kv_equals_the_loop(n):
    rng = random.Random(950 + n)
    for _ in range(3):
        a = random_algebra(rng, n)
        h = algebra_to_kv(a)
        assert_entrywise_equal(h.entries, ref_algebra_to_kv(a, [Expr.var(v) for v in h.chart.coords]))


@pytest.mark.parametrize("n", DIMS)
def test_matvec_and_congruence_equal_the_loops(n):
    for rng, chart, h in cases(n):
        for rows in (1, n):
            M = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(rows)]
            v = sparse_vector(rng, chart.coords, True)
            want = [ref_pair([Expr.const(c) for c in row], v) for row in M]
            assert_entrywise_equal(_matvec(M, v), want)
            want = ref_congruence(M, h.entries)
            assert_entrywise_equal(_congruence(M, h.entries), want)
            assert_entrywise_equal(_congruence(M, h.entries, symmetric=True), want)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_conormal_associator_residuals_equal_the_loops(m):
    rng = random.Random(970 + m)
    for k in (1, 2):
        chart = chart_of(k, "y")
        for _ in range(3):
            table = [[tuple(sparse_entry(rng, chart.coords, 1) for _ in range(m)) for _ in range(m)] for _ in range(m)]
            a, b, c = rng.randrange(m), rng.randrange(m), rng.randrange(m)
            table[a][b] = table[a][b][:c] + (rational_entry(rng, chart.coords),) + table[a][b][c + 1:]
            anchor = [tuple(sparse_entry(rng, chart.coords, 1) for _ in range(k)) for _ in range(m)]
            got = _algebroid_associator_residuals(chart, table, anchor)
            assert_entrywise_equal(got, ref_associator_residuals(chart.coords, table, anchor))
