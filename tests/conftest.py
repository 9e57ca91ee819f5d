"""Shared deterministic generators, references and build counters for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

import kvgeom.structures
from kvgeom import linalg
from kvgeom.algebra import AlgebraSpec
from kvgeom.checks import CHECKS
from kvgeom.geometry import Chart, OneForm, ScalarField, SymBivector, VectorField, coordinate_form, hamiltonian, sharp
from kvgeom.structures import AffineMap, pullback, relatedness_residuals
from kvgeom.symexpr import ZERO, Expr


def rational(rng: random.Random, scale: int = 2) -> Fraction:
    den = rng.randint(1, 3)
    return Fraction(rng.randint(-scale * den, scale * den), den)


def random_poly(rng: random.Random, variables: tuple[str, ...], degree: int, terms: int = 4) -> Expr:
    e = Expr.const(rational(rng))
    for _ in range(terms):
        c = rational(rng)
        if not c:
            continue
        t = Expr.const(c)
        for _ in range(rng.randint(0, degree)):
            t = t * Expr.var(rng.choice(variables))
        e = e + t
    return e


def random_rational_function(rng: random.Random, variables: tuple[str, ...], degree: int) -> Expr:
    num = random_poly(rng, variables, degree)
    den = random_poly(rng, variables, max(degree - 1, 1))
    while den.is_zero():
        den = random_poly(rng, variables, max(degree - 1, 1))
    return num / den


def random_bivector(rng: random.Random, chart: Chart, degree: int = 2) -> SymBivector:
    n = chart.dim
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = random_poly(rng, chart.coords, degree, terms=3)
            entries[i][j] = e
            entries[j][i] = e
    return SymBivector(chart, tuple(tuple(row) for row in entries))


def diagonal_profile(rng: random.Random, chart: Chart) -> SymBivector:
    """diag(f_1(x_1), ..., f_n(x_n)): each diagonal entry in its own coordinate, so K-V."""
    return SymBivector.diagonal(chart, [random_poly(rng, (v,), 2, terms=2) for v in chart.coords])


def bivector_with_a_rational_entry(rng: random.Random, chart: Chart) -> SymBivector:
    """Random affine bivector with one entry pair replaced by (linear) / (v^2 + c).

    The denominator has no rational zero; one such entry over affine ones
    keeps the gcds small.
    """
    h = random_bivector(rng, chart, 1)
    rows = [list(row) for row in h.entries]
    i, j = rng.randrange(chart.dim), rng.randrange(chart.dim)
    e = random_poly(rng, chart.coords, 1, terms=2) / (Expr.var(rng.choice(chart.coords)) ** 2 + rng.randint(1, 3))
    rows[i][j] = rows[j][i] = e
    return SymBivector(chart, tuple(tuple(row) for row in rows))


def sparse_bivectors(rng: random.Random, chart: Chart) -> list[SymBivector]:
    """Sparse bivectors on ``chart``, for the stream tests over supports.

    A random bivector with about half of its rows and columns zero, a single
    nonzero off-diagonal entry (the diagonal one on a line), a diagonal
    profile, and that profile with one off-diagonal entry (linear) / (v^2 + c).
    """
    n, coords = chart.dim, chart.coords

    def symmetric(cells):
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), e in cells.items():
            rows[i][j] = rows[j][i] = e
        return SymBivector(chart, tuple(map(tuple, rows)))

    dense = random_bivector(rng, chart, 2)
    zero = set(rng.sample(range(n), max(1, n // 2)))
    kept = {(i, j): dense.entries[i][j] for i in range(n) for j in range(i, n) if i not in zero and j not in zero}
    i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
    profile = diagonal_profile(rng, chart)
    a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
    quotient = random_poly(rng, coords, 1, terms=2) / (Expr.var(rng.choice(coords)) ** 2 + rng.randint(1, 3))
    return [
        symmetric(kept),
        symmetric({(i, j): random_poly(rng, coords, 2, terms=3)}),
        profile,
        symmetric({**{(k, k): profile.entries[k][k] for k in range(n)}, (a, b): quotient}),
    ]


def random_oneform(rng: random.Random, chart: Chart, degree: int = 2) -> OneForm:
    return OneForm(chart, tuple(random_poly(rng, chart.coords, degree, terms=3) for _ in chart.coords))


def random_field(rng: random.Random, chart: Chart, degree: int = 2) -> VectorField:
    return VectorField(chart, tuple(random_poly(rng, chart.coords, degree, terms=3) for _ in chart.coords))


def random_scalar(rng: random.Random, chart: Chart, degree: int = 3) -> ScalarField:
    return ScalarField(chart, random_poly(rng, chart.coords, degree, terms=5))


def random_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n))


def vanishing_on_sample_box(variable: str) -> Expr:
    """Product of (v - r) over every rational r = p/q, p in [-8, 8], q in [1, 8]: zero at every sampled value."""
    v, out = Expr.var(variable), Expr.const(1)
    for r in sorted({Fraction(p, q) for p in range(-8, 9) for q in range(1, 9)}):
        out = out * (v - Expr.const(r))
    return out


def random_algebra(rng: random.Random, dim: int) -> AlgebraSpec:
    """Random valid algebra: block sums of idempotent lines and truncated
    nilpotent chains, conjugated by a random invertible rational matrix."""
    blocks: list[int] = []
    remaining = dim
    while remaining > 0:
        size = rng.randint(1, remaining)
        blocks.append(size)
        remaining -= size
    C = [[[Fraction(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    offset = 0
    for size in blocks:
        if size == 1 and rng.random() < 0.5:
            if rng.random() < 0.7:
                C[offset][offset][offset] = Fraction(1)  # idempotent line
        else:
            # chain e_a e_b = e_{a+b+1} while inside the block (nilpotent truncation)
            for aa in range(size):
                for bb in range(size):
                    cc = aa + bb + 1
                    if cc < size:
                        C[offset + aa][offset + bb][offset + cc] = Fraction(1)
        offset += size

    # conjugate by a random invertible P: new constants of the pushed-forward product
    while True:
        P = [[rational(rng, 1) for _ in range(dim)] for _ in range(dim)]
        Pinv = linalg.inverse(P)
        if Pinv is not None:
            break
    base = AlgebraSpec(dim, tuple(tuple(tuple(r) for r in p) for p in C), tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim)))
    cols = linalg.transpose(linalg.to_mat(P))  # image of basis vectors
    newC = [[[Fraction(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            prod = base.multiply(cols[i], cols[j])
            coeffs = linalg.matvec(Pinv, prod)
            for k in range(dim):
                newC[i][j][k] = coeffs[k]

    # cocycle from a random linear functional tau: B(u, v) = tau(u.v)
    tau = [rational(rng, 2) for _ in range(dim)]
    b = [[Fraction(0) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            b[i][j] = sum((newC[i][j][k] * tau[k] for k in range(dim)), Fraction(0))
    return AlgebraSpec(
        dim,
        tuple(tuple(tuple(r) for r in p) for p in newC),
        tuple(tuple(r) for r in b),
    )


# --- full-table references of the three tensor identities ----------------------
#
# Each runs its formula over every (i, j, k) and skips nothing: no zero factor,
# no antisymmetric image and no cached row is left out.  The library reads each
# identity only as a lazy stream of entries; ``assert_stream_spans_table``
# compares such a stream with its reference entry by entry.


def ref_codazzi(coords, H):
    n = len(coords)
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = ZERO
                for l, v in enumerate(coords):
                    s = s + H[i][l] * H[j][k].diff(v) - H[j][l] * H[i][k].diff(v)
                out[i][j][k] = s
    return out


def kv_bracket_reference(h):
    """X_i(h_jk) - X_j(h_ik) + (X_j•X_k)_i - (X_i•X_k)_j - [X_i, X_j]_k for every (i, j, k).

    X_a is the sharp of dx_a, whose components are the row h_a; X(e) and
    X•Y = nabla_X Y are written out as sums over every coordinate.
    """
    coords, H = h.chart.coords, h.entries
    n = len(coords)

    def along(x, e):
        s = ZERO
        for l, v in enumerate(coords):
            s = s + x[l] * e.diff(v)
        return s

    def dot(x, y):
        return [along(x, c) for c in y]

    return [
        [
            [
                along(H[i], H[j][k])
                - along(H[j], H[i][k])
                + dot(H[j], H[k])[i]
                - dot(H[i], H[k])[j]
                - (dot(H[i], H[j])[k] - dot(H[j], H[i])[k])
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def ref_lift_chart(chart):
    """The chart (x, u) of the tangent bundle over ``chart``: its coordinates, then one fiber coordinate u_<c> each."""
    return Chart(f"T_{chart.name}", chart.coords + tuple(f"u_{c}" for c in chart.coords))


def ref_lift(h):
    """The skew lift Pi = [[0, H], [-H, 0]] of h on ``ref_lift_chart(h.chart)``, as a 2n x 2n list of rows."""
    n, H = h.chart.dim, h.entries
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            rows[i][n + j] = H[i][j]
            rows[n + i][j] = -H[i][j]
    return rows


def jacobiator_reference(h):
    """J(i,j,k) of ``ref_lift(h)``, summed over every l for every (i, j, k), zero factors included."""
    P = ref_lift(h)
    coords = ref_lift_chart(h.chart).coords
    n2 = len(coords)

    def term(l, a, b, c):
        return P[l][a] * P[b][c].diff(coords[l])

    return [
        [
            [
                sum((term(l, i, j, k) + term(l, j, k, i) + term(l, k, i, j) for l in range(n2)), Expr.const(0))
                for k in range(n2)
            ]
            for j in range(n2)
        ]
        for i in range(n2)
    ]


def lift_lie_derivative_reference(h, f):
    """(L_W Pi)^{ij} = W(Pi^{ij}) - Pi^{kj} d_k W^i - Pi^{ik} d_k W^j on ``ref_lift(h)``, for every (i, j).

    W = (X_f, 0) is the horizontal lift of X_f, whose components
    X_f^i = sum_l h_il d_l f are summed here too; every sum runs over all 2n
    coordinates of the lift, zero factors included.
    """
    n, base = h.chart.dim, h.chart.coords
    X = []
    for i in range(n):
        s = ZERO
        for l, v in enumerate(base):
            s = s + h.entries[i][l] * f.value.diff(v)
        X.append(s)
    W = X + [ZERO] * n
    P, coords = ref_lift(h), ref_lift_chart(h.chart).coords
    out = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            s = ZERO
            for k, v in enumerate(coords):
                s = s + W[k] * P[i][j].diff(v) - P[k][j] * W[i].diff(v) - P[i][k] * W[j].diff(v)
            row.append(s)
        out.append(row)
    return out


def assert_stream_spans_table(stream, ref, m):
    """``stream``, spread over the n x n x n table by antisymmetry in its first ``m`` slots, is ``ref``.

    The stream yields ((i, j, k), entry) for the indices whose first ``m``
    increase, in row-major order.  Where two of those ``m`` indices are
    equal, ``ref`` is zero; anywhere else it is the stream's entry at the
    sorted index, negated when the sort is an odd permutation.
    """
    got = list(stream)
    cube = list(product(range(len(ref)), repeat=3))
    assert [idx for idx, _ in got] == [idx for idx in cube if list(idx[:m]) == sorted(set(idx[:m]))]
    value = dict(got)
    for idx in cube:
        lead = idx[:m]
        if len(set(lead)) < m:
            want = ZERO
        else:
            inversions = sum(a > b for p, a in enumerate(lead) for b in lead[p + 1 :])
            s = value[tuple(sorted(lead)) + idx[m:]]
            want = -s if inversions % 2 else s
        i, j, k = idx
        assert ref[i][j][k] == want, idx


# --- Theorem 1, route by route -------------------------------------------------
#
# The library decides Theorem 1's four characterizations of a K-V map from one
# residual R = M H1 M^T - H2 o F.  These references compute R, and the residual
# of each of the three other characterizations, by their own routes: plain
# loops for the congruences, one ``Expr.substitute`` per entry for the
# compositions, and the public sharp, pullback and relatedness operators.


def ref_congruence(M, T):
    """M T M^T, summed over every (i, j) with no entry skipped or folded."""
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


def ref_components(f):
    """Target coordinate name -> M x + c as an expression, one product per matrix entry."""
    xs = [Expr.var(v) for v in f.source.coords]
    out = {}
    for y, row, c in zip(f.target.coords, f.matrix, f.offset):
        s = Expr.const(c)
        for m, x in zip(row, xs):
            s = s + Expr.const(m) * x
        out[y] = s
    return out


def ref_composed(T, f):
    """Each entry of the matrix T at F's components, one substitution per entry."""
    sub = ref_components(f)
    return [[e.substitute(sub) for e in row] for row in T]


def ref_kv_map_residual(f, h1, h2):
    """R = M H1 M^T - H2 o F."""
    return [
        [s - t for s, t in zip(srow, trow)]
        for srow, trow in zip(ref_congruence(f.matrix, h1.entries), ref_composed(h2.entries, f))
    ]


def ref_tangent_map(f):
    """TF(x, u) = (M x + c, M u) between the tangent charts."""
    n, m = f.source.dim, f.target.dim
    rows = [row + (0,) * n for row in f.matrix] + [(0,) * n + row for row in f.matrix]
    return AffineMap(ref_lift_chart(f.source), ref_lift_chart(f.target), rows, f.offset + (0,) * m)


def theorem1_routes(f, h1, h2, g):
    """The residuals of Theorem 1's tangent-lift, sharp and Hamiltonian characterizations of a K-V map F.

    ``lift`` is diag(M, M) Pi1 diag(M, M)^T - Pi2 o TF for the lifts Pi of
    ``ref_lift``; ``sharps[j]`` is the relatedness residual of the sharps of
    F* dy_j and dy_j; ``ham`` is the relatedness residual of X_{g o F} and
    X_g, for the expression g on the target chart.
    """
    tf = ref_tangent_map(f)
    lift = [
        [s - t for s, t in zip(srow, trow)]
        for srow, trow in zip(ref_congruence(tf.matrix, ref_lift(h1)), ref_composed(ref_lift(h2), tf))
    ]
    sharps = []
    for j in range(f.target.dim):
        dy = coordinate_form(f.target, j)
        sharps.append(relatedness_residuals(f, sharp(h1, pullback(f, dy)), sharp(h2, dy)))
    gF = g.substitute(ref_components(f))
    ham = relatedness_residuals(f, hamiltonian(h1, ScalarField(f.source, gF)), hamiltonian(h2, ScalarField(f.target, g)))
    return lift, sharps, ham


# --- the conormal check ----------------------------------------------------------


def conormal_check(n_sub, h, point=None) -> tuple[str, str]:
    """(status, details) of ``check conormal`` on N and h; without ``point`` the designated point is N's origin."""
    check = SimpleNamespace(args=("N", "h"), options=SimpleNamespace(point=point))
    status, details, _ = CHECKS["conormal"].run({"N": n_sub, "h": h}, check, 42, 8)
    return status, details


def fiber_associative_reference(F) -> bool:
    """Whether e_a e_b = sum_c F[a][b][c] e_c is associative, (ab)c = a(bc), by the plain four-index loop."""
    idx = range(len(F))
    return all(
        sum(F[a][b][e] * F[e][c][d] for e in idx) == sum(F[b][c][e] * F[a][e][d] for e in idx)
        for a, b, c, d in product(idx, repeat=4)
    )


# --- what structures builds ----------------------------------------------------


@dataclass
class Builds:
    """What ``structures`` builds while a test runs.

    ``blocks`` and ``full`` hold the bivector of each conormal block build
    (``to_conormal_block``) and each adapted bivector build
    (``to_adapted_bivector``); ``substituted`` maps the bindings of each
    ``substitute`` call (an affine map's, e.g. N's parametrization) to the
    distinct entries of each call under them; ``det`` holds (matrix size,
    eliminated columns) of each ``expr_det`` pass.
    """

    blocks: list = field(default_factory=list)
    full: list = field(default_factory=list)
    substituted: dict = field(default_factory=dict)
    det: list = field(default_factory=list)


@pytest.fixture
def builds(monkeypatch) -> Builds:
    """A ``Builds`` that records every build ``structures`` makes in the test."""
    out, structures = Builds(), kvgeom.structures

    def logged(build, log):
        def counted(along):
            log.append(along.h)
            return build(along)

        return counted

    def recorded(exprs, bindings, substitute=structures.substitute):
        key = tuple(sorted((v, str(e)) for v, e in bindings.items()))
        out.substituted.setdefault(key, []).append({str(e) for e in exprs})
        return substitute(exprs, bindings)

    def eliminated(mat, m, expr_det=structures.expr_det):
        out.det.append((len(mat), m))
        return expr_det(mat, m)

    monkeypatch.setattr(structures, "to_conormal_block", logged(structures.to_conormal_block, out.blocks))
    monkeypatch.setattr(structures, "to_adapted_bivector", logged(structures.to_adapted_bivector, out.full))
    monkeypatch.setattr(structures, "substitute", recorded)
    monkeypatch.setattr(structures, "expr_det", eliminated)
    return out
