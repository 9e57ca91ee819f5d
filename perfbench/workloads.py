"""Seeded scenario generators and independent known answers for the benchmark.

Every generated polynomial is kept as its own coefficient dict, mapping an
exponent vector to a ``Fraction``.  The expected verdicts are derived from
these dicts with plain ``Fraction`` arithmetic in this file; nothing here
imports ``kvgeom``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Poly = dict  # exponent tuple -> Fraction, zero coefficients absent


# --- polynomial dicts ----------------------------------------------------------


def p_diff(a: Poly, l: int) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        e = m[l]
        if e:
            mm = m[:l] + (e - 1,) + m[l + 1 :]
            out[mm] = out.get(mm, 0) + c * e
    return {m: c for m, c in out.items() if c}


def p_eval(a: Poly, point) -> Fraction:
    total = Fraction(0)
    for m, c in a.items():
        t = Fraction(c)
        for x, e in zip(point, m):
            if e:
                t *= x**e
        total += t
    return total


def p_affine(coeffs, const, n: int) -> Poly:
    """The polynomial const + sum_k coeffs[k] x_k."""
    out: Poly = {}
    if const:
        out[(0,) * n] = Fraction(const)
    for k, c in enumerate(coeffs):
        if c:
            out[tuple(1 if i == k else 0 for i in range(n))] = Fraction(c)
    return out


def p_text(a: Poly, coords) -> str:
    """Surface syntax, terms in a fixed order (degree, then exponent vector descending)."""
    out = ""
    for m in sorted(a, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = a[m]
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(coords, m) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        if out:
            out += f" - {body}" if c < 0 else f" + {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"


# --- exact linear algebra over Q ----------------------------------------------------


def det(mat) -> Fraction:
    rows = [[Fraction(x) for x in r] for r in mat]
    m = len(rows)
    d = Fraction(1)
    for c in range(m):
        piv = next((r for r in range(c, m) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for r in range(c + 1, m):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return d


def inverse(mat):
    m = len(mat)
    rows = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(m)] for i, r in enumerate(mat)]
    for c in range(m):
        piv = next(r for r in range(c, m) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [r[m:] for r in rows]


def annihilator(basis, n: int):
    """A basis of the linear forms vanishing on span(basis), by reduced row echelon form."""
    rows = [[Fraction(x) for x in b] for b in basis]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    out = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][free]
        out.append(v)
    return out


# --- independent evaluators ------------------------------------------------------


def codazzi_at(h, point):
    """T(i,j,k) = sum_l h_il d_l h_jk - h_jl d_l h_ik at a rational point, from the dicts."""
    n = len(h)
    H = [[p_eval(h[i][j], point) for j in range(n)] for i in range(n)]
    dH = [[[p_eval(p_diff(h[j][k], l), point) for l in range(n)] for k in range(n)] for j in range(n)]
    T = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                s = Fraction(0)
                for l in range(n):
                    if H[i][l] and dH[j][k][l]:
                        s += H[i][l] * dH[j][k][l]
                    if H[j][l] and dH[i][k][l]:
                        s -= H[j][l] * dH[i][k][l]
                T[i][j][k] = s
                T[j][i][k] = -s
    return T


def conormal_block_at(h, conormal, point):
    """A H(p) A^T, the rows of A spanning the conormal space."""
    n = len(h)
    H = [[p_eval(h[i][j], point) for j in range(n)] for i in range(n)]
    AH = [[sum(a[i] * H[i][j] for i in range(n) if a[i]) for j in range(n)] for a in conormal]
    return [[sum(r[j] * b[j] for j in range(n) if b[j]) for b in conormal] for r in AH]


# --- generators ------------------------------------------------------------------


def _rat(rng: random.Random, scale: int = 3) -> Fraction:
    den = rng.choice((1, 1, 2, 3))
    return Fraction(rng.randint(-scale * den, scale * den), den)


def _nonzero_rat(rng: random.Random, scale: int = 3) -> Fraction:
    while True:
        c = _rat(rng, scale)
        if c:
            return c


def _nonzero_int(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


def _monomials(n: int, degree: int):
    """Exponent vectors of total degree <= degree in n variables."""
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(degree + 1) for rest in _monomials(n - 1, degree - e)]


def _unit(n: int, i: int, e: int = 1):
    return tuple(e if j == i else 0 for j in range(n))


def diag_profile(rng: random.Random, n: int):
    """diag(f_1(x_1), ..., f_n(x_n)), each f_i of degree <= 3: K-V by construction."""
    h = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        f = {_unit(n, i, d): _nonzero_rat(rng) for d in range(4) if rng.random() < 0.7}
        h[i][i] = f or {_unit(n, i): Fraction(1)}
    return h


def _truncated_algebra(sizes):
    """Structure constants c[i][j][k] of the direct sum of Q[t]/(t^s) over s in sizes."""
    n = sum(sizes)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    base = 0
    for s in sizes:
        for a in range(s):
            for b in range(s - a):
                c[base + a][base + b][base + a + b] = Fraction(1)
        base += s
    return c


def algebra_dual(rng: random.Random, n: int, shear: int):
    """Dual of a commutative associative algebra, plus the symmetric cocycle (a, b) -> lambda(ab).

    The algebra is a direct sum of truncated polynomial algebras Q[t]/(t^s)
    written in the basis e'_i = sum_a B_ia e_a, where B is the identity plus
    ``shear`` random off-diagonal entries.  h_ij = sum_k c'_ij^k (x_k + lambda_k)
    is K-V because the algebra is commutative and associative.
    """
    sizes = []
    left = n
    while left:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    c = _truncated_algebra(sizes)
    B = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(shear):
        i, j = rng.sample(range(n), 2)
        B[i][j] = Fraction(rng.choice((-2, -1, 1, 2)))
    if not det(B):
        B = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Binv = inverse(B)
    lam = [_rat(rng, 2) for _ in range(n)]
    h = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = [Fraction(0)] * n  # e'_i e'_j in the old basis
            for a in range(n):
                for b in range(n):
                    w = B[i][a] * B[j][b]
                    if w:
                        for d in range(n):
                            prod[d] += w * c[a][b][d]
            cij = [sum(prod[d] * Binv[d][k] for d in range(n)) for k in range(n)]
            h[i][j] = p_affine(cij, sum(ck * lk for ck, lk in zip(cij, lam)), n)
    return h


def generic_quadratic(rng: random.Random, n: int, terms: int, integer: bool = False):
    """Symmetric bivector whose entries are ``terms`` random monomials of degree <= 2."""
    monos = _monomials(n, 2)
    coeff = _nonzero_int if integer else _nonzero_rat
    h = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            h[i][j] = h[j][i] = {m: coeff(rng) for m in rng.sample(monos, terms)}
    return h


def coords(n: int):
    return tuple(f"x{i + 1}" for i in range(n))


def _row_text(row) -> str:
    return ", ".join(str(x) for x in row)


def rows_text(rows) -> str:
    return "[" + "; ".join(_row_text(r) for r in rows) + "]"


def scenario_head(h) -> str:
    n = len(h)
    cs = coords(n)
    rows = "; ".join(", ".join(p_text(h[i][j], cs) for j in range(i, n)) for i in range(n))
    return f"manifold M {{ dim {n} coords [{' '.join(cs)}] }}\nbivector h on M {{ [{rows}] }}\n"


# --- cases ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    kind: str
    status: str  # status the report must show
    negative: bool  # the check's own verdict is negative ("failed as expected")


@dataclass(frozen=True)
class Case:
    name: str
    family: str
    text: str
    checks: tuple[Check, ...]


class GeneratorError(RuntimeError):
    pass


def _random_point(rng: random.Random, n: int):
    return tuple(_rat(rng, 2) for _ in range(n))


def tensor_case(rng: random.Random, name: str, family: str, n: int, param: int) -> Case:
    for _ in range(20):
        if family == "diag_profile":
            h = diag_profile(rng, n)
        elif family == "algebra_dual":
            h = algebra_dual(rng, n, param)
        else:
            h = generic_quadratic(rng, n, param)
        T = codazzi_at(h, _random_point(rng, n))
        kv = not any(v for plane in T for row in plane for v in row)
        if family != "generic_quadratic" or not kv:
            break  # a sparse random draw can vanish at the point, or be K-V: draw again
    if kv != (family != "generic_quadratic"):
        raise GeneratorError(f"{name}: Codazzi sum contradicts the construction of {family}")
    opt = "" if kv else " { expect fail }"
    kinds = ("codazzi", "kv_bracket", "jacobi_tangent")
    text = scenario_head(h) + "".join(f"check {k} h{opt}\n" for k in kinds)
    return Case(name, family, text, tuple(Check(k, "pass", not kv) for k in kinds))


def transversal_case(rng: random.Random, name: str, family: str, n: int, k: int, terms: int) -> Case:
    """Generic integer bivector and a k-plane whose conormal block is (n-k) x (n-k).

    ``line`` families use a coordinate k-plane through a point of {-1, 1}^n;
    ``generic`` families use a basis with entries in {-2, -1, 1, 2} and a
    rational origin with no zero coordinate.
    """
    for _ in range(20):
        h = generic_quadratic(rng, n, terms, integer=True)
        if family.startswith("generic"):
            while True:
                basis = [[Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(n)] for _ in range(k)]
                if len(annihilator(basis, n)) == n - k:
                    break
            origin = [_nonzero_rat(rng, 1) for _ in range(n)]
        else:
            axes = rng.sample(range(n), k)
            basis = [[Fraction(int(i == a)) for i in range(n)] for a in axes]
            origin = [Fraction(rng.choice((-1, 1))) for _ in range(n)]
        conormal = annihilator(basis, n)
        points = []
        for _ in range(2):
            t = [_rat(rng, 1) for _ in range(k)]
            points.append([o + sum(tj * b[i] for tj, b in zip(t, basis)) for i, o in enumerate(origin)])
        dets = [det(conormal_block_at(h, conormal, p)) for p in points]
        # nonzero at both points: transversal there; unequal: the determinant is not constant
        # on N, so the verdict is pointwise; nonzero somewhere: not coisotropic
        if all(dets) and dets[0] != dets[1]:
            break
    else:
        raise GeneratorError(f"{name}: no transversal instance found")
    text = (
        scenario_head(h)
        + f"submanifold N in M {{ origin [{_row_text(origin)}] basis {rows_text(basis)} }}\n"
        + f"check transversal N h {{ points {rows_text(points)} }}\n"
        + "check coisotropic N h { expect fail }\n"
    )
    checks = (Check("transversal", "pointwise-pass", False), Check("coisotropic", "pass", True))
    return Case(name, family, text, checks)


# (family, n, parameter) per op of one tensor_scaling block: half K-V, half generic;
# the parameter is the shear count of an algebra dual or the term count of a generic entry.
# Sorted by time, the ops fall into clusters by n; the counts put the median inside the
# n = 3 cluster and p90 inside the cluster of the three generic n = 6 ops, not at an edge.
TENSOR_BLOCK = (
    ("diag_profile", 2, 0),
    ("diag_profile", 2, 0),
    ("algebra_dual", 2, 1),
    ("diag_profile", 3, 0),
    ("algebra_dual", 3, 2),
    ("algebra_dual", 3, 2),
    ("algebra_dual", 4, 2),
    ("diag_profile", 5, 0),
    ("diag_profile", 6, 0),
    ("diag_profile", 6, 0),
    ("generic_quadratic", 2, 4),
    ("generic_quadratic", 2, 4),
    ("generic_quadratic", 3, 2),
    ("generic_quadratic", 3, 2),
    ("generic_quadratic", 3, 2),
    ("generic_quadratic", 3, 2),
    ("generic_quadratic", 4, 2),
    ("generic_quadratic", 6, 1),
    ("generic_quadratic", 6, 1),
    ("generic_quadratic", 6, 1),
)

# (family, n, k, terms) per op of one transversal_elim block: thirty decided cases, then one
# case past the budget, alternating between a 3x3 block at n = 6 and a 4x4 block at n = 5
TRANSVERSAL_BLOCK = (("line_3x3", 4, 1, 3),) * 30
PAST_BUDGET = (("generic_6d_3x3", 6, 3, 3), ("generic_5d_4x4", 5, 1, 3))

CORPUS = (
    "linear_dual_pair",
    "leafwise_affine_counterexample",
    "line_embeddings",
    "squares_submanifold",
    "diagonal_profile_submanifold",
    "ideal_subalgebra_annihilators",
    "euclidean_fiber_transversal",
    "axis_transversal_gap",
)


def block(workload: str, seed: int, index: int) -> list[Case]:
    """The cases of one block; the same (workload, seed, index) gives the same cases."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "tensor_scaling":
        return [
            tensor_case(rng, f"b{index:02d}o{i:02d}-{fam}-n{n}", fam, n, p)
            for i, (fam, n, p) in enumerate(TENSOR_BLOCK)
        ]
    if workload == "transversal_elim":
        return [
            transversal_case(rng, f"b{index:02d}o{i:02d}-{fam}", fam, n, k, t)
            for i, (fam, n, k, t) in enumerate(TRANSVERSAL_BLOCK + (PAST_BUDGET[index % 2],))
        ]
    raise ValueError(f"no generated inputs for workload {workload!r}")
