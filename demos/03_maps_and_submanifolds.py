"""Maps between structures, induced structures on submanifolds, and annihilators."""

from fractions import Fraction as Fr

from kvgeom import (
    AffineMap,
    AffineSubmanifold,
    AlgebraSpec,
    Chart,
    Expr,
    SubspaceSpec,
    SymBivector,
    algebra_to_kv,
    annihilator_submanifold,
    conormal_algebroid,
    graph_check,
    is_coisotropic,
    is_kv_map,
    is_kv_submanifold,
    is_transversal,
    preimage_transversal,
)

L = Chart("L", ("t",))
P = Chart("P", ("x", "y"))
t, x, y = Expr.var("t"), Expr.var("x"), Expr.var("y")
h1 = SymBivector(L, ((t ** 2,),))
h2 = SymBivector.diagonal(P, [x ** 2, y ** 2])

# Embedding the line along (a, b): the pairing survives only along an axis.
for a, b in ((1, 0), (1, 1)):
    f = AffineMap(L, P, ((Fr(a),), (Fr(b),)), (Fr(0), Fr(0)))
    # one residual M H1 M^T - H2 o F decides all four characterizations of Theorem 1
    print(f"slope ({a},{b}): K-V map = {is_kv_map(f, h1, h2)}")
    print("   graph coisotropic iff K-V:", graph_check(f, h1, h2).agree)

# Coordinate planes of the rank-one quadratic structure are K-V submanifolds.
R3 = Chart("R3", ("x1", "x2", "x3"))
xs = [Expr.var(c) for c in R3.coords]
h_sq = SymBivector(R3, tuple(tuple(xs[i] * xs[j] for j in range(3)) for i in range(3)))
plane = AffineSubmanifold(R3, (0, 0, 0), ((1, 0, 0), (0, 1, 0)))
res = is_kv_submanifold(plane, h_sq)
print("plane is a K-V submanifold:", res.ok)
print("induced entries:", [[str(e) for e in row] for row in res.induced.entries])

# Fibers of a coordinate projection are transversals of the standard structure.
h_std = SymBivector.standard(R3)
fiber = AffineSubmanifold(R3, (0, 0, 0), ((1, -1, 0), (1, 1, -2)))
tr = is_transversal(fiber, h_std)
print("fiber verdict:", tr.verdict)
print("induced (inverse Gram):", [[str(e) for e in row] for row in tr.induced.entries])

T1 = Chart("T1", ("w",))
proj = AffineMap(R3, T1, ((Fr(1), Fr(0), Fr(0)),), (Fr(0),))
rep = preimage_transversal(proj, h_std, SymBivector.standard(T1), AffineSubmanifold(T1, (0,), ()))
print("pulled-back point gives a transversal of dimension", rep.preimage.dim, "->", rep.ok)

# Annihilators in the dual of the idempotent-line algebra.
alg = AlgebraSpec.from_sparse(2, {(0, 0, 0): 1})
h_dual = algebra_to_kv(alg)
n_sub = annihilator_submanifold(SubspaceSpec(alg, ((Fr(1), Fr(0)),), "subalgebra"), h_dual.chart)
print("subalgebra annihilator coisotropic:", is_coisotropic(n_sub, h_dual))
conormal = conormal_algebroid(n_sub, h_dual)
print(
    "conormal product table:",
    [[[str(e) for e in row] for row in plane] for plane in conormal.table],
    "left-symmetric:",
    conormal.left_symmetric_ok,
)
n_ideal = annihilator_submanifold(SubspaceSpec(alg, ((Fr(0), Fr(1)),), "ideal"), h_dual.chart)
print("ideal annihilator is a K-V submanifold:", is_kv_submanifold(n_ideal, h_dual).ok)
