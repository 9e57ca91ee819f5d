"""Decide whether the tangent-bundle lift of a symmetric bivector is Poisson.

The lift of h to TM is the skew bivector Pi = [[0, H], [-H, 0]]: it pairs
base coordinate forms with fiber ones. Its Jacobiator vanishes exactly when
h satisfies the Codazzi identity, because its only entries that can be
nonzero are h's Codazzi entries, re-indexed. So ``check jacobi_tangent``
reads them on h's own chart and never builds the lift; the script runs it
on a positive and a negative instance and compares with ``is_kv``. Then
``check lift_props`` asks whether the horizontal lift of a Hamiltonian
field preserves Pi.
"""

from kvgeom import Chart, Expr, SymBivector, is_kv, parse_scenario, run_scenario

M = Chart("M", ("x", "y"))
x, y = Expr.var("x"), Expr.var("y")

# check jacobi_tangent decides whether the lift is Poisson; check lift_props whether the
# horizontal lift of X_f preserves it.
SCENARIO = """
manifold M { dim 2 coords [x y] }
bivector h on M { [x, 0; 0, y] }
bivector h_bad on M { [0, x; x, 0] }
bivector h_line on M { [x, 0; 0, 0] }
scalar f_affine on M = y^2
scalar f_square on M = x^2
check jacobi_tangent h
check jacobi_tangent h_bad
check lift_props h_line f_affine
check lift_props h_line f_square
"""
good, bad, affine, square = run_scenario(parse_scenario(SCENARIO), seed=42, samples=20).outcomes
h_bad = SymBivector(M, ((Expr.const(0), x), (x, Expr.const(0))))
print("lift of diag(x, y):", good.status, "| is_kv:", is_kv(SymBivector.diagonal(M, [x, y])))
print("lift of [0, x; x, 0]:", bad.status, "-", bad.details, "| is_kv:", is_kv(h_bad))

# Hamiltonian lifts: on a K-V bivector, horizontal ones preserve the lift
# exactly for leafwise-affine functions.
for f, outcome in (("y^2", affine), ("x^2", square)):
    print(f"f = {f} on [x, 0; 0, 0]: {outcome.status} - {outcome.details}")
