"""Lift a symmetric bivector to a skew one on the tangent bundle and test it.

The lifted bivector pairs base coordinate forms with fiber ones; its
Jacobiator vanishes exactly when the base structure satisfies the Codazzi
identity, which the script checks on a positive and a negative instance.
"""

from kvgeom import (
    Chart,
    Expr,
    ScalarField,
    SymBivector,
    build_pi,
    is_kv,
    lift_propositions_check,
    parse_scenario,
    run_scenario,
)

M = Chart("M", ("x", "y"))
x, y = Expr.var("x"), Expr.var("y")

h = SymBivector.diagonal(M, [x, y])
pi = build_pi(h)
print("tangent chart coordinates:", pi.chart.coords)
print("mixed block entry Pi(dx, u_x):", pi.entries[0][2])

# check jacobi_tangent decides whether the lift is Poisson.
SCENARIO = """
manifold M { dim 2 coords [x y] }
bivector h on M { [x, 0; 0, y] }
bivector h_bad on M { [0, x; x, 0] }
check jacobi_tangent h
check jacobi_tangent h_bad
"""
good, bad = run_scenario(parse_scenario(SCENARIO), seed=42, samples=20).outcomes
print("Jacobiator vanishes:", good.status == "pass")

h_bad = SymBivector(M, ((Expr.const(0), x), (x, Expr.const(0))))
print("non-Codazzi instance lifts to non-Poisson:", bad.status == "fail")
print("matching base verdict:", not is_kv(h_bad))

# Hamiltonian lifts: on a K-V bivector, horizontal ones preserve the lifted
# bivector exactly for leafwise-affine functions.
h_line = SymBivector(M, ((x, Expr.const(0)), (Expr.const(0), Expr.const(0))))
for expr in (y ** 2, x ** 2):
    rep = lift_propositions_check(h_line, ScalarField(M, expr))
    print(f"f = {expr}: horizontal lift preserves: {rep.lie_pi_vanishes}, leafwise-affine: {rep.f_in_E}")
