"""Walk through the chart-level operators on two small bivector fields.

Everything below is exact: coefficients are rationals and every identity
verdict is a polynomial zero-test, so "0" really means zero.
"""

from kvgeom import (
    Chart,
    Expr,
    OneForm,
    ScalarField,
    SymBivector,
    bracket_h,
    contravariant_D,
    hamiltonian,
    in_E,
    is_kv,
    lie_derivative_h,
    parse_scenario,
    rank_at,
    run_scenario,
    sharp,
)

M = Chart("M", ("x", "y"))
x, y = Expr.var("x"), Expr.var("y")

# A linear diagonal structure; it satisfies the contravariant Codazzi identity.
h = SymBivector.diagonal(M, [x, y])
print("Codazzi defect vanishes:", is_kv(h))

# The same identities as checks of the scenario language: the five-term
# self-bracket, and an off-diagonal linear structure that fails the identity,
# reported at its first nonzero defect entry.
SCENARIO = """
manifold M { dim 2 coords [x y] }
bivector h on M { [x, 0; 0, y] }
bivector h_bad on M { [0, x; x, 0] }
check kv_bracket h
check codazzi h_bad
"""
bracket, defect = run_scenario(parse_scenario(SCENARIO), seed=42, samples=20).outcomes
print("five-term self-bracket vanishes:", bracket.status == "pass")
print(f"off-diagonal {defect.details}:", defect.witness.residual)

# The sharp map sends coordinate forms to the rows of the matrix.
dx = OneForm(M, (1, 0))
print("sharp of dx:", [str(c) for c in sharp(h, dx).components])

# Brackets and the contravariant connection, fully expanded in coordinates.
alpha = OneForm(M, (y, Expr.const(0)))
beta = OneForm(M, (Expr.const(1), x))
print("[alpha, beta]_h:", [str(c) for c in bracket_h(h, alpha, beta).components])
print("D_alpha beta:", [str(c) for c in contravariant_D(h, alpha, beta).components])

# Hamiltonian fields and the Lie derivative of h along them.
f = ScalarField(M, x)
print("X_f:", [str(c) for c in hamiltonian(h, f).components])
print("(L_{X_f} h)(dx,dx):", lie_derivative_h(h, f).entries[0][0])

# Functions affine along the leaves, and the rank of the sharp map.
h_line = SymBivector(M, ((x, Expr.const(0)), (Expr.const(0), Expr.const(0))))
print("y^2 leafwise-affine for the line structure:", in_E(h_line, ScalarField(M, y ** 2)))
print("rank at (1,1):", rank_at(h, (1, 1)), " rank at (0,0):", rank_at(h, (0, 0)))
