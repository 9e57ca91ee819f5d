"""Declare objects and checks in the scenario language and run them in-process."""

from kvgeom import parse_scenario, render_report
from kvgeom.engine import run_scenario

SCENARIO = """
# a structure, a function, and a few checks
manifold M { dim 2 coords [x y] }
bivector h on M { [x, 0; 0, y] }        # upper triangle would also do: [x, 0; y]
bivector broken on M { [0, x; x, 0] }
scalar f on M = x

check codazzi h
check jacobi_tangent h
check lie_derivative h f { entry 1 1 -x }
check codazzi broken { expect fail }    # annotated negative verdict
check rank h { points [1, 1; 0, 0] }
"""

scenario = parse_scenario(SCENARIO)
result = run_scenario(scenario, seed=42, samples=20)

print(render_report(result.outcomes, "text"))
print("exit code:", result.exit_code)
print()
print(render_report(result.outcomes, "json"))
