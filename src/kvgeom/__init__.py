"""Exact symbolic verification of Koszul-Vinberg geometry on affine charts.

The package decides structural conditions (Codazzi identity, K-V maps and
submanifolds, transversality, coisotropy) by exact polynomial identity
testing over the rationals, constructs the derived objects (brackets,
contravariant connection, Hamiltonian fields, tangent-bundle Poisson lift,
induced structures, conormal algebroids).  Every check decides its
residuals exactly, so the deterministic numeric sampling oracle, which
evaluates the residuals a check leaves undecided, has none to evaluate
today.
"""

from .errors import (
    ChartMismatch,
    ClosureFailure,
    DegenerateBasis,
    EngineInconsistency,
    InvalidAlgebra,
    InvalidSubspace,
    KVError,
    NotCoisotropic,
    NotTransverse,
    ParseError,
    PoleAtPoint,
    PreconditionViolated,
    SemanticError,
    UnknownVariable,
    ZeroDenominator,
)
from .symexpr import Expr, Poly, Rational
from .geometry import (
    Chart,
    OneForm,
    ScalarField,
    SymBivector,
    VectorField,
    bracket_h,
    contravariant_D,
    differential,
    hamiltonian,
    in_E,
    is_kv,
    left_sym_product,
    lie_bracket,
    lie_derivative_h,
    lie_derivative_residual,
    rank_at,
    sharp,
    special_class_check,
)
from .tangent import (
    SkewBivector,
    TangentChart,
    build_pi,
    lift_propositions_check,
    lift_vector,
    make_tangent_chart,
    pi_sharp,
)
from .structures import (
    AffineMap,
    AffineSubmanifold,
    ConormalAlgebroid,
    are_F_related,
    conormal_algebroid,
    graph_check,
    is_coisotropic,
    is_kv_map,
    is_kv_submanifold,
    is_transversal,
    preimage_transversal,
    product_kv,
    pullback,
)
from .algebra import (
    AlgebraSpec,
    SubspaceSpec,
    algebra_to_kv,
    annihilator_submanifold,
    validate_algebra,
    validate_subspace,
)
from .dsl import CheckOutcome, Scenario, parse_expr, parse_scenario, render_report, serialize
from .engine import RunConfig, run_scenario

__version__ = "0.1.0"
