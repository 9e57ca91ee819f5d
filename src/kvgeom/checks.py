"""The check kinds: one ``CheckSpec`` per kind, in the table ``CHECKS``.

A spec says which declared objects a check takes, which chart rule ties
them together, which options it cannot do without, and how it runs.  The
parser (arity), the binder (argument kinds, reserved words, chart rules,
required options) and the engine (``run``) read this table, and a test holds
the README's list to it, so a new kind is added here and nowhere else.

``run(env, check, seed, samples)`` returns ``(status, details,
witness_or_expr)``: ``witness_or_expr`` is a ready ``Witness``, a nonzero
residual the engine searches a witness point for, or None.  Every check
decides its residuals itself, by ``is_zero()``, so none leaves a claim to
the numeric oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

from .algebra import AlgebraSpec, SubspaceSpec, algebra_to_kv, annihilator_submanifold, validate_algebra
from .errors import EngineInconsistency, InvalidAlgebra, PoleAtPoint, PreconditionViolated
from .geometry import (
    _bracket_entries,
    hessian_contraction,
    is_kv,
    lie_derivative_h,
    lie_derivative_residual,
    rank_at,
    special_class_check,
)
from .structures import (
    POINTWISE_TRUE,
    SYMBOLIC_TRUE,
    coisotropy_residuals,
    conormal_algebroid,
    graph_check,
    is_kv_map,
    is_kv_submanifold,
    is_transversal,
    kv_map_residuals,
    preimage_transversal,
)
from .symexpr import Expr, _rational_str, distinct_sample_points
from .tangent import _lift_jacobi_entries, lift_propositions_check

PASS = "pass"
FAIL = "fail"
POINTWISE_PASS = "pointwise-pass"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Witness:
    point: tuple[str, ...]  # rationals as "p/q" strings
    residual: str  # expression in the surface syntax


@dataclass(frozen=True)
class CheckSpec:
    args: tuple[str, ...]  # declaration kinds of the arguments, in order
    run: Callable
    chart_rule: Callable | None = None  # (env, check) -> error message or None
    needs: tuple[str, ...] = ()  # option keywords the check requires


# --- helpers --------------------------------------------------------------------


def _matrix_str(entries) -> str:
    """Rows of expressions or rationals in the surface syntax, e.g. ``[x, 1/2; 0, y]``."""
    rows = (", ".join(str(e) if isinstance(e, Expr) else _rational_str(e) for e in row) for row in entries)
    return "[" + "; ".join(rows) + "]"


def _point_str(p) -> str:
    return "(" + ", ".join(_rational_str(q) for q in p) + ")"


def _indexed(entries, at: tuple[int, ...] = ()):
    """(index, entry) pairs of a nested tuple of Expr, in row-major order."""
    for i, e in enumerate(entries):
        if isinstance(e, Expr):
            yield at + (i,), e
        else:
            yield from _indexed(e, at + (i,))


def _residual_verdict(residuals, passed: str, failed: str):
    """PASS when every residual is zero, or FAIL at the first nonzero one.

    ``residuals`` are (index, entry) pairs in row-major order: ``_indexed``
    of a full table, or a lazy generator of the entries that decide it.
    They are read up to the first nonzero one and no further, so a lazy
    generator computes no entry that the verdict does not read.  ``failed``
    may contain ``{at}``, which becomes the 1-based index of the failing
    entry, e.g. ``(1,2,3)``.
    """
    for idx, e in residuals:
        if not e.is_zero():
            at = "(" + ",".join(str(i + 1) for i in idx) + ")"
            return FAIL, failed.replace("{at}", at), e
    return PASS, passed, None


# --- chart rules ------------------------------------------------------------------


def _map_charts(env, check):
    a = check.args
    f = env[a[0]]
    if env[a[1]].chart != f.source or env[a[2]].chart != f.target:
        return f"check {check.kind}: bivectors must live on the map's source and target charts"
    if len(a) > 3 and env[a[3]].ambient != f.target:
        return f"check {check.kind}: submanifold must live on the target chart"
    return None


def _options_fit(check, dim: int):
    """Points and entry indices of the options against a chart of dimension ``dim``."""
    o = check.options
    rows = (o.points or ()) + ((o.point,) if o.point is not None else ())
    if any(len(row) != dim for row in rows):
        return f"check {check.kind}: points must have {dim} coordinates, one per chart coordinate"
    if any(not (1 <= i <= dim and 1 <= j <= dim) for i, j, _ in o.entries):
        return f"check {check.kind}: entry indices must lie between 1 and the chart dimension {dim}"
    return None


def _submanifold_chart(env, check):
    chart = env[check.args[0]].ambient
    if chart != env[check.args[1]].chart:
        return f"check {check.kind}: submanifold and bivector must share a chart"
    return _options_fit(check, chart.dim)


def _scalar_chart(env, check):
    chart = env[check.args[0]].chart
    if any(env[s].chart != chart for s in check.args[1:]):
        if len(check.args) > 2:
            return f"check {check.kind}: scalars must live on the bivector's chart"
        return f"check {check.kind}: bivector and scalar must share a chart"
    return _options_fit(check, chart.dim)


def _bivector_chart(env, check):
    return _options_fit(check, env[check.args[0]].chart.dim)


def _basis_dim(env, check):
    dim = env[check.args[0]].dim
    basis = check.options.basis
    if basis is not None and any(len(row) != dim for row in basis):
        return "annihilator basis vectors must match the algebra dimension"
    return None


# --- runs -----------------------------------------------------------------------


def _run_codazzi(env, check, seed, samples):
    entries = env[check.args[0]].codazzi()
    return _residual_verdict(entries, "contravariant Codazzi identity holds", "defect at indices {at}")


def _run_kv_bracket(env, check, seed, samples):
    h = env[check.args[0]]

    def compared():
        for (at, b), (_, t) in zip(_bracket_entries(h), h.codazzi()):
            if b != -t:
                raise EngineInconsistency("bracket stream does not match the Codazzi stream up to sign")
            yield at, b

    return _residual_verdict(compared(), "self-bracket of the bivector vanishes", "bracket nonzero at {at}")


def _run_jacobi_tangent(env, check, seed, samples):
    h = env[check.args[0]]
    verdict = _residual_verdict(
        _lift_jacobi_entries(h),
        "tangent-lift bivector satisfies the Jacobi identity",
        "Jacobiator nonzero at {at}",
    )
    if (verdict[0] == PASS) != is_kv(h):
        raise EngineInconsistency("tangent Jacobi verdict disagrees with the Codazzi verdict")
    return verdict


def _run_kv_map(env, check, seed, samples):
    a = check.args
    res = kv_map_residuals(env[a[0]], env[a[1]], env[a[2]])
    return _residual_verdict(_indexed(res), "map preserves the bivector pairing", "pairing mismatch at {at}")


def _run_theorem1(env, check, seed, samples):
    """Theorem 1's four characterizations of a K-V map, decided as one residual.

    With R = M H1 M^T - H2 o F (``kv_map_residuals``), the tangent map's
    residual on the lifts is [[0, R], [-R, 0]], the sharp relation for dy_j
    is column j of R, and the Hamiltonian relation for g is R (grad g o F).
    So the four hold together exactly when R vanishes, and the reports'
    "all four characterizations agree" holds on every input.
    """
    a = check.args
    common = "K-V map" if is_kv_map(env[a[0]], env[a[1]], env[a[2]]) else "not a K-V map"
    return PASS, f"all four characterizations agree: {common}", None


def _kv_note(h) -> str:
    return "" if is_kv(h) else " (warning: ambient bivector is not K-V)"


def _run_submanifold(env, check, seed, samples):
    res = is_kv_submanifold(env[check.args[0]], env[check.args[1]])
    note = _kv_note(env[check.args[1]])
    induced = "induced structure on a point" if res.induced is None else _matrix_str(res.induced.entries)
    return _residual_verdict(
        _indexed(res.residuals),
        f"conormal rows vanish on the submanifold; induced {induced}{note}",
        f"a conormal row of the bivector survives restriction{note}",
    )


def _run_transversal(env, check, seed, samples):
    h = env[check.args[1]]
    res = is_transversal(
        env[check.args[0]], h, sample_points=check.options.points, samples=samples, seed=seed,
    )
    note = _kv_note(h)
    if res.verdict == SYMBOLIC_TRUE:
        entries = res.induced.entries  # det D is a constant here, so this divides by a number
        induced = _matrix_str(entries) if entries else "point structure"
        return PASS, f"conormal block determinant is the nonzero constant {res.determinant}; induced {induced}{note}", None
    if res.verdict == POINTWISE_TRUE:
        pts = "; ".join(_point_str(p) for p, _ in res.samples)
        return POINTWISE_PASS, f"determinant {res.determinant} nonzero at sampled points {pts}{note}", None
    singular = [p for p, ok in res.samples if not ok]
    pts = "; ".join(_point_str(p) for p in singular)
    witness = Witness(tuple(_rational_str(q) for q in singular[0]), str(res.determinant))
    return FAIL, f"conormal block determinant vanishes on the submanifold (at {pts}){note}", witness


def _run_coisotropic(env, check, seed, samples):
    res = coisotropy_residuals(env[check.args[0]], env[check.args[1]])
    return _residual_verdict(
        _indexed(res),
        "sharp of the conormal stays tangent",
        "conormal-conormal block does not vanish on the submanifold",
    )


def _run_conormal(env, check, seed, samples):
    n_sub = env[check.args[0]]
    alg = conormal_algebroid(n_sub, env[check.args[1]])
    m = alg.conormal_dim
    ok = alg.left_symmetric_ok
    details = [f"conormal rank {m}", "left-symmetric identity holds" if ok else "left-symmetric identity FAILS"]
    if m:
        point = check.options.point
        params = n_sub.parameters_of(n_sub.origin if point is None else point)
        if params is None:
            raise PreconditionViolated("designated point does not lie on the submanifold")
        at = dict(zip(n_sub.chart.coords, params))
        if any(e.eval_at(at) for row in alg.anchor for e in row):
            details.append("anchor does not vanish at the designated point; fiber algebra not examined")
        else:
            fiber = [[[e.eval_at(at) for e in row] for row in plane] for plane in alg.table]
            # with the zero cocycle; the table is commutative, so the algebra is valid iff associative
            associative = validate_algebra(AlgebraSpec(m, fiber, ((0,) * m,) * m)).valid
            details.append(
                "fiber algebra at the designated point is "
                + ("commutative and associative" if associative else "NOT an algebra")
            )
            ok = ok and associative
    return (PASS if ok else FAIL), "; ".join(details), None


def _run_graph(env, check, seed, samples):
    a = check.args
    rep = graph_check(env[a[0]], env[a[1]], env[a[2]])
    details = f"graph coisotropic={rep.coisotropic}, kv_map={rep.kv_map}"
    if rep.agree:
        return PASS, f"graph characterization agrees: {details}", None
    return FAIL, f"graph characterization disagrees: {details}", None


def _run_preimage_transversal(env, check, seed, samples):
    a = check.args
    rep = preimage_transversal(
        env[a[0]], env[a[1]], env[a[2]], env[a[3]],
        samples=samples, seed=seed,
    )
    dims = f"preimage dimension {rep.preimage.dim}"
    if rep.ok:  # the check is exact; "at all samples" is older wording that the report goldens pin
        return PASS, f"{dims}; induced structures related by the restricted map at all samples", None
    return FAIL, f"{dims}; a pullback check failed", None


def _run_in_E(env, check, seed, samples):
    res = hessian_contraction(env[check.args[0]], env[check.args[1]])
    return _residual_verdict(
        _indexed(res), "function is affine along the leaves", "leafwise-affine residual nonzero at {at}"
    )


def _run_special_class(env, check, seed, samples):
    a = check.args
    if special_class_check(env[a[0]], env[a[1]], env[a[2]]):
        return PASS, "pairing of the two functions stays affine along the leaves", None
    return FAIL, "pairing leaves the leafwise-affine space", None


def _run_lie_derivative(env, check, seed, samples):
    h, f = env[check.args[0]], env[check.args[1]]
    lie = lie_derivative_h(h, f)
    kv_note = ""
    if is_kv(h):
        if not all(e.is_zero() for row in lie_derivative_residual(h, f) for e in row):
            raise EngineInconsistency("Hamiltonian Lie-derivative identity residual is nonzero")
    else:
        kv_note = " (bivector is not K-V; identity residual not asserted)"
    problems = []
    for i, j, expected in check.options.entries:
        got = lie.entries[i - 1][j - 1]
        if got != expected:
            problems.append(f"entry ({i},{j}) is {got}, expected {expected}")
    if problems:
        return FAIL, "; ".join(problems), None
    return PASS, f"Lie derivative {_matrix_str(lie.entries)}{kv_note}", None


def _run_lift_props(env, check, seed, samples):
    rep = lift_propositions_check(env[check.args[0]], env[check.args[1]])
    details = [
        "vertical lift is Hamiltonian for the lifted function",  # Pi_#(d(f o p)) = (0, X_f) by the lift's blocks
        f"horizontal lift preserves the lifted bivector: {rep.lie_pi_vanishes}",
        f"leafwise-affine: {rep.f_in_E}",
    ]
    if rep.ambient_kv:
        # mixed residual (i, j) is -sum_m d_m f T(m,i,j), zero on a K-V h: then block = -hc, and the
        # lift is invariant iff f is in E
        if not all(e.is_zero() for row in rep.mixed_residuals for e in row):
            raise EngineInconsistency("mixed lift residuals do not vanish on a K-V bivector")
    else:
        details.append("ambient bivector is not K-V; equivalence not asserted")
    return (PASS if rep.lie_pi_vanishes else FAIL), "; ".join(details), None


def _run_algebra(env, check, seed, samples):
    try:
        h = algebra_to_kv(env[check.args[0]])
    except InvalidAlgebra as e:  # its message names the first violated law
        return FAIL, str(e), None
    if not is_kv(h):
        raise EngineInconsistency("dual bivector of a valid algebra is not K-V")
    return PASS, "algebra laws hold; dual bivector is K-V", None


def _run_annihilator(env, check, seed, samples):
    spec = env[check.args[0]]
    opts = check.options
    h = algebra_to_kv(spec)
    n_sub = annihilator_submanifold(SubspaceSpec(spec, opts.basis, opts.subspace_kind), h.chart)
    if opts.subspace_kind == "ideal":
        return _residual_verdict(
            _indexed(is_kv_submanifold(n_sub, h).residuals),
            "ideal annihilator is a K-V submanifold of the dual",
            "ideal annihilator fails the K-V submanifold criterion",
        )
    return _residual_verdict(
        _indexed(coisotropy_residuals(n_sub, h)),
        "subalgebra annihilator is coisotropic in the dual",
        "subalgebra annihilator is not coisotropic",
    )


def _run_rank(env, check, seed, samples):
    h = env[check.args[0]]
    if check.options.points is not None:
        pts = [tuple(p) for p in check.options.points]
    else:
        pts = distinct_sample_points(Random(seed), h.chart.dim, samples)
    parts = []
    for p in pts:
        try:
            parts.append(f"{_point_str(p)} -> {rank_at(h, p)}")
        except PoleAtPoint:
            parts.append(f"{_point_str(p)} -> pole")
    return PASS, "sharp rank at sample points: " + "; ".join(parts), None


_MAP_PAIR = ("map", "bivector", "bivector")
_SUB = ("submanifold", "bivector")

CHECKS: dict[str, CheckSpec] = {
    "codazzi": CheckSpec(("bivector",), _run_codazzi),
    "kv_bracket": CheckSpec(("bivector",), _run_kv_bracket),
    "jacobi_tangent": CheckSpec(("bivector",), _run_jacobi_tangent),
    "kv_map": CheckSpec(_MAP_PAIR, _run_kv_map, _map_charts),
    "theorem1": CheckSpec(_MAP_PAIR, _run_theorem1, _map_charts),
    "submanifold": CheckSpec(_SUB, _run_submanifold, _submanifold_chart),
    "transversal": CheckSpec(_SUB, _run_transversal, _submanifold_chart),
    "coisotropic": CheckSpec(_SUB, _run_coisotropic, _submanifold_chart),
    "conormal": CheckSpec(_SUB, _run_conormal, _submanifold_chart),
    "graph": CheckSpec(_MAP_PAIR, _run_graph, _map_charts),
    "preimage_transversal": CheckSpec(_MAP_PAIR + ("submanifold",), _run_preimage_transversal, _map_charts),
    "in_E": CheckSpec(("bivector", "scalar"), _run_in_E, _scalar_chart),
    "special_class": CheckSpec(("bivector", "scalar", "scalar"), _run_special_class, _scalar_chart),
    "lie_derivative": CheckSpec(("bivector", "scalar"), _run_lie_derivative, _scalar_chart),
    "lift_props": CheckSpec(("bivector", "scalar"), _run_lift_props, _scalar_chart),
    "algebra": CheckSpec(("algebra",), _run_algebra),
    "annihilator": CheckSpec(("algebra",), _run_annihilator, _basis_dim, needs=("kind", "basis")),
    "rank": CheckSpec(("bivector",), _run_rank, _bivector_chart),
}
